"""Non-unitary wave-packet evolution on the ladder."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, OutOfRange, Overflow, ZeroState
from .spectral import eig

# raw stored states carry the accumulated norm; cap it below float range
_LOG_NORM_MAX = math.log(1e300)
_EVEC_CONDITION_MAX = 1e6


@dataclass(frozen=True)
class WavepacketTrace:
    """Evolution record: times, raw states (columns, unit shape times
    norms), norms relative to t=0, and per-step displacement IPR and
    cell-support counts."""

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    mipr_series: np.ndarray
    support_series: np.ndarray


def initial_state(L, cell=None, weights=(1.0, 0.0)):
    """Normalized state on one cell (1-based; default is the center cell
    ceil(L/2)) with leg amplitudes weights = (a, b)."""
    if cell is None:
        cell = (L + 1) // 2
    if not 1 <= cell <= L:
        raise OutOfRange(f"cell {cell} outside 1..{L}")
    wa, wb = complex(weights[0]), complex(weights[1])
    nrm = math.hypot(abs(wa), abs(wb))
    if nrm == 0.0:
        raise ZeroState("both leg weights vanish")
    psi = np.zeros(2 * L, dtype=complex)
    psi[2 * (cell - 1)] = wa / nrm
    psi[2 * (cell - 1) + 1] = wb / nrm
    return psi


def _mipr_rows(units, L):
    """Displacement IPR of each row of units (..., 2L); the row kernel
    behind mipr, the trace series and the mipr map."""
    p2 = np.abs(units) ** 2
    norm2 = p2.sum(axis=-1)
    if not norm2.all():
        raise ZeroState("cannot normalize the zero state")
    p4 = (p2 / norm2[..., None]) ** 2
    w = (L / 2.0 - np.arange(1, L + 1)) / (L / 2.0)
    # vecdot reduces each row as np.dot does, bit for bit
    return np.vecdot(p4[..., 0::2] + p4[..., 1::2], w)


def _support_rows(units, fraction=1e-6):
    """Cell-support count of each row of units (..., 2L)."""
    p2 = np.abs(units) ** 2
    cells = p2[..., 0::2] + p2[..., 1::2]
    peak = cells.max(axis=-1, initial=0.0)
    if not peak.all():
        raise ZeroState("state has no weight")
    return (cells > fraction * peak[..., None]).sum(axis=-1)


def mipr(state, L):
    """Displacement-weighted IPR: sum_j w_j (|a_j|^4 + |b_j|^4) with
    w_j = (L/2 - j)/(L/2), j = 1..L. Positive values mean weight piled
    on the left half."""
    if L % 2 != 0:
        raise ValueError("mipr weights assume an even cell count L")
    psi = np.asarray(state, dtype=complex).ravel()
    if psi.size != 2 * L:
        raise ValueError(f"expected 2L = {2 * L} sites, got {psi.size}")
    return float(_mipr_rows(psi, L))


def compacton_support(state, fraction=1e-6):
    """Number of cells whose intensity exceeds fraction times the peak
    cell intensity."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    psi = np.asarray(state, dtype=complex).ravel()
    return int(_support_rows(psi, fraction))


def _trace_arrays(times, units, lognorms, L):
    norms = np.exp(np.asarray(lognorms))
    units = np.asarray(units)
    states = units.T * norms[None, :]
    return WavepacketTrace(times, states, norms, _mipr_rows(units, L),
                           _support_rows(units))


def _row_norms(x):
    """2-norm of each row of x, equal to np.linalg.norm bit for bit."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _step_stack(U, psi0, times):
    """Evolve a stack of unit states psi0 (B, 2L) with their one-step
    propagators U (B, 2L, 2L) over the uniform grid times, one stacked
    product per step.

    Yields (live, units, lognorms, failed) after each step: the stack
    indices still running, their unit states and accumulated log norms,
    and {index: exception} for the rows that dropped out at this step (a
    vanishing norm raises math.log's ValueError, a norm past 1e300
    Overflow). Stops early once every row has dropped out.
    """
    live = np.arange(len(psi0))
    lognorms = [0.0] * len(psi0)
    phi = psi0
    for k in range(1, len(times)):
        # one mat-vec product per row, equal to U[i] @ phi[i] bit for bit
        phi = (U @ phi[:, :, None])[:, :, 0]
        g = _row_norms(phi)
        failed = {}
        for i, gi in enumerate(g.tolist()):
            try:
                lognorms[i] += math.log(gi)
            except ValueError as exc:  # the norm vanished
                failed[i] = exc
                continue
            if lognorms[i] > _LOG_NORM_MAX:
                failed[i] = Overflow(
                    f"state norm exceeded 1e300 at t = {times[k]:.6g}",
                    time=float(times[k]))
        if failed:
            keep = [i for i in range(len(live)) if i not in failed]
            failed = {int(live[i]): exc for i, exc in failed.items()}
            live, U, phi, g = live[keep], U[keep], phi[keep], g[keep]
            lognorms = [lognorms[i] for i in keep]
        phi = phi / g[:, None]
        yield live, phi, tuple(lognorms), failed
        if not len(live):
            return


def _step_propagator(H, times):
    """exp(-i dt H) for the spacing dt of the uniform grid times.

    scipy.linalg is imported here, its only use, so the commands that
    never step a state do not load it."""
    import scipy.linalg

    dt = times[1] - times[0]
    return scipy.linalg.expm(-1j * dt * H)


def _propagate_expm(H, psi0, times, L):
    U = _step_propagator(H, times)
    units = [psi0]
    lognorms = [0.0]
    for _, phi, lognorm, failed in _step_stack(U[None], psi0[None], times):
        if failed:
            raise failed[0]
        units.append(phi[0])
        lognorms.append(lognorm[0])
    return _trace_arrays(times, units, lognorms, L)


def _final_mipr_and_support(U, psi0, times, L):
    """Evolve a stack of unit states psi0 (B, 2L) with their one-step
    propagators U (B, 2L, 2L) and return, per row, the mIPR of the final
    state and the largest cell support over all times, without keeping the
    history: (mipr_final, max_support, failed). failed maps the rows that
    dropped out to their exception; their entries of the arrays are
    meaningless. Each value equals propagate(..., method="expm") bit for
    bit."""
    max_support = _support_rows(psi0)
    mipr_final = np.zeros(len(psi0))
    failed = {}
    for live, phi, _, dropped in _step_stack(U, psi0, times):
        failed.update(dropped)
        max_support[live] = np.maximum(max_support[live], _support_rows(phi))
    mipr_final[live] = _mipr_rows(phi, L)
    return mipr_final, max_support, failed


def _propagate_eig(H, psi0, times, L, res=None):
    if res is None:
        res = eig(H, want_vectors=True)
    V = res.right_eigenvectors
    E = res.eigenvalues
    try:
        c = np.linalg.solve(V, psi0)
    except np.linalg.LinAlgError:
        raise IllConditioned("eigenvector matrix is numerically singular")
    with np.errstate(divide="ignore"):
        logc = np.log(np.abs(c))
    # the expansion at every time t_1..t_T at once: row k is time t_{k+1}
    t = times[1:, None]
    logw = logc + E.imag * t
    shift = logw.max(axis=1)
    alive = np.isfinite(logw)
    w = np.zeros(logw.shape, dtype=complex)
    w[alive] = np.exp((logw - shift[:, None])[alive]) * np.exp(
        1j * (np.angle(c) - E.real * t)[alive])
    # one mat-vec product per time, equal to V @ w[k] bit for bit
    phi = (V @ w[:, :, None])[:, :, 0]
    del logw, alive, w  # free before the trace is built
    g = _row_norms(phi)
    # math.log per time, as the stepper takes it: np.log need not round alike
    lognorms = [0.0]
    for k, (gk, sk) in enumerate(zip(g.tolist(), shift.tolist()), 1):
        if gk == 0.0:
            raise ZeroState(f"evolved state vanished at t = {times[k]:.6g}")
        lognorms.append(sk + math.log(gk))
        if lognorms[-1] > _LOG_NORM_MAX:
            raise Overflow(f"state norm exceeded 1e300 at t = {times[k]:.6g}",
                           time=float(times[k]))
    units = np.empty((len(times), len(psi0)), dtype=complex)
    units[0] = psi0
    np.divide(phi, g[:, None], out=units[1:])
    del phi
    return _trace_arrays(times, units, lognorms, L)


def _evolution_inputs(H, psi0, t_max, n_steps, method):
    """Validated complex H, unit psi0 and the time grid of propagate."""
    H = np.asarray(H, dtype=complex)
    dim = H.shape[0]
    if H.ndim != 2 or H.shape[1] != dim:
        raise ValueError("square matrix required")
    if dim % 2 != 0:
        raise ValueError("even dimension required (two sites per cell)")
    if not np.all(np.isfinite(H.real)) or not np.all(np.isfinite(H.imag)):
        raise ValueError("H must have finite entries")
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    if psi0.size != dim:
        raise ValueError(f"state length {psi0.size} does not match {dim}")
    nrm = float(np.linalg.norm(psi0))
    if nrm == 0.0:
        raise ZeroState("cannot evolve the zero state")
    psi0 = psi0 / nrm
    if not (isinstance(n_steps, (int, np.integer)) and n_steps >= 1):
        raise ValueError("n_steps must be a positive integer")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError("t_max must be positive and finite")
    if method not in ("auto", "eig", "expm"):
        raise ValueError(f"unknown method {method!r}")
    return H, psi0, np.linspace(0.0, float(t_max), n_steps + 1)


def propagate(H, psi0, t_max, n_steps, method="auto"):
    """Evolve psi0 under exp(-iHt) on a uniform grid of n_steps intervals.

    method "eig" expands in the right eigenbasis (cheap per step, needs a
    well-conditioned basis), "expm" steps with a fixed matrix exponential,
    "auto" picks eig when the eigenvector condition number is below 1e6.
    The returned trace holds raw states; norms are accumulated in log space
    and an Overflow is raised past 1e300.
    """
    H, psi0, times = _evolution_inputs(H, psi0, t_max, n_steps, method)
    L = H.shape[0] // 2
    if method == "expm":
        return _propagate_expm(H, psi0, times, L)
    res = eig(H, want_vectors=True)
    if method == "eig" or res.evec_condition < _EVEC_CONDITION_MAX:
        return _propagate_eig(H, psi0, times, L, res)
    return _propagate_expm(H, psi0, times, L)
