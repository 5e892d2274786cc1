"""Non-unitary wave-packet evolution on the ladder."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, OutOfRange, Overflow, ZeroState
from .spectral import eig

# raw stored states carry the accumulated norm; cap it below float range
_LOG_NORM_MAX = math.log(1e300)
# states per support-counting pass of the mIPR map, (B, 16, 2, L) at most
_SUPPORT_CHUNK = 16
# an eigen-expansion whose eigenvector condition reaches 1/eps keeps no digit
_EVEC_CONDITION_MAX = 1.0 / np.finfo(float).eps
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(4, 4)


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
    if not (cmath.isfinite(wa) and cmath.isfinite(wb)):
        raise ValueError(f"leg weights must be finite, got {weights!r}")
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


def _cell_support(cells, fraction=1e-6):
    """Number of entries of each row of cell intensities (..., L) above
    fraction times the row's peak."""
    peak = cells.max(axis=-1, initial=0.0)
    if not peak.all():
        raise ZeroState("state has no weight")
    return (cells > fraction * peak[..., None]).sum(axis=-1)


def _support_rows(units, fraction=1e-6):
    """Cell-support count of each row of units (..., 2L)."""
    p2 = np.abs(units) ** 2
    return _cell_support(p2[..., 0::2] + p2[..., 1::2], fraction)


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
    """Evolve a stack of unit states psi0 (B, ..., n) with their one-step
    propagators U (B, ..., n, n) over the uniform grid times, one stacked
    product per step.

    A row is one state: a ladder state (B, 2L) with U (B, 2L, 2L), or
    independent blocks such as the two NH-SSH chains (B, 2, L) with U
    (B, 2, L, L). A row's norm is taken jointly over its blocks, and its
    blocks are scaled together, in the arithmetic of U and psi0.

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
        # one mat-vec product per block, equal to U[i] @ phi[i] bit for bit
        phi = (U @ phi[..., None])[..., 0]
        g = _row_norms(phi.reshape(len(phi), -1))
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
        phi = phi / g.reshape((-1,) + (1,) * (phi.ndim - 1))
        yield live, phi, tuple(lognorms), failed
        if not len(live):
            return


def _step_propagator(K, times):
    """exp(dt K) for the spacing dt of the uniform grid times and K = -iH,
    or a stack of them, in K's dtype (real for the chains: K = Im H).
    Scaling and squaring (Higham 2005) of the degree-16 Taylor sum, whose
    remainder is about 2e-17 at 1-norm 3/4, as sum_j A^4j B_j with B_j =
    sum_i A^i / (4j + i)! in six products (Paterson & Stockmeyer 1973).
    Overflow where the result leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = (times[1] - times[0]) * K
        s = max(0, math.frexp(float(np.abs(A).sum(axis=-2).max()) / 0.75)[1])
        A = A * 0.5 ** s
        A2 = A @ A
        eye = np.broadcast_to(np.eye(A.shape[-1], dtype=A.dtype), A.shape)
        B = np.tensordot(_TAYLOR, np.stack([eye, A, A2, A2 @ A]), 1)
        A4 = A2 @ A2
        E = A4 / math.factorial(16) + B[3]
        for Bj in B[2::-1]:
            E = E @ A4 + Bj
        E = np.linalg.matrix_power(E, 2 ** s)  # s squarings
    if not np.isfinite(E).all():
        raise Overflow("one-step propagator exceeds the float range")
    return E


def _propagate_expm(H, psi0, times, L):
    U = _step_propagator(-1j * H, times)
    units = [psi0]
    lognorms = [0.0]
    for _, phi, lognorm, failed in _step_stack(U[None], psi0[None], times):
        if failed:
            raise failed[0]
        units.append(phi[0])
        lognorms.append(lognorm[0])
    return _trace_arrays(times, units, lognorms, L)


def _final_mipr_and_support(U, z0, times, legs):
    """Evolve a stack of ladder states given on their two NH-SSH chains,
    real unit z0 (B, 2, L), with the chains' real one-step propagators U
    (B, 2, L, L), and return, per row, the mIPR of the final state and the
    largest cell support over all times, without keeping the history:
    (mipr_final, max_support, failed). failed maps the rows that dropped
    out to their exception; their entries of the arrays are meaningless.

    Site n of either chain is one w orbital of the same cell, and the w
    basis is unitary per cell, so that cell's intensity is
    z1_n^2 + z2_n^2 and the support needs no map back to the legs.
    The mIPR weights the legs, so only the final states are mapped back,
    through the complex legs (2L, 2L): a chain state z is the ladder
    state legs @ z.ravel().

    The supports are counted in one pass over up to _SUPPORT_CHUNK
    consecutive states of the same rows, not once per step."""
    L = z0.shape[-1]
    max_support = np.zeros(len(z0), dtype=int)
    mipr_final = np.zeros(len(z0))
    failed = {}
    rows, states = np.arange(len(z0)), [z0]

    def count_supports():
        cells = np.square(np.stack(states, axis=1)).sum(axis=-2)
        max_support[rows] = np.maximum(max_support[rows],
                                       _cell_support(cells).max(axis=1))

    for live, phi, _, dropped in _step_stack(U, z0, times):
        failed.update(dropped)
        if dropped or len(states) == _SUPPORT_CHUNK:
            count_supports()
            rows, states = live, []
        states.append(phi)
    count_supports()
    mipr_final[live] = _mipr_rows(phi.reshape(len(phi), 2 * L) @ legs.T, L)
    return mipr_final, max_support, failed


def _propagate_eig(H, psi0, times, L):
    res = eig(H, want_vectors=True)
    if not res.evec_condition < _EVEC_CONDITION_MAX:  # e.g. at a defective H
        raise IllConditioned(
            f"eigenvector condition {res.evec_condition:.3g} reaches 1/eps: "
            "no digit of the eigen-expansion is guaranteed")
    V, E = res.right_eigenvectors, res.eigenvalues
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
    _require_finite(H)
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    if psi0.size != dim:
        raise ValueError(f"state length {psi0.size} does not match {dim}")
    if not np.isfinite(psi0).all():
        raise ValueError("psi0 must have finite entries")
    nrm = float(np.linalg.norm(psi0))
    if nrm == 0.0:
        raise ZeroState("cannot evolve the zero state")
    psi0 = psi0 / nrm
    times = _time_grid(t_max, n_steps)
    if method not in ("auto", "eig", "expm"):
        raise ValueError(f"unknown method {method!r}")
    return H, psi0, times


def _require_finite(H):
    """Raise ValueError unless every entry of the array H is finite."""
    if not np.isfinite(H).all():
        raise ValueError("H must have finite entries")


def _time_grid(t_max, n_steps):
    """The uniform grid of n_steps intervals on [0, t_max], validated."""
    if not (isinstance(n_steps, (int, np.integer)) and n_steps >= 1):
        raise ValueError("n_steps must be a positive integer")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError("t_max must be positive and finite")
    return np.linspace(0.0, float(t_max), n_steps + 1)


def propagate(H, psi0, t_max, n_steps, method="auto"):
    """Evolve psi0 under exp(-iHt) on a uniform grid of n_steps intervals.

    method "auto" and "expm" step with the one-step matrix exponential,
    which needs no eigenbasis, so it holds at a defective H too. "eig"
    expands in the right eigenbasis, an independent check of the stepper
    where that basis is well conditioned; IllConditioned at condition 1/eps.
    The returned trace holds raw states; norms are accumulated in log space
    and an Overflow is raised past 1e300.
    """
    H, psi0, times = _evolution_inputs(H, psi0, t_max, n_steps, method)
    route = _propagate_eig if method == "eig" else _propagate_expm
    return route(H, psi0, times, H.shape[0] // 2)
