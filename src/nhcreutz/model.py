"""Matrix representations of the non-Hermitian Creutz ladder.

Two legs (sublattices a, b) with cross links. Leg hoppings carry reciprocal
amplitudes t1 (a leg), t2 (b leg) and non-reciprocal parts gamma1, gamma2;
rungs/diagonal links carry t0 and gamma0. Sites are ordered interleaved:
(a_1, b_1, a_2, b_2, ..., a_L, b_L).
"""

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ImbalancedParameters, Overflow

OBC = "obc"
PBC = "pbc"


@dataclass(frozen=True)
class ModelParams:
    """Raw ladder parameters: six hopping amplitudes, cell count, boundary."""

    t0: float
    t1: float
    t2: float
    g0: float
    g1: float
    g2: float
    L: int
    boundary: str = OBC

    def __post_init__(self):
        if not isinstance(self.L, int) or self.L < 2:
            raise ValueError("L must be an integer >= 2")
        if self.boundary not in (OBC, PBC):
            raise ValueError("boundary must be 'obc' or 'pbc'")
        for name in ("t0", "t1", "t2", "g0", "g1", "g2"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be a finite real, got {val!r}")

    @classmethod
    def from_bars(cls, tbar=1.0, t0=0.0, gbar=0.0, g0=0.0, dt=0.0, dg=0.0,
                  L=50, boundary=OBC):
        """Build from mean/difference leg parameters: t1 = tbar+dt, t2 = tbar-dt."""
        return cls(t0=t0, t1=tbar + dt, t2=tbar - dt,
                   g0=g0, g1=gbar + dg, g2=gbar - dg, L=L, boundary=boundary)

    @property
    def balanced(self):
        """True when both legs are identical (t1 == t2 and g1 == g2 exactly)."""
        return self.t1 == self.t2 and self.g1 == self.g2


class DerivedParams(NamedTuple):
    """Dressed parameters derived from ModelParams.

    tbar, gbar are leg means, dt, dg the half differences; g = tbar + t0,
    gp = tbar - t0, f = gbar + g0, fp = gbar - g0. u2 = g^2 - f^2 and
    v2 = gp^2 - fp^2 are the chain bond products, u and v (the effective
    hoppings) their principal roots, real or purely imaginary. eta = t0/tbar
    parametrizes the flat-band line (NaN when tbar == 0).
    """

    tbar: float
    gbar: float
    dt: float
    dg: float
    g: float
    gp: float
    f: float
    fp: float
    u2: float
    v2: float
    u: complex
    v: complex
    eta: float


def dressed(tbar, t0, gbar, g0):
    """(g, gp, f, fp, u2, v2) of DerivedParams from the leg means and the
    rung parameters, elementwise: Python floats and broadcasting arrays
    alike, bit for bit."""
    g = tbar + t0
    gp = tbar - t0
    f = gbar + g0
    fp = gbar - g0
    return g, gp, f, fp, g * g - f * f, gp * gp - fp * fp


def derive(params):
    """Compute DerivedParams from raw hoppings."""
    tbar = (params.t1 + params.t2) / 2.0
    gbar = (params.g1 + params.g2) / 2.0
    dt = (params.t1 - params.t2) / 2.0
    dg = (params.g1 - params.g2) / 2.0
    g, gp, f, fp, u2, v2 = dressed(tbar, params.t0, gbar, params.g0)
    eta = params.t0 / tbar if tbar != 0.0 else math.nan
    return DerivedParams(tbar=tbar, gbar=gbar, dt=dt, dg=dg,
                         g=g, gp=gp, f=f, fp=fp, u2=u2, v2=v2,
                         u=cmath.sqrt(complex(u2)), v=cmath.sqrt(complex(v2)),
                         eta=eta)


def require_balanced(params):
    """Raise ImbalancedParameters unless t1 == t2 and g1 == g2 exactly."""
    if not params.balanced:
        raise ImbalancedParameters(
            "operation requires balanced legs (t1 == t2, gamma1 == gamma2); "
            f"got t1={params.t1}, t2={params.t2}, g1={params.g1}, g2={params.g2}")


def build_realspace(params):
    """Dense 2L x 2L ladder Hamiltonian.

    Entry (target, source) is the coefficient of target^dagger source.
    OBC drops the L -> 1 bond, PBC wraps it (couplings accumulate, so the
    L = 2 PBC double bond adds).
    """
    L = params.L
    t0, t1, t2 = params.t0, params.t1, params.t2
    g0, g1, g2 = params.g0, params.g1, params.g2
    j = np.arange(L if params.boundary == PBC else L - 1)
    a, b = 2 * j, 2 * j + 1
    ap, bp = (a + 2) % (2 * L), (b + 2) % (2 * L)
    rows = np.concatenate([ap, a, bp, b, ap, bp, a, b])
    cols = np.concatenate([a, ap, b, bp, b, a, bp, ap])
    vals = np.repeat([-1j * (t1 + g1), 1j * (t1 - g1), 1j * (t2 + g2),
                      -1j * (t2 - g2), -(t0 + g0), -(t0 + g0), -(t0 - g0),
                      -(t0 - g0)], len(j))
    H = np.zeros((2 * L, 2 * L), dtype=complex)
    np.add.at(H, (rows, cols), vals)
    return H


def build_bloch(params, k):
    """2 x 2 Bloch matrix h(k), convention a_j ~ sum_k exp(-i k j) a_k."""
    t0, t1, t2 = params.t0, params.t1, params.t2
    g0, g1, g2 = params.g0, params.g1, params.g2
    sk, ck = math.sin(k), math.cos(k)
    off = -t0 * ck - 1j * g0 * sk
    return 2.0 * np.array([[t1 * sk - 1j * g1 * ck, off],
                           [off, -t2 * sk + 1j * g2 * ck]], dtype=complex)


def w_basis(L):
    """Unitary 2L x 2L map to the per-cell w basis.

    w_i = (a_i + i b_i)/sqrt(2), wbar_i = (a_i - i b_i)/sqrt(2); output rows
    are ordered (w_1, wbar_1, w_2, wbar_2, ...).
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    U = np.zeros((2 * L, 2 * L), dtype=complex)
    r = 1.0 / math.sqrt(2.0)
    a = 2 * np.arange(L)
    U[a, a] = r
    U[a, a + 1] = 1j * r
    U[a + 1, a] = r
    U[a + 1, a + 1] = -1j * r
    return U


def _require_chains(params):
    """Raise unless params split into the two NH-SSH chains: balanced legs
    (ImbalancedParameters, checked first) and even L (ValueError)."""
    require_balanced(params)
    if params.L % 2:
        raise ValueError("chain decomposition needs even L")


def _chain_pair(first, second, n):
    """(..., 2, n) bonds of the two NH-SSH chains from per-node values of
    the primed bond (first) and the unprimed bond (second), scalars or
    arrays of one shape: chain one alternates first, second, ..., chain
    two second, first, ...."""
    first, second = np.asarray(first), np.asarray(second)
    out = np.empty(first.shape + (2, n), dtype=np.result_type(first, second))
    out[..., 0, 0::2] = out[..., 1, 1::2] = first[..., None]
    out[..., 0, 1::2] = out[..., 1, 0::2] = second[..., None]
    return out


def _chain_bonds(params):
    """Bonds of the two NH-SSH chains: per chain (up, lo, sq), the
    superdiagonal -i(f+g), subdiagonal -i(f-g) and product u^2 or v^2 of
    each of its L bonds, the closing bond (L -> 1) last. Chain one starts
    on the primed bond, chain two on the unprimed (_chain_pair). Requires
    balanced legs and even L.
    """
    _require_chains(params)
    d = derive(params)
    return tuple(zip(*_bond_stack(d.g, d.gp, d.f, d.fp, d.u2, d.v2,
                                  params.L)))


def _bond_stack(g, gp, f, fp, u2, v2, n):
    """(up, lo, sq) of _chain_bonds from per-node dressed values
    (model.dressed), scalars or arrays of one shape, each (..., 2, n):
    one layout for a single node and for a block of grid nodes, bit for
    bit."""
    g, gp, f, fp = (np.asarray(x) for x in (g, gp, f, fp))
    return (_chain_pair(-1j * (fp + gp), -1j * (f + g), n),
            _chain_pair(-1j * (fp - gp), -1j * (f - g), n),
            _chain_pair(v2, u2, n))


def _envelope(steps):
    """Diagonal [1, s_1, s_1 s_2, ...] of the imaginary gauge similarity
    with per-bond ratios steps (Hatano & Nelson, PRL 77, 570 (1996)).

    A stack of chains (..., n) gives a stack of diagonals (..., n + 1).
    Raises Overflow when an entry overflows or underflows to zero.
    """
    steps = np.asarray(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.concatenate([np.ones(steps.shape[:-1] + (1,), steps.dtype),
                            np.cumprod(steps, axis=-1)], axis=-1)
    if not (np.all(np.isfinite(d)) and np.all(d)):
        raise Overflow("balancing envelope overflows or underflows; chain "
                       "too long for this non-reciprocity")
    return d


def build_nhssh(params):
    """The two decoupled non-Hermitian SSH chains (H1, H2), each L x L.

    H1 has superdiagonal alternating -i(fp+gp), -i(f+g), ... and subdiagonal
    alternating -i(fp-gp), -i(f-g), ...; H2 swaps primed and unprimed. PBC
    adds the matching corner entries. Requires balanced legs and even L.
    """
    L = params.L
    m = np.arange(L - 1)
    out = []
    for up, lo, _ in _chain_bonds(params):
        H = np.zeros((L, L), dtype=complex)
        H[m, m + 1] = up[:-1]
        H[m + 1, m] = lo[:-1]
        if params.boundary == PBC:  # += so the L = 2 double bond adds
            H[L - 1, 0] += up[-1]
            H[0, L - 1] += lo[-1]
        out.append(H)
    return tuple(out)


def nhssh_permutation(params):
    """Site permutation splitting the w-basis ladder into the two chains.

    Returns an index array perm of length 2L such that
    (U H U+)[perm][:, perm] equals build_nhssh(params)[0] (+) [1]. Each
    chain runs from the last cell to the first, alternating w and wbar:
    chain one starts at wbar_L, chain two at w_L (w_j has index 2(j-1),
    wbar_j index 2(j-1) + 1). The permutation is boundary independent.
    """
    _require_chains(params)
    cell = np.arange(params.L - 1, -1, -1)
    odd = cell % 2 == 1  # L even: chain position L - cell is odd
    return np.concatenate([2 * cell + odd, 2 * cell + ~odd])
