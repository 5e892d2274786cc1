"""Imaginary gauge transformation, growth factor, inverse localization
length, and the two curves where bulk-boundary correspondence is restored."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularGauge
from .model import _envelope, _require_chains, derive, require_balanced

# Calibrated once against direct OBC eigenvector localization at the
# reference point tbar=1, gbar=0.5, t0=g0=0 (where xi_inv = log 3 > 0 and
# the spectrum-averaged dIPR measured -0.478): positive xi_inv means
# right-edge accumulation, so sign(<dIPR>) = -sign(xi_inv).
DIPR_SIGN_OF_XI_INV = -1

CHAIN_ONE = 1
CHAIN_TWO = 2


@dataclass(frozen=True)
class SimilarityMatrix:
    """Diagonal gauge similarity for one chain; entries (j1, l1, j2, l2, ...)."""

    diagonal: np.ndarray
    chain: int


@dataclass(frozen=True)
class GaugeReport:
    growth_factor: complex
    xi_inv: float
    bbc_line: bool
    bbc_hyperbola: bool
    near_exceptional: bool

    def to_dict(self):
        return {
            "growth_factor_re": self.growth_factor.real,
            "growth_factor_im": self.growth_factor.imag,
            "xi_inv": self.xi_inv,
            "bbc_line": self.bbc_line,
            "bbc_hyperbola": self.bbc_hyperbola,
            "near_exceptional": self.near_exceptional,
        }


def igt_matrix(params, chain=CHAIN_ONE):
    """Diagonal similarity matrix that rebalances one chain.

    Recursion: j_1 = 1, l_n = sqrt((fp+gp)/(fp-gp)) j_n,
    j_{n+1} = sqrt((f+g)/(f-g)) l_n; chain two swaps primed and unprimed.
    Singular exactly on the exceptional lines (u = 0 or v = 0). The
    transformed chain is Hermitian iff both off-diagonal pair products are
    nonnegative (u^2 >= 0 and v^2 >= 0, the real-spectrum region); outside
    it the diagonal moduli still carry the localization envelope. Raises
    Overflow when the diagonal leaves the floating-point range.
    """
    _require_chains(params)
    if chain not in (CHAIN_ONE, CHAIN_TWO):
        raise ValueError("chain must be 1 or 2")
    d = derive(params)
    if d.u2 == 0.0 or d.v2 == 0.0:
        raise SingularGauge("similarity matrix singular: u or v vanishes")
    fa, ga, fb, gb = (d.fp, d.gp, d.f, d.g) if chain == CHAIN_ONE \
        else (d.f, d.g, d.fp, d.gp)
    r_l = cmath.sqrt(complex(fa + ga) / complex(fa - ga))
    r_j = cmath.sqrt(complex(fb + gb) / complex(fb - gb))
    return SimilarityMatrix(
        diagonal=_envelope(np.resize([r_l, r_j], params.L - 1)), chain=chain)


def hermitianize(H1, S):
    """Similarity transform S H S^(-1) with the diagonal gauge matrix."""
    H1 = np.asarray(H1, dtype=complex)
    d = S.diagonal
    if H1.ndim != 2 or H1.shape[0] != H1.shape[1] or H1.shape[0] != len(d):
        raise DimensionMismatch(
            f"matrix shape {H1.shape} incompatible with diagonal of length {len(d)}")
    return (d[:, None] * H1) / d[None, :]


def _sides_agree(sides, values, tol):
    """|lhs - rhs| <= tol max(|lhs|, |rhs|) for (lhs, rhs) = sides(*values),
    quadratic in values. Where a side overflows (inf, or OverflowError
    from a float power), the values are first scaled by the power of two
    that brings the largest below 1, which is exact, so large parameters
    neither raise nor compare inf."""
    try:
        lhs, rhs = sides(*values)
    except OverflowError:
        lhs = rhs = math.inf
    if math.isinf(lhs) or math.isinf(rhs):
        scale = math.ldexp(1.0, -math.frexp(max(map(abs, values)))[1])
        lhs, rhs = sides(*(x * scale for x in values))
    return abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs))


def gauge_report(params, tol=1e-9):
    """Growth factor, inverse localization length, and BBC restoration flags."""
    require_balanced(params)
    d = derive(params)
    a_plus = (d.f + d.g) * (d.fp + d.gp)
    a_minus = (d.f - d.g) * (d.fp - d.gp)
    if a_plus == 0.0 and a_minus == 0.0:
        # doubly degenerate (e.g. the diabolical flat-band point, which lies
        # on the BBC line): unimodular by convention
        growth = 1.0 + 0.0j
        xi_inv = 0.0
    elif a_minus == 0.0:
        growth = complex(math.inf, 0.0)
        xi_inv = math.inf
    elif a_plus == 0.0:
        growth = 0.0 + 0.0j
        xi_inv = -math.inf
    else:
        growth = cmath.sqrt(complex(a_plus) / complex(a_minus))
        xi_inv = 0.5 * (math.log(abs(a_plus)) - math.log(abs(a_minus)))
    values = (params.t0, params.g0, d.tbar, d.gbar)
    bbc_line = _sides_agree(
        lambda t0, g0, tbar, gbar: (t0 * g0, tbar * gbar), values, tol)
    bbc_hyperbola = _sides_agree(
        lambda t0, g0, tbar, gbar: (t0 ** 2 + g0 ** 2, tbar ** 2 + gbar ** 2),
        values, tol)
    scale = max(abs(d.f), abs(d.g), abs(d.fp), abs(d.gp))
    near = abs(d.u) < 1e-8 * scale or abs(d.v) < 1e-8 * scale
    return GaugeReport(growth_factor=growth, xi_inv=xi_inv,
                       bbc_line=bbc_line, bbc_hyperbola=bbc_hyperbola,
                       near_exceptional=near)
