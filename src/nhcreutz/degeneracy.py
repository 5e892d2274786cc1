"""Classification of parameter-space degeneracies (exceptional lines and
flat-band points) and numerically certified Jordan structure."""

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import IllConditioned, WrongClass
from .model import ModelParams, build_realspace, derive, require_balanced
from .spectral import eig, obc_spectrum_via_chains

GENERIC = "Generic"
EL_U = "ELu"
EL_V = "ELv"
TRIPLE_POINT = "TriplePoint"
DIABOLICAL_FLAT_BAND = "DiabolicalFlatBand"
EFB_LINE = "EFBLine"
EFB_INTERSECTION = "EFBIntersection"
DFB_PBC = "DFB_PBC"


@dataclass(frozen=True)
class DegeneracyReport:
    """Label and degenerate eigenvalue; jordan holds (eigenvalue, sizes)
    pairs when a rank certification was run, defective is None until an
    eigenvector count was done."""

    label: str
    lam: Optional[complex]
    jordan: tuple = field(default_factory=tuple)
    defective: Optional[bool] = None

    def to_dict(self):
        blocks = [{"eig_re": e.real, "eig_im": e.imag, "sizes": list(sizes)}
                  for (e, sizes) in self.jordan]
        return {
            "label": self.label,
            "lambda_re": None if self.lam is None else self.lam.real,
            "lambda_im": None if self.lam is None else self.lam.imag,
            "blocks": blocks,
            "defective": self.defective,
        }


def classify_point(params, tol=1e-12):
    """Label a balanced parameter point by its degeneracy type.

    Precedence: EFBIntersection > EFBLine > TriplePoint > DiabolicalFlatBand
    > ELu/ELv > DFB_PBC > Generic. The conditions are evaluated on the
    linear factors g +- f, gp +- fp with relative tolerance tol.
    """
    require_balanced(params)
    d = derive(params)
    scale = max(abs(d.tbar), abs(d.gbar), abs(params.t0), abs(params.g0))
    ts = tol * scale
    u_zero = abs(d.g - d.f) <= ts or abs(d.g + d.f) <= ts
    v_zero = abs(d.gp - d.fp) <= ts or abs(d.gp + d.fp) <= ts
    efb = ((abs(d.tbar - params.g0) <= ts and abs(params.t0 - d.gbar) <= ts)
           or (abs(d.tbar + params.g0) <= ts and abs(params.t0 + d.gbar) <= ts))
    eta_unit = abs(params.t0 - d.tbar) <= ts or abs(params.t0 + d.tbar) <= ts
    if efb and eta_unit:
        return DegeneracyReport(EFB_INTERSECTION, 0j)
    if efb:
        return DegeneracyReport(EFB_LINE, 0j)
    if u_zero and v_zero:
        return DegeneracyReport(TRIPLE_POINT, 0j)
    dp = ((abs(d.gp) <= ts and abs(d.fp) <= ts)
          or (abs(d.g) <= ts and abs(d.f) <= ts))
    if dp:
        return DegeneracyReport(DIABOLICAL_FLAT_BAND, d.v if u_zero else d.u)
    if u_zero:
        return DegeneracyReport(EL_U, d.v)
    if v_zero:
        return DegeneracyReport(EL_V, d.u)
    fine_tuned = abs(params.t0 * params.g0 - d.tbar * d.gbar) <= tol * scale * scale
    if eta_unit and fine_tuned:
        lam = 2.0 * cmath.sqrt(complex(d.tbar * d.tbar - params.g0 * params.g0))
        return DegeneracyReport(DFB_PBC, lam)
    return DegeneracyReport(GENERIC, None)


def jordan_structure(H, lam, tol_rank=None):
    """Certified Jordan block sizes of H at eigenvalue lam.

    Computes numerical ranks of (H - lam I)^k from singular values until the
    rank stabilizes; the count of blocks of size >= k is r_{k-1} - r_k.
    Returns a sorted tuple of block sizes (empty if lam is not an
    eigenvalue). Certification requires a factor >= 10 gap across the rank
    threshold at every power, else IllConditioned. Powers are renormalized
    by their largest singular value, so the threshold is relative per power.
    """
    H = np.asarray(H, dtype=complex)
    dim = H.shape[0]
    if H.ndim != 2 or H.shape[1] != dim:
        raise ValueError("square matrix required")
    if dim > 64:
        raise ValueError("rank-sequence certification is limited to dim <= 64")
    rel = dim * 1e-12 if tol_rank is None else tol_rank
    A = H - lam * np.eye(dim)
    s0 = float(np.linalg.norm(A, 2))
    if s0 == 0.0:
        return (1,) * dim
    B = A / s0
    ranks = [dim]
    P = B.copy()
    log_scale = 0.0
    for _ in range(dim):
        s = np.linalg.svd(P, compute_uv=False)
        smax = s[0]
        # absolute scale of B^k; sigma_max(B) = 1 so this only shrinks
        if smax == 0.0 or math.exp(log_scale) * smax <= rel:
            ranks.append(0)
            break
        log_scale += math.log(smax)
        s = s / smax
        r = int(np.sum(s > rel))
        if 0 < r < dim:
            below = s[r] if r < len(s) else 0.0
            above = s[r - 1]
            if below > 0.0 and above / below < 10.0:
                raise IllConditioned(
                    f"singular-value gap at rank cut not certifiable: "
                    f"{above:.3e} vs {below:.3e}")
        ranks.append(r)
        if ranks[-1] == ranks[-2] or ranks[-1] == 0:
            break
        P = (P / smax) @ B
    n_geq = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    # n_geq[k - 1] counts the blocks of size >= k, so it never increases
    if any(b > a for a, b in zip(n_geq, n_geq[1:])):
        raise IllConditioned(f"rank drops increase along ranks {ranks}")
    n_geq.append(0)
    sizes = []
    for k in range(1, len(n_geq)):
        sizes.extend([k] * max(0, n_geq[k - 1] - n_geq[k]))
    return tuple(sorted(sizes))


def closed_form_blocks(report, L):
    """Exact Jordan blocks ((eigenvalue, sizes), ...) of the OBC ladder at
    even L on the labels below, else None; exact ranks back each (tests).
      EFBLine: H^2 = 0 and rank H = L, so L blocks of size 2 at 0.
      TriplePoint: two blocks of size L at 0.
      ELu (u = 0, v != 0): (L/2 - 1, L/2) at each of +-v, (2,) at 0.
      ELv: the same with u for v.
    A numerical rank cut misses them once a size-m block splits its
    eigenvalue by eps^(1/m). The order is that of the classify command."""
    if L % 2:
        return None
    if report.label == EFB_LINE:
        return ((0j, (2,) * L),)
    if report.label == TRIPLE_POINT:
        return ((0j, (L, L)),)
    if report.label in (EL_U, EL_V):
        sizes = tuple(s for s in (L // 2 - 1, L // 2) if s)
        return ((report.lam, sizes), (-report.lam, sizes), (0j, (2,)))
    return None


def _defective_from(eigs, vecs, tol):
    """Defectiveness test given a computed eigendecomposition.

    Eigenvalues within 1e-6 max|E| of each other, transitively, form a
    cluster; the test sums the numerical rank (singular values above tol
    times the largest) of each cluster's eigenvectors. For tol < 1 a
    finite singleton has rank 1 exactly when its vector is nonzero, so
    only the other clusters take an SVD.
    """
    dim = vecs.shape[0]
    radius = 1e-6 * float(np.abs(eigs).max())
    near = np.abs(eigs[:, None] - eigs) <= radius
    np.fill_diagonal(near, False)
    quick = ~near.any(axis=1) & np.isfinite(vecs).all(axis=0)
    nonzero = np.count_nonzero(vecs[:, quick].any(axis=0))
    total = int(nonzero) if tol < 1.0 else 0
    rest = np.flatnonzero(~quick)
    # connected components: spread the smallest index until it settles
    link = near[np.ix_(rest, rest)] | np.eye(len(rest), dtype=bool)
    label, prev, n = rest, None, len(eigs)
    while not np.array_equal(label, prev):
        label, prev = np.where(link, label, n).min(axis=1, initial=n), label
    for c in np.unique(label):
        s = np.linalg.svd(vecs[:, rest[label == c]], compute_uv=False)
        total += int(np.sum(s > tol * s[0])) if s[0] > 0.0 else 0
    return total < dim


def is_defective(H, tol=1e-6):
    """True when the eigenvector set does not span (numerical rank per
    eigenvalue cluster, clustering radius 1e-6 max|E|)."""
    res = eig(H, want_vectors=True)
    return _defective_from(res.eigenvalues, res.right_eigenvectors, tol)


def nilpotency_order(H, tol=1e-10):
    """Smallest m with ||H^m||_F <= tol * ||H||_2^m, or None.

    The spectral-norm scaling keeps the test sound for non-nilpotent input:
    ||H^m||_F / ||H||_2^m >= (rho/||H||_2)^m, which stays at 1 for any
    matrix with spectral radius equal to its norm (e.g. Hermitian), while
    powers of a nilpotent matrix hit exact zero.
    """
    H = np.asarray(H, dtype=complex)
    dim = H.shape[0]
    smax = float(np.linalg.norm(H, 2)) if H.size else 0.0
    if smax == 0.0:
        return 1
    B = H / smax
    C = B.copy()
    for m in range(1, dim + 1):
        if np.linalg.norm(C, "fro") <= tol:
            return m
        if m < dim:
            C = C @ B
    return None


def dp_spectrum_check(params, L=None):
    """Verify the diabolical flat-band OBC spectrum {0 x2, +-E0 x(L-1)}
    with E0 = 2 sqrt(tbar^2 - g0^2), plus diagonalizability."""
    report = classify_point(params)
    if report.label != DIABOLICAL_FLAT_BAND:
        return False
    d = derive(params)
    if abs(params.g0) >= abs(d.tbar):
        raise WrongClass(
            "flat-band levels are not real for |g0| >= |tbar|")
    if L is not None and L != params.L:
        params = replace(params, L=L)
    L = params.L
    e0 = 2.0 * math.sqrt(d.tbar * d.tbar - params.g0 * params.g0)
    c1, c2 = obc_spectrum_via_chains(params)
    eigs = np.sort_complex(np.concatenate([c1, c2]))
    expected = np.sort_complex(np.array(
        [0.0, 0.0] + [-e0] * (L - 1) + [e0] * (L - 1), dtype=complex))
    if np.abs(eigs - expected).max() > 1e-8:
        return False
    return not is_defective(build_realspace(params))
