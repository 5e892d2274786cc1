"""Classification of parameter-space degeneracies (exceptional lines and
flat-band points) and their Jordan structure, decided from structure alone
(resolve_structure); numerical rank and vector tests serve as references."""

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import IllConditioned, WrongClass
from .model import (OBC, _chain_bonds, build_realspace, derive, dressed,
                    require_balanced)
from .spectral import _chain_eigenpairs, eig, obc_spectrum_via_chains

GENERIC = "Generic"
EL_U = "ELu"
EL_V = "ELv"
TRIPLE_POINT = "TriplePoint"
DIABOLICAL_FLAT_BAND = "DiabolicalFlatBand"
EFB_LINE = "EFBLine"
EFB_INTERSECTION = "EFBIntersection"
DFB_PBC = "DFB_PBC"

# kappa ~ delta^(-1/2) at a size-2 block split by delta (Kato, 1966): past 1e6
# a pair is closer than about the 1e-6 cluster radius of _defective_from
KAPPA_MAX = 1e6


@dataclass(frozen=True)
class DegeneracyReport:
    """Label and degenerate eigenvalue; jordan holds the (eigenvalue,
    sizes) pairs that resolve_structure names, and defective is None until
    it decided."""

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


def _locus_tests(tbar, t0, gbar, g0, ts, ts2):
    """The locus conditions of classify_point as ((label, condition), ...)
    in its precedence order, and the u = 0 condition, from the linear
    factors g +- f, gp +- fp (model.dressed) with absolute tolerance ts
    (ts2 for the product test), elementwise: Python floats give bools,
    and broadcasting arrays boolean arrays of the same bits."""
    g, gp, f, fp, _, _ = dressed(tbar, t0, gbar, g0)
    u_zero = (abs(g - f) <= ts) | (abs(g + f) <= ts)
    v_zero = (abs(gp - fp) <= ts) | (abs(gp + fp) <= ts)
    efb = (((abs(tbar - g0) <= ts) & (abs(t0 - gbar) <= ts))
           | ((abs(tbar + g0) <= ts) & (abs(t0 + gbar) <= ts)))
    eta_unit = (abs(t0 - tbar) <= ts) | (abs(t0 + tbar) <= ts)
    dp = (((abs(gp) <= ts) & (abs(fp) <= ts))
          | ((abs(g) <= ts) & (abs(f) <= ts)))
    fine_tuned = abs(t0 * g0 - tbar * gbar) <= ts2
    return ((EFB_INTERSECTION, efb & eta_unit), (EFB_LINE, efb),
            (TRIPLE_POINT, u_zero & v_zero), (DIABOLICAL_FLAT_BAND, dp),
            (EL_U, u_zero), (EL_V, v_zero),
            (DFB_PBC, eta_unit & fine_tuned)), u_zero


def locus_labels(tbar, t0, gbar, g0, tol=1e-12):
    """classify_point's labels on broadcasting arrays of leg means (tbar,
    gbar, as DerivedParams holds them) and rung parameters (t0, g0): a
    string array of the broadcast shape."""
    scale = np.maximum(np.maximum(abs(tbar), abs(gbar)),
                       np.maximum(abs(t0), abs(g0)))
    tests, _ = _locus_tests(tbar, t0, gbar, g0, tol * scale,
                            tol * scale * scale)
    return np.select([hit for _, hit in tests],
                     [label for label, _ in tests], GENERIC)


def classify_point(params, tol=1e-12):
    """Label a balanced parameter point by its degeneracy type.

    Precedence: EFBIntersection > EFBLine > TriplePoint > DiabolicalFlatBand
    > ELu/ELv > DFB_PBC > Generic. The conditions are evaluated on the
    linear factors g +- f, gp +- fp with relative tolerance tol; this is
    the scalar case of locus_labels. lam is 0 on the flat-band and triple
    loci, the bond u or v that does not vanish on ELu, ELv and the
    diabolical flat band, and 2 sqrt(tbar^2 - g0^2) on DFB_PBC.
    """
    require_balanced(params)
    d = derive(params)
    scale = max(abs(d.tbar), abs(d.gbar), abs(params.t0), abs(params.g0))
    tests, u_zero = _locus_tests(d.tbar, params.t0, d.gbar, params.g0,
                                 tol * scale, tol * scale * scale)
    for label, hit in tests:
        if hit:
            break
    else:
        return DegeneracyReport(GENERIC, None)
    if label == DFB_PBC:
        return DegeneracyReport(DFB_PBC, 2.0 * cmath.sqrt(
            complex(d.tbar * d.tbar - params.g0 * params.g0)))
    if label in (EL_U, EL_V, DIABOLICAL_FLAT_BAND):
        return DegeneracyReport(label, d.v if u_zero else d.u)
    return DegeneracyReport(label, 0j)


def obc_tol_abs(label, u2, v2, eigs):
    """tol_abs of spectral.classify for OBC chain spectra eigs (last axis)
    at nodes labelled label with bond products u2, v2, elementwise:
    1e-9 max|E|, or 0 off the uv = 0 loci where u^2 v^2 > 0, as the
    bidiagonal SVD gives small eigenvalues there to high relative accuracy
    and none is an exact zero."""
    generic = (label == GENERIC) | (label == DFB_PBC)
    return np.where(generic & (u2 * v2 > 0.0), 0.0,
                    1e-9 * np.abs(eigs).max(axis=-1))


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
    even L on every locus label but DFB_PBC, else None, in the order lam,
    -lam, 0; exact ranks back each (tests). A numerical rank cut misses
    them once a size-m block splits its eigenvalue by eps^(1/m).
      EFBLine: H^2 = 0 and rank H = L, so L blocks of size 2 at 0.
      EFBIntersection: H^2 = 0, rank H = L - 1: (1, 1) and (2,) x (L - 1).
      TriplePoint: two blocks of size L at 0.
      ELu (u = 0, v != 0): (L/2 - 1, L/2) at each of +-v, (2,) at 0; ELv
        the same with u for v.
      DiabolicalFlatBand: the chains fall apart into dimers +-lam and two
        end sites, so (1,) x (L - 1) at each of +-lam and (1, 1) at 0."""
    if L % 2 or report.lam is None:
        return None
    lam, el = report.lam, tuple(s for s in (L // 2 - 1, L // 2) if s)
    return {EFB_LINE: ((0j, (2,) * L),),
            EFB_INTERSECTION: ((0j, (1, 1) + (2,) * (L - 1)),),
            TRIPLE_POINT: ((0j, (L, L)),),
            EL_U: ((lam, el), (-lam, el), (0j, (2,))),
            EL_V: ((lam, el), (-lam, el), (0j, (2,))),
            DIABOLICAL_FLAT_BAND: ((lam, (1,) * (L - 1)),
                                   (-lam, (1,) * (L - 1)), (0j, (1, 1))),
            }.get(report.label)


def _defective_flags(Yt):
    """True per node when a chain eigenvalue's condition number kappa_n =
    ||y_n||^2 / |y_n^T y_n| exceeds KAPPA_MAX, for a stack of balanced
    chain vectors y_n, the rows of Yt (..., chains, modes, sites) of
    _chain_eigenpairs. A balanced chain is complex symmetric, so y_n^T is
    the left eigenvector; at an exceptional point y_n is self-orthogonal
    (Moiseyev, Non-Hermitian Quantum Mechanics, 2011). Real Y (same-sign
    chains) gives kappa = 1. A NaN kappa raises LinAlgError."""
    Yt = np.ascontiguousarray(Yt)
    parts = Yt.view(float)  # real and imaginary parts side by side
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.einsum("...j,...j->...", parts, parts) \
            / np.abs(np.einsum("...j,...j->...", Yt, Yt))
    kappa = kappa.reshape(kappa.shape[:-2] + (-1,)).max(axis=-1)
    if np.isnan(kappa).any():
        raise np.linalg.LinAlgError("eigenvalue condition number is NaN")
    return kappa > KAPPA_MAX


def resolve_structure(params, report):
    """The classify_point report at params with the open ladder's Jordan
    blocks and defective flag, from structure alone: closed_form_blocks,
    defective iff a block has size >= 2; on DFB_PBC (balanced legs: only at
    tbar = t0 = 0, where H is anti-Hermitian, and in a sliver beside the
    diabolical flat band) size-1 blocks at lam, -lam and 0, as many as the
    OBC chain spectrum holds within 1e-6 max|E|, and defective from
    _defective_flags, both from one _chain_eigenpairs call on the two
    chains; no blocks at Generic, whose report keeps defective None."""
    blocks = closed_form_blocks(report, params.L)
    if blocks is not None:
        return replace(report, jordan=blocks, defective=any(
            s >= 2 for _, sizes in blocks for s in sizes))
    if report.label != DFB_PBC:
        return report
    up, lo, sq = (np.array(x)[:, :-1]
                  for x in zip(*_chain_bonds(replace(params, boundary=OBC))))
    lam, Yt, _ = _chain_eigenpairs(up, lo, sq)
    eigs = lam.ravel()
    near = [(c, np.count_nonzero(np.abs(eigs - c)
                                 <= 1e-6 * np.abs(eigs).max()))
            for c in dict.fromkeys((report.lam, -report.lam, 0j))]
    return replace(report, jordan=tuple((c, (1,) * n) for c, n in near if n),
                   defective=bool(_defective_flags(Yt)))


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
