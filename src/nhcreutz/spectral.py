"""Analytic dispersions, dense eigensolves, spectral classification, and
complex-plane area of the PBC bands."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceFailure, EmptySpectrum, Overflow, SingularGauge
from .model import (OBC, PBC, _chain_bonds, _envelope, build_realspace,
                    derive, nhssh_permutation, require_balanced, w_basis)

REAL = "Real"
IMAGINARY = "Imaginary"
COMPLEX = "Complex"
COLLAPSED = "Collapsed"


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues plus optional right eigenvectors and solver diagnostics.

    residual_max is max_n ||H v_n - E_n v_n||_2 over unit eigenvectors (NaN
    when vectors were not requested); evec_condition is the 2-norm condition
    of the eigenvector matrix (inf sentinel when not computed).
    """

    eigenvalues: np.ndarray
    right_eigenvectors: Optional[np.ndarray]
    residual_max: float
    evec_condition: float


@dataclass(frozen=True)
class SpectralClass:
    label: str
    M: float


def pbc_bands(t0, g0, tbar, gbar, dt, dg, k):
    """The PBC band pair (E_plus, E_minus) from parameter columns: leg
    means and half differences as DerivedParams holds them, rung
    parameters as ModelParams does. Elementwise over broadcasting columns
    and momenta k."""
    ka = np.asarray(k, dtype=float)
    sk, ck = np.sin(ka), np.cos(ka)
    shift = 2.0 * (dt * sk - 1j * dg * ck)
    rad = ((t0 * t0 - gbar * gbar) * ck * ck
           + (tbar * tbar - g0 * g0) * sk * sk
           + 1j * (t0 * g0 - tbar * gbar) * np.sin(2.0 * ka)).astype(complex)
    root = 2.0 * np.sqrt(rad)
    return shift + root, shift - root


def pbc_dispersion(params, k):
    """Closed-form PBC band pair (E_plus, E_minus) at momentum k (scalar
    or array) for one ModelParams, by pbc_bands."""
    d = derive(params)
    ep, em = pbc_bands(params.t0, params.g0, d.tbar, d.gbar, d.dt, d.dg, k)
    if np.ndim(ep) == 0:
        return complex(ep), complex(em)
    return ep, em


def obc_bulk_dispersion(params, q):
    """Thermodynamic-limit OBC band pair at Bloch angle q (balanced only)."""
    require_balanced(params)
    d = derive(params)
    qa = np.asarray(q, dtype=float)
    rad = (d.u * d.u + d.v * d.v
           + 2.0 * d.u * d.v * np.cos(qa)).astype(complex)
    root = np.sqrt(rad)
    if qa.ndim == 0:
        return complex(root), -complex(root)
    return root, -root


def eig(H, want_vectors=False):
    """Dense non-symmetric eigensolve wrapped with diagnostics."""
    H = np.asarray(H, dtype=complex)
    try:
        if not want_vectors:
            vals = np.linalg.eigvals(H)
            return SpectrumResult(vals, None, math.nan, math.inf)
        vals, vecs = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    # columns are unit norm from LAPACK; enforce anyway
    nrm = np.linalg.norm(vecs, axis=0)
    nrm[nrm == 0.0] = 1.0
    vecs = vecs / nrm
    resid = np.linalg.norm(H @ vecs - vecs * vals, axis=0).max() if H.size else 0.0
    sv = np.linalg.svd(vecs, compute_uv=False)
    cond = math.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    return SpectrumResult(vals, vecs, float(resid), cond)


def spectral_density_M(eigs, tol_abs=0.0):
    """Mean of |cos(arg E)| - |sin(arg E)|; |E| <= tol_abs counts as real.

    The mean runs along the last axis: a stack of spectra gives an array
    of M, with tol_abs a scalar or one value per spectrum.
    """
    eigs = np.asarray(eigs, dtype=complex)
    if eigs.size == 0:
        raise EmptySpectrum("spectral density of an empty spectrum")
    theta = np.angle(eigs)
    theta[np.abs(eigs) <= np.asarray(tol_abs)[..., None]] = 0.0
    M = np.mean(np.abs(np.cos(theta)) - np.abs(np.sin(theta)), axis=-1)
    return float(M) if M.ndim == 0 else M


def classify(eigs, tol_rel=1e-9, tol_abs=0.0):
    """Label a spectrum Real / Imaginary / Complex / Collapsed, with M.

    A stack of spectra (last axis) gives arrays of labels and M, with
    tol_abs a scalar or one value per spectrum.
    """
    eigs = np.asarray(eigs, dtype=complex)
    if eigs.size == 0:
        raise EmptySpectrum("classification of an empty spectrum")
    M = spectral_density_M(eigs, tol_abs)
    emax = np.abs(eigs).max(axis=-1)
    bound = (tol_rel * emax)[..., None]
    label = np.where(
        emax <= tol_abs, COLLAPSED,
        np.where(np.all(np.abs(eigs.imag) <= bound, axis=-1), REAL,
                 np.where(np.all(np.abs(eigs.real) <= bound, axis=-1),
                          IMAGINARY, COMPLEX)))
    if label.ndim == 0:
        return SpectralClass(str(label), M)
    return SpectralClass(label, M)


def _split_halves(sq):
    """The real L/2 x L/2 half A + c e_m e_m^T of each mixed-sign chain in
    a (..., L-1) stack sq of off-diagonal products, and whether it splits
    the rotated chain.

    The chain needs even order L and palindromic sq. In symmetric form it
    is then centrosymmetric, and the basis (e_j +- e_{L+1-j})/sqrt(2)
    splits it exactly into the halves A +- c e_m e_m^T, c^2 the middle
    product (Cantoni & Butler, Lin. Alg. Appl. 13, 275 (1976)). A
    negative middle product is split on iT (products -sq) instead, so c
    stays real. A diagonal similarity makes each half real (superdiagonal
    sqrt|p|, subdiagonal sign(p) sqrt|p|). A has a zero diagonal, so with
    S = diag((-1)^j) the other half is exactly A - c e_m e_m^T =
    -S (A + c e_m e_m^T) S: its eigenpairs are (-E, S y) for each (E, y)
    of the half returned here.
    """
    L = sq.shape[-1] + 1
    if L % 2 or not np.array_equal(sq, sq[..., ::-1]):
        raise ValueError("mixed-sign products must be palindromic, even order")
    m = L // 2
    rotate = sq[..., m - 1] < 0.0
    p = np.where(rotate[..., None], -sq[..., :m], sq[..., :m])
    s = np.sqrt(np.abs(p[..., :-1]))
    j = np.arange(m - 1)
    half = np.zeros(sq.shape[:-1] + (m, m))
    half[..., j, j + 1] = s
    half[..., j + 1, j] = np.sign(p[..., :-1]) * s
    half[..., -1, -1] = np.sqrt(p[..., -1])
    return half, rotate


def _golub_kahan(c, vectors=False):
    """Eigenvalues, ascending, of the zero-diagonal real symmetric
    tridiagonal T of even order with couplings c; with vectors=True also
    its orthonormal eigenvectors as columns. Values alone are taken for a
    (..., L-1) stack of couplings too, in one svd call.

    With the even sites first, T = [[0, B^T], [B, 0]] with B the upper
    bidiagonal of diagonal c[0::2] and superdiagonal c[1::2] (Golub &
    Kahan, SIAM J. Numer. Anal. 2, 205 (1965)). If B = P diag(sigma) Q^T,
    T has eigenvalues +-sigma_k and eigenvectors [q_k; +-p_k]/sqrt(2), q_k
    on the even sites. LAPACK takes an upper bidiagonal B as it is into
    its bidiagonal SVD, whose singular values have high relative accuracy
    (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 873 (1990)), so edge
    modes far below eps ||T|| come out right; B^T would be reduced first
    and lose them.
    """
    m = (c.shape[-1] + 1) // 2
    j = np.arange(m)
    B = np.zeros(c.shape[:-1] + (m, m))
    # summed onto zeros as np.diag sums were: a coupling -0.0 enters as
    # +0.0, which keeps the singular vectors' signs
    B[..., j, j] += c[..., 0::2]
    B[..., j[:-1], j[1:]] += c[..., 1::2]
    if not vectors:
        sigma = np.linalg.svd(B, compute_uv=False)
    else:
        P, sigma, Qt = np.linalg.svd(B)
    # 0.0 - sigma keeps exact zeros +0.0
    lam = np.concatenate([0.0 - sigma, sigma[..., ::-1]], axis=-1)
    if not vectors:
        return lam
    Q = Qt.T
    Y = np.empty((len(c) + 1, len(c) + 1))
    Y[0::2] = np.hstack([Q, Q[:, ::-1]])
    Y[1::2] = np.hstack([-P, P[:, ::-1]])
    return lam, Y / math.sqrt(2.0)


def _power(z, m):
    """z ** m for an integer m >= 1 by repeated squaring; numpy's complex
    power is slower, and from m = 100 on it goes through logarithms."""
    out = None
    while True:
        if m & 1:
            out = z if out is None else out * z
        m >>= 1
        if not m:
            return out
        z = z * z


def _ssh_squares(a, b, n):
    """The n values lam = E^2 of each SSH chain of order L = 2n with
    off-diagonal products a, b, a, ..., a, from the roots of one scalar
    equation; a and b are (m,) arrays of opposite signs. Returns (lam,
    ok), lam (m, n) and ok the rows that pass the certificate.

    lam is an eigenvalue of the n x n block M of T^2 with diagonal (a,
    a+b, ..., a+b) and off-diagonal products ab. With r = sqrt(b)/sqrt(a)
    and z + 1/z = (lam - a - b)/sqrt(ab), the boundary rows of M give
    z^(2n+1) (z + r) = 1 + r z; the roots z = +-1 are spurious, and each
    pair (z, 1/z) is one lam = (sqrt(a) + sqrt(b) z)(sqrt(a) + sqrt(b)/z)
    (Yueh, Appl. Math. E-Notes 5, 66 (2005); Alase, Cobanera, Ortiz &
    Viola, PRL 117, 076804 (2016)). Root k is seeded at theta = pi k /
    (n+1), improved by 6 fixed-point steps theta = (2 pi k - i log
    g(e^(i theta)))/(2n+1), g(z) = (1 + r z)/(z + r), and by 8 Newton
    steps on the polynomial. At |r| > (n+1)/n one pair has left the unit
    circle: root n starts at the edge root z = -1/r instead. There 1 + r z
    cancels, so where |1 + r z| < 1/2 lam is taken from the equal
    z^(2n+1) (sqrt(a) z + sqrt(b))(sqrt(a) + sqrt(b)/z), which keeps the
    edge mode's relative accuracy.

    The certificate is Newton's identities: sum lam = tr M within 1e-12 n
    max|lam|, and sum lam^2 = tr M^2 within 1e-12 n max|lam|^2. It checks
    absolute accuracy only; a failed row (two roots on one pair, or a
    pair close to z = +-1 near |r| = (n+1)/n) is left to the caller.
    """
    sa = np.sqrt(a.astype(complex))[:, None]
    sb = np.sqrt(b.astype(complex))[:, None]
    r = sb / sa
    k = np.arange(1, n + 1)
    with np.errstate(all="ignore"):
        z = np.exp(1j * np.pi / (n + 1) * k)
        for _ in range(6):
            g = (1.0 + r * z) / (z + r)
            # z = e^(i theta) with log g = log|g| + i arg g, several times
            # faster than numpy's complex log
            z = np.exp((np.log(np.abs(g))
                        + 1j * (2.0 * np.pi * k + np.angle(g))) / (2 * n + 1))
        edge = np.abs(r[:, 0]) > (n + 1) / n
        z[edge, -1] = -1.0 / r[edge, 0]
        for _ in range(8):
            zn = _power(z, 2 * n)
            q = z + r
            z = z - (zn * z * q - 1.0 - r * z) \
                / ((2 * n + 1) * zn * q + zn * z - r)
        # sqrt(a) + sqrt(b) z, exactly z^(2n+1) (sqrt(a) z + sqrt(b)) at a root;
        # np.multiply fixes the operand order, which numpy's temporary
        # elision swaps from 256 KiB on, and a swapped complex product
        # rounds its imaginary part differently
        w = np.where(np.abs(1.0 + r * z) < 0.5,
                     np.multiply(_power(z, 2 * n + 1), sa * z + sb),
                     sa + sb * z)
        lam = np.multiply(w, sa + sb / z)
        top = np.abs(lam).max(axis=-1)
        tol = 1e-12 * n * top
        ok = (np.isfinite(top)
              & (np.abs(lam.sum(axis=-1) - n * a - (n - 1) * b) <= tol)
              & (np.abs((lam * lam).sum(axis=-1) - a * a
                        - (n - 1) * ((a + b) ** 2 + 2.0 * a * b))
                 <= tol * top))
    return lam, ok


def _tridiag_spectrum_from_squares(sq):
    """Eigenvalues (..., L) of the zero-diagonal tridiagonals with a
    (..., L-1) stack sq of off-diagonal products (spectra depend only on
    those products); a 1-D sq is one chain.

    Same-sign rows give real or imaginary symmetric tridiagonals, solved
    together by one _golub_kahan call per sign. A mixed-sign chain has
    the spectrum [E0, -E0], exactly +-symmetric, and its n = L/2 values
    E0 take one of two routes:
    - roots, then certificate: a row with 2-periodic products a, b, ...,
      a (every SSH chain of the ladder) gets E0 = sqrt(lam) from the
      roots of _ssh_squares;
    - fallback: the other rows, and those that fail the certificate,
      take one real eigvals call on the stack of their halves
      (_split_halves), E0 rotated by -i when split on iT.
    Each row takes its route alone, and _ssh_squares fixes the operand
    order of its complex products, so a stacked call of any size returns
    each row bit for bit as a call on that row alone: phase_diagram
    passes a (B, n, 2, L-1) block of grid rows, obc_spectrum_via_chains
    the (2, L-1) pair of one point.
    """
    sq = np.asarray(sq, dtype=float)
    rows = sq.reshape(-1, sq.shape[-1])
    out = np.empty((len(rows), rows.shape[-1] + 1), dtype=complex)
    pos = np.all(rows >= 0.0, axis=-1)
    neg = np.all(rows <= 0.0, axis=-1) & ~pos
    mixed = ~(pos | neg)
    if pos.any():
        out[pos] = _golub_kahan(np.sqrt(rows[pos]))
    if neg.any():
        # 0.0 + 1j * sigma keeps the real parts +0.0, where 1j * -sigma
        # would give -0.0
        out[neg] = 0.0 + 1j * _golub_kahan(np.sqrt(-rows[neg]))
    if mixed.any():
        rows = rows[mixed]
        L = rows.shape[-1] + 1
        E = np.empty((len(rows), L // 2), dtype=complex)
        rest = np.ones(len(rows), dtype=bool)
        if L % 2 == 0:
            periodic = (np.all(rows[:, 0::2] == rows[:, :1], axis=-1)
                        & np.all(rows[:, 1::2] == rows[:, 1:2], axis=-1))
            lam, ok = _ssh_squares(rows[periodic, 0], rows[periodic, 1],
                                   L // 2)
            rest[np.flatnonzero(periodic)[ok]] = False
            # 0.0 + keeps the parts +0.0
            E[~rest] = 0.0 + np.sqrt(lam[ok])
        if rest.any():
            half, rotate = _split_halves(rows[rest])
            try:
                E0 = np.linalg.eigvals(half).astype(complex)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(str(exc)) from exc
            E0[rotate] = -1j * E0[rotate]
            E[rest] = E0
        # 0.0 - E keeps exact zeros +0.0
        out[mixed] = np.concatenate([E, 0.0 - E], axis=-1)
    return out.reshape(sq.shape[:-1] + out.shape[-1:])


def obc_spectrum_via_chains(params):
    """Accurate OBC ladder spectrum through the decoupled chains.

    Returns (eigs_chain1, eigs_chain2), each length L. Equivalent to the
    gauge transformation in product form: a tridiagonal spectrum depends only
    on the products of opposite off-diagonal pairs, so each chain reduces to
    a symmetric tridiagonal problem (same-sign products) or, with mixed
    signs, to the roots of its SSH equation (certified, with one real
    half-size eigvals as the fallback); both stay accurate at system sizes
    where direct diagonalization of skin-effect matrices fails. Both
    chains are solved in one _tridiag_spectrum_from_squares call. Open
    boundary by construction regardless of params.boundary. Balanced only.
    """
    return tuple(_tridiag_spectrum_from_squares(
        [sq[:-1] for _, _, sq in _chain_bonds(params)]))


def ladder_spectrum(params):
    """The 2L ladder eigenvalues at params.boundary. PBC: pbc_dispersion on
    k_m = 2 pi m / L, for any L and legs. OBC: the two chains
    (obc_spectrum_via_chains) at balanced legs and even L; dense eig of
    build_realspace otherwise, where no chain split exists."""
    if params.boundary == PBC:
        k = 2.0 * np.pi * np.arange(params.L) / params.L
        return np.concatenate(pbc_dispersion(params, k))
    if params.balanced and params.L % 2 == 0:
        return np.concatenate(obc_spectrum_via_chains(params))
    return eig(build_realspace(params)).eigenvalues


def _split_eig(s, sq):
    """Eigenpairs of the complex symmetric chain with couplings s, each
    real or imaginary, s^2 = sq up to rounding, sq mixed-sign.

    One real eig of the half of _split_halves gives (E0, y); the other
    half has (-E0, S y), S = diag((-1)^j). A half vector y, with the
    half's similarity (a factor -i per negative bond) undone, gives the
    vector [y; +-Jy]/sqrt(2) of the chain with principal couplings
    sqrt(p). Here p = sq, or p = -sq when the halves split the rotated
    chain i S, whose eigenvalues E are i times those of S. Site signs tau
    carry the vectors to the couplings s, so a column is exactly J-even or
    J-odd when s is palindromic.
    """
    half, rotate = _split_halves(sq)
    E, Yh = np.linalg.eig(half)
    S = np.resize([1.0, -1.0], len(half))[:, None]
    turns = np.cumsum(np.concatenate([[0], np.diagonal(half, -1) < 0.0]))
    y = np.array([1.0, -1j, -1.0, 1j])[turns % 4, None] \
        * np.hstack([Yh, S * Yh]) / math.sqrt(2.0)
    Y = np.concatenate([y, y[::-1] * np.repeat([1.0, -1.0], len(y))])
    # r is real or imaginary like sqrt(p): r / sqrt(p) = sign(r.real + r.imag)
    r = 1j * s if rotate else s
    tau = np.concatenate([[1.0], np.cumprod(np.sign(r.real + r.imag))])
    lam = np.concatenate([E, 0.0 - E]).astype(complex)
    return (-1j * lam if rotate else lam), tau[:, None] * Y


def _balanced_tridiag_eig(up, lo, sq):
    """Eigenpairs of the zero-diagonal tridiagonal chain with superdiagonal
    up, subdiagonal lo and products sq, skin-effect safe.

    A diagonal similarity equalizes the two entries of every bond, removing
    the exponential envelope that makes direct diagonalization lose the
    eigenvectors (the envelope ratio exceeds 1/eps long before L=50 at
    strong non-reciprocity). The balanced matrix is symmetric with pure
    real or pure imaginary couplings, so its eigenvectors are well
    conditioned; the envelope is multiplied back afterwards. Mixed real
    and imaginary couplings are solved by _split_eig on the products sq.
    Every bond must be bidirectional, which fails exactly on the
    exceptional loci. Returns (lam, Y, X), Y the balanced vectors and X
    the unit columns of diag(d) Y.
    """
    if np.any(up == 0.0) or np.any(lo == 0.0):
        raise SingularGauge("chain has a one-directional bond; no balancing "
                            "similarity exists (exceptional parameters)")
    # chain entries are pure imaginary, so lo/up is exactly real and the
    # cumulative envelope stays exactly real or imaginary per site
    d = _envelope(np.sqrt(lo / up))
    s = up * d[1:] / d[:-1]
    if np.all(s.imag == 0.0):
        lam, Y = _golub_kahan(s.real, vectors=True)
        lam = lam.astype(complex)
    elif np.all(s.real == 0.0):
        lam, Y = _golub_kahan(s.imag, vectors=True)
        lam = 0.0 + 1j * lam
    else:
        lam, Y = _split_eig(s, sq)
    X = d[:, None] * Y
    X = X / np.linalg.norm(X, axis=0)
    if not np.all(np.isfinite(X)):
        raise Overflow("eigenvector norm overflows or underflows; chain "
                       "too long for this non-reciprocity")
    return lam, Y, X


def _tridiag_residual(up, lo, lam, X):
    """max_n ||T x_n - lam_n x_n||_2 over the columns of X, T the
    zero-diagonal tridiagonal with superdiagonal up and subdiagonal lo."""
    R = -X * lam
    R[:-1] += up[:, None] * X[1:]
    R[1:] += lo[:, None] * X[:-1]
    return float(np.linalg.norm(R, axis=0).max())


def _obc_chain_eigs(params):
    """Per OBC chain (lam, Y, X): the eigenpairs of _balanced_tridiag_eig,
    the balanced vectors Y and the unit columns X. Balanced OBC only."""
    bonds = _chain_bonds(params)
    if params.boundary != OBC:
        raise ValueError("chain eigendecomposition is open-boundary only")
    return tuple(_balanced_tridiag_eig(up[:-1], lo[:-1], sq[:-1])
                 for up, lo, sq in bonds)


def obc_eig_via_chains(params):
    """Eigenpairs of the balanced OBC ladder through the decoupled chains.

    Same decoupling as obc_spectrum_via_chains but keeping eigenvectors:
    each chain is balanced bond by bond, solved, unbalanced, and mapped
    back to the site basis. Use this instead of eig(build_realspace(...))
    whenever ladder eigenvectors are needed at system sizes where the skin
    envelope ruins the dense solve. residual_max is the larger residual
    ||T x - lam x|| of the unit chain vectors on their chains, which the
    ladder vectors W^+ P (X1 (+) X2) share up to rounding. dipr_map needs
    no ladder vectors: it works on the chain eigenpairs underneath
    (_obc_chain_eigs) directly. The eigenvector condition is not computed
    (evec_condition is inf). Balanced OBC only; raises SingularGauge on
    exceptional parameters.
    """
    chains = _obc_chain_eigs(params)
    residual = max(_tridiag_residual(up[:-1], lo[:-1], lam, X)
                   for (up, lo, _), (lam, _, X)
                   in zip(_chain_bonds(params), chains))
    (lam1, _, X1), (lam2, _, X2) = chains
    L = params.L
    perm = nhssh_permutation(params)
    M = np.zeros((2 * L, 2 * L), dtype=complex)
    M[perm[:L], :L] = X1
    M[perm[L:], L:] = X2
    V = w_basis(L).conj().T @ M
    V = V / np.linalg.norm(V, axis=0)
    return SpectrumResult(eigenvalues=np.concatenate([lam1, lam2]),
                          right_eigenvectors=V, residual_max=residual,
                          evec_condition=math.inf)


def obc_curve_distance(E, u, v):
    """Distance upper bound from E to the OBC bulk curve
    {+-sqrt(u^2 + v^2 + 2 u v cos q)}, by inverting cos q analytically and
    also trying the band ends cos q = -1, 1. Scalar in, float out; array
    in, array out."""
    E = np.asarray(E, dtype=complex)
    s, uv2 = u * u + v * v, 2.0 * u * v
    # cos q inverted; where uv2 vanishes the curve is +-sqrt(s) for any q
    z = (E * E - s) / uv2 if abs(uv2) >= 1e-300 else np.zeros(E.shape)
    cos_q = np.clip(z.real, -1.0, 1.0)
    c = np.sqrt(s + uv2 * np.stack([cos_q, np.full(E.shape, -1.0),
                                    np.full(E.shape, 1.0)]))
    dist = np.minimum(np.abs(E - c), np.abs(E + c)).min(axis=0)
    return float(dist) if E.ndim == 0 else dist


def enclosed_area(params, n_k=256):
    """Total unsigned shoelace area of the PBC band loops."""
    if n_k < 64:
        raise ValueError("n_k must be >= 64")
    ks = np.linspace(0.0, 2.0 * math.pi, n_k, endpoint=False)
    # the grid and the closing k = 2 pi in one call
    eps, ems = pbc_dispersion(params, np.append(ks, 2.0 * math.pi))
    eps, ems = eps.tolist(), ems.tolist()
    band_a = np.empty(n_k, dtype=complex)
    band_b = np.empty(n_k, dtype=complex)
    band_a[0], band_b[0] = eps[0], ems[0]
    for i in range(1, n_k):
        ep, em = eps[i], ems[i]
        # greedy continuation: keep each band continuous in the complex plane
        if abs(ep - band_a[i - 1]) + abs(em - band_b[i - 1]) <= \
           abs(em - band_a[i - 1]) + abs(ep - band_b[i - 1]):
            band_a[i], band_b[i] = ep, em
        else:
            band_a[i], band_b[i] = em, ep
    ep, em = eps[-1], ems[-1]
    swapped = (abs(ep - band_a[-1]) + abs(em - band_b[-1])
               > abs(em - band_a[-1]) + abs(ep - band_b[-1]))
    if swapped:
        loops = [np.concatenate([band_a, band_b])]
    else:
        loops = [band_a, band_b]
    total = 0.0
    for loop in loops:
        x, y = loop.real, loop.imag
        total += 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    return float(total)
