"""Analytic dispersions, dense eigensolves, spectral classification, and
complex-plane area of the PBC bands."""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceFailure, EmptySpectrum, Overflow, SingularGauge
from .model import (OBC, ModelParams, _chain_bonds, _envelope,
                    build_realspace, derive, nhssh_permutation,
                    require_balanced, w_basis)

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


def pbc_dispersion(params, k):
    """Closed-form PBC band pair (E_plus, E_minus) at momentum k.

    Accepts a scalar or an array of momenta, and one ModelParams or a
    sequence of them; a sequence adds a leading node axis to the output.
    """
    ka = np.asarray(k, dtype=float)
    if isinstance(params, ModelParams):
        d = derive(params)
        t0, g0, tbar, gbar, dt, dg = (params.t0, params.g0, d.tbar, d.gbar,
                                      d.dt, d.dg)
    else:
        cols = [(p.t0, p.g0, d.tbar, d.gbar, d.dt, d.dg)
                for p, d in ((p, derive(p)) for p in params)]
        t0, g0, tbar, gbar, dt, dg = \
            np.array(cols).T.reshape((6, -1) + (1,) * ka.ndim)
    sk, ck = np.sin(ka), np.cos(ka)
    shift = 2.0 * (dt * sk - 1j * dg * ck)
    rad = ((t0 * t0 - gbar * gbar) * ck * ck
           + (tbar * tbar - g0 * g0) * sk * sk
           + 1j * (t0 * g0 - tbar * gbar) * np.sin(2.0 * ka)).astype(complex)
    root = 2.0 * np.sqrt(rad)
    if np.ndim(root) == 0:
        return complex(shift + root), complex(shift - root)
    return shift + root, shift - root


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
    """The two real L/2 x L/2 halves of a mixed-sign chain with
    off-diagonal products sq, and whether they split the rotated chain.

    The chain needs even order L and palindromic sq. In symmetric form it
    is then centrosymmetric, and the basis (e_j +- e_{L+1-j})/sqrt(2)
    splits it exactly into the halves A +- c e_m e_m^T, c^2 the middle
    product (Cantoni & Butler, Lin. Alg. Appl. 13, 275 (1976)). A
    negative middle product is split on iT (products -sq) instead, so c
    stays real. A diagonal similarity makes each half real (superdiagonal
    sqrt|p|, subdiagonal sign(p) sqrt|p|).
    """
    L = len(sq) + 1
    if L % 2 or not np.array_equal(sq, sq[::-1]):
        raise ValueError("mixed-sign products must be palindromic, even order")
    m = L // 2
    rotate = sq[m - 1] < 0.0
    p = -sq[:m] if rotate else sq[:m]
    s = np.sqrt(np.abs(p[:-1]))
    j = np.arange(m - 1)
    halves = np.zeros((2, m, m))
    halves[:, j, j + 1] = s
    halves[:, j + 1, j] = np.sign(p[:-1]) * s
    halves[0, -1, -1] = math.sqrt(p[-1])
    halves[1, -1, -1] = -math.sqrt(p[-1])
    return halves, rotate


def _golub_kahan(c, vectors=False):
    """Eigenvalues, ascending, of the zero-diagonal real symmetric
    tridiagonal T of even order with couplings c; with vectors=True also
    its orthonormal eigenvectors as columns.

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
    B = np.diag(c[0::2]) + np.diag(c[1::2], 1)
    if not vectors:
        sigma = np.linalg.svd(B, compute_uv=False)
    else:
        P, sigma, Qt = np.linalg.svd(B)
    # 0.0 - sigma keeps exact zeros +0.0
    lam = np.concatenate([0.0 - sigma, sigma[::-1]])
    if not vectors:
        return lam
    Q = Qt.T
    Y = np.empty((len(c) + 1, len(c) + 1))
    Y[0::2] = np.hstack([Q, Q[:, ::-1]])
    Y[1::2] = np.hstack([-P, P[:, ::-1]])
    return lam, Y / math.sqrt(2.0)


def _tridiag_spectrum_from_squares(sq):
    """Eigenvalues of the zero-diagonal tridiagonal with off-diagonal
    products sq (spectra depend only on those products).

    Same-sign products give a real or imaginary symmetric tridiagonal,
    solved by _golub_kahan. Mixed signs go through _split_halves: one
    real solve of the (2, L/2, L/2) stack replaces a complex L x L one.
    """
    if np.all(sq >= 0.0):
        return _golub_kahan(np.sqrt(sq)).astype(complex)
    if np.all(sq <= 0.0):
        return 1j * _golub_kahan(np.sqrt(-sq))
    halves, rotate = _split_halves(sq)
    try:
        E = np.linalg.eigvals(halves).ravel().astype(complex)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return -1j * E if rotate else E


def obc_spectrum_via_chains(params):
    """Accurate OBC ladder spectrum through the decoupled chains.

    Returns (eigs_chain1, eigs_chain2), each length L. Equivalent to the
    gauge transformation in product form: a tridiagonal spectrum depends only
    on the products of opposite off-diagonal pairs, so each chain reduces to
    a symmetric tridiagonal problem (same-sign products) or to two real
    half-size problems (mixed signs) that stay well conditioned at system
    sizes where direct diagonalization of skin-effect matrices fails. Open
    boundary by construction regardless of params.boundary. Balanced only.
    """
    return tuple(_tridiag_spectrum_from_squares(sq[:-1])
                 for _, _, sq in _chain_bonds(params))


def _split_eig(s, sq):
    """Eigenpairs of the complex symmetric chain with couplings s, each
    real or imaginary, s^2 = sq up to rounding, sq mixed-sign.

    A vector y of a half of _split_halves, with the half's similarity (a
    factor -i per negative bond) undone, gives the vector [y; +-Jy]/sqrt(2)
    of the chain with principal couplings sqrt(p). Here p = sq, or p = -sq
    when the halves split the rotated chain i S, whose eigenvalues E are
    i times those of S. Site signs tau carry the vectors to the couplings
    s, so a column is exactly J-even or J-odd when s is palindromic.
    """
    halves, rotate = _split_halves(sq)
    E, Yh = np.linalg.eig(halves)
    turns = np.cumsum(np.concatenate([[0], np.diagonal(halves[0], -1) < 0.0]))
    y = np.array([1.0, -1j, -1.0, 1j])[turns % 4, None] \
        * np.concatenate(Yh, axis=1) / math.sqrt(2.0)
    Y = np.concatenate([y, y[::-1] * np.repeat([1.0, -1.0], len(y))])
    # r is real or imaginary like sqrt(p): r / sqrt(p) = sign(r.real + r.imag)
    r = 1j * s if rotate else s
    tau = np.concatenate([[1.0], np.cumprod(np.sign(r.real + r.imag))])
    lam = E.ravel().astype(complex)
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
    exceptional loci.
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
        lam = 1j * lam
    else:
        lam, Y = _split_eig(s, sq)
    X = d[:, None] * Y
    X = X / np.linalg.norm(X, axis=0)
    if not np.all(np.isfinite(X)):
        raise Overflow("eigenvector norm overflows or underflows; chain "
                       "too long for this non-reciprocity")
    return lam, X


def _tridiag_residual(up, lo, lam, X):
    """max_n ||T x_n - lam_n x_n||_2 over the columns of X, T the
    zero-diagonal tridiagonal with superdiagonal up and subdiagonal lo."""
    R = -X * lam
    R[:-1] += up[:, None] * X[1:]
    R[1:] += lo[:, None] * X[:-1]
    return float(np.linalg.norm(R, axis=0).max())


def _obc_chain_eigs(params):
    """Per OBC chain (lam, X, residual): the eigenpairs of
    _balanced_tridiag_eig, unit columns, and their largest residual
    ||T x - lam x|| on the chain itself. Balanced OBC only."""
    bonds = _chain_bonds(params)
    if params.boundary != OBC:
        raise ValueError("chain eigendecomposition is open-boundary only")
    out = []
    for up, lo, sq in bonds:
        lam, X = _balanced_tridiag_eig(up[:-1], lo[:-1], sq[:-1])
        out.append((lam, X, _tridiag_residual(up[:-1], lo[:-1], lam, X)))
    return tuple(out)


def _block_diagonal(X1, X2):
    """The 2L x 2L block-diagonal matrix of the two chains' L x L
    eigenvector sets."""
    L = len(X1)
    Z = np.zeros((2 * L, 2 * L), dtype=complex)
    Z[:L, :L] = X1
    Z[L:, L:] = X2
    return Z


def obc_eig_via_chains(params):
    """Eigenpairs of the balanced OBC ladder through the decoupled chains.

    Same decoupling as obc_spectrum_via_chains but keeping eigenvectors:
    each chain is balanced bond by bond, solved, unbalanced, and mapped
    back to the site basis. Use this instead of eig(build_realspace(...))
    whenever ladder eigenvectors are needed at system sizes where the skin
    envelope ruins the dense solve; residual_max is taken on the dense
    ladder. dipr_map needs no ladder vectors: it works on the chain
    eigenpairs underneath (_obc_chain_eigs) directly. The eigenvector
    condition is not computed (evec_condition is inf). Balanced OBC
    only; raises SingularGauge on exceptional parameters.
    """
    (lam1, X1, _), (lam2, X2, _) = _obc_chain_eigs(params)
    L = params.L
    lam = np.concatenate([lam1, lam2])
    M = np.empty((2 * L, 2 * L), dtype=complex)
    M[nhssh_permutation(params), :] = _block_diagonal(X1, X2)
    V = w_basis(L).conj().T @ M
    V = V / np.linalg.norm(V, axis=0)
    H = build_realspace(params)
    residual = float(np.max(np.linalg.norm(H @ V - V * lam, axis=0)))
    return SpectrumResult(eigenvalues=lam, right_eigenvectors=V,
                          residual_max=residual, evec_condition=math.inf)


def _curve_distance_one(E, u, v):
    uv2 = 2.0 * u * v
    if abs(uv2) < 1e-300:
        c = cmath.sqrt(u * u + v * v)
        return min(abs(E - c), abs(E + c))
    z = (E * E - u * u - v * v) / uv2
    zr = min(1.0, max(-1.0, z.real))
    best = math.inf
    for zz in (zr, -1.0, 1.0):
        c = cmath.sqrt(u * u + v * v + uv2 * zz)
        best = min(best, abs(E - c), abs(E + c))
    return best


def obc_curve_distance(E, u, v):
    """Distance upper bound from E to the OBC bulk curve
    {+-sqrt(u^2 + v^2 + 2 u v cos q)}, by inverting cos q analytically.
    Scalar in, float out; array in, array out."""
    Ea = np.asarray(E, dtype=complex)
    if Ea.ndim == 0:
        return _curve_distance_one(complex(Ea), u, v)
    return np.array([_curve_distance_one(complex(e), u, v)
                     for e in Ea.ravel()]).reshape(Ea.shape)


def enclosed_area(params, n_k=256):
    """Total unsigned shoelace area of the PBC band loops."""
    if n_k < 64:
        raise ValueError("n_k must be >= 64")
    ks = np.linspace(0.0, 2.0 * math.pi, n_k, endpoint=False)
    band_a = np.empty(n_k, dtype=complex)
    band_b = np.empty(n_k, dtype=complex)
    prev = pbc_dispersion(params, ks[0])
    band_a[0], band_b[0] = prev
    for i in range(1, n_k):
        ep, em = pbc_dispersion(params, ks[i])
        # greedy continuation: keep each band continuous in the complex plane
        if abs(ep - band_a[i - 1]) + abs(em - band_b[i - 1]) <= \
           abs(em - band_a[i - 1]) + abs(ep - band_b[i - 1]):
            band_a[i], band_b[i] = ep, em
        else:
            band_a[i], band_b[i] = em, ep
    ep, em = pbc_dispersion(params, 2.0 * math.pi)
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
