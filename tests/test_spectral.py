import numpy as np
import pytest
from conftest import multiset_dist
from hypothesis import given, settings
from hypothesis import strategies as st

from nhcreutz import (
    COLLAPSED,
    COMPLEX,
    IMAGINARY,
    OBC,
    PBC,
    REAL,
    ImbalancedParameters,
    ModelParams,
    Overflow,
    SingularGauge,
    build_bloch,
    build_realspace,
    classify,
    classify_point,
    derive,
    eig,
    enclosed_area,
    mean_dipr,
    obc_bulk_dispersion,
    obc_curve_distance,
    obc_eig_via_chains,
    obc_spectrum_via_chains,
    pbc_dispersion,
    spectral_density_M,
)
from nhcreutz.model import _chain_bonds
from nhcreutz.spectral import (_golub_kahan, _split_eig,
                               _tridiag_spectrum_from_squares)


def params(tbar=1.0, t0=0.8, gbar=0.4, g0=0.5, dt=0.0, dg=0.0, L=10,
           boundary=OBC):
    return ModelParams.from_bars(tbar=tbar, t0=t0, gbar=gbar, g0=g0,
                                 dt=dt, dg=dg, L=L, boundary=boundary)


class TestDispersion:
    def test_matches_bloch_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.uniform(-1.5, 1.5, size=6)
            p = params(*v[:4], dt=v[4], dg=v[5], boundary=PBC)
            k = rng.uniform(-np.pi, np.pi)
            ep, em = pbc_dispersion(p, k)
            bl = np.linalg.eigvals(build_bloch(p, k))
            assert multiset_dist([ep, em], bl) < 1e-12

    def test_vectorized_agrees_with_scalar(self):
        p = params(boundary=PBC)
        ks = np.linspace(-np.pi, np.pi, 17)
        ep, em = pbc_dispersion(p, ks)
        for i, k in enumerate(ks):
            sp, sm = pbc_dispersion(p, float(k))
            assert isinstance(sp, complex)
            assert abs(ep[i] - sp) < 1e-14
            assert abs(em[i] - sm) < 1e-14

    def test_hermitian_flat_band(self):
        p = params(tbar=1.0, t0=1.0, gbar=0.0, g0=0.0, boundary=PBC)
        ks = np.linspace(0, 2 * np.pi, 40)
        ep, em = pbc_dispersion(p, ks)
        assert np.abs(ep - 2.0).max() < 1e-12
        assert np.abs(em + 2.0).max() < 1e-12

    def test_pbc_flat_bands_on_fine_tuned_eta_unit(self):
        # t0 = tbar and gbar = t0 g0 / tbar: both Bloch bands k-independent
        p = params(tbar=1.0, t0=1.0, gbar=0.2, g0=0.2, boundary=PBC)
        ks = np.linspace(-np.pi, np.pi, 61)
        ep, em = pbc_dispersion(p, ks)
        e0 = 2.0 * np.sqrt(1.0 - 0.04)
        assert np.abs(ep - e0).max() < 1e-12
        assert np.abs(em + e0).max() < 1e-12

    def test_obc_bulk_dispersion_hermitian_flat(self):
        p = params(tbar=1.0, t0=1.0, gbar=0.0, g0=0.0)
        q = np.linspace(0.1, np.pi - 0.1, 9)
        ep, em = obc_bulk_dispersion(p, q)
        assert np.abs(np.abs(ep) - 2.0).max() < 1e-12
        assert np.abs(ep + em).max() == 0.0


class TestEig:
    def test_residual_and_condition(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        res = eig(H, want_vectors=True)
        assert res.right_eigenvectors.shape == (12, 12)
        assert res.residual_max < 1e-12
        assert np.isfinite(res.evec_condition)
        # columns are unit vectors
        n = np.linalg.norm(res.right_eigenvectors, axis=0)
        assert np.abs(n - 1.0).max() < 1e-12

    def test_without_vectors(self):
        res = eig(np.eye(4), want_vectors=False)
        assert res.right_eigenvectors is None
        assert np.isnan(res.residual_max)
        assert np.isinf(res.evec_condition)


class TestChainSpectrum:
    def test_matches_dense_eig(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t0, gbar, g0 = rng.uniform(-1.5, 1.5, size=3)
            p = params(t0=t0, gbar=gbar, g0=g0, L=10)
            c1, c2 = obc_spectrum_via_chains(p)
            dense = np.linalg.eigvals(build_realspace(p))
            assert multiset_dist(np.concatenate([c1, c2]), dense) < 1e-8

    def test_real_when_both_squares_positive(self):
        p = params(t0=0.8, gbar=0.4, g0=0.5)  # u2, v2 > 0
        c1, c2 = obc_spectrum_via_chains(p)
        assert np.abs(np.concatenate([c1, c2]).imag).max() == 0.0

    def test_imaginary_when_both_squares_negative(self):
        p = params(tbar=0.2, t0=0.1, gbar=1.2, g0=0.8)
        d = derive(p)
        assert (d.g ** 2 - d.f ** 2) < 0 and (d.gp ** 2 - d.fp ** 2) < 0
        c1, c2 = obc_spectrum_via_chains(p)
        assert np.abs(np.concatenate([c1, c2]).real).max() == 0.0

    def test_collapse_at_triple_point(self):
        c1, c2 = obc_spectrum_via_chains(params(t0=0.5, gbar=1.0, g0=0.5))
        assert np.abs(np.concatenate([c1, c2])).max() == 0.0

    def test_imbalance_rejected(self):
        with pytest.raises(ImbalancedParameters):
            obc_spectrum_via_chains(params(dt=0.1))

    def test_odd_L_rejected(self):
        with pytest.raises(ValueError):
            obc_spectrum_via_chains(params(L=7))


def ssh_couplings(v, u, L):
    """Couplings (v, u, v, ..., v) of an open SSH chain of even order L."""
    return np.where(np.arange(L - 1) % 2 == 0, v, u)


def eigsy_reference(c, dps):
    """Eigenvalues, ascending, of the zero-diagonal symmetric tridiagonal
    with couplings c, by mpmath.eigsy at dps digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        T = mpmath.zeros(len(c) + 1)
        for i, x in enumerate(c):
            T[i, i + 1] = T[i + 1, i] = mpmath.mpf(float(x))
        return sorted(mpmath.eigsy(T, eigvals_only=True))


def tridiagonal_solver_spectrum(sq):
    """Same-sign chain eigenvalues from scipy's eigvalsh_tridiagonal, the
    route _golub_kahan replaced."""
    import scipy.linalg
    L = len(sq) + 1
    if np.all(sq >= 0.0):
        return scipy.linalg.eigvalsh_tridiagonal(
            np.zeros(L), np.sqrt(sq)).astype(complex)
    return 1j * scipy.linalg.eigvalsh_tridiagonal(np.zeros(L), np.sqrt(-sq))


class TestGolubKahan:
    """Same-sign chains through the SVD of their bidiagonal half."""

    @pytest.mark.parametrize("v, edge", [
        (0.1, 9.9000000000000137279e-26),
        (0.2, 3.2212254720000044554e-18),
    ])
    def test_edge_mode_matches_80_digit_reference(self, v, edge):
        # eigsy_reference(ssh_couplings(v, 1.0, 50), 80); the tridiagonal
        # solver returned 9.17e-18 and 6.52e-18, its absolute rounding
        lam = _golub_kahan(ssh_couplings(v, 1.0, 50))
        assert abs(lam[25] - edge) <= 1e-12 * edge
        assert abs(lam[24] + edge) <= 1e-12 * edge

    def test_relative_accuracy_on_random_chains(self):
        # edge modes down to 2e-16 max|E|; the tridiagonal solver is off
        # by up to 8e-3 of an eigenvalue here
        rng = np.random.default_rng(3)
        for v, u in rng.uniform(0.05, 2.0, (20, 2)):
            c = ssh_couplings(v, u, 20)
            ref = np.array([float(e) for e in eigsy_reference(c, 40)])
            lam = _golub_kahan(c)
            assert np.all(np.abs(lam - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("L", [2, 4, 80])
    def test_orthonormal_eigenvectors(self, L):
        rng = np.random.default_rng(L)
        for _ in range(5):
            c = rng.uniform(0.05, 2.0, L - 1) * rng.choice([-1.0, 1.0], L - 1)
            T = np.diag(c, 1) + np.diag(c, -1)
            lam, Y = _golub_kahan(c, vectors=True)
            assert np.abs(T @ Y - Y * lam).max() <= 1e-14 * np.abs(lam).max()
            assert np.abs(Y.T @ Y - np.eye(L)).max() <= 1e-14
            assert np.abs(lam - _golub_kahan(c)).max() <= 1e-14 * lam[-1]

    def test_ascending_like_the_tridiagonal_solver(self):
        rng = np.random.default_rng(7)
        for L in range(2, 41, 2):
            sq = rng.uniform(0.05, 2.0, L - 1) * rng.choice([-1.0, 1.0])
            E = _tridiag_spectrum_from_squares(sq)
            old = tridiagonal_solver_spectrum(sq)
            key = E.real + E.imag
            assert np.all(np.diff(key) >= 0.0)
            assert np.abs(E - old).max() <= 1e-13 * np.abs(old).max()

    @pytest.mark.parametrize("t0, gbar, label", [
        (0.3, 0.8, "ELu"),  # u = 0, v^2 > 0
        (0.3, 1.2, "ELv"),  # v = 0, u^2 < 0
        (0.5, 1.0, "TriplePoint"),  # u = v = 0
    ])
    def test_zero_couplings_as_before(self, t0, gbar, label):
        for L in (2, 4, 10, 50):
            p = params(t0=t0, gbar=gbar, g0=0.5, L=L)
            assert classify_point(p).label == label
            for E, (_, _, sq) in zip(obc_spectrum_via_chains(p),
                                     _chain_bonds(p)):
                assert E.tobytes() == \
                    tridiagonal_solver_spectrum(sq[:-1]).tobytes()


def dense_chain_spectrum(sq):
    """Complex symmetric L x L chain with off-diagonal sqrt(sq), dense."""
    off = np.sqrt(np.asarray(sq, dtype=complex))
    return np.linalg.eigvals(np.diag(off, 1) + np.diag(off, -1))


def charpoly_chain_spectrum(sq, dps=60):
    """Chain eigenvalues to dps digits from the characteristic polynomial.

    With P_k = det(E - T_k), P_k = E P_{k-1} - sq[k-2] P_{k-2}. For even k
    P_k = Q_k(mu) and for odd k P_k = E R_k(mu), mu = E^2, so
    Q_k = mu R_{k-1} - p Q_{k-2} and R_k = Q_{k-1} - p R_{k-2}; the roots
    of Q_L in mu give E = +-sqrt(mu). Coefficients are lowest order first.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        def axpy(a, b, s):  # a - s b
            n = max(len(a), len(b))
            a = a + [mpmath.mpf(0)] * (n - len(a))
            b = b + [mpmath.mpf(0)] * (n - len(b))
            return [x - s * y for x, y in zip(a, b)]

        Q = {0: [mpmath.mpf(1)]}
        R = {-1: [mpmath.mpf(0)], 1: [mpmath.mpf(1)]}
        for k in range(2, len(sq) + 2):
            p = mpmath.mpf(float(sq[k - 2]))
            if k % 2 == 0:
                Q[k] = axpy([mpmath.mpf(0)] + R[k - 1], Q[k - 2], p)
            else:
                R[k] = axpy(Q[k - 1], R[k - 2], p)
        mus = mpmath.polyroots(Q[len(sq) + 1][::-1], maxsteps=200,
                               extraprec=200)
        return np.array([complex(s * mpmath.sqrt(mu))
                         for mu in mus for s in (1, -1)])


class TestChainSplit:
    def test_matches_dense_on_random_mixed_sign_products(self):
        rng = np.random.default_rng(11)
        for L in range(2, 51, 2):
            for _ in range(5):
                half = rng.uniform(0.05, 3.0, L // 2) \
                    * rng.choice([-1.0, 1.0], L // 2)
                if L >= 4:  # L = 2 has one product, so one sign
                    half[:2] = np.abs(half[:2]) * [1.0, -1.0]
                sq = np.concatenate([half, half[-2::-1]])
                E = _tridiag_spectrum_from_squares(sq)
                dense = dense_chain_spectrum(sq)
                assert E.shape == (L,)
                assert multiset_dist(E, dense) \
                    <= 1e-12 * np.abs(dense).max()

    def test_matches_60_digit_reference(self):
        # a Complex node of the L = 50 phase map where the dense complex
        # solve misses M_obc by 2e-10
        p = params(t0=-0.4831333333333334, gbar=-1.753, g0=-0.901, L=50)
        c1, c2 = [sq[:-1] for _, _, sq in _chain_bonds(p)]
        ref = np.concatenate([charpoly_chain_spectrum(c1),
                              charpoly_chain_spectrum(c2)])
        E = np.concatenate(obc_spectrum_via_chains(p))
        emax = np.abs(ref).max()
        assert multiset_dist(E, ref) <= 1e-13 * emax

        def M(eigs):
            return classify(eigs, tol_abs=1e-9 * np.abs(eigs).max()).M
        assert abs(M(E) - M(ref)) <= 1e-14

    def test_mixed_sign_needs_chain_shape(self):
        with pytest.raises(ValueError):
            _tridiag_spectrum_from_squares(np.array([1.0, -1.0, 2.0]))
        with pytest.raises(ValueError):
            _tridiag_spectrum_from_squares(np.array([1.0, -1.0]))


class TestChainEig:
    def test_residual_at_skin_point_where_dense_fails(self):
        # strong skin at L=50: the dense solve returns vectors with O(1)
        # error here (jitter 1e-13 moves the dipr average by 1e-2)
        p = params(t0=0.21, gbar=0.51, g0=0.48, L=50)
        res = obc_eig_via_chains(p)
        assert res.residual_max < 1e-12 * np.abs(res.eigenvalues).max()
        c1, c2 = obc_spectrum_via_chains(p)
        assert multiset_dist(res.eigenvalues, np.concatenate([c1, c2])) < 1e-12

    def test_matches_dense_at_mild_point(self):
        p = params(t0=0.53, gbar=-0.09, g0=0.01, L=50)
        md_chain = mean_dipr(obc_eig_via_chains(p), 50)
        md_dense = mean_dipr(eig(build_realspace(p), want_vectors=True), 50)
        assert abs(md_chain - md_dense) < 1e-6

    def test_mixed_sign_point(self):
        p = params(t0=0.49, gbar=-0.32, g0=0.60, L=40)  # u2 > 0 > v2
        res = obc_eig_via_chains(p)
        assert res.residual_max < 1e-12 * np.abs(res.eigenvalues).max()
        dense = np.linalg.eigvals(build_realspace(p))
        assert multiset_dist(res.eigenvalues, dense) < 1e-8

    @pytest.mark.parametrize("middle", [1.0, -1.0])
    def test_split_eigenpairs_on_random_mixed_sign_chains(self, middle):
        # palindromic products, mixed signs, middle product of either sign
        # (the negative one is split on the rotated chain); the balanced
        # couplings carry random palindromic signs
        rng = np.random.default_rng(23 if middle > 0 else 29)
        for L in range(4, 51, 2):
            for _ in range(3):
                m = L // 2
                half = rng.uniform(0.05, 3.0, m) \
                    * rng.choice([-1.0, 1.0], m)
                half[0] = -middle * abs(half[0])
                half[-1] = middle * abs(half[-1])
                sq = np.concatenate([half, half[-2::-1]])
                root = np.where(sq > 0.0, np.sqrt(np.abs(sq)),
                                1j * np.sqrt(np.abs(sq)))
                signs = rng.choice([-1.0, 1.0], m)
                s = root * np.concatenate([signs, signs[-2::-1]])
                lam, Y = _split_eig(s, sq)
                S = np.diag(s, 1) + np.diag(s, -1)
                emax = np.abs(lam).max()
                resid = np.linalg.norm(S @ Y - Y * lam, axis=0).max()
                assert resid <= 1e-12 * emax
                for col in Y.T:
                    assert np.array_equal(col[::-1], col) \
                        or np.array_equal(col[::-1], -col)
                norms = np.linalg.norm(Y, axis=0)
                assert np.abs(norms - 1.0).max() <= 1e-14
                E = _tridiag_spectrum_from_squares(sq)
                assert multiset_dist(lam, E) <= 1e-14 * emax

    def test_unit_columns(self):
        res = obc_eig_via_chains(params(L=20))
        norms = np.linalg.norm(res.right_eigenvectors, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_singular_on_exceptional_line(self):
        with pytest.raises(SingularGauge):
            obc_eig_via_chains(params(t0=0.3, gbar=0.8, g0=0.5, L=8))

    def test_envelope_underflow_raises_overflow(self):
        # 1e-9 off the exceptional line g = f: the balancing envelope of
        # one chain falls below the smallest subnormal at L=200
        with pytest.raises(Overflow):
            obc_eig_via_chains(params(t0=0.3, gbar=0.7999999990000001,
                                      g0=0.5, L=200))

    def test_pbc_rejected(self):
        with pytest.raises(ValueError):
            obc_eig_via_chains(params(boundary=PBC))

    def test_imbalance_rejected(self):
        with pytest.raises(ImbalancedParameters):
            obc_eig_via_chains(params(dt=0.1))


class TestClassify:
    def test_labels(self):
        assert classify(np.array([1.0, -2.0, 3.0])).label == REAL
        assert classify(np.array([1j, -2j])).label == IMAGINARY
        assert classify(np.array([1.0, 1j])).label == COMPLEX
        assert classify(np.array([0.0, 0.0]), tol_abs=1e-12).label == COLLAPSED

    def test_M_values(self):
        assert classify(np.array([1.0, -1.0])).M == pytest.approx(1.0)
        assert classify(np.array([1j, -3j])).M == pytest.approx(-1.0)
        assert classify(np.array([1.0, 1j])).M == pytest.approx(0.0)

    def test_tol_rel_absorbs_dust(self):
        eigs = np.array([1.0 + 1e-12j, -2.0 - 1e-12j])
        assert classify(eigs).label == REAL

    def test_spectral_density_M_tol_abs(self):
        eigs = np.array([1.0, 1e-12j])
        # dust eigenvalue counts as angle 0 once below tol_abs
        assert spectral_density_M(eigs, tol_abs=1e-9) == pytest.approx(1.0)

    @given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_M_bounded_and_permutation_invariant(self, vals):
        eigs = np.array(vals, dtype=complex)
        m = spectral_density_M(eigs)
        assert -1.0 <= m <= 1.0
        perm = np.random.default_rng(0).permutation(len(eigs))
        assert spectral_density_M(eigs[perm]) == pytest.approx(m)


class TestCurveGeometry:
    def test_distance_vanishes_on_curve(self):
        p = params(t0=0.8, gbar=0.4, g0=0.5)
        d = derive(p)
        q = np.linspace(0.05, np.pi - 0.05, 25)
        ep, em = obc_bulk_dispersion(p, q)
        dist = obc_curve_distance(np.concatenate([ep, em]), d.u, d.v)
        assert np.abs(dist).max() < 1e-10

    def test_distance_positive_off_curve(self):
        p = params(t0=0.8, gbar=0.4, g0=0.5)
        d = derive(p)
        assert obc_curve_distance(np.array([10.0 + 0j]), d.u, d.v)[0] > 1.0

    def test_area_zero_for_hermitian(self):
        assert enclosed_area(params(gbar=0.0, g0=0.0, boundary=PBC,
                                    L=50)) < 1e-12

    def test_area_zero_on_bbc_line(self):
        # gbar = t0 * g0 / tbar: PBC spectrum degenerates to an arc
        assert enclosed_area(params(t0=0.8, gbar=0.4, g0=0.5, boundary=PBC,
                                    L=50)) < 1e-8

    def test_area_positive_at_skin_point(self):
        assert enclosed_area(params(t0=0.5, gbar=0.8, g0=0.1, boundary=PBC,
                                    L=50)) > 0.01
