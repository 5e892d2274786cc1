import cmath
import math

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
    GridSpec,
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
    ladder_spectrum,
    mean_dipr,
    obc_bulk_dispersion,
    obc_curve_distance,
    obc_eig_via_chains,
    obc_spectrum_via_chains,
    pbc_dispersion,
    phase_diagram,
    spectral_density_M,
)
from nhcreutz import spectral
from nhcreutz.degeneracy import condition_defective
from nhcreutz.localization import _mean_dipr_chains
from nhcreutz.model import _chain_bonds, _envelope
from nhcreutz.spectral import (_balanced_tridiag_eig, _chain_eigenpairs,
                               _golub_kahan, _split_eig, _split_halves,
                               _ssh_squares, _tridiag_spectrum_from_squares)


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
                # bit for bit, but zero parts are +0.0 where the old
                # route's 1j * sigma gave -0.0
                assert E.tobytes() == \
                    (0.0 + tridiagonal_solver_spectrum(sq[:-1])).tobytes()


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


def ssh_rows(L, count, seed):
    """The products of both chains of random balanced nodes with u^2 v^2
    < 0: 2-periodic rows a, b, ..., a, mixed-sign at L >= 4."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < count:
        t0, gbar, g0 = rng.uniform(-1.5, 1.5, 3)
        p = params(t0=t0, gbar=gbar, g0=g0, L=L)
        d = derive(p)
        if d.u2 * d.v2 < 0.0:
            rows += [sq[:-1] for _, _, sq in _chain_bonds(p)]
    return rows[:count]


def ssh_row(a, b, L):
    sq = np.full(L - 1, float(a))
    sq[1::2] = b
    return sq


def certified(sq):
    """Whether the root route of _tridiag_spectrum_from_squares takes the
    2-periodic mixed-sign row sq."""
    return bool(_ssh_squares(sq[:1], sq[1:2], (len(sq) + 1) // 2)[1][0])


def half_eigvals_route(sq):
    """The spectrum of a mixed-sign row from the eigvals of its half, as
    _tridiag_spectrum_from_squares computed every mixed-sign row before
    the root route."""
    half, rotate = _split_halves(sq)
    E = np.linalg.eigvals(half).astype(complex)
    E[rotate] = -1j * E[rotate]
    return np.concatenate([E, 0.0 - E], axis=-1)


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
                c = np.sqrt(np.abs(sq))
                # the mixed-sign row, then an all-negative one (an
                # Imaginary-class chain), which the balanced eigensolver
                # takes too with couplings i c
                negative = _balanced_tridiag_eig(1j * c, 1j * c, -c * c)[0]
                for row in (sq, -c * c):
                    E = _tridiag_spectrum_from_squares(row)
                    dense = dense_chain_spectrum(row)
                    assert E.shape == (L,)
                    assert multiset_dist(E, dense) \
                        <= 1e-12 * np.abs(dense).max()
                    assert np.array_equal(np.sort_complex(E),
                                          np.sort_complex(-E))
                    # neither the negated half nor a rotated sigma brings
                    # a -0.0 part, which a spectrum file would write as
                    # "-0.0"
                    for eigs in (E, negative):
                        parts = np.concatenate([eigs.real, eigs.imag])
                        assert not np.signbit(parts[parts == 0.0]).any()

    def test_matches_dense_on_ssh_chains(self):
        # the 2-periodic rows of random nodes, which the root route takes
        # unless the certificate fails
        taken = total = 0
        for L in range(2, 51, 2):
            for row in ssh_rows(L, 6, seed=L):
                E = _tridiag_spectrum_from_squares(row)
                dense = dense_chain_spectrum(row)
                assert multiset_dist(E, dense) <= 1e-12 * np.abs(dense).max()
                assert np.array_equal(np.sort_complex(E),
                                      np.sort_complex(-E))
                parts = np.concatenate([E.real, E.imag])
                assert not np.signbit(parts[parts == 0.0]).any()
                if L >= 4:
                    total += 1
                    taken += certified(row)
        assert taken >= 0.9 * total

    def test_matches_60_digit_reference(self):
        def M(eigs):
            return classify(eigs, tol_abs=1e-9 * np.abs(eigs).max()).M

        # a Complex node of the L = 50 phase map where the dense complex
        # solve misses M_obc by 2e-10, then u^2 > 0 > v^2 at L = 40 and
        # u^2 < 0 < v^2 with an eigenvalue 1.2e-11 at L = 50; each node has
        # one chain split on T and one on iT
        for t0, gbar, g0, L in [(-0.4831333333333334, -1.753, -0.901, 50),
                                (0.49, -0.32, 0.60, 40),
                                (-1.2, 0.35, 0.45, 50)]:
            p = params(t0=t0, gbar=gbar, g0=g0, L=L)
            c1, c2 = [sq[:-1] for _, _, sq in _chain_bonds(p)]
            ref = np.concatenate([charpoly_chain_spectrum(c1),
                                  charpoly_chain_spectrum(c2)])
            E = np.concatenate(obc_spectrum_via_chains(p))
            emax = np.abs(ref).max()
            assert multiset_dist(E, ref) <= 1e-13 * emax
            assert abs(M(E) - M(ref)) <= 1e-14

    @pytest.mark.parametrize("L", [2, 4, 50])
    def test_stacked_rows_equal_single_rows(self, L):
        # mixed signs with a middle product of either sign (L >= 4), all
        # positive, all negative, one zero product and all zero, in one
        # (4, -1, L-1) stack
        rng = np.random.default_rng(L)
        m = L // 2
        kinds = ["pos", "neg", "one zero", "all zero"]
        if L >= 4:
            kinds += ["middle +", "middle -"]
        rows = []
        for kind in (kinds * 12)[:12]:
            half = rng.uniform(0.05, 3.0, m)
            if kind.startswith("middle"):
                middle = 1.0 if kind == "middle +" else -1.0
                half *= rng.choice([-1.0, 1.0], m)
                half[-2:] = np.abs(half[-2:]) * [-middle, middle]
            elif kind == "neg":
                half = -half
            elif kind == "one zero":
                half[rng.integers(m)] = 0.0
                half *= rng.choice([-1.0, 1.0])
            elif kind == "all zero":
                half[:] = 0.0
            rows.append(np.concatenate([half, half[-2::-1]]))
        # then four 2-periodic rows of random nodes; at L >= 4 the last is
        # one that fails the root certificate
        extra = ssh_rows(L, 4, seed=100 + L)
        if L >= 4:
            n = L // 2
            extra[-1] = ssh_row(0.7, -0.7 * (1.02 * (n + 1) / n) ** 2, L)
            assert any(map(certified, extra[:-1]))
            assert not certified(extra[-1])
        if L == 50:
            # 800 more: the root kernel's complex arrays then pass 256 KiB,
            # where numpy's temporary elision may swap a product's operands
            extra += ssh_rows(L, 800, seed=7)
        rows += extra
        rng.shuffle(rows)
        sq = np.array(rows).reshape(4, -1, L - 1)
        E = _tridiag_spectrum_from_squares(sq)
        assert E.shape == sq.shape[:-1] + (L,)
        for i in np.ndindex(sq.shape[:-1]):
            assert E[i].tobytes() == \
                _tridiag_spectrum_from_squares(sq[i]).tobytes()

    def test_mixed_sign_needs_chain_shape(self):
        with pytest.raises(ValueError):
            _tridiag_spectrum_from_squares(np.array([1.0, -1.0, 2.0]))
        with pytest.raises(ValueError):
            _tridiag_spectrum_from_squares(np.array([1.0, -1.0]))


def chain_M(eigs):
    """M of a spectrum with |E| <= 1e-9 max|E| counted as real, the cut of
    phase_diagram off the same-sign nodes."""
    return classify(eigs, tol_abs=1e-9 * np.abs(eigs).max()).M


class TestSSHRoots:
    def test_edge_pair_of_a_benchmark_node_matches_80_digits(self):
        # a snapped node of a benchmark phase tile: chain one has the edge
        # pair |E| = 6.6585021e-9, above the 1e-9 max|E| cut, so its angle
        # enters M_obc; the half-size eigvals is off at the 8th digit there
        p = params(t0=-0.5344666666666669, gbar=-1.839, g0=-0.897, L=50)
        rows = [sq[:-1] for _, _, sq in _chain_bonds(p)]
        assert all(map(certified, rows))
        E = obc_spectrum_via_chains(p)
        ref = [charpoly_chain_spectrum(row, dps=80) for row in rows]
        edge = np.abs(ref[0]).min()
        assert 6.6585e-9 < edge < 6.6586e-9
        assert edge > 1e-9 * np.abs(np.concatenate(ref)).max()
        assert abs(np.abs(E[0]).min() - edge) <= 1e-12 * edge
        for got, want in zip(E, ref):
            assert multiset_dist(got, want) <= 1e-13 * np.abs(want).max()
        assert abs(chain_M(np.concatenate(E))
                   - chain_M(np.concatenate(ref))) <= 1e-14

    def test_tiny_edge_mode_matches_80_digits(self):
        # (a, b) = (-0.3, 0.9) at n = 25: the smallest lam = E^2 is
        # 1.89e-12, where 1 + r z cancels at the edge root
        sq = ssh_row(-0.3, 0.9, 50)
        assert certified(sq)
        lam, _, _ = _ssh_squares(sq[:1], sq[1:2], 25)
        assert 1.88e-12 < np.abs(lam).min() < 1.90e-12
        E = _tridiag_spectrum_from_squares(sq)
        ref = charpoly_chain_spectrum(sq, dps=80)
        edge = np.abs(ref).min()
        assert abs(np.abs(E).min() - edge) <= 1e-12 * edge
        assert multiset_dist(E, ref) <= 1e-13 * np.abs(ref).max()
        assert abs(chain_M(E) - chain_M(ref)) <= 1e-14

    def test_fallback_rows_equal_half_eigvals_bytes(self):
        # rows the certificate refuses (|r| near (n+1)/n) and rows that
        # are not 2-periodic take the half-size eigvals as before, alone
        # and in a stack with rows the root route takes
        rng = np.random.default_rng(31)
        for L in (4, 10, 50):
            n = L // 2
            refused = [ssh_row(s * 0.7, -s * 0.7 * (f * (n + 1) / n) ** 2, L)
                       for s in (1.0, -1.0) for f in (1.01, 1.02)]
            assert not any(map(certified, refused))
            other = []  # palindromic, 2-periodic only at L = 4
            for _ in range(4 if L > 4 else 0):
                half = rng.uniform(0.05, 3.0, n) * rng.choice([-1.0, 1.0], n)
                half[:2] = np.abs(half[:2]) * [1.0, -1.0]
                other.append(np.concatenate([half, half[-2::-1]]))
            rows = np.array(refused + other)
            for row in rows:
                assert _tridiag_spectrum_from_squares(row).tobytes() == \
                    half_eigvals_route(row).tobytes()
            stack = np.concatenate([rows, ssh_rows(L, 4, seed=L)])
            E = _tridiag_spectrum_from_squares(stack)
            assert E[:len(rows)].tobytes() == \
                half_eigvals_route(rows).tobytes()

    def test_fallback_share_on_a_phase_tile(self, monkeypatch):
        # one L = 50 tile of the benchmark's phase workload: the rows
        # that reach eigvals are the fallback, 5% of the mixed-sign chains
        # at most
        eigvals = np.linalg.eigvals
        calls = []

        def counting(a):
            calls.append(len(a))
            return eigvals(a)

        monkeypatch.setattr(spectral.np.linalg, "eigvals", counting)
        s = GridSpec(t0_range=(-1.2, 1.2, 16), gbar_range=(-1.2, 1.2, 16),
                     g0=-0.45, L=50)
        rows = phase_diagram(s)
        assert all(r.status == "ok" for r in rows)
        nodes = [derive(params(t0=r.t0, gbar=r.gbar, g0=-0.45, L=50))
                 for r in rows]
        mixed = 2 * sum(d.u2 * d.v2 < 0.0 for d in nodes)
        assert mixed >= 200
        assert sum(calls) <= 0.05 * mixed


class TestThermodynamicLimit:
    # L |M_obc(L) - M_inf| on these nodes runs from 0.2 to 1.8 at L = 50,
    # 200, 400 and 800, nearly constant in L: the boundary's 1/L share
    C = 2.0

    @staticmethod
    def M_inf(p, n_theta=4096):
        """M of the bulk band lam(theta) = u^2 + v^2 + 2 u v cos(theta),
        E = +-sqrt(lam), by the midpoint rule over theta in (0, pi)."""
        d = derive(p)
        theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
        lam = d.u * d.u + d.v * d.v + 2.0 * d.u * d.v * np.cos(theta)
        return spectral_density_M(np.sqrt(lam.astype(complex)))

    @pytest.mark.parametrize("t0, gbar, g0", [
        (0.915, 0.924, 0.031),     # u^2 > 0 > v^2
        (-0.275, -1.364, -0.902),  # an edge pair on chain one
        (1.033, -0.323, -0.014),
        (-0.686, 1.139, -0.872),
    ])
    def test_M_obc_within_C_over_L(self, t0, gbar, g0):
        for L in (200, 400):
            p = params(t0=t0, gbar=gbar, g0=g0, L=L)
            assert classify_point(p).label == "Generic"
            assert derive(p).u2 * derive(p).v2 < 0.0
            rows = [sq[:-1] for _, _, sq in _chain_bonds(p)]
            assert all(map(certified, rows))
            M = chain_M(np.concatenate(obc_spectrum_via_chains(p)))
            assert abs(M - self.M_inf(p)) <= self.C / L


def balanced_couplings(sq, rng):
    """Couplings of a balanced chain with products sq: each real or
    imaginary, a principal root times a random sign."""
    root = np.where(sq > 0.0, np.sqrt(np.abs(sq)), 1j * np.sqrt(np.abs(sq)))
    return root * rng.choice([-1.0, 1.0], len(sq))


def balanced_by_kernel(up, lo):
    """The couplings that _chain_eigenpairs solves for a chain with
    superdiagonal up and subdiagonal lo: up d_(j+1) / d_j, d its
    envelope. For up = lo = s they are s to rounding, as s / s is 1 to
    rounding in numpy's complex division."""
    d = _envelope(np.sqrt(lo / up))
    return up * d[..., 1:] / d[..., :-1]


def skin_chain(a, b, skew, L):
    """(up, lo, sq) of a 2-periodic chain of order L with pure imaginary
    entries, as the ladder's chains have: products a, b, a, ..., a, and
    |lo/up| = e^(-2 skew) on every bond, a skin envelope."""
    mag = np.sqrt(np.abs(np.resize([a, b], L - 1)))
    sign = np.sign(np.resize([a, b], L - 1))
    up_mag, lo_mag = mag * math.exp(skew), -sign * mag * math.exp(-skew)
    up, lo = -1j * up_mag, -1j * lo_mag
    sq = -(up_mag * lo_mag)
    assert np.array_equal(sq, (up * lo).real)
    return up, lo, sq


def old_chain_route(up, lo, sq):
    """Eigenvalues, unit balanced vectors and envelope of a mixed-sign
    chain from _split_eig, as every mixed-sign chain was solved before the
    closed form."""
    d = _envelope(np.sqrt(lo / up))
    lam, Y = _split_eig(balanced_by_kernel(up, lo), sq)
    return lam, Y, d


class TestSSHVectors:
    """The closed-form eigenvectors of _ssh_vectors, which
    _chain_eigenpairs takes on certified 2-periodic mixed-sign chains,
    against the half-size eig of _split_eig."""

    def test_closed_form_pairs_match_split_eig(self, monkeypatch):
        # L = 4..50 (L = 2 has one product, so no mixed sign), odd and
        # even n, |r| = sqrt|b/a| either side of the edge threshold
        # (n+1)/n, and a skin envelope of up to e^(0.3 L) end to end
        rng = np.random.default_rng(43)
        tried, edge = 0, 0
        split_eig = spectral._split_eig

        def refused(s, sq):
            raise AssertionError("a certified row reached _split_eig")

        for L in range(4, 51, 2):
            n = L // 2
            for _ in range(8):
                a = rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0])
                r = rng.choice([rng.uniform(0.05, 1.0),
                                rng.uniform(1.05, 4.0) * (n + 1) / n])
                up, lo, sq = skin_chain(a, -a * r * r,
                                        rng.uniform(-0.15, 0.15), L)
                if not certified(sq):
                    continue
                tried += 1
                edge += r > (n + 1) / n
                monkeypatch.setattr(spectral, "_split_eig", refused)
                lam, Yt, d = _chain_eigenpairs(up, lo, sq)
                monkeypatch.setattr(spectral, "_split_eig", split_eig)
                lam_old, Y_old, d_old = old_chain_route(up, lo, sq)
                assert np.array_equal(d, d_old)
                s = balanced_by_kernel(up, lo)
                T = np.diag(s, 1) + np.diag(s, -1)
                Y = Yt.T
                emax = np.abs(lam).max()
                assert np.abs(np.linalg.norm(Y, axis=0) - 1.0).max() <= 1e-14
                assert np.linalg.norm(T @ Y - Y * lam, axis=0).max() \
                    <= 1e-12 * emax
                assert np.array_equal(lam, _tridiag_spectrum_from_squares(sq))
                assert abs(_mean_dipr_chains([d[:, None] * Y])
                           - _mean_dipr_chains([d[:, None] * Y_old])) \
                    <= 1e-13
                assert condition_defective([(lam, Y)]) \
                    is condition_defective([(lam_old, Y_old)])
        assert tried >= 150 and edge >= 50

    @pytest.mark.parametrize("L", [200, 400])
    def test_edge_pair_below_the_float_range(self, L):
        # |r| = 17.9 at n = 100 and 200: the edge pair's lam = E^2 is
        # 1.3e-250 at L = 200 and underflows to 0 at L = 400. Each of its
        # two modes still holds half its weight on the odd and half on
        # the even sites, as the half-size eig gives them
        up, lo, sq = skin_chain(-0.01, 3.19, 0.1, L)
        assert certified(sq)
        lam, Yt, d = _chain_eigenpairs(up, lo, sq)
        edge = np.argsort(np.abs(lam))[:2]
        assert np.abs(lam[edge]).max() < 1e-120
        share = (np.abs(Yt[edge, 0::2]) ** 2).sum(axis=-1)
        assert np.abs(share - 0.5).max() <= 1e-12
        _, Y_old, _ = old_chain_route(up, lo, sq)
        assert abs(_mean_dipr_chains([d[:, None] * Yt.T])
                   - _mean_dipr_chains([d[:, None] * Y_old])) <= 1e-13

    def test_refused_rows_equal_split_eig_bytes(self):
        # rows the certificate refuses (|r| just past (n+1)/n) take
        # _split_eig as before, alone and in a stack with certified rows
        rng = np.random.default_rng(47)
        for L in (4, 10, 50):
            n = L // 2
            refused = [ssh_row(s * 0.7, -s * 0.7 * (f * (n + 1) / n) ** 2, L)
                       for s in (1.0, -1.0) for f in (1.01, 1.02)]
            assert not any(map(certified, refused))
            rows = np.array(refused + ssh_rows(L, 4, seed=L))
            c = np.array([balanced_couplings(row, rng) for row in rows])
            lam, Yt, _ = _chain_eigenpairs(c, c, rows)
            for i, (ci, row) in enumerate(zip(c, rows)):
                alone = _chain_eigenpairs(ci, ci, row)
                assert lam[i].tobytes() == alone[0].tobytes()
                assert Yt[i].tobytes() == alone[1].tobytes()
                if i < len(refused):
                    lam_old, Y_old = _split_eig(balanced_by_kernel(ci, ci),
                                                row)
                    assert lam[i].tobytes() == lam_old.tobytes()
                    assert Yt[i].tobytes() == Y_old.T.copy().tobytes()


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


class TestLadderSpectrum:
    def test_pbc_matches_dense_with_imbalanced_legs(self):
        # PBC H is block circulant, so dense eig is well conditioned there
        rng = np.random.default_rng(17)
        for L in (2, 3, 4, 7, 32, 33):
            for _ in range(50):
                v = rng.uniform(-1.5, 1.5, size=4)
                dt, dg = rng.uniform(0.05, 0.5, size=2) \
                    * rng.choice([-1.0, 1.0], size=2)
                p = params(*v, dt=dt, dg=dg, L=L, boundary=PBC)
                dense = eig(build_realspace(p)).eigenvalues
                assert multiset_dist(ladder_spectrum(p), dense) \
                    <= 1e-12 * np.abs(dense).max()


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

    def test_distance_equals_per_energy_loop(self):
        def per_energy_distance(E, u, v):
            # one energy at a time: cos q inverted with cmath, then the
            # inverted value and the band ends cos q = -1, 1 tried in turn
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

        rng = np.random.default_rng(11)
        for i in range(2000):
            u2, v2 = rng.uniform(-2.0, 2.0, 2)
            u = cmath.sqrt(0.0 if i % 10 == 0 else u2)  # u = 0 included
            v = cmath.sqrt(v2)
            E = rng.normal(size=40) + 1j * rng.normal(size=40)
            ref = [per_energy_distance(complex(e), u, v) for e in E]
            assert np.abs(obc_curve_distance(E, u, v) - ref).max() <= 1e-14
            one = obc_curve_distance(E[0], u, v)
            assert type(one) is float and abs(one - ref[0]) <= 1e-14

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

    def test_area_equals_per_k_loop(self):
        def per_k_area(p, n_k=256):
            # one pbc_dispersion call per momentum, then the same greedy
            # continuation and shoelace sum
            ks = np.linspace(0.0, 2.0 * np.pi, n_k, endpoint=False)
            band_a = np.empty(n_k, dtype=complex)
            band_b = np.empty(n_k, dtype=complex)
            band_a[0], band_b[0] = pbc_dispersion(p, ks[0])
            for i in range(1, n_k):
                ep, em = pbc_dispersion(p, ks[i])
                if abs(ep - band_a[i - 1]) + abs(em - band_b[i - 1]) <= \
                   abs(em - band_a[i - 1]) + abs(ep - band_b[i - 1]):
                    band_a[i], band_b[i] = ep, em
                else:
                    band_a[i], band_b[i] = em, ep
            ep, em = pbc_dispersion(p, 2.0 * np.pi)
            if (abs(ep - band_a[-1]) + abs(em - band_b[-1])
                    > abs(em - band_a[-1]) + abs(ep - band_b[-1])):
                loops = [np.concatenate([band_a, band_b])]
            else:
                loops = [band_a, band_b]
            return float(sum(
                0.5 * abs(np.sum(lp.real * np.roll(lp.imag, -1)
                                 - np.roll(lp.real, -1) * lp.imag))
                for lp in loops))

        rng = np.random.default_rng(7)
        for _ in range(200):
            t0, gbar, g0, dt, dg = rng.uniform(-1.5, 1.5, 5)
            p = params(t0=t0, gbar=gbar, g0=g0, dt=dt * (rng.random() < 0.5),
                       dg=dg * (rng.random() < 0.5), boundary=PBC, L=50)
            n_k = int(rng.choice([64, 256, 301]))
            assert enclosed_area(p, n_k) == per_k_area(p, n_k)
