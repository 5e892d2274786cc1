import cmath

import numpy as np
import pytest
from conftest import multiset_dist

from nhcreutz import (
    CHAIN_ONE,
    CHAIN_TWO,
    DIPR_SIGN_OF_XI_INV,
    OBC,
    ImbalancedParameters,
    ModelParams,
    Overflow,
    SingularGauge,
    build_nhssh,
    build_realspace,
    derive,
    dipr,
    eig,
    gauge_report,
    hermitianize,
    igt_matrix,
    mean_dipr,
)


def params(tbar=1.0, t0=0.8, gbar=0.4, g0=0.5, L=10, boundary=OBC):
    return ModelParams.from_bars(tbar=tbar, t0=t0, gbar=gbar, g0=g0,
                                 L=L, boundary=boundary)


def loop_igt_diagonal(params, chain):
    """Cell-by-cell reference for the igt_matrix diagonal."""
    d = derive(params)
    fa, ga, fb, gb = (d.fp, d.gp, d.f, d.g) if chain == CHAIN_ONE \
        else (d.f, d.g, d.fp, d.gp)
    r_l = cmath.sqrt(complex(fa + ga) / complex(fa - ga))
    r_j = cmath.sqrt(complex(fb + gb) / complex(fb - gb))
    diag = np.empty(params.L, dtype=complex)
    j = 1.0 + 0.0j
    for n in range(params.L // 2):
        diag[2 * n] = j
        l = r_l * j
        diag[2 * n + 1] = l
        j = r_j * l
    return diag


class TestSimilarity:
    def test_hermitianizes_both_chains(self):
        # real-region skin point: u2 > 0, v2 > 0, off both BBC curves.
        # only there can a diagonal similarity produce a Hermitian matrix
        # (each off-diagonal pair product must be >= 0)
        p = params(t0=1.2, gbar=0.3, g0=0.2)
        H1, H2 = build_nhssh(p)
        for chain, H in ((CHAIN_ONE, H1), (CHAIN_TWO, H2)):
            S = igt_matrix(p, chain=chain)
            Ht = hermitianize(H, S)
            assert np.abs(Ht - Ht.conj().T).max() < 1e-12

    def test_spectrum_preserved(self):
        p = params(t0=1.2, gbar=0.3, g0=0.2)
        H1, _ = build_nhssh(p)
        S = igt_matrix(p, chain=CHAIN_ONE)
        Ht = hermitianize(H1, S)
        assert multiset_dist(np.linalg.eigvalsh(Ht),
                             np.linalg.eigvals(H1)) < 1e-8

    def test_singular_on_exceptional_line(self):
        # g = f: one linear factor vanishes, the similarity blows up
        with pytest.raises(SingularGauge):
            igt_matrix(params(t0=0.3, gbar=0.8, g0=0.5))

    def test_imbalance_rejected(self):
        p = ModelParams.from_bars(tbar=1.0, t0=0.5, gbar=0.2, g0=0.1,
                                  dt=0.1, L=10)
        with pytest.raises(ImbalancedParameters):
            igt_matrix(p)

    def test_equals_loop(self):
        # the running product multiplies prev * r where the loop multiplied
        # r * prev, so only the sign of a zero part may differ
        for t0, gbar, g0 in [(0.3, 0.2, 0.1), (0.8, 0.4, -0.5),
                             (-0.8, 0.4, 0.5), (0.0, 2.0, 0.0)]:
            for L in (2, 10, 40):
                p = params(t0=t0, gbar=gbar, g0=g0, L=L)
                for chain in (CHAIN_ONE, CHAIN_TWO):
                    assert np.array_equal(igt_matrix(p, chain).diagonal,
                                          loop_igt_diagonal(p, chain))

    def test_overflow_raised(self):
        # the envelope leaves float range long before L = 1000 here; the
        # diagonal would hold inf and nan entries
        p = params(t0=0.3, gbar=0.7, g0=0.5, L=1000)
        for chain in (CHAIN_ONE, CHAIN_TWO):
            with pytest.raises(Overflow):
                igt_matrix(p, chain=chain)


class TestGaugeReport:
    def test_bbc_line_point(self):
        # gbar = t0 g0 / tbar holds exactly in floats here
        rep = gauge_report(params(t0=0.8, gbar=0.4, g0=0.5))
        assert rep.bbc_line
        assert not rep.bbc_hyperbola
        assert rep.growth_factor == pytest.approx(1.0)
        assert rep.xi_inv == pytest.approx(0.0)
        assert not rep.near_exceptional

    def test_hyperbola_point(self):
        # t0^2 + g0^2 = tbar^2 + gbar^2 away from the line:
        # 0.36 + 0.81 = 1.0 + 0.17
        rep = gauge_report(params(t0=0.6, gbar=float(np.sqrt(0.17)),
                                  g0=0.9))
        assert rep.bbc_hyperbola
        assert not rep.bbc_line
        assert abs(abs(rep.growth_factor) - 1.0) < 1e-12
        assert abs(rep.xi_inv) < 1e-12

    def test_skin_point_growth(self):
        rep = gauge_report(params(t0=0.5, gbar=0.8, g0=0.1))
        assert abs(rep.growth_factor) != pytest.approx(1.0)
        assert rep.xi_inv != 0.0
        assert not rep.bbc_line and not rep.bbc_hyperbola

    def test_near_exceptional_flag(self):
        # exact exceptional line: g = f = 1.3, u = 0
        rep = gauge_report(params(t0=0.3, gbar=0.8, g0=0.5))
        assert rep.near_exceptional
        assert rep.xi_inv == np.inf

    @pytest.mark.parametrize("t0, gbar, g0, line, hyperbola", [
        (1e160, 0.3, 0.1, False, False),
        (0.3, 0.3, 1e155, False, False),
        # t0 g0 = tbar gbar = 5e199
        (1e200, 5e199, 0.5, True, False),
        # t0^2 + g0^2 = tbar^2 + gbar^2 = 1e600 to 1e-9
        (1e300, 1e300, 0.1, False, True),
    ])
    def test_flags_where_squares_overflow(self, t0, gbar, g0, line,
                                          hyperbola):
        # a square of these parameters is past the float range, where
        # gauge_report raised OverflowError
        rep = gauge_report(params(t0=t0, gbar=gbar, g0=g0, L=4))
        assert (rep.bbc_line, rep.bbc_hyperbola) == (line, hyperbola)

    def test_to_dict_keys(self):
        d = gauge_report(params()).to_dict()
        assert set(d) == {"growth_factor_re", "growth_factor_im", "xi_inv",
                          "bbc_line", "bbc_hyperbola", "near_exceptional"}


class TestSkinCalibration:
    def test_dipr_sign_matches_xi_inv(self):
        # the sign convention constant ties localization side to xi_inv
        for t0, gbar, g0 in [(0.5, 0.8, 0.1), (0.5, -0.8, -0.1),
                             (1.2, 0.9, 0.3), (1.2, -0.9, -0.3)]:
            p = params(t0=t0, gbar=gbar, g0=g0, L=30)
            rep = gauge_report(p)
            if rep.xi_inv == 0.0:
                continue
            res = eig(build_realspace(p), want_vectors=True)
            md = mean_dipr(res, p.L)
            assert np.sign(md) == DIPR_SIGN_OF_XI_INV * np.sign(rep.xi_inv)

    def test_gauge_profile_matches_localization_length(self):
        # eigenvector envelope of the hermitianized chain is flat, so the
        # raw chain envelope decays like the similarity diagonal
        p = params(t0=0.5, gbar=0.8, g0=0.1, L=40)
        rep = gauge_report(p)
        S = igt_matrix(p, chain=CHAIN_ONE)
        d = np.abs(S.diagonal)
        slope = np.polyfit(np.arange(p.L), np.log(d), 1)[0]
        # |diagonal| ~ e^{+xi_inv j} up to the alternating sublattice factor
        pair_slope = np.polyfit(np.arange(p.L // 2),
                                np.log(d[::2] * d[1::2]) / 2.0, 1)[0]
        assert pair_slope == pytest.approx(rep.xi_inv, rel=1e-6)
