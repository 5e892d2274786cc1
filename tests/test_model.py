import math

import numpy as np
import pytest
from conftest import multiset_dist

from nhcreutz import (
    OBC,
    PBC,
    ImbalancedParameters,
    ModelParams,
    build_bloch,
    build_nhssh,
    build_realspace,
    derive,
    igt_matrix,
    nhssh_permutation,
    obc_eig_via_chains,
    obc_spectrum_via_chains,
    w_basis,
)
from nhcreutz.model import _chain_bonds


def params(tbar=1.0, t0=0.8, gbar=0.4, g0=0.5, dt=0.0, dg=0.0, L=6,
           boundary=OBC):
    return ModelParams.from_bars(tbar=tbar, t0=t0, gbar=gbar, g0=g0,
                                 dt=dt, dg=dg, L=L, boundary=boundary)


def loop_realspace(params):
    """Bond-by-bond reference for build_realspace."""
    L = params.L
    t0, t1, t2 = params.t0, params.t1, params.t2
    g0, g1, g2 = params.g0, params.g1, params.g2
    H = np.zeros((2 * L, 2 * L), dtype=complex)
    bonds = [(j, j + 1) for j in range(L - 1)]
    if params.boundary == PBC:
        bonds.append((L - 1, 0))
    for j, jp in bonds:
        a, b, ap, bp = 2 * j, 2 * j + 1, 2 * jp, 2 * jp + 1
        H[ap, a] += -1j * (t1 + g1)
        H[a, ap] += 1j * (t1 - g1)
        H[bp, b] += 1j * (t2 + g2)
        H[b, bp] += -1j * (t2 - g2)
        H[ap, b] += -(t0 + g0)
        H[bp, a] += -(t0 + g0)
        H[a, bp] += -(t0 - g0)
        H[b, ap] += -(t0 - g0)
    return H


def loop_w_basis(L):
    """Cell-by-cell reference for w_basis."""
    U = np.zeros((2 * L, 2 * L), dtype=complex)
    r = 1.0 / math.sqrt(2.0)
    for j in range(L):
        U[2 * j, 2 * j] = r
        U[2 * j, 2 * j + 1] = 1j * r
        U[2 * j + 1, 2 * j] = r
        U[2 * j + 1, 2 * j + 1] = -1j * r
    return U


def loop_nhssh(params):
    """Bond-by-bond reference for build_nhssh."""
    d = derive(params)
    L = params.L
    out = []
    for fa, ga, fb, gb in ((d.fp, d.gp, d.f, d.g), (d.f, d.g, d.fp, d.gp)):
        H = np.zeros((L, L), dtype=complex)
        for m in range(L - 1):
            fm, gm = (fa, ga) if m % 2 == 0 else (fb, gb)
            H[m, m + 1] = -1j * (fm + gm)
            H[m + 1, m] = -1j * (fm - gm)
        if params.boundary == PBC:
            # closing bond has the odd-position type (L even)
            H[L - 1, 0] += -1j * (fb + gb)
            H[0, L - 1] += -1j * (fb - gb)
        out.append(H)
    return out


def blockdiag(H1, H2):
    n = H1.shape[0]
    K = np.zeros((2 * n, 2 * n), dtype=complex)
    K[:n, :n] = H1
    K[n:, n:] = H2
    return K


class TestModelParams:
    def test_from_bars_roundtrip(self):
        p = params(tbar=1.2, t0=0.3, gbar=0.7, g0=0.1, dt=0.2, dg=-0.05)
        assert p.t1 == pytest.approx(1.4)
        assert p.t2 == pytest.approx(1.0)
        assert p.g1 == pytest.approx(0.65)
        assert p.g2 == pytest.approx(0.75)
        d = derive(p)
        assert d.tbar == pytest.approx(1.2)
        assert d.gbar == pytest.approx(0.7)
        assert d.dt == pytest.approx(0.2)
        assert d.dg == pytest.approx(-0.05)

    def test_balanced_flag_is_exact(self):
        assert params().balanced
        assert not params(dt=1e-10).balanced
        assert not params(dg=-1e-10).balanced

    def test_validation(self):
        with pytest.raises(ValueError):
            params(L=0)
        with pytest.raises(ValueError):
            ModelParams(t0=1, t1=1, t2=1, g0=0, g1=0, g2=0, L=4,
                        boundary="ring")
        with pytest.raises(ValueError):
            params(t0=float("nan"))

    def test_derived_factors(self):
        d = derive(params(tbar=1.0, t0=0.3, gbar=0.8, g0=0.5))
        assert d.g == pytest.approx(1.3)
        assert d.gp == pytest.approx(0.7)
        assert d.f == pytest.approx(1.3)
        assert d.fp == pytest.approx(0.3)
        # g = f makes the first root collapse
        assert abs(d.u) == pytest.approx(0.0, abs=1e-15)
        assert d.v == pytest.approx(math.sqrt(0.49 - 0.09))

    def test_imaginary_root_branch(self):
        d = derive(params(tbar=0.2, t0=0.1, gbar=1.0, g0=0.5))
        # g^2 - f^2 < 0: principal branch gives +i * positive
        assert d.u.real == pytest.approx(0.0, abs=1e-15)
        assert d.u.imag > 0

    def test_eta(self):
        assert derive(params(t0=0.8)).eta == pytest.approx(0.8)
        assert math.isnan(derive(params(tbar=0.0, t0=0.5)).eta)


class TestRealspace:
    def test_shape_and_intercell_only(self):
        p = params(L=5)
        H = build_realspace(p)
        assert H.shape == (10, 10)
        # no intra-cell coupling and no diagonal
        for j in range(5):
            assert H[2 * j, 2 * j + 1] == 0
            assert H[2 * j + 1, 2 * j] == 0
            assert H[2 * j, 2 * j] == 0
        # nothing couples beyond the neighboring cell
        for j in range(5):
            for m in range(5):
                if abs(j - m) > 1:
                    assert np.all(H[2 * j:2 * j + 2, 2 * m:2 * m + 2] == 0)

    def test_bond_entries(self):
        p = ModelParams(t0=0.3, t1=0.7, t2=0.2, g0=0.1, g1=0.4, g2=0.6,
                        L=3, boundary=OBC)
        H = build_realspace(p)
        a, b, ap, bp = 0, 1, 2, 3  # cell 1 and cell 2 sites
        assert H[ap, a] == pytest.approx(-1j * (0.7 + 0.4))
        assert H[a, ap] == pytest.approx(1j * (0.7 - 0.4))
        assert H[bp, b] == pytest.approx(1j * (0.2 + 0.6))
        assert H[b, bp] == pytest.approx(-1j * (0.2 - 0.6))
        assert H[ap, b] == pytest.approx(-(0.3 + 0.1))
        assert H[bp, a] == pytest.approx(-(0.3 + 0.1))
        assert H[a, bp] == pytest.approx(-(0.3 - 0.1))
        assert H[b, ap] == pytest.approx(-(0.3 - 0.1))

    def test_hermitian_when_gains_vanish(self):
        for bc in (OBC, PBC):
            H = build_realspace(params(gbar=0.0, g0=0.0, dt=0.3, L=7,
                                       boundary=bc))
            assert np.abs(H - H.conj().T).max() < 1e-15

    def test_pbc_wrap_and_l2_accumulation(self):
        p = params(L=4, boundary=PBC)
        H = build_realspace(p)
        Ho = build_realspace(params(L=4, boundary=OBC))
        wrap = H - Ho
        assert np.abs(wrap[:2 * 3, :2 * 3]).max() == 0  # bulk untouched
        assert np.abs(wrap).max() > 0
        # L=2: the wrap bond runs antiparallel to the bulk bond, so the
        # a-leg hoppings -i(t1+g1) and +i(t1-g1) add up to -2i*g1
        p2 = params(L=2, boundary=PBC)
        H2 = build_realspace(p2)
        assert H2[2, 0] == pytest.approx(-2j * p2.g1)
        assert H2[0, 2] == pytest.approx(-2j * p2.g1)

    def test_pbc_translation_invariance(self):
        p = params(L=6, boundary=PBC, dt=0.1, dg=0.05)
        H = build_realspace(p)
        # shift by one cell: site index +2 mod 2L
        n = 2 * p.L
        T = np.zeros((n, n))
        for i in range(n):
            T[(i + 2) % n, i] = 1.0
        assert np.abs(T @ H @ T.T - H).max() < 1e-15


    def test_byte_identical_to_loop(self):
        # signed zeros included: t0 = g0 makes -(t0 - g0) a -0.0 entry
        rng = np.random.default_rng(3)
        cases = [ModelParams(t0=0.5, t1=0.7, t2=0.2, g0=0.5, g1=0.0,
                             g2=-0.6, L=L, boundary=bc)
                 for L in (2, 3, 4) for bc in (OBC, PBC)]
        for L in (2, 3, 8, 50):
            for bc in (OBC, PBC):
                cases.append(ModelParams(*rng.uniform(-2, 2, 6), L=L,
                                         boundary=bc))
        for p in cases:
            H, ref = build_realspace(p), loop_realspace(p)
            assert H.dtype == ref.dtype and H.shape == ref.shape
            assert H.tobytes() == ref.tobytes()


class TestBloch:
    def test_pbc_spectrum_matches_bloch(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            vals = rng.uniform(-1.5, 1.5, size=6)
            p = params(*vals[:4], dt=vals[4], dg=vals[5], L=8, boundary=PBC)
            H = build_realspace(p)
            num = np.linalg.eigvals(H)
            ks = 2.0 * np.pi * np.arange(p.L) / p.L
            blh = np.concatenate(
                [np.linalg.eigvals(build_bloch(p, k)) for k in ks])
            assert multiset_dist(blh, num) < 1e-12

    def test_bloch_shape_and_k_periodicity(self):
        p = params()
        h0 = build_bloch(p, 0.4)
        h1 = build_bloch(p, 0.4 + 2.0 * np.pi)
        assert h0.shape == (2, 2)
        assert np.abs(h0 - h1).max() < 1e-12


class TestChainDecomposition:
    def test_w_basis_unitary(self):
        U = w_basis(5)
        assert np.abs(U @ U.conj().T - np.eye(10)).max() < 1e-15

    def test_w_basis_byte_identical_to_loop(self):
        for L in (1, 2, 5, 50):
            assert w_basis(L).tobytes() == loop_w_basis(L).tobytes()

    def test_block_diagonalization(self):
        for L, bc in [(6, OBC), (6, PBC), (10, OBC), (2, PBC)]:
            p = params(L=L, boundary=bc)
            U = w_basis(L)
            perm = nhssh_permutation(p)
            Hw = U @ build_realspace(p) @ U.conj().T
            B = Hw[np.ix_(perm, perm)]
            K = blockdiag(*build_nhssh(p))
            assert np.abs(B - K).max() < 1e-12

    def test_nhssh_byte_identical_to_loop(self):
        # (t0, gbar, g0) with (u^2, v^2) signs (+, +), (+, -), (-, +),
        # (-, -), and one on the ELu line (u^2 = 0, a zero bond entry)
        points = [(0.3, 0.2, 0.1), (0.8, 0.4, -0.5), (-0.8, 0.4, 0.5),
                  (0.0, 2.0, 0.0), (0.3, 0.8, 0.5)]
        signs = set()
        for t0, gbar, g0 in points:
            for L in (2, 4, 10):
                for bc in (OBC, PBC):
                    p = params(t0=t0, gbar=gbar, g0=g0, L=L, boundary=bc)
                    d = derive(p)
                    signs.add((np.sign(d.u2), np.sign(d.v2)))
                    chains, refs = build_nhssh(p), loop_nhssh(p)
                    assert len(chains) == len(refs) == 2
                    for H, ref in zip(chains, refs):
                        assert H.tobytes() == ref.tobytes()
        assert {(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 1)} <= signs

    def test_chain_bonds_byte_identical_to_resize(self):
        # the former construction: np.resize of each (chain-one, chain-two)
        # pair of Python scalars to length L
        def resize_bonds(p):
            d = derive(p)
            primed = (-1j * (d.fp + d.gp), -1j * (d.fp - d.gp), d.v2)
            plain = (-1j * (d.f + d.g), -1j * (d.f - d.g), d.u2)
            return tuple(tuple(np.resize(pair, p.L) for pair in zip(a, b))
                         for a, b in ((primed, plain), (plain, primed)))

        # the sign cases of test_nhssh_byte_identical_to_loop, plus ELu
        points = [(0.3, 0.2, 0.1), (0.8, 0.4, -0.5), (-0.8, 0.4, 0.5),
                  (0.0, 2.0, 0.0), (0.3, 0.8, 0.5)]
        for t0, gbar, g0 in points:
            for L in range(2, 81, 2):
                p = params(t0=t0, gbar=gbar, g0=g0, L=L)
                for chain, ref in zip(_chain_bonds(p), resize_bonds(p)):
                    for bond, old in zip(chain, ref):
                        assert bond.dtype == old.dtype
                        assert bond.tobytes() == old.tobytes()

    def test_permutation_is_a_permutation(self):
        perm = nhssh_permutation(params(L=8))
        assert sorted(perm) == list(range(16))

    def test_imbalance_rejected(self):
        with pytest.raises(ImbalancedParameters):
            build_nhssh(params(dt=0.1))
        with pytest.raises(ImbalancedParameters):
            nhssh_permutation(params(dg=0.1))

    def test_odd_L_rejected(self):
        with pytest.raises(ValueError):
            build_nhssh(params(L=5))

    @pytest.mark.parametrize("split", [
        build_nhssh, nhssh_permutation, igt_matrix,
        pytest.param(lambda p: igt_matrix(p, chain=2), id="igt_matrix_2"),
        obc_spectrum_via_chains, obc_eig_via_chains])
    def test_one_chain_check(self, split):
        # every entry point into the chain split runs the same checks:
        # the balanced legs first, then even L, with one message
        with pytest.raises(ImbalancedParameters):
            split(params(dt=0.1, L=5))
        with pytest.raises(ValueError,
                           match="^chain decomposition needs even L$"):
            split(params(L=5))

    def test_chain_entries(self):
        p = params(tbar=1.0, t0=0.3, gbar=0.2, g0=0.1, L=4)
        d = derive(p)
        H1, H2 = build_nhssh(p)
        assert H1[0, 1] == pytest.approx(-1j * (d.fp + d.gp))
        assert H1[1, 0] == pytest.approx(-1j * (d.fp - d.gp))
        assert H1[1, 2] == pytest.approx(-1j * (d.f + d.g))
        assert H2[0, 1] == pytest.approx(-1j * (d.f + d.g))
        assert H2[1, 2] == pytest.approx(-1j * (d.fp + d.gp))

    def test_pbc_corner(self):
        p = params(L=4, boundary=PBC)
        d = derive(p)
        H1, H2 = build_nhssh(p)
        assert H1[3, 0] == pytest.approx(-1j * (d.f + d.g))
        assert H1[0, 3] == pytest.approx(-1j * (d.f - d.g))
        assert H2[3, 0] == pytest.approx(-1j * (d.fp + d.gp))
