import numpy as np
import pytest

from nhcreutz import (
    DimensionMismatch,
    MissingEigenvectors,
    ModelParams,
    ZeroState,
    build_realspace,
    dipr,
    eig,
    mean_dipr,
)


def reference_dipr(psi, L):
    """lipr - ripr of one state, each half summed on its own."""
    p2 = np.abs(psi) ** 2
    p4 = (p2 / float(p2.sum())) ** 2
    return float(p4[:L].sum()) - float(p4[L:].sum())


def params(tbar=1.0, t0=0.8, gbar=0.4, g0=0.5, L=10, **kw):
    return ModelParams.from_bars(tbar=tbar, t0=t0, gbar=gbar, g0=g0, L=L,
                                 **kw)


class TestDipr:
    def test_uniform_state(self):
        L = 10
        psi = np.ones(2 * L, dtype=complex)
        r = dipr(psi, L)
        assert r.lipr == pytest.approx(1.0 / (4 * L))
        assert r.ripr == pytest.approx(1.0 / (4 * L))
        assert r.dipr == pytest.approx(0.0, abs=1e-15)

    def test_edge_states(self):
        L = 10
        left = np.zeros(2 * L)
        left[0] = 1.0
        r = dipr(left, L)
        assert (r.lipr, r.ripr, r.dipr) == (1.0, 0.0, 1.0)
        right = np.zeros(2 * L)
        right[-1] = 1.0
        assert dipr(right, L).dipr == -1.0

    def test_unpacks_as_tuple(self):
        lipr, ripr, d = dipr(np.ones(8), 4)
        assert d == pytest.approx(lipr - ripr)

    def test_normalization_invariance(self):
        rng = np.random.default_rng(0)
        psi = rng.normal(size=12) + 1j * rng.normal(size=12)
        a = dipr(psi, 6)
        b = dipr(3.7j * psi, 6)
        assert a.dipr == pytest.approx(b.dipr)

    def test_mirror_antisymmetry(self):
        rng = np.random.default_rng(1)
        L = 8
        psi = rng.normal(size=2 * L) + 1j * rng.normal(size=2 * L)
        mirrored = np.empty_like(psi)
        for j in range(L):
            mirrored[2 * (L - 1 - j)] = psi[2 * j]
            mirrored[2 * (L - 1 - j) + 1] = psi[2 * j + 1]
        assert dipr(mirrored, L).dipr == pytest.approx(-dipr(psi, L).dipr)

    def test_errors(self):
        with pytest.raises(ValueError):
            dipr(np.ones(10), 5)  # odd L
        with pytest.raises(DimensionMismatch):
            dipr(np.ones(10), 6)
        with pytest.raises(ZeroState):
            dipr(np.zeros(12), 6)


class TestMeanDipr:
    def test_requires_vectors(self):
        res = eig(build_realspace(params()), want_vectors=False)
        with pytest.raises(MissingEigenvectors):
            mean_dipr(res, 10)

    def test_hermitian_balanced(self):
        # reciprocal ladder: eigenstates carry no preferred side
        res = eig(build_realspace(params(gbar=0.0, g0=0.0, L=12)),
                  want_vectors=True)
        assert abs(mean_dipr(res, 12)) < 1e-10

    def test_skin_accumulation(self):
        # non-reciprocal legs only: xi_inv = log 3, strong left pile-up
        res = eig(build_realspace(params(t0=0.0, gbar=0.5, g0=0.0, L=30)),
                  want_vectors=True)
        assert mean_dipr(res, 30) < -0.4

    def test_sign_flips_with_gain_reversal(self):
        p = params(t0=1.2, gbar=0.3, g0=0.2, L=20)
        q = params(t0=1.2, gbar=-0.3, g0=-0.2, L=20)
        mp = mean_dipr(eig(build_realspace(p), want_vectors=True), 20)
        mq = mean_dipr(eig(build_realspace(q), want_vectors=True), 20)
        assert abs(mp + mq) < 1e-6

    def test_equals_per_vector_loop(self):
        for t0, gbar, g0 in ((0.8, 0.4, 0.5), (-0.3, 1.2, 0.7),
                             (1.1, -0.6, 0.2)):
            res = eig(build_realspace(params(t0=t0, gbar=gbar, g0=g0, L=20)),
                      want_vectors=True)
            vecs = res.right_eigenvectors
            per_vector = [dipr(vecs[:, n], 20).dipr
                          for n in range(vecs.shape[1])]
            assert mean_dipr(res, 20) == float(np.mean(per_vector))
            assert mean_dipr(res, 20) == float(np.mean(
                [reference_dipr(vecs[:, n], 20)
                 for n in range(vecs.shape[1])]))
