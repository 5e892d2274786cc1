import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nhcreutz
import nhcreutz.spectral as spectral
import nhcreutz.sweep as sweep
from nhcreutz import (
    OBC,
    PBC,
    GridSpec,
    IllConditioned,
    ImbalancedParameters,
    ModelParams,
    WrongClass,
    build_realspace,
    classify_point,
    dipr_map,
    dp_spectrum_check,
    eig,
    is_defective,
    jordan_structure,
    nilpotency_order,
    obc_eig_via_chains,
)
from nhcreutz.cli import main
from nhcreutz.degeneracy import (DFB_PBC, GENERIC, _defective_from,
                                 closed_form_blocks, locus_labels,
                                 obc_tol_abs, resolve_structure)
from nhcreutz.model import _chain_pair, derive, dressed
from nhcreutz.spectral import _tridiag_spectrum_from_squares


def params(tbar=1.0, t0=0.8, gbar=0.4, g0=0.5, L=8, **kw):
    return ModelParams.from_bars(tbar=tbar, t0=t0, gbar=gbar, g0=g0, L=L,
                                 **kw)


def jordan_block(lam, n):
    return lam * np.eye(n) + np.diag(np.ones(n - 1), 1)


def union_find_clusters(eigs, radius):
    """Reference partition: union-find over all pairs within radius."""
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def defective_reference(eigs, vecs, tol):
    """The defectiveness verdict with one SVD per union-find cluster."""
    radius = 1e-6 * float(np.abs(eigs).max())
    total = 0
    for idx in union_find_clusters(eigs, radius):
        s = np.linalg.svd(vecs[:, idx], compute_uv=False)
        total += int(np.sum(s > tol * s[0])) if s[0] > 0.0 else 0
    return total < vecs.shape[0]


def planted_spectrum(rng, n=60):
    """Random spectrum with planted clusters: tight groups, and strings
    whose ends are farther apart than the radius but linked through
    their inner points."""
    eigs = rng.normal(size=n) + 1j * rng.normal(size=n)
    radius = 1e-6 * np.abs(eigs).max()
    for start in range(0, n - 12, 12):
        k = rng.integers(2, 6)
        eigs[start:start + k] = eigs[start] + radius * 0.3 * (
            rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
        step = 0.9 * radius * np.exp(1j * rng.uniform(0, 2 * np.pi))
        eigs[start + 6:start + 10] = eigs[start + 6] + step * np.arange(4)
    return eigs


class TestClassifyPoint:
    def test_generic(self):
        rep = classify_point(params(t0=0.3, gbar=0.2, g0=0.1))
        assert rep.label == "Generic"
        assert rep.lam is None

    def test_exceptional_lines(self):
        # g = f: u = 0
        rep = classify_point(params(t0=0.3, gbar=0.8, g0=0.5))
        assert rep.label == "ELu"
        assert rep.lam == pytest.approx(np.sqrt(0.4))
        # gp = -fp: v = 0 (mirror line)
        rep = classify_point(params(t0=0.3, gbar=-0.8, g0=-0.5))
        assert rep.label in ("ELu", "ELv")

    def test_elv(self):
        # gp = fp: tbar - t0 = gbar - g0
        rep = classify_point(params(t0=0.4, gbar=0.7, g0=0.1))
        assert rep.label == "ELv"
        assert rep.lam == pytest.approx(np.sqrt((1.4) ** 2 - 0.8 ** 2))

    def test_triple_point(self):
        rep = classify_point(params(t0=0.5, gbar=1.0, g0=0.5))
        assert rep.label == "TriplePoint"
        assert rep.lam == 0

    def test_diabolical_flat_band(self):
        rep = classify_point(params(t0=1.0, gbar=0.5, g0=0.5))
        assert rep.label == "DiabolicalFlatBand"
        assert rep.lam == pytest.approx(np.sqrt(3.0))

    def test_efb_line(self):
        rep = classify_point(params(tbar=1.0, t0=0.7, gbar=0.7, g0=1.0))
        assert rep.label == "EFBLine"
        assert rep.lam == 0

    def test_efb_beats_triple(self):
        # tbar = g0 and t0 = gbar with u = v = 0 as well: EFB wins
        rep = classify_point(params(t0=0.0, gbar=0.0, g0=1.0))
        assert rep.label in ("EFBLine", "EFBIntersection")

    def test_fine_tuned_eta_unit_is_dp(self):
        # eta = +-1 on gbar = t0 g0 / tbar forces a whole factor pair to
        # zero, so the DiabolicalFlatBand label shadows DFB_PBC there
        rep = classify_point(params(t0=1.0, gbar=0.2, g0=0.2))
        assert rep.label == "DiabolicalFlatBand"
        assert rep.lam == pytest.approx(2.0 * np.sqrt(1.0 - 0.04))
        rep = classify_point(params(t0=-1.0, gbar=-0.2, g0=0.2))
        assert rep.label == "DiabolicalFlatBand"

    def test_imbalance_rejected(self):
        with pytest.raises(ImbalancedParameters):
            classify_point(params(dt=0.1))


def near_loci(rng, tbar):
    """(t0, gbar, g0) points on each locus line of classify_point at leg
    mean tbar, then moved off it by 1-3 ulp and by 0.5, 0.99, 1.01 and 2
    times the 1e-12 relative tolerance, in t0, gbar or g0."""
    base = []
    for _ in range(3):
        t0, gbar, g0 = rng.uniform(-1.5, 1.5, 3)
        for s in (1.0, -1.0):
            base += [(t0, s * (tbar + t0) - g0, g0),  # ELu: g = s f
                     (t0, s * (tbar - t0) + g0, g0),  # ELv: gp = s fp
                     (s * g0, s * tbar, g0),  # triple point
                     (s * tbar, s * g0, g0),  # diabolical flat band
                     (s * gbar, gbar, s * tbar),  # EFB line
                     (s * tbar, tbar, s * tbar),  # EFB intersection
                     (s * tbar, gbar, g0)]  # eta = +-1
    out = []
    for point in base:
        scale = max(abs(tbar), *map(abs, point))
        out.append(point)
        for axis in range(3):
            for step in (-3, -1, 1, 3):
                moved = list(point)
                for _ in range(abs(step)):
                    moved[axis] = np.nextafter(moved[axis], step * np.inf)
                out.append(tuple(moved))
            for factor in (-2.0, -1.01, -0.99, -0.5, 0.5, 0.99, 1.01, 2.0):
                moved = list(point)
                moved[axis] += factor * 1e-12 * scale
                out.append(tuple(moved))
    return [tuple(map(float, p)) for p in out]


def loop_obc_tol_abs(label, u2, v2, eigs):
    """The OBC tolerance rule node by node, as it was written per node."""
    if label in (GENERIC, DFB_PBC) and u2 * v2 > 0.0:
        return 0.0
    return 1e-9 * float(np.abs(eigs).max())


class TestLocusLabels:
    @staticmethod
    def check(tbar, t0, gbar, g0, L=8):
        """locus_labels and obc_tol_abs on arrays against classify_point
        and the per-node tolerance rule at every (t0, gbar, g0) node;
        returns the labels."""
        labels = locus_labels(tbar, t0, gbar, g0)
        _, _, _, _, u2, v2 = dressed(tbar, t0, gbar, g0)
        t0, gbar, g0, u2, v2 = np.broadcast_arrays(t0, gbar, g0, u2, v2)
        assert labels.shape == t0.shape
        sq = _chain_pair(v2, u2, L - 1)
        eigs = _tridiag_spectrum_from_squares(sq).reshape(t0.shape + (-1,))
        tol = obc_tol_abs(labels, u2, v2, eigs)
        for node in np.ndindex(t0.shape):
            p = params(tbar=tbar, t0=t0[node], gbar=gbar[node],
                       g0=g0[node], L=L)
            label = classify_point(p).label
            assert labels[node] == label, (tbar, p)
            d = derive(p)
            want = loop_obc_tol_abs(label, d.u2, d.v2, eigs[node])
            assert tol[node] == want
            assert obc_tol_abs(label, d.u2, d.v2, eigs[node]) == want
        return labels

    def test_random_grids(self):
        rng = np.random.default_rng(3)
        for tbar in (1.0, 0.7, -1.3):
            self.check(tbar, rng.uniform(-2.0, 2.0, 9),
                       rng.uniform(-2.0, 2.0, (6, 1)), rng.uniform(-1.5, 1.5))

    @pytest.mark.parametrize("g0", [0.0, 1.0, -1.0])
    def test_snapped_grids(self, g0):
        # snapping puts nodes on every locus line in range, so the labels
        # come in many kinds; tbar = 1 and g0 = +-tbar is an EFB line
        t0, gbar = sweep.grid_axes(GridSpec(
            t0_range=(-1.5, 1.5, 31), gbar_range=(-1.5, 1.5, 31), g0=g0,
            snap_special=True))
        labels = self.check(1.0, t0, gbar[:, None], g0)
        assert len(set(labels.ravel())) >= 4

    @pytest.mark.parametrize("tbar", [1.0, 0.6, 0.0])
    def test_points_either_side_of_each_locus(self, tbar):
        t0, gbar, g0 = np.array(near_loci(np.random.default_rng(5),
                                          tbar)).T
        labels = set(self.check(tbar, t0, gbar, g0).tolist())
        # every locus and the generic bulk are met, so the tolerance
        # edge is crossed both ways
        want = {"Generic", "ELu", "ELv", "TriplePoint",
                "DiabolicalFlatBand", "EFBLine", "EFBIntersection"}
        assert want <= labels
        if tbar == 0.0:  # t0 = tbar = 0: H anti-Hermitian
            assert DFB_PBC in labels


class TestJordanStructure:
    def test_synthetic_blocks(self):
        A = np.zeros((5, 5), dtype=complex)
        A[:2, :2] = jordan_block(0.0, 2)
        A[2:, 2:] = jordan_block(1.5, 3)
        assert jordan_structure(A, 0.0) == (2,)
        assert jordan_structure(A, 1.5) == (3,)
        assert jordan_structure(A, 2.5) == ()

    def test_diagonalizable(self):
        A = np.diag([2.0, 2.0, 3.0])
        assert jordan_structure(A, 2.0) == (1, 1)
        assert jordan_structure(A, 3.0) == (1,)

    def test_zero_matrix(self):
        assert jordan_structure(np.zeros((4, 4)), 0.0) == (1, 1, 1, 1)

    def test_mixed_sizes_same_eigenvalue(self):
        A = np.zeros((5, 5), dtype=complex)
        A[:3, :3] = jordan_block(0.7, 3)
        A[3:, 3:] = jordan_block(0.7, 2)
        assert jordan_structure(A, 0.7) == (2, 3)

    def test_rotation_invariance(self):
        # similarity by a random well-conditioned matrix keeps the structure
        rng = np.random.default_rng(2)
        A = np.zeros((6, 6), dtype=complex)
        A[:3, :3] = jordan_block(0.0, 3)
        A[3:5, 3:5] = jordan_block(0.0, 2)
        A[5, 5] = 2.0
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        B = Q @ A @ Q.T.conj()
        assert jordan_structure(B, 0.0) == (2, 3)

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            jordan_structure(np.eye(65), 1.0)

    def test_ladder_triple_point(self):
        H = build_realspace(params(t0=0.5, gbar=1.0, g0=0.5, L=8))
        assert jordan_structure(H, 0.0) == (8, 8)

    def test_ladder_exceptional_line(self):
        # u = 0 exactly: one 2-block at 0 and {3,4} at +-v
        p = params(t0=0.3, gbar=0.8, g0=0.5, L=8)
        H = build_realspace(p)
        lam = classify_point(p).lam
        assert jordan_structure(H, 0.0) == (2,)
        assert jordan_structure(H, lam) == (3, 4)
        assert jordan_structure(H, -lam) == (3, 4)

    def test_ladder_exceptional_line_exact_ranks(self, capsys):
        # exact arithmetic: the rank sequences of (H - lam)^k prove the
        # block structures that classify reports in closed form,
        # independently of any tolerance. Inputs: the ELu point above, an
        # ELu point with rational lam = +-2/5 at L = 16, a triple point,
        # an EFB-line point at L = 32, where sigma_L = 1.6e-15 lies below
        # the numerical certifier's rank cut, the EFB intersection and a
        # diabolical flat band at L = 4 and 8
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        R, QI = sympy.Rational, sympy.QQ_I
        lam = sympy.sqrt(R(2, 5))  # irrational: ranks over Q(sqrt(10))
        e0 = sympy.sqrt(3)  # the flat bands +-2 sqrt(tbar^2 - g0^2)
        cases = [
            ((R(3, 10), R(4, 5), R(1, 2), 8),
             [(sympy.S.Zero, [15, 14, 14], (2,)),
              (lam, [14, 12, 10, 9, 9], (3, 4)),
              (-lam, [14, 12, 10, 9, 9], (3, 4))]),
            # u = 0, v = 2/5: blocks (L/2 - 1, L/2) at +-v, (2,) at 0
            ((R(1, 2), R(9, 10), R(3, 5), 16),
             [(sympy.S.Zero, [31, 30, 30], (2,)),
              (R(2, 5), [30, 28, 26, 24, 22, 20, 18, 17, 17], (7, 8)),
              (R(-2, 5), [30, 28, 26, 24, 22, 20, 18, 17, 17], (7, 8))]),
            # u = v = 0: two blocks of size L at 0
            ((R(1, 2), R(1), R(1, 2), 8),
             [(sympy.S.Zero, [14, 12, 10, 8, 6, 4, 2, 0], (8, 8))]),
            # |t0| != tbar on the EFB line: H^2 = 0 and rank H = L
            ((R(-6, 5), R(-6, 5), R(1), 32),
             [(sympy.S.Zero, [32, 0], (2,) * 32)]),
            # EFB intersection: H^2 = 0 and rank H = L - 1
            ((R(1), R(1), R(1), 4), [(sympy.S.Zero, [3, 0], (1, 1, 2, 2, 2))]),
            ((R(1), R(1), R(1), 8),
             [(sympy.S.Zero, [7, 0], (1, 1) + (2,) * 7)]),
            # diabolical flat band: diagonalizable, L - 1 blocks of size 1
            # at each of +-2 sqrt(tbar^2 - g0^2) and (1, 1) at 0
            ((R(1), R(1, 2), R(1, 2), 4),
             [(e0, [5, 5], (1, 1, 1)), (-e0, [5, 5], (1, 1, 1)),
              (sympy.S.Zero, [6, 6], (1, 1))]),
            ((R(1), R(1, 2), R(1, 2), 8),
             [(e0, [9, 9], (1,) * 7), (-e0, [9, 9], (1,) * 7),
              (sympy.S.Zero, [14, 14], (1, 1))]),
        ]
        tbar = 1
        for (t0, gbar, g0, L), expected in cases:
            n = 2 * L
            i, c = QI(0, 1), QI.convert
            rows = [[QI.zero] * n for _ in range(n)]
            # entry layout of build_realspace, OBC, balanced legs
            for j in range(L - 1):
                a, b, ap, bp = 2 * j, 2 * j + 1, 2 * j + 2, 2 * j + 3
                rows[ap][a] += -i * c(tbar + gbar)
                rows[a][ap] += i * c(tbar - gbar)
                rows[bp][b] += i * c(tbar + gbar)
                rows[b][bp] += -i * c(tbar - gbar)
                rows[ap][b] += -c(t0 + g0)
                rows[bp][a] += -c(t0 + g0)
                rows[a][bp] += -c(t0 - g0)
                rows[b][ap] += -c(t0 - g0)
            point = [float(t0), float(gbar), float(g0)]
            H = build_realspace(params(t0=point[0], gbar=point[1],
                                       g0=point[2], L=L))
            H_num = np.array([[complex(e.x, e.y) for e in row]
                              for row in rows])
            assert np.max(np.abs(H_num - H)) <= 1e-15

            # the diagonal similarity a_j -> i^j a_j, b_j -> i^(j+1) b_j
            # makes every entry real
            d = [i ** (j // 2 + j % 2) for j in range(n)]
            gauged = [[rows[x][y] * d[y] / d[x] for y in range(n)]
                      for x in range(n)]
            assert all(e.y == 0 for row in gauged for e in row)
            K = sympy.QQ.algebraic_field(
                e0 if expected[0][0] == e0 else sympy.sqrt(10))
            G = DomainMatrix([[K.convert(e.x) for e in row]
                              for row in gauged], (n, n), K).to_sparse()

            def exact_ranks(lam, kmax):
                A = G - DomainMatrix.eye(n, K) * K.from_sympy(lam)
                ranks, P = [], A
                for _ in range(kmax):
                    ranks.append(P.rank())
                    P = P * A
                return ranks

            def blocks(ranks):
                # number of blocks of size >= k is r_{k-1} - r_k
                r = [n] + ranks
                at_least = [r[k - 1] - r[k] for k in range(1, len(r))] + [0]
                return tuple(sorted(
                    size for size in range(1, len(ranks) + 1)
                    for _ in range(at_least[size - 1] - at_least[size])))

            argv = ["classify", "--t0", repr(point[0]), "--gbar",
                    repr(point[1]), "--g0", repr(point[2]), "--L", str(L)]
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)["degeneracy"]
            assert report["defective"] is any(
                size >= 2 for _, _, sizes in expected for size in sizes)
            reported = {complex(b["eig_re"], b["eig_im"]): tuple(b["sizes"])
                        for b in report["blocks"]}
            assert len(reported) == len(expected)
            for ev, ranks, sizes in expected:
                assert exact_ranks(ev, len(ranks)) == ranks
                assert blocks(ranks) == sizes
                assert [sz for e, sz in reported.items()
                        if abs(e - float(ev)) <= 1e-9] == [sizes]

    def test_rank_drops_never_increase(self):
        # an ELu point at L = 32: the ranks of (H - lam)^k read 64, 62, 60,
        # 58, 56, 54, 33, i.e. 21 blocks of size 6 at each of +-lam (252
        # sites in 64 dimensions); the truth is blocks (15, 16)
        p = params(t0=-1.097, gbar=-0.792, g0=0.695, L=32)
        report = classify_point(p)
        assert report.label == "ELu"
        H = build_realspace(p)
        for lam in (report.lam, -report.lam):
            with pytest.raises(IllConditioned):
                jordan_structure(H, lam)
        assert closed_form_blocks(report, 32) == (
            (report.lam, (15, 16)), (-report.lam, (15, 16)), (0j, (2,)))
        # a triple point at L = 32: 30 blocks of size 18 at 0 (540 sites),
        # where the truth is (32, 32)
        p = params(t0=0.88, gbar=-1.0, g0=-0.88, L=32)
        report = classify_point(p)
        assert report.label == "TriplePoint"
        with pytest.raises(IllConditioned):
            jordan_structure(build_realspace(p), 0.0)
        assert closed_form_blocks(report, 32) == ((0j, (32, 32)),)

    def test_ladder_efb(self):
        H = build_realspace(params(t0=0.7, gbar=0.7, g0=1.0, L=8))
        assert jordan_structure(H, 0.0) == (2,) * 8

    def test_ladder_efb_intersection(self):
        # t0 = gbar = tbar = g0: one diabolical pair replaces one 2-block
        p = params(t0=1.0, gbar=1.0, g0=1.0, L=8)
        assert classify_point(p).label == "EFBIntersection"
        H = build_realspace(p)
        assert jordan_structure(H, 0.0) == (1, 1) + (2,) * 7
        assert nilpotency_order(H) == 2


class TestDefectiveness:
    def test_diagonalizable_ladder(self):
        assert not is_defective(build_realspace(params(L=10)))

    def test_exceptional_ladder(self):
        H = build_realspace(params(t0=0.3, gbar=0.8, g0=0.5, L=8))
        assert is_defective(H)

    def test_synthetic(self):
        assert is_defective(jordan_block(1.0, 3))
        assert not is_defective(np.diag([1.0, 2.0, 3.0]))

    def test_partition_matches_union_find(self, monkeypatch):
        # with unit vectors e_i, each SVD reveals the indices of its
        # cluster; singletons must take no SVD
        svd = np.linalg.svd
        seen = []

        def recording_svd(a, *args, **kwargs):
            seen.append(sorted(np.flatnonzero(np.abs(a).sum(axis=1))))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        rng = np.random.default_rng(31)
        spectra = [planted_spectrum(rng) for _ in range(20)]
        for p in (params(t0=0.7, gbar=0.7, g0=1.0, L=10),  # EFB line
                  params(t0=0.3, gbar=0.8, g0=0.5, L=8)):   # ELu
            spectra.append(eig(build_realspace(p)).eigenvalues)
        n_multi = 0
        for eigs in spectra:
            seen.clear()
            verdict = _defective_from(eigs, np.eye(len(eigs)), 1e-6)
            radius = 1e-6 * float(np.abs(eigs).max())
            ref = union_find_clusters(eigs, radius)
            assert sorted(seen) == sorted(c for c in ref if len(c) > 1)
            assert verdict is False
            n_multi += len(seen)
        assert n_multi >= 60

    def test_verdict_matches_reference_on_ladders(self):
        rng = np.random.default_rng(37)
        cases = [eig(build_realspace(p), want_vectors=True) for p in (
            params(t0=0.7, gbar=0.7, g0=1.0, L=10),   # EFB line
            params(t0=-1.2, gbar=-1.2, g0=1.0, L=8),  # EFB line
            params(t0=0.3, gbar=0.8, g0=0.5, L=8),    # ELu
            params(t0=0.5, gbar=1.0, g0=0.5, L=8),    # triple point
            params(L=10))]
        for _ in range(10):
            t0, gbar, g0 = rng.uniform(-2, 2, 3)
            p = params(t0=t0, gbar=gbar, g0=g0, L=50)
            cases.append(obc_eig_via_chains(p))
            cases.append(eig(build_realspace(p), want_vectors=True))
        verdicts = set()
        for res in cases:
            args = (res.eigenvalues, res.right_eigenvectors, 1e-6)
            assert _defective_from(*args) is defective_reference(*args)
            verdicts.add(_defective_from(*args))
        assert verdicts == {True, False}

    def test_non_finite_vector(self):
        eigs = np.array([1.0, 2.0, 3.0 + 0.5j], dtype=complex)
        vecs = np.eye(3, dtype=complex)
        vecs[1, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            _defective_from(eigs, vecs, 1e-6)
        vecs[1, 1] = np.inf  # LAPACK returns NaN here: rank 0, no raise
        assert _defective_from(eigs, vecs, 1e-6) is \
            defective_reference(eigs, vecs, 1e-6) is True

    def test_sweep_node_with_non_finite_vector(self, monkeypatch):
        # a mixed-sign Generic node, so the numerical test runs on the
        # balanced vectors Y; one is poisoned after the chain solve, on its
        # way into the condition test (the rows of Yt are the vectors)
        flags = sweep._defective_flags

        def poisoned(Yt):
            Yt = Yt.copy()
            Yt[..., 3, :] = np.nan
            return flags(Yt)

        monkeypatch.setattr(sweep, "_defective_flags", poisoned)
        s = GridSpec(t0_range=(0.49, 0.5, 2), gbar_range=(-0.32, -0.31, 2),
                     g0=0.6, L=10)
        assert [r.status for r in dipr_map(s)] == ["LinAlgError"] * 4

    def test_cli_import_leaves_out_scipy_sparse(self):
        code = ("import sys, nhcreutz.cli; print(any(m.startswith("
                "'scipy.sparse') for m in sys.modules))")
        src = os.path.dirname(os.path.dirname(nhcreutz.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.strip() == "False"


class TestResolveStructure:
    @pytest.mark.parametrize("boundary", [OBC, PBC])
    def test_dfb_pbc_solves_the_chains_once(self, monkeypatch, boundary):
        # the level count and the defective flag share one chain solve
        p = params(tbar=0.0, t0=0.0, gbar=1.2, g0=-0.4, L=2,
                   boundary=boundary)
        report = classify_point(p)
        assert report.label == DFB_PBC
        solves, bonds = [], spectral._chain_bonds
        monkeypatch.setattr(spectral, "_chain_bonds",
                            lambda q: solves.append(q) or bonds(q))
        resolved = resolve_structure(p, report)
        assert len(solves) == 1 and solves[0].boundary == OBC
        assert resolved.defective is False
        lam = report.lam
        assert resolved.jordan == ((lam, (1,)), (-lam, (1,)))


class TestNilpotency:
    def test_efb_order_two(self):
        H = build_realspace(params(t0=0.7, gbar=0.7, g0=1.0, L=20))
        assert nilpotency_order(H) == 2
        assert np.linalg.norm(H @ H, "fro") <= \
            1e-10 * np.linalg.norm(H, 2) ** 2

    def test_triple_point_order(self):
        H = build_realspace(params(t0=0.5, gbar=1.0, g0=0.5, L=8))
        assert nilpotency_order(H) == 8

    def test_hermitian_none(self):
        H = build_realspace(params(gbar=0.0, g0=0.0, L=8))
        assert nilpotency_order(H) is None

    def test_zero(self):
        assert nilpotency_order(np.zeros((3, 3))) == 1


class TestDpSpectrumCheck:
    def test_canonical_dp(self):
        assert dp_spectrum_check(params(t0=1.0, gbar=0.5, g0=0.5, L=20))

    def test_generic_point_false(self):
        assert not dp_spectrum_check(params(t0=0.3, gbar=0.2, g0=0.1))

    def test_wrong_class(self):
        # DFB label but imaginary flat levels: |g0| >= |tbar|
        with pytest.raises(WrongClass):
            dp_spectrum_check(params(tbar=0.5, t0=0.5, gbar=0.8, g0=0.8))

    def test_L_override(self):
        assert dp_spectrum_check(params(t0=1.0, gbar=0.5, g0=0.5, L=8),
                                 L=12)
