from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import nhcreutz.sweep as sweep
from nhcreutz.degeneracy import (DFB_PBC, GENERIC, _defective_from,
                                 obc_tol_abs, resolve_structure)
from nhcreutz.model import _chain_bonds
from nhcreutz.spectral import (_chain_eigenpairs, _chain_intensities,
                               _tridiag_residual)
from nhcreutz import (
    OBC,
    PBC,
    ConvergenceFailure,
    GridRow,
    GridSpec,
    ModelParams,
    Overflow,
    build_realspace,
    classify,
    classify_point,
    derive,
    dipr_map,
    eig,
    grid_axes,
    initial_state,
    is_defective,
    mean_dipr,
    mipr_map,
    obc_eig_via_chains,
    obc_spectrum_via_chains,
    phase_diagram,
    propagate,
    spectrum_overlay,
)


def spec(lo=-1.0, hi=1.0, n=5, g0=0.5, **kw):
    return GridSpec(t0_range=(lo, hi, n), gbar_range=(lo, hi, n), g0=g0,
                    **kw)


def concurrent_runs(fn, n):
    """The results of n calls of fn made at once from n threads; the maps
    keep no shared state, so each must equal a call made alone."""
    with ThreadPoolExecutor(max_workers=n) as pool:
        return [f.result() for f in [pool.submit(fn) for _ in range(n)]]


def per_node_mipr(s, t_max, n_steps):
    """Reference rows for mipr_map from one ladder
    propagate(..., method="expm") call per node."""
    rows = []
    t0v, gv = grid_axes(s)
    for gbar in gv:
        for t0 in t0v:
            p = ModelParams.from_bars(tbar=s.tbar, t0=t0, gbar=gbar,
                                      g0=s.g0, L=s.L, boundary=s.boundary)
            try:
                tr = propagate(build_realspace(p), initial_state(s.L),
                               t_max, n_steps, method="expm")
                label = classify_point(p).label
            except Exception as exc:
                rows.append(GridRow(t0=t0, gbar=gbar,
                                    status=type(exc).__name__))
                continue
            rows.append(GridRow(
                t0=t0, gbar=gbar, mipr_final=float(tr.mipr_series[-1]),
                max_support=int(tr.support_series.max()),
                degeneracy_label=label,
                status="ok" if label == GENERIC else label))
    return rows


def expm_reference_mipr(params, t_max, n_steps, dps=30):
    """mIPR of the center-cell state after n_steps steps of the ladder's
    exp(-i dt H), with mpmath's expm at dps digits."""
    mpmath = pytest.importorskip("mpmath")
    L = params.L
    with mpmath.workdps(dps):
        H = mpmath.matrix(build_realspace(params).tolist())
        U = mpmath.expm(-1j * mpmath.mpf(t_max) / n_steps * H)
        psi = mpmath.matrix(initial_state(L).tolist())
        for _ in range(n_steps):
            psi = U * psi
            psi = psi / mpmath.norm(psi)
        p2 = [abs(x) ** 2 for x in psi]
        half = mpmath.mpf(L) / 2
        return float(sum((half - j) / half * (p2[2 * j - 2] ** 2
                                              + p2[2 * j - 1] ** 2)
                         for j in range(1, L + 1)))


def assert_chain_rows_match(rows, ref, tol=1e-12):
    """mipr_map rows, stepped on the two chains, against per-node ladder
    rows: every field equal, but mipr_final only within tol, since the
    chain exponentials round differently."""
    assert len(rows) == len(ref)
    for row, want in zip(rows, ref):
        assert replace(row, mipr_final=None) == replace(want, mipr_final=None)
        assert (row.mipr_final is None) == (want.mipr_final is None)
        if want.mipr_final is not None:
            assert abs(row.mipr_final - want.mipr_final) <= tol


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(t0_range=(1.0, -1.0, 5), gbar_range=(-1, 1, 5), g0=0.5)
        with pytest.raises(ValueError):
            GridSpec(t0_range=(-1, 1, 1), gbar_range=(-1, 1, 5), g0=0.5)
        with pytest.raises(ValueError):
            spec(boundary="ring")

    def test_axes_plain(self):
        t0v, gv = grid_axes(spec(n=5))
        assert np.allclose(t0v, np.linspace(-1, 1, 5))
        assert np.allclose(gv, np.linspace(-1, 1, 5))

    def test_axes_snapped(self):
        s = GridSpec(t0_range=(-2.0, 2.0, 101), gbar_range=(-2.0, 2.0, 101),
                     g0=0.5, tbar=1.0, snap_special=True)
        t0v, gv = grid_axes(s)
        for v in (0.5, -0.5, 1.0, -1.0):
            assert v in t0v
            assert v in gv
        assert len(t0v) == 101 and len(np.unique(t0v)) == 101

    def test_snap_leaves_out_of_range_values(self):
        s = GridSpec(t0_range=(0.0, 0.4, 5), gbar_range=(0.0, 0.4, 5),
                     g0=0.5, tbar=1.0, snap_special=True)
        t0v, _ = grid_axes(s)
        assert 0.5 not in t0v  # special value outside the range


class TestPhaseDiagram:
    def test_rows_row_major_and_match_direct(self):
        s = spec(n=3, L=10)
        rows = phase_diagram(s)
        t0v, gv = grid_axes(s)
        assert len(rows) == 9
        k = 0
        for gbar in gv:
            for t0 in t0v:
                r = rows[k]
                assert (r.t0, r.gbar) == (t0, gbar)
                p = ModelParams.from_bars(tbar=1.0, t0=t0, gbar=gbar,
                                          g0=0.5, L=10)
                c1, c2 = obc_spectrum_via_chains(p)
                eigs = np.concatenate([c1, c2])
                tol = 1e-9 * max(np.abs(eigs).max(), 0.0)
                direct = classify(eigs, tol_abs=tol)
                assert r.class_obc == direct.label
                assert r.M_obc == pytest.approx(direct.M)
                assert r.degeneracy_label == classify_point(p).label
                k += 1

    def test_same_sign_edge_pair_counts_imaginary(self):
        # a node of `phase --g0 0.3 --grid 15x15 --range -2:2 -L 50`:
        # u^2 = -0.42, v^2 = -5.11 and one chain's edge pair sits at
        # +-5.8e-14 i, below the 1e-9 max|E| cut, which counted it as real
        # (M_obc -0.96). Same-sign chains come from the bidiagonal SVD,
        # relatively accurate, so the pair is imaginary
        t0 = grid_axes(spec(lo=-2.0, hi=2.0, n=15))[0][9]
        assert t0 == 0.5714285714285712
        s = GridSpec(t0_range=(t0, 0.7, 2), gbar_range=(-2.0, -1.9, 2),
                     g0=0.3, L=50)
        row = phase_diagram(s)[0]
        assert (row.t0, row.gbar, row.degeneracy_label) == (t0, -2.0,
                                                             GENERIC)
        assert row.class_obc == "Imaginary"
        assert row.M_obc == pytest.approx(-1.0, abs=1e-15)
        p = ModelParams.from_bars(tbar=1.0, t0=t0, gbar=-2.0, g0=0.3, L=50)
        eigs = np.concatenate(obc_spectrum_via_chains(p))
        edge = np.abs(eigs).min()
        assert 5e-14 < edge < 1e-9 * np.abs(eigs).max()

    def test_pbc_real_on_fine_tuned_line(self):
        # nodes with gbar = t0 g0 / tbar classify Real under PBC
        s = GridSpec(t0_range=(0.2, 1.0, 3), gbar_range=(0.1, 0.5, 3),
                     g0=0.5, L=10)
        rows = phase_diagram(s)
        for r in rows:
            if r.gbar == pytest.approx(r.t0 * 0.5):
                assert r.class_obc in ("Real", "Collapsed")
                assert r.M_pbc == pytest.approx(1.0, abs=1e-9)

    def test_thread_determinism(self):
        s = spec(n=4, L=10)
        one = phase_diagram(s)
        for four in concurrent_runs(lambda: phase_diagram(s), 4):
            assert one == four

    def test_node_failure_stays_at_node(self, monkeypatch):
        s = spec(n=4, L=10)
        clean = phase_diagram(s)
        bad = clean[6]
        bad_sq = np.array([sq[:-1] for _, _, sq in _chain_bonds(
            sweep._node_params(s, bad.t0, bad.gbar, OBC))])
        solve = sweep._tridiag_spectrum_from_squares

        matches = []

        def failing(sq):
            # the block's stacked call (all four rows) raises, matched at the
            # bad node's place; then, node by node in grid order, the bad
            # node's own call: node 15 has the same products, so only the
            # first single-node match raises
            if sq.ndim == 4:
                if np.array_equal(sq[6 // 4, 6 % 4], bad_sq):
                    raise ConvergenceFailure("injected")
            elif np.array_equal(sq, bad_sq):
                matches.append(sq)
                if len(matches) == 1:
                    raise ConvergenceFailure("injected")
            return solve(sq)

        monkeypatch.setattr(sweep, "_tridiag_spectrum_from_squares", failing)
        rows = phase_diagram(s)
        assert rows[6] == GridRow(t0=bad.t0, gbar=bad.gbar,
                                  status="ConvergenceFailure")
        assert rows[:6] + rows[7:] == clean[:6] + clean[7:]

    def test_odd_L_rows_all_value_error(self):
        # odd L has no chain split: every node, in row-major order, reads
        # ValueError and nothing else
        s = spec(n=3, L=7)
        t0v, gv = grid_axes(s)
        assert phase_diagram(s) == [GridRow(t0=t0, gbar=gbar,
                                            status="ValueError")
                                    for gbar in gv for t0 in t0v]

    def test_bad_L_raises(self):
        for L in (0, 1):
            with pytest.raises(ValueError):
                phase_diagram(spec(n=2, L=L))

    def test_l2_matches_direct(self):
        # one bond per chain: every node solves, as a single-point call
        s = spec(lo=-1.5, hi=1.5, n=7, L=2, snap_special=True)
        for r in phase_diagram(s):
            p = ModelParams.from_bars(tbar=1.0, t0=r.t0, gbar=r.gbar,
                                      g0=0.5, L=2)
            eigs = np.concatenate(obc_spectrum_via_chains(p))
            label = classify_point(p).label
            d = derive(p)
            direct = classify(eigs, tol_abs=obc_tol_abs(label, d.u2, d.v2,
                                                        eigs))
            assert (r.status, r.degeneracy_label) == ("ok", label)
            assert (r.class_obc, r.M_obc) == (direct.label, direct.M)

    @pytest.mark.parametrize("L,n", [(10, 9), (50, 31)])
    def test_rows_equal_whatever_the_block(self, monkeypatch, L, n):
        # one row per block, two rows per block and one block for the
        # whole grid give the same rows, bit for bit; at L = 50 the whole
        # grid takes the root kernel past 256 KiB of complex values
        s = spec(lo=-1.5, hi=1.5, n=n, L=L, g0=0.45, snap_special=True)
        rows = phase_diagram(s)
        for products in (1, 2 * n * 2 * (L - 1), 10 ** 9):
            monkeypatch.setattr(sweep, "BLOCK_PRODUCTS", products)
            assert phase_diagram(s) == rows

    def test_sign_rule_off_the_loci(self):
        # off the degeneracy loci the OBC class follows the signs of the
        # chain products alone: Real iff u^2, v^2 > 0, Imaginary iff both
        # are < 0, Complex otherwise (a mixed-sign chain has complex
        # pairs); snapped grids put nodes on every locus line in range
        seen, loci = set(), 0
        for g0 in (0.1, 0.3, 0.5, -0.45, 0.9):
            for snap in (False, True):
                s = GridSpec(t0_range=(-1.5, 1.5, 27),
                             gbar_range=(-1.5, 1.5, 27), g0=g0, L=50,
                             snap_special=snap)
                for r in phase_diagram(s):
                    if r.degeneracy_label not in (GENERIC, DFB_PBC):
                        loci += 1
                        continue
                    d = derive(ModelParams.from_bars(
                        tbar=1.0, t0=r.t0, gbar=r.gbar, g0=g0, L=50))
                    if d.u2 > 0.0 and d.v2 > 0.0:
                        want = "Real"
                    elif d.u2 < 0.0 and d.v2 < 0.0:
                        want = "Imaginary"
                    else:
                        want = "Complex"
                    assert r.class_obc == want, (g0, snap, r)
                    seen.add(want)
        assert seen == {"Real", "Imaginary", "Complex"}
        assert loci > 0

    def test_degeneracy_column_on_diagonal(self):
        # diagonal t0 = gbar with g0 = tbar = 1: EFB nodes; the phase map
        # reports them in its own degeneracy column, status stays ok
        s = spec(lo=-1.0, hi=1.0, n=3, g0=1.0, L=10)
        rows = phase_diagram(s)
        for r in rows:
            assert r.status == "ok"
            if r.t0 == r.gbar:
                # corners t0 = gbar = +-tbar upgrade to intersections
                assert r.degeneracy_label in ("EFBLine", "EFBIntersection")
            assert r.class_obc in ("Real", "Imaginary", "Complex",
                                   "Collapsed")


def resolvable(p):
    """Criterion 8's gap rule, applied to both chains together: no two
    ladder eigenvalues closer than 1e-10 max|E| (sorted adjacent gaps).
    Below that the eigenbasis of a pair is arbitrary in any arithmetic
    and eigenvector averages are not well posed."""
    z = np.sort_complex(np.concatenate(obc_spectrum_via_chains(p)))
    return np.min(np.abs(np.diff(z))) > 1e-10 * np.max(np.abs(z))


# Generic nodes next to an exceptional line whose chain residual is far
# below 1e-10 max|E|, (t0, gbar, g0, L); each has a reference in
# TestDiprMap.test_matches_60_digit_reference
CHAIN_NEAR_EXCEPTIONAL = [
    # chain residual 4e-14 against 1.9e-10
    (-0.05665856467284369, 1.557951337396001, 0.5, 50),
    # v^2 = 0.0198; an edge pair at +-5.85e-31
    (1.714285714285714, 1.0, 0.3, 50),
    (-1.7142857142857144, -1.0, 0.3, 50),
]


def node_bonds(p):
    """The (2, L-1) bonds (up, lo, sq) of a node's two open chains."""
    return tuple(np.array(x)[:, :-1] for x in zip(*_chain_bonds(p)))


def one_node(p):
    """(mean dIPR, defective) of a node from sweep._dipr_chains on its
    bonds alone: the one-node case of dipr_map's stacked solve."""
    mean, flag = sweep._dipr_chains(*node_bonds(p))
    return float(mean), bool(flag)


def chain_pairs(p):
    """Per chain of a node (lam, Y, X): the eigenvalues, the unit balanced
    vectors Y and the chain vectors X, as columns, X scaled as
    obc_eig_via_chains scales it (diag(d) y_n times the power of two that
    brings its norm into [2^-1/2, 2^1/2))."""
    with np.errstate(all="ignore"):
        lam, Yt, d = _chain_eigenpairs(*node_bonds(p))
        _, total = _chain_intensities(Yt, d)
        scale = np.where(np.isinf(total), 0.0,
                         np.ldexp(1.0, -(np.frexp(total)[1] // 2)))
        Xt = np.multiply(Yt, d[..., None, :]) * scale[..., None]
    return tuple(zip(lam, np.swapaxes(Yt, -1, -2), np.swapaxes(Xt, -1, -2)))


# (t0, gbar, g0, 60-digit <dIPR>, L, tolerance)
DIPR_REFERENCES = [
    (0.019, -1.0, 0.019, 0.47696770000815109941, 50, 1e-10),
    (0.8, 0.4, 0.5, 0.0044885113819758139039, 50, 1e-10),
    # mixed-sign chains (u^2 v^2 < 0)
    (-1.334, 1.662, -1.371, 0.1436701794046420928525, 50, 1e-10),
    (1.305, -1.753, -1.628, 0.1517887341768231951028, 50, 1e-10),
    # next to exceptional lines (CHAIN_NEAR_EXCEPTIONAL), each chain
    # balanced exactly in mpmath before mpmath.eig. Dense eig gives
    # -0.3229 at the first node; eigh_tridiagonal chain vectors gave
    # residuals past 1e-10 max|E| at all three, and dense eig gave
    # 0.27999 and -0.25863 at the last two
    (-0.05665856467284369, 1.557951337396001, 0.5,
     -0.25688249570868582072, 50, 1e-10),
    (1.714285714285714, 1.0, 0.3, 0.26264440953516204891, 50, 1e-10),
    (-1.7142857142857144, -1.0, 0.3, -0.26264440953516127175, 50, 1e-10),
    # same-sign chains with a near-degenerate pair: eigh_tridiagonal
    # vectors gave -0.00687
    (0.952, 0.019, 0.019, -0.011225316153020550164, 50, 1e-10),
    # 2e-12 off the exceptional line g = f: the chain residual is 1.4e-9,
    # 22 times 1e-10 max|E|, yet the vectors are right; dense eig gives
    # -0.39005 (-0.40425 under a multithreaded BLAS)
    (0.3, 0.7999999999980001, 0.5, -0.36323434865226117, 60, 1e-13),
]


def reference_id(t0, gbar, g0, ref, L, tol):
    """Test id of a DIPR_REFERENCES row: the node and its reference, and
    L where it is not 50."""
    return "-".join(map(str, (t0, gbar, g0, ref) + ((L,) if L != 50 else ())))


class TestDiprMap:
    def test_exceptional_line_nodes_defective(self):
        # at L = 50 a Jordan block of size up to 25 splits its eigenvalue
        # far past the dense test's cluster radius, which read False at
        # some of these nodes; the closed form reads True at every one
        s = GridSpec(t0_range=(-2.0, 2.0, 21), gbar_range=(-2.0, 2.0, 21),
                     g0=0.5, L=50, snap_special=True)
        el = [r for r in dipr_map(s) if r.degeneracy_label in ("ELu", "ELv")]
        assert len(el) == 8
        # an eigenvector average of a defective H is not a function of H
        assert all(r.defective is True and r.status == r.degeneracy_label
                   and r.mean_dipr is None for r in el)

    def test_values_match_direct(self):
        # each row equals the route dipr_map documents (the direct formula
        # on the chain eigenvectors at Generic nodes, None on the loci),
        # the ladder vectors of obc_eig_via_chains to rounding, and
        # dense eig wherever the ladder spectrum is resolvable. At (0, 0)
        # both chains carry the same products, so every eigenvalue is
        # shared: the dense average there depends on the eigenbasis LAPACK
        # returns (-0.0058), while the exact value is 0 and the chain route
        # gives 0 to 2e-17.
        s = spec(n=3, L=10)
        rows = dipr_map(s)
        n_resolvable = 0
        for r in rows:
            p = ModelParams.from_bars(tbar=1.0, t0=r.t0, gbar=r.gbar,
                                      g0=0.5, L=10)
            dense = mean_dipr(eig(build_realspace(p), want_vectors=True), 10)
            if r.degeneracy_label == GENERIC:
                assert r.mean_dipr == one_node(p)[0]
                assert r.mean_dipr == pytest.approx(
                    mean_dipr(obc_eig_via_chains(p), 10), abs=1e-14)
            else:
                assert r.mean_dipr is None
                continue
            if resolvable(p):
                n_resolvable += 1
                assert r.mean_dipr == pytest.approx(dense, abs=1e-10)
            assert r.defective in (True, False)
        assert n_resolvable == 8
        p00 = ModelParams.from_bars(tbar=1.0, t0=0.0, gbar=0.0, g0=0.5, L=10)
        assert not resolvable(p00)
        assert rows[4].mean_dipr == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("t0, gbar, g0, ref, L, tol", DIPR_REFERENCES,
                             ids=[reference_id(*c) for c in DIPR_REFERENCES])
    def test_matches_60_digit_reference(self, t0, gbar, g0, ref, L, tol):
        # References: each chain of build_nhssh, built from the same
        # binary parameter values, diagonalized by mpmath.eig at 60
        # significant digits (at 90 digits the first 20 are the same).
        # Chain site m = 0..L-1 is one w-orbital of cell L - m, and both
        # ladder sites of that cell carry half its intensity. So a chain
        # eigenvector x with P_m = |x_m|^2 / sum |x|^2 has dIPR = (sum of
        # P_m^2 over cells 1..L/2 - sum over cells L/2+1..L) / 2, and
        # <dIPR> is the mean over the 2L eigenvectors of both chains.
        # Dense eig gives about 0.85 and -4e-4 at the first two nodes; a
        # complex L x L eig of each balanced mixed-sign chain gives 0.1338
        # and 0.1421 at the last two.
        s = GridSpec(t0_range=(t0, t0 + 0.1, 2),
                     gbar_range=(gbar, gbar + 0.1, 2), g0=g0, L=L)
        row = dipr_map(s)[0]
        assert (row.t0, row.gbar, row.status) == (t0, gbar, "ok")
        assert abs(row.mean_dipr - ref) <= tol

    def test_envelope_past_float_range_marked(self):
        # 1e-9 off the exceptional line g = f at L = 200 the balancing
        # envelope underflows: the row says so and writes no average
        s = GridSpec(t0_range=(0.3, 0.4, 2),
                     gbar_range=(0.7999999990000001, 0.9, 2), g0=0.5, L=200)
        row = dipr_map(s)[0]
        assert (row.status, row.mean_dipr, row.defective) \
            == ("Overflow", None, None)

    def test_dfb_pbc_rows_take_the_chain_route(self):
        # DFB_PBC (here the anti-Hermitian line tbar = t0 = 0) has no
        # closed form, so its nodes join the Generic ones in the stacked
        # chain solve; each row is the single-point route bit for bit
        s = GridSpec(t0_range=(-1.0, 1.0, 5), gbar_range=(-1.2, 1.2, 5),
                     g0=-0.7, tbar=0.0, L=50)
        rows = [r for r in dipr_map(s) if r.degeneracy_label == DFB_PBC]
        assert len(rows) == 5
        for r in rows:
            p = ModelParams.from_bars(tbar=0.0, t0=r.t0, gbar=r.gbar,
                                      g0=-0.7, L=50)
            mean, _ = one_node(p)
            assert r.status == DFB_PBC and type(r.status) is str
            assert r.mean_dipr == mean
            assert r.defective is resolve_structure(
                p, classify_point(p)).defective

    @pytest.mark.parametrize("t0, gbar, g0, L", CHAIN_NEAR_EXCEPTIONAL)
    def test_near_exceptional_node_on_chain_route(self, t0, gbar, g0, L):
        # where the chain solve passes the gate, the row is its average
        p = ModelParams.from_bars(tbar=1.0, t0=t0, gbar=gbar, g0=g0, L=L)
        s = GridSpec(t0_range=(t0, t0 + 0.1, 2),
                     gbar_range=(gbar, gbar + 0.1, 2), g0=g0, L=L)
        row = dipr_map(s)[0]
        assert (row.degeneracy_label, row.status) == (GENERIC, "ok")
        assert row.mean_dipr == one_node(p)[0]

    def test_efb_diagonal_flagged(self):
        s = spec(lo=-2.0, hi=2.0, n=5, g0=1.0, L=10)
        rows = dipr_map(s)
        flagged = [r for r in rows if r.t0 == r.gbar]
        assert flagged
        assert all(r.status in ("EFBLine", "EFBIntersection")
                   for r in flagged)
        assert any(r.status == "EFBLine" for r in flagged)

    def test_thread_determinism(self):
        s = spec(n=3, L=10)
        one = dipr_map(s)
        for three in concurrent_runs(lambda: dipr_map(s), 3):
            assert one == three

    def test_same_sign_generic_nodes_not_defective(self):
        # at (t0, gbar) = (0.3, -2.0), g0 = 0.3: u^2 = -1.2, v^2 = -4.8, and
        # one chain's edge pair (E = +-4.9e-8 i) is split far below the
        # numerical test's clustering radius; the chains are similar to
        # unreduced imaginary symmetric tridiagonals, so diagonalizable
        s = GridSpec(t0_range=(0.3, 0.6, 2), gbar_range=(-2.0, -1.9, 2),
                     g0=0.3, L=50)
        rows = dipr_map(s)
        same_sign = []
        for r in rows:
            u2 = (1.0 + r.t0) ** 2 - (r.gbar + 0.3) ** 2
            v2 = (1.0 - r.t0) ** 2 - (r.gbar - 0.3) ** 2
            if r.degeneracy_label == GENERIC and u2 * v2 > 0.0:
                same_sign.append((r.t0, r.gbar))
                assert r.defective is False
        assert (0.3, -2.0) in same_sign

    def test_mixed_sign_edge_pair_not_defective(self):
        # mixed-sign tile (u^2 v^2 < 0, L/2 odd). At (t0, gbar) = (-0.3784,
        # -1.831), g0 = -0.859, chain one's closest pair is an edge pair
        # +-6.0e-11, far inside the clustering radius 1e-6 max|E|. It is
        # distinct: det T = +-(product of alternate bond products) != 0 at
        # Generic nodes. Its unit chain vectors X are nearly parallel (the
        # envelope), so a test on X calls the node defective; its balanced
        # vectors Y are not, and the balancing is a similarity
        s = GridSpec(t0_range=(-0.3784, -0.2784, 3),
                     gbar_range=(-1.831, -1.731, 3), g0=-0.859, L=50)
        rows = dipr_map(s)
        assert [(r.degeneracy_label, r.defective) for r in rows] \
            == [(GENERIC, False)] * 9
        p = ModelParams.from_bars(tbar=1.0, t0=-0.3784, gbar=-1.831,
                                  g0=-0.859, L=50)
        d = derive(p)
        assert d.u2 * d.v2 < 0.0
        (lam, Y, X), _ = chain_pairs(p)
        gaps = np.abs(lam[:, None] - lam) + np.diag(np.full(len(lam), np.inf))
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        eps = abs(lam[i])
        assert 5e-11 < eps < 7e-11
        assert abs(lam[i] + lam[j]) <= 1e-6 * eps
        assert gaps[i, j] <= 1e-6 * np.abs(lam).max()
        assert _defective_from(lam, X, 1e-6)
        assert not _defective_from(lam, Y, 1e-6)

    @pytest.mark.parametrize("L,n", [(10, 51), (50, 9)])
    def test_rows_equal_whatever_the_block(self, monkeypatch, L, n):
        # one node per block, blocks of n + 3 nodes that straddle rows,
        # two rows per block, one block for the whole grid, and one node
        # per call (every stacked call refused, so each node takes the
        # node-by-node path) give the same rows, bit for bit. The whole 51x51 grid at L = 10 (3688 mixed-sign chains)
        # takes every complex temporary of the root kernel and the closed
        # form past 256 KiB, where numpy's temporary elision starts; at
        # L = 50 the (chain, root, site) ones are past it.
        s = spec(lo=-1.5, hi=1.5, n=n, L=L, g0=0.45, snap_special=True)
        rows = dipr_map(s)
        assert sum(r.degeneracy_label == GENERIC for r in rows) >= 0.9 * n * n
        for entries in (1, (n + 3) * 2 * L * L, 2 * n * 2 * L * L, 10 ** 9):
            monkeypatch.setattr(sweep, "BLOCK_VECTOR_ENTRIES", entries)
            assert dipr_map(s) == rows
        solve = sweep._dipr_chains

        def one_node_only(up, lo, sq):
            if up.ndim > 2:
                raise ConvergenceFailure("stacks refused")
            return solve(up, lo, sq)

        monkeypatch.setattr(sweep, "_dipr_chains", one_node_only)
        assert dipr_map(s) == rows

    def test_node_failure_stays_at_node(self, monkeypatch):
        # the block's stacked eigensolve raises because it holds the bad
        # node's bonds, then the bad node's own call raises again; every
        # other node, Generic or on a locus, keeps its row
        s = spec(n=4, L=10)
        clean = dipr_map(s)
        bad = clean[6]
        assert bad.status == "ok"
        bad_up, _, bad_sq = (np.array(x)[:, :-1] for x in zip(*_chain_bonds(
            sweep._node_params(s, bad.t0, bad.gbar, OBC))))
        solve = sweep._chain_eigenpairs

        def failing(up, lo, sq):
            if ((up == bad_up) & (sq == bad_sq)).all(axis=(-2, -1)).any():
                raise ConvergenceFailure("injected")
            return solve(up, lo, sq)

        monkeypatch.setattr(sweep, "_chain_eigenpairs", failing)
        rows = dipr_map(s)
        assert rows[6] == GridRow(t0=bad.t0, gbar=bad.gbar,
                                  status="ConvergenceFailure")
        assert rows[:6] + rows[7:] == clean[:6] + clean[7:]

    def test_eig_share_on_a_dipr_tile(self, monkeypatch):
        # one L = 50 tile like the benchmark's dipr workload: the chains
        # that reach np.linalg.eig (_split_eig) are those the root
        # certificate refuses, 5% of the mixed-sign chains at most
        eig_ = np.linalg.eig
        chains = []

        def counting(a):
            # a stack of halves (chains, m, m), or one half (m, m)
            chains.append(len(a) if np.ndim(a) == 3 else 1)
            return eig_(a)

        monkeypatch.setattr(np.linalg, "eig", counting)
        s = GridSpec(t0_range=(-1.6, 0.8, 12), gbar_range=(-1.6, 0.8, 12),
                     g0=0.45, L=50, snap_special=True)
        rows = dipr_map(s)
        mixed = 0
        for r in rows:
            d = derive(ModelParams.from_bars(t0=r.t0, gbar=r.gbar, g0=0.45,
                                             L=50))
            mixed += 2 * (r.degeneracy_label == GENERIC and d.u2 * d.v2 < 0)
        assert all(r.status in ("ok", r.degeneracy_label) for r in rows)
        assert mixed >= 150
        assert sum(chains) <= 0.05 * mixed

    @pytest.mark.parametrize("gbar, defective", [
        (0.9144317303652489, True), (0.9144317303652489 + 1e-9, False)])
    def test_finite_size_exceptional_point(self, gbar, defective):
        # L = 8, g0 = 0: chain one (u^2 > 0 > v^2, L/2 = 4 even) has an EP
        # at |u/v| = 1.55303; 1e-9 off it the pair splits and the node is
        # diagonalizable. The chain test agrees with dense is_defective
        p = ModelParams.from_bars(tbar=1.0, t0=0.5, gbar=gbar, g0=0.0, L=8)
        s = GridSpec(t0_range=(0.5, 0.6, 2), gbar_range=(gbar, gbar + 0.1, 2),
                     g0=0.0, L=8)
        row = dipr_map(s)[0]
        assert (row.degeneracy_label, row.status) == (GENERIC, "ok")
        assert row.defective is defective
        assert is_defective(build_realspace(p)) is defective
        d = derive(p)
        assert abs((d.u2 / -d.v2) ** 0.5 - 1.55303) <= 1e-5


def ladder_residual(res, p):
    """max_n ||H v_n - E_n v_n|| of the ladder vectors of res on the dense
    ladder H."""
    V = res.right_eigenvectors
    return np.linalg.norm(build_realspace(p) @ V - V * res.eigenvalues,
                          axis=0).max()


def random_generic_nodes(L, n, seed):
    """n random Generic nodes at size L whose chain solve succeeds, as
    (params, u^2 v^2 > 0)."""
    rng = np.random.default_rng(seed)
    nodes = []
    while len(nodes) < n:
        t0, gbar, g0 = rng.uniform(-2.0, 2.0, 3)
        p = ModelParams.from_bars(tbar=1.0, t0=t0, gbar=gbar, g0=g0, L=L)
        if classify_point(p).label != GENERIC:
            continue
        try:
            with np.errstate(all="ignore"):
                obc_eig_via_chains(p)
        except Overflow:
            continue
        d = derive(p)
        nodes.append((p, d.u2 * d.v2 > 0.0))
    return nodes


class TestChainRoute:
    """The dIPR map's chain route in its one-node case (sweep._dipr_chains:
    the direct formula and the condition test) against the ladder vectors
    of obc_eig_via_chains and the clustered-rank test."""

    @pytest.mark.parametrize("L, seed", [(10, 1), (50, 2)])
    def test_direct_formula_and_residual_match_ladder(self, L, seed):
        nodes = random_generic_nodes(L, 40, seed)
        same_sign = sum(same for _, same in nodes)
        assert 5 <= same_sign <= 35  # both sign cases are covered
        for p, _ in nodes:
            chains = chain_pairs(p)
            with np.errstate(all="ignore"):
                ladder = obc_eig_via_chains(p)
            scale = np.abs(ladder.eigenvalues).max()
            residual = max(_tridiag_residual(up[:-1], lo[:-1], lam, X)
                           for (up, lo, _), (lam, _, X)
                           in zip(_chain_bonds(p), chains))
            assert ladder.residual_max == residual
            assert abs(residual - ladder_residual(ladder, p)) <= 1e-12 * scale
            direct, flag = one_node(p)
            assert direct == pytest.approx(mean_dipr(ladder, L), abs=1e-14)
            # the c-product condition test against the clustered-rank test
            # on the same balanced vectors Y
            assert flag is any(
                _defective_from(lam, Y, 1e-6) for lam, Y, _ in chains)

    @pytest.mark.parametrize("t0, gbar, g0, L", CHAIN_NEAR_EXCEPTIONAL)
    def test_gate_passes_near_exceptional_lines(self, t0, gbar, g0, L):
        # next to an exceptional line the chain vectors keep residuals 10x
        # below 1e-10 max|E|, on the chains and on the dense ladder alike
        p = ModelParams.from_bars(tbar=1.0, t0=t0, gbar=gbar, g0=g0, L=L)
        res = obc_eig_via_chains(p)
        bound = 1e-11 * np.abs(res.eigenvalues).max()
        assert res.residual_max < bound
        assert ladder_residual(res, p) < bound


class TestMiprMap:
    def test_values_and_ordering(self):
        s = spec(lo=0.2, hi=0.8, n=3, L=10)
        rows = mipr_map(s, t_max=5.0, n_steps=20)
        assert len(rows) == 9
        ok = [r for r in rows if r.status == "ok"]
        assert ok
        for r in ok:
            assert -1.0 <= r.mipr_final <= 1.0
            assert 1 <= r.max_support <= 10

    def test_overflow_marked_not_raised(self):
        # gain ~ 2*gbar = 12 over t_max = 200: norm passes 1e300
        s = GridSpec(t0_range=(0.0, 0.1, 2), gbar_range=(6.0, 6.1, 2),
                     g0=0.5, L=10)
        rows = mipr_map(s, t_max=200.0, n_steps=20)
        assert any(r.status == "Overflow" for r in rows)
        for r in rows:
            if r.status == "Overflow":
                assert r.mipr_final is None

    @pytest.mark.parametrize("boundary", [OBC, PBC])
    def test_row_engine_equals_per_node_propagate(self, boundary):
        s = spec(lo=-1.5, hi=1.5, n=4, L=12, boundary=boundary)
        rows = mipr_map(s, t_max=10.0, n_steps=50)
        assert all(r.status != "Overflow" for r in rows)
        assert_chain_rows_match(rows, per_node_mipr(s, t_max=10.0,
                                                    n_steps=50))

    def test_l2_pbc_double_bond_equals_per_node_propagate(self):
        # at L = 2 the closing bond doubles the chain bond it wraps onto;
        # the real chain stepping still matches the complex ladder rows
        s = spec(lo=-1.5, hi=1.5, n=4, L=2, boundary=PBC)
        rows = mipr_map(s, t_max=10.0, n_steps=50)
        assert all(r.status != "Overflow" for r in rows)
        assert_chain_rows_match(rows, per_node_mipr(s, t_max=10.0,
                                                    n_steps=50))

    @pytest.mark.parametrize("L", [2, 40])
    @pytest.mark.parametrize("boundary", [OBC, PBC])
    def test_steps_in_real_arithmetic(self, monkeypatch, L, boundary):
        # the chain propagators and the start state are real by
        # construction, so the whole stepping runs in float64
        seen = []
        real_run = sweep._final_mipr_and_support

        def recording(U, z0, times, legs):
            seen.append((U.dtype, z0.dtype))
            return real_run(U, z0, times, legs)

        monkeypatch.setattr(sweep, "_final_mipr_and_support", recording)
        rows = mipr_map(spec(lo=0.2, hi=0.8, n=3, L=L, boundary=boundary),
                        t_max=5.0, n_steps=20)
        assert all(r.mipr_final is not None for r in rows)
        assert seen == [(np.dtype(np.float64), np.dtype(np.float64))] * 3

    def test_support_matches_before_the_chain_fills(self):
        # short times: the support grows from 1 cell and stays below L,
        # so it is counted from both chains at the cell edge
        s = spec(lo=-1.5, hi=1.5, n=4, L=40)
        rows = mipr_map(s, t_max=1.0, n_steps=10)
        assert {r.max_support for r in rows} & set(range(2, 40))
        assert_chain_rows_match(rows, per_node_mipr(s, t_max=1.0,
                                                    n_steps=10))

    def test_overflow_mixed_with_ok_nodes(self):
        s = GridSpec(t0_range=(5.5, 6.5, 4), gbar_range=(5.5, 6.5, 4),
                     g0=0.5, L=10)
        rows = mipr_map(s, t_max=200.0, n_steps=20)
        statuses = {r.status for r in rows}
        assert {"ok", "Overflow"} <= statuses
        assert_chain_rows_match(rows, per_node_mipr(s, t_max=200.0,
                                                    n_steps=20))

    @pytest.mark.parametrize("t0, gbar, g0, boundary", [
        (0.3, 1.4, 0.5, OBC),  # strong non-reciprocity
        (0.2, 0.7 + 1e-9, 0.5, OBC),  # 1e-9 off ELu: g = 1.2, f = 1.2 + 1e-9
        (-0.4, 0.6, 0.3, PBC),
    ])
    def test_matches_30_digit_expm(self, t0, gbar, g0, boundary):
        s = GridSpec(t0_range=(t0, t0 + 0.5, 2),
                     gbar_range=(gbar, gbar + 0.5, 2), g0=g0, L=10,
                     boundary=boundary)
        row = mipr_map(s, t_max=4.0, n_steps=8)[0]
        assert row.status == "ok" and (row.t0, row.gbar) == (t0, gbar)
        p = ModelParams.from_bars(t0=t0, gbar=gbar, g0=g0, L=10,
                                  boundary=boundary)
        ref = expm_reference_mipr(p, 4.0, 8)
        assert abs(row.mipr_final - ref) <= 1e-13

    @pytest.mark.parametrize("boundary", [OBC, PBC])
    def test_odd_L_nodes_have_no_chains(self, boundary):
        # the chain route needs even L, as phase_diagram and dipr_map do
        rows = mipr_map(spec(lo=0.2, hi=0.8, n=2, L=9, boundary=boundary),
                        t_max=5.0, n_steps=10)
        assert [r.status for r in rows] == ["ValueError"] * 4
        assert all(r.mipr_final is None for r in rows)

    @pytest.mark.parametrize("t_max, n_steps", [
        (-1.0, 20), (0.0, 20), (float("inf"), 20), (5.0, 0), (5.0, 2.5)])
    def test_bad_time_arguments_raise(self, t_max, n_steps):
        # validated once before the grid walk, as in propagate, not
        # recorded as a ValueError status at every node
        with pytest.raises(ValueError):
            mipr_map(spec(lo=0.2, hi=0.8, n=2, L=10), t_max=t_max,
                     n_steps=n_steps)

    @pytest.mark.parametrize("fault, status", [
        ("raise", "ConvergenceFailure"),
        ("nan", "ValueError"),  # H rejected as not finite
        ("zero", "ValueError"),  # the norm vanishes at the first step
    ])
    def test_node_failure_stays_at_node(self, monkeypatch, fault, status):
        s = spec(lo=0.2, hi=0.8, n=4, L=10)
        clean = mipr_map(s, t_max=5.0, n_steps=20)
        bad = clean[9]
        build, step = sweep.build_nhssh, sweep._step_propagator

        def faulty_build(params):
            H1, H2 = build(params)
            if (params.t0, params.g1) == (bad.t0, bad.gbar):
                if fault == "raise":
                    raise ConvergenceFailure("injected")
                if fault == "nan":
                    H1[0, 1] = np.nan
                if fault == "zero":
                    H1[:] = H2[:] = 0.0
            return H1, H2

        def faulty_step(H, times):
            return np.zeros_like(H) if not H.any() else step(H, times)

        monkeypatch.setattr(sweep, "build_nhssh", faulty_build)
        monkeypatch.setattr(sweep, "_step_propagator", faulty_step)
        rows = mipr_map(s, t_max=5.0, n_steps=20)
        assert rows[9] == GridRow(t0=bad.t0, gbar=bad.gbar, status=status)
        assert rows[:9] + rows[10:] == clean[:9] + clean[10:]

    def test_thread_determinism(self):
        s = spec(lo=0.2, hi=0.8, n=3, L=10)
        one = mipr_map(s, t_max=5.0, n_steps=20)
        for three in concurrent_runs(
                lambda: mipr_map(s, t_max=5.0, n_steps=20), 3):
            assert one == three

    def test_boundary_passed_through(self):
        s_obc = spec(lo=0.3, hi=0.7, n=2, L=10, boundary=OBC)
        s_pbc = spec(lo=0.3, hi=0.7, n=2, L=10, boundary=PBC)
        r_obc = mipr_map(s_obc, t_max=5.0, n_steps=10)
        r_pbc = mipr_map(s_pbc, t_max=5.0, n_steps=10)
        assert any(a.mipr_final != b.mipr_final
                   for a, b in zip(r_obc, r_pbc))


class TestSpectrumOverlay:
    def test_shapes_and_boundary_effect(self):
        p = ModelParams.from_bars(tbar=1.0, t0=0.5, gbar=0.8, g0=0.1, L=20)
        ov = spectrum_overlay(p)
        assert ov.pbc.shape == (40,)
        assert ov.obc.shape == (40,)
        assert np.array_equal(ov.obc,
                              np.concatenate(obc_spectrum_via_chains(p)))
        # strong skin point: OBC spectrum differs visibly from PBC loop
        assert np.abs(np.sort_complex(ov.pbc)
                      - np.sort_complex(ov.obc)).max() > 0.1
