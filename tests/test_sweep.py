from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import nhcreutz.sweep as sweep
from nhcreutz.degeneracy import GENERIC
from nhcreutz.localization import _mean_dipr_chains
from nhcreutz.spectral import _obc_chain_eigs
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
    """The rows of mipr_map from one propagate(..., method="expm") call
    per node."""
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
        solve = sweep.obc_spectrum_via_chains

        def failing(params):
            if (params.t0, params.g1) == (bad.t0, bad.gbar):
                raise ConvergenceFailure("injected")
            return solve(params)

        monkeypatch.setattr(sweep, "obc_spectrum_via_chains", failing)
        rows = phase_diagram(s)
        assert rows[6] == GridRow(t0=bad.t0, gbar=bad.gbar,
                                  status="ConvergenceFailure")
        assert rows[:6] + rows[7:] == clean[:6] + clean[7:]

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


# Generic nodes (g0 = 0.5) next to an exceptional line, (t0, gbar, L).
# The chain solve fails or misses the residual gate by more than 10x, so
# dense eig writes the row
DENSE_FALLBACK = [
    # 2e-12 off the exceptional line g = f: chain residual 1.4e-9 against
    # a gate of 6.3e-11
    (0.3, 0.7999999999980001, 60),
    # 1e-9 off g = f: the balancing envelope underflows (Overflow)
    (0.3, 0.7999999990000001, 200),
]

# Generic nodes next to an exceptional line whose chain solve passes the
# gate by more than 10x, (t0, gbar, g0, L); each has a reference in
# TestDiprMap.test_matches_60_digit_reference
CHAIN_NEAR_EXCEPTIONAL = [
    # chain residual 4e-14 against a gate of 1.9e-10
    (-0.05665856467284369, 1.557951337396001, 0.5, 50),
    # v^2 = 0.0198; an edge pair at +-5.85e-31
    (1.714285714285714, 1.0, 0.3, 50),
    (-1.7142857142857144, -1.0, 0.3, 50),
]


def chain_residual_ratio(p):
    """Largest chain residual over CHAIN_RESIDUAL_GATE max|E|, or inf
    when the chain solve fails."""
    try:
        with np.errstate(all="ignore"):
            chains = _obc_chain_eigs(p)
    except (Overflow, np.linalg.LinAlgError):
        return np.inf
    lam = np.concatenate([c[0] for c in chains])
    return max(c[2] for c in chains) \
        / (sweep.CHAIN_RESIDUAL_GATE * np.abs(lam).max())


class TestDiprMap:
    def test_values_match_direct(self):
        # each row equals the route dipr_map documents (the direct formula
        # on the chain eigenvectors at Generic nodes, dense eig on the
        # loci), the ladder vectors of obc_eig_via_chains to rounding, and
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
                _, blocks = sweep._chain_route(p)
                assert r.mean_dipr == _mean_dipr_chains(blocks)
                assert r.mean_dipr == pytest.approx(
                    mean_dipr(obc_eig_via_chains(p), 10), abs=1e-14)
            else:
                assert r.mean_dipr == dense
            if resolvable(p):
                n_resolvable += 1
                assert r.mean_dipr == pytest.approx(dense, abs=1e-10)
            assert r.defective in (True, False)
        assert n_resolvable == 8
        p00 = ModelParams.from_bars(tbar=1.0, t0=0.0, gbar=0.0, g0=0.5, L=10)
        assert not resolvable(p00)
        assert rows[4].mean_dipr == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("t0, gbar, g0, ref", [
        (0.019, -1.0, 0.019, 0.47696770000815109941),
        (0.8, 0.4, 0.5, 0.0044885113819758139039),
        # mixed-sign chains (u^2 v^2 < 0)
        (-1.334, 1.662, -1.371, 0.1436701794046420928525),
        (1.305, -1.753, -1.628, 0.1517887341768231951028),
        # next to exceptional lines (CHAIN_NEAR_EXCEPTIONAL), each chain
        # balanced exactly in mpmath before mpmath.eig. Dense eig gives
        # -0.3229 at the first node; eigh_tridiagonal chain vectors
        # missed the residual gate at all three, and dense eig gave
        # 0.27999 and -0.25863 at the last two
        (-0.05665856467284369, 1.557951337396001, 0.5,
         -0.25688249570868582072),
        (1.714285714285714, 1.0, 0.3, 0.26264440953516204891),
        (-1.7142857142857144, -1.0, 0.3, -0.26264440953516127175),
        # same-sign chains with a near-degenerate pair: eigh_tridiagonal
        # vectors passed the gate here and gave -0.00687
        (0.952, 0.019, 0.019, -0.011225316153020550164),
    ])
    def test_matches_60_digit_reference(self, t0, gbar, g0, ref):
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
                     gbar_range=(gbar, gbar + 0.1, 2), g0=g0, L=50)
        row = dipr_map(s)[0]
        assert (row.t0, row.gbar, row.status) == (t0, gbar, "ok")
        assert abs(row.mean_dipr - ref) <= 1e-10

    @pytest.mark.parametrize("t0, gbar, L", DENSE_FALLBACK)
    def test_near_exceptional_node_falls_back_to_dense(self, t0, gbar, L):
        # Generic nodes whose chain solve fails the residual gate take
        # dense eig, and never write the chain average
        p = ModelParams.from_bars(tbar=1.0, t0=t0, gbar=gbar, g0=0.5, L=L)
        assert classify_point(p).label == GENERIC
        assert chain_residual_ratio(p) > 10.0
        assert sweep._chain_route(p) is None
        dense = mean_dipr(eig(build_realspace(p), want_vectors=True), L)
        assert sweep._dipr_node(p, GENERIC) == (dense, False)

    @pytest.mark.parametrize("t0, gbar, g0, L", CHAIN_NEAR_EXCEPTIONAL)
    def test_near_exceptional_node_on_chain_route(self, t0, gbar, g0, L):
        # where the chain solve passes the gate, the row is its average
        p = ModelParams.from_bars(tbar=1.0, t0=t0, gbar=gbar, g0=g0, L=L)
        _, blocks = sweep._chain_route(p)
        s = GridSpec(t0_range=(t0, t0 + 0.1, 2),
                     gbar_range=(gbar, gbar + 0.1, 2), g0=g0, L=L)
        row = dipr_map(s)[0]
        assert (row.degeneracy_label, row.status) == (GENERIC, "ok")
        assert row.mean_dipr == _mean_dipr_chains(blocks)

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


def ladder_gate(p):
    """The residual gate as taken on the ladder vectors of
    obc_eig_via_chains: True when they pass it."""
    try:
        with np.errstate(all="ignore"):
            res = obc_eig_via_chains(p)
    except (Overflow, np.linalg.LinAlgError):
        return False
    return bool(res.residual_max <= sweep.CHAIN_RESIDUAL_GATE
                * np.abs(res.eigenvalues).max())


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
                _obc_chain_eigs(p)
        except Overflow:
            continue
        d = derive(p)
        nodes.append((p, d.u2 * d.v2 > 0.0))
    return nodes


class TestChainRoute:
    """The dIPR map's chain route (sweep._chain_route and the direct
    formula) against the ladder vectors of obc_eig_via_chains."""

    @pytest.mark.parametrize("L, seed", [(10, 1), (50, 2)])
    def test_direct_formula_and_residual_match_ladder(self, L, seed):
        nodes = random_generic_nodes(L, 40, seed)
        same_sign = sum(same for _, same in nodes)
        assert 5 <= same_sign <= 35  # both sign cases are covered
        for p, _ in nodes:
            with np.errstate(all="ignore"):
                chains = _obc_chain_eigs(p)
                ladder = obc_eig_via_chains(p)
            scale = np.abs(ladder.eigenvalues).max()
            assert abs(max(r for _, _, r in chains) - ladder.residual_max) \
                <= 1e-12 * scale
            direct = _mean_dipr_chains([X for _, X, _ in chains])
            assert direct == pytest.approx(mean_dipr(ladder, L), abs=1e-14)
            assert (sweep._chain_route(p) is not None) == ladder_gate(p)

    @pytest.mark.parametrize("t0, gbar, L", DENSE_FALLBACK)
    def test_gate_unchanged_near_exceptional_lines(self, t0, gbar, L):
        p = ModelParams.from_bars(tbar=1.0, t0=t0, gbar=gbar, g0=0.5, L=L)
        assert sweep._chain_route(p) is None
        assert not ladder_gate(p)

    @pytest.mark.parametrize("t0, gbar, g0, L", CHAIN_NEAR_EXCEPTIONAL)
    def test_gate_passes_near_exceptional_lines(self, t0, gbar, g0, L):
        p = ModelParams.from_bars(tbar=1.0, t0=t0, gbar=gbar, g0=g0, L=L)
        assert chain_residual_ratio(p) < 0.1
        assert sweep._chain_route(p) is not None
        assert ladder_gate(p)


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
        assert rows == per_node_mipr(s, t_max=10.0, n_steps=50)

    def test_overflow_mixed_with_ok_nodes(self):
        s = GridSpec(t0_range=(5.5, 6.5, 4), gbar_range=(5.5, 6.5, 4),
                     g0=0.5, L=10)
        rows = mipr_map(s, t_max=200.0, n_steps=20)
        statuses = {r.status for r in rows}
        assert {"ok", "Overflow"} <= statuses
        assert rows == per_node_mipr(s, t_max=200.0, n_steps=20)

    @pytest.mark.parametrize("fault, status", [
        ("raise", "ConvergenceFailure"),
        ("nan", "ValueError"),  # H rejected as not finite
        ("zero", "ValueError"),  # the norm vanishes at the first step
    ])
    def test_node_failure_stays_at_node(self, monkeypatch, fault, status):
        s = spec(lo=0.2, hi=0.8, n=4, L=10)
        clean = mipr_map(s, t_max=5.0, n_steps=20)
        bad = clean[9]
        build, step = sweep.build_realspace, sweep._step_propagator

        def faulty_build(params):
            H = build(params)
            if (params.t0, params.g1) == (bad.t0, bad.gbar):
                if fault == "raise":
                    raise ConvergenceFailure("injected")
                if fault == "nan":
                    H[0, 1] = np.nan
                if fault == "zero":
                    H[:] = 0.0
            return H

        def faulty_step(H, times):
            return np.zeros_like(H) if not H.any() else step(H, times)

        monkeypatch.setattr(sweep, "build_realspace", faulty_build)
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
        # strong skin point: OBC spectrum differs visibly from PBC loop
        assert np.abs(np.sort_complex(ov.pbc)
                      - np.sort_complex(ov.obc)).max() > 0.1
