import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from nhcreutz import dynamics
from nhcreutz.dynamics import (_LOG_NORM_MAX, _evolution_inputs,
                               _step_stack, _trace_arrays)
from nhcreutz import (
    OBC,
    PBC,
    IllConditioned,
    ModelParams,
    OutOfRange,
    Overflow,
    ZeroState,
    build_nhssh,
    build_realspace,
    compacton_support,
    eig,
    initial_state,
    mipr,
    propagate,
)


def reference_mipr(psi, L):
    """The displacement IPR of one state, summed as np.dot sums it."""
    p2 = np.abs(psi) ** 2
    p4 = (p2 / float(p2.sum())) ** 2
    w = (L / 2.0 - np.arange(1, L + 1)) / (L / 2.0)
    return float(np.dot(w, p4[0::2] + p4[1::2]))


def reference_support(psi, fraction=1e-6):
    p2 = np.abs(psi) ** 2
    cells = p2[0::2] + p2[1::2]
    return int(np.sum(cells > fraction * float(cells.max())))


def loop_propagate_eig(H, psi0, t_max, n_steps):
    """Per-time reference for propagate(..., method="eig"): one expansion,
    mat-vec product and norm per time."""
    H, psi0, times = _evolution_inputs(H, psi0, t_max, n_steps, "eig")
    res = eig(H, want_vectors=True)
    V, E = res.right_eigenvectors, res.eigenvalues
    c = np.linalg.solve(V, psi0)
    with np.errstate(divide="ignore"):
        logc = np.log(np.abs(c))
    units, lognorms = [psi0], [0.0]
    for k in range(1, len(times)):
        t = times[k]
        logw = logc + E.imag * t
        shift = float(logw.max())
        w = np.zeros_like(c)
        alive = np.isfinite(logw)
        w[alive] = np.exp(logw[alive] - shift) * np.exp(
            1j * (np.angle(c[alive]) - E.real[alive] * t))
        phi = V @ w
        g = float(np.linalg.norm(phi))
        if g == 0.0:
            raise ZeroState(f"evolved state vanished at t = {t:.6g}")
        lognorm = shift + math.log(g)
        if lognorm > _LOG_NORM_MAX:
            raise Overflow(
                f"state norm exceeded 1e300 at t = {t:.6g}", time=float(t))
        units.append(phi / g)
        lognorms.append(lognorm)
    return _trace_arrays(times, units, lognorms, H.shape[0] // 2)


def assert_expm_equals_plain_step_loop(H, psi, t_max, n_steps, L):
    """propagate(..., method="expm") against one mat-vec product of the
    complex one-step propagator exp(-1j dt H), norm and log per step, bit
    for bit."""
    tr = propagate(H, psi, t_max, n_steps, method="expm")
    U = dynamics._step_propagator(-1j * H, tr.times)
    phi, lognorm = tr.states[:, 0], 0.0
    for k in range(1, n_steps + 1):
        phi = U @ phi
        g = float(np.linalg.norm(phi))
        lognorm += math.log(g)
        phi = phi / g
        assert tr.norms[k] == np.exp(lognorm)
        assert np.array_equal(tr.states[:, k], phi * tr.norms[k])
        assert tr.mipr_series[k] == reference_mipr(phi, L)


def params(tbar=1.0, t0=0.8, gbar=0.4, g0=0.5, L=10, boundary=OBC):
    return ModelParams.from_bars(tbar=tbar, t0=t0, gbar=gbar, g0=g0, L=L,
                                 boundary=boundary)


class TestInitialState:
    def test_default_center_cell(self):
        psi = initial_state(50)
        assert psi[48] == 1.0  # cell 25, a-leg
        assert np.count_nonzero(psi) == 1

    def test_weights_normalized(self):
        psi = initial_state(4, cell=2, weights=(3.0, 4.0j))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
        assert psi[2] == pytest.approx(0.6)
        assert psi[3] == pytest.approx(0.8j)

    def test_errors(self):
        with pytest.raises(OutOfRange):
            initial_state(4, cell=5)
        with pytest.raises(ZeroState):
            initial_state(4, weights=(0.0, 0.0))
        # non-finite weights used to give a state of NaNs
        for weights in ((math.nan, 0.0), (math.inf, 0.0),
                        (1.0, complex(0.0, math.inf))):
            with pytest.raises(ValueError, match="finite"):
                initial_state(4, weights=weights)


class TestMipr:
    def test_single_site_values(self):
        L = 50
        e1 = np.zeros(2 * L)
        e1[0] = 1.0
        assert mipr(e1, L) == pytest.approx(0.96)
        eL = np.zeros(2 * L)
        eL[2 * (L - 1)] = 1.0
        assert mipr(eL, L) == pytest.approx(-1.0)
        mid = np.zeros(2 * L)
        mid[2 * (L // 2 - 1)] = 1.0
        assert mipr(mid, L) == pytest.approx(0.0, abs=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError):
            mipr(np.ones(10), 5)
        with pytest.raises(ZeroState):
            mipr(np.zeros(8), 4)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mipr(np.ones(10), 4)


class TestTraceSeries:
    def test_series_equal_per_state_values(self):
        # seeded random history with a spread of cell supports
        rng = np.random.default_rng(12)
        L, n = 12, 41
        units = rng.normal(size=(n, 2 * L)) + 1j * rng.normal(size=(n, 2 * L))
        units *= rng.random((n, 2 * L)) < rng.random((n, 1))
        units[:, 2 * (L // 2)] += 1.0  # no empty state
        units /= np.linalg.norm(units, axis=1)[:, None]
        times = np.linspace(0.0, 1.0, n)
        tr = _trace_arrays(times, list(units), np.zeros(n), L)
        assert tr.mipr_series.tolist() == [mipr(u, L) for u in units]
        assert tr.mipr_series.tolist() == \
            [reference_mipr(u, L) for u in units]
        assert tr.support_series.tolist() == \
            [compacton_support(u) for u in units]
        assert tr.support_series.tolist() == \
            [reference_support(u) for u in units]
        assert len(set(tr.support_series.tolist())) > 3


class TestCompactonSupport:
    def test_single_cell(self):
        assert compacton_support(initial_state(8, cell=3,
                                               weights=(1.0, 1.0))) == 1

    def test_uniform(self):
        assert compacton_support(np.ones(16)) == 8

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            compacton_support(np.ones(8), fraction=0.0)
        with pytest.raises(ValueError):
            compacton_support(np.ones(8), fraction=1.0)
        with pytest.raises(ZeroState):
            compacton_support(np.zeros(8))

    def test_empty_state(self):
        with pytest.raises(ZeroState):
            compacton_support(np.zeros(0))


class TestPropagate:
    def test_hermitian_norm_conservation(self):
        H = build_realspace(params(gbar=0.0, g0=0.0, L=8))
        tr = propagate(H, initial_state(8), 10.0, 50)
        assert np.abs(tr.norms - 1.0).max() < 1e-9
        assert tr.norms[0] == 1.0
        assert len(tr.times) == 51
        assert tr.states.shape == (16, 51)

    def test_scalar_decay(self):
        kappa = np.array([0.3, 0.3, 0.3, 0.3])
        H = np.diag(-1j * kappa)
        psi = np.full(4, 0.5, dtype=complex)
        tr = propagate(H, psi, 5.0, 40)
        expected = np.exp(-0.3 * tr.times)
        assert np.abs(tr.norms - expected).max() < 1e-9

    def test_methods_agree_random(self):
        rng = np.random.default_rng(9)
        H = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        t1 = propagate(H, psi, 3.0, 30, method="eig")
        t2 = propagate(H, psi, 3.0, 30, method="expm")
        assert np.abs(t1.states - t2.states).max() < 1e-8
        assert np.abs(t1.norms - t2.norms).max() < 1e-8

    def test_auto_steps_like_expm(self):
        # a well-conditioned point (eigenvector condition 2.45): the default
        # route is still the stepper, bit for bit
        H = build_realspace(params(t0=0.8, gbar=0.4, g0=0.5, L=32))
        psi = initial_state(32)
        tr = propagate(H, psi, 20.0, 200)
        ref = propagate(H, psi, 20.0, 200, method="expm")
        for name in ("times", "states", "norms", "mipr_series",
                     "support_series"):
            assert getattr(tr, name).tobytes() == getattr(ref, name).tobytes()

    def test_auto_never_diagonalizes(self, monkeypatch):
        def no_eig(*args, **kwargs):
            raise AssertionError("propagate called eig")

        monkeypatch.setattr(dynamics, "eig", no_eig)
        H = build_realspace(params(L=10))
        tr = propagate(H, initial_state(10), 5.0, 20)
        assert np.isfinite(tr.states).all()
        with pytest.raises(AssertionError):
            propagate(H, initial_state(10), 5.0, 20, method="eig")

    def test_eig_raises_at_defective_h(self):
        # an exceptional flat band, H^2 = 0: no eigenbasis exists, and the
        # expansion must fail instead of returning nan states
        H = build_realspace(params(t0=0.7, gbar=0.7, g0=1.0, L=12))
        with pytest.raises(IllConditioned):
            propagate(H, initial_state(12), 20.0, 200, method="eig")

    def test_efb_two_term_series(self):
        p = params(tbar=1.0, t0=0.7, gbar=0.7, g0=1.0, L=12)
        H = build_realspace(p)
        psi = initial_state(12)
        tr = propagate(H, psi, 20.0, 40)
        hpsi = H @ psi
        for m, t in enumerate(tr.times):
            exact = psi - 1j * t * hpsi
            assert np.abs(tr.states[:, m] - exact).max() < 1e-10

    def test_efb_dark_state(self):
        # (1, -i) cell weights are annihilated by the EFB Hamiltonian
        p = params(tbar=1.0, t0=0.7, gbar=0.7, g0=1.0, L=12)
        H = build_realspace(p)
        psi = initial_state(12, weights=(1.0, -1.0j))
        assert np.abs(H @ psi).max() < 1e-14
        tr = propagate(H, psi, 10.0, 20)
        assert np.abs(tr.states - psi[:, None]).max() < 1e-10

    def test_efb_overlap_strictly_decreasing(self):
        p = params(tbar=1.0, t0=0.9, gbar=0.9, g0=1.0, L=16)
        H = build_realspace(p)
        psi = initial_state(16)
        tr = propagate(H, psi, 15.0, 60)
        units = tr.states / np.linalg.norm(tr.states, axis=0)
        overlap = np.abs(units.conj().T @ units[:, 0])
        assert np.all(np.diff(overlap) < 0)

    def test_dp_overlap_periodic(self):
        # two symmetric flat levels beat with period pi / (2 sqrt(t^2-g^2))
        p = params(t0=1.0, gbar=0.5, g0=0.5, L=20, boundary=PBC)
        H = build_realspace(p)
        period = np.pi / (2.0 * np.sqrt(1.0 - 0.25))
        n_per = 25
        tr = propagate(H, initial_state(20), 4 * period, 4 * n_per)
        units = tr.states / tr.norms[None, :]
        overlap = np.abs(units.conj().T @ units[:, 0])
        for rep in (n_per, 2 * n_per, 3 * n_per, 4 * n_per):
            assert overlap[rep] > 0.99

    def test_expm_equals_plain_step_loop(self):
        H = build_realspace(params(t0=0.3, gbar=0.9, g0=0.2, L=10))
        psi = initial_state(10, weights=(1.0, 0.5j))
        assert_expm_equals_plain_step_loop(H, psi, 12.0, 60, 10)

    def test_purely_imaginary_ladder_steps_complex(self):
        # at t0 = g0 = 0 every entry of H is imaginary, like the chains of
        # the mIPR map, but the ladder keeps the complex exponential and
        # stepping
        H = build_realspace(params(t0=0.0, gbar=0.9, g0=0.0, L=10))
        assert not H.real.any()
        assert_expm_equals_plain_step_loop(H, initial_state(10), 12.0, 60, 10)

    def test_eig_refuses_condition_past_one_over_eps(self):
        # eigenvector condition 8.05e16 > 1/eps: no digit of the expansion
        # is guaranteed (its trace was 3.9e-9 off the stepper, unmarked)
        H = build_realspace(params(t0=0.3, gbar=1.2, g0=0.1, L=32))
        assert eig(H, want_vectors=True).evec_condition >= 1.0 / np.finfo(
            float).eps
        with pytest.raises(IllConditioned, match="eigenvector condition"):
            propagate(H, initial_state(32), 20.0, 200, method="eig")

    def test_eig_equals_per_time_loop(self):
        for bc in (OBC, PBC):
            for t0, gbar, g0 in [(0.3, 0.9, 0.2), (1.2, 0.3, -0.4)]:
                H = build_realspace(params(t0=t0, gbar=gbar, g0=g0, L=10,
                                           boundary=bc))
                psi = initial_state(10, weights=(1.0, 0.5j))
                tr = propagate(H, psi, 12.0, 60, method="eig")
                ref = loop_propagate_eig(H, psi, 12.0, 60)
                for name in ("times", "states", "norms", "mipr_series",
                             "support_series"):
                    assert getattr(tr, name).tobytes() == \
                        getattr(ref, name).tobytes()

    def test_eig_peak_memory_not_above_per_time_loop(self):
        # the all-times expansion frees its (T, 2L) work arrays before the
        # trace is built, so its allocation peak stays at the per-time
        # loop's (about 1.03 MB here; 1.33 MB with them kept alive)
        H = build_realspace(params(t0=0.3, gbar=0.4, g0=0.5, L=32))
        psi = initial_state(32)

        def peak(fn):
            fn()  # warm caches outside the measurement
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ref = peak(lambda: loop_propagate_eig(H, psi, 20.0, 200))
        new = peak(lambda: propagate(H, psi, 20.0, 200, method="eig"))
        assert new <= 1.05 * ref

    def test_eig_overflow_equals_per_time_loop(self):
        H = build_realspace(params(t0=0.0, gbar=4.0, g0=0.0, L=10))
        psi = initial_state(10)
        with pytest.raises(Overflow) as exc:
            propagate(H, psi, 400.0, 20, method="eig")
        with pytest.raises(Overflow) as ref:
            loop_propagate_eig(H, psi, 400.0, 20)
        assert str(exc.value) == str(ref.value)
        assert exc.value.time == ref.value.time

    def test_vanishing_norm_drops_only_its_row(self):
        # expm is never singular, so drive the stepper with a zero
        # propagator directly: that row drops out with math.log's error
        times = np.linspace(0.0, 1.0, 3)
        U = np.stack([np.eye(4, dtype=complex), np.zeros((4, 4), complex)])
        psi = np.full((2, 4), 0.5, dtype=complex)
        steps = list(_step_stack(U, psi, times))
        live, phi, lognorms, failed = steps[0]
        assert list(live) == [0] and list(failed) == [1]
        assert isinstance(failed[1], ValueError)
        assert np.array_equal(phi, psi[:1]) and lognorms == (0.0,)
        assert len(steps) == 2 and steps[1][3] == {}

    def test_overflow_reports_time(self):
        H = np.diag([2.0j] * 4)  # pure gain, e^{2t} blow-up
        with pytest.raises(Overflow) as exc:
            propagate(H, np.ones(4), 400.0, 40)
        assert exc.value.time is not None
        assert 0.0 < exc.value.time <= 400.0

    def test_validation(self):
        H = np.eye(4)
        with pytest.raises(ValueError):
            propagate(H, np.ones(4), -1.0, 10)
        with pytest.raises(ValueError):
            propagate(H, np.ones(4), 1.0, 0)
        with pytest.raises(ValueError):
            propagate(H, np.ones(3), 1.0, 10)
        with pytest.raises(ZeroState):
            propagate(H, np.zeros(4), 1.0, 10)
        with pytest.raises(ValueError):
            propagate(H, np.ones(4), 1.0, 10, method="magic")
        for bad in (np.nan, np.inf, complex(0.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                propagate(H, [bad, 0.0, 0.0, 0.0], 1.0, 10)

    def test_trace_mipr_and_support(self):
        p = params(t0=1.0, gbar=0.0, g0=0.0, L=10)
        H = build_realspace(p)
        tr = propagate(H, initial_state(10), 8.0, 16)
        assert len(tr.mipr_series) == 17
        assert len(tr.support_series) == 17
        # Hermitian flat bands: compact localization, support stays <= 3
        assert max(tr.support_series) <= 3


def mpmath_expm(K, dt, dps=40):
    """exp(dt K) of one matrix K with mpmath's expm at dps digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        E = mpmath.expm(mpmath.mpf(dt) * mpmath.matrix(K.tolist()))
        return np.array(E.tolist(), dtype=complex)


class TestStepPropagator:
    @pytest.mark.parametrize("t0, gbar, g0, L, dt", [
        (0.0, 1.9, 0.0, 8, 1.0),
        (0.0, 1.9, 0.0, 40, 1.0),
        (0.3, 1.2, 0.1, 40, 5.0),
    ])
    def test_chain_stack_matches_40_digit_expm(self, t0, gbar, g0, L, dt):
        # scipy.linalg.expm is 1.5e-13 to 2.1e-13 off at these points
        K = np.stack(build_nhssh(params(t0=t0, gbar=gbar, g0=g0, L=L))).imag
        U = dynamics._step_propagator(K, np.array([0.0, dt]))
        assert U.dtype == np.float64
        # at t0 = g0 = 0 the two chains coincide: one reference serves both
        _, distinct = np.unique(K, axis=0, return_index=True)
        for i in distinct:
            ref = mpmath_expm(K[i], dt)
            assert np.abs(U[i] - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("t0, gbar, g0", [
        (0.3, 1.4, 0.5), (-1.2, 0.7, -0.4), (0.9, -1.1, 0.2), (0.0, 1.9, 0.0)])
    def test_matches_scipy_at_benchmark_step(self, t0, gbar, g0):
        # dt = 0.1 as in the benchmark's mipr tiles (chain pairs at L = 40)
        # and evolve points (ladders at L = 32), where both routes round
        times = np.linspace(0.0, 20.0, 201)
        bars = dict(t0=t0, gbar=gbar, g0=g0)
        for K in (np.stack(build_nhssh(params(**bars, L=40))).imag,
                  -1j * build_realspace(params(**bars, L=32))):
            U = dynamics._step_propagator(K, times)
            ref = scipy.linalg.expm((times[1] - times[0]) * K)
            assert U.dtype == K.dtype
            assert np.abs(U - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("gain, t_max", [
        (1e308, 1.0),  # 1-norm 1e308: halved 1024 times, squared to inf
        (1e300, 1e10),  # dt K itself leaves the float range
    ])
    def test_huge_norm_raises_overflow(self, gain, t_max):
        with pytest.raises(Overflow, match="float range"):
            propagate(np.diag([gain * 1j] * 4), np.ones(4), t_max, 1)
