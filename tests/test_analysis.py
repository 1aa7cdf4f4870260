"""Analysis tests: weighted norms, the estimate verifiers, the commutator
constant campaigns, kernel checks, and the transform identity battery."""

import numpy as np
import pytest

from amp_sheet.analysis import (
    WeightedNormSpec,
    apply_linearized,
    estimate_commutator_constant,
    kernel_commutator,
    lambda_kernel_check,
    random_trig_field,
    sup_sobolev_norm,
    verify_energy_estimate,
    verify_forcing_bound,
    verify_hilbert_identities,
    verify_phitt_estimate,
    verify_second_derivative_estimate,
    verify_tame_estimate,
    weighted_l2_norm,
    xm_norm,
    ym_norm,
)
from amp_sheet.operators import CauchyData, FieldSeries, Trajectory, bump_window
from amp_sheet.solver import SimConfig, solve_linearized
from amp_sheet.spectral import (
    SpectralField,
    TorusGrid,
    cosine,
    hilbert,
    sine,
    sobolev_norm,
    zeros,
)

from _oracles import (
    apply_linearized_alt,
    commutator_vh,
    kernel_commutator_hv,
    random_trig_field_scalar,
)


GRID = TorusGrid(32)


def window_trajectory(grid, gamma=1.0, dt=1e-3, t0=-1.0, t1=1.5,
                      center=0.75, width=0.25, profile=None):
    """phi'(t) = w(t) X with a smooth compactly supported window, so the
    trace at t <= 0 vanishes identically."""
    if profile is None:
        profile = cosine(grid, 1)
    ts = np.arange(t0, t1 + 1e-12, dt)
    phis, phits = [], []
    for t in ts:
        w, wp, _ = bump_window(t, center, width)
        phis.append(profile * w)
        phits.append(profile * wp)
    return Trajectory(ts, phis, phits)


class TestWeightedNorms:
    def test_frozen_single_mode_value(self):
        # phi(t) = cos x on [0, 1] with gamma = 1, m = 0:
        # integral of e^{-2t} * pi dt = pi (1 - e^{-2}) / 2
        ts = np.arange(0.0, 1.0 + 1e-12, 5e-4)
        series = FieldSeries(ts, [cosine(GRID, 1)] * len(ts))
        spec = WeightedNormSpec(gamma=1.0)
        got = weighted_l2_norm(series, spec, 0) ** 2
        want = np.pi * (1.0 - np.exp(-2.0)) / 2.0
        assert abs(got - want) < 1e-6

    def test_gamma_monotone(self):
        ts = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        series = FieldSeries(ts, [cosine(GRID, 1)] * len(ts))
        vals = [weighted_l2_norm(series, WeightedNormSpec(gamma=g), 1)
                for g in (1.0, 2.0, 4.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_quadrature_order(self):
        spec = WeightedNormSpec(gamma=1.0)
        want = np.pi * (1.0 - np.exp(-2.0)) / 2.0

        def err(dt):
            ts = np.arange(0.0, 1.0 + 1e-12, dt)
            series = FieldSeries(ts, [cosine(GRID, 1)] * len(ts))
            return abs(weighted_l2_norm(series, spec, 0) ** 2 - want)

        order = np.log2(err(4e-3) / err(2e-3))
        assert order > 1.8

    def test_zero_series(self):
        ts = np.linspace(0.0, 1.0, 11)
        series = FieldSeries(ts, [zeros(GRID)] * 11)
        assert weighted_l2_norm(series, WeightedNormSpec(gamma=2.0), 3) == 0.0

    def test_dissipative_gamma_bound(self):
        # gamma ||f||_{L2 gamma} <= ||f_t||_{L2 gamma} for zero-trace f
        traj = window_trajectory(GRID, dt=1e-3)
        for g in (1.0, 2.0, 4.0):
            spec = WeightedNormSpec(gamma=g)
            lhs = g * weighted_l2_norm(Trajectory(traj.times, traj.phi), spec, 1)
            rhs = weighted_l2_norm(Trajectory(traj.times, traj.phit), spec, 1)
            assert lhs <= rhs * (1.0 + 1e-6)

    def test_batched_norms_equal_per_node_loop(self):
        rng = np.random.default_rng(60)
        ts = np.linspace(-0.3, 1.2, 41)
        fields = [random_trig_field(GRID, 6, rng) * float(np.cos(t)) for t in ts]
        series = FieldSeries(ts, fields)
        spec = WeightedNormSpec(gamma=1.5)
        for m in (0, 1, 3):
            vals = np.array([np.exp(-2.0 * 1.5 * t) * sobolev_norm(f, m) ** 2
                             for t, f in zip(ts, fields)])
            want = np.sqrt(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(ts)))
            assert weighted_l2_norm(series, spec, m) == pytest.approx(want, rel=1e-13)
            want = max(sobolev_norm(f, m) for f in fields)
            assert sup_sobolev_norm(series, m) == pytest.approx(want, rel=1e-13)

    def test_sup_norm(self):
        ts = np.linspace(0.0, 1.0, 11)
        fields = [cosine(GRID, 1, float(t)) for t in ts]
        got = sup_sobolev_norm(FieldSeries(ts, fields), 0)
        assert got == pytest.approx(sobolev_norm(cosine(GRID, 1), 0), rel=1e-12)


class TestSolutionNorms:
    def test_xm_monotone_in_m(self):
        traj = window_trajectory(GRID, dt=2e-3)
        spec = WeightedNormSpec(gamma=1.0)
        totals = [xm_norm(traj, spec, m)["total"] for m in (1, 2, 3)]
        assert totals[0] < totals[1] < totals[2]

    def test_xm_zero_trajectory(self):
        ts = np.linspace(-0.5, 1.0, 31)
        traj = Trajectory(ts, [zeros(GRID)] * 31, [zeros(GRID)] * 31)
        out = xm_norm(traj, WeightedNormSpec(gamma=1.0), 2)
        assert out["total"] == 0.0

    def test_zero_trace_enforced(self):
        ts = np.linspace(-0.5, 1.0, 31)
        phis = [cosine(GRID, 1)] * 31  # nonzero for t < 0
        traj = Trajectory(ts, phis, [zeros(GRID)] * 31)
        with pytest.raises(ValueError):
            xm_norm(traj, WeightedNormSpec(gamma=1.0), 2)
        with pytest.raises(ValueError):
            ym_norm(FieldSeries(ts, phis), WeightedNormSpec(gamma=1.0), 2)

    def test_ym_matches_weighted_norm_on_zero_trace(self):
        traj = window_trajectory(GRID, dt=2e-3)
        series = Trajectory(traj.times, traj.phi)
        spec = WeightedNormSpec(gamma=1.0)
        a = ym_norm(series, spec, 2)
        b = weighted_l2_norm(series, spec, 2)
        assert a == pytest.approx(b, rel=1e-12)


class TestApplyLinearized:
    def test_manufactured_forcing_roundtrip(self):
        # base 0, mu = 1: the linearization is the plain wave operator, so
        # phi' = w(t) cos x must produce g = (w'' + w) cos x up to the
        # centered-difference error of the second time derivative
        traj = window_trajectory(GRID, dt=1e-3, t0=0.0, t1=1.5)
        out = apply_linearized(None, traj, mu=1.0)
        k = len(out.times) // 2
        t = out.times[k]
        w, _, wpp = bump_window(t, 0.75, 0.25)
        want = cosine(GRID, 1, wpp + w)
        err = np.max(np.abs(out.phi[k] - want.coeffs))
        assert err < 5e-3 * max(1.0, abs(wpp))

    def test_zero_trajectory_gives_zero(self):
        ts = np.linspace(0.0, 1.0, 21)
        traj = Trajectory(ts, [zeros(GRID)] * 21, [zeros(GRID)] * 21)
        out = apply_linearized(None, traj, mu=1.0)
        assert np.max(np.abs(out.phi)) == 0.0

    def test_batched_equals_per_node_loop(self):
        # a time-dependent base and more interior nodes than one kernel
        # block, against the composed oracle node by node
        rng = np.random.default_rng(61)
        ts = np.linspace(0.0, 1.5, 151)
        b0, b1 = random_trig_field(GRID, 4, rng, amplitude=0.05), random_trig_field(GRID, 4, rng)
        base = Trajectory(ts, [b0 + b1 * (0.01 * float(t)) for t in ts], [zeros(GRID)] * len(ts))
        profile = random_trig_field(GRID, 6, rng)
        traj = Trajectory(ts, [profile * float(np.sin(3.0 * t)) for t in ts],
                          [zeros(GRID)] * len(ts))
        out = apply_linearized(base, traj, mu=1.2)
        assert len(out) == len(ts) - 2
        phi, dt = traj.phi, ts[1] - ts[0]
        for i, row in enumerate(out.phi, start=1):
            phitt = (phi[i - 1] - 2.0 * phi[i] + phi[i + 1]) / dt**2
            want = phitt - apply_linearized_alt(base.phis[i], traj.phis[i], 1.2).coeffs
            assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))


class TestEnergyEstimate:
    def test_zero_solution_passes(self):
        ts = np.linspace(-0.5, 1.0, 61)
        traj = Trajectory(ts, [zeros(GRID)] * 61, [zeros(GRID)] * 61)
        rep = verify_energy_estimate(None, traj, mu=1.0, delta=0.9, gamma=2.0)
        assert rep.passed
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_window_solution_gamma_sweep(self):
        traj = window_trajectory(GRID, dt=2e-3)
        for g in (2.0, 4.0, 8.0):
            rep = verify_energy_estimate(None, traj, mu=1.0, delta=0.9, gamma=g)
            assert rep.passed, f"gamma={g}: ratio {rep.ratio}"
            assert rep.ratio <= 1.0

    def test_scaling_neutrality(self):
        # both sides are quadratic, so scaling the solution by 10 leaves
        # the ratio unchanged
        traj = window_trajectory(GRID, dt=2e-3)
        big = Trajectory(traj.times, 10.0 * traj.phi, 10.0 * traj.phit)
        r1 = verify_energy_estimate(None, traj, mu=1.0, delta=0.9, gamma=2.0)
        r2 = verify_energy_estimate(None, big, mu=1.0, delta=0.9, gamma=2.0)
        assert r1.ratio == pytest.approx(r2.ratio, rel=1e-9)

    def test_base_margin_precondition(self):
        traj = window_trajectory(GRID, dt=2e-2)
        steep = cosine(GRID, 1, 0.4)  # stability coefficient dips to 0.2
        with pytest.raises(ValueError):
            verify_energy_estimate(steep, traj, mu=1.0, delta=0.9, gamma=2.0)

    def test_report_serializes(self):
        traj = window_trajectory(GRID, dt=5e-3)
        rep = verify_energy_estimate(None, traj, mu=1.0, delta=0.9, gamma=2.0)
        blob = rep.to_json()
        assert '"estimate_id"' in blob and '"ratio"' in blob


class TestTameEstimate:
    BASE = cosine(TorusGrid(64), 1, 0.02) + cosine(TorusGrid(64), 4, 0.005)

    def cfg(self):
        return SimConfig(mu=1.0, delta=0.8, grid_n=64, galerkin_N=21,
                         dt=4e-3, t_final=0.8, gamma=2.0)

    def g_series(self):
        g64 = TorusGrid(64)
        profile = cosine(g64, 1, 0.5) + sine(g64, 3, 0.3)
        ts = np.arange(0.0, 0.8 + 1e-12, 4e-3)
        return FieldSeries(ts, [profile * bump_window(t, 0.4, 0.15)[0] for t in ts])

    def test_zero_forcing_trivial(self):
        g64 = TorusGrid(64)
        ts = np.arange(0.0, 0.8 + 1e-12, 4e-3)
        g = FieldSeries(ts, [zeros(g64)] * len(ts))
        rep = verify_tame_estimate(self.BASE, g, self.cfg(), m=1)
        assert rep.passed and rep.lhs == 0.0

    def test_constant_bounded_over_orders(self):
        reps = [verify_tame_estimate(self.BASE, self.g_series(), self.cfg(), m=m)
                for m in (1, 2)]
        for rep in reps:
            assert rep.passed
            assert np.isfinite(rep.ratio) and rep.ratio > 0.0
        # tame structure: the empirical constant must not explode with m
        assert reps[1].ratio <= 10.0 * reps[0].ratio
        assert reps[0].extras["min_base_stability"] > 0.4


class TestPhittEstimate:
    def test_constant_close_to_wave_speed(self):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=2e-3, t_final=0.8, gamma=2.0)
        ts = np.arange(0.0, 0.8 + 1e-12, 2e-3)
        g = FieldSeries(ts, [cosine(GRID, 1, bump_window(t, 0.4, 0.15)[0]) for t in ts])
        traj, _ = solve_linearized(cfg, forcing=g)
        rep = verify_phitt_estimate(None, traj, g, mu=1.0, gamma=2.0, m=2)
        assert rep.passed
        # with base 0 the bound reduces to the wave equation where the
        # sharp constant is max(1, |mu|) = 1
        assert 0.0 < rep.ratio <= 1.5


class TestSecondDerivativeEstimate:
    def make_series(self, profile, center=0.5):
        ts = np.arange(0.0, 1.0 + 1e-12, 2e-3)
        return FieldSeries(ts, [profile * bump_window(t, center, 0.2)[0] for t in ts])

    def test_zero_argument(self):
        ts = np.arange(0.0, 1.0 + 1e-12, 2e-3)
        zero = FieldSeries(ts, [zeros(GRID)] * len(ts))
        rep = verify_second_derivative_estimate(
            self.make_series(cosine(GRID, 1)), zero, gamma=1.0, m=2)
        assert rep.passed and rep.lhs == 0.0

    def test_swap_symmetry(self):
        a = self.make_series(cosine(GRID, 1), center=0.4)
        b = self.make_series(sine(GRID, 2, 0.7), center=0.6)
        r1 = verify_second_derivative_estimate(a, b, gamma=1.0, m=2)
        r2 = verify_second_derivative_estimate(b, a, gamma=1.0, m=2)
        assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)
        assert r1.passed and r2.passed

    def test_half_horizon_constant_recorded(self):
        a = self.make_series(cosine(GRID, 1))
        b = self.make_series(sine(GRID, 2))
        rep = verify_second_derivative_estimate(a, b, gamma=1.0, m=1)
        assert "half_horizon_constant" in rep.extras
        assert np.isfinite(rep.extras["half_horizon_constant"])


class TestCommutatorCampaigns:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate_commutator_constant("A1_comm_1", 0.5, samples=2, seed=0)
        with pytest.raises(ValueError):
            estimate_commutator_constant("A2", 0, samples=2, seed=0)
        with pytest.raises(ValueError):
            estimate_commutator_constant("A4_comm_4", (2, 3), samples=2, seed=0)
        with pytest.raises(ValueError):
            estimate_commutator_constant("no_such_lemma", 1.0, samples=2, seed=0)

    def test_small_campaign_drift_free(self):
        rep = estimate_commutator_constant("A1_comm_1", 1.0, samples=12, seed=3,
                                           n_lo=64, n_hi=128)
        assert rep.passed
        # the draws are band-limited below both cutoffs, so the two grids
        # see the same functions and the sup can drift only by roundoff
        assert rep.extras["resolution_drift"] < 1e-12
        assert 0.0 < rep.ratio < 10.0

    def test_parallel_matches_serial(self):
        # more than two blocks, the last one partial
        from amp_sheet.analysis import _SAMPLE_BLOCK
        kw = dict(samples=2 * _SAMPLE_BLOCK + 3, seed=11, n_lo=64, n_hi=128)
        serial = estimate_commutator_constant("A2", 2, jobs=1, **kw)
        parallel = estimate_commutator_constant("A2", 2, jobs=2, **kw)
        assert serial.ratio == parallel.ratio
        for key in ("sup_lo", "sup_hi", "resolution_drift"):
            assert serial.extras[key] == parallel.extras[key]

    def test_block_equals_one_field_per_sample(self):
        # every lemma on a stacked block gives, bitwise, the ratios of its
        # samples evaluated one SpectralField pair at a time
        from amp_sheet.analysis import _LEMMAS, _campaign_draw, _ratio
        from amp_sheet.spectral import regrid
        params = {"s": 1.0, "m": 2, "mp": (2, 1), "mk": (2, 2)}
        children = np.random.SeedSequence(5).spawn(5)
        sizes = (64, 128)
        for lemma, (fn, kind) in _LEMMAS.items():
            param = params[kind]
            block = _campaign_draw(lemma, param, children, 10, sizes, 2.0)
            assert block.shape == (5, 2)
            for child, row in zip(children, block):
                rng = np.random.default_rng(child)
                v = random_trig_field(TorusGrid(64), 10, rng)
                f = random_trig_field(TorusGrid(64), 10, rng)
                for n, got in zip(sizes, row):
                    want = _ratio(*fn(regrid(v, TorusGrid(n)), regrid(f, TorusGrid(n)), param))
                    assert got == want, (lemma, n)

    def test_one_draw_equals_scalar_draws(self):
        # coefficients bitwise equal to the per-mode scalar draws, and the
        # generator left in the same state
        for n, kmax, decay, amplitude in ((256, 42, 2.0, 1.0), (32, 4, 2.0, 0.02),
                                          (64, 20, 1.5, 3.0), (16, 0, 2.0, 1.0)):
            for seed in range(4):
                r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
                want = random_trig_field_scalar(TorusGrid(n), kmax, r1, decay, amplitude)
                got = random_trig_field(TorusGrid(n), kmax, r2, decay, amplitude)
                assert got.real_flag
                assert got.coeffs.tobytes() == want.coeffs.tobytes()
                assert r2.bit_generator.state == r1.bit_generator.state
        with pytest.raises(ValueError):
            random_trig_field(TorusGrid(16), 8, np.random.default_rng(0))

    def test_constant_commutes_to_zero(self):
        # [H; c] = 0 for constant c, so the quotient never moves off zero
        from amp_sheet.analysis import _hilbert_commutator
        from amp_sheet.spectral import from_modes
        c = from_modes(GRID, {0: 2.0 * np.pi * 1.7}, real_flag=True)
        f = random_trig_field(GRID, 5, np.random.default_rng(0))
        out = _hilbert_commutator(c, f)
        assert np.max(np.abs(out.coeffs)) < 1e-13


class TestKernelRoute:
    def test_matches_transform_route(self):
        rng = np.random.default_rng(7)
        v = random_trig_field(GRID, 5, rng)
        f = random_trig_field(GRID, 5, rng)
        assert lambda_kernel_check(v, f) < 1e-12

    def test_one_sided_pair_is_exact_zero(self):
        # when v and f share the sign of every mode, sgn l - sgn k = 0 on
        # every contributing pair, so the commutator vanishes identically
        from amp_sheet.spectral import from_modes
        v = from_modes(GRID, {2: 1.0 + 0.5j}, real_flag=False)
        f = from_modes(GRID, {3: 2.0 - 1.0j}, real_flag=False)
        out = kernel_commutator(v, f)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_matches_kernel_oracle_on_complex_fields(self):
        # the (k, l) table against the term-by-term kernel sum
        rng = np.random.default_rng(19)
        mid = GRID.n // 2 - 1
        for _ in range(3):
            v, f = (SpectralField(GRID, np.pad(z, mid - 7)) for z in
                    rng.standard_normal((2, 15)) + 1j * rng.standard_normal((2, 15)))
            out = kernel_commutator(v, f)
            assert not out.real_flag
            cv, cf = ({int(k): x.coeff(int(k)) for k in GRID.modes} for x in (v, f))
            ref = kernel_commutator_hv(cv, cf, mid)
            assert max(abs(out.coeff(k) - ref[k]) for k in ref) < 1e-13

    def test_kernel_antisymmetry(self):
        for k in (-3, -1, 0, 2, 5):
            for l in (-4, 0, 1, 6):
                lam = 1j * (np.sign(l) - np.sign(k))
                lam_swapped = 1j * (np.sign(k) - np.sign(l))
                assert lam == -lam_swapped

    def test_bandwidth_precondition(self):
        rng = np.random.default_rng(1)
        v = random_trig_field(GRID, 10, rng)
        f = random_trig_field(GRID, 10, rng)
        with pytest.raises(ValueError):
            kernel_commutator(v, f)  # 10 + 10 > 32/2 - 1


class TestIdentityBattery:
    def test_full_battery_passes(self):
        rep = verify_hilbert_identities(samples=25, grid_n=64, seed=0)
        assert rep["passed"]
        for name, defect in rep["identities"].items():
            assert defect < rep["tolerance"], name

    def test_product_identity_spot_check(self):
        # H[fg - H f H g] = f H g + g H f on a concrete pair
        f = cosine(GRID, 1) + sine(GRID, 3, 0.5)
        g = cosine(GRID, 2, 0.8)
        from amp_sheet.spectral import pointwise_product
        lhs = hilbert(pointwise_product(f, g)
                      - pointwise_product(hilbert(f), hilbert(g)))
        rhs = pointwise_product(f, hilbert(g)) + pointwise_product(g, hilbert(f))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12

    def test_commutator_adjoint_spot_check(self):
        # ([h; H] f, g) = (f, [h; H] g)
        from amp_sheet.spectral import inner_product
        rng = np.random.default_rng(4)
        h = random_trig_field(GRID, 4, rng)
        f = random_trig_field(GRID, 4, rng)
        g = random_trig_field(GRID, 4, rng)
        lhs = inner_product(commutator_vh(h, f), g)
        rhs = inner_product(f, commutator_vh(h, g))
        assert abs(lhs - rhs) < 1e-12


class TestForcingBound:
    def test_zero_data_trivial(self):
        data = CauchyData(zeros(GRID), zeros(GRID))
        rep = verify_forcing_bound(data, mu=1.0, delta=0.9, nu=6)
        assert rep.passed
        assert all(v == 0.0 for v in rep.extras["values"])

    def test_single_mode_scaling(self):
        data = CauchyData(cosine(GRID, 1, 0.1), zeros(GRID))
        rep = verify_forcing_bound(data, mu=1.0, delta=0.75, nu=8)
        assert rep.passed
        assert 0.95 <= rep.ratio <= 2.2  # ratio carries the log-log order
        ratios = rep.extras["horizon_shrink_ratios"]
        assert all(r <= 0.85 for r in ratios)
