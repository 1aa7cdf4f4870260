"""Analysis tests: weighted norms, the estimate verifiers, the commutator
constant campaigns, kernel checks, and the transform identity battery."""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from amp_sheet.analysis import (
    WeightedNormSpec,
    apply_linearized,
    estimate_commutator_constant,
    estimate_commutator_constants,
    kernel_commutator,
    lambda_kernel_check,
    random_trig_field,
    sup_sobolev_norm,
    verify_energy_estimate,
    verify_energy_estimates,
    verify_forcing_bound,
    verify_hilbert_identities,
    verify_phitt_estimate,
    verify_second_derivative_estimate,
    verify_tame_estimate,
    verify_tame_estimates,
    weighted_l2_norm,
    xm_norm,
    ym_norm,
)
from amp_sheet.operators import CauchyData, FieldSeries, Trajectory, bump_window
from amp_sheet.solver import SimConfig, field_evaluator, solve_linearized
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
    LEMMA_ORACLES,
    apply_linearized_alt,
    commutator_vh,
    direct_energy_sides,
    direct_phitt_sides,
    direct_second_derivative_sides,
    direct_tame_sides,
    hilbert_identities_per_sample,
    kernel_commutator_hv,
    random_trig_field_scalar,
)


GRID = TorusGrid(32)


def serialized(report):
    """The report as the command line writes it: its fields as JSON."""
    return json.dumps(asdict(report), sort_keys=True, default=float)


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

    def test_series_base_must_cover_the_mesh(self):
        # a base series that ends at t = 0.5 is not extrapolated to the
        # trajectory's interior nodes up to t = 0.95
        ts = np.linspace(0.0, 1.0, 21)
        traj = Trajectory(ts, [cosine(GRID, 1, float(t)) for t in ts], [zeros(GRID)] * 21)
        short = Trajectory(ts[:11], [cosine(GRID, 2, 0.01)] * 11)
        with pytest.raises(ValueError, match="series covers"):
            apply_linearized(short, traj, mu=1.0)
        covering = Trajectory(ts, [cosine(GRID, 2, 0.01)] * 21)
        assert np.all(np.isfinite(apply_linearized(covering, traj, mu=1.0).phi))

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

    @pytest.mark.parametrize("n", [32, 128])
    def test_frozen_base_is_synthesized_as_one_row(self, n, monkeypatch):
        # a base frozen in time is synthesized once per block, as one row,
        # and g keeps the bits of that base broadcast over the block (here
        # through a callable source), on the table and the FFT path
        import amp_sheet.operators as operators
        grid = TorusGrid(n)
        rng = np.random.default_rng(62)
        ts = np.linspace(0.0, 1.5, 151)  # 149 interior nodes: three blocks
        profile = random_trig_field(grid, 6, rng)
        traj = Trajectory(ts, [profile * float(np.sin(3.0 * t)) for t in ts])
        for base in (random_trig_field(grid, 4, rng, amplitude=0.05), None):
            coeffs = zeros(grid).coeffs if base is None else base.coeffs
            broadcast = apply_linearized(
                lambda t, c=coeffs: np.broadcast_to(c, (len(t), n - 1)), traj, 1.2)
            shapes = []
            real = operators._plan

            def counted(n, K, linearized=False, real=real):
                plan = real(n, K, linearized)
                # a transform that records the rows it is applied to
                return plan._replace(base=operators._FftTransform(
                    lambda x: shapes.append(x.shape) or x @ plan.base, plan.base.shape))

            monkeypatch.setattr(operators, "_plan", counted)
            frozen = apply_linearized(base, traj, 1.2)
            monkeypatch.undo()
            assert np.array_equal(frozen.phi, broadcast.phi)
            assert shapes == [(1, 1, n - 2)] * 3  # _base_weights of one row


def test_weighted_norm_spec_rejects_nan_gamma():
    with pytest.raises(ValueError, match="gamma"):
        WeightedNormSpec(float("nan"))


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

    def test_sweep_equals_one_gamma_at_a_time(self, monkeypatch):
        # one reconstruction of g serves every gamma, report for report
        import amp_sheet.analysis as analysis
        rng = np.random.default_rng(71)
        base = random_trig_field(GRID, 4, rng, amplitude=0.02)
        traj = window_trajectory(GRID, dt=4e-3, t0=-0.5, profile=random_trig_field(GRID, 4, rng))
        gammas = [2.0, 4.0, 8.0, 16.0]
        single = [serialized(verify_energy_estimate(base, traj, 1.0, 0.9, g)) for g in gammas]
        calls = []
        real = analysis.apply_linearized

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(analysis, "apply_linearized", counted)
        reports = verify_energy_estimates(base, traj, 1.0, 0.9, gammas)
        assert [serialized(r) for r in reports] == single
        assert len(calls) == 1
        with pytest.raises(ValueError, match="gamma"):
            verify_energy_estimates(base, traj, 1.0, 0.9, [2.0, 0.5])
        assert len(calls) == 1

    def test_empty_sweep_rejected_before_any_work(self, monkeypatch):
        import amp_sheet.analysis as analysis
        for name in ("require_margin", "apply_linearized"):
            monkeypatch.setattr(analysis, name, None)
        traj = window_trajectory(GRID, dt=5e-3)
        with pytest.raises(ValueError, match="need at least one gamma"):
            verify_energy_estimates(None, traj, 1.0, 0.9, [])

    def test_report_serializes(self):
        traj = window_trajectory(GRID, dt=5e-3)
        rep = verify_energy_estimate(None, traj, mu=1.0, delta=0.9, gamma=2.0)
        blob = serialized(rep)
        assert '"estimate_id"' in blob and '"ratio"' in blob
        assert rep.seed is None and '"seed": null' in blob


@pytest.mark.parametrize("verify", [
    verify_energy_estimate, verify_energy_estimates, verify_tame_estimate,
    verify_tame_estimates, verify_phitt_estimate,
    verify_second_derivative_estimate, verify_forcing_bound,
], ids=lambda fn: fn.__name__)
def test_deterministic_verifier_takes_no_seed(verify):
    # they draw no random numbers: a seed is rejected when the call binds
    with pytest.raises(TypeError, match="unexpected keyword argument 'seed'"):
        verify(seed=0)


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

    def test_sweep_equals_one_m_at_a_time(self):
        reps = verify_tame_estimates(self.BASE, self.g_series(), self.cfg(), [3, 1, 2])
        assert [r.params["m"] for r in reps] == [3, 1, 2]
        for rep in reps:
            one = verify_tame_estimate(self.BASE, self.g_series(), self.cfg(), rep.params["m"])
            assert serialized(rep) == serialized(one)

    def test_base_margin_precondition(self, monkeypatch):
        # the base must keep delta/2, as in the energy estimate: cos x of
        # amplitude 0.45 leaves mu - 2 (H phi0)_x a minimum of 0.1 < 0.4,
        # which is checked before the linearized solve
        import amp_sheet.analysis as analysis

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the base margin was checked")

        monkeypatch.setattr(analysis, "solve_linearized", no_solve)
        cfg = SimConfig(mu=1.0, delta=0.8, grid_n=32, galerkin_N=8, dt=4e-3,
                        t_final=0.2, gamma=2.0)
        with pytest.raises(ValueError, match="min 0.1 < 0.4"):
            verify_tame_estimates(cosine(GRID, 1, 0.45), cosine(GRID, 1), cfg, [1])

    def test_sweep_rejects_m_below_one_before_solving(self, monkeypatch):
        import amp_sheet.analysis as analysis
        monkeypatch.setattr(analysis, "solve_linearized", None)
        with pytest.raises(ValueError, match="m must be at least 1"):
            verify_tame_estimates(self.BASE, self.g_series(), self.cfg(), [2, 0])
        with pytest.raises(ValueError, match="need at least one m"):
            verify_tame_estimates(self.BASE, self.g_series(), self.cfg(), [])


class TestPhittEstimate:
    def test_constant_close_to_wave_speed(self):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=2e-3, t_final=0.8, gamma=2.0)
        ts = np.arange(0.0, 0.8 + 1e-12, 2e-3)
        g = FieldSeries(ts, [cosine(GRID, 1, bump_window(t, 0.4, 0.15)[0]) for t in ts])
        traj, _ = solve_linearized(cfg, forcing=g)
        rep = verify_phitt_estimate(None, traj, g, gamma=2.0, m=2)
        assert rep.passed
        # with base 0 the bound reduces to the wave equation where the
        # sharp constant is max(1, |mu|) = 1
        assert 0.0 < rep.ratio <= 1.5

    def test_forcing_must_cover_the_mesh(self):
        # a forcing series over [0, 0.4] is not extrapolated to the
        # trajectory's mesh [0, 0.8]: it raises instead of verifying the
        # bound against a forcing nobody gave
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=2e-3, t_final=0.8, gamma=2.0)
        ts = np.arange(0.0, 0.8 + 1e-12, 2e-3)
        g = FieldSeries(ts, [cosine(GRID, 1, np.sin(3.0 * t)) for t in ts])
        traj, _ = solve_linearized(cfg, forcing=g)
        half = FieldSeries(ts[:201], g.phi[:201])
        with pytest.raises(ValueError, match="series covers"):
            verify_phitt_estimate(None, traj, half, gamma=2.0, m=2)
        with pytest.raises(ValueError, match="series covers"):
            verify_phitt_estimate(half, traj, None, gamma=2.0, m=2)


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


def counting(monkeypatch, name):
    """Patch analysis.`name` with a wrapper that counts its calls; returns
    the list the calls append to."""
    import amp_sheet.analysis as analysis
    calls, real = [], getattr(analysis, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(analysis, name, counted)
    return calls


class TestVerifiersTakeEachNormOnce:
    def test_energy_norms_do_not_depend_on_the_gammas(self, monkeypatch):
        # the per-node norms of phi'_t, phi'_x and g, taken once for any sweep
        traj = window_trajectory(GRID, dt=1e-2, t0=-0.5)
        calls = counting(monkeypatch, "sobolev_norm")
        counts = []
        for gammas in ([4.0], [2.0, 4.0, 8.0, 16.0]):
            calls.clear()
            verify_energy_estimates(None, traj, 1.0, 0.9, gammas)
            counts.append(len(calls))
        assert counts == [3, 3]

    def test_second_derivative_formed_once(self, monkeypatch):
        # the half horizon slices the whole window's per-node norms
        ts = np.arange(0.0, 1.0 + 1e-12, 1e-2)
        a = FieldSeries(ts, [cosine(GRID, 1, bump_window(t, 0.4, 0.2)[0]) for t in ts])
        b = FieldSeries(ts, [sine(GRID, 2, bump_window(t, 0.6, 0.2)[0]) for t in ts])
        calls = counting(monkeypatch, "second_derivative")
        verify_second_derivative_estimate(a, b, gamma=1.0, m=2)
        assert len(calls) == 1


class TestVerifiersMatchDirectEvaluation:
    """lhs, rhs and ratio of the four deterministic verifiers against the
    direct evaluation of _oracles: per-node direct_sobolev norms, an
    explicit e^{-2 gamma t} trapezoid, L'' and g rebuilt node by node."""

    @staticmethod
    def assert_sides(lhs, rhs, want_lhs, want_rhs, ratio=None):
        assert lhs == pytest.approx(want_lhs, rel=1e-12, abs=0.0)
        assert rhs == pytest.approx(want_rhs, rel=1e-12, abs=0.0)
        if ratio is not None:
            assert ratio == pytest.approx(want_lhs / want_rhs, rel=1e-12, abs=0.0)

    def test_energy(self):
        rng = np.random.default_rng(71)
        base = random_trig_field(GRID, 4, rng, amplitude=0.02)
        traj = window_trajectory(GRID, dt=1e-2, t0=-0.5, profile=random_trig_field(GRID, 4, rng))
        gammas = [2.0, 4.0, 8.0, 16.0]
        for gamma, rep in zip(gammas, verify_energy_estimates(base, traj, 1.0, 0.9, gammas)):
            self.assert_sides(rep.lhs, rep.rhs, *direct_energy_sides(base, traj, 1.0, 0.9, gamma),
                              rep.ratio)

    def test_tame(self):
        g64 = TorusGrid(64)
        base = cosine(g64, 1, 0.02) + cosine(g64, 4, 0.005)
        cfg = SimConfig(mu=1.0, delta=0.8, grid_n=64, galerkin_N=21, dt=1e-2, t_final=0.8,
                        gamma=2.0)
        ts = np.arange(0.0, 0.8 + 1e-12, 1e-2)
        profile = cosine(g64, 1, 0.5) + sine(g64, 3, 0.3)
        g = FieldSeries(ts, [profile * bump_window(t, 0.4, 0.15)[0] for t in ts])
        traj, _ = solve_linearized(cfg, base=base, forcing=g)
        g_rows = field_evaluator(g, g64)(traj.times)
        for rep in verify_tame_estimates(base, g, cfg, [1, 2, 3]):
            want = direct_tame_sides(base, g_rows, traj, cfg.gamma, rep.params["m"])
            self.assert_sides(rep.lhs, rep.rhs, *want, rep.ratio)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_phitt(self, m):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8, dt=1e-2, t_final=0.8,
                        gamma=2.0)
        base = cosine(GRID, 1, 0.02) + sine(GRID, 2, 0.01)
        ts = np.arange(0.0, 0.8 + 1e-12, 1e-2)
        g = FieldSeries(ts, [cosine(GRID, 1, bump_window(t, 0.4, 0.15)[0]) + sine(GRID, 3, 0.2)
                             for t in ts])
        traj, _ = solve_linearized(cfg, base=base, forcing=g)
        rep = verify_phitt_estimate(base, traj, g, gamma=2.0, m=m)
        g_rows = field_evaluator(g, GRID)(traj.times)
        self.assert_sides(rep.lhs, rep.rhs, *direct_phitt_sides(base, traj, g_rows, 2.0, m),
                          rep.ratio)

    @pytest.mark.parametrize("m", [1, 2])
    def test_second_derivative_both_constants(self, m):
        ts = np.arange(0.0, 1.0 + 1e-12, 1e-2)
        rng = np.random.default_rng(9)
        a, b = (FieldSeries(ts, [profile * bump_window(t, center, 0.2)[0] for t in ts])
                for profile, center in ((random_trig_field(GRID, 4, rng), 0.4),
                                        (random_trig_field(GRID, 4, rng), 0.6)))
        rep = verify_second_derivative_estimate(a, b, gamma=1.5, m=m)
        self.assert_sides(rep.lhs, rep.rhs, *direct_second_derivative_sides(a, b, 1.5, m),
                          rep.ratio)
        lhs, rhs = direct_second_derivative_sides(a, b, 1.5, m, stop=len(ts) // 2 + 1)
        assert rep.extras["half_horizon_constant"] == pytest.approx(lhs / rhs, rel=1e-12, abs=0.0)


@pytest.fixture
def recording_shares(monkeypatch):
    """The shares of each campaign fanned out while the test runs: one list
    per campaign, holding each process's share as the sample indices of
    each of its blocks.  A stand-in fan-out records them and evaluates
    every share in this process, so no child is ever forked."""
    from amp_sheet import analysis
    fanouts = []

    def in_process(fn, shares):
        fanouts.append([[[seq.spawn_key[-1] for seq in args[1]] for args in share]
                        for share in shares])
        return [[fn(*args) for args in share] for share in shares]

    monkeypatch.setattr(analysis, "_fan_out", in_process)
    return fanouts


def share_blocks(fanouts):
    """The block count of each share, one list per campaign."""
    return [[len(share) for share in fanout] for fanout in fanouts]


@pytest.fixture
def block_sizes(monkeypatch):
    """The sample count of each campaign block, in order.  A stand-in block
    records it and reports a ratio of 1 for every sample, so no field is
    drawn."""
    from amp_sheet import analysis
    sizes = []

    def recorded(lemmas, seed_seqs, *rest):
        sizes.append(len(seed_seqs))
        return {lemma: np.ones((len(seed_seqs), 2)) for lemma, _ in lemmas}

    monkeypatch.setattr(analysis, "_campaign_block", recorded)
    return sizes


#: a non-canonical parameter for every lemma: other products of v with
#: images of f than the canonical ones form
OTHER_LEMMA_PARAMS = {"A1_comm_1": 1.5, "A1_comm_2": 1.5, "A1_comm_3": 1.5, "A2": 3,
                      "A3": (3, 2), "A4_prod": 3, "A4_comm_4": (3, 1), "A4_comm_5": (3, 1),
                      "A5": 3}


class TestCommutatorCampaigns:
    @pytest.mark.parametrize("n_lo", [4, 5])
    def test_band_of_zero_modes_rejected(self, n_lo):
        # below 6 points the draws are banded to n_lo // 6 = 0 modes: every
        # sample is the zero field, and every sup a vacuous 0
        with pytest.raises(ValueError, match="n_lo"):
            estimate_commutator_constants({"A2": None}, samples=3, seed=0,
                                          n_lo=n_lo, n_hi=8)
        rep = estimate_commutator_constant("A2", None, samples=3, seed=0, n_lo=6, n_hi=8)
        assert rep.params["kmax"] == 1 and rep.extras["sup_hi"] > 0.0

    def test_round_off_constant_fails(self):
        # banded to one mode (n_lo < 12), A1_comm_3's lhs vanishes identically:
        # a sup of round-off (1.95e-16) that drifts by nothing is no constant
        rep = estimate_commutator_constant("A1_comm_3", None, samples=10, seed=1,
                                           n_lo=6, n_hi=8)
        assert rep.extras["sup_hi"] < 1e-12 and rep.extras["resolution_drift"] == 0.0
        assert rep.passed is False
        rep = estimate_commutator_constant("A1_comm_3", None, samples=10, seed=1,
                                           n_lo=12, n_hi=24)
        assert rep.extras["sup_hi"] > 1e-3 and rep.passed is True

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate_commutator_constant("A1_comm_1", 0.5, samples=2, seed=0)
        with pytest.raises(ValueError):
            estimate_commutator_constant("A2", 0, samples=2, seed=0)
        with pytest.raises(ValueError):
            estimate_commutator_constant("A4_comm_4", (2, 3), samples=2, seed=0)
        with pytest.raises(ValueError):
            estimate_commutator_constant("no_such_lemma", 1.0, samples=2, seed=0)
        # malformed parameters are ValueErrors too, never TypeError or IndexError
        for lemma, param in (("A3", {}), ("A3", [1]), ("A3", (1, 2, 3)), ("A2", 2.5),
                             ("A2", True), ("A1_comm_1", "1.0"), ("A4_comm_5", ["2", 2])):
            with pytest.raises(ValueError, match="param"):
                estimate_commutator_constant(lemma, param, samples=2, seed=0)
        # n_hi is an even grid size above n_lo
        for n_hi in (32, 16, 65):
            with pytest.raises(ValueError, match="n_hi must be an even grid size"):
                estimate_commutator_constant("A2", 2, samples=2, seed=0, n_lo=32, n_hi=n_hi)
        # None is the lemma's canonical parameter
        rep = estimate_commutator_constant("A3", None, samples=1, seed=0, n_lo=32, n_hi=64)
        assert rep.params["param"] == (2, 1)
        # the plural checks every lemma before it draws, and needs one
        for params in ({"A2": 2, "no_such_lemma": None}, {"A2": 2, "A3": [1]}, {}):
            with pytest.raises(ValueError, match="lemma|param"):
                estimate_commutator_constants(params, samples=2, seed=0)

    def test_small_campaign_drift_free(self):
        rep = estimate_commutator_constant("A1_comm_1", 1.0, samples=12, seed=3,
                                           n_lo=64, n_hi=128)
        assert rep.passed
        # the lemma reads no sup norm, the one grid-dependent quantity, so
        # both resolutions report the same ratios
        assert rep.extras["resolution_drift"] == 0.0
        assert 0.0 < rep.ratio < 10.0
        assert rep.seed == 3  # the campaign is the one seeded report

    @pytest.mark.parametrize("name, value", [("jobs", 0), ("jobs", -3), ("jobs", 2.5),
                                             ("samples", True)])
    def test_jobs_and_samples_are_positive_integers(self, name, value):
        # unchecked, 0 and -3 jobs run serially, 2.5 fails inside the pool
        # with a TypeError, and samples=True runs one sample reported as True
        kw = dict(samples=65, seed=0, n_lo=32, n_hi=64, jobs=2)  # three blocks
        kw[name] = value
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1"):
            estimate_commutator_constants({"A2": None}, **kw)

    def test_parallel_matches_serial(self):
        # three blocks (22, 22 and 23 samples), more than the two workers
        from amp_sheet.analysis import _SAMPLE_BLOCK
        kw = dict(samples=2 * _SAMPLE_BLOCK + 3, seed=11, n_lo=64, n_hi=128)
        serial = estimate_commutator_constant("A2", 2, jobs=1, **kw)
        parallel = estimate_commutator_constant("A2", 2, jobs=2, **kw)
        assert serial.ratio == parallel.ratio
        for key in ("sup_lo", "sup_hi", "resolution_drift"):
            assert serial.extras[key] == parallel.extras[key]

    def test_processes_never_more_than_the_blocks(self, recording_shares):
        # min(jobs, blocks) processes, the caller counted: one share each
        from amp_sheet.analysis import _SAMPLE_BLOCK
        kw = dict(seed=0, n_lo=32, n_hi=64)
        three = estimate_commutator_constant("A2", 2, samples=3 * _SAMPLE_BLOCK, jobs=64, **kw)
        estimate_commutator_constant("A2", 2, samples=3 * _SAMPLE_BLOCK, jobs=2, **kw)
        estimate_commutator_constant("A2", 2, samples=_SAMPLE_BLOCK, jobs=8, **kw)
        assert share_blocks(recording_shares) == [[1, 1, 1], [1, 2], [1]]
        serial = estimate_commutator_constant("A2", 2, samples=3 * _SAMPLE_BLOCK, **kw)
        assert three.extras == serial.extras

    @pytest.mark.parametrize("samples, blocks", [(1, 1), (31, 1), (32, 1), (33, 2),
                                                 (100, 4), (200, 7), (1000, 32)])
    def test_block_layout(self, block_sizes, recording_shares, samples, blocks):
        # ceil(samples / _SAMPLE_BLOCK) contiguous blocks whose sizes differ
        # by at most 1 (100 make 4 of 25, 200 make 7 of 28 or 29), whatever
        # the number of processes
        from amp_sheet.analysis import _SAMPLE_BLOCK
        layouts = []
        for jobs in (1, 2, 3, 64):
            estimate_commutator_constants({"A2": None}, samples, seed=0, n_lo=32, n_hi=64,
                                          jobs=jobs)
            layouts.append(block_sizes[:])
            block_sizes.clear()
        sizes = layouts[0]
        assert all(layout == sizes for layout in layouts)
        assert len(sizes) == blocks and sum(sizes) == samples
        assert max(sizes) <= _SAMPLE_BLOCK and max(sizes) - min(sizes) <= 1
        for fanout in recording_shares:
            assert [len(block) for share in fanout for block in share] == sizes

    @pytest.mark.parametrize("blocks, jobs", [(2, 2), (3, 2), (4, 2), (3, 3), (7, 3),
                                              (7, 4), (32, 5)])
    def test_each_process_takes_one_contiguous_share(self, block_sizes, recording_shares,
                                                     blocks, jobs):
        # the blocks cut into min(jobs, blocks) contiguous shares, one per
        # process, whose block counts differ by at most 1, the caller's first
        from amp_sheet.analysis import _SAMPLE_BLOCK
        samples = blocks * _SAMPLE_BLOCK
        estimate_commutator_constants({"A2": None}, samples, seed=0,
                                      n_lo=32, n_hi=64, jobs=jobs)
        assert len(block_sizes) == blocks
        (counts,) = share_blocks(recording_shares)
        assert len(counts) == min(jobs, blocks) and sum(counts) == blocks
        assert max(counts) - min(counts) <= 1
        (fanout,) = recording_shares
        assert [i for share in fanout for block in share for i in block] == list(range(samples))

    def test_command_draws_once_per_sample(self, recording_shares, monkeypatch, tmp_path):
        # every lemma of `lemma: all` runs on one draw per sample, in one
        # fan-out over the blocks
        from click.testing import CliRunner
        from amp_sheet import analysis
        from amp_sheet.cli import main
        draws, real = [], analysis._trig_bands

        def counted(normals, *args):
            draws.append(normals.shape[:-1])
            return real(normals, *args)

        monkeypatch.setattr(analysis, "_trig_bands", counted)
        samples = 2 * analysis._SAMPLE_BLOCK + 3  # three blocks of 22 or 23
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lemma": "all", "samples": samples,
                                   "n_lo": 32, "n_hi": 64}))
        out = CliRunner().invoke(main, ["commutator-constants", "--config", str(cfg),
                                        "--jobs", "2", "--output", str(tmp_path / "o"),
                                        "--quiet"])
        assert out.exit_code == 0, out.output
        assert share_blocks(recording_shares) == [[1, 2]]
        # each block forms its v and f stacks in one call: 2 rows per sample
        assert [rows for rows, _ in draws] == [2, 2, 2]
        assert sum(np.prod(shape) for shape in draws) == 2 * samples

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_lemma_at_once_equals_one_at_a_time(self, jobs):
        # three blocks (22, 22 and 23 samples), more than the two workers
        from amp_sheet.analysis import _LEMMAS, _SAMPLE_BLOCK
        kw = dict(samples=2 * _SAMPLE_BLOCK + 3, seed=13, n_lo=32, n_hi=64, jobs=jobs)
        every = estimate_commutator_constants(dict.fromkeys(_LEMMAS), **kw)
        assert list(every) == list(_LEMMAS)
        for lemma in _LEMMAS:
            one = estimate_commutator_constant(lemma, None, **kw)
            assert every[lemma].ratio == one.ratio, lemma
            assert every[lemma].extras == one.extras, lemma
            assert every[lemma].params == one.params, lemma

    @pytest.mark.parametrize("params", [None, OTHER_LEMMA_PARAMS], ids=["canonical", "other"])
    def test_block_equals_one_field_per_sample(self, params):
        # every lemma on one stacked block, its products shared, gives bitwise
        # the ratios of its samples evaluated one SpectralField pair at a time
        # by the evaluators that composed their own products.  The block forms
        # its products on the draw grid alone and takes only its sup norms on
        # the finer one too, so its fine column matches the oracle on the
        # regridded pair to round-off (measured: 6.6e-16 relative here,
        # 5.0e-15 over seeds 0-19)
        from amp_sheet.analysis import _LEMMAS, _campaign_block, _ratio
        from amp_sheet.spectral import regrid
        children = np.random.SeedSequence(5).spawn(5)
        fine = TorusGrid(128)
        params = params or {lemma: canonical for lemma, (_, _, canonical) in _LEMMAS.items()}
        block = _campaign_block(tuple(params.items()), children, 10, (64, 128), 2.0)
        assert list(block) == list(_LEMMAS)
        for lemma, param in params.items():
            assert block[lemma].shape == (5, 2)
            for child, (lo, hi) in zip(children, block[lemma]):
                rng = np.random.default_rng(child)
                v = random_trig_field(TorusGrid(64), 10, rng)
                f = random_trig_field(TorusGrid(64), 10, rng)
                assert lo == _ratio(*LEMMA_ORACLES[lemma](v, f, param)), lemma
                want = _ratio(*LEMMA_ORACLES[lemma](regrid(v, fine), regrid(f, fine), param))
                assert abs(hi - want) <= 1e-13 * want, lemma

    @pytest.mark.parametrize("params", [None, OTHER_LEMMA_PARAMS], ids=["canonical", "other"])
    @pytest.mark.parametrize("grid_sizes", [(32, 64), (256, 512)])
    def test_block_partition_invariance(self, grid_sizes, params):
        # the premise that lets the blocks change size without changing an
        # artifact: the transforms, sums and maxima of a block act row by
        # row, so a sample's ratios are bitwise the same in any block
        from amp_sheet.analysis import _LEMMAS, _campaign_block
        params = params or {lemma: canonical for lemma, (_, _, canonical) in _LEMMAS.items()}
        lemmas, kmax = tuple(params.items()), grid_sizes[0] // 6
        children = np.random.SeedSequence(9).spawn(29)
        whole = _campaign_block(lemmas, children, kmax, grid_sizes, 2.0)
        for cut in (1, 8, 13, 28):
            head = _campaign_block(lemmas, children[:cut], kmax, grid_sizes, 2.0)
            tail = _campaign_block(lemmas, children[cut:], kmax, grid_sizes, 2.0)
            for lemma in params:
                joined = np.concatenate([head[lemma], tail[lemma]])
                assert joined.tobytes() == whole[lemma].tobytes(), (lemma, cut)

    @pytest.mark.parametrize("n_lo", [6, 12, 32, 256])
    def test_draw_grid_products_are_exact(self, n_lo):
        # the premise of evaluating a block on its draw grid alone: with the
        # draws banded to n_lo // 6, every product a lemma forms there,
        # regridded, is the product formed on twice the grid, to round-off
        # (measured: 7.4e-16 of its largest coefficient); and the lemmas that
        # read no sup norm drift by exactly nothing
        from amp_sheet.analysis import _LEMMAS, _Pair
        from amp_sheet.spectral import regrid
        kmax, fine = n_lo // 6, TorusGrid(2 * n_lo)
        rng = np.random.default_rng(n_lo)
        v, f = (np.stack([random_trig_field(TorusGrid(n_lo), kmax, rng).coeffs
                          for _ in range(4)]) for _ in range(2))
        coarse = _Pair(v, f, (n_lo,))
        for lemma, (evaluate, _, canonical) in _LEMMAS.items():
            evaluate(coarse, canonical)
        twice = _Pair(regrid(v, fine), regrid(f, fine), (2 * n_lo,))
        assert len(coarse._products) == 9
        for key, product in coarse._products.items():
            want = twice.product(*key)
            gap = np.max(np.abs(regrid(product, fine) - want))
            assert gap <= 1e-14 * np.max(np.abs(want)), key
        sup_free = ("A1_comm_1", "A1_comm_2", "A1_comm_3", "A2", "A3", "A5")
        reps = estimate_commutator_constants(dict.fromkeys(sup_free), samples=10, seed=n_lo,
                                             n_lo=n_lo, n_hi=2 * n_lo)
        assert all(rep.extras["resolution_drift"] == 0.0 for rep in reps.values())

    def test_block_transform_budget(self, monkeypatch):
        # one 8-sample block of the nine canonical lemmas on (256, 512): one
        # synthesis of v and one product per image of f, 9 of them, on the
        # draw grid, and the sup norms of v, f and v_x on each grid (44
        # transforms when every grid formed its own products, 138 when each
        # lemma did)
        from amp_sheet.analysis import _LEMMAS, _campaign_block
        calls = []
        for name in ("rfft", "irfft"):
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        lemmas = tuple((lemma, canonical) for lemma, (_, _, canonical) in _LEMMAS.items())
        children = np.random.SeedSequence(0).spawn(8)
        _campaign_block(lemmas, children, 256 // 6, (256, 512), 2.0)
        assert len(calls) == 1 + 2 * 9 + 3 * 2

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

    @pytest.mark.parametrize("decay, amplitude", [(2.0, 1.0), (-1.5, 0.02)])
    def test_batched_bands_equal_successive_draws(self, decay, amplitude):
        # the bands of a (3, 2 kmax) block of normals are bitwise those of
        # three successive one-field draws from a generator of the same seed
        from amp_sheet.analysis import _trig_bands
        grid, kmax = TorusGrid(64), 10
        for seed in range(4):
            normals = np.random.default_rng(seed).standard_normal((3, 2 * kmax))
            bands = _trig_bands(normals, grid.n, decay, amplitude)
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            for row in bands:
                want = random_trig_field_scalar(grid, kmax, r1, decay, amplitude)
                got = random_trig_field(grid, kmax, r2, decay, amplitude)
                assert row.tobytes() == got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_batch_callers_build_no_field(self, monkeypatch):
        # a campaign block and the identity battery draw and evaluate on
        # arrays alone (14 and 48 fields here when each draw was a field)
        from amp_sheet.analysis import _LEMMAS, _campaign_block
        built, real = [], SpectralField.__post_init__

        def counted(field):
            built.append(1)
            real(field)

        monkeypatch.setattr(SpectralField, "__post_init__", counted)
        lemmas = tuple((lemma, canonical) for lemma, (_, _, canonical) in _LEMMAS.items())
        _campaign_block(lemmas, np.random.SeedSequence(0).spawn(7), 5, (32, 64), 2.0)
        verify_hilbert_identities(5, 32)
        assert built == []

    def test_constant_commutes_to_zero(self):
        # [H; c] = 0 for constant c, so the quotient never moves off zero
        from amp_sheet.analysis import _Pair
        from amp_sheet.spectral import from_modes
        c = from_modes(GRID, {0: 2.0 * np.pi * 1.7}, real_flag=True)
        f = random_trig_field(GRID, 5, np.random.default_rng(0))
        out = _Pair(c.coeffs, f.coeffs, ()).hilbert_commutator()
        assert np.max(np.abs(out)) < 1e-13


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the shares fork only where os.fork exists")
class TestForkedShares:
    """The fan-out with real forked children: three blocks (22, 22 and 23
    samples), one per process at jobs = 3."""

    KW = dict(samples=67, seed=4, n_lo=32, n_hi=64)

    @pytest.fixture
    def failing_blocks(self, monkeypatch):
        """Make every block whose first sample index is in the returned set
        raise ValueError naming that index, in whichever process runs it."""
        from amp_sheet import analysis
        failing, real = set(), analysis._campaign_block

        def block(lemmas, seed_seqs, *rest):
            first = seed_seqs[0].spawn_key[-1]
            if first in failing:
                raise ValueError(f"block at sample {first} fails")
            return real(lemmas, seed_seqs, *rest)

        monkeypatch.setattr(analysis, "_campaign_block", block)
        return failing

    @pytest.mark.parametrize("fails, first", [({22}, 22), ({44}, 44), ({22, 44}, 22),
                                              ({0, 22, 44}, 0)],
                             ids=["first-child", "last-child", "both-children", "caller"])
    def test_first_failing_share_raises(self, failing_blocks, fails, first):
        failing_blocks.update(fails)
        with pytest.raises(ValueError, match=f"block at sample {first} fails"):
            estimate_commutator_constants({"A2": None}, jobs=3, **self.KW)
        assert_no_child_left()

    def test_child_error_exits_2_through_the_cli(self, failing_blocks, tmp_path):
        from click.testing import CliRunner
        from amp_sheet.cli import main
        failing_blocks.add(44)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lemma": "A2", **self.KW}))
        out = CliRunner().invoke(main, ["commutator-constants", "--config", str(cfg),
                                        "--jobs", "2", "--output", str(tmp_path / "o"),
                                        "--quiet"])
        assert out.exit_code == 2, out.output
        assert "block at sample 44 fails" in out.output
        assert_no_child_left()

    def test_child_without_result_raises(self, monkeypatch):
        from amp_sheet import analysis
        parent, real = os.getpid(), analysis._campaign_block

        def block(*args):
            if os.getpid() != parent:
                os._exit(9)
            return real(*args)

        monkeypatch.setattr(analysis, "_campaign_block", block)
        with pytest.raises(RuntimeError, match="exit code 9"):
            estimate_commutator_constants({"A2": None}, jobs=2, **self.KW)
        assert_no_child_left()

    def test_without_fork_every_share_runs_here(self, monkeypatch):
        serial = estimate_commutator_constants({"A2": None, "A5": None}, jobs=1, **self.KW)
        monkeypatch.delattr(os, "fork")
        assert estimate_commutator_constants({"A2": None, "A5": None}, jobs=3,
                                             **self.KW) == serial
        assert_no_child_left()


class TestKernelRoute:
    def test_matches_transform_route(self):
        rng = np.random.default_rng(7)
        v = random_trig_field(GRID, 5, rng)
        f = random_trig_field(GRID, 5, rng)
        assert lambda_kernel_check(v, f) < 1e-12

    def test_field_not_flagged_real_rejected(self):
        # the transform route takes real fields only
        rng = np.random.default_rng(7)
        v = random_trig_field(GRID, 5, rng)
        f = SpectralField(GRID, random_trig_field(GRID, 5, rng).coeffs)
        with pytest.raises(ValueError, match="not flagged real"):
            lambda_kernel_check(v, f)
        with pytest.raises(ValueError, match="not flagged real"):
            lambda_kernel_check(f, v)

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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("samples, grid_n", [(100, 128), (7, 32), (3, 64)])
    def test_batch_matches_per_sample_loop(self, seed, samples, grid_n):
        # the stacks give each coefficient defect bitwise.  The two inner
        # product identities take |z| by numpy's complex abs instead of
        # Python's hypot; each is within 1 ulp of |z|, so at most 2 apart
        got = verify_hilbert_identities(samples, grid_n, seed)["identities"]
        want = hilbert_identities_per_sample(samples, grid_n, seed)
        assert got.keys() == want.keys()
        for key, ref in want.items():
            if key in ("skew_adjoint", "commutator_self_adjoint"):
                assert abs(got[key] - ref) <= 2 * np.spacing(ref), key
            else:
                assert got[key] == ref, key

    @pytest.mark.parametrize("samples", [0, -2, True, 2.5])
    def test_no_samples_rejected(self, samples):
        # an empty battery checks nothing, so it must not report a pass; a
        # bool or a float count is no count either
        with pytest.raises(ValueError, match="need at least one sample"):
            verify_hilbert_identities(samples=samples, grid_n=32)

    @pytest.mark.parametrize("grid_n", [4, 10])
    def test_grid_below_twelve_rejected(self, grid_n):
        # the e_k check reads the modes |k| <= 5, so the band must reach 5
        with pytest.raises(ValueError, match="grid_n must be at least 12"):
            verify_hilbert_identities(samples=3, grid_n=grid_n)
        assert verify_hilbert_identities(samples=3, grid_n=12)["passed"]
        with pytest.raises(ValueError, match="grid size must be even"):
            verify_hilbert_identities(samples=3, grid_n=33)

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
        assert rep.lhs == rep.extras["values"][0]
        assert rep.rhs == sobolev_norm(data.phi0, 9) + sobolev_norm(data.phi1, 8)
        ratios = rep.extras["horizon_shrink_ratios"]
        assert all(r <= 0.85 for r in ratios)
