"""Tests for the smoothed Newton solve and the frequency cutoff."""

import json
from dataclasses import asdict

import numpy as np
import pytest

import amp_sheet.nash_moser as nm
from amp_sheet.nash_moser import (
    IterationConfig,
    IterationReport,
    iterate,
    iterate_auto,
    smooth_cutoff,
)
from amp_sheet.analysis import WeightedNormSpec, ym_norm
from amp_sheet.operators import (
    CauchyData,
    FieldSeries,
    Lifting,
    Trajectory,
    build_lifting,
    lifting_forcing,
)
from amp_sheet.solver import SimConfig, solve_nonlinear
from amp_sheet.spectral import (
    TorusGrid,
    cosine,
    from_modes,
    sine,
    sobolev_norm,
    zeros,
)


GRID = TorusGrid(32)


def small_sim(**kw):
    args = dict(mu=1.0, delta=0.9, grid_n=32, galerkin_N=10,
                dt=2e-3, t_final=0.5, gamma=1.0)
    args.update(kw)
    return SimConfig(**args)


def flip_corrections(monkeypatch):
    """Make iterate apply every correction with the wrong sign, which
    roughly doubles the residual every sweep."""
    cut = nm.smooth_cutoff

    def flipped(obj, theta):
        v = cut(obj, theta)
        return Trajectory(v.times, -v.phi, -v.phit, -v.phitt)

    monkeypatch.setattr(nm, "smooth_cutoff", flipped)


class TestConfig:
    def test_validation(self):
        sim = small_sim()
        with pytest.raises(ValueError):
            IterationConfig(sim=sim, theta0=0.5)
        with pytest.raises(ValueError):
            IterationConfig(sim=sim, theta_growth=1.0)
        with pytest.raises(ValueError):
            IterationConfig(sim=sim, theta_growth=5.0)
        with pytest.raises(ValueError):
            IterationConfig(sim=sim, max_iters=0)
        with pytest.raises(ValueError):
            IterationConfig(sim=sim, residual_tol=0.0)

    @pytest.mark.parametrize("knob", ["theta0", "theta_growth", "residual_tol"])
    def test_nan_knob_is_rejected(self, knob):
        with pytest.raises(ValueError, match=knob):
            IterationConfig(sim=small_sim(), **{knob: float("nan")})

    def test_report_serializes(self):
        rep = IterationReport(residual_norms=[1.0, 0.1], converged=True,
                              iterations=1, metadata={"mu": 1.0})
        blob = json.dumps(asdict(rep), sort_keys=True, default=float)
        assert '"converged": true' in blob


class TestSmoothCutoff:
    def test_sharp_truncation(self):
        f = from_modes(GRID, {1: 1.0, 3: 2.0, 5: 0.5,
                              -1: 1.0, -3: 2.0, -5: 0.5}, real_flag=True)
        out = smooth_cutoff(f, 3.0)
        assert out.coeff(1) == 1.0 and out.coeff(3) == 2.0
        assert out.coeff(5) == 0.0 and out.coeff(-5) == 0.0

    def test_neutral_above_band(self):
        rng = np.random.default_rng(2)
        from amp_sheet.analysis import random_trig_field
        f = random_trig_field(GRID, 8, rng)
        out = smooth_cutoff(f, 8.0)
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_tail_inequality(self):
        # ||S_theta f - f||_{H^m} <= theta^{m-s} ||f||_{H^s} for m <= s
        rng = np.random.default_rng(5)
        from amp_sheet.analysis import random_trig_field
        for theta in (2.0, 4.0, 7.0):
            for m, s in ((1, 3), (0, 2), (2, 2)):
                f = random_trig_field(GRID, 12, rng, decay=1.0)
                lhs = sobolev_norm(smooth_cutoff(f, theta) + f * (-1.0), m)
                rhs = theta ** (m - s) * sobolev_norm(f, s)
                assert lhs <= rhs * (1.0 + 1e-12)

    def test_series_and_trajectory(self):
        ts = np.linspace(0.0, 1.0, 5)
        fields = [cosine(GRID, 5, float(1 + t)) for t in ts]
        series = smooth_cutoff(FieldSeries(ts, fields), 3.0)
        assert np.max(np.abs(series.phi)) == 0.0 and series.phit is None
        traj = Trajectory(ts, fields, fields, fields)
        cut = smooth_cutoff(traj, 3.0)
        assert cut.phitt is not None
        assert np.max(np.abs(cut.phitt)) == 0.0
        kept = smooth_cutoff(traj, 5.0)
        assert all(np.array_equal(a, b) for a, b in ((kept.phi, traj.phi), (kept.phit, traj.phit),
                                                    (kept.phitt, traj.phitt)))

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            smooth_cutoff([1, 2, 3], 2.0)
        with pytest.raises(ValueError):
            smooth_cutoff(cosine(GRID, 1), 0.0)

    def test_nan_theta_rejected(self):
        # NaN fails every comparison: it must not pass as a cutoff that
        # keeps no mode
        with pytest.raises(ValueError, match="theta must be positive"):
            smooth_cutoff(cosine(GRID, 1), float("nan"))


class TestIterate:
    def test_zero_data_converges_immediately(self):
        data = CauchyData(zeros(GRID), zeros(GRID))
        traj, rep = iterate(IterationConfig(sim=small_sim()), data)
        assert rep.converged and rep.iterations == 0
        assert rep.residual_norms == [0.0]
        assert np.max(np.abs(traj.phi)) == 0.0

    def test_small_data_quadratic_convergence(self):
        data = CauchyData(cosine(GRID, 1, 0.01), zeros(GRID))
        cfg = IterationConfig(sim=small_sim())
        traj, rep = iterate(cfg, data)
        assert rep.converged
        assert rep.iterations <= 4
        assert rep.residual_norms[-1] < cfg.residual_tol
        rs = rep.residual_norms
        assert all(b < a for a, b in zip(rs, rs[1:]))
        # Newton contraction: each residual is quadratically small in the
        # previous one (generous factor for the smoothing tail)
        assert rs[1] <= 10.0 * rs[0] ** 2

    def test_matches_direct_solve(self):
        sim = small_sim()
        data = CauchyData(cosine(GRID, 1, 0.01), zeros(GRID))
        traj, rep = iterate(IterationConfig(sim=sim), data)
        ref, _ = solve_nonlinear(sim, data)
        num = sobolev_norm(traj.phi[-1] - ref.phi[-1], 1)
        assert num / sobolev_norm(ref.phi[-1], 1) < 1e-4

    def test_matches_direct_solve_with_band_past_a_third(self):
        # N = 15 on n = 32: products of the top modes reach |k| = 30, which
        # an unpadded product would fold back into the band.  The Newton
        # residual and the lifting forcing form N through the same padded
        # operator as the direct solver, so the two solutions agree.
        sim = small_sim(galerkin_N=15)
        data = CauchyData(cosine(GRID, 1, 0.02) + cosine(GRID, 9, 0.002),
                          sine(GRID, 10, 0.002))
        traj, rep = iterate(IterationConfig(sim=sim), data)
        assert rep.converged
        ref, _ = solve_nonlinear(sim, data)
        num = sobolev_norm(traj.phi[-1] - ref.phi[-1], 1)
        assert num / sobolev_norm(ref.phi[-1], 1) < 1e-4

    def test_first_residual_is_the_lifting_forcing(self):
        # with u = 0 the residual mu phi_xx + N(phi) - phi_tt of phi^a is
        # the lifting forcing F^a, to the last bit
        sim = small_sim()
        data = CauchyData(cosine(GRID, 1, 0.01), sine(GRID, 2, 0.02))
        _, rep = iterate(IterationConfig(sim=sim), data)
        lift = build_lifting(data, sim.mu, sim.delta)
        times = np.arange(sim.num_steps() + 1) * sim.dt
        forcing = lifting_forcing(lift, sim.mu, times)
        assert rep.residual_norms[0] == ym_norm(forcing, WeightedNormSpec(sim.gamma), 2)

    def test_one_lifting_evaluation_on_the_stage_mesh(self, monkeypatch):
        # after build_lifting's ramp search, iterate evaluates phi^a once, on
        # the stage mesh, and reads the nodes off its even rows
        seen = []
        real_build, real_states = nm.build_lifting, Lifting.states

        def build(*args):
            lift = real_build(*args)
            seen.clear()
            return lift

        def states(lift, times):
            seen.append(len(times))
            return real_states(lift, times)

        monkeypatch.setattr(nm, "build_lifting", build)
        monkeypatch.setattr(Lifting, "states", states)
        sim = small_sim(t_final=0.1)
        data = CauchyData(cosine(GRID, 1, 0.01), sine(GRID, 2, 0.02))
        traj, rep = iterate(IterationConfig(sim=sim), data)
        assert rep.iterations >= 1
        assert seen == [2 * sim.num_steps() + 1]
        assert np.array_equal(traj.times, np.arange(sim.num_steps() + 1) * sim.dt)

    def test_initial_data_reproduced_exactly(self):
        data = CauchyData(cosine(GRID, 1, 0.01), sine(GRID, 2, 0.02))
        traj, rep = iterate(IterationConfig(sim=small_sim()), data)
        assert rep.converged
        assert np.max(np.abs(traj.phi[0] - data.phi0.coeffs)) == 0.0
        assert np.max(np.abs(traj.phit[0] - data.phi1.coeffs)) == 0.0

    def test_metadata_orders(self):
        data = CauchyData(zeros(GRID), zeros(GRID))
        _, rep = iterate(IterationConfig(sim=small_sim()), data)
        assert rep.metadata["solution_space_order"] == 7
        assert rep.metadata["forcing_space_order"] == 9
        # the order of the norms the residuals and corrections are measured in
        assert rep.metadata["norm_order"] == 2

    def test_grid_mismatch(self):
        other = TorusGrid(64)
        data = CauchyData(zeros(other), zeros(other))
        with pytest.raises(ValueError):
            iterate(IterationConfig(sim=small_sim()), data)

    def test_stability_abort(self):
        sim = small_sim(delta=0.99, galerkin_N=8, t_final=0.8)
        data = CauchyData(zeros(GRID), cosine(GRID, 1))
        _, rep = iterate(IterationConfig(sim=sim), data)
        assert rep.outcome == "stability_aborted"
        assert rep.stability_mins[-1] < 0.495
        assert not rep.converged

    def test_divergence_detector(self, monkeypatch):
        # a correction applied with the wrong sign roughly doubles the
        # residual every sweep, which is what the three-increase rule is
        # there to catch
        flip_corrections(monkeypatch)
        data = CauchyData(cosine(GRID, 1, 0.01), zeros(GRID))
        _, rep = iterate(IterationConfig(sim=small_sim(t_final=0.2), max_iters=8), data)
        assert rep.outcome == "diverged" and not rep.converged
        rs = rep.residual_norms
        assert len(rs) >= 4
        assert rs[-1] > rs[-2] > rs[-3] > rs[-4]

    def test_floor_stall_is_not_divergence(self):
        # strong forcing stalls the sweep at the discretization floor: the
        # residual left outside the Galerkin band.  The linearized solves
        # step the projected system at every stage, so once the in-band
        # residual is gone the corrections vanish and the residual stays
        # flat instead of creeping upward.  The fifth correction is below
        # STALL_RATIO times the first, so the run stops there instead of
        # spending its last sweep on a solve with nothing to correct
        sim = SimConfig(mu=4.0, delta=2.0, grid_n=32, galerkin_N=8,
                        dt=2e-3, t_final=1.0, gamma=1.0)
        data = CauchyData(cosine(GRID, 1, 0.8), zeros(GRID))
        _, rep = iterate(IterationConfig(sim=sim, max_iters=6), data)
        assert rep.outcome == "stalled" and not rep.converged
        assert rep.iterations == 5 and len(rep.residual_norms) == 6
        rs = rep.residual_norms
        assert rs[-1] > 1e-3
        assert max(rs[-2:]) - min(rs[-2:]) <= 1e-12 * rs[-1]
        assert rep.correction_norms[-1] <= nm.STALL_RATIO * max(rep.correction_norms)
        assert rep.correction_norms[-2] > nm.STALL_RATIO * max(rep.correction_norms)


def _run_to(outcome, monkeypatch):
    """A small iterate run that ends with `outcome`."""
    kw, data = {}, CauchyData(cosine(GRID, 1, 0.01), zeros(GRID))
    if outcome == "exhausted_max_iters":
        kw = {"max_iters": 1}
    elif outcome == "stability_aborted":
        kw = {"sim": small_sim(delta=0.99, galerkin_N=8, t_final=0.8)}
        data = CauchyData(zeros(GRID), cosine(GRID, 1))
    elif outcome == "diverged":
        flip_corrections(monkeypatch)
        kw = {"sim": small_sim(t_final=0.2), "max_iters": 8}
    elif outcome == "stalled":
        # every solve after the first returns a zero correction
        real, solves = nm.solve_linearized, []

        def vanishing(*args, **kwargs):
            v, monitor = real(*args, **kwargs)
            scale = 0.0 if solves else 1.0
            solves.append(scale)
            return Trajectory(v.times, scale * v.phi, scale * v.phit, scale * v.phitt), monitor

        monkeypatch.setattr(nm, "solve_linearized", vanishing)
    cfg = IterationConfig(**{"sim": small_sim(), **kw})
    return iterate(cfg, data)


@pytest.mark.parametrize("outcome", ["converged", "exhausted_max_iters", "stalled",
                                     "diverged", "stability_aborted"])
def test_every_outcome_counts_its_corrections(outcome, monkeypatch):
    # one return path: whatever the ending, iterations counts the accepted
    # corrections, there is one more residual, and the trajectory comes back
    traj, rep = _run_to(outcome, monkeypatch)
    assert rep.outcome == outcome
    assert rep.converged == (outcome == "converged")
    assert rep.iterations == len(rep.correction_norms) >= 1
    assert len(rep.residual_norms) == rep.iterations + 1 == len(rep.stability_mins)
    assert len(rep.theta_values) == rep.iterations
    assert np.array_equal(traj.times, np.arange(traj.phi.shape[0]) * rep.metadata["dt"])
    assert json.loads(json.dumps(asdict(rep), default=float))["outcome"] == outcome


def _report(outcome):
    return IterationReport(outcome=outcome, converged=outcome == "converged")


class TestIterateAuto:
    def test_halves_horizon_until_success(self, monkeypatch):
        calls = []

        def fake_iterate(cfg, data):
            calls.append((cfg.sim.t_final, cfg.sim.dt))
            return "traj", _report("diverged" if cfg.sim.t_final > 0.3 else "converged")

        monkeypatch.setattr(nm, "iterate", fake_iterate)
        cfg = IterationConfig(sim=small_sim(t_final=1.0, dt=2e-3))
        traj, rep = iterate_auto(cfg, CauchyData(zeros(GRID), zeros(GRID)), max_halvings=6)
        assert traj == "traj" and rep.outcome == "converged"
        assert [t for t, _ in calls] == [1.0, 0.5, 0.25]
        # node count stays integral after each halving
        for t_final, dt in calls:
            steps = t_final / dt
            assert abs(steps - round(steps)) < 1e-9

    def test_returns_the_last_divergence_after_exhaustion(self, monkeypatch):
        calls = []

        def always_diverges(cfg, data):
            calls.append(cfg.sim.t_final)
            return "traj", _report("diverged")

        monkeypatch.setattr(nm, "iterate", always_diverges)
        cfg = IterationConfig(sim=small_sim())
        _, rep = iterate_auto(cfg, CauchyData(zeros(GRID), zeros(GRID)), max_halvings=2)
        assert rep.outcome == "diverged"
        assert calls == [0.5, 0.25, 0.125]

    @pytest.mark.parametrize("outcome", ["exhausted_max_iters", "stalled", "stability_aborted"])
    def test_halves_only_on_divergence(self, monkeypatch, outcome):
        # a stall or an abort is not cured by a shorter horizon: no restart
        calls = []

        def ends(cfg, data):
            calls.append(cfg.sim.t_final)
            return "traj", _report(outcome)

        monkeypatch.setattr(nm, "iterate", ends)
        cfg = IterationConfig(sim=small_sim())
        _, rep = iterate_auto(cfg, CauchyData(zeros(GRID), zeros(GRID)), max_halvings=3)
        assert rep.outcome == outcome and calls == [0.5]

    def test_default_is_one_attempt(self, monkeypatch):
        # max_halvings defaults to 0: iterate once, and its divergence stands
        calls = []

        def always_diverges(cfg, data):
            calls.append(cfg.sim.t_final)
            return "traj", _report("diverged")

        monkeypatch.setattr(nm, "iterate", always_diverges)
        _, rep = iterate_auto(IterationConfig(sim=small_sim()),
                              CauchyData(zeros(GRID), zeros(GRID)))
        assert rep.outcome == "diverged"
        assert calls == [0.5]
        with pytest.raises(ValueError, match="max_halvings"):
            iterate_auto(IterationConfig(sim=small_sim()),
                         CauchyData(zeros(GRID), zeros(GRID)), max_halvings=-1)
