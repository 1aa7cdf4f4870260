"""Solver tests: semidiscrete right-hand sides, the RKN step, the two integrators,
monitoring/flags, and mode-growth measurement."""

import numpy as np
import pytest

import amp_sheet.operators as operators
import amp_sheet.solver as solver

from amp_sheet.operators import (
    CauchyData,
    FieldSeries,
    Trajectory,
    _band,
    _positive,
    apply_linearized_operator,
    build_lifting,
    nonlinear_operator,
)
from amp_sheet.solver import (
    CflError,
    _lagrange_weights,
    SimConfig,
    field_evaluator,
    measure_mode_growth,
    rkn_step,
    semidiscrete_rhs_linearized,
    semidiscrete_rhs_nonlinear,
    solve_linearized,
    solve_nonlinear,
)
from amp_sheet.spectral import (
    SpectralField,
    TorusGrid,
    cosine,
    derivative,
    from_modes,
    sine,
    synthesize,
    zeros,
)

from _oracles import (
    apply_linearized_alt,
    hermitian_defect,
    masked_solve_linearized,
    masked_solve_nonlinear,
    node_march,
    pair_rkn_step,
    projected_rkn,
    quadratic_rhs_alt,
)


GRID = TorusGrid(32)


def traveling_cosine(grid, k, t, amplitude=1.0):
    """cos(k(x - t)) as a field."""
    c = amplitude * np.pi
    return from_modes(
        grid,
        {k: c * np.exp(-1j * k * t), -k: c * np.exp(1j * k * t)},
        real_flag=True,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(mu=1.0, delta=0.0)
        with pytest.raises(ValueError):
            SimConfig(mu=1.0, delta=0.9, grid_n=33)
        with pytest.raises(ValueError):
            SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=16)
        with pytest.raises(ValueError):
            SimConfig(mu=1.0, delta=0.9, dt=-1e-3)
        with pytest.raises(ValueError):
            SimConfig(mu=1.0, delta=0.9, cfl_safety=1.5)

    @pytest.mark.parametrize("field", ["mu", "delta", "dt", "t_final", "gamma", "cfl_safety"])
    def test_nan_parameter_is_rejected(self, field):
        # every check fails on NaN, which compares false with anything
        with pytest.raises(ValueError, match=field):
            SimConfig(**{"mu": 1.0, "delta": 0.9, field: float("nan")})

    @pytest.mark.parametrize("dt,t_final", [(np.inf, 1.0), (1e-3, np.inf), (1e-300, 1e300)])
    def test_infinite_step_count_is_rejected(self, dt, t_final):
        # an infinite dt, t_final or t_final / dt leaves no finite step count
        with pytest.raises(ValueError, match="t_final"):
            SimConfig(mu=1.0, delta=0.9, dt=dt, t_final=t_final)

    def test_step_count(self):
        cfg = SimConfig(mu=1.0, delta=0.9, dt=1e-3, t_final=0.5)
        assert cfg.num_steps() == 500
        with pytest.raises(ValueError):
            SimConfig(mu=1.0, delta=0.9, dt=3e-3, t_final=1.0).num_steps()

    def test_stage_times(self):
        # the stage mesh k dt/2, whose even entries are the node times
        # of the solvers bitwise
        for dt, t_final in ((1e-3, 1.0), (2e-3, 0.5), (0.1, 0.3), (1.0 / 3.0, 1.0),
                            (1e-3, 4.096)):
            cfg = SimConfig(mu=1.0, delta=0.9, dt=dt, t_final=t_final)
            m = cfg.num_steps()
            stages = cfg.stage_times()
            assert stages.shape == (2 * m + 1,) and stages[0] == 0.0
            assert np.array_equal(stages[::2], np.arange(m + 1) * dt)
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8, dt=0.05, t_final=0.3)
        traj, _ = solve_linearized(cfg)
        assert np.array_equal(traj.times, cfg.stage_times()[::2])

    def test_cfl_limit_floor(self):
        cfg = SimConfig(mu=1.0, delta=0.9, galerkin_N=10)
        # elliptic or small sup c^2 is floored at wave speed 1
        assert cfg.cfl_limit(-3.0) == cfg.cfl_limit(0.5) == 0.5 / 10


def random_modes(rng, grid, kmax):
    """Modes 1..kmax with amplitude 0.03/k and random phases."""
    pairs = {}
    for k in range(1, kmax + 1):
        z = np.pi * 0.03 / k * np.exp(2j * np.pi * rng.random())
        pairs[k], pairs[-k] = z, np.conj(z)
    return from_modes(grid, pairs, real_flag=True)


def pos(c, N):
    """The coefficients k = 1..N of (..., n-1) bands."""
    return _positive(np.asarray(c))[..., :N]


def row(c, N):
    """The solver's row of (..., n-1) bands: the interleaved (Re, Im) floats
    of the coefficients k = 1..N."""
    return np.ascontiguousarray(pos(c, N)).view(float)


def rhs(accel, s, x):
    """The row that the acceleration map accel(s, x, out) writes."""
    out = np.empty_like(x)
    accel(s, x, out)
    return out


def in_place(accel):
    """The acceleration map accel(s, x, out) of a map (s, x) -> row."""
    def into(s, x, out):
        out[...] = accel(s, x)
    return into


class TestSemidiscreteRhs:
    """The acceleration maps write the rows of the coefficients k = 1..N."""

    def test_nonlinear_single_mode(self):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=10)
        accel = semidiscrete_rhs_nonlinear(cfg)
        x = row(cosine(GRID, 1).coeffs, 10)
        out = rhs(accel, 0, x)
        want = -1.0 * cosine(GRID, 1).coeffs + cosine(GRID, 2).coeffs
        assert out.shape == (20,)
        assert np.max(np.abs(out.view(complex) - pos(want, 10))) < 1e-13
        # the nonlinear map does not read the stage index
        assert np.array_equal(rhs(accel, 7, x), out)

    def test_nonlinear_truncation_drops_mode_two(self):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=1)
        out = rhs(semidiscrete_rhs_nonlinear(cfg), 0, row(cosine(GRID, 1).coeffs, 1))
        assert out.shape == (2,)
        assert abs(out.view(complex)[0] + np.pi) < 1e-13

    def test_zero_state(self):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=10)
        out = rhs(semidiscrete_rhs_nonlinear(cfg), 0, np.zeros(20))
        assert np.max(np.abs(out)) == 0.0

    def test_nonlinear_batch_equals_row_by_row(self):
        # the kernel run on a batch, a unit axis before the last, as the
        # public operator runs it, is the map, row for row bitwise
        cfg = SimConfig(mu=0.8, delta=0.5, grid_n=32, galerkin_N=10)
        accel = semidiscrete_rhs_nonlinear(cfg)
        rng = np.random.default_rng(5)
        phi = rng.standard_normal((3, 1, 20))
        out = np.empty_like(phi)
        operators._nonlinear_map(operators._plan(32, 10), 0.8, (3, 1))(phi, out)
        phi, out = phi[:, 0], out[:, 0]
        for x, got in zip(phi, out):
            assert np.array_equal(rhs(accel, 0, x), got)

    def test_nonlinear_is_the_operator_kept_to_the_band(self):
        # the coefficients k = 1..N of mu phi_xx + N(phi) on the band, to
        # round-off: the map pads to its band, the operator to the grid's
        cfg = SimConfig(mu=1.1, delta=0.5, grid_n=32, galerkin_N=7)
        f = random_modes(np.random.default_rng(8), GRID, 7)
        out = rhs(semidiscrete_rhs_nonlinear(cfg), 0, row(f.coeffs, 7))
        want = pos(nonlinear_operator(f.coeffs, cfg.mu), 7)
        assert np.max(np.abs(out.view(complex) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_linearized_forcing_only(self):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=10)
        accel = semidiscrete_rhs_linearized(zeros(GRID).coeffs[None], cosine(GRID, 1).coeffs[None],
                                            cfg)
        out = rhs(accel, 0, np.zeros(20))
        assert np.max(np.abs(out.view(complex) - pos(cosine(GRID, 1).coeffs, 10))) < 1e-14

    def test_linearized_is_the_operator_kept_to_the_band(self):
        # base with modes above N: its synthesized weights keep the full
        # band; to round-off, as for the nonlinear map
        cfg = SimConfig(mu=0.7, delta=0.5, grid_n=32, galerkin_N=6)
        rng = np.random.default_rng(9)
        base = random_modes(rng, GRID, 14)
        f = random_modes(rng, GRID, 6)
        g = sine(GRID, 3).coeffs
        accel = semidiscrete_rhs_linearized(base.coeffs[None], g[None], cfg)
        out = rhs(accel, 0, row(f.coeffs, 6))
        want = pos(apply_linearized_operator(base.coeffs, f.coeffs, cfg.mu) + g, 6)
        assert np.max(np.abs(out.view(complex) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_linearized_reads_the_row_of_its_stage_index(self):
        # stage s reads row s of the base and of the forcing
        cfg = SimConfig(mu=0.7, delta=0.5, grid_n=32, galerkin_N=6)
        rng = np.random.default_rng(10)
        bases = np.stack([random_modes(rng, GRID, 14).coeffs for _ in range(3)])
        gs = np.stack([random_modes(rng, GRID, 9).coeffs for _ in range(3)])
        x = row(random_modes(rng, GRID, 6).coeffs, 6)
        accel = semidiscrete_rhs_linearized(bases, gs, cfg)
        for s in range(3):
            one = semidiscrete_rhs_linearized(bases[s:s + 1], gs[s:s + 1], cfg)
            assert np.array_equal(rhs(accel, s, x), rhs(one, 0, x))

    def test_linearized_superposition(self):
        cfg = SimConfig(mu=1.3, delta=0.9, grid_n=32, galerkin_N=10)
        rng = np.random.default_rng(6)

        def rand_row():
            c = np.zeros(10, complex)
            c[:5] = rng.normal(size=5) + 1j * rng.normal(size=5)
            return c.view(float)

        base = cosine(GRID, 1, 0.1).coeffs[None]
        s1, s2 = rand_row(), rand_row()
        g1, g2 = cosine(GRID, 2).coeffs[None], sine(GRID, 3).coeffs[None]
        combo = 2.0 * s1 + 3.0 * s2
        out = rhs(semidiscrete_rhs_linearized(base, 2.0 * g1 + 3.0 * g2, cfg), 0, combo)
        o1 = rhs(semidiscrete_rhs_linearized(base, g1, cfg), 0, s1)
        o2 = rhs(semidiscrete_rhs_linearized(base, g2, cfg), 0, s2)
        assert np.max(np.abs(out - 2.0 * o1 - 3.0 * o2)) < 1e-12


def oscillator(s, x, out):
    """phi'' = -phi on rows of any length."""
    np.negative(x, out=out)


def oscillator_of(omega):
    """y'' = -omega^2 y on rows of any length."""
    return in_place(lambda s, x: -omega**2 * x)


def rkn_march(dt, phi, phit, accel, steps):
    """(phi, phi_t) after `steps` in-place steps of rkn_step from node 0,
    each node's phi_tt written by accel, as the solvers march."""
    rows = np.empty((steps + 1, 3, np.size(phi)))
    rows[0, 0], rows[0, 1] = phi, phit
    step = rkn_step(dt, accel, np.size(phi))
    for i in range(steps):
        accel(2 * i, rows[i, 0], rows[i, 2])
        step(i, rows[i], rows[i + 1])
    return rows[steps, 0], rows[steps, 1]


class TestRkn:
    def test_harmonic_oscillator_period(self):
        # mode-1 wave with mu = 1 reduces to y'' = -y; after one full
        # period the amplitude error of the fourth-order step at
        # dt = 2pi/1000 sits far below 1e-8.
        dt = 2.0 * np.pi / 1000.0
        phi, phit = rkn_march(dt, np.array([1.0, 0.0]), np.zeros(2), oscillator, 1000)
        assert abs(phi[0] - 1.0) < 1e-8 and phi[1] == 0.0
        assert np.max(np.abs(phit)) < 1e-8

    def test_zero_state_fixed_point(self):
        z = np.zeros(10)
        phi, phit = rkn_march(0.1, z, z, oscillator, 1)
        assert np.max(np.abs(phi)) == 0.0 and np.max(np.abs(phit)) == 0.0

    def test_order_four(self):
        def run(dt):
            steps = int(round(1.0 / dt))
            phi, _ = rkn_march(dt, np.array([1.0, 0.0]), np.zeros(2), oscillator, steps)
            return abs(phi[0] - np.cos(1.0))

        ratio = run(2e-2) / run(1e-2)
        assert 12.0 <= ratio <= 20.0

    @pytest.mark.parametrize("omega", [0.7, 3.0])
    def test_observed_order_against_the_exact_cosine(self, omega):
        # y'' = -omega^2 y from (1, 0) to t = 2 against cos(omega t) and
        # -omega sin(omega t), over three halvings of dt; every error sits
        # far above round-off
        def error(dt):
            steps = int(round(2.0 / dt))
            phi, phit = rkn_march(dt, 1.0, 0.0, oscillator_of(omega), steps)
            t = steps * dt
            return max(abs(phi[0] - np.cos(omega * t)),
                       abs(phit[0] + omega * np.sin(omega * t)) / omega)

        errors = [error(0.1 / omega / 2**j) for j in range(4)]
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert min(errors) > 1e-11
        assert np.all((3.5 <= orders) & (orders <= 4.5)), orders

    def test_amplification_within_the_unit_circle(self):
        # on y'' = -y the step's eigenvalues are a conjugate pair of modulus
        # sqrt(1 - z^6/288), z = omega dt: at most 1 on the whole CFL range
        # omega dt <= cfl_safety <= 1
        for z in np.linspace(0.0, 1.0, 101)[1:]:
            # the step's matrix on (y, y_t): its columns step (1, 0) and (0, 1)
            steps = [rkn_march(z, p, v, oscillator, 1) for p, v in np.eye(2)]
            lam = np.abs(np.linalg.eigvals(np.array([[p[0], v[0]] for p, v in steps]).T))
            assert np.allclose(lam, np.sqrt(1.0 - z**6 / 288.0), rtol=0.0, atol=1e-14), z
            if z >= 0.1:  # where 1 - |lambda| > 1e-9, far above round-off
                assert np.all(lam <= 1.0), (z, lam)

    def test_stage_indices_and_the_pair_oracle(self):
        # the stages of the step from node i read 2i, 2i+1, 2i+2, and the
        # step is the oracle's pair step bitwise
        seen = []

        def accel(s, x, out):
            seen.append(s)
            np.sin(s + x, out=out)

        rng = np.random.default_rng(3)
        rows = np.empty((2, 3, 6))
        phi, phit = rows[0, 0], rows[0, 1]
        phi[:], phit[:] = rng.standard_normal(6), rng.standard_normal(6)
        accel(10, phi, rows[0, 2])
        rkn_step(0.1, accel, 6)(5, rows[0], rows[1])
        assert seen == [10, 11, 12]
        want = pair_rkn_step(0.5, 0.1, (phi, phit), lambda t, x: np.sin(round(t / 0.05) + x))
        assert all(np.array_equal(a, b) for a, b in zip(rows[1, :2], want))

    @pytest.mark.parametrize("which", ["nonlinear", "linearized"])
    def test_a_solve_of_m_steps_makes_3m_plus_1_accelerations(self, which, monkeypatch):
        # k1 of each step is the acceleration the node stored
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8, dt=1e-3, t_final=0.07)
        name = f"semidiscrete_rhs_{which}"
        real, calls = getattr(solver, name), []

        def counted(*args):
            accel = real(*args)
            return lambda s, x, out: calls.append(s) or accel(s, x, out)

        monkeypatch.setattr(solver, name, counted)
        data = CauchyData(cosine(GRID, 1, 0.01), sine(GRID, 2, 0.01))
        if which == "nonlinear":
            traj, _ = solve_nonlinear(cfg, data)
        else:
            traj, _ = solve_linearized(cfg, base=cosine(GRID, 1, 0.02), initial_state=data)
        m = cfg.num_steps()
        assert len(traj) == m + 1 and len(calls) == 3 * m + 1
        assert sorted(calls) == sorted([2 * i for i in range(m + 1)]
                                       + [2 * i + d for i in range(m) for d in (1, 2)])


class TestLinearizedSolver:
    def test_zero_forcing_zero_base(self):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=1e-2, t_final=0.2)
        traj, mon = solve_linearized(cfg)
        assert all(np.max(np.abs(p.coeffs)) == 0.0 for p in traj.phis)
        assert mon["flags"] == []

    def test_dispersion_exact_wave(self):
        # with base 0 and mu = 1 the solution of the linearized equation
        # from (cos 3x, 3 sin 3x) is the traveling wave cos(3(x-t))
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=2e-3, t_final=1.0)
        data = CauchyData(cosine(GRID, 3), sine(GRID, 3, 3.0))
        traj, _ = solve_linearized(cfg, initial_state=data)
        want = traveling_cosine(GRID, 3, 1.0)
        err = np.max(np.abs(synthesize(traj.phis[-1]) - synthesize(want)))
        assert err < 1e-6

    def test_duhamel_constant_forcing(self):
        # phi0 = 0, mu = 1, g = cos x: exact solution (1 - cos t) cos x
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=1e-3, t_final=1.0)
        g = cosine(GRID, 1).coeffs
        traj, _ = solve_linearized(cfg, forcing=lambda ts: np.tile(g, (len(ts), 1)))
        want = cosine(GRID, 1, 1.0 - np.cos(1.0))
        assert np.max(np.abs(traj.phis[-1].coeffs - want.coeffs)) < 1e-6

    def test_forcing_series_interpolation_matches_callable(self):
        # g(t) = cos(2t) cos x: exact solution (cos t - cos 2t)/3 * cos x;
        # the series route samples g ten times coarser than the solver mesh
        # and must agree with the callable route through the cubic
        # interpolation.
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=1e-3, t_final=1.0)

        def g_call(ts):
            return np.cos(2.0 * np.asarray(ts))[:, None] * cosine(GRID, 1).coeffs

        coarse = np.arange(0.0, 1.0 + 1e-12, 1e-2)
        series = Trajectory(coarse, g_call(coarse))
        traj_a, _ = solve_linearized(cfg, forcing=g_call)
        traj_b, _ = solve_linearized(cfg, forcing=series)
        want = cosine(GRID, 1, (np.cos(1.0) - np.cos(2.0)) / 3.0)
        assert np.max(np.abs(traj_a.phis[-1].coeffs - want.coeffs)) < 1e-6
        diff = np.max(np.abs(traj_a.phis[-1].coeffs - traj_b.phis[-1].coeffs))
        assert diff < 1e-7

    def test_base_and_forcing_evaluated_once_per_stage_time(self):
        # the step reads the base at the nodes and the half steps; one call per
        # solve covers the whole stage mesh arange(2 m + 1) * dt/2
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=1e-2, t_final=0.2)
        calls = {"base": [], "forcing": []}
        base_field = cosine(GRID, 1, 0.01)

        def counted(name, field):
            def at(ts):
                calls[name].append(np.array(ts))
                return np.tile(field.coeffs, (len(ts), 1))
            return at

        traj, _ = solve_linearized(cfg, base=counted("base", base_field),
                                   forcing=counted("forcing", cosine(GRID, 2)))
        m = cfg.num_steps()
        for name in calls:
            assert len(calls[name]) == 1, name
            assert np.array_equal(calls[name][0], np.arange(2 * m + 1) * cfg.dt / 2), name
        ref, _ = solve_linearized(cfg, base=base_field, forcing=cosine(GRID, 2))
        assert np.array_equal(traj.phi, ref.phi) and np.array_equal(traj.phit, ref.phit)

    def test_base_trajectory_must_cover_window(self):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=1e-2, t_final=1.0)
        short = FieldSeries(np.linspace(0.0, 0.5, 6), [zeros(GRID)] * 6)
        with pytest.raises(ValueError):
            solve_linearized(cfg, forcing=short)

    def test_grid_mismatch_rejected(self):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=1e-2, t_final=0.1)
        other = TorusGrid(64)
        with pytest.raises(ValueError):
            solve_linearized(cfg, forcing=FieldSeries(
                np.linspace(0, 1, 5), [zeros(other)] * 5))


class TestNonlinearSolver:
    def small_cfg(self, **kw):
        args = dict(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                    dt=5e-3, t_final=0.5)
        args.update(kw)
        return SimConfig(**args)

    def test_zero_data_stays_zero(self):
        traj, mon = solve_nonlinear(self.small_cfg(), CauchyData(zeros(GRID), zeros(GRID)))
        assert all(np.max(np.abs(p.coeffs)) == 0.0 for p in traj.phis)
        assert mon["flags"] == []

    def test_margin_precondition(self):
        with pytest.raises(ValueError):
            solve_nonlinear(self.small_cfg(), CauchyData(cosine(GRID, 1, 0.2), zeros(GRID)))

    def test_temporal_order(self):
        data = CauchyData(cosine(GRID, 1, 0.05), zeros(GRID))
        outs = {}
        for dt in (2e-2, 1e-2, 5e-3):
            traj, _ = solve_nonlinear(self.small_cfg(dt=dt, t_final=0.4), data)
            outs[dt] = traj.phis[-1].coeffs
        e1 = np.max(np.abs(outs[2e-2] - outs[1e-2]))
        e2 = np.max(np.abs(outs[1e-2] - outs[5e-3]))
        assert 12.0 <= e1 / e2 <= 20.0

    def test_stored_phitt_is_semidiscrete_rhs(self):
        cfg = self.small_cfg()
        data = CauchyData(cosine(GRID, 1, 0.05), zeros(GRID))
        traj, _ = solve_nonlinear(cfg, data)
        i, N = len(traj) // 2, cfg.galerkin_N
        out = rhs(semidiscrete_rhs_nonlinear(cfg), 2 * i, row(traj.phi[i], N))
        assert np.array_equal(traj.phitt[i], _band(out.view(complex), cfg.grid_n))

    def test_mean_and_reality_preserved(self):
        data = CauchyData(cosine(GRID, 1, 0.05), sine(GRID, 2, 0.02))
        traj, _ = solve_nonlinear(self.small_cfg(), data)
        for c in (traj.phi[-1], traj.phit[-1]):
            p = SpectralField(GRID, c)
            assert abs(p.coeff(0)) == 0.0
            assert hermitian_defect(p) < 1e-12

    def test_monitor_small_data_stays_above_half_delta(self):
        data = CauchyData(cosine(GRID, 1, 0.01), zeros(GRID))
        traj, mon = solve_nonlinear(self.small_cfg(t_final=1.0, dt=5e-3), data)
        assert len(traj) == 201
        assert np.min(mon["min_stability_coeff"]) >= 0.45
        assert mon["flags"] == []

    def test_stability_abort_flag(self):
        # velocity-only data grows phi ~ t cos x, dragging the coefficient
        # through delta/2 around t = 0.25 for delta = 0.99
        data = CauchyData(zeros(GRID), cosine(GRID, 1))
        traj, mon = solve_nonlinear(
            self.small_cfg(delta=0.99, dt=1e-3, t_final=1.0), data)
        kinds = [f["type"] for f in mon["flags"]]
        assert "stability_below_half_delta" in kinds
        assert len(traj) < 1001
        t_flag = [f["time"] for f in mon["flags"] if f["type"].startswith("stability")][0]
        assert 0.2 < t_flag < 0.35

    def test_spectral_self_consistency(self):
        # doubling the spatial grid with identical dt changes nothing
        # visible for analytic small data
        data32 = CauchyData(cosine(GRID, 1, 0.01), zeros(GRID))
        g64 = TorusGrid(64)
        data64 = CauchyData(cosine(g64, 1, 0.01), zeros(g64))
        t32, _ = solve_nonlinear(self.small_cfg(galerkin_N=10, dt=5e-3, t_final=1.0), data32)
        t64, _ = solve_nonlinear(
            self.small_cfg(grid_n=64, galerkin_N=10, dt=5e-3, t_final=1.0), data64)
        a = synthesize(t32.phis[-1])
        b = synthesize(t64.phis[-1])[::2]
        assert np.max(np.abs(a - b)) < 1e-8

    def test_cfl_guard(self):
        data = CauchyData(cosine(GRID, 1, 0.01), zeros(GRID))
        with pytest.raises(CflError):
            solve_nonlinear(self.small_cfg(galerkin_N=15, dt=5e-2), data)


class TestStageProjection:
    """The solvers step the projected system at every stage.

    The reference is a stage-by-stage RKN loop that projects the input and
    the acceleration of each stage and evaluates N by the rearranged form,
    so it shares neither the fused kernel nor the solver's stepper.  At
    this amplitude a solver that projected only the nodes sits 4e-7
    (nonlinear) and 8e-7 (linearized) away at dt = 4e-3, second order in
    dt.
    """

    GRID64 = TorusGrid(64)

    def cfg(self):
        return SimConfig(mu=1.0, delta=0.5, grid_n=64, galerkin_N=10,
                         dt=4e-3, t_final=0.4)

    def random_modes(self, rng):
        return random_modes(rng, self.GRID64, 10)

    def gap(self, traj, ref):
        return max(np.max(np.abs(traj.phis[-1].coeffs - ref[0])),
                   np.max(np.abs(traj.phit[-1] - ref[1])))

    def test_nonlinear_matches_projected_rkn(self):
        cfg = self.cfg()
        rng = np.random.default_rng(0)
        data = CauchyData(self.random_modes(rng), self.random_modes(rng))
        traj, mon = solve_nonlinear(cfg, data)
        assert len(traj) == cfg.num_steps() + 1 and mon["flags"] == []
        ref = projected_rkn(
            data.phi0, data.phi1,
            lambda t, f: cfg.mu * derivative(f, 2) + quadratic_rhs_alt(f),
            cfg.galerkin_N, cfg.dt, cfg.num_steps())
        assert self.gap(traj, ref) <= 1e-12

    def test_linearized_matches_projected_rkn(self):
        cfg = self.cfg()
        rng = np.random.default_rng(1)
        base = self.random_modes(rng)
        data = CauchyData(self.random_modes(rng), self.random_modes(rng))
        traj, _ = solve_linearized(cfg, base=base, initial_state=data)
        assert len(traj) == cfg.num_steps() + 1
        ref = projected_rkn(
            data.phi0, data.phi1,
            lambda t, f: apply_linearized_alt(base, f, cfg.mu),
            cfg.galerkin_N, cfg.dt, cfg.num_steps())
        assert self.gap(traj, ref) <= 1e-12


class TestMaskedOracle:
    """The solvers step the coefficients k = 1..N as one (2, N) state and
    judge their nodes in blocks; the old stepping of the whole (n-1) band,
    masked at every stage, stepped as a (phi, phi_t) pair and judged node
    by node, gives the same times and flags bitwise, and the same rows and
    monitor to round-off: the solvers' kernels pad to their band, the
    public operators to the whole band (measured: at most 1.1e-15 of each
    array's largest magnitude)."""

    GRID64 = TorusGrid(64)
    CFG = SimConfig(mu=1.0, delta=0.9, grid_n=64, galerkin_N=21, dt=1e-3, t_final=0.05)

    def low_modes(self, rng, amp):
        # modes 1-3, amplitude amp/k^2, random phases
        pairs = {}
        for k in range(1, 4):
            z = np.pi * amp / k**2 * np.exp(2j * np.pi * rng.random())
            pairs[k], pairs[-k] = z, np.conj(z)
        return from_modes(self.GRID64, pairs, real_flag=True)

    def data(self, seed):
        rng = np.random.default_rng(seed)
        return CauchyData(self.low_modes(rng, 0.01), self.low_modes(rng, 0.003))

    def assert_same(self, got, want):
        (traj, mon), (ref, ref_mon) = got, want
        assert np.array_equal(traj.times, ref.times)
        for name in ("phi", "phit", "phitt"):
            a, b = getattr(traj, name), getattr(ref, name)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name
        a, b = mon["min_stability_coeff"], ref_mon["min_stability_coeff"]
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
        assert mon["flags"] == ref_mon["flags"]

    @pytest.mark.parametrize("seed", range(4))
    def test_nonlinear(self, seed):
        data = self.data(seed)
        self.assert_same(solve_nonlinear(self.CFG, data),
                         masked_solve_nonlinear(self.CFG, data))

    @pytest.mark.parametrize("seed", range(4))
    def test_linearized_with_base_above_n_and_forcing(self, seed):
        # a time-dependent base carrying modes 25 and 30 > N, and a forcing
        # with modes past N and a mean, which the projection drops
        data = self.data(seed)
        rng = np.random.default_rng(100 + seed)
        low = self.low_modes(rng, 0.01).coeffs
        high = from_modes(self.GRID64, {25: 1e-3, -25: 1e-3, 30: 2e-3j, -30: -2e-3j},
                          real_flag=True).coeffs
        g = self.low_modes(rng, 0.5).coeffs + cosine(self.GRID64, 26, 0.2).coeffs
        g[self.GRID64.n // 2 - 1] = 0.3

        def base(ts):
            return np.cos(ts)[:, None] * low + np.sin(3.0 * ts)[:, None] * high

        def forcing(ts):
            return np.exp(-ts)[:, None] * g

        kw = dict(base=base, forcing=forcing, initial_state=data)
        self.assert_same(solve_linearized(self.CFG, **kw),
                         masked_solve_linearized(self.CFG, **kw))

    def test_nonlinear_abort_mid_block(self):
        # the margin falls below delta/2 at node 218, inside the block
        # [192, 256): the nodes stepped past it are dropped
        cfg = SimConfig(mu=1.0, delta=0.55, grid_n=64, galerkin_N=21, dt=1e-3, t_final=0.3)
        data = CauchyData(cosine(self.GRID64, 1, 0.2), sine(self.GRID64, 2, 0.5))
        got = solve_nonlinear(cfg, data)
        self.assert_same(got, masked_solve_nonlinear(cfg, data))
        assert got[1]["flags"] == [{"type": "stability_below_half_delta", "time": 0.218}]

    def test_linearized_blow_up_mid_block(self):
        # mu < 0: mode 21 grows like e^(21 t) past the threshold inside a
        # block; the nodes stepped past it are dropped
        cfg = SimConfig(mu=-1.0, delta=0.5, grid_n=64, galerkin_N=21, dt=1e-3, t_final=0.4)
        data = CauchyData(cosine(self.GRID64, 21, 1e10), sine(self.GRID64, 21, 1e10))
        got = solve_linearized(cfg, initial_state=data)
        self.assert_same(got, masked_solve_linearized(cfg, initial_state=data))
        (kind, t), = [(f["type"], f["time"]) for f in got[1]["flags"] if f["type"] != "elliptic_regime"]
        assert kind == "blow_up" and 0 < round(t / cfg.dt) % 64 < 63


class TestMarchIsTheOracleStepping:
    """The solvers' in-place march returns exactly, with no tolerance, the
    rows and monitor of the oracle's node-by-node march: pair_rkn_step
    driven by the equation's kernel, writing each acceleration into a fresh
    row, on the table path (n = 64, N = 21) and the FFT path (n = 128,
    N = 60).  A stage that reordered its operands would move the last
    bits."""

    @staticmethod
    def fresh(kernel, *rows):
        # the kernel's result in a row of its own, as node_march keeps it
        out = np.empty_like(rows[-1])
        kernel(*rows, out)
        return out

    @staticmethod
    def setup(n, N):
        grid = TorusGrid(n)
        cfg = SimConfig(mu=1.0, delta=0.5, grid_n=n, galerkin_N=N, dt=1e-3, t_final=0.15)
        data = CauchyData(cosine(grid, 1, 0.05) + sine(grid, 3, 0.01), sine(grid, 2, 0.02))
        return grid, cfg, data, [row(f.coeffs, N) for f in (data.phi0, data.phi1)]

    @staticmethod
    def assert_exactly(got, want):
        (traj, mon), (ref, ref_mon) = got, want
        assert len(traj) == 151
        for name in ("times", "phi", "phit", "phitt"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
        assert np.array_equal(mon["min_stability_coeff"], ref_mon["min_stability_coeff"])
        assert mon["flags"] == ref_mon["flags"]

    @pytest.mark.parametrize("n, N", [(64, 21), (128, 60)])
    def test_nonlinear(self, n, N):
        grid, cfg, data, state = self.setup(n, N)
        plan = operators._plan(n, N)
        assert isinstance(plan.synthesis, np.ndarray) == (n == 64)
        kernel = operators._nonlinear_map(plan, cfg.mu)
        want = node_march(cfg, lambda s, x: self.fresh(kernel, x), state,
                          lambda i, phi: operators._stability_values(phi, cfg.mu, n), True)
        self.assert_exactly(solve_nonlinear(cfg, data), want)

    @pytest.mark.parametrize("n, N", [(64, 21), (128, 60)])
    def test_linearized(self, n, N):
        grid, cfg, data, state = self.setup(n, N)
        rng = np.random.default_rng(n + N)
        profile = random_modes(rng, grid, n // 2 - 1).coeffs
        forced = random_modes(rng, grid, 9).coeffs

        def base(ts):
            return (0.5 + np.sin(5.0 * ts))[:, None] * profile

        def forcing(ts):
            return np.cos(7.0 * ts)[:, None] * forced

        plan = operators._plan(n, N, linearized=True)
        assert isinstance(plan.synthesis, np.ndarray) == (n == 64)
        kernel = operators._linearized_map(plan, cfg.mu)
        base_rows = base(cfg.stage_times())
        w0 = operators._base_weights(plan, base_rows)
        g = operators._float_rows(forcing(cfg.stage_times()), N)
        want = node_march(
            cfg, lambda s, x: self.fresh(kernel, w0[s], x) + g[s], state,
            lambda i, phi: operators._stability_values(
                operators._float_rows(base_rows[2 * i]), cfg.mu, n), False)
        self.assert_exactly(solve_linearized(cfg, base, forcing, data), want)


class TestBlockMarch:
    """_march steps a block of _NODE_BLOCK nodes, then judges it.  With a
    synthetic phi_tt = lam^2 phi started on its growing branch
    phi_t = lam phi and a synthetic monitor that dips at chosen nodes,
    every exit at and around the block edges matches the node-by-node march
    of the oracle: rows, monitor, flags and the CflError message."""

    DT, N, LAM = 0.01, 3, 50.0
    # per-step growth factor of the branch phi_t = LAM phi at z = LAM dt = 0.5:
    # the larger eigenvalue of the RKN step on phi_tt = LAM^2 phi
    Z = LAM * DT
    GROWTH = 1.0 + Z**2 / 2 + Z**4 / 24 + Z * np.sqrt((1 + Z**2 / 6) * (1 + Z**2 / 6 + Z**4 / 96))

    def cfg(self, m):
        return SimConfig(mu=1.0, delta=0.5, grid_n=8, galerkin_N=self.N,
                         dt=self.DT, t_final=m * self.DT)

    def state(self, amplitude, lam=LAM):
        # rows (phi, phi_t) on the branch phi_t = lam phi: unit-modulus
        # coefficients times `amplitude` in phi_t, the state's max modulus
        phit = amplitude * np.exp(1j * np.arange(self.N))
        return (phit / lam).view(float), phit.view(float)

    def table(self, m, abort=(), cfl=()):
        """Monitor values per node: 1.0, a dip to 0.1 < delta/2 at the
        nodes `abort`, a spike to 1e4 past the CFL limit at the nodes `cfl`."""
        vals = np.ones((m + 1, 8))
        vals[list(abort), 3] = 0.1
        vals[list(cfl), 5] = 1e4
        return vals

    def run_both(self, m, table, blow_up_at=None, nan_at=None, abort_on_stability=True):
        """(package, oracle) results of one synthetic run: (traj, monitor)
        or the CflError message.  The state crosses the blow-up threshold
        at node `blow_up_at`, or turns NaN at node `nan_at`: the stages
        from time (nan_at - 1/2) dt on, index 2 nan_at - 1 of the stage
        mesh, return NaN."""
        cfg, lam2 = self.cfg(m), self.LAM**2
        amplitude = 1e-20  # at most 2e8 after 130 steps
        if blow_up_at is not None:
            amplitude = solver.BLOW_UP_THRESHOLD * self.GROWTH ** (0.5 - blow_up_at)
        s_nan = np.inf if nan_at is None else 2 * nan_at - 1

        def accel(s, x):
            return lam2 * x if s < s_nan else np.full(2 * self.N, np.nan)

        y0 = self.state(amplitude)
        out = []
        for march, a, y, monitor in (
                (solver._march, in_place(accel), y0, lambda nodes, phi_rows: table[nodes]),
                (node_march, accel, (y0,), lambda i, phi: table[i])):
            try:
                out.append(march(cfg, a, *y, monitor, abort_on_stability))
            except CflError as err:
                out.append(str(err))
        return out

    def assert_same(self, got, want):
        assert type(got) is type(want)
        if isinstance(got, str):
            assert got == want
            return
        (traj, mon), (ref, ref_mon) = got, want
        # a blown-up node may hold NaN, which equals NaN here
        for name in ("times", "phi", "phit", "phitt"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name), equal_nan=True), name
        assert np.array_equal(mon["min_stability_coeff"], ref_mon["min_stability_coeff"])
        assert mon["flags"] == ref_mon["flags"]

    def flags(self, result):
        return [(f["type"], f["time"]) for f in result[1]["flags"]]

    @pytest.mark.parametrize("node", [0, 63, 64, 65, 130])
    def test_abort(self, node):
        got, want = self.run_both(130, self.table(130, abort=[node]))
        self.assert_same(got, want)
        assert len(got[0]) == node + 1
        assert self.flags(got) == [("stability_below_half_delta", node * self.DT)]

    @pytest.mark.parametrize("node", [0, 63, 64, 65, 130])
    def test_blow_up(self, node):
        got, want = self.run_both(130, self.table(130), blow_up_at=node)
        self.assert_same(got, want)
        assert len(got[0]) == node + 1
        assert self.flags(got) == [("blow_up", node * self.DT)]

    @pytest.mark.parametrize("node", [1, 63, 64, 65, 130])
    def test_nan_state_is_a_blow_up(self, node):
        # the step into `node` meets a NaN right-hand side
        got, want = self.run_both(130, self.table(130), nan_at=node)
        self.assert_same(got, want)
        assert self.flags(got) == [("blow_up", node * self.DT)]

    def test_overflow_past_a_blow_up_is_silent(self):
        # on the branch phi_t = lam phi at z = lam dt = 50 each step
        # multiplies the state by about 5.2e5:
        # it crosses the threshold at node 2 and overflows to inf and NaN
        # before the block ends, which warns nothing (warnings are errors
        # in this suite)
        cfg, table = self.cfg(130), self.table(130)

        def accel(s, x):
            return 5000.0**2 * x

        y0 = self.state(1.0, lam=5000.0)
        got = solver._march(cfg, in_place(accel), *y0, lambda nodes, rows: table[nodes], True)
        want = node_march(cfg, accel, y0, lambda i, phi: table[i], True)
        self.assert_same(got, want)
        assert self.flags(got) == [("blow_up", 2 * self.DT)]

    @pytest.mark.parametrize("node", [0, 63, 64, 65, 130])
    def test_cfl(self, node):
        got, want = self.run_both(130, self.table(130, cfl=[node]))
        self.assert_same(got, want)
        if node == 130:
            # the last node is never stepped from, so its CFL limit is moot
            assert len(got[0]) == 131 and self.flags(got) == []
        else:
            assert f"at t = {node * self.DT:.6g} " in got

    def test_blow_up_before_cfl_in_one_block(self):
        got, want = self.run_both(130, self.table(130, cfl=[72]), blow_up_at=70)
        self.assert_same(got, want)
        assert self.flags(got) == [("blow_up", 70 * self.DT)]

    def test_cfl_before_blow_up_in_one_block(self):
        got, want = self.run_both(130, self.table(130, cfl=[70]), blow_up_at=72)
        self.assert_same(got, want)
        assert "at t = 0.7 " in got

    def test_precedence_at_one_node(self):
        # blow-up, then the delta/2 abort, then the CFL raise
        table = self.table(130, abort=[66], cfl=[66])
        got, want = self.run_both(130, table, blow_up_at=66)
        self.assert_same(got, want)
        assert self.flags(got) == [("blow_up", 66 * self.DT)]
        got, want = self.run_both(130, table)
        self.assert_same(got, want)
        assert self.flags(got) == [("stability_below_half_delta", 66 * self.DT)]
        got, want = self.run_both(130, table, abort_on_stability=False)
        self.assert_same(got, want)
        assert isinstance(got, str) and "at t = 0.66 " in got

    def test_dip_without_abort_runs_through(self):
        got, want = self.run_both(130, self.table(130, abort=[64]), abort_on_stability=False)
        self.assert_same(got, want)
        assert len(got[0]) == 131 and self.flags(got) == []
        assert got[1]["min_stability_coeff"][64] == 0.1

    @pytest.mark.parametrize("m", [1, 62, 63, 64, 127, 128, 130])
    def test_one_monitor_call_per_block(self, m):
        calls = []
        table = self.table(m)

        def monitor(nodes, phi_rows):
            calls.append((nodes.start, nodes.stop))
            return table[nodes]

        traj, mon = solver._march(self.cfg(m), in_place(lambda s, x: self.LAM**2 * x),
                                  *self.state(1e-20), monitor, True)
        assert len(traj) == m + 1 and mon["flags"] == []
        assert len(calls) == -(-(m + 1) // solver._NODE_BLOCK)
        assert calls == [(s, min(s + 64, m + 1)) for s in range(0, m + 1, 64)]

    def test_solver_monitor_calls(self, monkeypatch):
        calls = []
        real = solver._stability_values

        def counted(h, mu, n):
            calls.append(h.shape)
            return real(h, mu, n)

        monkeypatch.setattr(solver, "_stability_values", counted)
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8, dt=1e-3, t_final=0.13)
        traj, mon = solve_nonlinear(cfg, CauchyData(cosine(GRID, 1, 0.01), zeros(GRID)))
        assert len(traj) == 131 and mon["flags"] == []
        assert calls == [(64, 16), (64, 16), (3, 16)]

    def test_cfl_limit_on_arrays_is_the_scalar_formula(self):
        cfg = SimConfig(mu=1.0, delta=0.5, galerkin_N=7, cfl_safety=0.3)
        sup = np.array([-2.0, 0.0, 0.5, 1.0, 1.7, 250.0, np.nan])
        want = [0.3 / (7 * np.sqrt(max(1.0, float(v)))) for v in sup]
        got = cfg.cfl_limit(sup)
        assert np.array_equal(got, want)
        assert [cfg.cfl_limit(float(v)) for v in sup] == want


class TestEntryValidation:
    def test_nan_data_is_rejected_not_flagged(self):
        # Cauchy data holding NaN, past CauchyData's own check, fails the
        # margin check on entry instead of stepping into a blow_up flag
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8, dt=1e-3, t_final=0.01)
        data = object.__new__(CauchyData)
        object.__setattr__(data, "phi0", cosine(GRID, 1, float("nan")))
        object.__setattr__(data, "phi1", zeros(GRID))
        with pytest.raises(ValueError, match="stability margin"):
            solve_nonlinear(cfg, data)

    """Inputs are checked once, on entry, not at every stage."""

    CFG = dict(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8, dt=1e-3)

    def test_check_count_does_not_scale_with_steps(self, monkeypatch):
        data = CauchyData(cosine(GRID, 1, 0.01), sine(GRID, 2, 0.01))
        base, g = cosine(GRID, 1, 0.02).coeffs, cosine(GRID, 3).coeffs
        calls = []
        real = operators._require_real_zero_mean

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(operators, "_require_real_zero_mean", counted)
        monkeypatch.setattr(solver, "_require_real_zero_mean", counted, raising=False)
        counts = {}
        for t_final in (0.01, 0.02):
            cfg = SimConfig(**self.CFG, t_final=t_final)
            del calls[:]
            solve_nonlinear(cfg, data)
            nonlinear = len(calls)
            del calls[:]
            solve_linearized(cfg, base=lambda ts: np.cos(ts)[:, None] * base,
                             forcing=lambda ts: np.sin(ts)[:, None] * g, initial_state=data)
            counts[t_final] = (nonlinear, len(calls))
        assert counts[0.01] == counts[0.02]

    def test_asymmetric_base_or_forcing_raises_before_the_first_step(self, monkeypatch):
        cfg = SimConfig(**self.CFG, t_final=0.01)
        bad = from_modes(GRID, {1: 0.1, -1: 0.05}, real_flag=True).coeffs
        calls = []
        real = solver.semidiscrete_rhs_linearized

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(solver, "semidiscrete_rhs_linearized", counted)
        for kw in ({"base": lambda ts: np.cos(ts)[:, None] * bad},
                   {"forcing": lambda ts: np.cos(ts)[:, None] * bad}):
            with pytest.raises(ValueError, match="conjugate symmetric"):
                solve_linearized(cfg, **kw)
        assert calls == []

    def test_base_with_mean_rejected(self):
        cfg = SimConfig(**self.CFG, t_final=0.01)
        with pytest.raises(ValueError, match="zero mean"):
            solve_linearized(cfg, base=from_modes(GRID, {0: 0.5}, real_flag=True))

    def test_forcing_mean_is_dropped(self):
        cfg = SimConfig(**self.CFG, t_final=0.05)
        g = cosine(GRID, 1).coeffs
        with_mean = g.copy()
        with_mean[GRID.n // 2 - 1] = 5.0
        a, _ = solve_linearized(cfg, forcing=lambda ts: np.cos(ts)[:, None] * g)
        b, _ = solve_linearized(cfg, forcing=lambda ts: np.cos(ts)[:, None] * with_mean)
        for name in ("phi", "phit", "phitt"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.max(np.abs(a.phi[-1])) > 0.0


class TestGrowth:
    def test_synthetic_exponential(self):
        ts = np.linspace(0.0, 1.0, 51)
        phis = [cosine(GRID, 2, 1e-6 * np.exp(3.0 * t)) for t in ts]
        traj = Trajectory(ts, phis, [zeros(GRID)] * 51)
        rates = measure_mode_growth(traj, [2])
        assert rates[2] == pytest.approx(3.0, rel=1e-6)

    @pytest.mark.parametrize("amplitude", [1e-20, 1e-6, 1e3])
    def test_rate_does_not_depend_on_the_amplitude(self, amplitude):
        # the floor that drops samples is relative to the peak: a seed far
        # below 1 keeps every sample, as a large one does
        ts = np.linspace(0.0, 1.0, 51)
        phis = [cosine(GRID, 2, amplitude * np.exp(3.0 * t)) for t in ts]
        traj = Trajectory(ts, phis, [zeros(GRID)] * 51)
        assert measure_mode_growth(traj, [2])[2] == pytest.approx(3.0, rel=1e-6)

    def test_elliptic_rates(self):
        # mu = -1, base 0: seeding (eps cos kx, eps k cos kx) selects the
        # pure e^{kt} branch with rate exactly |k| sqrt(|mu|)
        cfg = SimConfig(mu=-1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=2e-3, t_final=0.5)
        eps = 1e-6
        data = CauchyData(cosine(GRID, 4, eps), cosine(GRID, 4, 4 * eps))
        traj, mon = solve_linearized(cfg, initial_state=data)
        rates = measure_mode_growth(traj, [4])
        assert rates[4] == pytest.approx(4.0, rel=0.05)
        assert any(f["type"] == "elliptic_regime" for f in mon["flags"])

    def test_hyperbolic_rate_is_flat(self):
        cfg = SimConfig(mu=1.0, delta=0.9, grid_n=32, galerkin_N=8,
                        dt=2e-3, t_final=1.0)
        data = CauchyData(cosine(GRID, 1), sine(GRID, 1, 1.0))
        traj, _ = solve_linearized(cfg, initial_state=data)
        rates = measure_mode_growth(traj, [1])
        assert abs(rates[1]) < 0.05

    def test_dead_mode_is_nan(self):
        # a mode that stays zero, and a single node: no two usable samples
        ts = np.linspace(0.0, 1.0, 11)
        dead = Trajectory(ts, [zeros(GRID)] * 11, [zeros(GRID)] * 11)
        single = Trajectory([0.0], [cosine(GRID, 3)], [zeros(GRID)])
        for traj in (dead, single):
            rates = measure_mode_growth(traj, [3])
            assert np.isnan(rates[3])

    @pytest.mark.parametrize("n", [64, 128])
    def test_superposed_modes_step_as_their_single_mode_solves(self, n):
        # with no base the linearized system is diagonal in k: mu phi_xx is
        # applied exactly, so each mode of one superposed solve is its own
        # single-mode solve bitwise, on the table (n = 64) and FFT paths
        grid = TorusGrid(n)
        cfg = SimConfig(mu=-1.0, delta=0.9, grid_n=n, galerkin_N=21, dt=2e-3, t_final=0.5)
        modes, eps = (1, 2, 4, 21), 1e-6

        def solve(ks):
            phi0 = sum((cosine(grid, k, eps) for k in ks), zeros(grid))
            phi1 = sum((cosine(grid, k, eps * k) for k in ks), zeros(grid))
            return solve_linearized(cfg, initial_state=CauchyData(phi0, phi1))[0]

        together = solve(modes)
        assert len(together) == cfg.num_steps() + 1
        for k in modes:
            alone = solve([k])
            cols = [n // 2 - 1 - k, n // 2 - 1 + k]
            for name in ("phi", "phit", "phitt"):
                assert np.array_equal(getattr(together, name)[:, cols],
                                      getattr(alone, name)[:, cols]), (k, name)

    def test_blow_up_flag(self):
        cfg = SimConfig(mu=-1.0, delta=0.9, grid_n=32, galerkin_N=10,
                        dt=2e-3, t_final=4.0)
        data = CauchyData(cosine(GRID, 10, 1e3), cosine(GRID, 10, 1e4))
        traj, mon = solve_linearized(cfg, initial_state=data)
        kinds = [f["type"] for f in mon["flags"]]
        assert "blow_up" in kinds
        assert len(traj) < cfg.num_steps() + 1


class TestFieldEvaluator:
    def test_series_exact_at_nodes(self):
        ts = np.linspace(0.0, 1.0, 11)
        fields = [cosine(GRID, 1, np.sin(t)) for t in ts]
        ev = field_evaluator(FieldSeries(ts, fields), GRID)
        got = ev(ts[[0, 5, 10]])
        for row, i in zip(got, (0, 5, 10)):
            assert np.max(np.abs(row - fields[i].coeffs)) == 0.0

    def test_series_quartic_accuracy(self):
        ts = np.linspace(0.0, 1.0, 101)
        fields = [cosine(GRID, 1, np.sin(3.0 * t)) for t in ts]
        ev = field_evaluator(FieldSeries(ts, fields), GRID)
        t = 0.5037
        got = ev(np.array([t]))[0, GRID.n // 2] / np.pi
        assert abs(got - np.sin(3.0 * t)) < 1e-7

    def test_lagrange_weights_match_literal_product(self):
        # the vectorized weights of a batch of node sets against
        # prod_{m != j} (t - t_m)/(t_j - t_m) multiplied out in the same
        # order, for 1 to 4 nodes
        rng = np.random.default_rng(9)
        for k in (1, 2, 3, 4):
            nodes, ts = np.sort(rng.random((50, k)), axis=1), rng.random(50)
            want = [[np.prod([(t - row[m]) / (row[j] - row[m])
                              for m in range(k) if m != j]) for j in range(k)]
                    for row, t in zip(nodes, ts)]
            assert np.array_equal(_lagrange_weights(nodes, ts), want)

    def test_every_source_kind_gives_rows(self):
        lift = build_lifting(CauchyData(cosine(GRID, 1, 0.01), zeros(GRID)), 1.0, 0.9)
        series = Trajectory(np.linspace(0.0, 1.0, 5),
                            np.tile(cosine(GRID, 2).coeffs, (5, 1)))
        sources = [None, cosine(GRID, 3), series, lambda ts: lift.states(ts)[0],
                   lambda ts: np.zeros((len(ts), GRID.n - 1), complex)]
        ts = np.linspace(0.0, 1.0, 7)
        for source in sources:
            rows = field_evaluator(source, GRID)(ts)
            assert isinstance(rows, np.ndarray) and rows.shape == (7, GRID.n - 1)
        assert np.array_equal(field_evaluator(None, GRID)(ts), np.zeros((7, GRID.n - 1)))
        assert np.array_equal(field_evaluator(cosine(GRID, 3), GRID)(ts)[4],
                              cosine(GRID, 3).coeffs)

    def test_series_rejects_times_outside_its_span(self):
        # no extrapolation: a time past either end by more than 1e-9 raises,
        # and so does a NaN time; round-off at the ends does not
        nodes = np.linspace(0.2, 0.6, 9)
        ev = field_evaluator(Trajectory(nodes, np.tile(cosine(GRID, 2).coeffs, (9, 1))), GRID)
        for ts in ([0.0, 0.3], [0.3, 0.8], [0.2 - 2e-9], [0.6 + 2e-9], [np.nan], [0.3, np.nan]):
            with pytest.raises(ValueError, match=r"series covers \[0.2, 0.6\]"):
                ev(np.array(ts))
        assert ev(np.array([0.2 - 1e-10, 0.6 + 1e-10])).shape == (2, GRID.n - 1)

    def test_callable_of_wrong_shape_rejected(self):
        ts = np.linspace(0.0, 1.0, 7)
        bad = [lambda ts: cosine(GRID, 1),
               lambda ts: np.zeros((len(ts) - 1, GRID.n - 1)),
               lambda ts: np.zeros((len(ts), GRID.n)),
               lambda ts: np.zeros(GRID.n - 1)]
        for source in bad:
            with pytest.raises(TypeError):
                field_evaluator(source, GRID)(ts)

    def test_vectorized_interpolation_matches_per_time_formula(self):
        # 200 random times against the literal 4-point formula, window
        # chosen per time as sum_j w_j row_j; exact at the nodes
        rng = np.random.default_rng(4)
        nodes = np.sort(rng.random(23))
        rows = rng.standard_normal((23, GRID.n - 1)) + 1j * rng.standard_normal((23, GRID.n - 1))
        ev = field_evaluator(Trajectory(nodes, rows), GRID)
        ts = rng.uniform(nodes[0], nodes[-1], 200)
        got = ev(ts)
        for t, row in zip(ts, got):
            j0 = min(max(int(np.searchsorted(nodes, t)) - 2, 0), len(nodes) - 4)
            want = sum(np.prod([(t - nodes[m]) / (nodes[j] - nodes[m])
                                for m in range(j0, j0 + 4) if m != j]) * rows[j]
                       for j in range(j0, j0 + 4))
            assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(ev(nodes), rows)

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            field_evaluator(42, GRID)
