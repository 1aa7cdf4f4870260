"""Tests for the nonlinearity, its derivatives, stability, and lifting."""

import numpy as np
import pytest

from amp_sheet.operators import (
    CauchyData,
    FieldSeries,
    Lifting,
    LiftingError,
    Trajectory,
    build_lifting,
    bump_window,
    lifting_forcing,
    apply_linearized_operator,
    quadratic_rhs,
    quadratic_rhs_derivative,
    second_derivative,
    stability_coefficient,
)
from amp_sheet.spectral import (
    SpectralField,
    TorusGrid,
    cosine,
    derivative,
    from_modes,
    hilbert,
    inner_product,
    pointwise_product,
    sine,
    synthesize,
    zeros,
)

from _oracles import (
    analyze,
    apply_linearized_alt,
    chi_parts_scalar,
    coeffs_cos,
    direct_quadratic_rhs,
    evolution_residual,
    linearized_parts,
    quadratic_rhs_alt,
)


GRID = TorusGrid(64)


def random_field(grid, kmax, rng, decay=2.0):
    pairs = {}
    for k in range(1, kmax + 1):
        a = rng.normal() / (1.0 + k) ** decay
        b = rng.normal() / (1.0 + k) ** decay
        pairs[k] = np.pi * (a - 1j * b)
        pairs[-k] = np.pi * (a + 1j * b)
    return from_modes(grid, pairs, real_flag=True)


class TestQuadraticRhs:
    def test_single_cosine_closed_form(self):
        # N(cos x) = cos 2x, computed independently by the dict-convolution
        # oracle and known in closed form.
        out = quadratic_rhs(cosine(GRID, 1))
        target = cosine(GRID, 2)
        assert np.max(np.abs(out.coeffs - target.coeffs)) < 1e-13

    def test_matches_oracle_on_random_field(self):
        rng = np.random.default_rng(31)
        f = random_field(GRID, 6, rng)
        want = direct_quadratic_rhs({k: f.coeff(k) for k in f.grid.modes}, kmax=12)
        got = quadratic_rhs(f)
        for k, c in want.items():
            assert got.coeff(k) == pytest.approx(c, abs=1e-12)
        # and nothing outside the oracle's band
        for k in GRID.modes:
            if k not in want:
                assert abs(got.coeff(k)) < 1e-12

    def test_zero_field(self):
        out = quadratic_rhs(zeros(GRID))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_quadratic_scaling(self):
        f = cosine(GRID, 3, 0.7) + sine(GRID, 1, -0.2)
        base = quadratic_rhs(f)
        scaled = quadratic_rhs(2.5 * f)
        assert np.max(np.abs(scaled.coeffs - 6.25 * base.coeffs)) < 1e-12

    def test_alternate_form_agrees(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            f = random_field(GRID, 8, rng)
            a = quadratic_rhs(f)
            b = quadratic_rhs_alt(f)
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-11

    def test_output_is_real_zero_mean(self):
        f = random_field(GRID, 10, np.random.default_rng(4))
        out = quadratic_rhs(f)
        assert out.real_flag
        assert abs(out.coeff(0)) < 1e-12

    def test_rejects_nonzero_mean(self):
        f = from_modes(GRID, {0: 1.0, 1: np.pi, -1: np.pi}, real_flag=True)
        with pytest.raises(ValueError):
            quadratic_rhs(f)


class TestFusedKernel:
    """The real-transform N(phi) kernel against the independent route
    quadratic_rhs_alt, on arrays with a batch axis, and on bad input."""

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("n", [32, 64, 256, 1024])
    def test_matches_oracle(self, n, dealias):
        # Bandwidth 8 <= n/4 keeps aliased products out of the band, so
        # both routes evaluate the same N, which lives on |k| <= 16.
        # Beyond that the exact value is 0 and both outputs are round-off;
        # the oracle's is amplified by its third derivative (about 1e-9
        # relative at n = 1024), so there only the kernel is bounded.
        grid = TorusGrid(n)
        support = np.abs(grid.modes) <= 16
        rng = np.random.default_rng(n)
        for _ in range(5):
            f = random_field(grid, 8, rng)
            got = quadratic_rhs(f, dealias).coeffs
            want = quadratic_rhs_alt(f, dealias).coeffs
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)[support]) <= 1e-12 * scale
            assert np.max(np.abs(got[~support]), initial=0.0) <= 1e-12 * scale

    def test_batch_equals_single_calls(self):
        rng = np.random.default_rng(12)
        fields = [random_field(GRID, 12, rng) for _ in range(7)]
        batch = quadratic_rhs(np.stack([f.coeffs for f in fields]))
        assert isinstance(batch, np.ndarray) and batch.shape == (7, GRID.n - 1)
        for row, f in zip(batch, fields):
            single = quadratic_rhs(f).coeffs
            assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))

    def test_rejects_asymmetric_real_field(self):
        # flagged real, but c(-1) != conj(c(1)): the kernel reads k >= 0 only
        f = from_modes(GRID, {1: np.pi, -1: 0.5 * np.pi}, real_flag=True)
        with pytest.raises(ValueError, match="conjugate symmetric"):
            quadratic_rhs(f)
        with pytest.raises(ValueError, match="conjugate symmetric"):
            quadratic_rhs(np.stack([cosine(GRID, 1).coeffs, f.coeffs]))


class TestDerivatives:
    def test_taylor_expansion_is_exact(self):
        # N is quadratic, so N(u+v) = N(u) + dN[u]v + N(v) with no remainder.
        rng = np.random.default_rng(77)
        for _ in range(5):
            u = random_field(GRID, 7, rng)
            v = random_field(GRID, 7, rng)
            lhs = quadratic_rhs(u + v)
            rhs = quadratic_rhs(u) + quadratic_rhs_derivative(u, v) + quadratic_rhs(v)
            scale = 1.0 + np.max(np.abs(lhs.coeffs))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale < 1e-13

    def test_derivative_at_zero_vanishes(self):
        v = random_field(GRID, 5, np.random.default_rng(2))
        out = quadratic_rhs_derivative(zeros(GRID), v)
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_gateaux_limit(self):
        # (N(u + e v) - N(u))/e -> dN[u]v linearly in e; exact up to the
        # quadratic term e N(v).
        u = random_field(GRID, 6, np.random.default_rng(11))
        v = random_field(GRID, 6, np.random.default_rng(12))
        eps = 1e-3
        diff = (1.0 / eps) * (quadratic_rhs(u + eps * v) - quadratic_rhs(u))
        lin = quadratic_rhs_derivative(u, v)
        rem = diff - lin - eps * quadratic_rhs(v)
        assert np.max(np.abs(rem.coeffs)) < 1e-10

    def test_second_derivative_symmetric_bilinear(self):
        rng = np.random.default_rng(5)
        u, v, w = (random_field(GRID, 6, rng) for _ in range(3))
        ab = second_derivative(u, v)
        ba = second_derivative(v, u)
        assert np.max(np.abs(ab.coeffs - ba.coeffs)) < 1e-12
        lin = second_derivative(u, 2.0 * v + w)
        comb = 2.0 * ab + second_derivative(u, w)
        assert np.max(np.abs(lin.coeffs - comb.coeffs)) < 1e-12

    def test_half_second_derivative_recovers_nonlinearity(self):
        u = random_field(GRID, 8, np.random.default_rng(21))
        d2 = second_derivative(u, u)
        n = quadratic_rhs(u)
        assert np.max(np.abs(0.5 * d2.coeffs + n.coeffs)) < 1e-12


class TestFusedLinearized:
    """The fused linearized kernel against the composed oracle
    apply_linearized_alt, on batches, with a broadcast base, and on bad
    input."""

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("n", [32, 64, 256, 1024])
    def test_matches_oracle(self, n, dealias):
        # Bandwidth 8 <= n/4 keeps aliased products out of the band, so
        # both routes evaluate the same operator, which lives on |k| <= 16;
        # beyond that only the kernel's round-off is bounded, as for N.
        grid = TorusGrid(n)
        support = np.abs(grid.modes) <= 16
        rng = np.random.default_rng(n + 1)
        for mu in (1.3, 0.0):
            u, v = random_field(grid, 8, rng), random_field(grid, 8, rng)
            want = apply_linearized_alt(u, v, mu, dealias).coeffs
            scale = np.max(np.abs(want))
            for got in (apply_linearized_operator(u, v, mu, dealias).coeffs,
                        mu * derivative(v, 2).coeffs
                        + quadratic_rhs_derivative(u, v, dealias).coeffs):
                assert np.max(np.abs(got - want)[support]) <= 1e-12 * scale
                assert np.max(np.abs(got[~support]), initial=0.0) <= 1e-12 * scale

    def test_batch_equals_single_calls(self):
        rng = np.random.default_rng(13)
        bases = [random_field(GRID, 12, rng) for _ in range(7)]
        dirs = [random_field(GRID, 12, rng) for _ in range(7)]
        batch = apply_linearized_operator(np.stack([f.coeffs for f in bases]),
                                          np.stack([f.coeffs for f in dirs]), 0.8)
        assert isinstance(batch, np.ndarray) and batch.shape == (7, GRID.n - 1)
        for row, u, v in zip(batch, bases, dirs):
            single = apply_linearized_operator(u, v, 0.8).coeffs
            assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))

    def test_base_broadcasts_against_batch(self):
        rng = np.random.default_rng(14)
        u = random_field(GRID, 10, rng)
        dirs = np.stack([random_field(GRID, 10, rng).coeffs for _ in range(5)])
        for base in (u, u.coeffs):
            batch = apply_linearized_operator(base, dirs, 1.1)
            assert batch.shape == dirs.shape
            for row, d in zip(batch, dirs):
                single = apply_linearized_operator(u, SpectralField(GRID, d, True), 1.1)
                assert np.max(np.abs(row - single.coeffs)) <= 1e-14 * np.max(np.abs(row))

    def test_rejects_asymmetric_real_field(self):
        # flagged real, but c(-1) != conj(c(1)): the kernel reads k >= 0 only
        bad = from_modes(GRID, {1: np.pi, -1: 0.5 * np.pi}, real_flag=True)
        good = cosine(GRID, 2)
        for args in ((bad, good), (good, bad), (good.coeffs, bad.coeffs),
                     (np.stack([good.coeffs, bad.coeffs]), good.coeffs)):
            with pytest.raises(ValueError, match="conjugate symmetric"):
                apply_linearized_operator(*args, 1.0)


class TestLinearizedParts:
    def test_zero_base_reduces_to_constant_coefficient(self):
        v = random_field(GRID, 6, np.random.default_rng(3))
        c2, lower = linearized_parts(zeros(GRID), v, mu=1.7)
        assert np.max(np.abs(c2.coeffs - cosine(GRID, 0, 1.7).coeffs)) < 1e-14
        assert np.max(np.abs(lower.coeffs)) < 1e-13
        out = apply_linearized_operator(zeros(GRID), v, mu=1.7)
        assert np.max(np.abs(out.coeffs - 1.7 * derivative(v, 2).coeffs)) < 1e-13

    def test_assembly_matches_direct_derivative(self):
        rng = np.random.default_rng(19)
        for _ in range(4):
            u = random_field(GRID, 6, rng)
            v = random_field(GRID, 6, rng)
            mu = 1.3
            assembled = apply_linearized_operator(u, v, mu)
            direct = mu * derivative(v, 2) + quadratic_rhs_derivative(u, v)
            assert np.max(np.abs(assembled.coeffs - direct.coeffs)) < 1e-11

    def test_cosine_base_frozen_value(self):
        # base and direction both cos x: dN[cos x]cos x = 2 N(cos x) = 2 cos 2x,
        # so the full spatial operator gives -mu cos x + 2 cos 2x.
        u = cosine(GRID, 1)
        mu = 2.0
        out = apply_linearized_operator(u, u, mu)
        want = -mu * cosine(GRID, 1).coeffs + 2.0 * cosine(GRID, 2).coeffs
        assert np.max(np.abs(out.coeffs - want)) < 1e-12


class TestStability:
    def test_sine_profile_minimum(self):
        # phi = a sin x gives H[phi] = -a cos x, (H phi)_x = a sin x,
        # coefficient mu - 2 a sin x with minimum mu - 2a.
        vals, mn = stability_coefficient(sine(GRID, 1, 0.3), mu=1.0)
        assert mn == pytest.approx(1.0 - 0.6, abs=1e-12)
        assert vals.max() == pytest.approx(1.0 + 0.6, abs=1e-12)

    def test_zero_field_gives_mu(self):
        _, mn = stability_coefficient(zeros(GRID), mu=-0.5)
        assert mn == -0.5

    def test_batch_equals_per_node_loop(self):
        # one inverse real FFT for a (T, n-1) stack against the composed
        # route mu - 2 synthesize(d/dx H phi), node by node
        rng = np.random.default_rng(41)
        stack = np.stack([random_field(GRID, 12, rng).coeffs for _ in range(9)])
        vals, mn = stability_coefficient(stack, mu=1.2)
        assert vals.shape == (9, GRID.n)
        mins = []
        for row, c in zip(vals, stack):
            want = 1.2 - 2.0 * synthesize(derivative(hilbert(SpectralField(GRID, c, True))))
            assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))
            single, m = stability_coefficient(SpectralField(GRID, c, True), mu=1.2)
            assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(want))
            mins.append(m)
        assert mn == pytest.approx(min(mins), rel=1e-14)

    def test_mean_zero_profile_cannot_raise_minimum_above_mu(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            f = random_field(GRID, 8, rng)
            _, mn = stability_coefficient(f, mu=1.0)
            assert mn <= 1.0 + 1e-12


class TestContainers:
    def test_cauchy_data_validation(self):
        with pytest.raises(ValueError):
            CauchyData(cosine(GRID, 1), cosine(TorusGrid(32), 1))
        with pytest.raises(ValueError):
            CauchyData(from_modes(GRID, {0: 1.0}, real_flag=True), zeros(GRID))

    def test_cauchy_data_scaling(self):
        d = CauchyData(cosine(GRID, 1), sine(GRID, 2))
        s = d.scaled(0.25)
        assert np.max(np.abs(s.phi0.coeffs - 0.25 * d.phi0.coeffs)) == 0.0

    def test_field_series_rejects_disorder(self):
        with pytest.raises(ValueError):
            FieldSeries(np.array([0.0, 0.0]), [zeros(GRID), zeros(GRID)])

    def test_trajectory_uniformity_check(self):
        # a non-uniform mesh is a valid container; only its step is undefined
        phis = [zeros(GRID)] * 3
        traj = Trajectory(np.array([0.0, 0.1, 0.3]), phis, phis)
        assert len(traj) == 3
        with pytest.raises(ValueError):
            traj.dt
        with pytest.raises(ValueError):
            traj.second_difference()
        assert Trajectory(np.array([0.0, 0.1, 0.2]), phis, phis).dt == pytest.approx(0.1)

    def test_phit_derivative_endpoints(self):
        # phi_t(t) = t^2 cos x sampled exactly; one-sided second order
        # differences recover 2t cos x at both ends.
        ts = np.linspace(0.0, 1.0, 11)
        phits = np.array([cosine(GRID, 1, t * t).coeffs for t in ts])
        traj = Trajectory(ts, np.zeros_like(phits), phits)
        d = traj.phit_derivative()
        assert d.shape == phits.shape
        for i, t in ((0, 0.0), (5, 0.5), (10, 1.0)):
            want = cosine(GRID, 1, 2.0 * t)
            assert np.max(np.abs(d[i] - want.coeffs)) < 1e-11

    def test_second_difference_of_quadratic_in_time(self):
        # phi(t) = t^2 cos x: every centered second difference is 2 cos x
        ts = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(ts, [cosine(GRID, 1, t * t) for t in ts])
        d = traj.second_difference()
        assert d.shape == (9, GRID.n - 1)
        assert np.max(np.abs(d - cosine(GRID, 1, 2.0).coeffs)) < 1e-11

    def test_field_list_equals_stacked_array(self):
        ts = np.linspace(0.0, 1.0, 6)
        phis = [cosine(GRID, 1, t) + sine(GRID, 3, 1.0 - t) for t in ts]
        phits = [sine(GRID, 2, t * t) for t in ts]
        a = Trajectory(ts, phis, phits, phits)
        b = Trajectory(ts, np.array([f.coeffs for f in phis]),
                       np.array([f.coeffs for f in phits]),
                       np.array([f.coeffs for f in phits]))
        for x, y in ((a.phi, b.phi), (a.phit, b.phit), (a.phitt, b.phitt)):
            assert x.shape == (6, GRID.n - 1) and np.array_equal(x, y)
        assert len(a) == len(b) == 6 and a.grid == b.grid == GRID
        # the read-only field lists give back the fields put in
        assert all(np.array_equal(f.coeffs, g.coeffs) and f.real_flag
                   for f, g in zip(b.phis, phis))
        assert Trajectory(ts, phis).phit is None and Trajectory(ts, phis).phits is None

    def test_non_real_field_rejected(self):
        ts = np.linspace(0.0, 1.0, 3)
        complex_field = from_modes(GRID, {1: 1.0})
        with pytest.raises(ValueError):
            Trajectory(ts, [zeros(GRID), complex_field, zeros(GRID)])
        with pytest.raises(ValueError):
            Trajectory(ts, [zeros(GRID)] * 3, [complex_field] * 3)

    def test_shape_mismatch_rejected(self):
        ts = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            Trajectory(ts, np.zeros((4, GRID.n - 1), complex))
        with pytest.raises(ValueError):
            Trajectory(ts, np.zeros((3, GRID.n - 1)), np.zeros((2, GRID.n - 1)))
        with pytest.raises(ValueError):
            Trajectory(ts[:0], [])


class TestResidual:
    def test_static_profile(self):
        # a constant-in-time profile cos x has residual mu cos x - cos 2x
        ts = np.linspace(0.0, 0.1, 11)
        phis = [cosine(GRID, 1) for _ in ts]
        phits = [zeros(GRID) for _ in ts]
        traj = Trajectory(ts, phis, phits)
        res = evolution_residual(traj, mu=2.0, index=5)
        want = 2.0 * cosine(GRID, 1).coeffs - cosine(GRID, 2).coeffs
        assert np.max(np.abs(res.coeffs - want)) < 1e-11

    def test_traveling_wave_residual_is_second_order(self):
        # cos(x - t) solves the linear part exactly when mu = 1, so the
        # residual equals -N(phi) = -cos 2(x-t) up to the differencing error
        # (dt^2/12) phi_tttt.
        errs = []
        for dt in (1e-2, 5e-3):
            ts = np.arange(5) * dt
            phis = [
                from_modes(
                    GRID,
                    {1: np.pi * np.exp(-1j * t), -1: np.pi * np.exp(1j * t)},
                    real_flag=True,
                )
                for t in ts
            ]
            phits = [
                from_modes(
                    GRID,
                    {1: 1j * np.pi * np.exp(-1j * t), -1: -1j * np.pi * np.exp(1j * t)},
                    real_flag=True,
                )
                for t in ts
            ]
            traj = Trajectory(ts, phis, phits)
            r = evolution_residual(traj, mu=1.0, index=2)
            t2 = ts[2]
            want = from_modes(
                GRID,
                {2: -np.pi * np.exp(-2j * t2), -2: -np.pi * np.exp(2j * t2)},
                real_flag=True,
            )
            errs.append(np.max(np.abs(r.coeffs - want.coeffs)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_interior_only(self):
        ts = np.linspace(0.0, 0.1, 5)
        phis = [zeros(GRID)] * 5
        traj = Trajectory(ts, phis, phis)
        with pytest.raises(ValueError):
            evolution_residual(traj, 1.0, 0)
        with pytest.raises(ValueError):
            evolution_residual(traj, 1.0, 4)


class TestLifting:
    def make_data(self, a0=0.01, a1=0.005):
        return CauchyData(cosine(GRID, 1, a0), sine(GRID, 2, a1))

    def test_exact_match_at_zero(self):
        lift = build_lifting(self.make_data(), mu=1.0, delta=0.9)
        phi, phit, phitt = lift.at(0.0)
        assert np.max(np.abs(phi.coeffs - lift.data.phi0.coeffs)) == 0.0
        assert np.max(np.abs(phit.coeffs - lift.data.phi1.coeffs)) == 0.0
        assert np.max(np.abs(phitt.coeffs)) == 0.0

    def test_plateau_and_support(self):
        lift = build_lifting(self.make_data(), mu=1.0, delta=0.9)
        r = lift.ramp_width
        phi, phit, _ = lift.at(0.5 * r)
        want = lift.data.phi0.coeffs + 0.5 * r * lift.data.phi1.coeffs
        assert np.max(np.abs(phi.coeffs - want)) < 1e-15
        assert np.max(np.abs(phit.coeffs - lift.data.phi1.coeffs)) == 0.0
        for t in (2.0 * r, 3.0 * r, -2.5 * r):
            phi, phit, phitt = lift.at(t)
            assert np.max(np.abs(phi.coeffs)) == 0.0
            assert np.max(np.abs(phit.coeffs)) == 0.0
            assert np.max(np.abs(phitt.coeffs)) == 0.0

    def test_bump_derivatives_match_finite_differences(self):
        lift = build_lifting(self.make_data(), mu=1.0, delta=0.9)
        r = lift.ramp_width
        h = 1e-6
        for t in (1.2 * r, 1.7 * r, -1.4 * r):
            c, cp, cpp = lift.chi(t)
            cm = lift.chi(t - h)[0]
            cl = lift.chi(t + h)[0]
            assert (cl - cm) / (2 * h) == pytest.approx(cp, abs=5e-7)
            assert (cl - 2 * c + cm) / h**2 == pytest.approx(cpp, abs=5e-4)

    def test_bump_matches_scalar_reference(self):
        # the array bump equals the scalar reference to round-off, row by
        # row; a scalar time still gives three floats
        for r in (0.5, 0.013):
            ts = np.linspace(-2.5 * r, 2.5 * r, 1001)
            want = np.array([chi_parts_scalar(float(t), r) for t in ts]).T
            for row, ref in zip(bump_window(ts, 0.0, r), want):
                assert row.shape == ts.shape
                assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))
            for t in (0.5 * r, 1.3 * r, -1.7 * r, 2.0 * r):
                parts = bump_window(t, 0.0, r)
                assert all(type(x) is float for x in parts)
                assert parts == pytest.approx(chi_parts_scalar(t, r), rel=1e-14, abs=0.0)

    def test_stability_invariant_on_support(self):
        data = CauchyData(cosine(GRID, 1, 0.04), sine(GRID, 1, 0.08))
        lift = build_lifting(data, mu=1.0, delta=0.9)
        worst = np.inf
        for t in np.linspace(-2.5 * lift.ramp_width, 2.5 * lift.ramp_width, 257):
            phi, _, _ = lift.at(float(t))
            _, mn = stability_coefficient(phi, 1.0)
            worst = min(worst, mn)
        assert worst >= 0.75 * 0.9 - 1e-9

    def test_at_equals_rows_of_states(self):
        lift = build_lifting(self.make_data(), mu=1.0, delta=0.9)
        r = lift.ramp_width
        for t in (-2.5 * r, -1.3 * r, 0.0, 0.5 * r, 1.2 * r, 1.7 * r, 3.0 * r):
            rows = lift.states([t])
            for field, row in zip(lift.at(t), rows):
                assert row.shape == (1, GRID.n - 1)
                assert np.array_equal(field.coeffs, row[0])

    def test_ramp_shrinks_for_large_velocity(self):
        # phi1 large enough that t*chi*phi1 would break the margin at the
        # default ramp; the builder must shrink.
        data = CauchyData(cosine(GRID, 1, 0.02), sine(GRID, 1, 0.6))
        lift = build_lifting(data, mu=1.0, delta=0.9)
        assert lift.ramp_width < 0.5

    def test_rejects_bad_initial_margin(self):
        data = CauchyData(cosine(GRID, 1, 0.3), zeros(GRID))
        # stability of 0.3 cos x at mu=1: min(1 - 2*0.3*(-sin? ...)) -> 1-0.6=0.4 < 0.9
        with pytest.raises(ValueError):
            build_lifting(data, mu=1.0, delta=0.9)

    def test_impossible_data_raises_lifting_error(self):
        # velocity so large no ramp width can absorb it
        data = CauchyData(cosine(GRID, 1, 0.001), sine(GRID, 1, 1e6))
        with pytest.raises(LiftingError):
            build_lifting(data, mu=1.0, delta=0.9)


class TestLiftingForcing:
    def test_zero_for_negative_times(self):
        data = CauchyData(cosine(GRID, 1, 0.01), zeros(GRID))
        lift = build_lifting(data, mu=1.0, delta=0.9)
        F = lifting_forcing(lift, 1.0, [-1.0, -0.01, 0.0])
        assert np.max(np.abs(F.phi[0])) == 0.0
        assert np.max(np.abs(F.phi[1])) == 0.0
        assert np.max(np.abs(F.phi[2])) > 0.0

    def test_plateau_closed_form(self):
        # on the plateau phi_a = a cos x is constant in time, so
        # F = -(0 - mu phi_xx - N(phi)) = -mu a cos x + a^2 cos 2x
        a, mu = 0.01, 1.0
        data = CauchyData(cosine(GRID, 1, a), zeros(GRID))
        lift = build_lifting(data, mu, delta=0.9)
        ts = [0.0, 0.3 * lift.ramp_width, 0.9 * lift.ramp_width]
        F = lifting_forcing(lift, mu, ts)
        want = -mu * cosine(GRID, 1, a).coeffs + cosine(GRID, 2, a * a).coeffs
        for row in F.phi:
            assert np.max(np.abs(row - want)) < 1e-15

    def test_vanishes_beyond_ramp(self):
        data = CauchyData(cosine(GRID, 1, 0.01), zeros(GRID))
        lift = build_lifting(data, 1.0, 0.9)
        F = lifting_forcing(lift, 1.0, [2.5 * lift.ramp_width])
        assert np.max(np.abs(F.phi[0])) == 0.0
