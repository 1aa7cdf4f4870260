"""Tests for the nonlinearity, its derivatives, stability, and lifting."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amp_sheet.operators as ops
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
    nonlinear_operator,
    quadratic_rhs,
    quadratic_rhs_derivative,
    require_margin,
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
    padded_linearized_rows,
    padded_nonlinear_rows,
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

    @pytest.mark.parametrize("n", [32, 64, 256, 1024])
    def test_matches_oracle(self, n):
        # Both routes evaluate the same N of a bandwidth-8 field, which
        # lives on |k| <= 16.
        # Beyond that the exact value is 0 and both outputs are round-off;
        # the oracle's is amplified by its third derivative (about 1e-9
        # relative at n = 1024), so there only the kernel is bounded.
        grid = TorusGrid(n)
        support = np.abs(grid.modes) <= 16
        rng = np.random.default_rng(n)
        for _ in range(5):
            f = random_field(grid, 8, rng)
            got = quadratic_rhs(f).coeffs
            want = quadratic_rhs_alt(f).coeffs
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


class TestNonlinearOperator:
    def test_batch_equals_row_by_row(self):
        # mu phi_xx + N(phi) on a (T, n-1) batch is, row for row and
        # bitwise, mu * (-k^2) * phi plus the one-row quadratic_rhs
        rng = np.random.default_rng(14)
        rows = np.stack([random_field(GRID, 12, rng).coeffs for _ in range(7)])
        lap = -(GRID.modes.astype(float) ** 2)
        for mu in (1.0, 0.83, -0.3):
            batch = nonlinear_operator(rows, mu)
            assert batch.shape == rows.shape
            for got, row in zip(batch, rows):
                assert np.array_equal(got, mu * lap * row + quadratic_rhs(row))

    def test_two_batch_axes(self):
        # a (2, 3, n-1) stack gives, row for row and bitwise, the one-row
        # results, for mu phi_xx + N(phi) and for the linearization
        rng = np.random.default_rng(19)
        rows = np.stack([random_field(GRID, 12, rng).coeffs for _ in range(6)])
        base = random_field(GRID, 20, rng).coeffs
        for got, one in ((nonlinear_operator(rows.reshape(2, 3, -1), 0.8),
                          lambda r: nonlinear_operator(r, 0.8)),
                         (apply_linearized_operator(base, rows.reshape(2, 3, -1), 0.8),
                          lambda r: apply_linearized_operator(base, r, 0.8))):
            assert got.shape == (2, 3, GRID.n - 1)
            for g, r in zip(got.reshape(6, -1), rows):
                assert np.array_equal(g, one(r))

    def test_quadratic_rhs_is_the_operator_at_mu_zero(self):
        # N(phi) is the kernel of mu phi_xx + N(phi) with mu = 0, on one row
        # and on a batch
        rng = np.random.default_rng(17)
        rows = np.stack([random_field(GRID, 12, rng).coeffs for _ in range(5)])
        for phi in (rows[0], rows):
            assert np.array_equal(quadratic_rhs(phi), nonlinear_operator(phi, 0.0))
        f = SpectralField(GRID, rows[0], True)
        assert np.array_equal(quadratic_rhs(f).coeffs, nonlinear_operator(f, 0.0).coeffs)

    def test_quadratic_rhs_enters_through_the_operator(self, monkeypatch):
        # quadratic_rhs holds no check or kernel call of its own
        seen = []
        monkeypatch.setattr(ops, "nonlinear_operator", lambda phi, mu: seen.append(mu) or "N")
        assert quadratic_rhs(cosine(GRID, 1)) == "N"
        assert seen == [0.0]

    def test_field_in_field_out(self):
        # a field gives a real field on its grid, bitwise the array result
        rng = np.random.default_rng(18)
        f = random_field(GRID, 12, rng)
        for mu in (1.0, -0.4):
            out = nonlinear_operator(f, mu)
            assert isinstance(out, SpectralField)
            assert out.real_flag and out.grid == GRID
            assert np.array_equal(out.coeffs, nonlinear_operator(f.coeffs, mu))
        with pytest.raises(ValueError, match="real"):
            nonlinear_operator(SpectralField(GRID, f.coeffs, False), 1.0)

    def test_matches_independent_route(self):
        # mu phi_xx + N(phi) against mu * derivative(phi, 2) plus the
        # rearranged oracle for N, on fields and on their coefficient rows
        rng = np.random.default_rng(15)
        for mu in (1.0, 0.0, -0.7):
            f = random_field(GRID, 10, rng)
            want = (mu * derivative(f, 2) + quadratic_rhs_alt(f)).coeffs
            scale = np.max(np.abs(want))
            for got in (nonlinear_operator(f.coeffs, mu),
                        nonlinear_operator(np.stack([f.coeffs, f.coeffs]), mu)[1]):
                assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_increment_is_linearized_operator_plus_n_of_increment(self):
        # N is quadratic, so the increment of mu phi_xx + N(phi) along v is
        # exactly the linearization at phi applied to v plus N(v)
        rng = np.random.default_rng(16)
        u, v = random_field(GRID, 10, rng), random_field(GRID, 10, rng)
        mu = 0.9
        got = nonlinear_operator(u.coeffs + v.coeffs, mu) - nonlinear_operator(u.coeffs, mu)
        want = apply_linearized_operator(u, v, mu).coeffs + quadratic_rhs(v).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_rejects_fields_the_kernel_cannot_read(self):
        # nonzero mean, and flagged real but c(-1) != conj(c(1))
        mean = from_modes(GRID, {0: 1.0, 1: np.pi, -1: np.pi}, real_flag=True)
        with pytest.raises(ValueError):
            nonlinear_operator(mean.coeffs, 1.0)
        bad = from_modes(GRID, {1: np.pi, -1: 0.5 * np.pi}, real_flag=True)
        with pytest.raises(ValueError, match="conjugate symmetric"):
            nonlinear_operator(np.stack([cosine(GRID, 1).coeffs, bad.coeffs]), 1.0)


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

    @pytest.mark.parametrize("n", [32, 64, 256, 1024])
    def test_matches_oracle(self, n):
        # Both routes evaluate the same operator on bandwidth-8 fields,
        # which lives on |k| <= 16; beyond that only the kernel's
        # round-off is bounded, as for N.
        grid = TorusGrid(n)
        support = np.abs(grid.modes) <= 16
        rng = np.random.default_rng(n + 1)
        for mu in (1.3, 0.0):
            u, v = random_field(grid, 8, rng), random_field(grid, 8, rng)
            want = apply_linearized_alt(u, v, mu).coeffs
            scale = np.max(np.abs(want))
            for got in (apply_linearized_operator(u, v, mu).coeffs,
                        mu * derivative(v, 2).coeffs
                        + quadratic_rhs_derivative(u, v).coeffs):
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

    @pytest.mark.parametrize("n", [64, 256])
    def test_batch_broadcasts_against_base_batch(self, n):
        # bases (2, 1) against directions (3,), and bases (3,) against one
        # direction: each row is bitwise its single call, on the table path
        # (n = 64) and the FFT path (n = 256)
        grid = TorusGrid(n)
        rng = np.random.default_rng(n)
        bases, dirs = (np.stack([random_field(grid, 10, rng).coeffs for _ in range(k)])
                       for k in (2, 3))
        batch = apply_linearized_operator(bases[:, None], dirs, 0.9)
        assert batch.shape == (2, 3, n - 1)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(batch[i, j], apply_linearized_operator(bases[i], dirs[j], 0.9))
        batch = apply_linearized_operator(dirs, bases[0], 0.9)
        for row, base in zip(batch, dirs):
            assert np.array_equal(row, apply_linearized_operator(base, bases[0], 0.9))

    def test_rejects_asymmetric_real_field(self):
        # flagged real, but c(-1) != conj(c(1)): the kernel reads k >= 0 only
        bad = from_modes(GRID, {1: np.pi, -1: 0.5 * np.pi}, real_flag=True)
        good = cosine(GRID, 2)
        for args in ((bad, good), (good, bad), (good.coeffs, bad.coeffs),
                     (np.stack([good.coeffs, bad.coeffs]), good.coeffs)):
            with pytest.raises(ValueError, match="conjugate symmetric"):
                apply_linearized_operator(*args, 1.0)


def nonlinear_rows(x, mu, plan):
    """The kernel of _nonlinear_map run once on the float rows `x` of any
    batch shape, a unit axis before the last, as the public operator runs it."""
    x = x[..., None, :]
    out = np.empty(x.shape)
    ops._nonlinear_map(plan, mu, x.shape[:-1])(x, out)
    return out[..., 0, :]


def linearized_rows(w0, x, mu, plan):
    """The kernel of _linearized_map run once on the base weights `w0` and
    the float rows `x`, whose batch shapes broadcast, as nonlinear_rows."""
    w0, x = w0[..., None, :], x[..., None, :]
    shape = np.broadcast(w0[..., :1], x).shape[:-1]
    out = np.empty(shape + x.shape[-1:])
    ops._linearized_map(plan, mu, shape)(w0, x, out)
    return out[..., 0, :]


class TestBandPaddedKernels:
    """The float-row kernels pad to their band, m = 3K + 1 points for N and
    B + 2K + 1 for the linearization at a base of band B = n/2 - 1, and
    transform by products with cached real tables while K * m is at most
    operators._TABLE_MAX_KM, by real FFTs above.  The kernels that padded
    to the 3n/2 points of the grid are the oracle."""

    @staticmethod
    def bands(grid, kmax, rng, shape):
        return np.stack([random_field(grid, kmax, rng).coeffs
                         for _ in range(int(np.prod(shape)))]).reshape(shape + (grid.n - 1,))

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_match_the_grid_padded_oracle(self, n):
        # K = 1 leaves the linearization m = n/2 + 2 points, fewer than
        # twice the base's band n/2 - 1: its synthesis drops the base's
        # modes k >= m/2, whose products reach only k > K.  The gap is held
        # to the largest coefficient of the whole-band result, which the
        # coefficients k <= K cancel down from
        grid, B = TorusGrid(n), n // 2 - 1
        rng = np.random.default_rng(n + 3)
        for K in (1, n // 4, B):
            nonlinear, linearized = ops._plan(n, K), ops._plan(n, K, linearized=True)
            for shape in ((1,), (3,), (2, 3)):
                c, c0 = self.bands(grid, B, rng, shape), self.bands(grid, B, rng, shape)
                x, x0 = ops._float_rows(c, K), ops._float_rows(c0)
                full = ops._float_rows(c)
                for got, want, scale in (
                        (nonlinear_rows(x, 0.9, nonlinear),
                         padded_nonlinear_rows(x, 0.9, n), padded_nonlinear_rows(full, 0.9, n)),
                        (linearized_rows(ops._base_weights(linearized, c0), x, 0.9, linearized),
                         padded_linearized_rows(x0, x, 0.9, n),
                         padded_linearized_rows(x0, full, 0.9, n))):
                    assert got.shape == want.shape == shape + (2 * K,)
                    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(scale)), (K, shape)

    @pytest.mark.parametrize("n", [64, 128])
    def test_table_agrees_with_fft(self, n, monkeypatch):
        grid = TorusGrid(n)
        rng = np.random.default_rng(n + 7)
        c0 = self.bands(grid, n // 2 - 1, rng, (1,))[0]
        for K in (10, 21, n // 2 - 1):
            x = ops._float_rows(self.bands(grid, K, rng, (3,)), K)
            got = {}
            for bound in (0, 10**9):
                # a plan picks its path when built
                monkeypatch.setattr(ops, "_TABLE_MAX_KM", bound)
                plan, lin = ops._plan(n, K), ops._plan(n, K, linearized=True)
                got[bound] = (nonlinear_rows(x, 0.9, plan),
                              linearized_rows(ops._base_weights(lin, c0), x, 0.9, lin))
            for table, fft in zip(got[10**9], got[0]):
                assert table.shape == fft.shape
                assert np.max(np.abs(table - fft)) <= 1e-13 * np.max(np.abs(fft)), K

    @pytest.mark.parametrize("K, m", [(1, 4), (7, 22), (21, 64), (21, 74)])
    def test_tables_are_the_fft_at_unit_inputs(self, K, m):
        # row j of a synthesis table is the image of the j-th unit float;
        # row j of an analysis table that of the j-th point value of the
        # product rows, so N's is [A; A; B] and the linearization's
        # [A; A; A; B; B]; a base table may hold more modes than fit on m
        # points
        for K_in, rows in ((K, ops._NONLINEAR[0]), (K, ops._LINEARIZED[0]),
                           (2 * K + 1, ops._LINEARIZED_BASE)):
            assert np.array_equal(ops._synthesis_table(K_in, m, rows),
                                  ops._synthesis_fft(np.eye(2 * K_in), m, rows))
        _, down = ops._symbols(K, m)
        for sums in (ops._NONLINEAR[1], ops._LINEARIZED[1]):
            analysis = ops._analysis_table(K, m, sums)
            assert np.array_equal(analysis, ops._analysis_fft(np.eye(len(sums) * m), down, m, sums))
            blocks = analysis.reshape(len(sums), m, 2 * K)
            for s, block in zip(sums, blocks):
                assert np.array_equal(block, blocks[sums.index(s)])

    def test_crossover_rule(self, monkeypatch):
        # N's plan on K transforms by tables while K (3K + 1) <= the bound,
        # and above it by one inverse real FFT and one real FFT per call on
        # the least 2^a 3^b 5^c points at or above 3K + 1
        bound = ops._TABLE_MAX_KM
        K = max(k for k in range(1, 200) if k * (3 * k + 1) <= bound)
        lengths = {}
        for kk in (K, K + 1):
            plan = ops._plan(2 * kk + 2, kk)
            x = np.full(2 * kk, 1e-3)
            nonlinear_rows(x, 1.0, plan)
            calls = []
            for name in ("rfft", "irfft"):
                real = getattr(np.fft, name)
                monkeypatch.setattr(np.fft, name, lambda a, n=None, *r, _real=real, _name=name, **kw:
                                    calls.append((_name, np.shape(a)[-1] if n is None else n))
                                    or _real(a, n, *r, **kw))
            nonlinear_rows(x, 1.0, plan)
            monkeypatch.undo()
            lengths[kk] = calls
        assert lengths[K] == []
        m = ops._fft_size(3 * K + 4)
        assert m >= 3 * K + 4 and ops._fft_size(m) == m
        assert sorted(lengths[K + 1]) == [("irfft", m), ("rfft", m)]
        assert [ops._fft_size(j) for j in (1, 7, 61, 64, 97, 181, 382)] == [1, 8, 64, 64, 100, 192, 384]

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_stability_is_one_fft_and_builds_no_table(self, n, monkeypatch):
        # mu - 2 (H phi)_x is one inverse real FFT on every grid, and reads
        # no cached table
        phi = cosine(TorusGrid(n), 1, 0.1)
        calls, tables = [], []
        real = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        for name in ("_synthesis_table", "_analysis_table"):
            monkeypatch.setattr(ops, name, lambda *a: tables.append(a))
        stability_coefficient(phi, 1.0)
        assert len(calls) == 1 and tables == []

    def test_strided_and_broadcast_rows(self):
        # on both transform paths a row gives the same bits whether it
        # stands alone, sits in a contiguous batch, in every other row of
        # one, or is broadcast; the float-row kernels on k = 1..K < n/2-1
        # are the public operators kept to K to round-off (the two pad to
        # different grids)
        for n, K in ((32, 12), (64, 12), (128, 12), (256, 70)):
            grid = TorusGrid(n)
            rng = np.random.default_rng(16 + n)
            plan, lin = ops._plan(n, K), ops._plan(n, K, linearized=True)
            c = self.bands(grid, K, rng, (6,))
            c0 = random_field(grid, n // 2 - 1, rng).coeffs
            x = ops._float_rows(c, K)
            w0 = ops._base_weights(lin, c0)
            kernels = (lambda y: (y[..., None, :] @ plan.synthesis)[..., 0, :],
                       lambda y: nonlinear_rows(y, 0.7, plan),
                       lambda y: linearized_rows(w0, y, 0.7, lin),
                       lambda y: ops._stability_values(y, 0.7, n))
            strided_last = ops._float_rows(np.repeat(c, 2, axis=-1)[..., ::2], K)
            for h in (x, x[::2], np.broadcast_to(x[1], (4, 2 * K)), strided_last):
                dense = np.ascontiguousarray(h)
                for kernel in kernels:
                    out = kernel(h)
                    assert np.array_equal(out, kernel(dense))
                    for row, y in zip(out, dense):
                        assert np.array_equal(row, kernel(y))
            keep = ops._positive
            for got, want in ((kernels[1](x), keep(nonlinear_operator(c, 0.7))[..., :K]),
                              (kernels[2](x), keep(apply_linearized_operator(c0, c, 0.7))[..., :K])):
                assert np.max(np.abs(got.view(complex) - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.array_equal(kernels[3](x), stability_coefficient(c, 0.7)[0])
            # a broadcast base against a batch, in the kernel and the public operator
            many = ops._base_weights(lin, np.broadcast_to(c0, (6, n - 1)))
            assert np.array_equal(linearized_rows(many, x, 0.7, lin), kernels[2](x))
            u = random_field(grid, 8, rng).coeffs
            assert np.array_equal(apply_linearized_operator(np.broadcast_to(u, c.shape), c, 1.1),
                                  apply_linearized_operator(u, c, 1.1))

    def test_import_builds_no_table(self):
        src = str(Path(ops.__file__).resolve().parents[1])
        code = ("import amp_sheet.operators as o; "
                "print(o._symbols.cache_info().currsize, o._synthesis_table.cache_info().currsize, "
                "o._analysis_table.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.split() == ["0", "0", "0"]


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

    def test_require_margin_tolerance_and_message(self):
        # accepted down to 1e-10 below the floor; beyond that the message
        # names the input
        phi = sine(GRID, 1, 0.2)
        _, mn = stability_coefficient(phi, mu=1.0)
        require_margin(phi, 1.0, mn + 0.9e-10, "probe")
        with pytest.raises(ValueError, match="probe violates the stability margin"):
            require_margin(phi, 1.0, mn + 1.1e-10, "probe")
        # a (T, n-1) stack is held to the floor at its worst row
        stack = np.stack([zeros(GRID).coeffs, phi.coeffs])
        require_margin(stack, 1.0, mn, "base")
        with pytest.raises(ValueError, match="base violates"):
            require_margin(stack, 1.0, 0.7, "base")

    @pytest.mark.parametrize("which", ["phi", "mu", "floor"])
    def test_require_margin_fails_on_nan(self, which):
        args = {"phi": cosine(TorusGrid(32), 1, 0.01), "mu": 1.0, "floor": 0.9}
        args[which] = cosine(TorusGrid(32), 1, float("nan")) if which == "phi" else float("nan")
        with pytest.raises(ValueError, match="x violates the stability margin"):
            require_margin(args["phi"], args["mu"], args["floor"], "x")

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_coefficients_are_rejected(self, value):
        # in Cauchy data and in the public operators' arguments, on a field
        # or a batch
        bad = cosine(GRID, 1, value)
        with pytest.raises(ValueError, match="phi0 holds a coefficient that is not finite"):
            CauchyData(bad, zeros(GRID))
        with pytest.raises(ValueError, match="not finite"):
            nonlinear_operator(np.stack([zeros(GRID).coeffs, bad.coeffs]), 1.0)
        with pytest.raises(ValueError, match="not finite"):
            apply_linearized_operator(bad, cosine(GRID, 2), 1.0)

    def test_cauchy_data_scaling(self):
        d = CauchyData(cosine(GRID, 1), sine(GRID, 2))
        s = d.scaled(0.25)
        assert np.max(np.abs(s.phi0.coeffs - 0.25 * d.phi0.coeffs)) == 0.0

    def test_field_series_rejects_disorder(self):
        with pytest.raises(ValueError):
            FieldSeries(np.array([0.0, 0.0]), [zeros(GRID), zeros(GRID)])

    @pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [np.nan], [0.0, np.inf]],
                             ids=["nan-inside", "nan-alone", "inf"])
    def test_non_finite_time_is_rejected(self, times):
        phis = np.zeros((len(times), GRID.n - 1), complex)
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Trajectory(np.array(times), phis)

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
        assert Trajectory(ts, phis).phit is None

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
            c, cp, cpp = bump_window(t, 0.0, r)
            cm = bump_window(t - h, 0.0, r)[0]
            cl = bump_window(t + h, 0.0, r)[0]
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

    @pytest.mark.parametrize("width", [float("nan"), 0.0, -0.1])
    @pytest.mark.parametrize("t", [0.3, np.linspace(-1.0, 1.0, 5)], ids=["scalar", "array"])
    def test_bump_width_must_be_positive(self, t, width):
        # NaN would give (0, 0, 0), 0 a ZeroDivisionError or divide warnings
        with pytest.raises(ValueError, match="bump width must be positive"):
            bump_window(t, 0.0, width)

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

    def test_nan_delta_is_rejected(self):
        with pytest.raises(ValueError, match="delta must be positive"):
            build_lifting(self.make_data(), mu=1.0, delta=float("nan"))

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
