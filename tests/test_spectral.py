import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amp_sheet.analysis import estimate_commutator_constant, verify_hilbert_identities
from amp_sheet.operators import apply_linearized_operator, quadratic_rhs
from amp_sheet.spectral import (
    TorusGrid, SpectralField, synthesize,
    hilbert, derivative, pointwise_product,
    sobolev_norm, inner_product,
    linf_norm, regrid, zeros, from_modes, cosine, sine,
)
import _oracles as oracle
from _oracles import analyze, commutator_vh, hermitian_defect, homogeneous_norm

TWO_PI = 2 * np.pi


def random_band_field(grid, kmax, rng, real=True, zero_mean=True, decay=0.0):
    c = np.zeros(grid.n - 1, complex)
    mid = grid.n // 2 - 1
    for k in range(1, kmax + 1):
        z = complex(rng.standard_normal(), rng.standard_normal()) / (1 + k) ** decay
        c[mid + k] = z
        c[mid - k] = np.conj(z) if real else complex(rng.standard_normal(),
                                                     rng.standard_normal()) / (1 + k) ** decay
    if not zero_mean:
        c[mid] = rng.standard_normal() if real else complex(rng.standard_normal(),
                                                            rng.standard_normal())
    return SpectralField(grid, c, real)


class TestGridAndField:
    def test_modes_band(self):
        g = TorusGrid(8)
        assert list(g.modes) == [-3, -2, -1, 0, 1, 2, 3]

    def test_odd_grid_rejected(self):
        with pytest.raises(ValueError):
            TorusGrid(7)

    def test_coeffs_read_only(self):
        f = cosine(TorusGrid(16), 1)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_bandwidth(self):
        g = TorusGrid(32)
        assert cosine(g, 5).bandwidth == 5
        assert zeros(g).bandwidth == 0


class TestAnalyzeSynthesize:
    def test_constant(self):
        g = TorusGrid(16)
        f = analyze(g, np.ones(16))
        # c(0) = int 1 dx = 2*pi, all others zero
        assert abs(f.coeff(0) - TWO_PI) < 1e-14
        assert np.max(np.abs(f.coeffs)) == pytest.approx(TWO_PI)
        assert f.real_flag
        assert f.mean == pytest.approx(1.0)

    def test_cosine_coefficients(self):
        g = TorusGrid(64)
        f = analyze(g, np.cos(g.nodes))
        assert abs(f.coeff(1) - np.pi) < 1e-13
        assert abs(f.coeff(-1) - np.pi) < 1e-13

    def test_matches_direct_quadrature(self):
        g = TorusGrid(24)
        rng = np.random.default_rng(3)
        vals = np.cos(2 * g.nodes) + 0.3 * np.sin(5 * g.nodes) + rng.standard_normal()
        f = analyze(g, vals)
        ref = oracle.direct_coefficients(vals)
        for k in range(-11, 12):
            assert abs(f.coeff(k) - ref[k]) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_roundtrip_from_samples(self, seed):
        g = TorusGrid(32)
        rng = np.random.default_rng(seed)
        f = random_band_field(g, 10, rng)
        vals = synthesize(f)
        back = analyze(g, vals)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12

    def test_matches_direct_synthesis(self):
        # a field not flagged real synthesizes as R + iI
        g = TorusGrid(32)
        rng = np.random.default_rng(12)
        for real in (True, False):
            f = random_band_field(g, 12, rng, real=real, zero_mean=False)
            vals = synthesize(f)
            assert vals.dtype == (float if real else complex)
            ref = oracle.direct_synthesis({int(k): f.coeff(int(k)) for k in g.modes}, g.n)
            assert np.max(np.abs(vals - ref)) < 1e-13
            assert linf_norm(f) == np.max(np.abs(vals))

    def test_real_flag_gives_real_output(self):
        g = TorusGrid(32)
        vals = synthesize(random_band_field(g, 9, np.random.default_rng(1)))
        assert vals.dtype == float

    def test_nyquist_dropped(self):
        g = TorusGrid(8)
        # cos(4x) sits entirely in the Nyquist bin on n=8 and must vanish
        f = analyze(g, np.cos(4 * g.nodes))
        assert np.max(np.abs(f.coeffs)) < 1e-13


class TestMultipliers:
    def test_derivative_symbol(self):
        g = TorusGrid(32)
        f = sine(g, 1)
        assert np.max(np.abs(derivative(f).coeffs - cosine(g, 1).coeffs)) < 1e-14
        f2 = cosine(g, 2)
        assert np.max(np.abs(derivative(f2, 2).coeffs - (-4.0 * f2).coeffs)) < 1e-13

    def test_batched_derivative_and_norm_equal_per_row(self):
        # a (..., n-1) coefficient array goes through the same code as one
        # field, row by row, bitwise
        for n in (32, 64, 256):
            g = TorusGrid(n)
            rng = np.random.default_rng(n)
            fields = [random_band_field(g, n // 3, rng) for _ in range(12)]
            stack = np.array([f.coeffs for f in fields]).reshape(3, 4, n - 1)
            for p in (1, 2, 3):
                rows = derivative(stack, p).reshape(12, n - 1)
                for f, row in zip(fields, rows):
                    assert np.array_equal(derivative(f, p).coeffs, row)
            for s in (0, 1, 2.5):
                norms = sobolev_norm(stack, s)
                assert norms.shape == (3, 4)
                assert np.array_equal(norms.ravel(), [sobolev_norm(f, s) for f in fields])
            assert isinstance(sobolev_norm(fields[0].coeffs, 1), float)
        # the Hilbert transform, products, synthesis, sup norms and regridding
        # of a (7, n-1) batch equal seven one-field calls, bitwise
        for n in (32, 64, 256):
            g = TorusGrid(n)
            rng = np.random.default_rng(n + 1)
            fs = [random_band_field(g, n // 3, rng) for _ in range(7)]
            hs = [random_band_field(g, n // 3, rng) for _ in range(7)]
            fb, hb = np.array([f.coeffs for f in fs]), np.array([h.coeffs for h in hs])
            pairs = [(hilbert(fb), [hilbert(f).coeffs for f in fs]),
                     (synthesize(fb), [synthesize(f) for f in fs]),
                     (linf_norm(fb), [linf_norm(f) for f in fs])]
            for dealias in (True, False):
                pairs.append((pointwise_product(fb, hb, dealias),
                              [pointwise_product(f, h, dealias).coeffs for f, h in zip(fs, hs)]))
            for m in (n // 2, 2 * n):  # truncate, embed
                pairs.append((regrid(fb, TorusGrid(m)), [regrid(f, TorusGrid(m)).coeffs for f in fs]))
            for batch, rows in pairs:
                assert isinstance(batch, np.ndarray)
                assert np.array_equal(batch, np.array(rows))


class TestHilbert:
    def test_single_exponential(self):
        g = TorusGrid(16)
        f = from_modes(g, {3: 1.0})
        assert hilbert(f).coeff(3) == pytest.approx(-1j)

    def test_cos_to_sin(self):
        g = TorusGrid(32)
        for k in range(1, 6):
            out = hilbert(cosine(g, k))
            assert np.max(np.abs(out.coeffs - sine(g, k).coeffs)) < 1e-14

    def test_constant_annihilated(self):
        g = TorusGrid(16)
        f = analyze(g, np.full(16, 2.5))
        assert np.max(np.abs(hilbert(f).coeffs)) == 0.0

    def test_square_is_minus_identity_on_zero_mean(self):
        g = TorusGrid(64)
        f = random_band_field(g, 20, np.random.default_rng(5))
        hh = hilbert(hilbert(f))
        assert np.max(np.abs(hh.coeffs + f.coeffs)) < 1e-14

    def test_norm_contraction(self):
        g = TorusGrid(64)
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_band_field(g, 25, rng, zero_mean=False)
            assert sobolev_norm(hilbert(f), 1.7) <= sobolev_norm(f, 1.7) + 1e-14

    def test_commutes_with_projection_and_derivative(self):
        # truncation to a 22-point grid is the projection onto |k| <= 10
        g = TorusGrid(64)
        f = random_band_field(g, 30, np.random.default_rng(2))
        a = regrid(hilbert(f), TorusGrid(22))
        b = hilbert(regrid(f, TorusGrid(22)))
        assert np.max(np.abs(a.coeffs - b.coeffs)) == 0.0
        c = derivative(hilbert(f))
        d = hilbert(derivative(f))
        assert np.max(np.abs(c.coeffs - d.coeffs)) < 1e-14


class TestProducts:
    def test_cos_squared(self):
        g = TorusGrid(32)
        f = cosine(g, 1)
        p = pointwise_product(f, f)
        # cos^2 x = 1/2 + cos(2x)/2
        assert p.coeff(0) == pytest.approx(np.pi, abs=1e-13)
        assert p.coeff(2) == pytest.approx(np.pi / 2, abs=1e-13)
        assert p.coeff(1) == pytest.approx(0.0, abs=1e-13)

    def test_matches_convolution_oracle(self):
        # product bandwidth 22 <= n/2 - 1: the unpadded product does not alias
        g = TorusGrid(48)
        rng = np.random.default_rng(21)
        for real in (True, False):
            for _ in range(5):
                f = random_band_field(g, 11, rng, real=real, zero_mean=False)
                h = random_band_field(g, 11, rng, real=real, zero_mean=False)
                cf = {int(k): f.coeff(int(k)) for k in g.modes}
                ch = {int(k): h.coeff(int(k)) for k in g.modes}
                ref = oracle.direct_convolution(cf, ch, g.n // 2 - 1)
                for dealias in (True, False):
                    p = pointwise_product(f, h, dealias)
                    assert p.real_flag == real
                    assert max(abs(p.coeff(k) - ref[k]) for k in ref) < 1e-12

    def test_aliasing_visible_without_padding(self):
        g = TorusGrid(16)
        f = cosine(g, 5)
        clean = pointwise_product(f, f)
        dirty = pointwise_product(f, f, dealias=False)
        # cos(5x)^2 has a cos(10x) component; mode 10 aliases onto 10-16=-6
        assert abs(clean.coeff(6)) < 1e-13
        assert abs(dirty.coeff(-6)) > 0.1

    def test_reality_closure(self):
        g = TorusGrid(64)
        rng = np.random.default_rng(8)
        f = random_band_field(g, 20, rng)
        h = random_band_field(g, 20, rng)
        for out in [pointwise_product(f, h), hilbert(f), derivative(f, 3),
                    regrid(f, TorusGrid(20)), f + h, 2.5 * f]:
            assert out.real_flag
            assert hermitian_defect(out) < 1e-12


class TestRealTransforms:
    def test_no_complex_fft_anywhere(self, monkeypatch):
        # every transform in the package is a real FFT of a half spectrum
        def refuse(*args, **kwargs):
            raise AssertionError("complex FFT called")

        monkeypatch.setattr(np.fft, "fft", refuse)
        monkeypatch.setattr(np.fft, "ifft", refuse)
        g = TorusGrid(32)
        rng = np.random.default_rng(4)
        for real in (True, False):
            f = random_band_field(g, 9, rng, real=real, zero_mean=False)
            h = random_band_field(g, 9, rng, real=real, zero_mean=False)
            synthesize(f)
            linf_norm(f)
            for dealias in (True, False):
                pointwise_product(f, h, dealias)
        phi0, phi = random_band_field(g, 9, rng), random_band_field(g, 9, rng)
        quadratic_rhs(phi0)
        apply_linearized_operator(phi0, phi, 1.0)
        for lemma, param in (("A1_comm_1", 1.0), ("A3", (2, 1)), ("A4_prod", 2),
                             ("A4_comm_5", (2, 2))):
            rep = estimate_commutator_constant(lemma, param, samples=10, seed=1,
                                               n_lo=64, n_hi=128)
            assert rep.passed
        assert verify_hilbert_identities(samples=3)["passed"]

    def test_symmetric_field_flagged_complex_matches_real_twin(self):
        g = TorusGrid(64)
        rng = np.random.default_rng(9)
        f = random_band_field(g, 20, rng, zero_mean=False)
        h = random_band_field(g, 20, rng, zero_mean=False)
        fc, hc = SpectralField(g, f.coeffs, False), SpectralField(g, h.coeffs, False)
        want = pointwise_product(f, h).coeffs
        for a, b in ((fc, hc), (fc, h), (f, hc)):
            got = pointwise_product(a, b)
            assert not got.real_flag
            assert np.max(np.abs(got.coeffs - want)) <= 1e-15 * np.max(np.abs(want))


class TestNormsAndInner:
    def test_frozen_values(self):
        g = TorusGrid(64)
        f = cosine(g, 1)
        # ||cos||_{L^2}^2 = pi; H^1 weight (1+1)^2 doubles both modes: 4pi
        assert sobolev_norm(f, 0) == pytest.approx(np.sqrt(np.pi), rel=1e-14)
        assert sobolev_norm(f, 1) == pytest.approx(2 * np.sqrt(np.pi), rel=1e-14)
        assert homogeneous_norm(cosine(g, 2), 1) == pytest.approx(
            2 * np.sqrt(np.pi), rel=1e-14)
        assert sobolev_norm(zeros(g), 3.5) == 0.0

    def test_homogeneous_equals_derivative_l2(self):
        g = TorusGrid(64)
        f = random_band_field(g, 20, np.random.default_rng(14))
        for s in [1, 2, 3]:
            assert homogeneous_norm(f, s) == pytest.approx(
                sobolev_norm(derivative(f, s), 0), rel=1e-12)

    def test_homogeneous_rejects_mean(self):
        g = TorusGrid(16)
        f = analyze(g, np.ones(16))
        with pytest.raises(ValueError):
            homogeneous_norm(f, 1)

    def test_inner_products(self):
        g = TorusGrid(32)
        assert inner_product(cosine(g, 1), cosine(g, 1)) == pytest.approx(np.pi)
        assert inner_product(cosine(g, 1), sine(g, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_parseval_against_quadrature(self):
        g = TorusGrid(64)
        f = random_band_field(g, 30, np.random.default_rng(17), zero_mean=False)
        vals = synthesize(f)
        quad = (TWO_PI / g.n) * np.sum(np.abs(vals) ** 2)
        assert abs(inner_product(f, f).real - quad) < 1e-10

    def test_hilbert_skew_adjoint(self):
        g = TorusGrid(64)
        rng = np.random.default_rng(23)
        f = random_band_field(g, 20, rng, real=False, zero_mean=False)
        h = random_band_field(g, 20, rng, real=False, zero_mean=False)
        assert inner_product(hilbert(f), h) == pytest.approx(
            inner_product(f, -1.0 * hilbert(h)), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), s=st.floats(0.0, 3.0))
    def test_sobolev_dominates_homogeneous(self, seed, s):
        g = TorusGrid(32)
        f = random_band_field(g, 12, np.random.default_rng(seed))
        assert homogeneous_norm(f, int(s)) <= sobolev_norm(f, int(s)) + 1e-13


class TestCommutator:
    def test_constant_v_gives_zero(self):
        g = TorusGrid(32)
        v = analyze(g, np.full(32, 3.0))
        f = random_band_field(g, 10, np.random.default_rng(1))
        out = commutator_vh(v, f)
        assert np.max(np.abs(out.coeffs)) < 1e-13

    def test_single_mode_pair_cancels(self):
        g = TorusGrid(32)
        v = from_modes(g, {1: 1.0})
        f = from_modes(g, {2: 1.0})
        out = commutator_vh(v, f)
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_matches_direct_oracle(self):
        g = TorusGrid(32)
        rng = np.random.default_rng(31)
        v = random_band_field(g, 7, rng, real=False, zero_mean=False)
        f = random_band_field(g, 7, rng, real=False, zero_mean=False)
        out = commutator_vh(v, f)
        cv = {int(k): v.coeff(int(k)) for k in g.modes}
        cf = {int(k): f.coeff(int(k)) for k in g.modes}
        ref = oracle.direct_commutator_vh(cv, cf, g.n // 2 - 1)
        err = max(abs(out.coeff(k) - ref.get(k, 0.0)) for k in range(-15, 16))
        assert err < 1e-12

    def test_self_adjoint_for_real_v(self):
        g = TorusGrid(64)
        rng = np.random.default_rng(37)
        v = random_band_field(g, 8, rng, zero_mean=False)
        f = random_band_field(g, 8, rng)
        h = random_band_field(g, 8, rng)
        lhs = inner_product(commutator_vh(v, f), h)
        rhs = inner_product(f, commutator_vh(v, h))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_product_identity(self):
        # H[fg - H[f]H[g]] = f H[g] + H[f] g
        g = TorusGrid(64)
        rng = np.random.default_rng(41)
        f = random_band_field(g, 12, rng)
        h = random_band_field(g, 12, rng)
        lhs = hilbert(pointwise_product(f, h)
                      - pointwise_product(hilbert(f), hilbert(h)))
        rhs = pointwise_product(f, hilbert(h)) + pointwise_product(hilbert(f), h)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


class TestRegrid:
    def test_embed_and_truncate(self):
        g1, g2 = TorusGrid(32), TorusGrid(64)
        f = random_band_field(g1, 10, np.random.default_rng(2))
        up = regrid(f, g2)
        for k in range(-15, 16):
            assert up.coeff(k) == pytest.approx(f.coeff(k), abs=0)
        down = regrid(up, g1)
        assert np.max(np.abs(down.coeffs - f.coeffs)) == 0.0

    def test_linf(self):
        g = TorusGrid(64)
        assert linf_norm(cosine(g, 3)) == pytest.approx(1.0, abs=1e-12)
