"""Discrete Fourier analysis on the 2*pi-periodic torus.

Every field in this package is stored by its Fourier coefficients

    c(k) = (2*pi/n) * sum_j f(x_j) * exp(-i*k*x_j),    x_j = 2*pi*j/n,

for k = -(n/2-1), ..., n/2-1, which reproduces the integral
int f(x) exp(-i*k*x) dx exactly for trigonometric polynomials the grid
resolves.  Synthesis is f(x_j) = (1/2pi) * sum_k c(k) exp(i*k*x_j).  The
unpaired Nyquist mode k = -n/2 is dropped on analysis: odd symbols such as
the Hilbert transform's -i*sgn(k) cannot act on it without breaking the
conjugate symmetry of real fields.

Every transform is real and takes real fields only.  A band goes to nodal
values by one inverse real FFT of its k >= 0 half, and values come back by
one real FFT kept to k < n/2 and mirrored by c(-k) = conj c(k).  So a
field flagged real, and every coefficient array, is read from its k >= 0
half only; synthesis, sup norms and products reject a field not flagged
real.  The multipliers (Hilbert transform, derivatives), regridding,
inner products and the field arithmetic transform nothing and take any
field.

Pointwise products go through zero-padded physical space (3/2 padding, the
2/3 rule).  For two in-band factors the retained band is then exact; the
test suite holds it against the literal convolution sum.

Synthesis, the Hilbert transform, derivatives, products, Sobolev and sup
norms, inner products and regridding take either a `SpectralField` or a
(..., n-1) array of coefficients and return the same kind: a field or an
array with the same leading batch axes, row for row bitwise equal to the
one-field call.  An array holds the coefficients of real fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_TWO_PI = 2.0 * np.pi

__all__ = [
    "TorusGrid",
    "SpectralField",
    "synthesize",
    "hilbert",
    "derivative",
    "pointwise_product",
    "sobolev_norm",
    "inner_product",
    "linf_norm",
    "regrid",
    "zeros",
    "from_modes",
    "cosine",
    "sine",
]


@dataclass(frozen=True)
class TorusGrid:
    """Equispaced nodes x_j = 2*pi*j/n on [0, 2*pi)."""

    n: int

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 4:
            raise ValueError(f"grid size must be even and at least 4, got {self.n}")

    @property
    def nodes(self):
        return _nodes(self.n)

    @property
    def modes(self):
        """Retained wavenumbers, -(n/2-1) .. n/2-1 in ascending order."""
        return _modes(self.n)


def _frozen(a):
    """`a`, made read-only: a cached table is shared by every caller."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=128)
def _nodes(n):
    return _frozen(_TWO_PI * np.arange(n) / n)


@lru_cache(maxsize=128)
def _modes(n):
    return _frozen(np.arange(-(n // 2 - 1), n // 2))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A field on the torus, held as coefficients over the retained band.

    `coeffs` is ordered by ascending wavenumber and is made read-only on
    construction, so fields can be shared across workers without copies.
    `real_flag` records that the field came from real samples (or from
    operations preserving conjugate symmetry); only such a field goes
    through a transform (synthesis, products, sup norms).
    """

    grid: TorusGrid
    coeffs: np.ndarray
    real_flag: bool = False

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (self.grid.n - 1,):
            raise ValueError(
                f"expected {self.grid.n - 1} coefficients for n={self.grid.n}, got shape {c.shape}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def coeff(self, k):
        n = self.grid.n
        if not -(n // 2 - 1) <= k <= n // 2 - 1:
            raise ValueError(f"mode {k} outside retained band for n={n}")
        return complex(self.coeffs[k + n // 2 - 1])

    @property
    def bandwidth(self):
        """Largest |k| carrying a strictly nonzero coefficient."""
        idx = np.nonzero(self.coeffs)[0]
        if idx.size == 0:
            return 0
        return int(np.max(np.abs(self.grid.modes[idx])))

    def _binary(self, other, op):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.grid.n != self.grid.n:
            raise ValueError("grid mismatch")
        return SpectralField(self.grid, op(self.coeffs, other.coeffs),
                             self.real_flag and other.real_flag)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs, self.real_flag)

    def __mul__(self, a):
        if isinstance(a, SpectralField):
            raise TypeError("use pointwise_product for field*field")
        a = complex(a)
        keeps_real = self.real_flag and a.imag == 0.0
        return SpectralField(self.grid, a * self.coeffs, keeps_real)

    __rmul__ = __mul__


def zeros(grid):
    return SpectralField(grid, np.zeros(grid.n - 1, complex), True)


def from_modes(grid, pairs, real_flag=False):
    """Build a field from a {k: coefficient} mapping."""
    c = np.zeros(grid.n - 1, complex)
    half = grid.n // 2
    for k, v in pairs.items():
        if not -(half - 1) <= k <= half - 1:
            raise ValueError(f"mode {k} outside retained band")
        c[k + half - 1] = v
    return SpectralField(grid, c, real_flag)


def cosine(grid, k, amplitude=1.0):
    """amplitude * cos(k x); coefficients pi*amplitude at +-k."""
    a = np.pi * amplitude
    return from_modes(grid, {k: a, -k: a} if k != 0 else {0: 2 * a}, real_flag=True)


def sine(grid, k, amplitude=1.0):
    a = np.pi * amplitude
    return from_modes(grid, {k: -1j * a, -k: 1j * a}, real_flag=True)


def _coeffs(f):
    """The coefficients of a field, or `f` itself as a (..., n-1) array."""
    return f.coeffs if isinstance(f, SpectralField) else np.asarray(f)


def _like(field, out):
    """`out` as a field on the grid of `field`, with its real flag, when
    `field` is a field; the array `out` otherwise."""
    if isinstance(field, SpectralField):
        return SpectralField(field.grid, out, field.real_flag)
    return out


def _rows(x):
    """A per-row reduction: a float for one field, the array otherwise."""
    return float(x) if x.ndim == 0 else x


def _half(c):
    """The k = 0..n/2-1 half of (..., n-1) bands, all a real transform reads."""
    return c[..., (c.shape[-1] - 1) // 2:]


def _synthesis(c, m):
    """Values on m >= n points of the real fields whose bands are the rows
    of `c`: one inverse real FFT of the k >= 0 half."""
    return np.fft.irfft(_half(c), m) * (m / _TWO_PI)


def _positive(c):
    """The coefficients k = 1..n/2-1 of (..., n-1) bands: a view."""
    return c[..., c.shape[-1] // 2 + 1:]


def _band(h, n):
    """The (..., n-1) bands of the real fields whose coefficients k = 1..K
    are the last axis of `h`, c(-k) = conj c(k): zero at k = 0 and beyond
    K.  The one place a band is mirrored."""
    K, mid = h.shape[-1], n // 2 - 1
    out = np.zeros(h.shape[:-1] + (n - 1,), complex)
    out[..., mid + 1:mid + 1 + K] = h
    out[..., mid - K:mid] = h[..., ::-1].conj()
    return out


def _analysis(vals, n):
    """The n-grid band of real fields sampled on the m points of the last
    axis: one real FFT, kept to k < n/2 and mirrored."""
    m = vals.shape[-1]
    half = np.fft.rfft(vals)[..., :n // 2] * (_TWO_PI / m)
    out = _band(half[..., 1:], n)
    out[..., n // 2 - 1] = half[..., 0]
    return out


def _real_coeffs(f):
    """The coefficients of `f` for a transform: ValueError on a field not
    flagged real."""
    if isinstance(f, SpectralField) and not f.real_flag:
        raise ValueError("transforms take real fields; this field is not flagged real")
    return _coeffs(f)


def synthesize(field):
    """Nodal values f(x_j) = (1/2pi) sum_k c(k) e^{i k x_j} of a real field,
    along the last axis for an array; read from the k >= 0 half of the band."""
    c = _real_coeffs(field)
    return _synthesis(c, c.shape[-1] + 1)


@lru_cache(maxsize=128)
def _hilbert_values(n):
    return _frozen(-1j * np.sign(_modes(n)).astype(complex))


def hilbert(field):
    """Periodic Hilbert transform, symbol -i*sgn(k) with sgn(0) = 0."""
    c = _coeffs(field)
    return _like(field, _hilbert_values(c.shape[-1] + 1) * c)


@lru_cache(maxsize=128)
def _derivative_values(n, p):
    return _frozen((1j * _modes(n)) ** p)


def derivative(field, p=1):
    """p-th spatial derivative, symbol (i k)^p."""
    if p < 0 or p != int(p):
        raise ValueError("derivative order must be a nonnegative integer")
    c = _coeffs(field)
    return _like(field, _derivative_values(c.shape[-1] + 1, int(p)) * c)


def _padded_size(n):
    """The even 3/2-padded grid size for the even n of a TorusGrid."""
    m = 3 * n // 2
    return m + m % 2


def pointwise_product(f, g):
    """Coefficients of f*g for real f and g via physical space on the
    3/2-padded grid.

    The retained band of the product of two in-band fields is exact.  The
    leading axes of two arrays broadcast; the result is a field when both
    factors are fields.
    """
    cf, cg = _real_coeffs(f), _real_coeffs(g)
    if cf.shape[-1] != cg.shape[-1]:
        raise ValueError("grid mismatch")
    n = cf.shape[-1] + 1
    m = _padded_size(n)
    prod = _analysis(_synthesis(cf, m) * _synthesis(cg, m), n)
    if isinstance(f, SpectralField) and isinstance(g, SpectralField):
        return SpectralField(f.grid, prod, True)
    return prod


@lru_cache(maxsize=128)
def _sobolev_weights(n, s):
    return _frozen((1.0 + np.abs(_modes(n))) ** (2.0 * s))


def sobolev_norm(field, s):
    """|| f ||_{H^s} = sqrt( (1/2pi) sum_k (1+|k|)^{2s} |c(k)|^2 )."""
    c = _coeffs(field)
    w = _sobolev_weights(c.shape[-1] + 1, s)
    return _rows(np.sqrt(np.sum(w * np.abs(c) ** 2, axis=-1) / _TWO_PI))


def inner_product(f, g):
    """(f, g) = (1/2pi) sum_k f^(k) conj(g^(k)); equals int f conj(g) dx.
    A complex number for two fields, one per row for arrays."""
    cf, cg = _coeffs(f), _coeffs(g)
    if cf.shape[-1] != cg.shape[-1]:
        raise ValueError("grid mismatch")
    out = np.sum(cf * np.conj(cg), axis=-1) / _TWO_PI
    return complex(out) if out.ndim == 0 else out


def linf_norm(field):
    """Grid sup-norm of the synthesized field."""
    return _rows(np.max(np.abs(synthesize(field)), axis=-1))


def regrid(field, grid):
    """Re-express the field on another grid: embed (finer) or truncate
    (coarser) the coefficient band."""
    c = _coeffs(field)
    half_old, half_new = (c.shape[-1] + 1) // 2, grid.n // 2
    keep = min(half_old, half_new) - 1
    out = np.zeros(c.shape[:-1] + (grid.n - 1,), complex)
    out[..., half_new - 1 - keep:half_new + keep] = c[..., half_old - 1 - keep:half_old + keep]
    if isinstance(field, SpectralField):
        return SpectralField(grid, out, field.real_flag)
    return out
