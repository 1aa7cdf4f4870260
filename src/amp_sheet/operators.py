"""Evolution operators for the amplitude equation.

The equation solved throughout is

    phi_tt - mu * phi_xx = N(phi),
    N(phi) = d/dx( H[p_x^2] - [p; H] p_xx ),      p = H[phi],

where H is the periodic Hilbert transform and [v; H]f = v H[f] - H[v f].
The pointwise coefficient mu - 2 p_x decides the character of the
linearized problem: positive keeps it hyperbolic, negative makes the
initial value problem ill posed.

N is evaluated by one fused kernel through the identity
H[p_x^2] - [p; H]p_xx = H[p_x^2 + p p_xx] - p H[p_xx]: one synthesis of
the rows (p_x, p, p | p_x, p_xx, H p_xx), one product of the two halves,
and one analysis of (p_x^2, p p_xx, p H p_xx), on a field or on
coefficient arrays with any leading batch axes.  The linearized operator
mu phi_xx + dN[phi0]phi is the same kernel polarized: the rows
(p_x, p_xx, p, H p_xx, p) of phi times five weights of the base,
(2 p0_x, p0, p0_xx, p0, H p0_xx), synthesized once, the first three
products summed into a and the last two into b.  The derivatives of N
are that kernel with mu = 0.

Each equation has one kernel, built for a _plan of (n, K) by
_nonlinear_map or _linearized_map: it reads float rows, the interleaved
(Re, Im) floats of the coefficients k = 1..K of real zero-mean fields,
checks nothing, and writes its result into rows it is given, through
scratch rows its builder allocates once.  The solvers' acceleration maps
run it on one row per stage; the public operators check (..., n-1)
bands, build it for k = 1..n/2-1 on their whole batch, run it once and
mirror the result back by c(-k) = conj c(k) (spectral._band).  A batch
carries a unit axis before the last, so each row is its own
vector-matrix product and keeps the bits it has alone.

A kernel pads to its band, not to the grid (the 3/2 rule on the retained
band, Orszag 1971): N's products have band 2K, exact for k <= K on
m = 3K + 1 points; the linearization at a base of band B = n/2 - 1 needs
m = B + 2K + 1, and drops the base's modes k >= m/2, whose products land
on k > K only.  The transforms are batched real FFTs, and _plan picks by
one rule in (K, m) how to run them: while K * m <= _TABLE_MAX_KM, where an
FFT call costs its overhead rather than arithmetic, as products with real
tables built once from the FFTs at the unit inputs (the matrix
multiplication transform, Boyd, Chebyshev and Fourier Spectral Methods,
ch. 10); above, by the FFTs on a fast length at or above m, wrapped as an
_FftTransform that multiplies like its table, so a kernel is one
expression on either path.  N's analysis table is
[A; A; B], so a = p_x^2 + p p_xx is summed inside the BLAS call.  A kernel
on K < n/2 - 1 and the public operator kept to K pad to different grids
and agree to round-off, not bitwise.  The stability coefficient is one
FFT on the n nodes.

Besides N and its first and second derivatives this module owns the
Cauchy data container, time-sampled trajectories, the smooth compactly
supported lifting of initial data, and the forcing series that turns the
lifted problem into one with zero trace in the past.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import namedtuple
from functools import lru_cache, partial

import numpy as np

from .spectral import SpectralField, TorusGrid, _band, _coeffs, _frozen, _like, _positive

_TWO_PI = 2.0 * np.pi


#: build_lifting starts from this ramp width and halves it down to the floor
_RAMP_WIDTH = 0.5
_RAMP_FLOOR = 1e-4


class LiftingError(ValueError):
    """No ramp width down to the floor met the stability margin: data the
    lifting cannot handle, rejected like any other invalid input."""


def _require_real(f, name):
    """Reject a field, or a coefficient array of any batch shape, that is
    not real (flag and conjugate symmetry), with a tolerance relative to
    1 + max |c| over the whole input, or that holds a NaN or infinite
    coefficient.  Returns |c| and that scale."""
    if isinstance(f, SpectralField):
        if not f.real_flag:
            raise ValueError(f"{name} must be a real field")
        c = f.coeffs
    else:
        c = np.asarray(f)
    a = np.abs(c)
    scale = 1.0 + a.max()
    if not np.isfinite(scale):
        raise ValueError(f"{name} holds a coefficient that is not finite")
    if not np.abs(c - c[..., ::-1].conj()).max() <= 1e-12 * scale:
        raise ValueError(f"{name} is flagged real but its coefficients are "
                         "not conjugate symmetric")
    return a, scale


def _require_real_zero_mean(f, name):
    """_require_real, and reject a nonzero mean (relative tolerance 1e-9)."""
    a, scale = _require_real(f, name)
    if not a[..., a.shape[-1] // 2].max() <= 1e-9 * scale:
        raise ValueError(f"{name} must have zero mean")


@dataclass(frozen=True)
class CauchyData:
    """Initial position and velocity, both real with zero mean."""

    phi0: SpectralField
    phi1: SpectralField

    def __post_init__(self):
        if self.phi0.grid.n != self.phi1.grid.n:
            raise ValueError("phi0 and phi1 live on different grids")
        _require_real_zero_mean(self.phi0, "phi0")
        _require_real_zero_mean(self.phi1, "phi1")

    @property
    def grid(self):
        return self.phi0.grid

    def scaled(self, a):
        return CauchyData(a * self.phi0, a * self.phi1)


def _rows(rows, name):
    """A (T, n-1) coefficient array, stacked once from a sequence of real
    fields when not given as an array."""
    if rows is None:
        return None
    if isinstance(rows, np.ndarray):
        return np.asarray(rows, complex)
    rows = list(rows)
    if not all(f.real_flag for f in rows):
        raise ValueError(f"{name} holds a field that is not real")
    return np.array([f.coeffs for f in rows])


@dataclass(eq=False)
class Trajectory:
    """Snapshots on a strictly increasing time mesh as (T, n-1) coefficient
    arrays: phi, and optionally phi_t and a stored phi_tt.  A sequence of
    real fields is stacked once on entry; a forcing or base series is a
    Trajectory with phi only.

    Solvers fill `phitt` with the semidiscrete right-hand side at the
    accepted nodes, which is accurate to the integrator's order; consumers
    that the contract obliges to difference (residual evaluation on foreign
    trajectories, the X_m norms) ignore it.
    """

    times: np.ndarray
    phi: np.ndarray
    phit: np.ndarray | None = None
    phitt: np.ndarray | None = None

    def __post_init__(self):
        t = self.times = np.asarray(self.times, float)
        self.phi, self.phit, self.phitt = (
            _rows(getattr(self, name), name) for name in ("phi", "phit", "phitt"))
        if t.ndim != 1 or self.phi.ndim != 2 or self.phi.shape[0] != t.size:
            raise ValueError("times and snapshots disagree in length")
        if any(a is not None and a.shape != self.phi.shape for a in (self.phit, self.phitt)):
            raise ValueError("phit and phitt must have the shape of phi")
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
            raise ValueError("times must be finite and strictly increasing")

    def __len__(self):
        return self.phi.shape[0]

    @property
    def grid(self):
        return TorusGrid(self.phi.shape[1] + 1)

    @property
    def dt(self):
        """The step of a uniform mesh; ValueError on any other mesh."""
        steps = np.diff(self.times)
        if steps.size == 0 or np.max(np.abs(steps - steps[0])) > 1e-10 * max(1.0, abs(steps[0])):
            raise ValueError("dt undefined for this mesh")
        return float(steps[0])

    def second_difference(self):
        """Centered second differences of phi at the T-2 interior nodes."""
        if len(self) < 3:
            raise ValueError("need at least three nodes to difference phi_tt")
        p = self.phi
        return (1.0 / self.dt**2) * (p[:-2] - 2.0 * p[1:-1] + p[2:])

    def phit_derivative(self):
        """Differences of phi_t at every node: centered inside, one-sided
        second order at the two ends."""
        if self.phit is None or len(self) < 3:
            raise ValueError("need phi_t on at least three nodes")
        q, h = self.phit, 0.5 / self.dt
        out = np.empty_like(q)
        out[1:-1] = h * (q[2:] - q[:-2])
        out[0] = h * (-3.0 * q[0] + 4.0 * q[1] - q[2])
        out[-1] = h * (3.0 * q[-1] - 4.0 * q[-2] + q[-3])
        return out

    # a field list, read-only, for callers written against per-node fields
    phis = property(lambda self: [SpectralField(self.grid, r, True) for r in self.phi])


FieldSeries = Trajectory


#: a kernel on k = 1..K padded to m points transforms by table products
#: while K * m, which their arithmetic grows with, is at most this; above
#: it by real FFTs, whose cost there is arithmetic rather than call overhead
_TABLE_MAX_KM = 10000

#: each kernel's synthesized rows, as indices into the symbols of
#: (p, p_x, p_xx, H p_xx, 2 p_x), p = H phi, and the sum each product row
#: joins, 0 for a and 1 for b.  N multiplies the rows (p_x, p, p) by
#: (p_x, p_xx, H p_xx); the linearization multiplies the rows of phi by the
#: weights (2 p0_x, p0, p0_xx, p0, H p0_xx) of its base
_NONLINEAR = ((1, 0, 0, 1, 2, 3), (0, 0, 1))
_LINEARIZED = ((1, 2, 0, 3, 0), (0, 0, 0, 1, 1))
_LINEARIZED_BASE = (4, 0, 2, 0, 3)


@lru_cache(maxsize=32)
def _symbols(K, m):
    """The (5, K) symbols taking phi^(k), k = 1..K, to the half spectra of
    (p, p_x, p_xx, H p_xx, 2 p_x), p = H phi, scaled for synthesis on m
    points, and k * 2pi/m, which takes the half spectrum of a - i b on m
    points back to N^(k) = k (a^(k) - i b^(k)).  Row 1, at m = n, takes
    phi^(k) to the n-node values of (H phi)_x."""
    k = np.arange(1, K + 1, dtype=float)
    up = np.array([-1j * np.ones_like(k), k, 1j * k**2, k**2, 2.0 * k]) * (m / _TWO_PI)
    return _frozen(up), _frozen(k * (_TWO_PI / m))


def _fft_size(m):
    """The least 2^a 3^b 5^c >= m: a length the real FFTs transform fast."""
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _synthesis(h, symbol, m):
    """Values on m points of the real fields whose half spectra are zero at
    k = 0 and h * symbol at k = 1..K: one inverse real FFT, which pads
    k > K with zeros itself and drops the modes k > m/2."""
    spec = np.zeros(np.broadcast(h, symbol).shape[:-1] + (h.shape[-1] + 1,), complex)
    np.multiply(h, symbol, out=spec[..., 1:])
    return np.fft.irfft(spec, m)


def _synthesis_fft(x, m, rows):
    """The values on m points of the rows `rows` of
    (p, p_x, p_xx, H p_xx, 2 p_x), p = H phi, for the fields phi with the
    float rows `x`, flattened to (..., len(rows) m): one batched inverse
    real FFT of the distinct rows, then a gather."""
    h = np.ascontiguousarray(x).view(complex)
    up, _ = _symbols(h.shape[-1], m)
    distinct = sorted(set(rows))
    v = _synthesis(h[..., None, :], up[distinct], m)
    return v[..., [distinct.index(r) for r in rows], :].reshape(h.shape[:-1] + (-1,))


def _analysis_fft(v, down, m, sums):
    """The float rows, k = 1..K, of d/dx(H[a] - b) from the values on m
    points of the rows of `v`, a (..., S m) buffer whose rows sum to a where
    `sums` is 0 and to b where it is 1 (the rows of a first): the sums, one
    batched real FFT of (a, b), then k (a^(k) - i b^(k)) (the K-vector
    `down`)."""
    ab = v.reshape(v.shape[:-1] + (len(sums), m))
    ab = np.fft.rfft(np.add.reduceat(ab, (0, sums.index(1)), axis=-2))[..., 1:down.size + 1]
    return (down * (ab[..., 0, :] - 1j * ab[..., 1, :])).view(float)


@lru_cache(maxsize=16)
def _synthesis_table(K, m, rows):
    """The real (2K, R m) table of _synthesis_fft: the FFT path at the unit
    inputs, row j the image of the j-th unit float (the rows of an identity)."""
    return _frozen(_synthesis_fft(np.eye(2 * K), m, rows))


@lru_cache(maxsize=16)
def _analysis_table(K, m, sums):
    """The real (S m, 2K) table of _analysis_fft: the tables A and B of a
    and b, the FFT path at the unit point values of an (a, b) buffer,
    stacked as `sums` says, [A; A; B] for N and [A; A; A; B; B] for the
    linearization."""
    _, down = _symbols(K, m)
    ab = _analysis_fft(np.eye(2 * m), down, m, (0, 1)).reshape(2, m, 2 * K)
    return _frozen(ab[list(sums)].reshape(-1, 2 * K))


class _FftTransform:
    """A transform run by real FFTs in the place of its table: x @ t and
    np.matmul(x, t, out=...) run `kernel` on the rows x, and `shape` is the
    table's, so a kernel reads a plan's transforms alike on both paths."""

    def __init__(self, kernel, shape):
        self.kernel, self.shape = kernel, shape

    def __array_ufunc__(self, ufunc, method, x, transform, out=None):
        # numpy hands np.matmul(x, self), and so x @ self, to this hook
        y = self.kernel(x)
        if out is None:
            return y
        out[0][...] = y
        return out[0]


_Plan = namedtuple("_Plan", "lap synthesis analysis base")


def _plan(n, K, linearized=False):
    """A kernel's data on k = 1..K of an n-point grid: the interleaved
    symbol -k^2 (2K floats) and its transforms.  N pads to m = 3K + 1
    points, so both products are exact for k <= K (the 3/2 rule on the
    band); the linearization to m = B + 2K + 1, with B = n/2 - 1 the band
    of its base, whose weights `base` synthesizes from float rows on
    k = 1..B (N's plan has base None).  While K * m <= _TABLE_MAX_KM the
    transforms are tables; above, _FftTransforms of real FFTs on the least
    fast FFT length at or above m.  Either is applied as x @ transform.
    The solvers build one per solve."""
    lap = np.repeat(-np.arange(1.0, K + 1) ** 2, 2)
    B = n // 2 - 1
    m = B + 2 * K + 1 if linearized else 3 * K + 1
    rows, sums = _LINEARIZED if linearized else _NONLINEAR
    if K * m <= _TABLE_MAX_KM:
        synthesis = lambda k, r: _synthesis_table(k, m, r)
        analysis = _analysis_table(K, m, sums)
    else:
        m = _fft_size(m)
        synthesis = lambda k, r: _FftTransform(partial(_synthesis_fft, m=m, rows=r),
                                               (2 * k, len(r) * m))
        analysis = _FftTransform(partial(_analysis_fft, down=_symbols(K, m)[1], m=m, sums=sums),
                                 (len(sums) * m, 2 * K))
    base = synthesis(B, _LINEARIZED_BASE) if linearized else None
    return _Plan(lap, synthesis(K, rows), analysis, base)


def _float_rows(c, K=None):
    """The float rows of (..., n-1) bands: interleaved (Re, Im) floats of
    k = 1..K (k >= 1 by default), a view once the last axis is contiguous."""
    h = _positive(np.asarray(c, complex))[..., :K]
    if h.strides[-1] != h.itemsize:
        h = np.ascontiguousarray(h)
    return h.view(float)


def _nonlinear_map(plan, mu, shape=()):
    """The kernel of mu phi_xx + N(phi) on the plan's band k = 1..K, as
    rows(x, out): writes into `out` the float rows of mu phi_xx + N(phi)
    for the float rows `x` of phi, both of shape `shape` + (2K,), unchecked,
    through scratch rows allocated once here, so `out` must not overlap `x`
    and a kernel serves one caller at a time.  mu phi_xx is applied exactly,
    by the symbol -mu k^2."""
    mu_lap = mu * plan.lap
    synthesis, analysis = plan.synthesis, plan.analysis
    v = np.empty(shape + synthesis.shape[1:])
    half = v.shape[-1] // 2
    lo, hi = v[..., :half], v[..., half:]
    prod, a = np.empty(shape + (half,)), np.empty(shape + mu_lap.shape)

    def rows(x, out):
        # each ufunc writes its last argument
        np.matmul(x, synthesis, v)
        np.multiply(lo, hi, prod)
        np.matmul(prod, analysis, a)
        np.multiply(mu_lap, x, out)
        out += a

    return rows


def _stability_values(x, mu, n):
    """Values of mu - 2 (H phi)_x at the n grid nodes, shape (..., n), from
    the float rows `x` of phi: the kernel of stability_coefficient, one
    batched inverse real FFT of k phi^(k) on every grid."""
    h = np.ascontiguousarray(x).view(complex)
    up, _ = _symbols(h.shape[-1], n)
    return mu - 2.0 * _synthesis(h, up[1], n)


def _base_weights(plan, c0):
    """The weights (2 p0_x, p0, p0_xx, p0, H p0_xx) of the linearized
    kernel on its plan's points, as (..., 5m) rows, for the bases with the
    (..., n-1) coefficients c0, synthesized from their full band k < n/2:
    a base may carry modes above K."""
    return (_float_rows(c0)[..., None, :] @ plan.base)[..., 0, :]


def _linearized_map(plan, mu, shape=()):
    """The kernel of mu phi_xx + dN[phi0]phi, as rows(w0, x, out), with the
    contract of _nonlinear_map, for the base weights `w0` (_base_weights),
    which broadcast against `shape`.  With phi0 = 0 the result is diagonal in k
    bitwise."""
    mu_lap = mu * plan.lap
    synthesis, analysis = plan.synthesis, plan.analysis
    v, a = np.empty(shape + synthesis.shape[1:]), np.empty(shape + mu_lap.shape)

    def rows(w0, x, out):
        # each ufunc writes its last argument
        np.matmul(x, synthesis, v)
        np.multiply(v, w0, v)
        np.matmul(v, analysis, a)
        np.multiply(mu_lap, x, out)
        out += a

    return rows


def quadratic_rhs(phi):
    """N(phi) = d/dx( H[p_x^2] - [p; H]p_xx ) with p = H[phi]: the
    nonlinear_operator with mu = 0, on a real zero-mean field or a
    (..., n-1) coefficient array; the result, of the same kind, is again
    real with zero mean (an exact x-derivative)."""
    return nonlinear_operator(phi, 0.0)


def quadratic_rhs_derivative(phi0, phi):
    """Directional derivative dN[phi0] phi, the linearized kernel with mu = 0.

    Since N is quadratic this is exact: N(phi0 + phi) = N(phi0) + dN[phi0]phi + N(phi).
    """
    return apply_linearized_operator(phi0, phi, 0.0)


def second_derivative(phi, psi):
    """Second derivative of the evolution operator, the symmetric bilinear
    map d2L(phi, psi) = -dN[phi]psi.  It does not depend on a base point,
    and 0.5 * d2L(phi, phi) = -N(phi)."""
    return -apply_linearized_operator(phi, psi, 0.0)


def nonlinear_operator(phi, mu):
    """The spatial part of the equation, mu phi_xx + N(phi), on a real
    zero-mean field or a (..., n-1) coefficient array of such fields; the
    result has the same kind and shape.  The nonlinear counterpart of
    apply_linearized_operator: the lifting forcing and the Newton residual
    evaluate it here, and the solver's acceleration map runs its kernel
    _nonlinear_map (see the module docstring) on k = 1..n/2-1.  The k < 0
    half follows by conjugate symmetry, which is why the input must be
    conjugate symmetric.
    """
    _require_real_zero_mean(phi, "phi")
    c = _coeffs(phi)
    n = c.shape[-1] + 1
    x = _float_rows(c)[..., None, :]
    out = np.empty(x.shape)
    _nonlinear_map(_plan(n, n // 2 - 1), mu, x.shape[:-1])(x, out)
    return _like(phi, _band(out[..., 0, :].view(complex), n))


def apply_linearized_operator(phi0, phiP, mu):
    """The spatial part of the linearization at phi0 applied to phiP,
    mu phiP_xx + dN[phi0]phiP.

    Both arguments are real zero-mean fields or coefficient arrays of shape
    (..., n-1) whose leading axes broadcast, so one base can act on a whole
    batch; the result is a field when both are fields, an array otherwise.

    The kernel _linearized_map polarizes the identity of
    nonlinear_operator.  With p0 = H phi0 and p = H phiP it is
    mu phiP_xx plus d/dx( H[a] - b ) with

        a = 2 p0_x p_x + p0 p_xx + p p0_xx,
        b = p0 H[p_xx] + p H[p0_xx].
    """
    _require_real_zero_mean(phi0, "phi0")
    _require_real_zero_mean(phiP, "phiP")
    c0, c = _coeffs(phi0), _coeffs(phiP)
    n = c.shape[-1] + 1
    plan = _plan(n, n // 2 - 1, linearized=True)
    w0, x = _base_weights(plan, c0)[..., None, :], _float_rows(c)[..., None, :]
    shape = np.broadcast(w0[..., :1], x).shape[:-1]
    out = np.empty(shape + x.shape[-1:])
    _linearized_map(plan, mu, shape)(w0, x, out)
    out = _band(out[..., 0, :].view(complex), n)
    if isinstance(phi0, SpectralField) and isinstance(phiP, SpectralField):
        return SpectralField(phiP.grid, out, True)
    return out


def stability_coefficient(phi, mu):
    """Values of mu - 2 (H phi)_x at the n grid nodes, and their minimum.

    `phi` is a real field or a coefficient array of shape (..., n-1); the
    values have shape (..., n) and the minimum is taken over all of them.
    (H phi)_x has symbol |k|, so the values are the synthesis of the half
    spectrum (only k >= 1 is read) times k, by _stability_values.
    """
    c = _coeffs(phi)
    n = c.shape[-1] + 1
    vals = _stability_values(_float_rows(c), mu, n)
    return vals, float(np.min(vals))


def require_margin(phi, mu, floor, what):
    """Raise ValueError unless mu - 2 (H phi)_x >= floor at every grid node,
    up to a tolerance of 1e-10; `phi` is a field or a (..., n-1) coefficient
    array, and `what` names it in the message.  The one check of the
    stability margin on inputs: initial data against delta, bases against
    delta/2.  A NaN value, in phi, mu or floor, fails the check."""
    _, mn = stability_coefficient(phi, mu)
    if not mn >= floor - 1e-10:
        raise ValueError(
            f"{what} violates the stability margin: min {mn:.6g} < {floor:.6g}"
        )


def _B(x):
    """B(x) = exp(-1/x) and its first two derivatives at x > 0 (the ramp
    reads it on (0, 1) only)."""
    b = np.exp(-1.0 / x)
    return b, b / x**2, b * (1.0 - 2.0 * x) / x**4


def bump_window(t, center, width):
    """Smooth even bump around `center`: 1 within `width` of it, 0 beyond
    2*width, C-infinity in between.  It is the lifting's ramp, and handy
    for manufacturing compactly supported test trajectories.

    Built from B(x) = exp(-1/x) as psi(s) = B(1-s)/(B(1-s)+B(s)) on the
    transition s = (|t - center| - width)/width in (0,1).  Returns
    (w, w', w''): three arrays of the shape of t, or three floats for a
    scalar t, which runs as a 0-d batch.  A width that is not positive
    (0, negative or NaN) raises ValueError."""
    if not width > 0.0:
        raise ValueError(f"bump width must be positive, got {width!r}")
    t, r = np.asarray(t - center, float), width
    a = np.abs(t)
    s = (a - r) / r
    out = np.zeros((3,) + t.shape)
    out[0] = a <= r
    ramp = (s > 0.0) & (s < 1.0)
    s, sign = s[ramp], np.sign(t[ramp])
    (g, gp, gpp), (h, hp, hpp) = _B(1.0 - s), _B(s)
    gp = -gp
    d = g + h
    num = gp * h - g * hp
    out[:, ramp] = (g / d, num / d**2 * sign / r,
                    ((gpp * h - g * hpp) * d - 2.0 * num * (gp + hp)) / d**3 / r**2)
    return tuple(out) if t.ndim else tuple(float(x) for x in out)


@dataclass(frozen=True)
class Lifting:
    """Smooth compactly supported extension of Cauchy data to all times.

    phi_a(t) = chi(t) phi0 + t chi(t) phi1 with the bump above, so
    phi_a(0) = phi0 and d/dt phi_a(0) = phi1 exactly, and the stability
    coefficient of phi_a stays at or above 3*delta/4 everywhere (enforced
    by shrinking the ramp in build_lifting).
    """

    data: CauchyData
    ramp_width: float

    def at(self, t):
        """phi_a(t) and its first and second analytic time derivatives, as
        three fields (the rows of states([t]))."""
        grid = self.data.grid
        return tuple(SpectralField(grid, a[0], True) for a in self.states([t]))

    def states(self, times):
        """phi_a and its first two time derivatives at each of `times`, as
        three coefficient arrays of shape (len(times), n-1)."""
        t = np.asarray(times, float).reshape(-1, 1)
        c, cp, cpp = bump_window(t, 0.0, self.ramp_width)
        c0 = self.data.phi0.coeffs
        c1 = self.data.phi1.coeffs
        return (c * c0 + t * c * c1,
                cp * c0 + (c + t * cp) * c1,
                cpp * c0 + (2.0 * cp + t * cpp) * c1)


def build_lifting(data, mu, delta):
    """Construct a Lifting whose stability margin never drops below 3*delta/4.

    Requires the data itself to satisfy the margin delta.  The ramp width
    is halved from _RAMP_WIDTH until the sampled margin holds; below
    _RAMP_FLOOR the data is declared too large and LiftingError is raised.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    require_margin(data.phi0, mu, delta, "initial data")
    r = _RAMP_WIDTH
    target = 0.75 * delta - 1e-10
    while r >= _RAMP_FLOOR:
        lift = Lifting(data, r)
        phi, _, _ = lift.states(np.linspace(-2.0 * r, 2.0 * r, 129))
        if stability_coefficient(phi, mu)[1] >= target:
            return lift
        r *= 0.5
    raise LiftingError(
        f"no ramp width above {_RAMP_FLOOR} keeps the margin 3*delta/4 = {0.75 * delta:.6g}"
    )


def lifting_forcing(lift, mu, times):
    """Forcing series F(t) = -(phi_a_tt - mu phi_a_xx - N(phi_a)) for t >= 0.

    Identically zero for t < 0.  At t = 0 the value is the limit from
    above (the lifting's plateau makes phi_a_tt(0) = 0), so forward
    quadrature on [0, T] sees the jump correctly.
    """
    times = np.asarray(times, float)
    phi, _, phitt = lift.states(times)
    f = nonlinear_operator(phi, mu) - phitt
    f[times < 0.0] = 0.0
    return Trajectory(times, f)
