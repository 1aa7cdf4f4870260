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
(p, p_x, p_xx, H p_xx) on the 3/2-padded grid and one analysis of the two
products, on a field or on coefficient arrays with any leading batch
axes.  The linearized operator mu phi_xx + dN[phi0]phi is the same kernel
polarized (four synthesized rows of the base, four of the unknown, two
analyzed), and the first and second derivatives of N are that kernel with
mu = 0.  The spatial part of the equation itself,
mu phi_xx + N(phi), is nonlinear_operator, the one place it is formed.

Each kernel is a private, unchecked function on float rows, the
interleaved (Re, Im) floats of the coefficients k = 1..K of real zero-mean
fields, reading the _plan of (n, K); the solvers step such rows
directly.  The public operators check (..., n-1) bands, run the kernel on
k = 1..n/2-1 and mirror the result back by c(-k) = conj c(k) (spectral._band).

The kernels' two transforms, the synthesis of (p, p_x, p_xx, H p_xx) and
the analysis of (a, b), are each defined once as a batched real FFT, and
_plan picks how to run them: the FFT above _DENSE_MAX_N points; up to
it, where an FFT call costs its fixed overhead rather than arithmetic, a
product of the float rows with a real table (the matrix multiplication
transform of Boyd, Chebyshev and Fourier Spectral Methods, ch. 10) that
_dense_tables builds once per n from the FFT at the unit inputs.  One
vector-matrix BLAS call per row gives each row of a batch the bits of
that row alone, and the analysis always produces the whole band before
keeping k <= K, so a kernel on K = N gives the bits of the public
operator kept to N.  The stability coefficient is one FFT on every grid.

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

from .spectral import SpectralField, TorusGrid, _band, _coeffs, _like, _padded_size, _positive

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
    1 + max |c| over the whole input.  Returns |c| and that scale."""
    if isinstance(f, SpectralField):
        if not f.real_flag:
            raise ValueError(f"{name} must be a real field")
        c = f.coeffs
    else:
        c = np.asarray(f)
    a = np.abs(c)
    scale = 1.0 + a.max()
    if np.abs(c - c[..., ::-1].conj()).max() > 1e-12 * scale:
        raise ValueError(f"{name} is flagged real but its coefficients are "
                         "not conjugate symmetric")
    return a, scale


def _require_real_zero_mean(f, name):
    """_require_real, and reject a nonzero mean (relative tolerance 1e-9)."""
    a, scale = _require_real(f, name)
    if a[..., a.shape[-1] // 2].max() > 1e-9 * scale:
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
        if t.size >= 2 and np.min(np.diff(t)) <= 0:
            raise ValueError("times must be strictly increasing")

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


#: grids of at most this many points run the kernels' transforms as
#: products with the cached real tables of _dense_tables; larger grids use
#: the real FFT, whose cost there is arithmetic rather than call overhead
_DENSE_MAX_N = 64


@lru_cache(maxsize=16)
def _symbols(n):
    """Symbols of the kernels on an n-point grid, for the coefficients
    k = 1..n/2-1 of real zero-mean fields; a kernel on k = 1..K reads the
    first K columns.

    Returns (m, up, down, slope): the 3/2-padded transform length; the
    (4, n/2-1) symbols taking phi^(k) to the half spectra of
    (p, p_x, p_xx, H p_xx), p = H phi, scaled for synthesis on m points;
    k * 2pi/m, which takes the half spectrum of a - i b back to N^(k); and
    k * n/2pi, which takes phi^(k) to the half spectrum of (H phi)_x scaled
    for synthesis on the n nodes.
    """
    m = _padded_size(n)
    k = np.arange(1, n // 2, dtype=float)
    up = np.array([-1j * np.ones_like(k), k, 1j * k**2, k**2]) * (m / _TWO_PI)
    down, slope = k * (_TWO_PI / m), k * (n / _TWO_PI)
    for a in (up, down, slope):
        a.flags.writeable = False
    return m, up, down, slope


def _synthesis(h, symbol, m):
    """Values on m points of the real fields whose half spectra are zero at
    k = 0 and h * symbol at k = 1..K; irfft pads k > K with zeros itself."""
    spec = np.zeros(np.broadcast(h, symbol).shape[:-1] + (h.shape[-1] + 1,), complex)
    np.multiply(h, symbol, out=spec[..., 1:])
    return np.fft.irfft(spec, m)


def _synthesis_fft(x, n):
    """(p, p_x, p_xx, H p_xx), p = H phi, on the 3/2-padded grid of an
    n-point grid, shape (..., 4, m), for the fields phi with the float rows
    `x` (any K <= n/2-1): one batched inverse real FFT."""
    m, up, *_ = _symbols(n)
    h = np.ascontiguousarray(x).view(complex)
    return _synthesis(h[..., None, :], up[:, :h.shape[-1]], m)


def _analysis_fft(ab, n, K):
    """The float rows, k = 1..K, of d/dx(H[a] - b) from the values of (a, b)
    on the padded grid of an n-point grid, a (..., 2, m) buffer: one batched
    real FFT, then k (a^(k) - i b^(k)) (the symbol `down`)."""
    _, _, down, _ = _symbols(n)
    ab = np.fft.rfft(ab)[..., 1:K + 1]
    return (down[:K] * (ab[..., 0, :] - 1j * ab[..., 1, :])).view(float)


@lru_cache(maxsize=8)
def _dense_tables(n):
    """Real tables of the kernels' transforms on an n-point grid, for the
    coefficients k = 1..n/2-1 of real zero-mean fields read as float rows;
    a kernel on k = 1..K reads the first 2K rows of the synthesis table.

    Returns (synthesis, analysis), of shapes (n-2, 4m) and (2m, n-2):
    _synthesis_fft and _analysis_fft over the whole band at the unit inputs,
    row j the image of the j-th unit float (the rows of an identity).
    """
    m = _padded_size(n)
    tables = (_synthesis_fft(np.eye(n - 2), n).reshape(n - 2, 4 * m),
              _analysis_fft(np.eye(2 * m).reshape(2 * m, 2, m), n, n // 2 - 1))
    for a in tables:
        a.flags.writeable = False
    return tables


_Plan = namedtuple("_Plan", "lap synthesis analysis")


def _row_products(x, table):
    """x @ table over the last axis of `x`, one vector-matrix product per
    row, so every row of a batch gives the bits of that row alone."""
    return (x[..., None, :] @ table)[..., 0, :]


def _plan(n, K):
    """The kernels' data on k = 1..K of an n-point grid: the interleaved
    symbol -k^2 (2K floats) and the synthesis and analysis the kernels
    call, those of _synthesis_fft and _analysis_fft.  Up to _DENSE_MAX_N
    points they are products with the rows [:2K] of the synthesis table
    and with the whole-band analysis table kept to k <= K, which gives the
    public operator's bits; above, the FFTs.  The solvers build one per solve."""
    lap = np.repeat(-np.arange(1.0, K + 1) ** 2, 2)
    if n > _DENSE_MAX_N:
        return _Plan(lap, partial(_synthesis_fft, n=n), partial(_analysis_fft, n=n, K=K))
    synthesis, analysis = _dense_tables(n)
    synthesis, m = synthesis[:2 * K], _padded_size(n)
    return _Plan(lap,
                 lambda x: _row_products(x, synthesis).reshape(x.shape[:-1] + (4, m)),
                 lambda ab: _row_products(ab.reshape(ab.shape[:-2] + (-1,)), analysis)[..., :2 * K])


def _float_rows(c, K=None):
    """The float rows of (..., n-1) bands: interleaved (Re, Im) floats of
    k = 1..K (k >= 1 by default), a view once the last axis is contiguous."""
    h = _positive(np.asarray(c, complex))[..., :K]
    if h.strides[-1] != h.itemsize:
        h = np.ascontiguousarray(h)
    return h.view(float)


def _nonlinear_rows(x, mu_lap, plan):
    """The float rows of mu phi_xx + N(phi) from those of phi, `x`, with
    mu_lap = mu * plan.lap: the fused kernel of nonlinear_operator, unchecked."""
    v = plan.synthesis(x)
    p, px, pxx, hpxx = v.swapaxes(0, -2)
    ab = np.empty(v.shape[:-2] + (2, v.shape[-1]))
    np.multiply(px, px, out=ab[..., 0, :])
    ab[..., 0, :] += p * pxx
    np.multiply(p, hpxx, out=ab[..., 1, :])
    return mu_lap * x + plan.analysis(ab)


def _stability_values(x, mu, n):
    """Values of mu - 2 (H phi)_x at the n grid nodes, shape (..., n), from
    the float rows `x` of phi: the kernel of stability_coefficient, one
    batched inverse real FFT of k phi^(k) (the symbol `slope`) on every grid."""
    *_, slope = _symbols(n)
    h = np.ascontiguousarray(x).view(complex)
    return mu - 2.0 * _synthesis(h, slope[:h.shape[-1]], n)


def _linearized_rows(v0, x, mu_lap, plan):
    """The float rows of mu phi_xx + dN[phi0]phi from v0, the (..., 4, m)
    synthesis of phi0, and the float rows `x` of phi, with
    mu_lap = mu * plan.lap: the kernel of apply_linearized_operator, with no
    check.  v0 and x broadcast.  Like _nonlinear_rows it applies mu phi_xx
    exactly, so with phi0 = 0 the result is diagonal in k bitwise."""
    v = plan.synthesis(x)
    p0, p0x, p0xx, hp0xx = v0.swapaxes(0, -2)
    p, px, pxx, hpxx = v.swapaxes(0, -2)
    ab = np.empty(np.broadcast(v0, v).shape[:-2] + (2, v.shape[-1]))
    np.multiply(2.0 * p0x, px, out=ab[..., 0, :])
    ab[..., 0, :] += p0 * pxx
    ab[..., 0, :] += p * p0xx
    np.multiply(p0, hpxx, out=ab[..., 1, :])
    ab[..., 1, :] += p * hp0xx
    return mu_lap * x + plan.analysis(ab)


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
    _nonlinear_rows.

    N uses H[p_x^2] - [p; H]p_xx = H[a] - b with a = p_x^2 + p p_xx and
    b = p H[p_xx]: one synthesis of (p, p_x, p_xx, H p_xx) on the m-point
    grid (m = 3n/2, so the retained band of both products is exact) and
    one analysis of (a, b).  For k >= 0 the result is
    N^(k) = k (a^(k) - i b^(k)); the k < 0 half follows by conjugate
    symmetry, which is why the input must be conjugate symmetric.
    """
    _require_real_zero_mean(phi, "phi")
    c = _coeffs(phi)
    n = c.shape[-1] + 1
    plan = _plan(n, n // 2 - 1)
    out = _nonlinear_rows(_float_rows(c), mu * plan.lap, plan)
    return _like(phi, _band(out.view(complex), n))


def apply_linearized_operator(phi0, phiP, mu):
    """The spatial part of the linearization at phi0 applied to phiP,
    mu phiP_xx + dN[phi0]phiP.

    Both arguments are real zero-mean fields or coefficient arrays of shape
    (..., n-1) whose leading axes broadcast, so one base can act on a whole
    batch; the result is a field when both are fields, an array otherwise.

    The kernel polarizes the identity of nonlinear_operator.  With
    p0 = H phi0 and p = H phiP it is mu phiP_xx, applied exactly by the
    symbol -mu k^2, plus d/dx( H[a] - b ) with

        a = 2 p0_x p_x + p0 p_xx + p p0_xx,
        b = p0 H[p_xx] + p H[p0_xx]:

    one synthesis of each argument's four rows (p0, p0_x, p0_xx, H p0_xx
    and p, p_x, p_xx, H p_xx) on the m-point grid and one analysis of
    (a, b), by table products or real FFTs (see the module docstring).
    """
    _require_real_zero_mean(phi0, "phi0")
    _require_real_zero_mean(phiP, "phiP")
    c0, c = _coeffs(phi0), _coeffs(phiP)
    n = c.shape[-1] + 1
    plan = _plan(n, n // 2 - 1)
    v0 = plan.synthesis(_float_rows(c0))
    out = _band(_linearized_rows(v0, _float_rows(c), mu * plan.lap, plan).view(complex), n)
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
    delta/2."""
    _, mn = stability_coefficient(phi, mu)
    if mn < floor - 1e-10:
        raise ValueError(
            f"{what} violates the stability margin: min {mn:.6g} < {floor:.6g}"
        )


def _B(x):
    """B(x) = exp(-1/x) for x > 0, 0 otherwise, and its first two
    derivatives, elementwise over an array."""
    b, bp, bpp = np.zeros((3,) + x.shape)
    p = x > 0.0
    y = x[p]
    b[p] = np.exp(-1.0 / y)
    bp[p] = b[p] / y**2
    bpp[p] = b[p] * (1.0 - 2.0 * y) / y**4
    return b, bp, bpp


def _chi_parts(t, r):
    """Smooth even bump: 1 on |t| <= r, 0 beyond 2r, C-infinity in between.

    Built from B(x) = exp(-1/x) as psi(s) = B(1-s)/(B(1-s)+B(s)) on the
    transition s = (|t|-r)/r in (0,1).  Returns (chi, chi', chi''): three
    floats for a scalar t, three arrays of the shape of t otherwise."""
    t = np.asarray(t, float)
    a = np.abs(t)
    out = np.zeros((3,) + t.shape)
    out[0] = a <= r
    ramp = (a > r) & (a < 2.0 * r)
    s = (a[ramp] - r) / r
    (g, gp, gpp), (h, hp, hpp) = _B(1.0 - s), _B(s)
    gp = -gp
    d = g + h
    num = gp * h - g * hp
    out[:, ramp] = (g / d,
                    num / d**2 * np.sign(t[ramp]) / r,
                    ((gpp * h - g * hpp) * d - 2.0 * num * (gp + hp)) / d**3 / r**2)
    return tuple(map(float, out)) if t.ndim == 0 else tuple(out)


def bump_window(t, center, width):
    """Evaluate the smooth bump centered at `center` with plateau radius
    `width` (support radius 2*width); returns (w, w', w'').  Handy for
    manufacturing compactly supported test trajectories."""
    return _chi_parts(t - center, width)


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
        c, cp, cpp = _chi_parts(t, self.ramp_width)
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
    if delta <= 0:
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
