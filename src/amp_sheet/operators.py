"""Evolution operators for the amplitude equation.

The equation solved throughout is

    phi_tt - mu * phi_xx = N(phi),
    N(phi) = d/dx( H[p_x^2] - [p; H] p_xx ),      p = H[phi],

where H is the periodic Hilbert transform and [v; H]f = v H[f] - H[v f].
The pointwise coefficient mu - 2 p_x decides the character of the
linearized problem: positive keeps it hyperbolic, negative makes the
initial value problem ill posed.

N is evaluated by one fused kernel through the identity
H[p_x^2] - [p; H]p_xx = H[p_x^2 + p p_xx] - p H[p_xx]: one batched inverse
real FFT of (p, p_x, p_xx, H p_xx) on the 3/2-padded grid and one batched
real FFT of the two products, on a field or on coefficient arrays with
any leading batch axes.  The linearized operator mu phi_xx + dN[phi0]phi
is the same kernel polarized (eight synthesized rows, two analyzed), and
the first and second derivatives of N are that kernel with mu = 0.

Besides N and its first and second derivatives this module owns the
Cauchy data container, time-sampled trajectories, the smooth compactly
supported lifting of initial data, and the forcing series that turns the
lifted problem into one with zero trace in the past.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import SpectralField, TorusGrid, _coeffs, _half, _mirror, _padded_size
from .spectral import pointwise_product  # noqa: F401  (perfbench/tests rebinds it here)

_TWO_PI = 2.0 * np.pi


class LiftingError(RuntimeError):
    """No ramp width down to the floor met the stability margin."""


def _require_real_zero_mean(f, name):
    """Reject a field, or a coefficient array of any batch shape, that is
    not real (flag and conjugate symmetry) or has a nonzero mean; both
    tolerances are relative to 1 + max |c| over the whole input."""
    if isinstance(f, SpectralField):
        if not f.real_flag:
            raise ValueError(f"{name} must be a real field")
        c = f.coeffs
    else:
        c = np.asarray(f)
    a = np.abs(c)
    scale = 1.0 + a.max()
    if a[..., c.shape[-1] // 2].max() > 1e-9 * scale:
        raise ValueError(f"{name} must have zero mean")
    if np.abs(c - c[..., ::-1].conj()).max() > 1e-12 * scale:
        raise ValueError(f"{name} is flagged real but its coefficients are "
                         "not conjugate symmetric")


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

    def _fields(self, rows):
        return None if rows is None else [SpectralField(self.grid, r, True) for r in rows]

    # field lists, read-only, for callers written against per-node fields
    phis = property(lambda self: self._fields(self.phi))
    phits = property(lambda self: self._fields(self.phit))
    phitts = property(lambda self: self._fields(self.phitt))


FieldSeries = Trajectory


@lru_cache(maxsize=64)
def _fused_tables(n, dealias):
    """Tables of the fused kernels on an n-point grid.

    Returns (m, up, down): the transform length (the 3/2-padded size when
    dealiasing), the (4, n/2) symbols taking phi^(k), k = 0..n/2-1, to the
    half spectra of (p, p_x, p_xx, H p_xx) with p = H phi, scaled for
    synthesis on m points, and the (n/2,) symbol k * 2pi/m that takes the
    half spectrum of a - i b back to N^(k).
    """
    m = _padded_size(n) if dealias else n
    k = np.arange(n // 2, dtype=float)
    up = np.array([-1j * np.sign(k), k, 1j * k**2, k**2]) * (m / _TWO_PI)
    down = k * (_TWO_PI / m)
    for a in (up, down):
        a.flags.writeable = False
    return m, up, down


def quadratic_rhs(phi, dealias=True):
    """N(phi) = d/dx( H[p_x^2] - [p; H]p_xx ) with p = H[phi].

    `phi` is a real zero-mean SpectralField, or its coefficient array with
    any leading batch axes (shape (..., n-1)); the result has the same
    kind and shape, again real with zero mean (an exact x-derivative).

    The kernel uses H[p_x^2] - [p; H]p_xx = H[a] - b with
    a = p_x^2 + p p_xx and b = p H[p_xx]: one batched inverse real FFT
    synthesizes (p, p_x, p_xx, H p_xx) on the m-point grid (m = 3n/2 when
    dealiasing, so the retained band of both products is exact), and one
    batched real FFT analyzes (a, b).  For k >= 0 the result is
    N^(k) = k (a^(k) - i b^(k)); the k < 0 half follows by conjugate
    symmetry, which is why the input must be conjugate symmetric.
    """
    _require_real_zero_mean(phi, "phi")
    field = isinstance(phi, SpectralField)
    c = _coeffs(phi)
    n = c.shape[-1] + 1
    half = n // 2
    m, up, down = _fused_tables(n, dealias)
    v = np.fft.irfft(_half(c)[..., None, :] * up, m)  # p, p_x, p_xx, H p_xx
    p, px = v[..., 0, :], v[..., 1, :]
    ab = np.empty(v.shape[:-2] + (2, m))
    np.multiply(px, px, out=ab[..., 0, :])
    ab[..., 0, :] += p * v[..., 2, :]
    np.multiply(p, v[..., 3, :], out=ab[..., 1, :])
    ab = np.fft.rfft(ab)
    out = _mirror(down * (ab[..., 0, :half] - 1j * ab[..., 1, :half]))
    return SpectralField(phi.grid, out, True) if field else out


def quadratic_rhs_derivative(phi0, phi, dealias=True):
    """Directional derivative dN[phi0] phi, the linearized kernel with mu = 0.

    Since N is quadratic this is exact: N(phi0 + phi) = N(phi0) + dN[phi0]phi + N(phi).
    """
    return apply_linearized_operator(phi0, phi, 0.0, dealias)


def second_derivative(phi, psi, dealias=True):
    """Second derivative of the evolution operator, the symmetric bilinear
    map d2L(phi, psi) = -dN[phi]psi.  It does not depend on a base point,
    and 0.5 * d2L(phi, phi) = -N(phi)."""
    return -apply_linearized_operator(phi, psi, 0.0, dealias)


def apply_linearized_operator(phi0, phiP, mu, dealias=True):
    """The spatial part of the linearization at phi0 applied to phiP,
    mu phiP_xx + dN[phi0]phiP.

    Both arguments are real zero-mean fields or coefficient arrays of shape
    (..., n-1) whose leading axes broadcast, so one base can act on a whole
    batch; the result is a field when both are fields, an array otherwise.

    The kernel polarizes the identity of quadratic_rhs.  With p0 = H phi0,
    p = H phiP and phiP = -H p (so mu phiP_xx = d/dx H[-mu p_x]) it is
    d/dx( H[a] - b ) with

        a = 2 p0_x p_x + p0 p_xx + p p0_xx - mu p_x,
        b = p0 H[p_xx] + p H[p0_xx]:

    one batched inverse real FFT of the eight rows (p0, p0_x, p0_xx, H p0_xx,
    p, p_x, p_xx, H p_xx) on the m-point grid and one batched real FFT of
    (a, b).
    """
    _require_real_zero_mean(phi0, "phi0")
    _require_real_zero_mean(phiP, "phiP")
    field = isinstance(phi0, SpectralField) and isinstance(phiP, SpectralField)
    c0, c = _coeffs(phi0), _coeffs(phiP)
    n = c.shape[-1] + 1
    half = n // 2
    m, up, down = _fused_tables(n, dealias)
    rows = np.empty(np.broadcast_shapes(c0.shape, c.shape)[:-1] + (2, 4, half), complex)
    np.multiply(_half(c0)[..., None, :], up, out=rows[..., 0, :, :])
    np.multiply(_half(c)[..., None, :], up, out=rows[..., 1, :, :])
    v = np.fft.irfft(rows, m)
    (p0, p0x, p0xx, hp0xx), (p, px, pxx, hpxx) = (
        [v[..., i, j, :] for j in range(4)] for i in range(2))
    a = (2.0 * p0x - mu) * px + p0 * pxx + p * p0xx
    b = p0 * hpxx + p * hp0xx
    ab = np.fft.rfft(np.stack([a, b], axis=-2))
    out = _mirror(down * (ab[..., 0, :half] - 1j * ab[..., 1, :half]))
    return SpectralField(phiP.grid, out, True) if field else out


def stability_coefficient(phi, mu):
    """Values of mu - 2 (H phi)_x at the n grid nodes, and their minimum.

    `phi` is a real field or a coefficient array of shape (..., n-1); the
    values have shape (..., n) and the minimum is taken over all of them.
    (H phi)_x has symbol |k|, so the values come from one inverse real FFT
    of the half spectrum (only k >= 0 is read) times k.
    """
    c = _coeffs(phi)
    n = c.shape[-1] + 1
    _, up, _ = _fused_tables(n, False)  # row 1: (H phi)_x scaled for n points
    vals = mu - 2.0 * np.fft.irfft(_half(c) * up[1], n)
    return vals, float(np.min(vals))


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
    mu: float
    delta: float
    ramp_width: float

    def chi(self, t):
        return _chi_parts(t, self.ramp_width)

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


def build_lifting(data, mu, delta, ramp_width=0.5, floor=1e-4):
    """Construct a Lifting whose stability margin never drops below 3*delta/4.

    Requires the data itself to satisfy the margin delta.  The ramp width
    is halved until the sampled margin holds; below `floor` the data is
    declared too large and LiftingError is raised.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    _, mn = stability_coefficient(data.phi0, mu)
    if mn < delta - 1e-12:
        raise ValueError(
            f"initial data violates the stability margin: min {mn:.6g} < delta {delta:.6g}"
        )
    r = float(ramp_width)
    target = 0.75 * delta - 1e-10
    while r >= floor:
        lift = Lifting(data, mu, delta, r)
        phi, _, _ = lift.states(np.linspace(-2.0 * r, 2.0 * r, 129))
        if stability_coefficient(phi, mu)[1] >= target:
            return lift
        r *= 0.5
    raise LiftingError(
        f"no ramp width above {floor} keeps the margin 3*delta/4 = {0.75 * delta:.6g}"
    )


def lifting_forcing(lift, mu, times, dealias=True):
    """Forcing series F(t) = -(phi_a_tt - mu phi_a_xx - N(phi_a)) for t >= 0.

    Identically zero for t < 0.  At t = 0 the value is the limit from
    above (the lifting's plateau makes phi_a_tt(0) = 0), so forward
    quadrature on [0, T] sees the jump correctly.
    """
    grid = lift.data.grid
    times = np.asarray(times, float)
    phi, _, phitt = lift.states(times)
    lap = -(grid.modes.astype(float) ** 2)
    f = mu * (lap * phi) + quadratic_rhs(phi, dealias) - phitt
    f[times < 0.0] = 0.0
    return Trajectory(times, f)
