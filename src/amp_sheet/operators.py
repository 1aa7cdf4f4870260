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
any leading batch axes.  Its derivatives and the linearized operator
still compose the spectral primitives.

Besides N and its first and second derivatives this module owns the
Cauchy data container, time-sampled trajectories, the smooth compactly
supported lifting of initial data, and the forcing series that turns the
lifted problem into one with zero trace in the past.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    SpectralField,
    _padded_size,
    commutator_vh,
    derivative,
    from_modes,
    hilbert,
    pointwise_product,
    synthesize,
    zeros,
)

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


def constant_field(grid, value):
    return from_modes(grid, {0: _TWO_PI * value}, real_flag=True)


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


@dataclass
class FieldSeries:
    """Fields sampled on a strictly increasing time mesh."""

    times: np.ndarray
    fields: list

    def __post_init__(self):
        t = np.asarray(self.times, float)
        if t.ndim != 1 or t.size != len(self.fields):
            raise ValueError("times and fields disagree in length")
        if t.size >= 2 and np.min(np.diff(t)) <= 0:
            raise ValueError("times must be strictly increasing")
        self.times = t

    def __len__(self):
        return len(self.fields)


@dataclass
class Trajectory:
    """(phi, phi_t) snapshots on a time mesh, optionally with stored phi_tt.

    Solvers fill `phitts` with the semidiscrete right-hand side at the
    accepted nodes, which is accurate to the integrator's order; consumers
    that the contract obliges to difference (residual evaluation on foreign
    trajectories, the X_m norms) ignore it.
    """

    times: np.ndarray
    phis: list
    phits: list
    phitts: list | None = None
    uniform: bool = True

    def __post_init__(self):
        t = np.asarray(self.times, float)
        if t.ndim != 1 or t.size != len(self.phis) or t.size != len(self.phits):
            raise ValueError("times and snapshots disagree in length")
        if self.phitts is not None and len(self.phitts) != t.size:
            raise ValueError("phitts length mismatch")
        if t.size >= 2:
            steps = np.diff(t)
            if np.min(steps) <= 0:
                raise ValueError("times must be strictly increasing")
            if self.uniform and np.max(np.abs(steps - steps[0])) > 1e-10 * max(
                1.0, abs(steps[0])
            ):
                raise ValueError("mesh flagged uniform but steps vary")
        self.times = t

    def __len__(self):
        return len(self.phis)

    @property
    def grid(self):
        return self.phis[0].grid

    @property
    def dt(self):
        if not self.uniform or len(self.times) < 2:
            raise ValueError("dt undefined for this mesh")
        return float(self.times[1] - self.times[0])

    def second_difference(self, i):
        """Centered second difference of the phi snapshots at interior i."""
        if not 1 <= i <= len(self) - 2:
            raise ValueError(f"index {i} is not interior")
        dt = self.dt
        return (1.0 / dt**2) * (self.phis[i - 1] - 2.0 * self.phis[i] + self.phis[i + 1])

    def phit_derivative(self, i):
        """Centered (one-sided second order at the ends) difference of phi_t."""
        m = len(self) - 1
        dt = self.dt
        if 1 <= i <= m - 1:
            return (0.5 / dt) * (self.phits[i + 1] - self.phits[i - 1])
        if i == 0:
            return (0.5 / dt) * (-3.0 * self.phits[0] + 4.0 * self.phits[1] - self.phits[2])
        if i == m:
            return (0.5 / dt) * (3.0 * self.phits[m] - 4.0 * self.phits[m - 1] + self.phits[m - 2])
        raise ValueError(f"index {i} out of range")


@lru_cache(maxsize=64)
def _fused_tables(n, dealias):
    """Tables of the fused N(phi) kernel on an n-point grid.

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
    c = phi.coeffs if field else np.asarray(phi)
    n = c.shape[-1] + 1
    half = n // 2
    m, up, down = _fused_tables(n, dealias)
    v = np.fft.irfft(c[..., None, half - 1:] * up, m)  # p, p_x, p_xx, H p_xx
    p, px = v[..., 0, :], v[..., 1, :]
    ab = np.empty(v.shape[:-2] + (2, m))
    np.multiply(px, px, out=ab[..., 0, :])
    ab[..., 0, :] += p * v[..., 2, :]
    np.multiply(p, v[..., 3, :], out=ab[..., 1, :])
    ab = np.fft.rfft(ab)
    nk = down * (ab[..., 0, :half] - 1j * ab[..., 1, :half])
    out = np.empty(c.shape, complex)
    out[..., half - 1:] = nk
    out[..., :half - 1] = nk[..., :0:-1].conj()
    return SpectralField(phi.grid, out, True) if field else out


def quadratic_rhs_derivative(phi0, phi, dealias=True):
    """Directional derivative dN[phi0] phi.

    dN = d/dx( 2 H[p0_x p_x] - [p; H]p0_xx - [p0; H]p_xx ), lower-case p
    denoting Hilbert transforms of the respective arguments.  Since N is
    quadratic this is exact: N(phi0 + phi) = N(phi0) + dN[phi0]phi + N(phi).
    """
    p0 = hilbert(phi0)
    p = hilbert(phi)
    inner = (
        2.0 * hilbert(pointwise_product(derivative(p0), derivative(p), dealias))
        - commutator_vh(p, derivative(p0, 2), dealias)
        - commutator_vh(p0, derivative(p, 2), dealias)
    )
    return derivative(inner)


def second_derivative(phi, psi, dealias=True):
    """Second derivative of the evolution operator, a symmetric bilinear map.

    d2L(phi, psi) = d/dx( -2 H[P_x p_x] + [p; H]P_xx + [P; H]p_xx ) with
    p = H[phi], P = H[psi].  It does not depend on a base point, and
    0.5 * d2L(phi, phi) = -N(phi).
    """
    p = hilbert(phi)
    P = hilbert(psi)
    inner = (
        -2.0 * hilbert(pointwise_product(derivative(P), derivative(p), dealias))
        + commutator_vh(p, derivative(P, 2), dealias)
        + commutator_vh(P, derivative(p, 2), dealias)
    )
    return derivative(inner)


def evolution_residual(traj, mu, index, dealias=True):
    """phi_tt - mu phi_xx - N(phi) at an interior mesh index.

    phi_tt is the centered second difference of the stored phi snapshots,
    so the residual of an exact solution is O(dt^2).
    """
    phi = traj.phis[index]
    phi_tt = traj.second_difference(index)
    return phi_tt - mu * derivative(phi, 2) - quadratic_rhs(phi, dealias)


def linearized_parts(phi0, phiP, mu, dealias=True):
    """Coefficient and lower-order pieces of the linearization at phi0.

    Returns (c2, lower) with c2 the variable coefficient mu - 2 p0_x as a
    field and `lower` the remaining terms applied to phiP,

        2 [H; p0_x] pP_xx + 2 H[p0_xx pP_x] - d/dx( [pP; H]p0_xx + [p0; H]pP_xx ),

    so that the linearized equation reads
    phi'_tt = c2 * phi'_xx + lower + g   (product dealiased by the caller).
    """
    grid = phi0.grid
    p0 = hilbert(phi0)
    p0x = derivative(p0)
    p0xx = derivative(p0, 2)
    pP = hilbert(phiP)
    pPx = derivative(pP)
    pPxx = derivative(pP, 2)
    c2 = constant_field(grid, mu) - 2.0 * p0x
    lower = (
        -2.0 * commutator_vh(p0x, pPxx, dealias)
        + 2.0 * hilbert(pointwise_product(p0xx, pPx, dealias))
        - derivative(commutator_vh(pP, p0xx, dealias) + commutator_vh(p0, pPxx, dealias))
    )
    return c2, lower


def apply_linearized_operator(phi0, phiP, mu, dealias=True):
    """The spatial part of the linearized operator applied to phiP:
    c2 * phiP_xx + lower.  Kept separate so the Galerkin solver can project
    the pieces individually."""
    c2, lower = linearized_parts(phi0, phiP, mu, dealias)
    return pointwise_product(c2, derivative(phiP, 2), dealias) + lower


def stability_coefficient(phi, mu):
    """Pointwise values and minimum of mu - 2 (H phi)_x on the grid."""
    vals = mu - 2.0 * synthesize(derivative(hilbert(phi)))
    return vals, float(np.min(vals))


def _B(x):
    return np.exp(-1.0 / x) if x > 0.0 else 0.0


def _Bp(x):
    return _B(x) / x**2 if x > 0.0 else 0.0


def _Bpp(x):
    return _B(x) * (1.0 - 2.0 * x) / x**4 if x > 0.0 else 0.0


def _chi_parts(t, r):
    """Smooth even bump: 1 on |t| <= r, 0 beyond 2r, C-infinity in between.

    Built from B(x) = exp(-1/x) as psi(s) = B(1-s)/(B(1-s)+B(s)) on the
    transition s = (|t|-r)/r in (0,1).  Returns (chi, chi', chi'')."""
    a = abs(t)
    if a <= r:
        return 1.0, 0.0, 0.0
    if a >= 2.0 * r:
        return 0.0, 0.0, 0.0
    s = (a - r) / r
    sg = 1.0 if t > 0 else -1.0
    g, h = _B(1.0 - s), _B(s)
    gp, hp = -_Bp(1.0 - s), _Bp(s)
    gpp, hpp = _Bpp(1.0 - s), _Bpp(s)
    d = g + h
    num = gp * h - g * hp
    psi = g / d
    psip = num / d**2
    psipp = ((gpp * h - g * hpp) * d - 2.0 * num * (gp + hp)) / d**3
    return psi, psip * sg / r, psipp / r**2


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
        """phi_a(t) and its first and second analytic time derivatives."""
        c, cp, cpp = _chi_parts(t, self.ramp_width)
        c0 = self.data.phi0.coeffs
        c1 = self.data.phi1.coeffs
        grid = self.data.grid
        phi = SpectralField(grid, c * c0 + t * c * c1, True)
        phit = SpectralField(grid, cp * c0 + (c + t * cp) * c1, True)
        phitt = SpectralField(grid, cpp * c0 + (2.0 * cp + t * cpp) * c1, True)
        return phi, phit, phitt


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
        worst = np.inf
        for t in np.linspace(-2.0 * r, 2.0 * r, 129):
            phi, _, _ = lift.at(float(t))
            _, m = stability_coefficient(phi, mu)
            worst = min(worst, m)
        if worst >= target:
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
    fields = []
    for t in np.asarray(times, float):
        if t < 0.0:
            fields.append(zeros(grid))
            continue
        phi, _, phitt = lift.at(float(t))
        f = mu * derivative(phi, 2) + quadratic_rhs(phi, dealias) - phitt
        fields.append(f)
    return FieldSeries(np.asarray(times, float), fields)
