"""Slow, independent reference computations used to pin expected values.

Most of what is here works on plain dictionaries {k: coefficient} and
deliberately avoids the package's FFT paths: coefficients come from O(n^2)
quadrature sums, products from the literal convolution formula, and the
quadratic right-hand side from composing those pieces.  Tests freeze values
produced by these routines (or closed forms derived by hand) and hold the
package against them.

The last routines run at production sizes instead.  They are built from
the package's spectral primitives (one dealiased product at a time) but not
from its fused N(phi) and linearized kernels, its time stepper, its batched
random draws or its array-valued bump window, so those can be held against
them.
The one exception, evolution_residual, measures a trajectory against the
package's own N(phi).
"""

import numpy as np

from amp_sheet.operators import quadratic_rhs
from amp_sheet.spectral import (
    SpectralField,
    derivative,
    from_modes,
    hilbert,
    pointwise_product,
)

TWO_PI = 2.0 * np.pi


def direct_coefficients(samples):
    """Trapezoid-rule Fourier coefficients via the literal O(n^2) sum.

    c(k) = (2*pi/n) * sum_j f(x_j) exp(-i k x_j), for k = -(n/2-1)..n/2-1.
    """
    samples = np.asarray(samples)
    n = samples.size
    x = TWO_PI * np.arange(n) / n
    out = {}
    for k in range(-(n // 2 - 1), n // 2):
        out[k] = (TWO_PI / n) * complex(np.sum(samples * np.exp(-1j * k * x)))
    return out


def direct_synthesis(coeffs, n):
    """f(x_j) = (1/2pi) sum_k c(k) exp(i k x_j) summed term by term."""
    x = TWO_PI * np.arange(n) / n
    vals = np.zeros(n, complex)
    for k, c in coeffs.items():
        vals += c * np.exp(1j * k * x) / TWO_PI
    return vals


def direct_convolution(cf, cg, kmax):
    """Coefficients of the pointwise product via (fg)^(k) = (1/2pi) sum_l f^(k-l) g^(l).

    Returns the band |k| <= kmax only.
    """
    out = {}
    for k in range(-kmax, kmax + 1):
        acc = 0.0 + 0.0j
        for l, gl in cg.items():
            fk = cf.get(k - l)
            if fk is not None:
                acc += fk * gl
        out[k] = acc / TWO_PI
    return out


def direct_hilbert(coeffs):
    """Symbol -i*sgn(k) applied coefficient by coefficient."""
    return {k: -1j * np.sign(k) * c for k, c in coeffs.items()}


def direct_derivative(coeffs, p=1):
    return {k: (1j * k) ** p * c for k, c in coeffs.items()}


def direct_inner(cf, cg):
    """(f, g) = (1/2pi) sum_k f^(k) conj(g^(k))."""
    keys = set(cf) | set(cg)
    return sum(cf.get(k, 0.0) * np.conj(cg.get(k, 0.0)) for k in keys) / TWO_PI


def direct_sobolev(coeffs, s):
    total = sum((1.0 + abs(k)) ** (2 * s) * abs(c) ** 2 for k, c in coeffs.items())
    return np.sqrt(total / TWO_PI)


def direct_quadratic_rhs(coeffs, kmax):
    """d/dx ( H[(H phi)_x ^2] - [H phi ; H](H phi)_xx ) by composing the
    direct routines above.  `coeffs` are the coefficients of phi."""
    ph = direct_hilbert(coeffs)            # phi_h = H[phi]
    phx = direct_derivative(ph, 1)
    phxx = direct_derivative(ph, 2)
    sq = direct_convolution(phx, phx, kmax)
    term1 = direct_hilbert(sq)
    # [v; H]f = v*H[f] - H[v*f] with v = phi_h, f = phxx
    a = direct_convolution(ph, direct_hilbert(phxx), kmax)
    b = direct_hilbert(direct_convolution(ph, phxx, kmax))
    comm = {k: a.get(k, 0) - b.get(k, 0) for k in set(a) | set(b)}
    combined = {k: term1.get(k, 0) - comm.get(k, 0) for k in set(term1) | set(comm)}
    return direct_derivative(combined, 1)


def direct_commutator_vh(cv, cf, kmax):
    """[v; H]f = v*H[f] - H[v*f] via direct convolutions."""
    a = direct_convolution(cv, direct_hilbert(cf), kmax)
    b = direct_hilbert(direct_convolution(cv, cf, kmax))
    return {k: a.get(k, 0) - b.get(k, 0) for k in set(a) | set(b)}


def kernel_commutator_hv(cv, cf, kmax):
    """hat([H; v]f)(k) = (1/2pi) sum_l Lambda(k,l) v^(k-l) f^(l) with
    Lambda(k,l) = i(sgn l - sgn k).  Note [H;v] = -[v;H]."""
    out = {}
    for k in range(-kmax, kmax + 1):
        acc = 0.0 + 0.0j
        for l, fl in cf.items():
            vk = cv.get(k - l)
            if vk is not None:
                acc += 1j * (np.sign(l) - np.sign(k)) * vk * fl
        out[k] = acc / TWO_PI
    return out


def coeffs_cos(k, amplitude=1.0):
    return {k: np.pi * amplitude + 0j, -k: np.pi * amplitude + 0j}


def coeffs_sin(k, amplitude=1.0):
    return {k: -1j * np.pi * amplitude, -k: 1j * np.pi * amplitude}


def analyze(grid, samples):
    """Fourier coefficients of nodal samples under the 2*pi/n normalization,
    as a field; the inverse of spectral.synthesize.

    Exact (to round-off) for trigonometric polynomials with bandwidth
    below n/2.  The Nyquist bin is discarded.  Real input sets `real_flag`.
    """
    samples = np.asarray(samples)
    if samples.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {samples.shape}")
    real = bool(np.isrealobj(samples))
    full = np.fft.fft(samples) * (TWO_PI / grid.n)
    half = grid.n // 2
    band = np.concatenate([full[grid.n - (half - 1):], full[:half]])
    return SpectralField(grid, band, real)


def homogeneous_norm(field, s):
    """|| f ||_s with weight |k|^{2s}; requires a zero-mean field."""
    if s < 0 or s != int(s):
        raise ValueError("homogeneous order must be a nonnegative integer")
    c0 = abs(field.coeff(0))
    scale = 1.0 + float(np.max(np.abs(field.coeffs), initial=0.0))
    if c0 > 1e-9 * scale:
        raise ValueError(f"field has nonzero mean (|c(0)| = {c0:.3e})")
    w = np.abs(field.grid.modes) ** (2 * int(s))
    return float(np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2) / TWO_PI))


def hermitian_defect(field):
    """max_k | conj(c(k)) - c(-k) |, the distance from conjugate symmetry."""
    return float(np.max(np.abs(np.conj(field.coeffs[::-1]) - field.coeffs)))


def commutator_vh(v, f, dealias=True):
    """[v; H]f = v*H[f] - H[v*f].

    The mean of the output is whatever the two dealiased products produce;
    it is generally nonzero for complex inputs and is not forced to zero.
    """
    return pointwise_product(v, hilbert(f), dealias) - hilbert(
        pointwise_product(v, f, dealias)
    )


def evolution_residual(traj, mu, index, dealias=True):
    """phi_tt - mu phi_xx - N(phi) at an interior mesh index, as a field.

    phi_tt is the centered second difference of the stored phi snapshots,
    so the residual of an exact solution is O(dt^2).
    """
    if not 1 <= index <= len(traj) - 2:
        raise ValueError(f"index {index} is not interior")
    phi = traj.phi[index]
    r = traj.second_difference()[index - 1] - mu * derivative(phi, 2) - quadratic_rhs(phi, dealias)
    return SpectralField(traj.grid, r, True)


def random_trig_field_scalar(grid, kmax, rng, decay=2.0, amplitude=1.0):
    """The campaign ensemble drawn mode by mode with scalar calls, in
    complex scalar arithmetic: the reference for the package's one-draw
    random_trig_field, which must match it bitwise."""
    pairs = {}
    for k in range(1, kmax + 1):
        a = rng.standard_normal()
        b = rng.standard_normal()
        c = np.pi * amplitude * (a - 1j * b) / (1.0 + k) ** decay
        pairs[k] = c
        pairs[-k] = np.conj(c)
    return from_modes(grid, pairs, real_flag=True)


def chi_parts_scalar(t, r):
    """The lifting's bump (chi, chi', chi'') at one time t in scalar float
    arithmetic, term by term: the reference for the package's array-valued
    bump, which matches it to round-off."""
    def b(x, order):
        if x <= 0.0:
            return 0.0
        e = np.exp(-1.0 / x)
        return (e, e / x**2, e * (1.0 - 2.0 * x) / x**4)[order]

    a = abs(t)
    if a <= r:
        return 1.0, 0.0, 0.0
    if a >= 2.0 * r:
        return 0.0, 0.0, 0.0
    s = (a - r) / r
    sg = 1.0 if t > 0 else -1.0
    g, h = b(1.0 - s, 0), b(s, 0)
    gp, hp = -b(1.0 - s, 1), b(s, 1)
    gpp, hpp = b(1.0 - s, 2), b(s, 2)
    d = g + h
    num = gp * h - g * hp
    psipp = ((gpp * h - g * hpp) * d - 2.0 * num * (gp + hp)) / d**3
    return g / d, num / d**2 * sg / r, psipp / r**2


def quadratic_rhs_alt(phi, dealias=True):
    """N(phi) in the rearranged form d/dx( H[p^2]_xx / 2 + p * phi_xx ),
    p = H[phi].

    Algebraically identical to the package's quadratic_rhs, but evaluated
    by a different route: other products, each through its own transforms.
    With dealiasing, or without it for bandwidth at most n/4, the two agree
    to round-off.
    """
    p = hilbert(phi)
    half_sq = 0.5 * derivative(hilbert(pointwise_product(p, p, dealias)), 2)
    return derivative(half_sq + pointwise_product(p, derivative(phi, 2), dealias))


def linearized_parts(phi0, phiP, mu, dealias=True):
    """Coefficient and lower-order pieces of the linearization at phi0.

    Returns (c2, lower) with c2 the variable coefficient mu - 2 p0_x as a
    field and `lower` the remaining terms applied to phiP,

        2 [H; p0_x] pP_xx + 2 H[p0_xx pP_x] - d/dx( [pP; H]p0_xx + [p0; H]pP_xx ),

    so that the linearized equation reads phi'_tt = c2 phi'_xx + lower + g.
    A different grouping of the terms than the package's fused kernel, each
    product through its own transforms.
    """
    grid = phi0.grid
    p0 = hilbert(phi0)
    p0x = derivative(p0)
    p0xx = derivative(p0, 2)
    pP = hilbert(phiP)
    pPx = derivative(pP)
    pPxx = derivative(pP, 2)
    c2 = from_modes(grid, {0: TWO_PI * mu}, real_flag=True) - 2.0 * p0x
    lower = (
        -2.0 * commutator_vh(p0x, pPxx, dealias)
        + 2.0 * hilbert(pointwise_product(p0xx, pPx, dealias))
        - derivative(commutator_vh(pP, p0xx, dealias) + commutator_vh(p0, pPxx, dealias))
    )
    return c2, lower


def apply_linearized_alt(phi0, phiP, mu, dealias=True):
    """mu phiP_xx + dN[phi0]phiP assembled as c2 * phiP_xx + lower, the
    oracle for the package's apply_linearized_operator."""
    c2, lower = linearized_parts(phi0, phiP, mu, dealias)
    return pointwise_product(c2, derivative(phiP, 2), dealias) + lower


def projected_rk4(phi, phit, accel, cutoff, dt, steps):
    """Classical RK4 for phi_tt = accel(t, phi) on the Galerkin space
    1 <= |k| <= cutoff, written out stage by stage: every stage's input
    and every stage's acceleration are projected, not only the nodes.

    `phi`, `phit` are real fields; `accel(t, phi_field)` returns a field.
    Returns the final (phi, phit) coefficient arrays.
    """
    grid = phi.grid
    k = np.abs(grid.modes)
    mask = ((k >= 1) & (k <= cutoff)).astype(float)

    def a(t, c):
        return mask * accel(t, SpectralField(grid, mask * c, True)).coeffs

    x, v = mask * phi.coeffs, mask * phit.coeffs
    for i in range(steps):
        t = i * dt
        a1 = a(t, x)
        a2 = a(t + dt / 2, x + dt / 2 * v)
        v2 = v + dt / 2 * a1
        a3 = a(t + dt / 2, x + dt / 2 * v2)
        v3 = v + dt / 2 * a2
        a4 = a(t + dt, x + dt * v3)
        v4 = v + dt * a3
        x = x + dt / 6 * (v + 2 * v2 + 2 * v3 + v4)
        v = v + dt / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
    return x, v
