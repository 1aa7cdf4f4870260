"""Slow, independent reference computations used to pin expected values.

Most of what is here works on plain dictionaries {k: coefficient} and
deliberately avoids the package's FFT paths: coefficients come from O(n^2)
quadrature sums, products from the literal convolution formula, and the
quadratic right-hand side from composing those pieces.  Tests freeze values
produced by these routines (or closed forms derived by hand) and hold the
package against them.

The last routines run at production sizes instead.  They are built from
the package's spectral primitives (one 3/2-padded product at a time) but not
from its fused N(phi) and linearized kernels, its time stepper, its batched
random draws or its array-valued bump window, so those can be held against
them.
The one exception, evolution_residual, measures a trajectory against the
package's own mu phi_xx + N(phi).
The padded_* routines are the fused kernels as they were when they padded
to the 3n/2 points of the grid whatever band they kept, for the
band-padded kernels of the package.
hilbert_identities_per_sample is the identity battery as it was when it
drew and checked one sample at a time, for the batched battery.
The direct_*_sides routines evaluate the four deterministic estimate
verifiers (energy, tame, phitt, second derivative) from their formulas:
direct_sobolev at each node, an explicit e^{-2 gamma t} trapezoid, and g
or L''(phi, psi) rebuilt node by node from apply_linearized_alt, on each
horizon anew, for the verifiers that take each per-node norm once.
LEMMA_ORACLES holds the commutator campaign's nine evaluators as they were
when each composed its own products by pointwise_product, (v, f, param) ->
(lhs, rhs), for the campaign's shared per-grid products.

The masked_* routines at the end are the solvers as they were when they
stepped the whole (n-1) band: every stage masked to the Galerkin space
and evaluated by the public, checked operators, stepped by pair_rkn_step on
(phi, phi_t) pairs and monitored node by node.  They share only those
operators with the package, so the solvers' k = 1..N block stepping can be
held against them bitwise.  node_march is the solvers' stepping loop as it
was when it judged one node at a time and allocated every stage, on the
solvers' float rows, for synthetic accelerations and monitors and for the
unfused kernels of the public operators.
"""

import math

import numpy as np

from amp_sheet.analysis import random_trig_field
from amp_sheet.operators import (
    Trajectory,
    apply_linearized_operator,
    nonlinear_operator,
    require_margin,
    stability_coefficient,
)
from amp_sheet.solver import BLOW_UP_THRESHOLD, CflError, field_evaluator
from amp_sheet.spectral import (
    SpectralField,
    TorusGrid,
    _band,
    _padded_size,
    derivative,
    from_modes,
    hilbert,
    inner_product,
    linf_norm,
    pointwise_product,
    sobolev_norm,
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


def commutator_vh(v, f):
    """[v; H]f = v*H[f] - H[v*f].

    The mean of the output is whatever the two dealiased products produce;
    it is generally nonzero for complex inputs and is not forced to zero.
    """
    return pointwise_product(v, hilbert(f)) - hilbert(pointwise_product(v, f))


def evolution_residual(traj, mu, index):
    """phi_tt - mu phi_xx - N(phi) at an interior mesh index, as a field.

    phi_tt is the centered second difference of the stored phi snapshots,
    so the residual of an exact solution is O(dt^2).
    """
    if not 1 <= index <= len(traj) - 2:
        raise ValueError(f"index {index} is not interior")
    phi = traj.phi[index]
    r = traj.second_difference()[index - 1] - nonlinear_operator(phi, mu)
    return SpectralField(traj.grid, r, True)


def hilbert_identities_per_sample(samples, grid_n, seed):
    """{identity: max defect} of analysis.verify_hilbert_identities, one
    sample of fields (f, g, h) and mean shift at a time, each identity
    checked on that sample's fields, inner products taken by Python's abs."""
    grid = TorusGrid(grid_n)
    kmax = grid_n // 6
    rng = np.random.default_rng(seed)
    defects = dict.fromkeys(
        ("derivative_commutation", "product_identity", "involution", "skew_adjoint",
         "commutator_self_adjoint", "mean_correction", "exponential_symbol"), 0.0)

    def upd(key, val):
        defects[key] = max(defects[key], float(val))

    for _ in range(samples):
        f = random_trig_field(grid, kmax, rng)
        g = random_trig_field(grid, kmax, rng)
        h = random_trig_field(grid, kmax, rng)
        upd("derivative_commutation",
            np.max(np.abs(hilbert(derivative(f)).coeffs - derivative(hilbert(f)).coeffs)))
        lhsp = hilbert(pointwise_product(f, g) - pointwise_product(hilbert(f), hilbert(g)))
        rhsp = pointwise_product(f, hilbert(g)) + pointwise_product(hilbert(f), g)
        upd("product_identity", np.max(np.abs(lhsp.coeffs - rhsp.coeffs)))
        upd("involution", np.max(np.abs(hilbert(hilbert(f)).coeffs + f.coeffs)))
        upd("skew_adjoint", abs(inner_product(hilbert(f), g) + inner_product(f, hilbert(g))))
        comm_f = pointwise_product(h, hilbert(f)) - hilbert(pointwise_product(h, f))
        comm_g = pointwise_product(h, hilbert(g)) - hilbert(pointwise_product(h, g))
        upd("commutator_self_adjoint", abs(inner_product(comm_f, g) - inner_product(f, comm_g)))
        shift = rng.standard_normal()
        shifted = f + from_modes(grid, {0: 2.0 * np.pi * shift}, real_flag=True)
        mean_field = from_modes(grid, {0: shifted.coeff(0)}, real_flag=True)
        corr = hilbert(hilbert(shifted)) + shifted - mean_field
        upd("mean_correction", np.max(np.abs(corr.coeffs)))
    for k in range(-5, 6):
        e_k = from_modes(grid, {k: 1.0})
        want = from_modes(grid, {k: -1j * np.sign(k)})
        upd("exponential_symbol", np.max(np.abs(hilbert(e_k).coeffs - want.coeffs)))
    return defects


def hilbert_commutator(v, f):
    """[H; v]f = H[vf] - v H[f]."""
    return hilbert(pointwise_product(v, f)) - pointwise_product(v, hilbert(f))


def derivative_commutator(k, v, f):
    """[d^k; v]f = d^k(vf) - v d^k f."""
    return derivative(pointwise_product(v, f), k) - pointwise_product(v, derivative(f, k))


def lemma_comm1(v, f, s):
    lhs = sobolev_norm(hilbert_commutator(v, f), 0)
    return lhs, sobolev_norm(v, s) * sobolev_norm(f, 0)


def lemma_comm2(v, f, s):
    lhs = sobolev_norm(hilbert_commutator(v, derivative(f)), 0)
    return lhs, sobolev_norm(derivative(v), s) * sobolev_norm(f, 0)


def lemma_comm3(v, f, s):
    fx = derivative(f)
    inner = hilbert_commutator(v, fx)
    outer = hilbert(inner) - hilbert_commutator(v, hilbert(fx))
    lhs = sobolev_norm(derivative(outer), 0)
    return lhs, sobolev_norm(derivative(v, 2), s) * sobolev_norm(f, 0)


def lemma_a2(v, f, m):
    lhs = sobolev_norm(hilbert_commutator(v, f), m)
    return lhs, sobolev_norm(derivative(v, m), 0) * sobolev_norm(f, 1)


def lemma_a3(v, f, mp):
    m, p = mp
    lhs = sobolev_norm(hilbert_commutator(v, derivative(f, p)), m)
    return lhs, sobolev_norm(derivative(v, m + p), 0) * sobolev_norm(f, 1)


def lemma_prod4(v, f, m):
    lhs = sobolev_norm(pointwise_product(v, f), m)
    return lhs, linf_norm(v) * sobolev_norm(f, m) + sobolev_norm(v, m) * linf_norm(f)


def lemma_comm4(v, f, mk):
    _, k = mk
    lhs = sobolev_norm(derivative_commutator(k, v, f), 0)
    return lhs, linf_norm(v) * sobolev_norm(f, k) + sobolev_norm(v, k) * linf_norm(f)


def lemma_comm5(v, f, mk):
    _, k = mk
    lhs = sobolev_norm(derivative_commutator(k, v, f), 0)
    rhs = linf_norm(derivative(v)) * sobolev_norm(f, k - 1) + sobolev_norm(v, k) * linf_norm(f)
    return lhs, rhs


def lemma_a5(v, f, m):
    fxx = derivative(f, 2)
    lhs_field = hilbert(derivative_commutator(m, v, fxx)) - derivative_commutator(
        m, v, hilbert(fxx))
    lhs = sobolev_norm(lhs_field, 0)
    return lhs, sobolev_norm(derivative(v), m) * sobolev_norm(derivative(f), 1)


LEMMA_ORACLES = {
    "A1_comm_1": lemma_comm1,
    "A1_comm_2": lemma_comm2,
    "A1_comm_3": lemma_comm3,
    "A2": lemma_a2,
    "A3": lemma_a3,
    "A4_prod": lemma_prod4,
    "A4_comm_4": lemma_comm4,
    "A4_comm_5": lemma_comm5,
    "A5": lemma_a5,
}


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


def quadratic_rhs_alt(phi):
    """N(phi) in the rearranged form d/dx( H[p^2]_xx / 2 + p * phi_xx ),
    p = H[phi].

    Algebraically identical to the package's quadratic_rhs, but evaluated
    by a different route: other products, each through its own transforms.
    The two agree to round-off.
    """
    p = hilbert(phi)
    half_sq = 0.5 * derivative(hilbert(pointwise_product(p, p)), 2)
    return derivative(half_sq + pointwise_product(p, derivative(phi, 2)))


def linearized_parts(phi0, phiP, mu):
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
        -2.0 * commutator_vh(p0x, pPxx)
        + 2.0 * hilbert(pointwise_product(p0xx, pPx))
        - derivative(commutator_vh(pP, p0xx) + commutator_vh(p0, pPxx))
    )
    return c2, lower


def apply_linearized_alt(phi0, phiP, mu):
    """mu phiP_xx + dN[phi0]phiP assembled as c2 * phiP_xx + lower, the
    oracle for the package's apply_linearized_operator."""
    c2, lower = linearized_parts(phi0, phiP, mu)
    return pointwise_product(c2, derivative(phiP, 2)) + lower


def direct_norms(rows, s):
    """direct_sobolev of each (n-1) coefficient row, k = -(n/2-1)..n/2-1."""
    half = (len(rows[0]) + 1) // 2
    return [direct_sobolev(dict(zip(range(1 - half, half), row)), s) for row in rows]


def direct_weighted_l2(times, rows, gamma, s):
    """|| e^{-gamma t} f ||_{L2_t H^s_x}: direct_sobolev at each node and an
    explicit trapezoid of e^{-2 gamma t} ||f(t)||^2, node pair by pair."""
    vals = [math.exp(-2.0 * gamma * t) * x**2 for t, x in zip(times, direct_norms(rows, s))]
    return math.sqrt(sum(0.5 * (t1 - t0) * (v0 + v1)
                         for t0, t1, v0, v1 in zip(times, times[1:], vals, vals[1:])))


def direct_sup(rows, s):
    """max over the nodes of direct_sobolev."""
    return max(direct_norms(rows, s))


def _fields(grid, rows):
    return [SpectralField(grid, row, True) for row in rows]


def direct_energy_sides(phi0, traj, mu, delta, gamma):
    """(lhs, rhs) of analysis.verify_energy_estimates at one gamma, with g
    rebuilt node by node from apply_linearized_alt at a frozen base phi0."""
    grid = traj.grid
    inner = traj.times[1:-1]
    phi = _fields(grid, traj.phi[1:-1])
    g = [d - apply_linearized_alt(phi0, f, mu).coeffs
         for d, f in zip(traj.second_difference(), phi)]
    lhs = gamma * (direct_weighted_l2(inner, traj.phit[1:-1], gamma, 0) ** 2
                   + direct_weighted_l2(inner, [derivative(f).coeffs for f in phi], gamma, 0) ** 2)
    return lhs, (2.0 / min(1.0, delta)) / gamma * direct_weighted_l2(inner, g, gamma, 0) ** 2


def direct_tame_sides(phi0, g_rows, traj, gamma, m):
    """(lhs, rhs) of analysis.verify_tame_estimates at one m, for the
    linearized solution `traj` around the frozen base phi0 with forcing
    rows `g_rows` on its mesh."""
    t = traj.times
    phix = [derivative(f).coeffs for f in _fields(traj.grid, traj.phi)]
    lhs = gamma * (direct_weighted_l2(t, traj.phit, gamma, m) ** 2
                   + direct_weighted_l2(t, phix, gamma, m) ** 2)
    rhs = (direct_sup([derivative(phi0).coeffs], m + 2) ** 2
           * direct_weighted_l2(t, g_rows, gamma, 2) ** 2
           + direct_weighted_l2(t, g_rows, gamma, m) ** 2) / gamma
    return lhs, rhs


def direct_phitt_sides(phi0, traj, g_rows, gamma, m):
    """(lhs, rhs) of analysis.verify_phitt_estimate at a frozen base phi0
    with forcing rows `g_rows` on the mesh of `traj`."""
    t = traj.times
    phix = [derivative(f).coeffs for f in _fields(traj.grid, traj.phi)]
    lhs = direct_weighted_l2(t, traj.phit_derivative(), gamma, m - 1)
    rhs = (direct_weighted_l2(t, phix, gamma, m) * (1.0 + direct_sup([phi0.coeffs], 3))
           + direct_sup([derivative(phi0).coeffs], m) * direct_weighted_l2(t, phix, gamma, 2)
           + direct_weighted_l2(t, g_rows, gamma, m - 1))
    return lhs, rhs


def direct_second_derivative_sides(phi_series, psi_series, gamma, m, stop=None):
    """(lhs, rhs) of analysis.verify_second_derivative_estimate on the
    first `stop` nodes (all for None), L''(phi, psi) = -dN[phi]psi from
    apply_linearized_alt node by node on those nodes alone."""
    t = phi_series.times[:stop]
    phi = _fields(phi_series.grid, phi_series.phi[:stop])
    psi = _fields(psi_series.grid, psi_series.phi[:stop])
    d2 = [-apply_linearized_alt(a, b, 0.0).coeffs for a, b in zip(phi, psi)]
    phix, psix = ([derivative(f).coeffs for f in x] for x in (phi, psi))
    lhs = direct_weighted_l2(t, d2, gamma, m)
    rhs = (direct_weighted_l2(t, phix, gamma, m + 1) * direct_sup(psix, 2)
           + direct_weighted_l2(t, psix, gamma, m + 1) * direct_sup(phix, 2))
    return lhs, rhs


def padded_synthesis(x, n):
    """(p, p_x, p_xx, H p_xx), p = H phi, shape (..., 4, m), on the
    3/2-padded grid of an n-point grid for the fields phi with the float rows
    `x` (k = 1..K, any K <= n/2-1): one batched inverse real FFT of the half
    spectra, which zero-pads k > K itself."""
    m = _padded_size(n)
    h = np.ascontiguousarray(x).view(complex)
    k = np.arange(1, h.shape[-1] + 1, dtype=float)
    up = np.array([-1j * np.ones_like(k), k, 1j * k**2, k**2]) * (m / TWO_PI)
    spec = np.zeros(h.shape[:-1] + (4, h.shape[-1] + 1), complex)
    spec[..., 1:] = h[..., None, :] * up
    return np.moveaxis(np.fft.irfft(spec, m), -2, 0)


def padded_analysis(a, b, K):
    """The float rows, k = 1..K, of d/dx(H[a] - b) from the values of a and
    b on a padded grid: one real FFT of each, then k (a^(k) - i b^(k))."""
    m = a.shape[-1]
    k = np.arange(1, K + 1) * (TWO_PI / m)
    fa, fb = (np.fft.rfft(v)[..., 1:K + 1] for v in (a, b))
    return (k * (fa - 1j * fb)).view(float)


def padded_nonlinear_rows(x, mu, n):
    """mu phi_xx + N(phi) on the float rows `x` of k = 1..K, the package's
    fused kernel as it was when it padded every kernel to the 3n/2 points of
    the grid, whatever its band: a = p_x^2 + p p_xx and b = p H p_xx."""
    K = x.shape[-1] // 2
    p, px, pxx, hpxx = padded_synthesis(x, n)
    lap = np.repeat(-np.arange(1.0, K + 1) ** 2, 2)
    return mu * lap * x + padded_analysis(px * px + p * pxx, p * hpxx, K)


def padded_linearized_rows(x0, x, mu, n):
    """mu phi_xx + dN[phi0]phi on the float rows `x` of k = 1..K, for the
    base with the float rows `x0` of its whole band k < n/2, the linearized
    kernel as it was when it padded to 3n/2 points:
    a = 2 p0_x p_x + p0 p_xx + p p0_xx and b = p0 H p_xx + p H p0_xx."""
    K = x.shape[-1] // 2
    p0, p0x, p0xx, hp0xx = padded_synthesis(x0, n)
    p, px, pxx, hpxx = padded_synthesis(x, n)
    lap = np.repeat(-np.arange(1.0, K + 1) ** 2, 2)
    a = 2.0 * p0x * px + p0 * pxx + p * p0xx
    return mu * lap * x + padded_analysis(a, p0 * hpxx + p * hp0xx, K)


def projected_rkn(phi, phit, accel, cutoff, dt, steps):
    """Nystrom's 3-stage fourth-order scheme for phi_tt = accel(t, phi) on
    the Galerkin space 1 <= |k| <= cutoff, written out stage by stage:
    every stage's input and every stage's acceleration are projected, not
    only the nodes.

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
        a2 = a(t + dt / 2, x + dt / 2 * v + dt**2 / 8 * a1)
        a3 = a(t + dt, x + dt * v + dt**2 / 2 * a2)
        x = x + dt * v + dt**2 / 6 * (a1 + 2 * a2)
        v = v + dt / 6 * (a1 + 4 * a2 + a3)
    return x, v


def galerkin_mask(n, cutoff):
    """The projection onto the zero-mean modes 1 <= |k| <= cutoff, as a 0/1
    mask over the (n-1) band."""
    k = np.abs(TorusGrid(n).modes)
    return ((k >= 1) & (k <= cutoff)).astype(float)


def masked_accel_nonlinear(phi_hat, cfg):
    """P[mu phi_xx + N(P phi)] on (n-1) bands."""
    mask = galerkin_mask(cfg.grid_n, cfg.galerkin_N)
    return mask * nonlinear_operator(mask * phi_hat, cfg.mu)


def masked_accel_linearized(phi_hat, base_row, g_row, cfg):
    """The linearization at the (n-1) base row with forcing row g, masked
    like masked_accel_nonlinear."""
    mask = galerkin_mask(cfg.grid_n, cfg.galerkin_N)
    out = apply_linearized_operator(base_row, mask * phi_hat, cfg.mu)
    return mask * (out + g_row)


def pair_rkn_step(t, dt, state, accel, a1=None):
    """One step of Nystrom's 3-stage fourth-order scheme for
    phi_tt = accel(t, phi) on a pair (phi, phi_t) of coefficient arrays,
    with stages at t, t + dt/2 and t + dt; returns the new pair.  `a1` may
    pass in a precomputed accel(t, phi).  Written out stage by stage, in
    the operand order of solver.rkn_step, so the two agree bitwise:

        a2 = accel(t + dt/2, phi + (dt/2) phi_t + (dt^2/8) a1)
        a3 = accel(t + dt, phi + dt phi_t + (dt^2/2) a2)
        phi   <- phi + dt phi_t + (dt^2/6) (a1 + 2 a2)
        phi_t <- phi_t + (dt/6) (a1 + 4 a2 + a3)
    """
    phi, phit = state
    h, dt2 = 0.5 * dt, dt * dt
    if a1 is None:
        a1 = accel(t, phi)
    a2 = accel(t + h, phi + h * phit + dt2 / 8.0 * a1)
    a3 = accel(t + dt, phi + dt * phit + 0.5 * dt2 * a2)
    return (phi + dt * phit + dt2 / 6.0 * (a1 + 2.0 * a2),
            phit + dt / 6.0 * (a1 + 4.0 * a2 + a3))


def node_march(cfg, accel, state, stability_values, abort_on_stability):
    """The solvers' stepping loop judging one node at a time: the monitor
    `stability_values(i, phi)` and the blow-up, delta/2 and CFL checks run
    at node i before the step from it.  `state` is a (phi, phi_t) pair of
    (2N,) rows of interleaved (Re, Im) floats and `accel(s, phi)` returns
    the acceleration at index s of the stage mesh k dt/2 (the solvers' maps
    write it into a row they are given instead), stepped by pair_rkn_step;
    returns (Trajectory, monitor) like the solvers."""
    m = cfg.num_steps()
    half = 0.5 * cfg.dt
    times = np.arange(m + 1) * cfg.dt
    flags = []
    if cfg.mu <= 0:
        flags.append({"type": "elliptic_regime", "time": 0.0})

    def accel_at(t, phi):
        return accel(round(t / half), phi)

    rows = np.empty((3, m + 1, 2 * cfg.galerkin_N))
    stab = []
    kept = 0
    for i, t in enumerate(times):
        t = float(t)
        phi, phit = state
        vals = stability_values(i, phi)
        mn = float(vals.min())
        a1 = accel_at(t, phi)
        rows[:, i] = phi, phit, a1
        stab.append(mn)
        kept = i + 1
        # the modulus of each complex coefficient
        amp = np.abs(rows[:2, i].view(complex)).max()
        if not np.isfinite(amp) or amp > BLOW_UP_THRESHOLD:
            flags.append({"type": "blow_up", "time": t})
            break
        if abort_on_stability and mn < 0.5 * cfg.delta:
            flags.append({"type": "stability_below_half_delta", "time": t})
            break
        if i == m:
            break
        # the limit written out with scalar math, not SimConfig.cfl_limit
        limit = cfg.cfl_safety / (cfg.galerkin_N * math.sqrt(max(1.0, float(vals.max()))))
        if cfg.dt > limit * (1.0 + 1e-12):
            raise CflError(
                f"dt = {cfg.dt:.6g} exceeds the CFL limit {limit:.6g} "
                f"at t = {t:.6g} (N = {cfg.galerkin_N})"
            )
        state = pair_rkn_step(t, cfg.dt, state, accel_at, a1)
    traj = Trajectory(times[:kept], *_band(rows[:, :kept].view(complex), cfg.grid_n))
    return traj, {"min_stability_coeff": np.array(stab), "flags": flags}


def masked_march(cfg, accel, phi, phit, stability_source, abort_on_stability):
    """The stepping loop on (n-1) bands for phi_tt = accel(t, phi); returns
    (Trajectory, monitor) like the package's solvers."""
    n = cfg.grid_n
    mask = galerkin_mask(n, cfg.galerkin_N)
    m = cfg.num_steps()
    times = np.arange(m + 1) * cfg.dt
    state = (mask * np.asarray(phi, complex), mask * np.asarray(phit, complex))
    flags = []
    if cfg.mu <= 0:
        flags.append({"type": "elliptic_regime", "time": 0.0})
    rows = np.empty((3, m + 1, n - 1), complex)
    stab = []
    kept = 0
    for i, t in enumerate(times):
        t = float(t)
        phi, phit = state
        vals, mn = stability_coefficient(stability_source(t, phi), cfg.mu)
        a1 = accel(t, phi)
        rows[:, i] = phi, phit, a1
        stab.append(mn)
        kept = i + 1
        amp = max(np.max(np.abs(phi)), np.max(np.abs(phit)))
        if not np.isfinite(amp) or amp > BLOW_UP_THRESHOLD:
            flags.append({"type": "blow_up", "time": t})
            break
        if abort_on_stability and mn < 0.5 * cfg.delta:
            flags.append({"type": "stability_below_half_delta", "time": t})
            break
        if i == m:
            break
        limit = cfg.cfl_limit(float(np.max(vals)))
        if cfg.dt > limit * (1.0 + 1e-12):
            raise CflError(f"dt = {cfg.dt:.6g} exceeds the CFL limit {limit:.6g}")
        state = pair_rkn_step(t, cfg.dt, state, accel, a1)
    traj = Trajectory(times[:kept], *rows[:, :kept])
    return traj, {"min_stability_coeff": np.array(stab), "flags": flags}


def masked_solve_nonlinear(cfg, data):
    """solve_nonlinear on (n-1) bands, masked at every stage."""
    require_margin(data.phi0, cfg.mu, cfg.delta, "initial data")
    return masked_march(cfg, lambda t, phi: masked_accel_nonlinear(phi, cfg),
                        data.phi0.coeffs, data.phi1.coeffs, lambda t, phi: phi,
                        abort_on_stability=True)


def masked_solve_linearized(cfg, base=None, forcing=None, initial_state=None):
    """solve_linearized on (n-1) bands: the base and forcing rows are read
    per stage, the base checked by the public linearized operator."""
    grid = TorusGrid(cfg.grid_n)
    half = 0.5 * cfg.dt
    stage_times = cfg.stage_times()
    base_rows = field_evaluator(base, grid)(stage_times)
    g_rows = field_evaluator(forcing, grid)(stage_times)
    if initial_state is None:
        phi0 = phi1 = np.zeros(grid.n - 1, complex)
    else:
        phi0, phi1 = initial_state.phi0.coeffs, initial_state.phi1.coeffs

    def accel(t, phi):
        i = round(t / half)
        return masked_accel_linearized(phi, base_rows[i], g_rows[i], cfg)

    return masked_march(cfg, accel, phi0, phi1, lambda t, phi: base_rows[round(t / half)],
                        abort_on_stability=False)
