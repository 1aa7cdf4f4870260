"""Weighted-in-time norms and numerical verification of the estimates.

Everything the well-posedness argument rests on is checked here
numerically: the exponentially weighted L2 norms and the solution/forcing
norms built from them, the basic Hilbert transform identities (hard
assertions at 1e-11), the energy and tame a priori estimates for the
linearized equation, the bound on the second derivative of the evolution
operator, the nine commutator/product inequalities, the kernel structure
of the Hilbert commutator, and the smallness of the compatibility forcing
generated by the lifting.

Identities are equalities and are verified to near machine precision.
Estimates only assert the *existence* of constants, so each estimate
verifier reports the empirical ratio (the observed constant) together
with its stability under grid refinement; hard pass/fail criteria live
with the callers.  Only the energy estimate's C0 = 2/min{1, delta} has an
explicit value to compare against.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from .operators import (
    Trajectory,
    apply_linearized_operator,
    build_lifting,
    lifting_forcing,
    second_derivative,
    stability_coefficient,
)
from .spectral import (
    SpectralField,
    TorusGrid,
    _mirror,
    derivative,
    from_modes,
    hilbert,
    inner_product,
    linf_norm,
    pointwise_product,
    regrid,
    sobolev_norm,
)
from .solver import field_evaluator, solve_linearized

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

IDENTITY_TOL = 1e-11

#: time nodes per linearized-kernel call in apply_linearized; bounds the
#: kernel's temporaries on long trajectories
_NODE_BLOCK = 64

#: campaign samples per batched lemma call; bounds the batch's temporaries.
#: The blocks depend on the sample count alone, never on `jobs`.
_SAMPLE_BLOCK = 8


@dataclass(frozen=True)
class WeightedNormSpec:
    """Weight and time window for the exponentially weighted norms.

    gamma >= 1 is the standing assumption of the whole theory; horizon,
    when given, is (t_min, T) with t_min <= 0 and every evaluation mesh
    must lie inside it.
    """

    gamma: float
    horizon: tuple | None = None

    def __post_init__(self):
        if self.gamma < 1.0:
            raise ValueError("gamma must be at least 1")
        if self.horizon is not None:
            t_min, t_max = self.horizon
            if t_min > 0 or t_max <= t_min:
                raise ValueError("horizon must be (t_min <= 0, T > t_min)")


@dataclass
class EstimateReport:
    """Outcome of one estimate verification.

    ratio is lhs/rhs when rhs > 0 (0 when both vanish); for campaign-style
    reports it carries the empirical constant instead, as noted in params.
    """

    estimate_id: str
    lhs: float
    rhs: float
    ratio: float
    params: dict
    samples: int
    seed: int
    passed: bool
    extras: dict = dataclass_field(default_factory=dict)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, default=float)


def _ratio(lhs, rhs):
    """lhs/rhs where rhs > 0, else 0 where lhs vanishes and inf otherwise;
    elementwise over arrays, a float for scalars."""
    lhs, rhs = np.asarray(lhs, float), np.asarray(rhs, float)
    out = np.where(lhs == 0, 0.0, np.inf)
    np.divide(lhs, rhs, out=out, where=rhs > 0)
    return float(out) if out.ndim == 0 else out


def _check_zero_trace(times, stacks, tol=1e-12):
    """Domain check for the zero-trace spaces: samples at t < 0 must vanish.

    `stacks` are (T, n-1) coefficient arrays on the mesh `times`."""
    peaks = [np.max(np.abs(c), axis=-1) for c in stacks]
    bound = tol * max(1.0, *(float(np.max(p)) for p in peaks))
    for peak in peaks:
        bad = (times < 0) & (peak > bound)
        if bad.any():
            raise ValueError(f"nonzero trace at t = {times[np.argmax(bad)]:.6g} < 0")


def _weighted_l2(times, coeffs, spec, m):
    """weighted_l2_norm of the (T, n-1) coefficient rows on the mesh `times`."""
    if spec.horizon is not None:
        t_min, t_max = spec.horizon
        if times[0] < t_min - 1e-9 or times[-1] > t_max + 1e-9:
            raise ValueError("evaluation mesh lies outside the horizon")
    if len(times) == 1:
        return 0.0
    vals = np.exp(-2.0 * spec.gamma * times) * sobolev_norm(coeffs, m) ** 2
    return float(np.sqrt(_trapezoid(vals, times)))


def weighted_l2_norm(series, spec, m):
    """|| e^{-gamma t} f(t) ||_{L2_t H^m_x} by trapezoid quadrature, f the
    phi part of a Trajectory."""
    return _weighted_l2(series.times, series.phi, spec, m)


def _sup_sobolev(coeffs, m):
    return float(np.max(sobolev_norm(coeffs, m)))


def sup_sobolev_norm(series, m):
    """max over the mesh of the H^m norm (the L-infinity-in-time norm)."""
    return _sup_sobolev(series.phi, m)


def xm_norm(traj, spec, m):
    """Solution-space norm of a zero-trace trajectory.

    ||phi||^2 = ||phi_x||^2_{L2_gamma H^{m+1}} + ||phi_t||^2_{L2_gamma H^{m+1}}
    + ||phi_tt||^2_{L2_gamma H^m}, with phi_tt obtained by centered
    differencing of the stored phi_t snapshots.  Returns the three pieces
    and the combined value.
    """
    times = traj.times
    _check_zero_trace(times, [traj.phi, traj.phit])
    px = _weighted_l2(times, derivative(traj.phi), spec, m + 1)
    pt = _weighted_l2(times, traj.phit, spec, m + 1)
    ptt = _weighted_l2(times, traj.phit_derivative(), spec, m)
    return {
        "phix": px,
        "phit": pt,
        "phitt": ptt,
        "total": float(np.sqrt(px**2 + pt**2 + ptt**2)),
    }


def ym_norm(series, spec, m):
    """Forcing-space norm: the weighted L2 H^m norm of a zero-trace series."""
    _check_zero_trace(series.times, [series.phi])
    return _weighted_l2(series.times, series.phi, spec, m)


# ---------------------------------------------------------------------------
# random ensemble


def random_trig_field(grid, kmax, rng, decay=2.0, amplitude=1.0):
    """Real zero-mean trig polynomial with Gaussian coefficients decaying
    like (1+|k|)^-decay; the campaign ensemble.  One draw of 2*kmax normals
    (a_1, b_1, a_2, ...) gives c(k) = pi*amplitude*(a_k - i b_k)/(1+k)^decay,
    rounded as complex scalar arithmetic rounds it: Python's float power,
    real and imaginary parts divided separately (numpy's power and complex
    division differ in the last bit)."""
    half = grid.n // 2
    if kmax > half - 1:
        raise ValueError(f"mode {kmax} outside retained band")
    a, b = rng.standard_normal(2 * kmax).reshape(kmax, 2).T
    weight = ((1.0 + np.arange(1, kmax + 1)).astype(object) ** decay).astype(float)
    scale = np.pi * amplitude
    c = np.zeros(grid.n - 1, complex)
    c[half:half + kmax].real = scale * a / weight
    c[half:half + kmax].imag = scale * -b / weight
    c[half - 1 - kmax:half + kmax] = _mirror(c[half - 1:half + kmax])
    return SpectralField(grid, c, True)


# ---------------------------------------------------------------------------
# the assembled linearized operator on trajectories


def apply_linearized(phi0, traj, mu, dealias=True):
    """Reconstruct g = L'[phi0] phi' on the interior mesh nodes.

    phi'_tt comes from the centered second difference of the phi
    snapshots, the spatial part from the fused linearized kernel, applied
    to _NODE_BLOCK interior nodes per call, so the reconstruction error is
    O(dt^2) plus truncation.
    """
    phitt = traj.second_difference()
    phi, times = traj.phi[1:-1], traj.times[1:-1]
    base_at = field_evaluator(phi0, traj.grid)
    g = np.empty_like(phitt)
    for s in range(0, len(g), _NODE_BLOCK):
        sel = slice(s, s + _NODE_BLOCK)
        base = base_at(times[sel])
        g[sel] = phitt[sel] - apply_linearized_operator(base, phi[sel], mu, dealias)
    return Trajectory(times, g)


def _check_base_stability(base, mu, delta, threshold_factor=0.5):
    """Minimum of the stability coefficient over the (T, n-1) base rows;
    raises if it falls below threshold_factor * delta."""
    _, worst = stability_coefficient(base, mu)
    if worst < threshold_factor * delta - 1e-10:
        raise ValueError(
            f"base profile violates the stability margin: min {worst:.6g} "
            f"< {threshold_factor:.2g} * delta = {threshold_factor * delta:.6g}"
        )
    return worst


def verify_energy_estimate(phi0, traj, mu, delta, gamma, dealias=True, seed=0):
    """Check gamma (||phi'_t||^2 + ||phi'_x||^2) <= (C0/gamma) ||g||^2
    in the weighted L2 norms, with C0 = 2/min{1, delta} explicit.

    g is reconstructed by applying the assembled linearized operator to
    the trajectory; pass allows a 5 percent quadrature margin.
    """
    times = traj.times
    _check_base_stability(field_evaluator(phi0, traj.grid)(times), mu, delta)
    _check_zero_trace(times, [traj.phi, traj.phit])
    spec = WeightedNormSpec(gamma)
    lhs = gamma * (
        _weighted_l2(times[1:-1], traj.phit[1:-1], spec, 0) ** 2
        + _weighted_l2(times[1:-1], derivative(traj.phi[1:-1]), spec, 0) ** 2
    )
    c0 = 2.0 / min(1.0, delta)
    g = apply_linearized(phi0, traj, mu, dealias)
    rhs = (c0 / gamma) * weighted_l2_norm(g, spec, 0) ** 2
    return EstimateReport(
        estimate_id="energy",
        lhs=lhs,
        rhs=rhs,
        ratio=_ratio(lhs, rhs),
        params={"mu": mu, "delta": delta, "gamma": gamma, "C0": c0},
        samples=1,
        seed=seed,
        passed=bool(lhs <= rhs * 1.05),
    )


def verify_tame_estimate(phi0, forcing, cfg, m, seed=0):
    """Solve the linearized problem and report the empirical constant in

    gamma (||phi'_t||^2 + ||phi'_x||^2)_{L2_gamma H^m}
      <= (C/gamma) { ||phi0_x||^2_{Linf H^{m+2}} ||g||^2_{L2_gamma H^2}
                     + ||g||^2_{L2_gamma H^m} }.

    The two-derivative loss lives in the first right-hand term: the base
    regularity is measured at m+2 while g enters at H^2 only.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    traj, monitor = solve_linearized(cfg, base=phi0, forcing=forcing)
    times, gamma = traj.times, cfg.gamma
    spec = WeightedNormSpec(gamma)
    g = field_evaluator(forcing, traj.grid)(times)
    lhs = gamma * (
        _weighted_l2(times, traj.phit, spec, m) ** 2
        + _weighted_l2(times, derivative(traj.phi), spec, m) ** 2
    )
    sup_base = _sup_sobolev(derivative(field_evaluator(phi0, traj.grid)(times)), m + 2)
    rhs = (1.0 / gamma) * (
        sup_base**2 * _weighted_l2(times, g, spec, 2) ** 2
        + _weighted_l2(times, g, spec, m) ** 2
    )
    c_emp = _ratio(lhs, rhs)
    return EstimateReport(
        estimate_id=f"tame_{m}",
        lhs=lhs,
        rhs=rhs,
        ratio=c_emp,
        params={"mu": cfg.mu, "delta": cfg.delta, "gamma": gamma, "m": m,
                "note": "ratio is the empirical constant C"},
        samples=1,
        seed=seed,
        passed=bool(np.isfinite(c_emp)),
        extras={"min_base_stability": float(np.min(monitor["min_stability_coeff"])),
                "flags": monitor["flags"]},
    )


def verify_phitt_estimate(phi0, traj, forcing, mu, gamma, m, seed=0):
    """Report the empirical constant C1 in the second-time-derivative bound

    ||phi'_tt||_{L2_gamma H^{m-1}} <= C1 { ||phi'_x||_{L2_gamma H^m} (1 + ||phi0||_{Linf H^3})
        + ||phi0_x||_{Linf H^m} ||phi'_x||_{L2_gamma H^2} + ||g||_{L2_gamma H^{m-1}} }.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    times = traj.times
    spec = WeightedNormSpec(gamma)
    base = field_evaluator(phi0, traj.grid)(times)
    phix = derivative(traj.phi)
    lhs = _weighted_l2(times, traj.phit_derivative(), spec, m - 1)
    rhs = (
        _weighted_l2(times, phix, spec, m) * (1.0 + _sup_sobolev(base, 3))
        + _sup_sobolev(derivative(base), m) * _weighted_l2(times, phix, spec, 2)
        + _weighted_l2(times, field_evaluator(forcing, traj.grid)(times), spec, m - 1)
    )
    c1 = _ratio(lhs, rhs)
    return EstimateReport(
        estimate_id=f"phitt_{m}",
        lhs=lhs,
        rhs=rhs,
        ratio=c1,
        params={"mu": mu, "gamma": gamma, "m": m,
                "note": "ratio is the empirical constant C1"},
        samples=1,
        seed=seed,
        passed=bool(np.isfinite(c1)),
    )


def verify_second_derivative_estimate(phi_series, psi_series, gamma, m, seed=0):
    """Report the empirical C_m in the bilinear bound

    ||L''(phi, psi)||_{L2_gamma H^m} <= C_m { ||phi_x||_{L2_gamma H^{m+1}} ||psi_x||_{Linf H^2}
                                              + (phi <-> psi) }

    and, since the constant is claimed uniform in the horizon, the same
    ratio recomputed on the first half of the time window.
    """
    t1, phis = phi_series.times, phi_series.phi
    t2, psis = psi_series.times, psi_series.phi
    if len(t1) != len(t2) or np.max(np.abs(t1 - t2)) > 1e-12:
        raise ValueError("phi and psi live on different time meshes")
    spec = WeightedNormSpec(gamma)

    def both_sides(sel):
        times = t1[sel]
        phix, psix = derivative(phis[sel]), derivative(psis[sel])
        lhs = _weighted_l2(times, second_derivative(phis[sel], psis[sel]), spec, m)
        rhs = (
            _weighted_l2(times, phix, spec, m + 1) * _sup_sobolev(psix, 2)
            + _weighted_l2(times, psix, spec, m + 1) * _sup_sobolev(phix, 2)
        )
        return lhs, rhs

    lhs, rhs = both_sides(slice(None))
    c_m = _ratio(lhs, rhs)
    half = len(t1) // 2 + 1
    lhs_h, rhs_h = both_sides(slice(0, max(half, 2)))
    c_half = _ratio(lhs_h, rhs_h)
    return EstimateReport(
        estimate_id=f"second_derivative_{m}",
        lhs=lhs,
        rhs=rhs,
        ratio=c_m,
        params={"gamma": gamma, "m": m, "note": "ratio is the empirical constant C_m"},
        samples=1,
        seed=seed,
        passed=bool(np.isfinite(c_m)),
        extras={"half_horizon_constant": c_half},
    )


# ---------------------------------------------------------------------------
# commutator/product inequality campaigns


def _hilbert_commutator(v, f, dealias=True):
    """[H; v]f = H[vf] - v H[f]."""
    return hilbert(pointwise_product(v, f, dealias)) - pointwise_product(
        v, hilbert(f), dealias
    )


def _derivative_commutator(k, v, f, dealias=True):
    """[d^k; v]f = d^k(vf) - v d^k f."""
    return derivative(pointwise_product(v, f, dealias), k) - pointwise_product(
        v, derivative(f, k), dealias
    )


def _lemma_comm1(v, f, s):
    lhs = sobolev_norm(_hilbert_commutator(v, f), 0)
    rhs = sobolev_norm(v, s) * sobolev_norm(f, 0)
    return lhs, rhs


def _lemma_comm2(v, f, s):
    lhs = sobolev_norm(_hilbert_commutator(v, derivative(f)), 0)
    rhs = sobolev_norm(derivative(v), s) * sobolev_norm(f, 0)
    return lhs, rhs


def _lemma_comm3(v, f, s):
    fx = derivative(f)
    inner = _hilbert_commutator(v, fx)
    outer = hilbert(inner) - _hilbert_commutator(v, hilbert(fx))
    lhs = sobolev_norm(derivative(outer), 0)
    rhs = sobolev_norm(derivative(v, 2), s) * sobolev_norm(f, 0)
    return lhs, rhs


def _lemma_a2(v, f, m):
    lhs = sobolev_norm(_hilbert_commutator(v, f), m)
    rhs = sobolev_norm(derivative(v, m), 0) * sobolev_norm(f, 1)
    return lhs, rhs


def _lemma_a3(v, f, mp):
    m, p = mp
    lhs = sobolev_norm(_hilbert_commutator(v, derivative(f, p)), m)
    rhs = sobolev_norm(derivative(v, m + p), 0) * sobolev_norm(f, 1)
    return lhs, rhs


def _lemma_prod4(v, f, m):
    lhs = sobolev_norm(pointwise_product(v, f), m)
    rhs = linf_norm(v) * sobolev_norm(f, m) + sobolev_norm(v, m) * linf_norm(f)
    return lhs, rhs


def _lemma_comm4(v, f, mk):
    m, k = mk
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    lhs = sobolev_norm(_derivative_commutator(k, v, f), 0)
    rhs = linf_norm(v) * sobolev_norm(f, k) + sobolev_norm(v, k) * linf_norm(f)
    return lhs, rhs


def _lemma_comm5(v, f, mk):
    m, k = mk
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    lhs = sobolev_norm(_derivative_commutator(k, v, f), 0)
    rhs = linf_norm(derivative(v)) * sobolev_norm(f, k - 1) + sobolev_norm(
        v, k
    ) * linf_norm(f)
    return lhs, rhs


def _lemma_a5(v, f, m):
    fxx = derivative(f, 2)
    lhs_field = hilbert(_derivative_commutator(m, v, fxx)) - _derivative_commutator(
        m, v, hilbert(fxx)
    )
    lhs = sobolev_norm(lhs_field, 0)
    rhs = sobolev_norm(derivative(v), m) * sobolev_norm(derivative(f), 1)
    return lhs, rhs


_LEMMAS = {
    "A1_comm_1": (_lemma_comm1, "s"),
    "A1_comm_2": (_lemma_comm2, "s"),
    "A1_comm_3": (_lemma_comm3, "s"),
    "A2": (_lemma_a2, "m"),
    "A3": (_lemma_a3, "mp"),
    "A4_prod": (_lemma_prod4, "m"),
    "A4_comm_4": (_lemma_comm4, "mk"),
    "A4_comm_5": (_lemma_comm5, "mk"),
    "A5": (_lemma_a5, "m"),
}


def _validate_lemma_param(lemma, param):
    kind = _LEMMAS[lemma][1]
    if kind == "s":
        s = float(param)
        if s <= 0.5:
            raise ValueError(f"{lemma} requires s > 1/2, got {s}")
        return s
    if kind == "m":
        m = int(param)
        if m < 1:
            raise ValueError(f"{lemma} requires m >= 1, got {m}")
        return m
    # pairs (m, p) or (m, k)
    m, q = (int(param[0]), int(param[1])) if not np.isscalar(param) else (int(param), int(param))
    if m < 1 or q < 1:
        raise ValueError(f"{lemma} requires positive integer parameters, got {param}")
    if kind == "mk" and q > m:
        raise ValueError(f"{lemma} requires k <= m, got {param}")
    return (m, q)


def _campaign_draw(lemma, param, seed_seqs, kmax, grid_sizes, decay):
    """lhs/rhs of a block of samples at each grid size, (samples, sizes).
    Sample i draws v, then f, from its generator seeded by seed_seqs[i]; the
    lemma runs once per grid size on the stacked (samples, n-1) arrays."""
    grid = TorusGrid(grid_sizes[0])
    pairs = np.empty((2, len(seed_seqs), grid.n - 1), complex)
    for i, seq in enumerate(seed_seqs):
        rng = np.random.default_rng(seq)
        pairs[0, i] = random_trig_field(grid, kmax, rng, decay).coeffs
        pairs[1, i] = random_trig_field(grid, kmax, rng, decay).coeffs
    v, f = pairs
    fn = _LEMMAS[lemma][0]
    ratios = []
    for n in grid_sizes:
        lhs, rhs = fn(regrid(v, TorusGrid(n)), regrid(f, TorusGrid(n)), param)
        ratios.append(_ratio(lhs, rhs))
    return np.stack(ratios, axis=-1)


def estimate_commutator_constant(
    lemma, param, samples, seed, n_lo=256, n_hi=512, decay=2.0, jobs=1
):
    """Empirical constant for one of the commutator/product inequalities.

    Draws `samples` random pairs (v, f) banded to n_lo/6 (the same
    coefficients are re-evaluated at both grid resolutions, so drift
    isolates discretization error), reports the supremum of lhs/rhs at the
    fine resolution and the relative drift between resolutions.

    Each sample draws from a child of SeedSequence(seed).  Blocks of
    _SAMPLE_BLOCK samples run as one batch each, in `jobs` worker processes
    when jobs > 1; the blocks do not depend on `jobs`, so neither do the
    constants.
    """
    if lemma not in _LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}; choose from {sorted(_LEMMAS)}")
    param = _validate_lemma_param(lemma, param)
    if samples < 1:
        raise ValueError("need at least one sample")
    if n_hi <= n_lo:
        raise ValueError("n_hi must exceed n_lo")
    kmax = n_lo // 6
    children = np.random.SeedSequence(seed).spawn(samples)
    args = [(lemma, param, children[i:i + _SAMPLE_BLOCK], kmax, (n_lo, n_hi), decay)
            for i in range(0, samples, _SAMPLE_BLOCK)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: a heavy import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_campaign_draw, *zip(*args)))
    else:
        results = [_campaign_draw(*a) for a in args]
    ratios = np.concatenate(results)  # (samples, 2)
    sup_lo = float(np.max(ratios[:, 0]))
    sup_hi = float(np.max(ratios[:, 1]))
    drift = abs(sup_hi - sup_lo) / max(sup_lo, 1e-300)
    return EstimateReport(
        estimate_id=f"lemma_{lemma}",
        lhs=sup_hi,
        rhs=1.0,
        ratio=sup_hi,
        params={"lemma": lemma, "param": param, "n_lo": n_lo, "n_hi": n_hi,
                "decay": decay, "kmax": kmax,
                "note": "ratio is the empirical sup of lhs/rhs at n_hi"},
        samples=samples,
        seed=seed,
        passed=bool(np.isfinite(sup_hi) and drift < 0.10),
        extras={"sup_lo": sup_lo, "sup_hi": sup_hi, "resolution_drift": drift},
    )


# ---------------------------------------------------------------------------
# kernel structure of the Hilbert commutator


def kernel_commutator(v, f):
    """hat([H; v]f)(k) = (1/2pi) sum_l i (sgn l - sgn k) vhat(k-l) fhat(l),
    evaluated literally from the (k, l) kernel table.  Exact (no
    transforms), so structural zeroes of the kernel come out as exact zeroes.
    """
    if v.grid.n != f.grid.n:
        raise ValueError("fields live on different grids")
    grid = v.grid
    half = grid.n // 2
    if v.bandwidth + f.bandwidth > half - 1:
        raise ValueError(
            "combined bandwidth exceeds the grid band; the convolution would alias"
        )
    k = grid.modes
    kl = k[:, None] - k  # the (k, l) table of k - l
    vkl = np.where(np.abs(kl) <= half - 1, v.coeffs[np.clip(kl + half - 1, 0, grid.n - 2)], 0.0)
    lam = 1j * (np.sign(k) - np.sign(k)[:, None])
    out = (lam * vkl) @ f.coeffs / (2.0 * np.pi)
    return SpectralField(grid, out, v.real_flag and f.real_flag)


def lambda_kernel_check(v, f, dealias=True):
    """Max discrepancy between the transform route and the kernel sum for
    [H; v]f.  Bandlimitation is enforced so the comparison is alias-free."""
    direct = _hilbert_commutator(v, f, dealias)
    kernel = kernel_commutator(v, f)
    return float(np.max(np.abs(direct.coeffs - kernel.coeffs)))


# ---------------------------------------------------------------------------
# Hilbert transform identities


def verify_hilbert_identities(samples=100, grid_n=128, seed=0):
    """Check the five calculus identities of the Hilbert transform on
    random real zero-mean trig polynomials, plus the mean correction
    H^2[f] = -f + mean(f) and the exponential symbol rule.

    Returns a report dict with the max defect per identity; everything
    must come in below 1e-11 for `passed`.
    """
    grid = TorusGrid(grid_n)
    kmax = grid_n // 6
    rng = np.random.default_rng(seed)
    defects = {
        "derivative_commutation": 0.0,
        "product_identity": 0.0,
        "involution": 0.0,
        "skew_adjoint": 0.0,
        "commutator_self_adjoint": 0.0,
        "mean_correction": 0.0,
        "exponential_symbol": 0.0,
    }

    def upd(key, val):
        defects[key] = max(defects[key], float(val))

    for _ in range(samples):
        f = random_trig_field(grid, kmax, rng)
        g = random_trig_field(grid, kmax, rng)
        h = random_trig_field(grid, kmax, rng)

        upd("derivative_commutation",
            np.max(np.abs(hilbert(derivative(f)).coeffs - derivative(hilbert(f)).coeffs)))

        lhsp = hilbert(pointwise_product(f, g) -
                       pointwise_product(hilbert(f), hilbert(g)))
        rhsp = pointwise_product(f, hilbert(g)) + pointwise_product(hilbert(f), g)
        upd("product_identity", np.max(np.abs(lhsp.coeffs - rhsp.coeffs)))

        upd("involution", np.max(np.abs(hilbert(hilbert(f)).coeffs + f.coeffs)))

        upd("skew_adjoint",
            abs(inner_product(hilbert(f), g) + inner_product(f, hilbert(g))))

        comm_f = pointwise_product(h, hilbert(f)) - hilbert(pointwise_product(h, f))
        comm_g = pointwise_product(h, hilbert(g)) - hilbert(pointwise_product(h, g))
        upd("commutator_self_adjoint",
            abs(inner_product(comm_f, g) - inner_product(f, comm_g)))

        shift = rng.standard_normal()
        shifted = f + from_modes(grid, {0: 2.0 * np.pi * shift}, real_flag=True)
        mean_field = from_modes(grid, {0: shifted.coeff(0)}, real_flag=True)
        corr = hilbert(hilbert(shifted)) + shifted - mean_field
        upd("mean_correction", np.max(np.abs(corr.coeffs)))

    for k in range(-5, 6):
        e_k = from_modes(grid, {k: 1.0})
        want = from_modes(grid, {k: -1j * np.sign(k)})
        upd("exponential_symbol", np.max(np.abs(hilbert(e_k).coeffs - want.coeffs)))

    passed = all(v < IDENTITY_TOL for v in defects.values())
    return {
        "identities": defects,
        "samples": samples,
        "grid_n": grid_n,
        "seed": seed,
        "tolerance": IDENTITY_TOL,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# forcing smallness


def verify_forcing_bound(data, mu, delta, nu=10, gamma=1.0, seed=0):
    """Check that the lifted-data forcing F^a vanishes with the data size.

    Scales the data by a in {1, 1/2, 1/4, 1/8}, builds the lifting each
    time, and measures ||F^a||_{Linf H^{nu-1}} on the ramp support.  The
    log-log order in a must be at least linear (the bound is a quadratic
    polynomial with no constant term in the data norms H^{nu+1} x H^nu).
    Extras carry a fitted quadratic and the horizon-shrink ratios of the
    weighted norm, which decay like sqrt(T) inside the plateau.
    """
    scales = (1.0, 0.5, 0.25, 0.125)
    values, sizes = [], []
    lift0 = None
    for a in scales:
        lift = build_lifting(data.scaled(a), mu, delta)
        if lift0 is None:
            lift0 = lift
        mesh = np.linspace(0.0, 2.0 * lift.ramp_width, 65)
        forcing = lifting_forcing(lift, mu, mesh)
        values.append(sup_sobolev_norm(forcing, nu - 1))
        sizes.append(
            sobolev_norm(data.scaled(a).phi0, nu + 1)
            + sobolev_norm(data.scaled(a).phi1, nu)
        )

    values = np.array(values)
    sizes = np.array(sizes)
    if np.all(values == 0.0):
        order = float("inf")
        fit = (0.0, 0.0)
    else:
        order = float(np.polyfit(np.log(scales), np.log(values), 1)[0])
        design = np.column_stack([sizes, sizes**2])
        fit_coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        fit = (float(fit_coef[0]), float(fit_coef[1]))

    spec = WeightedNormSpec(max(gamma, 1.0))
    r = lift0.ramp_width
    horizon_norms = []
    for horizon in (r, r / 2.0, r / 4.0):
        mesh = np.linspace(0.0, horizon, 65)
        fa = lifting_forcing(lift0, mu, mesh)
        horizon_norms.append(weighted_l2_norm(fa, spec, nu - 1))
    shrink = [
        horizon_norms[i + 1] / horizon_norms[i] if horizon_norms[i] > 0 else 0.0
        for i in range(2)
    ]
    monotone = bool(np.all(np.diff(values) < 0)) or np.all(values == 0.0)
    # each halving must shave the norm like sqrt(T) does; the exact plateau
    # ratio sqrt((1-e^{-gamma T})/(1-e^{-2 gamma T})) stays below 0.85 for
    # gamma T <= 1 and tends to 1/sqrt(2) from above as T -> 0
    shrink_ok = all(s <= 0.85 for s in shrink) and shrink[0] * shrink[1] <= 0.65
    return EstimateReport(
        estimate_id="forcing_Fa",
        lhs=float(values[0]),
        rhs=float(sizes[0]),
        ratio=order,
        params={"mu": mu, "delta": delta, "nu": nu, "gamma": gamma,
                "scales": list(scales), "note": "ratio is the measured order in a"},
        samples=len(scales),
        seed=seed,
        passed=bool(order >= 0.95 and monotone and shrink_ok),
        extras={
            "values": [float(v) for v in values],
            "data_sizes": [float(s) for s in sizes],
            "fit_linear": fit[0],
            "fit_quadratic": fit[1],
            "horizon_norms": [float(h) for h in horizon_norms],
            "horizon_shrink_ratios": [float(s) for s in shrink],
        },
    )
