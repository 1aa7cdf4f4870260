"""Galerkin pseudospectral time integration.

Neither system reads phi_t on its right-hand side, so the state is
advanced on the Galerkin space, the real zero-mean modes 1 <= |k| <= N,
by Nystrom's 3-stage fourth-order scheme (rkn_step): three accelerations
per step, the first of them the one stored at the node.  The solvers
step only the coefficients k = 1..N, as float rows phi, phi_t and phi_tt
of interleaved (Re, Im) floats: every such row is a real zero-mean field
in the Galerkin space, so conjugate symmetry, zero mean and the
projection hold by construction at every stage, and no stage is masked,
mirrored or checked.

The march is in place.  Each node's (phi, phi_t, phi_tt) is written
straight into its rows of one (m+1, 3, 2N) array: phi_tt by the
acceleration map, the next node's phi and phi_t by the step, whose stage
rows and operands live in four scratch rows allocated once per solve.
The acceleration map accel(s, x, out), semidiscrete_rhs_nonlinear or
semidiscrete_rhs_linearized, writes the phi_tt row of the phi row x at
index s of the stage mesh into the row `out`.  It runs, on one row, the
one kernel of its equation in operators, built once per solve on the
_plan of (n, N); the public operators run the same kernel.  The two
systems are the full quadratically nonlinear equation, and its
linearization around a prescribed time-dependent base profile with an
optional forcing term.

Base profiles and forcing terms of the linearized system are field
sources (see field_evaluator): each maps a 1-D array of times to a
(T, n-1) coefficient array.  solve_linearized evaluates and checks them
once per solve on its whole stage mesh, and its acceleration map
synthesizes the base's weights there once, from its full band k < n/2: a
Newton base or a configured one can carry modes above N.

Each solve mirrors the rows of its T kept nodes once into the (T, n-1)
arrays of the Trajectory it returns, together with a monitor dictionary:
"min_stability_coeff", the minimum of the stability coefficient
mu - 2 (H phi)_x at each kept node (the node times are the trajectory's),
and "flags", the list of flags raised.  The monitor judges a block of
_NODE_BLOCK nodes at once, after they are stepped.  The nonlinear solver
truncates the run when the coefficient drops below delta/2 or the state
blows up; the linearized solver records the base coefficient but only
aborts on blow-up, since ill-posed constant-coefficient runs (mu < 0) are
a legitimate diagnostic and are merely flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (
    Trajectory,
    _base_weights,
    _float_rows,
    _linearized_map,
    _nonlinear_map,
    _plan,
    _require_real,
    _require_real_zero_mean,
    _stability_values,
    require_margin,
)
from .spectral import SpectralField, TorusGrid, _band, zeros

BLOW_UP_THRESHOLD = 1e12

#: time nodes per batched call: _march steps this many nodes, then judges
#: them with one monitor call; analysis.apply_linearized applies its kernel
#: to this many nodes at once
_NODE_BLOCK = 64


class CflError(ValueError):
    """The requested time step exceeds the advective stability limit: a
    parameter the numerics reject, like any other invalid input."""


@dataclass(frozen=True)
class SimConfig:
    """Discretization and problem parameters shared by the solvers."""

    mu: float
    delta: float
    grid_n: int = 64
    galerkin_N: int = 21
    dt: float = 1e-3
    t_final: float = 1.0
    gamma: float = 1.0
    cfl_safety: float = 0.5

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.grid_n < 4 or self.grid_n % 2:
            raise ValueError("grid_n must be even and at least 4")
        if not 1 <= self.galerkin_N <= self.grid_n // 2 - 1:
            raise ValueError("galerkin_N must lie in [1, grid_n/2 - 1]")
        if not (0 < self.dt < np.inf and 0 < self.t_final < np.inf):
            raise ValueError("dt and t_final must be positive and finite")
        if not self.t_final / self.dt < np.inf:
            raise ValueError("t_final / dt overflows a float")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")

    def num_steps(self):
        m_real = self.t_final / self.dt
        m = int(round(m_real))
        if m < 1 or abs(m_real - m) > 1e-8 * max(1.0, m):
            raise ValueError("t_final must be an integer multiple of dt")
        return m

    def stage_times(self):
        """The stage mesh k dt/2, k = 0, ..., 2m, of the m steps: the step
        from node i reads its entries 2i, 2i+1 and 2i+2.  Its even entries
        are the node times k dt, bitwise."""
        return np.arange(2 * self.num_steps() + 1) * (0.5 * self.dt)

    def cfl_limit(self, sup_c2):
        """Largest admissible dt for wave speed sqrt(max(1, sup c^2))."""
        return self.cfl_safety / (self.galerkin_N * np.sqrt(np.fmax(1.0, sup_c2)))


@lru_cache(maxsize=8)
def _others(k):
    """(k, k-1) indices whose row j lists every m != j in ascending order."""
    i = np.arange(k - 1)
    others = i + (i >= np.arange(k)[:, None])
    others.flags.writeable = False
    return others


def _lagrange_weights(nodes, t):
    """Lagrange basis weights w_j = prod_{m != j} (t - t_m)/(t_j - t_m) for
    node sets `nodes` of shape (..., k) and times `t` of shape (...)."""
    tm = nodes[..., _others(nodes.shape[-1])]
    return np.prod((np.asarray(t)[..., None, None] - tm) / (nodes[..., :, None] - tm),
                   axis=-1)


class _SeriesEvaluator:
    """Piecewise cubic (4-point Lagrange) interpolation of a series of
    (T, n-1) coefficient rows, evaluated on a 1-D array of times.

    Exact at the sample times; O(h^4) between them, matching the
    integrator's order so interpolated forcing does not degrade it.  A time
    outside the span of the samples, by more than 1e-9, raises ValueError.
    """

    def __init__(self, times, rows):
        self.times = np.asarray(times, float)
        self.rows = rows

    def __call__(self, ts):
        ts = np.asarray(ts, float)
        nodes, rows = self.times, self.rows
        if not np.all((ts >= nodes[0] - 1e-9) & (ts <= nodes[-1] + 1e-9)):
            raise ValueError(f"series covers [{nodes[0]:.6g}, {nodes[-1]:.6g}] but is "
                             f"evaluated on [{ts.min():.6g}, {ts.max():.6g}]")
        n = nodes.size
        width = min(4, n)
        j0 = np.clip(np.searchsorted(nodes, ts) - 2, 0, n - width)
        idx = j0[:, None] + np.arange(width)
        w = _lagrange_weights(nodes[idx], ts)
        # one weighted row gather at a time: no (T, 4, n-1) temporary
        out = w[:, :1] * rows[idx[:, 0]]
        for j in range(1, width):
            out += w[:, j:j + 1] * rows[idx[:, j]]
        return out


def field_evaluator(source, grid):
    """Coerce a base/forcing description into a map from a 1-D array of T
    times to a (T, n-1) coefficient array.

    Accepts None (zero), a SpectralField (frozen in time; a read-only
    broadcast of its coefficients), a Trajectory (cubic interpolation of
    its phi; a time outside its span raises ValueError), or a callable,
    which is called once with the whole time array and must return an
    array of shape (T, n-1) (anything else raises TypeError).
    """
    if source is None:
        source = zeros(grid)
    if isinstance(source, SpectralField):
        if source.grid.n != grid.n:
            raise ValueError("field grid does not match the solver grid")
        return lambda ts: np.broadcast_to(source.coeffs, (len(ts), grid.n - 1))
    if isinstance(source, Trajectory):
        if source.grid.n != grid.n:
            raise ValueError("series grid does not match the solver grid")
        return _SeriesEvaluator(source.times, source.phi)
    if callable(source):
        def wrapped(ts):
            rows = source(ts)
            if np.shape(rows) != (len(ts), grid.n - 1):
                raise TypeError("base/forcing callable must return a (T, n-1) "
                                "coefficient array on the solver grid")
            return np.asarray(rows)
        return wrapped
    raise TypeError(f"cannot interpret {type(source).__name__} as a field source")


def semidiscrete_rhs_nonlinear(cfg):
    """The acceleration map accel(s, x, out) of the nonlinear Galerkin
    system: writes into the row `out` the float row of mu phi_xx + N(phi),
    kept to k = 1..N, the projection onto the Galerkin space, for the float
    row `x` of phi, by the kernel operators._nonlinear_map.  The stage
    index s is not read, and rows are not checked; `out` must not overlap
    `x`, and one map serves one march at a time."""
    rows = _nonlinear_map(_plan(cfg.grid_n, cfg.galerkin_N), cfg.mu)
    return lambda s, x, out: rows(x, out)


def semidiscrete_rhs_linearized(base_rows, g_rows, cfg):
    """The acceleration map of the linearization at a base with forcing g,
    as in semidiscrete_rhs_nonlinear, by the kernel
    operators._linearized_map plus g.  `base_rows` and `g_rows` are (S, n-1)
    coefficient arrays on the stage mesh, and stage s reads row s of each.
    The base's weights are synthesized here once, from its full band
    k < n/2: it may carry modes above N."""
    plan = _plan(cfg.grid_n, cfg.galerkin_N, linearized=True)
    rows = _linearized_map(plan, cfg.mu)
    w0 = _base_weights(plan, base_rows)
    g = _float_rows(g_rows, cfg.galerkin_N)

    def accel(s, x, out):
        rows(w0[s], x, out)
        out += g[s]

    return accel


def rkn_step(dt, accel, width):
    """Nystrom's 3-stage fourth-order scheme (Hairer, Norsett & Wanner,
    Solving ODEs I, II.14) for phi_tt = accel(s, phi, out), as the in-place
    step(i, node, new) on rows of `width` floats.  `node` holds
    (phi, phi_t, a1) at node i, a1 = accel(2i, phi), and the step writes
    phi and phi_t at node i + 1 into new[0] and new[1]; new[2] is the
    caller's.  Its stages read the indices 2i, 2i+1, 2i+2 of the stage
    mesh k dt/2, and run on four scratch rows allocated once here, in the
    operand order

        a2 = accel(2i+1, (phi + (dt/2) phi_t) + (dt^2/8) a1)
        a3 = accel(2i+2, (phi + dt phi_t) + (dt^2/2) a2)
        phi'   = (phi + dt phi_t) + (dt^2/6) (a1 + 2 a2)
        phi_t' = phi_t + (dt/6) ((a1 + 4 a2) + a3).

    The coefficients are 0-d arrays, which a ufunc reads faster than
    floats, with the same bits, and each ufunc call passes its output as
    its last argument, which numpy parses faster than out=."""
    y, t, a2, a3 = np.empty((4, width))
    dt2 = dt * dt
    h, h8, d, h2, h6, d6, two, four = map(
        np.array, (0.5 * dt, dt2 / 8.0, dt, 0.5 * dt2, dt2 / 6.0, dt / 6.0, 2.0, 4.0))

    def step(i, node, new):
        phi, phit, a1 = node
        drift = new[0]  # phi + dt phi_t, then phi at node i + 1
        np.multiply(h, phit, y)
        np.add(y, phi, y)
        np.multiply(h8, a1, t)
        np.add(y, t, y)
        accel(2 * i + 1, y, a2)
        np.multiply(d, phit, drift)
        np.add(drift, phi, drift)
        np.multiply(h2, a2, y)
        np.add(y, drift, y)
        accel(2 * i + 2, y, a3)
        np.multiply(two, a2, t)
        np.add(t, a1, t)
        np.multiply(t, h6, t)
        np.add(drift, t, drift)
        np.multiply(four, a2, t)
        np.add(t, a1, t)
        np.add(t, a3, t)
        np.multiply(t, d6, t)
        np.add(phit, t, new[1])

    return step


def _march(cfg, accel, phi, phit, stability_values, abort_on_stability):
    """Shared stepping loop from the rows `phi`, `phit` under
    phi_tt = accel(s, phi, out), in place: the (phi, phi_t, phi_tt) of each
    node are written straight into its rows of one (m+1, 3, 2N) array, phi_tt
    by the acceleration and the next node's phi, phi_t by rkn_step.  Step a
    block of _NODE_BLOCK nodes, then judge it.  Returns (Trajectory,
    monitor).  `stability_values(nodes, phi_rows)`
    gives the (B, n) values of mu - 2 (H .)_x at the nodes of the slice
    `nodes`, of the state for the nonlinear equation and of the base for
    the linearized one.  The block's first node that blows up, drops below
    delta/2 (if `abort_on_stability`) or, before node m, breaks the CFL
    limit ends the run, in that order at one node; the nodes stepped past
    it are dropped.
    """
    m = cfg.num_steps()
    times = np.arange(m + 1) * cfg.dt
    flags = [{"type": "elliptic_regime", "time": 0.0}] if cfg.mu <= 0 else []

    # (phi, phi_t, phi_tt) at each node, phi_tt the acceleration
    rows = np.empty((m + 1, 3, phi.shape[-1]))
    rows[0, 0], rows[0, 1] = phi, phit
    step = rkn_step(cfg.dt, accel, phi.shape[-1])
    stab = np.empty(m + 1)
    kept = m + 1
    # past a flagged node the stepping may overflow; those rows are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m + 1, _NODE_BLOCK):
            block = slice(start, min(start + _NODE_BLOCK, m + 1))
            for i in range(block.start, block.stop):
                node = rows[i]
                accel(2 * i, node[0], node[2])
                if i < m:
                    step(i, node, rows[i + 1])
            vals = stability_values(block, rows[block, 0])
            stab[block] = vals.min(axis=-1)
            modulus = np.abs(rows[block, :2].view(complex))
            blow_up = ~(modulus.max(axis=(1, 2)) <= BLOW_UP_THRESHOLD)
            abort = abort_on_stability & (stab[block] < 0.5 * cfg.delta)
            limit = cfg.cfl_limit(vals.max(axis=-1))
            cfl = (cfg.dt > limit * (1.0 + 1e-12)) & (np.arange(block.start, block.stop) < m)
            hit = np.flatnonzero(blow_up | abort | cfl)
            if hit.size:
                j = hit[0]
                kept, t = block.start + j + 1, float(times[block.start + j])
                if not (blow_up[j] or abort[j]):
                    raise CflError(
                        f"dt = {cfg.dt:.6g} exceeds the CFL limit {limit[j]:.6g} "
                        f"at t = {t:.6g} (N = {cfg.galerkin_N})"
                    )
                kind = "blow_up" if blow_up[j] else "stability_below_half_delta"
                flags.append({"type": kind, "time": t})
                break

    bands = _band(rows[:kept].view(complex).swapaxes(0, 1), cfg.grid_n)
    return Trajectory(times[:kept], *bands), {"min_stability_coeff": stab[:kept], "flags": flags}


def _galerkin_state(data, cfg):
    """The rows phi0, phi1 of Cauchy data: interleaved floats of k = 1..N."""
    return [_float_rows(f.coeffs, cfg.galerkin_N) for f in (data.phi0, data.phi1)]


def solve_nonlinear(cfg, data):
    """Integrate phi_tt = mu phi_xx + N(phi) from the given Cauchy data.

    The data must satisfy the stability margin mu - 2 (H phi0)_x >= delta;
    the monitor then tracks the coefficient along the flow and the run is
    truncated (flagged, not raised) if it ever falls below delta/2.
    """
    if data.grid.n != cfg.grid_n:
        raise ValueError("data grid does not match the configured grid")
    require_margin(data.phi0, cfg.mu, cfg.delta, "initial data")
    return _march(cfg, semidiscrete_rhs_nonlinear(cfg), *_galerkin_state(data, cfg),
                  lambda nodes, phi_rows: _stability_values(phi_rows, cfg.mu, cfg.grid_n),
                  abort_on_stability=True)


def solve_linearized(cfg, base=None, forcing=None, initial_state=None):
    """Integrate the linearization around `base` with forcing `forcing`.

    phi'_tt = (mu - 2 p0_x) phi'_xx + lower-order terms + g, p0 = H[base].
    `base` and `forcing` accept anything field_evaluator understands; each is
    evaluated once, on the stage mesh cfg.stage_times(), which a Trajectory
    must cover, and the acceleration and the monitor read the row of their
    stage index.  The evaluated rows are checked once, before the first step:
    the base must be real with zero mean and the forcing real (its k = 0 mode,
    like every mode above N, is dropped by the projection).  The solve starts
    from rest unless `initial_state` (CauchyData) is given.
    """
    grid = TorusGrid(cfg.grid_n)
    stage_times = cfg.stage_times()
    base_rows = field_evaluator(base, grid)(stage_times)
    g_rows = field_evaluator(forcing, grid)(stage_times)
    _require_real_zero_mean(base_rows, "base")
    _require_real(g_rows, "forcing")

    if initial_state is None:
        state = np.zeros((2, 2 * cfg.galerkin_N))
    else:
        if initial_state.grid.n != cfg.grid_n:
            raise ValueError("initial state grid does not match the configured grid")
        state = _galerkin_state(initial_state, cfg)

    base_vals = _stability_values(_float_rows(base_rows[::2]), cfg.mu, cfg.grid_n)
    return _march(cfg, semidiscrete_rhs_linearized(base_rows, g_rows, cfg), *state,
                  lambda nodes, phi_rows: base_vals[nodes], abort_on_stability=False)


def measure_mode_growth(traj, modes):
    """Least-squares exponential growth rate of |phi_hat(k, t)| per mode;
    the rows of traj.phi may hold any amplitude, as `amp-sheet growth`'s do.

    The fit uses the second half of the trajectory (transients from mixed
    initial data decay in relative weight there) and drops samples at or
    below 1e-14 times the mode's own peak there, however small; a mode with
    fewer than two usable samples (one node, or a zero mode) gets NaN.
    """
    ts = traj.times
    half = len(ts) // 2
    band = traj.grid.n // 2 - 1
    rates = {}
    for k in modes:
        if not -band <= k <= band:
            raise ValueError(f"mode {k} outside retained band")
        amps = np.abs(traj.phi[half:, k + band])
        tt = ts[half:]
        keep = amps > 1e-14 * np.max(amps, initial=0.0)
        if np.count_nonzero(keep) < 2:
            rates[k] = float("nan")
            continue
        slope = np.polyfit(tt[keep], np.log(amps[keep]), 1)[0]
        rates[k] = float(slope)
    return rates
