"""Smoothed Newton iteration for the full nonlinear problem.

The solve is organized around the lifting: for Cauchy data (phi0, phi1) a
compactly supported approximate solution phi^a is built analytically, and
the equation for the correction u = phi - phi^a reads

    L[u] := u_tt - mu u_xx - (N(phi^a + u) - N(phi^a)) = F^a,

with F^a the lifting forcing (supported in t >= 0, vanishing again beyond
the ramp).  Each sweep solves the linearization of L at the current
iterate for a correction v, then applies a frequency cutoff S_theta before
accepting it, with theta growing geometrically so the mollification
disappears in the limit.  The loss of derivatives of the linearized solve
(solution order 7 against forcing order 9 in the underlying estimates) is
what the smoothing compensates; the iteration itself only ever sees the
discrete trajectories.
"""

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .operators import (
    Trajectory,
    build_lifting,
    lifting_forcing,
    quadratic_rhs,
    stability_coefficient,
)
from .solver import SimConfig, field_evaluator, solve_linearized
from .spectral import SpectralField, TorusGrid
from .analysis import WeightedNormSpec, xm_norm, ym_norm

__all__ = [
    "IterationConfig",
    "IterationReport",
    "IterationDiverged",
    "IterationAborted",
    "smooth_cutoff",
    "iterate",
    "iterate_auto",
]

#: Sobolev orders of the solution and forcing spaces in the underlying
#: quantitative scheme; recorded in every report for downstream tooling.
SOLUTION_SPACE_ORDER = 7
FORCING_SPACE_ORDER = 9


class IterationDiverged(RuntimeError):
    """Residual norms rose three sweeps in a row.  Carries the partial
    report as .report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class IterationAborted(RuntimeError):
    """The working profile lost the stability margin delta/2.  Carries the
    partial report as .report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class IterationConfig:
    """Knobs of the smoothed Newton solve.

    theta0 is the initial cutoff frequency and theta_growth the geometric
    ratio; residual_tol is the target for the forcing-space (H^2 weighted)
    norm of the residual.
    """

    sim: SimConfig
    theta0: float = 4.0
    theta_growth: float = 1.5
    max_iters: int = 20
    residual_tol: float = 1e-8

    def __post_init__(self):
        if self.theta0 < 1.0:
            raise ValueError("theta0 must be at least 1")
        if not 1.0 < self.theta_growth <= 4.0:
            raise ValueError("theta_growth must lie in (1, 4]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.residual_tol <= 0.0:
            raise ValueError("residual_tol must be positive")


@dataclass
class IterationReport:
    """Per-sweep diagnostics of one smoothed Newton run.

    residual_norms has one entry per residual evaluation; the correction
    and theta lists have one entry per accepted correction (one fewer on a
    converged run).
    """

    residual_norms: list = field(default_factory=list)
    correction_norms: list = field(default_factory=list)
    stability_mins: list = field(default_factory=list)
    theta_values: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    metadata: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, default=float)


def smooth_cutoff(obj, theta):
    """Frequency truncation S_theta: modes with |k| > theta are dropped.

    Acts on a single field or on every array of a Trajectory (the
    second-derivative record included).  On the analytic scale this family
    satisfies ||S_theta f - f||_{H^m} <= theta^{m-s} ||f||_{H^s} for
    m <= s with constant one, which is the only property the iteration
    uses.
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    if not isinstance(obj, (SpectralField, Trajectory)):
        raise TypeError(f"cannot apply the cutoff to {type(obj).__name__}")
    keep = np.abs(obj.grid.modes) <= theta
    if isinstance(obj, SpectralField):
        return SpectralField(obj.grid, np.where(keep, obj.coeffs, 0.0), obj.real_flag)
    return Trajectory(obj.times, *(None if a is None else np.where(keep, a, 0.0)
                                   for a in (obj.phi, obj.phit, obj.phitt)))


def _metadata(cfg):
    sim = cfg.sim
    return {
        "solution_space_order": SOLUTION_SPACE_ORDER,
        "forcing_space_order": FORCING_SPACE_ORDER,
        "mu": sim.mu,
        "delta": sim.delta,
        "gamma": sim.gamma,
        "grid_n": sim.grid_n,
        "galerkin_N": sim.galerkin_N,
        "dt": sim.dt,
        "t_final": sim.t_final,
        "theta0": cfg.theta0,
        "theta_growth": cfg.theta_growth,
        "residual_tol": cfg.residual_tol,
    }


def iterate(cfg, data):
    """Run the smoothed Newton solve from the given Cauchy data.

    Returns (trajectory, report) where the trajectory is phi^a + u on the
    solver mesh.  Raises IterationDiverged after three consecutive
    residual increases and IterationAborted if the stability coefficient
    of the working profile falls below delta/2; a run that merely exhausts
    max_iters comes back with report.converged False.
    """
    sim = cfg.sim
    grid = TorusGrid(sim.grid_n)
    if data.grid.n != grid.n:
        raise ValueError("data grid does not match the configured grid")

    lift = build_lifting(data, sim.mu, sim.delta)
    steps = sim.num_steps()
    times = np.arange(steps + 1) * sim.dt
    lift_states = lift.states(times)  # phi^a and its time derivatives, (T, n-1) each
    phi_a = lift_states[0]
    n_a = quadratic_rhs(phi_a, sim.dealias)
    forcing_a = lifting_forcing(lift, sim.mu, times).phi
    lap = -(grid.modes.astype(float) ** 2)

    # the correction u and its first two time derivatives on the mesh
    u = [np.zeros_like(phi_a) for _ in range(3)]

    spec = WeightedNormSpec(sim.gamma)
    theta = cfg.theta0
    report = IterationReport(metadata=_metadata(cfg))

    for _ in range(cfg.max_iters + 1):
        # residual of L[u] = F^a and stability of phi^a + u, all nodes at once
        phi_tot = phi_a + u[0]
        _, stab_min = stability_coefficient(phi_tot, sim.mu)
        nonlin = quadratic_rhs(phi_tot, sim.dealias) - n_a
        applied = u[2] - sim.mu * (lap * u[0]) - nonlin
        r_series = Trajectory(times, forcing_a - applied)
        r_norm = ym_norm(r_series, spec, 2)
        report.residual_norms.append(float(r_norm))
        report.stability_mins.append(float(stab_min))

        if stab_min < 0.5 * sim.delta:
            raise IterationAborted(
                f"stability coefficient fell to {stab_min:.6g} "
                f"(threshold {0.5 * sim.delta:.6g})",
                report,
            )
        if r_norm < cfg.residual_tol:
            report.converged = True
            break
        rs = report.residual_norms
        if len(rs) >= 4 and rs[-1] > rs[-2] > rs[-3] > rs[-4]:
            raise IterationDiverged(
                f"residual rose three sweeps in a row ({rs[-4]:.3e} -> {rs[-1]:.3e})",
                report,
            )
        if len(report.correction_norms) >= cfg.max_iters:
            break

        # linearize at phi^a + u and solve for the correction
        u_eval = field_evaluator(Trajectory(times, u[0]), grid, sim.t_final)
        v_traj, _ = solve_linearized(
            sim, base=lambda ts: lift.states(ts)[0] + u_eval(ts), forcing=r_series)
        v_cut = smooth_cutoff(v_traj, theta)
        report.correction_norms.append(float(xm_norm(v_traj, spec, 2)["total"]))
        report.theta_values.append(float(theta))

        u = [a + v for a, v in zip(u, (v_cut.phi, v_cut.phit, v_cut.phitt))]
        theta *= cfg.theta_growth

    report.iterations = len(report.correction_norms)
    traj = Trajectory(times, *(s + a for s, a in zip(lift_states, u)))
    return traj, report


def iterate_auto(cfg, data, max_halvings=6):
    """iterate with automatic horizon reduction.

    On divergence the time horizon is halved (keeping the node count an
    integer by adjusting dt with it) and the solve restarted, up to
    max_halvings times; the last IterationDiverged is re-raised if none of
    the shorter horizons settles.
    """
    current = cfg
    last = None
    for _ in range(max_halvings + 1):
        try:
            return iterate(current, data)
        except IterationDiverged as exc:
            last = exc
            sim = current.sim
            steps = max(2, sim.num_steps() // 2)
            half = sim.t_final / 2.0
            current = replace(current, sim=replace(sim, t_final=half, dt=half / steps))
    raise last
