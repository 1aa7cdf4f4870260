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

Every run ends through one return; report.outcome names the first check
that holds at a residual evaluation: "stability_aborted" (the working
profile lost the margin delta/2), "converged" (residual below
residual_tol), "diverged" (three rises in a row), "stalled" (the last
correction is at most STALL_RATIO times the largest: the residual left is
out of the Galerkin band's reach) or "exhausted_max_iters".
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .operators import (
    Trajectory,
    build_lifting,
    nonlinear_operator,
    stability_coefficient,
)
from .solver import SimConfig, field_evaluator, solve_linearized
from .spectral import SpectralField, TorusGrid
from .analysis import WeightedNormSpec, xm_norm, ym_norm

__all__ = [
    "IterationConfig",
    "IterationReport",
    "smooth_cutoff",
    "iterate",
    "iterate_auto",
]

#: Sobolev orders of the solution and forcing spaces in the underlying
#: quantitative scheme; recorded in every report for downstream tooling.
SOLUTION_SPACE_ORDER = 7
FORCING_SPACE_ORDER = 9
#: Sobolev order of the weighted norms that measure the residuals (Y_m)
#: and the corrections (X_m) a report lists
NORM_ORDER = 2

#: a correction at most this share of the largest one so far, with the
#: residual still above tolerance, ends the run as "stalled"
STALL_RATIO = 1e-12


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
        if not self.theta0 >= 1.0:
            raise ValueError("theta0 must be at least 1")
        if not 1.0 < self.theta_growth <= 4.0:
            raise ValueError("theta_growth must lie in (1, 4]")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be positive")
        if not self.residual_tol > 0.0:
            raise ValueError("residual_tol must be positive")


@dataclass
class IterationReport:
    """Per-sweep diagnostics of one smoothed Newton run.

    residual_norms and stability_mins have one entry per residual
    evaluation; the correction and theta lists have one entry per accepted
    correction, one fewer whatever the outcome, and iterations counts
    them.  outcome names how the run ended (see the module docstring);
    converged is outcome == "converged".
    """

    residual_norms: list = field(default_factory=list)
    correction_norms: list = field(default_factory=list)
    stability_mins: list = field(default_factory=list)
    theta_values: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    outcome: str = ""
    metadata: dict = field(default_factory=dict)


def smooth_cutoff(obj, theta):
    """Frequency truncation S_theta: modes with |k| > theta are dropped.

    Acts on a single field or on every array of a Trajectory (the
    second-derivative record included).  On the analytic scale this family
    satisfies ||S_theta f - f||_{H^m} <= theta^{m-s} ||f||_{H^s} for
    m <= s with constant one, which is the only property the iteration
    uses.
    """
    if not theta > 0.0:
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
        "norm_order": NORM_ORDER,
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

    Returns (trajectory, report) on every outcome, where the trajectory
    is phi^a + u on the solver mesh with the corrections accepted so far
    and report.outcome says how the run ended.
    """
    sim = cfg.sim
    grid = TorusGrid(sim.grid_n)
    if data.grid.n != grid.n:
        raise ValueError("data grid does not match the configured grid")

    lift = build_lifting(data, sim.mu, sim.delta)
    # phi^a and its time derivatives on the solver stage mesh, where every
    # linearized solve reads its base, and at the nodes, every second stage
    stage_times = sim.stage_times()
    lift_stages = lift.states(stage_times)
    phi_a_stages = lift_stages[0]
    times, lift_states = stage_times[::2], tuple(a[::2] for a in lift_stages)
    phi_a, _, phitt_a = lift_states

    # the correction u and its first two time derivatives on the mesh
    u = [np.zeros_like(phi_a) for _ in range(3)]

    spec = WeightedNormSpec(sim.gamma)
    theta = cfg.theta0
    report = IterationReport(metadata=_metadata(cfg))

    while True:
        # residual F^a - L[u] = mu phi_xx + N(phi) - phi_tt of phi = phi^a + u,
        # and the stability of phi, all nodes at once
        phi_tot = phi_a + u[0]
        _, stab_min = stability_coefficient(phi_tot, sim.mu)
        r_series = Trajectory(
            times, nonlinear_operator(phi_tot, sim.mu) - (phitt_a + u[2]))
        rs, cs = report.residual_norms, report.correction_norms
        rs.append(float(ym_norm(r_series, spec, NORM_ORDER)))
        report.stability_mins.append(float(stab_min))
        # the first check that holds names the outcome
        if stab_min < 0.5 * sim.delta:
            report.outcome = "stability_aborted"
        elif rs[-1] < cfg.residual_tol:
            report.outcome = "converged"
        elif len(rs) >= 4 and rs[-1] > rs[-2] > rs[-3] > rs[-4]:
            report.outcome = "diverged"
        elif cs and cs[-1] <= STALL_RATIO * max(cs):
            report.outcome = "stalled"
        elif len(cs) >= cfg.max_iters:
            report.outcome = "exhausted_max_iters"
        if report.outcome:
            break

        # linearize at phi^a + u and solve for the correction
        u_eval = field_evaluator(Trajectory(times, u[0]), grid)
        v_traj, _ = solve_linearized(
            sim, base=lambda ts: phi_a_stages + u_eval(ts), forcing=r_series)
        v_cut = smooth_cutoff(v_traj, theta)
        report.correction_norms.append(float(xm_norm(v_traj, spec, NORM_ORDER)["total"]))
        report.theta_values.append(float(theta))

        u = [a + v for a, v in zip(u, (v_cut.phi, v_cut.phit, v_cut.phitt))]
        theta *= cfg.theta_growth

    report.converged = report.outcome == "converged"
    report.iterations = len(report.correction_norms)
    traj = Trajectory(times, *(s + a for s, a in zip(lift_states, u)))
    return traj, report


def iterate_auto(cfg, data, max_halvings=0):
    """iterate with automatic horizon reduction.

    While the outcome is "diverged" the time horizon is halved (keeping
    the node count an integer by adjusting dt with it) and the solve
    restarted, up to max_halvings times; returns the last run's
    (trajectory, report), whatever its outcome.  With max_halvings 0 this
    is iterate.
    """
    if max_halvings < 0:
        raise ValueError("max_halvings must be nonnegative")
    traj, report = iterate(cfg, data)
    for _ in range(max_halvings):
        if report.outcome != "diverged":
            break
        sim = cfg.sim
        steps = max(2, sim.num_steps() // 2)
        half = sim.t_final / 2.0
        cfg = replace(cfg, sim=replace(sim, t_final=half, dt=half / steps))
        traj, report = iterate(cfg, data)
    return traj, report
