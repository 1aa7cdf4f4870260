"""Command-line orchestration: run simulations, verification campaigns,
and the smoothed Newton solve from JSON configs; write CSV/JSON artifacts.

Design rules: configs are fail-closed (unknown keys rejected), artifacts
are deterministic (no timestamps, sorted JSON keys, 17-significant-digit
CSV numbers) and every file embeds the resolved config and the package
version.  Exit codes: 0 success, 1 hard verification failure, 2 config or
usage error, 3 completed-with-flags (stability crossing, blow-up,
non-convergence).
"""

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    estimate_commutator_constant,
    random_trig_field,
    verify_energy_estimate,
    verify_forcing_bound,
    verify_hilbert_identities,
    verify_phitt_estimate,
    verify_second_derivative_estimate,
    verify_tame_estimate,
)
from .nash_moser import (
    IterationAborted,
    IterationConfig,
    IterationDiverged,
    iterate,
    iterate_auto,
)
from .operators import CauchyData, Trajectory, bump_window, stability_coefficient
from .solver import (
    SimConfig,
    measure_mode_growth,
    solve_linearized,
    solve_nonlinear,
)
from .spectral import TorusGrid, cosine, sine, sobolev_norm, zeros

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path, allowed, required=()):
    """Load a JSON config, rejecting unknown keys (fail-closed); with
    `allowed` None the caller checks the keys itself (see _check_keys)."""
    if path is None:
        cfg = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"malformed config {path}: {exc}")
        if not isinstance(cfg, dict):
            raise click.UsageError(f"config {path} must hold a JSON object")
    if allowed is not None:
        _check_keys(cfg, allowed)
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise click.UsageError(f"missing config keys: {', '.join(missing)}")
    return cfg


def _check_keys(cfg, allowed):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise click.UsageError(f"unknown config keys: {', '.join(unknown)}")


SIM_KEYS = (
    "mu", "delta", "grid_n", "galerkin_N", "dt", "t_final",
    "gamma", "dealias", "cfl_safety",
)


def _sim_config(cfg):
    kw = {k: cfg[k] for k in SIM_KEYS if k in cfg}
    try:
        return SimConfig(**kw)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid solver parameters: {exc}")


def _build_field(grid, spec, label):
    """Field from {"cos": {"k": amp}, "sin": {"k": amp}} with string modes."""
    if spec is None:
        return zeros(grid)
    if not isinstance(spec, dict):
        raise click.UsageError(f"{label} must be an object with cos/sin keys")
    unknown = sorted(set(spec) - {"cos", "sin"})
    if unknown:
        raise click.UsageError(f"{label}: unknown keys {', '.join(unknown)}")
    out = zeros(grid)
    for kind in ("cos", "sin"):
        table = spec.get(kind, {})
        if not isinstance(table, dict):
            raise click.UsageError(f"{label}.{kind} must map mode -> amplitude")
        for mode_str, amp in sorted(table.items()):
            try:
                k = int(mode_str)
            except ValueError:
                raise click.UsageError(f"{label}.{kind}: bad mode {mode_str!r}")
            if not 1 <= k <= grid.n // 2 - 1:
                raise click.UsageError(
                    f"{label}.{kind}: mode {k} outside [1, {grid.n // 2 - 1}]"
                )
            builder = cosine if kind == "cos" else sine
            out = out + builder(grid, k, float(amp))
    return out


def _cauchy_data(grid, cfg, phi0_key="phi0", phi1_key="phi1"):
    try:
        return CauchyData(
            _build_field(grid, cfg.get(phi0_key), phi0_key),
            _build_field(grid, cfg.get(phi1_key), phi1_key),
        )
    except ValueError as exc:
        raise click.UsageError(f"invalid Cauchy data: {exc}")


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(x):
    return f"{float(x):.17g}"


def _resolve_output(output_dir):
    out = Path(output_dir) if output_dir else Path(".")
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise click.UsageError(f"output directory {out} is not writable: {exc}")
    return out


def _write_json(path, payload, config, quiet):
    body = dict(payload)
    body["config"] = config
    body["version"] = __version__
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(body, sort_keys=True, indent=2, default=float))
        fh.write("\n")
    if not quiet:
        click.echo(f"wrote {path}")


def _write_csv(path, header, rows, config, quiet):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# version: {__version__}\n")
        fh.write(f"# config: {json.dumps(config, sort_keys=True, default=float)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else _fmt(x) for x in row))
            fh.write("\n")
    if not quiet:
        click.echo(f"wrote {path}")


def _write_modes(out, traj, config, quiet):
    """final_modes.csv: phi and phi_t at the last node, mode by mode."""
    phi, phit = traj.phi[-1], traj.phit[-1]
    _write_csv(out / "final_modes.csv", ("k", "phi_re", "phi_im", "phit_re", "phit_im"),
               zip(traj.grid.modes.astype(float), phi.real, phi.imag, phit.real, phit.imag),
               config, quiet)


def _write_solve(out, command, traj, monitor, config, quiet, **summary):
    """trajectory.csv, final_modes.csv and summary.json of one solve."""
    _write_csv(out / "trajectory.csv", ("t", "h1_phi", "h1_phit", "min_stability"),
               zip(traj.times, sobolev_norm(traj.phi, 1), sobolev_norm(traj.phit, 1),
                   monitor["min_stability_coeff"]), config, quiet)
    _write_modes(out, traj, config, quiet)
    _write_json(out / "summary.json", {
        "command": command,
        "steps_kept": len(traj),
        "flags": monitor["flags"],
        "final_h1": sobolev_norm(traj.phi[-1], 1),
        **summary,
    }, config, quiet)


def _flag_exit(flags, benign=("elliptic_regime",)):
    serious = [f for f in flags if f["type"] not in benign]
    return 3 if serious else 0


# ---------------------------------------------------------------------------
# the command group


def common_options(fn):
    fn = click.option("--quiet", is_flag=True, help="suppress progress output")(fn)
    fn = click.option("--output", "output_dir", envvar="AMP_SHEET_OUTPUT",
                      type=click.Path(file_okay=False),
                      help="artifact directory (env AMP_SHEET_OUTPUT)")(fn)
    fn = click.option("--config", "config_path",
                      type=click.Path(exists=True, dir_okay=False),
                      help="JSON config file")(fn)
    return fn


#: only the commands that draw random numbers take a seed
seed_option = click.option("--seed", type=int, default=None,
                           help="override the config seed")


@click.group()
@click.version_option(version=__version__, prog_name="amp-sheet")
def main():
    """Simulator and verification harness for the nonlocal quadratic
    amplitude equation on the torus."""


@main.command()
@common_options
def simulate(config_path, output_dir, quiet):
    """Integrate the nonlinear equation from configured Cauchy data."""
    cfg = _load_config(config_path, SIM_KEYS + ("phi0", "phi1"))
    sim = _sim_config(cfg)
    grid = TorusGrid(sim.grid_n)
    data = _cauchy_data(grid, cfg)
    out = _resolve_output(output_dir)

    try:
        traj, monitor = solve_nonlinear(sim, data)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    _write_solve(out, "simulate", traj, monitor, cfg, quiet,
                 min_stability=float(np.min(monitor["min_stability_coeff"])))
    sys.exit(_flag_exit(monitor["flags"]))


@main.command()
@common_options
def linearized(config_path, output_dir, quiet):
    """Integrate the linearized equation around a configured base."""
    keys = SIM_KEYS + ("base", "phi0", "phi1", "forcing_profile",
                       "envelope_center", "envelope_width")
    cfg = _load_config(config_path, keys)
    sim = _sim_config(cfg)
    grid = TorusGrid(sim.grid_n)
    base = _build_field(grid, cfg.get("base"), "base")
    profile = _build_field(grid, cfg.get("forcing_profile"), "forcing_profile")
    center = float(cfg.get("envelope_center", 0.0))
    width = float(cfg.get("envelope_width", 0.0))

    if width > 0.0:
        def forcing(ts):
            return _window(ts, center, width)[0] * profile.coeffs
    else:
        forcing = profile

    initial = None
    if "phi0" in cfg or "phi1" in cfg:
        initial = _cauchy_data(grid, cfg)
    out = _resolve_output(output_dir)

    try:
        traj, monitor = solve_linearized(sim, base=base, forcing=forcing,
                                         initial_state=initial)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    _write_solve(out, "linearized", traj, monitor, cfg, quiet)
    sys.exit(_flag_exit(monitor["flags"]))


@main.command()
@common_options
def growth(config_path, output_dir, quiet):
    """Measure modal growth rates of the linearized flow (the elliptic
    regime mu < 0 exhibits the |k| sqrt(|mu|) instability)."""
    keys = SIM_KEYS + ("modes", "epsilon")
    cfg = _load_config(config_path, keys, required=("mu",))
    sim = _sim_config(cfg)
    grid = TorusGrid(sim.grid_n)
    modes = [int(k) for k in cfg.get("modes", [4, 8, 16])]
    eps = float(cfg.get("epsilon", 1e-6))
    out = _resolve_output(output_dir)

    rows = []
    speed = np.sqrt(abs(sim.mu))
    for k in modes:
        if not 1 <= k <= sim.galerkin_N:
            raise click.UsageError(f"mode {k} outside the Galerkin band")
        # seed the pure-growth branch: phi1 = rate * phi0
        data = CauchyData(cosine(grid, k, eps), cosine(grid, k, eps * k * speed))
        traj, _ = solve_linearized(sim, initial_state=data)
        rate = measure_mode_growth(traj, [k])[k]
        expected = k * speed if sim.mu < 0 else 0.0
        err = abs(rate - expected)
        # no relative error against a zero expected rate (mu >= 0)
        rel = err / expected if expected else ""
        rows.append((float(k), rate, expected, err, rel))

    resolved = {**cfg, "modes": modes, "epsilon": eps}
    _write_csv(out / "rates.csv", ("k", "rate", "expected", "abs_err", "rel_err"),
               rows, resolved, quiet)
    _write_json(out / "summary.json", {
        "command": "growth",
        "rates": {str(int(r[0])): r[1] for r in rows},
    }, resolved, quiet)
    sys.exit(0)


@main.command("verify-identities")
@common_options
@seed_option
def verify_identities_cmd(config_path, output_dir, seed, quiet):
    """Run the Hilbert-transform identity battery."""
    cfg = _load_config(config_path, ("samples", "grid_n", "seed"))
    samples = int(cfg.get("samples", 100))
    grid_n = int(cfg.get("grid_n", 128))
    used_seed = seed if seed is not None else int(cfg.get("seed", 0))
    out = _resolve_output(output_dir)

    report = verify_hilbert_identities(samples=samples, grid_n=grid_n,
                                       seed=used_seed)
    resolved = {"samples": samples, "grid_n": grid_n, "seed": used_seed}
    _write_json(out / "identities.json", {
        "command": "verify-identities",
        "report": report,
    }, resolved, quiet)
    if not quiet:
        worst = max(report["identities"].values())
        click.echo(f"identities: {'PASS' if report['passed'] else 'FAIL'} "
                   f"(worst defect {worst:.3e})")
    sys.exit(0 if report["passed"] else 1)


def _window(times, center, width):
    """The bump window and its first two derivatives at `times`, as three
    (T, 1) columns that scale a profile's coefficients row by row."""
    return np.array([bump_window(float(t), center, width) for t in times]).T[..., None]


def _run_energy(p, used_seed):
    grid = TorusGrid(p["grid_n"])
    mu, delta, center, width = p["mu"], p["delta"], p["envelope_center"], p["envelope_width"]
    rng = np.random.default_rng(used_seed)

    times = np.arange(-2.0 * width + center - width, p["t_final"] + 1e-12, p["dt"])
    results = []
    for _ in range(p["pairs"]):
        # base profile small enough to keep the margin, resampled if not
        for _attempt in range(100):
            base = random_trig_field(grid, 4, rng, amplitude=0.02)
            if stability_coefficient(base, mu)[1] >= delta:
                break
        else:
            raise click.ClickException("could not draw a base with margin")
        profile = random_trig_field(grid, 4, rng)
        w, wp, _ = _window(times, center, width)
        traj = Trajectory(times, w * profile.coeffs, wp * profile.coeffs)
        passing = None
        ratios = {}
        for g in p["gammas"]:
            rep = verify_energy_estimate(base, traj, mu, delta, g)
            ratios[str(g)] = rep.ratio
            if rep.passed and passing is None:
                passing = g
        results.append({"first_passing_gamma": passing, "ratios": ratios})
    ok = all(r["first_passing_gamma"] is not None for r in results)
    return {"estimate": "energy", "pairs": results, "passed": ok}, ok


def _solve_setup(p):
    """SimConfig, grid, base and forcing profile of the tame and phitt runners."""
    sim = SimConfig(**{k: p[k] for k in ("mu", "delta", "grid_n", "galerkin_N",
                                         "dt", "t_final", "gamma")})
    grid = TorusGrid(sim.grid_n)
    base = _build_field(grid, p["base"], "base")
    profile = _build_field(grid, p["forcing_profile"], "forcing_profile")
    return sim, grid, base, profile


def _forcing(sim, profile, p):
    """The profile under the envelope window, on the solver's time steps."""
    ts = np.arange(0.0, sim.t_final + 1e-12, sim.dt)
    return Trajectory(ts, _window(ts, p["envelope_center"], p["envelope_width"])[0]
                      * profile.coeffs)


def _run_tame(p, used_seed):
    sim, _, base, profile = _solve_setup(p)
    g = _forcing(sim, profile, p)
    reports = []
    for m in p["m_values"]:
        rep = verify_tame_estimate(base, g, sim, m, seed=used_seed)
        reports.append({"m": m, "constant": rep.ratio, "passed": rep.passed,
                        "lhs": rep.lhs, "rhs": rep.rhs})
    ok = all(r["passed"] for r in reports)
    return {"estimate": "tame", "reports": reports, "passed": ok}, ok


def _run_phitt(p, used_seed):
    sim, grid, base, profile = _solve_setup(p)
    if np.max(np.abs(profile.coeffs)) == 0.0:
        profile = cosine(grid, 1)
    g = _forcing(sim, profile, p)
    traj, _ = solve_linearized(sim, base=base, forcing=g)
    rep = verify_phitt_estimate(base, traj, g, p["mu"], p["gamma"], p["m"], seed=used_seed)
    payload = {"estimate": "phitt", "constant": rep.ratio,
               "lhs": rep.lhs, "rhs": rep.rhs, "passed": rep.passed}
    return payload, rep.passed


def _run_der2(p, used_seed):
    grid = TorusGrid(p["grid_n"])
    rng = np.random.default_rng(used_seed)
    ts = np.arange(0.0, p["t_final"] + 1e-12, p["dt"])

    def series(center):
        profile = random_trig_field(grid, 4, rng)
        return Trajectory(ts, _window(ts, center, p["envelope_width"])[0] * profile.coeffs)

    rep = verify_second_derivative_estimate(series(0.4), series(0.6), p["gamma"], p["m"],
                                            seed=used_seed)
    payload = {"estimate": "der2", "constant": rep.ratio,
               "half_horizon_constant": rep.extras["half_horizon_constant"],
               "passed": rep.passed}
    return payload, rep.passed


def _run_forcing(p, used_seed):
    grid = TorusGrid(p["grid_n"])
    data = CauchyData(
        _build_field(grid, p["phi0"], "phi0"),
        _build_field(grid, p["phi1"], "phi1"),
    )
    rep = verify_forcing_bound(data, p["mu"], p["delta"], nu=p["nu"], gamma=p["gamma"],
                               seed=used_seed)
    payload = {"estimate": "forcing", "order": rep.ratio,
               "shrink_ratios": rep.extras["horizon_shrink_ratios"],
               "passed": rep.passed}
    return payload, rep.passed


def _read(value, default):
    """A config value cast to the type of its default, elementwise for a
    list; a None default marks a field spec, passed through as given."""
    if default is None:
        return value
    if isinstance(default, list):
        return [type(default[0])(x) for x in value]
    return type(default)(value)


#: each estimate's runner and the config keys it reads with their defaults,
#: besides `estimate` and `seed`; any other key is rejected
_ESTIMATE_RUNNERS = {
    "energy": (_run_energy, {"pairs": 20, "gammas": [2.0, 4.0, 8.0, 16.0], "mu": 1.0,
                             "delta": 0.9, "grid_n": 32, "dt": 2e-3, "t_final": 1.5,
                             "envelope_center": 0.75, "envelope_width": 0.25}),
    "tame": (_run_tame, {"mu": 1.0, "delta": 0.8, "grid_n": 64, "galerkin_N": 21,
                         "dt": 4e-3, "t_final": 0.8, "gamma": 2.0, "base": None,
                         "forcing_profile": None, "envelope_center": 0.4,
                         "envelope_width": 0.15, "m_values": [1, 2, 3]}),
    "phitt": (_run_phitt, {"mu": 1.0, "delta": 0.9, "grid_n": 32, "galerkin_N": 8,
                           "dt": 2e-3, "t_final": 0.8, "gamma": 2.0, "base": None,
                           "forcing_profile": None, "envelope_center": 0.4,
                           "envelope_width": 0.15, "m": 2}),
    "der2": (_run_der2, {"grid_n": 32, "gamma": 1.0, "m": 2, "dt": 2e-3, "t_final": 1.0,
                         "envelope_width": 0.2}),
    "forcing": (_run_forcing, {"mu": 1.0, "delta": 0.75, "nu": 10, "gamma": 1.0,
                               "grid_n": 32, "phi0": None, "phi1": None}),
}


@main.command("verify-estimates")
@common_options
@seed_option
def verify_estimates_cmd(config_path, output_dir, seed, quiet):
    """Check one of the quantitative estimates empirically.

    The config key `estimate` selects energy|tame|phitt|der2|forcing; the
    other keys must be ones that estimate reads.
    """
    cfg = _load_config(config_path, None, required=("estimate",))
    which = cfg["estimate"]
    if not isinstance(which, str) or which not in _ESTIMATE_RUNNERS:
        raise click.UsageError(
            f"estimate must be one of {', '.join(sorted(_ESTIMATE_RUNNERS))}"
        )
    runner, defaults = _ESTIMATE_RUNNERS[which]
    _check_keys(cfg, ("estimate", "seed", *defaults))
    used_seed = seed if seed is not None else int(cfg.get("seed", 0))
    out = _resolve_output(output_dir)

    try:
        params = {k: _read(cfg.get(k, d), d) for k, d in defaults.items()}
        payload, ok = runner(params, used_seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    resolved = {**cfg, "seed": used_seed}
    _write_json(out / f"estimate_{which}.json",
                {"command": "verify-estimates", **payload}, resolved, quiet)
    if not quiet:
        click.echo(f"estimate {which}: {'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)


#: canonical lemma parameters used when the config does not pin them
_DEFAULT_LEMMA_PARAMS = {
    "A1_comm_1": 1.0,
    "A1_comm_2": 1.0,
    "A1_comm_3": 1.0,
    "A2": 2,
    "A3": (2, 1),
    "A4_prod": 2,
    "A4_comm_4": (2, 2),
    "A4_comm_5": (2, 2),
    "A5": 2,
}


@main.command("commutator-constants")
@common_options
@seed_option
@click.option("--jobs", type=int, default=1, show_default=True,
              help="worker processes for the campaign samples")
def commutator_constants_cmd(config_path, output_dir, seed, quiet, jobs):
    """Estimate the constants of the commutator/product inequalities by
    randomized campaign, with a two-resolution drift check."""
    keys = ("lemma", "param", "samples", "n_lo", "n_hi", "decay", "seed")
    cfg = _load_config(config_path, keys)
    which = cfg.get("lemma", "all")
    samples = int(cfg.get("samples", 200))
    n_lo = int(cfg.get("n_lo", 256))
    n_hi = int(cfg.get("n_hi", 512))
    decay = float(cfg.get("decay", 2.0))
    used_seed = seed if seed is not None else int(cfg.get("seed", 0))
    out = _resolve_output(output_dir)

    if which == "all":
        targets = sorted(_DEFAULT_LEMMA_PARAMS)
    elif which in _DEFAULT_LEMMA_PARAMS:
        targets = [which]
    else:
        raise click.UsageError(f"unknown lemma {which!r}")

    rows = []
    reports = {}
    all_ok = True
    for name in targets:
        param = cfg.get("param", _DEFAULT_LEMMA_PARAMS[name])
        if isinstance(param, list):
            param = tuple(param)
        try:
            rep = estimate_commutator_constant(
                name, param, samples=samples, seed=used_seed,
                n_lo=n_lo, n_hi=n_hi, decay=decay, jobs=jobs,
            )
        except ValueError as exc:
            raise click.UsageError(str(exc))
        all_ok = all_ok and rep.passed
        rows.append((name, json.dumps(param), rep.extras["sup_lo"],
                     rep.extras["sup_hi"], rep.extras["resolution_drift"],
                     str(rep.passed)))
        reports[name] = {
            "param": list(param) if isinstance(param, tuple) else param,
            "sup_lo": rep.extras["sup_lo"],
            "sup_hi": rep.extras["sup_hi"],
            "resolution_drift": rep.extras["resolution_drift"],
            "passed": rep.passed,
        }
        if not quiet:
            click.echo(f"{name}: sup {rep.extras['sup_hi']:.6g} "
                       f"drift {rep.extras['resolution_drift']:.3e} "
                       f"{'PASS' if rep.passed else 'FAIL'}")

    resolved = {**cfg, "samples": samples, "n_lo": n_lo, "n_hi": n_hi,
                "decay": decay, "seed": used_seed}
    _write_csv(out / "constants.csv",
               ("lemma", "param", "sup_lo", "sup_hi", "drift", "passed"),
               rows, resolved, quiet)
    _write_json(out / "constants.json", {
        "command": "commutator-constants",
        "reports": reports,
        "passed": all_ok,
    }, resolved, quiet)
    sys.exit(0 if all_ok else 1)


@main.command("nash-moser")
@common_options
def nash_moser_cmd(config_path, output_dir, quiet):
    """Run the smoothed Newton solve from configured Cauchy data."""
    keys = SIM_KEYS + ("phi0", "phi1", "theta0", "theta_growth", "max_iters",
                       "residual_tol", "auto", "max_halvings")
    cfg = _load_config(config_path, keys)
    sim = _sim_config(cfg)
    grid = TorusGrid(sim.grid_n)
    data = _cauchy_data(grid, cfg)
    try:
        run_cfg = IterationConfig(
            sim=sim,
            theta0=float(cfg.get("theta0", 4.0)),
            theta_growth=float(cfg.get("theta_growth", 1.5)),
            max_iters=int(cfg.get("max_iters", 20)),
            residual_tol=float(cfg.get("residual_tol", 1e-8)),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    auto = bool(cfg.get("auto", False))
    max_halvings = int(cfg.get("max_halvings", 6))
    out = _resolve_output(output_dir)

    outcome = "converged"
    try:
        if auto:
            traj, report = iterate_auto(run_cfg, data, max_halvings=max_halvings)
        else:
            traj, report = iterate(run_cfg, data)
        if not report.converged:
            outcome = "exhausted_max_iters"
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except IterationAborted as exc:
        traj, report = None, exc.report
        outcome = "stability_aborted"
    except IterationDiverged as exc:
        traj, report = None, exc.report
        outcome = "diverged"

    rows = []
    for i, r in enumerate(report.residual_norms):
        corr = report.correction_norms[i] if i < len(report.correction_norms) else ""
        theta = report.theta_values[i] if i < len(report.theta_values) else ""
        rows.append((float(i), r, corr, theta, report.stability_mins[i]))
    _write_csv(out / "residuals.csv",
               ("sweep", "residual", "correction", "theta", "min_stability"),
               rows, cfg, quiet)
    _write_json(out / "nash_moser.json", {
        "command": "nash-moser",
        "outcome": outcome,
        "report": json.loads(report.to_json()),
    }, cfg, quiet)
    if traj is not None:
        _write_modes(out, traj, cfg, quiet)
    if not quiet:
        click.echo(f"nash-moser: {outcome} after {report.iterations} corrections")
    sys.exit(0 if outcome == "converged" else 3)


if __name__ == "__main__":
    main()
