"""Command-line orchestration: run simulations, verification campaigns,
and the smoothed Newton solve from JSON configs; write CSV/JSON artifacts.

Design rules: every command reads its config through one reader against
one {key: default} table, and rejects unknown keys, missing required keys
and values whose JSON type differs from the default's.  Artifacts are
deterministic (no timestamps, sorted JSON keys, 17-significant-digit CSV
numbers) and every file embeds the resolved config, every key with its
default filled in, and the package version; that config fed back as
--config reproduces the artifacts byte for byte on the same machine and
BLAS kernel (kernels with K m <= 10000 transform by BLAS table
products, whose last bits depend on the kernel).  Exit codes: 0 success,
1 hard verification failure, 2 config or usage error (a time step above
the CFL limit included), 3 completed-with-flags (stability crossing,
blow-up, non-convergence).

Every library name is read through the package namespace (`lib.name`)
when a command runs, never at import, so importing this module loads no
other module of the package, and `simulate`, `linearized` and `growth`
never load `analysis` or `nash_moser`.
"""

import csv
import inspect
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

import amp_sheet as lib
from . import __version__

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config plumbing


def _defaults(fn, *names):
    """{parameter: default} of a function or dataclass, over all or the
    named parameters; a parameter without a default is a required key and
    maps to its annotated type."""
    params = inspect.signature(fn, eval_str=True).parameters
    return {k: p.annotation if p.default is p.empty else p.default
            for k, p in params.items() if not names or k in names}


def _sim_keys(*left_out):
    """The solver keys but `left_out`: mu and delta required, the rest with
    SimConfig's defaults.  The solver commands leave out gamma, the norm
    weight that only Newton and the estimates read, and `growth` also
    delta, the margin that a run without a base never reads."""
    return {k: d for k, d in _defaults(lib.SimConfig).items() if k not in left_out}


_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", list: "a list"}


def _typed(key, value, default):
    """`value` checked against the type of `default` (a required key's
    default is the type itself): an int takes a JSON integer, a float any
    number a float holds (cast to float), a bool true/false, a list a list
    of its first element's type.  A None default passes the value on to its
    validator."""
    if default is None:
        return value
    kind = default if isinstance(default, type) else type(default)
    if kind is list and isinstance(value, list):
        return [_typed(key, x, default[0]) for x in value]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
        if kind is float and abs(value) > sys.float_info.max:
            raise ValueError(f"config key {key!r} holds an integer too large for a float")
        return float(value) if kind is float else value
    raise ValueError(f"config key {key!r} holds {json.dumps(value)}, expected {_KINDS[kind]}")


def _not_json(name):
    raise ValueError(f"config holds {name}, which is not JSON")


def _finite(text):
    """The float a JSON number reads as, which must not overflow to inf."""
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"config holds {text}, which overflows a float")
    return value


def _read_config(path, table):
    """The resolved config of a command: the JSON object at `path` (none:
    {}) checked against `table`, {key: default} or a function of the raw
    object that returns one, and completed with the defaults.  Unknown
    keys, missing required keys, values of the wrong type and integers too
    large for a float key raise ValueError naming the key; NaN or
    Infinity, which are not JSON, and numbers that overflow a float,
    ValueError naming the constant or the number."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh, parse_constant=_not_json, parse_float=_finite)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"config {path} must hold a JSON object")
    if callable(table):
        table = table(raw)
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(k for k, d in table.items() if isinstance(d, type) and k not in raw)
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    return {k: _typed(k, raw[k], d) if k in raw else d for k, d in table.items()}


def _pick(cfg, table):
    """The entries of cfg whose keys are in table, as keyword arguments."""
    return {k: cfg[k] for k in table if k in cfg}


def _build_field(grid, spec, label):
    """Field from {"cos": {"k": amp}, "sin": {"k": amp}} with string modes;
    None is the zero field.  Raises ValueError on a malformed spec."""
    out = lib.zeros(grid)
    if spec is None:
        return out
    if not isinstance(spec, dict):
        raise ValueError(f"{label} must be an object with cos/sin keys")
    unknown = sorted(set(spec) - {"cos", "sin"})
    if unknown:
        raise ValueError(f"{label}: unknown keys {', '.join(unknown)}")
    for kind, builder in (("cos", lib.cosine), ("sin", lib.sine)):
        table = spec.get(kind, {})
        if not isinstance(table, dict):
            raise ValueError(f"{label}.{kind} must map mode -> amplitude")
        for mode_str, amp in sorted(table.items()):
            try:
                k = int(mode_str)
            except ValueError:
                raise ValueError(f"{label}.{kind}: bad mode {mode_str!r}") from None
            if not 1 <= k <= grid.n // 2 - 1:
                raise ValueError(f"{label}.{kind}: mode {k} outside [1, {grid.n // 2 - 1}]")
            out = out + builder(grid, k, _typed(f"{label}.{kind}.{mode_str}", amp, 0.0))
    return out


def _cauchy_data(grid, cfg):
    return lib.CauchyData(_build_field(grid, cfg["phi0"], "phi0"),
                          _build_field(grid, cfg["phi1"], "phi1"))


# ---------------------------------------------------------------------------
# artifact writers


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


def _strict(value):
    """`value` with every NaN, +inf and -inf, at any depth of its dicts,
    lists and tuples, replaced by "NaN", "Infinity" and "-Infinity"; any
    other number, numpy's as float, as it is."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    return value


def _write_json(path, payload, config, quiet):
    """Strict JSON: a non-finite number is written as its string (see
    _strict), so a reader that rejects NaN and Infinity reads it."""
    body = _strict({**payload, "config": config, "version": __version__})
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(body, sort_keys=True, indent=2, default=float, allow_nan=False))
        fh.write("\n")
    if not quiet:
        click.echo(f"wrote {path}")


def _write_csv(path, header, rows, config, quiet):
    """Numbers with 17 significant digits; a cell holding a comma is quoted.
    `rows` is a 2-D float array, formatted in one pass (no number needs
    quoting), or rows of numbers and strings, written by the csv module."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# version: {__version__}\n")
        fh.write(f"# config: {json.dumps(config, sort_keys=True, default=float)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))
        else:
            writer.writerows([x if isinstance(x, str) else f"{float(x):.17g}" for x in row]
                             for row in rows)
    if not quiet:
        click.echo(f"wrote {path}")


def _write_modes(out, traj, config, quiet):
    """final_modes.csv: phi and phi_t at the last node, mode by mode."""
    phi, phit = traj.phi[-1], traj.phit[-1]
    _write_csv(out / "final_modes.csv", ("k", "phi_re", "phi_im", "phit_re", "phit_im"),
               np.column_stack((traj.grid.modes, phi.real, phi.imag, phit.real, phit.imag)),
               config, quiet)


def _write_solve(out, command, traj, monitor, config, quiet, **summary):
    """trajectory.csv, final_modes.csv and summary.json of one solve."""
    _write_csv(out / "trajectory.csv", ("t", "h1_phi", "h1_phit", "min_stability"),
               np.column_stack((traj.times, lib.sobolev_norm(traj.phi, 1),
                                lib.sobolev_norm(traj.phit, 1), monitor["min_stability_coeff"])),
               config, quiet)
    _write_modes(out, traj, config, quiet)
    _write_json(out / "summary.json", {
        "command": command,
        "steps_kept": len(traj),
        "flags": monitor["flags"],
        "final_h1": lib.sobolev_norm(traj.phi[-1], 1),
        **summary,
    }, config, quiet)


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


class _Commands(click.Group):
    """The command group.  A ValueError out of a command, from the config
    reader, a field spec or parameters the numerics reject, is a usage
    error: exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="amp-sheet")
def main():
    """Simulator and verification harness for the nonlocal quadratic
    amplitude equation on the torus."""


@main.command()
@common_options
def simulate(config_path, output_dir, quiet):
    """Integrate the nonlinear equation from configured Cauchy data."""
    keys = _sim_keys("gamma")
    cfg = _read_config(config_path, {**keys, "phi0": None, "phi1": None})
    sim = lib.SimConfig(**_pick(cfg, keys))
    data = _cauchy_data(lib.TorusGrid(sim.grid_n), cfg)
    out = _resolve_output(output_dir)

    traj, monitor = lib.solve_nonlinear(sim, data)
    _write_solve(out, "simulate", traj, monitor, cfg, quiet,
                 min_stability=float(np.min(monitor["min_stability_coeff"])))
    sys.exit(3 if monitor["flags"] else 0)


@main.command()
@common_options
def linearized(config_path, output_dir, quiet):
    """Integrate the linearized equation around a configured base, whose
    stability coefficient must stay at or above delta/2 (exit 2 if not)."""
    keys = _sim_keys("gamma")
    cfg = _read_config(config_path, {
        **keys, "base": None, "phi0": None, "phi1": None, "forcing_profile": None,
        "envelope_center": 0.0, "envelope_width": 0.0,
    })
    sim = lib.SimConfig(**_pick(cfg, keys))
    grid = lib.TorusGrid(sim.grid_n)
    base, forcing = _base_and_forcing(cfg, sim, _build_field(
        grid, cfg["forcing_profile"], "forcing_profile"))
    initial = _cauchy_data(grid, cfg)
    out = _resolve_output(output_dir)

    traj, monitor = lib.solve_linearized(sim, base=base, forcing=forcing,
                                         initial_state=initial)
    _write_solve(out, "linearized", traj, monitor, cfg, quiet)
    sys.exit(3 if monitor["flags"] else 0)


@main.command()
@common_options
def growth(config_path, output_dir, quiet):
    """Measure modal growth rates of the linearized flow without a base:
    one solve from every mode on its pure-growth branch phi1 = k sqrt(|mu|)
    phi0 (the modes do not couple, but share one horizon), and one fit of
    the amplitude (|phi_k|^2 + |phi_k,t|^2 / (k^2 mu))^(1/2), which a neutral
    mode (mu > 0) conserves, or |phi_k| for mu <= 0, where phi_k,t adds
    nothing on the branch but the fastest mode's round-off.  A rate off
    its expected value (k sqrt(|mu|) for mu < 0, else 0) by more than 5%
    of k sqrt(|mu|), or 1e-9 at mu = 0, exits 1; else a cut solve exits 3."""
    keys = _sim_keys("gamma", "delta")
    cfg = _read_config(config_path, {**keys, "modes": [4, 8, 16], "epsilon": 1e-6})
    # its linearized solve never aborts on the margin, so delta is not read
    sim = lib.SimConfig(**_pick(cfg, keys), delta=1.0)
    modes = cfg["modes"]
    if not modes:
        raise ValueError("config key 'modes' must hold at least one value")
    if len(set(modes)) < len(modes):
        raise ValueError("config key 'modes' repeats a mode, which would double its seed")
    for k in modes:
        if not 1 <= k <= sim.galerkin_N:
            raise ValueError(f"mode {k} outside the Galerkin band")
    grid = lib.TorusGrid(sim.grid_n)
    eps = cfg["epsilon"]
    if eps == 0.0:
        raise ValueError("config key 'epsilon' must be nonzero: a zero seed has no rate")
    out = _resolve_output(output_dir)

    speed = np.sqrt(abs(sim.mu))
    cosine, zeros = lib.cosine, lib.zeros
    data = lib.CauchyData(sum((cosine(grid, k, eps) for k in modes), zeros(grid)),
                          sum((cosine(grid, k, eps * k * speed) for k in modes), zeros(grid)))
    traj, monitor = lib.solve_linearized(sim, initial_state=data)
    # the amplitude of every mode, with 1/(k sqrt(mu)) read as 0 where mu <= 0
    omega = np.abs(grid.modes) * np.sqrt(max(sim.mu, 0.0))
    inverse = np.divide(1.0, omega, out=np.zeros_like(omega), where=omega > 0.0)
    amps = np.hypot(np.abs(traj.phi), inverse * np.abs(traj.phit))
    rates = lib.measure_mode_growth(lib.Trajectory(traj.times, amps), modes)

    rows = []
    for k in modes:
        expected = k * speed if sim.mu < 0 else 0.0
        err = abs(rates[k] - expected)
        # no relative error against a zero expected rate (mu >= 0)
        rows.append((float(k), rates[k], expected, err, err / expected if expected else ""))
    # gate 06's 5% of k sqrt|mu|, 1e-9 at mu = 0; a NaN rate misses
    passed = all(err <= max(0.05 * k * speed, 1e-9) for k, _, _, err, _ in rows)
    _write_csv(out / "rates.csv", ("k", "rate", "expected", "abs_err", "rel_err"),
               rows, cfg, quiet)
    _write_json(out / "summary.json", {
        "command": "growth",
        "rates": {str(k): rates[k] for k in modes},
        "flags": monitor["flags"],
        "t_kept": float(traj.times[-1]),
        "passed": passed,
    }, cfg, quiet)
    # elliptic_regime marks every mu <= 0 run; any other flag cut the solve short
    cut = any(f["type"] != "elliptic_regime" for f in monitor["flags"])
    sys.exit(1 if not passed else 3 if cut else 0)


@main.command("verify-identities")
@common_options
def verify_identities_cmd(config_path, output_dir, quiet):
    """Run the Hilbert-transform identity battery."""
    cfg = _read_config(config_path, _defaults(lib.verify_hilbert_identities))
    if cfg["samples"] < 1:
        raise ValueError("config key 'samples' must be at least 1")
    out = _resolve_output(output_dir)

    report = lib.verify_hilbert_identities(**cfg)
    _write_json(out / "identities.json", {
        "command": "verify-identities",
        "report": report,
    }, cfg, quiet)
    if not quiet:
        worst = max(report["identities"].values())
        click.echo(f"identities: {'PASS' if report['passed'] else 'FAIL'} "
                   f"(worst defect {worst:.3e})")
    sys.exit(0 if report["passed"] else 1)


def _window(times, center, width):
    """The bump window and its first two derivatives at `times`, as three
    (T, 1) columns that scale a profile's coefficients row by row; a width
    of 0 or less, which would window the profile away, is a config error."""
    if width <= 0.0:
        raise ValueError("config key 'envelope_width' must be positive")
    return np.array(lib.bump_window(np.asarray(times, float)[:, None], center, width))


def _run_energy(p):
    if p["pairs"] < 1:
        raise ValueError("config key 'pairs' must be at least 1")
    if not p["gammas"]:
        raise ValueError("config key 'gammas' must hold at least one value")
    grid = lib.TorusGrid(p["grid_n"])
    mu, delta, center, width = p["mu"], p["delta"], p["envelope_center"], p["envelope_width"]
    rng = np.random.default_rng(p["seed"])

    times = np.arange(-2.0 * width + center - width, p["t_final"] + 1e-12, p["dt"])
    w, wp, _ = _window(times, center, width)
    gammas = p["gammas"]
    results = []
    for _ in range(p["pairs"]):
        # base profile small enough to keep the margin, resampled if not
        for _attempt in range(100):
            base = lib.random_trig_field(grid, 4, rng, amplitude=0.02)
            if lib.stability_coefficient(base, mu)[1] >= delta:
                break
        else:
            raise ValueError(f"could not draw a base with margin delta = {delta:.6g}")
        profile = lib.random_trig_field(grid, 4, rng)
        traj = lib.Trajectory(times, w * profile.coeffs, wp * profile.coeffs)
        reports = lib.verify_energy_estimates(base, traj, mu, delta, gammas)
        passing = next((g for g, rep in zip(gammas, reports) if rep.passed), None)
        results.append({"first_passing_gamma": passing,
                        "ratios": {str(g): rep.ratio for g, rep in zip(gammas, reports)}})
    ok = all(r["first_passing_gamma"] is not None for r in results)
    return {"estimate": "energy", "pairs": results, "passed": ok}, ok


def _base_and_forcing(p, sim, profile):
    """Base and forcing of the linearized runs from their config keys: the
    base must keep the margin delta/2, and the forcing is `profile` under
    the envelope window, a callable of the solver's stage times, or the
    constant profile for a window of width 0 or less."""
    base = _build_field(profile.grid, p["base"], "base")
    lib.require_margin(base, sim.mu, 0.5 * sim.delta, "base profile")
    center, width = p["envelope_center"], p["envelope_width"]
    if width <= 0.0:
        return base, profile

    def forcing(ts):
        return _window(ts, center, width)[0] * profile.coeffs

    return base, forcing


def _solve_setup(p):
    """SimConfig, base and forcing of the tame and phitt runners; a zero
    forcing profile is cos x."""
    sim = lib.SimConfig(**_pick(p, _sim_keys()))
    grid = lib.TorusGrid(sim.grid_n)
    profile = _build_field(grid, p["forcing_profile"], "forcing_profile")
    if np.max(np.abs(profile.coeffs)) == 0.0:
        profile = lib.cosine(grid, 1)
    return (sim, *_base_and_forcing(p, sim, profile))


def _run_tame(p):
    if not p["m_values"]:
        raise ValueError("config key 'm_values' must hold at least one value")
    sim, base, g = _solve_setup(p)
    reports = [{"m": rep.params["m"], "constant": rep.ratio, "passed": rep.passed,
                "lhs": rep.lhs, "rhs": rep.rhs}
               for rep in lib.verify_tame_estimates(base, g, sim, p["m_values"])]
    ok = all(r["passed"] for r in reports)
    return {"estimate": "tame", "reports": reports, "passed": ok}, ok


def _run_phitt(p):
    sim, base, g = _solve_setup(p)
    traj, _ = lib.solve_linearized(sim, base=base, forcing=g)
    rep = lib.verify_phitt_estimate(base, traj, g, p["gamma"], p["m"])
    payload = {"estimate": "phitt", "constant": rep.ratio,
               "lhs": rep.lhs, "rhs": rep.rhs, "passed": rep.passed}
    return payload, rep.passed


def _run_der2(p):
    ts = np.arange(0.0, p["t_final"] + 1e-12, p["dt"])
    windows = [_window(ts, center, p["envelope_width"])[0] for center in (0.4, 0.6)]
    grid = lib.TorusGrid(p["grid_n"])
    rng = np.random.default_rng(p["seed"])
    phi, psi = (lib.Trajectory(ts, w * lib.random_trig_field(grid, 4, rng).coeffs)
                for w in windows)
    rep = lib.verify_second_derivative_estimate(phi, psi, p["gamma"], p["m"])
    payload = {"estimate": "der2", "constant": rep.ratio,
               "half_horizon_constant": rep.extras["half_horizon_constant"],
               "passed": rep.passed}
    return payload, rep.passed


def _run_forcing(p):
    data = _cauchy_data(lib.TorusGrid(p["grid_n"]), p)
    rep = lib.verify_forcing_bound(data, p["mu"], p["delta"], nu=p["nu"], gamma=p["gamma"])
    payload = {"estimate": "forcing", "order": rep.ratio,
               "shrink_ratios": rep.extras["horizon_shrink_ratios"],
               "passed": rep.passed}
    return payload, rep.passed


def _forcing_keys():
    """The forcing estimate's keys, nu and gamma with the defaults of
    verify_forcing_bound, which the table reads when the estimate runs."""
    return {"mu": 1.0, "delta": 0.75, "grid_n": 32, "phi0": None, "phi1": None,
            **_defaults(lib.verify_forcing_bound, "nu", "gamma")}


#: each estimate's runner and the config keys it reads with their defaults,
#: besides `estimate`, or a function that returns them; any other key is
#: rejected.  Only energy and der2 draw random numbers, so only they take a seed
_ESTIMATE_RUNNERS = {
    "energy": (_run_energy, {"seed": 0, "pairs": 20, "gammas": [2.0, 4.0, 8.0, 16.0],
                             "mu": 1.0, "delta": 0.9, "grid_n": 32, "dt": 2e-3,
                             "t_final": 1.5, "envelope_center": 0.75,
                             "envelope_width": 0.25}),
    "tame": (_run_tame, {"mu": 1.0, "delta": 0.8, "grid_n": 64, "galerkin_N": 21,
                         "dt": 4e-3, "t_final": 0.8, "gamma": 2.0, "base": None,
                         "forcing_profile": None, "envelope_center": 0.4,
                         "envelope_width": 0.15, "m_values": [1, 2, 3]}),
    "phitt": (_run_phitt, {"mu": 1.0, "delta": 0.9, "grid_n": 32, "galerkin_N": 8,
                           "dt": 2e-3, "t_final": 0.8, "gamma": 2.0, "base": None,
                           "forcing_profile": None, "envelope_center": 0.4,
                           "envelope_width": 0.15, "m": 2}),
    "der2": (_run_der2, {"seed": 0, "grid_n": 32, "gamma": 1.0, "m": 2, "dt": 2e-3,
                         "t_final": 1.0, "envelope_width": 0.2}),
    "forcing": (_run_forcing, _forcing_keys),
}


def _estimate_table(raw):
    """The keys of the estimate that the raw config's `estimate` selects."""
    which = raw.get("estimate")
    if not isinstance(which, str) or which not in _ESTIMATE_RUNNERS:
        raise ValueError(f"config key 'estimate' must be one of "
                         f"{', '.join(sorted(_ESTIMATE_RUNNERS))}")
    keys = _ESTIMATE_RUNNERS[which][1]
    return {"estimate": str, **(keys() if callable(keys) else keys)}


@main.command("verify-estimates")
@common_options
def verify_estimates_cmd(config_path, output_dir, quiet):
    """Check one of the quantitative estimates empirically.

    The config key `estimate` selects energy|tame|phitt|der2|forcing; the
    other keys must be ones that estimate reads.
    """
    cfg = _read_config(config_path, _estimate_table)
    which = cfg["estimate"]
    out = _resolve_output(output_dir)

    payload, ok = _ESTIMATE_RUNNERS[which][0](cfg)
    _write_json(out / f"estimate_{which}.json",
                {"command": "verify-estimates", **payload}, cfg, quiet)
    if not quiet:
        click.echo(f"estimate {which}: {'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)


@main.command("commutator-constants")
@common_options
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="worker processes for the campaign samples (at least 1)")
def commutator_constants_cmd(config_path, output_dir, quiet, jobs):
    """Estimate the constants of the commutator/product inequalities by
    randomized campaign, with a two-resolution drift check."""
    from .analysis import _LEMMAS

    cfg = _read_config(config_path, {
        "lemma": "all", "param": None, "samples": 200, "seed": 0,
        **_defaults(lib.estimate_commutator_constants, "n_lo", "n_hi", "decay"),
    })
    out = _resolve_output(output_dir)

    targets = sorted(_LEMMAS) if cfg["lemma"] == "all" else [cfg["lemma"]]
    estimates = lib.estimate_commutator_constants(
        {name: cfg["param"] for name in targets}, cfg["samples"], cfg["seed"],
        n_lo=cfg["n_lo"], n_hi=cfg["n_hi"], decay=cfg["decay"], jobs=jobs,
    )
    rows, reports = [], {}
    for name, rep in estimates.items():
        # (param, sup_lo, sup_hi, resolution_drift, passed): the CSV columns
        entry = reports[name] = {"param": rep.params["param"], **rep.extras, "passed": rep.passed}
        param, *sups, passed = entry.values()
        rows.append((name, json.dumps(param), *sups, str(passed)))
        if not quiet:
            click.echo(f"{name}: sup {entry['sup_hi']:.6g} "
                       f"drift {entry['resolution_drift']:.3e} {'PASS' if passed else 'FAIL'}")
    all_ok = all(rep.passed for rep in estimates.values())

    _write_csv(out / "constants.csv",
               ("lemma", "param", "sup_lo", "sup_hi", "drift", "passed"),
               rows, cfg, quiet)
    _write_json(out / "constants.json", {
        "command": "commutator-constants",
        "reports": reports,
        "passed": all_ok,
    }, cfg, quiet)
    sys.exit(0 if all_ok else 1)


@main.command("nash-moser")
@common_options
def nash_moser_cmd(config_path, output_dir, quiet):
    """Run the smoothed Newton solve from configured Cauchy data; on
    divergence, halve the horizon and restart, up to max_halvings times.
    Exits 0 if the last run converged and 3 on any other outcome."""
    sim_keys = _sim_keys()
    newton_keys = _defaults(lib.IterationConfig, "theta0", "theta_growth", "max_iters",
                            "residual_tol")
    cfg = _read_config(config_path, {
        **sim_keys, "phi0": None, "phi1": None, **newton_keys,
        **_defaults(lib.iterate_auto, "max_halvings"),
    })
    sim = lib.SimConfig(**_pick(cfg, sim_keys))
    data = _cauchy_data(lib.TorusGrid(sim.grid_n), cfg)
    run_cfg = lib.IterationConfig(sim=sim, **_pick(cfg, newton_keys))
    out = _resolve_output(output_dir)

    traj, report = lib.iterate_auto(run_cfg, data, max_halvings=cfg["max_halvings"])

    # one residual more than corrections, whatever the outcome
    rows = [(float(i), *cells) for i, cells in enumerate(zip(
        report.residual_norms, report.correction_norms + [""], report.theta_values + [""],
        report.stability_mins))]
    _write_csv(out / "residuals.csv",
               ("sweep", "residual", "correction", "theta", "min_stability"),
               rows, cfg, quiet)
    _write_json(out / "nash_moser.json", {
        "command": "nash-moser",
        "outcome": report.outcome,
        "report": asdict(report),
    }, cfg, quiet)
    # a diverged or aborted run's last iterate is no solution worth keeping
    if report.outcome not in ("diverged", "stability_aborted"):
        _write_modes(out, traj, cfg, quiet)
    if not quiet:
        click.echo(f"nash-moser: {report.outcome} after {report.iterations} corrections")
    sys.exit(0 if report.converged else 3)


if __name__ == "__main__":
    main()
