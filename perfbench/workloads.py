"""The four benchmark workloads: parameters, seeded inputs, and one unit.

A unit is one in-process invocation of the `amp-sheet` CLI (``campaign``
pairs a ``--jobs 2`` invocation with a ``--jobs 1`` baseline of the same
problem).  The CLI sees only the generated JSON configs; every random
draw the benchmark makes comes from the workload seed.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy, so the numbers always describe the tree
being measured.
"""

from __future__ import annotations

import json
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """The checkout holds no importable amp_sheet package under src/."""


def load_cli():
    """Import ``amp_sheet.cli`` from this checkout's ``src/``."""
    if not (SRC / "amp_sheet" / "cli.py").is_file():
        raise CheckoutError(f"no amp_sheet package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import amp_sheet.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise CheckoutError(f"amp_sheet was imported from {cli.__file__}, not {SRC}")
    return cli


_SIM = {"mu": 1.0, "delta": 0.9, "grid_n": 64, "galerkin_N": 21, "dt": 1e-3}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: CLI config keys, plus kmax/amp0/amp1 of the initial-data draw
    params: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate",
            "amp-sheet simulate, n=64 N=21 dt=1e-3 T=1 (1000 RK4 steps, 4001 N calls):"
            " time stepping at small n, where Python overhead dominates",
            {**_SIM, "t_final": 1.0, "kmax": 3, "amp0": 0.01, "amp1": 0.003},
        ),
        Workload(
            "newton",
            "amp-sheet nash-moser, gate-10 settings n=64 N=21 dt=1e-3 max_iters=10, T=0.25:"
            " linearized solves on an interpolated base, lifting, residual loop",
            # mode 1 only, fixed amplitude: every seed takes two corrections.
            # Half gate 10's horizon: twice the units per run, a steadier median.
            {**_SIM, "t_final": 0.25, "max_iters": 10, "kmax": 1,
             "amp0": 0.01, "amp1": 0.003},
        ),
        Workload(
            "energy",
            "amp-sheet verify-estimates energy, n=32, 751 nodes, gamma 2/4/8/16,"
            " 1 pair per unit: gate-07 verifier, node loops with no time stepping",
            # one pair per unit: twice the units per run, whose median sheds
            # the machine's bursts better than fewer, longer units
            {"estimate": "energy", "grid_n": 32, "pairs": 1,
             "gammas": [2.0, 4.0, 8.0, 16.0]},
        ),
        Workload(
            "campaign",
            "amp-sheet commutator-constants, 9 lemmas x 100 samples, n=256/512,"
            " --jobs 2 paired with --jobs 1: large-n FFTs and the process pool",
            {"lemma": "all", "samples": 100, "n_lo": 256, "n_hi": 512},
        ),
    )
}


@dataclass
class Invocation:
    """One CLI call: subcommand, config, extra flags, and whether it is the
    invocation whose wall time the unit reports."""

    label: str
    command: str
    config: dict
    flags: tuple = ()
    timed: bool = True


@dataclass
class Inputs:
    workload: Workload
    seed: int
    invocations: list
    #: config of the direct solve the Newton result is held against
    direct: dict | None = None
    config_paths: dict = field(default_factory=dict)


def _rng(name, seed):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _margin(cos, sin, mu):
    """min over a fine grid of mu - 2 (H phi)_x for phi = sum cos/sin modes.

    With H cos kx = sin kx and H sin kx = -cos kx, (H phi)_x has the same
    cos/sin coefficients as phi, each multiplied by k.  4096 points contain
    every node of the solver's n=64 grid, so this minimum is never above
    the one the CLI checks.
    """
    x = 2.0 * np.pi * np.arange(4096) / 4096
    hx = np.zeros_like(x)
    for k, a in cos.items():
        hx += int(k) * a * np.cos(int(k) * x)
    for k, b in sin.items():
        hx += int(k) * b * np.sin(int(k) * x)
    return float(np.min(mu - 2.0 * hx))


def _low_mode_field(rng, kmax, amp):
    """{"cos": {k: a}, "sin": {k: b}}: mode k has amplitude amp/k^2 and a
    random phase.  Only the phases vary with the seed, so the CLI's work
    (how many Newton corrections, say) does not depend on the draw."""
    phase = rng.uniform(0.0, 2.0 * np.pi, kmax)
    modes = range(1, kmax + 1)
    return {
        "cos": {str(k): float(amp / k**2 * np.cos(phase[k - 1])) for k in modes},
        "sin": {str(k): float(amp / k**2 * np.sin(phase[k - 1])) for k in modes},
    }


def _cauchy_config(rng, p):
    sim = {k: p[k] for k in ("mu", "delta", "grid_n", "galerkin_N", "dt", "t_final")}
    for _ in range(1000):
        phi0 = _low_mode_field(rng, p["kmax"], p["amp0"])
        if _margin(phi0["cos"], phi0["sin"], p["mu"]) >= p["delta"]:
            break
    else:
        raise RuntimeError("could not draw initial data with the stability margin")
    phi1 = _low_mode_field(rng, p["kmax"], p["amp1"])
    return {**sim, "phi0": phi0, "phi1": phi1}


def generate(name, seed):
    """The inputs of workload `name` for `seed`; equal seeds give equal inputs."""
    wl = WORKLOADS[name]
    p = wl.params
    rng = _rng(name, seed)
    if name == "simulate":
        return Inputs(wl, seed, [Invocation("run", "simulate", _cauchy_config(rng, p))])
    if name == "newton":
        cfg = _cauchy_config(rng, p)
        return Inputs(wl, seed,
                      [Invocation("run", "nash-moser", {**cfg, "max_iters": p["max_iters"]})],
                      direct=cfg)
    cli_seed = int(rng.integers(0, 2**31 - 1))
    if name == "energy":
        return Inputs(wl, seed, [Invocation("run", "verify-estimates",
                                            {**p, "seed": cli_seed})])
    if name == "campaign":
        cfg = {**p, "seed": cli_seed}
        return Inputs(wl, seed, [
            Invocation("jobs2", "commutator-constants", cfg, ("--jobs", "2")),
            Invocation("jobs1", "commutator-constants", cfg, ("--jobs", "1"), timed=False),
        ])
    raise KeyError(name)


def write_configs(inputs, directory):
    """Write each invocation's config (and the direct-solve config) as JSON."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    configs = {inv.label: inv.config for inv in inputs.invocations}
    if inputs.direct is not None:
        configs["direct"] = inputs.direct
    for label, cfg in configs.items():
        path = directory / f"{inputs.workload.name}-{label}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        inputs.config_paths[label] = path
    return inputs


def invoke(cli, command, config_path, output_dir, flags=()):
    """Run one CLI command in-process; returns (exit code, seconds).

    The exit code is what the `amp-sheet` executable would return: the
    command's sys.exit code, a Click exception's code, or None when an
    unexpected exception escaped (printed to stderr).
    """
    import click

    args = [command, "--config", str(config_path), "--output", str(output_dir),
            "--quiet", *flags]
    t0 = time.perf_counter()
    try:
        cli.main.main(args, standalone_mode=False, prog_name="amp-sheet")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except click.ClickException as exc:
        code = exc.exit_code
    except Exception:  # noqa: BLE001 - a crash is one failed unit, not a crashed run
        import traceback

        traceback.print_exc(file=sys.stderr)
        code = None
    return code, time.perf_counter() - t0


@dataclass
class InvocationResult:
    label: str
    code: int | None
    seconds: float
    output: Path
    span_range: tuple = (0, 0)


def run_unit(cli, inputs, workdir, index, tracer=None):
    """Run one unit; returns its InvocationResults in execution order.

    The campaign pair alternates which invocation goes first, so neither
    side always runs on the warmer cache.
    """
    invs = list(inputs.invocations)
    call = tracer.spanned("cli.main", invoke) if tracer else invoke
    if len(invs) > 1 and index % 2:
        invs.reverse()
    results = []
    for inv in invs:
        out = Path(workdir) / f"u{index:04d}-{inv.label}"
        lo = len(tracer.spans) if tracer else 0
        code, seconds = call(cli, inv.command, inputs.config_paths[inv.label], out, inv.flags)
        hi = len(tracer.spans) if tracer else 0
        results.append(InvocationResult(inv.label, code, seconds, out, (lo, hi)))
    return results
