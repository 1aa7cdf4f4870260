"""Benchmark of the amp-sheet CLI on one seeded workload.

    python3 perfbench/run.py --workload simulate --seed 0 --seconds 20 --trace 0

Runs units of the workload (see workloads.py) for about --seconds, checks
every unit's artifacts (see checks.py) and prints, as the last line of
standard output, one JSON object:

    {"correct": bool, "attempted": n, "failed": k, "metrics": {...}}

Every time is reported in seconds at nominal machine speed (see
calibrate.py): the benchmark times its own fixed kernel between units and
divides each unit's wall time by the slowdown measured around it; it
divides each set-up probe by the start-up slowdown of reference
interpreters started on either side of it.  Before the result line,
standard error gets one line ``perfbench: raw {...}`` with the
uncalibrated medians and the median slowdowns, so the calibration can be
audited.

With --trace 0 the metrics are the end-to-end ones: setup_s (median over
fresh interpreters of importing amp_sheet.cli and generating the inputs),
wall_s (median seconds of one timed invocation), work_per_s (median work
per second, in the workload's unit) and peak_rss_mb (this process plus
its largest child, the campaign pool workers included).

With --trace 1 the run splits --seconds between untraced and traced units
and reports the per-layer metrics of tracing.LAYER_METRICS: per-unit
medians from the traced half, jobs_speedup and trace.overhead_s from the
comparison of the halves.  The last traced unit's spans are written to
.perfbench/trace-<workload>-seed<seed>.json.

There is no separate warm-up unit: the first unit's one-off costs (FFT
plan caches, lazily filled lookup tables) are one sample of the median.
Work files go to a temporary directory under .perfbench/ that is removed
on exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import checks
import workloads
from tracing import LAYER_METRICS, Tracer, unit_layer_metrics

WORK_ROOT = workloads.ROOT / ".perfbench"
SETUP_PROBES = 11
MIN_UNITS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


@dataclass
class Unit:
    results: list
    outcome: checks.UnitOutcome
    #: machine slowdown around the unit, the mean of the calibrations on either side
    slowdown: float


class UnitRunner:
    """Runs and checks units of one workload, counting attempts and failures."""

    def __init__(self, cli, inputs, workdir, reference):
        self.cli = cli
        self.inputs = inputs
        self.workdir = Path(workdir)
        self.reference = reference
        self.context = checks.direct_context(cli, inputs, self.workdir)
        self.attempted = 0
        self.failed = 0
        self._slowdown = calibrate.slowdown()

    def unit(self, tracer=None):
        """Run, calibrate after, and check one unit."""
        results = workloads.run_unit(self.cli, self.inputs, self.workdir,
                                     self.attempted, tracer)
        before, self._slowdown = self._slowdown, calibrate.slowdown()
        outcome = checks.check_unit(self.inputs, results, self.context, self.reference)
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            print(f"perfbench: unit {self.attempted - 1} failed: "
                  + "; ".join(outcome.problems), file=sys.stderr)
        for res in results:
            shutil.rmtree(res.output, ignore_errors=True)
        return Unit(results, outcome, 0.5 * (before + self._slowdown))

    def loop(self, seconds, on_unit=None, tracer=None):
        """Run units until `seconds` have passed (at least MIN_UNITS)."""
        deadline = time.perf_counter() + seconds
        done = []
        while len(done) < MIN_UNITS or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.reset()
            unit = self.unit(tracer)
            done.append(unit)
            if on_unit is not None:
                on_unit(unit)
        return done

    def nominal(self, units, timed=True, calibrated=True):
        """Nominal (or, uncalibrated, raw) seconds of the timed (or untimed)
        invocations of `units`."""
        labels = {inv.label for inv in self.inputs.invocations if inv.timed == timed}
        return [r.seconds / (u.slowdown if calibrated else 1.0)
                for u in units for r in u.results if r.label in labels]


def raw_figures(runner, units):
    """Uncalibrated median wall seconds and median slowdown of `units`."""
    return {"wall_s": statistics.median(runner.nominal(units, calibrated=False)),
            "slowdown": statistics.median(u.slowdown for u in units)}


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_seconds(workload, seed):
    """Median nominal seconds over fresh interpreters of reaching an imported
    CLI with the inputs generated (the probe prints its perf_counter there),
    and the raw figures: median wall seconds and median start-up slowdown.

    Set-up time follows the start-up slowdown (calibrate.start_slowdown)
    much more closely than the kernel's, so each probe is divided by the
    mean of the start-up slowdowns measured on either side of it.
    """
    samples, walls, slowdowns = [], [], []
    slow = calibrate.start_slowdown()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        before, slow = slow, calibrate.start_slowdown()
        walls.append(float(proc.stdout.split()[-1]) - t0)
        slowdowns.append(0.5 * (before + slow))
        samples.append(walls[-1] / slowdowns[-1])
    return statistics.median(samples), {"setup_s": statistics.median(walls),
                                        "start_slowdown": statistics.median(slowdowns)}


def end_to_end(runner, seconds):
    units = runner.loop(seconds)
    walls = runner.nominal(units)
    rates = [u.outcome.work / w for u, w in zip(units, walls)]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, raw_figures(runner, units)


def per_layer(runner, seconds, trace_path):
    inputs = runner.inputs
    timed = next(inv for inv in inputs.invocations if inv.timed)
    pairs = inputs.invocations[0].config.get("pairs", 0)
    tracer = Tracer()
    samples = []

    def collect(unit):
        campaign = None
        if len(unit.results) > 1:
            campaign = next(r.span_range for r in unit.results if r.label == timed.label)
        m = unit_layer_metrics(
            tracer.spans, tracer.counters, trajectories=pairs, facts=unit.outcome.facts,
            bytes_written=unit.outcome.bytes_written, campaign_range=campaign,
            campaign_samples=unit.outcome.work if campaign else 0)
        for name, value in m.items():  # times to nominal speed, like wall_s
            unit_name = LAYER_METRICS[name][0]
            if unit_name in ("s", "us"):
                m[name] = value / unit.slowdown
            elif unit_name == "1/s":
                m[name] = value * unit.slowdown
        samples.append(m)

    plain = runner.loop(seconds / 2.0)
    tracer.install()
    try:
        traced = runner.loop(seconds / 2.0, on_unit=collect, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(trace_path, workload=inputs.workload.name, seed=inputs.seed,
                unit=runner.attempted - 1)

    metrics = {name: statistics.median(m[name] for m in samples) for name in samples[0]}
    plain_wall = statistics.median(runner.nominal(plain))
    baseline = runner.nominal(plain, timed=False)
    metrics["analysis.campaign.jobs_speedup"] = (
        statistics.median(baseline) / plain_wall if baseline else 0.0)
    metrics["trace.overhead_s"] = statistics.median(runner.nominal(traced)) - plain_wall
    return ({name: (metrics[name], unit) for name, (unit, _) in LAYER_METRICS.items()},
            raw_figures(runner, plain))


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = workloads.load_cli()
    except (workloads.CheckoutError, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    inputs = workloads.generate(args.workload, args.seed)
    WORK_ROOT.mkdir(exist_ok=True)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
            workloads.write_configs(inputs, work)
            print(time.perf_counter())
        return 0

    reference = checks.load_reference(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
        workloads.write_configs(inputs, work)
        runner = UnitRunner(cli, inputs, work, reference)
        if args.trace:
            trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, raw = per_layer(runner, args.seconds, trace_path)
        else:
            metrics, raw = end_to_end(runner, args.seconds)
            setup, setup_raw = setup_seconds(args.workload, args.seed)
            metrics["setup_s"] = (setup, "s")
            raw.update(setup_raw)
    print("perfbench: raw " + json.dumps(raw), file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
