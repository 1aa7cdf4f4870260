"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/record.py --runs 10 [--first-seed 0] [--workload NAME ...]
        [--trace-runs 1] [--against LABEL] [--append LABEL --commit SHA]

For every workload this runs `BENCHMARK.json`'s command --runs times with
seeds first-seed, first-seed+1, ... (--trace 0), then --trace-runs traced
runs, and prints, per end-to-end metric, the median, the quartiles of
statistics.quantiles(n=4) and their distance as a share of the median
next to the metric's bound, and the same for the uncalibrated wall
seconds and the calibration's slowdown that each run prints to standard
error.  With --against it also prints, per metric, how much worse the
median is than in the trajectory entry of that label, as a share of the
old median, next to the bound.  With --append it adds the summary to
perfbench/trajectory.json as one entry, with the Python and numpy versions
and the core count of the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = Path(__file__).resolve().parent / "trajectory.json"


RAW_PREFIX = "perfbench: raw "


def run_once(spec, workload, seed, trace):
    """The result line of one run, with the raw figures of its stderr as "raw"."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = [line for line in proc.stderr.splitlines() if line.startswith(RAW_PREFIX)]
    result["raw"] = json.loads(raw[-1][len(RAW_PREFIX):])
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def worsening(new, old, better):
    """How much worse median `new` is than `old`, as a share of `old`."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workload", nargs="*")
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--against", metavar="LABEL")
    ap.add_argument("--append", metavar="LABEL")
    ap.add_argument("--commit", default="")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
    old = None
    if args.against:
        old = next((e for e in history if e["label"] == args.against), None)
        if old is None:
            raise SystemExit(f"no trajectory entry labelled {args.against}")

    entry = {"label": args.append, "commit": args.commit,
             "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                         "numpy": np.__version__},
             "run_seconds": spec["run_seconds"],
             "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
             "against": args.against, "workloads": {}}
    for name in names:
        runs = [run_once(spec, name, s, 0) for s in entry["seeds"]]
        summary = {m: spread([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        traced = [run_once(spec, name, s, 1) for s in entry["seeds"][:args.trace_runs]]
        raw = {k: spread([r["raw"][k] for r in runs]) for k in runs[0]["raw"]}
        entry["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "end_to_end": summary,
            "raw": raw,
            "per_layer": {m: statistics.median(r["metrics"][m]["value"] for r in traced)
                          for m in (traced[0]["metrics"] if traced else {})},
        }
        for m, s in summary.items():
            flag = "steady" if s["spread"] < bounds[m] / 3 else (
                "within bound" if s["spread"] <= bounds[m] else "TOO WIDE")
            print(f"{name:9s} {m:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f} / bound {bounds[m]}  {flag}",
                  flush=True)
            if old is not None and name in old["workloads"]:
                w = worsening(s["median"], old["workloads"][name]["end_to_end"][m]["median"],
                              better[m])
                s["worse_than_against"] = w
                print(f"{name:9s} {m:12s} worse than {args.against} by {w:+.4f} / bound "
                      f"{bounds[m]}  {'ok' if w <= bounds[m] else 'BEYOND BOUND'}", flush=True)
        for k, s in raw.items():
            print(f"{name:9s} raw {k:8s} median {s['median']:.6g}  spread {s['spread']:.4f}",
                  flush=True)
        print(f"{name:9s} attempted {entry['workloads'][name]['attempted']} "
              f"failed {entry['workloads'][name]['failed']}", flush=True)

    if args.append:
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
