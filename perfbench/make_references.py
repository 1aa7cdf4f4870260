"""Regenerate the stored reference results the benchmark checks units against.

    python3 perfbench/make_references.py [--seeds 32] [--workload NAME ...]

Runs one unit per workload and seed 0..seeds-1 with the checks that need
no reference, and writes each unit's fingerprint (final modes, estimate
ratios, campaign constants, iteration counts) to
perfbench/references/<workload>.json.  Only run this on a commit whose
results are trusted: the references are what later commits are held to.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import checks
import workloads


def fingerprint(cli, name, seed, workdir):
    inputs = workloads.write_configs(workloads.generate(name, seed), workdir)
    context = checks.direct_context(cli, inputs, workdir)
    results = workloads.run_unit(cli, inputs, workdir, 0)
    outcome = checks.check_unit(inputs, results, context)
    if not outcome.ok:
        raise SystemExit(f"{name} seed {seed} fails its checks: {outcome.problems}")
    return outcome.facts["fingerprint"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=32)
    ap.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS),
                    choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    cli = workloads.load_cli()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    workloads.ROOT.joinpath(".perfbench").mkdir(exist_ok=True)
    for name in args.workload:
        refs = {}
        for seed in range(args.seeds):
            with tempfile.TemporaryDirectory(dir=workloads.ROOT / ".perfbench") as work:
                refs[str(seed)] = fingerprint(cli, name, seed, work)
            print(f"{name} seed {seed}: ok", file=sys.stderr, flush=True)
        path = checks.REFERENCE_DIR / f"{name}.json"
        lines = [f"{json.dumps(seed)}: {json.dumps(fp, sort_keys=True)}"
                 for seed, fp in refs.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
