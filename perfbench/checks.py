"""Output checks for one benchmark unit.

A unit passes when every invocation exits with the expected code, the
artifacts agree with themselves (summary figures against the CSVs they
summarize), the artifact's own pass/converge fields hold, the workload's
acceptance criterion holds (Newton within 1e-4 of the direct solve as in
gate 10, campaign drift below 0.10 as in gate 08), and, for the seeds the
benchmark ships references for, the result agrees with the reference.

Reference tolerances admit round-off and a documented O(dt^2) change of
the Galerkin stage projection (about 1e-9 at dt = 1e-3): final modes to
1e-6 of the largest mode, estimate ratios and campaign constants to a
relative 1e-6.  A perturbed final mode or a changed iteration count fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

MODE_ATOL = 1e-6     # of the largest reference mode
RATIO_RTOL = 1e-6
SELF_RTOL = 1e-10    # artifact against itself: 17-digit CSVs, one recomputation
PASS_FACTOR = 1.05   # verify_energy_estimate passes when lhs <= 1.05 rhs


@dataclass
class UnitOutcome:
    problems: list = field(default_factory=list)
    work: int = 0
    bytes_written: int = 0
    #: workload facts the traced run reports (Newton sweeps and corrections)
    facts: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.problems


def read_csv(path):
    """(header, rows of floats) of an artifact CSV, skipping '#' lines;
    empty cells read as NaN."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(x) if x else math.nan for x in ln.split(",")] for ln in lines[1:] if ln]
    return header, np.array(rows)


def read_modes(directory):
    """(k, phi, phit) from final_modes.csv, coefficients complex."""
    _, a = read_csv(Path(directory) / "final_modes.csv")
    return a[:, 0].astype(int), a[:, 1] + 1j * a[:, 2], a[:, 3] + 1j * a[:, 4]


def h1_norm(k, c):
    return float(np.sqrt(np.sum((1.0 + np.abs(k)) ** 2 * np.abs(c) ** 2) / (2.0 * np.pi)))


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _bytes(directory):
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _check_band(problems, k, c, cutoff, label):
    """Galerkin output: nothing outside 1 <= |k| <= cutoff, conjugate symmetric."""
    scale = float(np.max(np.abs(c)))
    if np.any(c[(np.abs(k) > cutoff) | (k == 0)] != 0):
        problems.append(f"{label}: energy outside the band 1 <= |k| <= {cutoff}")
    if np.max(np.abs(np.conj(c[::-1]) - c), initial=0.0) > 1e-12 * scale:
        problems.append(f"{label}: coefficients not conjugate symmetric")


def _final_state(directory, cutoff):
    k, phi, phit = read_modes(directory)
    pos = (k >= 1) & (k <= cutoff)
    return k, phi, phit, {
        "phi": np.column_stack([phi[pos].real, phi[pos].imag]).ravel().tolist(),
        "phit": np.column_stack([phit[pos].real, phit[pos].imag]).ravel().tolist(),
    }


# ---------------------------------------------------------------------------
# per workload


def _simulate(inputs, results, context, out):
    (res,) = results
    cfg = inputs.invocations[0].config
    steps = round(cfg["t_final"] / cfg["dt"])
    p = out.problems
    summary = json.loads((res.output / "summary.json").read_text())
    if summary["flags"]:
        p.append(f"solver flags raised: {summary['flags']}")
    if summary["steps_kept"] != steps + 1:
        p.append(f"steps_kept {summary['steps_kept']} != {steps + 1}")
    k, phi, phit, fp = _final_state(res.output, cfg["galerkin_N"])
    _check_band(p, k, phi, cfg["galerkin_N"], "final phi")
    _check_band(p, k, phit, cfg["galerkin_N"], "final phi_t")
    if not _close(h1_norm(k, phi), summary["final_h1"], SELF_RTOL):
        p.append("summary final_h1 disagrees with final_modes.csv")
    _, traj = read_csv(res.output / "trajectory.csv")
    if traj.shape[0] != steps + 1:
        p.append(f"trajectory.csv has {traj.shape[0]} rows, expected {steps + 1}")
    else:
        if not _close(traj[-1, 1], h1_norm(k, phi), SELF_RTOL):
            p.append("last trajectory h1_phi disagrees with final_modes.csv")
        if not _close(traj[-1, 2], h1_norm(k, phit), SELF_RTOL):
            p.append("last trajectory h1_phit disagrees with final_modes.csv")
        if float(np.min(traj[:, 3])) != summary["min_stability"]:
            p.append("summary min_stability disagrees with trajectory.csv")
    if summary["min_stability"] < 0.5 * cfg["delta"]:
        p.append(f"stability margin fell to {summary['min_stability']}")
    out.work = summary["steps_kept"] - 1
    return {"steps_kept": summary["steps_kept"], **fp}


def _newton(inputs, results, context, out):
    (res,) = results
    cfg = inputs.invocations[0].config
    p = out.problems
    body = json.loads((res.output / "nash_moser.json").read_text())
    rep = body["report"]
    if body["outcome"] != "converged" or not rep["converged"]:
        p.append(f"Newton outcome {body['outcome']}")
    if not rep["iterations"] <= cfg["max_iters"]:
        p.append(f"{rep['iterations']} corrections exceed max_iters")
    if len(rep["residual_norms"]) != rep["iterations"] + 1:
        p.append("residual count is not corrections + 1")
    if not rep["residual_norms"][-1] < 1e-8:
        p.append(f"final residual {rep['residual_norms'][-1]:.3e} >= 1e-8")
    if min(rep["stability_mins"]) < 0.5 * cfg["delta"]:
        p.append(f"stability margin fell to {min(rep['stability_mins'])}")
    _, csv = read_csv(res.output / "residuals.csv")
    if csv.shape[0] != len(rep["residual_norms"]) or not np.array_equal(
            csv[:, 1], np.array(rep["residual_norms"])):
        p.append("residuals.csv disagrees with nash_moser.json")
    k, phi, phit, fp = _final_state(res.output, cfg["galerkin_N"])
    _check_band(p, k, phi, cfg["galerkin_N"], "final phi")
    direct = context.get("direct_phi")
    if direct is None:
        p.append("no direct solve to compare against")
    else:
        rel = float(np.linalg.norm(phi - direct) / np.linalg.norm(direct))
        if not rel < 1e-4:
            p.append(f"Newton differs from the direct solve by {rel:.3e} (>= 1e-4)")
    steps = round(cfg["t_final"] / cfg["dt"])
    out.work = rep["iterations"] * steps
    out.facts = {"sweeps": len(rep["residual_norms"]), "corrections": rep["iterations"]}
    return {"iterations": rep["iterations"], **fp}


def _energy(inputs, results, context, out):
    (res,) = results
    cfg = inputs.invocations[0].config
    p = out.problems
    body = json.loads((res.output / "estimate_energy.json").read_text())
    gammas = [float(g) for g in cfg["gammas"]]
    if not body["passed"]:
        p.append("energy estimate reported passed=false")
    if len(body["pairs"]) != cfg["pairs"]:
        p.append(f"{len(body['pairs'])} pairs reported, expected {cfg['pairs']}")
    ratios, firsts = [], []
    for i, pair in enumerate(body["pairs"]):
        r = [pair["ratios"][str(g)] for g in gammas]
        if not all(math.isfinite(x) and x > 0 for x in r):
            p.append(f"pair {i}: ratio not finite and positive")
        passing = [x <= PASS_FACTOR for x in r]
        first = gammas[passing.index(True)] if True in passing else None
        if pair["first_passing_gamma"] != first:
            p.append(f"pair {i}: first_passing_gamma disagrees with its ratios")
        if first is None or False in passing[passing.index(True):]:
            p.append(f"pair {i}: no gamma threshold (passing {passing})")
        ratios.extend(r)
        firsts.append(pair["first_passing_gamma"])
    out.work = len(body["pairs"]) * 751 * len(gammas)
    return {"ratios": ratios, "first_passing_gamma": firsts}


def _campaign(inputs, results, context, out):
    p = out.problems
    sups = {}
    for res in results:
        body = json.loads((res.output / "constants.json").read_text())
        if not body["passed"]:
            p.append(f"{res.label}: campaign reported passed=false")
        if len(body["reports"]) != 9:
            p.append(f"{res.label}: {len(body['reports'])} lemmas, expected 9")
        csv = read_constants(res.output / "constants.csv")
        for name, rep in sorted(body["reports"].items()):
            lo, hi, drift = rep["sup_lo"], rep["sup_hi"], rep["resolution_drift"]
            if not (math.isfinite(hi) and hi > 0 and math.isfinite(lo) and lo > 0):
                p.append(f"{res.label} {name}: sup not finite and positive")
            elif not _close(drift, abs(hi - lo) / lo, SELF_RTOL):
                p.append(f"{res.label} {name}: drift disagrees with its sups")
            if not drift < 0.10:
                p.append(f"{res.label} {name}: drift {drift:.3e} >= 0.10")
            row = csv.get(name)
            if row is None or not (_close(row[0], lo, SELF_RTOL)
                                   and _close(row[1], hi, SELF_RTOL)):
                p.append(f"{res.label} {name}: constants.csv disagrees with constants.json")
        sups[res.label] = {name: [rep["sup_lo"], rep["sup_hi"]]
                           for name, rep in sorted(body["reports"].items())}
    if len(sups) == 2 and sups["jobs1"] != sups["jobs2"]:
        p.append("--jobs 1 and --jobs 2 give different constants")
    timed = [inv for inv in inputs.invocations if inv.timed][0]
    out.work = len(sups.get(timed.label, {})) * timed.config["samples"]
    return {"sups": [x for pair in sups.get(timed.label, {}).values() for x in pair]}


def read_constants(path):
    """constants.csv as {lemma: (sup_lo, sup_hi)}."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    out = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        # lemma, param (JSON, may hold commas), sup_lo, sup_hi, drift, passed
        out[cells[0]] = (float(cells[-4]), float(cells[-3]))
    return out


_CHECKS = {"simulate": _simulate, "newton": _newton, "energy": _energy,
           "campaign": _campaign}


def compare_reference(fp, ref):
    """Problems found holding fingerprint `fp` against reference `ref`."""
    problems = []
    for key, want in ref.items():
        got = fp.get(key)
        if isinstance(want, list) and key in ("phi", "phit"):
            scale = max((abs(x) for x in want), default=0.0)
            if got is None or len(got) != len(want) or any(
                    abs(a - b) > MODE_ATOL * scale for a, b in zip(got, want)):
                problems.append(f"final {key} modes differ from the reference")
        elif isinstance(want, list) and want and isinstance(want[0], float):
            if got is None or len(got) != len(want) or any(
                    not _close(a, b, RATIO_RTOL) for a, b in zip(got, want)):
                problems.append(f"{key} differ from the reference")
        elif got != want:
            problems.append(f"{key} is {got}, reference {want}")
    return problems


def check_unit(inputs, results, context, reference=None):
    """Check one unit's invocations; returns a UnitOutcome."""
    out = UnitOutcome(bytes_written=sum(_bytes(r.output) for r in results
                                        if r.output.is_dir()))
    for res in results:
        if res.code != 0:
            out.problems.append(f"{res.label}: exit code {res.code}, expected 0")
    if out.problems:
        return out
    try:
        fp = _CHECKS[inputs.workload.name](inputs, results, context, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        out.problems.append(f"unreadable artifact: {exc!r}")
        return out
    out.facts["fingerprint"] = fp
    if reference is not None:
        out.problems.extend(compare_reference(fp, reference))
    return out


def load_reference(name, seed):
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def direct_context(cli, inputs, workdir):
    """Untimed set-up of what the checks compare against: the direct solve
    of the Newton problem (gate 10 holds Newton to it at 1e-4)."""
    if inputs.direct is None:
        return {}
    out = Path(workdir) / "direct"
    code, _ = workloads.invoke(cli, "simulate", inputs.config_paths["direct"], out)
    if code != 0:
        return {}
    _, phi, _ = read_modes(out)
    return {"direct_phi": phi}
