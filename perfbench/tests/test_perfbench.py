"""Tests of the benchmark itself (not of amp_sheet).

    python3 -m pytest perfbench/tests -q

The package's own suite does not collect these: pyproject.toml points
pytest at tests/.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

ROOT = workloads.ROOT


# ---------------------------------------------------------------------------
# span arithmetic on a synthetic tree


def _tree():
    #   0 root      [0, 10]
    #   1   a       [1, 4]
    #   2     a1    [2, 3]
    #   3   b       [5, 7]
    #   4   c       [6, 8]   overlaps b: the union [5, 8] is covered once
    return [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["c", 6.0, 8.0, 0],
    ]


def test_self_time_subtracts_union_of_children():
    assert tracing.self_times(_tree()) == pytest.approx([4.0, 2.0, 1.0, 2.0, 2.0])


def test_self_times_sum_to_root_duration_without_overlap():
    spans = [s for s in _tree() if s[0] != "c"]
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_summarize_slice_keeps_children_outside_the_slice():
    agg = tracing.summarize(_tree(), 0, 1)
    assert agg == {"root": [1, 10.0, pytest.approx(4.0)]}
    assert tracing.ancestors(_tree(), 2) == ["a", "root"]


def test_layer_metrics_classify_calls_by_ancestry():
    spans = [
        ["nash_moser.iterate", 0.0, 10.0, -1],
        ["operators.quadratic_rhs", 0.5, 1.0, 0],       # residual loop: outside solver
        ["solver.solve_linearized", 1.0, 9.0, 0],
        ["solver.rk4_step", 2.0, 3.0, 2],
        ["operators.apply_linearized_operator", 2.1, 2.2, 3],
        ["operators.apply_linearized_operator", 2.3, 2.4, 3],
        ["operators.apply_linearized_operator", 2.5, 2.6, 3],
        ["operators.apply_linearized_operator", 3.5, 3.6, 2],
    ]
    m = tracing.unit_layer_metrics(spans, Counter())
    assert m["solver.rhs_per_step"] == 4.0
    assert m["nash_moser.nonlinear_calls"] == 1
    assert m["nash_moser.linear_solve_s"] == pytest.approx(8.0)
    assert m["nash_moser.self_s"] == pytest.approx(10.0 - 0.5 - 8.0)
    assert set(m) | {"analysis.campaign.jobs_speedup", "trace.overhead_s"} == set(
        tracing.LAYER_METRICS)


def test_fft_points_count_length_times_batch():
    a = np.zeros((4, 33))
    assert tracing._fft_points("fft", a) == 4 * 33
    assert tracing._fft_points("irfft", a) == 4 * 64
    assert tracing._fft_points("fft", np.zeros(10), 16) == 16


# ---------------------------------------------------------------------------
# tracer installation


def test_tracer_rebinds_imported_names_and_restores_them():
    cli = workloads.load_cli()
    import amp_sheet.operators as ops
    import amp_sheet.solver as solver

    before = (ops.pointwise_product, solver.quadratic_rhs, cli.solve_nonlinear,
              np.fft.fft, ops.Lifting.at)
    tracer = tracing.Tracer().install()
    try:
        assert ops.pointwise_product is not before[0]
        assert solver.quadratic_rhs is not before[1]
        assert cli.solve_nonlinear is not before[2]
        from amp_sheet.spectral import TorusGrid, cosine

        f = cosine(TorusGrid(16), 1)
        ops.quadratic_rhs(f)
        names = {s[0] for s in tracer.spans}
        assert {"spectral.cosine", "operators.quadratic_rhs",
                "spectral.pointwise_product", "spectral.commutator_vh"} <= names
        assert tracer.counters["spectral.hilbert.calls"] > 0
        assert tracer.counters["spectral.fft.calls"] > 0
        assert tracer.counters["spectral.fields_built"] > 0
    finally:
        tracer.uninstall()
    assert (ops.pointwise_product, solver.quadratic_rhs, cli.solve_nonlinear,
            np.fft.fft, ops.Lifting.at) == before


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name):
    a, b, c = (workloads.generate(name, s) for s in (7, 7, 8))
    assert [i.config for i in a.invocations] == [i.config for i in b.invocations]
    assert [i.config for i in a.invocations] != [i.config for i in c.invocations]


@pytest.mark.parametrize("name", ["simulate", "newton"])
def test_initial_data_keeps_the_margin(name):
    for seed in range(20):
        cfg = workloads.generate(name, seed).invocations[0].config
        assert workloads._margin(cfg["phi0"]["cos"], cfg["phi0"]["sin"],
                                 cfg["mu"]) >= cfg["delta"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == tracing.LAYER_METRICS[m["name"]]
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    named = {n for p in predictions["predictions"] for n in p["layer_metrics"]}
    assert named <= set(tracing.LAYER_METRICS)


# ---------------------------------------------------------------------------
# a corrupted output is a failed unit


def _perturb_mode(directory, k, factor):
    path = Path(directory) / "final_modes.csv"
    lines = path.read_text().splitlines()
    for i, ln in enumerate(lines):
        cells = ln.split(",")
        if not ln.startswith("#") and cells[0] == f"{float(k):.17g}":
            cells[1] = f"{float(cells[1]) * factor:.17g}"
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def simulate_runner(tmp_path_factory):
    cli = workloads.load_cli()
    work = tmp_path_factory.mktemp("work")
    inputs = workloads.write_configs(workloads.generate("simulate", 0), work)
    return run.UnitRunner(cli, inputs, work, checks.load_reference("simulate", 0))


def _corrupting(monkeypatch, k, factor):
    real = workloads.run_unit

    def run_unit(*args, **kwargs):
        results = real(*args, **kwargs)
        _perturb_mode(results[0].output, k, factor)
        return results

    monkeypatch.setattr(workloads, "run_unit", run_unit)


def test_clean_unit_passes(simulate_runner):
    assert simulate_runner.reference is not None
    simulate_runner.unit()
    assert (simulate_runner.attempted, simulate_runner.failed) == (1, 0)


def test_perturbed_final_mode_counts_as_failure(simulate_runner, monkeypatch):
    _corrupting(monkeypatch, 1, 1.0 + 1e-3)
    before = simulate_runner.failed
    simulate_runner.unit()
    assert simulate_runner.failed == before + 1


def test_perturbation_is_caught_without_a_reference(simulate_runner, monkeypatch):
    _corrupting(monkeypatch, 2, 1.0 + 1e-3)
    ref, simulate_runner.reference = simulate_runner.reference, None
    try:
        before = simulate_runner.failed
        simulate_runner.unit()
        assert simulate_runner.failed == before + 1
    finally:
        simulate_runner.reference = ref


def test_reference_catches_what_self_consistency_cannot():
    fp = checks.load_reference("simulate", 0)
    assert checks.compare_reference(fp, fp) == []
    bad = dict(fp, phi=[x * (1 + 1e-4) for x in fp["phi"]])
    assert checks.compare_reference(bad, fp)
    assert checks.compare_reference(dict(fp, steps_kept=1000), fp)


def test_round_off_sized_differences_pass():
    fp = checks.load_reference("newton", 0)
    scale = max(abs(x) for x in fp["phi"])
    near = dict(fp, phi=[x + 1e-9 * scale for x in fp["phi"]])
    assert checks.compare_reference(near, fp) == []


# ---------------------------------------------------------------------------
# the command


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calibration_kernel_is_invisible_to_the_tracer():
    import calibrate

    workloads.load_cli()
    tracer = tracing.Tracer().install()
    try:
        assert calibrate.slowdown() > 0
        assert not tracer.counters and not tracer.spans
    finally:
        tracer.uninstall()
