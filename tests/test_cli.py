"""CLI tests: exit codes, config validation, artifact shape, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from amp_sheet.cli import _write_csv, main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def fresh_python(code, *args):
    """Standard output of `code` run in a fresh interpreter on this package."""
    import amp_sheet
    src = str(Path(amp_sheet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


#: prints the package's modules that the interpreter has loaded
LOADED = "print(sorted(m for m in sys.modules if m.startswith('amp_sheet')))"


ZERO_SIM = {"mu": 1.0, "delta": 0.9, "grid_n": 32, "galerkin_N": 8,
            "dt": 0.005, "t_final": 0.2}
#: growth takes the solver keys without delta: no base, no margin
GROWTH_SIM = {k: v for k, v in ZERO_SIM.items() if k != "delta"}


class TestConfigHandling:
    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**ZERO_SIM, "bogus": 1})
        out = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2
        assert "bogus" in out.output

    def test_malformed_json_rejected(self, runner, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        out = runner.invoke(main, ["simulate", "--config", str(p),
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2

    def test_missing_required_key(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"modes": [4]})
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2
        assert "mu" in out.output

    def test_invalid_solver_parameter(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**ZERO_SIM, "dt": -1.0})
        out = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2

    def test_jobs_only_on_commutator_constants(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", ZERO_SIM)
        out = runner.invoke(main, ["simulate", "--config", cfg, "--jobs", "2",
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2
        assert "--jobs" in out.output
        out = runner.invoke(main, ["commutator-constants", "--help"])
        assert out.exit_code == 0 and "--jobs" in out.output
        # at least one worker: 0 and -1 are usage errors, not a serial run
        small = write_config(tmp_path, "small.json", {"lemma": "A2", "samples": 2,
                                                       "n_lo": 32, "n_hi": 64})
        for jobs in ("0", "-1"):
            out = runner.invoke(main, ["commutator-constants", "--config", small,
                                       "--jobs", jobs, "--output", str(tmp_path / "o")])
            assert out.exit_code == 2 and "--jobs" in out.output, jobs

    def test_import_leaves_out_the_process_pool(self):
        # the pool's modules load only when a campaign runs with --jobs > 1
        code = ("import sys, amp_sheet.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        assert fresh_python(code) == "False"

    def test_import_loads_no_layer(self):
        # each command imports the layers it runs; --help and --version run none
        code = ("import sys, amp_sheet.cli as cli\n" + LOADED + "\n"
                "for args in (['--help'], ['--version'], ['simulate', '--help']):\n"
                "    assert cli.main.main(args, standalone_mode=False) == 0, args\n"
                + LOADED)
        lines = fresh_python(code).splitlines()  # the help and version text between
        assert lines[0] == lines[-1] == "['amp_sheet', 'amp_sheet.cli']"

    def test_simulate_loads_no_analysis(self, tmp_path):
        code = ("import sys, amp_sheet.cli as cli\n"
                "try:\n"
                "    cli.main.main(['simulate', '--config', sys.argv[1], '--output',\n"
                "                   sys.argv[2], '--quiet'], standalone_mode=False)\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n" + LOADED)
        cfg = write_config(tmp_path, "c.json", {**ZERO_SIM, "phi0": {"cos": {"1": 0.01}}})
        loaded = fresh_python(code, cfg, tmp_path / "o")
        assert loaded == str(["amp_sheet", "amp_sheet.cli", "amp_sheet.operators",
                              "amp_sheet.solver", "amp_sheet.spectral"])
        assert (tmp_path / "o" / "summary.json").is_file()

    def test_package_resolves_names_on_first_use(self):
        import amp_sheet
        assert len(amp_sheet.__all__) == 54
        for name in amp_sheet.__all__:
            obj = getattr(amp_sheet, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert set(amp_sheet.__all__) <= set(dir(amp_sheet))
        with pytest.raises(AttributeError, match="no_such_name"):
            amp_sheet.no_such_name
        # a name loads its own module and what that imports, nothing more
        code = "import sys, amp_sheet\namp_sheet.TorusGrid\n" + LOADED
        assert fresh_python(code) == "['amp_sheet', 'amp_sheet.spectral']"

    def test_package_reads_a_rebound_name(self, runner, tmp_path, monkeypatch):
        # the namespace caches nothing: a name rebound in its owning module
        # (a test's patch, the benchmark's tracer) reads the same through the
        # package, and the commands call it
        import amp_sheet
        import amp_sheet.solver as solver
        real, calls = amp_sheet.solve_linearized, []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_linearized", counting)
        assert amp_sheet.solve_linearized is counting
        cfg = write_config(tmp_path, "c.json", {**ZERO_SIM, "base": {"cos": {"1": 0.02}}})
        out = runner.invoke(main, ["linearized", "--config", cfg,
                                   "--output", str(tmp_path / "o"), "--quiet"])
        assert out.exit_code == 0, out.output
        assert len(calls) == 1

    def test_seed_only_as_a_config_key(self, runner, tmp_path):
        # the config is the one writer of a seed: no command has --seed, and
        # a "seed" key is a usage error where the run draws no random numbers
        for cmd in main.commands:
            assert "--seed" not in runner.invoke(main, [cmd, "--help"]).output, cmd
        cfg = write_config(tmp_path, "i.json", {"samples": 2, "grid_n": 32})
        out = runner.invoke(main, ["verify-identities", "--config", cfg, "--seed", "3",
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2
        assert "--seed" in out.output
        cfg = write_config(tmp_path, "s.json", {**ZERO_SIM, "seed": 3})
        out = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2
        assert "seed" in out.output

    def test_bad_mode_in_field_spec(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {**ZERO_SIM, "phi0": {"cos": {"300": 0.1}}})
        out = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2

    def test_version_flag(self, runner):
        out = runner.invoke(main, ["--version"])
        assert out.exit_code == 0
        assert "amp-sheet" in out.output


#: a small valid config of each command; the malformed matrix edits one key
VALID = {
    "simulate": ZERO_SIM,
    "linearized": ZERO_SIM,
    "growth": {**GROWTH_SIM, "mu": -1.0, "modes": [4]},
    "verify-identities": {"samples": 2, "grid_n": 32},
    "verify-estimates": {"estimate": "energy", "pairs": 1, "gammas": [2.0]},
    "commutator-constants": {"lemma": "A2", "samples": 2, "n_lo": 32, "n_hi": 64},
    "nash-moser": ZERO_SIM,
}

#: (command, keys replaced in its valid config, the key the error must name)
MALFORMED = [
    # values that crashed with a traceback or were silently coerced
    ("commutator-constants", {"samples": "abc"}, "samples"),
    ("verify-identities", {"samples": "abc"}, "samples"),
    ("nash-moser", {"max_halvings": "x"}, "max_halvings"),
    ("simulate", {"grid_n": 32.0}, "grid_n"),
    ("growth", {"modes": ["a"]}, "modes"),
    ("linearized", {"envelope_width": "wide"}, "envelope_width"),
    ("linearized", {"base": {"cos": {"1": "x"}}}, "base"),
    ("commutator-constants", {"lemma": "A3", "param": {}}, "param"),
    ("commutator-constants", {"lemma": "A3", "param": [1]}, "param"),
    ("commutator-constants", {"lemma": ["A2"]}, "lemma"),
    ("verify-estimates", {"gammas": 2.0}, "gammas"),
    ("nash-moser", {"max_halvings": -1}, "max_halvings"),
    ("verify-estimates", {"pairs": 1.7}, "pairs"),
    ("verify-identities", {"seed": "7"}, "seed"),
    ("verify-estimates", {"seed": "7"}, "seed"),
    ("commutator-constants", {"seed": "7"}, "seed"),
    # one wrong-typed int, float, bool and list key per command
    ("simulate", {"galerkin_N": "8"}, "galerkin_N"),
    ("simulate", {"dt": "0.005"}, "dt"),
    ("simulate", {"phi0": {"cos": {"1": [0.01]}}}, "phi0"),
    ("linearized", {"grid_n": 32.5}, "grid_n"),
    ("linearized", {"mu": True}, "mu"),
    ("linearized", {"forcing_profile": [1.0]}, "forcing_profile"),
    ("growth", {"galerkin_N": 8.0}, "galerkin_N"),
    ("growth", {"epsilon": "1e-6"}, "epsilon"),
    ("growth", {"modes": 4}, "modes"),
    ("verify-identities", {"grid_n": 64.0}, "grid_n"),
    ("verify-identities", {"samples": True}, "samples"),
    ("verify-estimates", {"grid_n": "32"}, "grid_n"),
    ("verify-estimates", {"mu": "1"}, "mu"),
    ("verify-estimates", {"gammas": [True]}, "gammas"),
    ("verify-estimates", {"estimate": "tame", "pairs": None, "gammas": None,
                          "m_values": [1.5]}, "m_values"),
    ("commutator-constants", {"n_lo": 32.0}, "n_lo"),
    ("commutator-constants", {"decay": "2"}, "decay"),
    ("commutator-constants", {"lemma": "A2", "param": True}, "param"),
    ("commutator-constants", {"lemma": "A1_comm_1", "param": "1.0"}, "param"),
    ("nash-moser", {"max_iters": 2.5}, "max_iters"),
    ("nash-moser", {"theta0": "4"}, "theta0"),
    ("nash-moser", {"phi1": {"sin": [1]}}, "phi1"),
    # keys missing or unknown (products are always 3/2-padded: no dealias key)
    ("simulate", {"mu": None}, "mu"),
    ("simulate", {"dealias": True}, "dealias"),
    ("nash-moser", {"theta": 4.0}, "theta"),
    ("nash-moser", {"auto": True}, "auto"),
    ("linearized", {"dealias": True}, "dealias"),
    ("growth", {"dealias": False}, "dealias"),
    ("nash-moser", {"dealias": True}, "dealias"),
    # one superposed solve would seed a repeated mode twice
    ("growth", {"modes": [4, 4]}, "modes"),
    # NaN and Infinity, which Python's JSON reader takes, are not JSON: the
    # error names the constant
    ("simulate", {"delta": float("nan")}, "NaN"),
    ("simulate", {"mu": float("nan")}, "NaN"),
    ("simulate", {"phi0": {"cos": {"1": float("nan")}}}, "NaN"),
    ("verify-estimates", {"estimate": "forcing", "pairs": None, "gammas": None,
                          "gamma": float("inf")}, "Infinity"),
    # gamma >= 1, as in every weighted norm, rather than raised to 1
    ("verify-estimates", {"estimate": "forcing", "pairs": None, "gammas": None,
                          "gamma": 0.5}, "gamma"),
]


#: keys a command's run never reads: simulate, linearized and growth take
#: no weighted norm, growth no margin, and tame, phitt and forcing draw no
#: random numbers
UNREAD = [
    ("simulate", {"gamma": 2.0}, "gamma"),
    ("linearized", {"gamma": 2.0}, "gamma"),
    ("growth", {"gamma": 2.0}, "gamma"),
    ("growth", {"delta": 0.9}, "delta"),
    ("verify-estimates", {"estimate": "tame", "pairs": None, "gammas": None, "seed": 3},
     "seed"),
    ("verify-estimates", {"estimate": "phitt", "pairs": None, "gammas": None, "seed": 3},
     "seed"),
    ("verify-estimates", {"estimate": "forcing", "pairs": None, "gammas": None, "seed": 3},
     "seed"),
]


def case_id(command, edit, key):
    """A matrix row's test id from its command and edited keys and values
    (a dropped key shows only when it is the one named), so inserting or
    deleting a row renames no other case."""
    return "-".join([command, *(f"{k}={json.dumps(v, separators=(',', ':'))}"
                                for k, v in edit.items() if v is not None or k == key)])


def exits_two_naming(runner, tmp_path, command, edit, key):
    # a None in the edit drops that key from the valid config
    cfg = {**VALID[command], **edit}
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = write_config(tmp_path, "c.json", cfg)
    out = runner.invoke(main, [command, "--config", path,
                               "--output", str(tmp_path / "o"), "--quiet"])
    assert out.exit_code == 2, out.output
    assert key in out.output


#: (command, keys replaced in its valid config, the number written where a
#: key holds "@", the text the error must name): Python's JSON reader takes
#: 1e400 as inf and a 401-digit integer as an int that no float holds
OVERFLOWS = [
    ("simulate", {"t_final": "@"}, "1e400", "1e400"),
    ("simulate", {"dt": "@"}, "1" + "0" * 400, "dt"),
    ("simulate", {"phi0": {"cos": {"1": "@"}}}, "-1e400", "-1e400"),
    ("commutator-constants", {"decay": "@"}, "1e400", "1e400"),
    ("commutator-constants", {"lemma": "A3", "param": "@"}, "1e400", "1e400"),
    ("verify-estimates", {"estimate": "der2", "pairs": None, "gammas": None,
                          "gamma": "@"}, "1e400", "1e400"),
    ("verify-estimates", {"gammas": [2.0, "@"]}, "1e400", "1e400"),
    ("nash-moser", {"residual_tol": "@"}, "1e400", "1e400"),
]


@pytest.mark.parametrize("command,edit,number,named", OVERFLOWS,
                         ids=[case_id(c, e, None) for c, e, _, _ in OVERFLOWS])
def test_number_that_overflows_a_float_exits_two(runner, tmp_path, command, edit,
                                                 number, named):
    cfg = {k: v for k, v in {**VALID[command], **edit}.items() if v is not None}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg).replace('"@"', number))
    out = runner.invoke(main, [command, "--config", str(path),
                               "--output", str(tmp_path / "o"), "--quiet"])
    assert out.exit_code == 2, out.output
    assert named in out.output


def test_non_finite_numbers_are_written_apart(tmp_path):
    # NaN, +inf and -inf, at any depth and numpy's too, each as its own
    # string; finite numbers as json writes them
    from amp_sheet.cli import _not_json, _write_json
    path = tmp_path / "a.json"
    payload = {"a": float("nan"), "b": [np.inf, -np.inf, 1.5],
               "c": {"d": (np.float32(-np.inf),)}, "e": np.float64(0.1), "f": 3}
    _write_json(path, payload, {"x": 1.0}, quiet=True)
    body = json.loads(path.read_text(), parse_constant=_not_json)
    assert body["a"] == "NaN" and body["b"] == ["Infinity", "-Infinity", 1.5]
    assert body["c"] == {"d": ["-Infinity"]} and body["e"] == 0.1 and body["f"] == 3


class TestConfigContract:
    @pytest.mark.parametrize("command,edit,key", MALFORMED,
                             ids=[case_id(*row) for row in MALFORMED])
    def test_malformed_value_exits_two_naming_the_key(self, runner, tmp_path, command,
                                                      edit, key):
        exits_two_naming(runner, tmp_path, command, edit, key)

    def test_case_ids_are_unique(self):
        ids = [case_id(*row) for row in MALFORMED + UNREAD]
        assert len(set(ids)) == len(ids)

    @pytest.mark.parametrize("command,edit,key", UNREAD,
                             ids=[case_id(*row) for row in UNREAD])
    def test_unread_key_exits_two_naming_it(self, runner, tmp_path, command, edit, key):
        exits_two_naming(runner, tmp_path, command, edit, key)

    @pytest.mark.parametrize("command,cfg,flags", [
        ("simulate", {**ZERO_SIM, "mu": 1, "phi0": {"cos": {"1": 0.01}}}, []),
        ("linearized", {**ZERO_SIM, "base": {"cos": {"1": 0.02}},
                        "forcing_profile": {"sin": {"2": 0.5}}, "envelope_center": 0.1,
                        "envelope_width": 0.05}, []),
        ("growth", {**GROWTH_SIM, "mu": -1, "modes": [2, 4]}, []),
        ("verify-identities", {"samples": 3, "grid_n": 32, "seed": 4}, []),
        ("verify-estimates", {"estimate": "energy", "pairs": 1, "gammas": [2, 8],
                              "dt": 0.004}, []),
        ("commutator-constants", {"lemma": "A3", "samples": 3, "n_lo": 32,
                                  "n_hi": 64}, []),
        ("nash-moser", {**ZERO_SIM, "galerkin_N": 10, "phi0": {"cos": {"1": 0.01}},
                        "max_iters": 3}, []),
    ])
    def test_embedded_config_reproduces_the_artifacts(self, runner, tmp_path, command,
                                                      cfg, flags):
        first, second = tmp_path / "first", tmp_path / "second"
        path = write_config(tmp_path, "c.json", cfg)
        code = runner.invoke(main, [command, "--config", path, "--output", str(first),
                                    "--quiet", *flags]).exit_code
        names = sorted(p.name for p in first.iterdir())
        (artifact,) = [n for n in names if n.endswith(".json")]
        embedded = json.loads((first / artifact).read_text())["config"]
        path = write_config(tmp_path, "embedded.json", embedded)
        again = runner.invoke(main, [command, "--config", path, "--output", str(second),
                                     "--quiet"])
        assert again.exit_code == code
        assert sorted(p.name for p in second.iterdir()) == names
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_embedded_config_is_the_resolved_one(self, runner, tmp_path):
        # every key with its default filled in and numbers cast, not the raw file
        from amp_sheet.solver import SimConfig
        path = write_config(tmp_path, "c.json", {**ZERO_SIM, "mu": 1})
        dest = tmp_path / "o"
        assert runner.invoke(main, ["simulate", "--config", path, "--output", str(dest),
                                    "--quiet"]).exit_code == 0
        embedded = json.loads((dest / "summary.json").read_text())["config"]
        # gamma is the one SimConfig field simulate never reads
        want = set(SimConfig.__dataclass_fields__) - {"gamma"} | {"phi0", "phi1"}
        assert set(embedded) == want
        assert embedded["mu"] == 1.0 and isinstance(embedded["mu"], float)
        assert embedded["cfl_safety"] == SimConfig.cfl_safety and embedded["phi0"] is None
        header = (dest / "trajectory.csv").read_text().splitlines()[1]
        assert json.loads(header[len("# config: "):]) == embedded


class TestSimulate:
    def test_zero_data_run(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", ZERO_SIM)
        dest = tmp_path / "o"
        out = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--output", str(dest)])
        assert out.exit_code == 0
        summary = json.loads((dest / "summary.json").read_text())
        assert summary["final_h1"] == 0.0
        assert summary["flags"] == []
        assert summary["version"] == summary["config"].get("version", summary["version"])
        lines = (dest / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# version:")
        assert lines[1].startswith("# config:")
        assert lines[2] == "t,h1_phi,h1_phit,min_stability"

    def test_stability_flag_exits_three(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mu": 1.0, "delta": 0.99, "grid_n": 32, "galerkin_N": 8,
            "dt": 0.002, "t_final": 1.0, "phi1": {"cos": {"1": 1.0}},
        })
        dest = tmp_path / "o"
        out = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 3
        summary = json.loads((dest / "summary.json").read_text())
        kinds = [f["type"] for f in summary["flags"]]
        assert "stability_below_half_delta" in kinds

    def test_margin_violation_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {**ZERO_SIM, "phi0": {"cos": {"1": 0.2}}})
        out = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2

    def test_deterministic_artifacts(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {**ZERO_SIM, "phi0": {"cos": {"1": 0.01}}})
        a, b = tmp_path / "a", tmp_path / "b"
        for dest in (a, b):
            out = runner.invoke(main, ["simulate", "--config", cfg,
                                       "--output", str(dest), "--quiet"])
            assert out.exit_code == 0
        for name in ("trajectory.csv", "final_modes.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "linearized", "nash-moser"])
    def test_dt_above_the_cfl_limit_exits_two(self, runner, tmp_path, command):
        # the limit 0.5/(N sqrt(max c)) is about 0.024 here: a rejected
        # parameter with the solver's one-line message, not a traceback
        cfg = write_config(tmp_path, "c.json", {
            "mu": 1.0, "delta": 0.9, "grid_n": 64, "galerkin_N": 21, "dt": 0.05,
            "t_final": 1.0, "phi0": {"cos": {"1": 0.01}}})
        out = runner.invoke(main, [command, "--config", cfg,
                                   "--output", str(tmp_path / "o"), "--quiet"])
        assert out.exit_code == 2, out.output
        assert "exceeds the CFL limit" in out.output
        assert "Traceback" not in out.output

    def test_output_env_var(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", ZERO_SIM)
        dest = tmp_path / "from_env"
        out = runner.invoke(main, ["simulate", "--config", cfg],
                            env={"AMP_SHEET_OUTPUT": str(dest)})
        assert out.exit_code == 0
        assert (dest / "summary.json").exists()


class TestLinearized:
    def test_forced_run(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mu": 1.0, "delta": 0.9, "grid_n": 32, "galerkin_N": 8,
            "dt": 0.002, "t_final": 0.3,
            "base": {"cos": {"1": 0.02}},
            "forcing_profile": {"cos": {"1": 0.5}, "sin": {"3": 0.3}},
            "envelope_center": 0.15, "envelope_width": 0.1,
        })
        dest = tmp_path / "o"
        out = runner.invoke(main, ["linearized", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0
        summary = json.loads((dest / "summary.json").read_text())
        assert summary["final_h1"] > 0.0


    def test_unwindowed_forcing_is_the_profile(self, runner, tmp_path):
        # envelope width 0: constant forcing g = cos x from rest, whose
        # solution at mu = 1 and base 0 is (1 - cos t) cos x
        cfg = write_config(tmp_path, "c.json", {
            "mu": 1.0, "delta": 0.9, "grid_n": 32, "galerkin_N": 8,
            "dt": 0.002, "t_final": 0.3, "forcing_profile": {"cos": {"1": 1.0}},
        })
        dest = tmp_path / "o"
        out = runner.invoke(main, ["linearized", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0
        lines = [ln for ln in (dest / "final_modes.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        row = [ln.split(",") for ln in lines[1:] if float(ln.split(",")[0]) == 1.0][0]
        assert float(row[1]) == pytest.approx(np.pi * (1.0 - np.cos(0.3)), rel=1e-6)


class TestBaseAgainstDelta:
    """linearized and verify-estimates tame and phitt check their base
    against the floor delta/2 on entry: 0.2 cos x at mu = 1 has minimum 0.6."""

    BASE = {"mu": 1.0, "grid_n": 32, "galerkin_N": 8, "dt": 0.002,
            "base": {"cos": {"1": 0.2}}}

    @pytest.mark.parametrize("command,cfg", [
        ("linearized", {**BASE, "t_final": 0.1}),
        ("verify-estimates", {**BASE, "estimate": "phitt", "t_final": 0.2}),
        ("verify-estimates", {**BASE, "estimate": "tame", "t_final": 0.2}),
    ])
    @pytest.mark.parametrize("delta,code", [(1.5, 2), (0.9, 0)])
    def test_exit_code(self, runner, tmp_path, command, cfg, delta, code):
        path = write_config(tmp_path, "c.json", {**cfg, "delta": delta})
        out = runner.invoke(main, [command, "--config", path,
                                   "--output", str(tmp_path / "o"), "--quiet"])
        assert out.exit_code == code, out.output
        if code == 2:
            assert "stability margin" in out.output

    def test_elliptic_linearized_run_exits_two(self, runner, tmp_path):
        path = write_config(tmp_path, "c.json", {**ZERO_SIM, "mu": 0.0})
        out = runner.invoke(main, ["linearized", "--config", path,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2


class TestGrowth:
    def test_elliptic_rates(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mu": -1.0, "grid_n": 32, "galerkin_N": 10,
            "dt": 0.002, "t_final": 0.5, "modes": [4, 8], "epsilon": 1e-6,
        })
        dest = tmp_path / "o"
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0
        summary = json.loads((dest / "summary.json").read_text())
        assert summary["rates"]["4"] == pytest.approx(4.0, rel=0.05)
        assert summary["rates"]["8"] == pytest.approx(8.0, rel=0.05)
        # every mu <= 0 run carries elliptic_regime; it cuts nothing short
        assert summary["flags"] == [{"time": 0.0, "type": "elliptic_regime"}]
        assert summary["t_kept"] == 0.5
        assert summary["passed"] is True

    def test_hyperbolic_rates_have_no_relative_error(self, runner, tmp_path):
        # mu = 1: the expected rate is 0, so the error is absolute only
        cfg = write_config(tmp_path, "c.json", {
            "mu": 1.0, "grid_n": 32, "galerkin_N": 10,
            "dt": 0.002, "t_final": 0.5, "modes": [4, 8], "epsilon": 1e-6,
        })
        dest = tmp_path / "o"
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0
        lines = [ln for ln in (dest / "rates.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "k,rate,expected,abs_err,rel_err"
        for line in lines[1:]:
            k, rate, expected, abs_err, rel_err = line.split(",")
            assert float(expected) == 0.0
            assert float(abs_err) == abs(float(rate))
            assert rel_err == ""

    def test_cut_solve_exits_three(self, runner, tmp_path):
        # modes 20 and 21 grow like e^{kt} from 1e-6 and blow up near
        # t = 2: the solve's flags and kept horizon reach summary.json
        cfg = write_config(tmp_path, "c.json", {
            "mu": -1.0, "grid_n": 64, "galerkin_N": 21, "dt": 0.002,
            "t_final": 3.0, "modes": [20, 21]})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 3, out.output
        summary = json.loads((dest / "summary.json").read_text())
        assert sorted(summary["rates"]) == ["20", "21"]
        assert [f["type"] for f in summary["flags"]] == ["elliptic_regime", "blow_up"]
        assert summary["t_kept"] == summary["flags"][1]["time"] < 3.0
        assert summary["passed"] is True

    @pytest.mark.parametrize("mu", [1.0, 0.0])
    def test_neutral_rates_read_zero(self, runner, tmp_path, mu):
        # the fitted amplitude (|phi_k|^2 + |phi_k,t|^2/(k^2 mu))^(1/2) is
        # conserved; a fit of the oscillating |phi_k| reads 2.77 and 0.61 at mu = 1
        cfg = write_config(tmp_path, "c.json", {
            "mu": mu, "grid_n": 32, "galerkin_N": 8, "dt": 0.005, "t_final": 2.0,
            "modes": [2, 4]})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0, out.output
        summary = json.loads((dest / "summary.json").read_text())
        assert all(abs(rate) <= 1e-9 for rate in summary["rates"].values()), summary
        assert summary["passed"] is True

    def test_summary_is_strict_json(self, runner, tmp_path):
        # one step is too short to fit a rate: the NaN rate misses (exit 1)
        # and is written as the string "NaN", which a strict reader reads
        from amp_sheet.cli import _not_json
        cfg = write_config(tmp_path, "c.json", {
            "mu": -1.0, "grid_n": 32, "galerkin_N": 8, "dt": 0.01, "t_final": 0.01,
            "modes": [4]})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 1, out.output
        summary = json.loads((dest / "summary.json").read_text(), parse_constant=_not_json)
        assert summary["rates"] == {"4": "NaN"} and summary["passed"] is False

    def test_one_solve_for_all_modes(self, runner, tmp_path, monkeypatch):
        import amp_sheet.solver as solver
        real, calls = solver.solve_linearized, []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_linearized", counting)
        cfg = write_config(tmp_path, "c.json", {"mu": -1.0, "t_final": 0.2})
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(tmp_path / "o"), "--quiet"])
        assert out.exit_code == 0, out.output
        assert len(calls) == 1

    def test_superposed_rates_match_single_mode_runs(self, runner, tmp_path):
        # without a base the Galerkin system is diagonal in k: the modes of
        # one solve do not feel each other beyond the transforms' round-off
        base = {"mu": -1.0, "grid_n": 64, "galerkin_N": 21, "dt": 0.002,
                "t_final": 0.5}

        def rates(modes):
            cfg = write_config(tmp_path, "c.json", {**base, "modes": modes})
            dest = tmp_path / "-".join(map(str, modes))
            out = runner.invoke(main, ["growth", "--config", cfg,
                                       "--output", str(dest), "--quiet"])
            assert out.exit_code == 0, out.output
            return json.loads((dest / "summary.json").read_text())["rates"]

        together = rates([4, 8, 16])
        for k in (4, 8, 16):
            assert together[str(k)] == pytest.approx(rates([k])[str(k)], rel=1e-12)

    @pytest.mark.parametrize("t_final,miss", [(0.5, 1.06), (0.5, float("nan")),
                                              (3.0, 1.06)])
    def test_missed_rate_exits_one(self, runner, tmp_path, monkeypatch, t_final, miss):
        # no valid config misses: a fit 6% off or NaN stands in for one, and
        # a miss outranks a cut solve (t_final 3 blows mode 21 up)
        import amp_sheet.solver as solver
        monkeypatch.setattr(solver, "measure_mode_growth",
                            lambda traj, modes: {k: k * miss for k in modes})
        cfg = write_config(tmp_path, "c.json", {
            "mu": -1.0, "grid_n": 64, "galerkin_N": 21, "dt": 0.002,
            "t_final": t_final, "modes": [4, 21]})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 1, out.output
        assert json.loads((dest / "summary.json").read_text())["passed"] is False

    def test_mode_outside_band_rejected(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mu": -1.0, "grid_n": 32, "galerkin_N": 8,
            "dt": 0.002, "t_final": 0.2, "modes": [12],
        })
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2


    def test_zero_epsilon_is_config_error(self, runner, tmp_path):
        # a zero seed has no rate to measure: every fit would be NaN, which
        # would read as a failed verification (exit 1)
        cfg = write_config(tmp_path, "c.json", {**GROWTH_SIM, "mu": -1.0, "modes": [4],
                                                 "epsilon": 0.0})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 2, out.output
        assert "'epsilon'" in out.output
        assert not dest.exists()

    def test_tiny_epsilon_measures_the_rate(self, runner, tmp_path):
        # a seed far below 1 grows like any other: its samples stay above a
        # floor set by their own peak, so the rate is measured and passes
        cfg = write_config(tmp_path, "c.json", {**GROWTH_SIM, "mu": -1.0, "modes": [4],
                                                 "epsilon": 1e-20})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0, out.output
        rate = json.loads((dest / "summary.json").read_text())["rates"]["4"]
        assert rate == pytest.approx(4.0, rel=1e-6)

    def test_no_modes_is_config_error(self, runner, tmp_path):
        # a sweep over no mode measures nothing: rejected before any solve
        cfg = write_config(tmp_path, "c.json", {**GROWTH_SIM, "mu": -1.0, "modes": []})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["growth", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 2, out.output
        assert "'modes'" in out.output
        assert not dest.exists()


class TestVerifyIdentities:
    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_is_config_error(self, runner, tmp_path, samples):
        # a battery over no sample checks nothing: neither a pass nor a failure
        cfg = write_config(tmp_path, "c.json", {"samples": samples, "grid_n": 32})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["verify-identities", "--config", cfg,
                                   "--output", str(dest)])
        assert out.exit_code == 2, out.output
        assert "'samples'" in out.output
        assert not dest.exists()

    def test_grid_below_twelve_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"samples": 3, "grid_n": 4})
        out = runner.invoke(main, ["verify-identities", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2, out.output
        assert "grid_n must be at least 12" in out.output

    def test_battery_passes(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"samples": 10, "grid_n": 64})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["verify-identities", "--config", cfg,
                                   "--output", str(dest)])
        assert out.exit_code == 0
        assert "PASS" in out.output
        report = json.loads((dest / "identities.json").read_text())
        assert report["report"]["passed"] is True
        assert report["version"]

    def test_seed_key_reaches_the_run(self, runner, tmp_path):
        for seed in (5, 7):
            cfg = write_config(tmp_path, "c.json",
                               {"samples": 5, "grid_n": 64, "seed": seed})
            dest = tmp_path / f"o{seed}"
            out = runner.invoke(main, ["verify-identities", "--config", cfg,
                                       "--output", str(dest)])
            assert out.exit_code == 0
            report = json.loads((dest / "identities.json").read_text())
            assert report["config"]["seed"] == report["report"]["seed"] == seed


class TestVerifyEstimates:
    def test_unknown_selector(self, runner, tmp_path):
        for which in ("nope", ["tame"]):
            cfg = write_config(tmp_path, "c.json", {"estimate": which})
            out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                       "--output", str(tmp_path / "o")])
            assert out.exit_code == 2, which

    def test_selector_required(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {})
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2

    def test_energy_small_campaign(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "estimate": "energy", "pairs": 2, "gammas": [2.0, 4.0],
            "grid_n": 32, "dt": 0.004,
        })
        dest = tmp_path / "o"
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0
        report = json.loads((dest / "estimate_energy.json").read_text())
        assert report["passed"] is True
        assert len(report["pairs"]) == 2

    def test_unreachable_energy_margin_is_config_error(self, runner, tmp_path):
        # delta > mu: no base can keep the margin, whatever is drawn
        cfg = write_config(tmp_path, "c.json", {"estimate": "energy", "delta": 1.5,
                                                "pairs": 1})
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(tmp_path / "o"), "--quiet"])
        assert out.exit_code == 2, out.output
        assert "margin" in out.output

    @pytest.mark.parametrize("payload, key", [
        ({"estimate": "energy", "pairs": 1, "gammas": [2.0, 1e308]}, "gammas"),
        ({"estimate": "der2", "gamma": 1e308}, "gamma"),
    ], ids=["energy-underflow", "der2-overflow"])
    def test_gamma_whose_weight_is_zero_or_infinite_is_config_error(self, runner, tmp_path,
                                                                    payload, key):
        # e^(-2 gamma t) at gamma = 1e308 underflows to 0 on the mesh (energy
        # read the ratio 0.0 and passed) or is NaN and inf on it (der2 wrote
        # the constant "Infinity"): no verdict, a config error naming the key
        cfg = write_config(tmp_path, "c.json", payload)
        dest = tmp_path / "o"
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 2, out.output
        assert f"{key}: gamma = 1e+308" in out.output
        assert not (dest / f"estimate_{payload['estimate']}.json").exists()

    def test_keys_of_other_estimates_rejected(self, runner, tmp_path):
        # tame reads neither `pairs` (energy) nor `cfl_safety` (no runner)
        cfg = write_config(tmp_path, "c.json", {
            "estimate": "tame", "pairs": 3, "cfl_safety": 0.9,
        })
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2
        assert "cfl_safety" in out.output and "pairs" in out.output

    def test_benchmark_energy_keys_accepted(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "estimate": "energy", "grid_n": 32, "pairs": 1,
            "gammas": [2.0, 4.0, 8.0, 16.0], "seed": 5,
        })
        dest = tmp_path / "o"
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0
        report = json.loads((dest / "estimate_energy.json").read_text())
        assert report["config"]["seed"] == 5 and len(report["pairs"]) == 1

    def test_energy_reconstructs_g_once_per_pair(self, runner, tmp_path, monkeypatch):
        # g = L'[phi0]phi' does not depend on gamma: one reconstruction per
        # pair, whatever the number of gammas
        import amp_sheet.analysis as analysis
        calls = []
        real = analysis.apply_linearized

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(analysis, "apply_linearized", counted)
        cfg = write_config(tmp_path, "c.json", {
            "estimate": "energy", "pairs": 2, "gammas": [2.0, 4.0, 8.0, 16.0],
            "dt": 0.004,
        })
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(tmp_path / "o"), "--quiet"])
        assert out.exit_code == 0, out.output
        assert len(calls) == 2

    def test_default_tame_run_is_forced(self, runner, tmp_path):
        # no forcing_profile: cos x, as for phitt, so both sides are positive
        cfg = write_config(tmp_path, "c.json", {"estimate": "tame", "t_final": 0.2})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0, out.output
        report = json.loads((dest / "estimate_tame.json").read_text())
        assert [r["m"] for r in report["reports"]] == [1, 2, 3]
        for r in report["reports"]:
            assert r["lhs"] > 0.0 and r["rhs"] > 0.0 and r["constant"] > 0.0, r

    @pytest.mark.parametrize("estimate", ["tame", "phitt"])
    def test_unwindowed_forcing_is_the_profile(self, runner, tmp_path, estimate):
        # envelope width 0: the constant profile, as for linearized
        from amp_sheet.analysis import verify_phitt_estimate, verify_tame_estimates
        from amp_sheet.solver import SimConfig, solve_linearized
        from amp_sheet.spectral import TorusGrid, cosine, zeros

        cfg = write_config(tmp_path, "c.json", {"estimate": estimate, "t_final": 0.2,
                                                 "envelope_width": 0.0})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0, out.output
        got = json.loads((dest / f"estimate_{estimate}.json").read_text())
        p = got["config"]
        sim = SimConfig(**{k: p[k] for k in ("mu", "delta", "grid_n", "galerkin_N", "dt",
                                             "t_final", "gamma")})
        base, g = zeros(TorusGrid(sim.grid_n)), cosine(TorusGrid(sim.grid_n), 1)
        if estimate == "tame":
            want = [r.ratio for r in verify_tame_estimates(base, g, sim, p["m_values"])]
            assert [r["constant"] for r in got["reports"]] == want
        else:
            traj, _ = solve_linearized(sim, base=base, forcing=g)
            rep = verify_phitt_estimate(base, traj, g, sim.gamma, p["m"])
            assert got["constant"] == rep.ratio

    @pytest.mark.parametrize("payload, key", [
        ({"estimate": "energy", "pairs": 0}, "pairs"),
        ({"estimate": "tame", "t_final": 0.2, "m_values": []}, "m_values"),
        ({"estimate": "energy", "pairs": 1, "gammas": []}, "gammas"),
    ], ids=["energy-no-pairs", "tame-no-m", "energy-no-gammas"])
    def test_empty_sweep_is_config_error(self, runner, tmp_path, payload, key):
        # a sweep over nothing verifies nothing: neither a pass nor a failure
        cfg = write_config(tmp_path, "c.json", payload)
        dest = tmp_path / "o"
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 2, out.output
        assert repr(key) in out.output
        assert not (dest / f"estimate_{payload['estimate']}.json").exists()

    @pytest.mark.parametrize("payload", [
        {"estimate": "der2", "envelope_width": 0.0},
        {"estimate": "der2", "envelope_width": -0.2},
        {"estimate": "energy", "pairs": 1, "envelope_width": 0.0},
        {"estimate": "energy", "pairs": 1, "envelope_width": -0.1},
    ], ids=["der2-zero", "der2-negative", "energy-zero", "energy-negative"])
    def test_windowless_series_is_config_error(self, runner, tmp_path, payload,
                                                monkeypatch):
        # a width of 0 or less windows the profile away: every ratio would
        # be 0 and the check would pass on nothing; rejected before any work
        import amp_sheet.analysis as analysis

        def no_draws(*args, **kwargs):
            raise AssertionError("a random field was drawn")

        monkeypatch.setattr(analysis, "random_trig_field", no_draws)
        cfg = write_config(tmp_path, "c.json", payload)
        dest = tmp_path / "o"
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 2, out.output
        assert "envelope_width" in out.output
        assert not (dest / f"estimate_{payload['estimate']}.json").exists()

    def test_tame_solves_once(self, runner, tmp_path, monkeypatch):
        # every m reads the same linearized solution
        import amp_sheet.analysis as analysis
        calls = []
        real = analysis.solve_linearized

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "solve_linearized", counted)
        cfg = write_config(tmp_path, "c.json", {"estimate": "tame", "t_final": 0.2})
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(tmp_path / "o"), "--quiet"])
        assert out.exit_code == 0, out.output
        assert len(calls) == 1

    def test_forcing_estimate(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "estimate": "forcing", "delta": 0.75, "nu": 6,
            "phi0": {"cos": {"1": 0.1}},
        })
        dest = tmp_path / "o"
        out = runner.invoke(main, ["verify-estimates", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0
        report = json.loads((dest / "estimate_forcing.json").read_text())
        assert 0.95 <= report["order"] <= 2.2


class TestCsvWriter:
    """_write_csv writes, byte for byte, what the csv module writes from
    cells formatted one at a time with 17 significant digits: a float table
    in one pass, rows with string cells through the csv module."""

    HEADER = ("t", "a", "b", "c")

    @staticmethod
    def by_csv_module(header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([x if isinstance(x, str) else f"{float(x):.17g}" for x in row]
                         for row in rows)
        return buf.getvalue()

    @staticmethod
    def body(tmp_path, header, rows):
        path = tmp_path / "t.csv"
        _write_csv(path, header, rows, {"k": [2, 1]}, True)
        version, config, body = path.read_bytes().decode("utf-8").split("\n", 2)
        assert version.startswith("# version: ") and config == '# config: {"k": [2, 1]}'
        return body

    def test_float_table(self, tmp_path):
        rng = np.random.default_rng(11)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                   np.finfo(float).max, np.finfo(float).tiny, 0.1, 1.0 / 3.0, 1e16, 123456789.0,
                   -2.5]
        scaled = rng.standard_normal(48) * 10.0 ** rng.integers(-320, 300, 48)
        for table in (np.concatenate([special, scaled]).reshape(-1, 4), np.empty((0, 4))):
            got = self.body(tmp_path, self.HEADER, table)
            assert got == self.by_csv_module(self.HEADER, table)

    def test_special_cells_as_written(self, tmp_path):
        table = np.array([[np.nan, np.inf, -np.inf, -0.0], [5e-324, 1e308, 1.0, 0.5]])
        assert self.body(tmp_path, self.HEADER, table) == (
            "t,a,b,c\nnan,inf,-inf,-0\n4.9406564584124654e-324,1e+308,1,0.5\n")

    def test_string_cells(self, tmp_path):
        # residuals.csv leaves a cell "", constants.csv quotes the JSON
        # param [2, 1], whose comma would split it
        rows = [(0.0, 0.25, "", ""), ("A3", "[2, 1]", np.nan, "True"), (1.0, -0.0, 5e-324, "")]
        got = self.body(tmp_path, self.HEADER, rows)
        assert got == self.by_csv_module(self.HEADER, rows)
        assert got.splitlines()[1:] == ["0,0.25,,", 'A3,"[2, 1]",nan,True',
                                        "1,-0,4.9406564584124654e-324,"]


class TestCommutatorConstants:
    def test_single_lemma(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "lemma": "A1_comm_1", "samples": 33, "n_lo": 64, "n_hi": 128,
        })
        dest = tmp_path / "o"
        out = runner.invoke(main, ["commutator-constants", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0
        report = json.loads((dest / "constants.json").read_text())
        assert report["passed"] is True
        rows = (dest / "constants.csv").read_text().splitlines()
        assert rows[3].startswith("A1_comm_1,")
        # worker processes change nothing in the artifacts
        pooled = tmp_path / "o2"
        out = runner.invoke(main, ["commutator-constants", "--config", cfg,
                                   "--output", str(pooled), "--quiet", "--jobs", "2"])
        assert out.exit_code == 0
        for name in ("constants.csv", "constants.json"):
            assert (pooled / name).read_bytes() == (dest / name).read_bytes()

    def test_csv_cells_of_pair_params(self, runner, tmp_path):
        # the pair lemmas' param [m, q] holds a comma; csv.reader must still
        # read six cells on their rows
        cfg = write_config(tmp_path, "c.json", {"samples": 2, "n_lo": 32, "n_hi": 64})
        dest = tmp_path / "o"
        runner.invoke(main, ["commutator-constants", "--config", cfg,
                             "--output", str(dest), "--quiet"])
        with open(dest / "constants.csv", newline="") as fh:
            rows = {r[0]: r for r in csv.reader(fh) if not r[0].startswith("#")}
        assert len(rows["lemma"]) == 6
        for name in ("A3", "A4_comm_4", "A4_comm_5"):
            assert len(rows[name]) == 6, rows[name]
            assert json.loads(rows[name][1]) == [2, 1 if name == "A3" else 2]

    def test_band_of_zero_modes_is_config_error(self, runner, tmp_path):
        # n_lo = 4 bands the draws to 4 // 6 = 0 modes: all zero fields
        cfg = write_config(tmp_path, "c.json", {"samples": 3, "n_lo": 4, "n_hi": 8})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["commutator-constants", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 2, out.output
        assert "n_lo" in out.output
        assert not (dest / "constants.json").exists()

    @pytest.mark.parametrize("decay", [1e308, -1e308, 1e4, 300.0, -300.0])
    def test_decay_whose_weights_are_zero_or_infinite_is_config_error(self, runner, tmp_path,
                                                                      decay):
        # (1+k)^decay overflows a float (1e308, 1e4) or underflows to 0
        # (-1e308) for some k <= kmax, or its fourth power or that of its
        # inverse does (+-300, where the campaign's degree-four arithmetic
        # would overflow or underflow): rejected before any draw
        cfg = write_config(tmp_path, "c.json", {"lemma": "A2", "samples": 2, "n_lo": 32,
                                                "n_hi": 64, "decay": decay})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["commutator-constants", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 2, out.output
        assert "decay" in out.output
        assert not (dest / "constants.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("decay", [-97.0, -99.0])
    def test_decay_that_overflows_the_draws_is_config_error(self, runner, tmp_path, decay, jobs):
        # w^-4 stays finite, so _trig_weights lets these through, but the
        # squares in the norms of the draws' products overflow: a config
        # error, not overflow warnings and a failed verification (exit 1),
        # in the worker processes too (33 samples are two blocks)
        cfg = write_config(tmp_path, "c.json", {"lemma": "all", "samples": 33, "n_lo": 32,
                                                "n_hi": 64, "decay": decay})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["commutator-constants", "--config", cfg,
                                   "--output", str(dest), "--quiet", "--jobs", jobs])
        assert out.exit_code == 2, out.output
        assert f"decay = {decay:g}" in out.output
        assert not (dest / "constants.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("lemma", ["A2", "A1_comm_1"])
    def test_param_that_overflows_names_the_lemma(self, runner, tmp_path, lemma, jobs):
        # the Sobolev and derivative weights of param 400 overflow: the
        # error names the lemma and its param, not the decay alone
        cfg = write_config(tmp_path, "c.json", {"lemma": lemma, "param": 400, "samples": 2,
                                                "n_lo": 32, "n_hi": 64})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["commutator-constants", "--config", cfg,
                                   "--output", str(dest), "--quiet", "--jobs", jobs])
        assert out.exit_code == 2, out.output
        assert f"lemma {lemma}" in out.output and "param 400" in out.output
        assert not (dest / "constants.json").exists()

    def test_unknown_lemma(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"lemma": "A9"})
        out = runner.invoke(main, ["commutator-constants", "--config", cfg,
                                   "--output", str(tmp_path / "o")])
        assert out.exit_code == 2


class TestNashMoser:
    NM = {"mu": 1.0, "delta": 0.9, "grid_n": 32, "galerkin_N": 10,
          "dt": 0.002, "t_final": 0.5, "phi0": {"cos": {"1": 0.01}}}

    def test_converged_run(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.NM)
        dest = tmp_path / "o"
        out = runner.invoke(main, ["nash-moser", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 0
        report = json.loads((dest / "nash_moser.json").read_text())
        assert report["outcome"] == "converged"
        assert report["report"]["converged"] is True
        # CSV numbers carry full double precision
        line = (dest / "residuals.csv").read_text().splitlines()[3]
        first_residual = float(line.split(",")[1])
        assert first_residual == report["report"]["residual_norms"][0]

    def test_data_the_lifting_cannot_handle_exits_two(self, runner, tmp_path):
        # a velocity no ramp width can absorb within the 3 delta/4 margin
        cfg = write_config(tmp_path, "c.json", {**ZERO_SIM, "delta": 0.5,
                                                "phi1": {"cos": {"1": 100000.0}}})
        out = runner.invoke(main, ["nash-moser", "--config", cfg,
                                   "--output", str(tmp_path / "o"), "--quiet"])
        assert out.exit_code == 2, out.output
        assert "ramp width" in out.output

    @pytest.mark.parametrize("halvings,attempts", [(None, 1), (0, 1), (2, 3)])
    def test_max_halvings_bounds_the_restarts(self, runner, tmp_path, monkeypatch,
                                              halvings, attempts):
        # a run that always diverges: max_halvings restarts, each on half the
        # horizon, then the outcome is "diverged"; none without the key
        import amp_sheet.nash_moser as nm
        horizons = []

        def diverges(cfg, data):
            horizons.append(cfg.sim.t_final)
            return None, nm.IterationReport(residual_norms=[1.0], stability_mins=[1.0],
                                            outcome="diverged")

        monkeypatch.setattr(nm, "iterate", diverges)
        extra = {} if halvings is None else {"max_halvings": halvings}
        cfg = write_config(tmp_path, "c.json", {**self.NM, **extra})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["nash-moser", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 3, out.output
        assert horizons == [0.5 / 2**i for i in range(attempts)]
        report = json.loads((dest / "nash_moser.json").read_text())
        assert report["outcome"] == "diverged"
        assert report["config"]["max_halvings"] == (halvings or 0)
        assert "auto" not in report["config"]
        assert not (dest / "final_modes.csv").exists()

    def test_stalled_run_exits_three(self, runner, tmp_path):
        # the residual sits at the out-of-band floor and the corrections
        # vanish: the run ends as stalled after 5 of its 6 corrections,
        # without a restart, and keeps its final state
        cfg = write_config(tmp_path, "c.json", {
            "mu": 4.0, "delta": 2.0, "grid_n": 32, "galerkin_N": 8, "dt": 0.002,
            "t_final": 1.0, "gamma": 1.0, "max_iters": 6, "max_halvings": 2,
            "phi0": {"cos": {"1": 0.8}}})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["nash-moser", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 3, out.output
        body = json.loads((dest / "nash_moser.json").read_text())
        assert body["outcome"] == body["report"]["outcome"] == "stalled"
        assert body["report"]["iterations"] == 5
        assert body["report"]["metadata"]["t_final"] == 1.0
        assert len(body["report"]["residual_norms"]) == 6
        assert (dest / "final_modes.csv").exists()

    def test_aborted_run_counts_its_correction(self, runner, tmp_path):
        # the second residual finds the margin lost: one correction, two
        # residuals, no final state
        cfg = write_config(tmp_path, "c.json", {
            "mu": 1.0, "delta": 0.99, "grid_n": 32, "galerkin_N": 8, "dt": 0.002,
            "t_final": 0.8, "gamma": 1.0, "phi1": {"cos": {"1": 1.0}}})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["nash-moser", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 3, out.output
        body = json.loads((dest / "nash_moser.json").read_text())
        assert body["outcome"] == body["report"]["outcome"] == "stability_aborted"
        rep = body["report"]
        assert rep["iterations"] == len(rep["correction_norms"]) == 1
        assert len(rep["residual_norms"]) == 2
        assert not (dest / "final_modes.csv").exists()

    def test_exhausted_iterations_flagged(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**self.NM, "max_iters": 1})
        dest = tmp_path / "o"
        out = runner.invoke(main, ["nash-moser", "--config", cfg,
                                   "--output", str(dest), "--quiet"])
        assert out.exit_code == 3
        report = json.loads((dest / "nash_moser.json").read_text())
        assert report["outcome"] == "exhausted_max_iters"
        assert (dest / "final_modes.csv").exists()
