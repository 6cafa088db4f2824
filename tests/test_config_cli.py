"""Config validation, CLI exit codes, scenario catalog, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml

import degenflow
from degenflow.cli import main
from degenflow.config import ANCHORS, SCENARIOS, load_config, validate_config
from degenflow import scenarios
from degenflow.errors import AccuracyWarning, ConfigError, CoverageError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Validation


def test_missing_seed_names_field(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("experiment:\n  scenario: gramian_sweep\n")
    code, _, err = _run_cli("validate", str(cfg))
    assert code == 2
    assert "experiment.seed" in err


def test_unknown_scenario_rejected():
    errors = validate_config({"experiment": {"scenario": "nope", "seed": 1}})
    assert any("experiment.scenario" in e for e in errors)


def test_negative_budget_rejected():
    errors = validate_config({"experiment": {"scenario": "gramian_sweep",
                                             "seed": 1, "n_paths": -5}})
    assert any("experiment.n_paths" in e for e in errors)


# values of the right type that a runner cannot honour: outside a knob's
# catalog bound, or not finite
OUT_OF_RANGE = [
    ("galerkin_wave", "n_reference", 4),
    ("galerkin_wave", "lam", -1),
    ("representation_residual", "lam", -4),
    ("representation_residual", "rough_gridpoints", 1),
    ("representation_residual", "rough_timenodes", 1),
    ("uniqueness_rough", "t_final", -1),
    ("uniqueness_rough", "perturbations", [-0.1]),
    ("bihari_envelope", "t_final", -2),
    ("kinetic_bismut", "n_paths", 1),
    ("uniqueness_rough", "t_final", math.inf),
    ("galerkin_wave", "amplitude", math.nan),
]


# an output section is a mapping that holds dir and nothing else
BAD_OUTPUT = [
    # safe_dump sorts the keys, so bogus is the first error a command prints
    ({"dir": "x", "formats": ["parquet"], "bogus": 3}, "output.bogus"),
    ("somewhere", "output"),
    ([1, 2], "output"),
]


@pytest.mark.parametrize("scenario,key,value", [
    ("kinetic_bismut", "n_paths", 2.7),
    ("gramian_sweep", "seed", 2.7),
    ("gramian_sweep", "seed", True),
    ("gramian_sweep", "seed", -1),
    ("galerkin_wave", "n_reference", 2.7),
    ("representation_residual", "rough_timenodes", 2.7),
    ("bihari_envelope", "n_steps", True),
    ("uniqueness_rough", "steps", [128, 2.5]),
    ("uniqueness_rough", "perturbations", 0.01),
    ("galerkin_wave", "lam", "64"),
] + OUT_OF_RANGE)
def test_knob_value_of_wrong_type_rejected(tmp_path, scenario, key, value):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"experiment": {"scenario": scenario, "seed": 1,
                                                  key: value}}))
    code, _, err = _run_cli("validate", str(cfg))
    assert code == 2
    assert f"config error: experiment.{key}: " in err and "must be" in err


@pytest.mark.parametrize("raw,field", [
    ({"experiment": {"scenario": scenario, "seed": 1, key: value}}, f"experiment.{key}")
    for scenario, key, value in OUT_OF_RANGE] + [
    ({"model": {"kind": "wave", "n": 4},
      "experiment": {"scenario": "galerkin_wave", "seed": 1}}, "model.n"),
    ({"experiment": {"scenario": "galerkin_wave", "seed": 1, "amplitude": 0.0}},
     "experiment.amplitude")] + [
    ({"output": output, "experiment": {"scenario": "gramian_sweep", "seed": 1}}, field)
    for output, field in BAD_OUTPUT] + [
    # a scenario that is not a string is not looked up in the catalog
    ({"experiment": {"scenario": scenario, "seed": 1}}, "experiment.scenario")
    for scenario in ([1], {"a": 1})])
def test_run_out_of_range_exits_2_without_traceback(tmp_path, raw, field):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    code, _, err = _run_cli("run", str(cfg), "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith(f"config error: {field}: ") and "Traceback" not in err
    # validate rejects what run rejects, in the same words
    assert _run_cli("validate", str(cfg)) == (2, "", err)


def test_unknown_knob_rejected(tmp_path):
    raw = {"experiment": {"scenario": "kinetic_bismut", "seed": 1, "n_pathz": 5}}
    errors = validate_config(raw)
    assert len(errors) == 1 and errors[0].startswith("experiment.n_pathz: unknown knob")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    code, _, err = _run_cli("run", str(cfg), "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert "experiment.n_pathz" in err
    assert not (tmp_path / "out").exists()


def test_unhonoured_section_rejected(tmp_path):
    raw = {"drift": {"family": "zero"},
           "experiment": {"scenario": "uniqueness_rough", "seed": 1}}
    errors = validate_config(raw)
    assert len(errors) == 1 and errors[0].startswith("drift: ")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    code, _, err = _run_cli("run", str(cfg), "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert "drift" in err
    assert not (tmp_path / "out").exists()
    # the model section is honoured only where declared, and only its kind
    model = {"model": {"kind": "kinetic", "d": 2}}
    for scenario, field in (("kinetic_bismut", "model: "), ("galerkin_wave", "model.kind: ")):
        errors = validate_config({**model, "experiment": {"scenario": scenario, "seed": 1}})
        assert len(errors) == 1 and errors[0].startswith(field)
    # and the output section only where it is a mapping, and only its dir
    for output, field in BAD_OUTPUT:
        raw = {"output": output, "experiment": {"scenario": "gramian_sweep", "seed": 1}}
        errors = validate_config(raw)
        assert sorted(e.split(":")[0] for e in errors) == (
            ["output.bogus", "output.formats"] if field == "output.bogus" else [field])
        cfg.write_text(yaml.safe_dump(raw))
        code, out, err = _run_cli("validate", str(cfg))
        assert code == 2 and out == "" and err.startswith(f"config error: {field}: ")


def test_unread_model_key_rejected(tmp_path):
    raw = {"model": {"kind": "wave", "thta": 3.0, "drift": "rough_y"},
           "experiment": {"scenario": "galerkin_wave", "seed": 5}}
    errors = validate_config(raw)
    assert [e.split(":")[0] for e in errors] == ["model.thta", "model.drift"]
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    code, _, err = _run_cli("validate", str(cfg))
    assert code == 2 and "config error: model.thta: " in err
    code, _, err = _run_cli("run", str(cfg), "--outdir", str(tmp_path / "out"))
    assert code == 2 and "model.thta" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # every key the scenario passes on validates, and a non-mapping section does not
    info = SCENARIOS["galerkin_wave"]
    values = {"kind": "wave", "theta": 1.0, "d_space": 1, "delta": 0.4}
    assert set(values) == set(info.model_keys)
    assert validate_config({"model": values, "experiment": raw["experiment"]}) == []
    # experiment.n_reference alone sets the mode count
    cfg.write_text(yaml.safe_dump({"model": {"kind": "wave", "n": 12},
                                   "experiment": raw["experiment"]}))
    for command in (("validate", str(cfg)), ("run", str(cfg), "--outdir", str(tmp_path / "out"))):
        code, _, err = _run_cli(*command)
        assert code == 2
        assert err == ("config error: model.n: scenario 'galerkin_wave' does not read this "
                       "key; known: kind, theta, d_space, delta\n")
    assert not (tmp_path / "out").exists()
    errors = validate_config({"model": "wave", "experiment": raw["experiment"]})
    assert len(errors) == 1 and errors[0].startswith("model: must be a mapping")


@pytest.mark.parametrize("key,value,problem", [
    ("theta", "abc", "must be a finite number"),
    ("theta", True, "must be a finite number"),
    ("delta", math.nan, "must be a finite number"),
    ("theta", math.inf, "must be a finite number"),
    ("d_space", 2.5, "must be a positive integer"),
    ("d_space", 0, "must be a positive integer"),
    ("d_space", True, "must be a positive integer"),
    ("d_space", "12", "must be a positive integer"),
])
def test_model_value_of_wrong_type_rejected(tmp_path, key, value, problem):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"model": {"kind": "wave", key: value},
                                   "experiment": {"scenario": "galerkin_wave", "seed": 5}}))
    for command in (("validate", str(cfg)), ("run", str(cfg), "--outdir", str(tmp_path / "out"))):
        code, _, err = _run_cli(*command)
        assert code == 2
        assert err.startswith(f"config error: model.{key}: {problem}, got ")
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_shipped_configs_validate():
    for path in CONFIG_DIR.glob("*.yaml"):
        if path.name == "missing_seed.yaml":
            continue
        raw = yaml.safe_load(path.read_text())
        assert validate_config(raw) == [], path.name


def test_catalog_defaults_validate():
    for name, info in SCENARIOS.items():
        assert validate_config({"experiment": {"scenario": name, "seed": 1,
                                               **info.knobs}}) == [], name


def test_load_config_raises_on_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.yaml")
    # a missing, unreadable, undecodable or unparseable file is a config error
    # (exit 2, no traceback) for both commands that read a config
    (tmp_path / "latin1.yaml").write_bytes(b"experiment:\n  scenario: caf\xe9\n")
    (tmp_path / "bad.yaml").write_text("experiment: [unclosed\n")
    for path in (tmp_path / "missing.yaml", tmp_path, tmp_path / "latin1.yaml",
                 tmp_path / "bad.yaml"):
        with pytest.raises(ConfigError):
            load_config(path)
        for command in (("validate", str(path)),
                        ("run", str(path), "--outdir", str(tmp_path / "out"))):
            code, out, err = _run_cli(*command)
            assert code == 2 and out == ""
            assert err.startswith("config error: ") and "Traceback" not in err
            assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# CLI behavior


def test_list_scenarios_catalog():
    code, out, _ = _run_cli("list-scenarios")
    assert code == 0
    assert "8 scenarios" in out
    for name in SCENARIOS:
        assert name in out


def test_list_scenarios_machine_csv():
    code, out, _ = _run_cli("list-scenarios", "--machine")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "anchor", "description"]
    assert len(rows) == 1 + len(SCENARIOS)
    for row in rows[1:]:
        assert row[1] in ANCHORS


def test_run_gramian_scenario(tmp_path):
    code, out, _ = _run_cli("run", str(CONFIG_DIR / "gramian_sweep.yaml"),
                            "--outdir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "gramian.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    assert "[gramian-cubic-scaling]" in out


def test_run_missing_seed_exits_2(tmp_path):
    code, _, err = _run_cli("run", str(CONFIG_DIR / "missing_seed.yaml"),
                            "--outdir", str(tmp_path))
    assert code == 2
    assert "experiment.seed" in err


def test_run_wave_theta_low_exits_3_citing_h3(tmp_path):
    code, _, err = _run_cli("run", str(CONFIG_DIR / "wave_theta_low.yaml"),
                            "--outdir", str(tmp_path / "out"))
    assert code == 3
    assert "(H3)" in err
    # the model is built before any artifact is written: no output directory
    assert not (tmp_path / "out").exists()


def test_run_toolkit_error_exits_4_with_one_line(tmp_path, monkeypatch):
    def leaves_box(cfg, outdir):
        raise CoverageError("trajectory exits the field box at t=0.5")

    monkeypatch.setattr(scenarios, "_run_gramian_sweep", leaves_box)
    code, out, err = _run_cli("run", str(CONFIG_DIR / "gramian_sweep.yaml"),
                              "--outdir", str(tmp_path))
    assert code == 4
    assert err == "error: CoverageError: trajectory exits the field box at t=0.5\n"
    assert not (tmp_path / "summary.txt").exists()


def test_run_stiff_wave_model_solves_every_mode(tmp_path):
    # admissible under (H3); mode 7 has lambda h = 1029 at the grid's time step
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"model": {"kind": "wave", "theta": 2.0, "d_space": 2},
                                   "experiment": {"scenario": "galerkin_wave", "seed": 5}}))
    code, _, err = _run_cli("run", str(cfg), "--outdir", str(tmp_path / "out"))
    assert code == 0, err
    with open(tmp_path / "out" / "galerkin.csv", newline="") as fh:
        gaps = [float(row["value_gap"]) for row in csv.DictReader(fh)]
    assert len(gaps) == 3 and all(a > b for a, b in zip(gaps, gaps[1:]))


def test_python_m_degenflow_runs_the_cli():
    src = str(Path(degenflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "degenflow", "list-scenarios"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{len(SCENARIOS)} scenarios:")


def test_low_budget_scaling_states_paths_per_point(tmp_path):
    cfg = tmp_path / "gs.yaml"
    cfg.write_text("experiment:\n  scenario: gradient_scaling\n  seed: 7\n  budget: 1\n")
    with pytest.warns(AccuracyWarning):
        code, out, err = _run_cli("run", str(cfg), "--outdir", str(tmp_path / "out"))
    assert code == 0, err
    lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    for anchor in ("gradient-x-exponent", "gradient-y-exponent"):
        claim = [ln for ln in lines if ln.startswith(f"[{anchor}]")]
        assert len(claim) == 1
        assert claim[0].endswith("; low budget: 2 paths per point")


def test_rerun_reproduces_outputs_byte_for_byte(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _, _ = _run_cli("run", str(CONFIG_DIR / "gramian_sweep.yaml"),
                              "--outdir", str(out))
        assert code == 0
    assert (a / "gramian.csv").read_bytes() == (b / "gramian.csv").read_bytes()


def test_rerun_reproduces_stochastic_scenario_byte_for_byte(tmp_path):
    cfg = tmp_path / "kb.yaml"
    cfg.write_text(
        "experiment:\n  scenario: kinetic_bismut\n  seed: 31\n"
        "  n_paths: 2000\n  n_steps: 64\n")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = _run_cli("run", str(cfg), "--outdir", str(out))
        assert code == 0
    for name in ("gradients.csv", "paths.dgfb", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_env_var_outdir_override(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("DEGENFLOW_OUTDIR", str(target))
    code, _, _ = _run_cli("run", str(CONFIG_DIR / "gramian_sweep.yaml"))
    assert code == 0
    assert (target / "gramian.csv").exists()


def test_summary_lines_cite_only_table_anchors(tmp_path):
    code, out, _ = _run_cli("run", str(CONFIG_DIR / "gramian_sweep.yaml"),
                            "--outdir", str(tmp_path))
    assert code == 0
    for line in out.splitlines():
        if line.startswith("["):
            anchor = line[1:line.index("]")]
            assert anchor in ANCHORS


def test_kinetic_bismut_scenario_canonical_probe(tmp_path):
    cfg = tmp_path / "kb.yaml"
    cfg.write_text(
        "experiment:\n  scenario: kinetic_bismut\n  seed: 2024\n"
        "  n_paths: 5000\n  n_steps: 128\n")
    code, out, _ = _run_cli("run", str(cfg), "--outdir", str(tmp_path / "out"))
    assert code == 0
    csv_path = tmp_path / "out" / "gradients.csv"
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    probe = rows[0]  # canonical probe: d/dy E[X_T] = 1
    value = float(probe["value"])
    stderr = float(probe["stderr"])
    assert abs(value - 1.0) <= 5.0 * stderr


def test_scenario_box_widens_for_paths_that_leave_it(tmp_path):
    # this seed drives a rough path to |Y| = 6.14, past the [-6, 6] box
    cfg = tmp_path / "rr.yaml"
    cfg.write_text(yaml.safe_dump({"experiment": {
        "scenario": "representation_residual", "seed": 979526890,
        "rough_gridpoints": 129, "rough_timenodes": 17}}))
    code, _, err = _run_cli("run", str(cfg), "--outdir", str(tmp_path / "out"))
    assert code == 0, err
    assert (tmp_path / "out" / "rough_field.dgfb").exists()


def test_import_leaves_scipy_integrate_unloaded():
    src = str(Path(degenflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys\n"
            "import degenflow.model, degenflow.linear_flow, degenflow.bismut\n"
            "import degenflow.regularization, degenflow.sde, degenflow.persist\n"
            "import degenflow.scenarios, degenflow.cli\n"
            "sys.exit(any(m in sys.modules for m in "
            "('scipy.integrate', 'scipy.special', 'scipy.sparse')))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    # the coupling check's terminal gap is closed-form, not quadrature
    code = ("import sys\n"
            "from degenflow.bismut import verify_coupling\n"
            "from degenflow.model import build_example\n"
            "model, _ = build_example('kinetic', d=1)\n"
            "verify_coupling(model, 0.0, 1.0, [0.0, 1.0], 0.5, n_paths=100, n_steps=16,"
            " seed=0)\n"
            "sys.exit('scipy.integrate' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_validate_and_list_scenarios_start_without_numerical_modules():
    # the catalog and the gate live in config, so only run loads the layers
    src = str(Path(degenflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    commands = [["validate", str(path)] for path in sorted(CONFIG_DIR.glob("*.yaml"))]
    commands += [["list-scenarios"], ["list-scenarios", "--machine"]]
    code = ("import contextlib, io, json, sys\n"
            "from degenflow.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {commands!r}]\n"
            "print(json.dumps([codes, sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout)
    assert codes.count(0) == len(commands) - 1  # missing_seed.yaml exits 2
    loaded = [m for m in modules if m.split(".")[0] in ("numpy", "scipy")
              or m.startswith("degenflow.")]
    assert loaded == ["degenflow.cli", "degenflow.config", "degenflow.errors"]
