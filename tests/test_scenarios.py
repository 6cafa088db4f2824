"""End-to-end smoke runs of every cataloged scenario with light budgets."""

import csv
from pathlib import Path

import pytest
import yaml

from degenflow.config import ANCHORS, SCENARIOS, ScenarioConfig, validate_config
from degenflow.scenarios import run_scenario

LIGHT_KNOBS = {
    "kinetic_bismut": {"n_paths": 4000, "n_steps": 64},
    "gradient_scaling": {"budget": 40000},
    "gramian_sweep": {},
    "picard_lambda_sweep": {"base_points": 64},
    "galerkin_wave": {"n_reference": 9, "lam": 64.0},
    "uniqueness_rough": {"steps": [128, 256]},
    "representation_residual": {"rough_gridpoints": 257, "rough_timenodes": 33,
                                "n_paths": 4},
    "bihari_envelope": {"n_paths": 100, "n_steps": 128},
}

EXPECTED_FILES = {
    "kinetic_bismut": "gradients.csv",
    "gradient_scaling": "scaling.csv",
    "gramian_sweep": "gramian.csv",
    "picard_lambda_sweep": "lambda_sweep.csv",
    "galerkin_wave": "galerkin.csv",
    "uniqueness_rough": "uniqueness.csv",
    "representation_residual": "residuals.csv",
    "bihari_envelope": "envelope.csv",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_runs_and_cites_anchors(name, tmp_path, monkeypatch):
    raw = {"experiment": {"scenario": name, "seed": 7, **LIGHT_KNOBS[name]},
           "output": {"dir": str(tmp_path)}}
    assert validate_config(raw) == []
    cfg = ScenarioConfig(raw=raw)
    read = set()
    knob = ScenarioConfig.knob
    monkeypatch.setattr(ScenarioConfig, "knob",
                        lambda self, key: read.add(key) or knob(self, key))
    lines = run_scenario(cfg, tmp_path)
    # the runner reads exactly its declared knobs: validation rejects no
    # knob it honours and accepts none it ignores
    assert read == set(SCENARIOS[name].knobs)
    assert lines, "scenario produced no summary lines"
    for line in lines:
        assert line.startswith("["), f"summary line without anchor: {line}"
        anchor = line[1:line.index("]")]
        assert anchor in ANCHORS
    expected = tmp_path / EXPECTED_FILES[name]
    assert expected.exists()
    # every cell is a plain literal (no numpy scalar reprs)
    with open(expected) as fh:
        assert not [c for row in csv.reader(fh) for c in row if "np." in c]
    if name == "kinetic_bismut":
        assert (tmp_path / "paths.dgfb").exists()
    if name == "representation_residual":
        assert (tmp_path / "rough_field.dgfb").exists()
        assert (tmp_path / "rough_trajectory.dgfb").exists()


def test_catalog_has_exactly_eight_scenarios():
    assert len(SCENARIOS) == 8
    for info in SCENARIOS.values():
        assert info.anchor in ANCHORS
        assert info.description


def test_picard_sweep_names_an_unmeasurable_contraction_factor(tmp_path):
    # at base_points 1 the solves converge before any factor clears the
    # residual floor, so there is no median to print
    raw = {"experiment": {"scenario": "picard_lambda_sweep", "seed": 1, "base_points": 1}}
    lines = run_scenario(ScenarioConfig(raw=raw), tmp_path)
    claim = [ln for ln in lines if ln.startswith("[picard-contraction-half]")]
    assert len(claim) == 1
    assert "not measurable" in claim[0] and "iterations" in claim[0]
    assert "0.000" not in claim[0]


def test_picard_sweep_flags_a_slope_outside_the_claim_window(tmp_path):
    # at base_points 1 the norm slope is about -0.82, outside [-0.6, -0.4]
    raw = {"experiment": {"scenario": "picard_lambda_sweep", "seed": 1, "base_points": 1}}
    lines = run_scenario(ScenarioConfig(raw=raw), tmp_path)
    claim = [ln for ln in lines if ln.startswith("[field-norm-sqrt-decay]")]
    assert len(claim) == 1
    assert claim[0].endswith("(expected -1/2); outside the window [-0.6, -0.4]")
