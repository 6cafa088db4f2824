"""Scenario configuration: a single nested key-value YAML file per run.

Sections:

    model:       kind (kinetic | second_order | wave) + parameters
    drift:       family tag + parameters (overrides the example default)
    experiment:  scenario name, root seed, budgets, sweep grids
    output:      dir, formats

All randomness flows from experiment.seed through named substreams, so
re-running a config reproduces every number byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .errors import ConfigError
from .model import build_drift, build_example

MODEL_KINDS = ("kinetic", "second_order", "wave")
DRIFT_FAMILIES = ("zero", "constant", "dissipative", "rough_d1", "rough_y",
                  "tanh_steep")
MODULUS_FAMILIES = ("power", "log_power", "log_sqrt")


@dataclass(frozen=True)
class ScenarioConfig:
    raw: dict
    path: Optional[str] = None

    @property
    def model_section(self) -> dict:
        return dict(self.raw.get("model", {}))

    @property
    def drift_section(self) -> dict:
        return dict(self.raw.get("drift", {}))

    @property
    def experiment(self) -> dict:
        return dict(self.raw.get("experiment", {}))

    @property
    def output(self) -> dict:
        return dict(self.raw.get("output", {}))

    @property
    def scenario(self) -> str:
        return str(self.experiment.get("scenario", ""))

    @property
    def seed(self) -> int:
        return int(self.experiment["seed"])

    def knob(self, name: str, default):
        return self.experiment.get(name, default)

    def outdir(self) -> Path:
        return Path(self.output.get("dir", "degenflow-out"))

    def build_model(self):
        """(SpectralModel, DriftSpec) from the model and drift sections."""
        section = self.model_section
        kind = section.pop("kind", "kinetic")
        drift = self.drift_section
        if drift:
            params = dict(drift)
            family = params.pop("family")
            section["drift"] = family
            section["drift_params"] = params
        return build_example(kind, **section)


def validate_config(raw: dict) -> list:
    """Field-level validation; returns a list of error strings (empty = ok)."""
    from .scenarios import SCENARIOS
    errors = []
    if not isinstance(raw, dict):
        return ["config root must be a mapping"]
    exp = raw.get("experiment")
    if not isinstance(exp, dict):
        errors.append("experiment: section missing")
        exp = {}
    scenario = exp.get("scenario")
    if not scenario:
        errors.append("experiment.scenario: missing")
    elif scenario not in SCENARIOS:
        errors.append(f"experiment.scenario: unknown scenario {scenario!r}; "
                      f"known: {', '.join(sorted(SCENARIOS))}")
    else:
        knobs = SCENARIOS[scenario].knobs
        for key in exp:
            if key not in ("scenario", "seed") and key not in knobs:
                errors.append(f"experiment.{key}: unknown knob for scenario "
                              f"{scenario!r}; known: {', '.join(knobs) or 'none'}")
    if "seed" not in exp:
        errors.append("experiment.seed: missing (no silent nondeterminism)")
    else:
        try:
            int(exp["seed"])
        except (TypeError, ValueError):
            errors.append("experiment.seed: must be an integer")
    for key, value in exp.items():
        if key in ("scenario", "seed"):
            continue
        if any(key.endswith(sfx) for sfx in ("paths", "steps", "budget", "points")):
            items = value if isinstance(value, (list, tuple)) else [value]
            for item in items:
                try:
                    if int(item) <= 0:
                        errors.append(f"experiment.{key}: must be positive")
                        break
                except (TypeError, ValueError):
                    errors.append(f"experiment.{key}: must be a positive integer")
                    break
    model = raw.get("model", {})
    if model:
        kind = model.get("kind", "kinetic")
        if kind not in MODEL_KINDS:
            errors.append(f"model.kind: unknown kind {kind!r}; "
                          f"known: {', '.join(MODEL_KINDS)}")
    drift = raw.get("drift", {})
    if drift:
        family = drift.get("family")
        if not family:
            errors.append("drift.family: missing")
        elif family not in DRIFT_FAMILIES:
            errors.append(f"drift.family: unknown family {family!r}; "
                          f"known: {', '.join(DRIFT_FAMILIES)}")
        modulus = drift.get("modulus")
        if modulus and modulus not in MODULUS_FAMILIES:
            errors.append(f"drift.modulus: unknown family {modulus!r}; "
                          f"known: {', '.join(MODULUS_FAMILIES)}")
    out = raw.get("output", {})
    if out and "dir" in out and not isinstance(out["dir"], str):
        errors.append("output.dir: must be a string path")
    return errors


def load_config(path) -> ScenarioConfig:
    """Parse and validate a YAML config; raises ConfigError on any problem."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    errors = validate_config(raw if raw is not None else {})
    if errors:
        raise ConfigError("; ".join(errors))
    return ScenarioConfig(raw=raw, path=str(path))
