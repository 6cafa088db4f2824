"""Scenario configuration: a single nested key-value YAML file per run.

Sections:

    experiment:  scenario name, root seed, budgets, sweep grids
    output:      dir, formats
    model:       kind + parameters, only for a scenario that declares it
                 reads one (galerkin_wave, kind wave), and only the keys the
                 scenario catalog lists for it
    drift:       read by no shipped scenario, so always rejected

A key or section the scenario does not read fails validation instead of
being silently ignored.

All randomness flows from experiment.seed through named substreams, so
re-running a config reproduces every number byte-for-byte.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

from .errors import ConfigError


@dataclass(frozen=True)
class ScenarioConfig:
    raw: dict

    @property
    def model_section(self) -> dict:
        return dict(self.raw.get("model", {}))

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

    def knob(self, name: str):
        """An experiment knob's value, or its catalog default, as the default's type."""
        from .scenarios import SCENARIOS
        default = SCENARIOS[self.scenario].knobs[name]
        value = self.experiment.get(name, default)
        if isinstance(default, list):
            return [type(default[0])(v) for v in value]
        return type(default)(value)

    def outdir(self) -> Path:
        return Path(self.output.get("dir", "degenflow-out"))


_COMPARE = {">": operator.gt, ">=": operator.ge}


def _knob_problem(value, default, bound=None) -> Optional[str]:
    """Why ``value`` cannot stand for a knob with this default and catalog
    bound, or None: an int knob takes a positive int, a float knob any finite
    int or float, a list knob a non-empty list of such items, each also satisfying
    ``bound`` = (op, limit) if given; nothing is truncated or parsed."""
    if isinstance(default, list):
        if type(value) is not list or not value:
            return "must be a non-empty list"
        problem = next(filter(None, (_knob_problem(v, default[0], bound) for v in value)),
                       None)
        return problem and f"each item {problem}"
    # type(True) is bool, not int: a boolean is never a number here
    if type(default) is int:
        if type(value) is not int or value <= 0:
            return "must be a positive integer"
    elif type(value) not in (int, float) or not math.isfinite(value):
        return "must be a finite number"
    if bound and not _COMPARE[bound[0]](value, bound[1]):
        return f"must be {bound[0]} {bound[1]}"
    return None


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
        info = SCENARIOS[scenario]
        for key, value in exp.items():
            if key in info.knobs:
                problem = _knob_problem(value, info.knobs[key], info.bounds.get(key))
                if problem:
                    errors.append(f"experiment.{key}: {problem}, got {value!r}")
            elif key not in ("scenario", "seed"):
                errors.append(f"experiment.{key}: unknown knob for scenario "
                              f"{scenario!r}; known: {', '.join(info.knobs) or 'none'}")
        if "drift" in raw:
            errors.append(f"drift: scenario {scenario!r} fixes its own drift "
                          "and does not read this section")
        if "model" in raw:
            model = raw["model"]
            if info.model_kind is None:
                errors.append(f"model: scenario {scenario!r} fixes its own model "
                              "and does not read this section")
            elif not isinstance(model, dict):
                errors.append(f"model: must be a mapping, got {model!r}")
            elif model.get("kind", info.model_kind) != info.model_kind:
                errors.append(f"model.kind: scenario {scenario!r} builds a "
                              f"{info.model_kind!r} model, got {model['kind']!r}")
            else:
                errors += [f"model.{key}: scenario {scenario!r} does not read this "
                           f"key; known: {', '.join(info.model_keys)}"
                           for key in model if key not in info.model_keys]
    if "seed" not in exp:
        errors.append("experiment.seed: missing (no silent nondeterminism)")
    elif type(exp["seed"]) is not int or exp["seed"] < 0:
        errors.append(f"experiment.seed: must be a non-negative integer, "
                      f"got {exp['seed']!r}")
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
    return ScenarioConfig(raw=raw)
