"""Scenario configuration: a single nested key-value YAML file per run, the
scenario catalog ``SCENARIOS`` its one gate enforces, and the claim table
``ANCHORS``.  It imports neither numpy nor scipy; the runners are in
``scenarios``.

Sections:

    experiment:  scenario name, root seed, budgets, sweep grids
    output:      dir, the output directory
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import yaml

from .errors import ConfigError

ANCHORS = {
    "gramian-cubic-scaling":
        "inverse Gramian scaling: sup_t ||Q_t^-1|| t^3 stays bounded "
        "(exactly 6 for the scalar case)",
    "bismut-gradient-identity":
        "semigroup derivative equals the expectation of the observable times "
        "a stochastic-integral weight built from the perturbation control",
    "coupling-terminal-coincidence":
        "the coupled flow rejoins the base path at the terminal time and the "
        "Girsanov reweighting has unit mean",
    "gradient-x-exponent":
        "x-direction gradient norm of the semigroup scales like "
        "gap^(-3(1-alpha)/2) on bounded observables (alpha = 0 gives -3/2)",
    "gradient-y-exponent":
        "y-direction gradient norm of the semigroup scales like gap^(-1/2) "
        "on bounded observables",
    "picard-contraction-half":
        "the discounted fixed-point map contracts with factor <= 1/2 once "
        "the discount rate is large enough",
    "field-norm-sqrt-decay":
        "the fixed-point norm (sup plus y-gradient sup) decays like "
        "lambda^(-1/2) along a discount sweep",
    "galerkin-gap-decay":
        "spectral truncation gaps of the fixed-point field decrease as more "
        "modes are retained",
    "representation-identity":
        "the noisy component of a solution is representable through the "
        "regularization field; the residual vanishes under refinement",
    "uniqueness-common-noise":
        "common-noise trajectories started at merging points collapse with "
        "the perturbation (pathwise-uniqueness evidence, not proof)",
    "bihari-envelope":
        "pathwise energy stays below the nonlinear Gronwall envelope built "
        "from measured constants; no explosion under dissipative growth",
}


@dataclass(frozen=True)
class ScenarioInfo:
    """A catalog entry; ``knobs`` maps every experiment key the runner reads
    besides scenario and seed to its default, whose type a config value must
    have, ``model_kind`` names the kind of model section it reads, if any,
    ``model_keys`` maps the keys of that section it passes on to build_example
    to the type their values must have, and ``bounds`` maps a knob to the
    (op, limit) its value, or each item of its list, must satisfy beyond that
    type (op is ">", ">=" or "!=").  Validation rejects any other key, value
    or section, and the runner trusts it."""

    description: str
    anchor: str
    knobs: Mapping[str, object] = field(default_factory=dict)
    model_kind: Optional[str] = None
    model_keys: Mapping[str, type] = field(default_factory=dict)
    bounds: Mapping[str, tuple] = field(default_factory=dict)


# the mode counts galerkin_wave compares
GALERKIN_LEVELS = (2, 4, 8)

SCENARIOS = {
    "kinetic_bismut": ScenarioInfo(
        "Monte-Carlo derivative probes on the kinetic scalar flow vs analytic "
        "Gaussian derivatives, plus the coupling/Girsanov check",
        "bismut-gradient-identity",
        {"n_paths": 20000, "n_steps": 256}, bounds={"n_paths": (">=", 2)}),
    "gradient_scaling": ScenarioInfo(
        "fitted gap-exponents of the semigroup gradient sup-norms in both "
        "direction classes",
        "gradient-x-exponent",
        {"budget": 240000}),
    "gramian_sweep": ScenarioInfo(
        "dyadic sweep of the inverse-Gramian cubic scaling",
        "gramian-cubic-scaling"),
    "picard_lambda_sweep": ScenarioInfo(
        "fixed-point solves along a doubling discount sweep with norm decay "
        "and contraction factors",
        "field-norm-sqrt-decay",
        {"base_points": 192}),
    "galerkin_wave": ScenarioInfo(
        "truncation-gap decay of the fixed-point field for the wave system",
        "galerkin-gap-decay",
        {"n_reference": 12, "amplitude": 1.0, "lam": 64.0}, model_kind="wave",
        model_keys={"kind": str, "theta": float, "d_space": int, "delta": float},
        # a level needs as many modes, and a zero drift has an all-zero field
        bounds={"n_reference": (">=", GALERKIN_LEVELS[-1]), "lam": (">", 0),
                "amplitude": ("!=", 0)}),
    "uniqueness_rough": ScenarioInfo(
        "common-noise gap tables for the rough drift across perturbations "
        "and step counts",
        "uniqueness-common-noise",
        {"t_final": 1.0, "steps": [256, 512, 1024],
         "perturbations": [1e-2, 1e-3, 1e-4, 0.0]},
        bounds={"t_final": (">", 0), "perturbations": (">=", 0)}),
    "representation_residual": ScenarioInfo(
        "residual decay of the field representation identity under step "
        "refinement (constant and rough drifts)",
        "representation-identity",
        {"lam": 64.0, "n_paths": 8, "rough_gridpoints": 1025,
         "rough_timenodes": 129},
        bounds={"lam": (">", 0), "rough_gridpoints": (">=", 2),
                "rough_timenodes": (">=", 2)}),
    "bihari_envelope": ScenarioInfo(
        "pathwise nonlinear-Gronwall envelope check for the dissipative drift",
        "bihari-envelope",
        {"t_final": 2.0, "n_paths": 1000, "n_steps": 512},
        bounds={"t_final": (">", 0)}),
}


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
    def scenario(self) -> str:
        return str(self.experiment.get("scenario", ""))

    @property
    def seed(self) -> int:
        return int(self.experiment["seed"])

    def knob(self, name: str):
        """An experiment knob's value, or its catalog default, as the default's type."""
        default = SCENARIOS[self.scenario].knobs[name]
        value = self.experiment.get(name, default)
        if isinstance(default, list):
            return [type(default[0])(v) for v in value]
        return type(default)(value)

    def outdir(self) -> Path:
        return Path(self.raw.get("output", {}).get("dir", "degenflow-out"))


_COMPARE = {">": operator.gt, ">=": operator.ge, "!=": operator.ne}


def _value_problem(value, kind: type, bound) -> Optional[str]:
    """Why ``value`` cannot stand for a value of type ``kind`` within the
    catalog ``bound`` = (op, limit), if given, or None: an int takes a
    positive int, a float any finite int or float; nothing is truncated or
    parsed."""
    # type(True) is bool, not int: a boolean is never a number here
    if kind is int and (type(value) is not int or value <= 0):
        return "must be a positive integer"
    if kind is float and (type(value) not in (int, float) or not math.isfinite(value)):
        return "must be a finite number"
    if bound and not _COMPARE[bound[0]](value, bound[1]):
        return f"must be {bound[0]} {bound[1]}"
    return None


def _knob_problem(value, default, bound) -> Optional[str]:
    """Why ``value`` cannot stand for a knob with this default and catalog
    bound, or None: a value of the default's type (see _value_problem), or
    for a list knob a non-empty list of such items."""
    if isinstance(default, list):
        if type(value) is not list or not value:
            return "must be a non-empty list"
        problem = next(filter(None, (_value_problem(v, type(default[0]), bound)
                                     for v in value)), None)
        return problem and f"each item {problem}"
    return _value_problem(value, type(default), bound)


def validate_config(raw: dict) -> list:
    """Field-level validation; returns a list of error strings (empty = ok)."""
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
    elif not isinstance(scenario, str):
        errors.append(f"experiment.scenario: must be a scenario name, got {scenario!r}")
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
                for key, value in model.items():
                    if key not in info.model_keys:
                        errors.append(f"model.{key}: scenario {scenario!r} does not read "
                                      f"this key; known: {', '.join(info.model_keys)}")
                        continue
                    problem = _value_problem(value, info.model_keys[key], None)
                    if problem:
                        errors.append(f"model.{key}: {problem}, got {value!r}")
    if "seed" not in exp:
        errors.append("experiment.seed: missing (no silent nondeterminism)")
    elif type(exp["seed"]) is not int or exp["seed"] < 0:
        errors.append(f"experiment.seed: must be a non-negative integer, "
                      f"got {exp['seed']!r}")
    if "output" in raw:
        out = raw["output"]
        if not isinstance(out, dict):
            errors.append(f"output: must be a mapping, got {out!r}")
        else:
            for key, value in out.items():
                if key != "dir":
                    errors.append(f"output.{key}: unknown key; known: dir")
                elif not isinstance(value, str):
                    errors.append("output.dir: must be a string path")
    return errors


def load_config(path) -> ScenarioConfig:
    """Parse and validate a YAML config, an empty file as an empty one;
    raises ConfigError if the file is missing, unreadable, not UTF-8 or not
    YAML, or fails validation (one line per field error).  ``degenflow run``
    and ``degenflow validate`` both read a config through it."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # one line: the CLI prints each line of a ConfigError as a problem
        mark = getattr(exc, "problem_mark", None)
        text = (f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}" if mark
                else " ".join(str(exc).split()))
        raise ConfigError(f"config does not parse: {text}") from exc
    raw = {} if raw is None else raw
    errors = validate_config(raw)
    if errors:
        raise ConfigError("\n".join(errors))
    return ScenarioConfig(raw=raw)
