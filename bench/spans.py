"""Span recorder for the traced run, and the per-layer metrics derived from it.

``Tracer.install`` wraps, from outside the package, every public function of
each layer module plus the class methods and private boundaries listed in
``EXTRA``.  A wrapped function is replaced wherever the package holds a
reference to it, so names that one module imported from another (for example
``scenarios.save_bundle``) are traced too; methods are patched on their class.
``Tracer.uninstall`` puts every original back.

Each call records one span: name, start, end, parent span, pass id and a unit
of work counted at the same boundary (paths drawn, queries answered, bytes
written).  Spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the durations of its direct children;
spans nest strictly because the benchmark runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# The package's layers; config, cli and scenarios form one layer.
LAYER_MODULES = ("linear_flow", "bismut", "regularization", "sde", "model",
                 "persist", "config", "cli", "scenarios")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _cli_label(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None)
    if argv and argv[0] == "run":
        return f"cli.main:{Path(argv[1]).stem}"
    return "cli.main"


# Class methods and private boundaries traced besides the public functions.
EXTRA = (
    ("linear_flow", "StepKernel.draw"),
    ("bismut", "ControlPair.phi"),
    ("bismut", "ControlPair.weight_vector"),
    ("regularization", "FieldGrid.interp"),
    ("regularization", "FieldGrid.interp_many"),
    ("regularization", "FieldGrid.jacobian_y_many"),
    ("regularization", "FieldGrid.sup_grad2"),
    ("regularization", "_PicardEngine.apply"),
    ("model", "DriftSpec.__call__"),
    ("persist", "_atomic_write"),
)

# Work counted at a boundary, by span name, from (args, kwargs, result).
WORK = {
    "linear_flow.StepKernel.draw": lambda a, k, r: _arg(a, k, 2, "n_paths"),
    "regularization.FieldGrid.interp": lambda a, k, r: r.shape[0],
    "regularization.FieldGrid.interp_many": lambda a, k, r: r.shape[0],
    "regularization._PicardEngine.apply": lambda a, k, r: a[0].n_pts * a[0].times.size,
    "regularization.find_contraction_lambda": lambda a, k, r: 1,
    "sde.integrate_ensemble": lambda a, k, r: r.Z.shape[0] * (r.Z.shape[1] - 1),
    "sde.representation_residual": lambda a, k, r: r.per_time.size - 1,
    "persist._atomic_write": lambda a, k, r: len(_arg(a, k, 1, "payload")),
    "persist.write_csv": lambda a, k, r: Path(_arg(a, k, 0, "path")).stat().st_size,
}

LABELS = {"cli.main": _cli_label}


class Recorder:
    """Spans in columnar lists; ``pass_id`` tags every span opened while set."""

    def __init__(self):
        self.names = []
        self.begin = []
        self.end = []
        self.parent = []
        self.pass_ids = []
        self.work = []
        self.pass_id = 0
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_ids.append(self.pass_id)
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(idx)
        self.begin.append(time.perf_counter())
        return idx

    def close(self, idx: int, work) -> None:
        self.end[idx] = time.perf_counter()
        self.work[idx] = work
        self._stack.pop()

    def write(self, path: Path) -> None:
        """Write every span as JSON: a name table plus one column per field."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        t0 = self.begin[0] if self.begin else 0.0
        path.write_text(json.dumps({
            "names": table,
            "name": [ids[n] for n in self.names],
            "start_s": [round(t - t0, 9) for t in self.begin],
            "end_s": [round(t - t0, 9) for t in self.end],
            "parent": self.parent,
            "pass": self.pass_ids,
            "work": self.work,
        }))


def _wrap(fn, name, rec: Recorder, work, label):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(label(args, kwargs) if label else name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, 0)
            raise
        rec.close(idx, work(args, kwargs, out) if work else 0)
        return out
    return traced


def layer_modules() -> dict:
    """Import every layer module; short name -> module."""
    return {short: importlib.import_module(f"degenflow.{short}") for short in LAYER_MODULES}


class Tracer:
    """Installs and removes the span wrappers around the package's layers."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo = []

    def _targets(self):
        mods = layer_modules()
        for short, mod in mods.items():
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    yield mod, attr, f"{short}.{attr}"
        for short, path in EXTRA:
            owner, _, attr = path.rpartition(".")
            mod = mods[short]
            yield (getattr(mod, owner) if owner else mod), attr, f"{short}.{path}"

    def install(self) -> None:
        package = [m for n, m in sys.modules.items()
                   if n == "degenflow" or n.startswith("degenflow.")]
        for owner, attr, name in self._targets():
            orig = inspect.getattr_static(owner, attr)
            wrapped = _wrap(orig, name, self.rec, WORK.get(name), LABELS.get(name))
            if inspect.isclass(owner):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            # rebind the function wherever the package holds a reference to it
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics

# The shipped scenarios; each has a config of the same name under configs/.
SCENARIO_NAMES = ("bihari_envelope", "galerkin_wave", "gradient_scaling",
                  "gramian_sweep", "kinetic_bismut", "picard_lambda_sweep",
                  "representation_residual", "uniqueness_rough")

# name, unit, better
PER_LAYER = (
    ("linear_flow.draw.path_steps", "count", "lower"),
    ("linear_flow.draw.self_s", "s", "lower"),
    ("linear_flow.draw.ns_per_path_step", "ns", "lower"),
    ("linear_flow.step_kernel.calls", "count", "lower"),
    ("linear_flow.step_kernel.self_s", "s", "lower"),
    ("bismut.controls.calls", "count", "lower"),
    ("bismut.controls.self_s", "s", "lower"),
    ("bismut.weights.self_s", "s", "lower"),
    ("bismut.estimator.self_s", "s", "lower"),
    ("bismut.scaling.ms_per_point", "ms", "lower"),
    ("regularization.picard.solves", "count", "lower"),
    ("regularization.picard.iterations", "count", "lower"),
    ("regularization.picard.self_s", "s", "lower"),
    ("regularization.picard.ns_per_node_iter", "ns", "lower"),
    ("regularization.lambda_search.accepted_frac", "ratio", "higher"),
    ("regularization.galerkin.self_s", "s", "lower"),
    ("regularization.interp.queries", "count", "lower"),
    ("regularization.interp.self_s", "s", "lower"),
    ("regularization.interp.ns_per_query", "ns", "lower"),
    ("regularization.sup_grad2.calls", "count", "lower"),
    ("regularization.theta_inverse.ms_per_call", "ms", "lower"),
    ("sde.noise.self_s", "s", "lower"),
    ("sde.integrate.path_steps", "count", "lower"),
    ("sde.integrate.ns_per_path_step", "ns", "lower"),
    ("sde.residual.steps", "count", "lower"),
    ("sde.residual.self_s", "s", "lower"),
    ("sde.residual.ns_per_step", "ns", "lower"),
    ("sde.uniqueness.self_s", "s", "lower"),
    ("sde.envelope.self_s", "s", "lower"),
    ("model.drift.calls", "count", "lower"),
    ("model.drift.self_s", "s", "lower"),
    ("persist.files", "count", "lower"),
    ("persist.bytes", "bytes", "lower"),
    ("persist.self_s", "s", "lower"),
    ("config.load.self_s", "s", "lower"),
    *((f"scenarios.{n}.wall_s", "s", "lower") for n in SCENARIO_NAMES),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


class _PassStats:
    """Self time, inclusive time, span count and work per span name."""

    def __init__(self, rec: Recorder, idx: list):
        child = defaultdict(float)
        for i in idx:
            p = rec.parent[i]
            if p >= 0:
                child[p] += rec.end[i] - rec.begin[i]
        self.self_s = defaultdict(float)
        self.incl = defaultdict(float)
        self.n = defaultdict(int)
        self.work = defaultdict(int)
        for i in idx:
            name = rec.names[i]
            dur = rec.end[i] - rec.begin[i]
            self.incl[name] += dur
            self.self_s[name] += dur - child[i]
            self.n[name] += 1
            self.work[name] += rec.work[i]
        self.total_self = sum(self.self_s.values())
        # spans whose direct parent is a span of the given name
        self.under = defaultdict(int)
        for i in idx:
            p = rec.parent[i]
            if p >= 0:
                self.under[rec.names[p], rec.names[i]] += 1

    def s(self, *names):
        return sum(self.self_s[n] for n in names)

    def prefix_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def count(self, *names):
        return sum(self.n[n] for n in names)

    def w(self, *names):
        return sum(self.work[n] for n in names)


def pass_metrics(rec: Recorder, pass_id: int) -> tuple:
    """(per-layer metrics of one pass, sum of all span self times)."""
    st = _PassStats(rec, [i for i, p in enumerate(rec.pass_ids) if p == pass_id])
    draw = "linear_flow.StepKernel.draw"
    apply_ = "regularization._PicardEngine.apply"
    picard = ("regularization.picard_solve", "regularization.find_contraction_lambda",
              apply_)
    interp = ("regularization.FieldGrid.interp", "regularization.FieldGrid.interp_many")
    integ = ("sde.integrate_ensemble", "sde.integrate_mild")
    resid = "sde.representation_residual"
    scaling_points = st.under["bismut.scaling_exponent", "bismut.bismut_gradient"]
    search_solves = st.under["regularization.find_contraction_lambda",
                             "regularization.picard_solve"]
    writes = ("persist.write_csv", "persist._atomic_write")
    m = {
        "linear_flow.draw.path_steps": st.w(draw),
        "linear_flow.draw.self_s": st.s(draw),
        "linear_flow.draw.ns_per_path_step": _per(st.s(draw), st.w(draw), 1e9),
        "linear_flow.step_kernel.calls": st.count("linear_flow.step_kernel"),
        "linear_flow.step_kernel.self_s": st.s("linear_flow.step_kernel"),
        "bismut.controls.calls": st.count("bismut.perturbation_controls"),
        "bismut.controls.self_s": st.s("bismut.perturbation_controls"),
        "bismut.weights.self_s": st.s("bismut.ControlPair.weight_vector",
                                      "bismut.ControlPair.phi"),
        "bismut.estimator.self_s": st.s("bismut.bismut_gradient", "bismut.bismut_hessian",
                                        "bismut.verify_coupling"),
        "bismut.scaling.ms_per_point": _per(st.incl["bismut.scaling_exponent"],
                                            scaling_points, 1e3),
        "regularization.picard.solves": st.count("regularization.picard_solve"),
        "regularization.picard.iterations": st.count(apply_),
        "regularization.picard.self_s": st.s(*picard),
        "regularization.picard.ns_per_node_iter": _per(st.s(*picard), st.w(apply_), 1e9),
        "regularization.lambda_search.accepted_frac": _per(
            st.w("regularization.find_contraction_lambda"), search_solves),
        "regularization.galerkin.self_s": st.s("regularization.galerkin_compare"),
        "regularization.interp.queries": st.w(*interp),
        "regularization.interp.self_s": st.s(*interp, "regularization.FieldGrid.jacobian_y_many"),
        "regularization.interp.ns_per_query": _per(
            st.s(*interp, "regularization.FieldGrid.jacobian_y_many"), st.w(*interp), 1e9),
        "regularization.sup_grad2.calls": st.count("regularization.FieldGrid.sup_grad2"),
        "regularization.theta_inverse.ms_per_call": _per(
            st.incl["regularization.theta_inverse"],
            st.count("regularization.theta_inverse"), 1e3),
        "sde.noise.self_s": st.s("sde.make_noise", "sde.coarsen_noise",
                                 "sde.noise_from_bundle"),
        "sde.integrate.path_steps": st.w("sde.integrate_ensemble"),
        "sde.integrate.ns_per_path_step": _per(st.s(*integ),
                                               st.w("sde.integrate_ensemble"), 1e9),
        "sde.residual.steps": st.w(resid),
        "sde.residual.self_s": st.s(resid),
        "sde.residual.ns_per_step": _per(st.s(resid), st.w(resid), 1e9),
        "sde.uniqueness.self_s": st.s("sde.uniqueness_experiment"),
        "sde.envelope.self_s": st.s("sde.dissipation_envelope"),
        "model.drift.calls": st.count("model.DriftSpec.__call__"),
        "model.drift.self_s": st.s("model.DriftSpec.__call__"),
        "persist.files": st.count(*writes),
        "persist.bytes": st.w(*writes),
        "persist.self_s": st.prefix_self("persist."),
        "config.load.self_s": st.s("config.load_config", "config.validate_config"),
    }
    for n in SCENARIO_NAMES:
        m[f"scenarios.{n}.wall_s"] = st.incl[f"cli.main:{n}"]
    return m, st.total_self


def layer_metrics(rec: Recorder, pass_ids: list, plain_walls: list,
                  traced_walls: list) -> dict:
    """Median over the traced passes of every per-layer metric."""
    per_pass = [pass_metrics(rec, p)[0] for p in pass_ids]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead_frac"] = (statistics.median(traced_walls)
                                  / statistics.median(plain_walls) - 1.0)
    return out
