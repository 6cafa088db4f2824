"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

The traced-run tests start the benchmark twice per workload and take a few
minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _p in (str(ROOT / "src"), str(BENCH)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Counters that must repeat exactly for one seed, and the workloads where
# each must be nonzero.
EXACT = {
    "linear_flow.draw.path_steps": ("mc_linear", "pathwise_sde", "scenarios"),
    "sde.integrate.path_steps": ("pathwise_sde", "scenarios"),
    "regularization.picard.iterations": ("field_solve", "scenarios"),
    "regularization.interp.queries": ("field_solve", "pathwise_sde", "scenarios"),
    "regularization.sup_grad2.calls": ("field_solve", "scenarios"),
    "sde.residual.steps": ("pathwise_sde", "scenarios"),
    "persist.bytes": ("scenarios",),
}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def _traced(workload: str, seed: int) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0, proc.stdout[-2000:]
    return {k: v["value"] for k, v in res["metrics"].items()}


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(spans.PER_LAYER)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_follow_the_seed(name, tmp_path):
    w = workloads.make_workloads(tmp_path)[name]

    def flat(inp):
        return np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in inp.values()])

    same = flat(w.inputs(5)), flat(w.inputs(5))
    np.testing.assert_array_equal(*same)
    assert not np.array_equal(flat(w.inputs(5)), flat(w.inputs(6)))


def test_tracer_patches_imported_names_and_restores_them():
    from degenflow import linear_flow, persist, scenarios
    orig_save, orig_draw = persist.save_bundle, linear_flow.StepKernel.draw
    tracer = spans.Tracer(spans.Recorder())
    tracer.install()
    try:
        assert scenarios.save_bundle is persist.save_bundle
        assert scenarios.save_bundle.__wrapped__ is orig_save
        assert linear_flow.StepKernel.draw.__wrapped__ is orig_draw
    finally:
        tracer.uninstall()
    assert scenarios.save_bundle is orig_save and persist.save_bundle is orig_save
    assert linear_flow.StepKernel.draw is orig_draw


def test_self_times_partition_nested_spans():
    rec = spans.Recorder()
    outer = rec.open("sde.uniqueness_experiment")
    inner = rec.open("sde.integrate_ensemble")
    rec.close(inner, 10)
    rec.close(outer, 0)
    rec.begin[:] = [0.0, 1.0]
    rec.end[:] = [4.0, 2.5]
    metrics, total_self = spans.pass_metrics(rec, 0)
    assert metrics["sde.uniqueness.self_s"] == pytest.approx(2.5)
    assert metrics["sde.integrate.path_steps"] == 10
    assert total_self == pytest.approx(4.0)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counters_repeat_exactly(name):
    first, second = _traced(name, 3), _traced(name, 3)
    counters = [n for n, unit, _ in spans.PER_LAYER if unit in ("count", "bytes")]
    assert {k: first[k] for k in counters} == {k: second[k] for k in counters}
    for key, where in EXACT.items():
        assert (first[key] > 0) == (name in where), key


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "mc_linear", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
