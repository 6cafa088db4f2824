"""degenflow benchmark: four closed-loop workloads, checked outputs, metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` without
installing it.  One process runs one workload on one thread; BLAS is capped to
one thread before numpy loads.  ``all`` runs each workload in its own child
process, one after the other.

With ``--trace 0`` a run sets the workload up several times (reporting the
median), then runs passes back to back until ``--seconds`` have elapsed and
reports the end-to-end metrics.  With ``--trace 1`` it runs untraced passes
for half the time and traced passes for the rest, and reports the per-layer
metrics derived from the spans (see ``spans.py``).  Every pass is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable lines
before it give each metric with its unit, the check results and the run
context; ``bench/out/`` receives the same as JSON, and the spans of a traced
run.
"""

import os
import sys
import time

T_START = time.perf_counter()

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("mc_linear", "field_solve", "pathwise_sde", "scenarios")
SETUP_REPEATS = 3
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def git_sha() -> str:
    """HEAD of the checkout's git metadata, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy
    import yaml
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "pyyaml": yaml.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": int(BLAS_THREADS), "git_sha": git_sha(),
            "seed": seed, "sizes": sizes}


class Checks:
    """Tally of check results over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, pass_no: int, results: list) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failures.append(f"pass {pass_no}: {name}: {detail}")


def one_pass(w, state, pass_no: int, checks: Checks) -> float:
    """Run and check one pass; a pass that raises fails every check it owes."""
    t0 = time.perf_counter()
    try:
        out = w.run(state)
    except Exception:
        wall = time.perf_counter() - t0
        detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        checks.add(pass_no, [(n, False, f"pass raised: {detail}") for n in w.check_names])
        return wall
    wall = time.perf_counter() - t0
    try:
        results = w.checks(state, out)
    except Exception:
        detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        results = [(n, False, f"check raised: {detail}") for n in w.check_names]
    if pass_no == 1:
        for name, ok, detail in results:
            print(f"  check {name}: {'ok' if ok else 'FAIL'}  {detail}")
    checks.add(pass_no, results)
    return wall


def passes(w, state, seconds: float, first: int, checks: Checks, on_pass=None) -> list:
    """Back-to-back passes until ``seconds`` have elapsed (at least one)."""
    walls = []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        if on_pass:
            on_pass(first + len(walls))
        walls.append(one_pass(w, state, first + len(walls), checks))
    return walls


def measure(w, args, checks: Checks):
    import_s = time.perf_counter() - T_START
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = w.setup(w.inputs(args.seed))
        setups.append(time.perf_counter() - t0)
    walls = passes(w, state, args.seconds, 1, checks)
    q1, med, q3 = quartiles(walls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": med, "setup_s": import_s + statistics.median(setups),
               "peak_rss_mb": peak}
    print(f"  wall_s       {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)})")
    print(f"  setup_s      {metrics['setup_s']:.4f} s  (imports {import_s:.4f} s + "
          f"median of {SETUP_REPEATS} set-ups {statistics.median(setups):.4f} s)")
    print(f"  peak_rss_mb  {peak:.1f} MB")
    detail = {"walls_s": walls, "wall_q1_s": q1, "wall_q3_s": q3,
              "import_s": import_s, "setups_s": setups}
    return state, metrics, detail


def measure_traced(w, args, checks: Checks):
    import spans
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()  # set-up spans carry pass id 0
    try:
        state = w.setup(w.inputs(args.seed))
    finally:
        tracer.uninstall()
    plain = passes(w, state, args.seconds / 2.0, 1, checks)

    def tag(pass_no):
        rec.pass_id = pass_no

    tracer.install()
    try:
        traced = passes(w, state, args.seconds / 2.0, len(plain) + 1, checks, tag)
    finally:
        tracer.uninstall()
    ids = list(range(len(plain) + 1, len(plain) + 1 + len(traced)))
    # The tracer's own consistency: self times of a pass fit inside its wall.
    checks.add(0, [(f"trace_self_within_wall_pass{p}",
                    spans.pass_metrics(rec, p)[1] <= wall, f"wall {wall:.4f} s")
                   for p, wall in zip(ids, traced)])
    metrics = spans.layer_metrics(rec, ids, plain, traced)
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{w.name}-seed{args.seed}.json")
    detail = {"plain_walls_s": plain, "traced_walls_s": traced, "traced_pass_ids": ids}
    return state, metrics, detail


def run_workload(args) -> int:
    import spans
    import workloads
    spans.layer_modules()  # every layer is imported before set-up is timed
    w = workloads.make_workloads(OUT / "work")[args.workload]
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    checks = Checks()
    run = measure_traced if args.trace else measure
    state, metrics, detail = run(w, args, checks)
    failed = len(checks.failures)
    for line in checks.failures[:20]:
        print(f"  FAILED {line}")
    print(f"  fail_frac    {failed / checks.attempted:.4g}  "
          f"({failed} of {checks.attempted} checks failed)")
    context = run_context(args.seed, w.sizes(state))
    print("  context " + json.dumps(context, sort_keys=True))
    units = {name: unit for name, unit, _ in spans.PER_LAYER} if args.trace \
        else dict(END_TO_END)
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "fail_frac": failed / checks.attempted,
                    "failures": checks.failures, "detail": detail,
                    "context": context}, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process; a combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "degenflow" / "__init__.py").is_file():
        print(f"error: no degenflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
