"""Golden records of the shipped configs.

Each config under ``configs/`` goes through ``degenflow validate`` and
``degenflow run`` in process.  Its exit codes, stdout and stderr lines, the
lines of every CSV and ``summary.txt``, and the arrays of every ``.dgfb``
(read back through ``persist.load_*``) must match ``tests/golden/<config>.json``.
Numbers in a line or an array agree to 1e-12 relative; integers, strings and
exit codes exactly.  A sha256 mismatch is printed but does not fail: bytes
can differ across BLAS builds.  An array of more than SAMPLE values is
recorded by its norms and a strided sample.

Rewrite the records after a change that moves an artifact, and state the
largest relative move per file in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from degenflow.cli import main
from degenflow.persist import load_bundle, load_field

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
SAMPLE = 2048
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:nan|inf)\b)")

# the attributes of what each reader returns
LOADED = {
    load_bundle: ("times", "Z", "dW", "eta", "blowup_times", "m"),
    load_field: ("times", "axes", "values", "m", "d"),
}


def _value(v):
    if isinstance(v, tuple):
        return [_value(a) for a in v]
    if not isinstance(v, np.ndarray):
        return v
    flat = v.ravel()
    if flat.size <= SAMPLE:
        return {"shape": list(v.shape), "values": flat.tolist()}
    stride = -(-flat.size // SAMPLE)
    return {"shape": list(v.shape), "stride": stride, "sample": flat[::stride].tolist(),
            "norms": [float(np.sum(np.abs(flat))), float(np.sqrt(np.sum(flat * flat))),
                      float(np.max(np.abs(flat)))]}


def _read_dgfb(path: Path) -> dict:
    for load, names in LOADED.items():
        try:
            obj = load(path)
        except ValueError:  # a file of another kind
            continue
        return {"reader": load.__name__, **{n: _value(getattr(obj, n)) for n in names}}
    raise ValueError(f"{path}: no reader takes it")


def record(config: Path, outdir: Path) -> dict:
    """Exit codes and output lines of validate and run, and every artifact."""
    rec = {}
    for argv in (["validate", str(config)], ["run", str(config), "--outdir", str(outdir)]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        rec[argv[0]] = {"exit_code": code,
                        "stdout": out.getvalue().replace(str(outdir), "<outdir>").splitlines(),
                        "stderr": err.getvalue().splitlines()}
    artifacts = {}
    for path in sorted(outdir.iterdir()) if outdir.exists() else ():
        entry = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        if path.suffix == ".dgfb":
            entry.update(_read_dgfb(path))
        else:
            entry["lines"] = path.read_text().splitlines()
        artifacts[path.name] = entry
    rec["artifacts"] = artifacts
    return rec


def _number(token: str):
    return int(token) if re.fullmatch(r"[-+]?\d+", token) else float(token)


def _moves(a, b) -> np.ndarray:
    """Relative move of each float of b from a; 0 where both are the same nan."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    return np.where(np.isnan(rel), np.inf, rel)


def _same_text(a: str, b: str) -> bool:
    """Equal text between numbers, equal integers, floats within RTOL."""
    ta, tb = NUMBER.split(a), NUMBER.split(b)
    if len(ta) != len(tb) or ta[::2] != tb[::2]:
        return False
    for x, y in zip(map(_number, ta[1::2]), map(_number, tb[1::2])):
        if isinstance(x, int) and isinstance(y, int):
            if x != y:
                return False
        elif _moves(x, y)[0] > RTOL:
            return False
    return True


def compare(exp, act, where: str, errors: list, notes: list) -> None:
    """Append each difference of act from exp to errors, and each differing
    sha256 to notes."""
    if isinstance(exp, dict) and isinstance(act, dict):
        if exp.keys() != act.keys():
            errors.append(f"{where}: keys {sorted(exp)} != {sorted(act)}")
            return
        for key in exp:
            if key == "sha256":
                if exp[key] != act[key]:
                    notes.append(f"{where}: sha256 differs")
            else:
                compare(exp[key], act[key], f"{where}/{key}", errors, notes)
    elif isinstance(exp, list) and isinstance(act, list):
        if len(exp) != len(act):
            errors.append(f"{where}: {len(exp)} items != {len(act)}")
        elif exp and all(type(v) is float for v in exp + act):
            moves = _moves(exp, act)
            if np.any(moves > RTOL):
                errors.append(f"{where}: {int(np.sum(moves > RTOL))} of {len(exp)} values "
                              f"differ, largest relative move {float(np.max(moves)):.3e}")
        else:
            for i, (e, a) in enumerate(zip(exp, act)):
                compare(e, a, f"{where}[{i}]", errors, notes)
    elif isinstance(exp, str) and isinstance(act, str):
        if not _same_text(exp, act):
            errors.append(f"{where}: {exp!r} != {act!r}")
    elif type(exp) is float and type(act) is float:
        if _moves(exp, act)[0] > RTOL:
            errors.append(f"{where}: {exp!r} != {act!r}")
    elif type(exp) is not type(act) or exp != act:
        errors.append(f"{where}: {exp!r} != {act!r}")


def test_every_config_has_one_golden_record():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [c.stem for c in CONFIGS]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_reproduces_its_golden_record(config, tmp_path):
    expected = json.loads((GOLDEN / f"{config.stem}.json").read_text())
    errors, notes = [], []
    compare(expected, record(config, tmp_path / "out"), config.stem, errors, notes)
    print("\n".join(notes))
    assert not errors, "\n".join(errors[:20] + [f"{len(errors)} differences"])


@pytest.mark.parametrize("exp,act,same", [
    ("gap 1.000000000000e-03 at n=8", "gap 1.0000000000005e-03 at n=8", True),
    ("gap 1.0e-03 at n=8", "gap 1.00000000001e-03 at n=8", False),
    ("1000/1000 paths below", "999/1000 paths below", False),
    ("ratio nan", "ratio nan", True),
    ("ratio nan", "ratio 0.5", False),
    ("kinetic,(0,1),0.5", "kinetic,(0,1),-0.5", False),
    ("level 8", "levels 8", False),
])
def test_text_compares_numbers_at_rtol_and_the_rest_exactly(exp, act, same):
    assert _same_text(exp, act) is same


def test_compare_reports_moves_and_sha256_apart():
    exp = {"sha256": "a", "exit_code": 0, "v": [1.0, 2.0, float("nan")]}
    errors, notes = [], []
    compare(exp, {"sha256": "b", "exit_code": 0, "v": [1.0, 2.0, float("nan")]},
            "x", errors, notes)
    assert errors == [] and notes == ["x: sha256 differs"]
    compare(exp, {"sha256": "a", "exit_code": 2, "v": [1.0, 2.0 + 2e-10, 0.0]},
            "x", errors, notes)
    assert errors == ["x/exit_code: 0 != 2",
                      "x/v: 2 of 3 values differ, largest relative move inf"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for config in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            rec = record(config, Path(tmp) / "out")
        (GOLDEN / f"{config.stem}.json").write_text(json.dumps(rec, indent=1) + "\n")
        print(f"{config.stem}: run exit {rec['run']['exit_code']}, "
              f"{len(rec['artifacts'])} artifacts")
