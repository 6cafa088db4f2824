"""Binary and CSV persistence round trips."""

import csv

import numpy as np
import pytest

from conftest import linear_paths
from degenflow.model import DriftSpec, Modulus, build_drift
from degenflow.persist import (MAGIC, _unpack, bundle_to_csv, load_bundle, load_field,
                               save_bundle, save_field, write_csv)
from degenflow.regularization import GridSpec, picard_solve
from degenflow.sde import integrate_ensemble, make_noise


def _assert_same_paths(back, ens):
    for name in ("times", "Z", "dW", "eta", "blowup_times"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ens, name), err_msg=name)
    assert back.m == ens.m


def test_bundle_round_trip(kinetic, tmp_path):
    # path 1 starts far out under an explosive drift and freezes at a finite
    # blow-up time; the other two live, with a nan blow-up time
    explosive = DriftSpec(fn=lambda t, x, y: y ** 3, m=1, d=1, alpha=0.75,
                          phi=Modulus.power(1.0, 0.5), K=1.0, bound=None)
    starts = np.array([[0.1, 0.2], [0.0, 6.0], [-0.1, 0.3]])
    ens = integrate_ensemble(kinetic, explosive, starts, 0.25, 64,
                             make_noise(kinetic, 0.25, 64, 3, 1, stream=("sde", "noise")))
    assert np.isnan(ens.blowup_times[[0, 2]]).all() and np.isfinite(ens.blowup_times[1])
    path = tmp_path / "bundle.dgfb"
    save_bundle(ens, path)
    _assert_same_paths(load_bundle(path), ens)
    # the header names no seed or stream
    header = _unpack(path)[0]
    assert header["dims"] == {"n_paths": 3, "n_steps": 64, "m": 1, "d": 1, "k": 1}
    assert "seed" not in header and "stream" not in header


def test_trajectory_round_trip(kinetic, tmp_path):
    # a single trajectory is the one-path ensemble, in the same file kind
    b = build_drift("dissipative", 1, 1)
    traj = integrate_ensemble(kinetic, b, [0.2, 0.3], 1.0, 16,
                              make_noise(kinetic, 1.0, 16, 1, 9, stream=("sde", "noise")))
    path = tmp_path / "traj.dgfb"
    save_bundle(traj, path)
    _assert_same_paths(load_bundle(path), traj)


def test_file_of_another_version_or_kind_rejected(kinetic, tmp_path):
    path = tmp_path / "paths.dgfb"
    save_bundle(linear_paths(kinetic, [0.1, 0.2], 2, 4, seed=1), path)
    # the golden records tell a path file from a field file by this error
    with pytest.raises(ValueError, match="expected a field_grid, got path_bundle"):
        load_field(path)
    blob = bytearray(path.read_bytes())
    assert blob[:4] == MAGIC
    blob[4] = 1  # the version byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unsupported version 1"):
        load_bundle(path)


def test_field_round_trip(kinetic, tmp_path):
    b = build_drift("constant", 1, 1, value=np.array([0.5]))
    grid = GridSpec.cube(2, half_width=2.0, points=9, t_final=1.0, n_time=5)
    field, _ = picard_solve(kinetic, b, 32.0, grid, tol=1e-8, max_iter=60)
    path = tmp_path / "field.dgfb"
    save_field(field, path)
    back = load_field(path)
    np.testing.assert_array_equal(back.values, field.values)
    np.testing.assert_array_equal(back.times, field.times)
    for a, bax in zip(field.axes, back.axes):
        np.testing.assert_array_equal(a, bax)
    assert back.m == field.m and back.d == field.d
    # the header states the values' sup as the field's bound, and names no seed
    header = _unpack(path)[0]
    assert header["bound"] == field.sup_value() > 0 and "seed" not in header
    # interpolation agrees after the round trip
    z = np.array([0.3, -0.4])
    np.testing.assert_array_equal(back.interp(0.5, z), field.interp(0.5, z))


def test_bundle_csv(kinetic, tmp_path):
    bundle = linear_paths(kinetic, [0.1, 0.2], 3, 4, seed=1)
    path = tmp_path / "bundle.csv"
    bundle_to_csv(bundle, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path", "t", "x0", "y0"]
    assert len(rows) == 1 + 3 * 5
    # full-precision floats survive the round trip
    assert float(rows[1][2]) == bundle.X[0, 0, 0]


def test_picard_report_csv(kinetic, tmp_path):
    from degenflow.persist import picard_report_to_csv
    b = build_drift("rough_d1", 1, 1)
    grid = GridSpec.cube(2, half_width=3.0, points=17, t_final=1.0, n_time=9)
    _, report = picard_solve(kinetic, b, 64.0, grid, tol=1e-6, max_iter=60)
    path = tmp_path / "report.csv"
    picard_report_to_csv(report, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == report.iterations
    assert float(rows[-1]["residual"]) == report.residuals[-1]
    assert float(rows[2]["factor"]) == report.factors[1]


def test_write_csv_atomic_and_deterministic(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [[1, 2.5], [3, 4.5]])
    first = path.read_bytes()
    write_csv(path, ["a", "b"], [[1, 2.5], [3, 4.5]])
    assert path.read_bytes() == first
    leftovers = [p for p in path.parent.iterdir() if "tmp" in p.name]
    assert not leftovers


def test_write_csv_numpy_floats_round_trip(tmp_path):
    path = tmp_path / "np.csv"
    vals = [np.float64(0.00390625), np.float64(1.0) / 3.0, np.float64(-2.5e-300)]
    write_csv(path, ["a", "b", "c"], [vals, [1, "x", 2.5]])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert [float(c) for c in rows[1]] == [float(v) for v in vals]
    assert rows[1][0] == "0.00390625"
    assert rows[2] == ["1", "x", "2.5"]
