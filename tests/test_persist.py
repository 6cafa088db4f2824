"""Binary and CSV persistence round trips."""

import csv

import numpy as np
import pytest

from degenflow.linear_flow import sample_linear
from degenflow.model import build_drift
from degenflow.persist import (_unpack, bundle_to_csv, load_bundle, load_field,
                               load_trajectory, save_bundle, save_field,
                               save_trajectory, write_csv)
from degenflow.regularization import GridSpec, picard_solve
from degenflow.sde import integrate_ensemble, make_noise


def test_bundle_round_trip(kinetic, tmp_path):
    bundle = sample_linear(kinetic, 0.0, 1.0, [0.1, 0.2], 5, 8, seed=3,
                           stream=("linear_flow", "sample"))
    path = tmp_path / "bundle.dgfb"
    save_bundle(bundle, path)
    back = load_bundle(path)
    np.testing.assert_array_equal(back.times, bundle.times)
    np.testing.assert_array_equal(back.X, bundle.X)
    np.testing.assert_array_equal(back.Y, bundle.Y)
    np.testing.assert_array_equal(back.dW, bundle.dW)
    assert back.seed == bundle.seed
    assert back.stream == bundle.stream


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
    # the header states the values' sup as the field's bound
    assert _unpack(path)[0]["bound"] == field.sup_value() > 0
    # interpolation agrees after the round trip
    z = np.array([0.3, -0.4])
    np.testing.assert_array_equal(back.interp(0.5, z), field.interp(0.5, z))


def test_trajectory_round_trip(kinetic, tmp_path):
    b = build_drift("dissipative", 1, 1)
    traj = integrate_ensemble(kinetic, b, [0.2, 0.3], 1.0, 16,
                              make_noise(kinetic, 1.0, 16, 1, 9, stream=("sde", "noise")))
    path = tmp_path / "traj.dgfb"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.Z, traj.Z)
    np.testing.assert_array_equal(back.dW, traj.dW)
    np.testing.assert_array_equal(back.eta, traj.eta)
    np.testing.assert_array_equal(back.blowup_times, traj.blowup_times)
    assert back.m == traj.m
    # the header keeps its seed and stream fields, naming no record
    header = _unpack(path)[0]
    assert (header["seed"], header["stream"]) == (-1, "")


def test_trajectory_round_trip_keeps_a_blowup_and_one_path_only(kinetic, tmp_path):
    from degenflow.model import DriftSpec, Modulus
    explosive = DriftSpec(fn=lambda t, x, y: y ** 3, m=1, d=1, alpha=0.75,
                          phi=Modulus.power(1.0, 0.5), K=1.0, bound=None)
    ens = integrate_ensemble(kinetic, explosive, [0.0, 6.0], 4.0, 64,
                             make_noise(kinetic, 4.0, 64, 2, 1, stream=("sde", "noise")))
    assert np.all(np.isfinite(ens.blowup_times))
    path = tmp_path / "traj.dgfb"
    with pytest.raises(ValueError):
        save_trajectory(ens, path)
    assert not path.exists()
    save_trajectory(ens.path(1), path)
    back = load_trajectory(path)
    np.testing.assert_array_equal(back.Z, ens.Z[1:])
    np.testing.assert_array_equal(back.blowup_times, ens.blowup_times[1:])


def test_bundle_csv(kinetic, tmp_path):
    bundle = sample_linear(kinetic, 0.0, 1.0, [0.1, 0.2], 3, 4, seed=1,
                           stream=("linear_flow", "sample"))
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
