"""Mild integration, cutoffs, common-noise experiments, Bihari envelopes."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from conftest import assert_within_se
from degenflow import sde
from degenflow.errors import CoverageError, IterationError, NonOsgoodWarning
from degenflow.linear_flow import _step_kernels, transition_law
from degenflow.model import SpectralModel, _expm, build_drift, build_example
from degenflow.regularization import FunctionField, GridSpec, picard_solve
from degenflow.sde import (BLOWUP_THRESHOLD, BihariBound, NoiseRecord, coarsen_noise,
                           cutoff_drift, dissipation_envelope, integrate_ensemble,
                           make_noise, representation_residual, uniqueness_experiment)
from degenflow.streams import substream


def _skewed_model():
    """m = 1, d = 2 with a non-symmetric A2 and a time-dependent 2x2 sigma."""
    return SpectralModel(
        m=1, d=2, A1=[[0.0]], A2=[[-1.0, 0.5], [-0.3, -0.8]], B=[[1.0, 0.5]],
        A0=[[0.0]], sigma=lambda t: [[1.0 + 0.5 * t, 0.2], [0.0, 0.8]])


def _per_step_kernels(model, s, t, n_steps):
    """One step kernel per step of the uniform grid on [s, t]."""
    return [ker for ker, n in _step_kernels(model, s, t, n_steps) for _ in range(n)]


def _record(model, T, n_steps, n_paths, seed):
    """A record on the ("sde", "noise") substream of ``seed``."""
    return make_noise(model, T, n_steps, n_paths, seed, stream=("sde", "noise"))


def _two_call_draw(ker, rng, n_paths):
    """One step's (dW, eta): the increments, then the independent part."""
    dW = math.sqrt(ker.h) * rng.standard_normal((n_paths, ker.k))
    xi = rng.standard_normal((n_paths, ker.E.shape[0]))
    return dW, dW @ ker.Kmat.T + xi @ ker.L.T


# ---------------------------------------------------------------------------
# Integrator basics


def test_zero_drift_zero_noise_is_deterministic_flow():
    model, _ = build_example("kinetic", d=1, sigma=np.zeros((1, 1)))
    b = build_drift("zero", 1, 1)
    traj = integrate_ensemble(model, b, [1.0, 2.0], 1.0, 16, _record(model, 1.0, 16, 1, 0))
    kinetic, _ = build_example("kinetic", d=1)
    expected = transition_law(kinetic, 0.0, 1.0, [1.0, 2.0]).mean
    np.testing.assert_allclose(traj.Z[0, -1], expected, rtol=1e-14)
    assert np.isnan(traj.blowup_times[0])


def test_zero_drift_terminal_moments_match_law(kinetic):
    b = build_drift("zero", 1, 1)
    n = 20000
    ens = integrate_ensemble(kinetic, b, [0.0, 1.0], 1.0, 8, _record(kinetic, 1.0, 8, n, 11))
    law = transition_law(kinetic, 0.0, 1.0, [0.0, 1.0])
    for j in range(2):
        se = math.sqrt(law.cov[j, j] / n)
        assert_within_se(ens.Z[:, -1, j].mean(), law.mean[j], se)


def test_self_convergence_order_one_for_lipschitz_drift(kinetic):
    b = build_drift("dissipative", 1, 1)
    n_ref = 4096
    noise = _record(kinetic, 1.0, n_ref, 16, seed=13)
    ref = integrate_ensemble(kinetic, b, [0.5, 0.5], 1.0, n_ref, noise=noise)
    errors = []
    for n in (128, 256, 512):
        cn = coarsen_noise(kinetic, noise, n_ref // n)
        ens = integrate_ensemble(kinetic, b, [0.5, 0.5], 1.0, n, noise=cn)
        err = np.linalg.norm(ens.Z[:, -1, :] - ref.Z[:, -1, :], axis=1).mean()
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]
    # exponential Euler with frozen Lipschitz drift: first order in the step
    assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.35)
    assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.35)


def test_blowup_recorded_not_raised(kinetic):
    from degenflow.model import DriftSpec, Modulus
    explosive = DriftSpec(fn=lambda t, x, y: y ** 3, m=1, d=1, alpha=0.75,
                          phi=Modulus.power(1.0, 0.5), K=1.0, bound=None)
    traj = integrate_ensemble(kinetic, explosive, [0.0, 6.0], 4.0, 256,
                              _record(kinetic, 4.0, 256, 1, 1))
    assert np.isfinite(traj.blowup_times[0])
    # frozen after exit: finite everywhere
    assert np.all(np.isfinite(traj.Z))


def _first_convolutions(eta):
    """A record on [0, 1] whose convolutions are ``eta`` (paths x steps x 2):
    from z0 = 0 under the zero drift, the state at times[1] is eta[:, 0]."""
    eta = np.asarray(eta, dtype=float)
    P, N = eta.shape[:2]
    return NoiseRecord(times=np.linspace(0.0, 1.0, N + 1), dW=np.zeros((P, N, 1)), eta=eta)


class _CountingNumpy:
    """numpy with its ``sqrt`` calls counted: in ``integrate_ensemble`` only
    the per-path blow-up test takes a square root."""

    def __init__(self):
        self.sqrt_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sqrt(self, x):
        self.sqrt_calls += 1
        return np.sqrt(x)


def _integrate_from_zero(model, rec):
    b = build_drift("zero", 1, 1)
    return integrate_ensemble(model, b, np.zeros(2), 1.0, rec.n_steps, rec)


def test_blowup_screen_flags_exactly_the_per_path_exits(kinetic, monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(sde, "np", counting)
    below = 1e8 - 8.0           # inside the screen's margin band
    assert sde._SCREEN_SQ < below ** 2 < BLOWUP_THRESHOLD ** 2
    ens = _integrate_from_zero(kinetic, _first_convolutions([[[0.0, below]]]))
    assert ens.Z[0, 1, 1] == below and np.isnan(ens.blowup_times[0])
    assert counting.sqrt_calls == 1        # the band reaches the per-path test
    above = np.nextafter(BLOWUP_THRESHOLD, np.inf)
    ens = _integrate_from_zero(kinetic, _first_convolutions([[[0.0, above]]]))
    assert ens.blowup_times[0] == ens.times[1]
    counting.sqrt_calls = 0
    # the screen bounds the square sum over all paths
    ens = _integrate_from_zero(kinetic, _first_convolutions([[[0.0, 0.999e8]], [[3.0, 4.0]]]))
    assert np.all(np.isnan(ens.blowup_times))
    assert counting.sqrt_calls == 0        # below the band the screen decides


def _per_path_exits(model, rec):
    """Zero-drift integration from 0 that runs the per-path test every step."""
    E = _step_kernels(model, 0.0, 1.0, rec.n_steps)[0][0].E
    z = np.zeros((rec.n_paths, 2))
    Z = [z]
    blow = np.full(rec.n_paths, np.nan)
    for i in range(rec.n_steps):
        alive = np.isnan(blow)
        z = np.where(alive[:, None], z @ E.T + rec.eta[:, i], z)
        out = alive & ~(np.sqrt((z * z).sum(axis=-1)) <= BLOWUP_THRESHOLD)
        blow[out] = rec.times[i + 1]
        Z.append(z)
    return np.stack(Z, axis=1), blow


def test_blowup_screen_matches_per_path_test_across_steps(kinetic):
    # kinetic, h = 1/4: x' = x + y/4, y' = y; dyadic entries keep every sum exact
    eta = np.zeros((3, 4, 2))
    eta[0, 0] = [0.0, 1e8 - 8.0]    # in the band at t = 1/4, exits at t = 1/2
    eta[1, 0] = [0.0, 1.0]
    eta[1, 2] = [0.0, 2.0 ** 27]    # exits at t = 3/4
    eta[2] = [1.0, -2.0]            # never exits
    rec = _first_convolutions(eta)
    ens = _integrate_from_zero(kinetic, rec)
    Z, blow = _per_path_exits(kinetic, rec)
    np.testing.assert_array_equal(ens.blowup_times, [0.5, 0.75, np.nan])
    np.testing.assert_array_equal(ens.blowup_times, blow)
    np.testing.assert_array_equal(ens.Z, Z)


def test_blowup_screen_passes_inf_and_nan_to_the_per_path_test(kinetic):
    eta = np.zeros((3, 1, 2))
    eta[0, 0, 1] = np.inf
    eta[1, 0, 1] = np.nan
    eta[2, 0, 1] = 2e8
    ens = _integrate_from_zero(kinetic, _first_convolutions(eta))
    # inf and nan states both exit, and neither hides another path's exit
    np.testing.assert_array_equal(ens.blowup_times, [1.0, 1.0, 1.0])


def test_drift_that_turns_nan_freezes_its_path(kinetic):
    # y' = -sqrt(y) reaches 0 at t = 2 sqrt(y0): from y0 = 1/2 an Euler
    # step overshoots below 0 before T = 2, and the next sqrt gives nan;
    # from y0 = 4 the path stays positive
    model, _ = build_example("kinetic", d=1, sigma=np.zeros((1, 1)))
    b = replace(build_drift("zero", 1, 1), fn=lambda t, x, y: -np.sqrt(y))
    starts = np.array([[0.0, 0.5], [0.0, 4.0]])
    with pytest.warns(RuntimeWarning, match="invalid value"):
        ens = integrate_ensemble(model, b, starts, 2.0, 64, _record(model, 2.0, 64, 2, 1))
    assert np.isfinite(ens.blowup_times[0]) and np.isnan(ens.blowup_times[1])
    # the path exits one step after its state goes negative and stays frozen
    k = int(np.flatnonzero(ens.times == ens.blowup_times[0])[0])
    assert ens.Y[0, k - 1, 0] < 0.0 <= np.min(ens.Y[0, :k - 1])
    assert np.all(np.isfinite(ens.Z[0, :k])) and np.all(np.isnan(ens.Z[0, k:]))
    assert np.all(np.isfinite(ens.Z[1])) and np.all(ens.Y[1] > 0.0)


def test_coarsen_noise_exact_for_linear_flow(kinetic):
    b = build_drift("zero", 1, 1)
    noise = _record(kinetic, 1.0, 64, 3, seed=17)
    fine = integrate_ensemble(kinetic, b, [0.1, 0.4], 1.0, 64, noise=noise)
    for factor in (2, 4, 8):
        cn = coarsen_noise(kinetic, noise, factor)
        coarse = integrate_ensemble(kinetic, b, [0.1, 0.4], 1.0, 64 // factor,
                                    noise=cn)
        np.testing.assert_allclose(coarse.Z[:, -1, :], fine.Z[:, -1, :],
                                   atol=1e-13)


def test_make_noise_matches_per_step_draws(kinetic):
    second_order, _ = build_example("second_order")
    # P = 700 crosses the draw's block boundaries (31 steps per block on
    # kinetic, 18 on the skewed model); one path over 1024 steps is where a
    # product flattened across steps changes the last bits
    cases = [(kinetic, 1, 40), (kinetic, 3, 40), (kinetic, 700, 100),
             (_skewed_model(), 1, 40), (_skewed_model(), 3, 40), (_skewed_model(), 700, 100),
             (second_order, 1, 1024)]
    for model, n_paths, n_steps in cases:
        rec = make_noise(model, 1.0, n_steps, n_paths, seed=8, stream=("t", "rec"))
        rng = substream(8, "t", "rec")
        draws = [_two_call_draw(ker, rng, n_paths)
                 for ker in _per_step_kernels(model, 0.0, 1.0, n_steps)]
        np.testing.assert_array_equal(rec.times, np.linspace(0.0, 1.0, n_steps + 1))
        np.testing.assert_array_equal(rec.dW, np.stack([d[0] for d in draws], axis=1))
        np.testing.assert_array_equal(rec.eta, np.stack([d[1] for d in draws], axis=1))


@pytest.mark.parametrize("n_paths", [1, 3, 500])
def test_step_draw_is_the_two_call_stream(kinetic, n_paths):
    for model in (kinetic, _skewed_model()):
        for ker in _per_step_kernels(model, 0.0, 1.0, 4)[::3]:
            rng = substream(6, "t", "draw")
            dW, eta = ker.draw(rng, n_paths, 1)
            assert dW.shape == (1, n_paths, ker.k) and eta.shape == (1, n_paths, model.dim)
            ref = substream(6, "t", "draw")
            dW2 = math.sqrt(ker.h) * ref.standard_normal((n_paths, ker.k))
            xi = ref.standard_normal((n_paths, model.dim))
            assert np.all(dW[0] == dW2)
            assert np.all(eta[0] == dW2 @ ker.Kmat.T + xi @ ker.L.T)
            assert rng.standard_normal() == ref.standard_normal()


@pytest.mark.parametrize("n_paths, n_steps", [(1, 1024), (3, 40), (700, 100), (22000, 3)])
def test_multi_step_draw_is_the_one_step_draws(kinetic, n_paths, n_steps):
    # 22000 paths put more than one block's normals in a single step
    second_order, _ = build_example("second_order")
    for model in (kinetic, second_order, _skewed_model()):
        ker = _step_kernels(model, 0.0, 1.0, n_steps)[0][0]
        rng = substream(2, "t", "multi")
        dW, eta = ker.draw(rng, n_paths, n_steps)
        ref = substream(2, "t", "multi")
        steps = [ker.draw(ref, n_paths, 1) for _ in range(n_steps)]
        np.testing.assert_array_equal(dW, np.concatenate([d[0] for d in steps]))
        np.testing.assert_array_equal(eta, np.concatenate([d[1] for d in steps]))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_sample_linear_matches_a_per_step_loop(kinetic):
    # the linear flow's paths are the zero-drift ensemble of a record: each
    # step is the kernel's exact flow plus its convolution
    for model, n_paths, n_steps in ((kinetic, 1, 256), (kinetic, 700, 50),
                                    (_skewed_model(), 3, 40)):
        z = np.linspace(0.3, -0.2, model.dim)
        rec = make_noise(model, 1.0, n_steps, n_paths, seed=5,
                         stream=("linear_flow", "sample"))
        ens = integrate_ensemble(model, build_drift("zero", model.m, model.d), z, 1.0,
                                 n_steps, rec)
        rng = substream(5, "linear_flow", "sample")
        cur = np.broadcast_to(z, (n_paths, model.dim)).copy()
        Z, dW = [cur], []
        for ker in _per_step_kernels(model, 0.0, 1.0, n_steps):
            dw, eta = _two_call_draw(ker, rng, n_paths)
            cur = cur @ ker.E.T + eta
            Z.append(cur)
            dW.append(dw)
        np.testing.assert_array_equal(ens.Z, np.stack(Z, axis=1))
        np.testing.assert_array_equal(ens.dW, np.stack(dW, axis=1))


@pytest.mark.parametrize("bad", [dict(n_steps=0), dict(n_paths=0), dict(T=0.0),
                                 dict(T=-0.1)])
def test_make_noise_rejects_an_empty_grid(kinetic, bad):
    args = dict(T=1.0, n_steps=4, n_paths=2) | bad
    with pytest.raises(ValueError, match="must"):
        _record(kinetic, args["T"], args["n_steps"], args["n_paths"], 1)


def test_make_noise_peak_memory_is_the_record_plus_one_block(kinetic):
    # the blocked draw keeps its scratch to one block; drawing the whole
    # record's normals at once would add about 12 MiB here
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rec = _record(kinetic, 2.0, 1024, 500, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rec.dW.nbytes + rec.eta.nbytes + 2 * 2 ** 20


def test_record_helpers_match_stepwise_loops(kinetic):
    for model in (kinetic, _skewed_model()):
        E = _step_kernels(model, 0.0, 1.0, 32)[0][0].E
        rec = _record(model, 1.0, 32, 3, seed=9)
        cn = coarsen_noise(model, rec, 4)
        for g in range(8):
            acc = rec.eta[:, 4 * g, :]
            for j in range(1, 4):
                acc = acc @ E.T + rec.eta[:, 4 * g + j, :]
            np.testing.assert_array_equal(cn.eta[:, g, :], acc)
        np.testing.assert_array_equal(cn.dW, rec.dW.reshape(3, 8, 4, -1).sum(axis=2))


def test_noise_record_on_another_grid_rejected(kinetic):
    b = build_drift("zero", 1, 1)
    rec = _record(kinetic, 1.0, 16, 2, seed=3)
    late = replace(rec, times=np.linspace(0.5, 1.0, 17))
    with pytest.raises(ValueError, match="grid"):
        integrate_ensemble(kinetic, b, [0.1, 0.4], 1.0, 16, noise=late)
    uneven = replace(rec, times=np.concatenate([[0.0], np.linspace(0.2, 1.0, 16)]))
    with pytest.raises(ValueError, match="grid"):
        integrate_ensemble(kinetic, b, [0.1, 0.4], 1.0, 16, noise=uneven)
    # a 2-path record drives a 1-D start or two rows, and neither 3 rows nor 1
    assert integrate_ensemble(kinetic, b, np.zeros((2, 2)), 1.0, 16, rec).n_paths == 2
    for starts in (np.zeros((3, 2)), np.zeros((1, 2))):
        with pytest.raises(ValueError, match="noise record has 2 paths"):
            integrate_ensemble(kinetic, b, starts, 1.0, 16, rec)


# ---------------------------------------------------------------------------
# Drift cutoff


def test_cutoff_plateau_and_support():
    b = build_drift("constant", 1, 1, value=np.array([1.0]))
    bc = cutoff_drift(b, 2)
    inside = bc(0.0, np.array([[1.0]]), np.array([[0.5]]))
    assert inside[0, 0] == 1.0
    outside = bc(0.0, np.array([[4.0]]), np.array([[3.0]]))
    assert outside[0, 0] == 0.0
    assert bc.bound is not None and np.isfinite(bc.bound)


def test_cutoff_blend_monotone_in_radius():
    b = build_drift("constant", 1, 1, value=np.array([1.0]))
    bc = cutoff_drift(b, 1)
    radii = np.linspace(0.0, 2.5, 60)
    vals = np.array([bc(0.0, np.array([[r]]), np.array([[0.0]]))[0, 0]
                     for r in radii])
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals[0] == 1.0 and vals[-1] == 0.0


def test_cutoff_time_freeze():
    from degenflow.model import DriftSpec, Modulus
    b = DriftSpec(fn=lambda t, x, y: np.asarray(t)[..., None] * np.ones_like(y),
                  m=1, d=1, alpha=0.75, phi=Modulus.power(1.0, 0.5), K=1.0,
                  bound=None)
    bc = cutoff_drift(b, 2)
    v1 = bc(1.5, np.array([[0.0]]), np.array([[0.0]]))
    v2 = bc(5.0, np.array([[0.0]]), np.array([[0.0]]))
    assert v1[0, 0] == 1.5
    assert v2[0, 0] == 2.0  # time frozen at the cutoff level


# ---------------------------------------------------------------------------
# Uniqueness experiment


def test_zero_perturbation_gap_exactly_zero(kinetic):
    b = build_drift("rough_d1", 1, 1)
    table = uniqueness_experiment(kinetic, b, [0.3, 0.4], 0.0, 1.0,
                                  [64, 128, 256], seed=2)
    assert np.all(table.gaps() == 0.0)


@pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
def test_uniqueness_rejects_a_negative_or_non_finite_perturbation(kinetic, bad):
    b = build_drift("rough_d1", 1, 1)
    with pytest.raises(ValueError, match="perturbation must be finite and >= 0"):
        uniqueness_experiment(kinetic, b, [0.3, 0.4], bad, 1.0, [64], seed=2)


def test_stacked_uniqueness_rows_equal_single_runs(kinetic):
    b = build_drift("rough_d1", 1, 1)
    z0 = np.array([0.3, 0.4])
    direction = np.ones(2) / math.sqrt(2.0)
    for p in (1e-3, 0.0):
        table = uniqueness_experiment(kinetic, b, z0, p, 1.0, [128, 256], seed=2)
        for n, row in zip((128, 256), table.rows):
            noise = make_noise(kinetic, 1.0, n, 1, 2,
                               stream=("sde", "uniqueness", str(n)))
            starts = np.stack([z0, z0 + p * direction])
            ens = integrate_ensemble(kinetic, b, starts, 1.0, n, noise)
            # the one-path record drives both rows, as a record of it repeated
            repeated = replace(noise, dW=np.repeat(noise.dW, 2, axis=0),
                               eta=np.repeat(noise.eta, 2, axis=0))
            twice = integrate_ensemble(kinetic, b, starts, 1.0, n, repeated)
            for name in ("Z", "dW", "eta", "blowup_times"):
                np.testing.assert_array_equal(getattr(ens, name), getattr(twice, name))
            single = [integrate_ensemble(kinetic, b, z, 1.0, n, noise=noise).Z[0]
                      for z in starts]
            np.testing.assert_array_equal(ens.Z[0], single[0])
            np.testing.assert_array_equal(ens.Z[1], single[1])
            gap = np.linalg.norm(single[0] - single[1], axis=-1)
            assert row.sup_gap == float(np.max(gap))
            assert row.gap_at_T == float(gap[-1])


def test_lipschitz_gap_within_gronwall_envelope(kinetic):
    b = build_drift("dissipative", 1, 1)
    # drift Lipschitz constant in z: |grad b| <= sqrt(2) on the relevant box
    L = math.sqrt(2.0) + 1.0  # + ||block operator|| margin for the linear part
    p = 1e-3
    table = uniqueness_experiment(kinetic, b, [0.3, 0.4], p, 1.0, [256, 512],
                                  seed=4)
    for row in table.rows:
        assert row.sup_gap <= math.exp(L * 1.0) * p


def test_rough_gap_monotone_in_perturbation(kinetic):
    b = build_drift("rough_d1", 1, 1)
    gaps = []
    for p in (1e-2, 1e-3, 1e-4):
        table = uniqueness_experiment(kinetic, b, [0.3, 0.4], p, 1.0, [512],
                                      seed=6)
        gaps.append(table.rows[0].gap_at_T)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


# ---------------------------------------------------------------------------
# Representation identity


def test_representation_residual_zero_drift_tiny(kinetic):
    b = build_drift("zero", 1, 1)
    grid = GridSpec.cube(2, half_width=8.0, points=9, t_final=1.0, n_time=9)
    field, _ = picard_solve(kinetic, b, 32.0, grid, tol=1e-8, max_iter=60)
    traj = integrate_ensemble(kinetic, b, [0.1, 0.2], 1.0, 64,
                              _record(kinetic, 1.0, 64, 1, 5))
    rep = representation_residual(kinetic, b, traj, field, 32.0)
    assert rep.max_residual[0] <= 1e-8


def test_representation_residual_constant_drift_order(kinetic):
    lam, c, T = 64.0, 0.8, 1.0
    b = build_drift("constant", 1, 1, value=np.array([c]))
    u_fn = lambda ts, pts: (c * (1.0 - np.exp(-lam * (T - ts))) / lam)[:, None]
    field = FunctionField(u_fn, 1, 1,
                          jac_fn=lambda ts, pts: np.zeros((pts.shape[0], 1, 1)))
    noise = _record(kinetic, T, 512, 4, seed=7)
    residuals = []
    for n in (128, 256, 512):
        cn = coarsen_noise(kinetic, noise, 512 // n)
        ens = integrate_ensemble(kinetic, b, [0.2, 0.1], T, n, noise=cn)
        res = np.mean(representation_residual(kinetic, b, ens, field, lam).max_residual)
        residuals.append(res)
    # empirical order >= 0.5 means ratios >= sqrt(2); trapezoid gives ~4
    assert residuals[0] / residuals[1] >= math.sqrt(2.0)
    assert residuals[1] / residuals[2] >= math.sqrt(2.0)


def _stepwise_residual(model, traj, field, lam):
    """The representation residual of a one-path ensemble by the plain
    per-step recursion."""
    times, N, m, d = traj.times, traj.n_steps, model.m, model.d
    Z, dW, eta, Y = traj.Z[0], traj.dW[0], traj.eta[0], traj.Y[0]
    h = float(times[1] - times[0])
    E2 = _expm(model.A2 * h)
    uvals = field.interp_many(times, Z)
    jacs = field.jacobian_y_many(times[:-1], Z[:-1])
    q = uvals @ (lam * np.eye(d) - model.A2).T
    sig_dw = np.array([model.sigma_at(float(times[i])) @ dW[i] for i in range(N)])
    grad_term = np.einsum("iaj,ij->ia", jacs, sig_dw)
    residual = np.zeros(N + 1)
    leb, sto = np.zeros(d), np.zeros(d)
    etY0, etu0 = Y[0].copy(), uvals[0].copy()
    for k in range(1, N + 1):
        leb = leb @ E2.T + 0.5 * h * (q[k - 1] @ E2.T + q[k])
        sto = sto @ E2.T + eta[k - 1, m:] + grad_term[k - 1] @ E2.T
        etY0 = etY0 @ E2.T
        etu0 = etu0 @ E2.T
        residual[k] = np.linalg.norm(Y[k] - (etY0 + etu0 - uvals[k] + leb + sto))
    return residual


def test_residual_matches_stepwise_recursion():
    second, b_second = build_example("second_order", d=2)
    cases = [(build_example("kinetic", d=1)[0], build_drift("dissipative", 1, 1)),
             (second, b_second),
             (_skewed_model(), build_drift("zero", 1, 2))]
    for model, b in cases:
        d = model.d
        # a smooth field with a y-Jacobian that mixes the components
        mix = np.arange(1.0, d * d + 1.0).reshape(d, d) / (d * d)
        u_fn = lambda ts, pts, mix=mix, m=model.m: (
            (1.0 - ts)[:, None] * np.sin(pts[:, m:] @ mix.T + pts[:, :1]))
        jac_fn = lambda ts, pts, mix=mix, m=model.m: (
            (1.0 - ts)[:, None, None]
            * np.cos(pts[:, m:] @ mix.T + pts[:, :1])[:, :, None] * mix[None])
        field = FunctionField(u_fn, model.m, d, jac_fn=jac_fn)
        z0 = np.full(model.dim, 0.2)
        traj = integrate_ensemble(model, b, z0, 1.0, 200, _record(model, 1.0, 200, 1, 4))
        rep = representation_residual(model, b, traj, field, 16.0)
        expected = _stepwise_residual(model, traj, field, 16.0)
        assert rep.per_time[0, 0] == 0.0
        assert np.max(expected) > 1e-3  # the field is not a solution: O(1) residual
        np.testing.assert_allclose(rep.per_time[0], expected, rtol=0.0, atol=1e-12)
        # a 3-path ensemble in one call: each path on its own recursion
        ens = integrate_ensemble(model, b, z0, 1.0, 200, _record(model, 1.0, 200, 3, 8))
        rep = representation_residual(model, b, ens, field, 16.0)
        np.testing.assert_array_equal(rep.max_residual, np.max(rep.per_time, axis=1))
        for p in range(3):
            np.testing.assert_allclose(rep.per_time[p],
                                       _stepwise_residual(model, ens.path(p), field, 16.0),
                                       rtol=0.0, atol=1e-12)
            # each path runs the matrix products of its own one-path call
            alone = representation_residual(model, b, ens.path(p), field, 16.0)
            np.testing.assert_array_equal(rep.per_time[p], alone.per_time[0])


def test_residual_constant_sigma_equals_stacked_sigma():
    sigma = np.array([[1.0, 0.3], [0.2, 0.7]])
    model, _ = build_example("kinetic", d=2, sigma=sigma)
    stacked = replace(model, sigma=lambda t: sigma)   # callable: sigma stacked per step
    assert model.sigma_constant and not stacked.sigma_constant
    b = build_drift("zero", 2, 2)
    mix = np.array([[0.5, -0.25], [0.75, 0.125]])
    field = FunctionField(
        lambda ts, pts: (1.0 - ts)[:, None] * np.sin(pts[:, 2:] @ mix.T + pts[:, :1]), 2, 2,
        jac_fn=lambda ts, pts: ((1.0 - ts)[:, None, None]
                                * np.cos(pts[:, 2:] @ mix.T + pts[:, :1])[:, :, None] * mix))
    ens = integrate_ensemble(model, b, np.full(4, 0.1), 1.0, 64, _record(model, 1.0, 64, 3, 12))
    rep = representation_residual(model, b, ens, field, 8.0)
    ref = representation_residual(stacked, b, ens, field, 8.0)
    assert np.max(rep.per_time) > 1e-3
    assert np.all(rep.per_time == ref.per_time)


def test_representation_coverage_error(kinetic):
    b = build_drift("zero", 1, 1)
    grid = GridSpec.cube(2, half_width=0.5, points=9, t_final=1.0, n_time=5)
    field, _ = picard_solve(kinetic, b, 32.0, grid, tol=1e-8, max_iter=60)
    traj = integrate_ensemble(kinetic, b, [0.0, 2.0], 1.0, 32, _record(kinetic, 1.0, 32, 1, 3))
    with pytest.raises(CoverageError):
        representation_residual(kinetic, b, traj, field, 32.0)
    # over an ensemble the error names the first time any path is outside
    ens = integrate_ensemble(kinetic, b, [0.0, 0.2], 1.0, 32, _record(kinetic, 1.0, 32, 4, 3))
    first = [int(np.argmax(np.any(np.abs(z) > 0.5, axis=1))) for z in ens.Z]
    assert min(first) > 0 and len(set(first)) == 4
    with pytest.raises(CoverageError, match=f"t={ens.times[min(first)]:.6g}$"):
        representation_residual(kinetic, b, ens, field, 32.0)


# ---------------------------------------------------------------------------
# Bihari bound


def test_bihari_constant_ell_affine():
    L = 1.0
    bb = BihariBound(lambda s: L + 0.0 * np.asarray(s), 2.0, 1.5)
    assert abs(bb.curve(0.0) - 2.0) < 1e-8
    # Gamma(s) = (s - 1)/(2L): curve(t) = eta + 2 L t
    for t in (0.25, 0.5, 1.0):
        assert abs(bb.curve(t) - (2.0 + 2.0 * L * t)) < 1e-7


def test_bihari_linear_ell_exponential_type():
    C = 2.0
    bb = BihariBound(lambda s: np.asarray(s, dtype=float), 2.0, C)
    # Gamma(s) = log((1+s)/2) / (2C); inverse: 2 e^{2 C u} - 1
    g = bb.gamma(5.0)
    assert abs(g - math.log(3.0) / (2.0 * C)) < 1e-10
    target = bb.gamma(2.0) + 1.0
    expected = 2.0 * math.exp(2.0 * C * target) - 1.0
    assert abs(bb.curve(1.0) - expected) < 1e-6 * expected
    assert np.isfinite(bb.curve(1.0))


def test_bihari_t_zero_identity():
    bb = BihariBound(lambda s: 1.0 + np.asarray(s, dtype=float), 3.7, 1.2)
    assert abs(bb.curve(0.0) - 3.7) < 1e-8


@pytest.mark.parametrize("eta_T, C_env, what", [
    (np.nan, 1.5, "eta_T"), (np.inf, 1.5, "eta_T"), (0.0, 1.5, "eta_T"),
    (2.0, np.nan, "C_env"), (2.0, np.inf, "C_env"), (2.0, 1.0, "C_env"),
])
def test_bihari_bound_rejects_non_finite_or_out_of_range_inputs(eta_T, C_env, what):
    with pytest.raises(ValueError, match=what):
        BihariBound(lambda s: 1.0 + np.asarray(s, dtype=float), eta_T, C_env)


def test_non_osgood_warning():
    with pytest.warns(NonOsgoodWarning):
        BihariBound(lambda s: 1.0 + np.asarray(s, dtype=float) ** 2, 1.0, 2.0)


def test_gamma_matches_closed_forms_on_both_sides_of_one():
    C = 2.0
    s = np.array([0.0, 1e-9, 0.3, 0.9, 1.0, 1.7, 5.0, 1e3, 1e8, 1e12])
    # ell(s) = s: Gamma(s) = log((1+s)/2) / (2C)
    bb = BihariBound(lambda r: np.asarray(r, dtype=float), 1.0, C)
    np.testing.assert_allclose(bb.gamma(s), np.log1p(s) / (2 * C) - math.log(2) / (2 * C),
                               rtol=1e-12, atol=1e-15)
    # ell = 1 + s^2 is not Osgood; Gamma(s) = (atan(C(1+s)) - atan(2C)) / (2C)
    with pytest.warns(NonOsgoodWarning):
        bb = BihariBound(lambda r: 1.0 + np.asarray(r, dtype=float) ** 2, 1.0, C)
    exact = (np.arctan(C * (1.0 + s)) - math.atan(2.0 * C)) / (2.0 * C)
    np.testing.assert_allclose(bb.gamma(s), exact, rtol=1e-12, atol=1e-15)
    with pytest.raises(IterationError):
        bb.curve(1.0)


@pytest.mark.parametrize("ell", [
    lambda s: np.asarray(s, dtype=float),
    lambda s: 0.5 * (1.0 + np.asarray(s, dtype=float)),
    lambda s: 1.0 + np.sqrt(np.asarray(s, dtype=float)),
])
def test_curve_inverts_gamma(ell):
    bb = BihariBound(ell, 3.0, 1.7)
    ts = np.linspace(0.0, 2.0, 33)
    curve = bb.curve(ts)
    assert np.all(np.diff(curve) > 0.0)
    np.testing.assert_allclose(bb.gamma(curve) - bb.gamma(3.0), ts, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Dissipation envelope


def _gamma_quad(ell, C, s):
    return integrate.quad(lambda r: 1.0 / (2.0 * float(ell(C + C * r))), 1.0, s,
                          epsabs=1e-14, epsrel=1e-13, limit=200)[0]


def test_envelope_margins_match_quadrature(kinetic):
    # a small ell puts the least margin of paths 1, 2, 3 and 5 after t = 0
    b = replace(build_drift("dissipative", 1, 1),
                ell=lambda s: 0.02 * (1.0 + np.asarray(s, dtype=float)))
    rep = dissipation_envelope(kinetic, b, [0.5, 1.0], 2.0, 64, 40, seed=21)
    for p in (0, 1, 2, 3, 5):
        C = float(rep.C_env[p])
        g_eta = _gamma_quad(b.ell, C, float(rep.eta_T[p]))
        gvals = np.array([_gamma_quad(b.ell, C, float(v)) for v in rep.sup_tilde_sq[p]])
        assert abs(rep.margins[p] - np.min(g_eta + rep.times - gvals)) <= 1e-10


def _margins_at_every_record_point(rep, ell):
    """Least margin per path with Gamma at every point where the running sup
    takes a new value (or t = 0): the pass the envelope prunes."""
    S = rep.sup_tilde_sq
    first = np.ones(S.shape, dtype=bool)
    first[:, 1:] = S[:, 1:] != S[:, :-1]
    p, i = np.nonzero(first)
    top = sde._gamma(ell, rep.C_env, rep.eta_T)[p] + rep.times[i]
    return np.minimum.reduceat(top - sde._gamma(ell, rep.C_env[p], S[p, i]),
                               np.flatnonzero(i == 0))


@pytest.mark.parametrize("drift, z0, n_steps, n_paths, seed", [
    ("dissipative", [0.5, 1.0], 256, 130, 21),
    ("dissipative", [0.2, -0.7], 128, 64, 3),
    ("dissipative", [0.5, 0.0], 256, 100, 8),      # Y0 = 0: the first point is s = 0
    ("small_ell", [0.5, 1.0], 64, 40, 21),
    ("small_ell", [0.5, 1.0], 512, 200, 5),
    ("small_ell", [0.5, 0.0], 256, 100, 8),
    ("growing", [0.5, 1.0], 256, 200, 21),          # negative margins
])
def test_envelope_margins_equal_gamma_at_every_record_point(kinetic, drift, z0, n_steps,
                                                            n_paths, seed, monkeypatch):
    b = build_drift("dissipative", 1, 1)
    if drift == "small_ell":
        b = replace(b, ell=lambda s: 0.02 * (1.0 + np.asarray(s, dtype=float)))
    elif drift == "growing":
        b = replace(b, fn=lambda t, x, y: 2.0 * y)
    evaluated = []
    panel = sde._gl_panel
    monkeypatch.setattr(sde, "_gl_panel",
                        lambda *a: evaluated.append(np.size(a[-1])) or panel(*a))
    rep = dissipation_envelope(kinetic, b, z0, 2.0, n_steps, n_paths, seed=seed)
    monkeypatch.undo()
    np.testing.assert_array_equal(rep.margins, _margins_at_every_record_point(rep, b.ell))
    assert (drift == "growing") == (not rep.all_below)
    if drift == "dissipative":
        # the declared ell keeps Gamma's knots close on the scale of t, so
        # the quadrature runs on a fraction of the record points
        n_records = n_paths + np.count_nonzero(np.diff(rep.sup_tilde_sq, axis=1))
        assert sum(evaluated) < n_records / 4


def test_gamma_of_a_point_does_not_depend_on_the_other_points():
    ell = lambda s: 0.5 * (1.0 + np.asarray(s, dtype=float))
    rng = np.random.default_rng(4)
    s = np.concatenate([[0.0, 5e-324, 1e-9, 0.5, 1.0, 2.0, 3.0, 1e12],
                        10.0 ** rng.uniform(-6.0, 9.0, 200)])
    C = rng.choice([1.0 + 1e-6, 1.7, 3.25, 40.0], size=s.size)
    whole = sde._gamma(ell, C, s)
    for sub in (np.arange(3, 9), np.flatnonzero(C == 1.7), rng.choice(s.size, 17)):
        np.testing.assert_array_equal(sde._gamma(ell, C[sub], s[sub]), whole[sub])
        for j in sub:
            assert sde._gamma(ell, C[j], s[j]) == whole[j]
    # a knot's value depends neither on the ladder's ends nor on the other C
    Cu = np.array([1.5, 2.0, 9.0])
    wide = sde._gamma_knots(ell, Cu, -12, 20)
    np.testing.assert_array_equal(sde._gamma_knots(ell, Cu[1:2], -3, 5), wide[1:2, 9:18])
    np.testing.assert_array_equal(sde._gamma_knots(ell, Cu, 0, 2), wide[:, 12:15])


def test_envelope_peak_memory_is_set_before_the_margin_pass(kinetic):
    # a 500 x 1024 ensemble: the noise record, the trajectories and the
    # noise convolution xi set a tracemalloc peak of 24.68e6 bytes before
    # Gamma runs, and the margin pass, blocked by paths, stays under it
    b = build_drift("dissipative", 1, 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        dissipation_envelope(kinetic, b, [0.07449849539587827, 0.4431204030627365],
                             2.0, 1024, 500, seed=1190805607)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24.7e6


def test_dissipative_paths_below_envelope(kinetic):
    b = build_drift("dissipative", 1, 1)
    rep = dissipation_envelope(kinetic, b, [0.5, 1.0], 2.0, 256, 200, seed=21)
    assert rep.n_blowups == 0
    assert rep.all_below
    assert np.all(rep.C_env > 1.0)
    assert np.all(rep.eta_T > 0.0)


def test_envelope_check_rejects_a_drift_beyond_its_declared_growth(kinetic):
    # b = 2y pushes |Y| outward, breaking the growth that the dissipative
    # spec's ell declares, so the measured energy must cross the envelope
    b = replace(build_drift("dissipative", 1, 1), fn=lambda t, x, y: 2.0 * y)
    rep = dissipation_envelope(kinetic, b, [0.5, 1.0], 2.0, 256, 200, seed=21)
    assert rep.n_blowups == 0
    assert not rep.all_below
