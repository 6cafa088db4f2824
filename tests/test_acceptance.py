"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, in the assertions.  Statistical checks use
5-standard-error bands; deterministic checks use the stated absolute or
relative tolerances.  Heavier artifacts (the contraction search and the fine
rough-drift field) are module-scoped fixtures shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from degenflow.bismut import (bismut_gradient, gramian_Q, scaling_exponent,
                              verify_coupling)
from degenflow.linear_flow import hs_noise_integral
from degenflow.model import SpectralModel, build_drift, build_example
from degenflow.regularization import (FunctionField, GridSpec, find_contraction_lambda,
                                      galerkin_compare, picard_solve,
                                      theta_forward, theta_inverse)
from degenflow.sde import (coarsen_noise, cutoff_drift, dissipation_envelope,
                           integrate_ensemble, make_noise,
                           representation_residual, uniqueness_experiment)


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def kinetic_model():
    model, _ = build_example("kinetic", d=1)
    return model


@pytest.fixture(scope="module")
def contraction_artifacts(kinetic_model):
    """Doubling search on the rough drift at the criterion grid 65^2 x 33."""
    b = cutoff_drift(build_drift("rough_d1", 1, 1), 3)
    grid = GridSpec.cube(2, half_width=4.0, points=65, t_final=1.0, n_time=33)
    t0 = time.perf_counter()
    lam, field, report = find_contraction_lambda(kinetic_model, b, grid,
                                                 lam0=16.0, tol=1e-8,
                                                 max_iter=40)
    elapsed = time.perf_counter() - t0
    return lam, field, report, elapsed


def test_criterion_1_gramian_scaling(kinetic_model):
    t0 = time.perf_counter()
    res = gramian_Q(kinetic_model, 1.0)
    elapsed = time.perf_counter() - t0
    rel = np.max(np.abs(res.sweep_ratio - 6.0)) / 6.0
    ok = rel <= 1e-9 and elapsed < 1.0
    _report(1, "Gramian cubic scaling", ok,
            f"max rel error of ||Q_t^-1|| t^3 vs 6: {rel:.2e} "
            f"(tol 1e-9), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_bismut_vs_analytic(kinetic_model):
    x0, y0, T = 0.3, 0.5, 1.0
    z = [x0, y0]
    observables = {
        "x": lambda zz: zz[:, 0],
        "y": lambda zz: zz[:, 1],
        "x2": lambda zz: zz[:, 0] ** 2,
        "y2": lambda zz: zz[:, 1] ** 2,
        "xy": lambda zz: zz[:, 0] * zz[:, 1],
    }
    # analytic derivatives of the Gaussian moments at (x0, y0), T = 1:
    # E[X]=x+y, E[Y]=y, E[X^2]=(x+y)^2+1/3, E[Y^2]=y^2+1, E[XY]=(x+y)y+1/2
    analytic = {
        ("x", "x"): 1.0, ("x", "y"): 1.0,
        ("y", "x"): 0.0, ("y", "y"): 1.0,
        ("x2", "x"): 2.0 * (x0 + y0), ("x2", "y"): 2.0 * (x0 + y0),
        ("y2", "x"): 0.0, ("y2", "y"): 2.0 * y0,
        ("xy", "x"): y0, ("xy", "y"): x0 + 2.0 * y0,
    }
    directions = {"x": [1.0, 0.0], "y": [0.0, 1.0]}
    t0 = time.perf_counter()
    worst = 0.0
    worst_case = ""
    for fname, f in observables.items():
        for comp, v in directions.items():
            est = bismut_gradient(kinetic_model, 0.0, T, f, z, v,
                                  n_paths=100000, n_steps=256,
                                  seed=100, stream=("acc2", fname, comp))
            target = analytic[(fname, comp)]
            zscore = abs(est.value - target) / max(est.stderr, 1e-12)
            if zscore > worst:
                worst = zscore
                worst_case = f"f={fname}, d/d{comp}"
    elapsed = time.perf_counter() - t0
    ok = worst <= 5.0 and elapsed < 30.0
    _report(2, "Bismut vs analytic derivatives", ok,
            f"worst |z|-score {worst:.2f} at {worst_case} over 10 probes "
            f"(tol 5 SE at 1e5 paths), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_3_coupling_and_girsanov(kinetic_model):
    rep = verify_coupling(kinetic_model, 0.0, 1.0, [0.4, 0.8], eps=0.5,
                          n_paths=100000, n_steps=256, seed=101)
    z = abs(rep.girsanov_mean - 1.0) / max(rep.girsanov_stderr, 1e-12)
    ok = rep.terminal_gap <= 1e-8 and z <= 5.0
    _report(3, "coupling terminal gap + Girsanov mean", ok,
            f"terminal gap {rep.terminal_gap:.2e} (tol 1e-8), "
            f"Girsanov mean {rep.girsanov_mean:.4f} "
            f"({z:.2f} SE from 1, tol 5 SE at 1e5 paths)")


def test_criterion_4_gradient_scaling_exponents(kinetic_model):
    gaps = [2.0 ** (-j) for j in range(8, 2, -1)]
    eps = 1e-7   # steep tanh: effectively a bounded sign observable
    t0 = time.perf_counter()
    fit_x = scaling_exponent(kinetic_model, lambda zz: np.tanh(zz[:, 0] / eps),
                             "x", gaps, budget=360000,
                             probes=np.array([[0.0, -0.5], [0.0, 0.0], [0.0, 0.5]]),
                             seed=102)
    fit_y = scaling_exponent(kinetic_model, lambda zz: np.tanh(zz[:, 1] / eps),
                             "y", gaps, budget=360000,
                             probes=np.array([[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]]),
                             seed=103)
    elapsed = time.perf_counter() - t0
    ok = (abs(fit_x.slope + 1.5) <= 0.2 and abs(fit_y.slope + 0.5) <= 0.2
          and elapsed < 300.0)
    _report(4, "gradient scaling exponents", ok,
            f"x-slope {fit_x.slope:+.3f} (target -1.5 +- 0.2), "
            f"y-slope {fit_y.slope:+.3f} (target -0.5 +- 0.2), "
            f"runtime {elapsed:.0f}s (< 300s)")


def test_criterion_5_hs_noise_bound():
    wave, _ = build_example("wave", theta=1.0, d_space=1, n=16, delta=0.4)
    rep = hs_noise_integral(wave, 0.0, 1.0)
    envelope_ok = all(v <= rep.bound_c2 * g ** wave.delta + 1e-15
                      for g, v in zip(rep.gaps, rep.values))
    single = SpectralModel(m=1, d=1, A1=[[-1.0]], A2=[[-1.0]], B=[[1.0]],
                           A0=[[0.0]], sigma=[[1.0]], delta=0.4,
                           eigenvalues=np.array([1.0]))
    closed = hs_noise_integral(single, 0.0, 0.5).value
    closed_err = abs(closed - (1.0 - math.exp(-1.0)) / 2.0)
    ok = envelope_ok and closed_err <= 1e-12
    _report(5, "Hilbert-Schmidt noise bound", ok,
            f"wave envelope holds at all sampled gaps: {envelope_ok}; "
            f"single-mode closed form error {closed_err:.2e} (tol 1e-12)")


def test_criterion_6_picard_fixed_point(kinetic_model, contraction_artifacts):
    lam, field, report, search_time = contraction_artifacts
    t0 = time.perf_counter()

    # constant-drift analytic solution at the criterion grid
    c = 0.7
    grid = GridSpec.cube(2, half_width=4.0, points=65, t_final=1.0, n_time=33)
    bc = build_drift("constant", 1, 1, value=np.array([c]))
    fconst, _ = picard_solve(kinetic_model, bc, lam, grid, tol=1e-10, max_iter=60)
    const_err = 0.0
    for i, s in enumerate(fconst.times):
        exact = c * (1.0 - math.exp(-lam * (1.0 - s))) / lam
        const_err = max(const_err, float(np.max(np.abs(fconst.values[i] - exact))))

    # norm decay along the doubling discount sweep (resolution tracks the
    # lambda^(-1/2) transition layer of the steep bounded drift)
    bsweep = build_drift("tanh_steep", 1, 1, kappa=1e6)
    lambdas = [2.0 ** j for j in range(4, 11)]
    hnorms = []
    for lam_s in lambdas:
        ny = int(round(256 * math.sqrt(lam_s / lambdas[0]))) + 1
        sweep_grid = GridSpec(lo=(-2.0, -2.0), hi=(2.0, 2.0), shape=(9, ny),
                              t_final=1.0, n_time=17)
        _, rep = picard_solve(kinetic_model, bsweep, lam_s, sweep_grid,
                              tol=1e-6, max_iter=40)
        hnorms.append(rep.hnorm)
    slope = float(np.polyfit(np.log(lambdas), np.log(hnorms), 1)[0])
    elapsed = time.perf_counter() - t0 + search_time

    ok = (report.contraction_factor <= 0.5 and const_err <= 1e-8
          and -0.6 <= slope <= -0.4 and elapsed < 120.0)
    _report(6, "Picard fixed point", ok,
            f"contraction factor {report.contraction_factor:.3f} at "
            f"lambda={lam:g} (tol 1/2); constant-drift error {const_err:.2e} "
            f"(tol 1e-8); norm sweep slope {slope:+.3f} (window [-0.6, -0.4]); "
            f"runtime {elapsed:.0f}s (< 120s)")


def test_criterion_7_transform_invertibility(contraction_artifacts):
    _, field, report, _ = contraction_artifacts
    grad_ok = report.sup_grad2 < 1.0
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(25):
        z = rng.uniform(-2.5, 2.5, size=2)
        s = rng.uniform(0.0, 1.0)
        w = theta_forward(field, s, z)
        zz = theta_inverse(field, s, w)
        worst = max(worst, float(np.max(np.abs(zz - z))))
    ok = grad_ok and worst <= 1e-9
    _report(7, "transform invertibility", ok,
            f"sup y-gradient {report.sup_grad2:.3f} (< 1); worst round-trip "
            f"error {worst:.2e} over 25 probes (tol 1e-9)")


def test_criterion_8_galerkin_convergence():
    model, _ = build_example("wave", theta=1.0, d_space=1, n=12, delta=0.4)
    drifts = [lambda t, x, y: np.tanh(x + y) for _ in range(12)]
    grid = GridSpec(lo=(-3.0, -3.0), hi=(3.0, 3.0), shape=(33, 33),
                    t_final=1.0, n_time=17)
    rep = galerkin_compare(model, drifts, lam=64.0, levels=[2, 4, 8],
                           grid2d=grid, seed=105)
    v = rep.value_gaps
    g = rep.grad_gaps
    ok = v[0] > v[1] > v[2] > 0 and g[0] > g[1] > g[2] > 0
    _report(8, "Galerkin gap convergence", ok,
            f"value gaps {v[0]:.3e} > {v[1]:.3e} > {v[2]:.3e}; "
            f"gradient gaps {g[0]:.3e} > {g[1]:.3e} > {g[2]:.3e} "
            f"(strictly decreasing over levels 2, 4, 8)")


def test_criterion_9_representation_identity(kinetic_model):
    T = 1.0
    steps = [2 ** j for j in range(7, 12)]
    n_paths = 32
    noise = make_noise(kinetic_model, T, steps[-1], n_paths, seed=2024,
                       stream=("sde", "noise"))

    def residual_sweep(b, field, lam):
        out = []
        for n in steps:
            cn = coarsen_noise(kinetic_model, noise, steps[-1] // n)
            ens = integrate_ensemble(kinetic_model, b, [0.2, 0.1], T, n, noise=cn)
            out.append(float(np.mean(
                representation_residual(kinetic_model, b, ens, field, lam).max_residual)))
        return out

    lam = 64.0
    c = 0.8
    bc = build_drift("constant", 1, 1, value=np.array([c]))
    u_fn = lambda ts, pts: (c * (1.0 - np.exp(-lam * (T - ts))) / lam)[:, None]
    fconst = FunctionField(u_fn, 1, 1,
                           jac_fn=lambda ts, pts: np.zeros((pts.shape[0], 1, 1)))
    res_const = residual_sweep(bc, fconst, lam)

    br = build_drift("rough_y", 1, 1)
    fine = GridSpec(lo=(-6.0, -6.0), hi=(6.0, 6.0), shape=(3, 2049),
                    t_final=T, n_time=257)
    frough, _ = picard_solve(kinetic_model, br, lam, fine, tol=1e-9, max_iter=60)
    res_rough = residual_sweep(br, frough, lam)

    ratios_c = [res_const[i] / res_const[i + 1] for i in range(len(steps) - 1)]
    ratios_r = [res_rough[i] / res_rough[i + 1] for i in range(len(steps) - 1)]
    ok = all(r >= 1.3 for r in ratios_c) and all(r >= 1.3 for r in ratios_r)
    _report(9, "representation identity residual", ok,
            f"constant-drift ratios {[f'{r:.2f}' for r in ratios_c]}, "
            f"rough-drift ratios {[f'{r:.2f}' for r in ratios_r]} "
            f"(all >= 1.3 per step doubling over 2^7..2^11)")


def test_criterion_10_pathwise_uniqueness_evidence(kinetic_model):
    b = build_drift("rough_d1", 1, 1)
    zero_table = uniqueness_experiment(kinetic_model, b, [0.3, 0.4], 0.0, 1.0,
                                       [256, 512, 1024], seed=107)
    zero_ok = bool(np.all(zero_table.gaps() == 0.0))
    gaps = []
    for p in (1e-2, 1e-3, 1e-4):
        table = uniqueness_experiment(kinetic_model, b, [0.3, 0.4], p, 1.0,
                                      [1024], seed=107)
        gaps.append(table.rows[0].gap_at_T)
    mono_ok = gaps[0] > gaps[1] > gaps[2] > 0.0
    ok = zero_ok and mono_ok
    _report(10, "pathwise-uniqueness evidence", ok,
            f"zero-perturbation gap exactly 0: {zero_ok}; terminal gaps "
            f"{gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e} (monotone in the "
            f"perturbation)")


def test_criterion_11_non_explosion_envelope(kinetic_model):
    b = build_drift("dissipative", 1, 1)
    rep = dissipation_envelope(kinetic_model, b, [0.5, 1.0], T=2.0,
                               n_steps=512, n_paths=1000, seed=108)
    ok = rep.n_blowups == 0 and rep.all_below
    _report(11, "non-explosion envelope", ok,
            f"blow-ups before T: {rep.n_blowups} (must be 0); paths below "
            f"their envelopes: {int(np.sum(rep.margins >= -1e-9))}/1000; "
            f"min margin {rep.margins.min():.3f}")
