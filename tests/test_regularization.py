"""Resolvent, Picard fixed point, state transform, Galerkin comparisons."""

import math
import warnings

import numpy as np
import pytest

from degenflow.errors import (BoundaryExtrapolationWarning, CapabilityError,
                              LambdaTooSmallError, NotInvertibleError)
from degenflow.model import Modulus, build_drift, build_example
from degenflow.regularization import (FieldGrid, FunctionField, GridSpec,
                                      field_grad2, field_grad_full,
                                      find_contraction_lambda, galerkin_compare,
                                      holder_envelope_ratio, picard_solve,
                                      resolvent_apply, theta_forward, theta_inverse)


@pytest.fixture(scope="module")
def grid33():
    return GridSpec.cube(2, half_width=4.0, points=33, t_final=1.0, n_time=17)


@pytest.fixture(scope="module")
def rough_solution(grid33):
    model, _ = build_example("kinetic", d=1)
    b = build_drift("rough_d1", 1, 1)
    lam, field, report = find_contraction_lambda(model, b, grid33, lam0=16.0,
                                                 tol=1e-7, max_iter=40)
    return model, b, lam, field, report


# ---------------------------------------------------------------------------
# Resolvent


def test_resolvent_constant_closed_form(kinetic):
    lam, s, T, c = 8.0, 0.25, 1.0, 2.5
    res = resolvent_apply(kinetic, lam, lambda r, pts: np.full(pts.shape[0], c),
                          s, [0.1, 0.2], t_final=T)
    expected = c * (1.0 - math.exp(-lam * (T - s))) / lam
    assert abs(float(res.value) - expected) < 1e-9
    assert res.converged


def test_resolvent_zero_lambda(kinetic):
    res = resolvent_apply(kinetic, 0.0, lambda r, pts: np.full(pts.shape[0], 2.5),
                          0.25, [0.1, 0.2], t_final=1.0)
    assert abs(float(res.value) - 2.5 * 0.75) < 1e-10


def test_resolvent_decays_like_inverse_lambda(kinetic):
    f = lambda r, pts: np.tanh(pts[:, 1])
    vals = []
    for lam in (16.0, 64.0, 256.0, 1024.0):
        res = resolvent_apply(kinetic, lam, f, 0.0, [0.0, 1.0], t_final=1.0)
        vals.append(abs(float(res.value)) * lam)
    # lam * value approaches the integrand at the left endpoint: bounded ratio
    assert max(vals) / min(vals) < 1.2


def test_resolvent_budget_flag(kinetic):
    res = resolvent_apply(kinetic, 4.0, lambda r, pts: np.tanh(pts[:, 0]),
                          0.0, [0.5, 0.5], t_final=1.0, budget=16)
    assert not res.converged
    assert res.achieved_tol > 0.0


# ---------------------------------------------------------------------------
# Picard fixed point


def test_zero_drift_converges_first_iteration(kinetic, grid33):
    b = build_drift("zero", 1, 1)
    field, report = picard_solve(kinetic, b, 64.0, grid33)
    assert report.iterations == 1
    assert report.converged
    assert field.sup_value() == 0.0


def test_constant_drift_analytic_solution(kinetic, grid33):
    lam, c = 64.0, 0.7
    b = build_drift("constant", 1, 1, value=np.array([c]))
    field, report = picard_solve(kinetic, b, lam, grid33)
    worst = 0.0
    for i, s in enumerate(field.times):
        exact = c * (1.0 - math.exp(-lam * (1.0 - s))) / lam
        worst = max(worst, float(np.max(np.abs(field.values[i] - exact))))
    assert worst < 1e-8
    assert report.converged


def test_fixed_point_residual_below_tolerance(rough_solution):
    model, b, lam, field, report = rough_solution
    assert report.converged
    assert report.residuals[-1] < report.tol


def test_returned_field_is_a_fixed_point(rough_solution):
    # direct check of ||u - Gamma(u)|| on the grid, one extra application
    from degenflow.regularization import _PicardEngine, _integrand_table
    model, b, lam, field, report = rough_solution
    engine = _PicardEngine(model, lam, GridSpec(
        lo=tuple(field.lo), hi=tuple(field.hi),
        shape=tuple(a.size for a in field.axes),
        t_final=float(field.times[-1]), n_time=field.times.size))
    u_flat = field.values.reshape(field.times.size, -1, model.d)
    x, y = engine.mesh[:, : model.m], engine.mesh[:, model.m:]
    bvals = np.stack([np.asarray(b(float(t), x, y), dtype=float)
                      for t in engine.times])
    g = _integrand_table(engine, model, bvals, u_flat)
    gamma_u = engine.apply(g)
    resid = float(np.max(np.linalg.norm(gamma_u - u_flat, axis=-1)))
    assert resid <= report.tol


def test_contraction_factor_at_found_lambda(rough_solution):
    _, _, lam, _, report = rough_solution
    assert report.contraction_factor <= 0.5
    assert lam >= 16.0


def test_lambda_too_small_raises(kinetic, grid33):
    b = build_drift("tanh_steep", 1, 1, kappa=4.0, amp=8.0)
    with pytest.raises(LambdaTooSmallError):
        picard_solve(kinetic, b, 0.05, grid33, max_iter=30)


def test_dimension_cap():
    model, b = build_example("wave", theta=1.0, d_space=1, n=2, delta=0.4,
                             drift="zero")
    grid = GridSpec.cube(4, half_width=2.0, points=5, t_final=1.0, n_time=5)
    with pytest.raises(CapabilityError):
        picard_solve(model, b, 32.0, grid)


def test_hnorm_sweep_slope_in_window(kinetic):
    b = build_drift("tanh_steep", 1, 1, kappa=1e6)
    lams = [2.0 ** j for j in range(4, 9)]
    hnorms = []
    grads = []
    for lam in lams:
        # y-resolution tracks the lambda^(-1/2) transition layer so the
        # measured gradient sup is resolution-consistent across the sweep
        ny = int(round(256 * math.sqrt(lam / lams[0]))) + 1
        grid = GridSpec(lo=(-2.0, -2.0), hi=(2.0, 2.0), shape=(7, ny),
                        t_final=1.0, n_time=17)
        _, rep = picard_solve(kinetic, b, lam, grid, tol=1e-6, max_iter=40)
        hnorms.append(rep.hnorm)
        grads.append(rep.sup_grad2)
    slope = float(np.polyfit(np.log(lams), np.log(hnorms), 1)[0])
    assert -0.6 <= slope <= -0.4
    # theta(lambda)-monotonicity: the gradient sup is nonincreasing
    assert np.all(np.diff(grads) <= 1e-12)


# ---------------------------------------------------------------------------
# Interpolation kernel against scipy's RegularGridInterpolator


def _rgi_reference(field, times_q, pts):
    """Clamp, multilinear in space per time node, linear in time."""
    from scipy.interpolate import RegularGridInterpolator
    pts = np.clip(pts, field.lo, field.hi)
    ts = field.times
    out = np.empty((pts.shape[0], field.d))
    for n, (s, z) in enumerate(zip(times_q, pts)):
        s = min(max(float(s), ts[0]), ts[-1])
        i = min(max(int(np.searchsorted(ts, s, side="right")) - 1, 0), ts.size - 2)
        w = (s - ts[i]) / (ts[i + 1] - ts[i])
        v0, v1 = (RegularGridInterpolator(field.axes, field.values[k])(z[None])[0]
                  for k in (i, i + 1))
        out[n] = (1.0 - w) * v0 + w * v1
    return out


def test_interp_matches_regular_grid_interpolator():
    rng = np.random.default_rng(11)
    axes = (np.linspace(-2.0, 2.0, 6), np.linspace(-1.0, 3.0, 9))
    times = np.linspace(0.0, 1.0, 5)
    field = FieldGrid(times=times, axes=axes, m=1, d=2,
                      values=rng.standard_normal((5, 6, 9, 2)))
    # a third of the points and some times fall outside the box and are clamped
    pts = rng.uniform(-3.0, 4.0, size=(60, 2))
    times_q = rng.uniform(-0.2, 1.2, size=60)
    times_q[:4] = times[:4]
    np.testing.assert_allclose(field.interp_many(times_q, pts),
                               _rgi_reference(field, times_q, pts), rtol=0, atol=1e-13)
    for s in (0.0, 0.37, 1.0, 1.5):
        np.testing.assert_allclose(field.interp(s, pts),
                                   _rgi_reference(field, np.full(60, s), pts),
                                   rtol=0, atol=1e-13)


def test_picard_apply_matches_per_node_gauss_hermite(kinetic):
    from scipy.interpolate import RegularGridInterpolator
    from degenflow.linear_flow import _gauss_hermite_nodes, _van_loan, psd_sqrt
    from degenflow.regularization import _GH_ORDER, _N_LOCAL, _PicardEngine
    lam = 8.0
    grid = GridSpec(lo=(-2.0, -3.0), hi=(2.0, 3.0), shape=(5, 7), t_final=1.0, n_time=5)
    engine = _PicardEngine(kinetic, lam, grid)
    g = np.random.default_rng(5).standard_normal((5, engine.n_pts, 1))
    got = engine.apply(g)

    A, N = kinetic.block_operator(), kinetic.noise_matrix(0.0)
    gh_pts, gh_wts = _gauss_hermite_nodes(2, _GH_ORDER)
    axes, mesh, h = grid.axes(), grid.mesh(), 0.25

    x, w = np.polynomial.legendre.leggauss(_N_LOCAL)
    xi_lo = math.exp(-lam * h)
    us = -np.log(0.5 * (1.0 - xi_lo) * (x + 1.0) + xi_lo) / lam
    ws = 0.5 * (1.0 - xi_lo) * w / lam
    laws = {u: _van_loan(A, N, u) for u in (*us, h)}

    def expect(interp, u, z):
        E, G = laws[u]
        pts = np.clip(E @ z + math.sqrt(2.0) * gh_pts @ psd_sqrt(G).T, grid.lo, grid.hi)
        return float(gh_wts @ interp(pts))

    ref = np.zeros_like(g)
    for i in range(3, -1, -1):
        g0, g1, w1 = (RegularGridInterpolator(axes, v.reshape(5, 7))
                      for v in (g[i], g[i + 1], ref[i + 1]))
        for p, z in enumerate(mesh):
            local = sum(wq * ((1.0 - u / h) * expect(g0, u, z) + u / h * expect(g1, u, z))
                        for u, wq in zip(us, ws))
            ref[i, p] = local + math.exp(-lam * h) * expect(w1, h, z)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Field gradients


def _linear_field(m=1, d=1, slope=0.4, const=0.1):
    times = np.linspace(0.0, 1.0, 3)
    axes = (np.linspace(-2.0, 2.0, 9), np.linspace(-2.0, 2.0, 9))
    xs, ys = np.meshgrid(*axes, indexing="ij")
    vals = (slope * ys + const)[None, :, :, None] * np.ones((3, 1, 1, 1))
    return FieldGrid(times=times, axes=axes, values=vals, m=m, d=d)


def test_grad2_exact_on_linear_field():
    field = _linear_field(slope=0.4)
    J = field_grad2(field, 0.5, [0.3, -0.7])
    assert abs(J[0, 0] - 0.4) < 1e-12


def test_grad2_zero_on_constant_field():
    field = _linear_field(slope=0.0, const=1.3)
    J = field_grad2(field, 0.2, [0.1, 0.1])
    assert abs(J[0, 0]) < 1e-13


def test_grad2_boundary_warning():
    field = _linear_field()
    with pytest.warns(BoundaryExtrapolationWarning):
        field_grad2(field, 0.5, [0.0, 1.95])


def test_full_gradient_shape(rough_solution):
    _, _, _, field, _ = rough_solution
    J = field_grad_full(field, 0.3, [0.5, -0.5])
    assert J.shape == (1, 2)


# ---------------------------------------------------------------------------
# Transform


def test_theta_identity_for_zero_field(kinetic, grid33):
    b = build_drift("zero", 1, 1)
    field, _ = picard_solve(kinetic, b, 32.0, grid33)
    z = np.array([0.7, -0.4])
    np.testing.assert_array_equal(theta_forward(field, 0.2, z), z)
    np.testing.assert_array_equal(theta_inverse(field, 0.2, z), z)


def test_theta_constant_field_shifts(kinetic, grid33):
    c = 0.7
    b = build_drift("constant", 1, 1, value=np.array([c]))
    field, _ = picard_solve(kinetic, b, 64.0, grid33)
    z = np.array([0.5, 0.5])
    w = theta_forward(field, 0.0, z)
    assert abs(w[1] - (z[1] + field.interp(0.0, z)[0, 0])) < 1e-14
    zz = theta_inverse(field, 0.0, w)
    np.testing.assert_allclose(zz, z, atol=1e-10)


def test_theta_round_trip(rough_solution):
    _, _, _, field, report = rough_solution
    assert report.sup_grad2 < 1.0
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.uniform(-2.0, 2.0, size=2)
        s = rng.uniform(0.0, 1.0)
        w = theta_forward(field, s, z)
        zz = theta_inverse(field, s, w)
        assert float(np.max(np.abs(zz - z))) <= 1e-9


def test_theta_not_invertible_raises():
    # artificial field u = -1.5 y has y-gradient magnitude 1.5 >= 1
    times = np.linspace(0.0, 1.0, 3)
    axes = (np.linspace(-2.0, 2.0, 9), np.linspace(-2.0, 2.0, 9))
    xs, ys = np.meshgrid(*axes, indexing="ij")
    vals = (-1.5 * ys)[None, :, :, None] * np.ones((3, 1, 1, 1))
    field = FieldGrid(times=times, axes=axes, values=vals, m=1, d=1)
    with pytest.raises(NotInvertibleError):
        theta_inverse(field, 0.5, [0.0, 0.3])


# ---------------------------------------------------------------------------
# Galerkin comparison


@pytest.fixture(scope="module")
def wave6_drifts():
    model, _ = build_example("wave", theta=1.0, d_space=1, n=6, delta=0.4)
    drifts = [lambda t, x, y: np.tanh(x + y) for _ in range(6)]
    grid = GridSpec(lo=(-3.0, -3.0), hi=(3.0, 3.0), shape=(25, 25),
                    t_final=1.0, n_time=13)
    return model, drifts, grid


def test_galerkin_gaps_zero_for_low_mode_drift(wave6_drifts):
    model, _, grid = wave6_drifts
    zero = lambda t, x, y: np.zeros_like(y)
    live = lambda t, x, y: np.tanh(x + y)
    drifts = [live, live, zero, zero, zero, zero]
    rep = galerkin_compare(model, drifts, lam=64.0, levels=[2, 4], grid2d=grid,
                           seed=0)
    assert rep.value_gaps[0] <= 1e-10
    assert rep.grad_gaps[0] <= 1e-10


def test_galerkin_gaps_decrease_with_level(wave6_drifts):
    model, drifts, grid = wave6_drifts
    rep = galerkin_compare(model, drifts, lam=64.0, levels=[1, 2, 4], grid2d=grid,
                           seed=0)
    assert rep.value_gaps[0] > rep.value_gaps[1] > rep.value_gaps[2] > 0
    assert rep.grad_gaps[0] > rep.grad_gaps[1] > rep.grad_gaps[2] > 0


def test_galerkin_gaps_shrink_with_lambda(wave6_drifts):
    model, drifts, grid = wave6_drifts
    rep1 = galerkin_compare(model, drifts, lam=32.0, levels=[2], grid2d=grid,
                            seed=0)
    rep2 = galerkin_compare(model, drifts, lam=64.0, levels=[2], grid2d=grid,
                            seed=0)
    assert rep2.value_gaps[0] < rep1.value_gaps[0]


# ---------------------------------------------------------------------------
# Holder envelope diagnostic


def test_holder_envelope_ratio_bounded(rough_solution):
    model, b, lam, field, _ = rough_solution
    rng = np.random.default_rng(3)
    pairs = []
    for scale in (1e-1, 1e-2, 1e-3):
        for _ in range(5):
            z = rng.uniform(-1.5, 1.5, size=2)
            dz = rng.standard_normal(2)
            dz *= scale / np.linalg.norm(dz)
            pairs.append((z, z + dz))
    ratios = holder_envelope_ratio(field, b.phi, model.delta, pairs, s=0.25)
    assert np.all(np.isfinite(ratios))
    # envelope check: no blow-up trend as the pair separation shrinks
    assert np.max(ratios) <= 10.0 * max(np.median(ratios), 1e-12)


# ---------------------------------------------------------------------------
# FunctionField adapter


def test_function_field_matches_callable():
    fn = lambda ts, pts: np.stack([np.sin(pts[:, 1]) + ts], axis=-1)
    ff = FunctionField(fn, 1, 1)
    out = ff.interp_many(np.array([0.2, 0.4]), np.array([[0.0, 1.0], [0.0, 2.0]]))
    np.testing.assert_allclose(out[:, 0], [math.sin(1.0) + 0.2,
                                           math.sin(2.0) + 0.4], rtol=1e-12)
    J = ff.jacobian_y_many(np.array([0.2]), np.array([[0.0, 1.0]]))
    assert abs(J[0, 0, 0] - math.cos(1.0)) < 1e-6
