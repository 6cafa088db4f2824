"""Resolvent, Picard fixed point, state transform, Galerkin comparisons."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from scipy import sparse
from scipy.interpolate import RegularGridInterpolator

from degenflow.errors import (BoundaryExtrapolationWarning, CapabilityError,
                              IterationError, LambdaTooSmallError, NotInvertibleError)
from degenflow.linear_flow import _gauss_hermite_nodes, _step_law, psd_sqrt
from degenflow.model import DriftSpec, Modulus, SpectralModel, build_drift, build_example
from degenflow.regularization import (_GH_ORDER, _N_LOCAL, FieldGrid, FunctionField,
                                      GridSpec, _mode_submodel, _multilinear_coo,
                                      _PicardEngine, field_grad2, field_grad_full,
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
    from degenflow.regularization import _integrand_table
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
    laws = {u: _step_law(A, N, u)[:2] for u in (*us, h)}

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


def _engine_cases():
    """(model, grid) by name: kinetic, one wave mode, and a dim-3 model (m = 1,
    d = 2) with A1 != 0, a non-diagonal A2 and a non-diagonal sigma."""
    wave, _ = build_example("wave", theta=1.0, d_space=1, n=4, delta=0.4)
    dim3 = SpectralModel(m=1, d=2, A1=[[-0.3]], A2=[[-1.0, 0.4], [0.2, -0.5]],
                         B=[[1.0, 0.5]], A0=[[0.0]], sigma=[[1.0, 0.3], [0.0, 0.8]],
                         delta=0.5, name="dim3")
    return {
        "kinetic": (build_example("kinetic", d=1)[0],
                    GridSpec(lo=(-2.0, -3.0), hi=(2.0, 3.0), shape=(5, 7), t_final=1.0,
                             n_time=5)),
        "wave_mode": (_mode_submodel(wave, 0),
                      GridSpec(lo=(-2.0, -3.0), hi=(2.0, 3.0), shape=(6, 5), t_final=0.25,
                               n_time=5)),
        "dim3": (dim3, GridSpec(lo=(-1.5, -2.0, -2.5), hi=(1.5, 2.0, 2.5), shape=(3, 4, 5),
                                t_final=0.5, n_time=5)),
    }


_ENGINE_CASES = _engine_cases()


@pytest.mark.parametrize("n_axes", [2, 3, 4])
def test_multilinear_coo_broadcast_matches_columns(n_axes):
    rng = np.random.default_rng(n_axes)
    axes = [np.sort(rng.uniform(-2.0, 2.0, 3 + a)) for a in range(n_axes)]
    # axis a varies along array axis a only: coordinates of shape
    # (1, .., k_a, .., 1) broadcast to the full tensor of points
    counts = [4 + a for a in range(n_axes)]
    coords = []
    for a, (ax, k) in enumerate(zip(axes, counts)):
        c = rng.uniform(ax[0] - 1.0, ax[-1] + 1.0, k)   # some outside the box
        c[:2] = rng.choice(ax, 2)                         # some exactly on nodes
        c[-1] = ax[-1]
        coords.append(c.reshape([k if b == a else 1 for b in range(n_axes)]))
    idx, wts = _multilinear_coo(axes, coords)
    assert idx.shape == wts.shape == tuple(counts) + (1 << n_axes,)
    assert idx.dtype == np.int32
    cols = [np.broadcast_to(c, tuple(counts)).ravel() for c in coords]
    idx_flat, wts_flat = _multilinear_coo(axes, cols)
    assert np.array_equal(idx.reshape(idx_flat.shape), idx_flat)
    assert np.array_equal(wts.reshape(wts_flat.shape), wts_flat)
    # the flat call itself is the clamped multilinear interpolant
    values = rng.standard_normal([a.size for a in axes])
    pts = np.clip(np.stack(cols, axis=-1), [a[0] for a in axes], [a[-1] for a in axes])
    ref = RegularGridInterpolator(axes, values)(pts)
    got = np.sum(wts_flat * values.ravel()[idx_flat], axis=-1)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("model,grid", _ENGINE_CASES.values(), ids=_ENGINE_CASES.keys())
def test_engine_operators_equal_full_width_assembly(model, grid):
    """step, L0 and L1 equal, bit for bit, operators assembled from E z + shifts
    at every node and Gauss-Hermite point with E exactly as the step law gives it."""
    lam = 8.0
    engine = _PicardEngine(model, lam, grid)
    A, N = model.block_operator(), model.noise_matrix(0.0)
    gh_pts, gh_wts = _gauss_hermite_nodes(model.dim, _GH_ORDER)
    mesh, n, h = grid.mesh(), engine.n_pts, engine.delta

    def expectation(u):
        E, G, _ = _step_law(A, N, float(u))
        # the premise of sharing the y-coordinates: e^{uA} is block upper triangular
        assert np.all(E[model.m:, : model.m] == 0.0)
        shifts = math.sqrt(2.0) * gh_pts @ psd_sqrt(G).T
        pts = ((mesh @ E.T)[:, None, :] + shifts[None, :, :]).reshape(-1, model.dim)
        idx, wts = _multilinear_coo(grid.axes(), [pts[:, a] for a in range(model.dim)])
        wts = wts.reshape(n, gh_wts.size, -1) * gh_wts[None, :, None]
        row_len = wts[0].size
        S = sparse.csr_matrix((wts.ravel(), idx.ravel(),
                               np.arange(0, n * row_len + 1, row_len)), shape=(n, n))
        S.sum_duplicates()
        return S

    x, w = np.polynomial.legendre.leggauss(_N_LOCAL)
    xi_lo = math.exp(-lam * h)
    us = -np.log(0.5 * (1.0 - xi_lo) * (x + 1.0) + xi_lo) / lam
    ws = 0.5 * (1.0 - xi_lo) * w / lam
    refs = {"step": math.exp(-lam * h) * expectation(h),
            "L0": sparse.csr_matrix((n, n)), "L1": sparse.csr_matrix((n, n))}
    for u, wq in zip(us, ws):
        S = expectation(u)
        refs["L0"] = refs["L0"] + (wq * (1.0 - u / h)) * S
        refs["L1"] = refs["L1"] + (wq * (u / h)) * S
    for name, ref in refs.items():
        got = getattr(engine, name)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(ref, part)), (name, part)


@pytest.mark.parametrize("model,grid", _ENGINE_CASES.values(), ids=_ENGINE_CASES.keys())
def test_engine_operators_match_pointwise_gauss_hermite(model, grid):
    """step, L0 and L1 applied to random g against a direct Gauss-Hermite sum,
    node by node, of the clamped multilinear interpolant at E z + shifts."""
    lam = 8.0
    engine = _PicardEngine(model, lam, grid)
    A, N = model.block_operator(), model.noise_matrix(0.0)
    gh_pts, gh_wts = _gauss_hermite_nodes(model.dim, _GH_ORDER)
    axes, mesh = grid.axes(), grid.mesh()
    h = grid.t_final / (grid.n_time - 1)
    g = np.random.default_rng(7).standard_normal(engine.n_pts)
    interp = RegularGridInterpolator(axes, g.reshape(grid.shape))

    def expect(u):
        E, G, _ = _step_law(A, N, float(u))
        shifts = math.sqrt(2.0) * gh_pts @ psd_sqrt(G).T
        return np.array([gh_wts @ interp(np.clip(E @ z + shifts, grid.lo, grid.hi))
                         for z in mesh])

    x, w = np.polynomial.legendre.leggauss(_N_LOCAL)
    xi_lo = math.exp(-lam * h)
    us = -np.log(0.5 * (1.0 - xi_lo) * (x + 1.0) + xi_lo) / lam
    ws = 0.5 * (1.0 - xi_lo) * w / lam
    local = [expect(u) for u in us]
    refs = {"step": math.exp(-lam * h) * expect(h),
            "L0": sum(wq * (1.0 - u / h) * e for u, wq, e in zip(us, ws, local)),
            "L1": sum(wq * u / h * e for u, wq, e in zip(us, ws, local))}
    for name, ref in refs.items():
        np.testing.assert_allclose(getattr(engine, name) @ g, ref, rtol=0, atol=1e-14,
                                   err_msg=name)


def test_picard_residual_is_the_sup_of_the_step_norm():
    # d = 2: the residual of iteration k is max over nodes and times of |u_k - u_{k-1}|
    model, grid = _ENGINE_CASES["dim3"]
    b = build_drift("dissipative", model.m, model.d)
    iterates = [np.zeros(1)]
    for k in (1, 2, 3):
        field, report = picard_solve(model, b, 8.0, grid, max_iter=k)
        iterates.append(field.values)
        step = np.linalg.norm(iterates[k] - iterates[k - 1], axis=-1).max()
        assert report.residuals[k - 1] == pytest.approx(step, rel=1e-15, abs=0.0)


def test_engine_rejects_an_overflowing_step_law(kinetic):
    # A1 = 12000: e^{hA} is about e^{750} at h = 1/16, beyond float range
    explosive = dataclasses.replace(kinetic, A1=[[12000.0]])
    grid = GridSpec(lo=(-3.0, -3.0), hi=(3.0, 3.0), shape=(9, 9), t_final=1.0, n_time=17)
    with pytest.raises(CapabilityError, match=r"h=0\.0625 .*lambda=64.*unbounded"):
        _PicardEngine(explosive, 64.0, grid)


def test_picard_stops_on_a_non_finite_residual(kinetic, grid33):
    b = DriftSpec(fn=lambda t, x, y: np.where(y > 3.0, np.nan, 0.1), m=1, d=1,
                  alpha=0.75, phi=Modulus.power(1.0, 0.5), K=1.0, bound=None, name="nan")
    with pytest.raises(IterationError, match="not finite at lambda=16.* iteration 1"):
        picard_solve(kinetic, b, 16.0, grid33)


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


def _curved_field():
    """m = 1, d = 2 field with curvature in every coordinate and in time, on
    [-2, 2]^3 with spacing 1/2 (dyadic, so z +- h and the spans are exact)."""
    times = np.linspace(0.0, 1.0, 3)
    axes = (np.linspace(-2.0, 2.0, 9),) * 3
    x, y1, y2 = np.meshgrid(*axes, indexing="ij")
    u = np.stack([y1 ** 2 + x * y2, np.sin(y1 * y2) + x ** 2], axis=-1)
    vals = (1.0 + times)[:, None, None, None, None] * u[None]
    return FieldGrid(times=times, axes=axes, values=vals, m=1, d=2)


def test_difference_stencil_shared_by_every_jacobian():
    field = _curved_field()
    h = 0.5
    s = 0.375
    pts = np.array([[0.25, -0.75, 1.25], [-1.0, 0.5, -1.5],       # interior
                    [0.5, 1.75, 0.25], [-0.25, -1.75, 0.75],      # near y1 edges
                    [1.5, 0.25, 1.625], [0.0, -0.5, -1.875]])     # near y2 edges
    with pytest.warns(BoundaryExtrapolationWarning) as rec:
        J = field.jacobian_y_many(np.full(len(pts), s), pts)
    # one warning per y-axis that needs a one-sided stencil
    assert sorted(str(w.message).split(" (")[0] for w in rec) == [
        "one-sided stencil at axis 1", "one-sided stencil at axis 2"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryExtrapolationWarning)
        for z, Jz in zip(pts, J):
            np.testing.assert_array_equal(field_grad2(field, s, z), Jz)
            np.testing.assert_array_equal(field_grad_full(field, s, z)[:, 1:], Jz)
    for z, Jz in zip(pts, J):
        for j, ax in enumerate((1, 2)):
            zp, zm = z.copy(), z.copy()
            if z[ax] + h > 2.0:          # one-sided backward at the upper edge
                zp[ax], zm[ax], span = z[ax], z[ax] - h, h
            elif z[ax] - h < -2.0:       # one-sided forward at the lower edge
                zp[ax], zm[ax], span = z[ax] + h, z[ax], h
            else:
                zp[ax], zm[ax], span = z[ax] + h, z[ax] - h, 2.0 * h
            expected = (field.interp(s, zp) - field.interp(s, zm))[0] / span
            np.testing.assert_array_equal(Jz[:, j], expected)
    # interior points need no one-sided stencil and warn nowhere
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(field.jacobian_y_many(np.full(2, s), pts[:2]),
                                      J[:2])


def test_function_field_jacobian_is_central_difference_at_fd_step():
    from degenflow.regularization import _FD_STEP
    fn = lambda ts, pts: np.stack([np.sin(pts[:, 1]) * pts[:, 2] + ts,
                                   pts[:, 0] * np.cos(pts[:, 2])], axis=-1)
    ff = FunctionField(fn, 1, 2)
    ts = np.array([0.2, 0.7])
    # the box is unbounded, so even far-out points take central stencils
    pts = np.array([[0.3, 1.0, -0.5], [2.0, -1e3, 4e3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = ff.jacobian_y_many(ts, pts)
    for j, ax in enumerate((1, 2)):
        e = np.zeros(3)
        e[ax] = _FD_STEP
        span = (pts + e)[:, ax] - (pts - e)[:, ax]
        np.testing.assert_allclose(span, 2.0 * _FD_STEP, rtol=1e-6)
        expected = (fn(ts, pts + e) - fn(ts, pts - e)) / span[:, None]
        np.testing.assert_array_equal(J[:, :, j], expected)
    np.testing.assert_allclose(J[0], [[math.cos(1.0) * -0.5, math.sin(1.0)],
                                      [0.0, -0.3 * math.sin(-0.5)]], atol=1e-8)


@pytest.mark.parametrize("lo,hi", [((2.0, 2.0), (-2.0, -2.0)), ((1.0, -1.0), (1.0, 1.0)),
                                   ((-1.0, -math.inf), (1.0, 1.0)),
                                   ((-1.0, math.nan), (1.0, 1.0))])
def test_grid_spec_rejects_improper_box(lo, hi):
    with pytest.raises(ValueError, match="lo < hi"):
        GridSpec(lo=lo, hi=hi, shape=(5, 5), t_final=1.0, n_time=3)


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
    # the batched pairs give each pair's pointwise ratio
    from degenflow.model import dini_integral
    r = np.geomspace(1e-6, 0.999, 40)
    tail = np.array([dini_integral(b.phi, max(float(v) ** model.delta, 1e-12)) for v in r])
    for (z, zp), ratio in zip(pairs, ratios):
        num = np.linalg.norm(field_grad2(field, 0.25, z) - field_grad2(field, 0.25, zp), 2)
        env = np.min(r + np.linalg.norm(z - zp) * (1.0 + tail))
        assert ratio == pytest.approx(num / env, rel=1e-12)
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
