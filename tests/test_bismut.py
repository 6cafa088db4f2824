"""Gramian, perturbation controls, derivative estimators, coupling checks.

Closed forms used as oracles (scalar kinetic model, A0 = 0, B = sigma = 1):

    Q_t = t^3/6,            V(0,1) = 3,  Phi(r) = 4 - 6r on [0, 1],
                            V(1,0) = 6,  Phi(r) = 6 - 12r,
    int_0^1 (4-6r)^2 dr = 4,  int_0^1 (6-12r)^2 dr = 12
    (over a gap g: 4/g and 12/g^3).

Gaussian derivatives at z = (x, y), T = 1:
    E[X] = x + y,  E[Y] = y,  E[X^2] = (x+y)^2 + 1/3,
    E[Y^2] = y^2 + 1,  E[XY] = (x+y) y + 1/2.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from conftest import assert_within_se, linear_paths
from degenflow import bismut
from degenflow.bismut import (GRAMIAN_SWEEP, SCALING_STEPS, _JointLaw, _law_moments,
                              _weight_table, bismut_gradient, bismut_hessian, gramian_Q,
                              perturbation_controls, scaling_exponent,
                              transported_direction, verify_coupling)
from degenflow.errors import AccuracyWarning, SingularGramianError
from degenflow.linear_flow import _step_kernels, apply_P0
from degenflow.model import SpectralModel, _expm, build_example


# ---------------------------------------------------------------------------
# Gramian


def test_scalar_gramian_closed_form(kinetic):
    res = gramian_Q(kinetic, 1.0)
    assert abs(res.Q[0, 0] - 1.0 / 6.0) < 1e-12
    assert abs(res.Q_inv[0, 0] - 6.0) < 1e-9
    assert abs(res.bound_check - 6.0) < 6.0 * 1e-9


def test_diagonal_gramian_closed_form():
    model = SpectralModel(m=2, d=2, A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
                          B=np.diag([1.0, 2.0]), A0=np.zeros((2, 2)),
                          sigma=np.eye(2))
    res = gramian_Q(model, 1.0)
    np.testing.assert_allclose(res.Q, np.diag([1.0 / 6.0, 2.0 / 3.0]), atol=1e-12)


def test_singular_gramian_raises():
    model = SpectralModel(m=1, d=1, A1=[[0.0]], A2=[[0.0]], B=[[0.0]],
                          A0=[[0.0]], sigma=[[1.0]])
    with pytest.raises(SingularGramianError):
        gramian_Q(model, 1.0)


def _stiff(a):
    """A0 = [[-a, 3], [0, -a/3]], B = sigma = I: e^{-tA0} overflows near a = 710."""
    return SpectralModel(m=2, d=2, A1=np.zeros((2, 2)), A2=np.zeros((2, 2)), B=np.eye(2),
                         A0=[[-a, 3.0], [0.0, -a / 3.0]], sigma=np.eye(2))


def test_stiff_gramian_overflow_is_a_toolkit_error():
    # at a = 710 the chain overflows in blocks the Gramian does not read
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Q = gramian_Q(_stiff(710.0), 1.0).Q
        perturbation_controls(_stiff(710.0), 0.0, 1.0, [1.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(Q, gramian_Q(_stiff(709.0), 1.0).Q, rtol=5e-3)
    for a in (720.0, 750.0):
        with pytest.raises(SingularGramianError, match="t=1.0"):
            gramian_Q(_stiff(a), 1.0)
        with pytest.raises(SingularGramianError, match="t=1.0"):
            perturbation_controls(_stiff(a), 0.0, 1.0, [1.0, 0.0, 0.0, 1.0])


def _non_normal():
    """m = d = 2 with a non-normal A0 (a Jordan-like shear) and a full B."""
    return SpectralModel(m=2, d=2, A1=[[0.1, 0.0], [0.2, -0.3]],
                         A2=[[-1.0, 0.5], [-0.3, -0.8]], B=[[1.0, 0.5], [0.0, 0.7]],
                         A0=[[-0.5, 3.0], [0.0, -0.2]], sigma=np.eye(2))


def _oracle_model(kind):
    if kind == "non_normal":
        return _non_normal()
    return build_example(kind, d=2)[0]


def _quad_gramian(model, t):
    """Q_t by adaptive quadrature of u (t-u) e^{uA0} B B* e^{uA0*}."""
    BBt = model.B @ model.B.T

    def integrand(u):
        E = _expm(u * model.A0)
        return u * (t - u) * E @ BBt @ E.T

    return integrate.quad_vec(integrand, 0.0, t, epsabs=0.0, epsrel=1e-13)[0]


@pytest.mark.parametrize("kind", ["kinetic", "second_order", "non_normal"])
def test_gramian_matches_quadrature(kind):
    model = _oracle_model(kind)
    for t in (2.0 ** -6, 0.3, 1.0):
        ref = _quad_gramian(model, t)
        got = gramian_Q(model, t)
        np.testing.assert_allclose(got.Q, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    np.testing.assert_array_equal(got.sweep_t, GRAMIAN_SWEEP)
    for tj, ratio in zip(GRAMIAN_SWEEP, got.sweep_ratio):
        ref = _quad_gramian(model, tj)
        assert ratio * tj ** -3 == pytest.approx(
            1.0 / np.linalg.svd(ref, compute_uv=False)[-1], rel=1e-12)


# ---------------------------------------------------------------------------
# Controls


def test_controls_closed_forms(kinetic):
    ctrl = perturbation_controls(kinetic, 0.0, 1.0, [0.0, 1.0])
    assert abs(ctrl.V[0] - 3.0) < 1e-10
    rs = np.array([0.0, 0.25, 0.5, 1.0])
    np.testing.assert_allclose(ctrl.phi(rs)[:, 0], 4.0 - 6.0 * rs, atol=1e-10)

    ctrl2 = perturbation_controls(kinetic, 0.0, 1.0, [1.0, 0.0])
    assert abs(ctrl2.V[0] - 6.0) < 1e-9
    np.testing.assert_allclose(ctrl2.phi(rs)[:, 0], 6.0 - 12.0 * rs, atol=1e-9)


@pytest.mark.parametrize("kind", ["kinetic", "second_order", "non_normal"])
def test_controls_match_quadrature(kind):
    model = _oracle_model(kind)
    v = np.array([0.7, -0.3, 0.4, 1.1])
    for s_, T in ((0.0, 1.0), (0.3, 0.8)):
        def v_integrand(r):
            return (T - r) / (T - s_) * (_expm((r - s_) * model.A0) @ (model.B @ v[2:]))

        rhs = v[:2] + integrate.quad_vec(v_integrand, s_, T, epsabs=0.0, epsrel=1e-13)[0]
        ref = np.linalg.solve(_quad_gramian(model, T - s_), rhs)
        got = perturbation_controls(model, s_, T, v).V
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_zero_direction_gives_zero_controls(kinetic):
    ctrl = perturbation_controls(kinetic, 0.0, 1.0, [0.0, 0.0])
    assert np.all(ctrl.V == 0.0)
    assert np.all(ctrl.phi(np.linspace(0.0, 1.0, 5)) == 0.0)


@pytest.mark.parametrize("kind,v,s,T", [
    ("kinetic", [0.7, -0.3], 0.0, 1.0),
    ("kinetic", [0.0, 1.0], 0.3, 0.8),
    ("second_order", [1.0, 0.5], 0.0, 0.5),   # exercises nonzero A0
])
def test_terminal_coincidence(kind, v, s, T):
    model, _ = build_example(kind, d=1)
    ctrl = perturbation_controls(model, s, T, v)
    assert ctrl.terminal_gap() <= 1e-8


def test_terminal_coincidence_wave_two_modes():
    model, _ = build_example("wave", theta=1.0, d_space=1, n=2, delta=0.4)
    ctrl = perturbation_controls(model, 0.0, 0.5, [0.3, -0.2, 0.1, 0.4])
    assert ctrl.terminal_gap() <= 1e-8


@pytest.mark.parametrize("model,v", [
    (build_example("kinetic", d=1)[0], [0.7, -0.3]),
    (build_example("second_order", d=2)[0], [0.7, -0.3, 0.4, 1.1]),   # nonzero A0
    (build_example("wave", theta=1.0, d_space=1, n=2, delta=0.4)[0],
     [0.3, -0.2, 0.1, 0.4]),
])
def test_coupled_difference_matches_quadrature(model, v):
    for s, T in ((0.0, 1.0), (0.3, 0.8)):
        ctrl = perturbation_controls(model, s, T, v)
        BBt = model.B @ model.B.T

        def x_integrand(r):
            E = _expm((r - s) * model.A0)
            return E @ ((T - r) / (T - s) * (model.B @ ctrl.v2)
                        - (r - s) * (T - r) * (BBt @ (E.T @ ctrl.V)))

        for t in np.linspace(s, T, 6)[1:-1]:
            dY = _expm((t - s) * model.A2) @ ctrl.v2 - integrate.quad_vec(
                lambda r: _expm((t - r) * model.A2) @ ctrl.phi(float(r)),
                s, t, epsabs=1e-14, epsrel=1e-13)[0]
            inner = integrate.quad_vec(x_integrand, s, t, epsabs=1e-14, epsrel=1e-13)[0]
            dX = _expm((t - s) * model.A1) @ (ctrl.v1 + inner)
            got_X, got_Y = ctrl.coupled_difference(t)
            np.testing.assert_allclose(got_X, dX, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_Y, dY, rtol=0, atol=1e-12)


def test_midinterval_difference_matches_closed_form(kinetic):
    # (2.6)-type check: dY(t) per unit eps = (1-t) v2 - t(1-t) V for A2 = 0
    ctrl = perturbation_controls(kinetic, 0.0, 1.0, [0.0, 1.0])
    t = 0.4
    _, dY = ctrl.coupled_difference(t)
    expected = (1.0 - t) * 1.0 - t * (1.0 - t) * ctrl.V[0]
    assert abs(dY[0] - expected) < 1e-9


# ---------------------------------------------------------------------------
# Variance envelope


@pytest.mark.parametrize("kind,v,energy", [
    ("kinetic", [0.0, 1.0], lambda g: 4.0 / g),
    ("kinetic", [1.0, 0.0], lambda g: 12.0 / g ** 3),
    ("wave", [0.2, 0.1, 0.3, -0.4], None)], ids=["kinetic-y", "kinetic-x", "wave"])
def test_weight_energy_within_variance_envelope(kind, v, energy, kinetic):
    # int_0^g |h|^2 dr, the variance of the weight, by a 64-node
    # Gauss-Legendre rule (exact for the kinetic model's quadratic |h|^2),
    # against the envelope |v1|^2 / g^3 + |v2|^2 / g over dyadic gaps
    model = (kinetic if kind == "kinetic" else
             build_example("wave", theta=1.0, d_space=1, n=2, delta=0.4)[0])
    nodes, weights = np.polynomial.legendre.leggauss(64)
    v = np.asarray(v)
    v1, v2 = v[: model.m], v[model.m:]
    gaps = 2.0 ** -np.arange(7.0)
    ratios = []
    for g in gaps:
        ctrl = perturbation_controls(model, 0.0, g, v)
        h = ctrl.weight_vector(0.5 * g * (nodes + 1.0))
        val = 0.5 * g * float(weights @ np.sum(h ** 2, axis=-1))
        if energy is not None:
            assert val == pytest.approx(energy(g), rel=1e-8)
        ratios.append(val / (v1 @ v1 / g ** 3 + v2 @ v2 / g))
    assert np.all(np.isfinite(ratios))
    # bounded sweep: no growth trend toward small gaps
    assert ratios[-1] <= 2.0 * max(ratios)


# ---------------------------------------------------------------------------
# Gradient estimator


def test_gradient_matches_analytic_mean_derivative(kinetic):
    est = bismut_gradient(kinetic, 0.0, 1.0, lambda z: z[:, 0], [0.0, 0.0],
                          [0.0, 1.0], n_paths=30000, n_steps=256, seed=3)
    assert_within_se(est.value, 1.0, est.stderr)


def test_gradient_of_y_in_x_direction_vanishes(kinetic):
    est = bismut_gradient(kinetic, 0.0, 1.0, lambda z: z[:, 1], [0.0, 0.0],
                          [1.0, 0.0], n_paths=30000, n_steps=256, seed=4)
    assert_within_se(est.value, 0.0, est.stderr)


def test_gradient_of_constant_vanishes(kinetic):
    est = bismut_gradient(kinetic, 0.0, 1.0,
                          lambda z: np.full(z.shape[0], 3.3), [0.5, 0.5],
                          [0.0, 1.0], n_paths=20000, n_steps=128, seed=5)
    assert_within_se(est.value, 0.0, est.stderr)


def test_weight_linearity_power_of_two_exact(kinetic):
    f = lambda z: np.tanh(z[:, 0])
    a = bismut_gradient(kinetic, 0.0, 1.0, f, [0.1, 0.2], [0.0, 1.0],
                        n_paths=2000, n_steps=64, seed=9)
    b = bismut_gradient(kinetic, 0.0, 1.0, f, [0.1, 0.2], [0.0, 2.0],
                        n_paths=2000, n_steps=64, seed=9)
    # doubling v scales every weight by exactly 2 (power-of-two arithmetic)
    assert b.value == 2.0 * a.value


def test_finite_difference_oracle(kinetic):
    f = lambda z: np.tanh(z[:, 0]) + 0.2 * np.cos(z[:, 1])
    z0 = np.array([0.3, -0.1])
    v = np.array([0.0, 1.0])
    eps = 1e-3
    up = float(apply_P0(kinetic, 0.0, 1.0, f, z0 + eps * v, 20))
    dn = float(apply_P0(kinetic, 0.0, 1.0, f, z0 - eps * v, 20))
    fd = (up - dn) / (2.0 * eps)
    est = bismut_gradient(kinetic, 0.0, 1.0, f, z0, v, n_paths=100000,
                          n_steps=256, seed=6)
    tol = max(5.0 * est.stderr, 1e-2 * abs(est.value))
    assert abs(est.value - fd) <= tol


def test_joint_moments_closed_forms(kinetic):
    # Kinetic flow on [0, 1] split into two windows with their own weights:
    # Cov(Y_T, S) = h sum h_i, Cov(X_T, S) = sum h_i int_{r_i}^{r_i+1} (T-r) dr,
    # Var S = h sum h_i^2, and (X_T, Y_T) ~ N((x+y, y), [[1/3, 1/2], [1/2, 1]]).
    windows = []
    for (a, b), v in (((0.0, 0.5), [0.0, 1.0]), ((0.5, 1.0), [1.0, -0.5])):
        times = np.linspace(a, b, 33)
        windows.append((times, _weight_table(perturbation_controls(kinetic, a, b, v), times)))
    _, P, C, var = _law_moments(kinetic, windows)
    mean = _JointLaw.of(kinetic, windows).mean([0.3, -0.2])
    np.testing.assert_allclose(mean, [0.1, -0.2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(P, [[1.0 / 3.0, 0.5], [0.5, 1.0]], rtol=0, atol=1e-12)
    for j, (times, hvec) in enumerate(windows):
        hi, h = hvec[:, 0], times[1] - times[0]
        ramp = ((1.0 - times[:-1]) ** 2 - (1.0 - times[1:]) ** 2) / 2.0
        np.testing.assert_allclose(C[:, j], [hi @ ramp, h * hi.sum()], rtol=0, atol=1e-12)
        assert abs(var[j] - h * float(hi @ hi)) <= 1e-12


def _stepwise_moments(model, z, windows):
    """The moment recursion one step kernel at a time."""
    mean = np.asarray(z, dtype=float)
    P = np.zeros((model.dim, model.dim))
    C = np.zeros((model.dim, len(windows)))
    for j, (times, hvec) in enumerate(windows):
        kers = [ker for ker, n in _step_kernels(model, times[0], times[-1], times.size - 1)
                for _ in range(n)]
        for ker, hi in zip(kers, hvec):
            mean = ker.E @ mean
            P = ker.E @ P @ ker.E.T + ker.G
            C = ker.E @ C
            C[:, j] += ker.h * (ker.Kmat @ hi)
    return mean, P, C


@pytest.mark.parametrize("kind", ["kinetic", "sigma_in_time"])
@pytest.mark.parametrize("n_windows", [1, 2])
def test_joint_moments_match_stepwise_loop(kind, n_windows, kinetic):
    model = kinetic if kind == "kinetic" else _sigma_in_time()
    z, v = [0.3, -0.7], [0.6, 0.8]
    edges = np.linspace(0.2, 1.0, n_windows + 1)
    windows = []
    for a, b in zip(edges[:-1], edges[1:]):
        times = np.linspace(a, b, 1 + 96 // n_windows)
        windows.append((times, _weight_table(perturbation_controls(model, a, b, v), times)))
    _, P, C, _ = _law_moments(model, windows)
    mean = _JointLaw.of(model, windows).mean(z)
    for got, ref in zip((mean, P, C), _stepwise_moments(model, z, windows)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


def test_joint_draw_continuous_in_the_moments(monkeypatch):
    # second_order with d = 2 has two identical decoupled modes, so every
    # eigenvalue of Cov(Z_T) is repeated: an eigenvector factor of it jumps
    # under roundoff, a Cholesky factor moves by roundoff.
    model, _ = build_example("second_order", d=2)
    times = np.linspace(0.0, 1.0, 65)
    windows = [(times, _weight_table(perturbation_controls(model, 0.0, 1.0, [1.0, 0.0, 0.5, 0.0]),
                                     times))]
    flows, P, C, var = _law_moments(model, windows)
    dP = 1e-16 * np.array([[0.0, 1.0, -1.0, 0.5], [1.0, 2.0, 0.0, 1.0],
                           [-1.0, 0.0, 0.0, -1.0], [0.5, 1.0, -1.0, 1.0]])
    draws = []
    for cov in (P, P + dP):
        monkeypatch.setattr(bismut, "_law_moments", lambda *a, cov=cov: (flows, cov, C, var))
        draws.append(_JointLaw.of(model, windows).draw([0.1, 0.2, -0.3, 0.4],
                                                        np.random.default_rng(5), 200))
    for a, b in zip(*draws):
        assert np.max(np.abs(a - b)) <= 1e-12


def _sigma_in_time():
    return SpectralModel(m=1, d=1, A1=[[0.0]], A2=[[-0.5]], B=[[1.0]], A0=[[-0.5]],
                         sigma=lambda t: [[1.0 + 0.5 * t]])


def _pathwise(model, f, z, windows, n_paths, n_steps, seed):
    """Path-stepping oracle: f(Z_T) times the product of the Ito sums
    sum <h(r_i), dW_i>, one per (ctrl, first step, last step) window, all on
    the paths and increments of the zero-drift ensemble over [0, 1]."""
    bundle = linear_paths(model, z, n_paths, n_steps, seed)
    prod = np.asarray(f(bundle.Z[:, -1]), dtype=float)
    for ctrl, i0, i1 in windows:
        hvec = ctrl.weight_vector(bundle.times[i0:i1])
        prod = prod * np.einsum("pik,ik->p", bundle.dW[:, i0:i1], hvec)
    return prod.mean(), prod.std(ddof=1) / math.sqrt(n_paths)


@pytest.mark.parametrize("kind", ["kinetic", "sigma_in_time"])
def test_terminal_law_matches_path_stepping(kind, kinetic):
    model = kinetic if kind == "kinetic" else _sigma_in_time()
    z, v, vt = [0.2, -0.4], [0.6, 0.8], [1.0, -0.3]
    f = lambda zz: np.tanh(zz[:, 0]) + 0.5 * zz[:, 1] ** 2
    n, N = 40000, 64

    est = bismut_gradient(model, 0.0, 1.0, f, z, v, n_paths=n, n_steps=N, seed=21)
    ref, ref_se = _pathwise(model, f, z, [(perturbation_controls(model, 0.0, 1.0, v), 0, N)],
                            n, N, seed=22)
    assert_within_se(est.value, ref, math.hypot(est.stderr, ref_se))

    est = bismut_hessian(model, 0.0, 1.0, f, z, v, vt, n_paths=n, n_steps=N, seed=23)
    half = N // 2
    v_mid = transported_direction(model, 0.0, 0.5, v)
    ref, ref_se = _pathwise(model, f, z,
                            [(perturbation_controls(model, 0.0, 0.5, vt), 0, half),
                             (perturbation_controls(model, 0.5, 1.0, v_mid), half, N)],
                            n, N, seed=24)
    assert_within_se(est.value, ref, math.hypot(est.stderr, ref_se))


# ---------------------------------------------------------------------------
# Hessian estimator


def test_hessian_of_linear_observable_vanishes(kinetic):
    est = bismut_hessian(kinetic, 0.0, 1.0, lambda z: z[:, 0] + 2.0 * z[:, 1],
                         [0.0, 0.0], [0.0, 1.0], [0.0, 1.0],
                         n_paths=40000, n_steps=128, seed=7)
    assert_within_se(est.value, 0.0, est.stderr)


def test_hessian_yy_of_y_squared(kinetic):
    est = bismut_hessian(kinetic, 0.0, 1.0, lambda z: z[:, 1] ** 2,
                         [0.0, 0.0], [0.0, 1.0], [0.0, 1.0],
                         n_paths=100000, n_steps=256, seed=8)
    assert_within_se(est.value, 2.0, est.stderr)


def test_hessian_xx_of_x_squared(kinetic):
    est = bismut_hessian(kinetic, 0.0, 1.0, lambda z: z[:, 0] ** 2,
                         [0.0, 0.0], [1.0, 0.0], [1.0, 0.0],
                         n_paths=100000, n_steps=256, seed=8)
    assert_within_se(est.value, 2.0, est.stderr)


def test_transported_direction_closed_form(kinetic):
    # e^{tA} (v1, v2) = (v1 + t v2, v2) for the kinetic block
    vt = transported_direction(kinetic, 0.0, 0.5, [1.0, 2.0])
    np.testing.assert_allclose(vt, [2.0, 2.0], rtol=1e-14)


# ---------------------------------------------------------------------------
# Coupling / Girsanov


def test_coupling_terminal_gap_and_girsanov(kinetic):
    rep = verify_coupling(kinetic, 0.0, 1.0, [0.4, 0.8], 0.5,
                          n_paths=100000, n_steps=128, seed=10)
    assert rep.terminal_gap <= 1e-8
    assert_within_se(rep.girsanov_mean, 1.0, rep.girsanov_stderr)


@pytest.mark.parametrize("budget", [dict(n_paths=1), dict(n_paths=0), dict(n_steps=0)])
@pytest.mark.parametrize("estimator", ["gradient", "hessian", "coupling"])
def test_estimators_reject_too_few_paths_or_steps(kinetic, estimator, budget):
    f = lambda z: z[:, 0]
    run = {"gradient": lambda **kw: bismut_gradient(kinetic, 0.0, 1.0, f, [0.0, 0.0],
                                                    [0.0, 1.0], **kw),
           "hessian": lambda **kw: bismut_hessian(kinetic, 0.0, 1.0, f, [0.0, 0.0],
                                                  [1.0, 0.0], [0.0, 1.0], **kw),
           "coupling": lambda **kw: verify_coupling(kinetic, 0.0, 1.0, [0.0, 1.0], 0.5,
                                                    **kw)}[estimator]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need n_paths >= 2 and n_steps >= 1"):
            run(**(dict(n_paths=8, n_steps=4, seed=1) | budget))


def test_girsanov_at_zero_eps_exact(kinetic):
    rep = verify_coupling(kinetic, 0.0, 1.0, [0.0, 1.0], 0.0,
                          n_paths=10, n_steps=16, seed=1)
    assert rep.girsanov_mean == 1.0
    assert rep.girsanov_stderr == 0.0


# ---------------------------------------------------------------------------
# Scaling diagnostics


def test_scaling_slope_flat_for_lipschitz_observable(kinetic):
    # alpha = 1 regime: gradient uniformly bounded, slope ~ 0
    gaps = [2.0 ** (-j) for j in range(7, 2, -1)]
    fit = scaling_exponent(kinetic, lambda z: np.tanh(z[:, 0]), "x", gaps,
                           budget=120000, probes=np.array([[0.0, 0.0]]), seed=2)
    assert abs(fit.slope) <= 0.15


def test_scaling_low_budget_warns(kinetic):
    gaps = [2.0 ** (-j) for j in range(6, 2, -1)]
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        fit = scaling_exponent(kinetic, lambda z: np.tanh(z[:, 0]), "x", gaps,
                               budget=300, probes=np.array([[0.0, 0.0]]), seed=2)
    assert fit.low_budget
    assert any(issubclass(w.category, AccuracyWarning) for w in captured)


@pytest.mark.parametrize("kind", ["kinetic", "sigma_in_time"])
def test_scaling_points_equal_gradient_estimates(kind, kinetic):
    # every probe of a gap draws from that gap's one law, on the substream
    # bismut_gradient would use for it, so each point is its estimate exactly
    model = kinetic if kind == "kinetic" else _sigma_in_time()
    f = lambda z: np.tanh(z[:, 0] / 0.1)
    gaps = [2.0 ** (-j) for j in range(5, 1, -1)]
    probes = np.array([[0.0, -0.5], [0.2, 0.0], [0.0, 0.5]])
    v = [1.0, 0.0]
    n, N = 150, SCALING_STEPS
    fit = scaling_exponent(model, f, "x", gaps, budget=n * len(gaps) * len(probes),
                           probes=probes, seed=4)
    assert fit.n_per_point == n
    for gi, g in enumerate(gaps):
        ests = [bismut_gradient(model, 0.0, g, f, zp, v, n_paths=n, n_steps=N, seed=4,
                                stream=("bismut", "scaling", f"{gi}", f"{pi}")).value
                for pi, zp in enumerate(probes)]
        assert fit.values[gi] == max(abs(e) for e in ests)
