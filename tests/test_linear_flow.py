"""Exact transition laws, path sampling, semigroup application, HS bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_within_se
from degenflow.errors import CapabilityError
from degenflow.linear_flow import (_step_law, apply_P0, hs_noise_integral, sample_linear,
                                   transition_law, transition_law_quadrature)
from degenflow.model import SpectralModel, build_example


# ---------------------------------------------------------------------------
# Transition laws


def test_kinetic_law_closed_form(kinetic):
    t = 0.7
    law = transition_law(kinetic, 0.0, t, [0.4, -0.2])
    np.testing.assert_allclose(law.mean, [0.4 - 0.2 * t, -0.2], rtol=1e-13)
    expected = np.array([[t ** 3 / 3, t ** 2 / 2], [t ** 2 / 2, t]])
    np.testing.assert_allclose(law.cov, expected, atol=1e-13)


def test_law_cross_checked_by_quadrature(kinetic):
    law = transition_law(kinetic, 0.2, 1.1, [1.0, 2.0])
    ref = transition_law_quadrature(kinetic, 0.2, 1.1, [1.0, 2.0])
    np.testing.assert_allclose(law.cov, ref.cov, atol=1e-10)
    np.testing.assert_allclose(law.mean, ref.mean, atol=1e-12)


def test_zero_noise_law_is_deterministic():
    model, _ = build_example("kinetic", d=1, sigma=np.zeros((1, 1)))
    law = transition_law(model, 0.0, 1.0, [1.0, 2.0])
    np.testing.assert_allclose(law.cov, 0.0, atol=1e-15)
    np.testing.assert_allclose(law.mean, [3.0, 2.0], rtol=1e-14)


def test_wave_law_y_block_is_ou_variance(wave4):
    t = 0.1
    law = transition_law(wave4, 0.0, t, np.zeros(8))
    lam = wave4.eigenvalues
    expected = (1.0 - np.exp(-2.0 * lam * t)) / (2.0 * lam)
    np.testing.assert_allclose(np.diag(law.cov)[4:], expected, rtol=1e-10)
    offdiag = law.cov[4:, 4:] - np.diag(np.diag(law.cov[4:, 4:]))
    np.testing.assert_allclose(offdiag, 0.0, atol=1e-12)


@pytest.mark.parametrize("mode", [1, 4, 7])
def test_step_law_matches_closed_form_on_stiff_wave_modes(mode):
    # 2x2 wave mode of theta = 2, d_space = 2 at h = 1/16: lambda h = 24, 390, 1029
    wave, _ = build_example("wave", theta=2.0, d_space=2, n=8)
    lam, h = float(wave.eigenvalues[mode - 1]), 1.0 / 16.0
    A = np.array([[-lam, 1.0], [0.0, -lam]])
    E, G, J = _step_law(A, np.diag([0.0, 1.0]), h)
    e, a = math.exp(-lam * h), 2.0 * lam
    f = math.exp(-a * h)
    # e^{uA} = e^{-lam u} [[1, u], [0, 1]], so G integrates e^{-a u} [[u^2, u], [u, 1]]
    g11 = (2.0 - f * (2.0 + 2.0 * a * h + (a * h) ** 2)) / a ** 3
    g12 = (1.0 - f * (1.0 + a * h)) / a ** 2
    j11 = -math.expm1(-lam * h) / lam
    closed = {"E": e * np.array([[1.0, h], [0.0, 1.0]]),
              "G": np.array([[g11, g12], [g12, -math.expm1(-a * h) / a]]),
              "J": np.array([[j11, (1.0 - e * (1.0 + lam * h)) / lam ** 2], [0.0, j11]])}
    for name, got in zip("EGJ", (E, G, J)):
        want = closed[name]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max(),
                                   err_msg=name)


def test_domain_error_on_reversed_times(kinetic):
    with pytest.raises(ValueError):
        transition_law(kinetic, 1.0, 1.0, [0.0, 0.0])


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(1e-3, 2.0))
def test_law_symmetric_psd(kinetic, s, gap):
    law = transition_law(kinetic, s, s + gap, [0.3, -1.0])
    law.check()  # raises on asymmetry or negative eigenvalues


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.9))
def test_gaussian_composition_reproduces_law(kinetic, frac):
    s, t = 0.1, 1.4
    r = s + frac * (t - s)
    direct = transition_law(kinetic, s, t, [0.5, 0.7])
    first = transition_law(kinetic, s, r, [0.5, 0.7])
    # propagate the intermediate law through the second window
    second = transition_law(kinetic, r, t, first.mean)
    E2, G2, _ = _step_law(kinetic.block_operator(), kinetic.noise_matrix(), t - r)
    mean = E2 @ first.mean
    cov = E2 @ first.cov @ E2.T + G2
    np.testing.assert_allclose(mean, direct.mean, atol=1e-10)
    np.testing.assert_allclose(cov, direct.cov, atol=1e-8)
    np.testing.assert_allclose(second.mean, direct.mean, atol=1e-10)


# ---------------------------------------------------------------------------
# Sampling


def test_sample_moments_match_law(kinetic):
    n = 20000
    bundle = sample_linear(kinetic, 0.0, 1.0, [0.0, 0.0], n, 8, seed=7)
    law = transition_law(kinetic, 0.0, 1.0, [0.0, 0.0])
    term = np.concatenate([bundle.X[:, -1, :], bundle.Y[:, -1, :]], axis=1)
    for j in range(2):
        se_mean = math.sqrt(law.cov[j, j] / n)
        assert_within_se(term[:, j].mean(), law.mean[j], se_mean)
        se_var = law.cov[j, j] * math.sqrt(2.0 / (n - 1))
        assert_within_se(term[:, j].var(ddof=1), law.cov[j, j], se_var)


def test_increment_covariance_is_h_times_identity(kinetic):
    bundle = sample_linear(kinetic, 0.0, 1.0, [0.0, 0.0], 20000, 4, seed=3)
    h = 0.25
    flat = bundle.dW.reshape(-1, bundle.dW.shape[-1])
    var = flat.var(ddof=1)
    se = h * math.sqrt(2.0 / (flat.size - 1))
    assert_within_se(var, h, se)


def test_zero_noise_paths_equal_deterministic_flow():
    model, _ = build_example("kinetic", d=1, sigma=np.zeros((1, 1)))
    bundle = sample_linear(model, 0.0, 1.0, [1.0, 2.0], 3, 4, seed=0)
    E, _, _ = _step_law(model.block_operator(), model.noise_matrix(), 0.25)
    z = np.array([1.0, 2.0])
    for i in range(4):
        z = E @ z
        np.testing.assert_array_equal(bundle.Z[0, i + 1], z)


def test_fixed_seed_bit_identical(kinetic):
    a = sample_linear(kinetic, 0.0, 1.0, [0.1, 0.2], 50, 16, seed=11)
    b = sample_linear(kinetic, 0.0, 1.0, [0.1, 0.2], 50, 16, seed=11)
    np.testing.assert_array_equal(a.Z, b.Z)
    np.testing.assert_array_equal(a.dW, b.dW)


# ---------------------------------------------------------------------------
# Semigroup application


def test_p0_preserves_constants(kinetic):
    est = apply_P0(kinetic, 0.0, 1.0, lambda z: np.ones(z.shape[0]),
                   [0.3, 0.4], method="gauss_hermite", budget=6)
    assert abs(est.scalar() - 1.0) < 1e-14
    est_mc = apply_P0(kinetic, 0.0, 1.0, lambda z: np.ones(z.shape[0]),
                      [0.3, 0.4], method="monte_carlo", budget=500, seed=1)
    assert abs(est_mc.scalar() - 1.0) < 1e-14


def test_p0_linear_observable_hits_mean(kinetic):
    est = apply_P0(kinetic, 0.0, 1.0, lambda z: z[:, 0], [0.0, 1.0],
                   method="gauss_hermite", budget=8)
    assert abs(est.scalar() - 1.0) < 1e-13


def test_p0_markov_composition(kinetic):
    f = lambda z: np.tanh(z[:, 0]) + 0.3 * z[:, 1] ** 2
    s, r, t = 0.0, 0.4, 1.0
    direct = apply_P0(kinetic, s, t, f, [0.2, -0.1],
                      method="gauss_hermite", budget=14).scalar()

    def inner(pts):
        return np.array([apply_P0(kinetic, r, t, f, p,
                                  method="gauss_hermite", budget=14).scalar()
                         for p in pts])

    nested = apply_P0(kinetic, s, r, inner, [0.2, -0.1],
                      method="gauss_hermite", budget=14).scalar()
    assert abs(direct - nested) < 1e-8


def test_p0_dimension_cap():
    model, _ = build_example("wave", theta=1.0, d_space=1, n=4, delta=0.4)
    with pytest.raises(CapabilityError):
        apply_P0(model, 0.0, 1.0, lambda z: z[:, 0], np.zeros(8),
                 method="gauss_hermite", budget=4)


def test_p0_gauss_hermite_exact_on_polynomials(kinetic):
    # order-4 tensor rule integrates degree <= 7 exactly; check E[X^2 Y^2]
    # against the Gaussian moment formula
    law = transition_law(kinetic, 0.0, 1.0, [0.3, 0.5])
    mx, my = law.mean
    sxx, sxy, syy = law.cov[0, 0], law.cov[0, 1], law.cov[1, 1]
    expected = (mx ** 2 * my ** 2 + mx ** 2 * syy + my ** 2 * sxx
                + sxx * syy + 2.0 * sxy ** 2 + 4.0 * mx * my * sxy)
    est = apply_P0(kinetic, 0.0, 1.0, lambda z: z[:, 0] ** 2 * z[:, 1] ** 2,
                   [0.3, 0.5], method="gauss_hermite", budget=4)
    assert abs(est.scalar() - expected) < 1e-12 * max(1.0, abs(expected))


def test_p0_mc_unbiased_with_stderr(kinetic):
    est = apply_P0(kinetic, 0.0, 1.0, lambda z: z[:, 0], [0.0, 1.0],
                   method="monte_carlo", budget=20000, seed=5)
    assert_within_se(est.scalar(), 1.0, float(est.stderr))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt noise bound


def test_single_mode_closed_form():
    model = SpectralModel(m=1, d=1, A1=[[-1.0]], A2=[[-1.0]], B=[[1.0]],
                          A0=[[0.0]], sigma=[[1.0]], delta=0.4,
                          eigenvalues=np.array([1.0]))
    rep = hs_noise_integral(model, 0.0, 0.5)
    assert abs(rep.value - (1.0 - math.exp(-1.0)) / 2.0) < 1e-12


def test_wave_envelope_holds_at_all_sampled_gaps(wave4):
    rep = hs_noise_integral(wave4, 0.0, 1.0)
    for g, v in zip(rep.gaps, rep.values):
        assert v <= rep.bound_c2 * g ** wave4.delta + 1e-15
    assert rep.value <= rep.bound_c2 * 1.0 ** wave4.delta


def test_exponent_check_brackets_delta(wave4):
    rep = hs_noise_integral(wave4, 0.0, 1.0)
    assert wave4.delta - 0.05 <= rep.exponent_check <= 1.0 + 1e-9


def test_exponent_matches_delta_for_matched_tail():
    # Over the dyadic window 2^-8 .. 2^-3 the theta = 1 mode sum grows with
    # slope ~0.36 (the top gaps sit at lambda_1 h ~ 1, below the asymptotic
    # sqrt regime); delta = 0.35 matches that tail behavior and stays inside
    # the admissible range.
    model, _ = build_example("wave", theta=1.0, d_space=1, n=32, delta=0.35)
    rep = hs_noise_integral(model, 0.0, 1.0)
    assert abs(rep.exponent_check - model.delta) <= 0.05
    assert model.delta <= rep.exponent_check <= 1.0


def test_zero_sigma_gives_zero_value():
    model = SpectralModel(m=1, d=1, A1=[[-1.0]], A2=[[-1.0]], B=[[1.0]],
                          A0=[[0.0]], sigma=[[0.0]], delta=0.4,
                          eigenvalues=np.array([1.0]))
    rep = hs_noise_integral(model, 0.0, 0.5)
    assert rep.value == 0.0


def test_non_spectral_model_rejected(kinetic):
    with pytest.raises(CapabilityError):
        hs_noise_integral(kinetic, 0.0, 0.5)
