"""Moduli classification, hypothesis validation, and drift regularity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenflow.errors import HypothesisViolationError, InvalidModulusError
from degenflow.model import (Modulus, build_drift, build_example, classify_modulus,
                             dini_integral, phi_squared_midpoint_concave,
                             validate_drift_regularity, validate_hypotheses)


# ---------------------------------------------------------------------------
# Moduli


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["power", "log_power", "log_sqrt"]),
       st.floats(0.2, 4.0), st.floats(0.1, 0.9))
def test_builtin_moduli_monotone_and_vanish_at_zero(family, K, alpha):
    if family == "power":
        phi = Modulus.power(K, alpha)
    elif family == "log_power":
        phi = Modulus.log_power(K, c=120.0, r=1.0 + alpha)
    else:
        phi = Modulus.log_sqrt(K, c=120.0)
    grid = np.geomspace(1e-9, 1.0, 80)
    vals = phi(grid)
    assert float(phi(np.array(0.0))) == 0.0
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) >= -1e-14)


def test_classify_sqrt_modulus_in_d1_with_known_integral():
    # integral of s^(a-1) over [q, 1] is (1 - q^a)/a; a = 1/2 gives ~2
    phi = Modulus.power(1.0, 0.5)
    report = classify_modulus(phi, quad_floor=1e-6)
    assert report.in_D0 and report.in_D1 and report.in_D2
    expected = 2.0 * (1.0 - math.sqrt(1e-6))
    assert abs(report.dini_integral_value - expected) < 1e-9
    assert not report.heuristic


def test_classify_log_power_in_d1():
    report = classify_modulus(Modulus.log_power(1.0, c=200.0, r=1.0), quad_floor=1e-6)
    assert report.in_D1
    assert report.in_D2  # finite Dini tail forces the divergence condition
    assert report.dini_finite


def test_classify_log_sqrt_in_d2_not_d1():
    report = classify_modulus(Modulus.log_sqrt(1.0, c=200.0), quad_floor=1e-6)
    assert report.in_D2
    assert not report.in_D1
    assert report.dini_finite is False


def test_classify_custom_table_heuristic_flag():
    phi = Modulus.custom(lambda s: np.sqrt(np.asarray(s, dtype=float)), K=1.0)
    report = classify_modulus(phi, quad_floor=1e-6)
    assert report.heuristic
    assert report.in_D1


def test_classification_monotone_in_truncation():
    phi = Modulus.log_power(1.0, c=150.0, r=0.5)
    floors = [1e-3, 1e-4, 1e-5, 1e-6]
    vals = [classify_modulus(phi, quad_floor=q).dini_integral_value for q in floors]
    assert np.all(np.diff(vals) >= 0)


def test_non_monotone_modulus_rejected():
    phi = Modulus.custom(lambda s: np.sin(6.0 * np.asarray(s, dtype=float)) + 1e-3, K=1.0)
    with pytest.raises(InvalidModulusError):
        classify_modulus(phi, quad_floor=1e-6)


def test_phi_squared_concavity_split():
    assert phi_squared_midpoint_concave(Modulus.power(1.0, 0.5))
    assert not phi_squared_midpoint_concave(Modulus.power(1.0, 0.9))


# ---------------------------------------------------------------------------
# Hypothesis validation


def test_kinetic_model_passes_all(kinetic):
    report = validate_hypotheses(kinetic)
    assert report.all_passed, [c.label for c in report.failed()]


def test_degenerate_b_fails_h2(kinetic):
    from degenflow.model import SpectralModel
    bad = SpectralModel(m=1, d=1, A1=[[0.0]], A2=[[0.0]], B=[[0.0]],
                        A0=[[0.0]], sigma=[[1.0]])
    report = validate_hypotheses(bad)
    assert not report["H2"].passed


def test_wave_model_passes(wave4):
    report = validate_hypotheses(wave4)
    assert report.all_passed, [c.label for c in report.failed()]


def test_spectral_family_intertwining_residual_tiny(wave4):
    report = validate_hypotheses(wave4)
    assert report["H2-intertwine"].measured <= 1e-12


def test_second_order_reformulation_passes():
    model, drift = build_example("second_order", d=2)
    report = validate_hypotheses(model)
    assert report.all_passed, [c.label for c in report.failed()]
    # intertwining must be exact for the A0 = -(I + A) witness
    assert report["H2-intertwine"].measured <= 1e-12


def test_wave_eigenvalues_closed_form():
    model, _ = build_example("wave", theta=1.0, d_space=1, n=4, delta=0.4)
    expected = np.array([1.0, 4.0, 9.0, 16.0]) * math.pi ** 2
    np.testing.assert_allclose(model.eigenvalues, expected, rtol=1e-14)


def test_wave_eigenvalues_in_many_dimensions():
    # d_space = 15: the least sum is 15, then one index at 2 in 15 ways
    model, _ = build_example("wave", theta=8.0, d_space=15, n=12)
    expected = (np.array([15.0] + [18.0] * 11) * math.pi ** 2) ** 8.0
    np.testing.assert_array_equal(model.eigenvalues, expected)
    # d_space = 2, 3: the same bits as the n least entries of the index mesh
    for d_space, theta, n in ((2, 1.5, 12), (2, 2.0, 40), (3, 2.0, 12), (3, 2.5, 30)):
        side = int(math.ceil((2 * n) ** (1.0 / d_space))) + 2
        grids = np.meshgrid(*([np.arange(1, side + 1)] * d_space), indexing="ij")
        mesh = sum(g.astype(float) ** 2 for g in grids) * math.pi ** 2
        model, _ = build_example("wave", theta=theta, d_space=d_space, n=n)
        np.testing.assert_array_equal(model.eigenvalues,
                                      np.sort(mesh.ravel())[:n] ** theta)


def test_wave_theta_too_small_raises_h3():
    with pytest.raises(HypothesisViolationError) as err:
        build_example("wave", theta=0.4, d_space=1, n=4)
    assert "H3" in str(err.value)


def test_wave_delta_out_of_range_raises_h3():
    with pytest.raises(HypothesisViolationError):
        build_example("wave", theta=1.0, d_space=1, n=4, delta=0.6)


def test_builders_reject_parameters_they_do_not_read():
    for kind, params, bad in (("wave", {"theta": 1.0, "thta": 3.0}, "thta"),
                              ("wave", {"theta": 1.0, "n_modes": 4}, "n_modes"),
                              ("kinetic", {"d": 1, "n": 4}, "n"),
                              ("second_order", {"d": 2, "theta": 1.0}, "theta")):
        with pytest.raises(ValueError, match=bad):
            build_example(kind, **params)
    with pytest.raises(ValueError, match="kapa"):
        build_example("kinetic", d=1, drift="tanh_steep", drift_params={"kapa": 4.0})
    for tag, kw in (("rough_y", {"kappa": 4.0}), ("constant", {"vaule": 1.0}),
                    ("zero", {"value": 1.0})):
        with pytest.raises(ValueError, match=next(iter(kw))):
            build_drift(tag, 1, 1, **kw)
    b = build_drift("tanh_steep", 1, 1, kappa=4.0, amp=2.0)
    assert b.bound == 2.0 and b.name == "tanh_steep(kappa=4.0)"


# ---------------------------------------------------------------------------
# Drift regularity


def test_constant_drift_has_no_violation():
    b = build_drift("constant", 1, 1, value=np.array([2.0]))
    v = validate_drift_regularity(b, ball_radius=2.0, n_samples=2000, seed=1)
    assert v <= 0.0


def test_sine_drift_holder_consistent():
    from degenflow.model import DriftSpec
    b = DriftSpec(fn=lambda t, x, y: np.sin(x), m=1, d=1, alpha=0.75,
                  phi=Modulus.power(1.0, 0.5), K=1.0, bound=1.0)
    # |sin x - sin x'| <= |x - x'| <= |x - x'|^0.75 inside the unit ball
    v = validate_drift_regularity(b, ball_radius=1.0, n_samples=4000, seed=2)
    assert v <= 1e-12


def test_quarter_root_drift_violates_sqrt_modulus():
    from degenflow.model import DriftSpec
    b = DriftSpec(fn=lambda t, x, y: np.abs(y) ** 0.25, m=1, d=1, alpha=0.75,
                  phi=Modulus.power(1.0, 0.5), K=1.0, bound=None)
    # s^(1/4) - s^(1/2) peaks at 0.25 near s = 1/16; a small ball concentrates
    # the sampled pairs where the violation lives
    v = validate_drift_regularity(b, ball_radius=0.5, n_samples=8192, seed=3)
    assert v > 0.05


def test_violation_monotone_under_sample_doubling():
    from degenflow.model import DriftSpec
    b = DriftSpec(fn=lambda t, x, y: np.abs(y) ** 0.25, m=1, d=1, alpha=0.75,
                  phi=Modulus.power(1.0, 0.5), K=1.0, bound=None)
    small = validate_drift_regularity(b, 1.0, 1000, seed=4)
    big = validate_drift_regularity(b, 1.0, 2000, seed=4)
    assert big >= small


def test_declared_rough_drift_consistent_with_declaration():
    b = build_drift("rough_d1", 1, 1)
    v = validate_drift_regularity(b, ball_radius=2.0, n_samples=4000, seed=5)
    assert v <= 1e-10


def test_expm_on_a_stack_matches_each_matrix():
    from scipy.linalg import expm
    from degenflow.model import _expm
    rng = np.random.default_rng(3)
    full = rng.normal(size=(5, 3, 3))
    diag = np.stack([np.diag(rng.normal(size=3)) for _ in range(5)])
    for stack in (full, diag):
        np.testing.assert_allclose(_expm(stack), np.stack([expm(M) for M in stack]),
                                   rtol=1e-13, atol=1e-14)
    # the diagonal fast path keeps off-diagonal entries exactly zero
    out = _expm(diag)
    assert not np.any(out[:, ~np.eye(3, dtype=bool)])
