import numpy as np
import pytest

from degenflow.model import build_drift, build_example
from degenflow.sde import integrate_ensemble, make_noise


@pytest.fixture(scope="session")
def kinetic():
    model, _ = build_example("kinetic", d=1)
    return model


@pytest.fixture(scope="session")
def wave4():
    model, _ = build_example("wave", theta=1.0, d_space=1, n=4, delta=0.4)
    return model


def assert_within_se(value, expected, stderr, n_se=5.0, floor=1e-12):
    band = max(n_se * stderr, floor)
    assert abs(value - expected) <= band, (
        f"value {value} not within {n_se} standard errors "
        f"({stderr}) of {expected}")


def linear_paths(model, z, n_paths, n_steps, seed):
    """Exact linear-flow paths on [0, 1]: the zero-drift ensemble of one noise
    record on the ("linear_flow", "sample") substream of ``seed``."""
    noise = make_noise(model, 1.0, n_steps, n_paths, seed, stream=("linear_flow", "sample"))
    return integrate_ensemble(model, build_drift("zero", model.m, model.d), z, 1.0, n_steps,
                              noise)
