"""Exact Gaussian law and step draws for the degenerate linear flow.

The linear system on R^m x R^d,

    dX = (A1 X + B Y) dt
    dY = (A2 Y) dt + sigma_t dW_t,

has block generator AA = [[A1, B], [0, A2]].  Over a gap h the state is
Gaussian with mean e^{h AA} z and covariance

    G(h) = int_0^h e^{u AA} N e^{u AA*} du,   N = diag(0, sigma sigma*),

computed by Van Loan's augmented-block exponential at a step small enough
for it and doubled by squaring up to h (``_step_law``, one route for every
A, stiff or not), and cross-checkable by direct quadrature.  A step
kernel draws the raw Brownian increments dW per step and the exact
within-step noise convolution conditionally on them, so the increments
remain available for stochastic-integral weights and common-noise reuse.
Whole runs of steps are drawn at once, one generator call per block of
steps.

Paths of the linear flow are not sampled here: they are the zero-drift
ensembles of ``sde.integrate_ensemble`` driven by a record of these draws
(``sde.make_noise``), whose exponential-Euler step is exact for b = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .errors import CapabilityError
from .model import SpectralModel, _expm

__all__ = [
    "GaussianLaw",
    "HSNoiseReport",
    "StepKernel",
    "step_kernel",
    "transition_law",
    "transition_law_quadrature",
    "apply_P0",
    "hs_noise_integral",
    "psd_sqrt",
]

# normals per generator call of a multi-step draw (512 KiB of float64)
_BLOCK_NORMALS = 1 << 16


def psd_sqrt(S: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = S for symmetric PSD S (eigenvalues clipped at 0).

    Raises if an eigenvalue falls below -1e-8 times the matrix scale, which
    would indicate genuinely indefinite input rather than roundoff.
    """
    S = np.asarray(S, dtype=float)
    S = (S + S.T) / 2.0
    w, U = np.linalg.eigh(S)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    if w.size and float(w.min()) < -1e-8 * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return U * np.sqrt(w)


def _block_expm(diag: Sequence[np.ndarray], upper: Sequence[np.ndarray],
                t: float) -> np.ndarray:
    """expm(t M) for the block upper-bidiagonal M with diagonal blocks diag
    and superdiagonal blocks upper (upper[i] couples diag[i] to diag[i+1]).

    Van Loan's construction: block (i, j) of the exponential is the nested
    integral of the chain diag[i], upper[i], ..., diag[j], so one call yields
    convolutions of matrix exponentials with polynomial weights exactly.
    """
    edges = np.cumsum([0] + [D.shape[0] for D in diag])
    M = np.zeros((edges[-1], edges[-1]))
    for i, D in enumerate(diag):
        M[edges[i]:edges[i + 1], edges[i]:edges[i + 1]] = D
    for i, U in enumerate(upper):
        M[edges[i]:edges[i + 1], edges[i + 1]:edges[i + 2]] = U
    return expm(M * t)


def _step_law(A: np.ndarray, N: np.ndarray, h: float):
    """(E, G, J) = (e^{hA}, int_0^h e^{uA} N e^{uA^T} du, int_0^h e^{uA} du).

    Van Loan's two augmented exponentials are taken at tau = h / 2^s, the
    least s >= 0 with ||A||_1 tau <= 1/2, and s doublings (G <- G + E G E^T,
    J <- J + E J, E <- E E) carry them to h.  The block e^{-tau A^T} stays
    bounded at tau and every doubled term is bounded by the law at h, so a
    stiff A does not overflow; with s = 0 this is one pair of exponentials.
    """
    n = A.shape[0]
    s, tau, norm = 0, h, float(np.linalg.norm(A, 1))
    while norm * tau > 0.5:
        s, tau = s + 1, tau / 2.0
    V = _block_expm([A, -A.T], [N], tau)
    E = V[:n, :n]
    G = V[:n, n:] @ E.T
    J = _block_expm([A, np.zeros((n, n))], [np.eye(n)], tau)[:n, n:]
    for _ in range(s):
        G = G + E @ G @ E.T
        J = J + E @ J
        E = E @ E
    return E, (G + G.T) / 2.0, J


# ---------------------------------------------------------------------------
# Laws


@dataclass(frozen=True)
class GaussianLaw:
    """Mean vector and covariance matrix of the linear flow at a time pair."""

    mean: np.ndarray
    cov: np.ndarray

    def check(self) -> None:
        """Raise unless the covariance is symmetric to 1e-12 and its least
        eigenvalue is above -1e-10, both relative to its scale."""
        scale = max(1.0, float(np.max(np.abs(self.cov))))
        asym = float(np.max(np.abs(self.cov - self.cov.T)))
        if asym > 1e-12 * scale:
            raise ValueError(f"covariance asymmetry {asym:.3e}")
        w = np.linalg.eigvalsh((self.cov + self.cov.T) / 2.0)
        if w.size and float(w.min()) < -1e-10 * scale:
            raise ValueError(f"covariance not PSD: min eigenvalue {w.min():.3e}")

    def factor(self) -> np.ndarray:
        return psd_sqrt(self.cov)


def transition_law(model: SpectralModel, s: float, t: float, z) -> GaussianLaw:
    """Exact Gaussian law of the linear flow started at z at time s.

    Constant sigma uses a single step law over t - s; a time-dependent sigma
    evaluator is sampled at the midpoints of 64 panels and the per-panel laws
    are composed.  ``transition_law_quadrature`` is the independent check.
    """
    if t <= s:
        raise ValueError("t must exceed s")
    z = np.asarray(z, dtype=float).reshape(model.dim)
    A = model.block_operator()
    if model.sigma_constant:
        E, G, _ = _step_law(A, model.noise_matrix(s), t - s)
    else:
        E = np.eye(model.dim)
        G = np.zeros((model.dim, model.dim))
        edges = np.linspace(s, t, 64 + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            Ek, Gk, _ = _step_law(A, model.noise_matrix((a + b) / 2.0), b - a)
            E = Ek @ E
            G = Ek @ G @ Ek.T + Gk
        G = (G + G.T) / 2.0
    return GaussianLaw(mean=E @ z, cov=G)


def transition_law_quadrature(model: SpectralModel, s: float, t: float, z) -> GaussianLaw:
    """Independent covariance route: 200-node Gauss-Legendre quadrature of
    e^{(t-r)A} N_r e^{(t-r)A^T} plus the matrix-exponential mean."""
    if t <= s:
        raise ValueError("t must exceed s")
    z = np.asarray(z, dtype=float).reshape(model.dim)
    A = model.block_operator()
    nodes, weights = np.polynomial.legendre.leggauss(200)
    r = 0.5 * (t - s) * (nodes + 1.0) + s
    w = 0.5 * (t - s) * weights
    G = np.zeros((model.dim, model.dim))
    for ri, wi in zip(r, w):
        Ei = _expm(A * (t - ri))
        G += wi * Ei @ model.noise_matrix(ri) @ Ei.T
    E = _expm(A * (t - s))
    return GaussianLaw(mean=E @ z, cov=(G + G.T) / 2.0)


# ---------------------------------------------------------------------------
# Step kernels and exact step draws


@dataclass(frozen=True)
class StepKernel:
    """Exact one-step map of the linear flow over a gap h.

    z' = E z + eta, with eta ~ N(0, G) the within-step noise convolution.
    eta is sampled jointly with the raw Brownian increment dW ~ N(0, h I):
    eta | dW ~ N(K dW, S), S = G - C C^T / h, C = J inj sigma with J the
    integrated exponential of the step law.
    """

    h: float
    E: np.ndarray
    G: np.ndarray
    Kmat: np.ndarray
    L: np.ndarray

    @property
    def k(self) -> int:
        return self.Kmat.shape[1]

    def draw(self, rng: np.random.Generator, n_paths: int, n_steps: int):
        """Step-major (dW, eta) of n_steps steps with the exact joint law,
        shaped (n_steps, n_paths, k) and (n_steps, n_paths, m+d).

        Each step takes n_paths (k + m + d) normals, the increments first and
        the independent part after, so one n-step draw is the same stream and
        the same bits as n one-step draws.  The normals come from one
        generator call per block of whole steps holding at most
        ``_BLOCK_NORMALS`` of them (one step if a step holds more), and each
        block is written into the returned arrays, so the scratch stays one
        block.  eta is the stacked product, one matrix product per step: BLAS
        computes a one-row product by another kernel than a many-row one, so
        flattening the steps into one product would change the last bits.
        """
        k, dim = self.k, self.E.shape[0]
        width = n_paths * (k + dim)
        block = max(1, _BLOCK_NORMALS // width)
        dW = np.empty((n_steps, n_paths, k))
        eta = np.empty((n_steps, n_paths, dim))
        root = math.sqrt(self.h)
        for a in range(0, n_steps, block):
            n = min(block, n_steps - a)
            g = rng.standard_normal((n, width))
            dw = np.multiply(root, g[:, : n_paths * k].reshape(n, n_paths, k), out=dW[a:a + n])
            np.matmul(dw, self.Kmat.T, out=eta[a:a + n])
            eta[a:a + n] += g[:, n_paths * k:].reshape(n, n_paths, dim) @ self.L.T
        return dW, eta


def step_kernel(model: SpectralModel, s: float, h: float) -> StepKernel:
    """Build the exact step kernel for [s, s+h]; sigma sampled at s."""
    if h <= 0:
        raise ValueError("step must be positive")
    E, G, J = _step_law(model.block_operator(), model.noise_matrix(s), h)
    C = J @ model.injection() @ model.sigma_at(s)
    Kmat = C / h
    L = psd_sqrt(G - C @ C.T / h)
    return StepKernel(h=h, E=E, G=G, Kmat=Kmat, L=L)


def _step_kernels(model: SpectralModel, s: float, t: float, n_steps: int):
    """Runs (kernel, n) covering the uniform grid on [s, t] in order: one run
    of n_steps for a constant sigma, one run of length 1 per step (sigma read
    at the step's left end) for a time-dependent one."""
    h = (t - s) / n_steps
    if model.sigma_constant:
        return [(step_kernel(model, s, h), n_steps)]
    times = np.linspace(s, t, n_steps + 1)
    return [(step_kernel(model, float(times[i]), h), 1) for i in range(n_steps)]


# ---------------------------------------------------------------------------
# Semigroup application


def _gauss_hermite_nodes(dim: int, order: int):
    x, w = np.polynomial.hermite.hermgauss(order)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    return pts, wts / math.pi ** (dim / 2.0)


def apply_P0(model: SpectralModel, s: float, t: float, f: Callable, z,
             order: int) -> np.ndarray:
    """(P0_{s,t} f)(z) = E f(Z^0_{s,t}(z)) by the Gauss-Hermite tensor rule.

    ``order`` nodes per axis under the exact terminal law, so the rule is
    exact for polynomials of degree < 2 * order; restricted to total
    dimension m + d <= 4.
    """
    if model.dim > 4:
        raise CapabilityError(
            f"gauss_hermite quadrature is limited to dimension 4; model has {model.dim}")
    if order < 2 or order > 100:
        raise ValueError("gauss_hermite order (nodes per axis) must be in [2, 100]")
    law = transition_law(model, s, t, z)
    pts, wts = _gauss_hermite_nodes(model.dim, order)
    states = law.mean + (math.sqrt(2.0) * pts) @ law.factor().T
    vals = np.asarray(f(states), dtype=float)
    return np.asarray(np.tensordot(wts, vals, axes=(0, 0)), dtype=float)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt noise diagnostics


@dataclass(frozen=True)
class HSNoiseReport:
    value: float
    bound_c2: float
    exponent_check: float
    gaps: np.ndarray
    values: np.ndarray
    delta: float
    tail_included: bool


def _hs_value(model: SpectralModel, s: float, t: float) -> float:
    lam = model.eigenvalues
    h = t - s
    if model.sigma_constant:
        rows = np.sum(model.sigma_at(s) ** 2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(lam > 0, (1.0 - np.exp(-2.0 * lam * h)) / (2.0 * lam), h)
        return float(np.sum(rows * g))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    r = 0.5 * h * (nodes + 1.0) + s
    w = 0.5 * h * weights
    total = 0.0
    for ri, wi in zip(r, w):
        rows = np.sum(model.sigma_at(ri) ** 2, axis=1)
        total += wi * float(np.sum(rows * np.exp(-2.0 * lam * (t - ri))))
    return total


def hs_noise_integral(model: SpectralModel, s: float, t: float) -> HSNoiseReport:
    """int_s^t ||e^{(t-r)A2} sigma_r||_HS^2 dr with its (t-s)^delta envelope.

    value: closed-form per-mode integral (quadrature for time-dependent
    sigma).  bound_c2: 2^{delta-1} sum_i ||sigma_i.||^2 lambda_i^{delta-1}
    over the truncation plus the analytic tail (per-mode row bounds rather
    than a global sup).  exponent_check: fitted slope of log value vs log gap
    over the dyadic sweep 2^-8 .. 2^-3.
    """
    if not model.is_spectral_family:
        raise CapabilityError("hs_noise_integral needs a spectral-family model")
    if t <= s:
        raise ValueError("t must exceed s")
    lam = model.eigenvalues
    if np.any(lam <= 0):
        raise CapabilityError("hs_noise_integral needs strictly positive eigenvalues")
    delta = model.delta

    sample_ts = np.linspace(s, t, 9)
    rows_sup = np.max(np.stack([np.sum(model.sigma_at(float(ti)) ** 2, axis=1)
                                for ti in sample_ts]), axis=0)
    c1 = float(np.max(rows_sup)) if rows_sup.size else 0.0
    trunc = 2.0 ** (delta - 1.0) * float(np.sum(rows_sup * lam ** (delta - 1.0)))
    tail_included = model.tail is not None
    tail = 2.0 ** (delta - 1.0) * c1 * model.tail.tail_sum(delta, model.d + 1) \
        if tail_included else 0.0

    value = _hs_value(model, s, t)
    gaps = 2.0 ** (-np.arange(8, 2, -1))
    values = np.array([_hs_value(model, s, s + g) for g in gaps])
    slope = float(np.polyfit(np.log(gaps), np.log(np.maximum(values, 1e-300)), 1)[0])
    return HSNoiseReport(value=value, bound_c2=trunc + tail, exponent_check=slope,
                         gaps=gaps, values=values, delta=delta,
                         tail_included=tail_included)
