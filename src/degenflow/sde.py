"""Mild-solution integration of the nonlinear degenerate system.

The integrator is exponential Euler against the mild formulation: over each
step the linear part (flow and noise convolution) is applied exactly and the
drift is frozen at the left endpoint, entering through the integrated
exponential J(h) = int_0^h e^{uA} du so that a constant drift is integrated
exactly.  Blow-up is recorded data (first exit above a norm threshold), not
an error.

Common-noise experiments reuse recorded increments: each step stores the raw
Brownian increment dW_i and the exact noise convolution eta_i, so two
trajectories driven by the same record differ only through their drifts, and
coarsening a record to a 2^j-times coarser grid is exact (increments add,
convolutions compose through the step flow).

The representation identity evaluated here expresses the noisy component of
a solution through the regularization field u:

    Y_t = e^{tA2} Y_0 + e^{tA2} u_0(Z_0) - u_t(Z_t)
          + int_0^t (lam - A2) e^{(t-s)A2} u_s(Z_s) ds
          + int_0^t e^{(t-s)A2} { sigma dW_s + grad^(2)_{sigma dW_s} u_s (Z_s) },

and the a-priori envelope is the nonlinear Gronwall (Bihari) bound

    g(t) <= Gamma^{-1}(Gamma(eta_T) + t),
    Gamma(s) = int_1^s dr / (2 ell(C + C r)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import CoverageError, IterationError, NonOsgoodWarning
from .linear_flow import PathBundle, _step_kernels, _step_law
from .model import DriftSpec, SpectralModel, _expm
from .regularization import FieldGrid
from .streams import stream_name, substream

__all__ = [
    "NoiseRecord",
    "EnsembleTrajectories",
    "UniquenessRow",
    "UniquenessTable",
    "ResidualReport",
    "BihariBound",
    "EnvelopeReport",
    "make_noise",
    "noise_from_bundle",
    "coarsen_noise",
    "integrate_ensemble",
    "cutoff_drift",
    "uniqueness_experiment",
    "representation_residual",
    "dissipation_envelope",
]

BLOWUP_THRESHOLD = 1e8


# ---------------------------------------------------------------------------
# Noise records


@dataclass(frozen=True)
class NoiseRecord:
    """Per-step randomness of an integration: raw increments and convolutions.

    Arrays are indexed path-major; records built here are stored step-major
    in memory, so one step's slice across paths is contiguous.
    """

    times: np.ndarray  # (N+1,)
    dW: np.ndarray     # (n_paths, N, k)
    eta: np.ndarray    # (n_paths, N, m+d)

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dW.shape[1]


def _step_flow(model: SpectralModel, s: float, t: float, n_steps: int):
    """(E, J inj) of one step of the uniform grid on [s, t].

    Both are mathematically independent of sigma and of the step; they are
    read from the step law at s, which serves every step of the integrator and
    of the record helpers alike and is the law the step kernel at s is built
    from.  For a callable sigma that law sees sigma(s) only, so E may differ
    in the last bits from the E of the kernel at a later step.
    """
    E, _, J = _step_law(model.block_operator(), model.noise_matrix(s), (t - s) / n_steps)
    return E, J @ model.injection()


def make_noise(model: SpectralModel, T: float, n_steps: int, n_paths: int,
               seed: int, stream: Sequence[str] = ("sde", "noise"),
               s: float = 0.0) -> NoiseRecord:
    """Record of ``n_paths`` x ``n_steps`` exact step draws on [s, T].

    One ``StepKernel.draw`` per step, so a record is the same stream and the
    same bits as stepping the linear flow.  The arrays are step-major in
    memory (path-major views), so one step's slice across paths is
    contiguous.
    """
    rng = substream(seed, *stream)
    kers = _step_kernels(model, s, T, n_steps)
    dW = np.empty((n_steps, n_paths, kers[0].k))
    eta = np.empty((n_steps, n_paths, model.dim))
    for i, ker in enumerate(kers):
        dW[i], eta[i] = ker.draw(rng, n_paths)
    return NoiseRecord(times=np.linspace(s, T, n_steps + 1),
                       dW=dW.transpose(1, 0, 2), eta=eta.transpose(1, 0, 2))


def noise_from_bundle(model: SpectralModel, bundle: PathBundle) -> NoiseRecord:
    """Recover per-step noise convolutions from a linear bundle's states.

    For the zero-drift flow, eta_i = z_{i+1} - E z_i exactly, so a PathBundle
    carries its randomness implicitly.
    """
    times = bundle.times
    h = float(times[1] - times[0])
    if not np.allclose(np.diff(times), h):
        raise ValueError("bundle grid must be uniform")
    E, _ = _step_flow(model, float(times[0]), float(times[-1]), bundle.n_steps)
    Z = bundle.Z.transpose(1, 0, 2)                   # step-major (N+1, P, m+d)
    eta = Z[1:] - Z[:-1] @ E.T
    return NoiseRecord(times=times, dW=bundle.dW, eta=eta.transpose(1, 0, 2))


def coarsen_noise(model: SpectralModel, noise: NoiseRecord, factor: int) -> NoiseRecord:
    """Exact restriction of a record to a ``factor``-times coarser grid.

    Raw increments add; convolutions compose through the fine-step flow:
    eta' = E_h eta_a + eta_b for two merged steps of width h.
    """
    if factor < 1 or noise.n_steps % factor:
        raise ValueError("factor must divide the number of steps")
    if factor == 1:
        return noise
    E, _ = _step_flow(model, float(noise.times[0]), float(noise.times[-1]),
                      noise.n_steps)
    P, N2 = noise.n_paths, noise.n_steps // factor
    # summed in the path-major layout, so the bits do not depend on storage
    dW = np.ascontiguousarray(noise.dW).reshape(P, N2, factor, -1).sum(axis=2)
    # (group, position in group, path, m+d): Horner over the positions
    fine = noise.eta.reshape(P, N2, factor, model.dim).transpose(1, 2, 0, 3)
    acc = fine[:, 0]
    for j in range(1, factor):
        acc = acc @ E.T + fine[:, j]
    return NoiseRecord(times=noise.times[::factor], dW=dW, eta=acc.transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class EnsembleTrajectories:
    """Paths of one integration on a shared grid; a single trajectory is the
    one-path ensemble.

    ``seed`` and ``stream`` name the record when ``integrate_ensemble`` drew
    it from a seed, and are None and "" otherwise (``path`` drops them: one
    path of a larger record is not reproducible from the seed alone).
    """

    times: np.ndarray       # (N+1,)
    Z: np.ndarray           # (P, N+1, m+d)
    dW: np.ndarray          # (P, N, k)
    eta: np.ndarray         # (P, N, m+d)
    blowup_times: np.ndarray  # (P,), nan where no blow-up
    m: int
    seed: Optional[int] = None
    stream: str = ""

    @property
    def n_paths(self) -> int:
        return self.Z.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dW.shape[1]

    @property
    def X(self) -> np.ndarray:
        return self.Z[:, :, : self.m]

    @property
    def Y(self) -> np.ndarray:
        return self.Z[:, :, self.m:]

    def path(self, p: int) -> EnsembleTrajectories:
        """Path p as a one-path ensemble."""
        return EnsembleTrajectories(times=self.times, Z=self.Z[p, None],
                                    dW=self.dW[p, None], eta=self.eta[p, None],
                                    blowup_times=self.blowup_times[p, None], m=self.m)


def _resolve_noise(model: SpectralModel, T: float, n_steps: int, n_paths: int,
                   noise: Union[int, NoiseRecord]) -> NoiseRecord:
    if not isinstance(noise, NoiseRecord):
        return make_noise(model, T, n_steps, n_paths, int(noise))
    # the step kernels are built on the uniform grid of [0, T]
    if (noise.n_steps != n_steps or abs(float(noise.times[0])) > 1e-12
            or abs(float(noise.times[-1]) - T) > 1e-12
            or not np.allclose(np.diff(noise.times), T / n_steps, rtol=1e-9, atol=0.0)):
        raise ValueError("noise record grid does not match the requested grid")
    if n_paths in (1, noise.n_paths):
        return noise
    if noise.n_paths == 1:
        return NoiseRecord(times=noise.times,
                           dW=np.repeat(noise.dW, n_paths, axis=0),
                           eta=np.repeat(noise.eta, n_paths, axis=0))
    raise ValueError("noise record has a different number of paths")


def integrate_ensemble(model: SpectralModel, b: DriftSpec, z0, T: float,
                       n_steps: int, noise: Union[int, NoiseRecord], n_paths: int = 1,
                       threshold: float = BLOWUP_THRESHOLD) -> EnsembleTrajectories:
    """Exponential-Euler integration of the nonlinear system, path-vectorized.

    Per step: z' = E z + J inj b(t, z) + eta, with E the exact block flow,
    J the integrated exponential, and eta the recorded exact noise
    convolution.  ``noise`` is a NoiseRecord on this grid, or a seed for
    ``make_noise`` (a PathBundle's record is ``noise_from_bundle``), which
    the result then records with its stream.  Paths whose state norm
    exceeds ``threshold`` freeze at their exit value with the exit time
    recorded.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rec = _resolve_noise(model, T, n_steps, n_paths, noise)
    n_paths = rec.n_paths
    E, Jinj = _step_flow(model, 0.0, T, n_steps)
    ET, JT = E.T, Jinj.T
    times = rec.times
    ts = times.tolist()
    m = model.m
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim == 1:
        z0 = np.broadcast_to(z0, (n_paths, model.dim))
    z = z0.astype(float).copy()
    Z = np.empty((n_paths, n_steps + 1, model.dim))
    Z[:, 0, :] = z
    eta = rec.eta
    blow_t = np.full(n_paths, np.nan)
    alive = np.ones(n_paths, dtype=bool)
    n_alive = n_paths
    for i in range(n_steps):
        if n_alive == n_paths:  # no gather or scatter while every path lives
            bv = np.asarray(b(ts[i], z[:, :m], z[:, m:]), dtype=float)
            z = znew = z @ ET + bv @ JT + eta[:, i, :]
        elif n_alive:
            za = z[alive]
            bv = np.asarray(b(ts[i], za[:, :m], za[:, m:]), dtype=float)
            znew = za @ ET + bv @ JT + eta[alive, i, :]
            z[alive] = znew
        if n_alive:
            exploded = np.sqrt((znew * znew).sum(axis=-1)) > threshold
            if exploded.any():
                ids = np.flatnonzero(alive)[exploded]
                blow_t[ids] = times[i + 1]
                alive[ids] = False
                n_alive -= ids.size
        Z[:, i + 1, :] = z
    seed = None if isinstance(noise, NoiseRecord) else int(noise)
    return EnsembleTrajectories(times=times, Z=Z, dW=rec.dW, eta=rec.eta,
                                blowup_times=blow_t, m=model.m, seed=seed,
                                stream="" if seed is None else stream_name("sde", "noise"))


# ---------------------------------------------------------------------------
# Drift cutoff


def _smoothstep_down(u: np.ndarray) -> np.ndarray:
    """1 on u <= 1, 0 on u >= 2, quintic blend between (C^2 at the joins)."""
    t = np.clip(u - 1.0, 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def cutoff_drift(b: DriftSpec, m_level: int) -> DriftSpec:
    """b^[m](t, z) = b(min(t, m), z) psi(|z|/m) with a quintic plateau bump.

    psi = 1 on [0, 1], psi = 0 on [2, infinity).  The returned spec keeps the
    declared regularity data and carries a finite bound measured by sampling
    on the support |z| <= 2m x [0, m].
    """
    if m_level < 1:
        raise ValueError("m_level must be >= 1")
    mf = float(m_level)

    def fn(t, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        tc = np.minimum(np.asarray(t, dtype=float), mf)
        r = np.sqrt(np.sum(x ** 2, axis=-1) + np.sum(y ** 2, axis=-1))
        psi = _smoothstep_down(r / mf)
        return np.asarray(b.fn(tc, x, y), dtype=float) * psi[..., None]

    rng = substream(1, "sde", "cutoff-bound")
    pts = rng.standard_normal((4096, b.m + b.d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= 2.0 * mf * rng.uniform(0.0, 1.0, size=(4096, 1)) ** (1.0 / (b.m + b.d))
    ts = rng.uniform(0.0, mf, size=4096)
    vals = fn(ts, pts[:, : b.m], pts[:, b.m:])
    bound = float(np.max(np.linalg.norm(vals, axis=-1)))
    return replace(b, fn=fn, bound=bound, name=f"{b.name}[cutoff m={m_level}]")


# ---------------------------------------------------------------------------
# Common-noise uniqueness experiment


@dataclass(frozen=True)
class UniquenessRow:
    n_steps: int
    sup_gap: float
    gap_at_T: float
    blew_up_a: bool
    blew_up_b: bool


@dataclass(frozen=True)
class UniquenessTable:
    rows: tuple
    perturbation: float
    direction: np.ndarray
    seed: int

    def gaps(self) -> np.ndarray:
        return np.array([r.sup_gap for r in self.rows])


def uniqueness_experiment(model: SpectralModel, b: DriftSpec, z0,
                          perturbation: float, T: float,
                          n_steps_list: Sequence[int], seed: int) -> UniquenessTable:
    """Common-noise gap table between starts z0 and z0 + perturbation.

    Both trajectories share the same recorded noise per step count and run
    as the two paths of one ensemble; the perturbation is applied along the
    normalized all-ones direction.  With perturbation = 0 the two rows are
    identical arithmetic and the gap is exactly zero.  Blow-ups are reported
    in the table, not raised.
    """
    if perturbation < 0:
        raise ValueError("perturbation must be >= 0")
    z0 = np.asarray(z0, dtype=float).reshape(model.dim)
    direction = np.ones(model.dim) / math.sqrt(model.dim)
    starts = np.stack([z0, z0 + perturbation * direction])
    rows = []
    for n in n_steps_list:
        noise = make_noise(model, T, int(n), 1, seed,
                           stream=("sde", "uniqueness", str(int(n))))
        ens = integrate_ensemble(model, b, starts, T, int(n), noise=noise, n_paths=2)
        gap = np.linalg.norm(ens.Z[0] - ens.Z[1], axis=-1)
        blew = np.isfinite(ens.blowup_times)
        rows.append(UniquenessRow(
            n_steps=int(n), sup_gap=float(np.max(gap)), gap_at_T=float(gap[-1]),
            blew_up_a=bool(blew[0]), blew_up_b=bool(blew[1])))
    return UniquenessTable(rows=tuple(rows), perturbation=float(perturbation),
                           direction=direction, seed=int(seed))


# ---------------------------------------------------------------------------
# Representation identity residual


def _scan(M: np.ndarray, c: np.ndarray) -> np.ndarray:
    """x_k = x_{k-1} M* + c_k along axis -2, with x_0 = c_0.

    Log-depth doubling: after the pass with shift s, x_k sums
    c_{k-j} (M^j)* over j < 2s, so log2(n) products by M, M^2, M^4, ...
    finish the recursion.  Only non-negative powers of M appear, which
    keeps the scan as stable as the step-by-step loop.  Leading axes are
    independent recursions, each one matrix product per pass.
    """
    x = np.array(c, dtype=float)
    P = M
    s = 1
    while s < x.shape[-2]:
        x[..., s:, :] += x[..., :-s, :] @ P.T
        P = P @ P
        s *= 2
    return x


@dataclass(frozen=True)
class ResidualReport:
    max_residual: np.ndarray  # (P,)
    per_time: np.ndarray      # (P, N+1)
    times: np.ndarray


def representation_residual(model: SpectralModel, b: DriftSpec,
                            trajectory: EnsembleTrajectories, field: FieldGrid,
                            lam: float) -> ResidualReport:
    """Per path, the max over the grid of |LHS - RHS| of the representation
    identity.

    The Lebesgue integral uses the trapezoid rule on the trajectory grid;
    the noise convolution part of the stochastic integral composes the
    recorded per-step convolutions exactly, and the field-gradient part is a
    left-point sum with the recorded raw increments.  Every path must stay
    inside the field's box.
    """
    Zt = trajectory.Z
    times = trajectory.times
    lo, hi = field.lo, field.hi
    inside = np.all((Zt >= lo - 1e-12) & (Zt <= hi + 1e-12), axis=(0, -1))
    if not np.all(inside):
        k = int(np.argmin(inside))
        raise CoverageError(f"trajectory exits the field box at t={times[k]:.6g}")
    P, N = trajectory.n_paths, trajectory.n_steps
    h = float(times[1] - times[0])
    m, d = model.m, model.d
    A2 = model.A2
    E2 = _expm(A2 * h)

    # one field query over all paths x times, path-major
    uvals = field.interp_many(np.tile(times, P),
                              Zt.reshape(-1, model.dim)).reshape(P, N + 1, d)
    jacs = field.jacobian_y_many(np.tile(times[:-1], P),
                                 Zt[:, :-1].reshape(-1, model.dim)).reshape(P, N, d, d)
    q = uvals @ (lam * np.eye(d) - A2).T                      # (P, N+1, d)
    sig = np.stack([model.sigma_at(t) for t in times[:-1].tolist()])
    grad_term = (jacs @ (sig @ trajectory.dW[..., None]))[..., 0]   # (P, N, d)

    # every term of the right-hand side but -u_k propagates through E2 per
    # step, so one accumulator acc_k = acc_{k-1} E2* + inc_k carries them all
    Y = trajectory.Y
    inc = np.empty((P, N + 1, d))
    inc[:, 0] = Y[:, 0] + uvals[:, 0]
    inc[:, 1:] = ((0.5 * h * q[:, :-1] + grad_term) @ E2.T + 0.5 * h * q[:, 1:]
                  + trajectory.eta[:, :, m:])
    rhs = _scan(E2, inc) - uvals
    residual = np.zeros((P, N + 1))
    residual[:, 1:] = np.linalg.norm(Y[:, 1:] - rhs[:, 1:], axis=-1)
    return ResidualReport(max_residual=np.max(residual, axis=1),
                          per_time=residual, times=times)


# ---------------------------------------------------------------------------
# Bihari envelope


_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)


def _gl_panel(ell: Callable, C, a, b) -> np.ndarray:
    """int_a^b dr / (2 ell(C + C r)) by the 10-node Gauss-Legendre rule,
    broadcast over C, a and b."""
    half = 0.5 * (b - a)
    r = (0.5 * (a + b))[..., None] + half[..., None] * _GL_X
    c = np.asarray(C, dtype=float)[..., None]
    x = c + c * r
    f = 1.0 / (2.0 * np.broadcast_to(np.asarray(ell(x), dtype=float), x.shape))
    return half * (f * _GL_W).sum(axis=-1)


def _gamma(ell: Callable, C, s) -> np.ndarray:
    """Gamma(s) = int_1^s dr / (2 ell(C + C r)), broadcast over C and s.

    The panels [2^j, 2^(j+1)] of a ratio-2 ladder through 1 are integrated
    once per distinct C and summed outward from 1; each s >= 0 adds one
    panel from its ladder knot 2^k <= s up to s, so the points need not be
    sorted and none changes the value at another.  An affine ell puts the
    integrand's pole at r <= -1, at -3 or beyond on every panel mapped to
    [-1, 1], so the 10-node rule errs by about (3 + sqrt 8)^-20 = 5e-16
    relative (8 nodes leave 1.6e-12 for ell = 1 + s^2).
    """
    C, s = np.broadcast_arrays(np.asarray(C, dtype=float), np.asarray(s, dtype=float))
    Cu, which = np.unique(C.ravel(), return_inverse=True)
    k = np.frexp(s)[1] - 1                          # 2^k <= s < 2^(k+1)
    lo, hi = min(int(k.min()), 0), max(int(k.max()), 0)
    left = np.ldexp(1.0, np.arange(lo, hi))
    panels = _gl_panel(ell, Cu[:, None], left, 2.0 * left)
    # Gamma at the knots 2^lo .. 2^hi, each a running sum from 1 outward
    knots = np.concatenate([-np.cumsum(panels[:, :-lo][:, ::-1], axis=1)[:, ::-1],
                            np.zeros((Cu.size, 1)),
                            np.cumsum(panels[:, -lo:], axis=1)], axis=1)
    return knots[which.reshape(s.shape), k - lo] + _gl_panel(ell, C, np.ldexp(1.0, k), s)


class BihariBound:
    """The nonlinear Gronwall envelope t -> Gamma^{-1}(Gamma(eta_T) + t).

    Gamma(s) = int_1^s dr / (2 ell(C + C r)) with a declared nondecreasing
    positive ``ell``, by the fixed ladder rule of ``_gamma``; the inverse is
    computed by Newton's method.
    """

    def __init__(self, ell: Callable, eta_T: float, C_env: float):
        if C_env <= 1.0:
            raise ValueError("C_env must exceed 1")
        if eta_T <= 0.0:
            raise ValueError("eta_T must be positive")
        self.ell = ell
        self.eta_T = float(eta_T)
        self.C = float(C_env)
        self._osgood_check()

    def _osgood_check(self) -> None:
        # int_1^S ds / ell(s) is Gamma with C = 1/2 at 2S - 1: truncated
        # probes of a possibly improper integral
        S = np.array([1e2, 1e4, 1e6, 1e8])
        incr = np.diff(_gamma(self.ell, 0.5, 2.0 * S - 1.0))
        if incr[-1] < 1e-3 * max(incr[0], 1e-300):
            warnings.warn("declared ell grows too fast: int_1^inf ds/ell(s) "
                          "appears to converge", NonOsgoodWarning)

    def gamma(self, s) -> np.ndarray:
        """Gamma(s), vectorized; s >= the lower terminal 1 is not required."""
        out = _gamma(self.ell, self.C, s)
        return out if np.ndim(s) else float(out)

    def curve(self, t) -> np.ndarray:
        """Envelope value(s) at time(s) t, by Newton's method on Gamma.

        Gamma is increasing and concave for nondecreasing ell, and
        Gamma'(s) = 1 / (2 ell(C + C s)) is exact, so the iterates from eta_T
        rise monotonically to the root without overshooting.
        """
        target = self.gamma(self.eta_T) + np.asarray(t, dtype=float)
        s = np.full(np.shape(target), self.eta_T)
        for _ in range(100):
            step = ((target - _gamma(self.ell, self.C, s))
                    * 2.0 * np.asarray(self.ell(self.C + self.C * s), dtype=float))
            s = s + step
            if np.any(s > 1e15):
                raise IterationError("Bihari inverse exceeded 1e15; "
                                     "ell may not satisfy the Osgood condition")
            # from below the steps are positive; rounding may end on a tiny negative one
            if np.all(step <= 1e-12 * np.maximum(1.0, s)):
                return s if np.ndim(t) else float(s)
        raise IterationError("Bihari inverse did not converge in 100 Newton steps")


# ---------------------------------------------------------------------------
# Dissipation envelope experiment


@dataclass(frozen=True)
class EnvelopeReport:
    eta_T: np.ndarray        # (P,) measured per path
    C_env: np.ndarray        # (P,)
    margins: np.ndarray      # (P,) min over t of Gamma(eta)+t-Gamma(sup|Ytilde|^2)
    n_blowups: int
    sup_tilde_sq: np.ndarray  # (P, N+1) running sup of |Ytilde|^2
    times: np.ndarray

    @property
    def all_below(self) -> bool:
        return bool(np.all(self.margins >= -1e-9))


def dissipation_envelope(model: SpectralModel, b: DriftSpec, z0, T: float,
                         n_steps: int, n_paths: int, seed: int) -> EnvelopeReport:
    """Measure eta_T and the state envelope constant, and check the bound.

    Requires b.ell and b.h.  The noise convolution xi_t is composed exactly
    from the recorded per-step convolutions; Ytilde = Y - xi obeys the
    pathwise Bihari envelope with Gamma built from the measured per-path
    constants.  The below-curve check uses monotonicity of Gamma: g(t) <=
    curve(t) for all t iff Gamma(g(t)) - t <= Gamma(eta_T).
    """
    if b.ell is None or b.h is None:
        raise ValueError("drift must declare ell and h growth data")
    noise = make_noise(model, T, n_steps, n_paths, seed, stream=("sde", "envelope"))
    ens = integrate_ensemble(model, b, z0, T, n_steps, noise=noise)
    times = ens.times
    h_step = float(times[1] - times[0])
    m = model.m
    E2 = _expm(model.A2 * h_step)
    eta_y = noise.eta[:, :, m:]
    xi = np.zeros(ens.Y.shape)
    for i in range(n_steps):
        xi[:, i + 1, :] = xi[:, i, :] @ E2.T + eta_y[:, i, :]
    # the ensemble shares the record's arrays: drop both, and xi once read,
    # so only a few (P, N+1) arrays live at once
    Z, n_blow = ens.Z, int(np.sum(np.isfinite(ens.blowup_times)))
    del noise, ens, eta_y
    eta = 2.0 * np.trapezoid(np.asarray(b.h(np.linalg.norm(xi, axis=-1)), dtype=float),
                             times, axis=1)
    sup_sq = np.maximum.accumulate(np.sum((Z[:, :, m:] - xi) ** 2, axis=-1), axis=1)
    del xi
    eta = np.maximum(eta + sup_sq[:, 0], 1e-12)
    C = np.max((np.sum(Z[:, :, :m] ** 2, axis=-1) + sup_sq) / (1.0 + sup_sq), axis=1)
    C = np.maximum(C, 1.0) + 1e-6
    del Z

    # sup_sq is nondecreasing in t, so each path's margin is least where
    # sup_sq takes a new value (or at t = 0); Gamma is needed only there,
    # taken in blocks so the quadrature nodes stay small
    first = np.ones(sup_sq.shape, dtype=bool)
    first[:, 1:] = sup_sq[:, 1:] != sup_sq[:, :-1]
    p, i = np.nonzero(first)
    gvals = np.empty(p.size)
    for a in range(0, p.size, 2 ** 14):
        blk = slice(a, a + 2 ** 14)
        gvals[blk] = _gamma(b.ell, C[p[blk]], sup_sq[p[blk], i[blk]])
    margins = np.minimum.reduceat(_gamma(b.ell, C, eta)[p] + times[i] - gvals,
                                  np.flatnonzero(i == 0))
    return EnvelopeReport(eta_T=eta, C_env=C, margins=margins, n_blowups=n_blow,
                          sup_tilde_sq=sup_sq, times=times)
