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
from scipy import integrate

from .errors import CoverageError, IterationError, NonOsgoodWarning
from .linear_flow import PathBundle, _step_kernels
from .model import DriftSpec, SpectralModel, _expm
from .regularization import FieldGrid
from .streams import stream_name, substream

__all__ = [
    "NoiseRecord",
    "MildTrajectory",
    "EnsembleTrajectories",
    "UniquenessRow",
    "UniquenessTable",
    "ResidualReport",
    "BihariBound",
    "EnvelopeReport",
    "make_noise",
    "noise_from_bundle",
    "coarsen_noise",
    "integrate_mild",
    "integrate_ensemble",
    "cutoff_drift",
    "uniqueness_experiment",
    "representation_residual",
    "bihari_bound",
    "dissipation_envelope",
]

BLOWUP_THRESHOLD = 1e8


# ---------------------------------------------------------------------------
# Noise records


@dataclass(frozen=True)
class NoiseRecord:
    """Per-step randomness of an integration: raw increments and convolutions."""

    times: np.ndarray  # (N+1,)
    dW: np.ndarray     # (n_paths, N, k)
    eta: np.ndarray    # (n_paths, N, m+d)

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dW.shape[1]


def make_noise(model: SpectralModel, T: float, n_steps: int, n_paths: int,
               seed: int, stream: Sequence[str] = ("sde", "noise"),
               s: float = 0.0) -> NoiseRecord:
    rng = substream(seed, *stream)
    kers = _step_kernels(model, s, T, n_steps)
    times = np.linspace(s, T, n_steps + 1)
    k = kers[0].k
    dW = np.empty((n_paths, n_steps, k))
    eta = np.empty((n_paths, n_steps, model.dim))
    for i, ker in enumerate(kers):
        dw, et = ker.draw(rng, n_paths)
        dW[:, i, :] = dw
        eta[:, i, :] = et
    return NoiseRecord(times=times, dW=dW, eta=eta)


def noise_from_bundle(model: SpectralModel, bundle: PathBundle) -> NoiseRecord:
    """Recover per-step noise convolutions from a linear bundle's states.

    For the zero-drift flow, eta_i = z_{i+1} - E z_i exactly, so a PathBundle
    carries its randomness implicitly.
    """
    times = bundle.times
    h = float(times[1] - times[0])
    if not np.allclose(np.diff(times), h):
        raise ValueError("bundle grid must be uniform")
    kers = _step_kernels(model, float(times[0]), float(times[-1]), bundle.n_steps)
    Z = bundle.Z
    eta = np.empty((bundle.n_paths, bundle.n_steps, model.dim))
    for i, ker in enumerate(kers):
        eta[:, i, :] = Z[:, i + 1, :] - Z[:, i, :] @ ker.E.T
    return NoiseRecord(times=times, dW=bundle.dW, eta=eta)


def coarsen_noise(model: SpectralModel, noise: NoiseRecord, factor: int) -> NoiseRecord:
    """Exact restriction of a record to a ``factor``-times coarser grid.

    Raw increments add; convolutions compose through the fine-step flow:
    eta' = E_h eta_a + eta_b for two merged steps of width h.
    """
    if factor < 1 or noise.n_steps % factor:
        raise ValueError("factor must divide the number of steps")
    if factor == 1:
        return noise
    kers = _step_kernels(model, float(noise.times[0]), float(noise.times[-1]),
                         noise.n_steps)
    N2 = noise.n_steps // factor
    dW = noise.dW.reshape(noise.n_paths, N2, factor, -1).sum(axis=2)
    eta = np.zeros((noise.n_paths, N2, model.dim))
    for g in range(N2):
        acc = noise.eta[:, g * factor, :]
        for j in range(1, factor):
            acc = acc @ kers[g * factor + j].E.T + noise.eta[:, g * factor + j, :]
        eta[:, g, :] = acc
    return NoiseRecord(times=noise.times[::factor], dW=dW, eta=eta)


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class MildTrajectory:
    times: np.ndarray   # (N+1,)
    Z: np.ndarray       # (N+1, m+d)
    dW: np.ndarray      # (N, k)
    eta: np.ndarray     # (N, m+d)
    blew_up: bool
    blowup_time: Optional[float]
    m: int
    seed: Optional[int] = None
    stream: str = ""

    @property
    def X(self) -> np.ndarray:
        return self.Z[:, : self.m]

    @property
    def Y(self) -> np.ndarray:
        return self.Z[:, self.m:]

    @property
    def n_steps(self) -> int:
        return self.dW.shape[0]


@dataclass(frozen=True)
class EnsembleTrajectories:
    times: np.ndarray       # (N+1,)
    Z: np.ndarray           # (P, N+1, m+d)
    dW: np.ndarray          # (P, N, k)
    eta: np.ndarray         # (P, N, m+d)
    blowup_times: np.ndarray  # (P,), nan where no blow-up
    m: int

    @property
    def n_paths(self) -> int:
        return self.Z.shape[0]

    @property
    def X(self) -> np.ndarray:
        return self.Z[:, :, : self.m]

    @property
    def Y(self) -> np.ndarray:
        return self.Z[:, :, self.m:]

    def path(self, p: int) -> MildTrajectory:
        blew = bool(np.isfinite(self.blowup_times[p]))
        return MildTrajectory(times=self.times, Z=self.Z[p], dW=self.dW[p],
                              eta=self.eta[p], blew_up=blew,
                              blowup_time=float(self.blowup_times[p]) if blew else None,
                              m=self.m)


def _resolve_noise(model: SpectralModel, T: float, n_steps: int, n_paths: int,
                   noise: Union[int, NoiseRecord, PathBundle, None]) -> NoiseRecord:
    if isinstance(noise, NoiseRecord):
        rec = noise
    elif isinstance(noise, PathBundle):
        rec = noise_from_bundle(model, noise)
    else:
        seed = 0 if noise is None else int(noise)
        return make_noise(model, T, n_steps, n_paths, seed)
    # the step kernels are built on the uniform grid of [0, T]
    if (rec.n_steps != n_steps or abs(float(rec.times[0])) > 1e-12
            or abs(float(rec.times[-1]) - T) > 1e-12
            or not np.allclose(np.diff(rec.times), T / n_steps, rtol=1e-9, atol=0.0)):
        raise ValueError("noise record grid does not match the requested grid")
    if n_paths in (1, rec.n_paths):
        return rec
    if rec.n_paths == 1:
        return NoiseRecord(times=rec.times,
                           dW=np.repeat(rec.dW, n_paths, axis=0),
                           eta=np.repeat(rec.eta, n_paths, axis=0))
    raise ValueError("noise record has a different number of paths")


def integrate_ensemble(model: SpectralModel, b: DriftSpec, z0, T: float,
                       n_steps: int, noise: Union[int, NoiseRecord, PathBundle, None] = None,
                       n_paths: int = 1,
                       threshold: float = BLOWUP_THRESHOLD) -> EnsembleTrajectories:
    """Exponential-Euler integration of the nonlinear system, path-vectorized.

    Per step: z' = E z + J inj b(t, z) + eta, with E the exact block flow,
    J the integrated exponential, and eta the recorded exact noise
    convolution.  Paths whose state norm exceeds ``threshold`` freeze at
    their exit value with the exit time recorded.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rec = _resolve_noise(model, T, n_steps, n_paths, noise)
    n_paths = rec.n_paths
    kers = _step_kernels(model, 0.0, T, n_steps)
    times = rec.times
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim == 1:
        z0 = np.broadcast_to(z0, (n_paths, model.dim))
    z = z0.astype(float).copy()
    Z = np.empty((n_paths, n_steps + 1, model.dim))
    Z[:, 0, :] = z
    inj = model.injection()
    blow_t = np.full(n_paths, np.nan)
    alive = np.ones(n_paths, dtype=bool)
    for i, ker in enumerate(kers):
        if np.any(alive):
            Jinj = ker.J @ inj
            za = z[alive]
            bv = np.asarray(b(float(times[i]), za[:, : model.m], za[:, model.m:]),
                            dtype=float)
            znew = za @ ker.E.T + bv @ Jinj.T + rec.eta[alive, i, :]
            z[alive] = znew
            norms = np.linalg.norm(znew, axis=-1)
            exploded = norms > threshold
            if np.any(exploded):
                ids = np.flatnonzero(alive)[exploded]
                blow_t[ids] = times[i + 1]
                alive[ids] = False
        Z[:, i + 1, :] = z
    return EnsembleTrajectories(times=times, Z=Z, dW=rec.dW, eta=rec.eta,
                                blowup_times=blow_t, m=model.m)


def integrate_mild(model: SpectralModel, b: DriftSpec, z0, T: float, n_steps: int,
                   noise: Union[int, NoiseRecord, PathBundle, None] = None,
                   threshold: float = BLOWUP_THRESHOLD) -> MildTrajectory:
    """Single-trajectory exponential-Euler integration (see integrate_ensemble)."""
    ens = integrate_ensemble(model, b, z0, T, n_steps, noise=noise, n_paths=1,
                             threshold=threshold)
    traj = ens.path(0)
    if isinstance(noise, int):
        traj = replace(traj, seed=noise, stream=stream_name("sde", "noise"))
    return traj


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

    Both trajectories share the same recorded noise per step count; the
    perturbation is applied along the normalized all-ones direction.  With
    perturbation = 0 the two integrations are identical arithmetic and the
    gap is exactly zero.  Blow-ups are reported in the table, not raised.
    """
    if perturbation < 0:
        raise ValueError("perturbation must be >= 0")
    z0 = np.asarray(z0, dtype=float).reshape(model.dim)
    direction = np.ones(model.dim) / math.sqrt(model.dim)
    rows = []
    for n in n_steps_list:
        noise = make_noise(model, T, int(n), 1, seed,
                           stream=("sde", "uniqueness", str(int(n))))
        ta = integrate_ensemble(model, b, z0, T, int(n), noise=noise)
        tb = integrate_ensemble(model, b, z0 + perturbation * direction, T,
                                int(n), noise=noise)
        gap = np.linalg.norm(ta.Z[0] - tb.Z[0], axis=-1)
        rows.append(UniquenessRow(
            n_steps=int(n), sup_gap=float(np.max(gap)), gap_at_T=float(gap[-1]),
            blew_up_a=bool(np.isfinite(ta.blowup_times[0])),
            blew_up_b=bool(np.isfinite(tb.blowup_times[0]))))
    return UniquenessTable(rows=tuple(rows), perturbation=float(perturbation),
                           direction=direction, seed=int(seed))


# ---------------------------------------------------------------------------
# Representation identity residual


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    per_time: np.ndarray
    times: np.ndarray


def representation_residual(model: SpectralModel, b: DriftSpec,
                            trajectory: MildTrajectory, field: FieldGrid,
                            lam: float) -> ResidualReport:
    """Max over the grid of |LHS - RHS| of the representation identity.

    The Lebesgue integral uses the trapezoid rule on the trajectory grid;
    the noise convolution part of the stochastic integral composes the
    recorded per-step convolutions exactly, and the field-gradient part is a
    left-point sum with the recorded raw increments.  The trajectory must
    stay inside the field's box.
    """
    Zt = trajectory.Z
    lo, hi = field.lo, field.hi
    inside = np.all((Zt >= lo - 1e-12) & (Zt <= hi + 1e-12), axis=-1)
    if not np.all(inside):
        k = int(np.argmin(inside))
        raise CoverageError(
            f"trajectory exits the field box at t={trajectory.times[k]:.6g}")
    times = trajectory.times
    N = trajectory.n_steps
    h = float(times[1] - times[0])
    m, d = model.m, model.d
    A2 = model.A2
    E2 = _expm(A2 * h)

    uvals = field.interp_many(times, Zt)                      # (N+1, d)
    jacs = field.jacobian_y_many(times[:-1], Zt[:-1])         # (N, d, d)
    lam_minus_A2 = lam * np.eye(d) - A2
    q = uvals @ lam_minus_A2.T                                # (N+1, d)

    sig_dw = np.empty((N, d))
    for i in range(N):
        sig = model.sigma_at(float(times[i]))
        sig_dw[i] = sig @ trajectory.dW[i]
    grad_term = np.einsum("iaj,ij->ia", jacs, sig_dw)         # (N, d)
    eta_y = trajectory.eta[:, m:]

    Y = trajectory.Y
    Y0 = Y[0]
    u0 = uvals[0]
    residual = np.zeros(N + 1)
    leb = np.zeros(d)
    sto = np.zeros(d)
    etY0 = Y0.copy()
    etu0 = u0.copy()
    for k2 in range(1, N + 1):
        # propagate accumulated integrals one step and add the new increment
        leb = leb @ E2.T + 0.5 * h * (q[k2 - 1] @ E2.T + q[k2])
        sto = sto @ E2.T + eta_y[k2 - 1] + grad_term[k2 - 1] @ E2.T
        etY0 = etY0 @ E2.T
        etu0 = etu0 @ E2.T
        rhs = etY0 + etu0 - uvals[k2] + leb + sto
        residual[k2] = float(np.linalg.norm(Y[k2] - rhs))
    return ResidualReport(max_residual=float(np.max(residual)),
                          per_time=residual, times=times)


# ---------------------------------------------------------------------------
# Bihari envelope


class BihariBound:
    """The nonlinear Gronwall envelope t -> Gamma^{-1}(Gamma(eta_T) + t).

    Gamma(s) = int_1^s dr / (2 ell(C + C r)) with a declared nondecreasing
    positive ``ell``; the inverse is computed by monotone bisection.  The
    ``h`` growth function is part of the interface (it enters the measured
    eta_T) but not the curve itself.
    """

    def __init__(self, ell: Callable, h: Optional[Callable], eta_T: float,
                 T: float, C_env: float):
        if C_env <= 1.0:
            raise ValueError("C_env must exceed 1")
        if eta_T <= 0.0:
            raise ValueError("eta_T must be positive")
        self.ell = ell
        self.h = h
        self.eta_T = float(eta_T)
        self.T = float(T)
        self.C = float(C_env)
        self._osgood_check()

    def _osgood_check(self) -> None:
        vals = []
        for S in (1e2, 1e4, 1e6, 1e8):
            with warnings.catch_warnings():
                # truncated probes of a possibly improper integral, on purpose
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                v, _ = integrate.quad(lambda s: 1.0 / float(self.ell(s)), 1.0, S,
                                      limit=200)
            vals.append(v)
        incr = np.diff(vals)
        if incr[-1] < 1e-3 * max(incr[0], 1e-300):
            warnings.warn("declared ell grows too fast: int_1^inf ds/ell(s) "
                          "appears to converge", NonOsgoodWarning)

    def gamma(self, s) -> np.ndarray:
        """Gamma(s), vectorized; s >= the lower terminal 1 is not required."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s_arr)
        for i, si in enumerate(s_arr):
            val, _ = integrate.quad(
                lambda r: 1.0 / (2.0 * float(self.ell(self.C + self.C * r))),
                1.0, float(si), limit=200)
            out[i] = val
        return out if np.asarray(s).ndim else float(out[0])

    def curve(self, t) -> np.ndarray:
        """Envelope value(s) at time(s) t by bisection on Gamma."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t_arr)
        g_eta = self.gamma(self.eta_T)
        for i, ti in enumerate(t_arr):
            target = g_eta + float(ti)
            lo, hi = self.eta_T, max(2.0 * self.eta_T, 2.0)
            guard = 0
            while self.gamma(hi) < target:
                hi *= 2.0
                guard += 1
                if hi > 1e15 or guard > 60:
                    raise IterationError("Bihari inverse exceeded expansion cap; "
                                         "ell may not satisfy the Osgood condition")
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if self.gamma(mid) < target:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-12 * max(1.0, hi):
                    break
            out[i] = 0.5 * (lo + hi)
        return out if np.asarray(t).ndim else float(out[0])


def bihari_bound(ell: Callable, h: Optional[Callable], eta_T: float, T: float,
                 C_env: float) -> BihariBound:
    """Construct the a-priori envelope object (see BihariBound)."""
    return BihariBound(ell, h, eta_T, T, C_env)


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
    m, d = model.m, model.d
    E2 = _expm(model.A2 * h_step)
    eta_y = noise.eta[:, :, m:]
    P = ens.n_paths
    xi = np.zeros((P, n_steps + 1, d))
    for i in range(n_steps):
        xi[:, i + 1, :] = xi[:, i, :] @ E2.T + eta_y[:, i, :]
    Ytil = ens.Y - xi
    til_sq = np.sum(Ytil ** 2, axis=-1)
    sup_sq = np.maximum.accumulate(til_sq, axis=1)
    Xsq = np.sum(ens.X ** 2, axis=-1)
    C = np.max((Xsq + sup_sq) / (1.0 + sup_sq), axis=1)
    C = np.maximum(C, 1.0) + 1e-6
    eta = np.sum(Ytil[:, 0, :] ** 2, axis=-1) + 2.0 * np.trapezoid(
        np.asarray(b.h(np.linalg.norm(xi, axis=-1)), dtype=float), times, axis=1)
    eta = np.maximum(eta, 1e-12)

    margins = np.empty(P)
    for p in range(P):
        g_eta = _gamma_gl(b.ell, float(C[p]), np.array([eta[p]]))[0]
        gvals = _gamma_gl(b.ell, float(C[p]), sup_sq[p])
        margins[p] = float(np.min(g_eta + times - gvals))
    n_blow = int(np.sum(np.isfinite(ens.blowup_times)))
    return EnvelopeReport(eta_T=eta, C_env=C, margins=margins, n_blowups=n_blow,
                          sup_tilde_sq=sup_sq, times=times)


def _gamma_gl(ell: Callable, C: float, s: np.ndarray, n_gl: int = 8) -> np.ndarray:
    """Gamma at a nondecreasing array of points by cumulative Gauss-Legendre.

    Gamma(s) = int_1^s dr / (2 ell(C + C r)); segments between consecutive
    points (prepended with the terminal 1) are integrated with a fixed rule,
    which is plenty for the smooth monotone integrand.
    """
    s = np.asarray(s, dtype=float)
    edges = np.concatenate([[1.0], s])
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_gl)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * gl_x[None, :]
    vals = 1.0 / (2.0 * np.asarray(ell(C + C * nodes), dtype=float))
    segs = half * np.sum(gl_w[None, :] * vals, axis=1)
    return np.cumsum(segs)
