"""Model definitions: continuity moduli, spectral operator data, and drifts.

The state space is a product R^m x R^d.  The linear part is described by a
block system

    dX = (A1 X + B Y) dt
    dY = (A2 Y) dt + sigma dW

and the structural hypotheses validated here are

    H1: sigma sigma* invertible (uniformly on the sampled time window),
    H2: B B* invertible and B e^{t A2} = e^{t A1} e^{t A0} B for a bounded A0,
    H3: -A2 self-adjoint with discrete spectrum 0 < l_1 <= l_2 <= ... and
        sum_i l_i^{delta-1} < infinity for some delta in (0,1),
    H4: the spectral projections commute with B and A1 above some level n0.

Drifts carry their declared regularity: Holder exponent alpha in the first
component and a continuity modulus phi in the second, plus growth data
(ell, h) for dissipation experiments.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from .errors import CapabilityError, HypothesisViolationError, InvalidModulusError
from .streams import substream

__all__ = [
    "Modulus",
    "ModulusClassReport",
    "PowerTail",
    "SpectralModel",
    "HypothesisCheck",
    "HypothesisReport",
    "DriftSpec",
    "phi_squared_midpoint_concave",
    "dini_integral",
    "classify_modulus",
    "validate_hypotheses",
    "validate_drift_regularity",
    "build_example",
    "build_drift",
]


# ---------------------------------------------------------------------------
# Continuity moduli


@dataclass(frozen=True)
class Modulus:
    """A continuity modulus s -> phi(s) on [0, infinity) with phi(0) = 0.

    Built-in families:
      power:      phi(s) = K * s**alpha
      log_power:  phi(s) = K / log(c + 1/s)**(1 + r)
      log_sqrt:   phi(s) = K / sqrt(log(c + 1/s))
      custom:     user evaluator (vectorized, phi(0) = 0)
    """

    family: str
    K: float = 1.0
    c: float = math.e
    r: float = 1.0
    alpha: float = 0.5
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.family not in ("power", "log_power", "log_sqrt", "custom"):
            raise InvalidModulusError(f"unknown modulus family {self.family!r}")
        if self.K <= 0:
            raise InvalidModulusError("K must be positive")
        if self.family == "power" and not 0 < self.alpha <= 1:
            raise InvalidModulusError("power modulus needs alpha in (0, 1]")
        if self.family in ("log_power", "log_sqrt") and self.c < math.e:
            raise InvalidModulusError("log moduli need c >= e")
        if self.family == "log_power" and self.r <= 0:
            raise InvalidModulusError("log_power modulus needs r > 0")
        if self.family == "custom" and self.fn is None:
            raise InvalidModulusError("custom modulus needs an evaluator")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "power":
            return self.K * np.power(s, self.alpha)
        if self.family == "custom":
            return np.asarray(self.fn(s), dtype=float)
        # log families: phi(0) = 0 by continuity
        out = np.zeros_like(s)
        pos = s > 0
        ls = np.log(self.c + 1.0 / s[pos]) if s[pos].size else np.array([])
        if self.family == "log_power":
            val = self.K / ls ** (1.0 + self.r)
        else:
            val = self.K / np.sqrt(ls)
        out[pos] = val
        return out

    @classmethod
    def power(cls, K: float, alpha: float) -> "Modulus":
        return cls(family="power", K=K, alpha=alpha)

    @classmethod
    def log_power(cls, K: float, c: float, r: float) -> "Modulus":
        return cls(family="log_power", K=K, c=c, r=r)

    @classmethod
    def log_sqrt(cls, K: float, c: float) -> "Modulus":
        return cls(family="log_sqrt", K=K, c=c)

    @classmethod
    def custom(cls, fn: Callable, K: float) -> "Modulus":
        return cls(family="custom", K=K, fn=fn)


def _check_modulus_valid(phi: Modulus, tol: float = 1e-12) -> None:
    """Positivity and monotonicity on a geometric sample grid."""
    grid = np.geomspace(1e-8, 1.0, 64)
    vals = phi(grid)
    if not np.all(np.isfinite(vals)):
        raise InvalidModulusError("modulus evaluates to non-finite values")
    if np.any(vals <= 0):
        raise InvalidModulusError("modulus must be strictly positive on (0, 1]")
    if np.any(np.diff(vals) < -tol * max(1.0, float(vals[-1]))):
        raise InvalidModulusError("modulus must be nondecreasing")
    z = float(phi(np.array(0.0)))
    if abs(z) > tol:
        raise InvalidModulusError("modulus must vanish at 0")


def phi_squared_midpoint_concave(phi: Modulus) -> bool:
    """Midpoint-concavity of phi^2, to 1e-10, over all pairs (a, b) of 64
    geometric points in [1e-6, 1]."""
    grid = np.geomspace(1e-6, 1.0, 64)
    sq = phi(grid) ** 2
    a = grid[:, None]
    b = grid[None, :]
    mid = phi((a + b) / 2.0) ** 2
    lhs = mid
    rhs = (sq[:, None] + sq[None, :]) / 2.0
    return bool(np.all(lhs >= rhs - 1e-10))


def dini_integral(phi: Modulus, quad_floor: float) -> float:
    """Numerical integral of phi(s)/s over [quad_floor, 1]."""
    from scipy import integrate
    val, _ = integrate.quad(lambda s: float(phi(np.array(s))) / s, quad_floor, 1.0,
                            limit=200)
    return float(val)


@dataclass(frozen=True)
class ModulusClassReport:
    in_D0: bool
    in_D1: bool
    in_D2: bool
    dini_integral_value: float
    dini_finite: Optional[bool]
    concave_sq: bool
    heuristic: bool
    note: str = ""


def _custom_dini_verdict(phi: Modulus, quad_floor: float) -> tuple[Optional[bool], bool]:
    """Heuristic finiteness of the Dini integral by truncation growth.

    Fits the truncated integral against log(1/floor); a vanishing growth rate
    between the last decades indicates convergence.  Verdicts from this path
    are labelled heuristic.
    """
    floors = [quad_floor, quad_floor / 10.0, quad_floor / 100.0, quad_floor / 1000.0]
    vals = [dini_integral(phi, q) for q in floors]
    increments = np.diff(vals)
    if increments[-1] < 1e-12:
        return True, True
    # ratio of successive per-decade increments; << 1 means summable decades
    ratio = increments[-1] / max(increments[0], 1e-300)
    return bool(ratio < 0.5), True


def _custom_d2_verdict(phi: Modulus, quad_floor: float) -> bool:
    """Heuristic divergence of the D2 integral for custom moduli.

    Computes J(eps) = int_eps^1 dt / (t (1 + int_t^1 phi/s ds)^2) for a
    shrinking set of cutoffs and checks that the per-decade increments do not
    decay geometrically (divergence means roughly constant increments).
    """
    from scipy import integrate

    def inner(t):
        return 1.0 + dini_integral(phi, t)

    def outer(eps):
        val, _ = integrate.quad(lambda t: 1.0 / (t * inner(t) ** 2), eps, 1.0,
                                limit=100)
        return val

    floors = [1e-2, 1e-3, 1e-4, 1e-5]
    vals = [outer(e) for e in floors]
    increments = np.diff(vals)
    return bool(increments[-1] > 0.25 * increments[0])


def classify_modulus(phi: Modulus, quad_floor: float) -> ModulusClassReport:
    """Classify a modulus into the D0 / D1 / D2 hierarchy.

    D0: increasing, phi(0) = 0, positive.
    D1: D0 + phi^2 concave + finite Dini integral int_0^1 phi(s)/s ds.
    D2: D0 + phi^2 concave + divergent int_0^1 dt / (t (1 + int_t^1 phi/s)^2).

    Built-in families are decided by closed-form asymptotics; custom tables by
    truncation-growth extrapolation (flagged heuristic).  The divergence
    conditions cannot be decided by finite quadrature alone.
    """
    if not 0 < quad_floor <= 1e-3:
        raise ValueError("quad_floor must lie in (0, 1e-3]")
    _check_modulus_valid(phi)
    concave = phi_squared_midpoint_concave(phi)
    value = dini_integral(phi, quad_floor)

    heuristic = False
    note = ""
    if phi.family == "power":
        dini_finite = True
        d2_divergent = True  # bounded Dini tail -> integrand ~ c/t
        note = "closed form: integral of s^(a-1) converges for a > 0"
    elif phi.family == "log_power":
        dini_finite = True
        d2_divergent = True
        note = "closed form: integral of 1/(s log^(1+r)) converges (r > 0)"
    elif phi.family == "log_sqrt":
        dini_finite = False
        d2_divergent = True  # inner integral ~ 2K sqrt(log(1/t)); outer ~ du/u
        note = "closed form: Dini integral diverges like sqrt(log); D2 condition holds"
    else:
        dini_finite, heuristic = _custom_dini_verdict(phi, quad_floor)
        d2_divergent = True if dini_finite else _custom_d2_verdict(phi, quad_floor)
        note = "custom family: verdicts extrapolated from truncation growth (heuristic)"

    in_d1 = bool(concave and dini_finite)
    in_d2 = bool(concave and d2_divergent)
    return ModulusClassReport(
        in_D0=True,
        in_D1=in_d1,
        in_D2=in_d2,
        dini_integral_value=value,
        dini_finite=dini_finite,
        concave_sq=concave,
        heuristic=heuristic,
        note=note,
    )


# ---------------------------------------------------------------------------
# Spectral models


@dataclass(frozen=True)
class PowerTail:
    """Analytic eigenvalue tail rule lambda_i = coef * i**exponent for i > d."""

    coef: float
    exponent: float

    def tail_sum(self, delta: float, start: int) -> float:
        """sum_{i >= start} lambda_i^{delta-1} via the Hurwitz zeta function."""
        from scipy.special import zeta
        p = self.exponent * (1.0 - delta)
        if p <= 1.0:
            return math.inf
        return float(self.coef ** (delta - 1.0) * zeta(p, start))

    def converges(self, delta: float) -> bool:
        return self.exponent * (1.0 - delta) > 1.0


@dataclass(frozen=True)
class SpectralModel:
    """Finite truncation of the degenerate linear system.

    sigma may be a constant (d x k) matrix or a callable t -> matrix; time
    dependence enters only through sampling at quadrature nodes.  Models in
    the spectral family additionally declare the eigenvalues of -A2 and,
    optionally, an analytic tail rule used by Hilbert-Schmidt diagnostics.
    """

    m: int
    d: int
    A1: np.ndarray
    A2: np.ndarray
    B: np.ndarray
    A0: np.ndarray
    sigma: object  # ndarray or callable t -> ndarray
    delta: float = 0.5
    eigenvalues: Optional[np.ndarray] = None
    tail: Optional[PowerTail] = None
    name: str = ""

    def __post_init__(self):
        for attr in ("A1", "A2", "B", "A0"):
            object.__setattr__(self, attr, np.atleast_2d(np.asarray(getattr(self, attr), dtype=float)))
        if self.A1.shape != (self.m, self.m):
            raise ValueError(f"A1 must be {self.m}x{self.m}")
        if self.A2.shape != (self.d, self.d):
            raise ValueError(f"A2 must be {self.d}x{self.d}")
        if self.B.shape != (self.m, self.d):
            raise ValueError(f"B must be {self.m}x{self.d}")
        if self.A0.shape != (self.m, self.m):
            raise ValueError(f"A0 must be {self.m}x{self.m}")
        if not callable(self.sigma):
            object.__setattr__(self, "sigma", np.atleast_2d(np.asarray(self.sigma, dtype=float)))
            if self.sigma.shape[0] != self.d:
                raise ValueError("sigma must have d rows")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.eigenvalues is not None:
            object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))

    # -- basic geometry ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.m + self.d

    @property
    def k(self) -> int:
        return self.sigma_at(0.0).shape[1]

    @property
    def sigma_constant(self) -> bool:
        return not callable(self.sigma)

    def sigma_at(self, t: float) -> np.ndarray:
        if callable(self.sigma):
            return np.atleast_2d(np.asarray(self.sigma(t), dtype=float))
        return self.sigma

    def block_operator(self) -> np.ndarray:
        """The (m+d)x(m+d) generator [[A1, B], [0, A2]]."""
        A = np.zeros((self.dim, self.dim))
        A[: self.m, : self.m] = self.A1
        A[: self.m, self.m:] = self.B
        A[self.m:, self.m:] = self.A2
        return A

    def noise_matrix(self, t: float) -> np.ndarray:
        """(m+d)x(m+d) diffusion matrix injecting sigma sigma* into the Y block."""
        s = self.sigma_at(t)
        N = np.zeros((self.dim, self.dim))
        N[self.m:, self.m:] = s @ s.T
        return N

    def injection(self) -> np.ndarray:
        """(m+d) x d injection of the Y block."""
        inj = np.zeros((self.dim, self.d))
        inj[self.m:, :] = np.eye(self.d)
        return inj

    @property
    def is_spectral_family(self) -> bool:
        if self.eigenvalues is None:
            return False
        return bool(np.allclose(self.A2, -np.diag(self.eigenvalues)))


# ---------------------------------------------------------------------------
# Hypothesis validation


@dataclass(frozen=True)
class HypothesisCheck:
    label: str
    description: str
    passed: bool
    measured: float
    threshold: float
    note: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple
    model_name: str = ""

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, label: str) -> HypothesisCheck:
        for c in self.checks:
            if c.label == label:
                return c
        raise KeyError(label)


def _min_sv(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of one (k, k) matrix or a stack (n, k, k), with an
    elementwise fast path when every matrix is diagonal."""
    M = np.asarray(M, dtype=float)
    if M.shape == (1, 1):
        return np.array([[math.exp(M[0, 0])]])
    k = M.shape[-1]
    if not np.any(M[..., ~np.eye(k, dtype=bool)]):
        out = np.zeros_like(M)
        i = np.arange(k)
        out[..., i, i] = np.exp(M[..., i, i])
        return out
    return expm(M)


# sampled times, singular-value floor and intertwining tolerance of the
# hypothesis checks
_HYPOTHESIS_TIMES = (0.1, 0.5, 1.0)
_SV_FLOOR = 1e-10
_INTERTWINE_TOL = 1e-8


def validate_hypotheses(model: SpectralModel) -> HypothesisReport:
    """Report pass/fail with measured residuals for H1-H4 on a truncation.

    Report-only: never raises.  Spectral positivity / tail summability in H3
    is enforced only when the model declares eigenvalues or a tail rule;
    otherwise the finite truncation makes the sum trivially finite.
    """
    checks = []

    # H1: sigma sigma* invertible on sampled times
    svs = [_min_sv(model.sigma_at(t) @ model.sigma_at(t).T)
           for t in (0.0, *_HYPOTHESIS_TIMES)]
    h1 = min(svs)
    checks.append(HypothesisCheck(
        "H1", "smallest singular value of sigma sigma* over sampled t",
        h1 >= _SV_FLOOR, h1, _SV_FLOOR))

    # H2: BB* invertible + intertwining residual
    bb = _min_sv(model.B @ model.B.T)
    checks.append(HypothesisCheck(
        "H2", "smallest singular value of B B*", bb >= _SV_FLOOR, bb, _SV_FLOOR))
    resid = 0.0
    for t in _HYPOTHESIS_TIMES:
        lhs = model.B @ _expm(t * model.A2)
        rhs = _expm(t * model.A1) @ _expm(t * model.A0) @ model.B
        resid = max(resid, float(np.linalg.norm(lhs - rhs, 2)))
    checks.append(HypothesisCheck(
        "H2-intertwine", "residual of B e^{tA2} = e^{tA1} e^{tA0} B",
        resid <= _INTERTWINE_TOL, resid, _INTERTWINE_TOL))

    # H3: -A2 self-adjoint, ordered spectrum, summability
    sym = float(np.linalg.norm(model.A2 - model.A2.T, 2))
    checks.append(HypothesisCheck(
        "H3-symmetric", "asymmetry of A2", sym <= 1e-10, sym, 1e-10))
    lams = np.sort(np.linalg.eigvalsh(-(model.A2 + model.A2.T) / 2.0))
    if model.eigenvalues is not None or model.tail is not None:
        lam_min = float(lams[0]) if lams.size else 0.0
        checks.append(HypothesisCheck(
            "H3-spectrum", "smallest eigenvalue of -A2 (declared spectral family)",
            lam_min > 0.0, lam_min, 0.0))
        if model.eigenvalues is not None:
            mismatch = float(np.max(np.abs(np.sort(model.eigenvalues) - lams))) if lams.size else 0.0
            checks.append(HypothesisCheck(
                "H3-declared", "declared eigenvalues match eig(-A2)",
                mismatch <= 1e-8, mismatch, 1e-8))
        if model.tail is not None:
            ok = model.tail.converges(model.delta)
            tail = model.tail.tail_sum(model.delta, model.d + 1)
            checks.append(HypothesisCheck(
                "H3-tail", "analytic tail sum of lambda_i^(delta-1) converges",
                ok and math.isfinite(tail), tail if math.isfinite(tail) else math.inf,
                math.inf,
                note=f"delta={model.delta}"))
    else:
        checks.append(HypothesisCheck(
            "H3-spectrum", "finite truncation: summability trivial, spectral "
            "positivity not required without a declared tail", True,
            float(lams[0]) if lams.size else 0.0, 0.0,
            note="finite-dimensional model"))

    # H4: projection commutation pi1 B = B pi2, pi1 A1 = A1 pi1 above some n0
    best_n0 = None
    worst = 0.0
    for n0 in range(1, model.d + 1):
        ok = True
        local_worst = 0.0
        for n in range(n0, model.d + 1):
            p2 = np.zeros((model.d, model.d))
            p2[:n, :n] = np.eye(n)
            bn = model.B[:, :n]
            if _min_sv(bn.T @ bn) > 1e-13:
                q, _ = np.linalg.qr(bn)
                p1 = q @ q.T
            else:
                p1 = np.zeros((model.m, model.m))
            r1 = float(np.linalg.norm(p1 @ model.B - model.B @ p2, 2))
            r2 = float(np.linalg.norm(p1 @ model.A1 - model.A1 @ p1, 2))
            local_worst = max(local_worst, r1, r2)
            if max(r1, r2) > _INTERTWINE_TOL:
                ok = False
                break
        if ok:
            best_n0 = n0
            worst = local_worst
            break
    checks.append(HypothesisCheck(
        "H4", "projection commutation residual above level n0",
        best_n0 is not None, worst if best_n0 is not None else math.inf,
        _INTERTWINE_TOL,
        note=f"n0={best_n0}" if best_n0 is not None else "no admissible n0"))

    return HypothesisReport(checks=tuple(checks), model_name=model.name)


# ---------------------------------------------------------------------------
# Drift specifications


@dataclass(frozen=True)
class DriftSpec:
    """Drift b_t(x, y) in R^d with declared regularity and growth data.

    fn must accept batched arrays: x of shape (..., m), y of shape (..., d)
    and return shape (..., d).  ``bound`` is None for unbounded drifts.
    ``ell``/``h`` are nondecreasing positive scalar evaluators used by the
    dissipation experiments; ``h`` is consumed only when measuring the noise
    envelope (the growth condition itself involves only ``ell``).
    """

    fn: Callable
    m: int
    d: int
    alpha: float
    phi: Modulus
    K: float
    bound: Optional[float] = None
    ell: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.K <= 0:
            raise ValueError("K must be positive")

    def __call__(self, t, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.asarray(self.fn(t, x, y), dtype=float)
        want = y.shape if y.ndim else (self.d,)
        return np.broadcast_to(out, want).astype(float) if out.shape != want else out


def validate_drift_regularity(b: DriftSpec, ball_radius: float, n_samples: int,
                              seed: int) -> float:
    """Max over sampled pairs of |b(z)-b(z')| - K|x-x'|^a - phi(|y-y'|), at
    times uniform in [0, 1].

    Negative or tiny positive values are consistent with the declaration.
    Pairs are drawn sequentially from one substream, so doubling n_samples
    extends the sampled set (the reported max can only grow).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = substream(seed, "model", "drift-regularity")
    dim = b.m + b.d
    worst = -math.inf
    block = 4096
    done = 0
    while done < n_samples:
        n = min(block, n_samples - done)
        t = rng.uniform(0.0, 1.0, size=n)
        # two points per pair, uniform in the centered ball of the given radius
        pts = rng.standard_normal(size=(2 * n, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        radii = ball_radius * rng.uniform(0.0, 1.0, size=(2 * n, 1)) ** (1.0 / dim)
        pts = pts * radii
        z, zp = pts[:n], pts[n:]
        bx = b(t, z[:, : b.m], z[:, b.m:])
        bxp = b(t, zp[:, : b.m], zp[:, b.m:])
        lhs = np.linalg.norm(bx - bxp, axis=-1)
        dx = np.linalg.norm(z[:, : b.m] - zp[:, : b.m], axis=-1)
        dy = np.linalg.norm(z[:, b.m:] - zp[:, b.m:], axis=-1)
        rhs = b.K * dx ** b.alpha + b.phi(dy)
        worst = max(worst, float(np.max(lhs - rhs)))
        done += n
    return worst


# ---------------------------------------------------------------------------
# Built-in examples


def _wave_eigenvalues(n_modes: int, theta: float, d_space: int) -> np.ndarray:
    """Leading Dirichlet-Laplacian eigenvalues on the unit box, raised to
    theta: |k|^2 pi^2 over multi-indices k >= 1, the least off a heap grown
    from (1, ..., 1), about n_modes * d_space entries."""
    if d_space == 1:
        base = (np.arange(1, n_modes + 1) * math.pi) ** 2
    else:
        start = (1,) * d_space
        heap, seen, sums = [(d_space, start)], {start}, []
        while len(sums) < n_modes:
            total, k = heapq.heappop(heap)
            sums.append(total)
            for j in range(d_space):
                up = k[:j] + (k[j] + 1,) + k[j + 1:]
                if up not in seen:
                    seen.add(up)
                    heapq.heappush(heap, (total + 2 * k[j] + 1, up))
        base = np.array(sums, dtype=float) * math.pi ** 2
    return base ** theta


def build_example(kind: str, **params):
    """Construct a built-in (SpectralModel, DriftSpec) pair.

    kinetic:       A1 = A2 = 0 (d x d), B = I, A0 = 0, sigma = I by default.
    second_order:  reformulated first-order system with A2 = -I, A0 = -(I + A)
                   and drift b + y, equivalent to the plain second-order SDE.
    wave:          spectral family lambda_i = (i pi)^{2 theta} on (0, 1) with
                   A1 = A2 = -diag(lambda), B = sigma = I, A0 = 0; requires
                   theta > d_space/2 and delta < 1 - d_space/(2 theta).
    """
    drift_tag = params.pop("drift", "zero")
    drift_params = params.pop("drift_params", {})

    if kind == "kinetic":
        d = int(params.pop("d", 1))
        sigma = np.atleast_2d(np.asarray(params.pop("sigma", np.eye(d)), dtype=float))
        delta = float(params.pop("delta", 0.5))
        model = SpectralModel(
            m=d, d=d,
            A1=np.zeros((d, d)), A2=np.zeros((d, d)),
            B=np.eye(d), A0=np.zeros((d, d)),
            sigma=sigma, delta=delta, name="kinetic",
        )
        drift = build_drift(drift_tag, m=d, d=d, **drift_params)

    elif kind == "second_order":
        d = int(params.pop("d", 1))
        A = np.atleast_2d(np.asarray(params.pop("A", np.zeros((d, d))), dtype=float))
        sigma = np.atleast_2d(np.asarray(params.pop("sigma", np.eye(d)), dtype=float))
        delta = float(params.pop("delta", 0.5))
        model = SpectralModel(
            m=d, d=d,
            A1=A, A2=-np.eye(d),
            B=np.eye(d), A0=-(np.eye(d) + A),
            sigma=sigma, delta=delta,
            eigenvalues=np.ones(d), name="second_order",
        )
        base = build_drift(drift_tag, m=d, d=d, **drift_params)
        # the reformulation replaces b by b + y; the y-term is 1-Lipschitz
        wrapped_phi = Modulus.custom(lambda s, p=base.phi: p(s) + np.asarray(s, dtype=float),
                                     K=base.phi.K)
        drift = replace(
            base,
            fn=lambda t, x, y, f=base.fn: np.asarray(f(t, x, y), dtype=float) + y,
            phi=wrapped_phi, bound=None,
            name=base.name + "+identity",
        )

    elif kind == "wave":
        theta = float(params.pop("theta"))
        d_space = int(params.pop("d_space", 1))
        n_modes = int(params.pop("n", 8))
        if theta <= d_space / 2.0:
            raise HypothesisViolationError(
                "H3", f"wave model needs theta > d_space/2 = {d_space / 2}, got {theta}")
        delta_cap = 1.0 - d_space / (2.0 * theta)
        delta = float(params.pop("delta", 0.8 * delta_cap))
        if not 0.0 < delta < delta_cap:
            raise HypothesisViolationError(
                "H3", f"wave model needs delta in (0, {delta_cap:.4f}), got {delta}")
        lam = _wave_eigenvalues(n_modes, theta, d_space)
        tail = PowerTail(coef=float(lam[-1] / n_modes ** (2.0 * theta / d_space)),
                         exponent=2.0 * theta / d_space)
        model = SpectralModel(
            m=n_modes, d=n_modes,
            A1=-np.diag(lam), A2=-np.diag(lam),
            B=np.eye(n_modes), A0=np.zeros((n_modes, n_modes)),
            sigma=np.eye(n_modes), delta=delta,
            eigenvalues=lam, tail=tail, name=f"wave(theta={theta})",
        )
        drift = build_drift(drift_tag, m=n_modes, d=n_modes, **drift_params)

    else:
        raise ValueError(f"unknown example kind {kind!r}")
    if params:
        raise ValueError(f"{kind} example does not read {', '.join(sorted(params))}")
    return model, drift


def build_drift(tag: str, m: int, d: int, **kw) -> DriftSpec:
    """Built-in drift families with honestly declared regularity data."""
    if tag == "zero":
        spec = DriftSpec(
            fn=lambda t, x, y: np.zeros_like(y),
            m=m, d=d, alpha=0.75, phi=Modulus.power(1.0, 0.5), K=1.0,
            bound=0.0,
            ell=lambda s: 1.0 + 0.0 * np.asarray(s, dtype=float),
            h=lambda s: 1.0 + 0.0 * np.asarray(s, dtype=float),
            name="zero")

    elif tag == "constant":
        c = np.asarray(kw.pop("value", np.ones(d)), dtype=float)
        if c.shape != (d,):
            c = np.full(d, float(c))

        def fn(t, x, y):
            # a filled array costs less per call than a broadcast view
            out = np.empty(y.shape)
            out[...] = c
            return out
        spec = DriftSpec(
            fn=fn,
            m=m, d=d, alpha=0.75, phi=Modulus.power(1.0, 0.5), K=1.0,
            bound=float(np.linalg.norm(c)),
            ell=lambda s: float(np.linalg.norm(c)) ** 2 / 2.0 + 0.5 + 0.5 * np.asarray(s, dtype=float),
            h=lambda s: 1.0 + 0.0 * np.asarray(s, dtype=float),
            name="constant")

    elif tag == "dissipative":
        # b(x, y) = -y + cos(x~): <b(x, y+y'), y> <= (1+|x|^2+|y|^2)/2 + (1+|y'|^2)/2
        def fn(t, x, y):
            xa = x[..., :d] if x.shape[-1] >= d else np.broadcast_to(x, y.shape)
            return -y + np.cos(xa)
        spec = DriftSpec(
            fn=fn, m=m, d=d, alpha=0.75, phi=Modulus.power(1.0, 1.0), K=1.0,
            bound=None,
            ell=lambda s: 0.5 * (1.0 + np.asarray(s, dtype=float)),
            h=lambda s: 0.5 * (1.0 + np.asarray(s, dtype=float) ** 2),
            name="dissipative")

    elif tag == "rough_d1":
        # componentwise |x|^0.75 sign(x) + sqrt(2|y|) sign(y); phi = sqrt(2 s) in D1
        def fn(t, x, y):
            xa = x[..., :d] if x.shape[-1] >= d else np.broadcast_to(x, y.shape)
            return (np.sign(xa) * np.abs(xa) ** 0.75
                    + np.sign(y) * np.sqrt(2.0 * np.abs(y)))
        spec = DriftSpec(
            fn=fn, m=m, d=d, alpha=0.75, phi=Modulus.power(2.0, 0.5), K=2.0,
            bound=None,
            ell=lambda s: 1.0 + 2.0 * np.asarray(s, dtype=float),
            h=lambda s: 1.0 + np.asarray(s, dtype=float) ** 2,
            name="rough_d1")

    elif tag == "rough_y":
        # sqrt-modulus roughness in y only; constant in x (trivially Holder)
        def fn(t, x, y):
            return np.sign(y) * np.sqrt(2.0 * np.abs(y))
        spec = DriftSpec(
            fn=fn, m=m, d=d, alpha=0.75, phi=Modulus.power(2.0, 0.5), K=1.0,
            bound=None,
            ell=lambda s: 1.0 + 2.0 * np.asarray(s, dtype=float),
            h=lambda s: 1.0 + np.asarray(s, dtype=float) ** 2,
            name="rough_y")

    elif tag == "tanh_steep":
        kappa = float(kw.pop("kappa", 64.0))
        amp = float(kw.pop("amp", 1.0))
        spec = DriftSpec(
            fn=lambda t, x, y: amp * np.tanh(kappa * y),
            m=m, d=d, alpha=0.75, phi=Modulus.power(max(1.0, amp * math.sqrt(kappa)), 0.5),
            K=1.0, bound=amp * math.sqrt(d),
            ell=lambda s: amp ** 2 / 2.0 + 0.5 + 0.5 * np.asarray(s, dtype=float),
            h=lambda s: 1.0 + 0.0 * np.asarray(s, dtype=float),
            name=f"tanh_steep(kappa={kappa})")

    else:
        raise ValueError(f"unknown drift family {tag!r}")
    if kw:
        raise ValueError(f"drift family {tag!r} does not read {', '.join(sorted(kw))}")
    return spec
