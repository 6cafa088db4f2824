"""Derivative machinery for the degenerate linear semigroup.

The degenerate direction is steered through the controllability Gramian

    Q_t = int_0^t u (t-u) e^{u A0} B B* e^{u A0*} du,

which is invertible for t > 0 with ||Q_t^{-1}|| = O(t^-3).  For a direction
v = (v1, v2) and a window [s, T] the control pair

    V = Q_{T-s}^{-1} [ v1 + int_s^T ((T-r)/(T-s)) e^{(r-s)A0} B v2 dr ],
    Phi(r) = e^{(r-s)A2} [ v2/(T-s)
             + d/dr{ (r-s)(T-r) B* e^{(r-s)A0*} } V ]

drives a coupled copy of the flow started at z + eps v back onto the
original path at time T.  Girsanov reweighting then yields the directional
derivative of the semigroup as a Monte-Carlo expectation

    grad_v P^0_{s,T} f (z) = E[ f(Z^0_{s,T})
                                int_s^T < sigma*(sigma sigma*)^{-1} Phi(r), dW_r > ],

with a second-order variant obtained by splitting the window at the midpoint
and transporting the outer direction along the linear flow.

The time derivative inside Phi is expanded analytically:
    d/dr{(r-s)(T-r) B* e^{(r-s)A0*}}
      = (T+s-2r) B* e^{(r-s)A0*} + (r-s)(T-r) B* A0* e^{(r-s)A0*}.

Q_t and the integral in V are polynomial-weighted convolutions of matrix
exponentials, so each is one block exponential (Van Loan's construction,
linear_flow._block_expm) rather than a quadrature.

The weight is discretized as the left-point Ito sum S = sum <h(r_i), dW_i>
on a uniform grid.  Both Z_T = E^N z + sum E^{N-1-i} eta_i and S are linear
in the same Gaussian increments, so (Z_T, S) is exactly jointly Gaussian.
Its mean and covariance are closed-form sums over the powers of the step
exponential E and the exact step kernels (one contraction per moment, no
loop over steps), and the estimators draw each path's terminal state and
weights from that law directly instead of stepping it through N kernels;
time-dependent sigma keeps its left-point kernels, so the law is that of
the stepped paths exactly.  The start z enters only the mean E^N z, so the
law (flows, Cholesky factors) is built once per set of windows and shared
by every start: scaling_exponent builds one per gap for all its probes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyWarning, HypothesisViolationError, SingularGramianError
from .linear_flow import _block_expm, _step_kernels, psd_sqrt
from .model import SpectralModel, _expm
from .streams import substream

__all__ = [
    "GramianResult",
    "ControlPair",
    "GradientEstimate",
    "CouplingReport",
    "ScalingFit",
    "gramian_Q",
    "perturbation_controls",
    "bismut_gradient",
    "bismut_hessian",
    "verify_coupling",
    "scaling_exponent",
    "transported_direction",
]


# ---------------------------------------------------------------------------
# Gramian


@dataclass(frozen=True)
class GramianResult:
    Q: np.ndarray
    Q_inv: np.ndarray
    cond: float
    bound_check: float
    sweep_t: np.ndarray
    sweep_ratio: np.ndarray


# the dyadic times 2^-6, ..., 1 of the t^3 inverse-norm sweep
GRAMIAN_SWEEP = tuple(2.0 ** (-j) for j in range(6, -1, -1))


def _gramian_blocks(model: SpectralModel, t: float):
    """(Q_t, W0, W1) from one exponential of the chain -A0, -A0, -A0, A0*
    (couplings I, I, B B*).

    With K(r) = e^{rA0} B B* e^{rA0*}, blocks (3, 4), (2, 4) and (1, 4)
    left-multiplied by e^{tA0} are W0 = int_0^t K(r) dr,
    W1 = int_0^t (t-r) K(r) dr and W2 = int_0^t (t-r)^2/2 K(r) dr, and
    r (t-r) = t (t-r) - (t-r)^2 gives Q_t = t W1 - 2 W2.  SingularGramianError
    if a stiff A0 overflows Q, W0 or W1 (blocks not read here may overflow).
    """
    m, A0 = model.m, model.A0
    I = np.eye(m)
    with np.errstate(over="ignore", invalid="ignore"):
        F = _block_expm([-A0, -A0, -A0, A0.T], [I, I, model.B @ model.B.T], t)
        EA0 = F[3 * m:, 3 * m:].T
        W1 = EA0 @ F[m:2 * m, 3 * m:]
        Q = t * W1 - 2.0 * (EA0 @ F[:m, 3 * m:])
        W0 = EA0 @ F[2 * m:3 * m, 3 * m:]
    if not all(np.isfinite(a).all() for a in (Q, W0, W1)):
        raise SingularGramianError(f"Gramian at t={t} overflows (stiff A0)")
    return (Q + Q.T) / 2.0, W0, W1


def _ramp_integrals(A0: np.ndarray, t: float):
    """(int_0^t e^{rA0} dr, int_0^t (t-r) e^{rA0} dr): blocks (1, 2) and
    (1, 3) of one exponential of the chain A0, 0, 0 (couplings I, I)."""
    m = A0.shape[0]
    F = _block_expm([A0, np.zeros((m, m)), np.zeros((m, m))], [np.eye(m), np.eye(m)], t)
    return F[:m, m:2 * m], F[:m, 2 * m:]


def gramian_Q(model: SpectralModel, t: float) -> GramianResult:
    """Q_t in closed form (one block exponential), its inverse, and the t^3
    inverse-norm sweep over ``GRAMIAN_SWEEP``.

    bound_check = sup over the dyadic sweep of ||Q_t^{-1}|| t^3 (bounded for
    an invertible B B*; equals 6 exactly in the scalar A0 = 0, B = 1 case).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    Q = _gramian_blocks(model, t)[0]
    svals = np.linalg.svd(Q, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if not math.isfinite(cond) or cond > 1e14:
        raise SingularGramianError(
            f"Gramian at t={t} numerically singular (cond={cond:.3e})")
    Q_inv = np.linalg.inv(Q)
    ts = np.array(GRAMIAN_SWEEP)
    ratios = []
    for tj in ts:
        Qj = _gramian_blocks(model, float(tj))[0]
        inv_norm = 1.0 / float(np.linalg.svd(Qj, compute_uv=False)[-1])
        ratios.append(inv_norm * tj ** 3)
    ratios = np.asarray(ratios)
    return GramianResult(Q=Q, Q_inv=Q_inv, cond=cond,
                         bound_check=float(np.max(ratios)),
                         sweep_t=ts, sweep_ratio=ratios)


# ---------------------------------------------------------------------------
# Perturbation controls


def _right_inverse(sig: np.ndarray, r: float) -> np.ndarray:
    """sigma* (sigma sigma*)^{-1}, shape (k, d); raises H1 where sigma sigma*
    is singular."""
    gram = sig @ sig.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] < 1e-12 * max(1.0, sv[0]):
        raise HypothesisViolationError("H1", f"sigma sigma* singular at r={r}")
    return np.linalg.solve(gram, sig).T


@dataclass(frozen=True)
class ControlPair:
    """Steering vector V and control Phi for a window [s, T] and direction v."""

    V: np.ndarray
    s: float
    T: float
    v1: np.ndarray
    v2: np.ndarray
    model: SpectralModel

    def phi(self, r) -> np.ndarray:
        """Phi(r) in R^d; accepts scalar or 1-d array r, returns (..., d)."""
        rs = np.atleast_1d(np.asarray(r, dtype=float))
        s, T = self.s, self.T
        model = self.model
        u = (rs - s)[:, None, None]
        EV = _expm(u * model.A0.T) @ self.V
        core = self.v2 / (T - s) + (
            (T + s - 2.0 * rs)[:, None] * EV
            + ((rs - s) * (T - rs))[:, None] * (EV @ model.A0)) @ model.B
        out = np.einsum("nij,nj->ni", _expm(u * model.A2), core)
        return out[0] if np.ndim(r) == 0 else out

    def weight_vector(self, r) -> np.ndarray:
        """sigma_r* (sigma_r sigma_r*)^{-1} Phi(r) in R^k."""
        rs = np.atleast_1d(np.asarray(r, dtype=float))
        phis = self.phi(rs)
        model = self.model
        if model.sigma_constant:
            out = phis @ _right_inverse(model.sigma, rs[0]).T
        else:
            out = np.stack([_right_inverse(model.sigma_at(ri), ri) @ p
                            for ri, p in zip(rs, phis)])
        return out[0] if np.ndim(r) == 0 else out

    def coupled_difference(self, t: float):
        """Deterministic (per unit eps) coupled differences at time t.

        Returns (dX, dY) from the Duhamel formulas in closed form; both vanish
        at t = T (terminal coincidence).  With w = t - s and tau = T - s, Phi
        is e^{(r-s)A2} times a derivative, so
        dY = e^{wA2} [(T-t)/tau v2 - w (T-t) B* e^{wA0*} V], and
        dX = e^{wA1} (v1 + P B v2 / tau - R V) with
        P = int_0^w (tau-r) e^{rA0} dr and R = int_0^w r (tau-r) K(r) dr
          = (tau-w) (w W0 - W1) + Q_w  (see _gramian_blocks).
        """
        model, s, T = self.model, self.s, self.T
        w, tau = t - s, T - s
        dY = _expm(w * model.A2) @ ((T - t) / tau * self.v2 - w * (T - t) * (
            model.B.T @ (_expm(w * model.A0.T) @ self.V)))
        J0, J1 = _ramp_integrals(model.A0, w)
        Q, W0, W1 = _gramian_blocks(model, w)
        P = (tau - w) * J0 + J1
        R = (tau - w) * (w * W0 - W1) + Q
        dX = _expm(w * model.A1) @ (self.v1 + P @ (model.B @ self.v2) / tau - R @ self.V)
        return dX, dY

    def terminal_gap(self) -> float:
        dX, dY = self.coupled_difference(self.T)
        return float(np.sqrt(np.sum(dX ** 2) + np.sum(dY ** 2)))


def perturbation_controls(model: SpectralModel, s: float, T: float, v) -> ControlPair:
    """Assemble (V, Phi) for direction v = (v1, v2) on the window [s, T]."""
    if T <= s:
        raise ValueError("T must exceed s")
    v = np.asarray(v, dtype=float).reshape(model.dim)
    v1, v2 = v[: model.m], v[model.m:]
    Q = _gramian_blocks(model, T - s)[0]
    sv = np.linalg.svd(Q, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > 1e14:
        raise SingularGramianError(f"Gramian over gap {T - s} numerically singular")

    # int_s^T (T-r) e^{(r-s)A0} dr
    rhs = v1 + _ramp_integrals(model.A0, T - s)[1] @ (model.B @ v2) / (T - s)
    V = np.linalg.solve(Q, rhs)
    return ControlPair(V=V, s=s, T=T, v1=v1, v2=v2, model=model)


def transported_direction(model: SpectralModel, s: float, t: float, v) -> np.ndarray:
    """Direction transported by the linear flow: grad_v Z^0_{s,t} = e^{(t-s)A} v."""
    v = np.asarray(v, dtype=float).reshape(model.dim)
    return _expm((t - s) * model.block_operator()) @ v


# ---------------------------------------------------------------------------
# Monte-Carlo derivative estimators


@dataclass(frozen=True)
class GradientEstimate:
    value: float
    stderr: float
    n_paths: int
    v: tuple
    s: float
    T: float
    kind: str = "gradient"


def _weight_table(ctrl: ControlPair, times: np.ndarray) -> np.ndarray:
    """Left-point weight vectors h(r_i) for the Ito sum, shape (N, k)."""
    return np.atleast_2d(ctrl.weight_vector(times[:-1]))


def _powers(E: np.ndarray, n: int) -> np.ndarray:
    """E^0, ..., E^{n-1} stacked (n, k, k) by log-depth doubling: each pass
    multiplies the stack so far by the next power E^{2^j}."""
    pows = np.eye(E.shape[0])[None]
    Ej = E
    while pows.shape[0] < n:
        pows = np.concatenate([pows, pows @ Ej])
        Ej = Ej @ Ej
    return pows[:n]


def _law_moments(model: SpectralModel, windows):
    """Moments of (Z_T, S_1, ..., S_J) that do not depend on the start.

    windows is a sequence of (times, hvec) over consecutive uniform grids, hvec
    (N_j, k) holding the left-point weights of S_j = sum_i <h_i, dW_i>.  Each
    window composes its N step kernels (one E, per-step G_i and K_i) in
    closed form: P <- E^N P E^N* + sum E^{N-1-i} G_i E^{N-1-i}*, C <- E^N C,
    and column j of C gains sum E^{N-1-i} Cov(eta_i, dW_i) h_i
    = h sum E^{N-1-i} K_i h_i.  Returns (flows, P, C = Cov(Z_T, S), Var S),
    flows holding each window's E^N in order, so that the mean from z is
    z pushed through them one after the other; the S_j are uncorrelated,
    their increments being disjoint.
    """
    P = np.zeros((model.dim, model.dim))
    C = np.zeros((model.dim, len(windows)))
    var = np.empty(len(windows))
    flows = []
    for j, (times, hvec) in enumerate(windows):
        n = times.size - 1
        kers = [ker for ker, r in _step_kernels(model, times[0], times[-1], n)
                for _ in range(r)]
        h = kers[0].h
        pows = _powers(kers[0].E, n + 1)
        EN, R = pows[n], pows[n - 1::-1]
        RG = R @ np.array([ker.G for ker in kers])
        RK = R @ np.array([ker.Kmat for ker in kers])
        flows.append(EN)
        P = EN @ P @ EN.T + np.einsum("nab,ndb->ad", RG, R)
        C = EN @ C
        C[:, j] += h * np.einsum("nak,nk->a", RK, hvec)
        var[j] = h * float(np.sum(hvec ** 2))
    return flows, P, C, var


@dataclass(frozen=True)
class _JointLaw:
    """The law of (Z_T, S_1, ..., S_J) less its start; see _law_moments.

    Z = mean(z) + F zeta with F the Cholesky factor of P, and S given Z_T:
    S = A* zeta + L xi with F A = Cov(Z_T, S) and L L* = diag(Var S) - A* A.
    Only the mean depends on the start z, so one law serves every start.
    The Cholesky factor is continuous in P, so roundoff in the moments moves
    the draws by roundoff, where an eigenvector factor of a P with repeated
    eigenvalues can jump.  Every weight is linear in the h_i, so scaling the
    direction by a power of two scales S exactly.
    """

    flows: tuple
    F: np.ndarray
    A: np.ndarray
    L: np.ndarray

    @classmethod
    def of(cls, model: SpectralModel, windows) -> "_JointLaw":
        flows, P, C, var = _law_moments(model, windows)
        F = np.linalg.cholesky(P)
        A = np.linalg.solve(F, C)
        return cls(flows=tuple(flows), F=F, A=A, L=psd_sqrt(np.diag(var) - A.T @ A))

    def mean(self, z) -> np.ndarray:
        """E Z_T from the start z."""
        mean = np.asarray(z, dtype=float).reshape(self.F.shape[0])
        for EN in self.flows:
            mean = EN @ mean
        return mean

    def draw(self, z, rng: np.random.Generator, n_paths: int):
        """Exact joint draw of (Z_T (n, dim), S (n, J)) from the start z."""
        zeta = rng.standard_normal((n_paths, self.F.shape[0]))
        xi = rng.standard_normal((n_paths, self.L.shape[0]))
        return self.mean(z) + zeta @ self.F.T, zeta @ self.A + xi @ self.L.T

    def weighted(self, f: Callable, z, rng: np.random.Generator,
                 n_paths: int) -> np.ndarray:
        """Per path, f at the terminal state times every weight."""
        Z, S = self.draw(z, rng, n_paths)
        prod = np.asarray(f(Z), dtype=float).reshape(n_paths)
        for Sj in S.T:
            prod = prod * Sj
        return prod


def _gradient_law(model: SpectralModel, s: float, T: float, v,
                  n_steps: int) -> _JointLaw:
    """Law of (Z_T, S) for the gradient weight of direction v on [s, T]."""
    ctrl = perturbation_controls(model, s, T, v)
    times = np.linspace(s, T, n_steps + 1)
    return _JointLaw.of(model, [(times, _weight_table(ctrl, times))])


def _check_budget(s: float, T: float, n_paths: int, n_steps: int) -> None:
    """The window and Monte-Carlo budget checks shared by the estimators."""
    if T <= s:
        raise ValueError("T must exceed s")
    if n_paths < 2 or n_steps < 1:
        raise ValueError("need n_paths >= 2 and n_steps >= 1")


def bismut_gradient(model: SpectralModel, s: float, T: float, f: Callable, z, v,
                    n_paths: int, n_steps: int, seed: int,
                    stream: Sequence[str] = ("bismut", "gradient")) -> GradientEstimate:
    """Monte-Carlo estimate of (grad_v P^0_{s,T} f)(z).

    The stochastic-integral weight is the left-point Ito sum of
    <sigma*(sigma sigma*)^{-1} Phi(r), dW> on a uniform grid, and each path
    draws the terminal state and this weight from their exact joint Gaussian
    law, so discretization error enters only through the weight.
    """
    _check_budget(s, T, n_paths, n_steps)
    law = _gradient_law(model, s, T, v, n_steps)
    prod = law.weighted(f, z, substream(seed, *stream), n_paths)
    value = float(prod.mean())
    stderr = float(prod.std(ddof=1) / math.sqrt(n_paths))
    return GradientEstimate(value=value, stderr=stderr, n_paths=n_paths,
                            v=tuple(np.asarray(v, dtype=float)), s=s, T=T)


def bismut_hessian(model: SpectralModel, s: float, T: float, f: Callable, z,
                   v, v_tilde, n_paths: int, n_steps: int, seed: int,
                   stream: Sequence[str] = ("bismut", "hessian")) -> GradientEstimate:
    """Second derivative grad_v grad_vtilde P^0_{s,T} f (z) by the midpoint split.

    The window is split at t = (s+T)/2; the inner weight over [s, t] uses
    v_tilde, the outer weight over [t, T] uses the transported direction
    v_t = e^{(t-s)A} v, and the estimator is the product of the two weights
    times f at the terminal state, all three drawn jointly.
    """
    _check_budget(s, T, n_paths, n_steps)
    if n_steps % 2:
        n_steps += 1
    half = n_steps // 2
    t_mid = 0.5 * (s + T)
    ctrl_inner = perturbation_controls(model, s, t_mid, v_tilde)
    v_mid = transported_direction(model, s, t_mid, v)
    ctrl_outer = perturbation_controls(model, t_mid, T, v_mid)

    times1 = np.linspace(s, t_mid, half + 1)
    times2 = np.linspace(t_mid, T, half + 1)
    windows = [(times1, _weight_table(ctrl_inner, times1)),
               (times2, _weight_table(ctrl_outer, times2))]
    prod = _JointLaw.of(model, windows).weighted(f, z, substream(seed, *stream), n_paths)
    return GradientEstimate(value=float(prod.mean()),
                            stderr=float(prod.std(ddof=1) / math.sqrt(n_paths)),
                            n_paths=n_paths,
                            v=tuple(np.asarray(v, dtype=float)), s=s, T=T,
                            kind="hessian")


# ---------------------------------------------------------------------------
# Coupling / Girsanov verification


@dataclass(frozen=True)
class CouplingReport:
    terminal_gap: float
    girsanov_mean: float
    girsanov_stderr: float
    eps: float
    n_paths: int


def verify_coupling(model: SpectralModel, s: float, T: float, v, eps: float,
                    n_paths: int, n_steps: int, seed: int) -> CouplingReport:
    """Terminal coincidence of the coupled flow and the Girsanov weight mean.

    terminal_gap is deterministic (noise cancels in the coupled differences)
    and computed in closed form.  girsanov_mean is the sample mean of

        R_eps = exp(eps S - eps^2/2 Q),  S = sum <h(r_i), dW_i>,
                                         Q = sum |h(r_i)|^2 dt,

    whose expectation is exactly 1 for the discretized pair.  S is exactly
    N(0, Q), so each path draws that one scalar.
    """
    _check_budget(s, T, n_paths, n_steps)
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    ctrl = perturbation_controls(model, s, T, v)
    gap = ctrl.terminal_gap()
    if eps == 0.0:
        return CouplingReport(terminal_gap=gap, girsanov_mean=1.0,
                              girsanov_stderr=0.0, eps=eps, n_paths=0)
    hvec = _weight_table(ctrl, np.linspace(s, T, n_steps + 1))
    qhat = float(np.sum(hvec ** 2)) * (T - s) / n_steps
    rng = substream(seed, "bismut", "girsanov")
    S = math.sqrt(qhat) * rng.standard_normal(n_paths)
    R = np.exp(eps * S - 0.5 * eps ** 2 * qhat)
    mean = float(R.mean())
    stderr = float(R.std() / math.sqrt(n_paths))
    return CouplingReport(terminal_gap=gap, girsanov_mean=mean,
                          girsanov_stderr=stderr, eps=eps, n_paths=n_paths)


# ---------------------------------------------------------------------------
# Gradient-scaling diagnostic


# the weight grid of every point of a scaling fit
SCALING_STEPS = 128


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    slope_stderr: float
    gaps: np.ndarray
    values: np.ndarray
    n_per_point: int
    low_budget: bool


def scaling_exponent(model: SpectralModel, f: Callable, component: str,
                     gaps: Sequence[float], budget: int, probes: np.ndarray,
                     seed: int) -> ScalingFit:
    """Fitted slope of log sup_z |grad P^0_{0,gap} f| against log gap.

    The sup is taken over a small probe set (a lower bound of the true
    sup-norm, adequate for slope fitting); each point is the estimate of
    bismut_gradient at budget // (n_gaps * n_probes) paths and
    ``SCALING_STEPS`` steps on the substream ("bismut", "scaling", gap index,
    probe index), bit for bit.  The joint law of a gap does not depend on
    the start, so it is built once and every probe of that gap draws from
    it.  A per-point budget below 100 paths sets the low-budget flag and
    warns.
    """
    gaps = np.asarray(list(gaps), dtype=float)
    if gaps.size < 4:
        raise ValueError("need at least 4 gaps for a slope fit")
    if component not in ("x", "y"):
        raise ValueError("component must be 'x' or 'y'")
    v = np.zeros(model.dim)
    v[0 if component == "x" else model.m] = 1.0
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    n = max(2, int(budget) // (gaps.size * probes.shape[0]))
    low = n < 100
    if low:
        warnings.warn("scaling_exponent budget gives <100 paths per point; "
                      "slope confidence will be wide", AccuracyWarning)
    values = np.empty(gaps.size)
    for gi, g in enumerate(gaps):
        law = _gradient_law(model, 0.0, float(g), v, SCALING_STEPS)
        best = 0.0
        for pi, zp in enumerate(probes):
            rng = substream(seed, "bismut", "scaling", f"{gi}", f"{pi}")
            best = max(best, abs(float(law.weighted(f, zp, rng, n).mean())))
        values[gi] = best
    logg = np.log(gaps)
    logv = np.log(np.maximum(values, 1e-300))
    coeffs, cov = np.polyfit(logg, logv, 1, cov=True)
    return ScalingFit(slope=float(coeffs[0]),
                      slope_stderr=float(np.sqrt(cov[0, 0])),
                      gaps=gaps, values=values, n_per_point=n, low_budget=low)
