"""Resolvent, regularization field, state transform, and Galerkin truncations.

The regularization field u solves the discounted fixed-point equation

    u_s = int_s^T e^{-lam (t-s)} P^0_{s,t} { grad^(2)_{b_t} u_t + b_t } dt

on [0, T], where grad^(2) differentiates along the noisy coordinates.  For
lam large the right-hand side is a contraction with factor <= 1/2 and the
field obeys ||u||_inf + sup||grad^(2) u|| = O(1/sqrt(lam)).

The solver represents u on a tensor grid with multilinear interpolation
(total dimension <= 3) and realizes one Picard application by an exact
backward Markov composition: with s' = s + h,

    int_s^T e^{-lam(t-s)} P^0_{s,t} g_t dt
        = int_s^{s'} e^{-lam(t-s)} P^0_{s,t} g_t dt
          + e^{-lam h} P^0_{s,s'} [ int_{s'}^T e^{-lam(t-s')} P^0_{s',t} g_t dt ],

so each time node costs one single-step expectation of the previous node's
value plus a one-panel discounted integral.  Panel integrals use a
Gauss-Legendre rule in the variable xi = e^{-lam(t-s)}, which integrates
constants exactly and concentrates nodes where the discount has mass; the
expectations are Gauss-Hermite rules under the exact step laws.

Every expectation lands on the same clamped points in every sweep, so each
is a fixed sparse matrix on grid functions: the multilinear weights of its
Gauss-Hermite points (one kernel, ``_multilinear_coo``, which also serves
FieldGrid queries), scaled by the Gauss-Hermite weights.  The panel rule
blends the integrand linearly between nodes s_i and s_{i+1}, so with panel
nodes u_q, weights w_q and theta_q = u_q / h it folds into two operators,

    L0 = sum_q w_q (1 - theta_q) S_q,    L1 = sum_q w_q theta_q S_q,

and the third is the discounted step e^{-lam h} S_h.  One application costs
L0 g_i + L1 g_{i+1} for all nodes in one product, then the backward
recursion w_i = local_i + e^{-lam h} S_h w_{i+1}.

The state transform is Theta_s(x, y) = (x, y + u_s(x, y)); it is invertible
whenever sup ||grad^(2) u|| < 1, with the inverse computed by fixed-point
iteration in y.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import (BoundaryExtrapolationWarning, CapabilityError, IterationError,
                     LambdaTooSmallError, NotInvertibleError)
from .linear_flow import _gauss_hermite_nodes, _step_law, psd_sqrt
from .model import DriftSpec, Modulus, SpectralModel
from .streams import substream

__all__ = [
    "GridSpec",
    "FieldGrid",
    "PicardReport",
    "ResolventValue",
    "GalerkinReport",
    "resolvent_apply",
    "picard_solve",
    "find_contraction_lambda",
    "field_grad2",
    "field_grad_full",
    "theta_forward",
    "theta_inverse",
    "galerkin_compare",
    "holder_envelope_ratio",
]

# Gauss-Hermite nodes per axis of every grid expectation, and Gauss-Legendre
# nodes of the local panel rule in the Picard sweep
_GH_ORDER = 4
_N_LOCAL = 6
# largest discount the contraction search tries
_LAMBDA_CAP = 2.0 ** 20
# central-difference step of FunctionField's y-Jacobian
_FD_STEP = 1e-6
# largest grid node index and operator size the int32 indices hold
_INT32_MAX = np.iinfo(np.int32).max


# ---------------------------------------------------------------------------
# Grids and fields


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid on a box [lo, hi]^dim with n_time time nodes on [0, T]."""

    lo: tuple
    hi: tuple
    shape: tuple
    t_final: float
    n_time: int

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.shape):
            raise ValueError("lo, hi, shape must have equal length")
        if not all(math.isfinite(l) and math.isfinite(h) and l < h
                   for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"box must be finite with lo < hi on every axis, "
                             f"got lo={self.lo}, hi={self.hi}")
        if any(n < 2 for n in self.shape):
            raise ValueError("need at least 2 points per axis")
        if self.n_time < 2:
            raise ValueError("need at least 2 time nodes")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")

    @property
    def dim(self) -> int:
        return len(self.shape)

    def axes(self):
        return tuple(np.linspace(l, h, n)
                     for l, h, n in zip(self.lo, self.hi, self.shape))

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_time)

    def mesh(self) -> np.ndarray:
        """All grid points, shape (prod(shape), dim), C-order."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @classmethod
    def cube(cls, dim: int, half_width: float = 4.0, points: int = 65,
             t_final: float = 1.0, n_time: int = 33) -> "GridSpec":
        return cls(lo=(-half_width,) * dim, hi=(half_width,) * dim,
                   shape=(points,) * dim, t_final=t_final, n_time=n_time)


def _grid_jacobian_y(values: np.ndarray, axes, m: int, d: int) -> np.ndarray:
    """y-Jacobians J[..., a, j] = d values_a / d y_j at every node by differences.

    values has shape (..., *shape, d); leading axes (such as time) are kept.
    """
    first = values.ndim - 1 - len(axes)
    cols = [np.gradient(values, axes[m + j], axis=first + m + j) for j in range(d)]
    return np.stack(cols, axis=-1)


def _multilinear_coo(axes, coords):
    """Multilinear interpolation on a tensor grid as corner indices and weights.

    coords holds one coordinate array per axis; the arrays broadcast to one
    shape S, and each axis is located on its own array only, so a coordinate
    shared by many points is located once.  Points are clamped to the box.
    Returns the flat C-order int32 indices of the 2^dim cell corners and their
    weights, both S + (2^dim,), corner c taking the upper node on axis j when
    bit j of c is set: the interpolant of a grid function V of shape
    (prod(shape), ...) is sum_c w[..., c] V[idx[..., c]].  Weights are the
    products of the per-axis factors in axis order.
    """
    dim = len(axes)
    n_nodes = math.prod(len(a) for a in axes)
    if n_nodes > _INT32_MAX:
        raise CapabilityError(f"a grid of {n_nodes} nodes exceeds int32 indexing")
    coords = [np.asarray(c, dtype=float) for c in coords]
    shape = np.broadcast(*coords).shape
    idx = np.empty(shape + (1 << dim,), dtype=np.int32)
    wts = np.empty(shape + (1 << dim,))
    stride = n_nodes
    # (index, weight) sums and products over the axes so far, one per corner
    # of those axes; the last axis writes its corners straight into idx, wts
    parts = [(0, 1.0)]
    for j, (ax, p) in enumerate(zip(axes, coords)):
        stride //= len(ax)
        # searching the interior nodes puts points outside the box in the end
        # cells, and clipping the fraction clamps them to the box
        i = np.searchsorted(ax[1:-1], p, side="right")
        frac = np.clip((p - ax[i]) / (ax[i + 1] - ax[i]), 0.0, 1.0)
        base = np.multiply(i, stride, dtype=np.int32)
        sides = [(base, 1.0 - frac), (base + np.int32(stride), frac)]
        if j == dim - 1:
            for c, ((b, w), (pi, pw)) in enumerate((s, q) for s in sides for q in parts):
                np.add(pi, b, out=idx[..., c])
                np.multiply(pw, w, out=wts[..., c])
        else:
            parts = sides if j == 0 else [(pi + b, pw * w) for b, w in sides
                                          for pi, pw in parts]
    return idx, wts


class FieldGrid:
    """Time-indexed vector field on a box, with multilinear interpolation.

    values has shape (n_time, *shape, d) and is a read-only copy; queries are
    clamped to the box (constant extension), matching the use of cutoff
    drifts outside it.  Interpolation is multilinear in (time, space).
    """

    def __init__(self, times: np.ndarray, axes, values: np.ndarray, m: int, d: int,
                 bound: Optional[float] = None):
        self.times = np.asarray(times, dtype=float)
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.values = np.array(values, dtype=float)
        self.values.flags.writeable = False
        self.m = m
        self.d = d
        self.bound = bound
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        self._sup_grad2 = None

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def lo(self) -> np.ndarray:
        return np.array([a[0] for a in self.axes])

    @property
    def hi(self) -> np.ndarray:
        return np.array([a[-1] for a in self.axes])

    def spacing(self) -> np.ndarray:
        return np.array([a[1] - a[0] for a in self.axes])

    def _gather(self, times_q: np.ndarray, pts) -> np.ndarray:
        """Values at query times (1,) or (n,) and points (n, dim)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx, wts = _multilinear_coo((self.times,) + self.axes, (times_q, *pts.T))
        return np.einsum("nc,ncd->nd", wts, self.values.reshape(-1, self.d)[idx])

    def interp(self, s: float, pts) -> np.ndarray:
        """Field value at time s and points pts (n, dim) -> (n, d); linear in
        time, multilinear in space, clamped to the box."""
        return self._gather(np.array([float(s)]), pts)

    def interp_many(self, times_q, pts) -> np.ndarray:
        """Vectorized interp at per-query times: (n,), (n, dim) -> (n, d)."""
        return self._gather(np.asarray(times_q, dtype=float).reshape(-1), pts)

    def jacobian_y_many(self, times_q, pts) -> np.ndarray:
        """Vectorized y-Jacobians at grid resolution: (n, d, d).

        Central differences one cell wide, one-sided (with a
        BoundaryExtrapolationWarning) within one cell of a y-edge of the box;
        see _difference_jacobian.
        """
        return _difference_jacobian(self.interp_many, times_q, pts, range(self.m, self.dim),
                                    self.spacing(), self.lo, self.hi)

    def sup_value(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=-1), initial=0.0))

    def jacobian_y_nodes(self) -> np.ndarray:
        """(n_time, *shape, d, d) y-Jacobians at every node by differences."""
        return _grid_jacobian_y(self.values, self.axes, self.m, self.d)

    def sup_grad2(self) -> float:
        """sup over nodes of the spectral norm of the y-Jacobian (cached)."""
        if self._sup_grad2 is None:
            jac = self.jacobian_y_nodes()
            norms = (np.abs(jac[..., 0, 0]) if self.d == 1
                     else np.linalg.norm(jac, ord=2, axis=(-2, -1)))
            self._sup_grad2 = float(np.max(norms, initial=0.0))
        return self._sup_grad2


class FunctionField:
    """Field backed by a callable u(s, pts) -> (n, d): analytic references.

    Provides the same evaluation surface as FieldGrid (interp, interp_many,
    jacobian_y_many, lo/hi) so residual experiments can run against exact
    fields; the y-Jacobian uses central differences at step ``_FD_STEP``
    unless an analytic ``jac_fn(s, pts) -> (n, d, d)`` is supplied.  The box
    is unbounded: ``lo`` and ``hi`` are -inf and +inf on every axis.
    """

    def __init__(self, fn: Callable, m: int, d: int, jac_fn: Optional[Callable] = None):
        self.fn = fn
        self.m = m
        self.d = d
        self.dim = m + d
        self.jac_fn = jac_fn
        self.lo = np.full(self.dim, -np.inf)
        self.hi = np.full(self.dim, np.inf)

    def interp(self, s: float, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.fn(np.full(pts.shape[0], float(s)), pts), dtype=float)

    def interp_many(self, times_q, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        times_q = np.asarray(times_q, dtype=float).reshape(-1)
        return np.asarray(self.fn(times_q, pts), dtype=float)

    def jacobian_y_many(self, times_q, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        times_q = np.asarray(times_q, dtype=float).reshape(-1)
        if self.jac_fn is not None:
            return np.asarray(self.jac_fn(times_q, pts), dtype=float)
        return _difference_jacobian(self.interp_many, times_q, pts, range(self.m, self.dim),
                                    np.full(self.dim, _FD_STEP), self.lo, self.hi)


def _difference_jacobian(interp_many: Callable, times_q, pts, axes, h, lo, hi) -> np.ndarray:
    """Difference Jacobian of interp_many(times_q, pts) -> (n, d) along each
    coordinate in axes: (n, d, len(axes)).

    The points are clipped to the box [lo, hi].  Each column is a central
    difference with step h[a]; within one step of the box the stencil is
    one-sided, with one BoundaryExtrapolationWarning per axis that needs it.
    The denominator is the actual span of the stencil.
    """
    pts = np.clip(np.atleast_2d(np.asarray(pts, dtype=float)), lo, hi)
    cols = []
    for a in axes:
        z = pts[:, a]
        near_hi = z + h[a] > hi[a]
        near_lo = ~near_hi & (z - h[a] < lo[a])
        if np.any(near_hi | near_lo):
            warnings.warn(f"one-sided stencil at axis {a} (within one step of "
                          "the boundary)", BoundaryExtrapolationWarning)
        zp = pts.copy()
        zm = pts.copy()
        zp[:, a] = np.where(near_hi, z, z + h[a])
        zm[:, a] = np.where(near_lo, z, z - h[a])
        cols.append((interp_many(times_q, zp) - interp_many(times_q, zm))
                    / (zp[:, a] - zm[:, a])[:, None])
    return np.stack(cols, axis=-1)


def field_grad2(field: FieldGrid, s: float, z) -> np.ndarray:
    """y-Jacobian (d x d) of the field at (s, z), grid resolution: one point
    of FieldGrid.jacobian_y_many."""
    return field.jacobian_y_many(np.array([float(s)]), np.reshape(z, (1, field.dim)))[0]


def field_grad_full(field: FieldGrid, s: float, z) -> np.ndarray:
    """Full Jacobian (d x dim) of the field at (s, z), grid resolution, by the
    stencil of FieldGrid.jacobian_y_many along every axis."""
    return _difference_jacobian(field.interp_many, np.array([float(s)]),
                                np.reshape(z, (1, field.dim)), range(field.dim),
                                field.spacing(), field.lo, field.hi)[0]


# ---------------------------------------------------------------------------
# Resolvent (pointwise)


@dataclass(frozen=True)
class ResolventValue:
    value: np.ndarray
    achieved_tol: float
    converged: bool
    n_nodes: int


def resolvent_apply(model: SpectralModel, lam: float, f: Callable, s: float, z,
                    t_final: float, budget: int = 256) -> ResolventValue:
    """int_s^T e^{-lam (r-s)} (P^0_{s,r} f_r)(z) dr by layered quadrature.

    f is a time-indexed observable: f(r, pts) -> (n_pts,) or (n_pts, p).
    The substitution r = s + tau^2 absorbs integrable square-root gradient
    singularities at the left endpoint; tau panels are geometric toward 0
    with 8 Gauss-Legendre nodes each, and the inner expectations use
    Gauss-Hermite rules with 8 nodes per axis.  ``budget`` caps the total
    number of tau nodes; if it is exhausted before the finest layers, the
    result carries the achieved tolerance and ``converged=False``.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if not 0.0 <= s < t_final:
        raise ValueError("need 0 <= s < t_final")
    from .linear_flow import apply_P0

    tau_max = math.sqrt(t_final - s)
    n_gl = 8
    max_levels = 26
    levels = min(max_levels, max(1, budget // n_gl))
    nodes0, weights0 = np.polynomial.legendre.leggauss(n_gl)

    total = None
    n_nodes = 0
    last_level_contrib = 0.0
    tau_lo = 0.0
    edges = [tau_max * 2.0 ** (-j) for j in range(levels)] + [0.0]
    sup_f = 0.0
    for j in range(levels):
        hi, lo = edges[j], edges[j + 1]
        if j == levels - 1:
            lo = 0.0
        taus = 0.5 * (hi - lo) * (nodes0 + 1.0) + lo
        wts = 0.5 * (hi - lo) * weights0
        contrib = None
        for tau, w in zip(taus, wts):
            # floor keeps the gap representable; the law degenerates smoothly
            r = s + max(tau * tau, 1e-13)
            est = apply_P0(model, s, r, lambda pts: f(r, pts), z,
                           method="gauss_hermite", budget=8)
            val = np.asarray(est.value, dtype=float)
            sup_f = max(sup_f, float(np.max(np.abs(val))))
            term = w * 2.0 * tau * math.exp(-lam * tau * tau) * val
            contrib = term if contrib is None else contrib + term
            n_nodes += 1
        total = contrib if total is None else total + contrib
        last_level_contrib = float(np.max(np.abs(contrib)))
        tau_lo = lo
        if j == levels - 1:
            break
    remainder = sup_f * tau_lo ** 2
    achieved = last_level_contrib + remainder if levels < max_levels else remainder
    converged = levels >= max_levels or achieved <= 1e-12 * (1.0 + float(np.max(np.abs(total))))
    return ResolventValue(value=np.asarray(total, dtype=float),
                          achieved_tol=float(achieved), converged=bool(converged),
                          n_nodes=n_nodes)


# ---------------------------------------------------------------------------
# Picard fixed point on a grid


@dataclass(frozen=True)
class PicardReport:
    iterations: int
    residuals: tuple
    factors: tuple
    sup_u: float
    sup_grad2: float
    lam: float
    converged: bool
    tol: float

    @property
    def contraction_factor(self) -> float:
        """Median of the valid factors: a floor-noise-robust rate estimate."""
        valid = self.valid_factors
        return float(np.median(valid)) if valid else 0.0

    @property
    def valid_factors(self) -> tuple:
        floor = max(10.0 * self.tol, 1e-13)
        out = []
        for k, f in enumerate(self.factors):
            if self.residuals[k] > floor and self.residuals[k + 1] > floor:
                out.append(f)
        return tuple(out)

    @property
    def hnorm(self) -> float:
        """Fixed-point space norm: sup|u| + sup||grad^(2) u||."""
        return self.sup_u + self.sup_grad2


class _PicardEngine:
    """One Picard application on a tensor grid by backward Markov composition.

    Every expectation in the sweep hits the same clamped Gauss-Hermite points,
    so each is a fixed sparse operator on grid functions.  The local panel
    rule blends the integrand linearly between time nodes, which folds its
    _N_LOCAL expectations into two operators, L0 (weights on node i) and L1
    (weights on node i+1); the discounted one-step expectation is the third.

    The generator [[A1, B], [0, A2]] is block upper triangular, so the noisy
    coordinates of E z depend on the y node only: each expectation locates
    the x-axes over every node and the y-axes over one x row.
    """

    def __init__(self, model: SpectralModel, lam: float, grid: GridSpec):
        if grid.dim != model.dim:
            raise ValueError("grid dimension must equal model dimension")
        if not model.sigma_constant:
            raise CapabilityError("the grid solver needs constant-in-time sigma")
        self.model = model
        self.lam = float(lam)
        self.grid = grid
        self.axes = grid.axes()
        self.times = grid.times()
        self.shape = grid.shape
        self.mesh = grid.mesh()
        self.n_pts = self.mesh.shape[0]
        self.delta = float(self.times[1] - self.times[0])
        if not np.allclose(np.diff(self.times), self.delta):
            raise ValueError("time nodes must be uniform")

        self.gh_pts, self.gh_wts = _gauss_hermite_nodes(model.dim, _GH_ORDER)
        # entries per operator row before duplicates are summed
        self.row_len = self.gh_wts.size << model.dim
        if self.n_pts * self.row_len > _INT32_MAX:
            raise CapabilityError(f"a grid of {self.n_pts} nodes needs operators "
                                  "beyond int32 indexing")

        # discounted one-step operator over a full panel
        self.step = math.exp(-self.lam * self.delta) * self._expectation(self.delta)

        # local panel nodes via the xi = e^{-lam u} substitution
        gl_x, gl_w = np.polynomial.legendre.leggauss(_N_LOCAL)
        if self.lam * self.delta > 1e-8:
            xi_lo = math.exp(-self.lam * self.delta)
            xi = 0.5 * (1.0 - xi_lo) * (gl_x + 1.0) + xi_lo
            wts = 0.5 * (1.0 - xi_lo) * gl_w / self.lam
            us = -np.log(xi) / self.lam
        else:
            us = 0.5 * self.delta * (gl_x + 1.0)
            wts = 0.5 * self.delta * gl_w * np.exp(-self.lam * us)
        # one operator at a time keeps the peak memory at one expectation
        self.L0 = sparse.csr_matrix((self.n_pts, self.n_pts))
        self.L1 = sparse.csr_matrix((self.n_pts, self.n_pts))
        for u, wq in zip(us, wts):
            S = self._expectation(float(u))
            theta = u / self.delta
            self.L0 = self.L0 + (wq * (1.0 - theta)) * S
            self.L1 = self.L1 + (wq * theta) * S

    def _expectation(self, h: float) -> sparse.csr_matrix:
        """Grid operator g -> (z -> mean of g(E z + xi), xi ~ N(0, G)) for the
        step law (E, G) over time h, by Gauss-Hermite."""
        model = self.model
        # an unbounded flow is reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            E, G, _ = _step_law(model.block_operator(), model.noise_matrix(0.0), h)
        if not (np.all(np.isfinite(E)) and np.all(np.isfinite(G))):
            raise CapabilityError(
                f"the step law over h={h:.6g} is not finite at lambda={self.lam:g} "
                "(the flow is unbounded over one step); the grid solver "
                "cannot represent this model at this time step")
        # e^{hA} is block upper triangular like A; expm can leave rounding
        # (about 1e-16) in its lower-left block, which the doublings keep, and
        # dropping it makes the y-coordinates of E z exactly the same on
        # every x row
        E[model.m:, : model.m] = 0.0
        shifts = (math.sqrt(2.0) * self.gh_pts) @ psd_sqrt(G).T
        n_x = math.prod(self.shape[: model.m])
        Ez = (self.mesh @ E.T).reshape(n_x, -1, model.dim)
        # (n_x, n_y, Q) coordinates on the x-axes, (1, n_y, Q) on the y-axes
        coords = [Ez[: n_x if a < model.m else 1, :, a, None] + shifts[:, a]
                  for a in range(model.dim)]
        idx, wts = _multilinear_coo(self.axes, coords)
        wts *= self.gh_wts[:, None]
        S = sparse.csr_matrix(
            (wts.ravel(), idx.ravel(),
             np.arange(0, idx.size + 1, self.row_len, dtype=np.int32)),
            shape=(self.n_pts, self.n_pts))
        S.sum_duplicates()
        return S

    def apply(self, g_flat: np.ndarray) -> np.ndarray:
        """Gamma applied to the integrand table g (n_time, n_pts, d)."""
        n_time, _, d = g_flat.shape
        M = n_time - 1
        # time nodes as columns: every panel's local term in one product
        G = np.ascontiguousarray(g_flat.transpose(1, 0, 2)).reshape(self.n_pts, n_time * d)
        local = (self.L0 @ G[:, : M * d] + self.L1 @ G[:, d:]).reshape(self.n_pts, M, d)
        out = np.zeros_like(g_flat)
        w_next = out[M]
        for i in range(M - 1, -1, -1):
            w_next = local[:, i] + self.step @ w_next
            out[i] = w_next
        return out


def _integrand_table(engine: _PicardEngine, model: SpectralModel, bvals: np.ndarray,
                     u_flat: np.ndarray) -> np.ndarray:
    """g = grad^(2)_b u + b on the grid, for every time node."""
    n_time = engine.times.size
    u = u_flat.reshape(n_time, *engine.shape, model.d)
    jac = _grid_jacobian_y(u, engine.axes, model.m, model.d)
    bi = bvals.reshape(n_time, *engine.shape, model.d)
    g = np.einsum("...aj,...j->...a", jac, bi) + bi
    return g.reshape(n_time, engine.n_pts, model.d)


def picard_solve(model: SpectralModel, b: DriftSpec, lam: float, grid: GridSpec,
                 tol: float = 1e-8, max_iter: int = 60):
    """Solve the discounted fixed-point equation on a tensor grid.

    Iterates u^{k+1} = Gamma(u^k) from u^0 = 0, recording sup-norm residuals
    and contraction factors.  Raises LambdaTooSmallError when three
    consecutive factors reach 1 (the discount must be increased), and
    IterationError on the first non-finite residual.  Returns
    (FieldGrid, PicardReport); total dimension m + d must be <= 3.
    """
    if model.dim > 3:
        raise CapabilityError("picard_solve is limited to total dimension <= 3")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    engine = _PicardEngine(model, lam, grid)
    mesh = engine.mesh
    x, y = mesh[:, : model.m], mesh[:, model.m:]
    bvals = np.stack([np.asarray(b(float(t), x, y), dtype=float)
                      for t in engine.times])

    u = np.zeros((engine.times.size, engine.n_pts, model.d))
    residuals = []
    factors = []
    converged = False
    for it in range(1, max_iter + 1):
        g = _integrand_table(engine, model, bvals, u)
        u_new = engine.apply(g)
        # the step, negated, in the storage of u, which u_new replaces below
        np.subtract(u, u_new, out=u)
        # the largest pointwise norm, as the root of the largest square sum
        res = math.sqrt(np.max(np.einsum("...i,...i->...", u, u), initial=0.0))
        if not math.isfinite(res):
            raise IterationError(f"Picard residual is not finite at lambda={lam} "
                                 f"in iteration {it}")
        residuals.append(res)
        if len(residuals) >= 2 and residuals[-2] > 0:
            factors.append(res / residuals[-2])
        u = u_new
        if res < tol:
            converged = True
            break
        if len(factors) >= 3 and all(f >= 1.0 for f in factors[-3:]):
            raise LambdaTooSmallError(
                f"Picard iteration not contracting at lambda={lam} "
                f"(last factors {factors[-3:]}); try doubling lambda")

    values = u.reshape(engine.times.size, *engine.shape, model.d)
    field = FieldGrid(times=engine.times, axes=engine.axes, values=values,
                      m=model.m, d=model.d)
    field.bound = field.sup_value()
    report = PicardReport(
        iterations=len(residuals), residuals=tuple(residuals),
        factors=tuple(factors), sup_u=field.sup_value(),
        sup_grad2=field.sup_grad2(), lam=float(lam),
        converged=converged, tol=tol)
    return field, report


def find_contraction_lambda(model: SpectralModel, b: DriftSpec, grid: GridSpec,
                            lam0: float = 16.0, tol: float = 1e-8, max_iter: int = 40):
    """Doubling search: smallest tried lambda with 3 consecutive factors <= 1/2.

    Immediate convergence (fewer than 3 measurable factors, e.g. constant
    drifts) also accepts.  Returns (lam, field, report).
    """
    lam = float(lam0)
    while lam <= _LAMBDA_CAP:
        try:
            field, report = picard_solve(model, b, lam, grid, tol=tol, max_iter=max_iter)
        except LambdaTooSmallError:
            lam *= 2.0
            continue
        valid = report.valid_factors
        ok = False
        if report.converged and len(valid) < 3:
            ok = True
        else:
            for k in range(len(valid) - 2):
                if all(f <= 0.5 for f in valid[k:k + 3]):
                    ok = True
                    break
        if ok:
            return lam, field, report
        lam *= 2.0
    raise IterationError(f"no contracting lambda found up to cap {_LAMBDA_CAP}")


# ---------------------------------------------------------------------------
# The transform Theta


def theta_forward(field: FieldGrid, s: float, z) -> np.ndarray:
    """Theta_s(x, y) = (x, y + u_s(x, y))."""
    z = np.asarray(z, dtype=float).reshape(field.dim)
    u = field.interp(s, z)[0]
    out = z.copy()
    out[field.m:] += u
    return out


def theta_inverse(field: FieldGrid, s: float, w) -> np.ndarray:
    """Invert Theta_s by fixed-point iteration y <- w2 - u_s(x, y).

    Requires sup ||grad^(2) u|| < 1 on the box (the bijectivity condition),
    which makes the map a contraction; raises NotInvertibleError otherwise
    and IterationError if 200 iterations do not bring the step below 1e-10.
    """
    g = field.sup_grad2()
    if g >= 1.0:
        raise NotInvertibleError(
            f"transform not invertible: sup y-gradient {g:.3f} >= 1")
    w = np.asarray(w, dtype=float).reshape(field.dim)
    x, w2 = w[: field.m], w[field.m:]
    y = w2.copy()
    z = np.concatenate([x, y])
    for _ in range(200):
        y_new = w2 - field.interp(s, z)[0]
        if float(np.max(np.abs(y_new - y))) < 1e-10:
            z[field.m:] = y_new
            return z
        y = y_new
        z[field.m:] = y
    raise IterationError("theta_inverse did not converge within the iteration cap")


# ---------------------------------------------------------------------------
# Galerkin truncation comparison


@dataclass(frozen=True)
class GalerkinReport:
    levels: tuple
    value_gaps: tuple
    grad_gaps: tuple
    reference: int
    per_mode_sup: tuple


def _mode_submodel(model: SpectralModel, i: int) -> SpectralModel:
    """Per-mode 2-dimensional slice of a diagonal spectral-family model."""
    for name, M in (("A1", model.A1), ("B", model.B)):
        if not np.allclose(M, np.diag(np.diag(M))):
            raise CapabilityError(f"galerkin_compare needs diagonal {name}")
    sig = model.sigma_at(0.0)
    if not np.allclose(sig, np.diag(np.diag(sig))):
        raise CapabilityError("galerkin_compare needs diagonal sigma")
    a1 = float(model.A1[i, i])
    lam_i = float(model.eigenvalues[i])
    bii = float(model.B[i, i])
    sii = float(sig[i, i])
    return SpectralModel(
        m=1, d=1, A1=[[a1]], A2=[[-lam_i]], B=[[bii]],
        A0=[[-lam_i - a1]], sigma=[[sii]], delta=model.delta,
        eigenvalues=np.array([lam_i]), name=f"{model.name}[mode {i + 1}]")


def galerkin_compare(model: SpectralModel, mode_drifts: Sequence[Callable],
                     lam: float, levels: Sequence[int], grid2d: GridSpec,
                     seed: int = 0) -> GalerkinReport:
    """Truncation gaps of the fixed-point field for mode-separable drifts.

    mode_drifts[i] is a scalar callable (t, x_i, y_i) -> drift of mode i+1;
    the drift b(x, y) = sum_i beta_i(x_i, y_i) e_i decouples the fixed point
    into per-mode 2-dimensional problems, which is exact for the projected
    equations (projection zeroes trailing modes).  The reference solution
    uses all len(mode_drifts) modes; gap(n) is the sup over 8 probe points
    (drawn from ``seed``'s galerkin-probes substream) and the time nodes of
    the value / y-gradient distance between the level-n and reference fields.
    Each mode's field is solved to residual 1e-7 within 40 iterations.
    """
    if not model.is_spectral_family:
        raise CapabilityError("galerkin_compare needs a spectral-family model")
    n_ref = len(mode_drifts)
    if n_ref > model.d:
        raise ValueError("more mode drifts than model modes")
    levels = tuple(int(n) for n in levels)
    if any(n < 1 or n > n_ref for n in levels):
        raise ValueError("levels must lie in [1, n_ref]")

    fields = []
    sups = []
    for i in range(n_ref):
        beta = mode_drifts[i]
        sub = _mode_submodel(model, i)
        probe = np.abs(np.asarray(
            beta(0.0, np.linspace(grid2d.lo[0], grid2d.hi[0], 7)[:, None],
                 np.linspace(grid2d.lo[1], grid2d.hi[1], 7)[:, None])))
        if float(np.max(probe)) == 0.0:
            fields.append(None)
            sups.append(0.0)
            continue
        drift = DriftSpec(fn=lambda t, x, y, f=beta: np.asarray(f(t, x, y), dtype=float),
                          m=1, d=1, alpha=0.75, phi=Modulus.power(1.0, 0.5), K=1.0,
                          bound=None, name=f"mode{i + 1}")
        field, _ = picard_solve(sub, drift, lam, grid2d, tol=1e-7, max_iter=40)
        fields.append(field)
        sups.append(field.sup_value())

    rng = substream(seed, "regularization", "galerkin-probes")
    probes = rng.uniform(-1.5, 1.5, size=(8, 2 * n_ref))

    times = grid2d.times()
    # per (probe, time, mode): value and y-derivative of u_i at (x_i, y_i),
    # queried for all probes x times at once (probe-major)
    n_p = probes.shape[0]
    tq = np.tile(times, n_p)
    vals = np.zeros((n_p, times.size, n_ref))
    ders = np.zeros_like(vals)
    for i, field in enumerate(fields):
        if field is None:
            continue
        pts = np.repeat(probes[:, [i, n_ref + i]], times.size, axis=0)
        vals[:, :, i] = field.interp_many(tq, pts)[:, 0].reshape(n_p, -1)
        ders[:, :, i] = field.jacobian_y_many(tq, pts)[:, 0, 0].reshape(n_p, -1)

    value_gaps = []
    grad_gaps = []
    for n in levels:
        tail_v = np.sqrt(np.sum(vals[:, :, n:] ** 2, axis=-1))
        tail_g = np.max(np.abs(ders[:, :, n:]), axis=-1) if n < n_ref else np.zeros(1)
        value_gaps.append(float(np.max(tail_v)))
        grad_gaps.append(float(np.max(tail_g)))
    return GalerkinReport(levels=levels, value_gaps=tuple(value_gaps),
                          grad_gaps=tuple(grad_gaps), reference=n_ref,
                          per_mode_sup=tuple(sups))


# ---------------------------------------------------------------------------
# Local Holder-envelope diagnostic


def holder_envelope_ratio(field: FieldGrid, phi: Modulus, delta: float,
                          pairs: Sequence, s: float = 0.0) -> np.ndarray:
    """Ratios ||grad2 u(z) - grad2 u(z')|| / min_r { r + |z-z'| (1 + I(r^delta)) }

    with I(a) = int_a^1 phi(sigma)/sigma dsigma, evaluated over sampled pairs;
    the min runs over 40 geometric r in [1e-6, 0.999].
    Bounded ratios (no growth as |z - z'| shrinks) are the envelope check; for
    a Dini modulus the plain Lipschitz ratio is the simpler special case.
    """
    from .model import dini_integral
    r_grid = np.geomspace(1e-6, 0.999, 40)
    dini_tail = np.array([dini_integral(phi, max(float(r) ** delta, 1e-12))
                          for r in r_grid])
    pts = np.asarray(pairs, dtype=float).reshape(-1, 2, field.dim)
    J = field.jacobian_y_many(np.full(2 * pts.shape[0], float(s)),
                              pts.reshape(-1, field.dim)).reshape(-1, 2, field.d, field.d)
    num = np.linalg.norm(J[:, 0] - J[:, 1], ord=2, axis=(-2, -1))
    dist = np.linalg.norm(pts[:, 0] - pts[:, 1], axis=-1)
    env = np.min(r_grid + dist[:, None] * (1.0 + dini_tail), axis=-1)
    return num / env
