"""Built-in scenario catalog: the example systems and diagnostic sweeps.

Every scenario consumes a validated ScenarioConfig, derives all randomness
from the config seed through named substreams, writes CSV artifacts once
(atomically) into the output directory, and returns human-readable summary
lines.  Summary lines cite claims only through the fixed anchor table below
(no free-text citations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from . import bismut, linear_flow, regularization as reg, sde
from .config import ScenarioConfig
from .errors import ConfigError
from .model import build_drift, build_example
from .persist import (bundle_to_csv, estimates_to_csv, picard_report_to_csv,
                      save_bundle, save_field, save_trajectory, write_csv)

ANCHORS = {
    "gramian-cubic-scaling":
        "inverse Gramian scaling: sup_t ||Q_t^-1|| t^3 stays bounded "
        "(exactly 6 for the scalar case)",
    "bismut-gradient-identity":
        "semigroup derivative equals the expectation of the observable times "
        "a stochastic-integral weight built from the perturbation control",
    "coupling-terminal-coincidence":
        "the coupled flow rejoins the base path at the terminal time and the "
        "Girsanov reweighting has unit mean",
    "gradient-x-exponent":
        "x-direction gradient norm of the semigroup scales like "
        "gap^(-3(1-alpha)/2) on bounded observables (alpha = 0 gives -3/2)",
    "gradient-y-exponent":
        "y-direction gradient norm of the semigroup scales like gap^(-1/2) "
        "on bounded observables",
    "picard-contraction-half":
        "the discounted fixed-point map contracts with factor <= 1/2 once "
        "the discount rate is large enough",
    "field-norm-sqrt-decay":
        "the fixed-point norm (sup plus y-gradient sup) decays like "
        "lambda^(-1/2) along a discount sweep",
    "galerkin-gap-decay":
        "spectral truncation gaps of the fixed-point field decrease as more "
        "modes are retained",
    "representation-identity":
        "the noisy component of a solution is representable through the "
        "regularization field; the residual vanishes under refinement",
    "uniqueness-common-noise":
        "common-noise trajectories started at merging points collapse with "
        "the perturbation (pathwise-uniqueness evidence, not proof)",
    "bihari-envelope":
        "pathwise energy stays below the nonlinear Gronwall envelope built "
        "from measured constants; no explosion under dissipative growth",
}


@dataclass(frozen=True)
class ScenarioInfo:
    """A catalog entry; ``knobs`` maps every experiment key the runner reads
    besides scenario and seed to its default, whose type a config value must
    have, ``bounds`` maps a knob to the (op, limit) its value, or each item of
    its list, must satisfy beyond that type (op is ">" or ">="),
    ``model_kind`` names the kind of model section it reads, if any, and
    ``model_keys`` the keys of that section it passes on to build_example
    (validation rejects any other key, value or section)."""

    name: str
    description: str
    anchor: str
    runner: Callable
    knobs: Mapping[str, object] = field(default_factory=dict)
    model_kind: Optional[str] = None
    model_keys: Tuple[str, ...] = ()
    bounds: Mapping[str, tuple] = field(default_factory=dict)


def _anchor_line(anchor: str, text: str) -> str:
    if anchor not in ANCHORS:
        raise KeyError(f"unknown anchor {anchor!r}")
    return f"[{anchor}] {text}"


# ---------------------------------------------------------------------------
# Scenario runners


def _run_kinetic_bismut(cfg: ScenarioConfig, outdir: Path) -> List[str]:
    model, _ = build_example("kinetic", d=1)
    n_paths = cfg.knob("n_paths")
    n_steps = cfg.knob("n_steps")
    seed = cfg.seed
    probes = [
        ("x", (0.0, 1.0), lambda z: z[:, 0], 1.0),   # d/dy E[X_T] = T
        ("y", (0.0, 1.0), lambda z: z[:, 1], 1.0),   # d/dy E[Y_T] = 1
        ("y", (1.0, 0.0), lambda z: z[:, 1], 0.0),   # d/dx E[Y_T] = 0
    ]
    rows = []
    lines = []
    for i, (name, v, f, expect) in enumerate(probes):
        est = bismut.bismut_gradient(model, 0.0, 1.0, f, [0.0, 0.0], v,
                                     n_paths=n_paths, n_steps=n_steps,
                                     seed=seed, stream=("scenario", "kinetic", str(i)))
        rows.append({"s": 0.0, "T": 1.0, "component": name,
                     "direction": f"({v[0]:g},{v[1]:g})", "value": est.value,
                     "stderr": est.stderr, "n_paths": n_paths, "seed": seed})
        lines.append(_anchor_line(
            "bismut-gradient-identity",
            f"probe f={name}, v=({v[0]:g},{v[1]:g}): {est.value:+.4f} "
            f"+- {est.stderr:.4f} (expected {expect:+.1f})"))
    coup = bismut.verify_coupling(model, 0.0, 1.0, [0.0, 1.0], 0.5,
                                  n_paths=n_paths, n_steps=n_steps, seed=seed)
    lines.append(_anchor_line(
        "coupling-terminal-coincidence",
        f"terminal gap {coup.terminal_gap:.2e}; Girsanov mean "
        f"{coup.girsanov_mean:.4f} +- {coup.girsanov_stderr:.4f}"))
    estimates_to_csv(outdir / "gradients.csv", rows)
    sample = linear_flow.sample_linear(model, 0.0, 1.0, [0.0, 0.0], 16, 64,
                                       seed, stream=("scenario", "kinetic", "bundle"))
    save_bundle(sample, outdir / "paths.dgfb")
    bundle_to_csv(sample, outdir / "paths.csv")
    return lines


def _run_gradient_scaling(cfg: ScenarioConfig, outdir: Path) -> List[str]:
    model, _ = build_example("kinetic", d=1)
    budget = cfg.knob("budget")
    gaps = [2.0 ** (-j) for j in range(8, 2, -1)]
    seed = cfg.seed
    eps = 1e-7
    f_x = lambda z: np.tanh(z[:, 0] / eps)
    f_y = lambda z: np.tanh(z[:, 1] / eps)
    probes_x = np.array([[0.0, y] for y in (-0.5, 0.0, 0.5)])
    probes_y = np.array([[x, 0.0] for x in (-0.5, 0.0, 0.5)])
    fit_x = bismut.scaling_exponent(model, f_x, "x", gaps, budget,
                                    probes=probes_x, seed=seed)
    fit_y = bismut.scaling_exponent(model, f_y, "y", gaps, budget,
                                    probes=probes_y, seed=seed)
    rows = [["x", g, v] for g, v in zip(fit_x.gaps, fit_x.values)]
    rows += [["y", g, v] for g, v in zip(fit_y.gaps, fit_y.values)]
    write_csv(outdir / "scaling.csv", ["component", "gap", "sup_gradient"], rows)
    return [
        _anchor_line("gradient-x-exponent",
                     f"fitted x-slope {fit_x.slope:+.3f} +- {fit_x.slope_stderr:.3f} "
                     "(expected -1.5)"),
        _anchor_line("gradient-y-exponent",
                     f"fitted y-slope {fit_y.slope:+.3f} +- {fit_y.slope_stderr:.3f} "
                     "(expected -0.5)"),
    ]


def _run_gramian_sweep(cfg: ScenarioConfig, outdir: Path) -> List[str]:
    model, _ = build_example("kinetic", d=1)
    res = bismut.gramian_Q(model, 1.0)
    write_csv(outdir / "gramian.csv", ["t", "inv_norm_times_t3"],
              [[float(t), float(r)] for t, r in zip(res.sweep_t, res.sweep_ratio)])
    return [_anchor_line(
        "gramian-cubic-scaling",
        f"sup over dyadic t of ||Q_t^-1|| t^3 = {res.bound_check:.12g} "
        f"(scalar closed form: 6)")]


def _run_picard_lambda_sweep(cfg: ScenarioConfig, outdir: Path) -> List[str]:
    model, _ = build_example("kinetic", d=1)
    b = build_drift("tanh_steep", 1, 1, kappa=1e6)
    lambdas = [2.0 ** j for j in range(4, 11)]
    base = cfg.knob("base_points")
    rows = []
    last_report = None
    for lam in lambdas:
        ny = int(round(base * math.sqrt(lam / lambdas[0]))) + 1
        grid = reg.GridSpec(lo=(-2.0, -2.0), hi=(2.0, 2.0), shape=(9, ny),
                            t_final=1.0, n_time=17)
        _, rep = reg.picard_solve(model, b, lam, grid, tol=1e-6, max_iter=40)
        rows.append([lam, rep.sup_u, rep.sup_grad2, rep.hnorm,
                     rep.iterations, rep.contraction_factor])
        last_report = rep
    picard_report_to_csv(last_report, outdir / "picard_report.csv")
    write_csv(outdir / "lambda_sweep.csv",
              ["lambda", "sup_u", "sup_grad2", "hnorm", "iterations",
               "contraction_factor"], rows)
    lams = np.array([r[0] for r in rows])
    hnorm = np.array([r[3] for r in rows])
    slope = float(np.polyfit(np.log(lams), np.log(hnorm), 1)[0])
    factor = (f"{last_report.contraction_factor:.3f}" if last_report.valid_factors
              else f"not measurable (no factor above the residual floor in "
                   f"{last_report.iterations} iterations)")
    return [
        _anchor_line("field-norm-sqrt-decay",
                     f"fixed-point norm slope {slope:+.3f} over lambda in "
                     f"[{lams[0]:g}, {lams[-1]:g}] (expected -1/2)"),
        _anchor_line("picard-contraction-half",
                     f"median contraction factor at lambda={lams[-1]:g}: {factor}"),
    ]


_GALERKIN_LEVELS = (2, 4, 8)


def _run_galerkin_wave(cfg: ScenarioConfig, outdir: Path) -> List[str]:
    n_ref = cfg.knob("n_reference")
    section = cfg.model_section
    section.pop("kind", None)
    section.setdefault("theta", 1.0)
    section.setdefault("d_space", 1)
    section.setdefault("n", n_ref)
    model, _ = build_example("wave", **section)
    if model.d < _GALERKIN_LEVELS[-1]:
        raise ConfigError(f"model.n: galerkin_wave compares levels up to "
                          f"{_GALERKIN_LEVELS[-1]} and needs as many modes, got {model.d}")
    n_ref = min(n_ref, model.d)
    amp = cfg.knob("amplitude")
    if amp == 0:
        raise ConfigError("experiment.amplitude: galerkin_wave needs a nonzero drift "
                          "amplitude (a zero drift has an all-zero field and no gaps)")

    def mode_drift(i):
        return lambda t, x, y: amp * np.tanh(x + y)

    drifts = [mode_drift(i) for i in range(n_ref)]
    grid = reg.GridSpec(lo=(-3.0, -3.0), hi=(3.0, 3.0), shape=(33, 33),
                        t_final=1.0, n_time=17)
    report = reg.galerkin_compare(model, drifts, lam=cfg.knob("lam"),
                                  levels=_GALERKIN_LEVELS, grid2d=grid, seed=cfg.seed)
    write_csv(outdir / "galerkin.csv", ["level", "value_gap", "grad_gap"],
              [[n, v, g] for n, v, g in zip(report.levels, report.value_gaps,
                                            report.grad_gaps)])
    return [_anchor_line(
        "galerkin-gap-decay",
        "gaps over levels " + ", ".join(
            f"n={n}: value {v:.3e}, grad {g:.3e}"
            for n, v, g in zip(report.levels, report.value_gaps,
                               report.grad_gaps)))]


def _run_uniqueness_rough(cfg: ScenarioConfig, outdir: Path) -> List[str]:
    model, _ = build_example("kinetic", d=1)
    b = build_drift("rough_d1", 1, 1)
    T = cfg.knob("t_final")
    steps = cfg.knob("steps")
    perturbations = cfg.knob("perturbations")
    rows = []
    gap_at_T = {}
    for p in perturbations:
        table = sde.uniqueness_experiment(model, b, [0.3, 0.4], p, T, steps,
                                          seed=cfg.seed)
        for row in table.rows:
            rows.append([p, row.n_steps, row.sup_gap, row.gap_at_T,
                         int(row.blew_up_a or row.blew_up_b)])
        gap_at_T[p] = table.rows[-1].gap_at_T
    write_csv(outdir / "uniqueness.csv",
              ["perturbation", "n_steps", "sup_gap", "gap_at_T", "blowup"], rows)
    ordered = ", ".join(f"p={p:g}: {gap_at_T[p]:.3e}"
                        for p in sorted(gap_at_T, reverse=True))
    return [_anchor_line("uniqueness-common-noise",
                         f"terminal gaps at the finest grid: {ordered} "
                         "(evidence table; uniqueness is a theorem, not an observable)")]


def _run_representation_residual(cfg: ScenarioConfig, outdir: Path) -> List[str]:
    model, _ = build_example("kinetic", d=1)
    T = 1.0
    lam = cfg.knob("lam")
    steps = [2 ** j for j in range(7, 12)]
    n_paths = cfg.knob("n_paths")
    noise = sde.make_noise(model, T, steps[-1], n_paths, cfg.seed,
                           stream=("scenario", "residual"))

    c = 0.8
    b_const = build_drift("constant", 1, 1, value=np.array([c]))
    u_fn = lambda ts, pts: (c * (1.0 - np.exp(-lam * (T - ts))) / lam)[:, None]
    f_const = reg.FunctionField(u_fn, 1, 1,
                                jac_fn=lambda ts, pts: np.zeros((pts.shape[0], 1, 1)))

    b_rough = build_drift("rough_y", 1, 1)
    # the paths do not depend on the field: integrate them first
    records = [sde.coarsen_noise(model, noise, steps[-1] // n) for n in steps]
    ensembles = {name: [sde.integrate_ensemble(model, b, [0.2, 0.1], T, n, noise=cn)
                        for n, cn in zip(steps, records)]
                 for name, b in (("constant", b_const), ("rough", b_rough))}

    # the field box is [-6, 6]^2, widened in y at the same spacing when the
    # rough paths come within 3 cells of its edge
    ny = cfg.knob("rough_gridpoints")
    dy = 12.0 / (ny - 1)
    y_sup = max(float(np.max(np.abs(ens.Y))) for ens in ensembles["rough"])
    extra = max(0, math.ceil((y_sup + 3.0 * dy - 6.0) / dy))
    y_half = 6.0 + extra * dy
    grid = reg.GridSpec(lo=(-6.0, -y_half), hi=(6.0, y_half), shape=(3, ny + 2 * extra),
                        t_final=T, n_time=cfg.knob("rough_timenodes"))
    f_rough, _ = reg.picard_solve(model, b_rough, lam, grid, tol=1e-9,
                                  max_iter=60)

    rows = []
    lines = []
    for name, b, fld in (("constant", b_const, f_const),
                         ("rough", b_rough, f_rough)):
        prev = None
        for n, ens in zip(steps, ensembles[name]):
            res = float(np.mean(
                sde.representation_residual(model, b, ens, fld, lam).max_residual))
            ratio = (prev / res) if prev else float("nan")
            rows.append([name, n, res, ratio])
            prev = res
        lines.append(_anchor_line(
            "representation-identity",
            f"{name} drift: residual {rows[-len(steps)][2]:.3e} -> {rows[-1][2]:.3e} "
            f"over steps {steps[0]}..{steps[-1]}"))
    write_csv(outdir / "residuals.csv",
              ["scenario", "n_steps", "mean_max_residual", "ratio_vs_prev"], rows)
    save_field(f_rough, outdir / "rough_field.dgfb")
    save_trajectory(ensembles["rough"][0].path(0), outdir / "rough_trajectory.dgfb")
    return lines


def _run_bihari_envelope(cfg: ScenarioConfig, outdir: Path) -> List[str]:
    model, _ = build_example("kinetic", d=1)
    b = build_drift("dissipative", 1, 1)
    T = cfg.knob("t_final")
    n_paths = cfg.knob("n_paths")
    n_steps = cfg.knob("n_steps")
    rep = sde.dissipation_envelope(model, b, [0.5, 1.0], T, n_steps, n_paths,
                                   seed=cfg.seed)
    # one illustrative curve (the path with the largest measured eta)
    p = int(np.argmax(rep.eta_T))
    bound = sde.BihariBound(b.ell, float(rep.eta_T[p]), float(rep.C_env[p]))
    ts = np.linspace(0.0, T, 33)
    curve = bound.curve(ts)
    sup_interp = np.interp(ts, rep.times, rep.sup_tilde_sq[p])
    write_csv(outdir / "envelope.csv",
              ["t", "bound_curve", "sup_tilde_sq_path"],
              [[float(t), float(cv), float(sv)]
               for t, cv, sv in zip(ts, curve, sup_interp)])
    below = int(np.sum(rep.margins >= -1e-9))
    return [_anchor_line(
        "bihari-envelope",
        f"{below}/{n_paths} paths below their envelopes; blow-ups before T: "
        f"{rep.n_blowups}; min margin {rep.margins.min():.3e}")]


SCENARIOS = {
    "kinetic_bismut": ScenarioInfo(
        "kinetic_bismut",
        "Monte-Carlo derivative probes on the kinetic scalar flow vs analytic "
        "Gaussian derivatives, plus the coupling/Girsanov check",
        "bismut-gradient-identity", _run_kinetic_bismut,
        {"n_paths": 20000, "n_steps": 256}, bounds={"n_paths": (">=", 2)}),
    "gradient_scaling": ScenarioInfo(
        "gradient_scaling",
        "fitted gap-exponents of the semigroup gradient sup-norms in both "
        "direction classes",
        "gradient-x-exponent", _run_gradient_scaling,
        {"budget": 240000}),
    "gramian_sweep": ScenarioInfo(
        "gramian_sweep",
        "dyadic sweep of the inverse-Gramian cubic scaling",
        "gramian-cubic-scaling", _run_gramian_sweep),
    "picard_lambda_sweep": ScenarioInfo(
        "picard_lambda_sweep",
        "fixed-point solves along a doubling discount sweep with norm decay "
        "and contraction factors",
        "field-norm-sqrt-decay", _run_picard_lambda_sweep,
        {"base_points": 192}),
    "galerkin_wave": ScenarioInfo(
        "galerkin_wave",
        "truncation-gap decay of the fixed-point field for the wave system",
        "galerkin-gap-decay", _run_galerkin_wave,
        {"n_reference": 12, "amplitude": 1.0, "lam": 64.0}, model_kind="wave",
        model_keys=("kind", "theta", "d_space", "n", "delta"),
        bounds={"n_reference": (">=", _GALERKIN_LEVELS[-1]), "lam": (">", 0)}),
    "uniqueness_rough": ScenarioInfo(
        "uniqueness_rough",
        "common-noise gap tables for the rough drift across perturbations "
        "and step counts",
        "uniqueness-common-noise", _run_uniqueness_rough,
        {"t_final": 1.0, "steps": [256, 512, 1024],
         "perturbations": [1e-2, 1e-3, 1e-4, 0.0]},
        bounds={"t_final": (">", 0), "perturbations": (">=", 0)}),
    "representation_residual": ScenarioInfo(
        "representation_residual",
        "residual decay of the field representation identity under step "
        "refinement (constant and rough drifts)",
        "representation-identity", _run_representation_residual,
        {"lam": 64.0, "n_paths": 8, "rough_gridpoints": 1025,
         "rough_timenodes": 129},
        bounds={"lam": (">", 0), "rough_gridpoints": (">=", 2),
                "rough_timenodes": (">=", 2)}),
    "bihari_envelope": ScenarioInfo(
        "bihari_envelope",
        "pathwise nonlinear-Gronwall envelope check for the dissipative drift",
        "bihari-envelope", _run_bihari_envelope,
        {"t_final": 2.0, "n_paths": 1000, "n_steps": 512},
        bounds={"t_final": (">", 0)}),
}


def run_scenario(cfg: ScenarioConfig, outdir: Path) -> List[str]:
    info = SCENARIOS[cfg.scenario]
    outdir.mkdir(parents=True, exist_ok=True)
    lines = info.runner(cfg, outdir)
    return lines
