"""The four benchmark workloads: generated inputs, set-up, one pass, checks.

Each workload is a closed loop with one client: ``run`` executes one pass of
the workload body and returns its outputs, and ``checks`` turns those outputs
into named pass/fail results.  Every check holds for any correct
implementation (analytic values within 5 standard errors, the acceptance
suite's windows, exact identities), never for golden numbers, so a change of
random realisations is not a failure.

The benchmark seed reaches the program only through the generated inputs:
arrays, start points, the integer seeds handed to its estimators and config
copies with ``experiment.seed`` substituted.

The package is imported through its modules (``bismut.bismut_gradient``) so
that the traced run sees the patched entry points.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from pathlib import Path

import numpy as np
import yaml

from degenflow import bismut, cli, model, regularization as reg, sde
from spans import SCENARIO_NAMES

ROOT = Path(__file__).resolve().parent.parent

N_SE = 5.0


def _seeds(rng: np.random.Generator, n: int) -> list:
    return [int(v) for v in rng.integers(1, 2 ** 31 - 1, size=n)]


def _within_se(name, value, expect, stderr):
    ok = abs(value - expect) <= N_SE * max(stderr, 1e-12)
    return name, ok, f"{value:+.5f} +- {stderr:.5f} (expected {expect:+.5f}, {N_SE:g} SE)"


def _grid_size(grid: reg.GridSpec) -> list:
    return [*grid.shape, grid.n_time]


def _strictly_decreasing(xs) -> bool:
    return all(a > b for a, b in zip(xs, xs[1:]))


def rough_field_grid(points: int = 1025, n_time: int = 129) -> reg.GridSpec:
    """The 3 x ``points`` x ``n_time`` grid of the rough_y field; the default
    3 x 1025 x 129 is the field ``pathwise_sde`` solves in its set-up.  The box
    is [-8, 8]^2 rather than the scenario's [-6, 6]^2: about one path in 3000
    under the rough drift leaves [-6, 6]^2 before T = 1 (the residual then
    raises CoverageError), while none of 9600 sampled paths passed 6.8."""
    return reg.GridSpec(lo=(-8.0, -8.0), hi=(8.0, 8.0), shape=(3, points),
                        t_final=1.0, n_time=n_time)


class McLinear:
    """Monte-Carlo derivative estimators on the exact linear flow.

    The large calls are bound by ``StepKernel.draw``; the two scaling fits
    make many small calls and so measure per-call overhead in the same layer.
    No field solve or SDE integration happens here.
    """

    name = "mc_linear"
    n_paths = 10_000
    n_steps = 256
    scaling_budget = 40_000
    scaling_gaps = tuple(2.0 ** (-j) for j in range(8, 2, -1))
    second_order_paths = 10_000
    check_names = ("grad_x_ex", "grad_x_ey", "grad_y2_ex", "grad_y2_ey",
                   "hessian_xy_x2", "coupling_gap", "girsanov_mean",
                   "slope_x", "slope_y", "second_order_grad")

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        seeds = _seeds(rng, 6)
        return {
            "z": rng.uniform(-0.5, 0.5, size=2),
            # |v1| <= 0.4, |v2| <= 0.8 as in the acceptance suite: larger
            # directions make the Girsanov weight too heavy-tailed for 5 SE.
            "coupling_v": rng.uniform(-1.0, 1.0, size=2) * np.array([0.4, 0.8]),
            "z2": rng.uniform(-0.5, 0.5, size=4),
            "v2": rng.uniform(-1.0, 1.0, size=4),
            "c2": rng.uniform(-1.0, 1.0, size=4),
            "grad_seed": seeds[0], "hessian_seed": seeds[1],
            "coupling_seed": seeds[2], "scaling_x_seed": seeds[3],
            "scaling_y_seed": seeds[4], "second_order_seed": seeds[5],
        }

    def setup(self, inp: dict) -> dict:
        kinetic, _ = model.build_example("kinetic", d=1)
        second, _ = model.build_example("second_order", d=2)
        return {"inp": inp, "kinetic": kinetic, "second": second}

    def sizes(self, state: dict) -> dict:
        return {"paths": self.n_paths, "steps": self.n_steps,
                "scaling_budget": self.scaling_budget,
                "scaling_points_per_fit": len(self.scaling_gaps) * 3,
                "second_order_paths": self.second_order_paths,
                "second_order_dim": state["second"].dim}

    def run(self, state: dict) -> dict:
        inp, kin = state["inp"], state["kinetic"]
        n, N = self.n_paths, self.n_steps
        observables = {"x": lambda z: z[:, 0], "y2": lambda z: z[:, 1] ** 2}
        directions = {"ex": [1.0, 0.0], "ey": [0.0, 1.0]}
        grads = {}
        for fname, f in observables.items():
            for vname, v in directions.items():
                grads[fname, vname] = bismut.bismut_gradient(
                    kin, 0.0, 1.0, f, inp["z"], v, n_paths=n, n_steps=N,
                    seed=inp["grad_seed"], stream=("bench", fname, vname))
        hess = bismut.bismut_hessian(kin, 0.0, 1.0, lambda z: z[:, 0] ** 2,
                                     inp["z"], [1.0, 0.0], [0.0, 1.0],
                                     n_paths=n, n_steps=N, seed=inp["hessian_seed"])
        coup = bismut.verify_coupling(kin, 0.0, 1.0, inp["coupling_v"], 0.5,
                                      n_paths=n, n_steps=N, seed=inp["coupling_seed"])
        eps = 1e-7
        fit_x = bismut.scaling_exponent(
            kin, lambda z: np.tanh(z[:, 0] / eps), "x", self.scaling_gaps,
            self.scaling_budget, probes=np.array([[0.0, -0.5], [0.0, 0.0], [0.0, 0.5]]),
            seed=inp["scaling_x_seed"])
        fit_y = bismut.scaling_exponent(
            kin, lambda z: np.tanh(z[:, 1] / eps), "y", self.scaling_gaps,
            self.scaling_budget, probes=np.array([[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]]),
            seed=inp["scaling_y_seed"])
        c2 = inp["c2"]
        second = bismut.bismut_gradient(
            state["second"], 0.0, 1.0, lambda z: z @ c2, inp["z2"], inp["v2"],
            n_paths=self.second_order_paths, n_steps=N, seed=inp["second_order_seed"])
        return {"grads": grads, "hess": hess, "coup": coup, "fit_x": fit_x,
                "fit_y": fit_y, "second": second}

    def checks(self, state: dict, out: dict) -> list:
        inp = state["inp"]
        y = float(inp["z"][1])
        g = out["grads"]
        # Kinetic d=1, T=1: E[X_T] = x + y, E[Y_T^2] = y^2 + 1.
        res = [_within_se("grad_x_ex", g["x", "ex"].value, 1.0, g["x", "ex"].stderr),
               _within_se("grad_x_ey", g["x", "ey"].value, 1.0, g["x", "ey"].stderr),
               _within_se("grad_y2_ex", g["y2", "ex"].value, 0.0, g["y2", "ex"].stderr),
               _within_se("grad_y2_ey", g["y2", "ey"].value, 2.0 * y, g["y2", "ey"].stderr),
               # E[X_T^2] = (x + y)^2 + 1/3, so d/dx d/dy = 2.
               _within_se("hessian_xy_x2", out["hess"].value, 2.0, out["hess"].stderr)]
        coup = out["coup"]
        res.append(("coupling_gap", coup.terminal_gap <= 1e-8,
                    f"terminal gap {coup.terminal_gap:.2e} (tol 1e-8)"))
        res.append(_within_se("girsanov_mean", coup.girsanov_mean, 1.0,
                              coup.girsanov_stderr))
        for name, fit, target in (("slope_x", out["fit_x"], -1.5),
                                  ("slope_y", out["fit_y"], -0.5)):
            res.append((name, abs(fit.slope - target) <= 0.2,
                        f"{fit.slope:+.3f} (window {target:+.1f} +- 0.2)"))
        # Second-order system, blocks [[0, I], [0, -I]]: for the linear
        # observable c.z the gradient along v is c . e^{A} v in closed form.
        v, c = inp["v2"], inp["c2"]
        e = math.exp(-1.0)
        flow_v = np.concatenate([v[:2] + (1.0 - e) * v[2:], e * v[2:]])
        res.append(_within_se("second_order_grad", out["second"].value,
                              float(c @ flow_v), out["second"].stderr))
        return res


class FieldSolve:
    """The solve side of ``regularization``: Picard fields, the contraction
    search, Theta round trips and the Galerkin comparison.  No Monte-Carlo
    path draws."""

    name = "field_solve"
    rough_points, rough_time = 257, 65
    search_points, search_time = 33, 17
    n_round_trips = 40
    check_names = ("picard_converged", "contraction_half", "theta_round_trip",
                   "galerkin_value_gaps", "galerkin_grad_gaps")

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        return {"theta_z": rng.uniform(-2.5, 2.5, size=(self.n_round_trips, 2)),
                "theta_s": rng.uniform(0.0, 1.0, size=self.n_round_trips),
                "galerkin_seed": _seeds(rng, 1)[0]}

    def setup(self, inp: dict) -> dict:
        kinetic, _ = model.build_example("kinetic", d=1)
        wave, _ = model.build_example("wave", theta=1.0, d_space=1, n=12, delta=0.4)
        return {
            "inp": inp, "kinetic": kinetic, "wave": wave,
            "rough_y": model.build_drift("rough_y", 1, 1),
            "rough_grid": rough_field_grid(self.rough_points, self.rough_time),
            "cutoff": sde.cutoff_drift(model.build_drift("rough_d1", 1, 1), 3),
            "search_grid": reg.GridSpec.cube(2, half_width=4.0, points=self.search_points,
                                             t_final=1.0, n_time=self.search_time),
            "galerkin_grid": reg.GridSpec(lo=(-3.0, -3.0), hi=(3.0, 3.0), shape=(33, 33),
                                          t_final=1.0, n_time=17),
        }

    def sizes(self, state: dict) -> dict:
        return {"rough_grid": _grid_size(state["rough_grid"]),
                "search_grid": _grid_size(state["search_grid"]),
                "round_trips": self.n_round_trips, "galerkin_modes": state["wave"].d,
                "galerkin_grid": _grid_size(state["galerkin_grid"])}

    def run(self, state: dict) -> dict:
        kin = state["kinetic"]
        _, rough_rep = reg.picard_solve(kin, state["rough_y"], 64.0, state["rough_grid"],
                                        tol=1e-9, max_iter=60)
        lam, field, search_rep = reg.find_contraction_lambda(
            kin, state["cutoff"], state["search_grid"], lam0=16.0, tol=1e-8, max_iter=40)
        inp = state["inp"]
        worst = 0.0
        for z, s in zip(inp["theta_z"], inp["theta_s"]):
            w = reg.theta_forward(field, float(s), z)
            worst = max(worst, float(np.max(np.abs(reg.theta_inverse(field, float(s), w) - z))))
        drifts = [lambda t, x, y: np.tanh(x + y) for _ in range(12)]
        gal = reg.galerkin_compare(state["wave"], drifts, lam=64.0, levels=[2, 4, 8],
                                   grid2d=state["galerkin_grid"], seed=inp["galerkin_seed"])
        return {"rough": rough_rep, "lam": lam, "search": search_rep,
                "round_trip": worst, "galerkin": gal}

    def checks(self, state: dict, out: dict) -> list:
        rough, search, gal = out["rough"], out["search"], out["galerkin"]
        v, g = gal.value_gaps, gal.grad_gaps
        return [
            ("picard_converged", rough.converged,
             f"{rough.iterations} iterations, last residual {rough.residuals[-1]:.2e}"),
            ("contraction_half", search.contraction_factor <= 0.5,
             f"factor {search.contraction_factor:.3f} at lambda={out['lam']:g} (tol 1/2)"),
            ("theta_round_trip", out["round_trip"] <= 1e-9,
             f"worst {out['round_trip']:.2e} (tol 1e-9)"),
            ("galerkin_value_gaps", _strictly_decreasing(v) and v[-1] > 0,
             "value gaps " + ", ".join(f"{x:.3e}" for x in v)),
            ("galerkin_grad_gaps", _strictly_decreasing(g) and g[-1] > 0,
             "grad gaps " + ", ".join(f"{x:.3e}" for x in g)),
        ]


class PathwiseSde:
    """The read side of ``regularization`` and the per-step recursions of
    ``sde``.  The rough field is solved once in set-up; no Picard solve
    happens inside a pass."""

    name = "pathwise_sde"
    lam = 64.0
    n_paths = 4
    fine_steps = 2048
    steps = (128, 256, 512, 1024, 2048)
    perturbations = (1e-2, 1e-3, 1e-4, 0.0)
    uniqueness_steps = (256, 512, 1024)
    envelope_paths = 500
    envelope_steps = 1024
    check_names = ("residual_constant_decreases", "residual_rough_decreases",
                   "zero_perturbation_gap", "envelope_below")

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        seeds = _seeds(rng, 3)
        return {"z0": rng.uniform(-0.5, 0.5, size=2),
                "uniqueness_z0": rng.uniform(-0.5, 0.5, size=2),
                "envelope_z0": rng.uniform(0.0, 1.0, size=2),
                "noise_seed": seeds[0], "uniqueness_seed": seeds[1],
                "envelope_seed": seeds[2]}

    def setup(self, inp: dict) -> dict:
        kin, _ = model.build_example("kinetic", d=1)
        lam = self.lam
        c = 0.8
        u_fn = lambda ts, pts: (c * (1.0 - np.exp(-lam * (1.0 - ts))) / lam)[:, None]
        const_field = reg.FunctionField(
            u_fn, 1, 1, jac_fn=lambda ts, pts: np.zeros((pts.shape[0], 1, 1)))
        rough = model.build_drift("rough_y", 1, 1)
        rough_field, _ = reg.picard_solve(kin, rough, lam, rough_field_grid(),
                                          tol=1e-9, max_iter=60)
        return {"inp": inp, "kinetic": kin,
                "cases": (("constant", model.build_drift("constant", 1, 1,
                                                         value=np.array([c])), const_field),
                          ("rough", rough, rough_field)),
                "rough_d1": model.build_drift("rough_d1", 1, 1),
                "dissipative": model.build_drift("dissipative", 1, 1)}

    def sizes(self, state: dict) -> dict:
        return {"paths": self.n_paths, "steps": list(self.steps),
                "field_grid": _grid_size(rough_field_grid()),
                "perturbations": len(self.perturbations),
                "uniqueness_steps": list(self.uniqueness_steps),
                "envelope_paths": self.envelope_paths,
                "envelope_steps": self.envelope_steps}

    def run(self, state: dict) -> dict:
        kin, inp = state["kinetic"], state["inp"]
        noise = sde.make_noise(kin, 1.0, self.fine_steps, self.n_paths, inp["noise_seed"],
                               stream=("bench", "residual"))
        residuals = {}
        for name, b, fld in state["cases"]:
            row = []
            for n in self.steps:
                cn = sde.coarsen_noise(kin, noise, self.fine_steps // n)
                ens = sde.integrate_ensemble(kin, b, inp["z0"], 1.0, n, noise=cn)
                row.append(float(np.mean([
                    sde.representation_residual(kin, b, ens.path(p), fld, self.lam).max_residual
                    for p in range(self.n_paths)])))
            residuals[name] = row
        tables = {p: sde.uniqueness_experiment(kin, state["rough_d1"], inp["uniqueness_z0"],
                                               p, 1.0, self.uniqueness_steps,
                                               seed=inp["uniqueness_seed"])
                  for p in self.perturbations}
        env = sde.dissipation_envelope(kin, state["dissipative"], inp["envelope_z0"], 2.0,
                                       self.envelope_steps, self.envelope_paths,
                                       seed=inp["envelope_seed"])
        return {"residuals": residuals, "tables": tables, "envelope": env}

    def checks(self, state: dict, out: dict) -> list:
        const, rough = out["residuals"]["constant"], out["residuals"]["rough"]
        # The analytic field leaves only the time discretisation, so every
        # doubling lowers the residual.  The rough field's interpolation error
        # floors its residual near 2048 steps on this grid, so only the
        # decrease from 128 to 2048 steps is required there.
        res = [("residual_constant_decreases", _strictly_decreasing(const),
                "mean max residual " + ", ".join(f"{x:.3e}" for x in const)),
               ("residual_rough_decreases", rough[-1] < rough[0],
                "mean max residual " + ", ".join(f"{x:.3e}" for x in rough))]
        zero = out["tables"][0.0].gaps()
        res.append(("zero_perturbation_gap", bool(np.all(zero == 0.0)),
                    f"max gap {float(np.max(zero)):.1e} (must be exactly 0)"))
        env = out["envelope"]
        res.append(("envelope_below", env.all_below and env.n_blowups == 0,
                    f"{int(np.sum(env.margins >= -1e-9))}/{env.margins.size} below, "
                    f"{env.n_blowups} blow-ups"))
        return res


class Scenarios:
    """The user's command: every shipped scenario through ``degenflow run``.

    Config copies carry a seed derived from the benchmark seed.  Artifacts of
    each pass are compared byte for byte with the first pass of the same run,
    so the check holds for any deterministic implementation.
    """

    name = "scenarios"
    check_names = tuple(f"{n}_{kind}" for n in SCENARIO_NAMES
                        for kind in ("exit_code", "artifacts"))

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 4])
        return dict(zip(SCENARIO_NAMES, _seeds(rng, len(SCENARIO_NAMES))))

    def setup(self, inp: dict) -> dict:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True)
        configs = {}
        for name, seed in inp.items():
            raw = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())
            raw["experiment"]["seed"] = seed
            path = cfg_dir / f"{name}.yaml"
            path.write_text(yaml.safe_dump(raw, sort_keys=True))
            configs[name] = path
        return {"inp": inp, "configs": configs, "reference": None}

    def sizes(self, state: dict) -> dict:
        return {"configs": len(state["configs"]), "seeds": dict(state["inp"])}

    def run(self, state: dict) -> dict:
        codes = {}
        for name, path in state["configs"].items():
            outdir = self.workdir / "out" / name
            if outdir.exists():
                shutil.rmtree(outdir)
            with contextlib.redirect_stdout(io.StringIO()):
                codes[name] = cli.main(["run", str(path), "--outdir", str(outdir)])
        return {"codes": codes}

    def artifacts(self, name: str) -> dict:
        outdir = self.workdir / "out" / name
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(outdir.iterdir()) if p.is_file()}

    def checks(self, state: dict, out: dict) -> list:
        digests = {name: self.artifacts(name) for name in state["configs"]}
        if state["reference"] is None:
            state["reference"] = digests
        res = []
        for name in state["configs"]:
            code = out["codes"][name]
            res.append((f"{name}_exit_code", code == 0, f"exit code {code}"))
            same = digests[name] == state["reference"][name]
            res.append((f"{name}_artifacts", same and bool(digests[name]),
                        f"{len(digests[name])} files, "
                        f"{'identical to' if same else 'differ from'} the run's first pass"))
        return res


def make_workloads(workdir: Path) -> dict:
    """Name -> workload object; ``workdir`` holds the scenario outputs."""
    return {w.name: w for w in (McLinear(), FieldSolve(), PathwiseSde(),
                                Scenarios(workdir / "scenarios"))}
