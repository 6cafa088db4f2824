"""Command-line interface: run scenarios, list the catalog, validate configs.

    degenflow run <config.yaml> [--outdir DIR]
    degenflow list-scenarios [--machine]
    degenflow validate <config.yaml>

``python -m degenflow`` runs the same commands without an installed script.

The output directory resolves as --outdir > $DEGENFLOW_OUTDIR > the config's
output.dir.  ``validate`` reads a config through ``load_config`` as ``run``
does, so it rejects whatever ``run`` rejects as a config; ``main`` alone
turns an error into an exit code and its stderr line(s).  Exit codes:
0 success, 2 invalid config (one line per problem), 3 hypothesis violation
(the message names the (H*) label), 4 any other toolkit error (a solver that
does not converge or contract, a non-invertible transform, a path leaving a
field's box; one line on stderr names the error), 1 other failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import SCENARIOS, load_config
from .errors import ConfigError, DegenflowError, HypothesisViolationError


def _resolve_outdir(args, cfg) -> Path:
    if getattr(args, "outdir", None):
        return Path(args.outdir)
    env = os.environ.get("DEGENFLOW_OUTDIR")
    if env:
        return Path(env)
    return cfg.outdir()


def _cmd_run(args) -> int:
    from .scenarios import run_scenario  # only run loads numpy and scipy
    cfg = load_config(args.config)
    outdir = _resolve_outdir(args, cfg)
    lines = run_scenario(cfg, outdir)
    summary = [f"scenario: {cfg.scenario}", f"seed: {cfg.seed}"] + lines
    text = "\n".join(summary) + "\n"
    print(f"output: {outdir}")
    print(text, end="")
    from .persist import _atomic_write
    _atomic_write(outdir / "summary.txt", text.encode("utf-8"))
    return 0


def _cmd_list(args) -> int:
    if args.machine:
        print("name,anchor,description")
        for name in sorted(SCENARIOS):
            info = SCENARIOS[name]
            desc = info.description.replace('"', "'")
            print(f'{name},{info.anchor},"{desc}"')
        return 0
    print(f"{len(SCENARIOS)} scenarios:")
    for name in sorted(SCENARIOS):
        info = SCENARIOS[name]
        print(f"  {name:26s} [{info.anchor}]")
        print(f"      {info.description}")
    return 0


def _cmd_validate(args) -> int:
    load_config(args.config)
    print("config ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenflow",
        description="desk-scale numerics for degenerate SDEs with rough drifts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a YAML scenario config")
    p_run.add_argument("--outdir", help="output directory override")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list-scenarios", help="print the scenario catalog")
    p_list.add_argument("--machine", action="store_true",
                        help="CSV output instead of prose")
    p_list.set_defaults(func=_cmd_list)

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config", help="path to a YAML scenario config")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        for line in str(exc).splitlines():
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except DegenflowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
