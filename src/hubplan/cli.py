"""Command-line surface.

Subcommands: gen-demos, train-low, build-topology, train-high,
train-policies, plan, eval, ablate, run-all. Exit codes: 0 success,
1 stage failure, 2 configuration error.

Without --config, every subcommand but gen-demos and run-all continues the
run in its --out directory with that run's config.txt, if any; --out and
--seed apply on top.

A run uses one BLAS thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS says otherwise, so that a seed reproduces its artifacts
byte for byte: with two OpenBLAS threads the hub model's training products
round differently.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

# BLAS reads these once, when numpy is first imported, which is below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import ConfigError, RunConfig, parse_config  # noqa: E402
from .maze.env import Goal  # noqa: E402
from .pipeline import (  # noqa: E402
    STAGES,
    StageError,
    ablate_bfs,
    ablate_no_memory,
    run_pipeline,
)


def _goal(text: str) -> Goal:
    try:
        return Goal.parse(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            f"expected two distinct colors, e.g. red,blue; got {text!r}") from e


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hubplan",
                                     description="hub-topology behavior composition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="run seed (overrides config)")

    for name in STAGES:
        common(sub.add_parser(name, help=f"run the {name} stage"))
    common(sub.add_parser("run-all", help="run every stage in order"))

    p_plan = sub.add_parser("plan", help="search a plan for one start-goal pair")
    common(p_plan)
    p_plan.add_argument("--start", type=int, required=True, choices=(0, 1, 2))
    p_plan.add_argument("--goal", required=True, type=_goal, help="ordered pair, e.g. red,blue")

    p_abl = sub.add_parser("ablate", help="run an ablation")
    common(p_abl)
    p_abl.add_argument("--kind", required=True, choices=("bfs", "no-memory"))
    return parser


def _load_config(args) -> RunConfig:
    path = args.config
    if path is None and args.out and args.command not in ("gen-demos", "run-all"):
        saved = Path(args.out) / "config.txt"
        path = saved if saved.exists() else None
    cfg = parse_config(path) if path else RunConfig()
    overrides = {"out_dir": args.out, "seed": args.seed}
    # replace() checks the overridden values as the file's are checked
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_plan(cfg: RunConfig, args) -> None:
    from .hub_dynamics import CachedDist
    from .pipeline import _load_topology, load_high_model, make_encoder, make_env, plan_task
    from .planning import format_plan

    _ds, topo = _load_topology(cfg, "plan")
    next_dist = CachedDist(load_high_model(cfg, "plan", len(topo.hubs)), topo)
    _state, _obs, plan = plan_task(cfg, topo, next_dist, make_env(cfg),
                                   make_encoder(cfg, Path(cfg.out_dir)), args.start, args.goal)
    sys.stdout.write(format_plan(plan, topo))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2

    try:
        if args.command == "run-all":
            run_pipeline(cfg)
        elif args.command == "plan":
            _cmd_plan(cfg, args)
        elif args.command == "ablate":
            if args.kind == "bfs":
                ablate_bfs(cfg)
            else:
                ablate_no_memory(cfg)
        else:
            STAGES[args.command](cfg)
    except StageError as e:
        print(f"stage failure: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - surface anything else as a stage failure
        print(f"stage failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
