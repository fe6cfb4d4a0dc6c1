"""Command-line surface.

Subcommands: gen-demos, train-low, build-topology, train-high,
train-policies, plan, eval, ablate, run-all. Exit codes: 0 success,
1 stage failure, 2 configuration error.

A run directory's config.txt is the one source of its settings, fixed when
the run starts. Every subcommand takes --out, the run directory, and reads
its settings from --config if given, else from --out's config.txt if there
is one, else the defaults. Only gen-demos and run-all, which start a run,
take --config and --seed; a start whose settings differ from an existing
config.txt in --out is a configuration error naming every differing key.

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

from .config import FILE_FIELDS, ConfigError, RunConfig, parse_config  # noqa: E402
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

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=RunConfig.out_dir,
                       help=f"run directory; its config.txt holds the run's settings "
                            f"(default {RunConfig.out_dir})")
        if name in ("gen-demos", "run-all"):     # the subcommands that start a run
            p.add_argument("--config", help="flat key = value settings file for a new run "
                                            "(default: --out's config.txt, else the defaults)")
            p.add_argument("--seed", type=int, help="run seed (replaces the settings' seed)")
        return p

    for name in STAGES:
        command(name, f"run the {name} stage")
    command("run-all", "run every stage in order")

    p_plan = command("plan", "search a plan for one start-goal pair")
    p_plan.add_argument("--start", type=int, required=True, choices=(0, 1, 2))
    p_plan.add_argument("--goal", required=True, type=_goal, help="ordered pair, e.g. red,blue")

    command("ablate", "run an ablation").add_argument(
        "--kind", required=True, choices=("bfs", "no-memory"))
    return parser


def _load_config(args) -> RunConfig:
    saved = Path(args.out) / "config.txt"
    kept = parse_config(saved) if saved.exists() else None
    path = getattr(args, "config", None)
    cfg = parse_config(path) if path else kept or RunConfig()
    # replace() checks --out and --seed as the file's values are checked
    cfg = dataclasses.replace(cfg, out_dir=args.out)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if kept is not None:
        differ = [f.name for f in FILE_FIELDS if getattr(cfg, f.name) != getattr(kept, f.name)]
        if differ:
            raise ConfigError(f"{saved} holds other values for {', '.join(differ)}; a run "
                              f"keeps the settings it started with, so start this one in "
                              f"another --out directory")
    return cfg


def _cmd_plan(cfg: RunConfig, args) -> None:
    from .hub_dynamics import CachedDist
    from .pipeline import _load_topology, load_high_model, make_encoder, make_env, plan_task
    from .planning import format_plan

    _ds, topo = _load_topology(cfg, "plan")
    next_dist = CachedDist(load_high_model(cfg, "plan", len(topo.hubs)), topo)
    _state, _obs, plan = plan_task(topo, next_dist, make_env(cfg),
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
