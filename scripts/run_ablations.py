#!/usr/bin/env python3
"""Both ablations against an existing run directory.

The hop-count planner re-plans over the already-trained artifacts; the
no-memory variant rebuilds the whole pipeline with pose-only features in a
subdirectory. Also replays the constructed wrong-key-shortcut comparison.
"""

import argparse
import sys

import numpy as np

from hubplan.config import parse_config
from hubplan.edge_policies import PolicyTrainConfig, train_policies
from hubplan.execution import execute
from hubplan.hub_dynamics import (CachedDist, HighTrainConfig, HubDynamicsModel,
                                  pretrain_on_traversals, train_high)
from hubplan.pipeline import ablate_bfs, ablate_no_memory
from hubplan.planning import SearchConfig, bfs_plan, goal_hub_set, search
from hubplan.scenarios import build_scenario, scenario_topology


def shortcut_comparison() -> None:
    sc = build_scenario()
    topo = scenario_topology(sc)
    model = HubDynamicsModel(np.random.default_rng(1), n_hubs=len(topo.hubs))
    pretrain_on_traversals(model, topo, 500, 32, seed=1, lr=2e-4, epochs=3)
    train_high(model, topo.hub_sequences(), topo, HighTrainConfig(epochs=250))
    bank = train_policies(topo, sc.trajectories, model.embeddings(),
                          PolicyTrainConfig(seed=1), log=lambda *a: None)
    goals = goal_hub_set(sc.goal, topo)
    start_hub = next(h.id for h in topo.hubs if 0 in h.start_ids)
    for name, plan in (("bfs", bfs_plan(topo, start_hub, goals)),
                       ("history", search(topo, CachedDist(model, topo), start_hub,
                                          goals, SearchConfig()))):
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        res = execute(plan, sc.env, state, obs, bank, sc.encoder, model.embeddings(), topo)
        print(f"shortcut variant [{name}]: {len(plan.edges)} edges, "
              f"success={res.success}, failure={res.failure_reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run", default="runs/oracle", help="existing run directory")
    parser.add_argument("--config", help="config file (defaults to the run's config.txt)")
    args = parser.parse_args()
    cfg_path = args.config or f"{args.run}/config.txt"
    cfg = parse_config(cfg_path)
    cfg.out_dir = args.run

    bfs_agg = ablate_bfs(cfg)
    print(f"bfs planner on the standard maze: seen {bfs_agg['seen_successes']}"
          f"/{bfs_agg['seen_total']}, unseen {bfs_agg['unseen_successes']}"
          f"/{bfs_agg['unseen_total']}")
    nm_agg = ablate_no_memory(cfg)
    print(f"no-memory features: seen {nm_agg['seen_successes']}/{nm_agg['seen_total']}, "
          f"unseen {nm_agg['unseen_successes']}/{nm_agg['unseen_total']}")
    shortcut_comparison()
    return 0


if __name__ == "__main__":
    sys.exit(main())
