"""Pipeline stages: demos -> (low-level) -> topology -> hub model -> policies -> eval.

Every stage reads its inputs from the run directory and persists its outputs
there, so stages can be re-run individually; a missing upstream artifact is
reported with the stage that produces it. All randomness is derived from the
run seed, making whole runs bit-reproducible.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

import numpy as np

from . import nn
from .config import ConfigError, RunConfig, save_config
from .demos.dataset import DemoDataset, build_dataset, load_dataset, save_dataset
from .edge_policies import PolicyBank, load_bank, save_bank, train_policies
from .execution import execute
from .hub_dynamics import CachedDist, HubDynamicsModel, pretrain_on_traversals, train_high
from .latent.model import LearnedEncoder, LowLevelModel
from .latent.oracle import BACKEND_FIELDS, OracleEncoder
from .latent.training import train_low_level
from .maze.env import EnvState, Goal, MazeEnv
from .metrics import TaskRecord, save_metrics
from .planning import (
    NoPlanError,
    Plan,
    SearchConfig,
    bfs_plan,
    format_plan,
    goal_hub_set,
    match_start_hub,
    search,
)
from .topology import (
    BehaviorTopology,
    build_topology,
    detect_hubs,
    encode_dataset,
    load_topology,
    save_topology,
)

LOW_KIND = "lowlevel"
HIGH_KIND = "highlevel"


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _require(path: Path, stage: str, produced_by: str) -> Path:
    if not path.exists():
        raise StageError(stage, f"missing artifact {path.name!r}; run stage {produced_by} first")
    return path


def make_env(cfg: RunConfig) -> MazeEnv:
    """The default maze: no run setting changes the environment."""
    return MazeEnv()


def make_encoder(cfg: RunConfig, out: Path):
    if cfg.encoder_backend in BACKEND_FIELDS:
        return OracleEncoder(epsilon=cfg.epsilon, fields=BACKEND_FIELDS[cfg.encoder_backend])
    path = _require(out / "lowlevel.bin", "make-encoder", "train-low")
    with nn.io.written_by("train-low"):
        _kind, tensors = nn.load_params(path, expect_kind=LOW_KIND)
    return LearnedEncoder(LowLevelModel.from_tensors(tensors))


def stage_gen_demos(cfg: RunConfig, log=print) -> DemoDataset:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.txt")
    env = make_env(cfg)
    ds = build_dataset(env, seed=cfg.seed)
    save_dataset(ds, out / "dataset")
    log(f"gen-demos: {len(ds.successes)} successes, {len(ds.failures)} failures")
    return ds


def stage_train_low(cfg: RunConfig, log=print) -> None:
    out = Path(cfg.out_dir)
    if cfg.encoder_backend != "learned":
        log("train-low: oracle backend, nothing to train")
        return
    _require(out / "dataset" / "manifest.json", "train-low", "gen-demos")
    ds = load_dataset(out / "dataset")
    model = LowLevelModel(np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x10])))
    losses = train_low_level(model, ds.trajectories, cfg)
    nn.save_params(out / "lowlevel.bin", LOW_KIND, model.tensors())
    (out / "lowlevel_loss.txt").write_text(
        "".join(f"epoch {i} loss {v!r}\n" for i, v in enumerate(losses)))
    log(f"train-low: {len(losses)} epochs, loss {losses[0]:.4f} -> {losses[-1]:.4f}")


def stage_build_topology(cfg: RunConfig, log=print) -> BehaviorTopology:
    out = Path(cfg.out_dir)
    _require(out / "dataset" / "manifest.json", "build-topology", "gen-demos")
    ds = load_dataset(out / "dataset")
    env = make_env(cfg)
    encoder = make_encoder(cfg, out)
    latent = encode_dataset(env, ds, encoder)
    hubs = detect_hubs(latent, cfg.epsilon)
    topo = build_topology(latent, hubs, cfg.epsilon)
    save_topology(topo, out / "topology.txt")
    log(f"build-topology: {len(topo.hubs)} hubs, {len(topo.edges)} edges")
    return topo


def _load_topology(cfg: RunConfig, stage: str) -> tuple[DemoDataset, BehaviorTopology]:
    out = Path(cfg.out_dir)
    _require(out / "dataset" / "manifest.json", stage, "gen-demos")
    ds = load_dataset(out / "dataset")
    path = _require(out / "topology.txt", stage, "build-topology")
    return ds, load_topology(path, ds.trajectories)


def stage_train_high(cfg: RunConfig, log=print) -> HubDynamicsModel:
    out = Path(cfg.out_dir)
    # the dataset only checks the topology's spans; its observations are freed here
    topo = _load_topology(cfg, "train-high")[1]
    model = HubDynamicsModel(np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x41])),
                             n_hubs=len(topo.hubs))
    pre = pretrain_on_traversals(model, topo, cfg)
    losses = train_high(model, topo.hub_sequences(), topo)
    nn.save_params(out / "highlevel.bin", HIGH_KIND, model.tensors())
    with open(out / "high_loss.txt", "w") as fh:
        for i, v in enumerate(pre):
            fh.write(f"pretrain {i} loss {v!r}\n")
        for i, v in enumerate(losses):
            fh.write(f"epoch {i} loss {v!r}\n")
    pretrain = f"pretrain {pre[0]:.4f} -> {pre[-1]:.4f}, " if pre else ""
    log(f"train-high: {pretrain}train {losses[0]:.4f} -> {losses[-1]:.4f}")
    return model


def load_high_model(cfg: RunConfig, stage: str, n_hubs: int) -> HubDynamicsModel:
    out = Path(cfg.out_dir)
    path = _require(out / "highlevel.bin", stage, "train-high")
    with nn.io.written_by("train-high"):
        _kind, tensors = nn.load_params(path, expect_kind=HIGH_KIND)
    model = HubDynamicsModel.from_tensors(tensors)
    if model.n_hubs != n_hubs:
        raise StageError(stage, f"{path.name} holds {model.n_hubs} hubs but the topology has "
                                f"{n_hubs}; run stage train-high again")
    return model


def stage_train_policies(cfg: RunConfig, log=print) -> PolicyBank:
    out = Path(cfg.out_dir)
    ds, topo = _load_topology(cfg, "train-policies")
    model = load_high_model(cfg, "train-policies", len(topo.hubs))
    lines: list[str] = []
    bank = train_policies(topo, ds.trajectories, model.embeddings(), cfg.seed,
                          log=lines.append)
    save_bank(bank, out / "policies")
    (out / "policy_loss.txt").write_text("".join(line + "\n" for line in lines))
    log(f"train-policies: {len(bank.policies)} policies")
    return bank


def plan_task(topo: BehaviorTopology, next_dist: CachedDist | None, env: MazeEnv, encoder,
              start_id: int, goal: Goal, planner=None) -> tuple[EnvState, np.ndarray, Plan]:
    """Reset `env` to a task, encode its first observation, match the start
    hub within `topo.epsilon` and plan to the goal's hubs: with
    `planner(topo, start_hub, goal_set)` when one is given (the BFS ablation
    passes `bfs_plan` and no `next_dist`), else with the history search
    over `next_dist` at `SearchConfig()`, planning's own settings.

    Returns (state, observation, plan); raises NoPlanError when the start
    matches no hub or no plan reaches the goal.
    """
    state, obs = env.reset(env.starts[start_id], goal)
    encoder.begin_episode()
    start_hub = match_start_hub(encoder.encode(obs, state), topo)
    goal_set = goal_hub_set(goal, topo)
    if planner is not None:
        return state, obs, planner(topo, start_hub, goal_set)
    return state, obs, search(topo, next_dist, start_hub, goal_set, SearchConfig())


def evaluate(cfg: RunConfig, topo: BehaviorTopology, pairs: list[tuple[int, Goal, bool]],
             log=print, plans_subdir: str = "plans", planner=None) -> list[TaskRecord]:
    """One episode per (start, goal, seen-flag) on the run's loaded topology,
    planned as `plan_task` does with `planner` and executed with arrivals
    matched within `topo.epsilon`; plans dumped next to metrics. Without a
    `planner`, each task's log line counts the histories its search expanded."""
    out = Path(cfg.out_dir)
    model = load_high_model(cfg, "eval", len(topo.hubs))
    _require(out / "policies" / "index.json", "eval", "train-policies")
    bank = load_bank(out / "policies")
    sources = sorted({s for s, _t in topo.edges})
    if sorted(bank.policies) != sources:
        raise StageError("eval", f"policies/ holds {len(bank.policies)} policies for other hubs "
                                 f"than the topology's {len(sources)} source hubs; "
                                 f"run stage train-policies again")
    if bank.emb_dim != model.emb_dim:
        raise StageError("eval", f"policies/ was trained on {bank.emb_dim}-wide hub embeddings "
                                 f"but highlevel.bin holds {model.emb_dim}-wide ones; "
                                 f"run stage train-policies again")
    env = make_env(cfg)
    encoder = make_encoder(cfg, out)
    embeddings = model.embeddings()
    plans_dir = out / plans_subdir
    plans_dir.mkdir(parents=True, exist_ok=True)

    records: list[TaskRecord] = []
    for start_id, goal, seen in pairs:
        path = plans_dir / f"plan_{start_id}_{goal.first}{goal.second}.txt"
        dist = CachedDist(model, topo) if planner is None else None
        try:
            state, obs, plan = plan_task(topo, dist, env, encoder, start_id, goal, planner)
        except NoPlanError as e:
            path.write_text(f"no plan: {e}\n")
            record = TaskRecord(start_id=start_id, goal=str(goal), seen=seen, success=False,
                                steps=0, edges_crossed=0, planned_edges=0,
                                plan_cost=float("nan"), failure_reason="no-plan")
        else:
            result = execute(plan, env, state, obs, bank, encoder, embeddings, topo)
            path.write_text(format_plan(plan, topo) + result.format())
            record = TaskRecord(start_id=start_id, goal=str(goal), seen=seen,
                                success=result.success, steps=result.steps,
                                edges_crossed=result.edges_crossed,
                                planned_edges=result.planned_edges, plan_cost=float(plan.cost),
                                failure_reason=result.failure_reason)
        records.append(record)
        expanded = "" if dist is None else f" expansions={dist.calls}"
        log(f"eval: start={start_id} goal={goal} seen={int(seen)} "
            f"success={int(record.success)} steps={record.steps}{expanded}")
    return records


def _evaluate_all(cfg: RunConfig, stage: str, subdir: str, log, planner=None) -> dict:
    """Evaluate every seen and unseen task of the dataset with `planner`;
    plans go to `subdir`/plans and the metrics to `subdir` of the run
    directory."""
    ds, topo = _load_topology(cfg, stage)
    pairs = [(sid, g, True) for sid, g in ds.seen] + [(sid, g, False) for sid, g in ds.unseen]
    records = evaluate(cfg, topo, pairs, log=log, plans_subdir=str(Path(subdir, "plans")),
                       planner=planner)
    agg = save_metrics(records, Path(cfg.out_dir, subdir))
    log(f"{stage}: seen {agg['seen_successes']}/{agg['seen_total']}, "
        f"unseen {agg['unseen_successes']}/{agg['unseen_total']}")
    return agg


def stage_eval(cfg: RunConfig, log=print) -> dict:
    return _evaluate_all(cfg, "eval", "", log)


STAGES = {
    "gen-demos": stage_gen_demos,
    "train-low": stage_train_low,
    "build-topology": stage_build_topology,
    "train-high": stage_train_high,
    "train-policies": stage_train_policies,
    "eval": stage_eval,
}


def run_pipeline(cfg: RunConfig, log=print) -> dict:
    """Every stage in order; returns eval's aggregates. After each stage it
    logs the stage's wall time and the process's peak RSS so far (a peak
    that a later stage does not raise shows only at the stage that set it)."""
    t0 = time.perf_counter()
    for name, stage in STAGES.items():
        t_stage = time.perf_counter()
        result = stage(cfg, log=log)
        wall = time.perf_counter() - t_stage
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # kilobytes on Linux
        log(f"stage={name} wall_s={wall:.2f} maxrss_mb={maxrss_kb / 1024:.1f}")
    log(f"run-all: finished in {time.perf_counter() - t0:.1f}s")
    return result


def derive_no_memory_config(cfg: RunConfig) -> RunConfig:
    """Ablation: hub discovery from the current observation only. The oracle
    analogue, the `oracle-pose` backend, keeps pose and drops the
    history-dependent fields; the learned backend has no such variant."""
    import dataclasses

    if cfg.encoder_backend != "oracle":
        raise ConfigError("the no-memory ablation needs the oracle backend, "
                          f"not {cfg.encoder_backend!r}")
    return dataclasses.replace(
        cfg,
        out_dir=str(Path(cfg.out_dir) / "ablate_no_memory"),
        encoder_backend="oracle-pose",
    )


def ablate_no_memory(cfg: RunConfig, log=print) -> dict:
    return run_pipeline(derive_no_memory_config(cfg), log=log)


def ablate_bfs(cfg: RunConfig, log=print) -> dict:
    """Ablation: hop-count planning over the same trained artifacts."""
    return _evaluate_all(cfg, "ablate-bfs", "ablate_bfs", log, planner=bfs_plan)
