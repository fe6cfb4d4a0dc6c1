"""Demonstration dataset: 18 seen-pair successes plus 120 sampled failures.

The 12 ordered goals are assigned to the three starts in overlapping
blocks of six, so every start misses half the goals while every goal is
demonstrated from at least one start. Failures are drawn uniformly without
replacement from the 13 canonical mistakes of each seen pair.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..maze.env import Goal, MazeEnv, all_goals
from ..maze.trajectory import Trajectory, load_trajectory, save_trajectory
from ..nn.io import json_artifact
from .expert import FailureSpec, enumerate_failure_specs, generate_failure_demo, generate_success_demo

N_FAILURES = 120


def seen_unseen_split() -> tuple[list[tuple[int, Goal]], list[tuple[int, Goal]]]:
    """Overlapping goal blocks: start 0 gets g0..g5, start 1 g4..g9, start 2 g8..g11,g0,g1."""
    goals = all_goals()
    blocks = {
        0: [goals[i] for i in range(0, 6)],
        1: [goals[i] for i in range(4, 10)],
        2: [goals[i] for i in (8, 9, 10, 11, 0, 1)],
    }
    seen = [(sid, g) for sid in range(3) for g in blocks[sid]]
    seen_set = {(sid, g) for sid, g in seen}
    unseen = [(sid, g) for sid in range(3) for g in goals if (sid, g) not in seen_set]
    return seen, unseen


@dataclass
class DemoDataset:
    seed: int
    seen: list[tuple[int, Goal]]
    unseen: list[tuple[int, Goal]]
    successes: list[Trajectory]
    failures: list[Trajectory]
    failure_specs: list[tuple[int, Goal, FailureSpec]]

    @property
    def trajectories(self) -> list[Trajectory]:
        return self.successes + self.failures


def failure_candidates(seen: list[tuple[int, Goal]]) -> list[tuple[int, Goal, FailureSpec]]:
    out = []
    for sid, goal in seen:
        for spec in enumerate_failure_specs(goal):
            out.append((sid, goal, spec))
    return out


def build_dataset(env: MazeEnv, seed: int) -> DemoDataset:
    seen, unseen = seen_unseen_split()
    successes = [generate_success_demo(env, sid, goal) for sid, goal in seen]
    candidates = failure_candidates(seen)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFA11]))
    chosen = sorted(rng.choice(len(candidates), size=N_FAILURES, replace=False))
    picked = [candidates[i] for i in chosen]
    failures = [generate_failure_demo(env, sid, goal, spec) for sid, goal, spec in picked]
    return DemoDataset(
        seed=seed,
        seen=seen,
        unseen=unseen,
        successes=successes,
        failures=failures,
        failure_specs=picked,
    )


def save_dataset(ds: DemoDataset, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "seed": ds.seed,
        "n_successes": len(ds.successes),
        "n_failures": len(ds.failures),
        "seen": [[sid, str(g)] for sid, g in ds.seen],
        "unseen": [[sid, str(g)] for sid, g in ds.unseen],
        "successes": [],
        "failures": [],
    }
    for i, traj in enumerate(ds.successes):
        name = f"success_{i:03d}"
        save_trajectory(traj, out_dir / name)
        manifest["successes"].append(name)
    for i, traj in enumerate(ds.failures):
        name = f"failure_{i:03d}"
        save_trajectory(traj, out_dir / name)
        sid, goal, spec = ds.failure_specs[i]
        manifest["failures"].append({"file": name, "start_id": sid, "goal": str(goal),
                                     **asdict(spec)})
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))


def load_dataset(out_dir: Path) -> DemoDataset:
    """The dataset `save_dataset` wrote; raises `ArtifactError` naming
    `manifest.json` and gen-demos when the manifest is not JSON or lacks a
    key."""
    out_dir = Path(out_dir)
    with json_artifact(out_dir / "manifest.json", "gen-demos") as manifest:
        seed = manifest["seed"]
        seen = [(sid, Goal.parse(g)) for sid, g in manifest["seen"]]
        unseen = [(sid, Goal.parse(g)) for sid, g in manifest["unseen"]]
        successes = manifest["successes"]
        failures = [rec["file"] for rec in manifest["failures"]]
        specs = [(rec["start_id"], Goal.parse(rec["goal"]),
                  FailureSpec(**{f.name: rec[f.name] for f in fields(FailureSpec)}))
                 for rec in manifest["failures"]]
    return DemoDataset(
        seed=seed,
        seen=seen,
        unseen=unseen,
        successes=[load_trajectory(out_dir / name) for name in successes],
        failures=[load_trajectory(out_dir / name) for name in failures],
        failure_specs=specs,
    )
