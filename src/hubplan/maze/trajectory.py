"""Recorded episodes and their on-disk form.

A trajectory is the full (observation, action) record of one episode plus
its task labels. On disk: a line-delimited log (step, action, reward,
terminal) with a few header comments, and a sidecar binary observation
file holding the view and barrel tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..nn.io import ArtifactError, load_params, save_params
from .env import EnvState, Goal, MazeEnv, Observation, StartConfig


@dataclass
class Trajectory:
    start_id: int
    start: StartConfig
    goal: Goal
    success: bool                 # the y label
    observations: list[Observation]
    actions: list[int]
    rewards: list[float]

    def __post_init__(self):
        if len(self.observations) != len(self.actions) + 1:
            raise ValueError("need exactly one more observation than actions")

    def __len__(self) -> int:
        return len(self.actions)


def save_trajectory(traj: Trajectory, base: Path) -> None:
    base = Path(base)
    lines = [
        "# trajectory v1",
        f"# start_id {traj.start_id}",
        f"# start {traj.start.pos[0]} {traj.start.pos[1]} {traj.start.orientation}",
        f"# goal {traj.goal}",
        f"# success {int(traj.success)}",
    ]
    n = len(traj.actions)
    for t in range(n):
        terminal = 1 if t == n - 1 else 0
        lines.append(f"{t} {traj.actions[t]} {traj.rewards[t]!r} {terminal}")
    base.with_suffix(".log").write_text("\n".join(lines) + "\n")
    view = np.stack([o.view for o in traj.observations])
    barrel = np.stack([o.barrel_vec.astype(np.float64) for o in traj.observations])
    save_params(base.with_suffix(".obs"), "trajectory", {"view": view, "barrel": barrel})


def load_trajectory(base: Path) -> Trajectory:
    base = Path(base)
    header: dict[str, str] = {}
    actions: list[int] = []
    rewards: list[float] = []
    for line in base.with_suffix(".log").read_text().splitlines():
        if line.startswith("#"):
            parts = line[1:].strip().split(None, 1)
            if len(parts) == 2:
                header[parts[0]] = parts[1]
            continue
        _idx, act, rew, _term = line.split()
        actions.append(int(act))
        rewards.append(float(rew))
    kind, tensors = load_params(base.with_suffix(".obs"), expect_kind="trajectory")
    view = tensors["view"]
    barrel = tensors["barrel"].astype(np.int64)
    if view.shape[0] != len(actions) + 1:
        raise ArtifactError(f"{base}: observation count does not match action count")
    observations = [Observation(view=view[t], barrel_vec=barrel[t]) for t in range(view.shape[0])]
    sx, sy, so = header["start"].split()
    return Trajectory(
        start_id=int(header["start_id"]),
        start=StartConfig((int(sx), int(sy)), int(so)),
        goal=Goal.parse(header["goal"]),
        success=bool(int(header["success"])),
        observations=observations,
        actions=actions,
        rewards=rewards,
    )


def replay_states(env: MazeEnv, traj: Trajectory) -> list[EnvState]:
    """Re-run the recorded actions; returns the ground-truth state sequence."""
    state = env.start_state(traj.start, traj.goal)
    states = [state]
    for action in traj.actions:
        state, _r, _term, _succ = env.transition(state, action)
        states.append(state)
    return states


def replay_check(env: MazeEnv, traj: Trajectory) -> bool:
    """True when replaying reproduces the stored observations and outcome."""
    state, obs = env.reset(traj.start, traj.goal)
    if obs != traj.observations[0]:
        return False
    terminal = success = False
    for t, action in enumerate(traj.actions):
        state, obs, _r, terminal, success = env.step(state, action)
        if obs != traj.observations[t + 1]:
            return False
    return terminal and success == traj.success
