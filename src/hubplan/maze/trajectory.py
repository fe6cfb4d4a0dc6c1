"""Recorded episodes and their on-disk form.

A trajectory is one episode's observation matrix, one `raster` row per
step including the last, and its action array, plus its task labels. On
disk: a log of header comments followed by one action id per line, and a
sidecar binary observation file holding the rows split into a `view`
tensor and a `barrel` tensor of the slots' (color + 1) codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..nn.io import ArtifactError, load_params, save_params
from .env import EnvState, Goal, MazeEnv, StartConfig
from .raster import OBS_SIZE, VIEW_SIZE


@dataclass(eq=False)
class Trajectory:
    start_id: int
    start: StartConfig
    goal: Goal
    success: bool                 # the y label
    observations: np.ndarray      # (T + 1, OBS_SIZE); a list of rows is stacked
    actions: np.ndarray           # (T,) np.intp; a list is converted

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.intp)
        if self.observations.shape != (len(self.actions) + 1, OBS_SIZE):
            raise ValueError("need one observation row of OBS_SIZE values more than actions")

    def __len__(self) -> int:
        return len(self.actions)


LOG_VERSION = "v2"


def save_trajectory(traj: Trajectory, base: Path) -> None:
    base = Path(base)
    lines = [
        f"# trajectory {LOG_VERSION}",
        f"# start_id {traj.start_id}",
        f"# start {traj.start.pos[0]} {traj.start.pos[1]} {traj.start.orientation}",
        f"# goal {traj.goal}",
        f"# success {int(traj.success)}",
    ]
    lines.extend(str(action) for action in traj.actions.tolist())
    base.with_suffix(".log").write_text("\n".join(lines) + "\n")
    obs = traj.observations
    save_params(base.with_suffix(".obs"), "trajectory",
                {"view": obs[:, :VIEW_SIZE], "barrel": obs[:, VIEW_SIZE:] * 4})


def load_trajectory(base: Path) -> Trajectory:
    base = Path(base)
    log = base.with_suffix(".log")
    header: dict[str, str] = {}
    body: list[str] = []
    for line in log.read_text().splitlines():
        if line.startswith("#"):
            parts = line[1:].strip().split(None, 1)
            if len(parts) == 2:
                header[parts[0]] = parts[1]
        else:
            body.append(line)
    version = header.get("trajectory")
    if version != LOG_VERSION:
        raise ArtifactError(f"{log}: trajectory log version {version}, expected {LOG_VERSION}; "
                            "run stage gen-demos again")
    actions = [int(line) for line in body]
    kind, tensors = load_params(base.with_suffix(".obs"), expect_kind="trajectory")
    view, barrel = tensors["view"], tensors["barrel"]
    if view.shape[0] != len(actions) + 1:
        raise ArtifactError(f"{base}: observation count does not match action count")
    sx, sy, so = header["start"].split()
    return Trajectory(
        start_id=int(header["start_id"]),
        start=StartConfig((int(sx), int(sy)), int(so)),
        goal=Goal.parse(header["goal"]),
        success=bool(int(header["success"])),
        observations=np.concatenate([view, barrel / 4], axis=1),
        actions=actions,
    )


def replay_states(env: MazeEnv, traj: Trajectory) -> list[EnvState]:
    """Re-run the recorded actions; returns the ground-truth state sequence."""
    state = env.start_state(traj.start, traj.goal)
    states = [state]
    for action in traj.actions.tolist():
        state = env.transition(state, action)
        states.append(state)
    return states

