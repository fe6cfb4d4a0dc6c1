"""Recorded episodes and their on-disk form.

A trajectory is one episode's observation matrix, one `raster` row per
step including the last, and its action array, plus its task labels. On
disk: a log of header comments followed by one action id per line, and a
sidecar observation file. Every observation value is a multiple of 1/4 in
[0, 1], so the sidecar stores 4 x the matrix as one uint8 code per value:
magic ``HBOB``, u32 rows, u32 columns, the codes row by row, and the sha256
of all of it (`nn.io.write_checksummed`). Loading verifies the digest
first and rebuilds the matrix as codes x 0.25, which is exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..nn.io import ArtifactError, read_checksummed, write_checksummed
from .env import N_ACTIONS, EnvState, Goal, MazeEnv, StartConfig
from .raster import OBS_SIZE


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


LOG_VERSION = "v3"
OBS_MAGIC = b"HBOB"
_OBS_HEADER = struct.Struct("<4sII")     # magic, rows, columns


def save_trajectory(traj: Trajectory, base: Path) -> None:
    """Write `base.log` and `base.obs`; raises ValueError, writing nothing,
    unless 4 x every observation value is an integer in [0, 255]."""
    base = Path(base)
    scaled = traj.observations * 4
    if not np.all(~np.signbit(scaled) & (scaled <= 255) & (scaled == np.floor(scaled))):
        raise ValueError("4 x an observation value is not an integer in [0, 255]")
    codes = scaled.astype(np.uint8)
    lines = [
        f"# trajectory {LOG_VERSION}",
        f"# start_id {traj.start_id}",
        f"# start {traj.start.pos[0]} {traj.start.pos[1]} {traj.start.orientation}",
        f"# goal {traj.goal}",
        f"# success {int(traj.success)}",
    ]
    lines.extend(str(action) for action in traj.actions.tolist())
    base.with_suffix(".log").write_text("\n".join(lines) + "\n")
    write_checksummed(base.with_suffix(".obs"), [_OBS_HEADER.pack(OBS_MAGIC, *codes.shape), codes])


def _bad(path: Path, why: str) -> ArtifactError:
    return ArtifactError(f"{path}: {why}; run stage gen-demos again")


def load_trajectory(base: Path) -> Trajectory:
    base = Path(base)
    log, obs = base.with_suffix(".log"), base.with_suffix(".obs")
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
        raise _bad(log, f"trajectory log version {version}, expected {LOG_VERSION}")
    try:
        sx, sy, so = header["start"].split()
        labels = dict(start_id=int(header["start_id"]),
                      start=StartConfig((int(sx), int(sy)), int(so)),
                      goal=Goal.parse(header["goal"]),
                      success=bool(int(header["success"])))
    except KeyError as e:
        raise _bad(log, f"no {e.args[0]} header line") from None
    except ValueError:
        raise _bad(log, "malformed header line") from None
    try:
        actions = np.array([int(line) for line in body], dtype=np.intp)
    except ValueError:
        raise _bad(log, "an action line is not an integer") from None
    if actions.size and not (0 <= actions.min() and actions.max() < N_ACTIONS):
        raise _bad(log, f"an action id is outside [0, {N_ACTIONS})")

    data = read_checksummed(obs)
    if len(data) < _OBS_HEADER.size:
        raise _bad(obs, "truncated header")
    magic, rows, cols = _OBS_HEADER.unpack_from(data)
    if magic != OBS_MAGIC:
        raise _bad(obs, "bad magic")
    if len(data) != _OBS_HEADER.size + rows * cols:
        raise _bad(obs, f"{len(data) - _OBS_HEADER.size} observation bytes for {rows} x {cols}")
    if (rows, cols) != (len(actions) + 1, OBS_SIZE):
        raise _bad(obs, f"{rows} x {cols} observations for {len(actions)} actions")
    codes = np.frombuffer(data, dtype=np.uint8, offset=_OBS_HEADER.size).reshape(rows, cols)

    # exact: 0.25 is a power of two
    return Trajectory(observations=codes * 0.25, actions=actions, **labels)


def replay_states(env: MazeEnv, traj: Trajectory) -> list[EnvState]:
    """Re-run the recorded actions; returns the ground-truth state sequence."""
    state = env.start_state(traj.start, traj.goal)
    states = [state]
    for action in traj.actions.tolist():
        state = env.transition(state, action)
        states.append(state)
    return states

