"""Recorded episodes and their on-disk form.

A trajectory is one episode's observations, one `raster` row per step
including the last, its action array and its task labels. Every observation
value is a multiple of 1/4 in [0, 1], so a trajectory holds 4 x its
observation matrix as one uint8 code per value, in memory as on disk: the
constructor encodes float rows once and rejects a value with no code.
`decode_rows` writes the float rows a network reads, codes x 0.25, which is
exact, into the caller's buffer; `observations` decodes the whole matrix
for one-off readers.

On disk: a log of header comments followed by one action id per line, and a
sidecar observation file of the codes: magic ``HBOB``, u32 rows, u32
columns, the codes row by row, and the sha256 of all of it
(`nn.io.write_checksummed`). Loading verifies the digest first and keeps
the codes as read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..nn.io import ArtifactError, read_checksummed, write_checksummed, written_by
from .env import N_ACTIONS, EnvState, Goal, MazeEnv, StartConfig
from .raster import OBS_SIZE


@dataclass(eq=False, init=False)
class Trajectory:
    start_id: int
    start: StartConfig
    goal: Goal
    success: bool                 # the y label
    codes: np.ndarray             # (T + 1, OBS_SIZE) uint8, 4 x each observation value
    actions: np.ndarray           # (T,) np.intp; a list is converted

    def __init__(self, start_id: int, start: StartConfig, goal: Goal, success: bool,
                 observations, actions, *, codes: np.ndarray | None = None):
        """`observations` are float rows (a list of rows is stacked), encoded
        here; raises ValueError unless 4 x every value is an integer in
        [0, 255]. With `observations=None`, `codes` is taken as is."""
        self.start_id, self.start, self.goal, self.success = start_id, start, goal, success
        if codes is None:
            scaled = np.asarray(observations, dtype=np.float64) * 4
            if not np.all(~np.signbit(scaled) & (scaled <= 255) & (scaled == np.floor(scaled))):
                raise ValueError("4 x an observation value is not an integer in [0, 255]")
            codes = scaled.astype(np.uint8)
        self.codes = codes
        self.actions = np.asarray(actions, dtype=np.intp)
        if self.codes.shape != (len(self.actions) + 1, OBS_SIZE):
            raise ValueError("need one observation row of OBS_SIZE values more than actions")

    def __len__(self) -> int:
        return len(self.actions)

    def decode_rows(self, a: int, b: int, out: np.ndarray) -> np.ndarray:
        """Observation rows a..b-1 written into `out`, of their shape; returns `out`."""
        # exact: 0.25 is a power of two
        return np.multiply(self.codes[a:b], 0.25, out=out)

    @property
    def observations(self) -> np.ndarray:
        """The whole (T + 1, OBS_SIZE) observation matrix, decoded; read-only."""
        obs = self.decode_rows(0, len(self.codes), np.empty(self.codes.shape))
        obs.flags.writeable = False
        return obs


LOG_VERSION = "v3"
OBS_MAGIC = b"HBOB"
_OBS_HEADER = struct.Struct("<4sII")     # magic, rows, columns


def save_trajectory(traj: Trajectory, base: Path) -> None:
    """Write `base.log` and `base.obs`."""
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
    write_checksummed(base.with_suffix(".obs"),
                      [_OBS_HEADER.pack(OBS_MAGIC, *traj.codes.shape), traj.codes])


def _bad(path: Path, why: str) -> ArtifactError:
    return ArtifactError(f"{path}: {why}; run stage gen-demos again")


def load_trajectory(base: Path) -> Trajectory:
    base = Path(base)
    log, obs = base.with_suffix(".log"), base.with_suffix(".obs")
    header: dict[str, str] = {}
    body: list[str] = []
    try:
        text = log.read_text()
    except UnicodeDecodeError as e:
        raise _bad(log, f"not UTF-8 text (byte {e.start})") from None
    for line in text.splitlines():
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

    with written_by("gen-demos"):
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
    return Trajectory(observations=None, actions=actions, codes=codes, **labels)


def replay_states(env: MazeEnv, traj: Trajectory) -> list[EnvState]:
    """Re-run the recorded actions; returns the ground-truth state sequence."""
    state = env.start_state(traj.start, traj.goal)
    states = [state]
    for action in traj.actions.tolist():
        state = env.transition(state, action)
        states.append(state)
    return states

