"""Replay check for recorded demonstrations, kept as a test reference: it
re-runs a trajectory's actions through `MazeEnv.step` and compares every
rendered observation and the outcome with what was recorded.
"""

from __future__ import annotations

import numpy as np

from hubplan.maze import MazeEnv, Trajectory


def replay_check(env: MazeEnv, traj: Trajectory) -> bool:
    """True when replaying reproduces the stored observations and outcome."""
    recorded = traj.observations
    state, obs = env.reset(traj.start, traj.goal)
    if not np.array_equal(obs, recorded[0]):
        return False
    for t, action in enumerate(traj.actions.tolist()):
        state, obs = env.step(state, action)
        if not np.array_equal(obs, recorded[t + 1]):
            return False
    return state.terminal and state.success == traj.success
