"""Ground-truth latent backend for exactly-verifiable end-to-end runs.

Maps the task-relevant ground-truth fields (pose, held item, door phases,
barrel contents) injectively into a `latent_dim`-wide vector. Distinct
field values sit 10 tolerance-widths apart and every coordinate is placed
mid-bucket, so per-coordinate bucketing can never merge distinct task
states or split equal ones. The step counter is deliberately excluded:
revisiting the same task state must produce the same latent.

Two encoder backends use it: `oracle` encodes every field, and
`oracle-pose` only the pose, for the no-memory ablation.
"""

from __future__ import annotations

import numpy as np

from ..maze.env import EnvState
from ..maze.trajectory import replay_states

# latent coordinates each field's codes take, in encoding order
FIELD_WIDTHS = {"position": 2, "orientation": 1, "held": 1, "doors": 4, "barrel": 2}
ALL_FIELDS = tuple(FIELD_WIDTHS)
MEMORYLESS_FIELDS = ("position", "orientation")
BACKEND_FIELDS = {"oracle": ALL_FIELDS, "oracle-pose": MEMORYLESS_FIELDS}
SPACING = 10  # buckets between distinct codes; >= 10 guarantees separation


def held_code(held) -> int:
    if held is None:
        return 0
    kind, color = held
    return 1 + color if kind == "key" else 5 + color


def code_width(fields: tuple[str, ...]) -> int:
    """Latent coordinates the codes of `fields` take."""
    return sum(FIELD_WIDTHS[f] for f in fields)


class OracleEncoder:
    """Deterministic injective feature map over EnvState.

    Raises ValueError on construction for an unknown field, or for a
    `latent_dim` narrower than the fields' codes.
    """

    def __init__(self, latent_dim: int = 64, epsilon: float = 1e-3,
                 fields: tuple[str, ...] = ALL_FIELDS):
        unknown = set(fields) - set(ALL_FIELDS)
        if unknown:
            raise ValueError(f"unknown oracle fields {unknown}")
        if code_width(fields) > latent_dim:
            raise ValueError("latent dimension too small for the feature map")
        self.latent_dim = latent_dim
        self.epsilon = epsilon
        self.fields = tuple(fields)
        self._base = np.full(latent_dim, 0.5 * epsilon)

    def begin_episode(self) -> None:
        pass

    def codes(self, state: EnvState) -> list[int]:
        out: list[int] = []
        if "position" in self.fields:
            out.extend(state.pos)
        if "orientation" in self.fields:
            out.append(state.orientation)
        if "held" in self.fields:
            out.append(held_code(state.held))
        if "doors" in self.fields:
            out.extend(state.door_phase)
        if "barrel" in self.fields:
            slots = list(state.barrel[:2]) + [-1] * (2 - len(state.barrel[:2]))
            out.extend(s + 1 for s in slots)
        return out

    def encode(self, obs: np.ndarray | None, state: EnvState) -> np.ndarray:
        if state is None:
            raise ValueError("oracle encoding needs the ground-truth state")
        codes = self.codes(state)
        # mid-bucket placement: value / epsilon == SPACING * code + 0.5
        z = self._base.copy()
        z[:len(codes)] = [(SPACING * code + 0.5) * self.epsilon for code in codes]
        return z

    def encode_trajectory(self, env, traj) -> np.ndarray:
        """(len(traj) + 1, latent_dim) latents of the trajectory's states,
        replayed in `env`; reads no observation."""
        return np.stack([self.encode(None, state) for state in replay_states(env, traj)])
