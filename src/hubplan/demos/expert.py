"""Scripted expert: breadth-first navigation plus canonical mistake scripts.

The expert plans shortest cell paths over currently-passable cells
(neighbor expansion order: up, right, down, left) and converts them to
turn/forward actions, interacting with keys, doors, diamonds, and the
barrel in the order the task requires.

The expert and the environment are deterministic, and a build repeats much
of their work: the seed-0 demonstrations step through 17,572 states that
show only 2,064 distinct views, and walk 1,060 routes of which only 176
differ. A `Rollout` therefore keeps two memos, which `build_dataset` shares
across the rollouts of one build and drops with it:

- views, from `raster.view_key` to the observation row (`MazeEnv.step`);
- routes, from a route key to the BFS path `goto_and_face` walks. The key
  is the start cell, the target cell, the keys applied to each door, the
  held item and the barrel: everything `MazeEnv.passable` reads, so a
  shared path is the path the search would find again.

Both are exact, so the memos change no byte of a demonstration. They live
on the rollout, never on the env or in a module, and nothing outside a
build reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..maze.env import (
    DIR,
    DOOR_REQUIREMENTS,
    PICKUP,
    TOGGLE,
    TURN_LEFT,
    TURN_RIGHT,
    FORWARD,
    Goal,
    MazeEnv,
    StartConfig,
)
from ..maze.trajectory import Trajectory

BFS_NEIGHBOR_ORDER = ((0, -1), (1, 0), (0, 1), (-1, 0))  # up, right, down, left


class ExpertError(RuntimeError):
    """The scripted expert could not complete its plan (bad map)."""


def bfs_path(passable, start, targets: set) -> list | None:
    """Shortest path from start to any target cell, or None."""
    if start in targets:
        return [start]
    frontier = [start]
    parent = {start: None}
    while frontier:
        nxt = []
        for cell in frontier:
            for dx, dy in BFS_NEIGHBOR_ORDER:
                nb = (cell[0] + dx, cell[1] + dy)
                if nb in parent:
                    continue
                if nb in targets:
                    parent[nb] = cell
                    path = [nb]
                    while path[-1] is not None:
                        path.append(parent[path[-1]])
                    path.pop()
                    return path[::-1]
                if passable(nb):
                    parent[nb] = cell
                    nxt.append(nb)
        frontier = nxt
    return None


class Rollout:
    """Steps an episode while recording its observations and actions.

    `views` and `routes` are the memos of the module docstring, shared with
    other rollouts of the same build; each starts empty when not given.
    The recorded rows may be shared and are read-only.
    """

    def __init__(self, env: MazeEnv, start_id: int, start: StartConfig, goal: Goal,
                 views: dict | None = None, routes: dict | None = None):
        self.env = env
        self.start_id = start_id
        self.start = start
        self.goal = goal
        self.views = {} if views is None else views
        self.routes = {} if routes is None else routes
        self.state, obs = env.reset(start, goal, self.views)
        self.observations = [obs]
        self.actions: list[int] = []

    def act(self, action: int) -> None:
        self.state, obs = self.env.step(self.state, action, self.views)
        self.observations.append(obs)
        self.actions.append(action)

    def trajectory(self) -> Trajectory:
        if not self.state.terminal:
            raise ExpertError("episode did not reach a terminal state")
        return Trajectory(
            start_id=self.start_id,
            start=self.start,
            goal=self.goal,
            success=self.state.success,
            observations=self.observations,
            actions=self.actions,
        )


def _turn_actions(current: int, wanted: int) -> list[int]:
    d = (wanted - current) % 4
    if d == 0:
        return []
    if d == 1:
        return [TURN_RIGHT]
    if d == 3:
        return [TURN_LEFT]
    return [TURN_RIGHT, TURN_RIGHT]


def _orientation_toward(src, dst) -> int:
    delta = (dst[0] - src[0], dst[1] - src[1])
    return DIR.index(delta)


def _route(env: MazeEnv, state, target_cell) -> tuple:
    """Shortest path from `state.pos` to a passable cell next to `target_cell`."""
    adjacent = {
        (target_cell[0] + dx, target_cell[1] + dy)
        for dx, dy in BFS_NEIGHBOR_ORDER
        if env.passable((target_cell[0] + dx, target_cell[1] + dy), state)
    }
    if not adjacent:
        raise ExpertError(f"no approach cell next to {target_cell}")
    path = bfs_path(lambda c: env.passable(c, state), state.pos, adjacent)
    if path is None:
        raise ExpertError(f"no path from {state.pos} to {target_cell}")
    return tuple(path)


def goto_and_face(rollout: Rollout, target_cell) -> None:
    """Walk to a cell adjacent to target_cell and turn to face it, along the
    route the rollout's memo holds for this search, or a new one."""
    state = rollout.state
    key = (state.pos, target_cell, state.keys_applied, state.held, state.barrel)
    path = rollout.routes.get(key)
    if path is None:
        path = rollout.routes[key] = _route(rollout.env, state, target_cell)
    for prev, nxt in zip(path, path[1:]):
        for a in _turn_actions(rollout.state.orientation, _orientation_toward(prev, nxt)):
            rollout.act(a)
        rollout.act(FORWARD)
        if rollout.state.pos != nxt:
            raise ExpertError(f"blocked while walking {prev} -> {nxt}")
    for a in _turn_actions(rollout.state.orientation, _orientation_toward(rollout.state.pos, target_cell)):
        rollout.act(a)


def fetch_key(rollout: Rollout, color: int) -> None:
    goto_and_face(rollout, rollout.env.key_home[color])
    rollout.act(PICKUP)
    if rollout.state.held != ("key", color):
        raise ExpertError(f"failed to pick up key {color}")


def apply_key_to_door(rollout: Rollout, door_color: int) -> None:
    goto_and_face(rollout, rollout.env.door_cell[door_color])
    rollout.act(TOGGLE)


def open_door(rollout: Rollout, door_color: int) -> None:
    for key_color in DOOR_REQUIREMENTS[door_color]:
        fetch_key(rollout, key_color)
        apply_key_to_door(rollout, door_color)


def collect_and_deposit(rollout: Rollout, color: int) -> None:
    """Open the door for `color`, carry its diamond to the barrel, deposit."""
    open_door(rollout, color)
    goto_and_face(rollout, rollout.env.diamond_home[color])
    rollout.act(PICKUP)
    if rollout.state.held != ("diamond", color):
        raise ExpertError(f"failed to pick up diamond {color}")
    goto_and_face(rollout, rollout.env.barrel_cell)
    rollout.act(TOGGLE)


def generate_success_demo(env: MazeEnv, start_id: int, goal: Goal,
                          views: dict | None = None, routes: dict | None = None) -> Trajectory:
    rollout = Rollout(env, start_id, env.starts[start_id], goal, views, routes)
    collect_and_deposit(rollout, goal.first)
    collect_and_deposit(rollout, goal.second)
    traj = rollout.trajectory()
    if not traj.success:
        raise ExpertError(f"expert failed task {goal} from start {start_id}")
    return traj


@dataclass(frozen=True)
class FailureSpec:
    """One canonical mistake for a seen (start, goal) pair.

    kinds: wrong_key (params: door_slot 0/1, wrong key color, after_correct
    flag for whether one correct key was applied first), second_first,
    unrelated_first and unrelated_after_correct (params: unrelated color).
    """

    kind: str
    door_slot: int = 0
    wrong_key: int = -1
    after_correct: bool = False
    color: int = -1


def enumerate_failure_specs(goal: Goal) -> list[FailureSpec]:
    specs: list[FailureSpec] = []
    ordered = (goal.first, goal.second)
    for slot in (0, 1):
        for wrong in sorted(set(range(4)) - set(DOOR_REQUIREMENTS[ordered[slot]])):
            for after_correct in (False, True):
                specs.append(FailureSpec("wrong_key", door_slot=slot,
                                         wrong_key=wrong, after_correct=after_correct))
    specs.append(FailureSpec("second_first"))
    unrelated = sorted(set(range(4)) - {goal.first, goal.second})
    for u in unrelated:
        specs.append(FailureSpec("unrelated_first", color=u))
    for u in unrelated:
        specs.append(FailureSpec("unrelated_after_correct", color=u))
    return specs


def generate_failure_demo(env: MazeEnv, start_id: int, goal: Goal, spec: FailureSpec,
                          views: dict | None = None, routes: dict | None = None) -> Trajectory:
    rollout = Rollout(env, start_id, env.starts[start_id], goal, views, routes)
    if spec.kind == "wrong_key":
        if spec.door_slot == 1:
            collect_and_deposit(rollout, goal.first)
        door = (goal.first, goal.second)[spec.door_slot]
        if spec.after_correct:
            fetch_key(rollout, DOOR_REQUIREMENTS[door][0])
            apply_key_to_door(rollout, door)
        fetch_key(rollout, spec.wrong_key)
        apply_key_to_door(rollout, door)  # terminal: wrong key for this door
    elif spec.kind == "second_first":
        collect_and_deposit(rollout, goal.second)
    elif spec.kind == "unrelated_first":
        collect_and_deposit(rollout, spec.color)
    elif spec.kind == "unrelated_after_correct":
        collect_and_deposit(rollout, goal.first)
        collect_and_deposit(rollout, spec.color)
    else:
        raise ValueError(f"unknown failure kind {spec.kind!r}")
    traj = rollout.trajectory()
    if traj.success:
        raise ExpertError(f"failure script unexpectedly succeeded: {spec}")
    return traj
