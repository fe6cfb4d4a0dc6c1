"""Constructed wrong-key-shortcut scenario for the planner ablation.

A maze variant adds a west corridor from the main room straight down to the
door hallway, with the green key in a niche beside it; the red door's real
keys stay in the far key room. Demonstrations are scripted so the topology
contains two routes to the red-door approach hub: a short one whose segments
carry the (useless) green key and a long one that fetches a correct key.
Carried items are deliberately absent from the latent features here, so the
two approaches collapse into the same hub and only the hub *history* can
tell them apart: hop-count search walks into the wrong-key attempt, while
the history-conditioned model routes around it.

With the full state-injective feature map this trap cannot be built: every
edge is then executable from its exact source state, so any edge path is
valid and hop-count planning is sound. Aliasing is what the ablation needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from hubplan.demos.expert import (Rollout, apply_key_to_door, collect_and_deposit, fetch_key,
                                  goto_and_face)
from hubplan.latent.oracle import OracleEncoder
from hubplan.maze.env import BLUE, GREEN, PURPLE, RED, TURN_RIGHT, Goal, MazeEnv
from hubplan.maze.trajectory import Trajectory
from hubplan.topology import BehaviorTopology, build_topology, detect_hubs, encode_dataset

HELD_BLIND_FIELDS = ("position", "orientation", "doors", "barrel")

# a snaking west corridor joins the main room to the hallway near the red
# door, with the green key in a niche along it; the corridor is long enough
# that walks from the key room prefer the east corridor, so the two routes
# share no cells until the final door approach
VARIANT_MAP = """\
#################
#.......#..r.b..#
#.......#.......#
#..S..U......p..#
#.......#.......#
#.......####.####
#..T....####.####
#...O...####.####
#.##########.####
#....g######.####
####.#######.####
#...............#
##R###B###G###P##
#.1.#.2.#.3.#.4.#
#################
"""


@dataclass
class Scenario:
    env: MazeEnv
    goal: Goal
    trajectories: list[Trajectory]
    encoder: OracleEncoder


class _ScenarioDataset:
    def __init__(self, trajectories):
        self.trajectories = trajectories


def _success_demo(env: MazeEnv) -> Trajectory:
    rollout = Rollout(env, 0, env.starts[0], Goal(RED, BLUE))
    collect_and_deposit(rollout, RED)
    collect_and_deposit(rollout, BLUE)
    return rollout.trajectory()


def _wrong_key_demo(env: MazeEnv) -> Trajectory:
    rollout = Rollout(env, 0, env.starts[0], Goal(RED, BLUE))
    fetch_key(rollout, GREEN)
    apply_key_to_door(rollout, RED)  # terminal: green opens neither red-door lock
    return rollout.trajectory()


def _walk_away_demo(env: MazeEnv) -> Trajectory:
    # same shortcut approach, but turns away instead of toggling; recording
    # simply stops there, which leaves a non-goal terminal hub
    rollout = Rollout(env, 0, env.starts[0], Goal(RED, BLUE))
    fetch_key(rollout, GREEN)
    goto_and_face(rollout, env.door_cell[RED])
    rollout.act(TURN_RIGHT)
    rollout.act(TURN_RIGHT)
    return Trajectory(
        start_id=0,
        start=env.starts[0],
        goal=Goal(RED, BLUE),
        success=False,
        observations=rollout.observations,
        actions=rollout.actions,
    )


def _crosser_demo(env: MazeEnv) -> Trajectory:
    # from the second start: fetch the blue key through the same key-room
    # corridor the success demo uses, then fail at the purple door; this
    # plants convergence/divergence hubs along the long route
    rollout = Rollout(env, 1, env.starts[1], Goal(RED, BLUE))
    fetch_key(rollout, BLUE)
    apply_key_to_door(rollout, PURPLE)  # terminal: blue opens neither purple lock
    return rollout.trajectory()


def build_scenario() -> Scenario:
    env = MazeEnv(VARIANT_MAP)
    trajectories = [
        _success_demo(env),
        _wrong_key_demo(env),
        _walk_away_demo(env),
        _crosser_demo(env),
    ]
    encoder = OracleEncoder(fields=HELD_BLIND_FIELDS)
    return Scenario(env=env, goal=Goal(RED, BLUE), trajectories=trajectories, encoder=encoder)


def scenario_topology(scenario: Scenario, epsilon: float = 1e-3) -> BehaviorTopology:
    ds = _ScenarioDataset(scenario.trajectories)
    latent = encode_dataset(scenario.env, ds, scenario.encoder)
    return build_topology(latent, detect_hubs(latent, epsilon), epsilon)
