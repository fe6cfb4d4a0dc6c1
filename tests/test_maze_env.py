import dataclasses
from pathlib import Path

import numpy as np
import pytest
import raster_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from hubplan.maze import (
    BACKWARD,
    BLUE,
    DOOR_REQUIREMENTS,
    FORWARD,
    GREEN,
    HALF_OPEN,
    LOCKED,
    OPEN,
    PURPLE,
    RED,
    TOGGLE,
    TURN_LEFT,
    TURN_RIGHT,
    Goal,
    MazeEnv,
    MazeError,
    OBS_SIZE,
    VIEW_SIZE,
    StartConfig,
    TerminalStateError,
    all_goals,
)
from hubplan.demos import build_dataset, generate_success_demo
from hubplan.maze import raster, replay_states

from scenarios import VARIANT_MAP, build_scenario

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def env():
    return MazeEnv()


class TestReset:
    def test_start_a_matches_layout(self, env):
        state, obs = env.reset(StartConfig((3, 3), 0), Goal(RED, BLUE))
        assert state.pos == (3, 3)
        assert state.orientation == 0
        assert state.door_phase == (LOCKED,) * 4
        assert state.barrel == ()
        assert state.held is None
        assert state.step_count == 0

    def test_barrel_vec_starts_empty(self, env):
        for goal in all_goals()[:3]:
            _, obs = env.reset(env.starts[0], goal)
            assert obs.shape == (OBS_SIZE,)
            np.testing.assert_array_equal(obs[VIEW_SIZE:], [0, 0])

    def test_reset_deterministic(self, env):
        s1, o1 = env.reset(env.starts[1], Goal(GREEN, RED))
        s2, o2 = env.reset(env.starts[1], Goal(GREEN, RED))
        assert s1 == s2
        np.testing.assert_array_equal(o1, o2)

    def test_start_in_wall_rejected(self, env):
        with pytest.raises(MazeError):
            env.reset(StartConfig((0, 0), 0), Goal(RED, BLUE))


class TestStep:
    def test_forward_free_cell(self, env):
        state, _ = env.reset(env.starts[0], Goal(RED, BLUE))
        nxt, _obs, reward, terminal, success = env.step(state, FORWARD)
        assert nxt.pos == (4, 3)
        assert reward == pytest.approx(-0.1)
        assert not terminal and not success

    def test_forward_into_wall_stays(self, env):
        state, _ = env.reset(env.starts[0], Goal(RED, BLUE))
        # face north into open room, then walk to the top wall
        state, *_ = env.step(state, TURN_LEFT)
        for _ in range(5):
            state, *_ = env.step(state, FORWARD)
        assert state.pos == (3, 1)

    def test_four_left_turns_identity(self, env):
        state, _ = env.reset(env.starts[2], Goal(BLUE, GREEN))
        start_pose = (state.pos, state.orientation)
        for _ in range(4):
            state, *_ = env.step(state, TURN_LEFT)
        assert (state.pos, state.orientation) == start_pose

    def test_backward_keeps_orientation(self, env):
        state, _ = env.reset(env.starts[0], Goal(RED, BLUE))
        state, *_ = env.step(state, FORWARD)
        state2, *_ = env.step(state, BACKWARD)
        assert state2.pos == (3, 3)
        assert state2.orientation == state.orientation

    def test_success_reward_and_terminal(self, env):
        traj = generate_success_demo(env, 0, Goal(RED, BLUE))
        assert traj.rewards[-1] == pytest.approx(-0.1 + 100.0)
        assert all(r == pytest.approx(-0.1) for r in traj.rewards[:-1])

    def test_step_on_terminal_rejected(self, env):
        traj = generate_success_demo(env, 0, Goal(RED, BLUE))
        from hubplan.maze import replay_states

        final = replay_states(env, traj)[-1]
        assert final.terminal
        with pytest.raises(TerminalStateError):
            env.step(final, FORWARD)

    def test_horizon_truncation(self):
        env = MazeEnv(horizon=5)
        state, _ = env.reset(env.starts[0], Goal(RED, BLUE))
        for i in range(5):
            state, _obs, _r, terminal, success = env.step(state, TURN_LEFT)
        assert terminal and not success
        assert state.step_count == 5


class TestDoorsAndKeys:
    def walk_and_apply(self, env, key_color, door_color, prior=None):
        """Drive the agent by script: fetch key, toggle at door."""
        from hubplan.demos.expert import Rollout, apply_key_to_door, fetch_key

        rollout = Rollout(env, 0, env.starts[0], Goal(RED, BLUE))
        if prior is not None:
            prior(rollout)
        fetch_key(rollout, key_color)
        apply_key_to_door(rollout, door_color)
        return rollout

    def test_requirements_table(self):
        assert set(DOOR_REQUIREMENTS[RED]) == {RED, BLUE}
        assert set(DOOR_REQUIREMENTS[BLUE]) == {RED, GREEN}
        assert set(DOOR_REQUIREMENTS[GREEN]) == {BLUE, PURPLE}
        assert set(DOOR_REQUIREMENTS[PURPLE]) == {GREEN, PURPLE}

    def test_every_key_opens_exactly_two_doors(self):
        counts = {c: 0 for c in range(4)}
        for door in range(4):
            for k in DOOR_REQUIREMENTS[door]:
                counts[k] += 1
        assert all(v == 2 for v in counts.values())

    def test_correct_key_half_opens_and_respawns(self, env):
        r = self.walk_and_apply(env, RED, RED)
        assert r.state.door_phase[RED] == HALF_OPEN
        assert r.state.held is None
        assert r.state.key_present[RED]  # consumed key respawned at home
        assert not r.state.terminal

    def test_both_keys_open_door(self, env):
        from hubplan.demos.expert import open_door, Rollout

        rollout = Rollout(env, 0, env.starts[0], Goal(RED, BLUE))
        open_door(rollout, RED)
        assert rollout.state.door_phase[RED] == OPEN

    def test_wrong_key_terminal(self, env):
        r = self.walk_and_apply(env, GREEN, RED)  # green does not open the red door
        assert r.state.terminal and not r.state.success

    def test_reapplying_used_key_is_noop(self, env):
        from hubplan.demos.expert import apply_key_to_door, fetch_key

        def prior(rollout):
            fetch_key(rollout, RED)
            apply_key_to_door(rollout, RED)

        r = self.walk_and_apply(env, RED, RED, prior=prior)
        assert not r.state.terminal
        assert r.state.held == ("key", RED)
        assert r.state.door_phase[RED] == HALF_OPEN


class TestDeposits:
    def test_wrong_first_deposit_terminal(self, env):
        from hubplan.demos.expert import Rollout, collect_and_deposit

        rollout = Rollout(env, 0, env.starts[0], Goal(RED, BLUE))
        collect_and_deposit(rollout, GREEN)
        assert rollout.state.terminal and not rollout.state.success
        assert rollout.rewards[-1] == pytest.approx(-0.1 - 10.0)

    def test_completing_goal_succeeds(self, env):
        traj = generate_success_demo(env, 1, Goal(PURPLE, GREEN))
        assert traj.success
        assert len(traj) <= 400


class TestRasterize:
    def test_held_item_invisible(self, env):
        from hubplan.demos.expert import Rollout, fetch_key

        rollout = Rollout(env, 0, env.starts[0], Goal(RED, BLUE))
        fetch_key(rollout, RED)
        held_state = rollout.state
        assert held_state.held == ("key", RED)
        bare = held_state.__class__(**{**held_state.__dict__, "held": None})
        np.testing.assert_array_equal(env.rasterize(held_state), env.rasterize(bare))

    def test_cells_beyond_wall_occluded(self, env):
        # start A faces east; the key room beyond the divider wall is hidden
        state, obs = env.reset(StartConfig((2, 2), 3), Goal(RED, BLUE))  # facing north
        from hubplan.maze import N_CHANNELS, VIEW_H, VIEW_W

        view = obs[:VIEW_SIZE].reshape(VIEW_W, VIEW_H, N_CHANNELS)
        # row vy=4 is two cells ahead: world row 0 is the boundary wall,
        # so everything farther (vy<=3) must be all-zero planes
        assert view[:, :4, :].sum() == 0.0

    def test_golden_room_view(self, env):
        state, obs = env.reset(StartConfig((3, 3), 0), Goal(RED, BLUE))
        for a in [FORWARD, FORWARD, FORWARD, TURN_RIGHT]:
            state, obs, *_ = env.step(state, a)
        golden = np.loadtxt(DATA / "golden_room_view.txt")
        np.testing.assert_array_equal(obs[:VIEW_SIZE], golden)

    def test_golden_door_view(self, env):
        traj = generate_success_demo(env, 0, Goal(RED, BLUE))
        i = np.flatnonzero(traj.actions == TOGGLE)[0]
        golden = np.loadtxt(DATA / "golden_door_view.txt")
        np.testing.assert_array_equal(traj.observations[i, :VIEW_SIZE], golden)


def assert_same_raster(env, state):
    new = raster.rasterize(env, state)
    ref = raster_reference.rasterize(env, state)
    assert (new.dtype, new.shape) == (ref.dtype, ref.shape) == (np.float64, (OBS_SIZE,))
    assert new.tobytes() == ref.tobytes(), state
    return ref


class TestRasterMatchesReference:
    """The table-driven raster against the per-cell reference, byte for byte."""

    def test_seed0_demo_states(self, env):
        for traj in build_dataset(env, seed=0).trajectories:
            states = replay_states(env, traj)
            for state, obs in zip(states, traj.observations):
                assert obs.tobytes() == assert_same_raster(env, state).tobytes()

    def test_variant_map_scenario_states(self):
        scenario = build_scenario()
        for traj in scenario.trajectories:
            for state in replay_states(scenario.env, traj):
                assert_same_raster(scenario.env, state)

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(*[st.sampled_from((LOCKED, HALF_OPEN, OPEN))] * 4),
           st.tuples(*[st.booleans()] * 4), st.tuples(*[st.booleans()] * 4),
           st.lists(st.integers(0, 3), max_size=2))
    def test_every_pose_of_both_maps(self, door_phase, key_present, diamond_present, barrel):
        for env in (MazeEnv(), MazeEnv(VARIANT_MAP)):
            state, _ = env.reset(env.starts[0], Goal(RED, BLUE))
            state = dataclasses.replace(state, door_phase=door_phase, key_present=key_present,
                                        diamond_present=diamond_present, barrel=tuple(barrel))
            for x, y in zip(*np.nonzero(~env.wall)):
                for orientation in range(4):
                    assert_same_raster(env, dataclasses.replace(
                        state, pos=(int(x), int(y)), orientation=orientation))


def diamond_locations(env, state):
    """Where each diamond currently is: world, hand, or barrel."""
    out = {}
    for c in range(4):
        places = []
        if state.diamond_present[c]:
            places.append("world")
        if state.held == ("diamond", c):
            places.append("hand")
        places.extend("barrel" for b in state.barrel if b == c)
        out[c] = places
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=60), st.integers(0, 2), st.integers(0, 11))
def test_random_walk_invariants(actions, start_id, goal_idx):
    env = MazeEnv()
    goal = all_goals()[goal_idx]
    state, _ = env.reset(env.starts[start_id], goal)
    phases = state.door_phase
    for a in actions:
        if state.terminal:
            break
        state, _obs, _r, _term, success = env.step(state, a)
        # conservation: every diamond in exactly one place
        for c, places in diamond_locations(env, state).items():
            assert len(places) == 1, (c, places)
        # door phase never regresses
        assert all(new >= old for new, old in zip(state.door_phase, phases))
        phases = state.door_phase
        # success soundness
        assert success == (state.barrel == (goal.first, goal.second))
        assert state.step_count <= 400
