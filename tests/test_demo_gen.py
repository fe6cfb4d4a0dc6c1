import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from hubplan.demos import (
    DemoDataset,
    build_dataset,
    enumerate_failure_specs,
    expert,
    failure_candidates,
    generate_failure_demo,
    generate_success_demo,
    load_dataset,
    save_dataset,
    seen_unseen_split,
)
from hubplan.maze import (
    BLUE,
    GREEN,
    N_ACTIONS,
    OBS_SIZE,
    RED,
    VIEW_SIZE,
    Goal,
    MazeEnv,
    Trajectory,
    all_goals,
    load_trajectory,
    raster,
    replay_states,
    save_trajectory,
)
from hubplan.nn import ArtifactError, save_params

from conftest import traced_peak_bytes
from replay_reference import replay_check


@pytest.fixture(scope="module")
def env():
    return MazeEnv()


@pytest.fixture(scope="module")
def dataset(env):
    return build_dataset(env, seed=0)


# sha256 of the seed-0 demonstrations: every trajectory's observation rows,
# and separately its actions as int64, in dataset order
DEMO_OBS_SHA256 = "19a53b5920f46bae5efc16e3f201aed16957b80032176caa11867131434f2863"
DEMO_ACTIONS_SHA256 = "b300c05d7d1a91ad95137ebd2c861f09d650bf1357e0211a970ddc859e7a9b90"


def test_seed0_demonstrations_pinned(dataset):
    obs, actions = hashlib.sha256(), hashlib.sha256()
    for traj in dataset.trajectories:
        obs.update(traj.observations.tobytes())
        actions.update(traj.actions.astype(np.int64).tobytes())
    assert (obs.hexdigest(), actions.hexdigest()) == (DEMO_OBS_SHA256, DEMO_ACTIONS_SHA256)


class TestSplit:
    def test_sizes(self):
        seen, unseen = seen_unseen_split()
        assert len(seen) == 18
        assert len(unseen) == 18

    def test_assignment_rule(self):
        seen, unseen = seen_unseen_split()
        goals = all_goals()
        assert (1, goals[4]) in seen
        assert (0, goals[6]) in unseen
        assert (2, goals[0]) in seen and (2, goals[7]) in unseen

    def test_every_goal_demonstrated(self):
        seen, _ = seen_unseen_split()
        covered = {str(g) for _sid, g in seen}
        assert covered == {str(g) for g in all_goals()}

    def test_partition_of_all_pairs(self):
        seen, unseen = seen_unseen_split()
        everything = {(sid, str(g)) for sid in range(3) for g in all_goals()}
        s = {(sid, str(g)) for sid, g in seen}
        u = {(sid, str(g)) for sid, g in unseen}
        assert s | u == everything
        assert not (s & u)


class TestSuccessDemos:
    def test_all_seen_demos_succeed_within_horizon(self, dataset):
        assert len(dataset.successes) == 18
        for traj in dataset.successes:
            assert traj.success
            assert len(traj) <= 400

    def test_key_application_order_for_red_blue(self, env):
        traj = generate_success_demo(env, 0, Goal(RED, BLUE))
        applied = []
        seen_sets = [frozenset()] * 4
        for state in replay_states(env, traj):
            for d in range(4):
                if state.keys_applied[d] != seen_sets[d]:
                    applied.append(sorted(state.keys_applied[d] - seen_sets[d]))
                    seen_sets[d] = state.keys_applied[d]
        # red door first: red then blue keys; blue door next: red then green
        assert applied == [[RED], [BLUE], [RED], [GREEN]]

    def test_success_prefix_never_terminal(self, env, dataset):
        traj = dataset.successes[0]
        states = replay_states(env, traj)
        assert all(not s.terminal for s in states[:-1])
        assert states[-1].terminal and states[-1].success


class TestFailureSpecs:
    def test_thirteen_specs_per_goal(self):
        for goal in all_goals():
            specs = enumerate_failure_specs(goal)
            assert len(specs) == 13
            kinds = [s.kind for s in specs]
            assert kinds.count("wrong_key") == 8
            assert kinds.count("second_first") == 1
            assert kinds.count("unrelated_first") == 2
            assert kinds.count("unrelated_after_correct") == 2

    def test_candidate_pool_size(self):
        seen, _ = seen_unseen_split()
        assert len(failure_candidates(seen)) == 18 * 13

    def test_failures_replay_to_failure(self, env, dataset):
        assert len(dataset.failures) == 120
        for traj in dataset.failures[:20]:
            assert not traj.success
            states = replay_states(env, traj)
            assert states[-1].terminal and not states[-1].success

    def test_failures_only_for_seen_pairs(self, dataset):
        seen = {(sid, str(g)) for sid, g in dataset.seen}
        for sid, goal, _spec in dataset.failure_specs:
            assert (sid, str(goal)) in seen


class TestBuildDataset:
    def test_counts(self, dataset):
        assert len(dataset.successes) == 18
        assert len(dataset.failures) == 120

    def test_seeded_determinism(self, env, dataset):
        again = build_dataset(env, seed=0)
        assert [t.actions.tolist() for t in again.trajectories] == \
            [t.actions.tolist() for t in dataset.trajectories]
        assert again.failure_specs == dataset.failure_specs

    def test_different_seed_changes_sample(self, env, dataset):
        other = build_dataset(env, seed=1)
        assert other.failure_specs != dataset.failure_specs

    def test_replay_fidelity_and_round_trip(self, env, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.failure_specs == dataset.failure_specs
        assert len(back.trajectories) == len(dataset.trajectories)
        for a, b in zip(dataset.trajectories, back.trajectories):
            assert a.actions.dtype == b.actions.dtype == np.intp
            np.testing.assert_array_equal(a.actions, b.actions)
            assert a.success == b.success
            assert a.observations.tobytes() == b.observations.tobytes()
        for traj in back.successes[:3] + back.failures[:3]:
            assert replay_check(env, traj)


class TestBuildMemos:
    """`build_dataset` shares one view memo and one route memo across its
    rollouts: each distinct view is rendered, and each distinct route
    searched, once per build, and no byte of a demonstration changes."""

    def test_each_view_rendered_and_each_route_searched_once(self, env, monkeypatch):
        counts, walks = Counter(), []
        rasterize, bfs_path, goto_and_face = raster.rasterize, expert.bfs_path, expert.goto_and_face

        def counted(fn, what):
            return lambda *a: counts.update([what]) or fn(*a)

        def walk(rollout, target):
            state = rollout.state
            walks.append((state.pos, target, state.keys_applied, state.held, state.barrel))
            return goto_and_face(rollout, target)

        monkeypatch.setattr(raster, "rasterize", counted(rasterize, "views"))
        monkeypatch.setattr(expert, "bfs_path", counted(bfs_path, "routes"))
        monkeypatch.setattr(expert, "goto_and_face", walk)
        ds = build_dataset(env, seed=0)
        monkeypatch.undo()
        states = [s for traj in ds.trajectories for s in replay_states(env, traj)]
        views = {raster.view_key(s) for s in states}
        # resets go through the memo too: 17,572 rows, 2,064 distinct views
        assert (len(states), len(views)) == (17572, 2064)
        assert (len(walks), len(set(walks))) == (1060, 176)
        assert counts == {"views": len(views), "routes": len(set(walks))}

    def test_shared_memo_trajectories_equal_fresh_ones(self, env):
        ds = build_dataset(env, seed=3)
        fresh = [generate_success_demo(env, sid, goal) for sid, goal in ds.seen]
        fresh += [generate_failure_demo(env, sid, goal, spec)
                  for sid, goal, spec in ds.failure_specs]
        assert len(fresh) == len(ds.trajectories)
        for shared, alone in zip(ds.trajectories, fresh):
            assert (shared.start_id, shared.goal, shared.success) == \
                (alone.start_id, alone.goal, alone.success)
            assert shared.codes.tobytes() == alone.codes.tobytes()
            assert shared.actions.tolist() == alone.actions.tolist()


class TestTrajectoryLog:
    def test_header_then_one_action_per_line(self, dataset, tmp_path):
        traj = dataset.failures[0]
        save_trajectory(traj, tmp_path / "t")
        lines = (tmp_path / "t.log").read_text().splitlines()
        assert lines[0] == "# trajectory v3"
        assert [line for line in lines if not line.startswith("#")] == \
            [str(a) for a in traj.actions.tolist()]

    def test_v1_log_rejected_naming_gen_demos(self, dataset, tmp_path):
        # a log of the earlier format: a (step, action, reward, terminal) line per step
        traj = dataset.successes[0]
        save_trajectory(traj, tmp_path / "t")
        log = tmp_path / "t.log"
        header = [line for line in log.read_text().splitlines() if line.startswith("#")]
        header[0] = "# trajectory v1"
        steps = [f"{t} {a} -0.1 {int(t == len(traj) - 1)}" for t, a in enumerate(traj.actions.tolist())]
        log.write_text("\n".join(header + steps) + "\n")
        with pytest.raises(ArtifactError, match="gen-demos"):
            load_trajectory(tmp_path / "t")

    def test_undecodable_header_rejected_naming_gen_demos(self, dataset, tmp_path):
        save_trajectory(dataset.successes[0], tmp_path / "t")
        log = tmp_path / "t.log"
        log.write_bytes(log.read_bytes().replace(b"# goal", b"# go\xffal", 1))
        with pytest.raises(ArtifactError, match=r"t\.log: .*gen-demos"):
            load_trajectory(tmp_path / "t")

    @pytest.mark.parametrize("edit", [
        "drop start_id", "drop start", "drop goal", "drop success",
        "action not an integer", "action id too large", "action id negative"])
    def test_malformed_log_rejected_naming_gen_demos(self, dataset, tmp_path, edit):
        traj = dataset.successes[0]
        save_trajectory(traj, tmp_path / "t")
        log = tmp_path / "t.log"
        lines = log.read_text().splitlines()
        if edit.startswith("drop "):
            lines = [line for line in lines if line.split()[:2] != ["#", edit[5:]]]
        else:
            lines[-1] = {"action not an integer": "turn", "action id too large": str(N_ACTIONS),
                         "action id negative": "-1"}[edit]
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError, match=r"t\.log: .*gen-demos"):
            load_trajectory(tmp_path / "t")


class TestObservationCodes:
    def test_decoded_rows_are_codes_times_a_quarter(self, dataset, tmp_path):
        save_trajectory(dataset.failures[3], tmp_path / "t")
        traj = load_trajectory(tmp_path / "t")
        assert traj.codes.dtype == np.uint8
        np.testing.assert_array_equal(traj.codes, dataset.failures[3].codes)
        want = traj.codes * 0.25
        assert traj.observations.tobytes() == want.tobytes()
        assert not traj.observations.flags.writeable
        for a, b in ((0, len(traj) + 1), (2, 7), (len(traj), len(traj) + 1), (4, 4)):
            out = np.empty((b - a, want.shape[1]))
            assert traj.decode_rows(a, b, out) is out
            assert out.tobytes() == want[a:b].tobytes()

    def test_decoding_into_a_strided_view(self, dataset):
        traj = dataset.successes[5]
        want = traj.codes * 0.25
        batch = np.full((3, len(traj) + 4, want.shape[1] + 8), np.nan)
        view = batch[1, 2:len(traj) + 3, :want.shape[1]]
        traj.decode_rows(0, len(traj) + 1, view)
        assert batch[1, 2:len(traj) + 3, :want.shape[1]].tobytes() == want.tobytes()
        assert np.isnan(batch[1, :2]).all() and np.isnan(batch[1, 2:, want.shape[1]:]).all()
        assert np.isnan(batch[[0, 2]]).all()

    def test_float_rows_encoded_once_at_construction(self, dataset):
        good = dataset.successes[1]
        traj = Trajectory(good.start_id, good.start, good.goal, good.success,
                          list(good.observations), good.actions.tolist())
        np.testing.assert_array_equal(traj.codes, good.codes)
        assert traj.codes.dtype == np.uint8


class TestObservationFile:
    def test_layout_is_header_codes_digest(self, dataset, tmp_path):
        traj = dataset.failures[0]
        save_trajectory(traj, tmp_path / "t")
        blob = (tmp_path / "t.obs").read_bytes()
        rows, cols = traj.observations.shape
        assert blob[:4] == b"HBOB"
        assert np.frombuffer(blob, "<u4", 2, 4).tolist() == [rows, cols]
        codes = np.frombuffer(blob, np.uint8, rows * cols, 12)
        np.testing.assert_array_equal(codes, 4 * traj.observations.ravel())
        assert blob[12 + rows * cols:] == hashlib.sha256(blob[:12 + rows * cols]).digest()

    @pytest.mark.parametrize("damage", ["payload byte", "row count", "truncated", "stub"])
    def test_damaged_file_rejected_before_use(self, dataset, tmp_path, damage):
        traj = dataset.successes[0]
        save_trajectory(traj, tmp_path / "t")
        path = tmp_path / "t.obs"
        blob = bytearray(path.read_bytes())
        if damage == "payload byte":
            blob[len(blob) // 2] ^= 0x01
        elif damage == "row count":
            blob[4] ^= 0x01
        elif damage == "truncated":
            blob = blob[:-1]
        else:
            blob = blob[:20]
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum|truncated"):
            load_trajectory(tmp_path / "t")

    def test_row_count_must_be_actions_plus_one(self, dataset, tmp_path):
        traj = dataset.successes[0]
        save_trajectory(traj, tmp_path / "t")
        log = tmp_path / "t.log"
        log.write_text("\n".join(log.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ArtifactError, match="observations for"):
            load_trajectory(tmp_path / "t")

    @pytest.mark.parametrize("value", [0.1, -0.25, -0.0, 64.0, np.nan, np.inf])
    def test_inexact_value_rejected_and_nothing_written(self, dataset, tmp_path, value):
        good = dataset.successes[0]
        obs = good.observations.copy()
        obs[-1, 3] = value
        with pytest.raises(ValueError, match="integer in \\[0, 255\\]"):
            traj = Trajectory(good.start_id, good.start, good.goal, good.success, obs,
                              good.actions)
            save_trajectory(traj, tmp_path / "t")
        assert list(tmp_path.iterdir()) == []

    def test_loaded_dataset_holds_one_byte_per_value(self, dataset, tmp_path):
        """Loading keeps each observation value as its uint8 code: the traced
        peak of `load_dataset` stays under 1.5 bytes per value, where a
        float64 matrix would take 8."""
        save_dataset(dataset, tmp_path)
        loaded, peak = traced_peak_bytes(load_dataset, tmp_path)
        values = sum((len(t) + 1) * OBS_SIZE for t in loaded.trajectories)
        assert values == sum(t.observations.size for t in dataset.trajectories)
        assert peak < 1.5 * values, peak / values

    def test_dataset_of_the_previous_format_rejected_naming_gen_demos(self, dataset, tmp_path):
        one = DemoDataset(seed=0, seen=dataset.seen[:1], unseen=[], successes=dataset.successes[:1],
                          failures=[], failure_specs=[])
        save_dataset(one, tmp_path)
        # the previous format: a v2 log, and the observations as float64
        # `view` and `barrel` tensors of a parameter file
        log = tmp_path / "success_000.log"
        log.write_text(log.read_text().replace("# trajectory v3", "# trajectory v2"))
        obs = one.successes[0].observations
        save_params(tmp_path / "success_000.obs", "trajectory",
                    {"view": obs[:, :VIEW_SIZE], "barrel": obs[:, VIEW_SIZE:] * 4})
        with pytest.raises(ArtifactError, match="version v2, expected v3; run stage gen-demos"):
            load_dataset(tmp_path)


class TestManifest:
    @pytest.mark.parametrize("missing", [None, "seen", "wrong_key"],
                             ids=["not JSON", "no seen key", "no spec field"])
    def test_malformed_manifest_rejected_naming_gen_demos(self, dataset, tmp_path, missing):
        save_dataset(DemoDataset(seed=0, seen=dataset.seen[:1], unseen=[], successes=[],
                                 failures=dataset.failures[:2],
                                 failure_specs=dataset.failure_specs[:2]), tmp_path)
        path = tmp_path / "manifest.json"
        if missing is None:
            path.write_text(path.read_text()[:-20])
        else:
            manifest = json.loads(path.read_text())
            del (manifest if missing == "seen" else manifest["failures"][1])[missing]
            path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match=r"manifest\.json: .*run stage gen-demos"):
            load_dataset(tmp_path)
