import numpy as np
import pytest

from hubplan import nn
from hubplan.config import RunConfig
from hubplan.demos.expert import Rollout, goto_and_face
from hubplan.latent import (
    ALL_FIELDS,
    MEMORYLESS_FIELDS,
    LearnedEncoder,
    LowLevelModel,
    OracleEncoder,
    train_low_level,
)
from hubplan.maze import RED, Goal, MazeEnv, replay_states
from hubplan.maze.env import TURN_LEFT, TURN_RIGHT
from hubplan.maze.raster import OBS_SIZE
from hubplan.nn import weighted_sq_error
from hubplan.topology import bucket_of

from conftest import traced_peak_bytes
from gradient_reference import finite_diff_check
from lowlevel_reference import train_low_level_reference, unfused_weighted_sq_error

EPS = 1e-3


@pytest.fixture(scope="module")
def env():
    return MazeEnv()


@pytest.fixture(scope="module")
def probe_pair(env):
    """Two observation sequences ending at the same pose with identical final
    rasters; one picked up the key it was facing, the other only turned. The
    picked key sits behind the agent at the end, so nothing visible differs."""
    goal = Goal(0, 1)

    def run(pickup: bool):
        from hubplan.maze.env import PICKUP

        rollout = Rollout(env, 0, env.starts[0], goal)
        goto_and_face(rollout, env.key_home[RED])
        rollout.act(PICKUP if pickup else TURN_RIGHT)
        for _ in range(2 if pickup else 3):
            rollout.act(TURN_LEFT)
        return rollout

    with_pickup = run(True)
    without = run(False)
    assert with_pickup.state.pos == without.state.pos
    assert with_pickup.state.orientation == without.state.orientation
    np.testing.assert_array_equal(with_pickup.observations[-1], without.observations[-1])
    return with_pickup, without


class TestOracleEncoder:
    def test_determinism_and_step_count_exclusion(self, env):
        enc = OracleEncoder()
        state, _ = env.reset(env.starts[0], Goal(0, 1))
        z1 = enc.encode(None, state)
        z2 = enc.encode(None, state)
        np.testing.assert_array_equal(z1, z2)
        import dataclasses

        later = dataclasses.replace(state, step_count=state.step_count + 7)
        np.testing.assert_array_equal(enc.encode(None, later), z1)

    def test_each_encode_returns_its_own_array(self, env):
        enc = OracleEncoder(epsilon=EPS)
        state, _ = env.reset(env.starts[0], Goal(0, 1))
        codes = enc.codes(state)
        want = np.full(enc.latent_dim, 0.5 * EPS)
        want[:len(codes)] = [(10 * code + 0.5) * EPS for code in codes]
        z1 = enc.encode(None, state)
        z1[:] = -1.0
        z2 = enc.encode(None, state)
        assert z2 is not z1 and not np.shares_memory(z1, z2)
        assert z2.tobytes() == want.tobytes()

    def test_distinct_fields_separated_by_ten_tolerances(self, env):
        enc = OracleEncoder(epsilon=EPS)
        state, _ = env.reset(env.starts[0], Goal(0, 1))
        import dataclasses

        variants = [
            dataclasses.replace(state, pos=(4, 3)),
            dataclasses.replace(state, orientation=1),
            dataclasses.replace(state, held=("key", 2)),
            dataclasses.replace(state, keys_applied=(frozenset({RED}),) + (frozenset(),) * 3),
            dataclasses.replace(state, barrel=(0,)),
        ]
        z0 = enc.encode(None, state)
        for v in variants:
            zv = enc.encode(None, v)
            assert np.max(np.abs(zv - z0)) >= 10 * EPS - 1e-12
            assert bucket_of(zv, EPS) != bucket_of(z0, EPS)

    def test_corpus_states_never_collide(self, env):
        """Distinct task-relevant states across expert episodes map to distinct
        buckets; equal states map to equal buckets (exhaustive over the runs)."""
        from hubplan.demos import generate_success_demo

        enc = OracleEncoder(epsilon=EPS)
        seen: dict = {}
        for goal in (Goal(0, 1), Goal(2, 3), Goal(3, 0)):
            traj = generate_success_demo(env, 0, goal)
            for state in replay_states(env, traj):
                key = (state.pos, state.orientation, state.held, state.door_phase, state.barrel)
                bucket = bucket_of(enc.encode(None, state), EPS)
                if key in seen:
                    assert seen[key] == bucket
                else:
                    assert bucket not in set(seen.values())
                    seen[key] = bucket

    def test_memoryless_fields_drop_history(self, env):
        enc = OracleEncoder(fields=MEMORYLESS_FIELDS)
        state, _ = env.reset(env.starts[0], Goal(0, 1))
        import dataclasses

        carrying = dataclasses.replace(state, held=("diamond", 1), barrel=(0,))
        np.testing.assert_array_equal(enc.encode(None, state), enc.encode(None, carrying))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            OracleEncoder(fields=("position", "mood"))

    def test_latent_width_checked_at_construction(self, env):
        # position 2, orientation 1, held 1, doors 4, barrel 2
        state, _ = env.reset(env.starts[0], Goal(0, 1))
        assert OracleEncoder(latent_dim=10).encode(None, state).shape == (10,)
        assert OracleEncoder(latent_dim=3, fields=MEMORYLESS_FIELDS).encode(None, state).shape == (3,)
        for latent_dim, fields in [(9, ALL_FIELDS), (2, MEMORYLESS_FIELDS)]:
            with pytest.raises(ValueError, match="too small"):
                OracleEncoder(latent_dim=latent_dim, fields=fields)


class TestLearnedEncoder:
    def test_encode_deterministic(self, env):
        model = LowLevelModel(np.random.default_rng(3))
        _, obs = env.reset(env.starts[0], Goal(0, 1))
        e1 = LearnedEncoder(model)
        e1.begin_episode()
        z1 = e1.encode(obs)
        e2 = LearnedEncoder(model)
        e2.begin_episode()
        np.testing.assert_array_equal(z1, e2.encode(obs))

    def test_full_model_separates_histories(self, env, probe_pair):
        # the recurrent correction must split states whose rasters agree but
        # whose recent histories differ
        model = LowLevelModel(np.random.default_rng(3))
        from hubplan.demos import generate_success_demo

        trajs = [generate_success_demo(env, 0, Goal(0, 1))]
        train_low_level(model, trajs, RunConfig(low_epochs=2, lr_low=1e-4))
        zs = []
        for rollout in probe_pair:
            enc = LearnedEncoder(model)
            enc.begin_episode()
            for obs in rollout.observations:
                z = enc.encode(obs)
            zs.append(z)
        assert np.max(np.abs(zs[0] - zs[1])) > EPS

    def test_begin_episode_resets_hidden(self, env):
        """The hidden state is episode-local: an episode encodes the same
        whether or not another one ran on the encoder before it."""
        model = LowLevelModel(np.random.default_rng(5))
        state, obs = env.reset(env.starts[0], Goal(0, 1))
        seq = [obs]
        for a in [TURN_LEFT, TURN_RIGHT, TURN_LEFT, TURN_RIGHT]:
            state, obs, *_ = env.step(state, a)
            seq.append(obs)
        enc = LearnedEncoder(model)
        enc.begin_episode()
        ref = [enc.encode(o) for o in seq]
        enc.begin_episode()
        for o, z in zip(seq, ref):
            np.testing.assert_array_equal(enc.encode(o), z)

    @pytest.mark.parametrize("steps", [1, 2, 225])
    def test_matrix_encode_equals_row_encodes(self, steps):
        """One call over an observation matrix gives the latents and final
        memory of encoding its rows in order, bit for bit, and a matrix split
        in two continues from the first half's memory."""
        rng = np.random.default_rng(steps)
        model = LowLevelModel(rng)
        obs = rng.uniform(size=(steps, OBS_SIZE))
        rows = LearnedEncoder(model)
        by_row = np.stack([rows.encode(o) for o in obs])
        whole = LearnedEncoder(model)
        got = whole.encode(obs)
        assert got.shape == (steps, model.latent_dim)
        assert np.array_equal(got, by_row)
        assert np.array_equal(whole.hidden, rows.hidden)
        halves = LearnedEncoder(model)
        split = np.concatenate([halves.encode(obs[:steps // 2]), halves.encode(obs[steps // 2:])])
        assert np.array_equal(split, by_row)
        assert np.array_equal(halves.hidden, rows.hidden)

    def test_row_encode_equals_tape_encode_step(self):
        rng = np.random.default_rng(4)
        model = LowLevelModel(rng)
        enc = LearnedEncoder(model)
        h = np.zeros((1, model.latent_dim))
        for obs in rng.uniform(size=(5, OBS_SIZE)):
            z, h_t = model.encode_step(nn.Tensor(obs[None, :]), nn.Tensor(h))
            h = h_t.data
            assert np.array_equal(enc.encode(obs), z.data[0])
            assert np.array_equal(enc.hidden, h)


def cut(traj, steps: int):
    """The demonstration's first `steps` transitions."""
    return type(traj)(start_id=traj.start_id, start=traj.start, goal=traj.goal,
                      success=traj.success, observations=traj.observations[:steps + 1],
                      actions=traj.actions[:steps])


class TestFusedSqError:
    """`weighted_sq_error` is one tape node whose loss and gradients equal
    the primitive composition's bit for bit."""

    def both(self, pred, target, weight, channel=None, upstream=0.37):
        results = []
        for fused in (True, False):
            with nn.Tape() as tape:
                if fused:
                    loss = weighted_sq_error(pred, target, weight, 3.0, channel)
                else:
                    w = weight if channel is None else weight * channel[None, :]
                    loss = unfused_weighted_sq_error(pred, target, w, 3.0)
                loss = nn.tensor.scale(loss, upstream)
            results.append((loss.data, nn.backprop(tape, loss), len(tape.nodes)))
        return results

    def assert_same(self, pred, target, weight, channel=None):
        (loss, grads, nodes), (ref_loss, ref_grads, _) = self.both(pred, target, weight, channel)
        assert nodes == 2
        assert np.array_equal(loss, ref_loss, equal_nan=True)
        assert set(grads) == set(ref_grads)
        for p in grads:
            assert np.array_equal(grads[p], ref_grads[p], equal_nan=True), p.name
        return loss, grads

    def test_row_mask(self):
        rng = np.random.default_rng(0)
        pred = nn.parameter(rng.normal(size=(5, 7)), "pred")
        target = nn.parameter(rng.normal(size=(5, 7)), "target")
        weight = np.array([[1.0], [0.0], [1.0], [1.0], [0.0]])
        _loss, grads = self.assert_same(pred, target, weight)
        assert set(grads) == {pred, target}
        assert not grads[pred][[1, 4]].any()

    def test_channel_weight(self):
        rng = np.random.default_rng(1)
        pred = nn.parameter(rng.normal(size=(4, 9)), "pred")
        target = nn.parameter(rng.normal(size=(4, 9)), "target")
        self.assert_same(pred, target, np.array([[1.0], [1.0], [0.0], [1.0]]),
                         rng.uniform(size=9))

    def test_target_needs_no_gradient(self):
        rng = np.random.default_rng(2)
        pred = nn.parameter(rng.normal(size=(3, 6)), "pred")
        target = rng.normal(size=(3, 6))
        _loss, grads = self.assert_same(pred, target, np.ones((3, 1)), rng.uniform(size=6))
        assert set(grads) == {pred}

    def test_overflow_gives_the_same_inf(self):
        # the path `test_nan_loss_aborts` takes: the square overflows
        pred = nn.parameter(np.full((2, 3), 1e200), "pred")
        target = nn.parameter(np.zeros((2, 3)), "target")
        with np.errstate(over="ignore"):
            loss, _grads = self.assert_same(pred, target, np.ones((2, 1)), np.ones(3))
        assert loss == np.inf

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        pred = nn.parameter(rng.normal(size=(3, 5)), "pred")
        target = nn.parameter(rng.normal(size=(3, 5)), "target")
        weight = np.array([[1.0], [0.0], [1.0]])
        channel = rng.uniform(size=5)

        def f():
            return weighted_sq_error(nn.tanh(pred), target, weight, 2.0, channel)

        assert finite_diff_check(f, [pred, target]) < 1e-4


class TestLowLevelTraining:
    def test_latent_prediction_loss_zero_iff_equal(self):
        z = nn.Tensor(np.ones((2, 4)))
        w = np.ones((2, 1))
        same = weighted_sq_error(z, z, w, 2.0)
        assert float(same.data) == 0.0
        other = nn.Tensor(np.ones((2, 4)) + 0.1)
        assert float(weighted_sq_error(z, other, w, 2.0).data) > 0.0

    def test_equals_reference_trainer(self, env):
        """Bit for bit the trainer composed from primitive ops, on
        trajectories of uneven length whose longest, 23 steps, is no multiple
        of the 7-step window."""
        from hubplan.demos import generate_success_demo

        demos = [generate_success_demo(env, start, goal)
                 for start, goal in ((0, Goal(0, 1)), (1, Goal(2, 3)), (2, Goal(3, 0)))]
        trajs = [cut(demos[0], 23), cut(demos[1], 17), cut(demos[2], 9), cut(demos[0], 4)]
        cfg = RunConfig(low_epochs=3, lr_low=1e-3, history_len=7)
        models = [LowLevelModel(np.random.default_rng(8)) for _ in range(2)]
        losses = train_low_level(models[0], trajs, cfg)
        assert losses == train_low_level_reference(models[1], trajs, cfg)
        for name, value in models[0].tensors().items():
            assert np.array_equal(value, models[1].tensors()[name]), name

    def test_holds_one_window_at_a_time(self, env):
        """Training three windows peaks at the memory of training one: a
        window's graph and observations are freed before the next window's
        forward pass. (Where the previous window's graph stayed reachable
        during the next forward pass, the ratio measured 1.13 with every
        gradient kept to the end of the sweep and 1.62 without.)"""
        from hubplan.demos import generate_success_demo

        demo = generate_success_demo(env, 0, Goal(0, 1))

        def peak_mb(steps):
            trajs = [cut(demo, steps - i % 3) for i in range(24)]
            model = LowLevelModel(np.random.default_rng(0))
            cfg = RunConfig(low_epochs=1, lr_low=1e-4, history_len=10)
            return traced_peak_bytes(train_low_level, model, trajs, cfg)[1] / 2 ** 20

        one, three = peak_mb(10), peak_mb(30)
        assert three < 1.05 * one, (one, three)

    def test_predict_next_unaffected_by_action_with_zero_weights(self):
        model = LowLevelModel(np.random.default_rng(1))
        for p in (model.dyn_wa,):
            p.data = np.zeros_like(p.data)
        z = nn.Tensor(np.random.default_rng(0).normal(size=(1, 64)))
        eye = np.eye(6)
        outs = [model.predict_next(z, nn.Tensor(eye[a][None, :])).data for a in range(6)]
        for o in outs[1:]:
            np.testing.assert_array_equal(outs[0], o)

    def test_loss_decreases_on_small_dataset(self, env):
        from hubplan.demos import generate_success_demo

        trajs = [generate_success_demo(env, 0, Goal(0, 1))]
        model = LowLevelModel(np.random.default_rng(7))
        losses = train_low_level(model, trajs, RunConfig(low_epochs=3, lr_low=1e-4))
        assert losses[-1] < losses[0]

    @pytest.mark.xfail(strict=True, reason=(
        "train_low_level encodes z once at the window start and never sets z = z_next, so "
        "every step of a window predicts from the window's first latent; the fix moves the "
        "pinned learned-lowlevel benchmark hashes and waits for a benchmark re-baseline"))
    def test_each_step_predicts_from_its_own_latent(self, env, monkeypatch):
        from hubplan.demos import generate_success_demo

        traj = generate_success_demo(env, 0, Goal(0, 1))
        model = LowLevelModel(np.random.default_rng(5))
        enc = LearnedEncoder(LowLevelModel.from_tensors(
            {k: v.copy() for k, v in model.tensors().items()}))
        want = enc.encode(traj.observations[:3])
        seen = []
        predict_next = model.predict_next

        def spy(z, action_onehot):
            seen.append(z.data[0].copy())
            return predict_next(z, action_onehot)

        monkeypatch.setattr(model, "predict_next", spy)
        train_low_level(model, [traj], RunConfig(low_epochs=1, lr_low=1e-12, history_len=3))
        for t in range(3):       # the first window, before any optimizer step
            assert np.array_equal(seen[t], want[t]), f"step {t}"

    def test_dynamics_beats_shuffled_actions(self, env):
        """After training, next-latent prediction with the true action labels
        outperforms the same transitions with shuffled labels."""
        from hubplan.demos import generate_success_demo

        traj = generate_success_demo(env, 0, Goal(0, 1))
        short = type(traj)(start_id=0, start=traj.start, goal=traj.goal, success=traj.success,
                           observations=traj.observations[:41], actions=traj.actions[:40])
        model = LowLevelModel(np.random.default_rng(2))
        train_low_level(model, [short], RunConfig(low_epochs=60, lr_low=1e-3))

        def mean_pred_error(actions):
            enc = LearnedEncoder(model)
            enc.begin_episode()
            zs = [enc.encode(obs) for obs in short.observations]
            eye = np.eye(6)
            err = 0.0
            for t, a in enumerate(actions):
                z_hat = model.predict_next(nn.Tensor(zs[t][None, :]),
                                           nn.Tensor(eye[a][None, :])).data[0]
                err += float(((z_hat - zs[t + 1]) ** 2).sum())
            return err / len(actions)

        shuffled = list(short.actions)
        np.random.default_rng(0).shuffle(shuffled)
        assert mean_pred_error(short.actions) < mean_pred_error(shuffled)

    def test_gradients_of_all_heads(self, env):
        """Finite differences across the full per-step loss (latent prediction,
        weighted raster, barrel slots, terminal status) on a tiny instance."""
        from hubplan.maze.raster import OBS_SIZE, VIEW_SIZE, channel_weights

        rng = np.random.default_rng(11)
        model = LowLevelModel(rng, latent_dim=6, hidden=8)
        obs0 = rng.uniform(size=(2, OBS_SIZE))
        obs1 = rng.uniform(size=(2, OBS_SIZE))
        action = np.eye(6)[[0, 3]]
        vis_tgt = obs1[:, :VIEW_SIZE]
        bar_tgt = np.array([[0, 2], [1, 0]])
        term_tgt = np.array([[0.0, 0.0], [1.0, 1.0]])
        cw = channel_weights()
        cwn = cw / cw.sum()
        w = np.ones((2, 1))

        def f():
            h = nn.Tensor(np.zeros((2, 6)))
            z, h = model.encode_step(nn.Tensor(obs0), h)
            z_hat = model.predict_next(z, nn.Tensor(action))
            z_next, h = model.encode_step(nn.Tensor(obs1), h)
            loss = weighted_sq_error(z_hat, z_next, w, 2.0)
            vis, b0, b1, term = model.decode(z_hat)
            vd = nn.tensor.sub(vis, nn.Tensor(vis_tgt))
            loss = nn.tensor.add(loss, nn.tensor.scale(
                nn.sum_all(nn.tensor.mul(nn.tensor.mul(vd, vd), w * cwn[None, :])), 0.5))
            loss = nn.tensor.add(loss, nn.softmax_cross_entropy(b0, bar_tgt[:, 0]))
            loss = nn.tensor.add(loss, nn.softmax_cross_entropy(b1, bar_tgt[:, 1]))
            loss = nn.tensor.add(loss, nn.bce_with_logits(term, term_tgt))
            return loss

        err = finite_diff_check(f, model.parameters(), h=1e-5)
        assert err < 1e-4

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nan_loss_aborts(self, env):
        from hubplan.demos import generate_success_demo

        trajs = [generate_success_demo(env, 0, Goal(0, 1))]
        model = LowLevelModel(np.random.default_rng(0))
        model.dyn_w2.data[:] = 1e200  # squared prediction error overflows to inf
        with pytest.raises(nn.NonFiniteError):
            train_low_level(model, trajs, RunConfig(low_epochs=1, lr_low=1e-4))
