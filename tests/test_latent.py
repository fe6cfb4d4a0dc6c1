import numpy as np
import pytest

from hubplan import nn
from hubplan.config import RunConfig
from hubplan.demos.expert import Rollout, goto_and_face
from hubplan.latent import (
    MEMORYLESS_FIELDS,
    LearnedEncoder,
    LowLevelModel,
    OracleEncoder,
    latent_prediction_loss,
    train_low_level,
)
from hubplan.maze import RED, Goal, MazeEnv, replay_states
from hubplan.maze.env import TURN_LEFT, TURN_RIGHT
from hubplan.maze.raster import OBS_SIZE
from hubplan.topology import bucket_of

from gradient_reference import finite_diff_check

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

    def test_distinct_fields_separated_by_ten_tolerances(self, env):
        enc = OracleEncoder(epsilon=EPS)
        state, _ = env.reset(env.starts[0], Goal(0, 1))
        import dataclasses

        variants = [
            dataclasses.replace(state, pos=(4, 3)),
            dataclasses.replace(state, orientation=1),
            dataclasses.replace(state, held=("key", 2)),
            dataclasses.replace(state, door_phase=(1, 0, 0, 0)),
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


class TestLowLevelTraining:
    def test_latent_prediction_loss_zero_iff_equal(self):
        z = nn.Tensor(np.ones((2, 4)))
        w = np.ones((2, 1))
        same = latent_prediction_loss(z, z, w, 2.0)
        assert float(same.data) == 0.0
        other = nn.Tensor(np.ones((2, 4)) + 0.1)
        assert float(latent_prediction_loss(z, other, w, 2.0).data) > 0.0

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

    def test_dynamics_beats_shuffled_actions(self, env):
        """After training, next-latent prediction with the true action labels
        outperforms the same transitions with shuffled labels."""
        from hubplan.demos import generate_success_demo

        traj = generate_success_demo(env, 0, Goal(0, 1))
        short = type(traj)(start_id=0, start=traj.start, goal=traj.goal, success=traj.success,
                           observations=traj.observations[:41], actions=traj.actions[:40],
                           rewards=traj.rewards[:40])
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
            loss = latent_prediction_loss(z_hat, z_next, w, 2.0)
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
