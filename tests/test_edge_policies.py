import hashlib
from functools import reduce

import numpy as np
import pytest

from hubplan import edge_policies, nn
from hubplan.config import RunConfig
from hubplan.edge_policies import (
    OBS_NOISE,
    EdgePolicy,
    PolicyBank,
    _fill_batch,
    _greedy_exact,
    load_bank,
    perturb_segment,
    save_bank,
    sequence_loss_and_grads,
    train_policies,
    train_policy_for_hub,
)
from hubplan.maze import Goal, MazeEnv
from hubplan.maze.raster import OBS_SIZE, VIEW_SIZE
from hubplan.topology import Segment

from gradient_reference import finite_diff_error
from scenarios import build_scenario, scenario_topology


def tape_step(policy, x, h):
    """One policy step composed from tape ops; the reference for the numpy path."""
    enc = nn.relu(nn.matmul(x, policy.enc_w) + policy.enc_b)
    h = nn.gru_step(policy.gru, enc, h)
    logits = nn.matmul(h, policy.head_w) + policy.head_b
    return logits, h


def tape_sequence_loss(policy, xs, acts, mask, label_smoothing):
    """Policy training loss recorded op by op on a tape: (loss tensor, grads)."""
    total = mask.sum()
    with nn.Tape() as tape:
        h = nn.Tensor(np.zeros((xs.shape[0], policy.gru_hidden)))
        loss = None
        for t in range(xs.shape[1]):
            w = mask[:, t]
            if w.sum() == 0:
                break
            logits, h = tape_step(policy, nn.Tensor(xs[:, t]), h)
            ce = nn.softmax_cross_entropy(logits, acts[:, t], sample_weight=w,
                                          label_smoothing=label_smoothing)
            term = nn.tensor.scale(ce, w.sum() / total)
            loss = term if loss is None else nn.tensor.add(loss, term)
        return loss, nn.backprop(tape, loss)


def padded_batch(rng, lengths, in_dim, t_max=None):
    n, t_max = len(lengths), t_max or max(lengths)
    xs = np.zeros((n, t_max, in_dim))
    acts = np.zeros((n, t_max), dtype=np.intp)
    mask = np.zeros((n, t_max))
    for i, steps in enumerate(lengths):
        xs[i, :steps] = rng.uniform(size=(steps, in_dim))
        acts[i, :steps] = rng.integers(0, 6, size=steps)
        mask[i, :steps] = 1.0
    return xs, acts, mask


def greedy_exact_by_act(policy, segs, embeddings, trajectories):
    """Reference for `_greedy_exact`: replay each segment one `policy.act`
    call per step and stop at the first argmax that misses its action."""
    for seg in segs:
        memory = policy.initial_memory()
        traj = trajectories[seg.traj_id]
        recorded = traj.observations
        for t in range(seg.begin, seg.end):
            probs, memory = policy.act(recorded[t], embeddings[seg.target], memory)
            if int(np.argmax(probs)) != traj.actions[t]:
                return False
    return True


def make_segment(n_actions=6, begin=5):
    """Span of trajectory 0, a `FakeTrajectory`."""
    return Segment(0, 1, 0, begin, begin + n_actions)


class FakeTrajectory:
    def __init__(self, length=30):
        self.observations = np.repeat(0.1 * np.arange(length + 1.0)[:, None], 590, axis=1)
        self.actions = [t % 6 for t in range(length)]

    def decode_rows(self, a, b, out):
        """`Trajectory.decode_rows` over these float rows."""
        out[...] = self.observations[a:b]
        return out


def variant(begin, seg):
    """What a draw is, read from its first step against the segment's."""
    if begin > seg.begin:
        return "truncated"
    return "preroll" if begin < seg.begin else "canonical"


class TestPerturbSegment:
    def test_variant_frequencies(self):
        """Empirical canonical/truncated/preroll mix over 10k seeded draws."""
        rng = np.random.default_rng(42)
        seg = make_segment(n_actions=8, begin=5)
        counts = {"canonical": 0, "truncated": 0, "preroll": 0}
        n = 10_000
        for _ in range(n):
            counts[variant(perturb_segment(seg, rng), seg)] += 1
        assert abs(counts["canonical"] / n - 0.8) <= 0.02
        assert abs(counts["truncated"] / n - 0.1) <= 0.02
        assert abs(counts["preroll"] / n - 0.1) <= 0.02

    def test_truncation_bounds(self):
        rng = np.random.default_rng(0)
        seg = make_segment(n_actions=8)
        traj = FakeTrajectory()
        seg_actions = traj.actions[seg.begin:seg.end]
        for _ in range(300):
            begin = perturb_segment(seg, rng)
            if begin > seg.begin:
                cut = begin - seg.begin
                assert 1 <= cut <= 3
                assert len(traj.actions[begin:seg.end]) == 8 - cut
                assert traj.actions[begin:seg.end] == seg_actions[cut:]

    def test_one_action_segment_never_truncates_to_empty(self):
        rng = np.random.default_rng(1)
        seg = make_segment(n_actions=1)
        traj = FakeTrajectory()
        for _ in range(200):
            begin = perturb_segment(seg, rng)
            assert begin <= seg.begin
            assert len(traj.actions[begin:seg.end]) >= 1

    def test_preroll_at_trajectory_start_falls_back(self):
        rng = np.random.default_rng(2)
        seg = make_segment(n_actions=4, begin=0)
        for _ in range(200):
            assert perturb_segment(seg, rng) >= seg.begin

    def test_preroll_prepends_true_predecessors(self):
        rng = np.random.default_rng(3)
        seg = make_segment(n_actions=4, begin=5)
        traj = FakeTrajectory()
        seg_actions = traj.actions[seg.begin:seg.end]
        for _ in range(300):
            begin = perturb_segment(seg, rng)
            if begin < seg.begin:
                ext = seg.begin - begin
                actions = traj.actions[begin:seg.end]
                assert 1 <= ext <= 3
                assert actions[ext:] == seg_actions
                assert actions[:ext] == traj.actions[5 - ext:5]
                break
        else:
            pytest.fail("no preroll drawn")


def fill_batch_reference(segs, begins, trajectories, embeddings, obs_noise, rng):
    """The policy batch fill over float observation rows, its noise of
    deviation `obs_noise` drawn by `rng.normal`: the reference for
    `_fill_batch`."""
    t_max = max(s.end - begin for s, begin in zip(segs, begins))
    xs = np.zeros((len(segs), t_max, OBS_SIZE + embeddings.shape[1]))
    acts = np.zeros((len(segs), t_max), dtype=np.intp)
    mask = np.zeros((len(segs), t_max))
    for i, (seg, begin) in enumerate(zip(segs, begins)):
        traj, length = trajectories[seg.traj_id], seg.end - begin
        xs[i, :length, :OBS_SIZE] = traj.observations[begin:seg.end]
        xs[i, :length, :VIEW_SIZE] += rng.normal(0.0, obs_noise, size=(length, VIEW_SIZE))
        xs[i, :length, OBS_SIZE:] = embeddings[seg.target]
        acts[i, :length] = traj.actions[begin:seg.end]
        mask[i, :length] = 1.0
    return xs, acts, mask


class TestFillBatch:
    @pytest.mark.parametrize("obs_noise", [OBS_NOISE])
    def test_batch_from_codes_is_batch_from_float_rows(self, obs_noise):
        """A canonical, a truncated and a prerolled draw, and a short draw
        whose row ends in a padded tail, from two demonstrations."""
        from hubplan.demos import generate_success_demo

        env = MazeEnv()
        trajs = [generate_success_demo(env, 0, Goal(0, 1)),
                 generate_success_demo(env, 1, Goal(2, 3))]
        segs = [Segment(0, 1, 0, 5, 12), Segment(0, 2, 1, 10, 20), Segment(0, 1, 1, 8, 14),
                Segment(0, 2, 0, 2, 4)]
        begins = [5, 12, 6, 2]
        assert [variant(b, s) for b, s in zip(begins, segs)] == [
            "canonical", "truncated", "preroll", "canonical"]
        embeddings = np.random.default_rng(0).normal(size=(3, 4))
        rngs = [np.random.default_rng(11), np.random.default_rng(11)]
        got = _fill_batch(segs, begins, trajs, embeddings, rngs[0])
        want = fill_batch_reference(segs, begins, trajs, embeddings, obs_noise, rngs[1])
        assert got[0].shape == (4, 8, OBS_SIZE + 4)
        assert not got[2][3, 2:].any()       # the short draw's padded tail
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert rngs[0].random() == rngs[1].random()   # the streams stay in step


class TestEdgePolicy:
    def test_distribution_sums_to_one_and_deterministic(self):
        policy = EdgePolicy(np.random.default_rng(0), emb_dim=8)
        obs = np.random.default_rng(1).uniform(size=590)
        emb = np.random.default_rng(2).normal(size=8)
        p1, m1 = policy.act(obs, emb, policy.initial_memory())
        p2, m2 = policy.act(obs, emb, policy.initial_memory())
        assert p1.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(m1, m2)

    def test_act_matches_tape_step(self):
        policy = EdgePolicy(np.random.default_rng(4), emb_dim=8)
        rng = np.random.default_rng(5)
        memory = policy.initial_memory()
        h = nn.Tensor(memory)
        for _ in range(3):
            obs, emb = rng.uniform(size=590), rng.normal(size=8)
            probs, memory = policy.act(obs, emb, memory)
            logits, h = tape_step(policy, nn.Tensor(np.concatenate([obs, emb])[None, :]), h)
            assert np.array_equal(probs, nn.softmax_np(logits.data)[0])
            assert np.array_equal(memory, h.data)

    @pytest.mark.parametrize("special", [None, -np.inf, np.inf, np.nan, "all -inf"])
    def test_act_probabilities_are_softmax_np_bitwise(self, special):
        """With a zero head weight the logits are the head bias exactly, so
        the bias sets them: random ones (some equal, some far apart), and
        ones holding -inf, +inf or NaN, which `softmax_np` masks."""
        policy = EdgePolicy(np.random.default_rng(6), emb_dim=8)
        policy.head_w.data[...] = 0.0
        rng = np.random.default_rng(7)
        obs, emb = rng.uniform(size=590), rng.normal(size=8)
        with np.errstate(invalid="ignore", divide="ignore"):
            for trial in range(200):
                logits = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=6)
                logits[rng.integers(6)] = logits[rng.integers(6)]
                if special == "all -inf":
                    logits[:] = -np.inf
                elif special is not None:
                    logits[rng.integers(6)] = special
                policy.head_b.data[...] = logits
                probs, memory = policy.act(obs, emb, policy.initial_memory())
                want = nn.softmax_np(policy.head(memory))[0]
                assert probs.tobytes() == want.tobytes(), (special, trial)

    @pytest.mark.parametrize("widths, lengths, t_max", [
        ((6, 5), [5, 2, 4], None),
        ((128, 64), [5, 2, 4], None),
        ((128, 64), [4], None),
        ((128, 64), [3, 1, 3], 4),
    ], ids=["widths0", "widths1", "one_sequence", "last_step_masked"])
    def test_bptt_matches_tape(self, widths, lengths, t_max, monkeypatch):
        """The loss and every gradient summed in the tape's order are
        bit-identical to the tape. The seven weight gradients are each one
        GEMM over the batch's k = T * n rows, where the tape sums T per-step
        GEMMs: both are sums of the same k products, each within
        gamma_k * |A|^T |B| of the exact one (A, B the row-merged operands)."""
        enc_hidden, gru_hidden = widths
        policy = EdgePolicy(np.random.default_rng(7), emb_dim=4, enc_hidden=enc_hidden,
                            gru_hidden=gru_hidden)
        gru = policy.gru
        xs, acts, mask = padded_batch(np.random.default_rng(8), lengths, 594, t_max)
        merged = []
        real_param_grads = nn.gru_param_grads

        def spy(x, h, rh, da):
            merged.extend([x, h, rh, list(da)])
            return real_param_grads(x, h, rh, merged[-1])

        monkeypatch.setattr(nn, "gru_param_grads", spy)
        loss, grads = sequence_loss_and_grads(policy, xs, acts, mask, label_smoothing=0.05)
        monkeypatch.undo()
        ref_loss, ref_grads = tape_sequence_loss(policy, xs, acts, mask, 0.05)
        assert loss == float(ref_loss.data)
        assert set(grads) == set(ref_grads) == set(policy.parameters())

        enc, h, rh, (da_u, da_r, da_c) = merged
        steps = enc.shape[0] // len(lengths)

        def stack(rows):
            return rows.reshape(steps, len(lengths), -1)

        # the encoder's pre-activation gradient as the trainer forms it
        dpre = reduce(np.add, nn.gru_input_grads(gru, [stack(d) for d in (da_u, da_r, da_c)]))
        dpre *= stack(enc) > 0.0
        operands = {
            policy.enc_w: (xs[:, :steps].swapaxes(0, 1).reshape(-1, 594),
                           dpre.reshape(-1, enc_hidden)),
            gru.w_update: (enc, da_u), gru.u_update: (h, da_u),
            gru.w_reset: (enc, da_r), gru.u_reset: (h, da_r),
            gru.w_cand: (enc, da_c), gru.u_cand: (rh, da_c),
        }
        u = 2.0 ** -53
        for p in policy.parameters():
            if p not in operands:
                assert np.array_equal(grads[p], ref_grads[p]), p.name
                continue
            a, b = operands[p]
            k = a.shape[0]
            gamma = k * u / (1 - k * u)
            bound = 2 * gamma * (np.abs(a).T @ np.abs(b))
            assert np.all(np.abs(grads[p] - ref_grads[p]) <= bound), p.name

    def test_all_zero_mask_rejected(self):
        policy = EdgePolicy(np.random.default_rng(7), emb_dim=4, enc_hidden=6, gru_hidden=5)
        xs, acts, mask = padded_batch(np.random.default_rng(8), [3, 2], 594)
        with pytest.raises(ValueError, match="no real step"):
            sequence_loss_and_grads(policy, xs, acts, np.zeros_like(mask))

    def test_non_finite_logits_rejected(self):
        policy = EdgePolicy(np.random.default_rng(7), emb_dim=4, enc_hidden=6, gru_hidden=5)
        policy.head_w.data[:] = np.nan
        xs, acts, mask = padded_batch(np.random.default_rng(8), [3, 2], 594)
        with pytest.raises(nn.NonFiniteError, match="non-finite logits"):
            sequence_loss_and_grads(policy, xs, acts, mask)

    def test_stacked_greedy_replay_matches_act(self):
        rng = np.random.default_rng(11)
        policy = EdgePolicy(rng, emb_dim=4)
        emb = rng.normal(size=(3, 4))
        traj = FakeTrajectory(length=20)
        traj.observations = rng.uniform(size=traj.observations.shape)
        segs = [Segment(0, 1, 0, 2, 9), Segment(0, 2, 0, 9, 20)]
        # label every step with the policy's own greedy action, so replay passes
        for seg in segs:
            memory = policy.initial_memory()
            for t in range(seg.begin, seg.end):
                probs, memory = policy.act(traj.observations[t], emb[seg.target], memory)
                traj.actions[t] = int(np.argmax(probs))
        assert greedy_exact_by_act(policy, segs, emb, [traj])
        assert _greedy_exact(policy, segs, emb, [traj])
        traj.actions[15] = (traj.actions[15] + 1) % 6
        assert not greedy_exact_by_act(policy, segs, emb, [traj])
        assert not _greedy_exact(policy, segs, emb, [traj])

    def test_gradient_check(self):
        policy = EdgePolicy(np.random.default_rng(5), emb_dim=4, enc_hidden=6, gru_hidden=5)
        xs, acts, mask = padded_batch(np.random.default_rng(6), [3, 2], 594)

        def loss_fn():
            return sequence_loss_and_grads(policy, xs, acts, mask, label_smoothing=0.05)[0]

        _loss, grads = sequence_loss_and_grads(policy, xs, acts, mask, label_smoothing=0.05)
        assert finite_diff_error(loss_fn, grads, policy.parameters(), h=1e-5) < 1e-4


@pytest.fixture(scope="module")
def trained_scenario():
    sc = build_scenario()
    topo = scenario_topology(sc)
    rng = np.random.default_rng(0)
    from hubplan.hub_dynamics import HubDynamicsModel

    model = HubDynamicsModel(rng, n_hubs=len(topo.hubs))
    return sc, topo, model.embeddings()


# sha256 of the bank below as trained by the op-by-op tape implementation
SCENARIO_BANK_SHA256 = "4d5ee4e4356c2d43519ce4e03e669c1a7ac69bcadefda18a01add6d73a97e656"
# and as trained by `sequence_loss_and_grads`, whose seven weight gradients
# are each one GEMM over all steps, so its policies differ in the last bits
MERGED_BANK_SHA256 = "73be34a6f5b1752065d2d48f23a2ef9f5dbbe30fe02e062b560d6e76f0cfca77"


def bank_sha256(bank, out_dir):
    save_bank(bank, out_dir)
    h = hashlib.sha256()
    for f in sorted(out_dir.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def tape_loss_and_grads(policy, xs, acts, mask, label_smoothing=0.0):
    """`sequence_loss_and_grads` recorded op by op on the tape."""
    loss, grads = tape_sequence_loss(policy, xs, acts, mask, label_smoothing)
    return float(loss.data), grads


@pytest.fixture(scope="module")
def tape_bank(trained_scenario):
    """The scenario bank trained through the tape."""
    sc, topo, emb = trained_scenario
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edge_policies, "sequence_loss_and_grads", tape_loss_and_grads)
        mp.setattr(edge_policies, "MAX_EPOCHS", 12)
        return train_policies(topo, sc.trajectories, emb, RunConfig())


class TestTrainPolicies:
    def test_bank_bytes_match_tape_training(self, tape_bank, tmp_path):
        assert bank_sha256(tape_bank, tmp_path) == SCENARIO_BANK_SHA256

    def test_bank_tracks_tape_training(self, trained_scenario, tape_bank, tmp_path, monkeypatch):
        sc, topo, emb = trained_scenario
        monkeypatch.setattr(edge_policies, "MAX_EPOCHS", 12)
        bank = train_policies(topo, sc.trajectories, emb, RunConfig())
        assert bank.train_losses.keys() == tape_bank.train_losses.keys()
        for hub, losses in bank.train_losses.items():
            want = tape_bank.train_losses[hub]
            assert len(losses) == len(want), hub
            np.testing.assert_allclose(losses, want, rtol=1e-12, atol=0, err_msg=f"hub {hub}")
        assert bank_sha256(bank, tmp_path) == MERGED_BANK_SHA256

    def test_load_bank_round_trip_non_default_widths(self, trained_scenario, tmp_path):
        _sc, topo, emb = trained_scenario
        bank = PolicyBank(emb_dim=emb.shape[1])
        rng = np.random.default_rng(0)
        for hub in sorted({s for s, _t in topo.edges}):
            bank.policies[hub] = EdgePolicy(rng, emb.shape[1], enc_hidden=7, gru_hidden=5)
        save_bank(bank, tmp_path)
        back = load_bank(tmp_path)
        assert back.emb_dim == bank.emb_dim
        assert set(back.policies) == set(bank.policies)
        obs = np.random.default_rng(0).uniform(size=590)
        for hub, policy in bank.policies.items():
            loaded = back.policies[hub]
            assert (loaded.emb_dim, loaded.gru.input_size, loaded.gru_hidden) == (emb.shape[1], 7, 5)
            saved = policy.tensors()
            assert list(loaded.tensors()) == list(saved)
            for name, value in loaded.tensors().items():
                assert np.array_equal(value, saved[name]), name
            want = policy.act(obs, emb[0], policy.initial_memory())
            got = loaded.act(obs, emb[0], loaded.initial_memory())
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_swapped_policy_files_rejected(self, tmp_path):
        # two policy files traded places: index.json still matches the file
        # names, but each file stores the other hub's id
        rng = np.random.default_rng(0)
        bank = PolicyBank(emb_dim=4, policies={hub: EdgePolicy(rng, 4, enc_hidden=3, gru_hidden=2)
                                               for hub in (2, 5)})
        save_bank(bank, tmp_path)
        a, b = tmp_path / "policy_0002.bin", tmp_path / "policy_0005.bin"
        a_bytes = a.read_bytes()
        a.write_bytes(b.read_bytes())
        b.write_bytes(a_bytes)
        with pytest.raises(nn.ArtifactError, match=r"policy_0002\.bin: stores hub_id \[5\.0\]"):
            load_bank(tmp_path)

    @pytest.mark.parametrize("index", ['{"emb_dim": 4, "hubs": [2', '{"emb_dim": 4}'],
                             ids=["not JSON", "no hubs key"])
    def test_malformed_index_rejected_naming_train_policies(self, tmp_path, index):
        rng = np.random.default_rng(0)
        save_bank(PolicyBank(emb_dim=4, policies={2: EdgePolicy(rng, 4, enc_hidden=3,
                                                                gru_hidden=2)}), tmp_path)
        (tmp_path / "index.json").write_text(index)
        with pytest.raises(nn.ArtifactError, match=r"index\.json: .*run stage train-policies"):
            load_bank(tmp_path)

    def test_policy_per_out_degree_hub(self, trained_scenario, monkeypatch):
        sc, topo, emb = trained_scenario
        monkeypatch.setattr(edge_policies, "MAX_EPOCHS", 2)
        bank = train_policies(topo, sc.trajectories, emb, RunConfig())
        sources = {s for s, _t in topo.edges}
        assert set(bank.policies) == sources

    def test_single_segment_greedy_replay(self, trained_scenario):
        sc, topo, emb = trained_scenario
        # hub with one outgoing edge and a multi-step segment
        candidates = [s for s, t in topo.edges
                      if len(topo.out_neighbors(s)) == 1
                      and topo.segments[(s, t)][0].end - topo.segments[(s, t)][0].begin >= 4]
        hub = candidates[0]
        target = topo.out_neighbors(hub)[0]
        seg = topo.segments[(hub, target)][0]
        cfg = RunConfig(seed=3)
        policy, _losses = train_policy_for_hub(topo, sc.trajectories, hub, emb, cfg,
                                               np.random.default_rng(3))
        traj = sc.trajectories[seg.traj_id]
        memory = policy.initial_memory()
        for obs, action in zip(traj.observations[seg.begin:seg.end],
                               traj.actions[seg.begin:seg.end]):
            probs, memory = policy.act(obs, emb[target], memory)
            assert int(np.argmax(probs)) == action

    def test_conditioning_separates_targets(self, trained_scenario):
        sc, topo, emb = trained_scenario
        # first hub of the scenario diverges toward the key room or the shortcut
        hub = 0
        targets = topo.out_neighbors(hub)
        assert len(targets) >= 2
        cfg = RunConfig(seed=5)
        policy, _ = train_policy_for_hub(topo, sc.trajectories, hub, emb, cfg,
                                         np.random.default_rng(5))

        def first_step(seg):
            traj = sc.trajectories[seg.traj_id]
            return traj.observations[seg.begin], traj.actions[seg.begin]

        first_obs, first_action = first_step(topo.segments[(hub, targets[0])][0])
        argmaxes = set()
        for target in targets[:2]:
            seg = topo.segments[(hub, target)][0]
            probs, _m = policy.act(first_obs, emb[target], policy.initial_memory())
            if first_step(seg)[1] != first_action:
                argmaxes.add(int(np.argmax(probs)))
        # demonstrated first actions differ between the two targets here
        obs_a, action_a = first_step(topo.segments[(hub, targets[0])][0])
        obs_b, action_b = first_step(topo.segments[(hub, targets[1])][0])
        assert action_a != action_b
        pa, _ = policy.act(obs_a, emb[targets[0]], policy.initial_memory())
        pb, _ = policy.act(obs_b, emb[targets[1]], policy.initial_memory())
        assert int(np.argmax(pa)) == action_a
        assert int(np.argmax(pb)) == action_b
        assert int(np.argmax(pa)) != int(np.argmax(pb))

    def test_label_smoothing_floor(self):
        from hubplan import nn

        logits = nn.Tensor(np.array([[50.0, 0, 0, 0, 0, 0]]))
        loss = nn.softmax_cross_entropy(logits, np.array([0]), label_smoothing=0.05)
        assert float(loss.data) > 0.1  # confident-correct still pays the floor

    def test_non_finite_logits_name_the_hub(self, trained_scenario, monkeypatch):
        sc, topo, emb = trained_scenario
        emb = np.full_like(emb, np.nan)
        monkeypatch.setattr(edge_policies, "MAX_EPOCHS", 2)
        with pytest.raises(nn.NonFiniteError, match="hub 0: non-finite logits"):
            train_policy_for_hub(topo, sc.trajectories, 0, emb, RunConfig(),
                                 np.random.default_rng(0))

    def test_train_losses_decrease(self, trained_scenario, monkeypatch):
        sc, topo, emb = trained_scenario
        monkeypatch.setattr(edge_policies, "MAX_EPOCHS", 30)
        cfg = RunConfig(seed=9)
        policy, losses = train_policy_for_hub(topo, sc.trajectories, 0, emb, cfg,
                                              np.random.default_rng(9))
        assert losses[-1] < losses[0]
