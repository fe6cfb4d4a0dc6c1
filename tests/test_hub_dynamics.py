import math

import numpy as np
import pytest

from hubplan.config import RunConfig
from hubplan.hub_dynamics import (
    CachedDist,
    HubDynamicsModel,
    pretrain_on_traversals,
    sample_traversals,
    train_on_sequences,
)
from hubplan.maze import Goal
from hubplan.topology import BehaviorTopology, Hub

from gradient_reference import finite_diff_check
from hub_reference import next_hub_dist


def toy_topology(n_hubs: int, edges: set, starts=(0,), terminals=()):
    """Each of `starts` is start config 0's hub, each of `terminals` ends a
    successful (0, 1) demonstration, and every other hub is a convergence hub."""
    hubs = []
    for i in range(n_hubs):
        hubs.append(Hub(i, (i * 10,), np.array([i * 0.01 + 0.0005]),
                        start_ids=frozenset({0} if i in starts else ()),
                        terminal_meta=frozenset({(Goal(0, 1), 1)} if i in terminals else ()),
                        convergence=i not in starts and i not in terminals))
    return BehaviorTopology(epsilon=1e-3, latent_dim=1, hubs=hubs,
                            segments={e: ["seg"] for e in edges})


class TestMasking:
    def test_non_edges_get_exact_zero(self):
        topo = toy_topology(4, {(0, 1), (0, 2), (1, 3)})
        model = HubDynamicsModel(np.random.default_rng(0), 4)
        dist = next_hub_dist(model, (0,), topo)
        assert dist[0] == 0.0 and dist[3] == 0.0
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_out_edge_probability_one(self):
        topo = toy_topology(3, {(0, 1), (1, 2)})
        model = HubDynamicsModel(np.random.default_rng(1), 3)
        dist = next_hub_dist(model, (0,), topo)
        assert dist[1] == pytest.approx(1.0, abs=1e-12)

    def test_equal_logits_split_evenly(self):
        topo = toy_topology(3, {(0, 1), (0, 2)})
        model = HubDynamicsModel(np.random.default_rng(2), 3)
        model.head_w.data[:] = 0.0
        model.head_b.data[:] = 0.0
        dist = next_hub_dist(model, (0,), topo)
        assert dist[1] == pytest.approx(0.5, abs=1e-12)
        assert dist[2] == pytest.approx(0.5, abs=1e-12)

    def test_dead_end_returns_all_zero(self):
        topo = toy_topology(2, {(0, 1)})
        model = HubDynamicsModel(np.random.default_rng(3), 2)
        dist = next_hub_dist(model, (0, 1), topo)
        np.testing.assert_array_equal(dist, np.zeros(2))

    def test_mask_soundness_over_random_histories(self):
        rng = np.random.default_rng(99)
        topo = toy_topology(8, {(a, b) for a in range(8) for b in range(8)
                                if a != b and rng.random() < 0.4})
        model = HubDynamicsModel(rng, 8)
        edges = topo.edges
        for _ in range(2000):
            length = int(rng.integers(1, 6))
            history = tuple(int(rng.integers(0, 8)) for _ in range(length))
            dist = next_hub_dist(model, history, topo)
            nbrs = topo.out_neighbors(history[-1])
            for h in range(8):
                if (history[-1], h) not in edges:
                    assert dist[h] == 0.0
            if nbrs:
                assert abs(dist.sum() - 1.0) <= 1e-9
            else:
                assert dist.sum() == 0.0


class TestTraversals:
    def test_walks_respect_edges(self):
        topo = toy_topology(5, {(0, 1), (1, 2), (2, 3), (1, 4)})
        walks = sample_traversals(topo, 50, 10, np.random.default_rng(0))
        for walk in walks:
            for a, b in zip(walk, walk[1:]):
                assert (a, b) in topo.edges

    def test_seeded_determinism(self):
        topo = toy_topology(5, {(0, 1), (1, 2), (2, 3), (1, 4)})

        def run():
            model = HubDynamicsModel(np.random.default_rng(7), 5)
            cfg = RunConfig(pretrain_traversals=30, pretrain_max_len=8, seed=5, lr_high=2e-4,
                            pretrain_epochs=2)
            pretrain_on_traversals(model, topo, cfg)
            return model.tensors()

        t1, t2 = run(), run()
        for k in t1:
            np.testing.assert_array_equal(t1[k], t2[k])

    def test_dead_start_skipped_with_warning(self):
        topo = toy_topology(3, {(1, 2)}, starts=(0, 1))
        with pytest.warns(UserWarning, match="skipped"):
            walks = sample_traversals(topo, 10, 5, np.random.default_rng(0))
        assert all(w[0] == 1 for w in walks)

    def test_chain_pretraining_dominates(self):
        topo = toy_topology(3, {(0, 1), (1, 2)})
        model = HubDynamicsModel(np.random.default_rng(11), 3)
        cfg = RunConfig(pretrain_traversals=100, pretrain_max_len=4, seed=3, lr_high=2e-4,
                        pretrain_epochs=3)
        pretrain_on_traversals(model, topo, cfg)
        assert next_hub_dist(model, (0,), topo)[1] > 0.9


class TestTraining:
    def test_loss_decreases(self):
        topo = toy_topology(4, {(0, 1), (0, 2), (1, 3), (2, 3)})
        model = HubDynamicsModel(np.random.default_rng(0), 4)
        losses = train_on_sequences(model, [[0, 1, 3], [0, 2, 3]], topo, lr=2e-4, epochs=40)
        assert losses[-1] < losses[0]

    def test_single_example_overfit(self):
        topo = toy_topology(3, {(0, 1), (0, 2)})
        model = HubDynamicsModel(np.random.default_rng(1), 3)
        losses = train_on_sequences(model, [[0, 1]], topo, lr=5e-3, epochs=400)
        assert losses[-1] < 1e-3

    def test_uniform_init_loss_is_log_k(self):
        topo = toy_topology(4, {(0, 1), (0, 2), (0, 3)})
        model = HubDynamicsModel(np.random.default_rng(2), 4)
        model.head_w.data[:] = 0.0
        model.head_b.data[:] = 0.0
        losses = train_on_sequences(model, [[0, 2]], topo, lr=1e-9, epochs=1)
        assert abs(losses[0] - math.log(3)) < 1e-10

    def test_path_dependence(self):
        # (A, E) continues to F in one demo; (B, E) continues to G in another
        a, b, e, f, g = 0, 1, 2, 3, 4
        topo = toy_topology(5, {(a, e), (b, e), (e, f), (e, g)}, starts=(a, b))
        model = HubDynamicsModel(np.random.default_rng(5), 5)
        train_on_sequences(model, [[a, e, f], [b, e, g]], topo, lr=2e-3, epochs=150)
        via_a = next_hub_dist(model, (a, e), topo)
        via_b = next_hub_dist(model, (b, e), topo)
        assert via_a[f] > via_a[g]
        assert via_b[g] > via_b[f]

    def test_gradient_check_on_sequence_loss(self):
        from hubplan import nn
        from hubplan.hub_dynamics import topology_mask_matrix

        topo = toy_topology(4, {(0, 1), (0, 2), (1, 3), (2, 3)})
        model = HubDynamicsModel(np.random.default_rng(3), 4, emb_dim=3, hidden=4)
        mask = topology_mask_matrix(topo, 4)
        ids = np.array([[0, 1, 3]])

        def f():
            h = nn.Tensor(np.zeros((1, 4)))
            loss = None
            for t in range(2):
                x = nn.gather_rows(model.emb, ids[:, t])
                h = nn.gru_step(model.gru, x, h)
                logits = nn.matmul(h, model.head_w) + model.head_b
                ce = nn.softmax_cross_entropy(logits, ids[:, t + 1],
                                              additive_mask=mask[ids[:, t]])
                loss = ce if loss is None else nn.tensor.add(loss, ce)
            return loss

        assert finite_diff_check(f, model.parameters(), h=1e-5) < 1e-4


class TestAdvance:
    def test_advance_equals_tape_gru_step(self):
        from hubplan import nn

        model = HubDynamicsModel(np.random.default_rng(2), 6)
        h = model.initial_hidden()
        for hub in (0, 3, 3, 5, 1):
            want = nn.gru_step(model.gru, model.emb.data[hub][None, :], h).data
            h = model.advance(h, hub)
            assert np.array_equal(h, want)


class TestCachedDist:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(13)
        topo = toy_topology(6, {(a, b) for a in range(6) for b in range(6)
                                if a != b and rng.random() < 0.5})
        model = HubDynamicsModel(rng, 6)
        cached = CachedDist(model, topo)
        for _ in range(50):
            history = tuple(int(rng.integers(0, 6)) for _ in range(int(rng.integers(1, 5))))
            np.testing.assert_allclose(cached(history), next_hub_dist(model, history, topo),
                                       atol=1e-12)
