import math

import numpy as np
import pytest

from hubplan.maze import Goal
from hubplan.planning import (
    NoPlanError,
    SearchConfig,
    bfs_plan,
    goal_hub_set,
    match_start_hub,
    search,
)
from hubplan.topology import BehaviorTopology, Hub, bucket_of

EPS = 1e-3


def toy_topology(n_hubs, edges, terminals=()):
    """Hub 0 is start config 0's hub, each of `terminals` ends a successful
    (0, 1) demonstration, and every other hub is a convergence hub."""
    hubs = []
    for i in range(n_hubs):
        z = np.array([(10 * i + 0.5) * EPS])
        hubs.append(Hub(i, bucket_of(z, EPS), z,
                        start_ids=frozenset({0} if i == 0 else ()),
                        terminal_meta=frozenset({(Goal(0, 1), 1)} if i in terminals else ()),
                        convergence=i != 0 and i not in terminals))
    return BehaviorTopology(epsilon=EPS, latent_dim=1, hubs=hubs,
                            segments={e: ["seg"] for e in edges})


def table_dist(n_hubs, probs):
    """next-dist function from a fixed {last_hub: {succ: p}} table."""

    def dist(history):
        row = np.zeros(n_hubs)
        for succ, p in probs.get(history[-1], {}).items():
            row[succ] = p
        return row

    return dist


def pseudo_random_dist(topology, n_hubs, seed):
    """Deterministic history-dependent masked distribution; both the search
    and the enumeration oracle must query the identical function."""

    def dist(history):
        nbrs = topology.out_neighbors(history[-1])
        row = np.zeros(n_hubs)
        if not nbrs:
            return row
        mix = seed
        for h in history:
            mix = (mix * 1000003 + h + 1) % (2 ** 31 - 1)
        rng = np.random.default_rng(mix)
        weights = rng.uniform(0.05, 1.0, size=len(nbrs))
        weights /= weights.sum()
        row[nbrs] = weights
        return row

    return dist


def enumerate_best(topology, dist, start, goal_set, cfg):
    """Exhaustive enumeration of goal-reaching histories within the depth
    limit under the bottleneck recurrence; independent of the search code."""
    best = None

    def visit(history, cost):
        nonlocal best
        if history[-1] in goal_set:
            key = (cost, len(history), history)
            if best is None or key < best:
                best = key
            return  # search stops expanding at goal pops; so does the oracle
        if len(history) - 1 >= cfg.depth_limit:
            return
        row = dist(history)
        for nxt in topology.out_neighbors(history[-1]):
            p = float(row[nxt])
            if p < cfg.p_min or p <= 0.0:
                continue
            visit(history + (nxt,), max(cost, -math.log(p)) + cfg.eta)

    visit((start,), 0.0)
    return best


class TestCostRecurrence:
    def test_half_probability_extension(self):
        topo = toy_topology(2, {(0, 1)}, terminals=(1,))
        dist = table_dist(2, {0: {1: 0.5}})
        plan = search(topo, dist, 0, {1}, SearchConfig(eta=0.01))
        assert plan.cost == pytest.approx(math.log(2) + 0.01, abs=1e-12)

    def test_chain_of_certain_transitions_costs_hops_only(self):
        topo = toy_topology(3, {(0, 1), (1, 2)}, terminals=(2,))
        dist = table_dist(3, {0: {1: 1.0}, 1: {2: 1.0}})
        plan = search(topo, dist, 0, {2}, SearchConfig(eta=0.01))
        assert plan.history == [0, 1, 2]
        assert plan.cost == pytest.approx(0.02, abs=1e-12)

    def test_longer_route_with_better_bottleneck_wins(self):
        # direct hop has probability 0.1; the two-hop route never drops
        # below 0.9, so its bottleneck is far smaller
        topo = toy_topology(4, {(0, 3), (0, 1), (1, 2), (2, 3)}, terminals=(3,))
        dist = table_dist(4, {0: {3: 0.1, 1: 0.9}, 1: {2: 0.95}, 2: {3: 0.9}})
        plan = search(topo, dist, 0, {3}, SearchConfig(eta=0.01))
        assert plan.history == [0, 1, 2, 3]

    def test_eta_breaks_ties_toward_shorter(self):
        topo = toy_topology(4, {(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)}, terminals=(3,))
        dist = table_dist(4, {0: {1: 0.5, 2: 0.5, 3: 0.5}, 1: {3: 0.5}, 2: {3: 0.5}})
        plan = search(topo, dist, 0, {3}, SearchConfig(eta=0.01))
        assert plan.history == [0, 3]

    def test_p_min_prunes(self):
        topo = toy_topology(3, {(0, 1), (1, 2)}, terminals=(2,))
        dist = table_dist(3, {0: {1: 1e-4}, 1: {2: 1.0}})
        with pytest.raises(NoPlanError):
            search(topo, dist, 0, {2}, SearchConfig(p_min=1e-3))

    def test_depth_limit_prunes(self):
        topo = toy_topology(4, {(0, 1), (1, 2), (2, 3)}, terminals=(3,))
        dist = table_dist(4, {0: {1: 1.0}, 1: {2: 1.0}, 2: {3: 1.0}})
        with pytest.raises(NoPlanError):
            search(topo, dist, 0, {3}, SearchConfig(depth_limit=2))
        plan = search(topo, dist, 0, {3}, SearchConfig(depth_limit=3))
        assert plan.history == [0, 1, 2, 3]

    def test_start_in_goal_set_gives_empty_plan(self):
        topo = toy_topology(2, {(0, 1)}, terminals=(0,))
        plan = search(topo, table_dist(2, {}), 0, {0}, SearchConfig())
        assert plan.history == [0]
        assert plan.cost == 0.0
        assert plan.edges == []


class TestSearchMatchesEnumeration:
    def test_random_topologies(self):
        cfg = SearchConfig(p_min=1e-3, eta=0.01, depth_limit=4)
        for seed in range(120):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 9))
            edges = {(a, b) for a in range(n) for b in range(n)
                     if a != b and rng.random() < 0.35}
            goal_set = {int(g) for g in rng.choice(n, size=max(1, n // 3), replace=False)}
            topo = toy_topology(n, edges, terminals=tuple(goal_set))
            dist = pseudo_random_dist(topo, n, seed)
            want = enumerate_best(topo, dist, 0, goal_set, cfg)
            try:
                plan = search(topo, dist, 0, goal_set, cfg)
                got = (plan.cost, len(plan.history), tuple(plan.history))
            except NoPlanError:
                got = None
            assert got == want, f"seed {seed}"

    def test_mask_safety_property(self):
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(3, 8))
            edges = {(a, b) for a in range(n) for b in range(n)
                     if a != b and rng.random() < 0.4}
            goal_set = {n - 1}
            topo = toy_topology(n, edges, terminals=(n - 1,))
            dist = pseudo_random_dist(topo, n, seed)
            cfg = SearchConfig(p_min=0.05, depth_limit=5)
            try:
                plan = search(topo, dist, 0, goal_set, cfg)
            except NoPlanError:
                continue
            for (a, b), p in zip(plan.edges, plan.transition_probs):
                assert (a, b) in topo.edges
                assert p >= cfg.p_min


class TestBfsPlan:
    def test_shortest_hop_path(self):
        topo = toy_topology(5, {(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)}, terminals=(4,))
        plan = bfs_plan(topo, 0, {4})
        assert len(plan.history) == 3

    def test_bfs_never_longer_than_search(self):
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            n = int(rng.integers(3, 8))
            edges = {(a, b) for a in range(n) for b in range(n)
                     if a != b and rng.random() < 0.4}
            topo = toy_topology(n, edges, terminals=(n - 1,))
            dist = pseudo_random_dist(topo, n, seed)
            try:
                hist_plan = search(topo, dist, 0, {n - 1}, SearchConfig(p_min=0.0, depth_limit=6))
            except NoPlanError:
                continue
            bfs = bfs_plan(topo, 0, {n - 1})
            assert len(bfs.history) <= len(hist_plan.history)

    def test_unreachable(self):
        topo = toy_topology(3, {(1, 2)}, terminals=(2,))
        with pytest.raises(NoPlanError):
            bfs_plan(topo, 0, {2})


class TestMatching:
    def test_exact_and_tolerant_match(self):
        topo = toy_topology(3, {(0, 1), (1, 2)}, terminals=(2,))
        z = topo.hubs[1].representative
        assert match_start_hub(z, topo) == 1
        assert match_start_hub(z + EPS / 10, topo) == 1

    def test_far_latent_rejected(self):
        topo = toy_topology(3, {(0, 1)}, terminals=(2,))
        z = np.array([(10 * 7 + 0.5) * EPS])
        with pytest.raises(NoPlanError):
            match_start_hub(z, topo)

    def test_goal_set_excludes_failures(self):
        hubs = [
            Hub(0, (0,), np.array([0.0005]), start_ids=frozenset({0})),
            Hub(1, (10,), np.array([0.0105]), terminal_meta=frozenset({(Goal(0, 1), 1)})),
            Hub(2, (20,), np.array([0.0205]), terminal_meta=frozenset({(Goal(0, 1), 0)})),
        ]
        topo = BehaviorTopology(EPS, 1, hubs, {(0, 1): ["s"], (0, 2): ["s"]})
        assert goal_hub_set(Goal(0, 1), topo) == {1}
        with pytest.raises(NoPlanError):
            goal_hub_set(Goal(2, 3), topo)
