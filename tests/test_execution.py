import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hubplan.edge_policies import EdgePolicy, PolicyBank, _greedy_exact, train_policies
from hubplan.execution import (EDGE_BUDGET_FACTOR, MIN_EDGE_BUDGET, EdgeTrace, edge_budget,
                               execute)
from hubplan.hub_dynamics import HubDynamicsModel
from hubplan.maze.env import N_ACTIONS, PICKUP, MazeEnv
from hubplan.planning import Plan

from scenarios import VARIANT_MAP, build_scenario, scenario_topology


@pytest.fixture(scope="module")
def scenario_stack():
    sc = build_scenario()
    topo = scenario_topology(sc)
    model = HubDynamicsModel(np.random.default_rng(0), n_hubs=len(topo.hubs))
    bank = train_policies(topo, sc.trajectories, model.embeddings(), 0)
    return sc, topo, model.embeddings(), bank


def demo_plan(topo, seq_hubs):
    return Plan(history=list(seq_hubs), cost=0.0, transition_probs=[1.0] * (len(seq_hubs) - 1))


def demo_route(topo):
    """The success demo's route: its segments in order."""
    return sorted((seg for segs in topo.segments.values() for seg in segs if seg.traj_id == 0),
                  key=lambda seg: seg.begin)


class TestEdgeBudget:
    def test_budget_rule(self, scenario_stack):
        sc, topo, _emb, _bank = scenario_stack
        for edge in topo.edges:
            longest = max(len(sc.trajectories[s.traj_id].actions[s.begin:s.end])
                          for s in topo.segments[edge])
            assert edge_budget(topo, edge) == max(MIN_EDGE_BUDGET, EDGE_BUDGET_FACTOR * longest)


class TestExecute:
    def test_demonstrated_route_replays_to_success(self, scenario_stack):
        """Every edge of the demo's route is crossed; an edge takes its demo
        segment's steps where the source hub's policy replays that segment
        exactly (`_greedy_exact`), and may take other counts elsewhere."""
        sc, topo, emb, bank = scenario_stack
        route = demo_route(topo)
        plan = demo_plan(topo, topo.hub_sequences()[0])
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        result = execute(plan, sc.env, state, obs, bank, sc.encoder, emb, topo)
        assert result.success
        assert result.edges_crossed == len(plan.edges)
        assert result.failure_reason is None
        exact = [_greedy_exact(bank.policies[seg.source], [seg], emb, sc.trajectories)
                 for seg in route]
        assert [(t.source, t.target) for t in result.trace] == \
            [(seg.source, seg.target) for seg in route]
        assert sum(exact) > len(route) // 2
        assert [t.steps for t, ok in zip(result.trace, exact) if ok] == \
            [seg.end - seg.begin for seg, ok in zip(route, exact) if ok]

    def test_empty_plan_no_edges(self, scenario_stack):
        sc, topo, emb, bank = scenario_stack
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        result = execute(demo_plan(topo, [0]), sc.env, state, obs, bank, sc.encoder, emb, topo)
        assert result.edges_crossed == 0
        assert not result.success  # a fresh episode never starts satisfied
        assert result.failure_reason == "plan-end"

    def test_dead_edge_reported(self, scenario_stack):
        sc, topo, emb, _bank = scenario_stack
        empty_bank = PolicyBank(emb_dim=emb.shape[1])
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        result = execute(demo_plan(topo, [0, 1]), sc.env, state, obs, empty_bank,
                         sc.encoder, emb, topo)
        assert result.failure_reason == "dead-edge"
        assert not result.success

    def test_policy_that_never_arrives_times_out(self, scenario_stack):
        sc, topo, emb, _bank = scenario_stack
        # untrained policy spins without reaching the target hub
        bank = PolicyBank(emb_dim=emb.shape[1])
        bank.policies[0] = EdgePolicy(np.random.default_rng(9), emb.shape[1])
        plan = demo_plan(topo, [0, topo.out_neighbors(0)[0]])
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        result = execute(plan, sc.env, state, obs, bank, sc.encoder, emb, topo)
        assert result.failure_reason in ("hub-timeout", "env-terminal")
        assert not result.success
        if result.failure_reason == "hub-timeout":
            budget = edge_budget(topo, plan.edges[0])
            assert result.steps == budget

    def test_saturated_policy_steps_without_overflow_warning(self, scenario_stack):
        """`execute` enters the error state that `EdgePolicy.act` leaves to
        its caller: a policy whose gates saturate warns nowhere."""
        sc, topo, emb, _bank = scenario_stack
        policy = EdgePolicy(np.random.default_rng(9), emb.shape[1])
        policy.gru.b_update.data[:] = 1000.0
        policy.gru.b_reset.data[:] = -1000.0
        bank = PolicyBank(emb_dim=emb.shape[1], policies={0: policy})
        plan = demo_plan(topo, [0, topo.out_neighbors(0)[0]])
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = execute(plan, sc.env, state, obs, bank, sc.encoder, emb, topo)
        assert result.steps > 0

    def test_step_bound(self, scenario_stack):
        sc, topo, emb, bank = scenario_stack
        plan = demo_plan(topo, topo.hub_sequences()[0])
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        result = execute(plan, sc.env, state, obs, bank, sc.encoder, emb, topo)
        cap = sum(edge_budget(topo, e) for e in plan.edges)
        assert result.steps <= min(sc.env.horizon, cap)


class ReplayBank:
    """Stands in for a policy bank: a policy for each hub of `sources`, and
    every `act` call, whichever the hub, takes the next of `actions`."""

    def __init__(self, sources, actions):
        self.policies = {s: SimpleNamespace(initial_memory=lambda: None) for s in sources}
        self.actions = iter(actions)

    def act(self, source_hub, target_emb, obs_vec, memory):
        return np.eye(N_ACTIONS)[next(self.actions)], memory


class TestExecutionOutcomes:
    """The outcome of each way an episode ends, on the success demo's route:
    its segments in order, replayed action by action."""

    @staticmethod
    def outcome(sc, topo, case):
        actions = sc.trajectories[0].actions
        route = demo_route(topo)
        hubs = [route[0].source] + [seg.target for seg in route]
        lengths = [seg.end - seg.begin for seg in route]
        env, sources, n_hubs = sc.env, hubs, len(hubs)
        if case == "dead-edge":
            sources, n_hubs = hubs[:1], 3
            expected = (False, lengths[0], 1, "dead-edge",
                        [EdgeTrace(hubs[0], hubs[1], lengths[0], True)])
        elif case == "env-terminal":
            assert lengths[1] > 2
            env, n_hubs = MazeEnv(VARIANT_MAP, horizon=lengths[0] + 2), 3
            expected = (False, lengths[0] + 2, 1, "env-terminal",
                        [EdgeTrace(hubs[0], hubs[1], lengths[0], True),
                         EdgeTrace(hubs[1], hubs[2], 2, False)])
        elif case == "hub-timeout":
            # picking up in front of nothing leaves the start state as it is
            budget = edge_budget(topo, (hubs[0], hubs[1]))
            actions, n_hubs = [PICKUP] * budget, 2
            expected = (False, budget, 0, "hub-timeout",
                        [EdgeTrace(hubs[0], hubs[1], budget, False)])
        elif case == "plan-end":
            # the first hub is reached, the episode goes on, the plan is over
            n_hubs = 2
            expected = (False, lengths[0], 1, "plan-end",
                        [EdgeTrace(hubs[0], hubs[1], lengths[0], True)])
        elif case == "plan-end-no-edges":
            n_hubs = 1
            expected = (False, 0, 0, "plan-end", [])
        else:
            expected = (True, len(actions), len(route), None,
                        [EdgeTrace(seg.source, seg.target, n, True)
                         for seg, n in zip(route, lengths)])
        state, obs = env.reset(env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        result = execute(Plan(history=hubs[:n_hubs], cost=0.0), env, state, obs,
                         ReplayBank(sources, actions), sc.encoder,
                         np.zeros((len(topo.hubs), 1)), topo)
        got = (result.success, result.steps, result.edges_crossed, result.failure_reason,
               result.trace)
        return got, expected

    @pytest.mark.parametrize("case", ["dead-edge", "env-terminal", "hub-timeout", "plan-end",
                                      "plan-end-no-edges", "success"])
    def test_outcome(self, scenario_stack, case):
        sc, topo, _emb, _bank = scenario_stack
        got, expected = self.outcome(sc, topo, case)
        assert got == expected
