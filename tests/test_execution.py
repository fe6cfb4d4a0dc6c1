import numpy as np
import pytest

from hubplan.edge_policies import EdgePolicy, PolicyBank, PolicyTrainConfig, train_policies
from hubplan.execution import EDGE_BUDGET_FACTOR, MIN_EDGE_BUDGET, edge_budget, execute
from hubplan.hub_dynamics import HubDynamicsModel
from hubplan.planning import Plan
from hubplan.scenarios import build_scenario, scenario_topology


@pytest.fixture(scope="module")
def scenario_stack():
    sc = build_scenario()
    topo = scenario_topology(sc)
    model = HubDynamicsModel(np.random.default_rng(0), n_hubs=len(topo.hubs))
    bank = train_policies(topo, sc.trajectories, model.embeddings(),
                          PolicyTrainConfig(seed=0))
    return sc, topo, model.embeddings(), bank


def demo_plan(topo, seq_hubs):
    return Plan(history=list(seq_hubs), cost=0.0, transition_probs=[1.0] * (len(seq_hubs) - 1))


class TestEdgeBudget:
    def test_budget_rule(self, scenario_stack):
        sc, topo, _emb, _bank = scenario_stack
        for edge in topo.edges:
            longest = max(len(sc.trajectories[s.traj_id].actions[s.begin:s.end])
                          for s in topo.segments[edge])
            assert edge_budget(topo, edge) == max(MIN_EDGE_BUDGET, EDGE_BUDGET_FACTOR * longest)


class TestExecute:
    def test_demonstrated_route_replays_to_success(self, scenario_stack):
        sc, topo, emb, bank = scenario_stack
        plan = demo_plan(topo, topo.hub_sequences()[0])
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        result = execute(plan, sc.env, state, obs, bank, sc.encoder, emb, topo)
        assert result.success
        assert result.edges_crossed == len(plan.edges)
        assert result.failure_reason is None
        assert result.steps == len(sc.trajectories[0])

    def test_empty_plan_no_edges(self, scenario_stack):
        sc, topo, emb, bank = scenario_stack
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        result = execute(demo_plan(topo, [0]), sc.env, state, obs, bank, sc.encoder, emb, topo)
        assert result.edges_crossed == 0
        assert not result.success  # a fresh episode never starts satisfied

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

    def test_step_bound(self, scenario_stack):
        sc, topo, emb, bank = scenario_stack
        plan = demo_plan(topo, topo.hub_sequences()[0])
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        result = execute(plan, sc.env, state, obs, bank, sc.encoder, emb, topo)
        cap = sum(edge_budget(topo, e) for e in plan.edges)
        assert result.steps <= min(sc.env.horizon, cap)
