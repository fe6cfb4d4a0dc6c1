"""Execute a hub plan by chaining per-hub policies edge by edge.

For each planned edge the source hub's policy runs greedily, conditioned on
the target hub's embedding, with fresh edge-local memory; the agent advances
to the next edge as soon as the encoded latent matches the target hub. Every
edge gets a step budget derived from its longest demonstrated segment, so a
policy that never arrives times out instead of spinning forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .edge_policies import PolicyBank
from .maze.env import EnvState, MazeEnv
from .planning import Plan
from .topology import BehaviorTopology, matches_hub

MIN_EDGE_BUDGET = 20
EDGE_BUDGET_FACTOR = 3


@dataclass
class EdgeTrace:
    source: int
    target: int
    steps: int
    reached: bool


@dataclass
class ExecutionResult:
    success: bool
    steps: int
    edges_crossed: int
    planned_edges: int
    trace: list[EdgeTrace] = field(default_factory=list)
    # None on success; else dead-edge (no policy for an edge's source hub),
    # env-terminal (the episode ended without success), hub-timeout (an
    # edge's step budget ran out) or plan-end (every planned edge was
    # reached, or there was none, and the episode is still running)
    failure_reason: str | None = None

    def format(self) -> str:
        lines = [f"execution success={int(self.success)} steps={self.steps}"
                 f" edges={self.edges_crossed}/{self.planned_edges}"
                 f" failure={self.failure_reason or '-'}"]
        for tr in self.trace:
            lines.append(f"edge {tr.source}->{tr.target} steps={tr.steps} reached={int(tr.reached)}")
        return "\n".join(lines) + "\n"


def edge_budget(topology: BehaviorTopology, edge: tuple[int, int]) -> int:
    return max(MIN_EDGE_BUDGET, EDGE_BUDGET_FACTOR * topology.max_segment_len(edge))


def execute(plan: Plan, env: MazeEnv, state: EnvState, obs, bank: PolicyBank,
            encoder, embeddings: np.ndarray, topology: BehaviorTopology,
            match_tol: float | None = None) -> ExecutionResult:
    """Run a plan from a freshly reset environment state. An edge is reached
    when the encoded latent lies in the target hub's bucket or within the
    topology's `epsilon`, the bucket width its hubs were built with, of the
    hub's representative. (`match_tol` replaces that tolerance; no program
    path passes it, and it stays only because bench/workloads.py does.)"""
    tol = topology.epsilon if match_tol is None else match_tol
    total_steps = 0
    trace: list[EdgeTrace] = []
    dead_edge = False

    # the policies' gates saturate where exp overflows (`EdgePolicy.act`)
    with np.errstate(over="ignore"):
        for source, target in plan.edges:
            if source not in bank.policies:
                dead_edge = True
                break
            target_hub = topology.hubs[target]
            budget = edge_budget(topology, (source, target))
            memory = bank.policies[source].initial_memory()
            emb = embeddings[target]
            reached = False
            edge_steps = 0
            while not reached and not state.terminal and edge_steps < budget:
                probs, memory = bank.act(source, emb, obs, memory)
                state, obs = env.step(state, int(np.argmax(probs)))
                total_steps += 1
                edge_steps += 1
                reached = matches_hub(encoder.encode(obs, state), target_hub,
                                      topology.epsilon, tol)
            trace.append(EdgeTrace(source, target, edge_steps, reached))
            # an arrival can end the episode; at the goal hub it normally does
            if not reached or state.terminal:
                break

    if state.success:
        reason = None
    elif dead_edge:
        reason = "dead-edge"
    elif state.terminal:
        reason = "env-terminal"
    elif trace and not trace[-1].reached:
        reason = "hub-timeout"
    else:
        reason = "plan-end"
    return ExecutionResult(state.success, total_steps, sum(tr.reached for tr in trace),
                           len(plan.edges), trace, failure_reason=reason)
