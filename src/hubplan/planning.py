"""Plan search over hub histories with a bottleneck transition cost.

Best-first over complete histories: extending history H with successor h'
costs C(H') = max(C(H), -log P(h' | H)) + eta. A route is only as good as
its least likely transition; the hop penalty eta favors shorter routes among
equal bottlenecks. Successors outside the topology are masked, successors
below the probability floor are pruned, and histories deeper than the hop
limit are dropped. The first goal-reaching history removed from the queue
is optimal under (cost, length, lexicographic hub ids).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .topology import BehaviorTopology, bucket_of


class NoPlanError(RuntimeError):
    """Start matching, goal lookup, or search failed to produce a plan."""


@dataclass
class SearchConfig:
    p_min: float = 1e-3
    eta: float = 0.01
    depth_limit: int = 64
    match_tol: float | None = None  # unread; kept because bench/workloads.py passes it

    def __post_init__(self):
        if not 0.0 <= self.p_min < 1.0:
            raise ValueError("probability floor must be in [0, 1)")
        if self.eta < 0.0 or self.depth_limit < 1:
            raise ValueError("bad search configuration")


@dataclass
class Plan:
    history: list[int]
    cost: float
    transition_probs: list[float] = field(default_factory=list)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.history, self.history[1:]))


def match_start_hub(z0: np.ndarray, topology: BehaviorTopology,
                    tol: float | None = None) -> int:
    """Exact bucket match first, then nearest representative within tolerance."""
    if not topology.hubs:
        raise NoPlanError("topology has no hubs")
    tol = topology.epsilon if tol is None else tol
    hub_id = topology.hub_of_cluster(bucket_of(z0, topology.epsilon))
    if hub_id is not None:
        return hub_id
    best, best_dist = None, np.inf
    for hub in topology.hubs:
        dist = float(np.max(np.abs(z0 - hub.representative)))
        if dist < best_dist:
            best, best_dist = hub.id, dist
    if best_dist <= tol:
        return best
    raise NoPlanError(f"no hub within tolerance {tol} of the start latent")


def goal_hub_set(goal, topology: BehaviorTopology) -> set[int]:
    """Terminal-success hubs labeled with this goal; failures never qualify."""
    hubs = set(topology.goal_hubs(goal))
    if not hubs:
        raise NoPlanError(f"goal {goal} was never demonstrated successfully")
    return hubs


def search(topology: BehaviorTopology, next_dist, h_s: int, goal_set: set[int],
           cfg: SearchConfig) -> Plan:
    """Algorithm: best-first over hub histories under the bottleneck cost.

    `next_dist(history) -> probability vector over hubs` supplies masked
    transition probabilities (normally the hub dynamics model). Ties break
    by (cost, history length, lexicographic hub ids), deterministically.
    """
    if not goal_set:
        raise NoPlanError("empty goal set")
    # each history is pushed at most once, so entries never tie on
    # (cost, length, history) and the probabilities are never compared
    heap = [(0.0, 1, (h_s,), [])]
    while heap:
        cost, length, history, probs = heapq.heappop(heap)
        last = history[-1]
        if last in goal_set:
            return Plan(history=list(history), cost=cost, transition_probs=probs)
        if length - 1 >= cfg.depth_limit:
            continue
        dist = next_dist(history)
        for nxt in topology.out_neighbors(last):
            p = float(dist[nxt])
            if p < cfg.p_min or p <= 0.0:
                continue
            new_cost = max(cost, -np.log(p)) + cfg.eta
            heapq.heappush(heap, (new_cost, length + 1, history + (nxt,), probs + [p]))
    raise NoPlanError("search exhausted without reaching a goal hub")


def bfs_plan(topology: BehaviorTopology, h_s: int, goal_set: set[int]) -> Plan:
    """Shortest edge-path to any goal hub, ignoring transition probabilities."""
    if not goal_set:
        raise NoPlanError("empty goal set")
    if h_s in goal_set:
        return Plan(history=[h_s], cost=0.0)
    parent = {h_s: None}
    frontier = deque([h_s])
    while frontier:
        hub = frontier.popleft()
        for nxt in topology.out_neighbors(hub):
            if nxt in parent:
                continue
            parent[nxt] = hub
            if nxt in goal_set:
                path = [nxt]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return Plan(history=path[::-1], cost=float("nan"))
            frontier.append(nxt)
    raise NoPlanError("no edge path reaches a goal hub")


def format_plan(plan: Plan, topology: BehaviorTopology) -> str:
    lines = [f"plan hubs={len(plan.history)} cost={plan.cost!r}",
             "history " + ",".join(str(h) for h in plan.history)]
    for (a, b), p in zip(plan.edges, plan.transition_probs or [float("nan")] * len(plan.edges)):
        lines.append(f"transition {a}->{b} p={p!r}")
    return "\n".join(lines) + "\n"
