"""Plan search over hub histories with a bottleneck transition cost.

Extending history H with successor h' costs C(H') = max(C(H), -log P(h' | H))
+ eta. A route is only as good as its least likely transition; the hop
penalty eta favors shorter routes among equal bottlenecks. Successors
outside the topology are masked, successors below the probability floor are
pruned, and histories deeper than the hop limit are dropped. The plan is
the goal-reaching history that is least under (cost, length, lexicographic
hub ids).

The search is A* (Hart, Nilsson and Raphael 1968). One reverse breadth-first
search from the goal set gives d(h), the hops from hub h to the nearest goal
hub along topology edges. Any route onward from a history ending at h takes
at least d(h) more hops, and each hop adds at least eta to the cost, so the
queue is ordered by (bound, cost, length, history), where the bound is the
cost with eta added d(h) times, one addition per hop as the recurrence adds
it. Rounding is monotone, so the bound never exceeds the cost of any goal
history the entry leads to, and it equals the cost on a goal history. Hence
every prefix of the best goal history leaves the queue before any other goal
history can, and the first goal popped is the plan that best-first search by
(cost, length, history) returns, bit for bit, after scoring fewer histories.
A successor with no path to the goal set, or none within the hop limit, is
never queued.
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
    """Exact bucket match first, then the nearest representative within the
    topology's `epsilon`, the bucket width its hubs were built with. (`tol`
    replaces that tolerance; no program path passes it, and it stays only
    because bench/workloads.py does.)"""
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


def goal_distances(topology: BehaviorTopology, goal_set: set[int]) -> dict[int, int]:
    """Hops from each hub to the nearest hub of `goal_set` along topology
    edges; a hub with no path there has no entry."""
    preds: dict[int, list[int]] = {}
    for s, t in topology.edges:
        preds.setdefault(t, []).append(s)
    hops = dict.fromkeys(goal_set, 0)
    frontier = deque(goal_set)
    while frontier:
        hub = frontier.popleft()
        for prev in preds.get(hub, ()):
            if prev not in hops:
                hops[prev] = hops[hub] + 1
                frontier.append(prev)
    return hops


def _cost_bound(cost, hops: int, eta: float):
    """The least cost `hops` more steps can reach from `cost`: eta added once
    per hop, rounded as the cost recurrence rounds it."""
    for _ in range(hops):
        cost += eta
    return cost


def search(topology: BehaviorTopology, next_dist, h_s: int, goal_set: set[int],
           cfg: SearchConfig) -> Plan:
    """Algorithm: A* over hub histories under the bottleneck cost.

    `next_dist(history) -> probability vector over hubs` supplies masked
    transition probabilities (normally the hub dynamics model); it is called
    once for each history expanded. Ties break by (cost, history length,
    lexicographic hub ids), deterministically.
    """
    if not goal_set:
        raise NoPlanError("empty goal set")
    to_goal = goal_distances(topology, goal_set)
    # each history is pushed at most once, so entries never tie on
    # (bound, cost, length, history) and the probabilities are never compared
    heap = []
    hops = to_goal.get(h_s)
    if hops is not None and hops <= cfg.depth_limit:
        heap.append((_cost_bound(0.0, hops, cfg.eta), 0.0, 1, (h_s,), []))
    while heap:
        _bound, cost, length, history, probs = heapq.heappop(heap)
        last = history[-1]
        if last in goal_set:
            return Plan(history=list(history), cost=cost, transition_probs=probs)
        dist = next_dist(history)
        for nxt in topology.out_neighbors(last):
            hops = to_goal.get(nxt)
            # a successor takes `length` hops from h_s, and at least `hops` more
            if hops is None or length + hops > cfg.depth_limit:
                continue
            p = float(dist[nxt])
            if p < cfg.p_min or p <= 0.0:
                continue
            new_cost = max(cost, -np.log(p)) + cfg.eta
            heapq.heappush(heap, (_cost_bound(new_cost, hops, cfg.eta), new_cost, length + 1,
                                  history + (nxt,), probs + [p]))
    raise NoPlanError("search exhausted without reaching a goal hub")


def bfs_plan(topology: BehaviorTopology, h_s: int, goal_set: set[int]) -> Plan:
    """Shortest edge-path to any goal hub, ignoring transition probabilities:
    from each hub, the lowest-numbered successor one hop nearer the goal set."""
    if not goal_set:
        raise NoPlanError("empty goal set")
    to_goal = goal_distances(topology, goal_set)
    if h_s not in to_goal:
        raise NoPlanError("no edge path reaches a goal hub")
    history = [h_s]
    while hops := to_goal[history[-1]]:
        history.append(next(h for h in topology.out_neighbors(history[-1])
                            if to_goal.get(h) == hops - 1))
    return Plan(history=history, cost=0.0 if len(history) == 1 else float("nan"))


def format_plan(plan: Plan, topology: BehaviorTopology) -> str:
    lines = [f"plan hubs={len(plan.history)} cost={plan.cost!r}",
             "history " + ",".join(str(h) for h in plan.history)]
    for (a, b), p in zip(plan.edges, plan.transition_probs or [float("nan")] * len(plan.edges)):
        lines.append(f"transition {a}->{b} p={p!r}")
    return "\n".join(lines) + "\n"
