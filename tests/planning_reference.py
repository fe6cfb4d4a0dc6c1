"""Best-first plan search, kept as the reference `hubplan.planning.search` is
compared against: it pops histories in order of (cost, length, hub ids)
with no estimate of the cost still to come, so it scores every history
cheaper than the plan. `planning.search` must return the same plan, bit for
bit, and raise the same errors.

`bfs_plan_reference` is the forward breadth-first search that
`hubplan.planning.bfs_plan`, which walks down the reverse search's hop
distances instead, must agree with in plan, cost and error text.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from hubplan.planning import NoPlanError, Plan, SearchConfig
from hubplan.topology import BehaviorTopology


def search_reference(topology: BehaviorTopology, next_dist, h_s: int, goal_set: set[int],
                     cfg: SearchConfig) -> Plan:
    """Best-first over hub histories under the bottleneck cost."""
    if not goal_set:
        raise NoPlanError("empty goal set")
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


def bfs_plan_reference(topology: BehaviorTopology, h_s: int, goal_set: set[int]) -> Plan:
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
