"""Best-first plan search, kept as the reference `hubplan.planning.search` is
compared against: it pops histories in order of (cost, length, hub ids)
with no estimate of the cost still to come, so it scores every history
cheaper than the plan. `planning.search` must return the same plan, bit for
bit, and raise the same errors.
"""

from __future__ import annotations

import heapq

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
