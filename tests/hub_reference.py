"""Next-hub distribution from a whole hub history, kept as a test reference:
it re-runs the history from fresh memory on every call, where plan search's
`CachedDist` advances one cached prefix by one step.
"""

from __future__ import annotations

import numpy as np

from hubplan.hub_dynamics import HubDynamicsModel
from hubplan.topology import BehaviorTopology


def next_hub_dist(model: HubDynamicsModel, history, topology: BehaviorTopology) -> np.ndarray:
    """Masked next-hub distribution given the full hub history.

    Exactly zero on non-edges; all-zero when the last hub is a dead end.
    """
    if len(history) == 0:
        raise ValueError("history must be non-empty")
    hidden = model.initial_hidden()
    for hub in history:
        hidden = model.advance(hidden, hub)
    return model.dist_from_hidden(hidden, history[-1], topology)
