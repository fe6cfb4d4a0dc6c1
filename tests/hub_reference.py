"""Hub-model references kept for tests.

`next_hub_dist` re-runs a whole hub history from fresh memory on every
call, where plan search's `CachedDist` advances one cached prefix by one
step. `train_on_sequences_reference` is the trainer as it was before the
head and its loss became one node: an `nn.linear` node that keeps the
logits, an `nn.softmax_cross_entropy` node that keeps the dense loss
gradient, and a recurrent step that keeps the whole `GruCache`.
"""

from __future__ import annotations

import numpy as np

from hubplan import nn
from hubplan.hub_dynamics import HubDynamicsModel, topology_mask_matrix
from hubplan.nn.tensor import _accum, _node
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


def gru_step_full_cache(params: nn.GruCellParams, x_t: nn.Tensor, h_prev: nn.Tensor) -> nn.Tensor:
    """`nn.gru_step` for 2-d tensors, as a node that keeps all six
    `GruCache` arrays."""
    weights = tuple(params.tensors().values())
    with np.errstate(over="ignore"):
        data, cache = nn.gru_cell(params, nn.gru_input_proj(params, x_t.data), h_prev.data)

    def backward(g):
        da, dh = nn.gru_cell_backward(params, cache, g, h_prev.requires_grad)
        for w, d in zip(weights, nn.gru_param_grads(x_t.data, cache.h, cache.rh, da)):
            if w.requires_grad:
                _accum(w, d)
        if x_t.requires_grad:
            for d in nn.gru_input_grads(params, da):
                _accum(x_t, d)
        for d in dh:
            _accum(h_prev, d)

    return _node(data, (x_t, h_prev, *weights), backward)


def train_on_sequences_reference(model: HubDynamicsModel, sequences, topology: BehaviorTopology,
                                 lr: float, epochs: int) -> list[float]:
    """`hub_dynamics.train_on_sequences` composed from the unfused nodes."""
    seqs = [s for s in sequences if len(s) >= 2]
    n = len(seqs)
    t_max = max(len(s) for s in seqs)
    ids = np.zeros((n, t_max), dtype=np.intp)
    valid = np.zeros((n, t_max))
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
        valid[i, :len(s)] = 1.0
    mask_matrix = topology_mask_matrix(topology, model.n_hubs)
    total_examples = sum(len(s) - 1 for s in seqs)
    opt = nn.Adam(model.parameters(), lr=lr)

    losses = []
    for _epoch in range(epochs):
        with nn.Tape() as tape:
            h = nn.Tensor(np.zeros((n, model.hidden)))
            loss = None
            for t in range(t_max - 1):
                x = nn.gather_rows(model.emb, ids[:, t])
                h = gru_step_full_cache(model.gru, x, h)
                w = valid[:, t + 1]
                logits = nn.linear(h, model.head_w, model.head_b)
                amask = np.where(w[:, None] > 0, mask_matrix[ids[:, t]], 0.0)
                ce = nn.softmax_cross_entropy(logits, ids[:, t + 1], additive_mask=amask,
                                              sample_weight=w)
                term = nn.tensor.scale(ce, w.sum() / total_examples)
                loss = term if loss is None else nn.tensor.add(loss, term)
            grads = nn.backprop(tape, loss)
        opt.step(grads)
        losses.append(float(loss.data))
    return losses
