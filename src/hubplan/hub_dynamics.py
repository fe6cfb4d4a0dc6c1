"""Hub-sequence dynamics: GRU over hub embeddings with a next-hub classifier.

The model predicts the next hub from the whole hub history, so two routes
meeting at the same hub can still disagree about what comes next. Logits of
transitions absent from the topology are masked to -inf before the softmax,
which makes their probability exactly zero and (because the mask is applied
during training too) spends no capacity on unreachable classes.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import nn
from .config import RunConfig
from .topology import BehaviorTopology

LR_HIGH = 2e-4          # training and traversal pretraining alike
HIGH_EPOCHS = 150
# traversal pretraining: random walks of at most PRETRAIN_MAX_LEN hubs
PRETRAIN_TRAVERSALS = 2000
PRETRAIN_MAX_LEN = 64
PRETRAIN_EPOCHS = 3


class HubDynamicsModel(nn.Model):
    def __init__(self, rng: np.random.Generator, n_hubs: int, emb_dim: int = 32, hidden: int = 64):
        bound = 1.0 / np.sqrt(emb_dim)
        # the embedding keeps its own draw, made first as its entry comes first
        super().__init__({
            "hub.emb": nn.parameter(rng.uniform(-bound, bound, size=(n_hubs, emb_dim)), "hub.emb"),
            **nn.init_params(rng, {**nn.gru_shapes("hub.gru", emb_dim, hidden),
                                   "hub.head_w": (hidden, n_hubs), "hub.head_b": (n_hubs,)}),
        })

    def _bind(self) -> None:
        p = self.params
        self.emb = p["hub.emb"]
        self.gru = nn.GruCellParams.of(p, "hub.gru")
        self.head_w, self.head_b = p["hub.head_w"], p["hub.head_b"]
        self.n_hubs, self.emb_dim = self.emb.data.shape
        self.hidden = self.gru.hidden_size

    def embeddings(self) -> np.ndarray:
        return self.emb.data

    # -- inference ----------------------------------------------------------

    def initial_hidden(self) -> np.ndarray:
        return np.zeros((1, self.hidden))

    def advance(self, hidden: np.ndarray, hub_id: int) -> np.ndarray:
        x = self.emb.data[hub_id][None, :]
        with np.errstate(over="ignore"):
            return nn.gru_cell(self.gru, nn.gru_input_proj(self.gru, x), hidden)[0]

    def dist_from_hidden(self, hidden: np.ndarray, last_hub: int,
                         topology: BehaviorTopology) -> np.ndarray:
        nbrs = topology.out_neighbors(last_hub)
        if not nbrs:
            return np.zeros(self.n_hubs)
        logits = hidden @ self.head_w.data + self.head_b.data
        mask = np.full((1, self.n_hubs), -np.inf)
        mask[0, nbrs] = 0.0
        return nn.softmax_np(logits, mask)[0]


class CachedDist:
    """next-dist adapter for plan search with an incremental hidden-state cache.

    Search queries histories parent-first, so each new history costs one
    recurrent step instead of re-running the whole prefix. `calls` counts
    the queries: one per history the search expands.
    """

    def __init__(self, model: HubDynamicsModel, topology: BehaviorTopology):
        self.model = model
        self.topology = topology
        self._hidden: dict[tuple[int, ...], np.ndarray] = {}
        self.calls = 0

    def hidden_for(self, history: tuple[int, ...]) -> np.ndarray:
        cached = self._hidden.get(history)
        if cached is not None:
            return cached
        if len(history) == 1:
            h = self.model.advance(self.model.initial_hidden(), history[0])
        else:
            h = self.model.advance(self.hidden_for(history[:-1]), history[-1])
        self._hidden[history] = h
        return h

    def __call__(self, history) -> np.ndarray:
        self.calls += 1
        history = tuple(history)
        return self.model.dist_from_hidden(self.hidden_for(history), history[-1], self.topology)


def topology_mask_matrix(topology: BehaviorTopology, n_hubs: int) -> np.ndarray:
    mask = np.full((n_hubs, n_hubs), -np.inf)
    for s, t in topology.edges:
        mask[s, t] = 0.0
    return mask


def sample_traversals(topology: BehaviorTopology, n: int, max_len: int,
                      rng: np.random.Generator) -> list[list[int]]:
    """Random walks along topology edges from start hubs (uniform choices)."""
    starts = [h.id for h in topology.start_hubs() if topology.out_neighbors(h.id)]
    skipped = [h.id for h in topology.start_hubs() if not topology.out_neighbors(h.id)]
    if skipped:
        warnings.warn(f"start hubs without out-edges skipped: {skipped}")
    if not starts:
        return []
    walks = []
    for _ in range(n):
        hub = int(starts[rng.integers(len(starts))])
        walk = [hub]
        while len(walk) < max_len:
            nbrs = topology.out_neighbors(walk[-1])
            if not nbrs:
                break
            walk.append(int(nbrs[rng.integers(len(nbrs))]))
        if len(walk) >= 2:
            walks.append(walk)
    return walks


def train_on_sequences(model: HubDynamicsModel, sequences: list[list[int]],
                       topology: BehaviorTopology, lr: float, epochs: int) -> list[float]:
    """Full-batch cross-entropy over every prefix of every sequence.

    One GRU pass per sequence scores all its prefixes at once; padded
    positions carry zero weight and a neutral mask. Each step's tape holds
    no array as wide as the hub count: the head and its masked loss are one
    `nn.linear_softmax_cross_entropy` node, which keeps only the loss
    gradient's few nonzero entries (at most the out-degree per row), and
    the `nn.gru_step` node keeps four (batch, hidden) arrays.
    """
    seqs = [s for s in sequences if len(s) >= 2]
    if not seqs:
        raise ValueError("no trainable sequences (all shorter than 2 hubs)")
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
                h = nn.gru_step(model.gru, x, h)
                w = valid[:, t + 1]   # padding is a suffix, so this row was valid at t
                amask = np.where(w[:, None] > 0, mask_matrix[ids[:, t]], 0.0)
                ce = nn.linear_softmax_cross_entropy(h, model.head_w, model.head_b,
                                                     ids[:, t + 1], additive_mask=amask,
                                                     sample_weight=w)
                term = nn.tensor.scale(ce, w.sum() / total_examples)
                loss = term if loss is None else nn.tensor.add(loss, term)
            if not np.isfinite(loss.data):
                raise nn.NonFiniteError("non-finite hub-dynamics loss")
            grads = nn.backprop(tape, loss)
        opt.step(grads)
        losses.append(float(loss.data))
    return losses


def pretrain_on_traversals(model: HubDynamicsModel, topology: BehaviorTopology,
                           cfg: RunConfig) -> list[float]:
    """`PRETRAIN_EPOCHS` epochs at `LR_HIGH` on `PRETRAIN_TRAVERSALS` random
    walks of at most `PRETRAIN_MAX_LEN` hubs, drawn from `cfg.seed`."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x7EA7]))
    walks = sample_traversals(topology, PRETRAIN_TRAVERSALS, PRETRAIN_MAX_LEN, rng)
    if not walks:
        return []
    return train_on_sequences(model, walks, topology, LR_HIGH, PRETRAIN_EPOCHS)


def train_high(model: HubDynamicsModel, sequences: list[list[int]],
               topology: BehaviorTopology) -> list[float]:
    """`HIGH_EPOCHS` epochs at `LR_HIGH`."""
    return train_on_sequences(model, sequences, topology, LR_HIGH, HIGH_EPOCHS)
