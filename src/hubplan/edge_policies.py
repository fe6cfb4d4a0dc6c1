"""Per-source-hub behavior-cloning policies over topology edges.

Each hub with outgoing edges gets one recurrent policy conditioned on the
target hub's embedding; all of that hub's outgoing segments are its training
data, read through each segment's step span from its trajectory. Segment
starts are stochastically perturbed during training (canonical / truncated /
preroll), observations get small additive noise on the raster channels, and
action labels are smoothed. The strengths of that recipe are module
constants (`P_TRUNCATED`, `P_PREROLL`, `MAX_PERTURBATION`, `OBS_NOISE`,
`LABEL_SMOOTHING`), as are the early-stopping rule's (`MIN_EPOCHS` to
`PLATEAU_REL`) and the epoch cap `MAX_EPOCHS`.

Training backpropagates through time by hand. Only the two recurrences,
the GRU memory update forward and the memory-gradient chain backward, run
as Python step loops. Every other op runs once on a (T, batch, width)
stack, which numpy computes as one GEMM or reduction per time slice, each
bit-identical to the 2-d op of that step, and each bias and head gradient
sums its per-step gradients in reverse time order, as a tape does. So the
loss and every gradient but seven are bit-identical to recording the same
steps op by op on a tape. The seven weight gradients, of the encoder and of
the GRU's input and recurrent matrices, are each one GEMM over all T * batch
rows: the tape's products summed in another order, so the last bits differ.
The numpy facts this rests on held for 1 to 16 rows and 1 to 40 steps under
numpy 2.4 with OpenBLAS 0.3.31; `tests/test_nn_core.py::TestStackedNumpyFacts`
rechecks them at the trainer's shapes, and the tape comparison and the
pinned scenario-bank hashes in `tests/test_edge_policies.py` check the whole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from . import nn
from .config import RunConfig
from .maze.env import N_ACTIONS
from .maze.raster import OBS_SIZE, VIEW_SIZE
from .maze.trajectory import Trajectory
from .topology import BehaviorTopology, Segment

MODEL_KIND = "policy"
# the behaviour-cloning recipe: segment boundary perturbation (`perturb_segment`),
# raster observation noise (`_fill_batch`) and action label smoothing
P_TRUNCATED = 0.1
P_PREROLL = 0.1
MAX_PERTURBATION = 3
OBS_NOISE = 0.01
LABEL_SMOOTHING = 0.05
# early stopping: from MIN_EPOCHS on, every CHECK_EVERY epochs stop once greedy
# replay of every segment is exact, or once the loss has not improved by a
# relative PLATEAU_REL for PLATEAU_PATIENCE epochs; at most MAX_EPOCHS in all
MIN_EPOCHS = 10
MAX_EPOCHS = 200
CHECK_EVERY = 5
PLATEAU_PATIENCE = 40
PLATEAU_REL = 1e-4


def perturb_segment(segment: Segment, rng: np.random.Generator) -> int:
    """First step of a boundary-perturbed draw of an edge segment; every draw
    ends at `segment.end`. Truncated with probability `P_TRUNCATED` (the
    first step is later than `segment.begin`), prerolled with `P_PREROLL`
    (earlier), and canonical otherwise (`segment.begin`).

    Truncation drops up to `MAX_PERTURBATION` leading steps but never
    empties the segment; preroll prepends true predecessor steps from the
    origin trajectory and falls back to canonical at the trajectory start.
    """
    if segment.end - segment.begin < 1:
        raise ValueError("segment must contain at least one action")
    r = rng.random()
    if r < 1 - P_TRUNCATED - P_PREROLL:
        return segment.begin
    if r < 1 - P_PREROLL:
        room = segment.end - segment.begin - 1
        if room >= 1:
            return segment.begin + min(int(rng.integers(1, MAX_PERTURBATION + 1)), room)
    elif segment.begin >= 1:
        return segment.begin - min(int(rng.integers(1, MAX_PERTURBATION + 1)), segment.begin)
    return segment.begin


class EdgePolicy:
    """Encoder -> GRU -> action head, conditioned on a target embedding.

    Training and inference run in plain numpy: `act` is one step and
    `sequence_loss_and_grads` backpropagates through a whole batch by hand.
    """

    def __init__(self, rng: np.random.Generator, emb_dim: int,
                 enc_hidden: int = 128, gru_hidden: int = 64):
        self.emb_dim = emb_dim
        self.gru_hidden = gru_hidden
        in_dim = OBS_SIZE + emb_dim
        self.enc_w = nn.init_weight(rng, in_dim, enc_hidden, "pol.enc_w")
        self.enc_b = nn.init_bias(enc_hidden, "pol.enc_b")
        self.gru = nn.GruCellParams.create(rng, enc_hidden, gru_hidden, "pol.gru")
        self.head_w = nn.init_weight(rng, gru_hidden, N_ACTIONS, "pol.head_w")
        self.head_b = nn.init_bias(N_ACTIONS, "pol.head_b")

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "EdgePolicy":
        """Policy whose parameters are the given arrays (not copies), with no
        random initialisation; the embedding, encoder and recurrent widths
        come from their shapes."""
        policy = cls.__new__(cls)
        for attr in ("enc_w", "enc_b", "head_w", "head_b"):
            setattr(policy, attr, nn.parameter(tensors[f"pol.{attr}"], f"pol.{attr}"))
        policy.gru = nn.GruCellParams.from_tensors(tensors, "pol.gru")
        policy.emb_dim = policy.enc_w.data.shape[0] - OBS_SIZE
        policy.gru_hidden = policy.gru.hidden_size
        return policy

    def parameters(self) -> list[nn.Tensor]:
        return [self.enc_w, self.enc_b, *self.gru.tensors().values(), self.head_w, self.head_b]

    def tensors(self) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self.parameters()}

    def encode(self, x: np.ndarray) -> np.ndarray:
        """ReLU encoder of (batch, OBS_SIZE + emb_dim) inputs or a stack of them."""
        return np.maximum(x @ self.enc_w.data + self.enc_b.data, 0.0)

    def head(self, h: np.ndarray) -> np.ndarray:
        """Action logits of (batch, gru_hidden) memory or a stack of it."""
        return h @ self.head_w.data + self.head_b.data

    def initial_memory(self) -> np.ndarray:
        return np.zeros((1, self.gru_hidden))

    def act(self, obs_vec: np.ndarray, target_emb: np.ndarray, memory: np.ndarray):
        """Action distribution for one observation; returns (probs, new memory).

        The observation and the target embedding are written into one
        (1, OBS_SIZE + emb_dim) input row rather than concatenated.
        """
        x = np.empty((1, OBS_SIZE + self.emb_dim))
        x[0, :OBS_SIZE] = obs_vec
        x[0, OBS_SIZE:] = target_emb
        with np.errstate(over="ignore"):
            h, _cache = nn.gru_cell(self.gru, nn.gru_input_proj(self.gru, self.encode(x)), memory)
        return nn.softmax_np(self.head(h))[0], h


def _reverse_time_sum(per_step: np.ndarray) -> np.ndarray:
    """Sum of a (T, ...) stack from its last step to its first, as a left
    fold: the order in which the tape accumulates a parameter's gradient."""
    return np.add.reduce(per_step[::-1], axis=0)


def sequence_loss_and_grads(policy: EdgePolicy, xs: np.ndarray, acts: np.ndarray,
                            mask: np.ndarray, label_smoothing: float = 0.0):
    """Loss of a padded batch of sequences and its gradients, by backpropagation
    through time.

    `xs` is (n, T, OBS_SIZE + emb_dim), `acts` and `mask` are (n, T); `mask`
    is 1 on real steps, and the batch ends before its first step with no
    real row. Each step's weighted-mean cross-entropy counts with its share
    of the real steps. Returns (loss, {parameter: gradient}). The loss and
    every gradient but seven are bit-identical to recording the same steps
    op by op on a tape; the weight gradients of `enc_w` and the GRU's `w_*`
    and `u_*` are each one GEMM over all T * n rows, not the tape's per-step
    sum, so they round differently.
    """
    total = mask.sum()
    step_w = np.ascontiguousarray(mask.T)
    real = step_w.sum(axis=1)
    empty = np.flatnonzero(real == 0)
    steps = int(empty[0]) if empty.size else xs.shape[1]
    if steps == 0:
        raise ValueError("batch has no real step: its mask is zero at the first step")

    x = xs[:, :steps].swapaxes(0, 1)                       # (T, n, in) view
    enc = policy.encode(x)
    hs, caches = nn.gru_unroll(policy.gru, enc, np.zeros((xs.shape[0], policy.gru_hidden)))
    ce, dce = nn.softmax_cross_entropy_np(policy.head(hs[1:]), acts[:, :steps].T,
                                          sample_weight=step_w[:steps],
                                          label_smoothing=label_smoothing)
    share = real[:steps] / total
    loss = np.add.accumulate(ce * share)[-1]                # running sum over steps
    dlogits = dce * share[:, None, None]

    # the memory-gradient chain: the next step's contributions to dh come
    # first, the head's last
    dh_head = dlogits @ policy.head_w.data.T
    da = tuple(np.empty(hs[1:].shape) for _ in range(3))
    dh_next: list[np.ndarray] = []
    for t in reversed(range(steps)):
        dh = reduce(np.add, [*dh_next, dh_head[t]])
        da_t, dh_next = nn.gru_cell_backward(policy.gru, caches[t], dh, need_h=t > 0)
        for stack, d in zip(da, da_t):
            stack[t] = d

    def rows(stack):                                    # (T, n, width) -> (T * n, width)
        return stack.reshape(-1, stack.shape[-1])

    rh = np.stack([cache.rh for cache in caches])
    merged = nn.gru_param_grads(rows(enc), rows(hs[:-1]), rows(rh), map(rows, da))
    grads = dict(zip(policy.gru.tensors().values(), merged))
    for bias, d in zip((policy.gru.b_update, policy.gru.b_reset, policy.gru.b_cand), da):
        grads[bias] = _reverse_time_sum(d.sum(axis=1))
    grads[policy.head_b] = _reverse_time_sum(dlogits.sum(axis=1))
    grads[policy.head_w] = _reverse_time_sum(hs[1:].swapaxes(1, 2) @ dlogits)
    dpre = reduce(np.add, nn.gru_input_grads(policy.gru, da)) * (enc > 0.0)
    grads[policy.enc_b] = _reverse_time_sum(dpre.sum(axis=1))
    grads[policy.enc_w] = rows(x).T @ rows(dpre)
    return float(loss), grads


@dataclass
class PolicyBank:
    emb_dim: int
    policies: dict = field(default_factory=dict)          # hub id -> EdgePolicy
    train_losses: dict = field(default_factory=dict)      # hub id -> per-epoch losses

    def act(self, source_hub: int, target_emb: np.ndarray, obs_vec: np.ndarray,
            memory: np.ndarray):
        return self.policies[source_hub].act(obs_vec, target_emb, memory)


def _segments_for_hub(topology: BehaviorTopology, hub_id: int, cap: int) -> list[Segment]:
    segs = []
    for target in topology.out_neighbors(hub_id):
        segs.extend(topology.segments[(hub_id, target)][:cap])
    return segs


def _greedy_exact(policy: EdgePolicy, segs: list[Segment], embeddings: np.ndarray,
                  trajectories: list[Trajectory]) -> bool:
    """Whether the argmax action of a step-by-step replay (`policy.act` from
    fresh memory) reproduces every segment; each segment runs as one
    (steps, 1, width) stack, bit-identical to those one-row steps."""
    in_dim = OBS_SIZE + embeddings.shape[1]
    for seg in segs:
        x = np.empty((seg.end - seg.begin, 1, in_dim))
        trajectories[seg.traj_id].decode_rows(seg.begin, seg.end, x[:, 0, :OBS_SIZE])
        x[:, 0, OBS_SIZE:] = embeddings[seg.target]
        hs, _caches = nn.gru_unroll(policy.gru, policy.encode(x), policy.initial_memory())
        greedy = nn.softmax_np(policy.head(hs[1:])).argmax(axis=-1)[:, 0]
        if not np.array_equal(greedy, trajectories[seg.traj_id].actions[seg.begin:seg.end]):
            return False
    return True


def _fill_batch(segs: list[Segment], begins: list[int], trajectories: list[Trajectory],
                embeddings: np.ndarray, rng: np.random.Generator):
    """One epoch's zero-padded batch of draws: (xs, acts, mask), row i running
    from `begins[i]` to the end of `segs[i]`.

    Each draw's observation rows are decoded from its trajectory's uint8
    codes straight into the batch, then get their noise, drawn as standard
    normals into one scratch block and scaled in place, which is bitwise
    `rng.normal(0.0, OBS_NOISE)` from the same stream."""
    n = len(segs)
    t_max = max(s.end - begin for s, begin in zip(segs, begins))
    xs = np.zeros((n, t_max, OBS_SIZE + embeddings.shape[1]))
    acts = np.zeros((n, t_max), dtype=np.intp)
    mask = np.zeros((n, t_max))
    noise = np.empty((t_max, VIEW_SIZE))
    for i, (seg, begin) in enumerate(zip(segs, begins)):
        traj, length = trajectories[seg.traj_id], seg.end - begin
        traj.decode_rows(begin, seg.end, xs[i, :length, :OBS_SIZE])
        draw = rng.standard_normal(out=noise[:length])
        draw *= OBS_NOISE
        xs[i, :length, :VIEW_SIZE] += draw
        xs[i, :length, OBS_SIZE:] = embeddings[seg.target]
        acts[i, :length] = traj.actions[begin:seg.end]
        mask[i, :length] = 1.0
    return xs, acts, mask


def train_policy_for_hub(topology: BehaviorTopology, trajectories: list[Trajectory],
                         hub_id: int, embeddings: np.ndarray,
                         cfg: RunConfig, rng: np.random.Generator):
    segs = _segments_for_hub(topology, hub_id, cfg.max_segments_per_edge)
    policy = EdgePolicy(rng, embeddings.shape[1])
    opt = nn.Adam(policy.parameters(), lr=cfg.lr_policy)
    losses: list[float] = []
    best = np.inf
    stale = 0

    for epoch in range(MAX_EPOCHS):
        begins = [perturb_segment(s, rng) for s in segs]
        xs, acts, mask = _fill_batch(segs, begins, trajectories, embeddings, rng)

        try:
            loss, grads = sequence_loss_and_grads(policy, xs, acts, mask, LABEL_SMOOTHING)
        except nn.NonFiniteError as err:
            raise nn.NonFiniteError(f"policy for hub {hub_id}: {err}") from err
        if not np.isfinite(loss):
            raise nn.NonFiniteError(f"non-finite policy loss for hub {hub_id}")
        opt.step(grads)
        losses.append(loss)

        if losses[-1] < best * (1.0 - PLATEAU_REL):
            best = losses[-1]
            stale = 0
        else:
            stale += 1
        if epoch + 1 >= MIN_EPOCHS:
            if ((epoch + 1) % CHECK_EVERY == 0
                    and _greedy_exact(policy, segs, embeddings, trajectories)):
                break
            if stale >= PLATEAU_PATIENCE:
                break
    return policy, losses


def train_policies(topology: BehaviorTopology, trajectories: list[Trajectory],
                   embeddings: np.ndarray, cfg: RunConfig, log=None) -> PolicyBank:
    """One policy per hub with out-degree >= 1, trained independently."""
    bank = PolicyBank(emb_dim=embeddings.shape[1])
    sources = sorted({s for s, _t in topology.edges})
    for hub_id in sources:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x90, hub_id]))
        policy, losses = train_policy_for_hub(topology, trajectories, hub_id,
                                              embeddings, cfg, rng)
        bank.policies[hub_id] = policy
        bank.train_losses[hub_id] = losses
        if log is not None:
            log(f"policy hub={hub_id} epochs={len(losses)} "
                f"first={losses[0]:.4f} last={losses[-1]:.4f}")
    return bank


def save_bank(bank: PolicyBank, out_dir: Path) -> None:
    from .nn.io import save_params

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = {"emb_dim": bank.emb_dim, "hubs": sorted(bank.policies)}
    for hub_id, policy in bank.policies.items():
        save_params(out_dir / f"policy_{hub_id:04d}.bin", MODEL_KIND,
                    {"hub_id": np.array([float(hub_id)]), **policy.tensors()})
    (out_dir / "index.json").write_text(json.dumps(index))


def load_bank(out_dir: Path) -> PolicyBank:
    """The bank `save_bank` wrote; raises `nn.ArtifactError` naming
    `index.json` when it is not JSON or lacks a key, and naming a policy
    file whose stored hub id is not the hub `index.json` lists it for."""
    from .nn.io import json_artifact, load_params

    out_dir = Path(out_dir)
    with json_artifact(out_dir / "index.json", "train-policies") as index:
        emb_dim, hubs = index["emb_dim"], index["hubs"]
    bank = PolicyBank(emb_dim=emb_dim)
    for hub_id in hubs:
        path = out_dir / f"policy_{hub_id:04d}.bin"
        _kind, tensors = load_params(path, expect_kind=MODEL_KIND)
        stored = tensors.get("hub_id", np.empty(0)).tolist()
        if stored != [hub_id]:
            raise nn.ArtifactError(f"{path}: stores hub_id {stored}, but index.json lists it "
                                   f"for hub {hub_id}")
        bank.policies[hub_id] = EdgePolicy.from_tensors(tensors)
    return bank
