"""Training loop for the low-level latent model.

Each trajectory's observation matrix is copied once into a zero-padded
(trajectories, steps + 1, OBS_SIZE) batch; the view and barrel targets are
read from that batch. The batch is processed in fixed windows of
`history_len` transitions; the recurrent hidden state crosses window
boundaries by value only (detached), which clips backpropagation through
time to the window. Each window is one optimizer step.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..config import RunConfig
from ..maze.env import N_ACTIONS
from ..maze.raster import OBS_SIZE, VIEW_SIZE, channel_weights
from ..maze.trajectory import Trajectory
from .model import LowLevelModel

# weights of the per-step loss terms: latent prediction, view reconstruction,
# barrel classification, terminal prediction
W_Z = 1.0
W_VIS = 1.0
W_BARREL = 1.0
W_TERMINAL = 0.5


def weighted_sq_error(pred, target, weight: np.ndarray, normalizer: float):
    """Sum of weight * (pred - target)^2 over every entry, divided by
    `normalizer`; exactly 0 when equal. `weight` broadcasts against the
    (batch, width) difference: a row mask, or a mask times channel weights."""
    diff = nn.tensor.sub(pred, target)
    return nn.tensor.scale(nn.sum_all(nn.tensor.mul(nn.tensor.mul(diff, diff), weight)),
                           1.0 / normalizer)


def _pack(trajectories: list[Trajectory]):
    n = len(trajectories)
    t_max = max(len(t) for t in trajectories)
    obs = np.zeros((n, t_max + 1, OBS_SIZE))
    term_tgt = np.zeros((n, t_max + 1, 2))
    actions = np.zeros((n, t_max), dtype=np.intp)
    mask = np.zeros((n, t_max))
    for i, traj in enumerate(trajectories):
        ln = len(traj)
        obs[i, :ln + 1] = traj.observations
        actions[i, :ln] = traj.actions
        mask[i, :ln] = 1.0
        term_tgt[i, ln, 0] = 1.0
        term_tgt[i, ln, 1] = 1.0 if traj.success else 0.0
    # a barrel slot holds (color + 1) / 4, exactly, so 4x is its class id
    barrel_tgt = (obs[:, :, VIEW_SIZE:] * 4).astype(np.intp)
    return obs, obs[:, :, :VIEW_SIZE], barrel_tgt, term_tgt, actions, mask


def train_low_level(model: LowLevelModel, trajectories: list[Trajectory],
                    cfg: RunConfig) -> list[float]:
    """`cfg.low_epochs` epochs at `cfg.lr_low` in windows of `cfg.history_len`
    transitions. Returns the per-epoch mean loss; raises on a non-finite loss."""
    obs, vis_tgt, barrel_tgt, term_tgt, actions, mask = _pack(trajectories)
    n, t_max = mask.shape
    eye = np.eye(N_ACTIONS)
    cw = channel_weights()
    cw_norm = cw / cw.sum()
    params = model.parameters()
    opt = nn.Adam(params, lr=cfg.lr_low)
    windows = [(a, min(a + cfg.history_len, t_max)) for a in range(0, t_max, cfg.history_len)]

    epoch_losses: list[float] = []
    for epoch in range(cfg.low_epochs):
        hidden = np.zeros((n, model.latent_dim))
        total, steps = 0.0, 0
        for a, b in windows:
            with nn.Tape() as tape:
                h = nn.Tensor(hidden)
                z, h = model.encode_step(nn.Tensor(obs[:, a]), h)
                losses = []
                n_valid_steps = 0
                carry = hidden
                for t in range(a, b):
                    valid = mask[:, t]
                    count = valid.sum()
                    if count == 0:
                        break
                    n_valid_steps += 1
                    z_hat = model.predict_next(z, nn.Tensor(eye[actions[:, t]]))
                    # hidden before encoding obs[t+1]; the next window re-encodes
                    # obs[b] starting from exactly this value
                    carry = h.data
                    z_next, h = model.encode_step(nn.Tensor(obs[:, t + 1]), h)
                    w_col = valid[:, None]
                    l_z = weighted_sq_error(z_hat, z_next, w_col, count)
                    vis, bar0, bar1, term = model.decode(z_hat)
                    l_vis = weighted_sq_error(vis, nn.Tensor(vis_tgt[:, t + 1]),
                                              w_col * cw_norm[None, :], count)
                    l_bar = nn.softmax_cross_entropy(bar0, barrel_tgt[:, t + 1, 0], sample_weight=valid)
                    l_bar = nn.tensor.add(l_bar, nn.softmax_cross_entropy(
                        bar1, barrel_tgt[:, t + 1, 1], sample_weight=valid))
                    l_term = nn.bce_with_logits(term, term_tgt[:, t + 1], sample_weight=valid)
                    step_loss = nn.tensor.add(
                        nn.tensor.add(nn.tensor.scale(l_z, W_Z), nn.tensor.scale(l_vis, W_VIS)),
                        nn.tensor.add(nn.tensor.scale(l_bar, W_BARREL),
                                      nn.tensor.scale(l_term, W_TERMINAL)))
                    losses.append(step_loss)
                if not losses:
                    break
                window_loss = losses[0]
                for extra in losses[1:]:
                    window_loss = nn.tensor.add(window_loss, extra)
                window_loss = nn.tensor.scale(window_loss, 1.0 / n_valid_steps)
                if not np.isfinite(window_loss.data):
                    raise nn.NonFiniteError(
                        f"non-finite training loss at epoch {epoch}, window {a}:{b}")
                grads = nn.backprop(tape, window_loss)
            opt.step(grads)
            hidden = carry.copy()  # detach: clips BPTT at the window boundary
            total += float(window_loss.data) * n_valid_steps
            steps += n_valid_steps
        epoch_losses.append(total / max(steps, 1))
    return epoch_losses
