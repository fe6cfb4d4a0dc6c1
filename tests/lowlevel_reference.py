"""The low-level trainer composed from primitive tape ops, kept as the
reference that `hubplan.latent.train_low_level` and its fused nodes must
match bit for bit: every `linear` is a `matmul` then an `add`, the squared
error is sub, mul, mul, sum_all and scale, and the whole trajectory batch
is packed once and its graph built window after window in one loop."""

from __future__ import annotations

import numpy as np

from hubplan import nn
from hubplan.config import RunConfig
from hubplan.latent import training
from hubplan.latent.model import LowLevelModel
from hubplan.latent.training import W_BARREL, W_TERMINAL, W_VIS, W_Z
from hubplan.maze.env import N_ACTIONS
from hubplan.maze.raster import OBS_SIZE, VIEW_SIZE, channel_weights
from hubplan.maze.trajectory import Trajectory

T = nn.tensor


def unfused_linear(x, w, b) -> nn.Tensor:
    return T.add(nn.matmul(x, w), b)


def unfused_weighted_sq_error(pred, target, weight, normalizer: float) -> nn.Tensor:
    diff = T.sub(pred, target)
    return T.scale(nn.sum_all(T.mul(T.mul(diff, diff), weight)), 1.0 / normalizer)


def encode_step(m: LowLevelModel, obs_batch, h_prev):
    h = nn.relu(unfused_linear(obs_batch, m.enc_w1, m.enc_b1))
    imm = nn.tanh(unfused_linear(h, m.enc_w2, m.enc_b2))
    h_new = nn.gru_step(m.gru, imm, h_prev)
    return T.add(imm, unfused_linear(h_new, m.enc_corr_w, m.enc_corr_b)), h_new


def predict_next(m: LowLevelModel, z, action_onehot) -> nn.Tensor:
    pre = nn.relu(T.add(T.add(nn.matmul(z, m.dyn_wz), nn.matmul(action_onehot, m.dyn_wa)),
                        m.dyn_b1))
    return unfused_linear(pre, m.dyn_w2, m.dyn_b2)


def decode(m: LowLevelModel, z_hat):
    d = nn.relu(unfused_linear(z_hat, m.dec_w1, m.dec_b1))
    return (unfused_linear(d, m.dec_vis_w, m.dec_vis_b),
            unfused_linear(d, m.dec_bar0_w, m.dec_bar0_b),
            unfused_linear(d, m.dec_bar1_w, m.dec_bar1_b),
            unfused_linear(d, m.dec_term_w, m.dec_term_b))


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
    barrel_tgt = (obs[:, :, VIEW_SIZE:] * 4).astype(np.intp)
    return obs, obs[:, :, :VIEW_SIZE], barrel_tgt, term_tgt, actions, mask


def train_low_level_reference(model: LowLevelModel, trajectories: list[Trajectory],
                              cfg: RunConfig) -> list[float]:
    obs, vis_tgt, barrel_tgt, term_tgt, actions, mask = _pack(trajectories)
    n, t_max = mask.shape
    eye = np.eye(N_ACTIONS)
    cw = channel_weights()
    cw_norm = cw / cw.sum()
    params = model.parameters()
    # the trainer's settings, read as it reads them, so a test's patch applies to both
    opt = nn.Adam(params, lr=training.LR_LOW)
    length = training.HISTORY_LEN
    windows = [(a, min(a + length, t_max)) for a in range(0, t_max, length)]

    epoch_losses: list[float] = []
    for epoch in range(cfg.low_epochs):
        hidden = np.zeros((n, model.latent_dim))
        total, steps = 0.0, 0
        for a, b in windows:
            with nn.Tape() as tape:
                h = nn.Tensor(hidden)
                z, h = encode_step(model, nn.Tensor(obs[:, a]), h)
                losses = []
                n_valid_steps = 0
                carry = hidden
                for t in range(a, b):
                    valid = mask[:, t]
                    count = valid.sum()
                    if count == 0:
                        break
                    n_valid_steps += 1
                    z_hat = predict_next(model, z, nn.Tensor(eye[actions[:, t]]))
                    carry = h.data
                    z_next, h = encode_step(model, nn.Tensor(obs[:, t + 1]), h)
                    w_col = valid[:, None]
                    l_z = unfused_weighted_sq_error(z_hat, z_next, w_col, count)
                    vis, bar0, bar1, term = decode(model, z_hat)
                    l_vis = unfused_weighted_sq_error(vis, nn.Tensor(vis_tgt[:, t + 1]),
                                                      w_col * cw_norm[None, :], count)
                    l_bar = nn.softmax_cross_entropy(bar0, barrel_tgt[:, t + 1, 0],
                                                     sample_weight=valid)
                    l_bar = T.add(l_bar, nn.softmax_cross_entropy(
                        bar1, barrel_tgt[:, t + 1, 1], sample_weight=valid))
                    l_term = nn.bce_with_logits(term, term_tgt[:, t + 1], sample_weight=valid)
                    step_loss = T.add(
                        T.add(T.scale(l_z, W_Z), T.scale(l_vis, W_VIS)),
                        T.add(T.scale(l_bar, W_BARREL), T.scale(l_term, W_TERMINAL)))
                    losses.append(step_loss)
                if not losses:
                    break
                window_loss = losses[0]
                for extra in losses[1:]:
                    window_loss = T.add(window_loss, extra)
                window_loss = T.scale(window_loss, 1.0 / n_valid_steps)
                if not np.isfinite(window_loss.data):
                    raise nn.NonFiniteError(
                        f"non-finite training loss at epoch {epoch}, window {a}:{b}")
                grads = nn.backprop(tape, window_loss)
            opt.step(grads)
            hidden = carry.copy()
            total += float(window_loss.data) * n_valid_steps
            steps += n_valid_steps
        epoch_losses.append(total / max(steps, 1))
    return epoch_losses
