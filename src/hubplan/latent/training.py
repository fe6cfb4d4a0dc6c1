"""Training loop for the low-level latent model.

The trajectories are processed in fixed windows of `HISTORY_LEN`
transitions. Each window is one optimizer step, run in its own function:
the window's observation rows a..b of every trajectory are decoded from
their uint8 codes into a zero-padded (trajectories, b - a + 1, OBS_SIZE)
batch, the view and barrel targets are read from it, and the window's tape
and batch are freed before the next window's forward pass starts, so
training holds the graph and observations of one window at a time. The
recurrent hidden state crosses window boundaries by value only (detached),
which clips backpropagation through time to the window.
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
# Adam's step size, and the transitions per window (encoding keeps the whole episode)
LR_LOW = 1e-4
HISTORY_LEN = 75


def _pack_window(trajectories: list[Trajectory], a: int, b: int) -> np.ndarray:
    """Observation rows a..b of every trajectory, decoded from its codes
    straight into the batch; zero past its end."""
    obs = np.zeros((len(trajectories), b - a + 1, OBS_SIZE))
    for i, traj in enumerate(trajectories):
        rows = max(0, min(b + 1, len(traj) + 1) - a)
        traj.decode_rows(a, a + rows, obs[i, :rows])
    return obs


def train_low_level(model: LowLevelModel, trajectories: list[Trajectory],
                    cfg: RunConfig) -> list[float]:
    """`cfg.low_epochs` epochs at `LR_LOW` in windows of `HISTORY_LEN`
    transitions. Returns the per-epoch mean loss; raises on a non-finite loss."""
    n = len(trajectories)
    t_max = max(len(t) for t in trajectories)
    term_tgt = np.zeros((n, t_max + 1, 2))
    actions = np.zeros((n, t_max), dtype=np.intp)
    mask = np.zeros((n, t_max))
    for i, traj in enumerate(trajectories):
        ln = len(traj)
        actions[i, :ln] = traj.actions
        mask[i, :ln] = 1.0
        term_tgt[i, ln, 0] = 1.0
        term_tgt[i, ln, 1] = 1.0 if traj.success else 0.0
    eye = np.eye(N_ACTIONS)
    cw = channel_weights()
    cw_norm = cw / cw.sum()
    opt = nn.Adam(model.parameters(), lr=LR_LOW)
    windows = [(a, min(a + HISTORY_LEN, t_max)) for a in range(0, t_max, HISTORY_LEN)]

    def window(a: int, b: int, hidden: np.ndarray, epoch: int) -> tuple[float, np.ndarray]:
        """One optimizer step over transitions a..b-1 from `hidden`; returns
        the window's mean step loss and the hidden state before obs[b], from
        which the next window re-encodes obs[b]. Every step has a valid row:
        the longest trajectory runs to t_max."""
        obs = _pack_window(trajectories, a, b)
        vis_tgt = obs[:, :, :VIEW_SIZE]
        # a barrel slot holds (color + 1) / 4, exactly, so 4x is its class id
        barrel_tgt = (obs[:, :, VIEW_SIZE:] * 4).astype(np.intp)
        with nn.Tape() as tape:
            z, h = model.encode_step(nn.Tensor(obs[:, 0]), nn.Tensor(hidden))
            losses = []
            for t in range(a, b):
                k = t + 1 - a       # obs[t + 1] in the window's batch
                valid = mask[:, t]
                count = valid.sum()
                z_hat = model.predict_next(z, nn.Tensor(eye[actions[:, t]]))
                carry = h.data
                z_next, h = model.encode_step(nn.Tensor(obs[:, k]), h)
                w_col = valid[:, None]
                l_z = nn.weighted_sq_error(z_hat, z_next, w_col, count)
                vis, bar0, bar1, term = model.decode(z_hat)
                l_vis = nn.weighted_sq_error(vis, vis_tgt[:, k], w_col, count, cw_norm)
                l_bar = nn.softmax_cross_entropy(bar0, barrel_tgt[:, k, 0], sample_weight=valid)
                l_bar = nn.tensor.add(l_bar, nn.softmax_cross_entropy(
                    bar1, barrel_tgt[:, k, 1], sample_weight=valid))
                l_term = nn.bce_with_logits(term, term_tgt[:, t + 1], sample_weight=valid)
                losses.append(nn.tensor.add(
                    nn.tensor.add(nn.tensor.scale(l_z, W_Z), nn.tensor.scale(l_vis, W_VIS)),
                    nn.tensor.add(nn.tensor.scale(l_bar, W_BARREL),
                                  nn.tensor.scale(l_term, W_TERMINAL))))
            window_loss = losses[0]
            for extra in losses[1:]:
                window_loss = nn.tensor.add(window_loss, extra)
            window_loss = nn.tensor.scale(window_loss, 1.0 / (b - a))
            if not np.isfinite(window_loss.data):
                raise nn.NonFiniteError(
                    f"non-finite training loss at epoch {epoch}, window {a}:{b}")
            grads = nn.backprop(tape, window_loss)
        opt.step(grads)
        return float(window_loss.data), carry.copy()  # detach: clips BPTT at the boundary

    epoch_losses: list[float] = []
    for epoch in range(cfg.low_epochs):
        hidden = np.zeros((n, model.latent_dim))
        total, steps = 0.0, 0
        for a, b in windows:
            loss, hidden = window(a, b, hidden, epoch)
            total += loss * (b - a)
            steps += b - a
        epoch_losses.append(total / max(steps, 1))
    return epoch_losses
