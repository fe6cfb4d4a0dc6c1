"""Learned low-level latent model: encoder, action-conditioned dynamics, decoder.

The encoder compresses one observation into an immediate summary and adds a
recurrent history correction; the dynamics head predicts the next latent
from (latent, action); the decoder reconstructs next-observation content
(raster, the two barrel slots, terminal status) from the predicted latent.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..maze.env import N_ACTIONS, Observation
from ..maze.raster import VIEW_SIZE

OBS_DIM = VIEW_SIZE + 2
N_BARREL_CLASSES = 5  # empty + four colors


class LowLevelModel:
    def __init__(self, rng: np.random.Generator, latent_dim: int = 64, hidden: int = 128,
                 memoryless: bool = False):
        self.latent_dim = latent_dim
        self.hidden = hidden
        self.memoryless = memoryless
        self.enc_w1 = nn.init_weight(rng, OBS_DIM, hidden, "enc.w1")
        self.enc_b1 = nn.init_bias(hidden, "enc.b1")
        self.enc_w2 = nn.init_weight(rng, hidden, latent_dim, "enc.w2")
        self.enc_b2 = nn.init_bias(latent_dim, "enc.b2")
        if not memoryless:
            self.gru = nn.GruCellParams.create(rng, latent_dim, latent_dim, "enc.gru")
            self.corr_w = nn.init_weight(rng, latent_dim, latent_dim, "enc.corr_w")
            self.corr_b = nn.init_bias(latent_dim, "enc.corr_b")
        self.dyn_wz = nn.init_weight(rng, latent_dim, hidden, "dyn.wz")
        self.dyn_wa = nn.init_weight(rng, N_ACTIONS, hidden, "dyn.wa")
        self.dyn_b1 = nn.init_bias(hidden, "dyn.b1")
        self.dyn_w2 = nn.init_weight(rng, hidden, latent_dim, "dyn.w2")
        self.dyn_b2 = nn.init_bias(latent_dim, "dyn.b2")
        self.dec_w1 = nn.init_weight(rng, latent_dim, hidden, "dec.w1")
        self.dec_b1 = nn.init_bias(hidden, "dec.b1")
        self.vis_w = nn.init_weight(rng, hidden, VIEW_SIZE, "dec.vis_w")
        self.vis_b = nn.init_bias(VIEW_SIZE, "dec.vis_b")
        self.bar0_w = nn.init_weight(rng, hidden, N_BARREL_CLASSES, "dec.bar0_w")
        self.bar0_b = nn.init_bias(N_BARREL_CLASSES, "dec.bar0_b")
        self.bar1_w = nn.init_weight(rng, hidden, N_BARREL_CLASSES, "dec.bar1_w")
        self.bar1_b = nn.init_bias(N_BARREL_CLASSES, "dec.bar1_b")
        self.term_w = nn.init_weight(rng, hidden, 2, "dec.term_w")
        self.term_b = nn.init_bias(2, "dec.term_b")

    def parameters(self) -> list[nn.Tensor]:
        out = [self.enc_w1, self.enc_b1, self.enc_w2, self.enc_b2]
        if not self.memoryless:
            out.extend(self.gru.tensors().values())
            out.extend([self.corr_w, self.corr_b])
        out.extend([
            self.dyn_wz, self.dyn_wa, self.dyn_b1, self.dyn_w2, self.dyn_b2,
            self.dec_w1, self.dec_b1, self.vis_w, self.vis_b,
            self.bar0_w, self.bar0_b, self.bar1_w, self.bar1_b,
            self.term_w, self.term_b,
        ])
        return out

    def tensors(self) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self.parameters()}

    def load_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            p.data = np.array(tensors[p.name], dtype=np.float64)

    # -- network pieces -----------------------------------------------------

    def immediate_summary(self, obs_batch) -> nn.Tensor:
        h = nn.relu(nn.matmul(obs_batch, self.enc_w1) + self.enc_b1)
        return nn.tanh(nn.matmul(h, self.enc_w2) + self.enc_b2)

    def encode_step(self, obs_batch, h_prev):
        """One encoding step; returns (latent, new hidden)."""
        imm = self.immediate_summary(obs_batch)
        if self.memoryless:
            return imm, h_prev
        h_new = nn.gru_step(self.gru, imm, h_prev)
        z = imm + (nn.matmul(h_new, self.corr_w) + self.corr_b)
        return z, h_new

    def predict_next(self, z, action_onehot) -> nn.Tensor:
        pre = nn.relu(nn.matmul(z, self.dyn_wz) + nn.matmul(action_onehot, self.dyn_wa) + self.dyn_b1)
        return nn.matmul(pre, self.dyn_w2) + self.dyn_b2

    def decode(self, z_hat):
        d = nn.relu(nn.matmul(z_hat, self.dec_w1) + self.dec_b1)
        vis = nn.matmul(d, self.vis_w) + self.vis_b
        bar0 = nn.matmul(d, self.bar0_w) + self.bar0_b
        bar1 = nn.matmul(d, self.bar1_w) + self.bar1_b
        term = nn.matmul(d, self.term_w) + self.term_b
        return vis, bar0, bar1, term


class LearnedEncoder:
    """Runtime wrapper giving the learned model the common encoder interface.

    The recurrent hidden state runs through the whole episode; training carries
    it by value across its BPTT windows, so encodings do not depend on them."""

    name = "learned"

    def __init__(self, model: LowLevelModel):
        self.model = model
        self.hidden = np.zeros((1, model.latent_dim))

    def begin_episode(self) -> None:
        self.hidden = np.zeros((1, self.model.latent_dim))

    def encode(self, obs: Observation, state=None) -> np.ndarray:
        vec = obs.as_vector()[None, :]
        z, h = self.model.encode_step(nn.Tensor(vec), nn.Tensor(self.hidden))
        self.hidden = h.data
        return z.data[0]
