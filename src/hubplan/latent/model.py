"""Learned low-level latent model: encoder, action-conditioned dynamics, decoder.

The encoder compresses one observation into an immediate summary and adds a
recurrent history correction; the dynamics head predicts the next latent
from (latent, action); the decoder reconstructs next-observation content
(raster, the two barrel slots, terminal status) from the predicted latent.

`LowLevelModel` records its steps on the tape, for training only; each
dense layer is one fused `nn.linear` node.
`LearnedEncoder.encode` is plain numpy: it runs the encoder MLP, the GRU
input projections and the correction head once over a (T, 1, width) stack
of a whole observation matrix, and only the GRU memory update per step.
numpy computes a stacked matmul as one GEMM per slice, so every latent is
bit-identical to encoding the rows one at a time, and to the tape's
`encode_step`; merging the steps into one (T, width) GEMM would round
differently and move the learned topology. `tests/test_latent.py` and
`tests/test_nn_core.py::TestStackedNumpyFacts` check both.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..maze.env import N_ACTIONS
from ..maze.raster import OBS_SIZE, VIEW_SIZE

N_BARREL_CLASSES = 5  # empty + four colors
# every parameter but the encoder's GRU cell, in file order, with the cell's
# tensors after the first four; each is the attribute named with "_" for "."
PARAM_NAMES = ("enc.w1", "enc.b1", "enc.w2", "enc.b2", "enc.corr_w", "enc.corr_b",
               "dyn.wz", "dyn.wa", "dyn.b1", "dyn.w2", "dyn.b2", "dec.w1", "dec.b1",
               "dec.vis_w", "dec.vis_b", "dec.bar0_w", "dec.bar0_b", "dec.bar1_w", "dec.bar1_b",
               "dec.term_w", "dec.term_b")


class LowLevelModel:
    def __init__(self, rng: np.random.Generator, latent_dim: int = 64, hidden: int = 128):
        self.latent_dim = latent_dim
        self.hidden = hidden
        self.enc_w1 = nn.init_weight(rng, OBS_SIZE, hidden, "enc.w1")
        self.enc_b1 = nn.init_bias(hidden, "enc.b1")
        self.enc_w2 = nn.init_weight(rng, hidden, latent_dim, "enc.w2")
        self.enc_b2 = nn.init_bias(latent_dim, "enc.b2")
        self.gru = nn.GruCellParams.create(rng, latent_dim, latent_dim, "enc.gru")
        self.enc_corr_w = nn.init_weight(rng, latent_dim, latent_dim, "enc.corr_w")
        self.enc_corr_b = nn.init_bias(latent_dim, "enc.corr_b")
        self.dyn_wz = nn.init_weight(rng, latent_dim, hidden, "dyn.wz")
        self.dyn_wa = nn.init_weight(rng, N_ACTIONS, hidden, "dyn.wa")
        self.dyn_b1 = nn.init_bias(hidden, "dyn.b1")
        self.dyn_w2 = nn.init_weight(rng, hidden, latent_dim, "dyn.w2")
        self.dyn_b2 = nn.init_bias(latent_dim, "dyn.b2")
        self.dec_w1 = nn.init_weight(rng, latent_dim, hidden, "dec.w1")
        self.dec_b1 = nn.init_bias(hidden, "dec.b1")
        self.dec_vis_w = nn.init_weight(rng, hidden, VIEW_SIZE, "dec.vis_w")
        self.dec_vis_b = nn.init_bias(VIEW_SIZE, "dec.vis_b")
        self.dec_bar0_w = nn.init_weight(rng, hidden, N_BARREL_CLASSES, "dec.bar0_w")
        self.dec_bar0_b = nn.init_bias(N_BARREL_CLASSES, "dec.bar0_b")
        self.dec_bar1_w = nn.init_weight(rng, hidden, N_BARREL_CLASSES, "dec.bar1_w")
        self.dec_bar1_b = nn.init_bias(N_BARREL_CLASSES, "dec.bar1_b")
        self.dec_term_w = nn.init_weight(rng, hidden, 2, "dec.term_w")
        self.dec_term_b = nn.init_bias(2, "dec.term_b")

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "LowLevelModel":
        """Model whose parameters are the given arrays (not copies), with no
        random initialisation; the latent and hidden widths come from their
        shapes."""
        model = cls.__new__(cls)
        for name in PARAM_NAMES:
            setattr(model, name.replace(".", "_"), nn.parameter(tensors[name], name))
        model.gru = nn.GruCellParams.from_tensors(tensors, "enc.gru")
        model.hidden, model.latent_dim = model.enc_w2.data.shape
        return model

    def parameters(self) -> list[nn.Tensor]:
        plain = [getattr(self, name.replace(".", "_")) for name in PARAM_NAMES]
        return plain[:4] + list(self.gru.tensors().values()) + plain[4:]

    def tensors(self) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self.parameters()}

    # -- network pieces -----------------------------------------------------

    def immediate_summary(self, obs_batch) -> nn.Tensor:
        h = nn.relu(nn.linear(obs_batch, self.enc_w1, self.enc_b1))
        return nn.tanh(nn.linear(h, self.enc_w2, self.enc_b2))

    def encode_step(self, obs_batch, h_prev):
        """One encoding step; returns (latent, new hidden)."""
        imm = self.immediate_summary(obs_batch)
        h_new = nn.gru_step(self.gru, imm, h_prev)
        z = imm + nn.linear(h_new, self.enc_corr_w, self.enc_corr_b)
        return z, h_new

    def predict_next(self, z, action_onehot) -> nn.Tensor:
        # (z @ wz + a @ wa) + b1 rounds as written; no single `linear` computes it
        pre = nn.relu(nn.matmul(z, self.dyn_wz) + nn.matmul(action_onehot, self.dyn_wa) + self.dyn_b1)
        return nn.linear(pre, self.dyn_w2, self.dyn_b2)

    def decode(self, z_hat):
        d = nn.relu(nn.linear(z_hat, self.dec_w1, self.dec_b1))
        vis = nn.linear(d, self.dec_vis_w, self.dec_vis_b)
        bar0 = nn.linear(d, self.dec_bar0_w, self.dec_bar0_b)
        bar1 = nn.linear(d, self.dec_bar1_w, self.dec_bar1_b)
        term = nn.linear(d, self.dec_term_w, self.dec_term_b)
        return vis, bar0, bar1, term


class LearnedEncoder:
    """Runtime wrapper giving the learned model the common encoder interface.

    The recurrent hidden state runs through the whole episode; training carries
    it by value across its BPTT windows, so encodings do not depend on them."""

    def __init__(self, model: LowLevelModel):
        self.model = model
        self.hidden = np.zeros((1, model.latent_dim))

    def begin_episode(self) -> None:
        self.hidden = np.zeros((1, self.model.latent_dim))

    def encode(self, obs: np.ndarray, state=None) -> np.ndarray:
        """Latent of one (OBS_SIZE,) observation, or the (T, latent_dim)
        latents of a (T, OBS_SIZE) observation matrix, continuing from the
        episode's memory and leaving the last step's memory there; encoding
        a matrix equals encoding its rows in order."""
        m = self.model
        x = obs.reshape(-1, 1, obs.shape[-1])             # (T, 1, OBS_SIZE); a row is T = 1
        hid = np.maximum(x @ m.enc_w1.data + m.enc_b1.data, 0.0)
        imm = np.tanh(hid @ m.enc_w2.data + m.enc_b2.data)
        hs, _caches = nn.gru_unroll(m.gru, imm, self.hidden)
        self.hidden = hs[-1]
        z = imm + (hs[1:] @ m.enc_corr_w.data + m.enc_corr_b.data)
        return z.reshape(obs.shape[:-1] + (m.latent_dim,))

    def encode_trajectory(self, env, traj) -> np.ndarray:
        """(len(traj) + 1, latent_dim) latents of the trajectory's observation
        rows, decoded for this call only, from a fresh episode; `env` is
        unused."""
        self.begin_episode()
        return self.encode(traj.decode_rows(0, len(traj) + 1, np.empty((len(traj) + 1, OBS_SIZE))))
