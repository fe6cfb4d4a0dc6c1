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


class LowLevelModel(nn.Model):
    def __init__(self, rng: np.random.Generator, latent_dim: int = 64, hidden: int = 128):
        super().__init__(nn.init_params(rng, {
            "enc.w1": (OBS_SIZE, hidden), "enc.b1": (hidden,),
            "enc.w2": (hidden, latent_dim), "enc.b2": (latent_dim,),
            **nn.gru_shapes("enc.gru", latent_dim, latent_dim),
            "enc.corr_w": (latent_dim, latent_dim), "enc.corr_b": (latent_dim,),
            "dyn.wz": (latent_dim, hidden), "dyn.wa": (N_ACTIONS, hidden), "dyn.b1": (hidden,),
            "dyn.w2": (hidden, latent_dim), "dyn.b2": (latent_dim,),
            "dec.w1": (latent_dim, hidden), "dec.b1": (hidden,),
            "dec.vis_w": (hidden, VIEW_SIZE), "dec.vis_b": (VIEW_SIZE,),
            "dec.bar0_w": (hidden, N_BARREL_CLASSES), "dec.bar0_b": (N_BARREL_CLASSES,),
            "dec.bar1_w": (hidden, N_BARREL_CLASSES), "dec.bar1_b": (N_BARREL_CLASSES,),
            "dec.term_w": (hidden, 2), "dec.term_b": (2,),
        }))

    def _bind(self) -> None:
        self.gru = nn.GruCellParams.of(self.params, "enc.gru")
        # every other parameter is the attribute its name gives, "_" for "."
        for name, p in self.params.items():
            if not name.startswith("enc.gru."):
                setattr(self, name.replace(".", "_"), p)
        self.hidden, self.latent_dim = self.enc_w2.data.shape

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
