"""Dense and gated-recurrent building blocks on top of the tape engine.

The gated recurrent step is written once as plain numpy, in pieces: the
input projection (`gru_input_proj`), the recurrent cell update
(`gru_cell`), its backward to the gate pre-activations and the previous
memory (`gru_cell_backward`), and the non-recurrent gradients of the input
(`gru_input_grads`) and of the parameters (`gru_param_grads`).
`gru_unroll` is the one multi-step forward (policy training and replay,
the learned encoder); single-step inference (`act`, `advance`) calls
`gru_cell`, and `gru_step` records one step on the tape as a single node
for the tape-trained models. A `GruCache` holds six arrays per step; the
`gru_step` node keeps four of them (the previous memory, the two gates and
the candidate) and rebuilds reset * memory and 1 - update by `gru_cell`'s
own expressions when its backward runs, so its gradients do not change
and a tape of steps holds two fewer (batch, hidden) arrays per step.
The cell's gates saturate to exactly 0 or 1
where exp overflows: a caller of `gru_cell` enters
`np.errstate(over="ignore")` once around its step loop.

Stack, don't merge: the input projection and the input gradients take
(batch, width) arrays or (T, batch, width) stacks of T steps. numpy runs
a stacked matmul as one GEMM per slice, each bit-identical to the 2-d
product of that step, one-row batches included, so a caller can move
them out of its step loop without changing a bit. Merging the steps into
one (T * batch, width) GEMM is faster but rounds differently.
`tests/test_nn_core.py` checks these facts at the policies' shapes. The
parameter gradients (`gru_param_grads`) take whatever rows they are given:
the tape's `gru_step` forms them per step, and the policy trainer forms
each from one batch's merged (T * batch, width) rows, one GEMM per weight
over all steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .io import aligned_copy
from .tensor import ShapeError, Tensor, _accum, _node, _sigmoid_np, parameter

__all__ = ["init_weight", "GruCellParams", "GruCache", "gru_input_proj", "gru_cell",
           "gru_unroll", "gru_cell_backward", "gru_input_grads", "gru_param_grads", "gru_step"]

_GRU_TAGS = ("w_update", "u_update", "b_update", "w_reset", "u_reset", "b_reset",
             "w_cand", "u_cand", "b_cand")


def init_weight(rng: np.random.Generator, fan_in: int, fan_out: int, name: str) -> Tensor:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weight matrix, 64-byte
    aligned as `load_params` aligns it."""
    bound = 1.0 / np.sqrt(fan_in)
    return parameter(aligned_copy(rng.uniform(-bound, bound, size=(fan_in, fan_out))), name)


def init_bias(fan_out: int, name: str) -> Tensor:
    return parameter(np.zeros(fan_out), name)


@dataclass
class GruCellParams:
    """One gated recurrent cell: update/reset gates plus candidate state."""

    input_size: int
    hidden_size: int
    w_update: Tensor
    u_update: Tensor
    b_update: Tensor
    w_reset: Tensor
    u_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    u_cand: Tensor
    b_cand: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, input_size: int, hidden_size: int, prefix: str) -> "GruCellParams":
        def w(tag):
            return init_weight(rng, input_size, hidden_size, f"{prefix}.w_{tag}")

        def u(tag):
            return init_weight(rng, hidden_size, hidden_size, f"{prefix}.u_{tag}")

        def b(tag):
            return init_bias(hidden_size, f"{prefix}.b_{tag}")

        return cls(
            input_size,
            hidden_size,
            w("update"), u("update"), b("update"),
            w("reset"), u("reset"), b("reset"),
            w("cand"), u("cand"), b("cand"),
        )

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], prefix: str) -> "GruCellParams":
        """Cell whose parameters are the arrays `{prefix}.<tag>` (not copies);
        widths come from their shapes."""
        names = [f"{prefix}.{tag}" for tag in _GRU_TAGS]
        params = [parameter(tensors[name], name) for name in names]
        input_size, hidden_size = params[0].data.shape
        return cls(input_size, hidden_size, *params)

    def tensors(self) -> dict[str, Tensor]:
        return {getattr(self, tag).name: getattr(self, tag) for tag in _GRU_TAGS}


class GruCache(NamedTuple):
    """What one cell update keeps for its backward: the previous memory,
    the update and reset gates, reset * memory, the candidate and 1 - update."""

    h: np.ndarray
    u: np.ndarray
    r: np.ndarray
    rh: np.ndarray
    c: np.ndarray
    omu: np.ndarray


def gru_input_proj(p: GruCellParams, x: np.ndarray):
    """The update, reset and candidate input projections x @ W of a
    (batch, input) array or a (T, batch, input) stack."""
    return x @ p.w_update.data, x @ p.w_reset.data, x @ p.w_cand.data


def gru_cell(p: GruCellParams, xw, h: np.ndarray):
    """h_t = (1 - u) * h_prev + u * candidate on (batch, width) arrays.

    `xw` is this step's `gru_input_proj` (2-d, or one slice of a stack);
    each gate pre-activation adds it, the recurrent product and the bias in
    that order. Returns (h_t, GruCache). Call it inside
    `np.errstate(over="ignore")`: a saturated gate overflows exp.
    """
    xu, xr, xc = xw
    u = _sigmoid_np(xu + h @ p.u_update.data + p.b_update.data)
    r = _sigmoid_np(xr + h @ p.u_reset.data + p.b_reset.data)
    rh = r * h
    c = np.tanh(xc + rh @ p.u_cand.data + p.b_cand.data)
    omu = 1.0 - u
    return omu * h + u * c, GruCache(h, u, r, rh, c, omu)


def gru_unroll(p: GruCellParams, x: np.ndarray, h: np.ndarray):
    """Run the cell over a (T, batch, input) stack from (batch, hidden)
    memory `h`.

    Returns the (T + 1, batch, hidden) memory stack, whose first slice is
    `h`, and the T per-step caches.
    """
    xw = gru_input_proj(p, x)
    hs = np.empty((x.shape[0] + 1, *h.shape))
    hs[0] = h
    caches = []
    with np.errstate(over="ignore"):
        for t in range(x.shape[0]):
            h, cache = gru_cell(p, (xw[0][t], xw[1][t], xw[2][t]), h)
            hs[t + 1] = h
            caches.append(cache)
    return hs, caches


def gru_cell_backward(p: GruCellParams, cache: GruCache, g: np.ndarray, need_h: bool = True):
    """Hand-written backward of `gru_cell` for upstream gradient g = dL/dh_t.

    Returns (da, dh parts): da = (da_u, da_r, da_c) are the gradients of
    the update, reset and candidate pre-activations, which
    `gru_input_grads` (one step or stacked) and `gru_param_grads` (one
    step or merged rows) take. The previous memory's gradient comes as
    separate parts, in the order the unfused composition of primitive ops
    adds them up; summing the parts left to right (after anything a later
    consumer of the same tensor already added) reproduces that
    composition's gradient bit for bit. The part list is empty when
    `need_h` is off.
    """
    h, u, r, _rh, c, omu = cache
    du = g * c + -(g * h)
    da_c = g * u * (1.0 - c * c)
    drh = da_c @ p.u_cand.data.T
    da_r = drh * h * r * (1.0 - r)
    da_u = du * u * (1.0 - u)
    dh = [g * omu, drh * r, da_r @ p.u_reset.data.T, da_u @ p.u_update.data.T] if need_h else []
    return (da_u, da_r, da_c), dh


def gru_input_grads(p: GruCellParams, da) -> list[np.ndarray]:
    """The input gradient's parts, to be summed left to right like the
    memory's; `da` as from `gru_cell_backward`, one step or stacked."""
    da_u, da_r, da_c = da
    return [da_c @ p.w_cand.data.T, da_r @ p.w_reset.data.T, da_u @ p.w_update.data.T]


def gru_param_grads(x: np.ndarray, h: np.ndarray, rh: np.ndarray, da) -> list[np.ndarray]:
    """Parameter gradients in `GruCellParams.tensors()` order, from a
    (rows, width) input, previous memory, reset * memory and `da`: one
    step's batch, or all steps' rows merged, which sums over the steps."""
    da_u, da_r, da_c = da
    return [x.T @ da_u, h.T @ da_u, da_u.sum(axis=0),
            x.T @ da_r, h.T @ da_r, da_r.sum(axis=0),
            x.T @ da_c, rh.T @ da_c, da_c.sum(axis=0)]


def gru_step(params: GruCellParams, x_t, h_prev) -> Tensor:
    """One recurrent step: h_t = (1 - u) * h_prev + u * candidate.

    With all-zero parameters the update gate sits at 0.5 and the candidate
    at 0, so h_t = 0.5 * h_prev. Inputs are (batch, input_size) and
    (batch, hidden_size); plain 1-d arrays are promoted to a single row.
    Records one tape node whose backward is `gru_cell_backward` and the
    gradient helpers. The node keeps the previous memory, the two gates and
    the candidate, and rebuilds the rest of `GruCache` when its backward
    runs.
    """
    if not isinstance(x_t, Tensor):
        x_t = Tensor(np.atleast_2d(np.asarray(x_t, dtype=np.float64)))
    if not isinstance(h_prev, Tensor):
        h_prev = Tensor(np.atleast_2d(np.asarray(h_prev, dtype=np.float64)))
    if x_t.data.ndim != 2 or h_prev.data.ndim != 2:
        raise ShapeError("gru tensors must be 2-d (batch, width)")
    if x_t.data.shape[1] != params.input_size:
        raise ShapeError(f"gru input width {x_t.data.shape[1]} != {params.input_size}")
    if h_prev.data.shape[1] != params.hidden_size:
        raise ShapeError(f"gru hidden width {h_prev.data.shape[1]} != {params.hidden_size}")

    weights = tuple(params.tensors().values())
    with np.errstate(over="ignore"):
        data, (h, u, r, _rh, c, _omu) = gru_cell(params, gru_input_proj(params, x_t.data),
                                                 h_prev.data)

    def backward(g):
        # reset * memory and 1 - update by `gru_cell`'s own expressions
        cache = GruCache(h, u, r, r * h, c, 1.0 - u)
        da, dh = gru_cell_backward(params, cache, g, h_prev.requires_grad)
        for w, d in zip(weights, gru_param_grads(x_t.data, h, cache.rh, da)):
            if w.requires_grad:
                _accum(w, d)
        if x_t.requires_grad:
            for d in gru_input_grads(params, da):
                _accum(x_t, d)
        for d in dh:
            _accum(h_prev, d)

    return _node(data, (x_t, h_prev, *weights), backward)

