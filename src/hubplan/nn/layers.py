"""Dense and gated-recurrent building blocks on top of the tape engine.

The gated recurrent step is written once as plain numpy (`gru_forward`,
`gru_backward`). `gru_step` records it on the tape as a single node, and
callers that run their own backward pass (the edge policies) use the two
helpers directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    _accum,
    _node,
    _sigmoid_np,
    backprop,
    parameter,
)

__all__ = ["init_weight", "GruCellParams", "gru_forward", "gru_backward", "gru_step",
           "finite_diff_check", "finite_diff_error"]

_GRU_TAGS = ("w_update", "u_update", "b_update", "w_reset", "u_reset", "b_reset",
             "w_cand", "u_cand", "b_cand")


def init_weight(rng: np.random.Generator, fan_in: int, fan_out: int, name: str) -> Tensor:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weight matrix."""
    bound = 1.0 / np.sqrt(fan_in)
    return parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)), name)


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


def gru_forward(p: GruCellParams, x: np.ndarray, h: np.ndarray):
    """h_t = (1 - u) * h_prev + u * candidate on (batch, width) arrays.

    Returns (h_t, cache); `gru_backward` takes the cache.
    """
    u = _sigmoid_np(x @ p.w_update.data + h @ p.u_update.data + p.b_update.data)
    r = _sigmoid_np(x @ p.w_reset.data + h @ p.u_reset.data + p.b_reset.data)
    rh = r * h
    c = np.tanh(x @ p.w_cand.data + rh @ p.u_cand.data + p.b_cand.data)
    omu = 1.0 - u
    return omu * h + u * c, (x, h, u, r, rh, c, omu)


def gru_backward(p: GruCellParams, cache, g: np.ndarray, need_x: bool = True,
                 need_h: bool = True):
    """Hand-written backward of `gru_forward` for upstream gradient g = dL/dh_t.

    Returns (dx parts, dh parts, parameter gradients in `tensors()` order).
    The input and hidden gradients come as separate parts, in the order the
    unfused composition of primitive ops adds them up; summing the parts
    left to right (after anything a later consumer of the same tensor
    already added) reproduces that composition's gradient bit for bit.
    A part list is empty when its `need_*` flag is off.
    """
    x, h, u, r, rh, c, omu = cache
    # da_*: gradients of the update, reset and candidate pre-activations
    du = g * c + -(g * h)
    da_c = g * u * (1.0 - c * c)
    drh = da_c @ p.u_cand.data.T
    da_r = drh * h * r * (1.0 - r)
    da_u = du * u * (1.0 - u)
    dparams = [x.T @ da_u, h.T @ da_u, da_u.sum(axis=0),
               x.T @ da_r, h.T @ da_r, da_r.sum(axis=0),
               x.T @ da_c, rh.T @ da_c, da_c.sum(axis=0)]
    dx, dh = [], []
    if need_x:
        dx = [da_c @ p.w_cand.data.T, da_r @ p.w_reset.data.T, da_u @ p.w_update.data.T]
    if need_h:
        dh = [g * omu, drh * r, da_r @ p.u_reset.data.T, da_u @ p.u_update.data.T]
    return dx, dh, dparams


def gru_step(params: GruCellParams, x_t, h_prev) -> Tensor:
    """One recurrent step: h_t = (1 - u) * h_prev + u * candidate.

    With all-zero parameters the update gate sits at 0.5 and the candidate
    at 0, so h_t = 0.5 * h_prev. Inputs are (batch, input_size) and
    (batch, hidden_size); plain 1-d arrays are promoted to a single row.
    Records one tape node whose backward is `gru_backward`.
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
    data, cache = gru_forward(params, x_t.data, h_prev.data)

    def backward(g):
        dx, dh, dparams = gru_backward(params, cache, g, x_t.requires_grad, h_prev.requires_grad)
        for w, d in zip(weights, dparams):
            if w.requires_grad:
                _accum(w, d)
        for d in dx:
            _accum(x_t, d)
        for d in dh:
            _accum(h_prev, d)

    return _node(data, (x_t, h_prev, *weights), backward)


def finite_diff_check(f, params: list[Tensor], h: float = 1e-5) -> float:
    """Max relative error between tape gradients of f() and central differences.

    `f` rebuilds the scalar loss tensor from the current parameter values
    each call; see `finite_diff_error`.
    """
    with Tape() as tape:
        loss = f()
    if not np.isfinite(loss.data):
        raise NonFiniteError("loss is not finite")
    grads = backprop(tape, loss)
    return finite_diff_error(lambda: float(f().data), grads, params, h)


def finite_diff_error(loss_fn, grads: dict[Tensor, np.ndarray], params: list[Tensor],
                      h: float = 1e-5) -> float:
    """Max relative error between given gradients and central differences of loss_fn().

    `loss_fn` returns the scalar loss as a float from the current parameter
    values; `grads` maps parameters to their analytic gradients (missing
    means zero). Relative error per coordinate is
    |analytic - numeric| / max(1, |numeric|).
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    worst = 0.0
    for p in params:
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NonFiniteError("loss is not finite during finite differencing")
            numeric = (hi - lo) / (2.0 * h)
            err = abs(analytic.ravel()[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
