"""Finite-difference gradient checks: the reference that the tape's and the
hand-written gradients are compared against. Only tests call them."""

from __future__ import annotations

import numpy as np

from hubplan.nn import NonFiniteError, Tape, Tensor, backprop


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
