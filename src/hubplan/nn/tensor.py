"""Reverse-mode automatic differentiation over float64 numpy arrays.

A small tape-based engine. While a Tape is active, every operation records
its output node; backprop walks the tape once in reverse creation order
(creation order is already topological). With no active tape, operations
just compute values. Only training records on a tape (the hub and low-level
models); every inference path is plain numpy.

A node's backward is any closure that hands gradients to its parents with
`_accum`. Most ops here are one primitive each; a fused node (the gated
recurrent step in `layers.py`) runs a whole hand-written backward in one
call and passes each contribution to a parent separately, in the order the
unfused composition would, so its gradients are bit-identical to it.

Everything is float64. Tensor shapes are at most rank 2; broadcasting is
limited to the usual (B, n) + (n,) bias pattern. The plain-numpy softmax
helpers also take stacks of such batches along leading axes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "Tape",
    "Tensor",
    "parameter",
    "backprop",
    "matmul",
    "relu",
    "sigmoid",
    "tanh",
    "scale",
    "sum_all",
    "gather_rows",
    "softmax_cross_entropy",
    "softmax_cross_entropy_np",
    "bce_with_logits",
    "softmax_np",
]


class ShapeError(ValueError):
    """Operands with inconsistent shapes were rejected."""


class NonFiniteError(ValueError):
    """A value or gradient that must be finite was not."""


_ACTIVE: list["Tape"] = []


class Tape:
    """Ordered record of one forward computation.

    Nodes appear in creation order, so a single reverse sweep visits each
    node exactly once with all downstream gradients already accumulated.
    """

    def __init__(self) -> None:
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        if _ACTIVE:
            raise RuntimeError("nested tapes are not supported")
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _ACTIVE.pop()
        return False


def _tape() -> Tape | None:
    return _ACTIVE[-1] if _ACTIVE else None


class Tensor:
    __slots__ = ("data", "grad", "parents", "requires_grad", "name", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"tensor {name or ''} contains non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = ()
        self.requires_grad = requires_grad
        self.name = name
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.data.shape})"

    # arithmetic sugar; everything funnels into the recorded ops below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def parameter(data, name: str) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    t = Tensor.__new__(Tensor)
    t.data = np.asarray(x, dtype=np.float64)
    t.grad = None
    t.parents = ()
    t.requires_grad = False
    t.name = None
    t._backward = None
    return t


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.parents = parents
    out.requires_grad = any(p.requires_grad for p in parents)
    out.name = None
    out._backward = backward
    tape = _tape()
    if tape is not None:
        tape.nodes.append(out)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    # never mutate in place: upstream grads may alias pass-through buffers
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = _wrap(a)
    c = float(c)
    data = a.data * c

    def backward(g):
        if a.requires_grad:
            _accum(a, g * c)

    return _node(data, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _node(data, (a, b), backward)


def relu(a) -> Tensor:
    a = _wrap(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * (a.data > 0.0))

    return _node(data, (a,), backward)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function; saturates to exactly 0 or 1, where exp(-x)
    overflows. Callers enter `np.errstate(over="ignore")` once around
    their loop, not once per call."""
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    with np.errstate(over="ignore"):
        data = _sigmoid_np(a.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * data * (1.0 - data))

    return _node(data, (a,), backward)


def tanh(a) -> Tensor:
    a = _wrap(a)
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * (1.0 - data * data))

    return _node(data, (a,), backward)


def sum_all(a) -> Tensor:
    a = _wrap(a)
    data = np.asarray(a.data.sum())

    def backward(g):
        if a.requires_grad:
            _accum(a, np.broadcast_to(g, a.data.shape))

    return _node(data, (a,), backward)


def gather_rows(table: Tensor, idx) -> Tensor:
    """Row lookup table[idx] for an int index vector; scatter-add backward."""
    idx = np.asarray(idx, dtype=np.intp)
    data = table.data[idx]

    def backward(g):
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, idx, g)
            _accum(table, acc)

    return _node(data, (table,), backward)


def _masked_log_softmax_parts(x: np.ndarray):
    # over the last axis; rows with at least one finite entry assumed; exp(-inf) is an exact 0
    m = x.max(axis=-1, keepdims=True)
    shifted = x - m
    shifted[~np.isfinite(x)] = -np.inf
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    log_z = m + np.log(z)
    return e / z, log_z


def softmax_np(logits: np.ndarray, additive_mask: np.ndarray | None = None) -> np.ndarray:
    """Plain-numpy masked softmax over the last axis for inference paths.
    Masked entries get exact 0."""
    x = np.asarray(logits, dtype=np.float64)
    if additive_mask is not None:
        x = x + additive_mask
    probs, _ = _masked_log_softmax_parts(x)
    return probs


def softmax_cross_entropy_np(
    logits: np.ndarray,
    target_idx,
    additive_mask: np.ndarray | None = None,
    sample_weight: np.ndarray | None = None,
    label_smoothing: float = 0.0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Plain-numpy `softmax_cross_entropy`: (loss, d loss / d logits).

    The gradient is None when every sample weight is zero (the loss is 0).
    `logits` may also be a stack (T, n, k) of T independent batches, with
    (T, n) targets and weights: the loss is then the (T,) per-batch losses,
    each bit-identical to the 2-d call on its slice, and every batch needs
    a positive weight. Logits must be finite; mask classes with
    `additive_mask`.
    """
    if not np.isfinite(logits).all():
        raise NonFiniteError("non-finite logits")
    k = logits.shape[-1]
    x = logits if additive_mask is None else logits + additive_mask
    valid = np.isfinite(x)
    if not valid.any(axis=-1).all():
        raise ShapeError("softmax row with every class masked")
    probs, log_z = _masked_log_softmax_parts(x)

    # every row's target entry, through (rows, k) views of the fresh arrays
    target = (np.arange(logits.size // k), np.asarray(target_idx, dtype=np.intp).ravel())
    q = np.zeros(logits.shape, dtype=np.float64)
    q.reshape(-1, k)[target] = 1.0 - label_smoothing
    if label_smoothing > 0.0:
        q += valid * (label_smoothing / valid.sum(axis=-1, keepdims=True))
    if not valid.reshape(-1, k)[target].all():
        raise ShapeError("target class is masked out")

    if sample_weight is None:
        w = np.ones(logits.shape[:-1], dtype=np.float64)
    else:
        # contiguous rows, so each batch's sums run in the same order as a 2-d call's
        w = np.ascontiguousarray(sample_weight, dtype=np.float64)
    total = w.sum(axis=-1, keepdims=True)
    if not (total > 0.0).all():
        if logits.ndim == 2:
            return np.asarray(0.0), None
        raise ValueError("every batch of a stack needs a positive total sample weight")

    per_row = log_z[..., 0] - (q * np.where(valid, logits, 0.0)).sum(axis=-1)
    loss = (per_row * w).sum(axis=-1) / total[..., 0]
    return np.asarray(loss), (probs - q) * (w / total)[..., None]


def softmax_cross_entropy(
    logits: Tensor,
    target_idx,
    additive_mask: np.ndarray | None = None,
    sample_weight: np.ndarray | None = None,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Weighted-mean cross-entropy of softmax(logits [+ mask]) against class ids.

    `additive_mask` holds 0 for allowed classes and -inf for disallowed ones;
    masked classes receive exactly zero probability. Label smoothing spreads
    mass only over allowed classes. `sample_weight` (per row, nonnegative)
    lets callers mask padded timesteps; loss is normalized by the weight sum.
    """
    data, dlogits = softmax_cross_entropy_np(logits.data, target_idx, additive_mask,
                                             sample_weight, label_smoothing)

    def backward(g):
        if dlogits is not None and logits.requires_grad:
            _accum(logits, dlogits * g)

    return _node(data, (logits,), backward)


def bce_with_logits(logits: Tensor, targets, sample_weight: np.ndarray | None = None) -> Tensor:
    """Stable elementwise binary cross-entropy, weighted-mean over rows."""
    t = np.asarray(targets, dtype=np.float64)
    x = logits.data
    n = x.shape[0]
    w = np.ones(n, dtype=np.float64) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    total = w.sum() * x.shape[1]
    if total <= 0.0:
        return _node(np.asarray(0.0), (logits,), lambda g: None)

    per = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    data = np.asarray((per * w[:, None]).sum() / total)
    with np.errstate(over="ignore"):
        sig = _sigmoid_np(x)

    def backward(g):
        if logits.requires_grad:
            _accum(logits, (sig - t) * (w[:, None] / total) * g)

    return _node(data, (logits,), backward)


def backprop(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Gradient of a scalar loss w.r.t. every parameter reachable on the tape.

    Returns a map keyed by the parameter Tensor objects. Grad buffers on the
    tape are cleared afterwards so repeated calls never leak accumulation.
    """
    if loss.data.shape != ():
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    for node in tape.nodes:
        node.grad = None

    params: list[Tensor] = []
    seen: set[int] = set()
    for node in tape.nodes:
        for p in node.parents:
            if p.requires_grad and p._backward is None and id(p) not in seen:
                seen.add(id(p))
                params.append(p)
                p.grad = None

    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        if node.grad is None or node._backward is None:
            continue
        node._backward(node.grad)

    grads = {p: p.grad for p in params if p.grad is not None}
    for node in tape.nodes:
        node.grad = None
    for p in params:
        p.grad = None
    return grads
