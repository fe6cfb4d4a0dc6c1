from .tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    backprop,
    bce_with_logits,
    gather_rows,
    linear,
    linear_softmax_cross_entropy,
    matmul,
    parameter,
    relu,
    softmax_cross_entropy,
    softmax_cross_entropy_np,
    softmax_np,
    sum_all,
    tanh,
    weighted_sq_error,
)
from .layers import (
    GruCellParams,
    Model,
    gru_cell,
    gru_cell_backward,
    gru_input_grads,
    gru_input_proj,
    gru_param_grads,
    gru_shapes,
    gru_step,
    gru_unroll,
    init_bias,
    init_params,
    init_weight,
)
from .optim import Adam
from .io import ArtifactError, load_params, save_params

__all__ = [
    "NonFiniteError", "ShapeError", "Tape", "Tensor", "backprop",
    "bce_with_logits", "gather_rows", "linear",
    "linear_softmax_cross_entropy", "matmul", "parameter", "relu",
    "softmax_cross_entropy", "softmax_cross_entropy_np", "softmax_np", "sum_all",
    "tanh", "weighted_sq_error", "GruCellParams", "Model",
    "gru_cell", "gru_cell_backward", "gru_input_grads", "gru_input_proj", "gru_param_grads",
    "gru_shapes", "gru_step", "gru_unroll", "init_bias", "init_params", "init_weight",
    "Adam", "ArtifactError", "load_params", "save_params",
]
