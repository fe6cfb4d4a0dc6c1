from .tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    backprop,
    bce_with_logits,
    gather_rows,
    matmul,
    parameter,
    relu,
    sigmoid,
    softmax_cross_entropy,
    softmax_cross_entropy_np,
    softmax_np,
    sum_all,
    tanh,
)
from .layers import (
    GruCellParams,
    finite_diff_check,
    finite_diff_error,
    gru_cell,
    gru_cell_backward,
    gru_input_grads,
    gru_input_proj,
    gru_param_grads,
    gru_step,
    init_bias,
    init_weight,
)
from .optim import Adam
from .io import ArtifactError, load_params, save_params

__all__ = [
    "NonFiniteError", "ShapeError", "Tape", "Tensor", "backprop",
    "bce_with_logits", "gather_rows", "matmul", "parameter", "relu",
    "sigmoid", "softmax_cross_entropy", "softmax_cross_entropy_np", "softmax_np", "sum_all",
    "tanh", "GruCellParams", "finite_diff_check", "finite_diff_error",
    "gru_cell", "gru_cell_backward", "gru_input_grads", "gru_input_proj", "gru_param_grads",
    "gru_step", "init_bias", "init_weight",
    "Adam", "ArtifactError", "load_params", "save_params",
]
