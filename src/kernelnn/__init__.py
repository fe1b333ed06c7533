"""Kernel-derived recurrent modules with brute-force kernel oracles."""

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    EvaluationError,
    GuardError,
    KernelNNError,
    ShapeError,
)
from .graph_kernel import random_walk_kernel, wl_kernel
from .graph_nn import GraphModelConfig, rw_forward, wl_forward
from .inputs import FeatureGraph, FeatureSequence, GraphKernelConfig, SeqKernelConfig
from .seq_kernel import gram_matrix, string_kernel
from .seq_nn import SeqModelConfig, forward_layer, forward_stack
from .tensor import Activation, Tape, Tensor, finite_diff_grad, rel_error

__all__ = [
    "Activation",
    "Tape",
    "Tensor",
    "finite_diff_grad",
    "rel_error",
    "FeatureSequence",
    "SeqKernelConfig",
    "string_kernel",
    "gram_matrix",
    "SeqModelConfig",
    "forward_layer",
    "forward_stack",
    "FeatureGraph",
    "GraphKernelConfig",
    "random_walk_kernel",
    "wl_kernel",
    "GraphModelConfig",
    "rw_forward",
    "wl_forward",
    "KernelNNError",
    "ShapeError",
    "ContractError",
    "ConfigError",
    "GuardError",
    "DataError",
    "EvaluationError",
]
