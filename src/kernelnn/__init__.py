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
from .graph_nn import GraphModelConfig, graph_forward, init_graph, wl_forward
from .inputs import FeatureGraph, FeatureSequence, GraphKernelConfig, SeqKernelConfig
from .seq_kernel import gram_matrix, string_kernel
from .seq_nn import SeqModelConfig, forward_stack, init_seq_stack
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
    "init_seq_stack",
    "forward_stack",
    "FeatureGraph",
    "GraphKernelConfig",
    "random_walk_kernel",
    "wl_kernel",
    "GraphModelConfig",
    "init_graph",
    "graph_forward",
    "wl_forward",
    "KernelNNError",
    "ShapeError",
    "ContractError",
    "ConfigError",
    "GuardError",
    "DataError",
    "EvaluationError",
]
