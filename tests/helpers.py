"""Small helpers that only tests use: a taped sum and a one-line graph parser."""

import numpy as np

from kernelnn.inputs import FeatureGraph
from kernelnn.io import _parse_graph_lines
from kernelnn.tensor import Tensor, emit


def tsum(a: Tensor) -> Tensor:
    """The sum of every entry as a 0-d tensor, recorded on the open tape."""
    shape = a.shape

    def bwd(g: np.ndarray):
        return (np.full(shape, float(g)),)

    return emit(np.sum(a.data), "sum", (a,), bwd)


def parse_graph_line(line: str, where: str) -> tuple[FeatureGraph, float | None]:
    """One graph-file line; a bad line is a DataError that starts with ``where``."""
    return _parse_graph_lines([(where, line)])[0]
