"""Small helpers that only tests use: a taped sum, a reference sigmoid and the text writers
and parser of one line."""

from pathlib import Path

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


def sigmoid_reference(z: np.ndarray) -> np.ndarray:
    """The logistic function as ``tensor._sigmoid_raw`` computed it with ``np.where``:
    exp of -|z| only, and 1/(1+e) for z >= 0, e/(1+e) below."""
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e)


def parse_graph_line(line: str, where: str) -> tuple[FeatureGraph, float | None]:
    """One graph-file line; a bad line is a DataError that starts with ``where``."""
    return _parse_graph_lines([(where, line)])[0]


def save_vocab(tokens, path) -> None:
    Path(path).write_text("\n".join(tokens) + "\n")


def format_graph_line(g: FeatureGraph, target: float | None = None) -> str:
    feats = " ; ".join(",".join(repr(float(x)) for x in f) for f in g.features)
    src, dst = g.edge_arrays
    keep = src <= dst  # each undirected edge once, as its step u -> v with u <= v
    edges = " ".join(f"{u}-{v}" for u, v in zip(src[keep].tolist(), dst[keep].tolist()))
    line = f"{g.num_nodes} | {feats} | {edges}"
    if target is not None:
        line += f" | {float(target)!r}"
    return line


def save_graphs(items, path) -> None:
    lines = [format_graph_line(g, t) for g, t in items]
    Path(path).write_text("\n".join(lines) + "\n")
