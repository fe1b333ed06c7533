"""The gated walk kernel by dynamic programming on the product graph.

The oracle in :mod:`kernelnn.graph_kernel` enumerates every pair of n-node
walks and multiplies, position by position, the node-pair weight

    W[a, b] = sigmoid(u [f_a ; f_b] + b) * <f_a, f_b>     (per coordinate k).

A walk pair is a walk on the product graph, so the same sum is the product
graph's walk recursion (Vishwanathan et al. 2010, "Graph Kernels"): ``K_1 = W``,
``K_j = W * A1 K_{j-1} A2^T`` with ``A[v, u] = 1`` per step u -> v, summed at
j = n.  Up to ``DENSE_NODES`` nodes a graph steps by a ``dot`` with its 0/1
matrix, past them by a ``reduceat`` over its edges (the last bit may differ):
numpy's ``longdouble`` loops are not BLAS (``dot``'s beat ``matmul``'s here),
so the matrix stops paying near 24 nodes.  Both are built per call, as
``FeatureGraph.adjacency`` would be for graphs seen once.  No oracle code is used.

The tables are kept in ``longdouble`` and the last one is summed exactly: where
the walk-pair terms cancel to 2e-5 of their absolute sum, a float64 DP ends
2e-12 (relative) from the exact kernel and the oracle, which sums every term
exactly, 3e-13.  Where ``longdouble`` is a plain double this is a float64 DP.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ShapeError
from .inputs import FeatureGraph
from .tensor import _sigmoid_raw

DENSE_NODES = 24  # the measured crossover


def _neighbor_sum(g: FeatureGraph, axis: int, dense: int):
    """``f(k)`` adds into entry v along ``axis`` of an (m, N1, N2) table its entries u -> v."""
    (src, dst), n = g.edge_arrays, g.num_nodes
    if n <= dense:
        a = np.bincount(dst * n + src, minlength=n * n).reshape(n, n).astype(np.longdouble)
        return (lambda k: a.dot(k).swapaxes(0, 1)) if axis == 1 else (lambda k: k.dot(a.T))
    starts = np.flatnonzero(np.diff(dst, prepend=-1))  # where each destination's steps begin

    def f(k):
        rows, out = k.swapaxes(1, axis), np.zeros_like(k)
        out.swapaxes(1, axis)[:, dst[starts]] = np.add.reduceat(rows[:, src], starts, axis=1)
        return out
    return f


def gated_random_walk_kernel(
    g1: FeatureGraph, g2: FeatureGraph, u: np.ndarray, b: np.ndarray, n: int
) -> np.ndarray:
    """Gate-weighted walk kernel, one value per gate coordinate: shape (m,)."""
    if g1.dim != g2.dim:
        raise ShapeError(f"feature dims differ: {g1.dim} vs {g2.dim}")
    if n < 1:
        raise ContractError(f"walk order must be >= 1, got {n}")
    u, b = np.asarray(u, dtype=np.longdouble), np.asarray(b, dtype=np.longdouble)
    if u.shape != (b.shape[0], 2 * g1.dim):
        raise ShapeError(f"gate weights must be {(b.shape[0], 2 * g1.dim)}, got {u.shape}")
    x1, x2 = (g.matrix.astype(np.longdouble) for g in (g1, g2))
    # (m, N1, N2): the gate of every node pair per coordinate, times the pair's feature dot
    z = u[:, :g1.dim].dot(x1.T)[:, :, None] + u[:, g1.dim:].dot(x2.T)[:, None, :] + b[:, None, None]
    w = _sigmoid_raw(z) * x1.dot(x2.T)
    for dense in (DENSE_NODES, 0):  # a 0/1 product adds 0 * inf = nan where no step leaves
        along1, along2, k = _neighbor_sum(g1, 1, dense), _neighbor_sum(g2, 2, dense), w
        for _ in range(n - 1):
            k = w * along2(along1(k))
        if not np.isnan(k).any():
            break
    # each extended entry is exactly its nearest double plus a double remainder,
    # so fsum rounds their exact sum once; an entry beyond the double range is inf
    hi = k.astype(np.float64)
    lo = np.where(np.isinf(hi), 0.0, k - hi).astype(np.float64)
    return np.array([math.fsum(v.ravel().tolist()) for v in np.concatenate([hi, lo], axis=1)])
