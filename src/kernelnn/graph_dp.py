"""The gated walk kernel by dynamic programming on the product graph.

The oracle in :mod:`kernelnn.graph_kernel` enumerates every pair of n-node
walks and multiplies, position by position, the node-pair weight

    W[a, b] = sigmoid(u [f_a ; f_b] + b) * <f_a, f_b>     (per coordinate k).

A walk pair is a walk on the product graph, so the same sum is the product
graph's walk recursion (Vishwanathan et al. 2010, "Graph Kernels"):
``K_1 = W`` and ``K_j = W * S(K_{j-1})``, where ``S(K)[a, b]`` sums
``K[a', b']`` over the steps a' -> a of the first graph and b' -> b of the
second.  The value is the sum of ``K_n``.  ``S`` is taken as two neighbor
sums over the graphs' edge arrays, one along each graph, so memory is
O(N1·N2·m) and no adjacency or product-graph matrix is formed.  Nothing is
shared with the oracle, which stays an independent referee.

The tables are kept in numpy's extended precision (``longdouble``) and the
last one is summed exactly.  The walk-pair terms can cancel: on pairs whose
sum of absolute terms is 5e4 times the kernel, a float64 table rounds each
entry and its sums, and ends 2e-12 (relative) away from the exact kernel,
where the oracle, which forms each term and then sums them all exactly, is
within 3e-13.  Where ``longdouble`` is a plain double this is a float64 DP.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ShapeError
from .inputs import FeatureGraph, Segments
from .tensor import _sigmoid_raw


def gated_random_walk_kernel(
    g1: FeatureGraph, g2: FeatureGraph, u: np.ndarray, b: np.ndarray, n: int
) -> np.ndarray:
    """Gate-weighted walk kernel, one value per gate coordinate: shape (m,)."""
    if g1.dim != g2.dim:
        raise ShapeError(f"feature dims differ: {g1.dim} vs {g2.dim}")
    if n < 1:
        raise ContractError(f"walk order must be >= 1, got {n}")
    u, b = np.asarray(u, dtype=np.longdouble), np.asarray(b, dtype=np.longdouble)
    d = g1.dim
    if u.shape != (b.shape[0], 2 * d):
        raise ShapeError(f"gate weights must be {(b.shape[0], 2 * d)}, got {u.shape}")
    x1, x2 = (g.matrix.astype(np.longdouble) for g in (g1, g2))
    # (N1, N2, m): the gate of every node pair per coordinate, times the pair's feature dot
    z = (x1 @ u[:, :d].T)[:, None, :] + (x2 @ u[:, d:].T)[None, :, :] + b
    w = _sigmoid_raw(z) * (x1 @ x2.T)[:, :, None]
    # into.sum(k[src])[a] sums k[a'] over the steps a' -> a: one Segments per graph and pair
    into1, into2 = (Segments(g.edge_arrays[1], g.num_nodes) for g in (g1, g2))
    k = w
    for _ in range(n - 1):
        along1 = into1.sum(k[g1.edge_arrays[0]]).swapaxes(0, 1)
        k = w * into2.sum(along1[g2.edge_arrays[0]]).swapaxes(0, 1)
    # each extended entry is exactly its nearest double plus a double remainder,
    # so fsum rounds their exact sum once; an entry beyond the double range is inf
    hi = k.astype(np.float64)
    lo = np.where(np.isinf(hi), 0.0, k - hi).astype(np.float64)
    return np.array([math.fsum(np.concatenate([hi[:, :, c].ravel(), lo[:, :, c].ravel()]))
                     for c in range(k.shape[2])])
