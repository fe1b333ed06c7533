"""The walk, WL, deep and gated walk kernels by dynamic programming on the product graph.

The oracles in :mod:`kernelnn.graph_kernel` enumerate every pair of n-node walks and multiply,
position by position, a node-pair weight: the feature dot ``W[a, b] = <f_a, f_b>`` (walk), or
that times ``sigmoid(u [f_a ; f_b] + b)`` per coordinate (gated).  A walk pair is a walk on the
product graph, so the same sum is its walk recursion (Vishwanathan et al. 2010, "Graph
Kernels"), ``_walks``: ``K_1 = W``, ``K_j = W * A1 K_{j-1} A2^T`` with ``A[v, u] = 1`` per step
u -> v, summed at j = n (times ``lam**(n-1)`` for walk).  WL runs it on a table per relabeling
0..L, relabeled with the oracle's own products and sums; deep runs ``K_j = E_j * (B + lam A1 K_{j-1}
A2^T)`` (additive) on the level below's last table ``B``, ``E_j`` marking where walks of j
nodes end in both graphs.  There is no size, order or depth guard, and no oracle code is used.

Up to ``DENSE_NODES`` nodes a graph steps by a ``dot`` with its 0/1 matrix, past them by a
``reduceat`` over its edges (the last bit may differ): numpy's ``longdouble`` loops are not
BLAS, so the matrix stops paying near 24 nodes.  Both are built per call, as
``FeatureGraph.adjacency`` would be for graphs seen once.  The tables are kept in
``longdouble`` and the last one is summed exactly, so a value stays within a few units of
``eps`` times the terms' absolute sum of the exact kernel even where the terms cancel.  Where
``longdouble`` is a plain double this is a float64 DP.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ShapeError
from .inputs import MULTIPLICATIVE, FeatureGraph, GraphKernelConfig, WLRelabelParams
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


def _walks(g1: FeatureGraph, g2: FeatureGraph, n: int, first: np.ndarray, step) -> np.ndarray:
    """The last table of ``K_1 = first``, ``K_{j+1} = step(j, A1 K_j A2^T)`` for j < n."""
    for dense in (DENSE_NODES, 0):  # a 0/1 product adds 0 * inf = nan where no step leaves
        along1, along2, k = _neighbor_sum(g1, 1, dense), _neighbor_sum(g2, 2, dense), first
        for j in range(1, n):
            k = step(j, along2(along1(k)))
        if not np.isnan(k).any():
            break
    return k


def _exact_sums(k: np.ndarray) -> np.ndarray:
    """Each (N1, N2) slice's sum, rounded once to float64."""
    # each extended entry is exactly its nearest double plus a double remainder,
    # so fsum rounds their exact sum once; an entry beyond the double range is inf
    hi = k.astype(np.float64)
    lo = np.where(np.isinf(hi), 0.0, k - hi).astype(np.float64)
    return np.array([math.fsum(v.ravel().tolist()) for v in np.concatenate([hi, lo], axis=1)])


def _check(g1: FeatureGraph, g2: FeatureGraph, n: int) -> None:
    if g1.dim != g2.dim:
        raise ShapeError(f"feature dims differ: {g1.dim} vs {g2.dim}")
    if n < 1:
        raise ContractError(f"walk order must be >= 1, got {n}")


def _walk_sums(g1: FeatureGraph, g2: FeatureGraph, dots: list, cfg: GraphKernelConfig) -> list:
    """``lam**(n-1)`` times the exact walk sum of each (N1, N2) table of node-pair dots."""
    w, decay = np.array(dots, dtype=np.longdouble), float(cfg.lam) ** (cfg.n - 1)
    return [decay * float(v) for v in _exact_sums(_walks(g1, g2, cfg.n, w, lambda j, s: w * s))]


def random_walk_kernel(g1: FeatureGraph, g2: FeatureGraph, cfg: GraphKernelConfig) -> float:
    """Common walks: decay**(edges) times the walk-pair products of node dots."""
    _check(g1, g2, cfg.n)
    return _walk_sums(g1, g2, [g1.matrix @ g2.matrix.T], cfg)[0]  # the dots as the oracle's


def wl_kernel(g1: FeatureGraph, g2: FeatureGraph, cfg: GraphKernelConfig, depth: int,
              relabel: WLRelabelParams) -> float:
    """Sum of the walk kernel over relabeling iterations 0..depth, in float64 and in order."""
    if depth < 0:
        raise ContractError(f"depth must be >= 0, got {depth}")
    _check(g1, g2, cfg.n)
    # both graphs relabel as one: per node, act(u1 f_v + u2 sum_{u -> v} act(v f_u)), with the
    # oracle's matrix-vector products and its neighbor sum, from 0 in ascending u, one add at a time
    n1, x = g1.num_nodes, np.concatenate([g1.matrix, g2.matrix])
    src, dst = (np.concatenate([e1, e2 + n1]) for e1, e2 in zip(g1.edge_arrays, g2.edge_arrays))
    dots = [x[:n1] @ x[n1:].T]
    for _ in range(depth):
        act, u1, u2, vm = relabel.checked(x.shape[1])
        inner, x = act(np.matmul(vm, x[:, :, None])), x[:, :, None]
        agg = np.zeros_like(inner)
        np.add.at(agg, dst, inner[src])
        x = act(np.matmul(u1, x) + np.matmul(u2, agg))[:, :, 0]
        dots.append(x[:n1] @ x[n1:].T)
    total = 0.0
    for value in _walk_sums(g1, g2, dots, cfg):  # one walk DP, a table per depth
        total += value
    return total


def deep_graph_kernel(g1: FeatureGraph, g2: FeatureGraph, cfg: GraphKernelConfig) -> float:
    """The stacked local kernel of ``cfg.depth`` levels, summed over all node pairs."""
    _check(g1, g2, cfg.n)
    ends = [np.ones((1, g1.num_nodes, g2.num_nodes), dtype=bool)]
    along1, along2 = _neighbor_sum(g1, 1, DENSE_NODES), _neighbor_sum(g2, 2, DENSE_NODES)
    for _ in range(cfg.n - 1):
        ends.append(along2(along1(ends[-1])) > 0)
    lam, mult = cfg.lam, cfg.composition == MULTIPLICATIVE
    k = (g1.matrix @ g2.matrix.T).astype(np.longdouble)[None]
    for _ in range(cfg.depth):
        k = _walks(g1, g2, cfg.n, k, lambda j, s, base=k: np.where(
            ends[j], base * (lam * s) if mult else base + lam * s, 0))
    return float(_exact_sums(k)[0])


def gated_random_walk_kernel(
    g1: FeatureGraph, g2: FeatureGraph, u: np.ndarray, b: np.ndarray, n: int
) -> np.ndarray:
    """Gate-weighted walk kernel, one value per gate coordinate: shape (m,)."""
    _check(g1, g2, n)
    u, b = np.asarray(u, dtype=np.longdouble), np.asarray(b, dtype=np.longdouble)
    if u.shape != (b.shape[0], 2 * g1.dim):
        raise ShapeError(f"gate weights must be {(b.shape[0], 2 * g1.dim)}, got {u.shape}")
    x1, x2 = (g.matrix.astype(np.longdouble) for g in (g1, g2))
    # (m, N1, N2): the gate of every node pair per coordinate, times the pair's feature dot
    z = u[:, :g1.dim].dot(x1.T)[:, :, None] + u[:, g1.dim:].dot(x2.T)[:, None, :] + b[:, None, None]
    w = _sigmoid_raw(z) * x1.dot(x2.T)
    return _exact_sums(_walks(g1, g2, n, w, lambda j, s: w * s))
