"""Brute-force graph kernels: walk enumeration, local recursions, relabeling.

Walk order is counted in nodes (an order-n walk visits n nodes over n-1
edges) and the decay contributes one factor per edge.  All kernels here are
exhaustive enumerations or direct recursions, guarded against blowup, and
serve as ground truth for :mod:`kernelnn.graph_nn`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, GuardError, ShapeError
from .inputs import MULTIPLICATIVE, FeatureGraph, GraphKernelConfig, _feature_matrix
from .seq_kernel import decay_pow

MAX_ORACLE_NODES = 8
MAX_ORACLE_WALK = 4
MAX_ORACLE_DEPTH = 256  # one nested call per level; the stack ran out between 700 and 1 000


def permute_graph(g: FeatureGraph, perm: Sequence[int]) -> FeatureGraph:
    """Relabel node indices: old node i becomes perm[i]."""
    n = g.num_nodes
    if sorted(perm) != list(range(n)):
        raise ContractError(f"perm must be a permutation of range({n})")
    p = np.asarray(perm, dtype=np.intp)
    src, dst = g.edge_arrays
    return FeatureGraph(g.matrix[np.argsort(p)], np.column_stack([p[src], p[dst]]))


def _guard(g: FeatureGraph, n: int) -> None:
    if g.num_nodes > MAX_ORACLE_NODES:
        raise GuardError(f"oracle refuses graphs above {MAX_ORACLE_NODES} nodes, got {g.num_nodes}")
    if n > MAX_ORACLE_WALK:
        raise GuardError(f"oracle refuses walk order above {MAX_ORACLE_WALK}, got {n}")


def _check_local(g1: FeatureGraph, g2: FeatureGraph, cfg: GraphKernelConfig) -> None:
    """Refuse a pair the local recursions cannot score within the guards."""
    _guard(g1, cfg.n)
    _guard(g2, cfg.n)
    if g1.dim != g2.dim:
        raise ShapeError(f"feature dims differ: {g1.dim} vs {g2.dim}")


def enumerate_walks(g: FeatureGraph, n: int) -> list[tuple[int, ...]]:
    """All node-index tuples of n-node walks; nodes may repeat."""
    if n < 1:
        raise ContractError(f"walk order must be >= 1, got {n}")
    _guard(g, n)
    succ: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for u, v in zip(*(a.tolist() for a in g.edge_arrays)):
        succ[u].append(v)  # the steps ascend by v, so each list does too
    walks: list[tuple[int, ...]] = [(v,) for v in range(g.num_nodes)]
    for _ in range(n - 1):
        walks = [w + (v,) for w in walks for v in succ[w[-1]]]
    return walks


def random_walk_kernel(g1: FeatureGraph, g2: FeatureGraph, cfg: GraphKernelConfig) -> float:
    """Count common walks: decay**(edges) times the walk-pair products of node dots."""
    if g1.dim != g2.dim:
        raise ShapeError(f"feature dims differ: {g1.dim} vs {g2.dim}")
    n = cfg.n
    w1 = enumerate_walks(g1, n)
    w2 = enumerate_walks(g2, n)
    if not w1 or not w2:
        return 0.0
    dots = g1.matrix @ g2.matrix.T
    a1 = np.array(w1, dtype=np.intp)
    a2 = np.array(w2, dtype=np.intp)
    gathered = dots[a1[:, None, :], a2[None, :, :]]
    # fsum is exactly rounded, so the result is independent of walk/node order
    return decay_pow(cfg.lam, n - 1) * math.fsum(gathered.prod(axis=2).ravel())


def local_kernel(
    v: int,
    vp: int,
    g1: FeatureGraph,
    g2: FeatureGraph,
    cfg: GraphKernelConfig,
    _memo: dict | None = None,
) -> float:
    """Per-node-pair recursive similarity; its double sum over nodes is the walk kernel."""
    _check_local(g1, g2, cfg)
    memo: dict = {} if _memo is None else _memo

    def rec(order: int, a: int, b: int) -> float:
        key = (order, a, b)
        if key in memo:
            return memo[key]
        base = float(np.dot(g1.features[a], g2.features[b]))
        if order == 1:
            memo[key] = base
            return base
        agg = cfg.lam * math.fsum(
            rec(order - 1, u, up) for u in g1.neighbors[a] for up in g2.neighbors[b]
        )
        val = base * agg if cfg.composition == MULTIPLICATIVE else base + agg
        memo[key] = val
        return val

    return rec(cfg.n, v, vp)


def local_kernel_sum(g1: FeatureGraph, g2: FeatureGraph, cfg: GraphKernelConfig) -> float:
    memo: dict = {}
    return math.fsum(
        local_kernel(v, vp, g1, g2, cfg, _memo=memo)
        for v in range(g1.num_nodes)
        for vp in range(g2.num_nodes)
    )


def _walk_ends(g: FeatureGraph, n: int) -> list[list[bool]]:
    """``ends[k][v]``: whether some walk of k + 1 nodes ends at v, for k < n."""
    src, dst = g.edge_arrays
    ends = [np.ones(g.num_nodes, dtype=bool)]
    for _ in range(n - 1):
        ends.append(np.bincount(dst, weights=ends[-1][src], minlength=g.num_nodes) > 0)
    return [e.tolist() for e in ends]


class _DeepLocal:
    """Memoized depth/width recursion for the stacked local kernel.

    Node pairs with no walks of the required width are forced to zero so
    that the additive composition, too, only scores genuine walks.
    """

    def __init__(self, g1: FeatureGraph, g2: FeatureGraph, cfg: GraphKernelConfig) -> None:
        _check_local(g1, g2, cfg)
        if cfg.depth > MAX_ORACLE_DEPTH:
            raise GuardError(f"oracle refuses depth above {MAX_ORACLE_DEPTH}, got {cfg.depth}")
        self.g1, self.g2, self.cfg = g1, g2, cfg
        self.memo: dict = {}
        self.ends1, self.ends2 = _walk_ends(g1, cfg.n), _walk_ends(g2, cfg.n)

    def value(self, level: int, order: int, a: int, b: int) -> float:
        key = (level, order, a, b)
        if key in self.memo:
            return self.memo[key]
        if not (self.ends1[order - 1][a] and self.ends2[order - 1][b]):
            self.memo[key] = 0.0
            return 0.0
        if level == 1:
            base = float(np.dot(self.g1.features[a], self.g2.features[b]))
        else:
            base = self.value(level - 1, self.cfg.n, a, b)
        if order == 1:
            self.memo[key] = base
            return base
        agg = self.cfg.lam * math.fsum(
            self.value(level, order - 1, u, up)
            for u in self.g1.neighbors[a]
            for up in self.g2.neighbors[b]
        )
        val = base * agg if self.cfg.composition == MULTIPLICATIVE else base + agg
        self.memo[key] = val
        return val


def deep_local_kernel(
    v: int, vp: int, g1: FeatureGraph, g2: FeatureGraph, cfg: GraphKernelConfig
) -> float:
    return _DeepLocal(g1, g2, cfg).value(cfg.depth, cfg.n, v, vp)


def deep_graph_kernel(g1: FeatureGraph, g2: FeatureGraph, cfg: GraphKernelConfig) -> float:
    """Graph-level stacked kernel: double sum of the deep local kernel."""
    rec = _DeepLocal(g1, g2, cfg)
    return math.fsum(
        rec.value(cfg.depth, cfg.n, v, vp)
        for v in range(g1.num_nodes)
        for vp in range(g2.num_nodes)
    )


@dataclass(frozen=True)
class WLRelabelParams:
    u1: np.ndarray
    u2: np.ndarray
    v: np.ndarray
    activation: enum.Enum  # read by its value: "tanh" or "identity"


def wl_relabel(g: FeatureGraph, params: WLRelabelParams) -> FeatureGraph:
    """Replace each node feature by a transform of itself plus aggregated neighbors."""
    act = {"tanh": np.tanh, "identity": lambda z: z}.get(params.activation.value)
    if act is None:
        raise ContractError(f"relabel activation must be tanh or identity, "
                            f"got {params.activation.value!r}")
    u1 = np.asarray(params.u1, dtype=np.float64)
    u2 = np.asarray(params.u2, dtype=np.float64)
    vm = np.asarray(params.v, dtype=np.float64)
    d = g.dim
    if u1.shape[1] != d or vm.shape[1] != d or u2.shape[1] != vm.shape[0] or u1.shape[0] != u2.shape[0]:
        raise ShapeError(
            f"relabel shapes inconsistent: u1 {u1.shape}, u2 {u2.shape}, v {vm.shape}, features ({d},)"
        )
    inner = [act(vm @ f) for f in g.features]
    new_feats = []
    for v_idx in range(g.num_nodes):
        agg = np.zeros(vm.shape[0])
        for u in g.neighbors[v_idx]:
            agg += inner[u]
        new_feats.append(act(u1 @ g.features[v_idx] + u2 @ agg))
    return object.__new__(FeatureGraph)._adopt(_feature_matrix(new_feats), g.edge_arrays, g.sizes)


def wl_kernel(
    g1: FeatureGraph,
    g2: FeatureGraph,
    cfg: GraphKernelConfig,
    depth: int,
    relabel: WLRelabelParams,
) -> float:
    """Sum of the base walk kernel over relabeling iterations 0..depth."""
    if depth < 0:
        raise ContractError(f"depth must be >= 0, got {depth}")
    total = 0.0
    a, b = g1, g2
    for i in range(depth + 1):
        total += random_walk_kernel(a, b, cfg)
        if i < depth:
            a = wl_relabel(a, relabel)
            b = wl_relabel(b, relabel)
    return total


def gate_values(fu: np.ndarray, fv: np.ndarray, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-coordinate decay for the step from node feature fu to fv."""
    z = np.asarray(u, dtype=np.float64) @ np.concatenate([fu, fv]) + np.asarray(b, dtype=np.float64)
    e = np.exp(-np.abs(z))  # a non-positive exponent, so nothing overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def gated_random_walk_kernel(
    g1: FeatureGraph, g2: FeatureGraph, u: np.ndarray, b: np.ndarray, n: int
) -> np.ndarray:
    """Gate-weighted walk kernel with a gate at every position, paired across graphs."""
    if g1.dim != g2.dim:
        raise ShapeError(f"feature dims differ: {g1.dim} vs {g2.dim}")
    w1 = enumerate_walks(g1, n)
    w2 = enumerate_walks(g2, n)
    m = np.asarray(b).shape[0]
    terms = []
    for x in w1:
        for y in w2:
            term = np.ones(m)
            for xi, yi in zip(x, y):
                fa, fb = g1.features[xi], g2.features[yi]
                term = term * gate_values(fa, fb, u, b) * float(np.dot(fa, fb))
            terms.append(term)
    return np.array([math.fsum(t[k] for t in terms) for k in range(m)])


def gated_walk_state_sum(
    g: FeatureGraph, weights: Sequence[np.ndarray], u: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Unrolled readout of the gated walk module: gates act on steps 2..n.

    Each n-node walk contributes the elementwise product of its projected
    node features, weighted per coordinate by the gates of its n-1 edges.
    """
    ws = [np.asarray(w, dtype=np.float64) for w in weights]
    n = len(ws)
    walks = enumerate_walks(g, n)
    m = ws[0].shape[0]
    terms = []
    for walk in walks:
        term = ws[0] @ g.features[walk[0]]
        for i in range(1, n):
            gate = gate_values(g.features[walk[i - 1]], g.features[walk[i]], u, b)
            term = term * gate * (ws[i] @ g.features[walk[i]])
        terms.append(term)
    return np.array([math.fsum(t[k] for t in terms) for k in range(m)])


def reference_walk(weights: Sequence[np.ndarray], coord: int) -> FeatureGraph:
    """Directed chain whose node features are one row per weight matrix."""
    rows = [np.asarray(w, dtype=np.float64)[coord] for w in weights]
    return FeatureGraph.chain(rows)
