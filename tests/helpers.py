"""Small helpers that only tests use: a taped sum, a reference sigmoid, the text writers
and parser of one line, the bundle bytes as the format defines them, and the
brute-force kernel forms that only tests compare against (a relabeled graph,
per-node-pair local kernels, the unrolled gated walk readout and the explicit
string-kernel feature map), and the exact product-graph walk sum that referees the DPs."""

import base64
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from kernelnn.errors import ContractError, GuardError
from kernelnn.graph_kernel import _check_local, enumerate_walks, gate_values
from kernelnn.inputs import MULTIPLICATIVE, NORMALIZED, FeatureGraph, FeatureSequence
from kernelnn.inputs import GraphKernelConfig, SeqKernelConfig
from kernelnn.io import BUNDLE_VERSION, _parse_graph_lines
from kernelnn.seq_kernel import _guard, _tuple_weights
from kernelnn.tensor import Tensor, emit

FEATURE_MAP_CAP = 10**6


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


def canonical_bundle_bytes(bundle) -> bytes:
    """A bundle's bytes as the format defines them: the whole document through ``json.dumps``
    with sorted keys and no whitespace, each tensor the base64 of its little-endian float64
    bytes in C order."""
    params = {name: {"shape": list(np.shape(arr)), "dtype": "float64", "byte_order": "little",
                     "data": base64.b64encode(np.asarray(arr, "<f8").tobytes()).decode("ascii")}
              for name, arr in bundle.params.items()}
    doc = {"format_version": BUNDLE_VERSION, "kind": bundle.kind, "config": bundle.config,
           "seed": bundle.seed, "params": params}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def permute_graph(g: FeatureGraph, perm: Sequence[int]) -> FeatureGraph:
    """Relabel node indices: old node i becomes perm[i]."""
    n = g.num_nodes
    if sorted(perm) != list(range(n)):
        raise ContractError(f"perm must be a permutation of range({n})")
    p = np.asarray(perm, dtype=np.intp)
    src, dst = g.edge_arrays
    return FeatureGraph(g.matrix[np.argsort(p)], np.column_stack([p[src], p[dst]]))


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


def explicit_feature_map(x: FeatureSequence, cfg: SeqKernelConfig) -> np.ndarray:
    """Materialized kernel mapping: d**n outer products or an n*d concatenation."""
    _guard(x, cfg.n)
    n, d = cfg.n, x.dim
    if cfg.composition == MULTIPLICATIVE:
        if d**n > FEATURE_MAP_CAP:
            raise GuardError(f"feature map of size {d}**{n} exceeds cap {FEATURE_MAP_CAP}")
        out = np.zeros(d**n)
    else:
        out = np.zeros(n * d)
    xt, wx = _tuple_weights(len(x), n, cfg.lam)
    for idx, w in zip(xt, wx):
        if cfg.composition == MULTIPLICATIVE:
            prod = x.tokens[idx[0]]
            for i in idx[1:]:
                prod = np.multiply.outer(prod, x.tokens[i])
            out += w * prod.ravel()
        else:
            for slot, i in enumerate(idx):
                out[slot * d : (slot + 1) * d] += w * x.tokens[i]
    if cfg.normalization == NORMALIZED:
        z = float(wx.sum())
        return out / z if z != 0.0 else out * 0.0
    return out


def exact_walk_sum(g1: FeatureGraph, g2: FeatureGraph, factors, n: int):
    """Per coordinate, the exact walk sum ``K_1 = W``, ``K_j = W * A1 K_{j-1} A2^T`` at j = n,
    and the same sum over ``|W|``, which is the sum of every walk-pair term's absolute value.

    ``W`` is the product of ``factors``, each broadcast to (m, N1, N2), every float taken as
    given; the sums are ``Fraction`` values, so nothing is rounded.
    """
    fs = np.broadcast_arrays(*(np.asarray(f, dtype=np.float64) for f in factors))
    rows, cols = range(g1.num_nodes), range(g2.num_nodes)
    sums, abs_sums = [], []
    for coord in range(fs[0].shape[0]):
        w = [[math.prod((Fraction(f[coord, a, b]) for f in fs), start=Fraction(1)) for b in cols]
             for a in rows]
        for table, out in ((w, sums), ([[abs(x) for x in row] for row in w], abs_sums)):
            k = table
            for _ in range(n - 1):  # summed along graph 1's steps, then along graph 2's
                half = [[sum((k[u][b] for u in g1.neighbors[a]), Fraction(0)) for b in cols]
                        for a in rows]
                k = [[table[a][b] * sum((half[a][u] for u in g2.neighbors[b]), Fraction(0))
                      for b in cols] for a in rows]
            out.append(sum((x for row in k for x in row), Fraction(0)))
    return sums, abs_sums
