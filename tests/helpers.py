"""Small helpers that only tests use: a taped sum, a reference sigmoid, the text writers
and parser of one line, the bundle bytes as the format defines them, and the
brute-force kernel forms that only tests compare against (a relabeled graph,
per-node-pair local kernels, the unrolled gated walk readout and the explicit
string-kernel feature map), and the exact product-graph walk sum and string-kernel prefix
recursion that referee the DPs."""

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


def _exact_prefix(e, lx: int, ly: int, lam: Fraction) -> list[list[Fraction]]:
    """The (lx+1, ly+1) table whose entry (a, b) sums ``e[a'][b'] lam**(a-1-a') lam**(b-1-b')``
    over a' < a and b' < b: along x by ``r[a] = lam r[a-1] + e[a-1]``, then along y alike."""
    rows = [[Fraction(0)] * ly]
    for a in range(lx):
        rows.append([lam * r + v for r, v in zip(rows[-1], e[a])])
    out = []
    for r in rows:
        acc = [Fraction(0)]
        for v in r:
            acc.append(lam * acc[-1] + v)
        out.append(acc)
    return out


def exact_string_kernel(sim, cfg: SeqKernelConfig, depth: int = 1) -> tuple[Fraction, Fraction]:
    """The depth-``depth`` string kernel of the similarity matrix ``sim``, every float taken as
    given, by the prefix recursion over ``Fraction``, and K_abs, the same recursion over |sim|.

    ``W_1`` is all ones and ``W_j = P(W_{j-1})`` on the (lx, ly) entries, so ``W_j`` weighs the
    j-tuple pairs ending at each entry.  ``G_1 = S``, and ``G_j = S * P(G_{j-1})``
    (multiplicative) or ``G_j = S * P(W_{j-1}) + P(G_{j-1})`` (additive).  A level's table is
    ``P(G_n)``, divided entrywise by ``P(W_n)`` (0 where that is 0) when normalized, and the
    next level's ``S`` is that table without its first row and column.
    """
    lam = Fraction(cfg.lam)
    lx, ly = np.shape(sim)
    w = [[Fraction(1)] * ly for _ in range(lx)]
    weights = []  # P(W_j) for j = 1..n
    for _ in range(cfg.n):
        weights.append(_exact_prefix(w, lx, ly, lam))
        w = [row[:ly] for row in weights[-1][:lx]]
    s = [[Fraction(float(v)) for v in row] for row in np.asarray(sim, dtype=np.float64)]
    out = []
    for level_sim in (s, [[abs(v) for v in row] for row in s]):
        for _ in range(depth):
            g = level_sim
            for j in range(1, cfg.n):
                inner = _exact_prefix(g, lx, ly, lam)
                if cfg.composition == MULTIPLICATIVE:
                    g = [[v * inner[a][b] for b, v in enumerate(row)]
                         for a, row in enumerate(level_sim)]
                else:
                    g = [[v * weights[j - 1][a][b] + inner[a][b] for b, v in enumerate(row)]
                         for a, row in enumerate(level_sim)]
            table = _exact_prefix(g, lx, ly, lam)
            if cfg.normalization == NORMALIZED:
                table = [[v / z if z else Fraction(0) for v, z in zip(row, zs)]
                         for row, zs in zip(table, weights[-1])]
            level_sim = [row[1:] for row in table[1:]]
        out.append(table[lx][ly])
    return out[0], out[1]
