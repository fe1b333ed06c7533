"""The input types both sides share: feature sequences and graphs, kernel configs,
and the row groupings that the graph modules sum over.

The recurrent modules and the exhaustive oracles that check them both read
these types, so they live here, apart from either side: this module imports
only :mod:`kernelnn.errors`, and no oracle imports a module it checks.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"
UNNORMALIZED = "unnormalized"
NORMALIZED = "normalized"


@dataclass(frozen=True)
class FeatureSequence:
    """An ordered list of d-dimensional token feature vectors."""

    tokens: tuple[np.ndarray, ...]
    dim: int

    def __init__(self, tokens: Iterable, dim: int | None = None) -> None:
        toks = tuple(np.asarray(t, dtype=np.float64) for t in tokens)
        for t in toks:
            if t.ndim != 1:
                raise ShapeError(f"tokens must be 1-d, got shape {t.shape}")
        if toks:
            d = toks[0].shape[0]
            if any(t.shape[0] != d for t in toks):
                raise ShapeError(
                    f"tokens must share a dimension, got {[t.shape for t in toks]}"
                )
            if dim is not None and dim != d:
                raise ShapeError(f"declared dim {dim} != token dim {d}")
            dim = d
        elif dim is None:
            raise ContractError("an empty FeatureSequence needs an explicit dim")
        object.__setattr__(self, "tokens", toks)
        object.__setattr__(self, "dim", int(dim))

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.tokens[i]

    def prefix(self, t: int) -> "FeatureSequence":
        return FeatureSequence(self.tokens[:t], dim=self.dim)


@dataclass(frozen=True)
class SeqKernelConfig:
    """Order, decay and scoring variant of the exhaustive string kernel."""

    n: int
    lam: float
    composition: str = MULTIPLICATIVE
    normalization: str = UNNORMALIZED

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ContractError(f"kernel order must be >= 1, got {self.n}")
        if not 0.0 <= self.lam < 1.0:
            raise ContractError(f"lambda must lie in [0, 1), got {self.lam}")
        if self.composition not in (MULTIPLICATIVE, ADDITIVE):
            raise ContractError(f"unknown composition {self.composition!r}")
        if self.normalization not in (UNNORMALIZED, NORMALIZED):
            raise ContractError(f"unknown normalization {self.normalization!r}")


class Segments:
    """Row i of a (rows, ...) array belongs to segment ``ids[i]`` of ``count``.

    ``sum`` adds the rows of each segment in row order with one
    ``np.add.reduceat``: O(rows), no (count, rows) matrix, and an empty
    segment sums to zero.
    """

    def __init__(self, ids, count: int) -> None:
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        if ids.size and (ids.min() < 0 or ids.max() >= count):
            raise ContractError(f"segment ids out of range for {count} segments")
        self.ids = ids
        self.count = count
        self.order = np.argsort(ids, kind="stable") if np.any(ids[1:] < ids[:-1]) else None
        sizes = np.bincount(ids, minlength=count)
        self.present = np.flatnonzero(sizes)
        self.starts = (np.cumsum(sizes) - sizes)[self.present]

    def sum(self, rows: np.ndarray) -> np.ndarray:
        out = np.zeros((self.count, *rows.shape[1:]), dtype=rows.dtype)
        if self.ids.size:
            src = rows if self.order is None else rows[self.order]
            out[self.present] = np.add.reduceat(src, self.starts, axis=0)
        return out


# A neighbor sum multiplies dense blocks while no member has over DENSE_LIMIT nodes (a BLAS
# inner dimension within 512 gives the same bits at any thread count) and the blocks hold at
# most DENSE_PADDING entries per walk step, a fixed multiple of the edge list however many
# members; on a 2-core x86-64 at hidden 16 they beat the edge list up to about 110 per step.
DENSE_LIMIT = 128
DENSE_PADDING = 32


class Adjacency:
    """A graph's walk steps as a sum: row v of ``sum(rows)`` adds ``rows[u]`` over the steps
    u -> v, and ``reverse`` along the reversed steps.  Within the dense limits: one (B, P, P)
    0/1 block per member, padded to the largest member's P nodes, times the rows put into
    (B, P, m) blocks; no real node's sum reads a padding row.  Past them: ``graph.segments``."""

    def __init__(self, graph: "FeatureGraph") -> None:
        (src, dst), sizes = graph.edge_arrays, graph.sizes
        n, b, p = graph.num_nodes, len(sizes), max(sizes)
        self.num_nodes, self.blocks = n, None
        if p > DENSE_LIMIT or b * p * p > DENSE_PADDING * src.size:
            self.src, self.dst = graph.segments
            return
        sizes = np.asarray(sizes, dtype=np.intp)
        # node v of member k is row k * p + (v - the first node of k) of the padded rows
        slot = np.arange(n) + np.repeat(np.arange(b) * p - (np.cumsum(sizes) - sizes), sizes)
        blocks = np.zeros((b * p, p))
        blocks[slot[dst], slot[src] % p] = 1.0
        self.blocks, self.slot = blocks.reshape(b, p, p), slot

    def sum(self, rows: np.ndarray, reverse: bool = False) -> np.ndarray:
        if self.blocks is None:
            into, along = (self.src, self.dst) if reverse else (self.dst, self.src)
            return into.sum(rows[along.ids])
        b, p = self.blocks.shape[:2]
        blocks = self.blocks.transpose(0, 2, 1) if reverse else self.blocks
        padded = np.zeros((b, p, rows.shape[1]))
        padded.reshape(b * p, -1)[self.slot] = rows
        return np.matmul(blocks, padded).reshape(b * p, -1).take(self.slot, axis=0)


class FeatureGraph:
    """Node feature vectors plus the walk steps between nodes.

    ``matrix`` is the read-only (num_nodes, dim) feature matrix and
    ``features[v]`` its row v.  ``edge_arrays`` is the read-only ``(src, dst)``
    of every walk step u -> v, once each, sorted by v and then by u, so every
    sum along them accumulates in ascending node order.  ``sizes`` holds the
    node counts of the member graphs on consecutive node ranges:
    ``(num_nodes,)``, or one per graph of a :meth:`union`.  Derived from the
    read-only arrays on first use and then kept: ``neighbors[v]``, the nodes
    that may immediately precede v on a walk, ascending, and the groupings
    the graph modules sum over (``adjacency``, ``segments``, ``members``).
    """

    def __init__(self, features: Sequence, steps=()) -> None:
        """Node features (a sequence of rows or an (N, d) array) and the steps ``(u, v)``.

        ``steps`` is an (E, 2) integer array or a sequence of index pairs;
        each pair is a walk step u -> v.  A repeated step counts once.
        """
        x = _feature_matrix(features)
        n = len(x)
        uv = _step_pairs(steps)
        if uv.dtype == object:  # not an integer array: check each entry
            bad = [i for i in uv.flat
                   if isinstance(i, bool) or not isinstance(i, (int, np.integer))]
            if bad:
                raise ContractError(f"neighbor index {bad[0]!r} is not an integer")
        out = (uv < 0) | (uv >= n)
        if out.any():
            raise ContractError(f"neighbor index {uv[out][0]} out of range for {n} nodes")
        u, v = uv.astype(np.intp, copy=False).T
        # as keys dst * n + src, sorted, the steps group by destination and then
        # by source, and a repeated step is a repeated key
        keys = np.sort(v * n + u)
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        dst = keys // n
        self._adopt(x, (keys - dst * n, dst), (n,))

    def _adopt(self, x: np.ndarray, steps: tuple[np.ndarray, np.ndarray],
               sizes: tuple[int, ...]) -> "FeatureGraph":
        """Take ``x`` and checked steps, sorted by dst and then src, once each, read-only."""
        for a in (x, *steps):
            a.setflags(write=False)
        self.matrix, self.edge_arrays, self.sizes = x, steps, sizes
        return self

    @classmethod
    def undirected(cls, features: Sequence, edges) -> "FeatureGraph":
        """Node features plus both directions of every edge ``(u, v)``; a self-loop is one step."""
        uv = _step_pairs(edges)
        return cls(features, np.concatenate([uv, uv[:, ::-1]]))

    @classmethod
    def chain(cls, features: Sequence) -> "FeatureGraph":
        """Directed path whose only maximal walk visits the features in order."""
        x = _feature_matrix(features)
        src = np.arange(len(x) - 1, dtype=np.intp)  # already sorted by dst, once each
        return object.__new__(cls)._adopt(x, (src, src + 1), (len(x),))

    @classmethod
    def union(cls, graphs: Sequence["FeatureGraph"]) -> "FeatureGraph":
        """The disjoint union of the graphs, in order, one member each; the inverse of split."""
        if not graphs:
            raise ContractError("a graph union needs at least one graph")
        dims = sorted({g.dim for g in graphs})
        if len(dims) > 1:
            raise ShapeError(f"graphs in one union must share a feature width, got {dims}")
        sizes = tuple(g.num_nodes for g in graphs)
        starts = np.cumsum(sizes) - sizes
        steps = tuple(np.concatenate([g.edge_arrays[k] + s for g, s in zip(graphs, starts)])
                      for k in (0, 1))
        x = np.concatenate([g.matrix for g in graphs])
        return object.__new__(cls)._adopt(x, steps, sizes)

    def split(self, sizes: Sequence[int]) -> list["FeatureGraph"]:
        """The graphs on consecutive node ranges of the given sizes.

        Their matrices and edge arrays are views into this graph's; no walk
        step may cross from one range to another.
        """
        sizes = np.asarray(sizes, dtype=np.intp)
        if len(sizes) == 0 or sizes.min() < 1 or sizes.sum() != self.num_nodes:
            raise ContractError(f"node ranges of sizes {sizes.tolist()} do not partition "
                                f"{self.num_nodes} nodes")
        src, dst = self.edge_arrays
        ends = np.cumsum(sizes)
        steps = np.searchsorted(dst, ends)  # where each range's steps end
        counts = np.diff(steps, prepend=0)
        starts = np.repeat(ends - sizes, counts)
        src, dst = src - starts, dst - starts
        if ((src < 0) | (src >= np.repeat(sizes, counts))).any():
            raise ContractError("a walk step crosses from one node range to another")
        bounds = zip((ends - sizes).tolist(), ends.tolist(), (steps - counts).tolist(),
                     steps.tolist())
        return [object.__new__(FeatureGraph)._adopt(self.matrix[a:b], (src[i:j], dst[i:j]),
                                                    (b - a,))
                for a, b, i, j in bounds]

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def features(self) -> tuple[np.ndarray, ...]:
        """Node v's feature vector, a read-only row view of the matrix."""
        return tuple(self.matrix)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """``neighbors[v]``: the nodes that may immediately precede v on a walk, ascending."""
        src, dst = (a.tolist() for a in self.edge_arrays)
        ends = [bisect_right(dst, v) for v in range(self.num_nodes)]
        return tuple(tuple(src[a:b]) for a, b in zip([0, *ends], ends))

    @cached_property
    def adjacency(self) -> Adjacency:
        """The walk steps as the neighbor sum of the walk, deep and wl modules reads them."""
        return Adjacency(self)

    @cached_property
    def segments(self) -> tuple[Segments, Segments]:
        """The walk steps grouped by source and by destination (gated gates, edge-path sums)."""
        return tuple(Segments(ids, self.num_nodes) for ids in self.edge_arrays)

    @cached_property
    def members(self) -> Segments:
        """The nodes grouped by member graph, for the per-graph readouts."""
        return Segments(np.repeat(np.arange(len(self.sizes)), self.sizes), len(self.sizes))


def _step_pairs(steps) -> np.ndarray:
    """Steps as an (E, 2) array: an integer array as given, anything else as Python objects."""
    int_array = isinstance(steps, np.ndarray) and steps.dtype.kind in "iu"
    uv = steps if int_array else np.array(steps, dtype=object)
    if uv.shape == (0,):
        uv = uv.reshape(0, 2)
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise ShapeError(f"walk steps must be (E, 2) index pairs, got shape {uv.shape}")
    return uv


def _feature_matrix(features: Sequence) -> np.ndarray:
    """The (num_nodes, dim) matrix of node feature vectors that share one 1-d shape."""
    if len(features) == 0:
        raise ContractError("a FeatureGraph needs at least one node")
    try:
        x = np.array(features, dtype=np.float64)
    except ValueError:  # rows of different lengths
        x = None
    if x is None or x.ndim != 2:
        raise ShapeError(f"node features must share a 1-d shape, "
                         f"got {[np.shape(f) for f in features]}")
    return x


@dataclass(frozen=True)
class GraphKernelConfig:
    n: int
    lam: float = 0.5
    composition: str = MULTIPLICATIVE
    depth: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ContractError(f"walk order must be >= 1, got {self.n}")
        if not 0.0 <= self.lam < math.inf:
            raise ContractError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.composition not in (MULTIPLICATIVE, ADDITIVE):
            raise ContractError(f"unknown composition {self.composition!r}")
        if self.depth < 1:
            raise ContractError(f"depth must be >= 1, got {self.depth}")


@dataclass(frozen=True)
class WLRelabelParams:
    """The WL relabel ``act(u1 f_v + u2 sum_{u -> v} act(v f_u))`` of every node v."""

    u1: np.ndarray
    u2: np.ndarray
    v: np.ndarray
    activation: enum.Enum  # read by its value: "tanh" or "identity"

    def checked(self, d: int):
        """The activation and the float64 ``(u1, u2, v)``, checked against features of width d."""
        act = {"tanh": np.tanh, "identity": lambda z: z}.get(self.activation.value)
        if act is None:
            raise ContractError(f"relabel activation must be tanh or identity, "
                                f"got {self.activation.value!r}")
        u1, u2, vm = (np.asarray(a, dtype=np.float64) for a in (self.u1, self.u2, self.v))
        if (u1.shape[1] != d or vm.shape[1] != d or u2.shape[1] != vm.shape[0]
                or u1.shape[0] != u2.shape[0]):
            raise ShapeError(f"relabel shapes inconsistent: u1 {u1.shape}, u2 {u2.shape}, "
                             f"v {vm.shape}, features ({d},)")
        return act, u1, u2, vm
