"""Subsequence kernels by dynamic programming over a similarity matrix.

The oracles in :mod:`kernelnn.seq_kernel` sum over every pair of index
n-tuples.  This module reaches the same values with the prefix recursion of
the classic subsequence kernel (Lodhi et al. 2002, "Text classification using
string kernels"), which is also the recursion a recurrent sequence cell runs
against its reference sequence.  It takes only the token similarities
``S[a, b] = <x_a, y_b>``, so one-hot inputs need nothing but an equality test
of token ids.  The powers of the decay come from one ``cumprod``, so
``lam = 0`` needs no special case, and nothing is shared with the oracles,
which stay an independent referee.

With the strict, decayed 2-D prefix sum

    P(E)[a, b] = sum over a' < a, b' < b of E[a', b'] lam**(a-a'-1) lam**(b-b'-1),

the order-j tables are ``G_1 = S`` and ``G_j = S * P(G_{j-1})``
(multiplicative) or ``G_j = S * P(W_{j-1}) + P(G_{j-1})`` (additive, where
``W_j`` counts decayed j-tuple pairs), and the kernel between the prefixes
``x[:i]`` and ``y[:k]`` is ``P(G_n)[i, k]``.  P runs along each axis as one
matrix product per block of ``BLOCK`` rows with a lower-triangular Toeplitz
matrix of decay powers, so a table of up to ``BLOCK + 1`` rows takes one
product per axis.  It runs on a stack of pairs of one padded shape at once
(:func:`padded`), each product batched; entry (i, k) reads only ``S[:i, :k]``,
so the padding zeros change nothing it reads.  BLAS sums in an order set by
a product's shape, so a pair's bits depend on its own lengths only.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractError
from .inputs import ADDITIVE, NORMALIZED, SeqKernelConfig


BLOCK = 32  # rows per matrix product: a small inner dimension keeps the bits thread-count free
GRID = 16  # table sides are padded to a multiple of GRID: 0 to 15 tokens share one shape
STACK_CELLS = 1 << 16  # table cells per stack, unless one pair alone has more


@functools.lru_cache(maxsize=64)  # 8.4 KB each at BLOCK = 32
def _decay_matrix(lam: float, block: int) -> np.ndarray:
    """Read-only (block, block+1) ``m[i, c] = lam**(i+1-c)`` for ``c <= i+1``, else 0; entry
    (i, c) does not depend on ``block``, so a block of b rows reads its ``m[:b, :b+1]`` corner.
    Fortran order makes ``m.T``, which scans the columns, C-contiguous."""
    powers = np.cumprod(np.r_[1.0, np.full(block, lam)])
    d = np.arange(1, block + 1)[:, None] - np.arange(block + 1)
    m = np.asfortranarray(np.tril(powers[np.abs(d)], 1))
    m.flags.writeable = False
    return m


def _prefix(src: np.ndarray, tmp: np.ndarray, m: np.ndarray) -> None:
    """P of each matrix of a (P, R, C) stack ``src``, in place by way of ``tmp``: rows into
    ``tmp``, then columns back, one batched product per block, column 0 of ``m`` carrying the
    row before it.  Row 0 and column 0 of both are (and stay) zero."""
    for s in range(0, src.shape[1] - 1, BLOCK):
        b = min(BLOCK, src.shape[1] - 1 - s)
        if s:
            src[:, s] = tmp[:, s]  # the scanned row before the block
        np.matmul(m[:b, :b + 1], src[:, s:s + b + 1], out=tmp[:, s + 1:s + b + 1])
    for s in range(0, src.shape[2] - 1, BLOCK):
        b = min(BLOCK, src.shape[2] - 1 - s)
        if s:
            tmp[:, :, s] = src[:, :, s]
        np.matmul(tmp[:, :, s:s + b + 1], m[:b, :b + 1].T, out=src[:, :, s + 1:s + b + 1])


@functools.lru_cache(maxsize=16)
def _longest_weights(n: int, lam: float) -> list[np.ndarray]:
    """Filled in place: (n, lam)'s read-only weights at the longest length asked so far."""
    return []


def _tuple_weights(length: int, n: int, lam: float) -> list[np.ndarray]:
    """``w[j-1][i]``: decayed weight of all j-tuples in a length-i prefix, i = 0..length.

    Along one sequence, so the 2-D weight table is the outer product of two
    of these, and ``w[n-1]`` gives the normalizer of every prefix pair.
    """
    longest = _longest_weights(n, lam)
    w = longest[:]  # one read: a rebuild by another thread cannot shorten what is sliced
    if not w or w[0].shape[0] <= length:  # a prefix of the weights is the same at any length
        w, ends = [], [1.0] * length  # weight of the j-tuples ending at each position
        for _ in range(n):
            acc, sums = 0.0, [0.0]
            for v in ends:
                acc = lam * acc + v
                sums.append(acc)
            w.append(np.array(sums))
            w[-1].flags.writeable = False
            ends = sums[:-1]
        longest[:] = w
    return [a[:length + 1] for a in w]


def padded(length: int) -> int:
    """The length a side of ``length`` tokens is padded to: its table side, ``length + 1``,
    rounded up to a multiple of ``GRID``."""
    return (length // GRID + 1) * GRID - 1


def stacks(lengths) -> list[list[int]]:
    """The indices of the (lx, ly) ``lengths``, grouped by padded shape in order of first
    appearance, each group cut into stacks of at most ``STACK_CELLS`` table cells (at least one
    pair), so that a call's peak memory is a fixed multiple of its largest pair's tables."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (lx, ly) in enumerate(lengths):
        groups.setdefault((padded(lx), padded(ly)), []).append(i)
    out = []
    for (px, py), idx in groups.items():
        per = max(1, STACK_CELLS // ((px + 1) * (py + 1)))
        out += [idx[k:k + per] for k in range(0, len(idx), per)]
    return out


def _raw_tables(sims: np.ndarray, cfg: SeqKernelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The unnormalized (P, Lx+1, Ly+1) tables of a stack, and the decayed n-tuple weight of
    each prefix length up to max(Lx, Ly).  Two buffers take turns, so no step allocates."""
    p, lx, ly = sims.shape
    w = _tuple_weights(max(lx, ly), cfg.n, cfg.lam)
    m = _decay_matrix(cfg.lam, BLOCK)
    table, spare = np.zeros((2, p, lx + 1, ly + 1))
    table[:, 1:, 1:] = sims
    for j in range(1, cfg.n):
        _prefix(table, spare, m)
        if cfg.composition == ADDITIVE:
            np.multiply(sims, np.outer(w[j - 1][:lx], w[j - 1][:ly]), out=spare[:, 1:, 1:])
            spare[:, 1:, 1:] += table[:, :-1, :-1]
        else:
            np.multiply(sims, table[:, :-1, :-1], out=spare[:, 1:, 1:])
        table, spare = spare, table
    _prefix(table, spare, m)
    return table, w[-1]


def _normalized(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each entry over its prefixes' normalizer ``w[i] * w[k]``, and 0 where that is 0."""
    z = np.outer(w[:table.shape[-2]], w[:table.shape[-1]])
    return np.divide(table, z, out=np.zeros_like(table), where=z != 0.0)


def string_kernels(sims, lengths, depth: int, cfg: SeqKernelConfig) -> np.ndarray:
    """The depth-``depth`` kernel of each pair of a (P, Lx, Ly) stack: pair p's similarities
    fill ``sims[p, :lx, :ly]``, zeros the rest, and ``lengths[p] = (lx, ly)`` pads to (Lx, Ly).
    A level past the first reruns the recursion on the last level's table, cleared past the
    pair's lengths.  A pair shorter than ``cfg.n`` gives 0, as does a zero normalizer."""
    if depth < 1:
        raise ContractError(f"depth must be >= 1, got {depth}")
    sims = np.asarray(sims, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.intp)
    # a negative length pads to a negative one, which no stack has
    if sims.ndim != 3 or lengths.shape != (len(sims), 2) or \
            {(padded(lx), padded(ly)) for lx, ly in lengths.tolist()} != {sims.shape[1:]}:
        raise ContractError(f"need a (P, Lx, Ly) stack whose pairs all pad to (Lx, Ly), and "
                            f"their (P, 2) lengths; got shapes {sims.shape}, {lengths.shape}")
    if cfg.n > min(sims.shape[1:]):  # no n-tuple fits in any pair
        return np.zeros(len(lengths))
    if depth > 1:  # the entries of each pair's next-level similarities
        inside = (np.arange(sims.shape[1]) < lengths[:, :1])[:, :, None] & \
            (np.arange(sims.shape[2]) < lengths[:, 1:])[:, None, :]
    for level in range(depth):
        table, w = _raw_tables(sims, cfg)
        if level < depth - 1:
            if cfg.normalization == NORMALIZED:
                table = _normalized(table, w)
            sims = np.where(inside, table[:, 1:, 1:], 0.0)
    z = w if cfg.normalization == NORMALIZED else np.ones_like(w)
    # a pair shorter than n gives 0: its normalizer is the only one that is 0, the rest are >= 1
    return np.array([table[p, lx, ly] / (z[lx] * z[ly]) if min(lx, ly) >= cfg.n else 0.0
                     for p, (lx, ly) in enumerate(lengths.tolist())])


def _stack_of_one(sim) -> tuple[np.ndarray, np.ndarray]:
    """One similarity matrix as a stack of one, padded as any stack of its shape is."""
    s = np.asarray(sim, dtype=np.float64)
    if s.ndim != 2:
        raise ContractError(f"similarity matrix must be 2-d, got shape {s.shape}")
    stack = np.zeros((1, padded(s.shape[0]), padded(s.shape[1])))
    stack[0, :s.shape[0], :s.shape[1]] = s
    return stack, np.array([s.shape])


def prefix_kernel_table(sim, cfg: SeqKernelConfig) -> np.ndarray:
    """``table[i, k]`` = the string kernel between ``x[:i]`` and ``y[:k]``.

    ``sim`` is the (Lx, Ly) matrix of token inner products; the table is
    (Lx+1, Ly+1), and prefixes shorter than ``cfg.n`` give 0.
    """
    stack, ((lx, ly),) = _stack_of_one(sim)
    if cfg.n > min(lx, ly):  # no n-tuple fits in the shorter sequence
        return np.zeros((lx + 1, ly + 1))
    table, w = _raw_tables(stack, cfg)
    table = table[0, :lx + 1, :ly + 1]
    return _normalized(table, w) if cfg.normalization == NORMALIZED else table


def string_kernel(sim, cfg: SeqKernelConfig) -> float:
    """The string kernel between two whole sequences, from their similarity matrix: the
    stack of one of :func:`string_kernels`, the last entry of :func:`prefix_kernel_table`."""
    return float(string_kernels(*_stack_of_one(sim), 1, cfg)[0])


def deep_sequence_kernel(sim, depth: int, cfg: SeqKernelConfig) -> float:
    """Stacked kernel: each level reruns the recursion on the previous level's prefix table."""
    return float(string_kernels(*_stack_of_one(sim), depth, cfg)[0])
