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
matrix of decay powers, so a sentence of up to ``BLOCK`` tokens takes one
product per axis.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractError
from .inputs import ADDITIVE, NORMALIZED, SeqKernelConfig


BLOCK = 32  # rows per matrix product: a small inner dimension keeps the bits thread-count free


@functools.lru_cache(maxsize=64)  # 8.4 KB each at BLOCK = 32
def _decay_matrix(lam: float, block: int) -> np.ndarray:
    """Read-only (block, block+1) ``m[i, c] = lam**(i+1-c)`` for ``c <= i+1``, else 0; entry
    (i, c) does not depend on ``block``, so a block of b rows reads its ``m[:b, :b+1]`` corner."""
    powers = np.cumprod(np.r_[1.0, np.full(block, lam)])
    d = np.arange(1, block + 1)[:, None] - np.arange(block + 1)
    m = np.tril(powers[np.abs(d)], 1)
    m.flags.writeable = False
    return m


def _scan(out: np.ndarray, m: np.ndarray) -> None:
    """In place, ``out[a] += lam * out[a-1]`` for a = 1, 2, ...: one product per block of rows.

    Column 0 of ``m`` carries the row before the block into it.
    """
    for s in range(0, out.shape[0] - 1, BLOCK):
        b = min(BLOCK, out.shape[0] - 1 - s)
        out[s + 1:s + b + 1] = m[:b, :b + 1] @ out[s:s + b + 1]


def _prefix(e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """P(e), padded by one leading row and column: rows first, then columns."""
    out = np.zeros((e.shape[0] + 1, e.shape[1] + 1))
    out[1:, 1:] = e
    _scan(out, m)
    _scan(out.T, m)
    return out


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


def _raw_table(sim, cfg: SeqKernelConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """The unnormalized table, and the decayed n-tuple weight of each prefix length
    (None where no n-tuple fits and the table is 0)."""
    s = np.asarray(sim, dtype=np.float64)
    if s.ndim != 2:
        raise ContractError(f"similarity matrix must be 2-d, got shape {s.shape}")
    lx, ly = s.shape
    if cfg.n > min(lx, ly):  # no n-tuple fits in the shorter sequence
        return np.zeros((lx + 1, ly + 1)), None
    w = _tuple_weights(max(lx, ly), cfg.n, cfg.lam)
    m = _decay_matrix(cfg.lam, BLOCK)
    g = s
    for j in range(1, cfg.n):
        inner = _prefix(g, m)[:-1, :-1]
        if cfg.composition == ADDITIVE:
            g = s * np.outer(w[j - 1][:lx], w[j - 1][:ly]) + inner
        else:
            g = s * inner
    return _prefix(g, m), w[-1]


def prefix_kernel_table(sim, cfg: SeqKernelConfig) -> np.ndarray:
    """``table[i, k]`` = the string kernel between ``x[:i]`` and ``y[:k]``.

    ``sim`` is the (Lx, Ly) matrix of token inner products; the table is
    (Lx+1, Ly+1), and prefixes shorter than ``cfg.n`` give 0.
    """
    table, w = _raw_table(sim, cfg)
    if cfg.normalization == NORMALIZED and w is not None:
        z = np.outer(w[:table.shape[0]], w[:table.shape[1]])
        table = np.divide(table, z, out=np.zeros_like(table), where=z != 0.0)
    return table


def string_kernel(sim, cfg: SeqKernelConfig) -> float:
    """The string kernel between two whole sequences, from their similarity matrix:
    the last entry of :func:`prefix_kernel_table`, normalizing only that entry."""
    table, w = _raw_table(sim, cfg)
    normalized = cfg.normalization == NORMALIZED and w is not None
    z = w[table.shape[0] - 1] * w[table.shape[1] - 1] if normalized else 1.0
    return float(table[-1, -1] / z) if z != 0.0 else 0.0


def deep_sequence_kernel(sim, depth: int, cfg: SeqKernelConfig) -> float:
    """Stacked kernel: each level reruns the recursion on the previous level's prefix table."""
    if depth < 1:
        raise ContractError(f"depth must be >= 1, got {depth}")
    table = prefix_kernel_table(sim, cfg)
    for _ in range(depth - 1):
        table = prefix_kernel_table(table[1:, 1:], cfg)
    return float(table[-1, -1])
