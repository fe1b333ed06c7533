"""Subsequence kernels by dynamic programming over a similarity matrix.

The oracles in :mod:`kernelnn.seq_kernel` sum over every pair of index
n-tuples.  This module reaches the same values with the prefix recursion of
the classic subsequence kernel (Lodhi et al. 2002, "Text classification using
string kernels"), which is also the recursion a recurrent sequence cell runs
against its reference sequence.  It takes only the token similarities
``S[a, b] = <x_a, y_b>``, so one-hot inputs need nothing but an equality test
of token ids.  No power of the decay is ever taken, so ``lam = 0`` needs no
special case, and nothing is shared with the oracles, which stay an
independent referee.

With the strict, decayed 2-D prefix sum

    P(E)[a, b] = sum over a' < a, b' < b of E[a', b'] lam**(a-a'-1) lam**(b-b'-1),

the order-j tables are ``G_1 = S`` and ``G_j = S * P(G_{j-1})``
(multiplicative) or ``G_j = S * P(W_{j-1}) + P(G_{j-1})`` (additive, where
``W_j`` counts decayed j-tuple pairs), and the kernel between the prefixes
``x[:i]`` and ``y[:k]`` is ``P(G_n)[i, k]``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .inputs import ADDITIVE, NORMALIZED, SeqKernelConfig


def _prefix_rows(e: np.ndarray, lam: float) -> np.ndarray:
    """``out[a] = sum over a' < a of lam**(a-a'-1) e[a']``, one row longer than ``e``."""
    out = np.empty((e.shape[0] + 1, e.shape[1]))
    prev = out[0]
    prev.fill(0.0)
    for row, src in zip(out[1:], e):
        np.multiply(prev, lam, out=row)
        row += src
        prev = row
    return out


def _prefix(e: np.ndarray, lam: float) -> np.ndarray:
    """P(e), padded by one leading row and column: rows first, then columns."""
    return _prefix_rows(np.ascontiguousarray(_prefix_rows(e, lam).T), lam).T


def _tuple_weights(length: int, n: int, lam: float) -> list[np.ndarray]:
    """``w[j-1][i]``: decayed weight of all j-tuples in a length-i prefix, i = 0..length.

    Along one sequence, so the 2-D weight table is the outer product of two
    of these, and ``w[n-1]`` gives the normalizer of every prefix pair.
    """
    w, ends = [], [1.0] * length  # weight of the j-tuples ending at each position
    for _ in range(n):
        acc, sums = 0.0, [0.0]
        for v in ends:
            acc = lam * acc + v
            sums.append(acc)
        w.append(np.array(sums))
        ends = sums[:-1]
    return w


def prefix_kernel_table(sim, cfg: SeqKernelConfig) -> np.ndarray:
    """``table[i, k]`` = the string kernel between ``x[:i]`` and ``y[:k]``.

    ``sim`` is the (Lx, Ly) matrix of token inner products; the table is
    (Lx+1, Ly+1), and prefixes shorter than ``cfg.n`` give 0.
    """
    s = np.asarray(sim, dtype=np.float64)
    if s.ndim != 2:
        raise ContractError(f"similarity matrix must be 2-d, got shape {s.shape}")
    lx, ly = s.shape
    w = _tuple_weights(max(lx, ly), cfg.n, cfg.lam)
    g = s
    for j in range(1, cfg.n):
        inner = _prefix(g, cfg.lam)[:-1, :-1]
        if cfg.composition == ADDITIVE:
            g = s * np.outer(w[j - 1][:lx], w[j - 1][:ly]) + inner
        else:
            g = s * inner
    table = _prefix(g, cfg.lam)
    if cfg.normalization == NORMALIZED:
        z = np.outer(w[-1][:lx + 1], w[-1][:ly + 1])
        table = np.divide(table, z, out=np.zeros_like(table), where=z != 0.0)
    return table


def string_kernel(sim, cfg: SeqKernelConfig) -> float:
    """The string kernel between two whole sequences, from their similarity matrix."""
    return float(prefix_kernel_table(sim, cfg)[-1, -1])


def deep_sequence_kernel(sim, depth: int, cfg: SeqKernelConfig) -> float:
    """Stacked kernel: each level reruns the recursion on the previous level's prefix table."""
    if depth < 1:
        raise ContractError(f"depth must be >= 1, got {depth}")
    table = prefix_kernel_table(sim, cfg)
    for _ in range(depth - 1):
        table = prefix_kernel_table(table[1:, 1:], cfg)
    return float(table[-1, -1])
