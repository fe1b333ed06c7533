"""Brute-force string kernels over feature sequences.

Everything here is deliberately exhaustive: kernels are computed by full
enumeration of index tuples so that the recurrent modules in
:mod:`kernelnn.seq_nn` can be checked against an independent ground truth.
Guards refuse inputs large enough for the enumeration to blow up.
"""

from __future__ import annotations

import itertools
import math
from math import comb
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, GuardError, ShapeError
from .inputs import MULTIPLICATIVE, NORMALIZED, FeatureSequence, SeqKernelConfig

MAX_ORACLE_LEN = 16
MAX_ORACLE_ORDER = 4


def decay_pow(lam: float, exponent: int) -> float:
    """lam**exponent with the 0**0 == 1 convention, so lam=0 stays well-defined."""
    return 1.0 if exponent == 0 else float(lam) ** exponent


def _guard(x: FeatureSequence, n: int) -> None:
    if len(x) > MAX_ORACLE_LEN:
        raise GuardError(f"oracle refuses sequences longer than {MAX_ORACLE_LEN}, got {len(x)}")
    if n > MAX_ORACLE_ORDER:
        raise GuardError(f"oracle refuses order above {MAX_ORACLE_ORDER}, got {n}")


def _tuple_weights(length: int, n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """All ascending index n-tuples of range(length) and their decay weights.

    The weight of a tuple with first index i1 (1-based) is lam**(length-i1-n+1).
    """
    tuples = np.array(list(itertools.combinations(range(length), n)), dtype=np.intp)
    if tuples.size == 0:
        return tuples.reshape(0, n), np.zeros(0)
    weights = np.array([decay_pow(lam, length - int(t[0]) - n) for t in tuples])
    return tuples, weights


def suffix_weight_sum(length: int, n: int, lam: float) -> float:
    """Sum of decay weights alone over all n-tuples of a length-L sequence."""
    return sum(
        comb(length - i1, n - 1) * decay_pow(lam, length - i1 - n + 1)
        for i1 in range(1, length - n + 2)
    )


def string_kernel(x: FeatureSequence, y: FeatureSequence, cfg: SeqKernelConfig) -> float:
    """Exhaustive subsequence kernel between two feature sequences.

    Sums over every pair of ascending index n-tuples; the multiplicative
    variant scores the product of tokenwise inner products, the additive one
    their sum.  Too-short inputs yield the empty sum, 0.
    """
    _guard(x, cfg.n)
    _guard(y, cfg.n)
    if x.dim != y.dim:
        raise ShapeError(f"token dims differ: {x.dim} vs {y.dim}")
    n = cfg.n
    if len(x) < n or len(y) < n:
        return 0.0
    xt, wx = _tuple_weights(len(x), n, cfg.lam)
    yt, wy = _tuple_weights(len(y), n, cfg.lam)
    dots = np.array([[float(np.dot(a, b)) for b in y.tokens] for a in x.tokens])
    gathered = dots[xt[:, None, :], yt[None, :, :]]
    if cfg.composition == MULTIPLICATIVE:
        scores = gathered.prod(axis=2)
    else:
        scores = gathered.sum(axis=2)
    # fsum is exactly rounded, hence order-independent: K(x,y) == K(y,x) bitwise
    value = math.fsum((wx[:, None] * wy[None, :] * scores).ravel())
    if cfg.normalization == NORMALIZED:
        z = float(wx.sum() * wy.sum())
        return value / z if z != 0.0 else 0.0
    return value


def reference_sequence(weights: Sequence[np.ndarray], coord: int) -> FeatureSequence:
    """The virtual sequence the recurrent states score against: one row per matrix."""
    rows = [np.asarray(w, dtype=np.float64)[coord] for w in weights]
    return FeatureSequence(rows)


def gated_string_kernel_state(
    x: FeatureSequence,
    gates: Sequence[np.ndarray],
    weights: Sequence[np.ndarray],
    coord: int,
    t: int | None = None,
    normalized: bool = False,
) -> float:
    """Closed form of the gated recurrence state, by exhaustive enumeration.

    ``gates[s]`` is the per-coordinate decay applied at step s+1.  A tuple
    i1<...<in contributes the product of gates over steps in (i1, t] except
    the selected ones, times the reference inner products; the normalized
    variant attaches a (1-gate) factor at each selected step.
    """
    n = len(weights)
    _guard(x, n)
    if len(gates) != len(x):
        raise ContractError(f"need one gate per step: {len(gates)} gates, {len(x)} tokens")
    for g in gates:
        ga = np.asarray(g, dtype=np.float64)
        if np.any(ga <= 0.0) or np.any(ga >= 1.0):
            raise ContractError("gate values must lie strictly inside (0, 1)")
    if t is None:
        t = len(x)
    rows = [np.asarray(w, dtype=np.float64)[coord] for w in weights]
    total = 0.0
    for idx in itertools.combinations(range(t), n):
        chosen = set(idx[1:])
        w = 1.0
        for s in range(idx[0] + 1, t):
            if s not in chosen:
                w *= float(gates[s][coord])
        if normalized:
            for s in idx:
                w *= 1.0 - float(gates[s][coord])
        score = 1.0
        for row, i in zip(rows, idx):
            score *= float(np.dot(row, x.tokens[i]))
        total += w * score
    return total


def unrolled_state(
    x: FeatureSequence,
    weights: Sequence[np.ndarray],
    lam: float,
    variant: str,
    t: int | None = None,
) -> np.ndarray:
    """Unrolled-sum oracle for the three constant-decay recurrence variants.

    mult-unnorm sums decay-weighted elementwise products of projected tokens;
    mult-norm scales each tuple by (1-lam)**n; add-norm is the exact unroll
    of the normalized additive recurrence, a sum over suffix chains in which
    only the deepest selected step carries a projected token.
    """
    n = len(weights)
    _guard(x, n)
    ws = [np.asarray(w, dtype=np.float64) for w in weights]
    m = ws[0].shape[0]
    if t is None:
        t = len(x)
    out = np.zeros(m)
    if variant in ("mult-unnorm", "mult-norm"):
        step = 1.0 if variant == "mult-unnorm" else (1.0 - lam) ** n
        for idx in itertools.combinations(range(t), n):
            term = ws[0] @ x.tokens[idx[0]]
            for j, i in enumerate(idx[1:], start=1):
                term = term * (ws[j] @ x.tokens[i])
            out += step * decay_pow(lam, t - idx[0] - n) * term
        return out
    if variant != "add-norm":
        raise ContractError(f"unknown variant {variant!r}")
    for j in range(1, n + 1):
        for chain in itertools.combinations(range(1, t + 1), n - j + 1):
            s_j = chain[0]
            w = (1.0 - lam) ** (n - j + 1) * decay_pow(lam, t - s_j - (n - j))
            out += w * (ws[j - 1] @ x.tokens[s_j - 1])
    return out


def deep_sequence_kernel(
    x: FeatureSequence,
    y: FeatureSequence,
    depth: int,
    cfg: SeqKernelConfig,
) -> float:
    """Recursive sequence kernel: level l+1 rescored over level-l prefix kernels.

    Levels compose through the identity activation, the only one whose stacked
    kernel is exactly computable (any other would need an infinite-dimensional
    composition).
    """
    if depth < 1:
        raise ContractError(f"depth must be >= 1, got {depth}")
    _guard(x, cfg.n)
    _guard(y, cfg.n)
    if x.dim != y.dim:
        raise ShapeError(f"token dims differ: {x.dim} vs {y.dim}")
    lx, ly, n = len(x), len(y), cfg.n
    # table[i][k] = level kernel between the first i tokens of x and k of y
    table = np.zeros((lx + 1, ly + 1))
    for i in range(n, lx + 1):
        for k in range(n, ly + 1):
            table[i, k] = string_kernel(x.prefix(i), y.prefix(k), cfg)
    for _ in range(depth - 1):
        nxt = np.zeros_like(table)
        for i in range(n, lx + 1):
            xt, wx = _tuple_weights(i, n, cfg.lam)
            for k in range(n, ly + 1):
                yt, wy = _tuple_weights(k, n, cfg.lam)
                total = 0.0
                for ix, wxv in zip(xt, wx):
                    for iy, wyv in zip(yt, wy):
                        vals = [table[a + 1, b + 1] for a, b in zip(ix, iy)]
                        score = float(np.prod(vals)) if cfg.composition == MULTIPLICATIVE else float(np.sum(vals))
                        total += wxv * wyv * score
                if cfg.normalization == NORMALIZED:
                    z = suffix_weight_sum(i, n, cfg.lam) * suffix_weight_sum(k, n, cfg.lam)
                    total = total / z if z != 0.0 else 0.0
                nxt[i, k] = total
        table = nxt
    return float(table[lx, ly])


def gram_matrix(items: Sequence, kernel: Callable) -> np.ndarray:
    """Kernel matrix over a collection, exactly symmetric by construction."""
    if not items:
        raise ContractError("gram_matrix needs a nonempty collection")
    m = len(items)
    out = np.zeros((m, m))
    for a in range(m):
        for b in range(a, m):
            v = float(kernel(items[a], items[b]))
            out[a, b] = v
            out[b, a] = v
    return out
