"""Recurrent sequence modules whose states evaluate string kernels.

A layer keeps n cell states per position; state j accumulates decay-weighted
scores of length-j subsequences ending no later than the current token.  The
decay is a constant, a learned per-unit value, or a sigmoid gate of the
current input (and optionally the previous output).  Stacks optionally use
highway mixing between a layer's cell state and its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .seq_kernel import FeatureSequence
from .tensor import (
    Activation,
    NamedParams,
    Tensor,
    accumulate,
    add,
    concat,
    matvec,
    mul,
    pick,
    scale,
    sigmoid,
    smul,
    sub,
)

VARIANTS = ("mult-unnorm", "mult-norm", "add-norm")
DECAYS = ("constant", "learned", "gated-input", "gated-input-state")
OUTPUTS = ("last-state", "combination")


def logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ContractError(f"logit needs p in (0, 1), got {p}")
    return math.log(p / (1.0 - p))


@dataclass
class SeqModelConfig:
    n: int
    hidden: int
    layers: int = 1
    variant: str = "mult-unnorm"
    decay: str = "constant"
    lam: float = 0.5
    activation: Activation = Activation.TANH
    output: str = "last-state"
    highway: bool = False
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.hidden < 1 or self.layers < 1:
            raise ConfigError(f"n, hidden and layers must be positive, got {self}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.decay not in DECAYS:
            raise ConfigError(f"unknown decay mode {self.decay!r}")
        if not 0.0 <= self.lam < 1.0:
            raise ConfigError(f"lambda must lie in [0, 1), got {self.lam}")
        if self.output not in OUTPUTS:
            raise ConfigError(f"unknown output mode {self.output!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")

    @property
    def gated(self) -> bool:
        return self.decay in ("gated-input", "gated-input-state")


@dataclass
class SeqLayerParams(NamedParams):
    """Weights of one recurrent layer; optional fields follow the config."""

    W: list[Tensor]
    gate_u: Tensor | None = None
    gate_b: Tensor | None = None
    decay_logit: Tensor | None = None
    comb: Tensor | None = None
    hw_u: Tensor | None = None
    hw_b: Tensor | None = None


def init_seq_layer(cfg: SeqModelConfig, in_dim: int, rng: np.random.Generator) -> SeqLayerParams:
    """Uniform(-a, a) init with a = 1/sqrt(fan-in); gate biases start at logit(lam)."""
    m = cfg.hidden
    a = 1.0 / math.sqrt(in_dim)
    ws = [Tensor(rng.uniform(-a, a, size=(m, in_dim))) for _ in range(cfg.n)]
    p = SeqLayerParams(W=ws)
    if cfg.gated or cfg.highway:
        gate_in = in_dim if cfg.decay == "gated-input" else in_dim + m
        ga = 1.0 / math.sqrt(gate_in)
        p.gate_u = Tensor(rng.uniform(-ga, ga, size=(m, gate_in)))
        p.gate_b = Tensor(np.full(m, logit(cfg.lam) if cfg.lam > 0.0 else 0.0))
    if cfg.decay == "learned":
        p.decay_logit = Tensor(np.full(m, logit(cfg.lam) if cfg.lam > 0.0 else 0.0))
    if cfg.output == "combination":
        p.comb = Tensor(np.ones(cfg.n))
    if cfg.highway:
        ha = 1.0 / math.sqrt(in_dim + m)
        p.hw_u = Tensor(rng.uniform(-ha, ha, size=(m, in_dim + m)))
        p.hw_b = Tensor(np.full(m, -1.0))
    return p


def init_seq_stack(cfg: SeqModelConfig, in_dim: int, rng: np.random.Generator) -> list[SeqLayerParams]:
    params = []
    d = in_dim
    for _ in range(cfg.layers):
        params.append(init_seq_layer(cfg, d, rng))
        d = cfg.hidden
    return params


@dataclass
class StateTrace:
    """Everything a forward pass produced, layer by layer.

    ``c[l][j][t]`` is cell state j+1 after token t (index 0 holds the zero
    init), ``pre[l][t-1]`` the pre-activation output, ``h[l][t-1]`` the
    output, and ``decays[l][t-1]`` the decay applied at step t (a float for
    constant decay, a tensor otherwise).
    """

    c: list[list[list[Tensor]]] = field(default_factory=list)
    pre: list[list[Tensor]] = field(default_factory=list)
    h: list[list[Tensor]] = field(default_factory=list)
    decays: list[list[object]] = field(default_factory=list)

    def outputs(self, layer: int = -1) -> list[Tensor]:
        return self.h[layer]

    def state(self, j: int, t: int, layer: int = -1) -> Tensor:
        """Cell state c_j at position t (both 1-based, matching the math)."""
        return self.c[layer][j - 1][t]

    def decay_arrays(self, hidden: int, layer: int = -1) -> list[np.ndarray]:
        out = []
        for g in self.decays[layer]:
            if isinstance(g, Tensor):
                out.append(np.array(g.data))
            else:
                out.append(np.full(hidden, float(g)))
        return out

    def carry(self, layer_count: int) -> "StackState":
        cs = [[np.array(cj[-1].data) for cj in self.c[l]] for l in range(layer_count)]
        hs = [np.array(self.h[l][-1].data) for l in range(layer_count)]
        return StackState(cs, hs)


@dataclass
class StackState:
    """Detached carry-over state for truncated backprop windows."""

    c: list[list[np.ndarray]]
    h: list[np.ndarray]


def _as_tensors(x) -> list[Tensor]:
    if isinstance(x, FeatureSequence):
        return [Tensor(t) for t in x.tokens]
    return list(x)


def _decay_for_step(cfg, p: SeqLayerParams, x_t: Tensor, h_prev: Tensor, learned: Tensor | None):
    if cfg.decay == "constant":
        return cfg.lam
    if cfg.decay == "learned":
        return learned
    if p.gate_u is None or p.gate_b is None:
        raise ConfigError("gated decay needs gate_u and gate_b parameters")
    gate_in = x_t if cfg.decay == "gated-input" else concat(x_t, h_prev)
    return sigmoid(add(matvec(p.gate_u, gate_in), p.gate_b))


def _decayed(decay, t: Tensor) -> Tensor:
    return scale(t, decay) if isinstance(decay, float) else mul(decay, t)


def _stepped(cfg, decay, t: Tensor) -> Tensor:
    if cfg.variant == "mult-unnorm" and not cfg.highway:
        return t
    if isinstance(decay, float):
        return scale(t, 1.0 - decay)
    return mul(sub(1.0, decay), t)


def forward_layer(
    x,
    p: SeqLayerParams,
    cfg: SeqModelConfig,
    init_c: Sequence[np.ndarray] | None = None,
    init_h: np.ndarray | None = None,
) -> StateTrace:
    """Run one recurrent layer over a token sequence and record the full trace.

    With ``cfg.highway`` the cell input is always scaled by (1 - decay), the
    pre-activation is the last state, and the output mixes it with the layer
    input, h = f * pre + (1 - f) * x, with no activation, so an
    identity-activation stack stays exactly linear-gated.
    """
    tokens = _as_tensors(x)
    if not tokens:
        raise ContractError("forward_layer needs a nonempty sequence")
    m, n = cfg.hidden, cfg.n
    in_dim = tokens[0].shape[0]
    if cfg.highway:
        if in_dim != m:
            raise ShapeError(f"highway layers need input dim {m}, got {tokens[0].shape}")
        if p.hw_u is None or p.hw_b is None:
            raise ConfigError("highway mode needs hw_u and hw_b parameters")
    for j, w in enumerate(p.W):
        if w.shape != (m, in_dim):
            raise ShapeError(f"W{j + 1} has shape {w.shape}, expected {(m, in_dim)}")
    combine = cfg.output == "combination" and not cfg.highway
    if combine and p.comb is None:
        raise ConfigError("combination output needs comb coefficients")
    zeros = Tensor(np.zeros(m))
    c_prev = [Tensor(np.asarray(v)) for v in init_c] if init_c is not None else [zeros] * n
    if len(c_prev) != n:
        raise ShapeError(f"init_c has {len(c_prev)} states, expected {n}")
    h_prev = Tensor(np.asarray(init_h)) if init_h is not None else zeros
    learned = sigmoid(p.decay_logit) if cfg.decay == "learned" else None

    trace = StateTrace(c=[[[cj] for cj in c_prev]], pre=[[]], h=[[]], decays=[[]])
    for x_t in tokens:
        decay = _decay_for_step(cfg, p, x_t, h_prev, learned)
        new_states: list[Tensor] = []
        for j in range(n):
            proj = matvec(p.W[j], x_t)
            if j == 0:
                inner = proj
            elif cfg.variant == "add-norm":
                inner = add(c_prev[j - 1], proj)
            else:
                inner = mul(c_prev[j - 1], proj)
            new_states.append(add(_decayed(decay, c_prev[j]), _stepped(cfg, decay, inner)))
        if combine:
            pre = accumulate([smul(pick(p.comb, j), new_states[j]) for j in range(n)])
        else:
            pre = new_states[-1]
        if cfg.highway:
            f_t = sigmoid(add(matvec(p.hw_u, concat(x_t, h_prev)), p.hw_b))
            h_t = add(mul(f_t, pre), mul(sub(1.0, f_t), x_t))
        else:
            h_t = cfg.activation(pre)
        for j in range(n):
            trace.c[0][j].append(new_states[j])
        trace.pre[0].append(pre)
        trace.h[0].append(h_t)
        trace.decays[0].append(decay)
        c_prev = new_states
        h_prev = h_t
    return trace


def forward_stack(
    x,
    params: Sequence[SeqLayerParams],
    cfg: SeqModelConfig,
    state: StackState | None = None,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> StateTrace:
    """Apply the configured layers in order; layer l+1 reads layer l's outputs.

    Dropout, when enabled and training, is applied to layer inputs only,
    with inverted scaling so evaluation uses the weights unchanged.
    """
    tokens = _as_tensors(x)
    if len(params) != cfg.layers:
        raise ConfigError(f"got {len(params)} layer params for {cfg.layers} layers")
    trace = StateTrace()
    inputs = tokens
    for l, p in enumerate(params):
        if training and cfg.dropout > 0.0:
            if rng is None:
                raise ConfigError("dropout during training needs an rng")
            keep = 1.0 - cfg.dropout
            masked = []
            for t in inputs:
                mask = (rng.random(t.shape[0]) < keep).astype(np.float64) / keep
                masked.append(mul(t, Tensor(mask)))
            inputs = masked
        init_c = state.c[l] if state is not None else None
        init_h = state.h[l] if state is not None else None
        layer = forward_layer(inputs, p, cfg, init_c=init_c, init_h=init_h)
        trace.c.append(layer.c[0])
        trace.pre.append(layer.pre[0])
        trace.h.append(layer.h[0])
        trace.decays.append(layer.decays[0])
        inputs = trace.h[-1]
    return trace

