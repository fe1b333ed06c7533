"""Recurrent sequence modules whose states evaluate string kernels.

A layer keeps n cell states per position; state j accumulates decay-weighted
scores of length-j subsequences ending no later than the current token.  The
decay is a constant, a learned per-unit value, or a sigmoid gate of the
current input (and optionally the previous output).  Stacks optionally use
highway mixing between a layer's cell state and its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, EvaluationError, ShapeError, check_fields
from .inputs import FeatureSequence
from .tensor import Activation, NamedParams, Tensor, _sigmoid_raw, emit, init_params, mul, stack

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
        check_fields(self)
        if self.n < 1 or self.hidden < 1 or self.layers < 1:
            raise ConfigError(f"n, hidden and layers must be positive, got {self}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.decay not in DECAYS:
            raise ConfigError(f"unknown decay mode {self.decay!r}")
        if not 0.0 <= self.lam < 1.0:
            raise ConfigError(f"lambda must lie in [0, 1), got {self.lam}")
        if self.decay != "constant" and self.lam == 0.0:
            raise ConfigError(f"decay {self.decay!r} starts its bias at logit(lambda), "
                              f"which needs lambda in (0, 1), got 0")
        if self.output not in OUTPUTS:
            raise ConfigError(f"unknown output mode {self.output!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.highway and self.output == "combination":
            raise ConfigError("highway layers output their last state; "
                              "output 'combination' does not apply to them")

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


def layer_shapes(cfg: SeqModelConfig, in_dim: int) -> dict[str, tuple[int, ...]]:
    """Each tensor a layer holds, by name, with its shape, in the order the scan reads them."""
    m = cfg.hidden
    shapes = {f"W{j}": (m, in_dim) for j in range(1, cfg.n + 1)}
    if cfg.gated:
        shapes["gate_u"] = (m, in_dim if cfg.decay == "gated-input" else in_dim + m)
        shapes["gate_b"] = (m,)
    if cfg.decay == "learned":
        shapes["decay_logit"] = (m,)
    if cfg.output == "combination":
        shapes["comb"] = (cfg.n,)
    if cfg.highway:
        shapes.update(hw_u=(m, in_dim + m), hw_b=(m,))
    return shapes


def init_seq_stack(cfg: SeqModelConfig, in_dim: int, rng: np.random.Generator) -> list[SeqLayerParams]:
    """:func:`layer_shapes` of each layer drawn by the init rule, layer by layer; layer 1
    reads ``in_dim`` features, every later one the layer below, and the gate and decay
    biases start at logit(lam)."""
    fill = {"comb": 1.0, "hw_b": -1.0}
    if cfg.decay != "constant":
        fill.update(gate_b=logit(cfg.lam), decay_logit=logit(cfg.lam))
    params = []
    for l in range(cfg.layers):
        t = init_params(layer_shapes(cfg, in_dim if l == 0 else cfg.hidden), rng, fill)
        params.append(SeqLayerParams(W=[t.pop(f"W{j}") for j in range(1, cfg.n + 1)], **t))
    return params


@dataclass
class LayerScan:
    """What one layer's scan computed over a window of T tokens.

    ``c[t, j]`` is cell state j+1 after token t (row 0 holds the initial
    state), ``pre[t-1]`` the pre-activation output, ``decay[t-1]`` the
    (hidden,) decay applied at token t in every decay mode, and ``h`` the
    (T, hidden) output tensor the scan recorded on the tape.
    """

    c: np.ndarray
    pre: np.ndarray
    decay: np.ndarray
    h: Tensor


@dataclass(eq=False)
class StateTrace:
    """Everything a forward pass produced: one :class:`LayerScan` per layer."""

    scans: list[LayerScan]

    def matrix(self, layer: int = -1) -> Tensor:
        """The (T, hidden) output of a layer, one row per token."""
        return self.scans[layer].h

    def state(self, j: int, t: int, layer: int = -1) -> Tensor:
        """Cell state c_j after token t (both 1-based, matching the math; t = 0 is the start)."""
        return Tensor(self.scans[layer].c[t, j - 1])

    def decay_arrays(self, hidden: int, layer: int = -1) -> list[np.ndarray]:
        """The decay applied at each step, one (hidden,) array per token."""
        decay = self.scans[layer].decay
        if decay.shape[1] != hidden:
            raise ShapeError(f"layer {layer} decays {decay.shape[1]} units, not {hidden}")
        return list(decay)

    def carry(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each layer's last ``(c, h)``, detached, to start the next window from."""
        return [(s.c[-1].copy(), s.h.data[-1].copy()) for s in self.scans]


def _as_matrix(x) -> Tensor:
    """A window as a (T, d) tensor: a FeatureSequence, a list of 1-d tensors, or a matrix."""
    if isinstance(x, FeatureSequence):
        x = Tensor(np.array(x.tokens).reshape(len(x.tokens), x.dim))
    elif not isinstance(x, Tensor):
        x = list(x)
        if not x:
            raise ContractError("forward_stack needs a nonempty sequence")
        x = stack(x)
    if x.data.ndim != 2:
        raise ShapeError(f"a window matrix must be 2-d, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ContractError("forward_stack needs a nonempty sequence")
    return x


def _check_params(p: SeqLayerParams, cfg: SeqModelConfig, in_dim: int) -> list[Tensor]:
    """The tensors :func:`layer_shapes` names, in its order, after checking them against it."""
    if len(p.W) != cfg.n:
        raise ShapeError(f"got {len(p.W)} projection matrices for order {cfg.n}")
    params = []
    for name, shape in layer_shapes(cfg, in_dim).items():
        if len(params) < cfg.n:
            t = p.W[len(params)]
        else:  # past the W, every one of which fits
            if cfg.highway and in_dim != cfg.hidden:
                raise ShapeError(f"highway layers need input dim {cfg.hidden}, got {in_dim}")
            t = getattr(p, name)
            if t is None:
                raise ConfigError(f"decay {cfg.decay!r}, output {cfg.output!r} and highway "
                                  f"{cfg.highway} need the {name} parameter")
        if t.shape != shape:
            raise ShapeError(f"{name} has shape {t.shape}, expected {shape}")
        params.append(t)
    return params


def _scan(
    x: Tensor,
    p: SeqLayerParams,
    cfg: SeqModelConfig,
    state: tuple[np.ndarray, np.ndarray] | None,
) -> LayerScan:
    """One layer over a whole window, recorded as a single tape node.

    The recurrence c_j[t] = lam_t c_j[t-1] + s_t inner_j[t], with
    inner_j[t] = c_{j-1}[t-1] (times or plus) W_j x_t and s_t = 1 - lam_t (or
    1 for unnormalized layers), runs as one loop.  Per step it does only what
    reads the previous step: inner and the cell update and, where the previous
    output feeds the step, the gate (gated-input-state), the highway mix and
    the output.  The rest is whole-window: the projections and the input parts
    of the gate and highway pre-activations (one matmul each), 1 - lam where
    the decay does not read the state, and pre and h where no step reads them.
    The hand-written backprop through time carries the cell adjoint and keeps
    it per step; the projection adjoints, and the decay adjoints where the
    decay does not read the state, are whole-window ops on those.
    """
    xd = x.data
    steps, in_dim = xd.shape
    m, n = cfg.hidden, cfg.n
    params = _check_params(p, cfg, in_dim)
    with_state = cfg.decay == "gated-input-state"
    stepwise = with_state or cfg.highway  # the previous output feeds this step
    normalized = cfg.variant != "mult-unnorm" or cfg.highway
    additive = cfg.variant == "add-norm"
    mix = np.add if additive else np.multiply

    c = np.zeros((steps + 1, n, m))
    start = (c[0], np.zeros(m)) if state is None else state
    c0, h0 = (np.asarray(s, dtype=np.float64) for s in start)
    if (c0.shape, h0.shape) != ((n, m), (m,)):
        raise ShapeError(f"start state (c, h) has shapes {c0.shape} and {h0.shape}, "
                         f"expected {(n, m)} and {(m,)}")
    c[0] = c0

    wcat = np.concatenate([w.data for w in p.W])
    proj = (xd @ wcat.T).reshape(steps, n, m)
    if cfg.decay == "constant":
        lam = np.full((steps, m), cfg.lam)
    elif cfg.decay == "learned":
        lam = np.broadcast_to(_sigmoid_raw(p.decay_logit.data), (steps, m))
    else:
        gate_u = p.gate_u.data
        gate_h = gate_u[:, in_dim:]
        lam = xd @ gate_u[:, :in_dim].T + p.gate_b.data
        if not with_state:
            lam = _sigmoid_raw(lam)
    rest = np.empty((steps, m)) if with_state else 1.0 - lam  # 1 - lam
    comb = p.comb.data if cfg.output == "combination" else None
    if cfg.highway:
        hw_h = p.hw_u.data[:, in_dim:]
        hw_x = xd @ p.hw_u.data[:, :in_dim].T + p.hw_b.data
        f = np.empty((steps, m))
        f_rest = np.empty((steps, m))  # 1 - f

    inner = np.empty((steps, n, m))
    inner[:, 0] = proj[:, 0]
    pre = np.empty((steps, m))
    h = np.empty((steps, m))
    act = (np.tanh if cfg.activation is Activation.TANH
           else lambda z, out: np.copyto(out, cfg.activation.f(z)))
    buf, hw_buf = np.empty((n, m)), np.empty(m)
    h_prev = h0
    for t in range(steps):
        a, ct, lt = c[t], c[t + 1], lam[t]
        if with_state:
            np.add(lt, gate_h @ h_prev, out=lt)
            _sigmoid_raw(lt, out=lt)
            np.subtract(1.0, lt, out=rest[t])
        inn = inner[t]
        mix(a[:-1], proj[t, 1:], out=inn[1:])
        np.multiply(lt, a, out=ct)
        np.add(ct, np.multiply(rest[t], inn, out=buf) if normalized else inn, out=ct)
        if stepwise:
            pre_t = ct[-1] if comb is None else np.matmul(comb, ct, out=pre[t])
            h_t = h[t]
            if cfg.highway:
                f_t = f[t]
                np.add(hw_x[t], hw_h @ h_prev, out=f_t)
                _sigmoid_raw(f_t, out=f_t)
                np.subtract(1.0, f_t, out=f_rest[t])
                np.multiply(f_t, pre_t, out=h_t)
                np.add(h_t, np.multiply(f_rest[t], xd[t], out=hw_buf), out=h_t)
            else:
                act(pre_t, h_t)
            h_prev = h_t
    if comb is None:
        pre[:] = c[1:, -1]
    elif not stepwise:
        pre[:] = comb @ c[1:]
    if not stepwise:
        h = cfg.activation.f(pre)
    if not np.isfinite(c).all():
        raise EvaluationError("cell state holds non-finite entries")

    def bwd(g_h: np.ndarray):
        g_c = np.zeros((steps, n, m))  # g_c[t]: the adjoint of c[t+1]
        g_proj = np.empty((steps, n, m)) if normalized else g_c
        g_x = np.zeros((steps, in_dim))
        g_comb = np.zeros(n)
        if not cfg.highway:
            d_act = cfg.activation.deriv(pre)
            g_pre = None if stepwise else g_h * d_act
        lam_part = c[:-1] - inner if normalized else c[:-1]  # d c[t+1] / d lam_t
        if with_state:
            g_lam = np.empty((steps, m))
            g_gate = np.empty((steps, m))
        if cfg.highway:
            g_hw = np.empty((steps, m))  # the adjoint of h
            g_f = np.empty((steps, m))
            pre_x = pre - xd
        g_next = np.zeros(m)  # reaches h[t] through step t+1's gate and highway inputs
        for t in reversed(range(steps)):
            gc = g_c[t]
            if stepwise:
                if cfg.highway:
                    gh = np.add(g_h[t], g_next, out=g_hw[t])
                    g_pre_t = gh * f[t]
                    g_f_t = np.multiply(gh, pre_x[t], out=g_f[t])
                    g_f_t *= f[t]
                    g_f_t *= f_rest[t]
                else:
                    g_pre_t = (g_h[t] + g_next) * d_act[t]
            else:
                g_pre_t = g_pre[t]
            if comb is None:
                gc[-1] += g_pre_t
            else:
                gc += comb[:, None] * g_pre_t
                g_comb += c[t + 1] @ g_pre_t
            g_inn = np.multiply(rest[t], gc, out=g_proj[t]) if normalized else gc
            if with_state:
                g_lam_t = np.add.reduce(np.multiply(gc, lam_part[t], out=buf), 0, out=g_lam[t])
                g_gate_t = np.multiply(g_lam_t, lam[t], out=g_gate[t])
                g_gate_t *= rest[t]
            if t == 0:
                break
            g_prev = np.multiply(lam[t], gc, out=g_c[t - 1])
            g_prev[:-1] += g_inn[1:] if additive else np.multiply(g_inn[1:], proj[t, 1:],
                                                                  out=buf[1:])
            if with_state:
                g_next = gate_h.T @ g_gate_t
                if cfg.highway:
                    g_next += hw_h.T @ g_f_t
            elif cfg.highway:
                g_next = hw_h.T @ g_f_t
        if not with_state:
            g_lam = (g_c * lam_part).sum(axis=1)
        if not additive:
            g_proj[:, 1:] *= c[:-1, :-1]
        flat = g_proj.reshape(steps, n * m)
        if cfg.highway:
            g_x += g_hw * f_rest
        g_x += flat @ wcat
        grads = [g_x, *np.split(flat.T @ xd, n)]
        h_prev_rows = np.vstack([h0, h[:-1]]) if stepwise else None
        if cfg.gated:
            if not with_state:
                g_gate = g_lam * lam * rest
            g_x += g_gate @ gate_u[:, :in_dim]
            g_u = g_gate.T @ xd
            if with_state:
                g_u = np.hstack([g_u, g_gate.T @ h_prev_rows])
            grads += [g_u, g_gate.sum(axis=0)]
        if cfg.decay == "learned":
            grads.append(np.sum(g_lam, axis=0) * lam[0] * rest[0])
        if comb is not None:
            grads.append(g_comb)
        if cfg.highway:
            g_x += g_f @ p.hw_u.data[:, :in_dim]
            grads += [np.hstack([g_f.T @ xd, g_f.T @ h_prev_rows]), g_f.sum(axis=0)]
        return tuple(grads)

    out = emit(h, "seq_scan", (x, *params), bwd)
    return LayerScan(c=c, pre=pre, decay=lam, h=out)


def forward_stack(
    x,
    params: Sequence[SeqLayerParams],
    cfg: SeqModelConfig,
    state: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
    rng: np.random.Generator | None = None,
) -> StateTrace:
    """Apply the configured layers in order; layer l+1 reads layer l's outputs.

    ``x`` is a FeatureSequence, a list of 1-d tensors or a (T, d) tensor.
    ``state`` holds each layer's start state ``(c, h)``, of shapes (n, hidden)
    and (hidden,), as :meth:`StateTrace.carry` returns them; zero when unset.
    With ``cfg.highway`` a layer's cell input is always scaled by
    (1 - decay), its pre-activation is the last state, and its output mixes
    that with the layer input, h = f * pre + (1 - f) * x, with no
    activation, so an identity-activation stack stays exactly linear-gated.
    Passing ``rng`` is training: with ``cfg.dropout`` > 0, dropout then
    applies to layer inputs only, with inverted scaling so evaluation (no
    rng) uses the weights unchanged.  Each layer draws its (T, d) mask in one
    call, row by row, which consumes the rng stream exactly as one draw per
    token does.
    """
    inputs = _as_matrix(x)
    if len(params) != cfg.layers:
        raise ConfigError(f"got {len(params)} layer params for {cfg.layers} layers")
    scans = []
    for l, p in enumerate(params):
        if rng is not None and cfg.dropout > 0.0:
            keep = 1.0 - cfg.dropout
            mask = (rng.random(inputs.shape) < keep).astype(np.float64) / keep
            inputs = mul(inputs, Tensor(mask))
        scans.append(_scan(inputs, p, cfg, None if state is None else state[l]))
        inputs = scans[-1].h
    return StateTrace(scans)
