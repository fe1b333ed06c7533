"""Graph modules whose node states aggregate walk scores.

State j at node v scores j-node walks ending at v against reference walks
built from the weight rows.  Variants: plain decay, generalized composition
with nonlinear neighbor aggregation, stacked layers with per-layer readouts,
relabeling iterations with shared transforms, and per-edge sigmoid gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .graph_kernel import ADDITIVE, MULTIPLICATIVE, FeatureGraph
from .tensor import (
    Activation,
    NamedParams,
    Tensor,
    accumulate,
    add,
    concat,
    matvec,
    mul,
    scale,
    sigmoid,
)


@dataclass
class GraphModelConfig:
    n: int
    hidden: int
    lam: float = 0.5
    composition: str = MULTIPLICATIVE
    activation: Activation = Activation.IDENTITY
    layers: int = 1
    gated: bool = False

    def __post_init__(self) -> None:
        if self.n < 1 or self.hidden < 1 or self.layers < 1:
            raise ConfigError(f"n, hidden and layers must be positive, got {self}")
        if self.lam < 0.0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if self.composition not in (MULTIPLICATIVE, ADDITIVE):
            raise ConfigError(f"unknown composition {self.composition!r}")


@dataclass
class GraphLayerParams(NamedParams):
    W: list[Tensor]
    readout: Tensor | None = None
    gate_u: Tensor | None = None
    gate_b: Tensor | None = None


@dataclass
class WLParams(NamedParams):
    """Per-layer walk weights plus relabeling transforms shared by all layers."""

    LISTS: ClassVar[dict[str, str]] = {"layer_W": "l{}.W{}"}
    PREFIX: ClassVar[str] = "wl"

    layer_W: list[list[Tensor]]
    u1: Tensor
    u2: Tensor
    v: Tensor


@dataclass
class GraphStateTrace:
    """States per layer: c[l][j][v], relabeled/readout node vectors, readouts."""

    c: list[list[list[Tensor]]] = field(default_factory=list)
    h_node: list[list[Tensor]] = field(default_factory=list)
    h_layer: list[Tensor] = field(default_factory=list)
    h_graph: Tensor | None = None

    def state(self, j: int, v: int, layer: int = 0) -> Tensor:
        """Cell state c_j at node v (j is 1-based, matching the math)."""
        return self.c[layer][j - 1][v]

    def state_sum(self, j: int, layer: int = 0) -> np.ndarray:
        vecs = [t.data for t in self.c[layer][j - 1]]
        return np.sum(vecs, axis=0)


def init_graph_layer(
    cfg: GraphModelConfig,
    in_dim: int,
    rng: np.random.Generator,
    with_readout: bool = False,
) -> GraphLayerParams:
    m = cfg.hidden
    a = 1.0 / math.sqrt(in_dim)
    p = GraphLayerParams(W=[Tensor(rng.uniform(-a, a, size=(m, in_dim))) for _ in range(cfg.n)])
    if with_readout:
        ra = 1.0 / math.sqrt(m)
        p.readout = Tensor(rng.uniform(-ra, ra, size=(m, m)))
    if cfg.gated:
        ga = 1.0 / math.sqrt(2 * in_dim)
        p.gate_u = Tensor(rng.uniform(-ga, ga, size=(m, 2 * in_dim)))
        p.gate_b = Tensor(np.zeros(m))
    return p


def init_wl_params(cfg: GraphModelConfig, in_dim: int, rng: np.random.Generator) -> WLParams:
    a = 1.0 / math.sqrt(in_dim)
    layer_W = [
        [Tensor(rng.uniform(-a, a, size=(cfg.hidden, in_dim))) for _ in range(cfg.n)]
        for _ in range(cfg.layers)
    ]
    u1 = Tensor(rng.uniform(-a, a, size=(in_dim, in_dim)))
    u2 = Tensor(rng.uniform(-a, a, size=(in_dim, in_dim)))
    v = Tensor(rng.uniform(-a, a, size=(in_dim, in_dim)))
    return WLParams(layer_W=layer_W, u1=u1, u2=u2, v=v)


def _check_weights(ws: Sequence[Tensor], m: int, in_dim: int) -> None:
    for j, w in enumerate(ws):
        if w.shape != (m, in_dim):
            raise ShapeError(f"W{j + 1} has shape {w.shape}, expected {(m, in_dim)}")


def _walk_states(
    g: FeatureGraph, feats: list[Tensor], ws: Sequence[Tensor], join
) -> list[list[Tensor]]:
    """The walk recursion: c_1[v] = W_1 f_v, and c_j[v] = join(c_{j-1}, v, W_j f_v)."""
    proj = [[matvec(w, feats[v]) for v in range(g.num_nodes)] for w in ws]
    states: list[list[Tensor]] = [proj[0]]
    for j in range(1, len(ws)):
        prev = states[-1]
        states.append([join(prev, v, proj[j][v]) for v in range(g.num_nodes)])
    return states


def _sum_join(g: FeatureGraph, lam: float, m: int, composition: str = MULTIPLICATIVE,
              act: Activation = Activation.IDENTITY):
    """Aggregate lam * sum of act(neighbor states), multiplied into or added to the projection.

    An edgeless node keeps the projection under additive composition and is
    zero under multiplicative composition.
    """
    zeros = Tensor(np.zeros(m))

    def join(prev: list[Tensor], v: int, proj: Tensor) -> Tensor:
        nbrs = g.neighbors[v]
        if not nbrs:
            return proj if composition == ADDITIVE else zeros
        agg = scale(accumulate([act(prev[u]) for u in nbrs]), lam)
        return add(agg, proj) if composition == ADDITIVE else mul(agg, proj)

    return join


def _gated_join(g: FeatureGraph, gates: dict[tuple[int, int], Tensor], m: int):
    """Aggregate sum over neighbors u of gate(u, v) * c_{j-1}[u] * proj."""
    zeros = Tensor(np.zeros(m))

    def join(prev: list[Tensor], v: int, proj: Tensor) -> Tensor:
        terms = [mul(mul(gates[(u, v)], prev[u]), proj) for u in g.neighbors[v]]
        return accumulate(terms) if terms else zeros

    return join


def _single_layer(
    g: FeatureGraph, feats: list[Tensor], p: GraphLayerParams, cfg: GraphModelConfig, join
) -> GraphStateTrace:
    """Project, recurse, sum the final states over nodes, activate."""
    _check_weights(p.W, cfg.hidden, g.dim)
    states = _walk_states(g, feats, p.W, join)
    pre = accumulate(states[-1])
    return GraphStateTrace(c=[states], h_node=[feats], h_layer=[pre], h_graph=cfg.activation(pre))


def rw_forward(g: FeatureGraph, p: GraphLayerParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """Single-layer walk module: h_G = act(sum of final node states)."""
    feats = [Tensor(f) for f in g.features]
    return _single_layer(g, feats, p, cfg, _sum_join(g, cfg.lam, cfg.hidden))


def generalized_forward(
    g: FeatureGraph, p: GraphLayerParams, cfg: GraphModelConfig
) -> GraphStateTrace:
    """Composition-switch module: project the node, then join aggregated neighbors.

    Multiplicative composition with identity activation coincides with
    :func:`rw_forward`; the additive branch keeps the projected feature alive
    on edgeless nodes.
    """
    feats = [Tensor(f) for f in g.features]
    join = _sum_join(g, cfg.lam, cfg.hidden, cfg.composition, cfg.activation)
    return _single_layer(g, feats, p, cfg, join)


def deep_forward(
    g: FeatureGraph, params: Sequence[GraphLayerParams], cfg: GraphModelConfig
) -> GraphStateTrace:
    """Stack of generalized layers with per-layer readout of the final width state."""
    if len(params) != cfg.layers:
        raise ConfigError(f"got {len(params)} layer params for {cfg.layers} layers")
    trace = GraphStateTrace()
    node_vecs = [Tensor(f) for f in g.features]
    for p in params:
        if p.readout is None:
            raise ConfigError("deep layers need a readout matrix")
        _check_weights(p.W, cfg.hidden, node_vecs[0].shape[0])
        join = _sum_join(g, cfg.lam, cfg.hidden, cfg.composition, cfg.activation)
        states = _walk_states(g, node_vecs, p.W, join)
        node_vecs = [cfg.activation(matvec(p.readout, states[-1][v])) for v in range(g.num_nodes)]
        trace.c.append(states)
        trace.h_node.append(node_vecs)
        trace.h_layer.append(accumulate(node_vecs))
    trace.h_graph = trace.h_layer[-1]
    return trace


def wl_forward(g: FeatureGraph, p: WLParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """Relabeling iterations with walk readouts, summed across layers.

    Per-layer readouts are pre-activation sums of the final walk states; the
    relabeling transforms u1, u2, v are the same tensors at every layer.
    """
    if len(p.layer_W) != cfg.layers:
        raise ConfigError(f"got {len(p.layer_W)} weight lists for {cfg.layers} layers")
    trace = GraphStateTrace()
    node_vecs = [Tensor(f) for f in g.features]
    act = cfg.activation
    for ws in p.layer_W:
        _check_weights(ws, cfg.hidden, node_vecs[0].shape[0])
        states = _walk_states(g, node_vecs, ws, _sum_join(g, cfg.lam, cfg.hidden))
        trace.c.append(states)
        trace.h_layer.append(accumulate(states[-1]))
        inner = [act(matvec(p.v, node_vecs[u])) for u in range(g.num_nodes)]
        relabeled: list[Tensor] = []
        for v_idx in range(g.num_nodes):
            own = matvec(p.u1, node_vecs[v_idx])
            nbr = [inner[u] for u in g.neighbors[v_idx]]
            if nbr:
                own = add(own, matvec(p.u2, accumulate(nbr)))
            relabeled.append(act(own))
        trace.h_node.append(relabeled)
        node_vecs = relabeled
    trace.h_graph = accumulate(trace.h_layer)
    return trace


def gated_rw_forward(g: FeatureGraph, p: GraphLayerParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """Walk module with a learned per-edge decay instead of the constant."""
    if p.gate_u is None or p.gate_b is None:
        raise ConfigError("gated walk module needs gate_u and gate_b parameters")
    feats = [Tensor(f) for f in g.features]
    gates: dict[tuple[int, int], Tensor] = {}
    for v in range(g.num_nodes):
        for u in g.neighbors[v]:
            if (u, v) not in gates:
                gates[(u, v)] = sigmoid(add(matvec(p.gate_u, concat(feats[u], feats[v])), p.gate_b))
    return _single_layer(g, feats, p, cfg, _gated_join(g, gates, cfg.hidden))
