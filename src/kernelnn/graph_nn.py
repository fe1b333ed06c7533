"""Graph modules whose node states aggregate walk scores.

State j at node v scores j-node walks ending at v against reference walks
built from the weight rows.  Variants: plain decay, generalized composition
with nonlinear neighbor aggregation, stacked layers with per-layer readouts,
relabeling iterations with shared transforms, and per-edge sigmoid gates.

Every module runs on whole node matrices: the states of order j are one
(N, hidden) matrix, ``C_j = lam * (A C_{j-1}) * (X W_j^T)`` with the
neighbor sum ``A C`` taken over an edge list.  A minibatch is one
``FeatureGraph.union`` of graphs (a block-diagonal A), with one output row
per member graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np

from .errors import ConfigError, ContractError, ShapeError, check_fields
from .inputs import ADDITIVE, MULTIPLICATIVE, FeatureGraph
from .tensor import (
    Activation,
    NamedParams,
    Segments,
    Tensor,
    accumulate,
    add,
    gather_rows,
    init_params,
    linear,
    matvec,
    mul,
    neighbor_sum,
    row,
    scale,
    segment_sum,
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
        check_fields(self)
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

    layer_W: list[list[Tensor]]
    u1: Tensor
    u2: Tensor
    v: Tensor


def _segments(g: FeatureGraph) -> tuple[Segments, Segments, Segments]:
    """The sources and destinations of the walk steps, and each node's member graph."""
    src, dst = g.edge_arrays
    members = np.repeat(np.arange(len(g.sizes)), g.sizes)
    return Segments(src, g.num_nodes), Segments(dst, g.num_nodes), Segments(members, len(g.sizes))


@dataclass(eq=False)
class GraphStateTrace:
    """Everything a forward pass over a graph produced, layer by layer.

    ``states[l][j-1]`` is the (N, hidden) matrix of cell state j, one row per
    node of the graph; ``nodes[l]`` holds the node vectors of layer l (the
    input features for single-layer modules, the readout or relabeled
    vectors for stacks); ``readouts[l]`` the (B, hidden) per-graph readouts
    and ``out`` the (B, hidden) module output, one row per member graph.
    """

    graph: FeatureGraph
    states: list[list[Tensor]]
    nodes: list[Tensor]
    readouts: list[Tensor]
    out: Tensor

    def _single(self, what: str) -> None:
        if len(self.graph.sizes) != 1:
            raise ContractError(f"{what} needs a single graph; this trace holds "
                                f"{len(self.graph.sizes)}, read readouts or out instead")

    @cached_property
    def h_graph(self) -> Tensor:
        self._single("h_graph")
        return row(self.out, 0)

    def state(self, j: int, v: int, layer: int = 0) -> Tensor:
        """Cell state c_j at node v (j is 1-based, matching the math)."""
        return row(self.states[layer][j - 1], v)

    def state_sum(self, j: int, layer: int = 0) -> np.ndarray:
        """Cell state c_j summed over the nodes of a single graph."""
        self._single("state_sum")
        return self.states[layer][j - 1].data.sum(axis=0)


def init_graph_layer(
    cfg: GraphModelConfig,
    in_dim: int,
    rng: np.random.Generator,
    with_readout: bool = False,
) -> GraphLayerParams:
    m = cfg.hidden
    shapes = {f"W{j}": (m, in_dim) for j in range(1, cfg.n + 1)}
    if with_readout:
        shapes["readout"] = (m, m)
    if cfg.gated:
        shapes.update(gate_u=(m, 2 * in_dim), gate_b=(m,))
    t = init_params(shapes, rng, {"gate_b": 0.0})
    return GraphLayerParams(W=[t.pop(f"W{j}") for j in range(1, cfg.n + 1)], **t)


def init_wl_params(cfg: GraphModelConfig, in_dim: int, rng: np.random.Generator) -> WLParams:
    ws = [[f"l{l}.W{j}" for j in range(1, cfg.n + 1)] for l in range(1, cfg.layers + 1)]
    shapes = {name: (cfg.hidden, in_dim) for names in ws for name in names}
    t = init_params({**shapes, **dict.fromkeys(("u1", "u2", "v"), (in_dim, in_dim))}, rng)
    return WLParams(layer_W=[[t.pop(name) for name in names] for names in ws], **t)


def _check_weights(ws: Sequence[Tensor], m: int, in_dim: int) -> None:
    for j, w in enumerate(ws):
        if w.shape != (m, in_dim):
            raise ShapeError(f"W{j + 1} has shape {w.shape}, expected {(m, in_dim)}")


def _walk_states(
    src: Segments,
    dst: Segments,
    x: Tensor,
    ws: Sequence[Tensor],
    lam: float,
    composition: str = MULTIPLICATIVE,
    act: Activation = Activation.IDENTITY,
    gate: Tensor | None = None,
) -> list[Tensor]:
    """The walk recursion over node matrices, one (N, hidden) state matrix per order.

    ``C_1 = X W_1^T``; ``C_j`` joins the projection ``X W_j^T`` with the
    neighbor aggregate ``lam * sum over u -> v of act(C_{j-1}[u])``, by
    product or (additive composition) by sum.  With a (E, hidden) edge gate
    the aggregate is ``sum over u -> v of gate[u -> v] * C_{j-1}[u]`` instead.
    A node without predecessors aggregates zero.
    """
    proj = [matvec(w, x) for w in ws]
    states = [proj[0]]
    for p in proj[1:]:
        prev = states[-1]
        if gate is None:
            agg = scale(neighbor_sum(act(prev), src, dst), lam)
        else:
            agg = segment_sum(mul(gate, gather_rows(prev, src)), dst)
        states.append(add(agg, p) if composition == ADDITIVE else mul(agg, p))
    return states


def _single_layer(
    g: FeatureGraph,
    p: GraphLayerParams,
    cfg: GraphModelConfig,
    composition: str = MULTIPLICATIVE,
    act: Activation = Activation.IDENTITY,
    gate: Tensor | None = None,
) -> GraphStateTrace:
    """Project, recurse, sum the final states per graph, activate."""
    src, dst, members = _segments(g)
    x = Tensor(g.matrix)
    _check_weights(p.W, cfg.hidden, x.shape[1])
    states = _walk_states(src, dst, x, p.W, cfg.lam, composition, act, gate)
    pre = segment_sum(states[-1], members)
    return GraphStateTrace(g, [states], [x], [pre], cfg.activation(pre))


def rw_forward(
    g: FeatureGraph, p: GraphLayerParams, cfg: GraphModelConfig
) -> GraphStateTrace:
    """Single-layer walk module: per graph, act(sum of final node states)."""
    return _single_layer(g, p, cfg)


def generalized_forward(
    g: FeatureGraph, p: GraphLayerParams, cfg: GraphModelConfig
) -> GraphStateTrace:
    """Composition-switch module: project the node, then join aggregated neighbors.

    Multiplicative composition with identity activation coincides with
    :func:`rw_forward`; the additive branch keeps the projected feature alive
    on edgeless nodes.
    """
    return _single_layer(g, p, cfg, cfg.composition, cfg.activation)


def deep_forward(
    g: FeatureGraph, params: Sequence[GraphLayerParams], cfg: GraphModelConfig
) -> GraphStateTrace:
    """Stack of generalized layers with per-layer readout of the final width state."""
    if len(params) != cfg.layers:
        raise ConfigError(f"got {len(params)} layer params for {cfg.layers} layers")
    src, dst, members = _segments(g)
    x = Tensor(g.matrix)
    states, nodes, readouts = [], [], []
    for p in params:
        if p.readout is None:
            raise ConfigError("deep layers need a readout matrix")
        _check_weights(p.W, cfg.hidden, x.shape[1])
        layer = _walk_states(src, dst, x, p.W, cfg.lam, cfg.composition, cfg.activation)
        x = cfg.activation(matvec(p.readout, layer[-1]))
        states.append(layer)
        nodes.append(x)
        readouts.append(segment_sum(x, members))
    return GraphStateTrace(g, states, nodes, readouts, readouts[-1])


def wl_forward(g: FeatureGraph, p: WLParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """Relabeling iterations with walk readouts, summed across layers.

    Per-layer readouts are pre-activation sums of the final walk states; the
    relabeling ``act(H u1^T + (A act(H v^T)) u2^T)`` uses the same u1, u2, v
    at every layer.
    """
    if len(p.layer_W) != cfg.layers:
        raise ConfigError(f"got {len(p.layer_W)} weight lists for {cfg.layers} layers")
    src, dst, members = _segments(g)
    x = Tensor(g.matrix)
    act = cfg.activation
    states, nodes, readouts = [], [], []
    for ws in p.layer_W:
        _check_weights(ws, cfg.hidden, x.shape[1])
        layer = _walk_states(src, dst, x, ws, cfg.lam)
        states.append(layer)
        readouts.append(segment_sum(layer[-1], members))
        inner = act(matvec(p.v, x))
        x = act(add(matvec(p.u1, x), matvec(p.u2, neighbor_sum(inner, src, dst))))
        nodes.append(x)
    return GraphStateTrace(g, states, nodes, readouts, accumulate(readouts))


def gated_rw_forward(
    g: FeatureGraph, p: GraphLayerParams, cfg: GraphModelConfig
) -> GraphStateTrace:
    """Walk module with a learned per-edge decay instead of the constant.

    The (E, hidden) gate of step u -> v is ``sigmoid(gate_u [f_u; f_v] + gate_b)``.
    """
    if p.gate_u is None or p.gate_b is None:
        raise ConfigError("gated walk module needs gate_u and gate_b parameters")
    src, dst = g.edge_arrays
    pairs = Tensor(np.hstack([g.matrix[src], g.matrix[dst]]))
    gate = Activation.SIGMOID(linear(pairs, p.gate_u, p.gate_b))
    return _single_layer(g, p, cfg, gate=gate)
