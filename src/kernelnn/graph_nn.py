"""Graph modules whose node states aggregate walk scores.

State j at node v scores j-node walks ending at v against reference walks
built from the weight rows.  ``GraphModelConfig.module`` names the module,
:func:`init_graph` draws its parameters and :func:`graph_forward` runs it:
``walk``, one layer joining its neighbor aggregate to the projection by
``composition``; ``gated``, the walk layer with a learned per-edge sigmoid
decay; ``deep``, stacked layers with activated neighbor aggregation and a
readout matrix each; ``wl``, relabeling iterations with shared transforms.

Every module runs on whole node matrices: the states of order j are one
(N, hidden) matrix, ``C_j = lam * (A C_{j-1}) * (X W_j^T)``.  A minibatch is
one ``FeatureGraph.union`` of graphs (a block-diagonal A), with one output row
per member graph.  Only the neighbor sum ``A C`` leaves the flat rows, for one
padded dense block per member (``FeatureGraph.adjacency``) while the blocks stay
within the dense limits of ``inputs``, and otherwise the edge list; the gated
module's gates sum over the edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np

from .errors import ConfigError, ContractError, ShapeError, check_fields
from .inputs import ADDITIVE, MULTIPLICATIVE, FeatureGraph
from .seq_nn import logit
from .tensor import (
    Activation,
    NamedParams,
    Tensor,
    accumulate,
    add,
    gather_rows,
    linear,
    matvec,
    model_params,
    mul,
    neighbor_sum,
    row,
    scale,
    segment_sum,
)

MODULES = ("walk", "gated", "deep", "wl")


@dataclass
class GraphModelConfig:
    n: int
    hidden: int
    lam: float = 0.5
    composition: str = MULTIPLICATIVE
    activation: Activation = Activation.IDENTITY
    layers: int = 1
    module: str = "wl"

    def __post_init__(self) -> None:
        check_fields(self)
        if self.module not in MODULES:
            raise ConfigError(f"unknown module {self.module!r}; choose from {', '.join(MODULES)}")
        if self.n < 1 or self.hidden < 1 or self.layers < 1:
            raise ConfigError(f"n, hidden and layers must be positive, got {self}")
        if self.lam < 0.0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if self.composition not in (MULTIPLICATIVE, ADDITIVE):
            raise ConfigError(f"unknown composition {self.composition!r}")
        # the walk-kernel oracles that check gated and wl are multiplicative only
        if self.module in ("gated", "wl") and self.composition == ADDITIVE:
            raise ConfigError(f"the {self.module} module composes multiplicatively only")
        # at n = 1 the state is the projection: no neighbor aggregate reads lam or composition
        if self.n == 1 and (self.lam != GraphModelConfig.lam or self.composition == ADDITIVE):
            raise ConfigError(f"at n = 1 no module reads lam or composition; leave them at their "
                              f"defaults, got lam={self.lam}, composition={self.composition!r}")
        if self.module in ("walk", "gated") and self.layers != 1:
            raise ConfigError(f"the {self.module} module has one layer, got layers={self.layers}")
        if self.module == "gated" and not 0.0 < self.lam < 1.0:
            raise ConfigError(f"the gated module starts its gate bias at logit(lambda), "
                              f"which needs lambda in (0, 1), got {self.lam}")


@dataclass
class WalkParams(NamedParams):
    W: list[Tensor]


@dataclass
class GatedParams(NamedParams):
    W: list[Tensor]
    gate_u: Tensor
    gate_b: Tensor


@dataclass
class DeepParams(NamedParams):
    """Per-layer walk weights and readout matrices."""

    LISTS: ClassVar[dict[str, str]] = {"W": "l{}.W{}", "readout": "l{}.readout"}

    W: list[list[Tensor]]
    readout: list[Tensor]


@dataclass
class WLParams(NamedParams):
    """Per-layer walk weights plus relabeling transforms shared by all layers."""

    LISTS: ClassVar[dict[str, str]] = {"layer_W": "l{}.W{}"}

    layer_W: list[list[Tensor]]
    u1: Tensor
    u2: Tensor
    v: Tensor


@dataclass(eq=False)
class GraphStateTrace:
    """Everything a forward pass over a graph produced, layer by layer.

    ``states[l][j-1]`` is the (N, hidden) matrix of cell state j, one row per
    node of the graph; ``nodes[l]`` the node vectors layer l walks (in
    ``deep``, the readout vectors layer l hands to layer l+1); ``readouts[l]``
    the (B, hidden) per-graph readouts and ``out`` the (B, hidden) module
    output, one row per member graph.
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


def init_graph(cfg: GraphModelConfig, in_dim: int,
               rng: np.random.Generator | None) -> WalkParams | GatedParams | DeepParams | WLParams:
    """The module's tensors drawn by the init rule, layer by layer; a deep layer
    reads the previous layer's output, and the gates start at lam.  With ``rng``
    None, a skeleton (:func:`model_params`)."""
    m, deep = cfg.hidden, cfg.module == "deep"
    names = [[f"l{l}.W{j}" for j in range(1, cfg.n + 1)] for l in range(1, cfg.layers + 1)]
    shapes: dict[str, tuple[int, ...]] = {}
    for l, ws in enumerate(names):
        shapes.update(dict.fromkeys(ws, (m, m if deep and l > 0 else in_dim)))
        if deep:
            shapes[f"l{l + 1}.readout"] = (m, m)
    if cfg.module == "wl":
        shapes.update(dict.fromkeys(("u1", "u2", "v"), (in_dim, in_dim)))
    if cfg.module == "gated":
        shapes.update(gate_u=(m, 2 * in_dim), gate_b=(m,))
    fill = {"gate_b": logit(cfg.lam)} if cfg.module == "gated" else None
    t = model_params(shapes, rng, fill)
    ws = [[t.pop(name) for name in layer] for layer in names]
    if deep:
        return DeepParams(ws, [t.pop(f"l{l}.readout") for l in range(1, cfg.layers + 1)])
    if cfg.module == "wl":
        return WLParams(ws, **t)
    return GatedParams(ws[0], **t) if cfg.module == "gated" else WalkParams(ws[0])


def _check_weights(ws: Sequence[Tensor], m: int, in_dim: int) -> None:
    for j, w in enumerate(ws):
        if w.shape != (m, in_dim):
            raise ShapeError(f"W{j + 1} has shape {w.shape}, expected {(m, in_dim)}")


def _walk_states(g: FeatureGraph, x: Tensor, ws: Sequence[Tensor], cfg: GraphModelConfig,
                 act: Activation = Activation.IDENTITY,
                 gate: Tensor | None = None) -> list[Tensor]:
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
            agg = scale(neighbor_sum(act(prev), g.adjacency), cfg.lam)
        else:
            agg = segment_sum(mul(gate, gather_rows(prev, g.segments[0])), g.segments[1])
        states.append(add(agg, p) if cfg.composition == ADDITIVE else mul(agg, p))
    return states


def _walk(g: FeatureGraph, p: WalkParams | GatedParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """Project, recurse, sum the final states per graph, activate; the gated
    module's (E, hidden) gate of step u -> v is ``sigmoid(gate_u [f_u; f_v] + gate_b)``."""
    x = Tensor(g.matrix)
    gate = None
    if isinstance(p, GatedParams):
        pairs = Tensor(np.hstack([g.matrix[ids] for ids in g.edge_arrays]))
        gate = Activation.SIGMOID(linear(pairs, p.gate_u, p.gate_b))
    _check_weights(p.W, cfg.hidden, x.shape[1])
    states = _walk_states(g, x, p.W, cfg, gate=gate)
    pre = segment_sum(states[-1], g.members)
    return GraphStateTrace(g, [states], [x], [pre], cfg.activation(pre))


def _deep(g: FeatureGraph, p: DeepParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """Stacked layers aggregating activated neighbor states; the output is the last readout."""
    if len(p.W) != cfg.layers or len(p.readout) != cfg.layers:
        raise ConfigError(f"got {len(p.W)} weight lists and {len(p.readout)} readouts "
                          f"for {cfg.layers} layers")
    x = Tensor(g.matrix)
    states, nodes, readouts = [], [], []
    for ws, readout in zip(p.W, p.readout):
        _check_weights(ws, cfg.hidden, x.shape[1])
        layer = _walk_states(g, x, ws, cfg, cfg.activation)
        x = cfg.activation(matvec(readout, layer[-1]))
        states.append(layer)
        nodes.append(x)
        readouts.append(segment_sum(x, g.members))
    return GraphStateTrace(g, states, nodes, readouts, readouts[-1])


def wl_forward(g: FeatureGraph, p: WLParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """Relabeling iterations with walk readouts, summed across layers.

    Per-layer readouts are pre-activation sums of the final walk states.  Only
    between layers is the node matrix relabeled, ``act(H u1^T + (A act(H v^T)) u2^T)``
    with the same u1, u2, v each time: no output reads a last relabel.
    """
    if len(p.layer_W) != cfg.layers:
        raise ConfigError(f"got {len(p.layer_W)} weight lists for {cfg.layers} layers")
    x = Tensor(g.matrix)
    act = cfg.activation
    states, nodes, readouts = [], [], []
    for l, ws in enumerate(p.layer_W):
        if l:
            inner = act(matvec(p.v, x))
            x = act(add(matvec(p.u1, x), matvec(p.u2, neighbor_sum(inner, g.adjacency))))
        _check_weights(ws, cfg.hidden, x.shape[1])
        layer = _walk_states(g, x, ws, cfg)
        nodes.append(x)
        states.append(layer)
        readouts.append(segment_sum(layer[-1], g.members))
    return GraphStateTrace(g, states, nodes, readouts, accumulate(readouts))


_FORWARDS = {"walk": (WalkParams, _walk), "gated": (GatedParams, _walk),
             "deep": (DeepParams, _deep), "wl": (WLParams, wl_forward)}


def graph_forward(g: FeatureGraph, params, cfg: GraphModelConfig) -> GraphStateTrace:
    """The module ``cfg.module`` on a graph, or on a union of graphs with one output row each."""
    kind, forward = _FORWARDS[cfg.module]
    if type(params) is not kind:
        raise ConfigError(f"the {cfg.module} module runs on {kind.__name__}, "
                          f"got {type(params).__name__}")
    return forward(g, params, cfg)
