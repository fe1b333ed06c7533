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
from functools import cache, cached_property
from typing import ClassVar, Sequence

import numpy as np

from .errors import ConfigError, ContractError, check_fields
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
class GraphParams(NamedParams):
    """Every module's tensors, laid out by :func:`graph_shapes`: ``layer_W[l][j-1]`` is
    layer l+1's W_j, ``readout`` the deep layers' readout matrices, ``gate_u`` and
    ``gate_b`` the gated module's edge gate, ``u1``, ``u2`` and ``v`` the relabeling
    transforms wl's layers share; a field the module does not read is None."""

    LISTS: ClassVar[dict[str, str]] = {"layer_W": "l{}.W{}", "readout": "l{}.readout"}

    layer_W: list[list[Tensor]]
    readout: list[Tensor] | None = None
    gate_u: Tensor | None = None
    gate_b: Tensor | None = None
    u1: Tensor | None = None
    u2: Tensor | None = None
    v: Tensor | None = None


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


def graph_shapes(cfg: GraphModelConfig, in_dim: int) -> dict[str, tuple[int, ...]]:
    """Each tensor the module holds, by name, with its shape, in :class:`GraphParams` order;
    a deep layer after the first reads the previous layer's output."""
    m, layers, deep = cfg.hidden, range(1, cfg.layers + 1), cfg.module == "deep"
    shapes = {f"l{l}.W{j}": (m, m if deep and l > 1 else in_dim)
              for l in layers for j in range(1, cfg.n + 1)}
    if deep:
        shapes.update({f"l{l}.readout": (m, m) for l in layers})
    if cfg.module == "gated":
        shapes.update(gate_u=(m, 2 * in_dim), gate_b=(m,))
    if cfg.module == "wl":
        shapes.update(dict.fromkeys(("u1", "u2", "v"), (in_dim, in_dim)))
    return shapes


def init_graph(cfg: GraphModelConfig, in_dim: int, rng: np.random.Generator | None) -> GraphParams:
    """:func:`graph_shapes` drawn by the init rule layer by layer, a deep layer's readout
    right after its projections, then the rest; the gates start at lam.  With ``rng``
    None, a skeleton (:func:`model_params`)."""
    shapes, layers = graph_shapes(cfg, in_dim), range(1, cfg.layers + 1)
    drawn = sorted(shapes, key=lambda k: int(k[1:k.index(".")]) if "." in k else cfg.layers + 1)
    fill = {"gate_b": logit(cfg.lam)} if cfg.module == "gated" else None
    t = model_params({k: shapes[k] for k in drawn}, rng, fill)
    ws = [[t.pop(f"l{l}.W{j}") for j in range(1, cfg.n + 1)] for l in layers]
    readout = [t.pop(f"l{l}.readout") for l in layers] if cfg.module == "deep" else None
    return GraphParams(ws, readout, **t)


def _shapes(p: GraphParams) -> tuple:
    """Each field's tensor shapes, nested as the field holds them, None for an empty field."""
    return ([[w.data.shape for w in ws] for ws in p.layer_W],
            p.readout and [r.data.shape for r in p.readout],
            [t and t.data.shape for t in (p.gate_u, p.gate_b, p.u1, p.u2, p.v)])


@cache
def _layout(module: str, n: int, layers: int, hidden: int, in_dim: int) -> tuple:
    cfg = GraphModelConfig(n=n, hidden=hidden, layers=layers, module=module)
    return _shapes(init_graph(cfg, in_dim, None))


def _check(p: GraphParams, cfg: GraphModelConfig, in_dim: int) -> None:
    """Raise ConfigError naming the first tensor missing from ``p``, extra in it or of
    another shape than :func:`graph_shapes` gives; a match costs one cached comparison."""
    if _shapes(p) == _layout(cfg.module, cfg.n, cfg.layers, cfg.hidden, in_dim):
        return
    want, got = graph_shapes(cfg, in_dim), {k: t.shape for k, t in p.named().items()}
    if name := next((k for k in [*want, *got] if got.get(k) != want.get(k)), None):
        raise ConfigError(f"{name}: the {cfg.module} module on {in_dim}-wide features expects "
                          f"{want.get(name, 'no tensor')}, got {got.get(name, 'no tensor')}")


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


def _walk(g: FeatureGraph, p: GraphParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """Project, recurse, sum the final states per graph, activate; the gated
    module's (E, hidden) gate of step u -> v is ``sigmoid(gate_u [f_u; f_v] + gate_b)``."""
    x = Tensor(g.matrix)
    _check(p, cfg, x.shape[1])
    gate = None
    if cfg.module == "gated":
        pairs = Tensor(np.hstack([g.matrix[ids] for ids in g.edge_arrays]))
        gate = Activation.SIGMOID(linear(pairs, p.gate_u, p.gate_b))
    states = _walk_states(g, x, p.layer_W[0], cfg, gate=gate)
    pre = segment_sum(states[-1], g.members)
    return GraphStateTrace(g, [states], [x], [pre], cfg.activation(pre))


def _deep(g: FeatureGraph, p: GraphParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """Stacked layers aggregating activated neighbor states; the output is the last readout."""
    x = Tensor(g.matrix)
    _check(p, cfg, x.shape[1])
    states, nodes, readouts = [], [], []
    for ws, readout in zip(p.layer_W, p.readout):
        layer = _walk_states(g, x, ws, cfg, cfg.activation)
        x = cfg.activation(matvec(readout, layer[-1]))
        states.append(layer)
        nodes.append(x)
        readouts.append(segment_sum(x, g.members))
    return GraphStateTrace(g, states, nodes, readouts, readouts[-1])


def wl_forward(g: FeatureGraph, p: GraphParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """Relabeling iterations with walk readouts, summed across layers.

    Per-layer readouts are pre-activation sums of the final walk states.  Only
    between layers is the node matrix relabeled, ``act(H u1^T + (A act(H v^T)) u2^T)``
    with the same u1, u2, v each time: no output reads a last relabel.
    """
    x = Tensor(g.matrix)
    _check(p, cfg, x.shape[1])
    act = cfg.activation
    states, nodes, readouts = [], [], []
    for l, ws in enumerate(p.layer_W):
        if l:
            inner = act(matvec(p.v, x))
            x = act(add(matvec(p.u1, x), matvec(p.u2, neighbor_sum(inner, g.adjacency))))
        layer = _walk_states(g, x, ws, cfg)
        nodes.append(x)
        states.append(layer)
        readouts.append(segment_sum(layer[-1], g.members))
    return GraphStateTrace(g, states, nodes, readouts, accumulate(readouts))


_FORWARDS = {"walk": _walk, "gated": _walk, "deep": _deep, "wl": wl_forward}


def graph_forward(g: FeatureGraph, params: GraphParams, cfg: GraphModelConfig) -> GraphStateTrace:
    """The module ``cfg.module`` on a graph, or on a union of graphs with one output row each."""
    return _FORWARDS[cfg.module](g, params, cfg)
