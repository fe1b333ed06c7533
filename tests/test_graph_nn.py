import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from kernelnn.errors import ConfigError, ContractError
from kernelnn.graph_kernel import (
    WLRelabelParams,
    deep_local_kernel,
    random_walk_kernel,
    reference_walk,
    wl_relabel,
)
from kernelnn.graph_nn import (
    MODULES,
    GraphModelConfig,
    GraphParams,
    graph_forward,
    graph_shapes,
    init_graph,
)
from kernelnn.inputs import ADDITIVE, DENSE_LIMIT, MULTIPLICATIVE, FeatureGraph, GraphKernelConfig
from kernelnn.seq_nn import logit
from kernelnn.tensor import (
    Activation,
    Tape,
    Tensor,
    dot,
    finite_diff_grad,
    mul,
    rel_error,
)

from helpers import gated_walk_state_sum, permute_graph, tsum
from test_graph_kernel import random_graph


def range_residual(gram, values):
    sol, *_ = np.linalg.lstsq(gram, values, rcond=None)
    resid = gram @ sol - values
    denom = np.linalg.norm(values)
    return float(np.linalg.norm(resid) / denom) if denom > 0 else 0.0


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------


def test_order_one_states_are_projections():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 4, 2)
    cfg = GraphModelConfig(n=1, hidden=3, activation=Activation.SIGMOID, module="walk")
    p = init_graph(cfg, 2, rng)
    trace = graph_forward(g, p, cfg)
    want_sum = np.zeros(3)
    for v in range(4):
        want = p.layer_W[0][0].data @ g.features[v]
        assert np.allclose(trace.state(1, v).data, want)
        want_sum += want
    assert np.allclose(trace.h_graph.data, Activation.SIGMOID.f(want_sum))


def test_edgeless_graph_zero_states():
    rng = np.random.default_rng(1)
    g = FeatureGraph((np.ones(2), np.ones(2)))
    cfg = GraphModelConfig(n=2, hidden=3, activation=Activation.SIGMOID, module="walk")
    p = init_graph(cfg, 2, rng)
    trace = graph_forward(g, p, cfg)
    for v in range(2):
        assert np.array_equal(trace.state(2, v).data, np.zeros(3))
    assert np.allclose(trace.h_graph.data, 0.5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_state_sums_equal_reference_walk_kernels(n):
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        d, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        lam = float(rng.uniform(0.2, 0.9))
        g = random_graph(rng, int(rng.integers(2, 7)), d)
        # at n = 1 no state reads lam, and the config refuses all but the default
        cfg = GraphModelConfig(n=n, hidden=m, lam=lam if n > 1 else GraphModelConfig.lam,
                               module="walk")
        p = init_graph(cfg, d, rng)
        trace = graph_forward(g, p, cfg)
        total = trace.state_sum(n)
        kcfg = GraphKernelConfig(n=n, lam=lam)
        ws = [w.data for w in p.layer_W[0]]
        for k in range(m):
            want = random_walk_kernel(g, reference_walk(ws, k), kcfg)
            assert abs(total[k] - want) <= 1e-10 * max(1.0, abs(total[k]), abs(want))


def test_permutation_invariance_of_graph_readout():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 5, 2)
    cfg = GraphModelConfig(n=3, hidden=3, lam=0.5, activation=Activation.TANH, module="walk")
    p = init_graph(cfg, 2, rng)
    base = graph_forward(g, p, cfg).h_graph.data
    for _ in range(3):
        perm = list(rng.permutation(5))
        got = graph_forward(permute_graph(g, perm), p, cfg).h_graph.data
        assert np.allclose(got, base, rtol=1e-12, atol=1e-12)


def test_locality_distant_nodes_do_not_affect_states():
    rng = np.random.default_rng(3)
    feats = [rng.normal(size=2) for _ in range(5)]
    edges = [(i, i + 1) for i in range(4)]
    g1 = FeatureGraph.undirected(feats, edges)
    feats2 = list(feats)
    feats2[4] = rng.normal(size=2)
    g2 = FeatureGraph.undirected(feats2, edges)
    cfg = GraphModelConfig(n=3, hidden=2, lam=0.5, module="walk")
    p = init_graph(cfg, 2, rng)
    t1 = graph_forward(g1, p, cfg)
    t2 = graph_forward(g2, p, cfg)
    # c_j[v] reaches j-1 hops; node 0 is 4 hops from node 4
    for j in (1, 2, 3):
        assert np.array_equal(t1.state(j, 0).data, t2.state(j, 0).data)
    assert not np.array_equal(t1.state(3, 2).data, t2.state(3, 2).data)


# ---------------------------------------------------------------------------
# composition and deep
# ---------------------------------------------------------------------------


def test_generalized_additive_edgeless_keeps_projection():
    rng = np.random.default_rng(5)
    g = FeatureGraph((np.ones(2), -np.ones(2)))
    for module in ("walk", "deep"):
        cfg = GraphModelConfig(n=3, hidden=2, lam=0.5, composition=ADDITIVE, module=module)
        p = init_graph(cfg, 2, rng)
        ws = p.layer_W[0]
        trace = graph_forward(g, p, cfg)
        for j in (1, 2, 3):
            for v in range(2):
                assert np.allclose(trace.state(j, v).data, ws[j - 1].data @ g.features[v])


@pytest.mark.parametrize("composition", [MULTIPLICATIVE, ADDITIVE])
def test_deep_single_layer_identity_readout_matches_walk(composition):
    # with identity activation the deep layer's neighbor aggregation is the walk module's
    rng = np.random.default_rng(6)
    g = random_graph(rng, 4, 3)
    cfg = GraphModelConfig(n=2, hidden=3, lam=0.5, composition=composition,
                           activation=Activation.IDENTITY, module="deep")
    p = init_graph(cfg, 3, rng)
    a = graph_forward(g, GraphParams(p.layer_W, [Tensor(np.eye(3))]), cfg)
    b = graph_forward(g, GraphParams(p.layer_W), replace(cfg, module="walk"))
    assert np.allclose(a.h_graph.data, b.h_graph.data, rtol=1e-12)


def test_deep_two_layer_reparameterization_identity():
    # order-2 additive stack equals the fused relabel-style iteration with
    # u1 = U W2, u2 = lam * U, v = W1
    rng = np.random.default_rng(7)
    d = 3
    g = random_graph(rng, 5, d)
    cfg = GraphModelConfig(n=2, hidden=d, lam=0.7, composition=ADDITIVE,
                           activation=Activation.TANH, layers=2, module="deep")
    params = init_graph(cfg, d, rng)
    trace = graph_forward(g, params, cfg)
    node_feats = [np.array(f) for f in g.features]
    for l, (ws, readout) in enumerate(zip(params.layer_W, params.readout)):
        u = readout.data
        fused = WLRelabelParams(
            u1=u @ ws[1].data,
            u2=cfg.lam * u,
            v=ws[0].data,
            activation=Activation.TANH,
        )
        relabeled = wl_relabel(FeatureGraph(tuple(node_feats), np.column_stack(g.edge_arrays)), fused)
        for v in range(g.num_nodes):
            assert np.allclose(trace.nodes[l].data[v], relabeled.features[v], rtol=1e-10, atol=1e-12)
        node_feats = [np.array(f) for f in relabeled.features]


def test_deep_states_lie_in_deep_local_kernel_gram_range():
    rng = np.random.default_rng(8)
    d, m, lam = 2, 3, 0.5
    cfg = GraphModelConfig(n=2, hidden=m, lam=lam, composition=ADDITIVE,
                           activation=Activation.IDENTITY, layers=2, module="deep")
    params = init_graph(cfg, d, rng)
    graphs = [random_graph(rng, int(rng.integers(3, 6)), d) for _ in range(6)]
    kcfg = GraphKernelConfig(n=2, lam=lam, composition=ADDITIVE, depth=2)
    points = [(gi, v) for gi, g in enumerate(graphs) for v in range(g.num_nodes)]
    gram = np.array(
        [
            [
                deep_local_kernel(v, vp, graphs[gi], graphs[gj], kcfg)
                for gj, vp in points
            ]
            for gi, v in points
        ]
    )
    traces = [graph_forward(g, params, cfg) for g in graphs]
    for i in range(m):
        values = np.array([traces[gi].nodes[-1].data[v, i] for gi, v in points])
        assert range_residual(gram, values) <= 1e-6


def test_deep_params_are_named_by_layer():
    cfg = GraphModelConfig(n=2, hidden=3, layers=2, module="deep")
    p = init_graph(cfg, 2, np.random.default_rng(0))
    assert list(p.named()) == ["l1.W1", "l1.W2", "l2.W1", "l2.W2", "l1.readout", "l2.readout"]
    assert [w.shape for w in p.layer_W[1]] == [(3, 3), (3, 3)]  # layer 2 reads layer 1's output


# ---------------------------------------------------------------------------
# relabeling iterations
# ---------------------------------------------------------------------------


def test_wl_single_layer_matches_plain_readout():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 4, 2)
    cfg = GraphModelConfig(n=2, hidden=3, lam=0.5, layers=1, activation=Activation.TANH)
    wl = init_graph(cfg, 2, rng)
    trace = graph_forward(g, wl, cfg)
    plain = graph_forward(g, GraphParams(wl.layer_W), replace(cfg, module="walk"))
    assert np.allclose(trace.readouts[0].data, plain.readouts[0].data, rtol=1e-12)


def test_wl_identity_relabel_scales_readout_by_depth():
    rng = np.random.default_rng(10)
    d = 2
    g = random_graph(rng, 4, d)
    cfg = GraphModelConfig(n=2, hidden=3, lam=0.5, layers=3, activation=Activation.IDENTITY)
    wl = init_graph(cfg, d, rng)
    wl.u1 = Tensor(np.eye(d))
    wl.u2 = Tensor(np.zeros((d, d)))
    wl.layer_W = [wl.layer_W[0]] * 3
    trace = graph_forward(g, wl, cfg)
    assert np.allclose(trace.h_graph.data, 3.0 * trace.readouts[0].data[0], rtol=1e-12)


@pytest.mark.parametrize("act", [Activation.IDENTITY, Activation.TANH])
def test_wl_output_matches_chain_construction_sum(act):
    # per layer, the readout equals the walk kernel between the relabeled
    # graph and the chain of weight rows; the final output is their sum
    rng = np.random.default_rng(11)
    d, m, lam, layers, n = 2, 3, 0.5, 2, 2
    g = random_graph(rng, 5, d)
    cfg = GraphModelConfig(n=n, hidden=m, lam=lam, layers=layers, activation=act)
    wl = init_graph(cfg, d, rng)
    trace = graph_forward(g, wl, cfg)
    relabel = WLRelabelParams(u1=wl.u1.data, u2=wl.u2.data, v=wl.v.data, activation=act)
    kcfg = GraphKernelConfig(n=n, lam=lam)
    relabeled = g
    expected = np.zeros(m)
    for l in range(layers):
        ws = [w.data for w in wl.layer_W[l]]
        for k in range(m):
            expected[k] += random_walk_kernel(relabeled, reference_walk(ws, k), kcfg)
        relabeled = wl_relabel(relabeled, relabel)
    assert rel_error(trace.h_graph.data, expected) <= 1e-8


def test_wl_shared_parameters_are_single_objects():
    rng = np.random.default_rng(12)
    cfg = GraphModelConfig(n=2, hidden=3, lam=0.5, layers=3)
    wl = init_graph(cfg, 2, rng)
    named = wl.named()
    assert named["u1"] is wl.u1 and named["u2"] is wl.u2 and named["v"] is wl.v
    # replacing the shared transform changes every layer's relabeling
    g = random_graph(rng, 4, 2)
    before = graph_forward(g, wl, cfg).h_graph.data
    wl2 = wl.with_named({"u1": Tensor(wl.u1.data * 2.0)})
    after = graph_forward(g, wl2, cfg).h_graph.data
    assert not np.allclose(before, after)


def test_wl_params_are_named_by_field_path():
    cfg = GraphModelConfig(n=2, hidden=3, layers=2)
    wl = init_graph(cfg, 2, np.random.default_rng(0))
    assert list(wl.named()) == ["l1.W1", "l1.W2", "l2.W1", "l2.W2", "u1", "u2", "v"]
    with pytest.raises(ContractError, match="nope"):
        wl.with_named({"nope": wl.u1})
    with pytest.raises(ContractError):
        wl.with_named({"wl.u1": wl.u1})


@pytest.mark.parametrize("name", ["l1.W1", "l2.W2", "v"])
def test_setter_puts_one_tensor_in_place_by_name(name):
    cfg = GraphModelConfig(n=2, hidden=3, layers=2)
    wl = init_graph(cfg, 2, np.random.default_rng(0))
    held = wl.named()
    put, new = wl.setter(name), Tensor(np.zeros(held[name].shape))
    put(new)
    assert wl.named() == {k: new if k == name else t for k, t in held.items()}
    put(held[name])
    assert wl.named() == held
    with pytest.raises(ContractError, match="nope"):
        wl.setter("nope")


# ---------------------------------------------------------------------------
# gated
# ---------------------------------------------------------------------------


def test_gated_constant_degeneration_matches_plain():
    rng = np.random.default_rng(13)
    d, m, lam = 2, 3, 0.35
    g = random_graph(rng, 5, d)
    cfg = GraphModelConfig(n=3, hidden=m, lam=lam, activation=Activation.TANH, module="gated")
    p = init_graph(cfg, d, rng)
    assert np.array_equal(p.gate_b.data, np.full(m, logit(lam)))  # gates start at lam
    p.gate_u = Tensor(np.zeros((m, 2 * d)))
    a = graph_forward(g, p, cfg)
    b = graph_forward(g, GraphParams(p.layer_W), replace(cfg, module="walk"))
    for j in (1, 2, 3):
        for v in range(5):
            assert np.max(np.abs(a.state(j, v).data - b.state(j, v).data)) <= 1e-12


def test_gated_edgeless_zero_deeper_states():
    rng = np.random.default_rng(14)
    g = FeatureGraph((np.ones(2), np.ones(2)))
    cfg = GraphModelConfig(n=2, hidden=3, module="gated")
    p = init_graph(cfg, 2, rng)
    trace = graph_forward(g, p, cfg)
    for v in range(2):
        assert np.array_equal(trace.state(2, v).data, np.zeros(3))


def test_gated_forward_matches_state_sum_oracle():
    for seed in range(4):
        rng = np.random.default_rng(400 + seed)
        d, m, n = 2, 3, 3
        g = random_graph(rng, 4, d)
        cfg = GraphModelConfig(n=n, hidden=m, module="gated")
        p = init_graph(cfg, d, rng)
        p.gate_b = Tensor(rng.normal(size=m))
        trace = graph_forward(g, p, cfg)
        total = trace.state_sum(n)
        want = gated_walk_state_sum(g, [w.data for w in p.layer_W[0]], p.gate_u.data,
                                    p.gate_b.data)
        assert rel_error(total, want) <= 1e-10


def test_gated_without_gate_params_is_config_error():
    rng = np.random.default_rng(15)
    g = random_graph(rng, 3, 2)
    gated = GraphModelConfig(n=2, hidden=3, module="gated")
    p = init_graph(gated, 2, rng)
    with pytest.raises(ConfigError, match="gate_u"):
        graph_forward(g, GraphParams(p.layer_W), gated)
    # and the walk module refuses gates it would not read
    with pytest.raises(ConfigError, match="gate_u"):
        graph_forward(g, p, replace(gated, module="walk"))


# ---------------------------------------------------------------------------
# layout: one GraphParams, named and checked by graph_shapes
# ---------------------------------------------------------------------------

LAYOUTS = [(module, n, layers) for module in MODULES for n in (1, 3)
           for layers in ((1,) if module in ("walk", "gated") else (1, 2))]


@pytest.mark.parametrize("module, n, layers", LAYOUTS)
def test_init_names_and_shapes_follow_graph_shapes(module, n, layers):
    cfg = GraphModelConfig(n=n, hidden=3, layers=layers, module=module)
    p = init_graph(cfg, 2, np.random.default_rng(0))
    assert list(p.named()) == list(graph_shapes(cfg, 2))
    assert {k: t.shape for k, t in p.named().items()} == graph_shapes(cfg, 2)


def _broken_layouts(p: GraphParams, cfg: GraphModelConfig):
    """(name, params): ``p`` with the tensor ``name`` missing, extra or of another shape."""
    n, layers, ws = cfg.n, cfg.layers, p.layer_W
    yield f"l1.W{n}", replace(p, layer_W=[ws[0][:-1], *ws[1:]])
    yield f"l1.W{n + 1}", replace(p, layer_W=[ws[0] + ws[0][:1], *ws[1:]])
    yield f"l{layers + 1}.W1", replace(p, layer_W=ws + ws[-1:])
    if p.readout is None:
        yield "l1.readout", replace(p, readout=[Tensor(np.eye(3))] * layers)
    else:
        yield f"l{layers}.readout", replace(p, readout=p.readout[:-1])
    for field in ("gate_u", "gate_b", "u1", "u2", "v"):
        held = getattr(p, field) is not None
        yield field, replace(p, **{field: None if held else Tensor(np.zeros((3, 3)))})
    for name, t in p.named().items():
        yield name, p.with_named({name: Tensor(np.zeros(tuple(s + 1 for s in t.shape)))})


@pytest.mark.parametrize("module, n, layers", LAYOUTS)
def test_a_missing_extra_or_misshapen_tensor_is_a_config_error_naming_it(module, n, layers):
    rng = np.random.default_rng(1)
    g = random_graph(rng, 4, 2)
    cfg = GraphModelConfig(n=n, hidden=3, layers=layers, module=module)
    p = init_graph(cfg, 2, rng)
    graph_forward(g, p, cfg)
    for name, broken in _broken_layouts(p, cfg):
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: the {module} module"):
            graph_forward(g, broken, cfg)


# ---------------------------------------------------------------------------
# config: one module by name, every field read or refused
# ---------------------------------------------------------------------------

BASE_LAYERS = {"walk": 1, "gated": 1, "deep": 2, "wl": 2}
CHANGES = {"lam": 0.3, "composition": ADDITIVE, "activation": Activation.TANH, "layers": 3,
           "n": 3, "hidden": 4}
REFUSED = {("gated", "composition"): "multiplicatively", ("wl", "composition"): "multiplicatively",
           ("walk", "layers"): "one layer", ("gated", "layers"): "one layer"}


@pytest.mark.parametrize("field", sorted(CHANGES))
@pytest.mark.parametrize("module", MODULES)
def test_every_field_changes_the_output_or_is_refused(module, field):
    base = GraphModelConfig(n=2, hidden=3, layers=BASE_LAYERS[module], module=module)
    if (module, field) in REFUSED:
        with pytest.raises(ConfigError, match=REFUSED[module, field]):
            replace(base, **{field: CHANGES[field]})
        return
    g = random_graph(np.random.default_rng(23), 5, 2)

    def out(cfg):
        return graph_forward(g, init_graph(cfg, 2, np.random.default_rng(24)), cfg).out.data

    a, b = out(base), out(replace(base, **{field: CHANGES[field]}))
    assert a.shape != b.shape or not np.allclose(a, b)


@pytest.mark.parametrize("module", MODULES)
def test_order_one_refuses_what_no_state_reads(module):
    base = GraphModelConfig(n=1, hidden=3, module=module)  # the defaults are accepted
    with pytest.raises(ConfigError, match="at n = 1 no module reads lam or composition"):
        replace(base, lam=0.3)
    refused = REFUSED.get((module, "composition"), "at n = 1 no module reads lam or composition")
    with pytest.raises(ConfigError, match=refused):
        replace(base, composition=ADDITIVE)


def test_unknown_module_lists_the_four():
    with pytest.raises(ConfigError, match="'rw'; choose from walk, gated, deep, wl"):
        GraphModelConfig(n=2, hidden=3, module="rw")


@pytest.mark.parametrize("lam", [0.0, 1.0, 1.5])
def test_gated_refuses_a_lambda_without_a_logit(lam):
    with pytest.raises(ConfigError, match="logit"):
        GraphModelConfig(n=2, hidden=3, lam=lam, module="gated")


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

# test-case labels: rw is the walk module, generalized one deep layer (the
# nonlinear neighbor aggregation), deep and wl two-layer stacks
CASES = {"rw": ("walk", 1), "generalized": ("deep", 1), "gated": ("gated", 1),
         "deep": ("deep", 2), "wl": ("wl", 2)}


def case_setup(kind, rng, d, m, act=Activation.TANH, composition=MULTIPLICATIVE):
    module, layers = CASES[kind]
    cfg = GraphModelConfig(n=3, hidden=m, lam=0.6, composition=composition, activation=act,
                           layers=layers, module=module)
    return cfg, init_graph(cfg, d, rng)


def assert_tape_matches_finite_differences(run, params):
    with Tape() as tape:
        loss = run(params)
    grads = tape.backward(loss)
    for name, tensor in params.named().items():
        fd = finite_diff_grad(lambda t: run(params.with_named({name: t})).item(), tensor)
        assert rel_error(grads[tensor], fd) <= 1e-5, name


@pytest.mark.parametrize(
    "kind,composition,act",
    [
        ("rw", MULTIPLICATIVE, Activation.TANH),
        ("generalized", MULTIPLICATIVE, Activation.SIGMOID),
        ("generalized", ADDITIVE, Activation.TANH),
        ("gated", MULTIPLICATIVE, Activation.TANH),
    ],
)
def test_single_layer_gradients(kind, composition, act):
    rng = np.random.default_rng(16)
    d, m = 2, 3
    g = random_graph(rng, 4, d)
    cfg, p = case_setup(kind, rng, d, m, act, composition)
    probe = Tensor(rng.normal(size=m))
    assert_tape_matches_finite_differences(
        lambda ps: dot(probe, graph_forward(g, ps, cfg).h_graph), p)


# ---------------------------------------------------------------------------
# disjoint unions
# ---------------------------------------------------------------------------


def union_members(rng, d):
    """An edgeless node inside a triangle graph, a directed chain, a random graph, one node,
    and a graph with a self-loop."""
    feats = [rng.normal(size=d) for _ in range(5)]
    return [
        FeatureGraph.undirected(feats, [(0, 1), (1, 2), (2, 0)]),
        FeatureGraph.chain([rng.normal(size=d) for _ in range(4)]),
        random_graph(rng, 6, d),
        FeatureGraph((rng.normal(size=d),)),
        FeatureGraph.undirected([rng.normal(size=d) for _ in range(3)], [(0, 0), (0, 1), (1, 2)]),
    ]


def sparse_graph(rng, num_nodes, d, edge_prob=None):
    """A connected graph of about three steps per node, or of the given edge probability."""
    return random_graph(rng, num_nodes, d, edge_prob=edge_prob or 1.0 / num_nodes)


def limit_unions(rng, members):
    """The members plus one at the dense limit with enough steps that their neighbor sums
    multiply padded blocks; the members plus one past the limit, which sum over edges; and
    the members plus a sparse one at the limit, whose blocks would hold more padding per
    step than the dense limits allow, so they sum over edges too."""
    d = members[0].dim
    at_limit = [*members, sparse_graph(rng, DENSE_LIMIT, d, edge_prob=0.2)]
    past = [*members, sparse_graph(rng, DENSE_LIMIT + 1, d)]
    padded = [*members, sparse_graph(rng, DENSE_LIMIT, d)]
    return {"dense": at_limit, "edges": past, "padded": padded}


@pytest.mark.parametrize(
    "kind,composition",
    [("rw", MULTIPLICATIVE), ("generalized", MULTIPLICATIVE), ("generalized", ADDITIVE),
     ("deep", MULTIPLICATIVE), ("deep", ADDITIVE), ("wl", MULTIPLICATIVE),
     ("gated", MULTIPLICATIVE)],
)
def test_union_members_match_their_solo_forward(kind, composition):
    rng = np.random.default_rng(20)
    d, m = 3, 4
    unions = limit_unions(rng, union_members(rng, d))
    # every activation: sigmoid(0) = 0.5, so a padding row it reached would show
    for act in Activation:
        cfg, params = case_setup(kind, rng, d, m, act, composition)
        for path, graphs in unions.items():
            union = graph_forward(FeatureGraph.union(graphs), params, cfg)
            assert (union.graph.adjacency.blocks is None) == (path != "dense")
            assert union.out.shape == (len(graphs), m)
            assert union.graph.sizes == tuple(g.num_nodes for g in graphs)
            for b, g in enumerate(graphs):
                solo = graph_forward(g, params, cfg)
                start = sum(union.graph.sizes[:b])
                rows = slice(start, start + g.num_nodes)
                for l in range(len(solo.states)):
                    for j in range(cfg.n):
                        assert rel_error(union.states[l][j].data[rows],
                                         solo.states[l][j].data) <= 1e-12
                    assert rel_error(union.nodes[l].data[rows], solo.nodes[l].data) <= 1e-12
                    assert rel_error(union.readouts[l].data[b], solo.readouts[l].data[0]) <= 1e-12
                assert rel_error(union.out.data[b], solo.h_graph.data) <= 1e-12


@pytest.mark.parametrize("kind", ["deep", "wl", "gated"])
def test_union_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(21)
    d, m = 2, 3
    members = [random_graph(rng, 4, d), FeatureGraph.chain([rng.normal(size=d)] * 3),
               FeatureGraph((np.ones(d), -np.ones(d))), FeatureGraph((rng.normal(size=d),)),
               FeatureGraph.undirected([rng.normal(size=d) for _ in range(3)], [(1, 1), (0, 1)])]
    unions = limit_unions(rng, members)
    compositions = [MULTIPLICATIVE, ADDITIVE] if kind == "deep" else [MULTIPLICATIVE]
    for act, composition, graphs in itertools.product(Activation, compositions,
                                                      unions.values()):
        if (act, composition) == (Activation.QUADRATIC, ADDITIVE):
            # squared sums over the 128- and 129-node members reach 1e14-1e55 in two layers,
            # where the central difference's own truncation error is past the tolerance
            continue
        cfg, params = case_setup(kind, rng, d, m, act, composition)
        union = FeatureGraph.union(graphs)
        probe = Tensor(rng.normal(size=(len(graphs), m)))
        assert_tape_matches_finite_differences(
            lambda ps: tsum(mul(probe, graph_forward(union, ps, cfg).out)), params)


def test_single_graph_views_need_a_union_of_one():
    rng = np.random.default_rng(22)
    graphs = [random_graph(rng, 3, 2), random_graph(rng, 4, 2)]
    cfg = GraphModelConfig(n=2, hidden=3, module="walk")
    trace = graph_forward(FeatureGraph.union(graphs), init_graph(cfg, 2, rng), cfg)
    for read in (lambda t: t.h_graph, lambda t: t.state_sum(2)):
        with pytest.raises(ContractError):
            read(trace)
    # node views index union nodes: the second graph starts at node 3
    assert np.array_equal(trace.state(2, 3).data, trace.states[0][1].data[3])
