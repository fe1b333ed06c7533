import numpy as np
import pytest

from kernelnn.errors import ConfigError, ContractError
from kernelnn.graph_kernel import (
    WLRelabelParams,
    deep_local_kernel,
    gated_walk_state_sum,
    permute_graph,
    random_walk_kernel,
    reference_walk,
    wl_relabel,
)
from kernelnn.graph_nn import (
    GraphLayerParams,
    GraphModelConfig,
    deep_forward,
    gated_rw_forward,
    generalized_forward,
    init_graph_layer,
    init_wl_params,
    rw_forward,
    wl_forward,
)
from kernelnn.inputs import ADDITIVE, MULTIPLICATIVE, FeatureGraph, GraphKernelConfig
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

from helpers import tsum
from test_graph_kernel import random_graph


def range_residual(gram, values):
    sol, *_ = np.linalg.lstsq(gram, values, rcond=None)
    resid = gram @ sol - values
    denom = np.linalg.norm(values)
    return float(np.linalg.norm(resid) / denom) if denom > 0 else 0.0


# ---------------------------------------------------------------------------
# single layer
# ---------------------------------------------------------------------------


def test_order_one_states_are_projections():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 4, 2)
    cfg = GraphModelConfig(n=1, hidden=3, activation=Activation.SIGMOID)
    p = init_graph_layer(cfg, 2, rng)
    trace = rw_forward(g, p, cfg)
    want_sum = np.zeros(3)
    for v in range(4):
        want = p.W[0].data @ g.features[v]
        assert np.allclose(trace.state(1, v).data, want)
        want_sum += want
    assert np.allclose(trace.h_graph.data, Activation.SIGMOID.f(want_sum))


def test_edgeless_graph_zero_states():
    rng = np.random.default_rng(1)
    g = FeatureGraph((np.ones(2), np.ones(2)))
    cfg = GraphModelConfig(n=2, hidden=3, activation=Activation.SIGMOID)
    p = init_graph_layer(cfg, 2, rng)
    trace = rw_forward(g, p, cfg)
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
        cfg = GraphModelConfig(n=n, hidden=m, lam=lam)
        p = init_graph_layer(cfg, d, rng)
        trace = rw_forward(g, p, cfg)
        total = trace.state_sum(n)
        kcfg = GraphKernelConfig(n=n, lam=lam)
        ws = [w.data for w in p.W]
        for k in range(m):
            want = random_walk_kernel(g, reference_walk(ws, k), kcfg)
            assert abs(total[k] - want) <= 1e-10 * max(1.0, abs(total[k]), abs(want))


def test_permutation_invariance_of_graph_readout():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 5, 2)
    cfg = GraphModelConfig(n=3, hidden=3, lam=0.5, activation=Activation.TANH)
    p = init_graph_layer(cfg, 2, rng)
    base = rw_forward(g, p, cfg).h_graph.data
    for _ in range(3):
        perm = list(rng.permutation(5))
        got = rw_forward(permute_graph(g, perm), p, cfg).h_graph.data
        assert np.allclose(got, base, rtol=1e-12, atol=1e-12)


def test_locality_distant_nodes_do_not_affect_states():
    rng = np.random.default_rng(3)
    feats = [rng.normal(size=2) for _ in range(5)]
    edges = [(i, i + 1) for i in range(4)]
    g1 = FeatureGraph.undirected(feats, edges)
    feats2 = list(feats)
    feats2[4] = rng.normal(size=2)
    g2 = FeatureGraph.undirected(feats2, edges)
    cfg = GraphModelConfig(n=3, hidden=2, lam=0.5)
    p = init_graph_layer(cfg, 2, rng)
    t1 = rw_forward(g1, p, cfg)
    t2 = rw_forward(g2, p, cfg)
    # c_j[v] reaches j-1 hops; node 0 is 4 hops from node 4
    for j in (1, 2, 3):
        assert np.array_equal(t1.state(j, 0).data, t2.state(j, 0).data)
    assert not np.array_equal(t1.state(3, 2).data, t2.state(3, 2).data)


# ---------------------------------------------------------------------------
# generalized and deep
# ---------------------------------------------------------------------------


def test_generalized_multiplicative_identity_matches_plain():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 5, 2)
    cfg = GraphModelConfig(n=3, hidden=3, lam=0.5, activation=Activation.IDENTITY)
    p = init_graph_layer(cfg, 2, rng)
    a = generalized_forward(g, p, cfg)
    b = rw_forward(g, p, cfg)
    for j in (1, 2, 3):
        for v in range(5):
            assert np.allclose(a.state(j, v).data, b.state(j, v).data, rtol=1e-12, atol=1e-12)


def test_generalized_additive_edgeless_keeps_projection():
    rng = np.random.default_rng(5)
    g = FeatureGraph((np.ones(2), -np.ones(2)))
    cfg = GraphModelConfig(n=3, hidden=2, lam=0.5, composition=ADDITIVE)
    p = init_graph_layer(cfg, 2, rng)
    trace = generalized_forward(g, p, cfg)
    for j in (1, 2, 3):
        for v in range(2):
            assert np.allclose(trace.state(j, v).data, p.W[j - 1].data @ g.features[v])


def test_deep_single_layer_identity_readout_matches_generalized():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 4, 3)
    cfg = GraphModelConfig(n=2, hidden=3, lam=0.5, composition=ADDITIVE,
                           activation=Activation.IDENTITY, layers=1)
    p = init_graph_layer(cfg, 3, rng, with_readout=True)
    p.readout = Tensor(np.eye(3))
    a = deep_forward(g, [p], cfg)
    b = generalized_forward(g, p, cfg)
    assert np.allclose(a.h_graph.data, b.readouts[0].data[0], rtol=1e-12)


def test_deep_two_layer_reparameterization_identity():
    # order-2 additive stack equals the fused relabel-style iteration with
    # u1 = U W2, u2 = lam * U, v = W1
    rng = np.random.default_rng(7)
    d = 3
    g = random_graph(rng, 5, d)
    cfg = GraphModelConfig(n=2, hidden=d, lam=0.7, composition=ADDITIVE,
                           activation=Activation.TANH, layers=2)
    params = [init_graph_layer(cfg, d, rng, with_readout=True) for _ in range(2)]
    trace = deep_forward(g, params, cfg)
    node_feats = [np.array(f) for f in g.features]
    for l, p in enumerate(params):
        u = p.readout.data
        fused = WLRelabelParams(
            u1=u @ p.W[1].data,
            u2=cfg.lam * u,
            v=p.W[0].data,
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
                           activation=Activation.IDENTITY, layers=2)
    params = [init_graph_layer(cfg, d if l == 0 else m, rng, with_readout=True) for l in range(2)]
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
    traces = [deep_forward(g, params, cfg) for g in graphs]
    for i in range(m):
        values = np.array([traces[gi].nodes[-1].data[v, i] for gi, v in points])
        assert range_residual(gram, values) <= 1e-6


# ---------------------------------------------------------------------------
# relabeling iterations
# ---------------------------------------------------------------------------


def test_wl_single_layer_matches_plain_readout():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 4, 2)
    cfg = GraphModelConfig(n=2, hidden=3, lam=0.5, layers=1, activation=Activation.TANH)
    wl = init_wl_params(cfg, 2, rng)
    trace = wl_forward(g, wl, cfg)
    plain = rw_forward(g, GraphLayerParams(W=wl.layer_W[0]), cfg)
    assert np.allclose(trace.readouts[0].data, plain.readouts[0].data, rtol=1e-12)


def test_wl_identity_relabel_scales_readout_by_depth():
    rng = np.random.default_rng(10)
    d = 2
    g = random_graph(rng, 4, d)
    cfg = GraphModelConfig(n=2, hidden=3, lam=0.5, layers=3, activation=Activation.IDENTITY)
    wl = init_wl_params(cfg, d, rng)
    wl.u1 = Tensor(np.eye(d))
    wl.u2 = Tensor(np.zeros((d, d)))
    wl.layer_W = [wl.layer_W[0]] * 3
    trace = wl_forward(g, wl, cfg)
    assert np.allclose(trace.h_graph.data, 3.0 * trace.readouts[0].data[0], rtol=1e-12)


@pytest.mark.parametrize("act", [Activation.IDENTITY, Activation.TANH])
def test_wl_output_matches_chain_construction_sum(act):
    # per layer, the readout equals the walk kernel between the relabeled
    # graph and the chain of weight rows; the final output is their sum
    rng = np.random.default_rng(11)
    d, m, lam, layers, n = 2, 3, 0.5, 2, 2
    g = random_graph(rng, 5, d)
    cfg = GraphModelConfig(n=n, hidden=m, lam=lam, layers=layers, activation=act)
    wl = init_wl_params(cfg, d, rng)
    trace = wl_forward(g, wl, cfg)
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
    wl = init_wl_params(cfg, 2, rng)
    named = wl.named()
    assert named["u1"] is wl.u1 and named["u2"] is wl.u2 and named["v"] is wl.v
    # replacing the shared transform changes every layer's relabeling
    g = random_graph(rng, 4, 2)
    before = wl_forward(g, wl, cfg).h_graph.data
    wl2 = wl.with_named({"u1": Tensor(wl.u1.data * 2.0)})
    after = wl_forward(g, wl2, cfg).h_graph.data
    assert not np.allclose(before, after)


def test_wl_params_are_named_by_field_path():
    cfg = GraphModelConfig(n=2, hidden=3, layers=2)
    wl = init_wl_params(cfg, 2, np.random.default_rng(0))
    assert list(wl.named()) == ["l1.W1", "l1.W2", "l2.W1", "l2.W2", "u1", "u2", "v"]
    with pytest.raises(ContractError, match="nope"):
        wl.with_named({"nope": wl.u1})
    with pytest.raises(ContractError):
        wl.with_named({"wl.u1": wl.u1})


# ---------------------------------------------------------------------------
# gated
# ---------------------------------------------------------------------------


def test_gated_constant_degeneration_matches_plain():
    rng = np.random.default_rng(13)
    d, m, lam = 2, 3, 0.35
    g = random_graph(rng, 5, d)
    cfg = GraphModelConfig(n=3, hidden=m, lam=lam, gated=True, activation=Activation.TANH)
    p = init_graph_layer(cfg, d, rng)
    p.gate_u = Tensor(np.zeros((m, 2 * d)))
    p.gate_b = Tensor(np.full(m, logit(lam)))
    a = gated_rw_forward(g, p, cfg)
    b = rw_forward(g, p, GraphModelConfig(n=3, hidden=m, lam=lam, activation=Activation.TANH))
    for j in (1, 2, 3):
        for v in range(5):
            assert np.max(np.abs(a.state(j, v).data - b.state(j, v).data)) <= 1e-12


def test_gated_edgeless_zero_deeper_states():
    rng = np.random.default_rng(14)
    g = FeatureGraph((np.ones(2), np.ones(2)))
    cfg = GraphModelConfig(n=2, hidden=3, gated=True)
    p = init_graph_layer(cfg, 2, rng)
    trace = gated_rw_forward(g, p, cfg)
    for v in range(2):
        assert np.array_equal(trace.state(2, v).data, np.zeros(3))


def test_gated_forward_matches_state_sum_oracle():
    for seed in range(4):
        rng = np.random.default_rng(400 + seed)
        d, m, n = 2, 3, 3
        g = random_graph(rng, 4, d)
        cfg = GraphModelConfig(n=n, hidden=m, gated=True)
        p = init_graph_layer(cfg, d, rng)
        trace = gated_rw_forward(g, p, cfg)
        total = trace.state_sum(n)
        want = gated_walk_state_sum(g, [w.data for w in p.W], p.gate_u.data, p.gate_b.data)
        assert rel_error(total, want) <= 1e-10


def test_gated_without_gate_params_is_config_error():
    rng = np.random.default_rng(15)
    g = random_graph(rng, 3, 2)
    cfg = GraphModelConfig(n=2, hidden=3, gated=True)
    p = GraphLayerParams(W=[Tensor(np.zeros((3, 2))) for _ in range(2)])
    with pytest.raises(ConfigError):
        gated_rw_forward(g, p, cfg)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def forward_for(kind, g, params, cfg):
    if kind == "rw":
        return rw_forward(g, params, cfg)
    if kind == "generalized":
        return generalized_forward(g, params, cfg)
    if kind == "gated":
        return gated_rw_forward(g, params, cfg)
    raise ValueError(kind)


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
    cfg = GraphModelConfig(n=2, hidden=m, lam=0.5, composition=composition,
                           activation=act, gated=(kind == "gated"))
    p = init_graph_layer(cfg, d, rng)
    probe = rng.normal(size=m)

    def run(params):
        trace = forward_for(kind, g, params, cfg)
        return dot(Tensor(probe), trace.h_graph)

    with Tape() as tape:
        loss = run(p)
    grads = tape.backward(loss)
    for name, tensor in p.named().items():
        fd = finite_diff_grad(lambda t: run(p.with_named({name: t})).item(), tensor)
        got = grads.get(tensor, Tensor(np.zeros(tensor.shape)))
        assert rel_error(got, fd) <= 1e-5


def test_deep_and_wl_gradients():
    rng = np.random.default_rng(17)
    d, m = 2, 3
    g = random_graph(rng, 4, d)
    probe = rng.normal(size=m)

    cfg_deep = GraphModelConfig(n=2, hidden=m, lam=0.5, composition=ADDITIVE,
                                activation=Activation.TANH, layers=2)
    deep_params = [init_graph_layer(cfg_deep, d if l == 0 else m, rng, with_readout=True)
                   for l in range(2)]

    def run_deep(ps):
        return dot(Tensor(probe), deep_forward(g, ps, cfg_deep).h_graph)

    with Tape() as tape:
        loss = run_deep(deep_params)
    grads = tape.backward(loss)
    for l, p in enumerate(deep_params):
        for name, tensor in p.named().items():
            def f(t, l=l, name=name):
                swapped = list(deep_params)
                swapped[l] = deep_params[l].with_named({name: t})
                return run_deep(swapped).item()

            fd = finite_diff_grad(f, tensor)
            got = grads.get(tensor, Tensor(np.zeros(tensor.shape)))
            assert rel_error(got, fd) <= 1e-5

    cfg_wl = GraphModelConfig(n=2, hidden=m, lam=0.5, layers=2, activation=Activation.TANH)
    wl = init_wl_params(cfg_wl, d, rng)

    def run_wl(ps):
        return dot(Tensor(probe), wl_forward(g, ps, cfg_wl).h_graph)

    with Tape() as tape:
        loss = run_wl(wl)
    grads = tape.backward(loss)
    for name, tensor in wl.named().items():
        fd = finite_diff_grad(lambda t: run_wl(wl.with_named({name: t})).item(), tensor)
        got = grads.get(tensor, Tensor(np.zeros(tensor.shape)))
        assert rel_error(got, fd) <= 1e-5


# ---------------------------------------------------------------------------
# disjoint unions
# ---------------------------------------------------------------------------


def union_members(rng, d):
    """An edgeless node inside a triangle graph, a directed chain, a random graph, one node."""
    feats = [rng.normal(size=d) for _ in range(5)]
    return [
        FeatureGraph.undirected(feats, [(0, 1), (1, 2), (2, 0)]),
        FeatureGraph.chain([rng.normal(size=d) for _ in range(4)]),
        random_graph(rng, 6, d),
        FeatureGraph((rng.normal(size=d),)),
    ]


def module_setup(kind, rng, d, m, act=Activation.TANH, composition=MULTIPLICATIVE):
    layers = 2 if kind in ("deep", "wl") else 1
    cfg = GraphModelConfig(n=3, hidden=m, lam=0.6, composition=composition, activation=act,
                           layers=layers, gated=(kind == "gated"))
    if kind == "wl":
        params = init_wl_params(cfg, d, rng)
        return cfg, params, wl_forward, params.named(), lambda name, t: params.with_named({name: t})
    if kind == "deep":
        params = [init_graph_layer(cfg, d if l == 0 else m, rng, with_readout=True)
                  for l in range(layers)]
        # keyed by (layer, name): both layers hold a W1
        named = {(l, k): t for l, p in enumerate(params) for k, t in p.named().items()}

        def swap(key, t):
            return [p.with_named({key[1]: t}) if l == key[0] else p for l, p in enumerate(params)]

        return cfg, params, deep_forward, named, swap
    params = init_graph_layer(cfg, d, rng)
    if kind == "gated":
        params.gate_b = Tensor(rng.normal(size=m))
    fwd = {"rw": rw_forward, "generalized": generalized_forward, "gated": gated_rw_forward}[kind]
    return cfg, params, fwd, params.named(), lambda name, t: params.with_named({name: t})


@pytest.mark.parametrize(
    "kind,composition",
    [("rw", MULTIPLICATIVE), ("generalized", MULTIPLICATIVE), ("generalized", ADDITIVE),
     ("deep", MULTIPLICATIVE), ("deep", ADDITIVE), ("wl", MULTIPLICATIVE),
     ("gated", MULTIPLICATIVE)],
)
def test_union_members_match_their_solo_forward(kind, composition):
    rng = np.random.default_rng(20)
    d, m = 3, 4
    graphs = union_members(rng, d)
    cfg, params, fwd, _, _ = module_setup(kind, rng, d, m, composition=composition)
    union = fwd(FeatureGraph.union(graphs), params, cfg)
    assert union.out.shape == (len(graphs), m)
    assert union.graph.sizes == tuple(g.num_nodes for g in graphs)
    for b, g in enumerate(graphs):
        solo = fwd(g, params, cfg)
        start = sum(union.graph.sizes[:b])
        rows = slice(start, start + g.num_nodes)
        for l in range(len(solo.states)):
            for j in range(cfg.n):
                assert rel_error(union.states[l][j].data[rows], solo.states[l][j].data) <= 1e-12
            assert rel_error(union.nodes[l].data[rows], solo.nodes[l].data) <= 1e-12
            assert rel_error(union.readouts[l].data[b], solo.readouts[l].data[0]) <= 1e-12
        assert rel_error(union.out.data[b], solo.h_graph.data) <= 1e-12


@pytest.mark.parametrize("kind", ["wl", "gated"])
def test_union_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(21)
    d, m = 2, 3
    union = FeatureGraph.union([random_graph(rng, 4, d),
                                FeatureGraph.chain([rng.normal(size=d)] * 3),
                                FeatureGraph((np.ones(d), -np.ones(d)))])
    cfg, params, fwd, named, swap = module_setup(kind, rng, d, m)
    probe = Tensor(rng.normal(size=(3, m)))

    def run(ps):
        return tsum(mul(probe, fwd(union, ps, cfg).out))

    with Tape() as tape:
        loss = run(params)
    grads = tape.backward(loss)
    for name, tensor in named.items():
        fd = finite_diff_grad(lambda t: run(swap(name, t)).item(), tensor)
        assert rel_error(grads[tensor], fd) <= 1e-5, name


def test_single_graph_views_need_a_union_of_one():
    rng = np.random.default_rng(22)
    graphs = [random_graph(rng, 3, 2), random_graph(rng, 4, 2)]
    cfg = GraphModelConfig(n=2, hidden=3)
    trace = rw_forward(FeatureGraph.union(graphs), init_graph_layer(cfg, 2, rng), cfg)
    for read in (lambda t: t.h_graph, lambda t: t.state_sum(2)):
        with pytest.raises(ContractError):
            read(trace)
    # node views index union nodes: the second graph starts at node 3
    assert np.array_equal(trace.state(2, 3).data, trace.states[0][1].data[3])
