import numpy as np
import pytest

from kernelnn.errors import ContractError, GuardError, ShapeError
from kernelnn.graph_kernel import (
    WLRelabelParams,
    deep_graph_kernel,
    deep_local_kernel,
    enumerate_walks,
    gate_values,
    gated_random_walk_kernel,
    random_walk_kernel,
    reference_walk,
    wl_kernel,
    wl_relabel,
)
from kernelnn.inputs import ADDITIVE, MULTIPLICATIVE, FeatureGraph, GraphKernelConfig
from kernelnn.seq_kernel import gram_matrix
from kernelnn.seq_nn import logit
from kernelnn.tensor import Activation

from helpers import gated_walk_state_sum, local_kernel, local_kernel_sum, permute_graph

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_graph(rng, num_nodes, dim, edge_prob=0.6, ensure_connected=True):
    feats = [rng.normal(size=dim) for _ in range(num_nodes)]
    edges = set()
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < edge_prob:
                edges.add((u, v))
    if ensure_connected:
        for v in range(1, num_nodes):
            u = int(rng.integers(0, v))
            edges.add((u, v))
    return FeatureGraph.undirected(feats, sorted(edges))


def test_single_node_single_walk():
    g = FeatureGraph((E1,))
    assert enumerate_walks(g, 1) == [(0,)]


def test_isolated_node_has_no_two_node_walks():
    g = FeatureGraph((E1,))
    assert enumerate_walks(g, 2) == []


def test_undirected_path_walks_both_ways():
    g = FeatureGraph.undirected([E1, E2], [(0, 1)])
    assert sorted(enumerate_walks(g, 2)) == [(0, 1), (1, 0)]


def test_walk_guards():
    g = random_graph(np.random.default_rng(0), 9, 2)
    with pytest.raises(GuardError):
        enumerate_walks(g, 2)
    small = random_graph(np.random.default_rng(0), 3, 2)
    with pytest.raises(GuardError):
        enumerate_walks(small, 5)
    with pytest.raises(ContractError):
        enumerate_walks(small, 0)


def test_single_node_kernel_is_inner_product():
    g1 = FeatureGraph((E1,))
    g2 = FeatureGraph((E1,))
    assert random_walk_kernel(g1, g2, GraphKernelConfig(n=1, lam=0.5)) == 1.0


def test_edgeless_graph_scores_zero_at_order_two():
    g1 = FeatureGraph.undirected([E1, E2], [(0, 1)])
    g2 = FeatureGraph((E1, E2))
    assert random_walk_kernel(g1, g2, GraphKernelConfig(n=2, lam=0.5)) == 0.0


def test_two_paths_hand_value():
    g1 = FeatureGraph.undirected([E1, E2], [(0, 1)])
    g2 = FeatureGraph.undirected([E1, E2], [(0, 1)])
    assert random_walk_kernel(g1, g2, GraphKernelConfig(n=2, lam=0.5)) == pytest.approx(1.0)


def test_kernel_dimension_mismatch():
    g1 = FeatureGraph((E1,))
    g2 = FeatureGraph((np.ones(3),))
    with pytest.raises(ShapeError):
        random_walk_kernel(g1, g2, GraphKernelConfig(n=1, lam=0.5))


def test_kernel_symmetry_exact():
    rng = np.random.default_rng(1)
    cfg = GraphKernelConfig(n=3, lam=0.4)
    for _ in range(5):
        g1 = random_graph(rng, 4, 3)
        g2 = random_graph(rng, 5, 3)
        assert random_walk_kernel(g1, g2, cfg) == random_walk_kernel(g2, g1, cfg)


def test_kernel_permutation_invariance_exact():
    rng = np.random.default_rng(2)
    cfg = GraphKernelConfig(n=3, lam=0.6)
    g1 = random_graph(rng, 5, 2)
    g2 = random_graph(rng, 4, 2)
    base = random_walk_kernel(g1, g2, cfg)
    for _ in range(4):
        perm = list(rng.permutation(5))
        assert random_walk_kernel(permute_graph(g1, perm), g2, cfg) == base


def test_local_kernel_base_case():
    rng = np.random.default_rng(3)
    g1 = random_graph(rng, 3, 2)
    g2 = random_graph(rng, 3, 2)
    cfg = GraphKernelConfig(n=1, lam=0.5)
    got = local_kernel(0, 1, g1, g2, cfg)
    assert got == pytest.approx(float(np.dot(g1.features[0], g2.features[1])))


def test_local_kernel_isolated_node_multiplicative_zero():
    g1 = FeatureGraph((E1, E2))
    g2 = FeatureGraph.undirected([E1, E2], [(0, 1)])
    cfg = GraphKernelConfig(n=2, lam=0.5)
    assert local_kernel(0, 0, g1, g2, cfg) == 0.0


def test_local_kernel_sum_decomposes_walk_kernel():
    rng = np.random.default_rng(4)
    cfg = GraphKernelConfig(n=3, lam=0.5)
    for _ in range(4):
        g1 = random_graph(rng, 4, 2)
        g2 = random_graph(rng, 4, 2)
        a = local_kernel_sum(g1, g2, cfg)
        b = random_walk_kernel(g1, g2, cfg)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_deep_local_depth_one_equals_local():
    rng = np.random.default_rng(5)
    for composition in (MULTIPLICATIVE, ADDITIVE):
        cfg = GraphKernelConfig(n=2, lam=0.5, composition=composition, depth=1)
        g1 = random_graph(rng, 4, 2)
        g2 = random_graph(rng, 4, 2)
        for v in range(4):
            for vp in range(4):
                assert deep_local_kernel(v, vp, g1, g2, cfg) == pytest.approx(
                    local_kernel(v, vp, g1, g2, cfg), rel=1e-12, abs=1e-12
                )


def test_deep_local_forced_zero_on_isolated_nodes():
    g1 = FeatureGraph((E1, E2))
    g2 = FeatureGraph.undirected([E1, E2], [(0, 1)])
    cfg = GraphKernelConfig(n=2, lam=0.5, composition=ADDITIVE, depth=2)
    assert deep_local_kernel(0, 0, g1, g2, cfg) == 0.0


def test_deep_graph_kernel_gram_is_psd():
    rng = np.random.default_rng(6)
    cfg = GraphKernelConfig(n=2, lam=0.5, composition=ADDITIVE, depth=2)
    graphs = [random_graph(rng, int(rng.integers(3, 6)), 2) for _ in range(6)]
    gram = gram_matrix(graphs, lambda a, b: deep_graph_kernel(a, b, cfg))
    assert np.array_equal(gram, gram.T)
    eig = np.linalg.eigvalsh(gram)
    assert eig.min() >= -1e-8 * max(eig.max(), 1e-30)


def relabel_params(rng, d, act=Activation.TANH):
    return WLRelabelParams(
        u1=rng.normal(size=(d, d)), u2=rng.normal(size=(d, d)),
        v=rng.normal(size=(d, d)), activation=act,
    )


def test_relabel_identity_transform_keeps_features():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 4, 3)
    params = WLRelabelParams(
        u1=np.eye(3), u2=np.zeros((3, 3)), v=np.eye(3), activation=Activation.IDENTITY
    )
    out = wl_relabel(g, params)
    for a, b in zip(out.features, g.features):
        assert np.array_equal(a, b)


def test_relabel_isolated_node_uses_own_feature_only():
    g = FeatureGraph((E1, E2))
    rng = np.random.default_rng(8)
    params = relabel_params(rng, 2)
    out = wl_relabel(g, params)
    want = Activation.TANH.f(params.u1 @ E1)
    assert np.allclose(out.features[0], want)


def test_relabel_rejects_an_activation_it_does_not_apply():
    g = FeatureGraph((E1, E2))
    params = relabel_params(np.random.default_rng(8), 2, act=Activation.SIGMOID)
    with pytest.raises(ContractError, match="'sigmoid'"):
        wl_relabel(g, params)


def test_relabel_commutes_with_permutation():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 5, 2)
    params = relabel_params(rng, 2)
    perm = list(rng.permutation(5))
    a = wl_relabel(permute_graph(g, perm), params)
    b = permute_graph(wl_relabel(g, params), perm)
    for fa, fb in zip(a.features, b.features):
        assert np.allclose(fa, fb, rtol=1e-12, atol=1e-15)


def test_wl_kernel_depth_zero_is_base():
    rng = np.random.default_rng(10)
    g1 = random_graph(rng, 4, 2)
    g2 = random_graph(rng, 4, 2)
    cfg = GraphKernelConfig(n=2, lam=0.5)
    params = relabel_params(rng, 2)
    assert wl_kernel(g1, g2, cfg, 0, params) == random_walk_kernel(g1, g2, cfg)


def test_wl_kernel_identity_relabel_is_multiple_of_base():
    rng = np.random.default_rng(11)
    g1 = random_graph(rng, 4, 2)
    g2 = random_graph(rng, 4, 2)
    cfg = GraphKernelConfig(n=2, lam=0.5)
    ident = WLRelabelParams(
        u1=np.eye(2), u2=np.zeros((2, 2)), v=np.eye(2), activation=Activation.IDENTITY
    )
    base = random_walk_kernel(g1, g2, cfg)
    got = wl_kernel(g1, g2, cfg, 2, ident)
    assert got == pytest.approx(3.0 * base, rel=1e-12)


def test_wl_kernel_symmetry():
    rng = np.random.default_rng(12)
    g1 = random_graph(rng, 5, 2)
    g2 = random_graph(rng, 5, 2)
    cfg = GraphKernelConfig(n=2, lam=0.5)
    params = relabel_params(rng, 2)
    a = wl_kernel(g1, g2, cfg, 2, params)
    b = wl_kernel(g2, g1, cfg, 2, params)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_gated_display_constant_gates_shift_one_lambda_power():
    rng = np.random.default_rng(13)
    lam, n, m = 0.6, 2, 3
    g1 = random_graph(rng, 3, m)
    g2 = random_graph(rng, 4, m)
    u = np.zeros((m, 2 * m))
    b = np.full(m, logit(lam))
    got = gated_random_walk_kernel(g1, g2, u, b, n)
    base = random_walk_kernel(g1, g2, GraphKernelConfig(n=n, lam=lam))
    # the display form gates every step: one more decay factor than the kernel
    assert np.allclose(got, lam * base, rtol=1e-12)


def test_gated_display_order_one_is_feattraining_sum():
    rng = np.random.default_rng(14)
    g1 = random_graph(rng, 3, 2)
    g2 = random_graph(rng, 3, 2)
    u = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    got = gated_random_walk_kernel(g1, g2, u, b, 1)
    want = np.zeros(2)
    for fv in g1.features:
        for fw in g2.features:
            want += gate_values(fv, fw, u, b) * float(np.dot(fv, fw))
    assert np.allclose(got, want, rtol=1e-12)


def test_gated_state_sum_constant_gates_match_reference_kernels():
    rng = np.random.default_rng(15)
    lam, n, m, d = 0.45, 3, 3, 2
    g = random_graph(rng, 4, d)
    ws = [rng.normal(size=(m, d)) for _ in range(n)]
    u = np.zeros((m, 2 * d))
    b = np.full(m, logit(lam))
    got = gated_walk_state_sum(g, ws, u, b)
    cfg = GraphKernelConfig(n=n, lam=lam)
    for k in range(m):
        want = random_walk_kernel(g, reference_walk(ws, k), cfg)
        assert abs(got[k] - want) <= 1e-12 * max(1.0, abs(want))


def test_reference_walk_has_single_maximal_walk():
    rng = np.random.default_rng(16)
    ws = [rng.normal(size=(2, 3)) for _ in range(3)]
    chain = reference_walk(ws, 1)
    walks = enumerate_walks(chain, 3)
    assert walks == [(0, 1, 2)]
    for i, w in enumerate(ws):
        assert np.array_equal(chain.features[i], w[1])


def test_graph_psd_random_walk_and_wl():
    rng = np.random.default_rng(17)
    cfg = GraphKernelConfig(n=2, lam=0.5)
    graphs = [random_graph(rng, int(rng.integers(3, 6)), 2) for _ in range(8)]
    gram = gram_matrix(graphs, lambda a, b: random_walk_kernel(a, b, cfg))
    eig = np.linalg.eigvalsh(gram)
    assert eig.min() >= -1e-8 * max(eig.max(), 1e-30)
    params = relabel_params(rng, 2)
    gram_wl = gram_matrix(graphs, lambda a, b: wl_kernel(a, b, cfg, 2, params))
    eig_wl = np.linalg.eigvalsh(gram_wl)
    assert eig_wl.min() >= -1e-8 * max(eig_wl.max(), 1e-30)
