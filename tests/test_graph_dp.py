"""The walk, WL, deep and gated kernels by dynamic programming against the exhaustive oracles
and the exact walk sum.

Each DP equals its oracle with either neighbor sum on either graph.  The gated DP does not
see node labels, is additive over disjoint unions, which referees it on unions the oracle
itself refuses, and its dense and edge neighbor sums agree, whichever graph takes which.
The walk and WL DPs stay within ``C_EXACT * eps`` of the walk-pair terms' absolute sum from
the exact value, and the gated DP within ``C_GATED * eps`` of it, also where those terms cancel
to 1e-4 of it or less.
"""

from fractions import Fraction
from unittest import mock

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelnn import graph_dp
from kernelnn.errors import ContractError, GuardError, ShapeError
from kernelnn import graph_kernel
from kernelnn.graph_kernel import gate_values, gated_random_walk_kernel
from kernelnn.inputs import ADDITIVE, MULTIPLICATIVE, FeatureGraph, GraphKernelConfig
from kernelnn.inputs import WLRelabelParams
from kernelnn.tensor import Activation, rel_error

from helpers import exact_walk_sum, permute_graph

DIM = 2
PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=80)
EPS = np.finfo(np.float64).eps
# the largest |DP - exact| / (eps K_abs) seen: walk 0.99 and WL 1.22 (their oracles 1.21, 1.33)
C_EXACT = 4
# the gated DP forms its gates and dots in longdouble, the exact value takes the oracle's float64
# ones as given, and the difference is their rounding: 89 seen (the oracle 1.6)
C_GATED = 256


@st.composite
def graphs(draw, max_nodes=5, max_steps=8):
    """Random features, and random directed steps with self-loops and edgeless nodes."""
    n = draw(st.integers(1, max_nodes))
    index = st.integers(0, n - 1)
    steps = draw(st.lists(st.tuples(index, index), max_size=max_steps))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, DIM))
    return FeatureGraph(x, steps)


@st.composite
def gates(draw):
    """Gate weights ``u`` (m, 2 * DIM) and biases ``b`` (m,) for m in 1..3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    return rng.normal(size=(m, 2 * DIM)), rng.normal(size=m)


@st.composite
def relabels(draw):
    """WL relabel weights (DIM x DIM each) with a tanh or an identity activation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    act = draw(st.sampled_from([Activation.TANH, Activation.IDENTITY]))
    return WLRelabelParams(*rng.normal(size=(3, DIM, DIM)), activation=act)


def on_every_step(g1, g2, kernel):
    """``kernel()`` with every graph dense, every graph on its edges, and each alone on them."""
    got = []
    for limit in (10**6, 0, g1.num_nodes, g2.num_nodes):
        with mock.patch.object(graph_dp, "DENSE_NODES", limit):
            got.append(kernel())
    return got


BIG = dict(max_nodes=8, max_steps=20)
LAMBDAS = st.floats(0.0, 1.5)


@PROPERTIES
@given(graphs(**BIG), graphs(**BIG), st.integers(1, 4), LAMBDAS)
@example(FeatureGraph([[1.0, 2.0]]), FeatureGraph([[3.0, 0.5], [1.0, -1.0]], [(0, 0), (0, 1)]),
         4, 0.5)  # one edgeless node against a self-loop
def test_walk_dp_matches_the_oracle(g1, g2, n, lam):
    cfg = GraphKernelConfig(n=n, lam=lam)
    want = graph_kernel.random_walk_kernel(g1, g2, cfg)
    for got in on_every_step(g1, g2, lambda: graph_dp.random_walk_kernel(g1, g2, cfg)):
        assert rel_error(got, want) <= 1e-10


@PROPERTIES
@given(graphs(**BIG), graphs(**BIG), st.integers(1, 4), LAMBDAS, st.integers(0, 3), relabels())
def test_wl_dp_matches_the_oracle(g1, g2, n, lam, depth, relabel):
    cfg = GraphKernelConfig(n=n, lam=lam)
    want = graph_kernel.wl_kernel(g1, g2, cfg, depth, relabel)
    for got in on_every_step(g1, g2, lambda: graph_dp.wl_kernel(g1, g2, cfg, depth, relabel)):
        assert rel_error(got, want) <= 1e-10


@PROPERTIES
@given(graphs(**BIG), graphs(**BIG), st.integers(1, 4), LAMBDAS, st.integers(1, 3),
       st.sampled_from([ADDITIVE, MULTIPLICATIVE]))
@example(FeatureGraph([[1.0, 2.0], [0.5, 1.0]], [(0, 1)]), FeatureGraph([[3.0, 0.5]], [(0, 0)]),
         2, 0.5, 2, ADDITIVE)  # node 0 ends no 2-node walk, so it scores 0 at order 2
def test_deep_dp_matches_the_oracle(g1, g2, n, lam, depth, composition):
    cfg = GraphKernelConfig(n=n, lam=lam, composition=composition, depth=depth)
    want = graph_kernel.deep_graph_kernel(g1, g2, cfg)
    for got in on_every_step(g1, g2, lambda: graph_dp.deep_graph_kernel(g1, g2, cfg)):
        assert rel_error(got, want) <= 1e-10


@PROPERTIES
@given(graphs(), graphs(), gates(), st.integers(1, 4))
@example(FeatureGraph([[1.0, 2.0], [-1.0, -2.0]], [(0, 0), (0, 1)]),
         FeatureGraph([[3.0, 0.5]], [(0, 0)]),
         (np.ones((2, 2 * DIM)), np.zeros(2)), 4)  # features that cancel, self-loops
def test_dp_matches_the_oracle(g1, g2, gate, n):
    u, b = gate
    got = graph_dp.gated_random_walk_kernel(g1, g2, u, b, n)
    assert got.shape == b.shape
    assert rel_error(got, gated_random_walk_kernel(g1, g2, u, b, n)) <= 1e-10


@PROPERTIES
@given(graphs(max_nodes=8, max_steps=20), graphs(max_nodes=8, max_steps=20), gates(),
       st.integers(1, 6), st.randoms(use_true_random=False))
def test_dp_is_invariant_under_node_relabeling(g1, g2, gate, n, random):
    u, b = gate
    p1, p2 = (random.sample(range(g.num_nodes), g.num_nodes) for g in (g1, g2))
    want = graph_dp.gated_random_walk_kernel(g1, g2, u, b, n)
    got = graph_dp.gated_random_walk_kernel(permute_graph(g1, p1), permute_graph(g2, p2), u, b, n)
    assert rel_error(got, want) <= 1e-12


@PROPERTIES
@given(graphs(max_nodes=8, max_steps=10), graphs(max_nodes=8, max_steps=10), graphs(), gates(),
       st.integers(1, 3))
def test_dp_is_additive_over_disjoint_unions(a, a2, g, gate, n):
    u, b = gate
    got = graph_dp.gated_random_walk_kernel(FeatureGraph.union([a, a2]), g, u, b, n)
    want = gated_random_walk_kernel(a, g, u, b, n) + gated_random_walk_kernel(a2, g, u, b, n)
    assert rel_error(got, want) <= 1e-10


@PROPERTIES
@given(graphs(max_nodes=8, max_steps=20), graphs(max_nodes=8, max_steps=20), gates(),
       st.integers(1, 6))
@example(FeatureGraph([[1.0, 2.0]]), FeatureGraph([[3.0, 0.5], [1.0, -1.0]], [(0, 0), (0, 1)]),
         (np.ones((1, 2 * DIM)), np.zeros(1)), 6)  # one edgeless node against a self-loop
def test_dense_and_edge_steps_agree(g1, g2, gate, n):
    # every graph dense, every graph on its edges, and each graph alone on its edges
    u, b = gate
    got = on_every_step(g1, g2, lambda: graph_dp.gated_random_walk_kernel(g1, g2, u, b, n))
    assert max(rel_error(v, got[0]) for v in got) <= 5e-16


def test_a_step_into_overflow_that_no_walk_leaves_scores_zero():
    # a 0/1 product would add 0 * inf = nan from the chain's end, where no step leaves
    chain = FeatureGraph(np.full((9, DIM), 1e300), [(v, v + 1) for v in range(8)])
    loop = FeatureGraph(np.full((1, DIM), 1e300), [(0, 0)])
    assert chain.num_nodes <= graph_dp.DENSE_NODES
    with np.errstate(over="ignore", invalid="ignore"):
        got = graph_dp.gated_random_walk_kernel(chain, loop, np.ones((1, 2 * DIM)), np.zeros(1), 10)
    assert got.tolist() == [0.0]


def test_dp_scores_a_union_the_oracle_refuses():
    rng = np.random.default_rng(4)
    ring = [(v, (v + 1) % 8) for v in range(8)]
    parts = [FeatureGraph(rng.normal(size=(8, DIM)), ring + [(0, 0), (3, 5)])
             for _ in range(graph_dp.DENSE_NODES // 8 + 1)]
    union, g = FeatureGraph.union(parts), FeatureGraph(rng.normal(size=(3, DIM)), [(0, 1), (1, 2)])
    assert union.num_nodes > graph_dp.DENSE_NODES >= 8  # the union on its edges, each part dense
    u, b = rng.normal(size=(2, 2 * DIM)), rng.normal(size=2)
    with pytest.raises(GuardError):
        gated_random_walk_kernel(union, g, u, b, 3)
    want = [gated_random_walk_kernel(p, g, u, b, 3) for p in parts]
    for p, w in zip(parts, want):
        assert rel_error(graph_dp.gated_random_walk_kernel(p, g, u, b, 3), w) <= 1e-10
    assert rel_error(graph_dp.gated_random_walk_kernel(union, g, u, b, 3), sum(want)) <= 1e-10


def test_dp_raises_the_oracles_errors():
    g = FeatureGraph(np.ones((2, DIM)), [(0, 1)])
    u, b = np.ones((1, 2 * DIM)), np.zeros(1)
    with pytest.raises(ShapeError, match="feature dims differ"):
        graph_dp.gated_random_walk_kernel(g, FeatureGraph(np.ones((2, 3))), u, b, 2)
    with pytest.raises(ContractError, match="walk order must be >= 1, got 0"):
        graph_dp.gated_random_walk_kernel(g, g, u, b, 0)
    with pytest.raises(ShapeError, match="gate weights"):
        graph_dp.gated_random_walk_kernel(g, g, np.ones((1, DIM)), b, 2)


def relabel_of(shapes, activation=Activation.TANH):
    return WLRelabelParams(*(np.ones(s) for s in shapes), activation=activation)


ERROR_CASES = {
    "walk-dims": ("random_walk_kernel", (FeatureGraph(np.ones((2, 3))), GraphKernelConfig(n=2))),
    "wl-dims": ("wl_kernel", (FeatureGraph(np.ones((2, 3))), GraphKernelConfig(n=2), 1,
                              relabel_of([(DIM, DIM)] * 3))),
    "wl-depth": ("wl_kernel", (FeatureGraph(np.ones((1, DIM))), GraphKernelConfig(n=2), -1,
                               relabel_of([(DIM, DIM)] * 3))),
    "wl-shapes": ("wl_kernel", (FeatureGraph(np.ones((1, DIM))), GraphKernelConfig(n=2), 1,
                                relabel_of([(DIM, DIM), (DIM, 3), (DIM, DIM)]))),
    "wl-second-shapes": ("wl_kernel", (FeatureGraph(np.ones((1, DIM))), GraphKernelConfig(n=2),
                                       2, relabel_of([(3, DIM), (3, DIM), (DIM, DIM)]))),
    "wl-activation": ("wl_kernel", (FeatureGraph(np.ones((1, DIM))), GraphKernelConfig(n=2), 1,
                                    relabel_of([(DIM, DIM)] * 3, Activation.RELU))),
    "deep-dims": ("deep_graph_kernel", (FeatureGraph(np.ones((2, 3))),
                                        GraphKernelConfig(n=2, composition=ADDITIVE))),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_walk_wl_and_deep_dps_raise_the_oracles_errors(case):
    name, (g2, *rest) = ERROR_CASES[case]
    g = FeatureGraph(np.ones((2, DIM)), [(0, 1)])
    with pytest.raises((ShapeError, ContractError)) as want:
        getattr(graph_kernel, name)(g, g2, *rest)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        getattr(graph_dp, name)(g, g2, *rest)


# ---------------------------------------------------------------------------
# the exact walk sum: |DP - exact| <= C_EXACT * eps * K_abs
# ---------------------------------------------------------------------------


def exact_walk(g1, g2, cfg):
    """The walk kernel and its terms' absolute sum, exact, for the float64 dots the oracle forms."""
    (k,), (k_abs,) = exact_walk_sum(g1, g2, [(g1.matrix @ g2.matrix.T)[None]], cfg.n)
    decay = Fraction(cfg.lam) ** (cfg.n - 1)
    return decay * k, decay * k_abs


def exact_gated(g1, g2, u, b, n):
    """The gated kernel and its terms' absolute sums, exact, for the oracle's gates and dots."""
    gates = np.array([[gate_values(fa, fb, u, b) for fb in g2.features] for fa in g1.features])
    dots = np.array([[np.dot(fa, fb) for fb in g2.features] for fa in g1.features])
    return exact_walk_sum(g1, g2, [gates.transpose(2, 0, 1), dots[None]], n)


def exact_wl(g1, g2, cfg, depth, relabel):
    """The WL kernel, exact on the oracle's relabeled float64 features, and its absolute sum."""
    total, total_abs, a, b = Fraction(0), Fraction(0), g1, g2
    for i in range(depth + 1):
        k, k_abs = exact_walk(a, b, cfg)
        total, total_abs = total + k, total_abs + k_abs
        if i < depth:
            a, b = graph_kernel.wl_relabel(a, relabel), graph_kernel.wl_relabel(b, relabel)
    return total, total_abs


def error_in_eps(got, want, k_abs):
    """|got - want| in units of eps * K_abs (0 where both are 0)."""
    err = abs(Fraction(float(got)) - want)
    return float(err / (Fraction(EPS) * k_abs)) if err else 0.0


@st.composite
def cancelling(draw):
    """A self-looped node and a step from it to a node of nearly its negated feature, against a
    graph: each walk ending there nearly cancels one that stays, so the kernel is ``delta`` times
    a kernel of the same scale, and K_abs / |K| is near 2 / delta or more."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f, delta = rng.normal(size=DIM), draw(st.sampled_from([1e-5, 1e-7, 2.0**-30]))
    return FeatureGraph([f, -(1 - delta) * f], [(0, 0), (0, 1)]), draw(graphs(max_nodes=4))


EXACT = settings(PROPERTIES, max_examples=25)
# lam**(n-1) underflows below about 1e-103, and the bound has no term for underflow
FINITE_DECAYS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@EXACT
@given(st.one_of(st.tuples(graphs(max_nodes=6, max_steps=12), graphs(max_nodes=6, max_steps=12)),
                 cancelling()), st.integers(1, 4), FINITE_DECAYS, relabels())
def test_walk_and_wl_dps_are_near_the_exact_value(pair, n, lam, relabel):
    g1, g2 = pair
    cfg = GraphKernelConfig(n=n, lam=lam)
    k, k_abs = exact_walk(g1, g2, cfg)
    assert error_in_eps(graph_dp.random_walk_kernel(g1, g2, cfg), k, k_abs) <= C_EXACT
    k, k_abs = exact_wl(g1, g2, cfg, 1, relabel)
    assert error_in_eps(graph_dp.wl_kernel(g1, g2, cfg, 1, relabel), k, k_abs) <= C_EXACT


@EXACT
@given(st.one_of(st.tuples(graphs(max_nodes=6, max_steps=12), graphs(max_nodes=6, max_steps=12)),
                 cancelling()), gates(), st.integers(1, 4))
def test_gated_dp_is_near_the_exact_value(pair, gate, n):
    g1, g2 = pair
    u, b = gate
    u[:, :DIM] = 0.0  # gates read graph 2's node only, so a cancelling pair keeps cancelling
    for got, k, k_abs in zip(graph_dp.gated_random_walk_kernel(g1, g2, u, b, n),
                             *exact_gated(g1, g2, u, b, n)):
        assert error_in_eps(got, k, k_abs) <= C_GATED


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_cancelling_pairs_cancel(n):
    # the referee tests above see K_abs / |K| of 1e4 and more
    g1 = FeatureGraph([[1.0, 0.5], [-(1 - 1e-5), -0.5 * (1 - 1e-5)]], [(0, 0), (0, 1)])
    g2 = FeatureGraph([[0.3, 1.0], [1.0, -0.2]], [(0, 1), (1, 0), (1, 1)])
    k, k_abs = exact_walk(g1, g2, GraphKernelConfig(n=n))
    assert k != 0 and k_abs / abs(k) >= 1e4
    assert error_in_eps(graph_dp.random_walk_kernel(g1, g2, GraphKernelConfig(n=n)), k, k_abs) <= 1
