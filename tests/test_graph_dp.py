"""The gated walk kernel by dynamic programming against the exhaustive oracle.

The DP equals the oracle, does not see node labels, and is additive over
disjoint unions, which referees it on unions the oracle itself refuses.  Its
dense and edge neighbor sums agree, whichever graph takes which.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelnn import graph_dp
from kernelnn.errors import ContractError, GuardError, ShapeError
from kernelnn.graph_kernel import gated_random_walk_kernel
from kernelnn.inputs import FeatureGraph
from kernelnn.tensor import rel_error

from helpers import permute_graph

DIM = 2
PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=80)


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
    got = []
    for limit in (10**6, 0, g1.num_nodes, g2.num_nodes):
        with mock.patch.object(graph_dp, "DENSE_NODES", limit):
            got.append(graph_dp.gated_random_walk_kernel(g1, g2, u, b, n))
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
