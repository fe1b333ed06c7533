"""Property tests: a FeatureGraph built from neighbor lists stores exactly those
lists as its sorted walk steps, rejects an out-of-range index by naming the first
one in input order, and equals ``FeatureGraph.undirected`` on the same edges."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelnn.errors import ContractError
from kernelnn.graph_kernel import FeatureGraph

# derandomized, so every run of the suite tries the same inputs
settings.register_profile("kernelnn", derandomize=True, database=None, deadline=None,
                          max_examples=200)
settings.load_profile("kernelnn")


@st.composite
def neighbor_lists(draw):
    """Unsorted predecessor lists with repeats and self-loops; some indices out of range."""
    n = draw(st.integers(1, 6))
    index = st.integers(0, n - 1) if draw(st.integers(0, 2)) else st.integers(-2, n + 1)
    return n, [draw(st.lists(index, max_size=5)) for _ in range(n)]


def features(n: int) -> list[np.ndarray]:
    return [np.array([float(v), -1.0]) for v in range(n)]


def assert_steps(g: FeatureGraph, preds: list[list[int]]) -> None:
    """``neighbors`` is the sorted lists and ``edge_arrays`` their flattening."""
    want = tuple(tuple(sorted(p)) for p in preds)
    assert g.neighbors == want
    src, dst = g.edge_arrays
    assert src.dtype == dst.dtype == np.intp
    assert src.tolist() == [u for p in want for u in p]
    assert dst.tolist() == [v for v, p in enumerate(want) for _ in p]


@given(neighbor_lists(), st.booleans())
@example((3, [[2, 0, 2], [], [1, 1, 2]]), True)  # repeats and a self-loop, kept as given
@example((2, [[1, 5], [-1]]), False)  # two bad indices: the first in input order
@example((2, [[1, 2**70], [-1]]), False)  # an index no machine integer holds
def test_neighbor_lists_are_stored_as_sorted_steps(lists, directed):
    n, preds = lists
    bad = [u for p in preds for u in p if not 0 <= u < n]
    try:
        g = FeatureGraph(features(n), preds, directed=directed)
    except ContractError as exc:
        assert bad and str(exc) == f"neighbor index {bad[0]} out of range for {n} nodes"
        return
    assert not bad
    assert g.directed is directed
    assert np.array_equal(g.matrix, np.array(features(n)))
    assert_steps(g, preds)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(pair, max_size=8))


@given(edge_lists())
@example((2, [(0, 1), (1, 0), (1, 1), (1, 1)]))  # a repeated edge and a repeated self-loop
def test_list_built_undirected_graph_equals_undirected(edges):
    n, pairs = edges
    preds = [set() for _ in range(n)]
    for u, v in pairs:
        preds[u].add(v)
        preds[v].add(u)
    preds = [list(p) for p in preds]
    g = FeatureGraph(features(n), preds)
    want = FeatureGraph.undirected(features(n), pairs)
    assert g.directed is want.directed is False
    assert np.array_equal(g.matrix, want.matrix)
    for a, b in zip(g.edge_arrays, want.edge_arrays, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert g.neighbors == want.neighbors
    assert_steps(want, preds)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_chain_steps_from_each_node_to_the_next(n):
    g = FeatureGraph.chain(features(n))
    assert g.directed
    assert_steps(g, [[v - 1] if v else [] for v in range(n)])
