"""Property tests: ``FeatureGraph(features, steps)`` stores each valid step once,
sorted by destination and then source, or names the first bad index;
``undirected`` is the constructor on both directions of every edge;
``split`` undoes ``union`` bit for bit; and every way of making a graph leaves
its edge arrays read-only, so the groupings cached from them stay true."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelnn import inputs
from kernelnn.errors import ContractError, ShapeError
from kernelnn.graph_kernel import WLRelabelParams, deep_local_kernel, enumerate_walks, wl_relabel
from kernelnn.graph_nn import MODULES, GraphModelConfig, graph_forward, init_graph
from kernelnn.inputs import ADDITIVE, Adjacency, FeatureGraph, GraphKernelConfig, Segments
from kernelnn.tensor import Activation


def features(n: int) -> list[np.ndarray]:
    return [np.array([float(v), -1.0]) for v in range(n)]


@st.composite
def step_lists(draw):
    """Pairs with repeats and self-loops; some entries out of range or not integers."""
    n = draw(st.integers(1, 6))
    index = st.integers(0, n - 1)
    if draw(st.integers(0, 2)) == 0:
        index = st.one_of(st.integers(-2, n + 1), st.sampled_from([1.5, 1.0, True, False, 2**70]))
    return n, draw(st.lists(st.tuples(index, index), max_size=8))


def expected_steps(n: int, pairs) -> str | list[tuple[int, int]]:
    """The error a list of steps should raise, or its steps ``(u, v)`` once each by (v, u)."""
    flat = [i for pair in pairs for i in pair]
    not_int = [i for i in flat if isinstance(i, bool) or not isinstance(i, int)]
    if not_int:
        return f"neighbor index {not_int[0]!r} is not an integer"
    out = [i for i in flat if not 0 <= i < n]
    if out:
        return f"neighbor index {out[0]} out of range for {n} nodes"
    return sorted(set(pairs), key=lambda uv: (uv[1], uv[0]))


def assert_steps(g: FeatureGraph, steps: list[tuple[int, int]]) -> None:
    """``edge_arrays`` holds exactly ``steps``, in order, and ``neighbors`` groups them by v."""
    src, dst = g.edge_arrays
    assert src.dtype == dst.dtype == np.intp
    assert list(zip(src.tolist(), dst.tolist())) == steps
    assert g.neighbors == tuple(tuple(u for u, w in steps if w == v) for v in range(g.num_nodes))


def build(n: int, pairs) -> FeatureGraph | str:
    try:
        return FeatureGraph(features(n), pairs)
    except ContractError as exc:
        return str(exc)


@given(step_lists())
@example((3, [(2, 0), (0, 0), (2, 0), (1, 2), (2, 2), (2, 2)]))  # repeats and self-loops, once each
@example((2, [(1, 5), (-1, 0)]))  # two bad indices: the first in input order
@example((2, [(1, 2**70)]))  # an index no machine integer holds
@example((3, [(0, 1.5), (9, 0)]))  # a fraction before an out-of-range index
@example((3, [(True, 2)]))  # a bool is not an index
def test_steps_are_stored_once_in_order_or_the_first_bad_index_is_named(steps):
    n, pairs = steps
    want = expected_steps(n, pairs)
    g = build(n, pairs)
    if isinstance(want, str):
        assert g == want
        return
    assert np.array_equal(g.matrix, np.array(features(n))) and not g.matrix.flags.writeable
    assert g.sizes == (n,)
    assert_steps(g, want)


@st.composite
def int_step_lists(draw):
    n = draw(st.integers(1, 6))
    index = st.integers(-2, n + 1) if draw(st.integers(0, 2)) == 0 else st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(index, index), max_size=8))


@given(int_step_lists(), st.sampled_from([np.int32, np.int64, np.intp]))
def test_integer_step_arrays_build_the_graph_their_pairs_do(steps, dtype):
    n, pairs = steps
    got, want = build(n, np.array(pairs, dtype=dtype).reshape(-1, 2)), build(n, pairs)
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.matrix, want.matrix)
    for a, b in zip(got.edge_arrays, want.edge_arrays, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("steps", [np.array([[0, 1]], dtype=np.float64),
                                   np.array([[0, 1]], dtype=bool),
                                   np.array([["0", "1"]])],
                         ids=["float", "bool", "str"])
def test_step_arrays_of_a_non_integer_dtype_are_a_contract_error(steps):
    with pytest.raises(ContractError, match="neighbor index .* is not an integer"):
        FeatureGraph(features(3), steps)


@pytest.mark.parametrize("steps", [[(0, 1, 2)], np.array([0, 1]), [(0, 1), (1,)],
                                   np.zeros((0, 3), dtype=np.intp)],
                         ids=["triple", "flat", "ragged", "empty-triples"])
def test_steps_of_another_shape_are_a_shape_error(steps):
    with pytest.raises(ShapeError, match=r"\(E, 2\)"):
        FeatureGraph(features(3), steps)


@pytest.mark.parametrize("edge,named", [((0, 1.5), "1.5"), ((True, 2), "True"),
                                        ((0, 2**70), str(2**70))],
                         ids=["fraction", "bool", "huge"])
def test_undirected_rejects_an_index_that_is_not_a_machine_integer(edge, named):
    with pytest.raises(ContractError, match=f"neighbor index {named} "):
        FeatureGraph.undirected(features(3), [(0, 1), edge])


@given(step_lists())
@example((2, [(0, 1), (1, 0), (1, 1), (1, 1)]))  # a repeated edge and a repeated self-loop
def test_undirected_is_the_constructor_on_both_directions(edges):
    n, pairs = edges
    both = pairs + [(v, u) for u, v in pairs]
    try:
        got = FeatureGraph.undirected(features(n), pairs)
    except ContractError as exc:
        assert str(exc) == build(n, both)
        return
    want = FeatureGraph(features(n), both)
    assert np.array_equal(got.matrix, want.matrix) and got.sizes == want.sizes
    for a, b in zip(got.edge_arrays, want.edge_arrays, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def valid_steps(n: int):
    index = st.integers(0, n - 1)
    return st.lists(st.tuples(index, index), max_size=6)


@st.composite
def graph_lists(draw):
    """One to four graphs of one to five nodes, each with valid random steps."""
    graphs = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 5))
        rows = draw(st.lists(st.lists(st.floats(-4, 4), min_size=2, max_size=2),
                             min_size=n, max_size=n))
        graphs.append(FeatureGraph(rows, draw(valid_steps(n))))
    return graphs


@given(graph_lists())
def test_split_undoes_union_bit_for_bit(graphs):
    union = FeatureGraph.union(graphs)
    assert union.sizes == tuple(g.num_nodes for g in graphs)
    assert not union.matrix.flags.writeable
    parts = union.split(union.sizes)
    assert len(parts) == len(graphs)
    for got, want in zip(parts, graphs):
        assert got.sizes == want.sizes == (want.num_nodes,)
        assert got.matrix.dtype == want.matrix.dtype
        assert got.matrix.tobytes() == want.matrix.tobytes()
        for a, b in zip(got.edge_arrays, want.edge_arrays, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_union_needs_graphs_of_one_width():
    with pytest.raises(ContractError, match="at least one graph"):
        FeatureGraph.union([])
    with pytest.raises(ShapeError, match="feature width"):
        FeatureGraph.union([FeatureGraph(features(2)), FeatureGraph([np.ones(3)])])


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), valid_steps(n))),
       st.integers(1, 3))
def test_deep_local_kernel_is_zero_exactly_where_no_walk_ends(steps, order):
    """The stacked local kernel scores a node pair only if an order-node walk ends at both."""
    n, pairs = steps
    g = FeatureGraph(np.random.default_rng(n).normal(size=(n, 2)), pairs)
    ends = {walk[-1] for walk in enumerate_walks(g, order)}
    cfg = GraphKernelConfig(n=order, composition=ADDITIVE, depth=2)
    for a in range(n):
        for b in range(n):
            assert (deep_local_kernel(a, b, g, g, cfg) != 0.0) == (a in ends and b in ends)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_chain_steps_from_each_node_to_the_next(n):
    g = FeatureGraph.chain(features(n))
    assert_steps(g, [(v, v + 1) for v in range(n - 1)])


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_is_the_checked_constructor_on_its_steps(n):
    rows = np.random.default_rng(n).normal(size=(n, 3))
    got = FeatureGraph.chain(list(rows))
    want = FeatureGraph(list(rows), [(v, v + 1) for v in range(n - 1)])
    assert got.matrix.tobytes() == want.matrix.tobytes() and got.matrix.shape == want.matrix.shape
    assert got.sizes == want.sizes
    for a, b in zip((got.matrix, *got.edge_arrays), (want.matrix, *want.edge_arrays), strict=True):
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, b.flags.writeable)
        assert a.tobytes() == b.tobytes()


def made_graphs() -> dict[str, FeatureGraph]:
    """One graph from each way of making one, and two unions whose neighbor sums take the
    edge list: one with a member past the dense limit, and one of many members whose
    blocks, padded to its one member at the limit, would hold too many entries per step."""
    rng = np.random.default_rng(5)
    g = FeatureGraph(rng.normal(size=(4, 2)), [(0, 1), (2, 1), (3, 3), (1, 0)])
    relabel = WLRelabelParams(*rng.normal(size=(3, 2, 2)), activation=Activation.TANH)
    union = FeatureGraph.union([g, FeatureGraph.chain(features(3))])
    past_limit = FeatureGraph.union([g, FeatureGraph.chain(features(inputs.DENSE_LIMIT + 1))])
    uneven = FeatureGraph.union([g] * 15 + [FeatureGraph.chain(features(inputs.DENSE_LIMIT))])
    return {"constructor": g, "undirected": FeatureGraph.undirected(features(3), [(0, 1), (1, 2)]),
            "chain": FeatureGraph.chain(features(3)), "union": union,
            "split": union.split(union.sizes)[0], "wl_relabel": wl_relabel(g, relabel),
            "past_limit": past_limit, "uneven": uneven}


EDGE_PATH = ("past_limit", "uneven")



@pytest.mark.parametrize("made", sorted(made_graphs()))
def test_edge_arrays_are_read_only(made):
    g = made_graphs()[made]
    for a in g.edge_arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def assert_same(got, want, fields) -> None:
    for field in fields:
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or (a.dtype == b.dtype and a.shape == b.shape
                                             and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("made", sorted(made_graphs()))
def test_cached_segments_equal_a_fresh_build(made):
    g = made_graphs()[made]
    src, dst = g.edge_arrays
    members = np.repeat(np.arange(len(g.sizes)), g.sizes)
    fresh = (Segments(src, g.num_nodes), Segments(dst, g.num_nodes),
             Segments(members, len(g.sizes)))
    got_adj, want_adj = g.adjacency, Adjacency(FeatureGraph.union(g.split(g.sizes)))
    assert got_adj.num_nodes == want_adj.num_nodes == g.num_nodes
    assert (got_adj.blocks is None) == (made in EDGE_PATH)
    assert_same(got_adj, want_adj, ("blocks",))
    held, fresh = [*g.segments, g.members], list(fresh)
    if made in EDGE_PATH:  # the graph's own edge list, grouped by source and by destination
        assert got_adj.src is g.segments[0] and got_adj.dst is g.segments[1]
        held, fresh = held + [got_adj.src, got_adj.dst], fresh + [want_adj.src, want_adj.dst]
    else:
        assert_same(got_adj, want_adj, ("slot",))
    for got, want in zip(held, fresh, strict=True):
        assert got.count == want.count
        assert_same(got, want, ("ids", "order", "present", "starts"))
    # either layout sums along the steps, and its reverse along the reversed steps
    a = np.zeros((g.num_nodes, g.num_nodes))
    a[dst, src] = 1.0
    eye = np.eye(g.num_nodes)
    assert np.array_equal(g.adjacency.sum(eye), a)
    assert np.array_equal(g.adjacency.sum(eye, reverse=True), a.T)


def count_builds(monkeypatch) -> list[tuple[str, int]]:
    """Each grouping built from now on, as (its class, its row or node count)."""
    built = []
    for cls in (Segments, Adjacency):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            _init(self, *args)
            built.append((_name, getattr(self, "count", getattr(self, "num_nodes", None))))

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("module", MODULES)
def test_one_graph_forwarded_twice_builds_its_groupings_once(monkeypatch, module):
    graphs = made_graphs()
    cfg = GraphModelConfig(n=2, hidden=3, layers=2 if module in ("deep", "wl") else 1,
                           module=module)
    p = init_graph(cfg, 2, np.random.default_rng(6))
    built = count_builds(monkeypatch)
    for made in ("constructor", "uneven"):
        g = graphs[made]
        n, b = g.num_nodes, len(g.sizes)
        built.clear()
        first = graph_forward(g, p, cfg).out.data
        # the gated module's gates sum along the steps by source and by destination; every
        # other module's neighbor sum reads the adjacency, which past the dense limits sums
        # along those same two groupings; each readout reads the member grouping
        steps = [("Segments", n), ("Segments", n)]
        want = ([*steps, ("Segments", b)] if module == "gated"
                else [("Adjacency", n), ("Segments", b)] + (steps if made in EDGE_PATH else []))
        assert sorted(built) == sorted(want)
        assert np.array_equal(graph_forward(g, p, cfg).out.data, first)
        assert sorted(built) == sorted(want)
