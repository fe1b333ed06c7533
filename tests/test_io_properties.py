"""Property tests: any text given to the graph-file parser parses or raises DataError."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelnn.errors import DataError
from kernelnn.graph_kernel import FeatureGraph
from kernelnn.io import load_graphs, parse_graph_line

# derandomized, so every run of the suite tries the same inputs
settings.register_profile("kernelnn", derandomize=True, database=None, deadline=None,
                          max_examples=200)
settings.load_profile("kernelnn")

# characters of the graph-line grammar plus a few that break it
GRAMMAR = st.sampled_from(list("0123456789|;,-. e+_#\tnaifINF") + ["\n", "³", "١"])
FIELD_TEXT = st.text(GRAMMAR, max_size=12)


@st.composite
def near_graph_lines(draw):
    """Lines built field by field, each field either well formed or arbitrary."""
    count = draw(st.integers(-2, 5))
    dim = draw(st.integers(1, 3))
    nums = st.floats(allow_nan=True, allow_infinity=True, width=32).map(repr)
    feats = " ; ".join(",".join(draw(st.lists(nums, min_size=dim, max_size=dim)))
                       for _ in range(max(count, 0)))
    edges = " ".join(f"{draw(st.integers(-1, 6))}-{draw(st.integers(-1, 6))}"
                     for _ in range(draw(st.integers(0, 4))))
    fields = [str(count), feats, edges]
    if draw(st.booleans()):
        fields.append(draw(st.one_of(nums, FIELD_TEXT)))
    fields = [draw(st.one_of(st.just(f), FIELD_TEXT)) if draw(st.booleans()) else f
              for f in fields]
    return " | ".join(fields)


def parses_or_data_error(line: str) -> None:
    try:
        g, target = parse_graph_line(line, "mem:1")
    except DataError as exc:
        assert str(exc).startswith("mem:1: ")
        return
    assert isinstance(g, FeatureGraph) and g.num_nodes >= 1
    assert np.isfinite(g.matrix).all()
    assert target is None or np.isfinite(target)


@given(st.one_of(st.text(max_size=60), st.text(GRAMMAR, max_size=60)))
def test_random_text_parses_or_raises_data_error(line):
    parses_or_data_error(line)


@given(near_graph_lines())
def test_near_graph_lines_parse_or_raise_data_error(line):
    parses_or_data_error(line)


@settings(max_examples=100)
@given(st.lists(st.one_of(near_graph_lines(), st.text(GRAMMAR, max_size=30)), max_size=5))
def test_graph_files_load_or_raise_data_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzzed_graphs.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        graphs = load_graphs(path)
    except DataError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert graphs and len({g.dim for g, _ in graphs}) == 1
