"""Property tests: any text given to the graph-file parser parses or raises DataError,
what parses survives a format/parse round trip, and a whole file loads as its
lines parse one at a time; any config object builds or raises ConfigError, a
model config survives a bundle round trip, and so does a random model of a random
valid config, whose sequence layers hold the tensors ``layer_shapes`` lists."""

import dataclasses
import importlib
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelnn.errors import ConfigError, DataError
from kernelnn.graph_nn import MODULES, GraphModelConfig
from kernelnn.inputs import ADDITIVE, MULTIPLICATIVE, FeatureGraph
from kernelnn.io import (
    ModelBundle,
    bundle_from_graph,
    bundle_from_lm,
    config_dict,
    config_from_dict,
    graph_from_bundle,
    lm_from_bundle,
    load_bundle,
    load_graphs,
    save_bundle,
)
from kernelnn.seq_nn import DECAYS, OUTPUTS, VARIANTS, SeqModelConfig, layer_shapes
from kernelnn.tensor import Activation
from kernelnn.train import OptimizerState, TrainConfig, init_graph_model, init_lm_model

from helpers import format_graph_line, parse_graph_line

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
    again, again_target = parse_graph_line(format_graph_line(g, target), "mem:2")
    assert again.neighbors == g.neighbors and np.array_equal(again.matrix, g.matrix)
    assert again_target == target


@given(st.one_of(st.text(max_size=60), st.text(GRAMMAR, max_size=60)))
def test_random_text_parses_or_raises_data_error(line):
    parses_or_data_error(line)


@given(near_graph_lines())
@example("2 | 1,0 ; 0,1 | 0-0 0-1")  # a self-loop
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


def assert_loaded_as_undirected(loaded, lines: list[str]) -> None:
    """Each loaded graph equals ``undirected`` of its line's rows and edges, read in plain Python."""
    assert len(loaded) == len(lines)
    for (got, target), line in zip(loaded, lines):
        fields = [f.strip() for f in line.split("|")]
        rows = [[float(v) for v in g.split(",")] for g in fields[1].split(";") if g.strip()]
        edges = [tuple(int(e) for e in token.split("-")) for token in fields[2].split()]
        assert target == (float(fields[3]) if len(fields) == 4 and fields[3] else None)
        want = FeatureGraph.undirected(rows, edges)
        assert np.array_equal(got.matrix, want.matrix) and got.matrix.shape == want.matrix.shape
        for a, b in zip(got.edge_arrays, want.edge_arrays, strict=True):
            assert np.array_equal(a, b)
        assert len(got.features) == len(want.features)
        for a, b in zip(got.features, want.features):
            assert np.array_equal(a, b)
        # and both equal the sorted neighbour sets of every edge taken both ways
        preds = [set() for _ in rows]
        for u, v in edges:
            preds[u].add(v)
            preds[v].add(u)
        assert got.neighbors == want.neighbors == tuple(tuple(sorted(p)) for p in preds)


def first_line_error(path: Path) -> str | None:
    """The error of the first bad line, each line parsed alone, then its width checked."""
    dim = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            g, _ = parse_graph_line(line, f"{path}:{lineno}")
        except DataError as exc:
            return str(exc)
        dim = g.dim if dim is None else dim
        if g.dim != dim:
            return f"{path}:{lineno}: feature dim {g.dim} differs from {dim}"
    return None if dim is not None else f"{path}:1: no graphs found"


@st.composite
def graph_lines(draw, dim: int):
    """Well-formed lines of width ``dim``, repeated, reversed and self-loop edges included."""
    n = draw(st.integers(1, 5))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    feats = " ; ".join(",".join(repr(draw(floats)) for _ in range(dim)) for _ in range(n))
    edges = " ".join(f"{draw(st.integers(0, n - 1))}-{draw(st.integers(0, n - 1))}"
                     for _ in range(draw(st.integers(0, 6))))
    line = f"{n} | {feats} | {edges}"
    return line + f" | {draw(floats)!r}" if draw(st.booleans()) else line


FILLER = st.sampled_from([None, "", "   ", "# a comment | 1 | 0-1"])


@st.composite
def graph_files(draw):
    """1-6 graph lines, mostly well formed and of one width, with blank and comment lines."""
    dim = draw(st.integers(1, 3))
    lines = st.one_of(graph_lines(dim), graph_lines(dim), near_graph_lines())
    return draw(st.lists(st.tuples(FILLER, lines), min_size=1, max_size=6))


@settings(max_examples=150)
@given(graph_files())
@example([(None, "1 | q |"), (None, "x")])  # an earlier line fails a later check
@example([(None, "1 | 1 |"), (None, "2 | 1 ; 2 | 0-2")])  # an edge past its own graph
@example([(None, "1 | 1,2 |"), (None, "1 | 1 |"), (None, "x")])  # a width before a bad line
def test_graph_files_load_as_their_lines_parse_one_at_a_time(tmp_path_factory, items):
    path = tmp_path_factory.getbasetemp() / "fuzzed_file.txt"
    path.write_text("\n".join(x for pair in items for x in pair if x is not None),
                    encoding="utf-8")
    expected = first_line_error(path)
    try:
        graphs = load_graphs(path)
    except DataError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    lines = [raw.strip() for raw in path.read_text(encoding="utf-8").splitlines()]
    assert_loaded_as_undirected(graphs, [line for line in lines
                                         if line and not line.startswith("#")])


def perfbench_graph_file(tmp_path, monkeypatch) -> Path:
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    wl = importlib.import_module("workloads")
    sizes = wl.WORKLOADS["graph"].sizes
    path = tmp_path / "graph_valid.txt"
    path.write_text(wl.regression_graph_text(np.random.default_rng(7), sizes.graph_eval,
                                             sizes.graph_max_nodes))
    return path


@pytest.mark.parametrize("source", ["fixture", "perfbench"])
def test_graph_files_load_as_undirected_graphs_of_their_rows_and_edges(tmp_path, monkeypatch,
                                                                       source):
    if source == "fixture":
        path = Path(__file__).parent / "fixtures" / "graphs.txt"
    else:
        path = perfbench_graph_file(tmp_path, monkeypatch)
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    assert lines
    assert_loaded_as_undirected(load_graphs(path), lines)


# ---------------------------------------------------------------------------
# config objects
# ---------------------------------------------------------------------------

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 10**20),
                 st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
                 st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.none(), max_size=2))
NAMES = {"variant": VARIANTS, "decay": DECAYS, "output": OUTPUTS, "kind": ("sgd", "adam"),
         "composition": (MULTIPLICATIVE, ADDITIVE), "module": MODULES,
         "activation": [a.value for a in Activation]}
BY_TYPE = {int: st.integers(1, 4), float: st.floats(-0.1, 1.1), bool: st.booleans(),
           type(None): st.none()}


def plausible(name, hint):
    if name in NAMES:
        return st.sampled_from(NAMES[name])
    return st.one_of([BY_TYPE[k] for k in typing.get_args(hint) or (hint,)])


@st.composite
def config_docs(draw, cls):
    """JSON objects for ``cls``: each field present or not, well formed or junk, plus junk keys.

    Required fields are mostly present, so that some objects build.
    """
    hints = typing.get_type_hints(cls)
    doc = {}
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if f.init and (draw(st.integers(0, 9)) < 9 if required else draw(st.booleans())):
            junk = draw(st.integers(0, 7)) == 7
            doc[f.name] = draw(JUNK if junk else plausible(f.name, hints[f.name]))
    if draw(st.integers(0, 4)) == 4:
        doc[draw(st.text(max_size=8))] = draw(JUNK)
    return doc


CONFIGS = [(SeqModelConfig, "model"), (GraphModelConfig, "model"), (TrainConfig, "train"),
           (OptimizerState, "optimizer")]


@pytest.mark.parametrize("cls,section", CONFIGS, ids=[c.__name__ for c, _ in CONFIGS])
@given(data=st.data())
def test_config_objects_build_or_raise_config_error(tmp_path_factory, cls, section, data):
    doc = data.draw(config_docs(cls))
    try:
        cfg = config_from_dict(cls, doc, section)
    except ConfigError as exc:
        assert str(exc)
        return
    assert isinstance(cfg, cls)
    if section == "model":
        # a model config written to a bundle reads back equal
        path = tmp_path_factory.getbasetemp() / "fuzzed.bundle"
        save_bundle(ModelBundle("any", config_dict(cfg, width=3), {}, 0), path)
        written = load_bundle(path).config
        assert written.pop("width") == 3
        assert config_from_dict(cls, written, section) == cfg


# ---------------------------------------------------------------------------
# random models
# ---------------------------------------------------------------------------

RATES = st.floats(0.0, 0.99)
ACTIVATIONS = st.sampled_from(list(Activation))


@st.composite
def seq_configs(draw):
    highway = draw(st.booleans())
    output = "last-state" if highway else draw(st.sampled_from(OUTPUTS))
    decay = draw(st.sampled_from(DECAYS))
    # a decay other than constant starts a bias at logit(lam), so lam = 0 is refused there
    lam = draw(RATES if decay == "constant" else st.floats(0.0, 0.99, exclude_min=True))
    return SeqModelConfig(n=draw(st.integers(1, 3)), hidden=draw(st.integers(1, 4)),
                          layers=draw(st.integers(1, 2)), variant=draw(st.sampled_from(VARIANTS)),
                          decay=decay, lam=lam,
                          activation=draw(ACTIVATIONS), output=output, highway=highway,
                          dropout=draw(RATES))


@st.composite
def graph_configs(draw):
    n = draw(st.integers(1, 3))
    # at n = 1 no state reads lam, and the config refuses all but the default
    lam = draw(st.floats(0.0, 2.0)) if n > 1 else GraphModelConfig.lam
    return GraphModelConfig(n=n, hidden=draw(st.integers(1, 4)), lam=lam,
                            activation=draw(ACTIVATIONS), layers=draw(st.integers(1, 2)))


def saved_bytes(bundle, path: Path) -> bytes:
    save_bundle(bundle, path)
    return path.read_bytes()


@settings(max_examples=60)
@given(seq_configs(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_random_lm_models_round_trip_through_bundles(tmp_path_factory, cfg, vocab, seed):
    path = tmp_path_factory.getbasetemp() / "random_lm.bundle"
    model = init_lm_model(cfg, vocab, np.random.default_rng(seed))
    for layer in model.layers:
        assert {k: t.shape for k, t in layer.named().items()} == layer_shapes(cfg, cfg.hidden)
    first = saved_bytes(bundle_from_lm(model, seed), path)
    again = lm_from_bundle(load_bundle(path))
    assert saved_bytes(bundle_from_lm(again, seed), path) == first


@settings(max_examples=60)
@given(graph_configs(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_random_graph_models_round_trip_through_bundles(tmp_path_factory, cfg, in_dim, seed):
    path = tmp_path_factory.getbasetemp() / "random_graph.bundle"
    first = saved_bytes(bundle_from_graph(init_graph_model(cfg, in_dim,
                                                           np.random.default_rng(seed)), seed),
                        path)
    again = graph_from_bundle(load_bundle(path))
    assert saved_bytes(bundle_from_graph(again, seed), path) == first
