import base64
import contextlib
import importlib
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kernelnn import graph_nn, seq_nn, tensor, train
from kernelnn.cli import EXIT_OK, main
from kernelnn.errors import DataError, EvaluationError
from kernelnn.graph_nn import GraphModelConfig
from kernelnn.inputs import FeatureGraph
from kernelnn.io import (
    BUNDLE_VERSION,
    ModelBundle,
    bundle_from_graph,
    bundle_from_lm,
    config_from_dict,
    flatten_corpus,
    graph_from_bundle,
    lm_from_bundle,
    load_bundle,
    load_corpus,
    load_graphs,
    load_vocab,
    save_bundle,
)
from kernelnn.seq_nn import SeqModelConfig
from kernelnn.tensor import Activation
from kernelnn.train import (
    MetricRecord,
    eval_graph_reg,
    eval_lm,
    init_graph_model,
    init_lm_model,
    lm_window_loss,
)

from helpers import format_graph_line, parse_graph_line, save_graphs, save_vocab


def test_vocab_round_trip(tmp_path):
    path = tmp_path / "vocab.txt"
    save_vocab(["<unk>", "a", "b"], path)
    mapping, tokens = load_vocab(path)
    assert tokens == ["<unk>", "a", "b"]
    assert mapping == {"<unk>": 0, "a": 1, "b": 2}


def test_vocab_duplicate_names_line(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<unk>\na\na\n")
    with pytest.raises(DataError) as err:
        load_vocab(path)
    assert ":3:" in str(err.value)


def test_corpus_maps_unknowns_to_zero(tmp_path):
    vocab_path = tmp_path / "vocab.txt"
    save_vocab(["<unk>", "a", "b"], vocab_path)
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("a b zebra\n\nb a\n")
    mapping, _ = load_vocab(vocab_path)
    sents = load_corpus(corpus_path, mapping)
    assert sents == [[1, 2, 0], [2, 1]]


def test_graph_line_round_trip():
    g = FeatureGraph.undirected(
        [np.array([1.5, -0.25]), np.array([0.0, 2.0]), np.array([3.0, 4.0])],
        [(0, 1), (1, 2)],
    )
    line = format_graph_line(g, target=0.75)
    parsed, target = parse_graph_line(line, "mem:1")
    assert target == 0.75
    assert parsed.neighbors == g.neighbors
    for a, b in zip(parsed.features, g.features):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("x | 1,2 |", "bad node count"),
        ("0 | |", "at least one node"),
        ("2 | 1,2 |", "feature groups"),
        ("1 | 1,q |", "malformed feature"),
        ("2 | 1,2 ; 3 |", "dimensions differ"),
        ("2 | 1,2 ; 3,4 | 0-5", "out of range"),
        ("2 | 1,2 ; 3,4 | 01", "malformed edge"),
        ("1 | 1,2 | | zzz", "malformed target"),
        ("2 | 1,nan ; 3,4 |", "non-finite feature"),
        ("1 | 1,-inf |", "non-finite feature"),
        ("1 | 1,2 | | inf", "non-finite target"),
    ],
)
def test_graph_line_errors(line, fragment):
    with pytest.raises(DataError) as err:
        parse_graph_line(line, "mem:7")
    assert "mem:7" in str(err.value)
    assert fragment in str(err.value)


def test_load_graphs_reports_line_numbers(tmp_path):
    path = tmp_path / "graphs.txt"
    path.write_text("# comment\n1 | 1.0,0.0 |\nbroken\n")
    with pytest.raises(DataError) as err:
        load_graphs(path)
    assert f"{path}:3" in str(err.value)


def test_save_graphs_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    items = []
    for _ in range(3):
        feats = [rng.normal(size=2) for _ in range(3)]
        items.append((FeatureGraph.undirected(feats, [(0, 1), (1, 2)]), float(rng.normal())))
    path = tmp_path / "graphs.txt"
    save_graphs(items, path)
    loaded = load_graphs(path)
    for (g1, t1), (g2, t2) in zip(items, loaded):
        assert t1 == t2
        for a, b in zip(g1.features, g2.features):
            assert np.array_equal(a, b)


def test_bundle_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    bundle = ModelBundle(
        kind="seq-lm",
        config={"n": 1, "hidden": 2, "vocab_size": 3},
        params={"w": rng.normal(size=(2, 3)), "b": rng.normal(size=2), "s": np.array(1.5)},
        seed=7,
    )
    p1 = tmp_path / "a.bundle"
    p2 = tmp_path / "b.bundle"
    save_bundle(bundle, p1)
    save_bundle(load_bundle(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def traced_peak(call) -> int:
    """The most memory ``call`` held at once beyond what was live before it, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_bundle_save_and_load_make_no_whole_bundle_copies(tmp_path, monkeypatch):
    """On a bundle of the benchmark's LM shape (0.78 MB), save holds less than the bundle's
    size at once, one payload's base64 at a time, and load at most 2.25 times it: the file
    text beside its parsed payloads, then the payloads beside the decoded arrays."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    wl = importlib.import_module("workloads")
    cfg = config_from_dict(SeqModelConfig, wl.lm_config(0)["model"], "model")
    bundle = bundle_from_lm(init_lm_model(cfg, wl.LM_VOCAB, np.random.default_rng(0)), seed=0)
    path = tmp_path / "lm.bundle"
    save_bundle(bundle, path)
    size = path.stat().st_size
    assert size > 700_000
    assert traced_peak(lambda: save_bundle(bundle, path)) <= 1.0 * size
    assert traced_peak(lambda: load_bundle(path)) <= 2.25 * size


def test_bundle_version_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.bundle"
    path.write_text('{"format_version": 99, "kind": "seq-lm", "config": {}, "seed": 0, "params": {}}')
    with pytest.raises(DataError) as err:
        load_bundle(path)
    assert "version" in str(err.value)


@pytest.mark.parametrize("seed", ["1e400", "1.5", "true", '"7"', "-3"])
def test_bundle_seed_must_be_a_json_integer_at_least_zero(tmp_path, seed):
    path = tmp_path / "bad.bundle"
    path.write_text(f'{{"format_version": {BUNDLE_VERSION}, "kind": "seq-lm", "config": {{}}, '
                    f'"seed": {seed}, "params": {{}}}}')
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: bundle seed .* is not an integer"):
        load_bundle(path)


def test_lm_model_bundle_round_trip(tmp_path):
    cfg = SeqModelConfig(n=2, hidden=3, lam=0.5, decay="gated-input-state",
                         output="combination", activation=Activation.TANH)
    model = init_lm_model(cfg, vocab_size=5, rng=np.random.default_rng(3))
    path = tmp_path / "lm.bundle"
    save_bundle(bundle_from_lm(model, seed=3), path)
    restored = lm_from_bundle(load_bundle(path))
    assert restored.cfg == model.cfg
    for name, t in model.named().items():
        assert np.array_equal(t.data, restored.named()[name].data), name
    ids = [1, 2, 3, 4]
    (loss_a, carry_a), (loss_b, carry_b) = lm_window_loss(model, ids), lm_window_loss(restored, ids)
    assert loss_a.item() == loss_b.item()
    assert all(np.array_equal(a, b) for pa, pb in zip(carry_a, carry_b) for a, b in zip(pa, pb))


def test_graph_model_bundle_round_trip(tmp_path):
    cfg = GraphModelConfig(n=2, hidden=3, lam=0.5, layers=2, activation=Activation.TANH)
    model = init_graph_model(cfg, in_dim=2, rng=np.random.default_rng(4))
    path = tmp_path / "graph.bundle"
    save_bundle(bundle_from_graph(model, seed=4), path)
    restored = graph_from_bundle(load_bundle(path))
    assert restored.cfg == model.cfg
    for name, t in model.named().items():
        assert np.array_equal(t.data, restored.named()[name].data), name
    g = FeatureGraph.undirected([np.ones(2), -np.ones(2), np.array([0.5, 2.0])], [(0, 1), (1, 2)])
    assert eval_graph_reg(model, g, [0.0]) == eval_graph_reg(restored, g, [0.0])


def _refuse_draws(monkeypatch) -> None:
    """From here on ``init_params`` raises wherever a module looks it up: nothing may draw."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("drew a random init")

    for module in (tensor, seq_nn, graph_nn, train):
        if hasattr(module, "init_params"):
            monkeypatch.setattr(module, "init_params", refuse)


def _eval_lines(bundle_path, data, vocab=None) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval", "--bundle", str(bundle_path), "--data", str(data),
                     *(["--vocab", str(vocab)] if vocab else [])])
    assert code == EXIT_OK
    return out.getvalue().splitlines()


def test_lm_bundle_decode_draws_nothing_and_keeps_every_bit(tmp_path, monkeypatch):
    cfg = SeqModelConfig(n=2, hidden=4, layers=2, variant="mult-norm", decay="gated-input-state",
                         output="combination")
    model = init_lm_model(cfg, vocab_size=4, rng=np.random.default_rng(8))
    path, again = tmp_path / "lm.bundle", tmp_path / "again.bundle"
    save_bundle(bundle_from_lm(model, seed=8), path)
    vocab_path, data = tmp_path / "vocab.txt", tmp_path / "data.txt"
    save_vocab(["<unk>", "a", "b", "c"], vocab_path)
    data.write_text("a b c a\nc b a b c\n")
    loss, ppl = eval_lm(model, flatten_corpus(load_corpus(data, load_vocab(vocab_path)[0])))
    _refuse_draws(monkeypatch)
    with pytest.raises(AssertionError, match="drew"):
        init_lm_model(cfg, vocab_size=4, rng=np.random.default_rng(8))
    restored = lm_from_bundle(load_bundle(path))
    for name, t in model.named().items():
        assert t.data.tobytes() == restored.named()[name].data.tobytes(), name
    save_bundle(bundle_from_lm(restored, seed=8), again)
    assert again.read_bytes() == path.read_bytes()
    assert _eval_lines(path, data, vocab_path) == [MetricRecord(0, "eval", loss, ppl, "ppl").line()]


def test_graph_bundle_decode_draws_nothing_and_keeps_every_bit(tmp_path, monkeypatch):
    cfg = GraphModelConfig(n=2, hidden=3, layers=2)
    model = init_graph_model(cfg, in_dim=2, rng=np.random.default_rng(8))
    path, again = tmp_path / "graph.bundle", tmp_path / "again.bundle"
    save_bundle(bundle_from_graph(model, seed=8), path)
    rng, data = np.random.default_rng(9), tmp_path / "graphs.txt"
    save_graphs([(FeatureGraph.undirected(rng.normal(size=(3, 2)), [(0, 1), (1, 2)]), 0.5),
                 (FeatureGraph.undirected(rng.normal(size=(2, 2)), [(0, 1)]), -1.0)], data)
    graphs, targets = zip(*load_graphs(data))
    rmse = eval_graph_reg(model, FeatureGraph.union(graphs), list(targets))
    _refuse_draws(monkeypatch)
    with pytest.raises(AssertionError, match="drew"):
        init_graph_model(cfg, in_dim=2, rng=np.random.default_rng(8))
    restored = graph_from_bundle(load_bundle(path))
    for name, t in model.named().items():
        assert t.data.tobytes() == restored.named()[name].data.tobytes(), name
    save_bundle(bundle_from_graph(restored, seed=8), again)
    assert again.read_bytes() == path.read_bytes()
    assert _eval_lines(path, data) == [MetricRecord(0, "eval", rmse * rmse, rmse, "rmse").line()]


@pytest.mark.parametrize("kind", ["lm", "graph"])
def test_bundle_decode_scans_each_array_once(tmp_path, monkeypatch, kind):
    if kind == "lm":
        model = init_lm_model(SeqModelConfig(n=2, hidden=3), vocab_size=4,
                              rng=np.random.default_rng(1))
        to_bundle, from_bundle = bundle_from_lm, lm_from_bundle
    else:
        model = init_graph_model(GraphModelConfig(n=2, hidden=3, layers=2), in_dim=2,
                                 rng=np.random.default_rng(1))
        to_bundle, from_bundle = bundle_from_graph, graph_from_bundle
    path = tmp_path / "model.bundle"
    save_bundle(to_bundle(model, seed=1), path)
    scans = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: scans.append(a.shape) or isfinite(a))
    restored = from_bundle(load_bundle(path))
    assert sorted(scans) == sorted(t.shape for t in model.named().values())
    for name, t in restored.named().items():
        assert not t.data.flags.writeable, name
        assert t.data.tobytes() == model.named()[name].data.tobytes(), name
    # a non-finite entry is still named with its file and its parameter
    monkeypatch.undo()
    name = sorted(model.named())[0]
    value = load_bundle(path).params[name].copy()
    value.flat[0] = np.nan
    doc = json.loads(path.read_text())
    doc["params"][name]["data"] = base64.b64encode(value.tobytes()).decode("ascii")
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(f"{path}: param {name!r}: non-finite value")):
        load_bundle(path)
    # a bundle built in memory was never decoded, so its arrays are scanned as they are adopted
    bundle = to_bundle(model, seed=1)
    bundle.params[name] = value
    with pytest.raises(EvaluationError, match="non-finite"):
        from_bundle(bundle)


def _layer_names(layer, names):
    return [f"layer{layer}.{name}" for name in names]


NAMED_MODELS = {
    "lm-gated-combination": (
        lambda: init_lm_model(SeqModelConfig(n=2, hidden=3, layers=2, decay="gated-input-state",
                                             output="combination"),
                              vocab_size=5, rng=np.random.default_rng(0)),
        ["embed", "out_w", "out_b",
         *_layer_names(0, ["W1", "W2", "gate_u", "gate_b", "comb"]),
         *_layer_names(1, ["W1", "W2", "gate_u", "gate_b", "comb"])],
    ),
    "lm-learned-highway": (
        lambda: init_lm_model(SeqModelConfig(n=1, hidden=3, layers=2, decay="learned",
                                             highway=True),
                              vocab_size=5, rng=np.random.default_rng(0)),
        ["embed", "out_w", "out_b",
         *_layer_names(0, ["W1", "decay_logit", "hw_u", "hw_b"]),
         *_layer_names(1, ["W1", "decay_logit", "hw_u", "hw_b"])],
    ),
    "graph-reg": (
        lambda: init_graph_model(GraphModelConfig(n=2, hidden=3, layers=2), in_dim=2,
                                 rng=np.random.default_rng(0)),
        ["wl.l1.W1", "wl.l1.W2", "wl.l2.W1", "wl.l2.W2", "wl.u1", "wl.u2", "wl.v",
         "head_w", "head_b"],
    ),
}


@pytest.mark.parametrize("case", sorted(NAMED_MODELS))
def test_parameter_names_and_order_are_fixed(tmp_path, case):
    # gradient clipping sums the squared gradients in this order, and bundles
    # store the tensors under these names
    make, names = NAMED_MODELS[case]
    model = make()
    assert list(model.named()) == names
    path = tmp_path / "model.bundle"
    to_bundle = bundle_from_lm if case.startswith("lm") else bundle_from_graph
    save_bundle(to_bundle(model, seed=0), path)
    assert sorted(load_bundle(path).params) == sorted(names)


def test_kind_mismatch_raises():
    bundle = ModelBundle(kind="graph-reg", config={}, params={}, seed=0)
    with pytest.raises(DataError):
        lm_from_bundle(bundle)
