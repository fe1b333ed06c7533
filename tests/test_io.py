import numpy as np
import pytest

from kernelnn.errors import DataError
from kernelnn.graph_nn import GraphModelConfig
from kernelnn.inputs import FeatureGraph
from kernelnn.io import (
    ModelBundle,
    bundle_from_graph,
    bundle_from_lm,
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
from kernelnn.train import eval_graph_reg, init_graph_model, init_lm_model, lm_window_loss

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


def test_bundle_version_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.bundle"
    path.write_text('{"format_version": 99, "kind": "seq-lm", "config": {}, "seed": 0, "params": {}}')
    with pytest.raises(DataError) as err:
        load_bundle(path)
    assert "version" in str(err.value)


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
