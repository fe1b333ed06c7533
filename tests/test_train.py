import math

import numpy as np
import pytest

from kernelnn.errors import ConfigError, DataError, EvaluationError
from kernelnn.graph_nn import GraphModelConfig, graph_forward
from kernelnn.inputs import FeatureGraph
from kernelnn.seq_nn import DECAYS, SeqModelConfig
from kernelnn.tensor import Activation, Tape, Tensor
from kernelnn.train import (
    OptimizerState,
    TrainConfig,
    clip_gradients,
    eval_graph_reg,
    eval_lm,
    init_graph_model,
    init_lm_model,
    lm_loss,
    lm_window_loss,
    regression_loss,
    step,
    train_graph_reg,
    train_lm,
)


def test_optimizer_steps_never_write_into_gradients():
    # the tape hands its read-only gradient arrays to the optimizer uncopied;
    # a write into one would raise
    g = np.array([3.0, -4.0])
    g.flags.writeable = False
    for state in (OptimizerState(lr=0.1, clip=1.0), OptimizerState(kind="adam", lr=0.1, clip=1.0)):
        for _ in range(2):
            step({"w": Tensor([1.0, 2.0])}, {"w": g}, state)
    assert np.array_equal(g, [3.0, -4.0])


@pytest.mark.parametrize("clip", [None, 10.0, 0.5], ids=["no-clip", "clip-idle", "clip"])
def test_adam_adopts_fresh_arrays_and_aliases_nothing(clip):
    """Adam writes its results into new arrays: old parameters, gradients and moments
    keep their bytes, and a returned parameter shares memory with no stored moment."""
    rng = np.random.default_rng(3)
    params = {"w": Tensor(rng.normal(size=(3, 2))), "b": Tensor(rng.normal(size=2)),
              "s": Tensor(0.5)}
    state = OptimizerState(kind="adam", lr=0.1, clip=clip)
    for _ in range(2):
        grads = {name: rng.normal(size=t.shape) for name, t in params.items()}
        held = [*(t.data for t in params.values()), *grads.values(), *state.m.values(),
                *state.v.values()]
        before = [a.tobytes() for a in held]
        new = step(params, grads, state)
        assert [a.tobytes() for a in held] == before
        for name, t in new.items():
            assert not t.data.flags.writeable and t.shape == params[name].shape
            for other in (state.m[name], state.v[name], params[name].data, grads[name]):
                assert not np.shares_memory(t.data, other)
        params = new
    assert state.step == 2


def test_sgd_zero_gradient_keeps_params():
    p = {"w": Tensor([1.0, -2.0])}
    out = step(p, {"w": np.zeros(2)}, OptimizerState(lr=0.5))
    assert np.array_equal(out["w"].data, p["w"].data)


def test_sgd_unit_lr_gradient_equal_param_zeroes():
    p = {"w": Tensor([1.0, -2.0])}
    out = step(p, {"w": p["w"].data.copy()}, OptimizerState(lr=1.0))
    assert np.allclose(out["w"].data, 0.0)


def test_sgd_quadratic_bowl_contracts_geometrically():
    p = {"w": Tensor([3.0, -4.0])}
    state = OptimizerState(lr=0.1)
    for _ in range(100):
        p = step(p, {"w": 2.0 * p["w"].data}, state)
    want = np.linalg.norm([3.0, 4.0]) * 0.8**100
    assert np.linalg.norm(p["w"].data) == pytest.approx(want, rel=1e-10)


def test_sgd_lr_decay_applies_per_epoch():
    state = OptimizerState(lr=1.0, lr_decay=0.5)
    state.end_epoch()
    state.end_epoch()
    assert state.lr == pytest.approx(0.25)


def test_adam_zero_gradient_keeps_params():
    p = {"w": Tensor([1.0, 2.0])}
    out = step(p, {"w": np.zeros(2)}, OptimizerState(kind="adam", lr=0.1))
    assert np.array_equal(out["w"].data, p["w"].data)


def test_adam_first_step_size_is_scale_free():
    for magnitude in (1e-3, 1.0, 1e3):
        p = {"w": Tensor([0.0])}
        out = step(p, {"w": np.array([magnitude])}, OptimizerState(kind="adam", lr=0.01))
        assert out["w"].data[0] == pytest.approx(-0.01, rel=1e-4)


def test_adam_convex_quadratic_decreases_after_warmup():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(4, 4))
    h = h @ h.T + 0.5 * np.eye(4)
    p = {"w": Tensor(rng.normal(size=4))}
    state = OptimizerState(kind="adam", lr=0.01)
    losses = []
    for _ in range(500):
        w = p["w"].data
        losses.append(0.5 * float(w @ h @ w))
        p = step(p, {"w": h @ w}, state)
    assert losses[-1] < 1e-4 * losses[0]
    tail = losses[100:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_clipping_bounds_global_norm():
    grads = {"a": np.full(4, 10.0), "b": np.full(2, -3.0)}
    clipped = clip_gradients(grads, 1.5)
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
    assert norm <= 1.5 + 1e-12
    small = {"a": np.array([0.1])}
    assert clip_gradients(small, 1.5)["a"] is small["a"]


def test_non_finite_gradient_names_parameter():
    p = {"bad_param": Tensor([1.0])}
    with pytest.raises(EvaluationError) as err:
        step(p, {"bad_param": np.array([float("nan")])}, OptimizerState())
    assert "bad_param" in str(err.value)


@pytest.mark.parametrize("clip", [None, 1.0], ids=["no-clip", "clip"])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_nan_gradient_is_an_evaluation_error_and_leaves_the_state(kind, clip):
    state = OptimizerState(kind=kind, clip=clip)
    params = {"a": Tensor([1.0, 2.0]), "b": Tensor([3.0])}
    with pytest.raises(EvaluationError):
        step(params, {"a": np.array([0.5, 0.5]), "b": np.array([float("nan")])}, state)
    assert state.step == 0 and not state.m and not state.v


@pytest.mark.parametrize("clip", [None, 1.0], ids=["no-clip", "clip"])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_a_missing_gradient_steps_as_zeros(kind, clip):
    def plain(named):
        return {name: np.asarray(getattr(t, "data", t)).tolist() for name, t in named.items()}

    params = {"a": Tensor([1.0, -2.0]), "b": Tensor([3.0])}
    missing, zeros = OptimizerState(kind=kind, clip=clip), OptimizerState(kind=kind, clip=clip)
    for g in ([3.0, -4.0], [0.5, 0.25]):  # with clip, the first gradient is clipped
        got = step(params, {"a": np.array(g)}, missing)
        want = step(params, {"a": np.array(g), "b": np.zeros(1)}, zeros)
        assert plain(got) == plain(want)
        params = got
    assert missing.step == zeros.step
    assert (plain(missing.m), plain(missing.v)) == (plain(zeros.m), plain(zeros.v))


def test_unknown_optimizer_rejected():
    with pytest.raises(ConfigError):
        OptimizerState(kind="adagrad")


def test_lm_loss_uniform_logits_is_log_vocab():
    h = Tensor(np.zeros((1, 3)))
    out_w = Tensor(np.zeros((5, 3)))
    out_b = Tensor(np.zeros(5))
    loss = lm_loss(h, [2], out_w, out_b)
    assert loss.item() == pytest.approx(math.log(5))


def test_lm_loss_confident_correct_logits_vanishes():
    h = Tensor([[1.0]])
    out_w = Tensor(np.array([[50.0], [-50.0]]))
    out_b = Tensor(np.zeros(2))
    loss = lm_loss(h, [0], out_w, out_b)
    assert loss.item() < 1e-20


def test_lm_loss_target_out_of_vocab():
    h = Tensor(np.zeros((1, 2)))
    with pytest.raises(DataError):
        lm_loss(h, [7], Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))


def test_regression_loss_zero_at_exact_prediction():
    h = Tensor([[1.0, 2.0]])
    w = Tensor([0.5, 0.25])
    b = Tensor(0.0)
    assert regression_loss(h, [1.0], w, b).item() == 0.0


def test_mean_predictor_rmse_is_std():
    rng = np.random.default_rng(1)
    targets = rng.normal(size=50)
    mean = float(targets.mean())
    rmse = math.sqrt(float(np.mean((targets - mean) ** 2)))
    assert rmse == pytest.approx(float(targets.std()))


def make_repeating_corpus(tokens, repeats):
    return tokens * repeats


def test_lm_memorizes_two_token_corpus_quickly():
    ids = make_repeating_corpus([1, 2], 120)
    cfg = SeqModelConfig(n=1, hidden=8, lam=0.5, variant="mult-norm",
                         activation=Activation.TANH)
    model = init_lm_model(cfg, vocab_size=3, rng=np.random.default_rng(0))
    tc = TrainConfig(epochs=50, unroll=16, seed=0, max_steps=200)
    opt = OptimizerState(kind="adam", lr=0.05)
    model, records = train_lm(model, ids, tc, opt)
    loss, ppl = eval_lm(model, ids)
    assert ppl < 1.5


def test_lm_training_is_deterministic():
    ids = make_repeating_corpus([1, 2, 1, 0], 40)
    cfg = SeqModelConfig(n=1, hidden=4, lam=0.5, dropout=0.2)
    def run():
        model = init_lm_model(cfg, vocab_size=3, rng=np.random.default_rng(3))
        tc = TrainConfig(epochs=2, unroll=8, seed=5)
        opt = OptimizerState(kind="adam", lr=0.01)
        _, records = train_lm(model, ids, tc, opt, valid_ids=ids[:40])
        return [(r.epoch, r.split, r.loss, r.metric) for r in records]

    assert run() == run()


def test_lm_window_tape_nodes_do_not_grow_with_unroll():
    # a window is a gather, a dropout mask and a scan per layer, the logits
    # and the loss, however many tokens it holds
    cfg = SeqModelConfig(n=2, hidden=4, layers=2, variant="mult-norm",
                         decay="gated-input-state", dropout=0.2)
    model = init_lm_model(cfg, vocab_size=5, rng=np.random.default_rng(0))
    ids = [int(i) for i in np.random.default_rng(1).integers(0, 5, size=33)]
    counts = []
    for unroll in (8, 32):
        with Tape() as tape:
            lm_window_loss(model, ids[: unroll + 1], rng=np.random.default_rng(2))
        counts.append(len(tape))
    assert counts[0] == counts[1] <= 12


def synthetic_graph_task(rng, count=50, dim=3):
    w_star = rng.normal(size=dim)
    graphs, targets = [], []
    for _ in range(count):
        size = int(rng.integers(3, 7))
        feats = [rng.normal(size=dim) for _ in range(size)]
        edges = set()
        for v in range(1, size):
            edges.add((int(rng.integers(0, v)), v))
        graphs.append(FeatureGraph.undirected(feats, sorted(edges)))
        targets.append(float(w_star @ np.sum(feats, axis=0)))
    return graphs, targets


def test_graph_regression_beats_ten_percent_of_std():
    rng = np.random.default_rng(7)
    graphs, targets = synthetic_graph_task(rng)
    cfg = GraphModelConfig(n=1, hidden=8, lam=0.5, layers=2, activation=Activation.TANH)
    model = init_graph_model(cfg, in_dim=3, rng=np.random.default_rng(8))
    tc = TrainConfig(epochs=200, batch=10, seed=9, max_steps=500)
    opt = OptimizerState(kind="adam", lr=0.02, lr_decay=0.995)
    model, records = train_graph_reg(model, graphs, targets, tc, opt)
    rmse = eval_graph_reg(model, FeatureGraph.union(graphs), targets)
    assert rmse < 0.1 * float(np.std(targets))


def test_graph_training_deterministic_and_metric_lines():
    rng = np.random.default_rng(11)
    graphs, targets = synthetic_graph_task(rng, count=12)
    cfg = GraphModelConfig(n=1, hidden=4, lam=0.5, layers=1)

    def run():
        model = init_graph_model(cfg, in_dim=3, rng=np.random.default_rng(1))
        tc = TrainConfig(epochs=3, batch=4, seed=2)
        opt = OptimizerState(kind="sgd", lr=0.05, clip=1.0)
        _, records = train_graph_reg(model, graphs, targets, tc, opt)
        return records

    a, b = run(), run()
    assert [(r.loss, r.metric) for r in a] == [(r.loss, r.metric) for r in b]
    line = a[0].line()
    assert line.startswith("epoch=1 split=train loss=") and "rmse=" in line


def test_eval_lm_is_deterministic():
    ids = make_repeating_corpus([1, 2, 0], 30)
    cfg = SeqModelConfig(n=1, hidden=4, lam=0.5, dropout=0.5)
    model = init_lm_model(cfg, vocab_size=3, rng=np.random.default_rng(0))
    assert eval_lm(model, ids) == eval_lm(model, ids)


def test_graph_train_loss_of_a_cut_short_epoch_is_a_mean_over_seen_graphs():
    rng = np.random.default_rng(12)
    graphs, targets = synthetic_graph_task(rng, count=12)
    cfg = GraphModelConfig(n=2, hidden=4, lam=0.5, layers=2, activation=Activation.TANH)
    model = init_graph_model(cfg, in_dim=3, rng=np.random.default_rng(1))
    # the one step trains on the first batch of the seed's shuffle, before its update
    first = np.random.default_rng(2).permutation(len(graphs))[:4]
    want = eval_graph_reg(model, FeatureGraph.union([graphs[i] for i in first]),
                          [targets[i] for i in first]) ** 2
    _, records = train_graph_reg(model, graphs, targets,
                                 TrainConfig(epochs=1, batch=4, seed=2, max_steps=1),
                                 OptimizerState(kind="adam", lr=0.01))
    assert records[0].loss == pytest.approx(want, rel=1e-12)


def test_graph_training_unions_the_training_and_validation_sets_once(monkeypatch):
    graphs, targets = synthetic_graph_task(np.random.default_rng(13), count=10)
    cfg = GraphModelConfig(n=1, hidden=3, lam=0.5, activation=Activation.TANH)
    model = init_graph_model(cfg, in_dim=3, rng=np.random.default_rng(1))
    union, sizes = FeatureGraph.union, []

    def counted(cls, members):
        sizes.append(len(members))
        return union(members)

    monkeypatch.setattr(FeatureGraph, "union", classmethod(counted))
    train_graph_reg(model, graphs, targets, TrainConfig(epochs=3, batch=4, seed=2),
                    OptimizerState(lr=0.01), valid=(graphs[:4], targets[:4]))
    batches = 3 * 3  # 10 graphs in batches of 4, for 3 epochs
    assert len(sizes) == batches + 2
    assert sorted(sizes) == sorted([10, 4] + [4, 4, 2] * 3)


def test_graph_step_tape_nodes_do_not_grow_with_batch_or_graph_size():
    # a step is a fixed set of whole-union ops, however many graphs or nodes it holds
    cfg = GraphModelConfig(n=3, hidden=4, lam=0.5, layers=2, activation=Activation.TANH)
    model = init_graph_model(cfg, in_dim=3, rng=np.random.default_rng(0))
    counts = []
    for size in (3, 30):
        rng = np.random.default_rng(size)
        for batch in (4, 16):
            graphs = []
            for _ in range(batch):
                edges = [(int(rng.integers(0, v)), v) for v in range(1, size)]
                graphs.append(FeatureGraph.undirected(rng.normal(size=(size, 3)), edges))
            with Tape() as tape:
                readout = graph_forward(FeatureGraph.union(graphs), model.wl, cfg).out
                regression_loss(readout, rng.normal(size=batch), model.head_w, model.head_b)
            counts.append(len(tape))
    assert len(set(counts)) == 1 and counts[0] <= 100


def recorded_steps(monkeypatch) -> list:
    """Every (tape, loss) pair a training loop differentiates, in order."""
    steps, backward = [], Tape.backward

    def recording(tape, root):
        steps.append((tape, root))
        return backward(tape, root)

    monkeypatch.setattr(Tape, "backward", recording)
    return steps


def unreachable_ops(tape, loss) -> list[str]:
    """The ops on ``tape`` whose outputs the loss never reads, walking parents back from it."""
    live, dead = {loss}, []
    for node in reversed(tape._nodes):
        if node.out in live:
            live.update(node.parents)
        else:
            dead.append(node.op)
    return dead


@pytest.mark.parametrize("head", ["last-state", "combination", "highway"])
@pytest.mark.parametrize("decay", DECAYS)
def test_every_op_an_lm_step_records_reaches_its_loss(monkeypatch, decay, head):
    cfg = SeqModelConfig(n=2, hidden=4, layers=2, variant="mult-norm", decay=decay, lam=0.5,
                         output="combination" if head == "combination" else "last-state",
                         highway=head == "highway", dropout=0.3)
    model = init_lm_model(cfg, 6, np.random.default_rng(0))
    ids = [int(i) for i in np.random.default_rng(1).integers(0, 6, size=20)]
    steps = recorded_steps(monkeypatch)
    train_lm(model, ids, TrainConfig(unroll=8, max_steps=2), OptimizerState(lr=0.1))
    assert len(steps) == 2
    for tape, loss in steps:
        ops = [node.op for node in tape._nodes]
        assert ops.count("seq_scan") == 2 and ops.count("mul") == 2  # one dropout mask per layer
        assert unreachable_ops(tape, loss) == []


# deep's per-layer readouts are left out: they are trace output, and nothing trains deep
@pytest.mark.parametrize("layers,nodes", [(1, 15), (2, 33), (3, 51)])
def test_every_op_a_graph_step_records_reaches_its_loss(monkeypatch, layers, nodes):
    # the benchmark's graph model (n 3, hidden 16, tanh) at one to three layers: 11 ops per
    # layer, 7 per relabel between two layers, and 4 for the head and the loss
    cfg = GraphModelConfig(n=3, hidden=16, lam=0.5, layers=layers, activation=Activation.TANH)
    graphs, targets = synthetic_graph_task(np.random.default_rng(14), count=6)
    model = init_graph_model(cfg, in_dim=3, rng=np.random.default_rng(1))
    steps = recorded_steps(monkeypatch)
    train_graph_reg(model, graphs, targets, TrainConfig(batch=4, max_steps=1),
                    OptimizerState(lr=0.01))
    ((tape, loss),) = steps
    assert unreachable_ops(tape, loss) == []
    assert len(tape) == nodes
