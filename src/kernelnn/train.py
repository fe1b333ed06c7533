"""Optimizers, losses, and toy-scale training loops.

Training is functional: a step maps a name->tensor parameter dict plus
gradients to a fresh parameter dict, so models stay immutable and runs are
bit-reproducible under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, EvaluationError, check_fields
from .graph_nn import GraphModelConfig, GraphParams, init_graph, wl_forward
from .inputs import FeatureGraph
from .seq_nn import SeqLayerParams, SeqModelConfig, forward_stack, init_seq_stack
from .tensor import (
    NamedParams,
    Tape,
    Tensor,
    add,
    dot,
    gather_columns,
    linear,
    matvec,
    model_params,
    scale,
    softmax_cross_entropy,
    sub,
)

EVAL_UNROLL = 64  # tokens per evaluation window; the state carries across windows


@dataclass
class OptimizerState:
    kind: str = "sgd"
    lr: float = 1.0
    lr_decay: float = 1.0
    clip: float | None = None
    # Adam's own settings; unset, they are 0.9, 0.999 and 1e-8, and sgd takes none
    beta1: float | None = None
    beta2: float | None = None
    eps: float | None = None
    step: int = field(default=0, init=False)
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.kind!r}")
        adam = self.kind == "adam"
        for name, default in (("beta1", 0.9), ("beta2", 0.999), ("eps", 1e-8)):
            value = getattr(self, name)
            if value is None and adam:
                setattr(self, name, default)
            elif value is not None and not adam:
                raise ConfigError(f"optimizer {name} applies to kind 'adam' only; "
                                  f"kind {self.kind!r} would ignore it")
        for name, ok, rule in (
                ("lr", self.lr > 0, "> 0"), ("lr_decay", self.lr_decay > 0, "> 0"),
                ("eps", not adam or self.eps > 0, "> 0"),
                ("beta1", not adam or 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", not adam or 0 <= self.beta2 < 1, "in [0, 1)"),
                ("clip", self.clip is None or self.clip > 0, "null or > 0")):
            if not ok:
                raise ConfigError(f"optimizer {name} must be {rule}, got {getattr(self, name)}")

    def end_epoch(self) -> None:
        self.lr *= self.lr_decay


@dataclass
class TrainConfig:
    epochs: int = 1
    batch: int = 1
    unroll: int | None = None  # LM windows only; unset, 16
    seed: int = 0
    max_steps: int | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        for name, lo in (("epochs", 1), ("batch", 1), ("unroll", 1), ("seed", 0), ("max_steps", 1)):
            value = getattr(self, name)
            if value is not None and value < lo:
                raise ConfigError(f"train {name} must be >= {lo}, got {value}")


def clip_gradients(grads: dict[str, np.ndarray], threshold: float) -> dict[str, np.ndarray]:
    """Global-norm clipping: rescale so the joint norm is at most the threshold."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= threshold or total == 0.0:
        return grads
    factor = threshold / total
    return {name: g * factor for name, g in grads.items()}


def _updated(name: str, data: np.ndarray) -> Tensor:
    """A parameter after its step, adopting ``data``; a non-finite step is an error."""
    try:
        return Tensor._adopt(np.asarray(data))  # a 0-d result may be a numpy scalar
    except EvaluationError:
        raise EvaluationError(f"non-finite step for parameter {name!r}") from None


def step(
    params: dict[str, Tensor], grads: dict[str, np.ndarray], state: OptimizerState
) -> dict[str, Tensor]:
    """One optimizer step of ``state.kind``: a missing gradient reads as zero, then clipping.

    Adam runs as ``out=`` ufuncs on fresh arrays and writes into no parameter,
    gradient or stored moment.  Its moments and step count change only if
    every parameter's step is finite.
    """
    gs = {name: np.asarray(grads[name] if name in grads else np.zeros(p.shape), dtype=np.float64)
          for name, p in params.items()}
    if state.clip is not None:
        gs = clip_gradients(gs, state.clip)
    if state.kind == "sgd":
        return {name: _updated(name, params[name].data - state.lr * gs[name]) for name in params}
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    out, ms, vs = {}, {}, {}
    for name, p in params.items():
        g = gs[name]
        # every result gets an explicit out array, so 0-d parameters stay arrays
        m = ms[name] = np.multiply(b1, state.m.get(name, 0.0), out=np.empty_like(g))
        tmp = np.multiply(1.0 - b1, g, out=np.empty_like(g))
        m += tmp
        v = vs[name] = np.multiply(b2, state.v.get(name, 0.0), out=np.empty_like(g))
        np.multiply(1.0 - b2, g, out=tmp)
        tmp *= g
        v += tmp
        new = np.divide(m, 1.0 - b1**t, out=np.empty_like(g))
        new *= state.lr
        np.divide(v, 1.0 - b2**t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        new /= tmp
        out[name] = _updated(name, np.subtract(p.data, new, out=new))
    state.step = t
    state.m.update(ms)
    state.v.update(vs)
    return out


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def lm_loss(h: Tensor, targets: Sequence[int], out_w: Tensor, out_b: Tensor) -> Tensor:
    """Mean token-level cross-entropy of softmax(out_w h_t + out_b) against targets.

    ``h`` is the (T, hidden) output matrix of the top layer; the logits are
    one matrix product and the loss one fused node.
    """
    if h.shape[0] != len(targets):
        raise ContractError(f"{h.shape[0]} states vs {len(targets)} targets")
    vocab = out_w.shape[0]
    bad = [y for y in targets if not 0 <= y < vocab]
    if bad:
        raise DataError(f"target id {bad[0]} outside vocabulary of size {vocab}")
    return softmax_cross_entropy(linear(h, out_w, out_b), targets)


def _head(readout: Tensor, head_w: Tensor, head_b: Tensor) -> Tensor:
    """One scalar prediction per row of a (B, hidden) readout: ``readout @ head_w + head_b``."""
    return add(matvec(readout, head_w), head_b)


def regression_loss(readout: Tensor, targets: Sequence[float], head_w: Tensor,
                    head_b: Tensor) -> Tensor:
    """Mean squared error of the linear head over a (B, hidden) readout against B targets."""
    ys = np.asarray(targets, dtype=np.float64).reshape(-1)
    if readout.data.ndim != 2 or ys.shape != readout.shape[:1]:
        raise ContractError(f"readout of shape {readout.shape} vs {ys.size} targets")
    diff = sub(_head(readout, head_w, head_b), Tensor(ys))
    return scale(dot(diff, diff), 1.0 / ys.size)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass
class SeqLMModel(NamedParams):
    """Recurrent language model: embedding columns -> stack -> softmax.

    A window runs as a few whole-window tape nodes: one embedding gather, one
    scan per layer (plus its dropout mask while training), one logits matrix
    product and one softmax cross-entropy, however long the window is.
    """

    LISTS: ClassVar[dict[str, str]] = {"layers": "layer{}"}

    cfg: SeqModelConfig
    embed: Tensor
    out_w: Tensor
    out_b: Tensor
    layers: list[SeqLayerParams]

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[1]


def init_lm_model(cfg: SeqModelConfig, vocab_size: int,
                  rng: np.random.Generator | None) -> SeqLMModel:
    """The model's tensors by the init rule; with ``rng`` None, a skeleton that draws nothing."""
    embed = model_params({"embed": (cfg.hidden, vocab_size)}, rng)["embed"]
    layers = init_seq_stack(cfg, cfg.hidden, rng)
    out = model_params({"out_w": (vocab_size, cfg.hidden), "out_b": (vocab_size,)}, rng,
                       {"out_b": 0.0})
    return SeqLMModel(cfg, embed, layers=layers, **out)


def lm_window_loss(
    model: SeqLMModel,
    window: Sequence[int],
    state: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, list[tuple[np.ndarray, np.ndarray]]]:
    """Loss of predicting ``window[1:]`` from ``window[:-1]``, and the state carried out."""
    x = gather_columns(model.embed, window[:-1])
    trace = forward_stack(x, model.layers, model.cfg, state=state, rng=rng)
    loss = lm_loss(trace.matrix(), window[1:], model.out_w, model.out_b)
    return loss, trace.carry()


@dataclass
class GraphRegModel(NamedParams):
    """Relabeling-iteration graph model with a scalar linear head."""

    cfg: GraphModelConfig
    wl: GraphParams
    head_w: Tensor
    head_b: Tensor

    @property
    def in_dim(self) -> int:
        return self.wl.layer_W[0][0].shape[1]


def init_graph_model(cfg: GraphModelConfig, in_dim: int,
                     rng: np.random.Generator | None) -> GraphRegModel:
    """The model's tensors by the init rule; with ``rng`` None, a skeleton that draws nothing."""
    if cfg.module != "wl":
        raise ConfigError(f"the WL graph regressor trains module 'wl' only, got {cfg.module!r}")
    wl = init_graph(cfg, in_dim, rng)
    head = model_params({"head_w": (cfg.hidden,), "head_b": ()}, rng, {"head_b": 0.0})
    return GraphRegModel(cfg, wl, **head)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


@dataclass
class MetricRecord:
    epoch: int
    split: str
    loss: float
    metric: float
    metric_name: str

    def line(self) -> str:
        return (
            f"epoch={self.epoch} split={self.split} loss={self.loss:.6f} "
            f"{self.metric_name}={self.metric:.6f}"
        )


def _fit(model, tc: TrainConfig, opt: OptimizerState, batches, loss, records):
    """The one training loop, stopped after ``tc.max_steps`` steps.

    Per epoch: one step for each ``(count, batch)`` of ``batches()``, taped on
    ``loss(model, batch, carry)`` with the carry None at the epoch's start; then
    ``records(epoch, model, mean loss per count)`` and the learning-rate decay.
    """
    out: list[MetricRecord] = []
    steps = 0
    for epoch in range(1, tc.epochs + 1):
        carry, total, seen = None, 0.0, 0
        for count, batch in batches():
            params = model.named()
            with Tape() as tape:
                value, carry = loss(model, batch, carry)
            grads = tape.backward(value)  # step zero-fills a parameter the loss does not reach
            grads = {name: grads[t].data for name, t in params.items() if t in grads}
            model = model.with_named(step(params, grads, opt))
            total += value.item() * count
            seen += count
            steps += 1
            if steps == tc.max_steps:
                break
        out.extend(records(epoch, model, total / seen))
        opt.end_epoch()
        if steps == tc.max_steps:
            break
    return model, out


def _windows(ids: Sequence[int], unroll: int) -> Iterator[tuple[int, Sequence[int]]]:
    """Each window of ``unroll`` predictions over a token stream, with its prediction count."""
    for t0 in range(0, len(ids) - 1, unroll):
        window = ids[t0 : t0 + unroll + 1]
        yield len(window) - 1, window


def eval_lm(model: SeqLMModel, ids: Sequence[int]) -> tuple[float, float]:
    """Mean cross-entropy over a token stream and its exponential (the ppl), dropout off."""
    if len(ids) < 2:
        raise DataError("evaluation needs at least two tokens")
    total, state = 0.0, None
    for count, window in _windows(ids, EVAL_UNROLL):
        loss, state = lm_window_loss(model, window, state)
        total += loss.item() * count
    mean = total / (len(ids) - 1)
    return mean, math.exp(mean)


def train_lm(
    model: SeqLMModel,
    train_ids: Sequence[int],
    tc: TrainConfig,
    opt: OptimizerState,
    valid_ids: Sequence[int] | None = None,
) -> tuple[SeqLMModel, list[MetricRecord]]:
    """Truncated-backprop training over a token stream.

    Cell and output states carry across windows as constants, so gradients
    stop at window boundaries.
    """
    if tc.batch != 1:
        raise ConfigError(f"LM training runs one window per step; batch must be 1, got {tc.batch}")
    if len(train_ids) < 2:
        raise DataError("training needs at least two tokens")
    unroll = 16 if tc.unroll is None else tc.unroll
    rng = np.random.default_rng(tc.seed)

    def records(epoch: int, model: SeqLMModel, mean: float) -> Iterator[MetricRecord]:
        yield MetricRecord(epoch, "train", mean, math.exp(mean), "ppl")
        if valid_ids is not None:
            yield MetricRecord(epoch, "valid", *eval_lm(model, valid_ids), "ppl")

    return _fit(model, tc, opt, partial(_windows, train_ids, unroll),
                partial(lm_window_loss, rng=rng), records)


def eval_graph_reg(model: GraphRegModel, graphs: FeatureGraph, targets: Sequence[float]) -> float:
    """Root mean squared error of the head over a graph set, one forward pass over its union."""
    if len(graphs.sizes) != len(targets):
        raise DataError(f"{len(graphs.sizes)} graphs vs {len(targets)} targets")
    pred = _head(wl_forward(graphs, model.wl, model.cfg).out, model.head_w, model.head_b).data
    return math.sqrt(float(np.mean((pred - np.asarray(targets, dtype=np.float64)) ** 2)))


def train_graph_reg(
    model: GraphRegModel,
    graphs: Sequence[FeatureGraph],
    targets: Sequence[float],
    tc: TrainConfig,
    opt: OptimizerState,
    valid: tuple[Sequence[FeatureGraph], Sequence[float]] | None = None,
) -> tuple[GraphRegModel, list[MetricRecord]]:
    """Mini-batch regression training; batches are re-shuffled each epoch.

    A minibatch runs as one disjoint union of its graphs, so a step records
    the same few tape nodes whatever the batch or graph sizes.
    """
    if tc.unroll is not None:
        raise ConfigError("train unroll applies to lm training only; graph regression "
                          "would ignore it")
    if len(graphs) != len(targets) or not graphs:
        raise DataError(f"{len(graphs)} graphs vs {len(targets)} targets")
    train_set = FeatureGraph.union(graphs)
    valid_set = None if valid is None else FeatureGraph.union(valid[0])
    rng = np.random.default_rng(tc.seed)

    def batches() -> list[tuple[int, np.ndarray]]:
        order = rng.permutation(len(graphs))  # drawn as the epoch starts
        return [(len(b), b) for b in np.split(order, range(tc.batch, len(order), tc.batch))]

    def loss(model: GraphRegModel, batch: np.ndarray, _) -> tuple[Tensor, None]:
        readout = wl_forward(FeatureGraph.union([graphs[i] for i in batch]), model.wl, model.cfg)
        ys = [targets[i] for i in batch]
        return regression_loss(readout.out, ys, model.head_w, model.head_b), None

    def records(epoch: int, model: GraphRegModel, mean: float) -> Iterator[MetricRecord]:
        yield MetricRecord(epoch, "train", mean, eval_graph_reg(model, train_set, targets), "rmse")
        if valid is not None:
            vrmse = eval_graph_reg(model, valid_set, valid[1])
            yield MetricRecord(epoch, "valid", vrmse * vrmse, vrmse, "rmse")

    return _fit(model, tc, opt, batches, loss, records)
