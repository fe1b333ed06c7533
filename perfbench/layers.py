"""Which callables are wrapped, and how spans become per-layer metrics.

The layers are kernelnn's modules.  Each target is the name a caller looks
up at call time (``kernelnn.cli.string_kernel``, ``kernelnn.train.step``,
``kernelnn.tensor.Tape.backward``, the ``kernelnn.io`` loaders reached
through ``kio``...), so wrapping the attribute captures exactly the calls
made across that layer boundary.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Collection

from spans import Span, Target, ancestor_names, covered, self_times

ROOT = "call"  # one root span per benchmark call, tagged with its kind


def _task(args, *_, **__):
    return getattr(args, "task", None)


def _suite(name, *_, **__):
    return name


def _tape_nodes(tape, *_, **__):
    return len(tape)


def _io(module: str, fn: str, span: str) -> Target:
    return Target(module, fn, span, tag=lambda *_, **__: fn)


TARGETS = (
    Target("kernelnn.cli", "cmd_kernel", "cli.cmd_kernel", tag=_task),
    Target("kernelnn.cli", "cmd_train", "cli.cmd_train", tag=_task),
    Target("kernelnn.cli", "cmd_eval", "cli.cmd_eval"),
    Target("kernelnn.cli", "cmd_verify", "cli.cmd_verify"),
    Target("kernelnn.cli", "string_kernel", "seq_kernel.string_kernel"),
    Target("kernelnn.cli", "random_walk_kernel", "graph_kernel.walk"),
    Target("kernelnn.cli", "wl_kernel", "graph_kernel.wl"),
    Target("kernelnn.cli", "gated_random_walk_kernel", "graph_kernel.gated"),
    Target("kernelnn.cli", "run_suite", "verify.run_suite", tag=_suite),
    Target("kernelnn.cli", "train_lm", "train.train_lm"),
    Target("kernelnn.cli", "eval_lm", "train.eval_lm"),
    Target("kernelnn.cli", "train_graph_reg", "train.train_graph_reg"),
    Target("kernelnn.cli", "eval_graph_reg", "train.eval_graph_reg"),
    Target("kernelnn.train", "forward_stack", "seq_nn.forward_stack"),
    Target("kernelnn.train", "wl_forward", "graph_nn.wl_forward"),
    Target("kernelnn.train", "lm_loss", "train.lm_loss"),
    Target("kernelnn.train", "regression_loss", "train.regression_loss"),
    Target("kernelnn.train", "step", "train.step"),
    Target("kernelnn.train", "eval_graph_reg", "train.epoch_eval"),
    Target("kernelnn.tensor", "Tape.backward", "tensor.backward", count=_tape_nodes),
    Target("kernelnn.verify", "finite_diff_grad", "tensor.finite_diff"),
    *(_io("kernelnn.io", fn, "io.load") for fn in ("load_vocab", "load_corpus", "load_graphs")),
    *(_io("kernelnn.io", fn, "io.bundle") for fn in (
        "load_bundle", "save_bundle", "bundle_from_lm", "lm_from_bundle",
        "bundle_from_graph", "graph_from_bundle")),
)

TRAIN_LOOPS = ("train.train_lm", "train.train_graph_reg")
LOSSES = ("train.lm_loss", "train.regression_loss")


class Analysis:
    """Index over one run's spans: ancestry, self time, and each call's kind.

    ``train_kind`` is the kind of the training calls the tape and step
    metrics describe; ``own`` the kinds of the calls the workload is about.
    """

    def __init__(self, spans: list[Span], train_kind: str, own: Collection[str] = ()) -> None:
        self.spans = spans
        self.train_kind = train_kind
        self.own = tuple(own)
        self.anc = ancestor_names(spans)
        self.self_s = self_times(spans)
        self.kind = {s.run: s.tag for s in spans if s.name == ROOT}

    def select(self, name: str, under=(), not_under=(), kinds: Collection[str] | None = None,
               tag: str | None = None) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s.name == name
            and all(u in self.anc[i] for u in under)
            and not any(u in self.anc[i] for u in not_under)
            and (kinds is None or self.kind.get(s.run) in kinds)
            and (tag is None or s.tag == tag)
        ]

    def durations_ms(self, idx: list[int]) -> list[float]:
        return [1000.0 * self.spans[i].duration for i in idx]

    def descendants(self, root: int, name: str) -> list[int]:
        lo, hi = self.spans[root].start, self.spans[root].end
        run = self.spans[root].run
        return [i for i in self.select(name)
                if self.spans[i].run == run and lo <= self.spans[i].start <= hi]

    def train_loops(self) -> list[int]:
        return [i for name in TRAIN_LOOPS for i in self.select(name, kinds=(self.train_kind,))]

    def step_ms(self) -> list[float]:
        """Wall time from one optimizer update to the next, epoch re-evaluation excluded."""
        out = []
        for loop in self.train_loops():
            evals = [(self.spans[i].start, self.spans[i].end)
                     for i in self.descendants(loop, "train.epoch_eval")]
            prev = self.spans[loop].start
            for i in sorted(self.descendants(loop, "train.step"), key=lambda k: self.spans[k].start):
                end = self.spans[i].end
                out.append(1000.0 * ((end - prev) - covered(evals, prev, end)))
                prev = end
        return out


def _mean(values: list[float]) -> tuple[float | None, int]:
    return (statistics.fmean(values) if values else None), len(values)


def _pct(values: list[float], q: int) -> tuple[float | None, int]:
    if not values:
        return None, 0
    if len(values) == 1:
        return values[0], 1
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1], len(values)


def _ratio(num: float, den: int, samples: int) -> tuple[float | None, int]:
    return (num / den if den else None), samples


def _tape(a: Analysis):
    return a.select("tensor.backward", under=("cli.cmd_train",), kinds=(a.train_kind,))


def _steps(a: Analysis):
    return a.select("train.step", kinds=(a.train_kind,))


def _train_loss_ms(a: Analysis):
    steps = len(_steps(a))
    total = sum(a.durations_ms([i for name in LOSSES
                                for i in a.select(name, not_under=("train.epoch_eval",),
                                                  kinds=(a.train_kind,))]))
    return _ratio(total, steps, steps)


def _forward_calls_per_graph(a: Analysis):
    calls = a.select("graph_nn.wl_forward", under=("train.train_graph_reg",))
    graphs = a.select("train.regression_loss", under=("train.train_graph_reg",))
    return _ratio(float(len(calls)), len(graphs), len(graphs))


def _io_per_call(a: Analysis, span: str, callers: tuple[str, ...], kinds=None):
    loads = a.select(span, kinds=kinds)
    calls = sum(len(a.select(c, kinds=kinds)) for c in callers)
    return _ratio(sum(a.durations_ms(loads)), calls, len(loads))


def _cli_self_per_pair(a: Analysis):
    cmds = a.select("cli.cmd_kernel", tag="seq")
    pairs = a.select("seq_kernel.string_kernel")
    return _ratio(1000.0 * sum(a.self_s[i] for i in cmds), len(pairs), len(pairs))


@dataclass(frozen=True)
class LayerMetric:
    name: str
    needs: tuple[str, ...]
    compute: Callable[[Analysis], tuple[float | None, int]]


_CMDS = ("cli.cmd_kernel", "cli.cmd_train", "cli.cmd_eval", "cli.cmd_verify")

LAYER_METRICS = (
    LayerMetric("tensor.tape_nodes_per_step", ("tensor.backward", "cli.cmd_train"),
                lambda a: _mean([float(a.spans[i].count) for i in _tape(a)])),
    LayerMetric("tensor.backward_ms_per_step", ("tensor.backward", "cli.cmd_train"),
                lambda a: _mean(a.durations_ms(_tape(a)))),
    LayerMetric("tensor.finite_diff_ms", ("tensor.finite_diff",),
                lambda a: _mean(a.durations_ms(a.select("tensor.finite_diff")))),
    LayerMetric("seq_nn.train_forward_ms_per_window",
                ("seq_nn.forward_stack", "train.train_lm"),
                lambda a: _mean(a.durations_ms(
                    a.select("seq_nn.forward_stack", under=("train.train_lm",))))),
    LayerMetric("seq_nn.eval_forward_ms_per_window",
                ("seq_nn.forward_stack", "train.eval_lm"),
                lambda a: _mean(a.durations_ms(
                    a.select("seq_nn.forward_stack", under=("train.eval_lm",))))),
    LayerMetric("graph_nn.train_forward_ms_per_graph",
                ("graph_nn.wl_forward", "train.train_graph_reg", "train.epoch_eval"),
                lambda a: _mean(a.durations_ms(a.select(
                    "graph_nn.wl_forward", under=("train.train_graph_reg",),
                    not_under=("train.epoch_eval",))))),
    LayerMetric("graph_nn.eval_forward_ms_per_graph",
                ("graph_nn.wl_forward", "train.eval_graph_reg"),
                lambda a: _mean(a.durations_ms(
                    a.select("graph_nn.wl_forward", under=("train.eval_graph_reg",))))),
    LayerMetric("graph_nn.forward_calls_per_trained_graph",
                ("graph_nn.wl_forward", "train.regression_loss", "train.train_graph_reg"),
                _forward_calls_per_graph),
    LayerMetric("train.step_ms_p50", ("train.step", *TRAIN_LOOPS, "train.epoch_eval"),
                lambda a: _pct(a.step_ms(), 50)),
    LayerMetric("train.step_ms_p90", ("train.step", *TRAIN_LOOPS, "train.epoch_eval"),
                lambda a: _pct(a.step_ms(), 90)),
    LayerMetric("train.loss_ms_per_step", ("train.step", *LOSSES),
                _train_loss_ms),
    LayerMetric("train.optimizer_ms_per_step", ("train.step",),
                lambda a: _mean(a.durations_ms(_steps(a)))),
    LayerMetric("train.epoch_eval_ms", ("train.epoch_eval",),
                lambda a: _mean(a.durations_ms(a.select("train.epoch_eval")))),
    LayerMetric("io.load_ms", ("io.load", *_CMDS),
                lambda a: _io_per_call(a, "io.load", _CMDS, kinds=a.own)),
    LayerMetric("io.bundle_ms", ("io.bundle", "cli.cmd_train", "cli.cmd_eval"),
                lambda a: _io_per_call(a, "io.bundle", ("cli.cmd_train", "cli.cmd_eval"))),
    LayerMetric("seq_kernel.pair_ms_p50", ("seq_kernel.string_kernel",),
                lambda a: _pct(a.durations_ms(a.select("seq_kernel.string_kernel")), 50)),
    LayerMetric("seq_kernel.pair_ms_p90", ("seq_kernel.string_kernel",),
                lambda a: _pct(a.durations_ms(a.select("seq_kernel.string_kernel")), 90)),
    LayerMetric("graph_kernel.walk_pair_ms_p50", ("graph_kernel.walk",),
                lambda a: _pct(a.durations_ms(a.select("graph_kernel.walk")), 50)),
    LayerMetric("graph_kernel.wl_pair_ms_p50", ("graph_kernel.wl",),
                lambda a: _pct(a.durations_ms(a.select("graph_kernel.wl")), 50)),
    LayerMetric("graph_kernel.gated_pair_ms_p50", ("graph_kernel.gated",),
                lambda a: _pct(a.durations_ms(a.select("graph_kernel.gated")), 50)),
    LayerMetric("cli.self_ms_per_pair", ("cli.cmd_kernel", "seq_kernel.string_kernel"),
                _cli_self_per_pair),
    *(LayerMetric(f"verify.{suite.replace('-', '_')}_ms", ("verify.run_suite",),
                  lambda a, s=suite: _mean(a.durations_ms(a.select("verify.run_suite", tag=s))))
      for suite in ("gradcheck", "seq-state-kernel", "graph-state-kernel")),
)


def layer_metrics(spans: list[Span], missing: set[str], workload) -> dict[str, dict]:
    """Every per-layer metric as {value, samples}; value None marks it missing."""
    a = Analysis(spans, workload.train_kind, workload.own)
    out = {}
    for m in LAYER_METRICS:
        value, samples = (None, 0) if missing & set(m.needs) else m.compute(a)
        out[m.name] = {"value": value, "samples": samples}
    return out


def layer_share(spans: list[Span], total_s: float) -> dict[str, float]:
    """Self time per layer (the span-name prefix) as a share of ``total_s``.

    The self time of the root call spans, which is argument parsing and the
    benchmark's own output checks, is counted as ``other``.
    """
    out: dict[str, float] = {}
    for span, self_s in zip(spans, self_times(spans)):
        layer = "other" if span.name == ROOT else span.name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + self_s / total_s
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
