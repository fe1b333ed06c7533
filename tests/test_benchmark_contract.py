"""The benchmark's contract with the program, read from perfbench/ without changing it.

perfbench wraps kernelnn callables by name from outside and gates its runs on
trace reads of trained models.  A renamed or deleted callee would otherwise
show only as a ``missing`` span or a failed gate in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules by name; sys.path is restored afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_every_callable_the_benchmark_wraps_exists(perfbench):
    tracer = perfbench("spans").Tracer()
    tracer.install(perfbench("layers").TARGETS)
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("kind", ["lm_train", "graph_train"])
def test_training_calls_pass_the_benchmark_state_gates(perfbench, tmp_path, kind):
    # the gates run forward_stack on a list of 1-d tensors, trace.state and
    # trace.decay_arrays against the gated string kernel (lm), and
    # wl_forward(...).state_sum against the walk kernel (graph)
    worker = perfbench("worker")
    worker.wl.write_inputs(worker.wl.SMALL, 7, 0, tmp_path)
    runner = worker.Runner(tmp_path, 7)
    _, ok = runner.invoke(kind)
    assert ok, runner.errors


@pytest.mark.parametrize("kind,sizes", [
    ("seq", "small"), ("walk", "small"), ("wl", "small"), ("gated", "small"), ("seq", "oracle"),
    ("gated", "oracle"),
])
def test_kernel_calls_pass_the_benchmark_value_gates(perfbench, tmp_path, kind, sizes):
    # the first call is gated on the printed values against direct oracle calls
    # (relative 1e-12), every later call on reproducing that output byte for byte
    worker = perfbench("worker")
    s = worker.wl.SMALL if sizes == "small" else worker.wl.WORKLOADS[sizes].sizes
    worker.wl.write_inputs(s, 7, 0, tmp_path)
    runner = worker.Runner(tmp_path, 7)
    assert all(runner.invoke(kind)[1] for _ in range(2)), runner.errors


def test_graph_file_loads_record_io_load_spans(perfbench, tmp_path):
    # io.load_ms on the graph workload is the time in kernelnn.io.load_graphs,
    # reached from cmd_eval through load_graph_targets and from cmd_kernel
    worker, spans = perfbench("worker"), perfbench("spans")
    worker.wl.write_inputs(worker.wl.SMALL, 7, 0, tmp_path)
    runner = worker.Runner(tmp_path, 7)
    assert runner.invoke("graph_train")[1], runner.errors  # writes the bundle graph_eval reads
    tracer = spans.Tracer()
    tracer.install(perfbench("layers").TARGETS)
    try:
        assert all(runner.invoke(kind)[1] for kind in ("graph_eval", "walk")), runner.errors
    finally:
        tracer.uninstall()
    callers = {
        name
        for span, above in zip(tracer.spans, spans.ancestor_names(tracer.spans))
        if span.name == "io.load" and span.tag == "load_graphs"
        for name in above
    }
    assert {"cli.cmd_eval", "cli.cmd_kernel"} <= callers


CMD_OF_KIND = {"lm_train": "cli.cmd_train", "graph_train": "cli.cmd_train",
               "lm_eval": "cli.cmd_eval", "graph_eval": "cli.cmd_eval", "verify": "cli.cmd_verify"}


def test_traced_calls_after_a_warm_up_reach_every_target(perfbench, tmp_path):
    # perfbench installs its wrappers only after one untraced call of every
    # kind, so a callable the program captured on that first call (in a cached
    # parser, say) would never be traced
    worker, spans, layers = perfbench("worker"), perfbench("spans"), perfbench("layers")
    worker.wl.write_inputs(worker.wl.SMALL, 7, 0, tmp_path)
    runner = worker.Runner(tmp_path, 7)
    assert all(runner.invoke(kind)[1] for kind in worker.wl.KINDS), runner.errors
    hit = set()

    class HitTracer(spans.Tracer):
        def wrap(self, fn, target):
            traced = super().wrap(fn, target)

            def wrapper(*args, **kwargs):
                hit.add(target)
                return traced(*args, **kwargs)

            return wrapper

    tracer = HitTracer()
    tracer.install(layers.TARGETS)
    try:
        for call, kind in enumerate(worker.wl.KINDS):
            root = tracer.begin(layers.ROOT, tag=kind, run=call)
            ok = runner.invoke(kind)[1]
            tracer.end(root)
            assert ok, runner.errors
    finally:
        tracer.uninstall()
    assert [t.attr for t in layers.TARGETS if t not in hit] == []
    cmds = {(s.run, s.name) for s in tracer.spans if s.name.startswith("cli.cmd_")}
    assert cmds == {(call, CMD_OF_KIND.get(kind, "cli.cmd_kernel"))
                    for call, kind in enumerate(worker.wl.KINDS)}
    pairs = [s for s in tracer.spans if s.name == "seq_kernel.string_kernel"]
    assert len(pairs) == worker.wl.SMALL.seq_pairs == 2


def test_a_traced_round_gives_every_per_layer_metric(perfbench, tmp_path):
    # a traced benchmark run ends with a result line only when every per-layer
    # metric has a value; one traced call of every kind must provide them all
    worker, spans, layers = perfbench("worker"), perfbench("spans"), perfbench("layers")
    worker.wl.write_inputs(worker.wl.SMALL, 7, 0, tmp_path)
    runner = worker.Runner(tmp_path, 7)
    assert all(runner.invoke(kind)[1] for kind in worker.wl.KINDS), runner.errors
    tracer = spans.Tracer()
    tracer.install(layers.TARGETS)
    try:
        for call, kind in enumerate(worker.wl.KINDS):
            root = tracer.begin(layers.ROOT, tag=kind, run=call)
            ok = runner.invoke(kind)[1]
            tracer.end(root)
            assert ok, runner.errors
    finally:
        tracer.uninstall()
    for name in ("lm", "graph", "oracle"):
        metrics = layers.layer_metrics(tracer.spans, tracer.missing, worker.wl.WORKLOADS[name])
        assert [m for m, v in metrics.items() if v["value"] is None] == [], name
