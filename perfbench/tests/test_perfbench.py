"""Tests of the benchmark's own logic: seeded generators and span arithmetic.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads as wl  # noqa: E402
import run  # noqa: E402
from layers import LAYER_METRICS, Analysis, layer_metrics, layer_share  # noqa: E402
from spans import Span, Target, Tracer, ancestor_names, covered, self_times  # noqa: E402


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_writes_identical_inputs(tmp_path, name):
    sizes = wl.WORKLOADS[name].sizes
    wl.write_inputs(sizes, 7, 0, tmp_path / "a")
    wl.write_inputs(sizes, 7, 0, tmp_path / "b")
    wl.write_inputs(sizes, 8, 0, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a["lm_train.txt"] != c["lm_train.txt"]
    assert a["graph_train.txt"] != c["graph_train.txt"]
    assert a["seq_pairs.txt"] != c["seq_pairs.txt"]


def _graph_shapes(text: str) -> list[tuple[int, int]]:
    out = []
    for line in text.splitlines():
        fields = [f.strip() for f in line.split("|")]
        out.append((int(fields[0]), len(fields[2].split())))
    return sorted(out)


def test_work_per_call_does_not_depend_on_the_seed(tmp_path):
    sizes = wl.WORKLOADS["oracle"].sizes
    shapes = []
    for seed in (1, 2):
        out = tmp_path / str(seed)
        wl.write_inputs(sizes, seed, 2, out)
        files = {name: (out / name).read_text() for name in (
            "lm_train.txt", "seq_pairs.txt", "graph_train.txt", "walk_pairs.txt")}
        shapes.append((
            len(files["lm_train.txt"].split()),
            sorted(len(line.split()) for line in files["seq_pairs.txt"].splitlines()),
            _graph_shapes(files["graph_train.txt"]),
            _graph_shapes(files["walk_pairs.txt"]),
        ))
    assert shapes[0] == shapes[1]
    assert shapes[0][0] == sizes.lm_train_tokens


def test_training_graphs_are_connected_with_the_scheduled_sizes():
    import numpy as np

    rng = np.random.default_rng(3)
    for nodes, extra in wl.train_graph_shapes(16, 40):
        edges = wl.connected_edges(rng, nodes, extra)
        assert len(edges) == nodes - 1 + extra
        reached, frontier = {0}, [0]
        while frontier:
            v = frontier.pop()
            for u, w in edges:
                for a, b in ((u, w), (w, u)):
                    if a == v and b not in reached:
                        reached.add(b)
                        frontier.append(b)
        assert reached == set(range(nodes))


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0


def _nested() -> list[Span]:
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    return [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]


def test_self_time_subtracts_only_direct_children():
    assert self_times(_nested()) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_ancestor_names_follow_parent_links():
    anc = ancestor_names(_nested())
    assert anc[2] == {"root", "a"}
    assert anc[3] == {"root"}
    assert anc[0] == frozenset()


def test_step_time_excludes_epoch_evaluation():
    spans = [
        Span("call", 0.0, 20.0, -1, 0, tag="graph_train"),
        Span("train.train_graph_reg", 1.0, 19.0, 0, 0),
        Span("train.step", 3.0, 4.0, 1, 0),
        Span("train.epoch_eval", 5.0, 9.0, 1, 0),
        Span("train.step", 11.0, 12.0, 1, 0),
    ]
    # steps end at 4 and 12; the second interval [4, 12] loses the 4 s evaluation
    assert Analysis(spans, "graph_train").step_ms() == pytest.approx([3000.0, 4000.0])


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_tracer_wraps_functions_and_methods_and_restores_them(monkeypatch):
    mod = types.ModuleType("fake_layer")

    class Box:
        def size(self, extra=0):
            return 3 + extra

    def outer(x):
        return mod.inner(x) + Box().size()

    def inner(x):
        return 2 * x

    mod.Box, mod.outer, mod.inner = Box, outer, inner
    size = Box.__dict__["size"]
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = Tracer(clock=_Clock())
    tracer.install([
        Target("fake_layer", "outer", "L.outer", tag=lambda x: f"x={x}"),
        Target("fake_layer", "inner", "L.inner"),
        Target("fake_layer", "Box.size", "L.size", count=lambda box, extra=0: extra + 10),
        Target("fake_layer", "gone", "L.gone"),
    ])
    assert mod.outer(5) == 13
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner and Box.__dict__["size"] is size
    assert mod.outer(1) == 5 and len(tracer.spans) == 3  # no spans once uninstalled
    names = [(s.name, s.parent, s.tag, s.count) for s in tracer.spans]
    assert names == [("L.outer", -1, "x=5", None), ("L.inner", 0, None, None),
                     ("L.size", 0, None, 10)]
    assert tracer.missing == {"L.gone"}
    assert all(s.end > s.start for s in tracer.spans)


def test_metric_of_a_vanished_name_is_missing_not_an_error():
    spans = [Span("call", 0.0, 1.0, -1, 0, tag="seq")]
    out = layer_metrics(spans, {"seq_kernel.string_kernel"}, wl.WORKLOADS["oracle"])
    assert out["seq_kernel.pair_ms_p50"]["value"] is None
    assert out["cli.self_ms_per_pair"]["value"] is None
    assert out["verify.gradcheck_ms"] == {"value": None, "samples": 0}


def test_io_load_counts_only_the_workloads_own_calls():
    spans = [
        Span("call", 0.0, 4.0, -1, 0, tag="lm_train"),
        Span("cli.cmd_train", 0.0, 4.0, 0, 0),
        Span("io.load", 1.0, 2.0, 1, 0),
        Span("call", 5.0, 9.0, -1, 1, tag="graph_train"),
        Span("cli.cmd_train", 5.0, 9.0, 3, 1),
        Span("io.load", 5.0, 8.0, 4, 1),
    ]
    assert layer_metrics(spans, set(), wl.WORKLOADS["lm"])["io.load_ms"] == {
        "value": pytest.approx(1000.0), "samples": 1}


def test_layer_share_splits_self_time_by_layer():
    spans = [
        Span("call", 0.0, 10.0, -1, 0, tag="lm_train"),
        Span("cli.cmd_train", 1.0, 9.0, 0, 0),
        Span("train.step", 2.0, 4.0, 1, 0),
        Span("tensor.backward", 5.0, 8.0, 1, 0),
    ]
    assert layer_share(spans, 20.0) == pytest.approx(
        {"other": 0.1, "cli": 0.15, "train": 0.1, "tensor": 0.15})


def test_every_declared_metric_is_computed():
    computed = {"setup_s", "peak_rss_mb", *run.RATES, *run.TIMES}
    assert {m["name"] for m in run.spec(0)} == computed
    assert {m["name"] for m in run.spec(1)} == {m.name for m in LAYER_METRICS} | {
        "trace.overhead_pct"}


def test_end_to_end_sums_calls_and_scales_to_the_reference_speed():
    workload = wl.WORKLOADS["graph"]
    graphs = wl.item_counts(workload.sizes)["graph_train"]
    samples = {kind: [] for kind in wl.KINDS}
    samples["graph_train"] = [1.0, 3.0]
    samples["verify"] = [0.5, 1.5]
    ref = run.REFERENCE_MS
    # the speed loop took three times the reference: the machine ran at a third of it
    res = {"samples": samples, "peak_rss_mb": 50.0, "calibration_ms": [2 * ref, 4 * ref]}
    setups = [{"setup_s": 0.9, "calibration_ms": 3 * ref},
              {"setup_s": 0.2, "calibration_ms": ref},
              {"setup_s": 0.5, "calibration_ms": 2 * ref}]
    out = run.end_to_end(workload, setups, res)
    assert out["train_graphs_per_s"] == {"value": pytest.approx(3 * 2 * graphs / 4.0),
                                         "raw": pytest.approx(2 * graphs / 4.0), "samples": 2}
    assert out["verify_s"] == {"value": pytest.approx(1.0 / 3), "raw": pytest.approx(1.0),
                               "samples": 2}
    assert out["setup_s"] == {"value": pytest.approx(0.25), "raw": pytest.approx(0.5),
                              "samples": 3}
    assert out["peak_rss_mb"]["value"] == 50.0
    assert out["walk_pairs_per_s"]["value"] is None
