import itertools
import math

import numpy as np
import pytest

from kernelnn import verify
from kernelnn.errors import ConfigError
from kernelnn.graph_nn import GraphModelConfig, graph_forward, init_graph
from kernelnn.inputs import FeatureGraph
from kernelnn.tensor import dot
from kernelnn.verify import (
    SUITES,
    CheckResult,
    _tape_vs_fd,
    _worst,
    check_gradcheck,
    gram_range_residual,
    run_suite,
)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite("not-a-suite")


def test_registry_covers_expected_suites():
    expected = {
        "seq-state-kernel", "graph-state-kernel", "fast-kernel", "cnn-degeneration",
        "gated-degeneration", "variants",
        "deep-rkhs", "wl-chain", "gradcheck", "psd", "smoke-train", "decay-ordering",
    }
    assert set(SUITES) == expected


def test_result_line_format():
    r = CheckResult("seq-state-kernel", 3, 1.5e-12, True, detail="extra")
    assert r.line() == "suite=seq-state-kernel seed=3 max_rel_err=1.500e-12 status=pass extra"


def test_gradcheck_checks_every_coordinate_of_both_deep_layers():
    # both deep layers hold a W1; keyed by name alone, one layer's would go unchecked
    assert check_gradcheck(0, 1e-5)[-1].detail == "coords:381"


@pytest.mark.parametrize("module", ["deep", "wl", "gated"])
def test_finite_differences_swap_in_one_tensor_at_a_time_and_put_it_back(module):
    g = FeatureGraph.undirected(np.random.default_rng(1).normal(size=(4, 2)),
                                [(0, 1), (1, 2), (2, 3)])
    cfg = GraphModelConfig(n=2, hidden=3, layers=1 if module == "gated" else 2, module=module)
    p = init_graph(cfg, 2, np.random.default_rng(2))
    held = p.named()
    swapped = []

    def run(params):
        swapped.append([name for name, t in params.named().items() if t is not held[name]])
        h = graph_forward(g, params, cfg).h_graph
        return dot(h, h)

    worst, _ = _tape_vs_fd(run, p)
    # the taped run, then both sides of every coordinate, tensor by tensor
    assert swapped == [[]] + [[name] for name, t in held.items() for _ in range(2 * t.size)]
    assert all(a is b for a, b in zip(p.named().values(), held.values(), strict=True))
    assert worst < 1e-6


@pytest.mark.parametrize("suite", ["smoke-train", "decay-ordering"])
def test_a_suite_that_checks_no_tolerance_refuses_one(suite):
    with pytest.raises(ConfigError, match="--tol"):
        run_suite(suite, seeds=1, tol=1e-3)


def test_run_suite_respects_seed_count_and_tol():
    report = run_suite("seq-state-kernel", seeds=4)
    assert len(report.results) == 4 and report.passed
    report = run_suite("seq-state-kernel", seeds=2, tol=0.0)
    assert not report.passed


@pytest.mark.parametrize("suite,seeds", [("graph-state-kernel", 6), ("gradcheck", 2)])
def test_run_suite_is_deterministic(suite, seeds):
    first = run_suite(suite, seeds=seeds)
    second = run_suite(suite, seeds=seeds)
    assert [r.error for r in first.results] == [r.error for r in second.results]
    assert first.passed and second.passed


def test_gram_range_residual_detects_membership():
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(5, 3))
    gram = phi @ phi.T
    inside = phi @ rng.normal(size=3)
    assert gram_range_residual(gram, inside) < 1e-10
    null = np.linalg.svd(gram)[0][:, -1]
    outside = inside + 10.0 * np.linalg.norm(inside) * null
    assert gram_range_residual(gram, outside) > 1e-2


def test_fast_kernel_suite_passes_with_its_string_deep_and_gated_lines():
    report = run_suite("fast-kernel")
    assert report.passed
    details = ["string", "deep", "gated", "walk", "wl", "deep-graph"]
    assert [r.detail for r in report.results] == details * SUITES["fast-kernel"][1]


@pytest.mark.parametrize("errors", [[math.nan, 1.0, 0.5], [0.5, math.nan, 1.0], [0.5, 1.0, math.nan]])
def test_the_worst_error_keeps_a_nan_wherever_it_falls(errors):
    assert math.isnan(_worst(errors))
    assert _worst([]) == 0.0 and _worst([-1.0, 2.0, 1.0]) == 2.0


# the oracle each suite compares with, answering NaN on its second call only
NAN_ORACLES = {"fast-kernel": "string_kernel", "graph-state-kernel": "random_walk_kernel",
               "psd": "random_walk_kernel"}


@pytest.mark.parametrize("suite", sorted(NAN_ORACLES))
def test_a_nan_error_fails_the_suite(monkeypatch, suite):
    oracle, calls = getattr(verify, NAN_ORACLES[suite]), itertools.count()
    monkeypatch.setattr(verify, NAN_ORACLES[suite],
                        lambda *args: math.nan if next(calls) == 1 else oracle(*args))
    report = run_suite(suite, seeds=1)
    assert not report.passed
    assert [r.passed for r in report.results] == [not math.isnan(r.error) for r in report.results]
    assert sum(math.isnan(r.error) for r in report.results) == 1
