import numpy as np
import pytest

from kernelnn.errors import ConfigError
from kernelnn.verify import (
    SUITES,
    CheckResult,
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
    assert [r.detail for r in report.results] == ["string", "deep", "gated"] * SUITES["fast-kernel"][1]
