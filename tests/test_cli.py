import base64
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kernelnn import cli, seq_dp
from kernelnn import io as kio
from kernelnn.cli import (
    EXIT_CLOSED_PIPE,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY,
    _build_parser,
    format_value,
    main,
)
from kernelnn.inputs import FeatureGraph, SeqKernelConfig

from helpers import exact_walk_sum, save_graphs

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
# a seq call's peak, in padded tables of its largest pair: 6.8 seen for 300-token add-norm
# pairs at depth 2 (5.5 for the per-pair DP before the stacks), where one stack of all 64
# pairs would take 64 times as much
MEMORY_TABLES = 8


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_value_examples():
    assert format_value(1.0) == "1.000000000000"
    assert format_value(0.0) == "0"
    assert format_value(0.5) == "0.5000000000000"


def test_kernel_seq_matches_golden(capsys):
    code, out, _ = run(
        capsys, "kernel", "--task", "seq",
        "--file", str(FIXTURES / "seq_pairs.txt"), "--vocab", str(FIXTURES / "vocab.txt"),
        "--n", "2", "--lambda", "0.5",
    )
    assert code == EXIT_OK
    assert out.splitlines() == (FIXTURES / "seq_golden.txt").read_text().splitlines()


def test_kernel_graph_matches_golden(capsys):
    code, out, _ = run(
        capsys, "kernel", "--task", "graph",
        "--file", str(FIXTURES / "graphs.txt"), "--n", "2", "--lambda", "0.5",
    )
    assert code == EXIT_OK
    assert out.splitlines() == (FIXTURES / "graph_golden.txt").read_text().splitlines()


def test_kernel_identical_pair_prints_one(capsys):
    code, out, _ = run(
        capsys, "kernel", "--task", "seq",
        "--file", str(FIXTURES / "seq_pairs.txt"), "--vocab", str(FIXTURES / "vocab.txt"),
        "--n", "2",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "1.000000000000"


def test_kernel_seq_unknown_tokens_match_only_themselves(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("x y\nz w\nx y\nx y\n")
    code, out, _ = run(capsys, "kernel", "--task", "seq", "--file", str(pairs),
                       "--vocab", str(FIXTURES / "vocab.txt"), "--n", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["0", "1.000000000000"]


def test_kernel_odd_line_count_is_input_error(tmp_path, capsys):
    bad = tmp_path / "odd.txt"
    bad.write_text("a b\na b\nb a\n")
    code, _, err = run(
        capsys, "kernel", "--task", "seq", "--file", str(bad),
        "--vocab", str(FIXTURES / "vocab.txt"),
    )
    assert code == EXIT_INPUT
    assert "even number" in err


def test_kernel_parse_failure_names_line(tmp_path, capsys):
    bad = tmp_path / "graphs.txt"
    bad.write_text("1 | 1.0,0.0 |\nnot a graph\n")
    code, _, err = run(capsys, "kernel", "--task", "graph", "--file", str(bad))
    assert code == EXIT_INPUT
    assert ":2" in err


def test_kernel_walk_past_the_oracle_order_prints_the_exact_value(capsys):
    # the oracle refused --n 5; the DP prints the exact kernel, rounded once
    code, out, err = run(capsys, "kernel", "--task", "graph",
                         "--file", str(FIXTURES / "graphs.txt"), "--n", "5")
    assert code == EXIT_OK, err
    graphs = [g for g, _ in kio.load_graphs(FIXTURES / "graphs.txt")]
    want = []
    for g1, g2 in zip(graphs[0::2], graphs[1::2]):
        (k,), _ = exact_walk_sum(g1, g2, [(g1.matrix @ g2.matrix.T)[None]], 5)
        want.append(format_value(float(k * Fraction(0.5) ** 4)))
    assert out.splitlines() == want


@pytest.mark.parametrize("options", [
    ("--variant", "mult-unnorm"), ("--variant", "mult-norm"), ("--variant", "add-unnorm"),
    ("--variant", "add-norm"), ("--depth", "2"),
], ids=lambda o: "-".join(o).lstrip("-"))
def test_kernel_seq_order_past_both_lengths_prints_zero_at_once(tmp_path, capsys, options):
    # no n-tuple fits in a 3-token sentence, so no pass over the order runs
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("a b a\nb a b\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "kernel", "--task", "seq", "--file", str(pairs),
                       "--vocab", str(FIXTURES / "vocab.txt"), "--n", "1000000000", *options)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert out == "0\n"


def test_reused_parser_keeps_no_state_between_calls(capsys):
    args = ("kernel", "--task", "seq", "--file", str(FIXTURES / "seq_pairs.txt"),
            "--vocab", str(FIXTURES / "vocab.txt"), "--n", "2")
    code, default, _ = run(capsys, *args)
    assert code == EXIT_OK
    code, deep, _ = run(capsys, *args, "--depth", "2")
    assert code == EXIT_OK and deep != default
    assert run(capsys, *args) == (EXIT_OK, default, "")
    assert _build_parser().parse_args(list(args)).depth is None

    with pytest.raises(SystemExit) as refused:
        main(["kernel", "--task", "seq", "--n", "x"])
    assert refused.value.code == EXIT_INPUT
    capsys.readouterr()
    code, out, _ = run(capsys, *args, "--lambda", "0.5")
    assert code == EXIT_OK
    assert out.splitlines() == (FIXTURES / "seq_golden.txt").read_text().splitlines()

    with pytest.raises(SystemExit) as helped:
        main(["--help"])
    assert helped.value.code == EXIT_OK
    assert capsys.readouterr().out == _build_parser.__wrapped__().format_help()


SEQ_ARGS = ("--task", "seq", "--file", str(FIXTURES / "seq_pairs.txt"),
            "--vocab", str(FIXTURES / "vocab.txt"))
GRAPH_ARGS = ("--task", "graph", "--file", str(FIXTURES / "graphs.txt"))
IGNORED_KERNEL_OPTIONS = {
    "seq-depth-0": SEQ_ARGS + ("--depth", "0"),
    "seq-depth-negative": SEQ_ARGS + ("--depth", "-3"),
    "seq-gated": SEQ_ARGS + ("--gated",),
    "walk-depth": GRAPH_ARGS + ("--variant", "walk", "--depth", "2"),
    "default-walk-depth": GRAPH_ARGS + ("--depth", "1"),
    "deep-depth-0": GRAPH_ARGS + ("--variant", "deep", "--depth", "0"),
    "gated-depth": GRAPH_ARGS + ("--gated", "--depth", "2"),
    "gated-variant": GRAPH_ARGS + ("--gated", "--variant", "wl"),
    "graph-vocab": GRAPH_ARGS + ("--vocab", str(FIXTURES / "vocab.txt")),
}


# `kernel --task seq` pinned byte for byte over a sweep of the options, as it printed
# when tests/fixtures/seq_sweep_golden.json was written.  Away from lambda = 0.5 the
# one-hot values are not dyadic, so a reordered sum changes their last digits.
# Rewrite the fixture (only on purpose, when an output is meant to change) with
# ``PYTHONPATH=src python tests/test_cli.py``.
SEQ_SWEEP_GOLDEN = FIXTURES / "seq_sweep_golden.json"
SEQ_SWEEP = {
    f"{variant} n {n} lambda {lam} depth {depth}":
        ("--variant", variant, "--n", str(n), "--lambda", lam, "--depth", str(depth))
    for variant in ("mult-unnorm", "mult-norm", "add-unnorm", "add-norm")
    for n in (1, 2, 3) for lam in ("0", "0.3", "0.9") for depth in (1, 2)
}


def seq_sweep_lines(case: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["kernel", *SEQ_ARGS, *SEQ_SWEEP[case]])
    assert code == EXIT_OK
    return out.getvalue().splitlines()


def test_seq_sweep_fixture_names_every_case():
    assert sorted(json.loads(SEQ_SWEEP_GOLDEN.read_text())) == sorted(SEQ_SWEEP)


@pytest.mark.parametrize("case", sorted(SEQ_SWEEP))
def test_kernel_seq_sweep_matches_golden(case):
    assert seq_sweep_lines(case) == json.loads(SEQ_SWEEP_GOLDEN.read_text())[case]


@pytest.mark.parametrize("case", sorted(IGNORED_KERNEL_OPTIONS))
def test_kernel_rejects_options_it_would_ignore_or_misread(capsys, case):
    code, out, err = run(capsys, "kernel", *IGNORED_KERNEL_OPTIONS[case])
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: ")


def test_kernel_wl_depth_zero_is_the_base_walk_kernel(capsys):
    code, walk, _ = run(capsys, "kernel", *GRAPH_ARGS, "--variant", "walk")
    assert code == EXIT_OK
    code, wl0, _ = run(capsys, "kernel", *GRAPH_ARGS, "--variant", "wl", "--depth", "0")
    assert code == EXIT_OK
    assert wl0 == walk
    code, wl1, _ = run(capsys, "kernel", *GRAPH_ARGS, "--variant", "wl", "--depth", "1")
    assert code == EXIT_OK and wl1 != walk


KERNEL_KINDS = {
    "seq": SEQ_ARGS,
    "walk": GRAPH_ARGS + ("--variant", "walk"),
    "wl": GRAPH_ARGS + ("--variant", "wl"),
    "deep": GRAPH_ARGS + ("--variant", "deep"),
    "gated": GRAPH_ARGS + ("--gated",),
}
# two values of each option; a later --variant overrides the kind's own
KERNEL_OPTION_VALUES = {
    "--seed": ("1", "2"),
    "--lambda": ("0.3", "0.7"),
    "--depth": ("1", "2"),
    "--variant": {"seq": ("mult-norm", "add-norm"), "walk": ("walk", "wl"), "wl": ("wl", "walk"),
                  "deep": ("deep", "walk"), "gated": ("walk", "wl")},
    "--vocab": (str(FIXTURES / "vocab.txt"), str(FIXTURES / "lm_vocab.txt")),
}
# accepted, changing no value: the benchmark's argv passes them, so refusing them waits for a
# change to the benchmark (ROADMAP item 1 step 1)
KERNEL_OPTIONS_WITHOUT_EFFECT = {("walk", "--seed"), ("gated", "--lambda"), ("seq", "--vocab")}


@pytest.mark.parametrize("option", sorted(KERNEL_OPTION_VALUES))
@pytest.mark.parametrize("kind", sorted(KERNEL_KINDS))
def test_every_kernel_option_changes_the_values_or_is_refused(capsys, kind, option):
    values = KERNEL_OPTION_VALUES[option]
    values = values[kind] if isinstance(values, dict) else values
    runs = [run(capsys, "kernel", *KERNEL_KINDS[kind], option, v) for v in values]
    codes = {code for code, _, _ in runs}
    if codes == {EXIT_INPUT}:
        assert (kind, option) not in KERNEL_OPTIONS_WITHOUT_EFFECT
        assert all(out == "" and err.startswith("error: ") for _, out, err in runs)
        return
    assert codes == {EXIT_OK}
    changed = runs[0][1] != runs[1][1]
    assert changed != ((kind, option) in KERNEL_OPTIONS_WITHOUT_EFFECT)


@pytest.mark.parametrize("kind", ["walk", "wl", "gated"])
def test_kernel_negative_seed_is_input_error(capsys, kind):
    code, out, err = run(capsys, "kernel", *KERNEL_KINDS[kind], "--seed", "-1")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: --seed")


def test_kernel_deep_takes_any_depth(capsys):
    # the oracle recursed once per level and refused depths over 256
    code, out, err = run(capsys, "kernel", *KERNEL_KINDS["deep"], "--depth", "1000")
    assert code == EXIT_OK, err
    values = [float(v) for v in out.split()]
    assert len(values) == 2 and all(math.isfinite(v) for v in values)


def write_large_graphs(tmp_path) -> Path:
    """A pair of 200- and 240-node graphs: rings with random chords and a self-loop."""
    rng = np.random.default_rng(8)
    graphs = []
    for n in (200, 240):
        edges = [(v, (v + 1) % n) for v in range(n)] + [(0, 0)]
        edges += [tuple(e) for e in rng.integers(0, n, size=(n // 2, 2))]
        graphs.append((FeatureGraph.undirected(rng.normal(size=(n, 3)) / 3, edges), None))
    path = tmp_path / "large.txt"
    save_graphs(graphs, path)
    return path


def test_kernel_gated_takes_large_graphs(tmp_path, capsys):
    code, out, err = run(capsys, "kernel", "--task", "graph", "--file",
                         str(write_large_graphs(tmp_path)), "--gated", "--n", "6")
    assert code == EXIT_OK, err
    values = [float(v) for v in out.split()]
    assert len(values) == 1 and math.isfinite(values[0])


@pytest.mark.parametrize("variant", ["walk", "wl", "deep"])
def test_kernel_takes_large_graphs_for_every_variant(tmp_path, capsys, variant):
    code, out, err = run(capsys, "kernel", "--task", "graph", "--file",
                         str(write_large_graphs(tmp_path)), "--variant", variant, "--n", "6")
    assert code == EXIT_OK, err
    values = [float(v) for v in out.split()]
    assert len(values) == 1 and math.isfinite(values[0])


def test_kernel_gated_takes_any_walk_order(capsys):
    code, out, err = run(capsys, "kernel", *GRAPH_ARGS, "--gated", "--n", "5")
    assert code == EXIT_OK, err
    assert all(math.isfinite(float(v)) for v in out.split())


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_kernel_graph_rejects_a_non_finite_lambda(capsys, lam):
    code, out, err = run(capsys, "kernel", *GRAPH_ARGS, f"--lambda={lam}")
    assert code == EXIT_INPUT
    assert out == "" and f"got {lam}" in err


OVERFLOWING_PAIRS = {
    "positive": "2 | 1e200,0 ; 0,1 | 0-1\n" * 2,  # a node dot of 1e400
    "negative": "2 | -1e200,0 ; 0,1 | 0-1\n2 | 1e200,0 ; 0,1 | 0-1\n",
    "both-signs": "2 | 1e200,0 ; -1e200,0 | 0-1\n" * 2,  # inf and -inf terms in one sum
}


KERNEL_ARGS = {"walk": (), "wl": ("--variant", "wl"), "deep": ("--variant", "deep"),
               "gated": ("--gated",), "n1": ("--n", "1")}


# the gated kernel sums in extended precision, where the both-signs terms are
# each zeroed by a saturated gate, so its value there is finite
@pytest.mark.parametrize("pairs,kernel", [(p, k) for p in sorted(OVERFLOWING_PAIRS)
                                          for k in KERNEL_ARGS
                                          if (p, k) != ("both-signs", "gated")])
def test_kernel_non_finite_graph_value_is_a_numeric_error(tmp_path, capsys, pairs, kernel):
    path = tmp_path / "graphs.txt"
    path.write_text("1 | 1,0 |\n" * 2 + OVERFLOWING_PAIRS[pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would end the run with a traceback
        code, out, err = run(capsys, "kernel", "--task", "graph", "--file", str(path),
                             *KERNEL_ARGS[kernel])
    assert code == EXIT_NUMERIC
    assert len(out.splitlines()) == 1  # the first pair's value
    assert err.startswith(f"error: {path}: pair 2: ") and "not finite" in err


@pytest.mark.parametrize("depth", ["1", "10"])
def test_kernel_non_finite_seq_value_is_a_numeric_error(tmp_path, capsys, monkeypatch, depth):
    # stacked ten deep, two 200-token lines of one word overflow the DP; one level deep that
    # takes about 1 000 tokens a line, so there the string kernel is scaled past the float range
    if depth == "1":
        string_kernel = cli.string_kernel
        monkeypatch.setattr(cli, "string_kernel", lambda sims, lengths, depth, cfg:
                            string_kernel(sims, lengths, depth, cfg) * np.float64(1e308))
    path = tmp_path / "pairs.txt"
    path.write_text("a\na\n" + ("a " * 200 + "\n") * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would end the run with a traceback
        code, out, err = run(capsys, "kernel", "--task", "seq", "--file", str(path),
                             "--vocab", str(FIXTURES / "vocab.txt"), "--n", "2",
                             "--lambda", "0.9", "--depth", depth)
    assert code == EXIT_NUMERIC
    assert out.splitlines() == ["0"]  # the first pair's value: no 2-tuple fits in one token
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: pair 2: the seq kernel value is not finite")


SEQ_WORDS = ["a", "b", "c", "d", "zz"]  # "zz" is not in the vocabulary


@settings(derandomize=True, database=None, deadline=None, max_examples=12,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(cli.SEQ_VARIANTS)), st.integers(1, 3),
       st.integers(1, 3), st.floats(0.0, 0.99))
def test_kernel_seq_prints_each_pair_as_it_prints_that_pair_alone(
        tmp_path_factory, capsys, seed, variant, n, depth, lam):
    rng = np.random.default_rng(seed)
    lines = [" ".join(rng.choice(SEQ_WORDS, size=int(rng.integers(1, 81))))
             for _ in range(2 * int(rng.integers(1, 7)))]
    tmp = tmp_path_factory.mktemp("pairs")

    def printed(lines):
        path = tmp / "pairs.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "kernel", "--task", "seq", "--file", str(path), "--vocab",
                             str(FIXTURES / "vocab.txt"), "--n", str(n), "--lambda", str(lam),
                             "--variant", variant, "--depth", str(depth))
        assert code == EXIT_OK, err
        return out.splitlines()

    whole = printed(lines)
    assert whole == [printed(lines[i:i + 2])[0] for i in range(0, len(lines), 2)]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(cli.SEQ_VARIANTS.values())),
       st.integers(1, 3), st.integers(1, 2), st.floats(0.0, 0.99))
def test_kernel_seq_values_of_a_file_have_the_bits_of_each_pair_alone(
        seed, variant, n, depth, lam):
    rng = np.random.default_rng(seed)
    cfg = SeqKernelConfig(n=n, lam=lam, composition=variant[0], normalization=variant[1])
    sents = [list(rng.integers(0, 3, size=int(rng.integers(1, 41))))
             for _ in range(2 * int(rng.integers(2, 9)))]
    whole = cli._seq_values(sents, depth, cfg)
    alone = [cli._seq_values(sents[i:i + 2], depth, cfg)[0] for i in range(0, len(sents), 2)]
    assert np.array(whole).tobytes() == np.array(alone).tobytes()


def test_kernel_seq_runs_one_stacked_dp_per_stack_and_a_short_pair_in_it_prints_zero(
        tmp_path, capsys, monkeypatch):
    calls = []
    string_kernel = cli.string_kernel

    def counted(sims, lengths, depth, cfg):
        calls.append(len(lengths))
        return string_kernel(sims, lengths, depth, cfg)

    monkeypatch.setattr(cli, "string_kernel", counted)
    path = tmp_path / "pairs.txt"  # 3-token pairs of 3 to 15 tokens, and one of 2 tokens
    path.write_text("a b c a\nb c a b c\n" * 3 + "a b\na b c\n" + "c b a " * 5 + "\na b c\n")
    code, out, _ = run(capsys, "kernel", "--task", "seq", "--file", str(path),
                       "--vocab", str(FIXTURES / "vocab.txt"), "--n", "3")
    assert code == EXIT_OK and calls == [5]
    assert out.splitlines()[3] == "0" and all(v != "0" for v in out.splitlines()[:3])


def test_kernel_seq_memory_stays_a_multiple_of_one_pairs_tables(tmp_path, capsys):
    rng = np.random.default_rng(2)
    path = tmp_path / "pairs.txt"
    path.write_text("\n".join(" ".join(rng.choice(SEQ_WORDS[:4], size=300)) for _ in range(128)))
    table = 8 * (seq_dp.padded(300) + 1) ** 2  # bytes in one pair's padded table
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "kernel", "--task", "seq", "--file", str(path),
                           "--vocab", str(FIXTURES / "vocab.txt"), "--n", "2", "--depth", "2",
                           "--variant", "add-norm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and len(out.splitlines()) == 64
    assert peak < MEMORY_TABLES * table


@pytest.mark.parametrize("lam", ["-5", "nan"])
def test_kernel_gated_checks_lambda_like_the_other_graph_kernels(capsys, lam):
    code, out, err = run(capsys, "kernel", *GRAPH_ARGS, "--gated", f"--lambda={lam}")
    assert code == EXIT_INPUT
    assert out == "" and f"got {lam}" in err


@pytest.mark.parametrize("extra", [("--n", "3"), ("--n", "5"), ("--n", "3", "--depth", "2")],
                         ids=["n3", "n5", "depth2"])
def test_kernel_seq_takes_thousand_token_pairs_at_any_order(tmp_path, capsys, extra):
    rng = np.random.default_rng(5)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(["<unk>"] + [f"w{i}" for i in range(1, 50)]) + "\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("\n".join(" ".join(f"w{i}" for i in rng.integers(1, 50, size=1000))
                               for _ in range(2)) + "\n")
    code, out, err = run(capsys, "kernel", "--task", "seq", "--file", str(pairs),
                         "--vocab", str(vocab), "--lambda", "0.5", "--variant", "mult-norm", *extra)
    assert code == EXIT_OK, err
    values = [float(v) for v in out.split()]
    assert len(values) == 1 and math.isfinite(values[0]) and values[0] > 0


def test_kernel_closed_stdout_ends_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "kernelnn.cli", "kernel", *SEQ_ARGS, "--n", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    proc.stdout.close()  # the reader is gone before the first value is written
    _, err = proc.communicate(timeout=60)
    assert err.decode() == ""
    assert proc.returncode == EXIT_CLOSED_PIPE


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "seq-state-kernel", "--seeds", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("suite=seq-state-kernel seed=")) == 3
    assert lines[-1] == "suite=seq-state-kernel overall=pass"


def test_verify_reports_failure_with_impossible_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "seq-state-kernel", "--seeds", "2", "--tol", "0")
    assert code == EXIT_VERIFY
    assert "status=fail" in out
    assert out.splitlines()[-1] == "suite=seq-state-kernel overall=fail"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "smoke-train", "--tol", "1"),
    ("verify", "--suite", "decay-ordering", "--tol", "1"),
    ("verify", "--tol", "1e-9"),
    ("verify", "--suite", "all", "--tol", "1e-9"),
])
def test_verify_refuses_a_tolerance_that_a_suite_would_not_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""  # no suite ran, so no suite= line
    assert err.startswith("error: --tol")


def test_gradcheck_alias(capsys):
    code, out, _ = run(capsys, "gradcheck", "--seeds", "1")
    assert code == EXIT_OK
    assert "suite=gradcheck overall=pass" in out


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "psd", "--seeds", "0"),
    ("verify", "--suite", "psd", "--seeds", "-3"),
    ("gradcheck", "--seeds", "0"),
    ("verify", "--suite", "all", "--seeds", "0"),
    ("verify", "--suite", "psd", "--tol", "nan"),
    ("verify", "--suite", "psd", "--tol", "inf"),
    ("verify", "--suite", "psd", "--tol", "-0.5"),
])
def test_verify_without_seeds_or_with_bad_tolerance_is_input_error(capsys, argv):
    # a sweep of no seeds would pass having checked nothing
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: --")


def write_lm_inputs(tmp_path, epochs=12):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("<unk>\na\nb\n")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(("a b " * 40 + "\n") * 2)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"n": 1, "hidden": 4, "lam": 0.5, "variant": "mult-norm", "activation": "tanh"},
        "train": {"epochs": epochs, "unroll": 8, "seed": 3},
        "optimizer": {"kind": "adam", "lr": 0.05},
    }))
    return vocab, corpus, config


def test_train_and_eval_lm_round_trip(tmp_path, capsys):
    vocab, corpus, config = write_lm_inputs(tmp_path)
    out = tmp_path / "model.bundle"
    code, stdout, _ = run(
        capsys, "train", "--task", "lm", "--config", str(config),
        "--data", str(corpus), "--vocab", str(vocab), "--out", str(out),
    )
    assert code == EXIT_OK
    assert out.exists()
    metrics = Path(str(out) + ".metrics")
    assert metrics.exists()
    assert "split=train" in stdout and "ppl=" in stdout

    first_metrics = metrics.read_bytes()
    code, _, _ = run(
        capsys, "train", "--task", "lm", "--config", str(config),
        "--data", str(corpus), "--vocab", str(vocab), "--out", str(out),
    )
    assert code == EXIT_OK
    assert metrics.read_bytes() == first_metrics

    code, eval_out, _ = run(
        capsys, "eval", "--bundle", str(out), "--data", str(corpus), "--vocab", str(vocab),
    )
    assert code == EXIT_OK
    assert "split=eval" in eval_out and "ppl=" in eval_out
    # the repeating corpus is memorizable; eval on it stays under 1.5
    ppl = float(eval_out.split("ppl=")[1].split()[0])
    assert ppl < 1.5
    code, eval_out2, _ = run(
        capsys, "eval", "--bundle", str(out), "--data", str(corpus), "--vocab", str(vocab),
    )
    assert code == EXIT_OK
    assert eval_out2 == eval_out


def test_train_and_eval_graph_round_trip(tmp_path, capsys):
    from kernelnn.inputs import FeatureGraph

    rng = np.random.default_rng(0)
    items = []
    for _ in range(8):
        feats = [rng.normal(size=2) for _ in range(3)]
        items.append(
            (FeatureGraph.undirected(feats, [(0, 1), (1, 2)]), float(np.sum(feats)))
        )
    data = tmp_path / "graphs.txt"
    save_graphs(items, data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"n": 1, "hidden": 4, "lam": 0.5, "layers": 1, "activation": "tanh"},
        "train": {"epochs": 2, "batch": 4, "seed": 1},
        "optimizer": {"kind": "adam", "lr": 0.02},
    }))
    out = tmp_path / "graph.bundle"
    code, stdout, _ = run(
        capsys, "train", "--task", "graph-reg", "--config", str(config),
        "--data", str(data), "--out", str(out),
    )
    assert code == EXIT_OK and out.exists()
    assert "rmse=" in stdout
    code, eval_out, _ = run(capsys, "eval", "--bundle", str(out), "--data", str(data))
    assert code == EXIT_OK
    assert "rmse=" in eval_out
    # held-out lines report the mean squared error, like the train lines
    code, valid_out, _ = run(
        capsys, "train", "--task", "graph-reg", "--config", str(config),
        "--data", str(data), "--valid", str(data), "--out", str(out),
    )
    assert code == EXIT_OK
    for line in [l for l in valid_out.splitlines() if "split=valid" in l] + [eval_out]:
        loss = float(line.split("loss=")[1].split()[0])
        rmse = float(line.split("rmse=")[1].split()[0])
        assert math.isfinite(loss) and loss == pytest.approx(rmse * rmse, rel=1e-5, abs=2e-6)


def test_eval_empty_data_is_input_error(tmp_path, capsys):
    vocab, corpus, config = write_lm_inputs(tmp_path)
    out = tmp_path / "model.bundle"
    run(capsys, "train", "--task", "lm", "--config", str(config),
        "--data", str(corpus), "--vocab", str(vocab), "--out", str(out))
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(capsys, "eval", "--bundle", str(out), "--data", str(empty), "--vocab", str(vocab))
    assert code == EXIT_INPUT
    assert "corpus" in err or "tokens" in err


@pytest.mark.parametrize("tokens", [["<unk>", "a"], ["<unk>", "a", "b", "c", "d"]],
                         ids=["smaller", "larger"])
def test_eval_of_an_lm_bundle_rejects_a_vocab_of_another_size(tmp_path, capsys, tokens):
    _, corpus, config = write_lm_inputs(tmp_path, epochs=1)
    out = tmp_path / "model.bundle"
    code, _, _ = run(capsys, "train", "--task", "lm", "--config", str(config),
                     "--data", str(corpus), "--vocab", str(tmp_path / "vocab.txt"),
                     "--out", str(out))
    assert code == EXIT_OK
    other = tmp_path / "other_vocab.txt"
    other.write_text("\n".join(tokens) + "\n")
    data = tmp_path / "eval.txt"
    data.write_text("a b c d a b\n")
    code, stdout, err = run(capsys, "eval", "--bundle", str(out), "--data", str(data),
                            "--vocab", str(other))
    assert code == EXIT_INPUT and stdout == ""
    assert str(other) in err and str(out) in err
    assert f"holds {len(tokens)} tokens" in err and "vocabulary of 3" in err


def test_eval_bundle_version_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.bundle"
    bad.write_text('{"format_version": 9, "kind": "seq-lm", "config": {}, "seed": 0, "params": {}}')
    code, _, err = run(capsys, "eval", "--bundle", str(bad), "--data", str(bad))
    assert code == EXIT_INPUT
    assert "version" in err


def test_train_divergence_exits_with_numeric_code(tmp_path, capsys):
    vocab, corpus, _ = write_lm_inputs(tmp_path)
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({
        "model": {"n": 1, "hidden": 4, "lam": 0.5, "variant": "mult-unnorm",
                  "activation": "identity"},
        "train": {"epochs": 5, "unroll": 8, "seed": 3},
        "optimizer": {"kind": "sgd", "lr": 1e120},
    }))
    code, _, err = run(
        capsys, "train", "--task", "lm", "--config", str(config),
        "--data", str(corpus), "--vocab", str(vocab), "--out", str(tmp_path / "d.bundle"),
    )
    assert code == EXIT_NUMERIC
    assert "non-finite" in err


def test_train_bad_config_is_input_error(tmp_path, capsys):
    vocab, corpus, _ = write_lm_inputs(tmp_path)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"train": {"bogus_field": 1}}))
    code, _, err = run(
        capsys, "train", "--task", "lm", "--config", str(config),
        "--data", str(corpus), "--vocab", str(vocab), "--out", str(tmp_path / "x.bundle"),
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize("train", [{"dropout": 0.2}, {"batch": 4}], ids=["dropout", "batch"])
def test_train_lm_rejects_dead_train_knobs(tmp_path, capsys, train):
    vocab, corpus, _ = write_lm_inputs(tmp_path)
    config = tmp_path / "knob.json"
    config.write_text(json.dumps({
        "model": {"n": 1, "hidden": 4},
        "train": {"epochs": 1, "unroll": 8, **train},
    }))
    out = tmp_path / "x.bundle"
    code, _, err = run(
        capsys, "train", "--task", "lm", "--config", str(config),
        "--data", str(corpus), "--vocab", str(vocab), "--out", str(out),
    )
    assert code == EXIT_INPUT
    assert list(train)[0] in err
    assert not out.exists()


MODEL = {"n": 1, "hidden": 4}
BAD_CONFIGS = {
    "model-key": ({"model": {**MODEL, "decay_mode": "gated-input"}}, "'decay_mode'"),
    "model-key-typo": ({"model": {**MODEL, "layer": 3}}, "'layer'"),
    "top-level-key": ({"model": MODEL, "optimiser": {"lr": 0.1}}, "'optimiser'"),
    "optimizer-state": ({"model": MODEL, "optimizer": {"step": 3}}, "'step'"),
    "fractional-order": ({"model": {**MODEL, "n": 1.5}}, "n must be an integer"),
    "float-width": ({"model": {**MODEL, "hidden": 4.0}}, "hidden must be an integer"),
    "fractional-epochs": ({"model": MODEL, "train": {"epochs": 1.5}}, "epochs"),
    "string-flag": ({"model": {**MODEL, "decay": "gated-input", "highway": "no"}}, "highway"),
    "nan-rate": ({"model": MODEL, "optimizer": {"lr": float("nan")}}, "lr must be"),
    "section-not-object": ({"model": [1]}, "model config"),
    "config-not-object": ([MODEL], "JSON object"),
    "adam-beta1-one": ({"model": MODEL, "optimizer": {"kind": "adam", "beta1": 1.0}}, "beta1"),
    "adam-beta2-one": ({"model": MODEL, "optimizer": {"kind": "adam", "beta2": 1.0}}, "beta2"),
    "adam-eps-zero": ({"model": MODEL, "optimizer": {"kind": "adam", "eps": 0.0}}, "eps"),
    "negative-clip": ({"model": MODEL, "optimizer": {"clip": -1.0}}, "clip"),
    "negative-lr-decay": ({"model": MODEL, "optimizer": {"lr_decay": -1.0}}, "lr_decay"),
    "zero-epochs": ({"model": MODEL, "train": {"epochs": 0}}, "epochs"),
    "zero-max-steps": ({"model": MODEL, "train": {"max_steps": 0}}, "max_steps"),
    "negative-seed": ({"model": MODEL, "train": {"seed": -2}}, "seed"),
    "sgd-beta1": ({"model": MODEL, "optimizer": {"beta1": 0.5}}, "beta1"),
    # graph regression runs, with the extra arguments they pass
    "graph-reg-unroll": ({"model": MODEL, "train": {"unroll": 5}}, "unroll", ()),
    "graph-reg-vocab": ({"model": MODEL}, "--vocab", ("--vocab", str(FIXTURES / "vocab.txt"))),
}


def test_train_seed_override_is_checked_as_a_config_seed(tmp_path, capsys):
    vocab, corpus, config = write_lm_inputs(tmp_path)
    out = tmp_path / "x.bundle"
    code, stdout, err = run(capsys, "train", "--task", "lm", "--config", str(config),
                            "--data", str(corpus), "--vocab", str(vocab), "--out", str(out),
                            "--seed", "-5")
    assert code == EXIT_INPUT and stdout == ""
    assert err.startswith("error: ") and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_train_rejects_unknown_keys_and_mistyped_values(tmp_path, capsys, case):
    doc, named, *graph_args = BAD_CONFIGS[case]
    vocab, corpus, config = write_lm_inputs(tmp_path)
    config.write_text(json.dumps(doc))
    out = tmp_path / "x.bundle"
    task = ("--task", "lm", "--data", str(corpus), "--vocab", str(vocab))
    if graph_args:
        task = ("--task", "graph-reg", "--data", str(FIXTURES / "graph_reg.txt"), *graph_args[0])
    code, stdout, err = run(capsys, "train", *task, "--config", str(config), "--out", str(out))
    assert code == EXIT_INPUT and stdout == ""
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("model,named", [({"gated": True}, "'gated'"),
                                         ({"composition": "additive"}, "multiplicatively"),
                                         ({"module": "deep"}, "WL graph regressor")],
                         ids=["gated", "additive", "module"])
def test_train_graph_reg_rejects_unimplemented_options(tmp_path, capsys, model, named):
    data = tmp_path / "graphs.txt"
    data.write_text("2 | 1,0 ; 0,1 | 0-1 | 1.5\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"n": 1, "hidden": 2, **model}}))
    out = tmp_path / "graph.bundle"
    code, _, err = run(
        capsys, "train", "--task", "graph-reg", "--config", str(config),
        "--data", str(data), "--out", str(out),
    )
    assert code == EXIT_INPUT
    assert named in err
    assert not out.exists()


def test_train_lm_rejects_highway_with_combination_output(tmp_path, capsys):
    vocab, corpus, _ = write_lm_inputs(tmp_path)
    config = tmp_path / "highway.json"
    config.write_text(json.dumps({
        "model": {"n": 1, "hidden": 4, "highway": True, "output": "combination"},
    }))
    out = tmp_path / "x.bundle"
    code, _, err = run(
        capsys, "train", "--task", "lm", "--config", str(config),
        "--data", str(corpus), "--vocab", str(vocab), "--out", str(out),
    )
    assert code == EXIT_INPUT
    assert "combination" in err
    assert not out.exists()


MISSING_INPUTS = {
    "eval-bundle": lambda d, missing: ["eval", "--bundle", missing, "--data", d["corpus"],
                                       "--vocab", d["vocab"]],
    "kernel-file": lambda d, missing: ["kernel", "--task", "graph", "--file", missing],
    "train-data": lambda d, missing: ["train", "--task", "lm", "--config", d["config"],
                                      "--data", missing, "--vocab", d["vocab"],
                                      "--out", d["out"]],
    "train-vocab": lambda d, missing: ["train", "--task", "lm", "--config", d["config"],
                                       "--data", d["corpus"], "--vocab", missing,
                                       "--out", d["out"]],
}


@pytest.mark.parametrize("case", sorted(MISSING_INPUTS))
def test_missing_input_file_is_input_error(tmp_path, capsys, case):
    vocab, corpus, config = write_lm_inputs(tmp_path)
    paths = {"vocab": str(vocab), "corpus": str(corpus), "config": str(config),
             "out": str(tmp_path / "x.bundle")}
    missing = str(tmp_path / "no-such-file.txt")
    code, _, err = run(capsys, *MISSING_INPUTS[case](paths, missing))
    assert code == EXIT_INPUT
    assert missing in err


def _bad_payload(doc):
    doc["params"]["out_b"]["data"] = base64.b64encode(b"\0" * 7).decode("ascii")


def _nan_entry(doc):
    embed = doc["params"]["embed"]
    values = np.frombuffer(base64.b64decode(embed["data"]), dtype="<f8").copy()
    values[1] = np.nan
    embed["data"] = base64.b64encode(values.tobytes()).decode("ascii")


BAD_BUNDLES = {
    "no-kind": (lambda doc: doc.pop("kind"), "lacks kind"),
    "no-config": (lambda doc: doc.pop("config"), "lacks config"),
    "no-seed": (lambda doc: doc.pop("seed"), "lacks seed"),
    "payload-length": (_bad_payload, "undecodable"),
    "nan-entry": (_nan_entry, "param 'embed': non-finite value"),
    "missing-param": (lambda doc: doc["params"].pop("out_b"), "missing ['out_b']"),
    "extra-param": (lambda doc: doc["params"].update(extra=doc["params"]["out_b"]),
                    "extra ['extra']"),
    "wrong-shape": (lambda doc: doc["params"]["out_b"].update(shape=[1, 3]), "'out_b' has shape"),
    "config-without-n": (lambda doc: doc["config"].pop("n"), "model config"),
}


@pytest.mark.parametrize("case", sorted(BAD_BUNDLES))
def test_eval_bad_bundle_is_input_error(tmp_path, capsys, case):
    from kernelnn.io import bundle_from_lm, save_bundle
    from kernelnn.seq_nn import SeqModelConfig
    from kernelnn.train import init_lm_model

    vocab, corpus, _ = write_lm_inputs(tmp_path)
    model = init_lm_model(SeqModelConfig(n=1, hidden=2), vocab_size=3,
                          rng=np.random.default_rng(0))
    path = tmp_path / "model.bundle"
    save_bundle(bundle_from_lm(model, seed=0), path)
    code, _, _ = run(capsys, "eval", "--bundle", str(path), "--data", str(corpus),
                     "--vocab", str(vocab))
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    edit, fragment = BAD_BUNDLES[case]
    edit(doc)
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "eval", "--bundle", str(path), "--data", str(corpus),
                       "--vocab", str(vocab))
    assert code == EXIT_INPUT
    assert str(path) in err and fragment in err


BAD_GRAPH_REG_INPUTS = {
    # (which file is bad, its contents, what the error names besides the file)
    "valid-without-targets": ("valid", "2 | 1,0 ; 0,1 | 0-1\n", "target"),
    "valid-other-width": ("valid", "2 | 1,0,2 ; 0,1,2 | 0-1 | 1.0\n", "width 3"),
    "eval-other-width": ("eval", "1 | 1,0,2 | | 1.0\n", "width 3"),
    "eval-without-targets": ("eval", "1 | 1,0 |\n", "target"),
}


@pytest.mark.parametrize("case", sorted(BAD_GRAPH_REG_INPUTS))
def test_graph_reg_input_files_are_checked_before_training(tmp_path, capsys, case):
    which, text, fragment = BAD_GRAPH_REG_INPUTS[case]
    data = tmp_path / "graphs.txt"
    data.write_text("2 | 1,0 ; 0,1 | 0-1 | 1.5\n3 | 1,1 ; 0,1 ; 2,0 | 0-1 1-2 | -0.5\n")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"n": 2, "hidden": 3}, "train": {"epochs": 1}}))
    out = tmp_path / "graph.bundle"
    train = ["train", "--task", "graph-reg", "--config", str(config), "--data", str(data),
             "--out", str(out)]
    if which == "valid":
        code, stdout, err = run(capsys, *train, "--valid", str(bad))
        assert not out.exists() and "epoch=" not in stdout
    else:
        assert run(capsys, *train)[0] == EXIT_OK
        code, _, err = run(capsys, "eval", "--bundle", str(out), "--data", str(bad))
    assert code == EXIT_INPUT
    assert str(bad) in err and fragment in err
    if "width" in case:
        assert "expects 2" in err


def test_eval_of_a_graph_bundle_rejects_vocab(tmp_path, capsys):
    data = str(FIXTURES / "graph_reg.txt")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"n": 1, "hidden": 2},
                                  "optimizer": {"kind": "adam", "lr": 0.02}}))
    out = tmp_path / "graph.bundle"
    code, _, _ = run(capsys, "train", "--task", "graph-reg", "--config", str(config),
                     "--data", data, "--out", str(out))
    assert code == EXIT_OK
    code, stdout, err = run(capsys, "eval", "--bundle", str(out), "--data", data,
                            "--vocab", str(FIXTURES / "vocab.txt"))
    assert code == EXIT_INPUT
    assert stdout == "" and "--vocab" in err


def test_eval_reads_a_graph_bundle_written_before_modules_had_names(tmp_path, capsys):
    # such a bundle's config holds "gated": false where it now holds "module": "wl"
    data = str(FIXTURES / "graph_reg.txt")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"n": 2, "hidden": 3, "layers": 2},
                                  "optimizer": {"kind": "adam", "lr": 0.02}}))
    out = tmp_path / "graph.bundle"
    assert run(capsys, "train", "--task", "graph-reg", "--config", str(config),
               "--data", data, "--out", str(out))[0] == EXIT_OK
    code, want, _ = run(capsys, "eval", "--bundle", str(out), "--data", data)
    assert code == EXIT_OK and want
    doc = json.loads(out.read_text())
    assert doc["config"].pop("module") == "wl"
    old = tmp_path / "old.bundle"
    for gated, exit_code, printed in ((False, EXIT_OK, want), (True, EXIT_INPUT, "")):
        old.write_text(json.dumps({**doc, "config": {**doc["config"], "gated": gated}}))
        code, got, err = run(capsys, "eval", "--bundle", str(old), "--data", data)
        assert (code, got) == (exit_code, printed)
    assert "'gated'" in err  # no bundle ever held a gated module


def test_eval_reads_an_order_one_graph_bundle_written_with_another_lam(tmp_path, capsys):
    # n = 1 now refuses a lam other than the default, which no module reads there
    data = str(FIXTURES / "graph_reg.txt")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"n": 1, "hidden": 3},
                                  "optimizer": {"kind": "adam", "lr": 0.02}}))
    out = tmp_path / "graph.bundle"
    assert run(capsys, "train", "--task", "graph-reg", "--config", str(config),
               "--data", data, "--out", str(out))[0] == EXIT_OK
    code, want, _ = run(capsys, "eval", "--bundle", str(out), "--data", data)
    assert code == EXIT_OK and want
    doc = json.loads(out.read_text())
    old = tmp_path / "old.bundle"
    for lam in (0.0, 0.3, 2.0):
        old.write_text(json.dumps({**doc, "config": {**doc["config"], "lam": lam}}))
        assert run(capsys, "eval", "--bundle", str(old), "--data", data)[:2] == (EXIT_OK, want)


def test_graph_reg_untargeted_record_is_named_by_its_line(tmp_path, capsys):
    data = tmp_path / "graphs.txt"
    data.write_text("# header\n\n1 | 1,2 | | 0.5\n1 | 3,4 |\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"n": 1, "hidden": 2}}))
    out = tmp_path / "graph.bundle"
    code, _, err = run(capsys, "train", "--task", "graph-reg", "--config", str(config),
                       "--data", str(data), "--out", str(out))
    assert code == EXIT_INPUT
    assert f"{data}:4: " in err and "target" in err
    assert not out.exists()


if __name__ == "__main__":
    goldens = {case: seq_sweep_lines(case) for case in SEQ_SWEEP}
    SEQ_SWEEP_GOLDEN.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {len(goldens)} cases to {SEQ_SWEEP_GOLDEN}", file=sys.stderr)
