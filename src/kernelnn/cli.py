"""Command-line surface: kernel values, verification sweeps, training, eval.

Exit codes: 0 success, 1 verification failure, 2 input/config error,
4 non-finite numerics.  No command runs an oracle past its guard, so none exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as kio
from .errors import ConfigError, DataError, EvaluationError, KernelNNError
from .graph_dp import deep_graph_kernel, gated_random_walk_kernel, random_walk_kernel, wl_kernel
from .graph_nn import GraphModelConfig
from .inputs import ADDITIVE, FeatureGraph, GraphKernelConfig, SeqKernelConfig, WLRelabelParams
from .seq_dp import deep_sequence_kernel, string_kernel
from .seq_nn import SeqModelConfig
from .tensor import Activation
from .train import (
    MetricRecord,
    OptimizerState,
    TrainConfig,
    eval_graph_reg,
    eval_lm,
    init_graph_model,
    init_lm_model,
    train_graph_reg,
    train_lm,
)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 4
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer the pipe killed

SEQ_VARIANTS = {
    "mult-unnorm": ("multiplicative", "unnormalized"),
    "mult-norm": ("multiplicative", "normalized"),
    "add-unnorm": ("additive", "unnormalized"),
    "add-norm": ("additive", "normalized"),
}
GRAPH_VARIANTS = ("walk", "wl", "deep")
# (smallest, default) --depth of each kernel that has one
KERNEL_DEPTHS = {"seq": (1, 1), "wl": (0, 1), "deep": (1, 2)}


def format_value(v: float) -> str:
    """12 significant digits past the leading one; exact zero prints as 0."""
    if v == 0.0:
        return "0"
    out = f"{v:#.13g}"
    return out[:-1] if out.endswith(".") else out


@functools.cache  # once per process; holding no cmd_* function, it lets main look each up per call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kernelnn")
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="print kernel values for consecutive input pairs")
    k.add_argument("--task", choices=("seq", "graph"), required=True)
    k.add_argument("--file", required=True)
    k.add_argument("--vocab", help="vocabulary file (seq task; tokens are compared by id)")
    k.add_argument("--n", type=int, default=2)
    k.add_argument("--lambda", dest="lam", type=float, default=0.5)
    k.add_argument("--variant", default=None,
                   help="seq: mult-unnorm|mult-norm|add-unnorm|add-norm; graph: walk|wl|deep")
    k.add_argument("--depth", type=int, default=None,
                   help="stacking depth (seq) or relabel/stack depth (graph)")
    k.add_argument("--gated", action="store_true",
                   help="graph task: gate-weighted walk kernel, parameters drawn from --seed")
    k.add_argument("--seed", type=int, default=None)

    v = sub.add_parser("verify", help="run equivalence/validity sweeps")
    v.add_argument("--suite", default="all", help=f"one of {sorted(SUITES)} or all")
    v.add_argument("--seeds", type=int, default=None)
    v.add_argument("--tol", type=float, default=None)

    g = sub.add_parser("gradcheck", help="alias for verify --suite gradcheck")
    g.add_argument("--seeds", type=int, default=None)
    g.add_argument("--tol", type=float, default=None)

    t = sub.add_parser("train", help="train a toy model and write a bundle")
    t.add_argument("--task", choices=("lm", "graph-reg"), required=True)
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--vocab", help="vocabulary file (lm task)")
    t.add_argument("--valid", help="held-out data file")
    t.add_argument("--out", required=True)
    t.add_argument("--metrics", help="metrics file (default: <out>.metrics)")
    t.add_argument("--seed", type=int, default=None, help="override the config seed")

    e = sub.add_parser("eval", help="evaluate a bundle on a data file")
    e.add_argument("--bundle", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--vocab", help="vocabulary file (lm bundles)")
    e.add_argument("--metrics", help="metrics file (optional)")
    return parser


# ---------------------------------------------------------------------------
# kernel command
# ---------------------------------------------------------------------------


def _kernel_depth(kernel: str, depth: int | None) -> int | None:
    """The depth the kernel runs at; a depth it cannot take is a config error."""
    low, default = KERNEL_DEPTHS.get(kernel, (None, None))
    if depth is None:
        return default
    if low is None:
        raise ConfigError(f"--depth does not apply to the {kernel} kernel")
    if depth < low:
        raise ConfigError(f"the {kernel} kernel needs --depth >= {low}, got {depth}")
    return depth


def _kernel(args):
    """The kernel's name, its value of one pair, and the inputs that pair up consecutively.

    Seq inputs are the corpus lines as token-id arrays.  Each distinct
    out-of-vocabulary token has its own id, so it matches only itself.
    """
    if args.task == "seq":
        if args.gated:
            raise ConfigError("--gated applies to --task graph only")
        kernel, variant = "seq", args.variant or "mult-unnorm"
        if variant not in SEQ_VARIANTS:
            raise ConfigError(f"unknown sequence variant {variant!r}")
        composition, normalization = SEQ_VARIANTS[variant]
        cfg = SeqKernelConfig(n=args.n, lam=args.lam, composition=composition,
                              normalization=normalization)
        if not args.vocab:
            raise DataError("seq kernels need --vocab to map tokens to ids")
    else:
        if args.vocab:
            raise ConfigError("--vocab applies to --task seq only")
        variant = args.variant or "walk"
        if variant not in GRAPH_VARIANTS:
            raise ConfigError(f"unknown graph variant {variant!r}")
        if args.gated and args.variant is not None:
            raise ConfigError("--gated takes no --variant")
        kernel = "gated" if args.gated else variant
        cfg = GraphKernelConfig(n=args.n, lam=args.lam)
        rng = np.random.default_rng(args.seed or 0)  # draws the wl and gated parameters
    depth = _kernel_depth(kernel, args.depth)
    if kernel == "deep":
        cfg = replace(cfg, composition=ADDITIVE, depth=depth)
    if kernel == "seq":
        vocab, _ = kio.load_vocab(args.vocab)
        items = [np.array(s) for s in kio.load_corpus(args.file, vocab, distinct_unknowns=True)]
    else:
        items = [g for g, _ in kio.load_graphs(args.file)]

    def value(x, y) -> float:
        if kernel == "seq":
            # one-hot tokens: the inner product of two tokens is whether their ids match
            sim = (x[:, None] == y[None, :]).astype(np.float64)
            return deep_sequence_kernel(sim, depth, cfg) if depth > 1 else string_kernel(sim, cfg)
        if kernel == "gated":
            u, b = rng.normal(size=(1, 2 * x.dim)), rng.normal(size=1)
            return float(gated_random_walk_kernel(x, y, u, b, cfg.n)[0])
        if kernel == "wl":
            relabel = WLRelabelParams(*rng.normal(size=(3, x.dim, x.dim)), Activation.TANH)
            return wl_kernel(x, y, cfg, depth, relabel)
        return (random_walk_kernel if kernel == "walk" else deep_graph_kernel)(x, y, cfg)

    return kernel, value, items


def cmd_kernel(args) -> int:
    # walk ignores --seed, and gated --lambda (checked all the same), until the
    # benchmark's argv stops passing them
    if args.seed is not None and (args.seed < 0 or args.task == "seq" or args.variant == "deep"):
        raise ConfigError(f"--seed must be >= 0 and only wl and --gated read it, got {args.seed}")
    kernel, value, items = _kernel(args)
    if len(items) % 2 != 0:
        what = "lines" if args.task == "seq" else "graphs"
        raise DataError(f"{args.file}: need an even number of {what}, got {len(items)}")
    # overflow shows as a non-finite value, checked below, not as a numpy warning
    with np.errstate(all="ignore"):
        for i in range(0, len(items), 2):
            try:
                v = value(items[i], items[i + 1])
            except (OverflowError, ValueError):  # lam**(n-1) or an fsum of terms that overflowed
                v = math.nan
            if not math.isfinite(v):
                raise EvaluationError(f"{args.file}: pair {i // 2 + 1}: the {kernel} kernel "
                                      f"value is not finite ({v})")
            print(format_value(v))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.tol is not None and args.suite == "all":  # refused before any suite runs
        raise ConfigError("--tol needs one --suite: smoke-train and decay-ordering check none")
    all_passed = True
    for name in names:
        report = run_suite(name, seeds=args.seeds, tol=args.tol)
        for result in report.results:
            print(result.line())
        print(f"suite={report.name} overall={'pass' if report.passed else 'fail'}")
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# train / eval commands
# ---------------------------------------------------------------------------


def _load_json(path) -> dict:
    try:
        return json.loads(kio.read_text(Path(path)))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: invalid JSON") from None


def _configs(doc, task: str, seed_override):
    """The model, train and optimizer sections of a train config, each as its dataclass."""
    kio.check_keys(doc, ("model", "train", "optimizer"), "top-level")
    model_cls = SeqModelConfig if task == "lm" else GraphModelConfig
    cfg = kio.config_from_dict(model_cls, doc.get("model", {}), "model")
    tc = kio.config_from_dict(TrainConfig, doc.get("train", {}), "train")
    if seed_override is not None:
        tc = replace(tc, seed=seed_override)  # checked as a config seed is
    return cfg, tc, kio.config_from_dict(OptimizerState, doc.get("optimizer", {}), "optimizer")


def _emit_metrics(records, metrics_path) -> None:
    lines = [r.line() for r in records]
    for line in lines:
        print(line)
    if metrics_path:
        Path(metrics_path).write_text("\n".join(lines) + ("\n" if lines else ""))


def cmd_train(args) -> int:
    doc = _load_json(args.config)
    cfg, tc, opt = _configs(doc, args.task, args.seed)
    metrics_path = args.metrics or (args.out + ".metrics")
    if args.task == "lm":
        if not args.vocab:
            raise DataError("lm training needs --vocab")
        vocab, tokens = kio.load_vocab(args.vocab)
        ids = kio.flatten_corpus(kio.load_corpus(args.data, vocab))
        valid_ids = None
        if args.valid:
            valid_ids = kio.flatten_corpus(kio.load_corpus(args.valid, vocab))
        model = init_lm_model(cfg, len(tokens), rng=np.random.default_rng(tc.seed))
        model, records = train_lm(model, ids, tc, opt, valid_ids=valid_ids)
        kio.save_bundle(kio.bundle_from_lm(model, tc.seed), args.out)
    else:
        if args.vocab:
            raise ConfigError("--vocab applies to --task lm only")
        graphs, targets = kio.load_graph_targets(args.data)
        in_dim = graphs[0].dim
        model = init_graph_model(cfg, in_dim, rng=np.random.default_rng(tc.seed))
        valid = kio.load_graph_targets(args.valid, in_dim) if args.valid else None
        model, records = train_graph_reg(model, graphs, targets, tc, opt, valid=valid)
        kio.save_bundle(kio.bundle_from_graph(model, tc.seed), args.out)
    _emit_metrics(records, metrics_path)
    return EXIT_OK


def cmd_eval(args) -> int:
    bundle = kio.load_bundle(args.bundle)
    decoders = {"seq-lm": kio.lm_from_bundle, "graph-reg": kio.graph_from_bundle}
    if bundle.kind not in decoders:
        raise DataError(f"{args.bundle}: unknown bundle kind {bundle.kind!r}")
    try:
        model = decoders[bundle.kind](bundle)
    except (DataError, ConfigError) as exc:
        raise DataError(f"{args.bundle}: {exc}") from None
    if bundle.kind == "seq-lm":
        if not args.vocab:
            raise DataError("evaluating a language model needs --vocab")
        vocab, tokens = kio.load_vocab(args.vocab)
        if len(tokens) != model.vocab_size:
            raise DataError(f"{args.vocab}: vocabulary holds {len(tokens)} tokens, but the model "
                            f"in {args.bundle} has a vocabulary of {model.vocab_size}")
        ids = kio.flatten_corpus(kio.load_corpus(args.data, vocab))
        loss, ppl = eval_lm(model, ids)
        records = [MetricRecord(0, "eval", loss, ppl, "ppl")]
    else:
        if args.vocab:
            raise ConfigError("--vocab applies to lm bundles only")
        graphs, targets = kio.load_graph_targets(args.data, model.in_dim)
        rmse = eval_graph_reg(model, FeatureGraph.union(graphs), targets)
        records = [MetricRecord(0, "eval", rmse * rmse, rmse, "rmse")]
    _emit_metrics(records, args.metrics)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "kernel":
            return cmd_kernel(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "gradcheck":
            args.suite = "gradcheck"
            return cmd_verify(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except KernelNNError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`kernelnn kernel ... | head -1`).  As the Python
        # docs advise, point stdout at devnull so that the interpreter's own
        # flush at exit does not fail a second time, and end without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
