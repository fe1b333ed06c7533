"""One fresh benchmark process: import kernelnn, warm up, run rounds, check outputs.

``setup`` mode times ``import kernelnn`` plus one warm-up call and exits.
``run`` mode makes the workload's rounds of CLI calls through
``kernelnn.cli.main`` in this one process, one call after the other (a closed
loop with a single caller), checks every output, and writes raw timings,
failure counts, peak RSS and (when tracing) the per-layer metrics to a JSON
result file.  Run it through ``run.py``, which writes the inputs first.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
import statistics  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from kernelnn import cli  # noqa: E402
from kernelnn import io as kio  # noqa: E402
from kernelnn.graph_kernel import (  # noqa: E402
    FeatureGraph,
    GraphKernelConfig,
    WLRelabelParams,
    gated_random_walk_kernel,
    random_walk_kernel,
    reference_walk,
    wl_kernel,
)
from kernelnn.graph_nn import wl_forward  # noqa: E402
from kernelnn.seq_kernel import (  # noqa: E402
    MULTIPLICATIVE,
    NORMALIZED,
    FeatureSequence,
    SeqKernelConfig,
    gated_string_kernel_state,
    string_kernel,
)
from kernelnn.seq_nn import forward_stack  # noqa: E402
from kernelnn.tensor import Activation, Tensor  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

STATE_TOL = 1e-10
VALUE_RTOL = 1e-12
GATE_WINDOW = 12
SETUP_SPEED_LOOPS = 10  # speed loops timed right after a set-up probe
PROBE_NODES = 7
BUNDLES = {"lm_train": "lm.bundle", "graph_train": "graph.bundle"}
LOSS_RE = re.compile(r"loss=(\S+)")
METRIC_RE = re.compile(r"(?:rmse|ppl)=(\S+)")


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(got), abs(want))


# ---------------------------------------------------------------------------
# correctness gates: the program's output against direct oracle calls
# ---------------------------------------------------------------------------


def lm_state_gate(data: Path) -> bool:
    """Layer-1 states of the trained bundle equal the gated string kernel."""
    model = kio.lm_from_bundle(kio.load_bundle(data / "lm.bundle"))
    vocab, _ = kio.load_vocab(data / "lm_vocab.txt")
    ids = kio.flatten_corpus(kio.load_corpus(data / "lm_valid.txt", vocab))[:GATE_WINDOW]
    cols = [model.embed.data[:, i] for i in ids]
    trace = forward_stack([Tensor(c) for c in cols], model.layers, model.cfg)
    gates = trace.decay_arrays(model.cfg.hidden, layer=0)
    ws = [w.data for w in model.layers[0].W]
    x = FeatureSequence(cols)
    normalized = model.cfg.variant == "mult-norm"
    worst = 0.0
    for j in range(1, model.cfg.n + 1):
        for t in range(1, len(ids) + 1):
            got = trace.state(j, t, layer=0).data
            for i in range(model.cfg.hidden):
                want = gated_string_kernel_state(x, gates, ws[:j], i, t=t, normalized=normalized)
                worst = max(worst, rel_err(float(got[i]), want))
    return worst <= STATE_TOL


def graph_state_gate(data: Path, seed: int) -> bool:
    """Summed layer-1 states of the trained WL model equal the walk kernel."""
    model = kio.graph_from_bundle(kio.load_bundle(data / "graph.bundle"))
    rng = np.random.default_rng([seed, PROBE_NODES])
    edges = wl.connected_edges(rng, PROBE_NODES, 3)
    g = FeatureGraph.undirected(list(rng.normal(size=(PROBE_NODES, wl.GRAPH_DIM))), edges)
    cfg = model.cfg
    total = wl_forward(g, model.wl, cfg).state_sum(cfg.n, layer=0)
    ws = [w.data for w in model.wl.layer_W[0]]
    kcfg = GraphKernelConfig(n=cfg.n, lam=cfg.lam)
    worst = max(rel_err(float(total[k]), random_walk_kernel(g, reference_walk(ws, k), kcfg))
                for k in range(cfg.hidden))
    return worst <= STATE_TOL


def onehot_pairs(data: Path) -> list[tuple[FeatureSequence, FeatureSequence]]:
    vocab, tokens = kio.load_vocab(data / "seq_vocab.txt")
    sents = kio.load_corpus(data / "seq_pairs.txt", vocab)
    eye = np.eye(len(tokens))

    def seq(ids):
        return FeatureSequence([eye[i].copy() for i in ids], dim=len(tokens))

    return [(seq(sents[i]), seq(sents[i + 1])) for i in range(0, len(sents), 2)]


def direct_values(kind: str, data: Path, seed: int) -> list[float]:
    """What each kernel call should print, computed without the CLI."""
    if kind == "seq":
        cfg = SeqKernelConfig(n=wl.KERNEL_ORDER, lam=wl.KERNEL_LAMBDA,
                              composition=MULTIPLICATIVE, normalization=NORMALIZED)
        return [string_kernel(x, y, cfg) for x, y in onehot_pairs(data)]
    name = "gated_pairs.txt" if kind == "gated" else "walk_pairs.txt"
    graphs = [g for g, _ in kio.load_graphs(data / name)]
    d = graphs[0].dim
    kcfg = GraphKernelConfig(n=wl.KERNEL_ORDER, lam=wl.KERNEL_LAMBDA)
    # the CLI draws relabel and gate parameters per pair, in this order, from --seed
    rng = np.random.default_rng(seed)
    out = []
    for g1, g2 in zip(graphs[0::2], graphs[1::2]):
        if kind == "walk":
            out.append(random_walk_kernel(g1, g2, kcfg))
        elif kind == "wl":
            relabel = WLRelabelParams(u1=rng.normal(size=(d, d)), u2=rng.normal(size=(d, d)),
                                      v=rng.normal(size=(d, d)), activation=Activation.TANH)
            out.append(wl_kernel(g1, g2, kcfg, wl.WL_DEPTH, relabel))
        else:
            u, b = rng.normal(size=(1, 2 * d)), rng.normal(size=1)
            out.append(float(gated_random_walk_kernel(g1, g2, u, b, wl.KERNEL_ORDER)[0]))
    return out


def values_match(printed: str, want: list[float]) -> bool:
    try:
        got = [float(v) for v in printed.split()]
    except ValueError:
        return False
    return len(got) == len(want) and all(
        abs(a - b) <= VALUE_RTOL * max(abs(a), abs(b)) for a, b in zip(got, want))


def finite_below(out: str, pattern: re.Pattern, bound: float) -> bool:
    found = pattern.findall(out)
    return bool(found) and all(math.isfinite(float(v)) and float(v) < bound for v in found)


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------


class Runner:
    """Issues calls, checks each output, and keeps the reference outputs."""

    def __init__(self, data: Path, seed: int) -> None:
        self.data = data
        self.seed = seed
        self.reference: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def invoke(self, kind: str) -> tuple[float, bool]:
        """One call of ``kind``: its wall time and whether its output is right."""
        out, err = io.StringIO(), io.StringIO()
        codes = []
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in wl.cli_argv(kind, self.data, self.seed):
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:  # argparse refusals
                    codes.append(exc.code)
                except Exception as exc:  # noqa: BLE001 - a crash is a failed call
                    codes.append(-1)
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        try:
            ok = all(c == 0 for c in codes) and self.check(kind, out.getvalue())
        except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
            ok = False
            err.write(f" check raised {type(exc).__name__}: {exc}")
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{kind}: codes={codes} {err.getvalue().strip()[:300]}")
        return elapsed, ok

    def check(self, kind: str, out: str) -> bool:
        """Later calls must reproduce the first correct output byte for byte."""
        if kind == "verify":
            return out.count("overall=pass") == len(wl.VERIFY_SUITES) and "overall=fail" not in out
        produced = (self.data / BUNDLES[kind]).read_bytes() if kind in BUNDLES else out
        if kind in self.reference:
            return produced == self.reference[kind]
        if self.first_check(kind, out):
            self.reference[kind] = produced
            return True
        return False

    def first_check(self, kind: str, out: str) -> bool:
        """The gates: the first output of a kind against the oracles."""
        if kind == "lm_train":
            return finite_below(out, LOSS_RE, math.inf) and lm_state_gate(self.data)
        if kind == "graph_train":
            return finite_below(out, LOSS_RE, math.inf) and graph_state_gate(self.data, self.seed)
        if kind == "lm_eval":
            return finite_below(out, LOSS_RE, math.log(wl.LM_VOCAB))
        if kind == "graph_eval":
            return finite_below(out, METRIC_RE, math.inf)
        return values_match(out, direct_values(kind, self.data, self.seed))


def calibration_s(repeats: int = 1) -> float:
    """Mean time of a fixed numpy and Python loop: it follows the machine, not the program."""
    a, x, total = np.full((16, 16), 0.5), np.ones(16), 0.0
    start = time.perf_counter()
    for _ in range(repeats):
        for i in range(1500):
            total += float((a @ x)[i % 16])
    return (time.perf_counter() - start) / repeats


def run(args) -> dict:
    workload = wl.WORKLOADS[args.workload]
    runner = Runner(Path(args.data), args.seed)
    tracer = Tracer() if args.trace else None
    # warm-up: one untimed call of each kind, which also runs every gate.  The
    # workload's own kinds go first and set the peak RSS it reports, so the
    # padding calls cannot raise it.
    for kind in workload.own:
        runner.invoke(kind)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for kind in dict.fromkeys(workload.round):
        if kind not in workload.own:
            runner.invoke(kind)
    samples: dict[str, list[float]] = {k: [] for k in wl.KINDS}
    rounds: list[tuple[bool, float]] = []
    # The machine's speed changes within seconds, so the speed loop runs just
    # before every call; its time is kept out of the round time.
    calibration: list[float] = []
    call = 0
    start = time.perf_counter()
    while len(rounds) < 2 or (
        time.perf_counter() - start
        + sum(t for _, t in rounds) / len(rounds) <= args.seconds
    ):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(layers.TARGETS)
        round_start = time.perf_counter()
        for kind in workload.round:
            calibration.append(calibration_s())
            root = tracer.begin(layers.ROOT, tag=kind, run=call) if traced else None
            elapsed, ok = runner.invoke(kind)
            if traced:
                tracer.end(root)
            elif ok:
                samples[kind].append(elapsed)
            call += 1
        rounds.append((traced, time.perf_counter() - round_start
                       - sum(calibration[-len(workload.round):])))
        if traced:
            tracer.uninstall()
    result = {
        "samples": samples,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors[:20],
        "peak_rss_mb": peak_rss_mb,
        "rounds": len(rounds),
        "round_s": sum(t for traced, t in rounds if not traced),
        "calibration_ms": [1000.0 * t for t in calibration],
    }
    if tracer is not None:
        # Each round's time over its mean speed-loop time, so that a change of
        # machine speed between rounds does not show as tracing overhead.
        n = len(workload.round)
        scaled = [(traced, t / statistics.fmean(calibration[i * n:(i + 1) * n]))
                  for i, (traced, t) in enumerate(rounds)]
        result["overhead_pct"] = 100.0 * (
            statistics.fmean(t for traced, t in scaled if traced)
            / statistics.fmean(t for traced, t in scaled if not traced) - 1.0)
        result["layers"] = layers.layer_metrics(tracer.spans, tracer.missing, workload)
        result["layer_share"] = layers.layer_share(
            tracer.spans, sum(t for traced, t in rounds if traced))
        result["missing"] = sorted(tracer.missing)
        if args.spans:
            tracer.dump(args.spans)
    return result


def setup(args) -> dict:
    workload = wl.WORKLOADS[args.workload]
    runner = Runner(Path(args.data) / "warm", args.seed)
    imported = time.perf_counter() - T0
    elapsed, ok = runner.invoke(workload.setup_kind)  # its output check is not timed
    return {"setup_s": imported + elapsed, "calibration_ms": 1000.0 * calibration_s(SETUP_SPEED_LOOPS),
            "ok": ok, "errors": runner.errors}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("run", "setup"))
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    p.add_argument("--result", required=True)
    args = p.parse_args()
    result = run(args) if args.mode == "run" else setup(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
