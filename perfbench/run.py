"""kernelnn benchmark: one seeded workload through the public CLI, end to end.

    python3 perfbench/run.py --workload lm|graph|oracle --seed N --seconds S --trace 0|1

Run it from the repository root.  It writes the workload's inputs from the
seed, times ``import kernelnn`` plus one warm-up call in several fresh
processes (``setup_s``), then runs the workload in one more fresh process
for about S seconds and checks every output.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics, their
times scaled to a reference machine speed (see ``REFERENCE_MS``); with
``--trace 1`` it holds the per-layer metrics of a traced run instead, and
the spans go to ``.perfbench_out/``.  It exits non-zero without a result if
the program cannot be imported or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

# Set-up is timed in fresh processes, four before the run and three after it,
# so that its median does not rest on one short stretch of the machine's speed.
SETUP_PROBES = (4, 3)
DEADLINE_S = 170.0
AFTER_RUN_S = 30.0  # of the deadline, kept for the set-up probes after the run
BLAS_THREAD_CAP = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LIMITS = ("wall-clock perf_counter timers inside our own processes only; "
          "no system-wide tracers, no cache dropping, no cgroup or kernel settings")

# The call kind each throughput or time metric is taken from.  Units and
# directions come from BENCHMARK.json.
RATES = {
    "train_tokens_per_s": "lm_train",
    "eval_tokens_per_s": "lm_eval",
    "train_graphs_per_s": "graph_train",
    "eval_graphs_per_s": "graph_eval",
    "seq_pairs_per_s": "seq",
    "walk_pairs_per_s": "walk",
    "wl_pairs_per_s": "wl",
    "gated_pairs_per_s": "gated",
}
TIMES = {"verify_s": "verify"}

# The machine's speed swings by up to 1.8x within seconds, and a 36 s run
# does not average that out.  So every time is scaled to a reference speed:
# the worker times a fixed numpy and Python loop (no kernelnn) before every
# call, and a time measured while that loop took C ms on average is reported
# as time * REFERENCE_MS / C.  A change to the program does not move C.
REFERENCE_MS = 3.0


def spec(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run, in its order."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["per_layer" if trace else "end_to_end"]


def blas_threads() -> int:
    return min(os.cpu_count() or 1, BLAS_THREAD_CAP)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("KERNELNN_THREADS", None)
    for name in BLAS_ENV:
        env[name] = str(blas_threads())
    return env


def machine(calibration_ms: list[float]) -> dict:
    """The host, and the speed loop timed before every call: its mean scales
    the run's times; its fastest and slowest show how far the speed swung."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas_threads(),
            "platform": platform.platform(), "limits": LIMITS,
            "calibration_ms": {"mean": statistics.fmean(calibration_ms),
                               "reference": REFERENCE_MS, "loops": len(calibration_ms),
                               "min": min(calibration_ms), "max": max(calibration_ms)}}


def at_reference(seconds: float, calibration_ms: float) -> float:
    """A time measured while the speed loop took ``calibration_ms``, at the reference speed."""
    return seconds * REFERENCE_MS / calibration_ms


def worker(mode: str, args, data: Path, result: Path, timeout: float, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--data", str(data), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=max(timeout, 1.0),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"{mode} process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def end_to_end(workload: wl.Workload, setups: list[dict], res: dict) -> dict[str, dict]:
    """Each metric as {value, raw, samples}: ``raw`` is the unscaled wall-clock figure.

    A throughput is the work of all of a kind's calls over their summed time,
    and ``verify_s`` the mean sweep time: calls fall in fast and slow spells
    of the machine, and a median over them flips between the two.
    ``setup_s`` is the median over the set-up processes, each scaled by its
    own speed loop.
    """
    items = wl.item_counts(workload.sizes)
    speed_ms = statistics.fmean(res["calibration_ms"])
    out = {
        "setup_s": {"value": statistics.median(at_reference(p["setup_s"], p["calibration_ms"])
                                               for p in setups),
                    "raw": statistics.median(p["setup_s"] for p in setups),
                    "samples": len(setups)},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "raw": res["peak_rss_mb"], "samples": 1},
    }
    for name, kind in {**RATES, **TIMES}.items():
        ts = res["samples"][kind]
        if not ts:
            out[name] = {"value": None, "raw": None, "samples": 0}
            continue
        raw = (items[kind] * len(ts) / sum(ts)) if name in RATES else statistics.fmean(ts)
        scale = speed_ms / REFERENCE_MS if name in RATES else REFERENCE_MS / speed_ms
        out[name] = {"value": raw * scale, "raw": raw, "samples": len(ts)}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "kernelnn" / "__init__.py").is_file():
        print(f"error: no kernelnn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work = ROOT / f".perfbench_work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        declared = spec(args.trace)
        data = work / "data"
        salt = sorted(wl.WORKLOADS).index(args.workload)
        wl.write_inputs(workload.sizes, args.seed, salt, data)
        wl.write_inputs(wl.SMALL, args.seed, salt, data / "warm")
        setups, errors = [], []

        def left(reserve: float = 0.0) -> float:
            return DEADLINE_S - reserve - (time.perf_counter() - started)

        def setup_probes(count: int) -> None:
            for _ in range(count):
                probe = worker("setup", args, data, work / f"setup{len(setups)}.json",
                               min(60.0, left()), None)
                setups.append(probe)
                errors.extend(probe["errors"])

        setup_probes(SETUP_PROBES[0])
        spans = None
        if args.trace:
            (ROOT / ".perfbench_out").mkdir(exist_ok=True)
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        res = worker("run", args, data, work / "run.json", left(AFTER_RUN_S), spans)
        setup_probes(SETUP_PROBES[1])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = res["attempted"] + len(setups)
    failed = res["failed"] + len(errors)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} rounds {res['rounds']}")
    print("machine " + json.dumps(machine(res["calibration_ms"]), sort_keys=True))
    for err in errors + res["errors"]:
        print(f"failure {err}")
    if args.trace:
        computed = {**res["layers"], "trace.overhead_pct": {
            "value": res["overhead_pct"], "samples": res["rounds"]}}
        print(f"tracing overhead {res['overhead_pct']:.2f}% of untraced round time"
              f" (missing spans: {', '.join(res['missing']) or 'none'})")
        print("layer self-time share of traced rounds "
              + " ".join(f"{k}={v:.3f}" for k, v in res["layer_share"].items()))
    else:
        computed = end_to_end(workload, setups, res)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {**computed[m["name"]], "unit": m["unit"]}
        value, raw = metrics[m["name"]]["value"], metrics[m["name"]].get("raw")
        print(f"metric {m['name']} = {'missing' if value is None else f'{value:.6g}'} "
              f"{m['unit']} ({m['better']} is better, n={metrics[m['name']]['samples']}"
              + ("" if raw is None else f", unscaled {raw:.6g}") + ")")
    share = {kind: sum(ts) / res["round_s"] for kind, ts in res["samples"].items()}
    for kind, ts in res["samples"].items():
        if ts:
            print(f"calls {kind} n={len(ts)} mean_ms={1000 * statistics.fmean(ts):.1f} "
                  f"share={share[kind]:.3f} of untraced round time")
    print(f"own kinds ({', '.join(workload.own)}) take "
          f"{sum(share[k] for k in workload.own):.3f} of untraced round time")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: ({"value": m["value"], "unit": m["unit"]} if m["value"] is not None
                           else {"value": None, "unit": m["unit"], "missing": True})
                    for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
