"""Graph command output pinned byte for byte: ``kernel --task graph`` (walk, wl,
deep, gated) on two small graph files, and a ``train --task graph-reg`` run
(its printed metrics, the sha256 of its bundle) with the ``eval`` of that
bundle, as they were when ``tests/fixtures/graph_cli_golden.json`` was written.
The same run writes the same bundle bytes at one and at two BLAS threads.

Rewrite the fixture (only on purpose, when an output is meant to change) with
``PYTHONPATH=src python tests/test_graph_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from kernelnn.cli import EXIT_OK, main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = FIXTURES / "graph_cli_golden.json"
PAIRS = str(FIXTURES / "graphs.txt")
REG = str(FIXTURES / "graph_reg.txt")

KERNEL_CASES = {
    "pairs walk": ["--file", PAIRS],
    "pairs wl depth 2": ["--file", PAIRS, "--variant", "wl", "--depth", "2"],
    "pairs deep": ["--file", PAIRS, "--variant", "deep"],
    "pairs gated": ["--file", PAIRS, "--gated"],
    "reg walk n 3": ["--file", REG, "--n", "3", "--lambda", "0.7"],
    "reg wl depth 2 n 3": ["--file", REG, "--variant", "wl", "--depth", "2", "--n", "3",
                           "--seed", "4"],
    "reg deep n 3": ["--file", REG, "--variant", "deep", "--n", "3", "--lambda", "0.3"],
    "reg gated n 3": ["--file", REG, "--gated", "--n", "3", "--seed", "5"],
}
TRAIN_CONFIG = {
    "model": {"n": 2, "hidden": 4, "lam": 0.5, "layers": 2, "activation": "tanh"},
    "train": {"epochs": 3, "batch": 4, "seed": 11},
    "optimizer": {"kind": "adam", "lr": 0.05},
}


def _run(*argv: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == EXIT_OK
    return out.getvalue().splitlines()


def kernel_lines(case: str) -> list[str]:
    return _run("kernel", "--task", "graph", *KERNEL_CASES[case])


def train_lines(tmp: Path) -> list[str]:
    """The train run's metric lines, its bundle's sha256 and the eval line of that bundle."""
    config, bundle = tmp / "config.json", tmp / "graph.bundle"
    config.write_text(json.dumps(TRAIN_CONFIG))
    lines = _run("train", "--task", "graph-reg", "--config", str(config), "--data", REG,
                 "--valid", REG, "--out", str(bundle))
    lines.append(f"bundle sha256 {hashlib.sha256(bundle.read_bytes()).hexdigest()}")
    return lines + _run("eval", "--bundle", str(bundle), "--data", REG)


def golden_outputs(tmp: Path) -> dict[str, list[str]]:
    return {**{case: kernel_lines(case) for case in KERNEL_CASES}, "train": train_lines(tmp)}


def _read_golden() -> dict[str, list[str]]:
    return json.loads(GOLDEN.read_text())


def test_fixture_names_every_case():
    assert sorted(_read_golden()) == sorted([*KERNEL_CASES, "train"])


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_graph_kernel_output_matches_golden(case):
    assert kernel_lines(case) == _read_golden()[case]


def test_graph_reg_train_and_eval_match_golden(tmp_path):
    assert train_lines(tmp_path) == _read_golden()["train"]


def test_graph_reg_bundle_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TRAIN_CONFIG))
    bundles = []
    for threads in ("1", "2"):
        bundle = tmp_path / f"threads{threads}.bundle"
        subprocess.run([sys.executable, "-m", "kernelnn.cli", "train", "--task", "graph-reg",
                        "--config", str(config), "--data", REG, "--valid", REG,
                        "--out", str(bundle)],
                       env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads},
                       check=True, capture_output=True, timeout=120)
        bundles.append(bundle.read_bytes())
    assert bundles[0] == bundles[1]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = golden_outputs(Path(tmp))
    GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {len(outputs)} cases to {GOLDEN}", file=sys.stderr)
