"""Language-model command output pinned byte for byte: for each config below, a
``train --task lm`` run (its printed metrics, the sha256 of its bundle) and the
``eval`` of that bundle on the training file, as they were when
``tests/fixtures/lm_golden.json`` was written.

The configs cover every decay mode and variant, combination output, highway,
dropout, two layers, SGD with clipping and learning-rate decay, Adam with
clipping and ``--valid``.  Clipping fires in every case, and training (unroll
7) and evaluation (unroll 64) both carry state across window boundaries.  The
last case is the benchmark's ``lm`` model (hidden 32, unroll 32, Adam), so the
shape the benchmark runs is pinned too.

Rewrite the fixture (only on purpose, when an output is meant to change) with
``PYTHONPATH=src python tests/test_lm_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from kernelnn.cli import EXIT_OK, main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "lm_golden.json"
VOCAB = str(FIXTURES / "lm_vocab.txt")
TRAIN = str(FIXTURES / "lm_train.txt")
VALID = str(FIXTURES / "lm_valid.txt")

SGD = {"kind": "sgd", "lr": 0.5, "clip": 0.3, "lr_decay": 0.8}
ADAM = {"kind": "adam", "lr": 0.03, "clip": 0.3}
TRAIN_CFG = {"epochs": 3, "unroll": 7, "seed": 5}
CASES = {
    "constant mult-unnorm combination sgd": (
        {"n": 2, "hidden": 6, "layers": 2, "decay": "constant", "variant": "mult-unnorm",
         "lam": 0.4, "output": "combination", "dropout": 0.2}, SGD),
    "learned add-norm combination sgd": (
        {"n": 3, "hidden": 5, "layers": 2, "decay": "learned", "variant": "add-norm",
         "lam": 0.6, "output": "combination", "dropout": 0.2, "activation": "relu"}, SGD),
    "gated-input mult-norm sgd": (
        {"n": 2, "hidden": 6, "layers": 2, "decay": "gated-input", "variant": "mult-norm",
         "output": "combination", "dropout": 0.2}, SGD),
    "gated-input-state mult-norm adam": (
        {"n": 2, "hidden": 5, "layers": 2, "decay": "gated-input-state",
         "variant": "mult-norm", "lam": 0.3}, ADAM),
    "highway gated-input-state adam": (
        {"n": 2, "hidden": 6, "layers": 2, "decay": "gated-input-state", "highway": True,
         "dropout": 0.2, "activation": "identity"}, ADAM),
    "constant add-norm one layer adam": (
        {"n": 1, "hidden": 4, "decay": "constant", "variant": "add-norm", "lam": 0.0}, ADAM),
    "benchmark lm gated-input-state mult-norm hidden 32 adam": (
        {"n": 2, "hidden": 32, "layers": 2, "variant": "mult-norm",
         "decay": "gated-input-state", "activation": "tanh"},
        {"kind": "adam", "lr": 0.01}, {**TRAIN_CFG, "unroll": 32}),
}


def _run(*argv: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == EXIT_OK
    return out.getvalue().splitlines()


def case_lines(case: str, tmp: Path) -> list[str]:
    """The train run's metric lines, its bundle's sha256 and the eval line of that bundle."""
    model, optimizer, *train = CASES[case]
    config, bundle = tmp / "config.json", tmp / "lm.bundle"
    config.write_text(json.dumps({"model": model, "optimizer": optimizer,
                                  "train": train[0] if train else TRAIN_CFG}))
    lines = _run("train", "--task", "lm", "--config", str(config), "--data", TRAIN,
                 "--vocab", VOCAB, "--valid", VALID, "--out", str(bundle))
    lines.append(f"bundle sha256 {hashlib.sha256(bundle.read_bytes()).hexdigest()}")
    return lines + _run("eval", "--bundle", str(bundle), "--data", TRAIN, "--vocab", VOCAB)


def _read_golden() -> dict[str, list[str]]:
    return json.loads(GOLDEN.read_text())


def test_fixture_names_every_case():
    assert sorted(_read_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_lm_train_and_eval_match_golden(case, tmp_path):
    assert case_lines(case, tmp_path) == _read_golden()[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {case: case_lines(case, Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {len(outputs)} cases to {GOLDEN}", file=sys.stderr)
