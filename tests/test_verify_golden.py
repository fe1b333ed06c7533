"""The verify sweep pinned byte for byte: the stdout of ``verify --suite`` for
``gradcheck``, ``seq-state-kernel``, ``graph-state-kernel`` and ``fast-kernel``
at their default seeds and tolerances, as in
``tests/fixtures/verify_sweep_golden.txt``.

Every printed error is formatted to four digits, so a change that moves any
module value, oracle value or finite difference by more than rounding shows
here.

Rewrite the fixture (only on purpose, when a suite's draws or arithmetic are
meant to change) with ``PYTHONPATH=src python tests/test_verify_golden.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

from kernelnn.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "verify_sweep_golden.txt"
SUITES = ("gradcheck", "seq-state-kernel", "graph-state-kernel", "fast-kernel")


def sweep_stdout() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for suite in SUITES:
            assert main(["verify", "--suite", suite]) == 0
    return out.getvalue()


def test_sweep_prints_golden_bytes():
    assert sweep_stdout() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(sweep_stdout())
    print(f"wrote {GOLDEN}", file=sys.stderr)
