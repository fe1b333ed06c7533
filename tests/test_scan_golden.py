"""The sequence scan pinned bit for bit: for every config of a grid, one layer's
forward (``c``, ``pre``, ``decay``, ``h``) and its backward (every gradient the
scan node returns for a fixed output adjoint) hash to the sha256 digests in
``tests/fixtures/scan_golden.json``.

The grid is every decay x every variant x {last-state, combination, highway}
x {tanh, identity}, from a zero and from a carried start state.

Rewrite the fixture (only on purpose, when the scan's arithmetic is meant to
change) with ``PYTHONPATH=src python tests/test_scan_golden.py``.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from kernelnn.seq_nn import DECAYS, VARIANTS, SeqModelConfig, _scan, init_seq_layer
from kernelnn.tensor import Activation, Tape, Tensor

GOLDEN = Path(__file__).parent / "fixtures" / "scan_golden.json"
SEED = 20170526
OUTPUTS = {"last-state": {}, "combination": {"output": "combination"}, "highway": {"highway": True}}
CASES = {
    f"{decay} {variant} {output} {act.value} start={start}": (decay, variant, output, act, start)
    for decay, variant, output, act, start in itertools.product(
        DECAYS, VARIANTS, OUTPUTS, (Activation.TANH, Activation.IDENTITY), ("zero", "carried"))
}


def _digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return hashlib.sha256(f"{arr.shape}".encode() + arr.tobytes()).hexdigest()


def case_digests(case: str) -> dict[str, str]:
    """``name -> sha256`` of the scan's forward arrays and of each gradient it returns."""
    decay, variant, output, act, start = CASES[case]
    cfg = SeqModelConfig(n=3, hidden=4, decay=decay, variant=variant, lam=0.3,
                         activation=act, **OUTPUTS[output])
    rng = np.random.default_rng(SEED)
    p = init_seq_layer(cfg, 4, rng)
    p = p.with_named({name: Tensor(rng.uniform(-0.8, 0.8, size=t.shape))
                      for name, t in p.named().items()})
    x = Tensor(rng.normal(size=(6, 4)))
    state = (rng.uniform(-0.5, 0.5, size=(3, 4)), rng.uniform(-0.5, 0.5, size=4))
    g_h = rng.normal(size=(6, 4))
    with Tape() as tape:
        scan = _scan(x, p, cfg, state if start == "carried" else None)
    (node,) = tape._nodes
    out = {"c": scan.c, "pre": scan.pre, "decay": scan.decay, "h": scan.h.data}
    names = ["x", *p.named()]
    grads = node.bwd(g_h)
    assert len(grads) == len(names)
    out.update({f"g_{name}": g for name, g in zip(names, grads)})
    return {name: _digest(arr) for name, arr in out.items()}


def _read_golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())


def test_fixture_names_every_case():
    assert sorted(_read_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_matches_golden(case):
    assert case_digests(case) == _read_golden()[case]


if __name__ == "__main__":
    outputs = {case: case_digests(case) for case in CASES}
    GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {len(outputs)} cases to {GOLDEN}", file=sys.stderr)
