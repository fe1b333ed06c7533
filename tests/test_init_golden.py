"""Model init pinned by digest: every config of a grid draws the same tensors, in
the same order, as when ``tests/fixtures/init_golden.txt`` was written.

Rewrite the fixture (only on purpose, when init is meant to change) with
``PYTHONPATH=src python tests/test_init_golden.py``.
"""

import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

from kernelnn.graph_nn import GraphModelConfig, init_graph
from kernelnn.io import bundle_from_graph, bundle_from_lm, save_bundle
from kernelnn.seq_nn import DECAYS, VARIANTS, SeqModelConfig
from kernelnn.train import init_graph_model, init_lm_model

GOLDEN = Path(__file__).parent / "fixtures" / "init_golden.txt"
SEED = 20170528


def _bundle_digest(bundle, tmp: Path) -> str:
    path = tmp / "bundle.json"
    save_bundle(bundle, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _named_digest(params, strip: str = "") -> str:
    h = hashlib.sha256()
    for name, t in params.named().items():
        h.update(f"{name.removeprefix(strip)}{t.shape}".encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


def init_digests(tmp: Path) -> dict[str, str]:
    """``key -> sha256`` for every init of the grid, each from a fresh ``SEED`` generator."""
    out = {}
    extras = {"plain": {}, "combination": {"output": "combination"}, "highway": {"highway": True}}
    for layers, decay, variant, extra, lam in itertools.product(
            (1, 2), DECAYS, VARIANTS, extras, (0.0, 0.3)):
        if decay != "constant" and lam == 0.0:
            continue  # refused: these decays start a bias at logit(lam)
        cfg = SeqModelConfig(n=2, hidden=3, layers=layers, decay=decay, variant=variant,
                             lam=lam, **extras[extra])
        model = init_lm_model(cfg, 5, np.random.default_rng(SEED))
        key = f"lm layers={layers} decay={decay} variant={variant} {extra} lam={lam}"
        out[key] = _bundle_digest(bundle_from_lm(model, SEED), tmp)
    for n, layers in itertools.product((1, 2, 3), (1, 2)):
        cfg = GraphModelConfig(n=n, hidden=3, layers=layers)
        model = init_graph_model(cfg, 4, np.random.default_rng(SEED))
        out[f"graph-reg n={n} layers={layers}"] = _bundle_digest(bundle_from_graph(model, SEED),
                                                                 tmp)
        wl = init_graph(cfg, 4, np.random.default_rng(SEED))
        out[f"wl n={n} layers={layers}"] = _named_digest(wl)
    layer_modules = {"readout=False gated=False": "walk", "readout=False gated=True": "gated",
                     "readout=True gated=False": "deep"}
    for n, (layer, module) in itertools.product((1, 3), layer_modules.items()):
        p = init_graph(GraphModelConfig(n=n, hidden=3, module=module), 4, np.random.default_rng(SEED))
        # the fixture hashes a one-layer module's names without their l1. prefix (W1, readout)
        out[f"graph-layer n={n} {layer}"] = _named_digest(p, strip="l1.")
    return out


def _read_golden() -> dict[str, str]:
    lines = GOLDEN.read_text().splitlines()
    return dict(line.rsplit(" ", 1) for line in lines)


def test_init_matches_golden_digests(tmp_path):
    assert init_digests(tmp_path) == _read_golden()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = init_digests(Path(tmp))
    GOLDEN.write_text("".join(f"{k} {v}\n" for k, v in digests.items()))
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
