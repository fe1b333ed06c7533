"""The layering around kernelnn.inputs, and oracles that share no arithmetic with the modules.

errors -> inputs -> {runtime, oracles}: the runtime modules and the oracles
that referee them both read the shared input types, and neither imports the
other, so a fault in the runtime's arithmetic cannot also hide in its referee.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from kernelnn.graph_kernel import (
    WLRelabelParams,
    random_walk_kernel,
    reference_walk,
    wl_relabel,
)
from kernelnn.graph_nn import GraphModelConfig, graph_forward, init_graph
from kernelnn.inputs import FeatureGraph, GraphKernelConfig
from kernelnn.tensor import Activation, rel_error

from helpers import gated_walk_state_sum

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kernelnn"
ORACLES = {"seq_kernel", "graph_kernel"}
RUNTIME = ("tensor", "seq_nn", "graph_nn", "seq_dp", "graph_dp", "train", "io")


def package_imports(module: str) -> set[str]:
    """The kernelnn modules that ``module`` imports anywhere in its source, read, not run."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            found.update(a.name for a in node.names)  # from . import io
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kernelnn."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("kernelnn."))
    return found


def test_inputs_imports_only_errors():
    assert package_imports("inputs") <= {"errors"}


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracles_import_only_errors_inputs_and_each_other(oracle):
    assert package_imports(oracle) <= {"errors", "inputs", *ORACLES}


@pytest.mark.parametrize("module", RUNTIME)
def test_runtime_imports_no_oracle_and_not_verify(module):
    assert not package_imports(module) & {*ORACLES, "verify"}


def small_graph(rng, d):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (2, 2)]
    return FeatureGraph.undirected(rng.normal(size=(4, d)), edges)


def wl_chain_pair():
    """The wl module's output and the sum of walk kernels over relabelings it must equal."""
    rng = np.random.default_rng(21)
    d, m, lam, layers, n = 2, 3, 0.5, 2, 2
    g = small_graph(rng, d)
    cfg = GraphModelConfig(n=n, hidden=m, lam=lam, layers=layers, activation=Activation.TANH)
    wl = init_graph(cfg, d, rng)
    got = graph_forward(g, wl, cfg).h_graph.data
    relabel = WLRelabelParams(u1=wl.u1.data, u2=wl.u2.data, v=wl.v.data,
                              activation=Activation.TANH)
    want = np.zeros(m)
    for l in range(layers):
        ws = [w.data for w in wl.layer_W[l]]
        want += [random_walk_kernel(g, reference_walk(ws, k), GraphKernelConfig(n=n, lam=lam))
                 for k in range(m)]
        g = wl_relabel(g, relabel)
    return got, want


def gated_state_pair():
    """The gated module's order-n state sum and the oracle's sum over gated walks."""
    rng = np.random.default_rng(22)
    d, m, n = 2, 3, 3
    g = small_graph(rng, d)
    cfg = GraphModelConfig(n=n, hidden=m, module="gated")
    p = init_graph(cfg, d, rng)
    got = graph_forward(g, p, cfg).state_sum(n)
    return got, gated_walk_state_sum(g, [w.data for w in p.layer_W[0]], p.gate_u.data,
                                     p.gate_b.data)


@pytest.mark.parametrize("pair", [wl_chain_pair, gated_state_pair], ids=["wl-chain", "gated"])
def test_oracle_catches_a_wrong_module_activation(monkeypatch, pair):
    got, want = pair()
    assert rel_error(got, want) <= 1e-10
    f = Activation.f
    monkeypatch.setattr(Activation, "f", lambda self, z: 0.9 * f(self, z))
    got, want = pair()
    assert rel_error(got, want) > 1e-6
