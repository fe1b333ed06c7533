"""Verification sweeps: the state-equals-kernel equalities as executable checks.

Each suite draws randomized instances per seed, compares the recurrent
modules against the exhaustive kernel oracles (or finite differences), and
reports one result line per check.  The CLI exposes these as ``verify``;
the acceptance tests call them directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import graph_dp, seq_dp
from .errors import ConfigError
from .graph_kernel import (
    WLRelabelParams,
    deep_graph_kernel,
    deep_local_kernel,
    gated_random_walk_kernel,
    random_walk_kernel,
    reference_walk,
    wl_kernel,
    wl_relabel,
)
from .graph_nn import GraphModelConfig, GraphParams, graph_forward, init_graph
from .inputs import ADDITIVE, FeatureGraph, FeatureSequence, GraphKernelConfig, SeqKernelConfig
from .seq_kernel import (
    MAX_ORACLE_LEN,
    deep_sequence_kernel,
    gram_matrix,
    reference_sequence,
    string_kernel,
    unrolled_state,
)
from .seq_nn import SeqModelConfig, forward_stack, init_seq_stack, layer_shapes
from .tensor import Activation, Tape, Tensor, add, dot, finite_diff_grad, rel_error, row
from .train import (
    OptimizerState,
    TrainConfig,
    eval_graph_reg,
    eval_lm,
    init_graph_model,
    init_lm_model,
    train_graph_reg,
    train_lm,
)


@dataclass
class CheckResult:
    suite: str
    seed: int
    error: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        tail = f" {self.detail}" if self.detail else ""
        return f"suite={self.suite} seed={self.seed} max_rel_err={self.error:.3e} status={status}{tail}"


@dataclass
class SuiteReport:
    name: str
    results: list[CheckResult]
    passed: bool


def _random_sequence(rng, length, dim) -> FeatureSequence:
    return FeatureSequence([rng.normal(size=dim) for _ in range(length)], dim=dim)


def _random_graph(rng, num_nodes, dim) -> FeatureGraph:
    feats = [rng.normal(size=dim) for _ in range(num_nodes)]
    tree = [(int(rng.integers(0, v)), v) for v in range(1, num_nodes)]
    chords = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)
              if rng.random() < 0.4]
    return FeatureGraph.undirected(feats, tree + chords)


def gram_range_residual(gram: np.ndarray, values: np.ndarray) -> float:
    """Relative distance from values to the column space of the kernel matrix."""
    sol, *_ = np.linalg.lstsq(gram, values, rcond=None)
    resid = gram @ sol - values
    denom = np.linalg.norm(values)
    return float(np.linalg.norm(resid) / denom) if denom > 0 else 0.0


def _worst(errors) -> float:
    """The largest error, at least 0.0; a NaN error is kept, so it fails every tolerance."""
    worst = 0.0
    for err in errors:
        if err > worst or err != err:
            worst = err
    return worst


def _suite(name: str):
    """Make a generator of ``(detail, error)`` pairs into a ``check(seed, tol)``: one result
    per detail, in the order first yielded, whose error is the worst yielded for it."""
    def wrap(gen):
        @functools.wraps(gen)
        def check(seed: int, tol: float) -> list[CheckResult]:
            errors: dict[str, list] = {}
            for detail, err in gen(seed):
                errors.setdefault(detail, []).append(err)
            return [CheckResult(name, seed, (worst := _worst(e)), worst <= tol, detail)
                    for detail, e in errors.items()]
        return check
    return wrap


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


@_suite("seq-state-kernel")
def check_seq_state_kernel(seed: int):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        length = int(rng.integers(n, 7))
        lam = float(rng.uniform(0.05, 0.95))
        cfg = SeqModelConfig(n=n, hidden=m, lam=lam, activation=Activation.IDENTITY)
        (p,) = init_seq_stack(cfg, d, rng)
        x = _random_sequence(rng, length, d)
        trace = forward_stack(x, [p], cfg)
        ws = [w.data for w in p.W]
        kcfg = SeqKernelConfig(n=n, lam=lam)
        refs = [reference_sequence(ws, i) for i in range(m)]
        for t in range(1, length + 1):
            state = trace.state(n, t).data
            prefix = x.prefix(t)
            for got, ref in zip(state, refs):
                want = string_kernel(prefix, ref, kcfg)
                yield "", abs(got - want) / max(1.0, abs(got), abs(want))


SEQ_KERNEL_VARIANTS = tuple((c, z) for c in ("multiplicative", "additive")
                            for z in ("unnormalized", "normalized"))


def random_kernel_pair(rng, lx: int, ly: int, onehot: bool):
    """Two feature sequences and their similarity matrix: one-hot, or real features that cancel."""
    d = 3
    if onehot:
        xs, ys = (np.eye(d)[rng.integers(0, d, size=length)] for length in (lx, ly))
    else:
        xs, ys = rng.normal(size=(lx, d)), rng.normal(size=(ly, d))
    return FeatureSequence(list(xs), dim=d), FeatureSequence(list(ys), dim=d), xs @ ys.T


def _random_step_graph(rng, num_nodes: int, dim: int) -> FeatureGraph:
    """Random directed steps, one of them a self-loop; the last node has no step.

    The last node's features negate the first's, so node-pair dots cancel in
    the kernel sums (a one-node graph is the negated node with its self-loop).
    """
    x = rng.normal(size=(num_nodes, dim))
    x[-1] = -x[0]
    linked = max(num_nodes - 1, 1)
    steps = rng.integers(0, linked, size=(int(rng.integers(1, 2 * linked + 1)), 2))
    steps[0, 1] = steps[0, 0]
    return FeatureGraph(x, steps)


@_suite("fast-kernel")
def check_fast_kernel(seed: int):
    """The dynamic-programming kernels of ``kernel`` against the oracles."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 4):
        # at order 4 and 16 tokens the oracle's gather alone takes about 100 MB
        cap = 12 if n == 4 else MAX_ORACLE_LEN
        for k, (composition, normalization) in enumerate(SEQ_KERNEL_VARIANTS):
            cfg = SeqKernelConfig(n=n, lam=0.0 if k == seed % 4 else float(rng.uniform(0.0, 0.99)),
                                  composition=composition, normalization=normalization)
            # per order, one pair is as long as the oracle allows and one has an empty side
            lx, ly = (int(v) for v in rng.integers(0, cap + 1, size=2))
            lx = (cap, 0, lx, lx)[k]
            for onehot in (False, True):
                x, y, sim = random_kernel_pair(rng, lx, ly, onehot)
                yield "string", rel_error(seq_dp.string_kernel(sim, cfg), string_kernel(x, y, cfg))
    for depth in (2, 3):
        composition, normalization = SEQ_KERNEL_VARIANTS[(seed + depth) % 4]
        n = int(rng.integers(1, 4))
        cfg = SeqKernelConfig(n=n, lam=float(rng.uniform(0.0, 0.99)),
                              composition=composition, normalization=normalization)
        x, y, sim = random_kernel_pair(rng, int(rng.integers(n, 7)), int(rng.integers(n, 7)), False)
        yield "deep", rel_error(seq_dp.deep_sequence_kernel(sim, depth, cfg),
                                deep_sequence_kernel(x, y, depth, cfg))
    d = 3
    for n in (1, 2, 3, 4):
        m = int(rng.integers(1, 4))
        g1, g2 = (_random_step_graph(rng, int(rng.integers(1, 6)), d) for _ in range(2))
        u, b = rng.normal(size=(m, 2 * d)), rng.normal(size=m)
        yield "gated", rel_error(graph_dp.gated_random_walk_kernel(g1, g2, u, b, n),
                                 gated_random_walk_kernel(g1, g2, u, b, n))
    for n in (1, 2, 3, 4):
        g1, g2 = (_random_step_graph(rng, int(rng.integers(1, 6)), d) for _ in range(2))
        cfg = GraphKernelConfig(n=n, lam=float(rng.uniform(0.0, 0.99)))
        yield "walk", rel_error(graph_dp.random_walk_kernel(g1, g2, cfg),
                                random_walk_kernel(g1, g2, cfg))
        depth = int(rng.integers(0, 3))
        relabel = WLRelabelParams(*rng.normal(size=(3, d, d)), Activation.TANH)
        yield "wl", rel_error(graph_dp.wl_kernel(g1, g2, cfg, depth, relabel),
                              wl_kernel(g1, g2, cfg, depth, relabel))
        deep = replace(cfg, composition=SEQ_KERNEL_VARIANTS[(seed + n) % 4][0],
                       depth=int(rng.integers(1, 4)))
        yield "deep-graph", rel_error(graph_dp.deep_graph_kernel(g1, g2, deep),
                                      deep_graph_kernel(g1, g2, deep))


@_suite("graph-state-kernel")
def check_graph_state_kernel(seed: int):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        lam = float(rng.uniform(0.1, 0.9))
        g = _random_graph(rng, int(rng.integers(2, 7)), d)
        # at n = 1 nothing reads lam, and the module config refuses all but its default
        cfg = GraphModelConfig(n=n, hidden=m, lam=lam if n > 1 else GraphModelConfig.lam,
                               module="walk")
        p = init_graph(cfg, d, rng)
        trace = graph_forward(g, p, cfg)
        total = trace.state_sum(n)
        kcfg = GraphKernelConfig(n=n, lam=lam)
        ws = [w.data for w in p.layer_W[0]]
        for k in range(m):
            want = random_walk_kernel(g, reference_walk(ws, k), kcfg)
            yield "", abs(total[k] - want) / max(1.0, abs(total[k]), abs(want))


@_suite("cnn-degeneration")
def check_cnn_degeneration(seed: int):
    rng = np.random.default_rng(seed)
    n, d, m, length = 3, 3, 4, 6
    cfg = SeqModelConfig(n=n, hidden=m, lam=0.0, variant="add-norm", activation=Activation.TANH)
    (p,) = init_seq_stack(cfg, d, rng)
    x = _random_sequence(rng, length, d)
    trace = forward_stack(x, [p], cfg)
    for t in range(1, length + 1):
        pre = np.zeros(m)
        for j in range(1, n + 1):
            tok = t - n + j
            if tok >= 1:
                pre += p.W[j - 1].data @ x.tokens[tok - 1]
        yield "", float(np.max(np.abs(trace.matrix(0).data[t - 1] - np.tanh(pre))))


@_suite("gated-degeneration")
def check_gated_degeneration(seed: int):
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.2, 0.8))
    # sequence modules: every variant, both gate inputs
    d, m, length = 3, 3, 5
    x = _random_sequence(rng, length, d)
    for variant in ("mult-unnorm", "mult-norm", "add-norm"):
        for decay in ("gated-input", "gated-input-state"):
            gated_cfg = SeqModelConfig(n=2, hidden=m, lam=lam, variant=variant, decay=decay,
                                       activation=Activation.TANH)
            (p,) = init_seq_stack(gated_cfg, d, rng)  # gate biases start at logit(lam)
            p.gate_u = Tensor(np.zeros(layer_shapes(gated_cfg, d)["gate_u"]))
            tg = forward_stack(x, [p], gated_cfg)
            tc = forward_stack(x, [p], replace(gated_cfg, decay="constant"))
            for j in (1, 2):
                for t in range(1, length + 1):
                    yield "", float(np.max(np.abs(tg.state(j, t).data - tc.state(j, t).data)))
    # graph module
    g = _random_graph(rng, 5, d)
    gated_gcfg = GraphModelConfig(n=3, hidden=m, lam=lam, module="gated")
    gp = init_graph(gated_gcfg, d, rng)  # gate biases start at logit(lam)
    gp.gate_u = Tensor(np.zeros((m, 2 * d)))
    tg = graph_forward(g, gp, gated_gcfg)
    tc = graph_forward(g, GraphParams(gp.layer_W), replace(gated_gcfg, module="walk"))
    for a, b in zip(tg.states[0], tc.states[0]):
        yield "", float(np.max(np.abs(a.data - b.data)))


@_suite("variants")
def check_variants(seed: int):
    rng = np.random.default_rng(seed)
    for variant in ("mult-unnorm", "mult-norm", "add-norm"):
        n, d, m, length = 3, 2, 3, 5
        lam = float(rng.uniform(0.1, 0.9))
        cfg = SeqModelConfig(n=n, hidden=m, lam=lam, variant=variant, activation=Activation.IDENTITY)
        (p,) = init_seq_stack(cfg, d, rng)
        x = _random_sequence(rng, length, d)
        trace = forward_stack(x, [p], cfg)
        ws = [w.data for w in p.W]
        for t in range(1, length + 1):
            want = unrolled_state(x, ws, lam, variant, t=t)
            yield variant, rel_error(trace.state(n, t).data, want)


@_suite("deep-rkhs")
def check_deep_rkhs(seed: int):
    rng = np.random.default_rng(seed)
    # sequence stack, depth 2
    d, m, lam = 2, 3, 0.5
    scfg = SeqModelConfig(n=2, hidden=m, layers=2, lam=lam, activation=Activation.IDENTITY)
    sparams = init_seq_stack(scfg, d, rng)
    seqs = [_random_sequence(rng, 4, d) for _ in range(5)]
    kcfg = SeqKernelConfig(n=2, lam=lam)
    gram = np.array([[deep_sequence_kernel(a, b, 2, kcfg) for b in seqs] for a in seqs])
    for i in range(m):
        values = np.array(
            [forward_stack(s, sparams, scfg).state(2, len(s), 1).data[i] for s in seqs]
        )
        yield "sequence", gram_range_residual(gram, values)
    # graph stack, depth 2, additive composition
    gcfg = GraphModelConfig(n=2, hidden=m, lam=lam, composition=ADDITIVE,
                            activation=Activation.IDENTITY, layers=2, module="deep")
    gparams = init_graph(gcfg, d, rng)
    graphs = [_random_graph(rng, int(rng.integers(3, 6)), d) for _ in range(6)]
    kgcfg = GraphKernelConfig(n=2, lam=lam, composition=ADDITIVE, depth=2)
    points = [(gi, v) for gi, g in enumerate(graphs) for v in range(g.num_nodes)]
    gram_g = np.array(
        [
            [deep_local_kernel(v, vp, graphs[gi], graphs[gj], kgcfg) for gj, vp in points]
            for gi, v in points
        ]
    )
    traces = [graph_forward(g, gparams, gcfg) for g in graphs]
    for i in range(m):
        values = np.array([traces[gi].nodes[-1].data[v, i] for gi, v in points])
        yield "graph", gram_range_residual(gram_g, values)


@_suite("wl-chain")
def check_wl_chain(seed: int):
    rng = np.random.default_rng(seed)
    d, m, lam, layers, n = 2, 3, 0.5, 2, 2
    g = _random_graph(rng, int(rng.integers(3, 6)), d)
    cfg = GraphModelConfig(n=n, hidden=m, lam=lam, layers=layers, activation=Activation.IDENTITY)
    wl = init_graph(cfg, d, rng)
    trace = graph_forward(g, wl, cfg)
    relabel = WLRelabelParams(u1=wl.u1.data, u2=wl.u2.data, v=wl.v.data,
                              activation=Activation.IDENTITY)
    kcfg = GraphKernelConfig(n=n, lam=lam)
    expected = np.zeros(m)
    relabeled = g
    for l in range(layers):
        ws = [w.data for w in wl.layer_W[l]]
        for k in range(m):
            expected[k] += random_walk_kernel(relabeled, reference_walk(ws, k), kcfg)
        relabeled = wl_relabel(relabeled, relabel)
    yield "", rel_error(trace.h_graph.data, expected)


def _tape_vs_fd(run, params) -> tuple[float, int]:
    """Worst tape-vs-finite-difference error over every named tensor, and their coordinates.

    Each evaluation swaps the one perturbed tensor into its slot of ``params``
    and puts the original back, rather than rebuilding the parameters.
    """
    with Tape() as tape:
        loss = run(params)
    grads = tape.backward(loss)
    errors, coords = [], 0
    for name, tensor in params.named().items():
        put = params.setter(name)

        def swapped(t: Tensor) -> float:
            put(t)
            try:
                return run(params).item()
            finally:
                put(tensor)

        fd = finite_diff_grad(swapped, tensor)
        got = grads.get(tensor, Tensor(np.zeros(tensor.shape)))
        errors.append(rel_error(got, fd))
        coords += tensor.size
    return _worst(errors), coords


def _seq_grad_error(cfg: SeqModelConfig, rng) -> tuple[float, int]:
    d, length = 2, 3
    (p,) = init_seq_stack(cfg, d, rng)
    x = _random_sequence(rng, length, d)
    probes = [Tensor(rng.normal(size=cfg.hidden)) for _ in range(length)]
    xt = Tensor(np.array(x.tokens))

    def run(params):
        h = forward_stack(xt, [params], cfg).matrix(0)
        loss = None
        for t, r in enumerate(probes):
            term = dot(r, row(h, t))
            loss = term if loss is None else add(loss, term)
        return loss

    return _tape_vs_fd(run, p)


def _graph_grad_error(cfg: GraphModelConfig, rng) -> tuple[float, int]:
    d = 2
    g = _random_graph(rng, 4, d)
    probe = Tensor(rng.normal(size=cfg.hidden))

    def run(ps):
        return dot(probe, graph_forward(g, ps, cfg).h_graph)

    return _tape_vs_fd(run, init_graph(cfg, d, rng))


@_suite("gradcheck")
def check_gradcheck(seed: int):
    rng = np.random.default_rng(seed)
    total_coords = 0
    for variant in ("mult-unnorm", "mult-norm", "add-norm"):
        for decay in ("constant", "learned", "gated-input", "gated-input-state"):
            cfg = SeqModelConfig(n=2, hidden=3, lam=0.5, variant=variant, decay=decay,
                                 activation=Activation.TANH, output="combination")
            err, coords = _seq_grad_error(cfg, rng)
            total_coords += coords
            yield f"seq:{variant}:{decay}", err
    for kind, cfg in (
        ("rw", GraphModelConfig(n=2, hidden=3, activation=Activation.TANH, module="walk")),
        ("gated", GraphModelConfig(n=2, hidden=3, activation=Activation.TANH, module="gated")),
        ("deep", GraphModelConfig(n=2, hidden=3, composition=ADDITIVE,
                                  activation=Activation.TANH, layers=2, module="deep")),
        ("wl", GraphModelConfig(n=2, hidden=3, layers=2, activation=Activation.TANH)),
    ):
        err, coords = _graph_grad_error(cfg, rng)
        total_coords += coords
        yield f"graph:{kind}", err
    yield f"coords:{total_coords}", 0.0 if total_coords >= 200 else math.inf  # too few checked


@_suite("psd")
def check_psd(seed: int):
    rng = np.random.default_rng(seed)

    def psd_error(gram: np.ndarray) -> float:
        """Minus the least eigenvalue over the largest, above 0 only off the PSD cone; NaN
        where an entry is not finite (LAPACK's eigensolver does not converge on one)."""
        if not np.isfinite(gram).all():
            return math.nan
        eig = np.linalg.eigvalsh(gram)
        return -float(eig.min()) / max(float(eig.max()), 1e-30)

    seqs = [_random_sequence(rng, int(rng.integers(2, 7)), 3) for _ in range(8)]
    for n in (1, 2, 3):
        for composition in ("multiplicative", "additive"):
            for normalization in ("unnormalized", "normalized"):
                cfg = SeqKernelConfig(n=n, lam=0.5, composition=composition,
                                      normalization=normalization)
                yield (f"string:{n}:{composition[:4]}:{normalization[:6]}",
                       psd_error(gram_matrix(seqs, lambda a, b: string_kernel(a, b, cfg))))
    graphs = [_random_graph(rng, int(rng.integers(3, 6)), 2) for _ in range(8)]
    walk_cfg = GraphKernelConfig(n=2, lam=0.5)
    yield "walk", psd_error(gram_matrix(graphs, lambda a, b: random_walk_kernel(a, b, walk_cfg)))
    deep_cfg = GraphKernelConfig(n=2, lam=0.5, composition=ADDITIVE, depth=2)
    yield "deep", psd_error(gram_matrix(graphs[:6], lambda a, b: deep_graph_kernel(a, b, deep_cfg)))
    relabel = WLRelabelParams(
        u1=rng.normal(size=(2, 2)), u2=rng.normal(size=(2, 2)), v=rng.normal(size=(2, 2)),
        activation=Activation.TANH,
    )
    yield "wl", psd_error(gram_matrix(graphs, lambda a, b: wl_kernel(a, b, walk_cfg, 2, relabel)))
    seq_deep_cfg = SeqKernelConfig(n=2, lam=0.5)
    yield "deep-seq", psd_error(
        gram_matrix(seqs[:6], lambda a, b: deep_sequence_kernel(a, b, 2, seq_deep_cfg)))


def check_smoke_train(seed: int, tol: float) -> list[CheckResult]:
    del tol
    out = []
    ids = [1, 2] * 120
    cfg = SeqModelConfig(n=1, hidden=8, lam=0.5, variant="mult-norm", activation=Activation.TANH)
    model = init_lm_model(cfg, vocab_size=3, rng=np.random.default_rng(seed))
    model, _ = train_lm(
        model, ids, TrainConfig(epochs=50, unroll=16, seed=seed, max_steps=200),
        OptimizerState(kind="adam", lr=0.05),
    )
    _, ppl = eval_lm(model, ids)
    out.append(CheckResult("smoke-train", seed, ppl, ppl < 1.5, detail="lm-ppl"))

    rng = np.random.default_rng(seed + 1)
    w_star = rng.normal(size=3)
    graphs, targets = [], []
    for _ in range(50):
        size = int(rng.integers(3, 7))
        feats = [rng.normal(size=3) for _ in range(size)]
        edges = [(int(rng.integers(0, v)), v) for v in range(1, size)]
        graphs.append(FeatureGraph.undirected(feats, edges))
        targets.append(float(w_star @ np.sum(feats, axis=0)))
    gcfg = GraphModelConfig(n=1, hidden=8, lam=0.5, layers=2, activation=Activation.TANH)
    gmodel = init_graph_model(gcfg, in_dim=3, rng=np.random.default_rng(seed + 2))
    gmodel, _ = train_graph_reg(
        gmodel, graphs, targets,
        TrainConfig(epochs=200, batch=10, seed=seed, max_steps=500),
        OptimizerState(kind="adam", lr=0.02, lr_decay=0.995),
    )
    ratio = eval_graph_reg(gmodel, FeatureGraph.union(graphs), targets) / float(np.std(targets))
    out.append(CheckResult("smoke-train", seed, ratio, ratio < 0.1, detail="graph-rmse-ratio"))
    return out


ORDERING_SENTENCES = (
    "the cat sat on the mat . "
    "the dog ran in the fog . "
    "a cat can nap on a mat . "
    "a dog can dig in the bog . "
)


def _ordering_corpus() -> tuple[list[int], list[int], int]:
    text = ORDERING_SENTENCES * 24
    chars = sorted(set(text))
    vocab_size = len(chars) + 1
    ids = [chars.index(c) + 1 for c in text]
    cut = int(len(ids) * 0.75)
    return ids[:cut], ids[cut:], vocab_size


def _ordering_loss(mode: str, seed: int) -> float:
    train_ids, valid_ids, vocab_size = _ordering_corpus()
    lam = 0.0 if mode == "lambda0" else 0.8
    decay = {
        "lambda0": "constant",
        "constant": "constant",
        "learned": "learned",
        "gated": "gated-input-state",
    }[mode]
    cfg = SeqModelConfig(n=1, hidden=12, lam=lam, variant="mult-norm", decay=decay,
                         activation=Activation.TANH)
    model = init_lm_model(cfg, vocab_size, rng=np.random.default_rng(seed))
    model, _ = train_lm(
        model, train_ids, TrainConfig(epochs=20, unroll=24, seed=seed, max_steps=260),
        OptimizerState(kind="adam", lr=0.01),
    )
    loss, _ = eval_lm(model, valid_ids)
    return loss


def check_decay_ordering(seed: int, tol: float) -> list[CheckResult]:
    del tol
    losses = {mode: _ordering_loss(mode, seed) for mode in
              ("lambda0", "constant", "learned", "gated")}
    eps = 1e-9
    ok = (
        losses["lambda0"] > losses["constant"]
        and losses["constant"] >= losses["learned"] - eps
        and losses["learned"] >= losses["gated"] - eps
    )
    margin = losses["lambda0"] - losses["gated"]
    detail = " ".join(f"{k}={v:.4f}" for k, v in losses.items())
    return [CheckResult("decay-ordering", seed, margin, ok, detail=detail)]


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

SUITES = {
    "seq-state-kernel": (check_seq_state_kernel, 20, 1e-10),
    "graph-state-kernel": (check_graph_state_kernel, 20, 1e-10),
    "fast-kernel": (check_fast_kernel, 5, 1e-10),
    "cnn-degeneration": (check_cnn_degeneration, 5, 1e-12),
    "gated-degeneration": (check_gated_degeneration, 5, 1e-12),
    "variants": (check_variants, 10, 1e-10),
    "deep-rkhs": (check_deep_rkhs, 3, 1e-6),
    "wl-chain": (check_wl_chain, 5, 1e-8),
    "gradcheck": (check_gradcheck, 1, 1e-5),
    "psd": (check_psd, 2, 1e-8),
    "smoke-train": (check_smoke_train, 1, None),
    "decay-ordering": (check_decay_ordering, 3, None),
}


def run_suite(name: str, seeds: int | None = None, tol: float | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ConfigError(f"unknown verify suite {name!r}; choose from {sorted(SUITES)}")
    if seeds is not None and seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {seeds}")
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ConfigError(f"--tol must be finite and >= 0, got {tol}")
    fn, default_seeds, default_tol = SUITES[name]
    if tol is not None and default_tol is None:
        raise ConfigError(f"--tol does not apply to suite {name}, which checks no tolerance")
    count = default_seeds if seeds is None else seeds
    bound = default_tol if tol is None else tol
    results = [r for seed in range(count) for r in fn(seed, bound)]
    if name == "decay-ordering":
        passing = sum(1 for r in results if r.passed)
        passed = passing * 3 >= 2 * len(results)
    else:
        passed = all(r.passed for r in results)
    return SuiteReport(name=name, results=results, passed=passed)

