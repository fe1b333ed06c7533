"""Seeded input generators and the three workload definitions.

Nothing here imports kernelnn: the parent process writes the input files and
the program under test only ever sees those files.  Every generator draws
from a ``numpy.random.Generator`` built from the benchmark seed, so the same
seed writes byte-identical inputs.

Work per call must not depend on the seed, or the run-to-run spread across
seeds would measure the inputs instead of the program.  So sizes come from
fixed schedules (stream lengths, node counts, edge counts, sentence lengths,
graph families) and the seed only draws token ids, features, edge placement
and order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

LM_VOCAB = 1000
ORACLE_VOCAB = 256
ZIPF_EXPONENT = 1.1
LINE_TOKENS = 20
GRAPH_DIM = 4
ORACLE_GRAPH_DIM = 3
KERNEL_ORDER = 3
KERNEL_LAMBDA = 0.5
WL_DEPTH = 2

# Call kinds, in the order a round makes them.  Each is one CLI call but
# verify, which is a sweep of three.
KINDS = (
    "lm_train", "lm_eval", "graph_train", "graph_eval",
    "seq", "walk", "wl", "gated", "verify",
)
VERIFY_SUITES = ("gradcheck", "seq-state-kernel", "graph-state-kernel")


@dataclass(frozen=True)
class Sizes:
    lm_train_tokens: int
    lm_eval_tokens: int
    graph_train: int
    graph_eval: int
    graph_max_nodes: int
    seq_pairs: int
    walk_pairs: int
    gated_pairs: int


@dataclass(frozen=True)
class Workload:
    """One workload: the calls of a round and the input sizes they read.

    ``own`` names the call kinds the workload is about and how often each runs
    per round, on the large inputs of ``sizes``.  Every end-to-end metric must
    be measured on every workload, so each other kind also runs in every
    round, ``PADDING[kind]`` times, on the small inputs.  ``train_kind`` names
    the training calls that the tape and step metrics describe.
    """

    own: dict[str, int]
    sizes: Sizes
    train_kind: str
    setup_kind: str

    @property
    def round(self) -> tuple[str, ...]:
        """Each kind its repeats, the repeats spread over the round."""
        repeats = {kind: self.own.get(kind, PADDING[kind]) for kind in KINDS}
        return tuple(kind for rep in range(max(repeats.values()))
                     for kind in KINDS if rep < repeats[kind])


# The inputs of the padding calls and of the set-up warm-up call: about the
# smallest that still make each kind do its whole job (two LM windows, a
# train batch of small graphs, one gated pair).  Walk and WL pairs take well
# under a millisecond each, so eight of them, and two sequence pairs, keep
# those calls from being only argument parsing and file reading.
SMALL = Sizes(lm_train_tokens=65, lm_eval_tokens=65, graph_train=4, graph_eval=4,
              graph_max_nodes=12, seq_pairs=2, walk_pairs=8, gated_pairs=1)

# Padding calls per round.  The short ones (3-90 ms on the small inputs) run
# six times, so that their figures rest on as many calls as a run allows; the
# verify sweep, which is fixed work of most of a second, runs once.
PADDING = {kind: 1 if kind == "verify" else 6 for kind in KINDS}

WORKLOADS = {
    "lm": Workload(
        own={"lm_train": 6, "lm_eval": 6},
        sizes=replace(SMALL, lm_train_tokens=513, lm_eval_tokens=513),
        train_kind="lm_train",
        setup_kind="lm_train",
    ),
    "graph": Workload(
        own={"graph_train": 3, "graph_eval": 4},
        sizes=replace(SMALL, graph_train=24, graph_eval=24, graph_max_nodes=40),
        train_kind="graph_train",
        setup_kind="graph_train",
    ),
    "oracle": Workload(
        own={"seq": 2, "walk": 4, "wl": 4, "gated": 2, "verify": 2},
        sizes=replace(SMALL, seq_pairs=16, walk_pairs=16, gated_pairs=4),
        train_kind="lm_train",
        setup_kind="seq",
    ),
}


# ---------------------------------------------------------------------------
# token streams
# ---------------------------------------------------------------------------


def vocab_tokens(size: int) -> list[str]:
    """Line 0 is the unknown-token entry, as the vocabulary format requires."""
    return ["<unk>"] + [f"w{i}" for i in range(1, size)]


def zipf_ids(rng: np.random.Generator, vocab_size: int, count: int) -> np.ndarray:
    """Ids 1..V-1 with Zipf-like frequencies, so frequent words repeat."""
    ranks = np.arange(1, vocab_size)
    p = 1.0 / ranks**ZIPF_EXPONENT
    return rng.choice(ranks, size=count, p=p / p.sum())


def corpus_text(tokens: list[str], ids, line_tokens: int = LINE_TOKENS) -> str:
    ids = list(ids)
    lines = [" ".join(tokens[i] for i in ids[k:k + line_tokens])
             for k in range(0, len(ids), line_tokens)]
    return "\n".join(lines) + "\n"


def sentence_lengths(pairs: int) -> list[tuple[int, int]]:
    """Fixed (8..16, 8..16) length pairs; only their order depends on the seed."""
    return [(8 + (3 * i) % 9, 16 - (5 * i) % 9) for i in range(pairs)]


def seq_pair_text(rng: np.random.Generator, tokens: list[str], pairs: int) -> str:
    lengths = sentence_lengths(pairs)
    order = rng.permutation(pairs)
    lines = []
    for k in order:
        for length in lengths[k]:
            lines.append(" ".join(tokens[i] for i in zipf_ids(rng, len(tokens), length)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def graph_line(features, edges, target=None) -> str:
    feats = " ; ".join(",".join(repr(float(x)) for x in f) for f in features)
    line = f"{len(features)} | {feats} | {' '.join(f'{u}-{v}' for u, v in edges)}"
    if target is not None:
        line += f" | {float(target)!r}"
    return line


def connected_edges(rng: np.random.Generator, nodes: int, extra: int) -> list[tuple[int, int]]:
    """A random spanning tree plus ``extra`` distinct random chords."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, nodes)}
    extra = min(extra, nodes * (nodes - 1) // 2 - len(edges))
    while extra > 0:
        u, v = sorted(int(a) for a in rng.choice(nodes, size=2, replace=False))
        if (u, v) not in edges:
            edges.add((u, v))
            extra -= 1
    return sorted(edges)


def train_graph_shapes(count: int, max_nodes: int) -> list[tuple[int, int]]:
    """(nodes, extra edges): 6..max_nodes nodes, average degree from 2 to about 5."""
    shapes = []
    for i in range(count):
        nodes = 6 + round((max_nodes - 6) * i / max(count - 1, 1))
        extra = (nodes * (i % 4)) // 2
        shapes.append((nodes, extra))
    return shapes


def regression_graph_text(rng: np.random.Generator, count: int, max_nodes: int) -> str:
    shapes = train_graph_shapes(count, max_nodes)
    lines = []
    for k in rng.permutation(count):
        nodes, extra = shapes[k]
        feats = rng.normal(size=(nodes, GRAPH_DIM))
        edges = connected_edges(rng, nodes, extra)
        target = np.tanh(feats[:, 0].mean()) + 0.1 * len(edges) / nodes
        lines.append(graph_line(feats, edges, target))
    return "\n".join(lines) + "\n"


def family_edges(family: int, nodes: int) -> list[tuple[int, int]]:
    """Path, cycle, star, or cycle with chords: fixed walk counts per family."""
    path = [(i, i + 1) for i in range(nodes - 1)]
    if family == 0:
        return path
    if family == 1:
        return path + [(0, nodes - 1)]
    if family == 2:
        return [(0, i) for i in range(1, nodes)]
    return path + [(0, nodes - 1)] + [(i, i + 2) for i in range(0, nodes - 2, 2)]


def oracle_graph_text(rng: np.random.Generator, pairs: int) -> str:
    """Pairs of 5..8-node graphs; structure from a fixed schedule, relabeled."""
    specs = [((i % 4, 5 + i % 4), ((i + 1) % 4, 8 - i % 4)) for i in range(pairs)]
    lines = []
    for k in rng.permutation(pairs):
        for family, nodes in specs[k]:
            perm = rng.permutation(nodes)
            edges = sorted(tuple(sorted((int(perm[u]), int(perm[v]))))
                           for u, v in family_edges(family, nodes))
            lines.append(graph_line(rng.normal(size=(nodes, ORACLE_GRAPH_DIM)), edges))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# configs and the whole input directory
# ---------------------------------------------------------------------------


def lm_config(seed: int) -> dict:
    # only options the code reads: TrainConfig.batch and dropout do nothing for LM
    return {
        "model": {"n": 2, "hidden": 32, "layers": 2, "variant": "mult-norm",
                  "decay": "gated-input-state", "activation": "tanh"},
        "train": {"epochs": 1, "unroll": 32, "seed": seed},
        "optimizer": {"kind": "adam", "lr": 0.01},
    }


def graph_config(seed: int) -> dict:
    return {
        "model": {"n": 3, "hidden": 16, "layers": 2, "lam": 0.5, "activation": "tanh"},
        "train": {"epochs": 2, "batch": 16, "seed": seed},
        "optimizer": {"kind": "adam", "lr": 0.01},
    }


def write_inputs(s: Sizes, seed: int, salt: int, out: Path) -> None:
    """Write every input file a call reads into ``out``, drawn from (seed, salt)."""
    rng = np.random.default_rng([seed, salt])
    out.mkdir(parents=True, exist_ok=True)
    lm_tokens = vocab_tokens(LM_VOCAB)
    oracle_tokens = vocab_tokens(ORACLE_VOCAB)
    files = {
        "lm_vocab.txt": "\n".join(lm_tokens) + "\n",
        "lm_train.txt": corpus_text(lm_tokens, zipf_ids(rng, LM_VOCAB, s.lm_train_tokens)),
        "lm_valid.txt": corpus_text(lm_tokens, zipf_ids(rng, LM_VOCAB, s.lm_eval_tokens)),
        "lm.json": json.dumps(lm_config(seed), sort_keys=True),
        "graph_train.txt": regression_graph_text(rng, s.graph_train, s.graph_max_nodes),
        "graph_valid.txt": regression_graph_text(rng, s.graph_eval, s.graph_max_nodes),
        "graph.json": json.dumps(graph_config(seed), sort_keys=True),
        "seq_vocab.txt": "\n".join(oracle_tokens) + "\n",
        "seq_pairs.txt": seq_pair_text(rng, oracle_tokens, s.seq_pairs),
        "walk_pairs.txt": oracle_graph_text(rng, s.walk_pairs),
        "gated_pairs.txt": oracle_graph_text(rng, s.gated_pairs),
    }
    for name, text in files.items():
        (out / name).write_text(text)


def item_counts(s: Sizes) -> dict[str, int]:
    """Work units per call: predicted tokens, graph-epochs, pairs, sweeps."""
    epochs = graph_config(0)["train"]["epochs"]
    return {
        "lm_train": s.lm_train_tokens - 1,
        "lm_eval": s.lm_eval_tokens - 1,
        "graph_train": s.graph_train * epochs,
        "graph_eval": s.graph_eval,
        "seq": s.seq_pairs,
        "walk": s.walk_pairs,
        "wl": s.walk_pairs,
        "gated": s.gated_pairs,
        "verify": 1,
    }


def cli_argv(kind: str, data: Path, seed: int) -> list[list[str]]:
    """The CLI calls one call of ``kind`` makes (the verify sweep is three)."""
    d = str(data)
    kernel = ["kernel", "--task", "graph", "--n", str(KERNEL_ORDER),
              "--lambda", str(KERNEL_LAMBDA), "--seed", str(seed)]
    if kind == "lm_train":
        return [["train", "--task", "lm", "--config", f"{d}/lm.json", "--data", f"{d}/lm_train.txt",
                 "--vocab", f"{d}/lm_vocab.txt", "--out", f"{d}/lm.bundle"]]
    if kind == "lm_eval":
        return [["eval", "--bundle", f"{d}/lm.bundle", "--data", f"{d}/lm_valid.txt",
                 "--vocab", f"{d}/lm_vocab.txt"]]
    if kind == "graph_train":
        return [["train", "--task", "graph-reg", "--config", f"{d}/graph.json",
                 "--data", f"{d}/graph_train.txt", "--out", f"{d}/graph.bundle"]]
    if kind == "graph_eval":
        return [["eval", "--bundle", f"{d}/graph.bundle", "--data", f"{d}/graph_valid.txt"]]
    if kind == "seq":
        return [["kernel", "--task", "seq", "--file", f"{d}/seq_pairs.txt",
                 "--vocab", f"{d}/seq_vocab.txt", "--n", str(KERNEL_ORDER),
                 "--lambda", str(KERNEL_LAMBDA), "--variant", "mult-norm"]]
    if kind == "walk":
        return [kernel + ["--file", f"{d}/walk_pairs.txt", "--variant", "walk"]]
    if kind == "wl":
        return [kernel + ["--file", f"{d}/walk_pairs.txt", "--variant", "wl",
                          "--depth", str(WL_DEPTH)]]
    if kind == "gated":
        return [kernel + ["--file", f"{d}/gated_pairs.txt", "--gated"]]
    if kind == "verify":
        return [["verify", "--suite", suite] for suite in VERIFY_SUITES]
    raise ValueError(f"unknown call kind {kind!r}")
