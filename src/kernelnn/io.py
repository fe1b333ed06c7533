"""File formats: corpora, vocabularies, graph files, and model bundles.

Text formats are line-oriented and diff-able; parse errors always carry the
file name and 1-based line number.  Bundles are canonical JSON (sorted keys,
no whitespace) with tensors as base64 little-endian float64, so a
save/load/save round trip is byte-identical.
"""

from __future__ import annotations

import base64
import binascii
import json
import weakref
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, DataError
from .graph_nn import GraphModelConfig
from .inputs import FeatureGraph
from .seq_nn import SeqModelConfig
from .tensor import Activation, Tensor
from .train import GraphRegModel, SeqLMModel, init_graph_model, init_lm_model

BUNDLE_VERSION = 1
UNK_ID = 0


def read_text(path: Path) -> str:
    """A text file's contents; a missing, unreadable or binary file is a DataError."""
    try:
        return path.read_text()
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: file is not text") from None


def write_bytes(path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a file in turn; a file that cannot be written is a DataError."""
    try:
        with Path(path).open("wb") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise DataError(f"{path}: cannot write ({exc.strerror or exc})") from None


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def load_vocab(path) -> tuple[dict[str, int], list[str]]:
    """One token per line; the line number is the id and line 0 names the UNK."""
    path = Path(path)
    tokens: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(read_text(path).splitlines()):
        tok = raw.strip()
        if not tok:
            raise DataError(f"{path}:{lineno + 1}: empty vocabulary entry")
        if tok in seen:
            raise DataError(f"{path}:{lineno + 1}: duplicate token {tok!r}")
        seen[tok] = len(tokens)
        tokens.append(tok)
    if not tokens:
        raise DataError(f"{path}:1: vocabulary file is empty")
    return seen, tokens


def load_corpus(path, vocab: dict[str, int], distinct_unknowns: bool = False) -> list[list[int]]:
    """Whitespace-tokenized sentences, one per line.

    Unknown tokens map to id 0, or, with ``distinct_unknowns``, each distinct
    unknown token to its own id past the vocabulary.
    """
    path = Path(path)
    grown = dict(vocab) if distinct_unknowns else None
    out: list[list[int]] = []
    for raw in read_text(path).splitlines():
        toks = raw.split()
        if not toks:
            continue
        if grown is None:
            out.append([vocab.get(t, UNK_ID) for t in toks])
        else:
            out.append([grown.setdefault(t, len(grown)) for t in toks])
    if not out:
        raise DataError(f"{path}:1: corpus file holds no tokens")
    return out


def flatten_corpus(sentences: list[list[int]]) -> list[int]:
    return [t for sent in sentences for t in sent]


# ---------------------------------------------------------------------------
# graph files
# ---------------------------------------------------------------------------
#
# One graph per line:
#
#   <node count> | f1,f2 ; f1,f2 ; ... | 0-1 1-2 ... | <target>
#
# Feature vectors are comma-separated decimals, one ';'-separated group per
# node; edges are dash-separated index pairs; the trailing target field is
# optional.  Edges are undirected and a self-loop u-u is kept.  Blank lines
# and lines starting with '#' are skipped.


def _parse_graph_lines(numbered: list[tuple[str, str]]) -> list[tuple[FeatureGraph, float | None]]:
    """The graph and target of each ``(where, line)``, checked as whole-file arrays.

    All feature cells go through one float conversion and one finiteness
    check, all edge endpoints through one integer conversion and one range
    check, and the graphs are one disjoint union split by node count.  The
    checks run in the order a reader of one line makes them, so a single line
    fails with its first failing check; over several lines the DataError may
    name any failing line.
    """
    counts, widths, cells, edges, targets = [], [], [], [], []
    for where, line in numbered:
        parts = [p.strip() for p in line.split("|")]
        if len(parts) not in (3, 4):
            raise DataError(f"{where}: expected 3 or 4 '|' fields, got {len(parts)}")
        try:
            count = int(parts[0])
        except ValueError:
            raise DataError(f"{where}: bad node count {parts[0]!r}") from None
        if count < 1:
            raise DataError(f"{where}: a graph needs at least one node, got count {count}")
        groups = [g for g in (s.strip() for s in parts[1].split(";")) if g]
        if len(groups) != count:
            raise DataError(f"{where}: {len(groups)} feature groups for {count} nodes")
        rows = [g.split(",") for g in groups]
        for row in rows:
            cells += row
        counts.append(count)
        widths.append({len(row) for row in rows})
        edges.append(parts[2].split())
        targets.append(parts[3] if len(parts) == 4 else "")
    wheres = [where for where, _ in numbered]
    try:
        x = np.array(cells, dtype=np.float64)
    except ValueError:
        raise DataError(f"{wheres[0]}: malformed feature vector") from None
    if not np.isfinite(x).all():
        raise DataError(f"{wheres[0]}: non-finite feature value")
    for where, w in zip(wheres, widths):
        if len(w) > 1:
            raise DataError(f"{where}: feature dimensions differ within the graph")
    pairs = _edge_pairs(wheres, edges, counts)
    targets = [_graph_target(where, text) for where, text in zip(wheres, targets)]
    (dim,) = widths[0]
    for where, (width,) in zip(wheres, widths):
        if width != dim:
            raise DataError(f"{where}: feature dim {width} differs from {dim}")
    starts = np.cumsum(counts) - counts
    union = FeatureGraph.undirected(
        x.reshape(-1, dim), pairs + np.repeat(starts, [len(t) for t in edges])[:, None])
    return list(zip(union.split(counts), targets))


def _edge_pairs(wheres: list[str], edges: list[list[str]], counts: list[int]) -> np.ndarray:
    """The (E, 2) endpoints of every edge token ``u-v``, each below its graph's node count."""
    split = [token.split("-") for tokens in edges for token in tokens]
    if set(map(len, split)) <= {2}:
        try:
            pairs = np.array(list(chain.from_iterable(split)), dtype=np.intp).reshape(-1, 2)
        except (ValueError, OverflowError):
            pairs = None
        limit = np.repeat(counts, [len(tokens) for tokens in edges])[:, None]
        if pairs is not None and ((pairs >= 0) & (pairs < limit)).all():
            return pairs
    # some token is bad: name the first, checking one token at a time
    for where, tokens, count in zip(wheres, edges, counts):
        for token in tokens:
            try:
                u, v = map(int, token.split("-"))
            except ValueError:  # not two integers
                raise DataError(f"{where}: malformed edge {token!r}") from None
            if not (0 <= u < count and 0 <= v < count):
                raise DataError(f"{where}: edge {token!r} out of range for {count} nodes")
    raise AssertionError("the edge tokens failed together but pass one at a time")


def _graph_target(where: str, text: str) -> float | None:
    if not text:
        return None
    try:
        target = float(text)
    except ValueError:
        raise DataError(f"{where}: malformed target {text!r}") from None
    if not np.isfinite(target):
        raise DataError(f"{where}: non-finite target {text!r}")
    return target


def _graph_records(path: Path) -> list[tuple[str, str]]:
    """``(file:line, text)`` of every record of a graph file, skipping blanks and comments."""
    return [(f"{path}:{i}", line)
            for i, line in enumerate(map(str.strip, read_text(path).splitlines()), 1)
            if line and not line.startswith("#")]


def load_graphs(path) -> list[tuple[FeatureGraph, float | None]]:
    """Every graph of a graph file; a bad file is a DataError naming its first bad line."""
    path = Path(path)
    numbered = _graph_records(path)
    if not numbered:
        raise DataError(f"{path}:1: no graphs found")
    try:
        return _parse_graph_lines(numbered)
    except DataError as exc:
        failure = exc
    # Name the first bad line, as a reader of one line at a time would: the
    # first line that fails alone, unless a line before it already differs
    # in width from the first line.  If every line parses alone, the whole
    # file failed on exactly that width check.
    for k, item in enumerate(numbered):
        try:
            _parse_graph_lines([item])
        except DataError:
            if k:
                _parse_graph_lines(numbered[:k])
            raise
    raise failure


def load_graph_targets(path, in_dim: int | None = None) -> tuple[list[FeatureGraph], list[float]]:
    """A graph-regression file: a target on every record and, if given, features of width in_dim."""
    items = load_graphs(path)
    untargeted = [i for i, (_, t) in enumerate(items) if t is None]
    if untargeted:
        where, _ = _graph_records(Path(path))[untargeted[0]]
        raise DataError(f"{where}: graph regression needs a target on every record; "
                        f"this one has none")
    width = items[0][0].dim
    if in_dim is not None and width != in_dim:
        raise DataError(f"{path}: node features have width {width}, the model expects {in_dim}")
    return [g for g, _ in items], [t for _, t in items]


# ---------------------------------------------------------------------------
# model bundles
# ---------------------------------------------------------------------------


@dataclass
class ModelBundle:
    kind: str
    config: dict
    params: dict[str, np.ndarray]
    seed: int


def _decode_array(obj, where: str) -> np.ndarray:
    try:
        if obj.get("dtype") != "float64" or obj.get("byte_order") != "little":
            raise DataError(f"{where}: unsupported tensor encoding {obj.get('dtype')}")
        if type(dims := obj["shape"]) is not list or any(type(s) is not int or s < 0 for s in dims):
            raise ValueError(f"shape {dims!r} is not a list of non-negative integers")
        data = obj["data"]
        # binascii decodes an ASCII str as it is; JSON holds no bytes, so any other payload
        # fails in base64.b64decode, whose TypeError names its type
        raw = binascii.a2b_base64(data) if isinstance(data, str) else base64.b64decode(data)
        # the decoded buffer is the array: no copy on a little-endian host
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False).reshape(dims)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{where}: undecodable tensor payload ({exc})") from None
    if not np.isfinite(arr).all():
        raise DataError(f"{where}: non-finite value")
    arr.setflags(write=False)
    _SCANNED[id(arr)] = arr
    return arr


# every live array _decode_array made, by id: scanned there and read-only since, so
# _restore adopts it without scanning it again
_SCANNED: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write ``bundle`` as canonical JSON, each payload streamed from its ``<f8`` buffer.

    ``json.dumps`` sees only the skeleton, with every payload empty: base64 needs no JSON
    escaping, so each is written between its quotes as ``binascii`` encodes it.  Every
    array is converted before the file is opened, so a bundle that cannot be written
    leaves the file as it was.
    """
    params = {name: np.asarray(arr, dtype="<f8", order="C")
              for name, arr in sorted(bundle.params.items())}
    doc = {
        "format_version": BUNDLE_VERSION,
        "kind": bundle.kind,
        "config": bundle.config,
        "seed": bundle.seed,
        "params": {name: {"shape": list(arr.shape), "dtype": "float64", "byte_order": "little",
                          "data": ""} for name, arr in params.items()},
    }
    # only a key "data" with the value "" dumps as '"data":""', and the params follow the
    # config (keys sort), so the last len(params) of them are the payloads, in order
    head, *tails = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").rsplit(
        '"data":""', len(params))
    payloads = ((b'"data":"', binascii.b2a_base64(arr, newline=False), b'"', tail.encode("ascii"))
                for arr, tail in zip(params.values(), tails))  # each encoded as it is written
    write_bytes(path, chain([head.encode("ascii")], chain.from_iterable(payloads)))


def load_bundle(path) -> ModelBundle:
    path = Path(path)
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: bundle is not valid JSON") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: bundle is not a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != BUNDLE_VERSION:  # true and 1.0 are not 1
        raise DataError(f"{path}: unsupported bundle version {version!r}")
    missing = [key for key in ("kind", "config", "seed") if key not in doc]
    if missing:
        raise DataError(f"{path}: bundle lacks {', '.join(missing)}")
    if type(doc["kind"]) is not str:
        raise DataError(f"{path}: bundle kind {doc['kind']!r} is not a string")
    if not isinstance(doc["config"], dict) or not isinstance(doc.get("params", {}), dict):
        raise DataError(f"{path}: bundle config and params must be objects")
    seed = doc["seed"]
    if type(seed) is not int or seed < 0:  # as TrainConfig.seed: no bool, float or string
        raise DataError(f"{path}: bundle seed {seed!r} is not an integer >= 0")
    params = {
        name: _decode_array(obj, f"{path}: param {name!r}")
        for name, obj in doc.get("params", {}).items()
    }
    return ModelBundle(kind=doc["kind"], config=doc["config"], params=params, seed=seed)


# ---------------------------------------------------------------------------
# model <-> bundle
# ---------------------------------------------------------------------------


def config_dict(cfg, **widths: int) -> dict:
    """A model config as a bundle's JSON object: its fields plus the data widths."""
    return {**asdict(cfg), "activation": cfg.activation.value, **widths}


def check_keys(doc, known, section: str) -> None:
    """Raise ConfigError unless ``doc`` is a JSON object whose keys are all ``known``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"the {section} config must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"unknown {section} config key {unknown[0]!r}; "
                          f"known keys are {', '.join(sorted(known))}")


def config_from_dict(cls, doc, section: str):
    """A config dataclass from a JSON object whose keys are some of its init fields.

    ``section`` names the object in error messages; an unknown key, a missing
    required field or a value of the wrong type is a ConfigError.
    """
    check_keys(doc, [f.name for f in fields(cls) if f.init], section)
    try:
        if "activation" in doc:
            doc = {**doc, "activation": Activation(doc["activation"])}
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} config: {exc}") from None


def _bundle_config(cls, doc: dict, width_key: str):
    """A bundle's model config and the data width stored beside its fields."""
    width = doc.get(width_key)
    if not isinstance(width, int) or isinstance(width, bool) or width < 1:
        raise ConfigError(f"model config needs a positive integer {width_key!r}, got {width!r}")
    return config_from_dict(cls, {k: v for k, v in doc.items() if k != width_key}, "model"), width


def _bundle(kind: str, model, seed: int, **widths: int) -> ModelBundle:
    params = {name: np.array(t.data) for name, t in model.named().items()}
    return ModelBundle(kind=kind, config=config_dict(model.cfg, **widths), params=params, seed=seed)


def bundle_from_lm(model: SeqLMModel, seed: int) -> ModelBundle:
    return _bundle("seq-lm", model, seed, vocab_size=model.vocab_size)


def bundle_from_graph(model: GraphRegModel, seed: int) -> ModelBundle:
    return _bundle("graph-reg", model, seed, in_dim=model.in_dim)


def _restore(model, params: dict[str, np.ndarray]):
    """``model`` with every tensor replaced by the bundle's float64 array, which must match
    name for name; each array is adopted as it is, not copied, and becomes read-only.  An
    array :func:`load_bundle` decoded is not scanned again, since it named any non-finite
    entry with its file and parameter; any other is, as every new tensor is."""
    expected = model.named()
    missing = sorted(set(expected) - set(params))
    extra = sorted(set(params) - set(expected))
    if missing or extra:
        raise DataError(f"bundle params do not match its config: missing {missing}, extra {extra}")
    for name, t in expected.items():
        if params[name].shape != t.shape:
            raise DataError(
                f"bundle param {name!r} has shape {params[name].shape}, expected {t.shape}"
            )
    return model.with_named({name: _adopted(params[name]) for name in expected})


def _adopted(arr: np.ndarray) -> Tensor:
    return Tensor._adopt(arr, finite=_SCANNED.get(id(arr)) is arr)


def lm_from_bundle(bundle: ModelBundle) -> SeqLMModel:
    if bundle.kind != "seq-lm":
        raise DataError(f"bundle kind {bundle.kind!r} is not a language model")
    cfg, vocab_size = _bundle_config(SeqModelConfig, bundle.config, "vocab_size")
    return _restore(init_lm_model(cfg, vocab_size, None), bundle.params)


def graph_from_bundle(bundle: ModelBundle) -> GraphRegModel:
    if bundle.kind != "graph-reg":
        raise DataError(f"bundle kind {bundle.kind!r} is not a graph regressor")
    config = bundle.config
    if "module" not in config and config.get("gated") is False:  # written before modules had names
        config = {k: v for k, v in config.items() if k != "gated"}
    if config.get("n") == 1:  # written before n = 1 refused a lam, which no module reads there
        config = {k: v for k, v in config.items() if k != "lam"}
    cfg, in_dim = _bundle_config(GraphModelConfig, config, "in_dim")
    return _restore(init_graph_model(cfg, in_dim, None), bundle.params)
