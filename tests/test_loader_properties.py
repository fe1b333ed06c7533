"""Property tests of the file codecs: ``save_bundle`` writes the bytes the format defines
(one ``json.dumps`` of the whole document, base64 payloads) for any array layout and any
config text; a bundle whose text is truncated, or whose payload is damaged, loads as
``base64.b64decode`` reads it or raises a DataError naming the file and the parameter;
and any vocabulary or corpus file loads as its lines read or raises a DataError naming
the file."""

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kernelnn.errors import DataError
from kernelnn.io import ModelBundle, load_bundle, load_corpus, load_vocab, save_bundle

from helpers import canonical_bundle_bytes

# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------

# JSON's escapes, its structure, the payload key and text outside ASCII
TRICKY = st.lists(st.sampled_from(list('"\\:,{} ad') + ['"data":""', "data", "\x00", "\n", "é",
                                                       "λ", "😀"]), max_size=6).map("".join)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TRICKY)
CONFIGS = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(TRICKY, inner, max_size=3)), max_leaves=8)
# -0.0, the smallest subnormal and a larger one, beside whatever hypothesis draws
SPECIAL = st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.5])
LAYOUTS = ["C", "fortran", "strided", "float32", "big-endian"]


@st.composite
def arrays(draw):
    """0-d, empty and filled arrays, C-ordered or not, float64 or float32, either byte order."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    layout = draw(st.sampled_from(LAYOUTS))
    values = st.floats(width=32) if layout == "float32" else st.one_of(SPECIAL, st.floats())
    flat = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
    arr = np.array(flat, dtype=np.float32 if layout == "float32" else np.float64).reshape(shape)
    if layout == "fortran":
        return np.asfortranarray(arr)
    if layout == "strided" and arr.ndim:
        return np.repeat(arr, 2, axis=-1)[..., ::2]
    return arr.astype(">f8") if layout == "big-endian" else arr


@st.composite
def bundles(draw):
    names = draw(st.lists(st.one_of(st.just("data"), TRICKY), max_size=4, unique=True))
    return ModelBundle(kind=draw(TRICKY), config=draw(st.dictionaries(TRICKY, CONFIGS, max_size=4)),
                       params={name: draw(arrays()) for name in names}, seed=draw(st.integers()))


@given(bundles())
# an empty "data" string in the config, before the payloads, and a param named "data"
@example(ModelBundle("seq-lm", {"data": "", "x": {"data": ""}}, {"data": np.array(-0.0)}, 0))
@example(ModelBundle("seq-lm", {"data": ""}, {}, 0))
def test_save_bundle_writes_the_canonical_bytes(tmp_path_factory, bundle):
    path = tmp_path_factory.getbasetemp() / "canonical.bundle"
    save_bundle(bundle, path)
    assert path.read_bytes() == canonical_bundle_bytes(bundle)


def test_a_bundle_that_cannot_be_written_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "model.bundle"
    path.write_text("old")
    for bad in (ModelBundle("seq-lm", {}, {"a": np.zeros(2), "b": np.array(["x"])}, 0),
                ModelBundle("seq-lm", {"a": object()}, {"a": np.zeros(2)}, 0)):
        with pytest.raises((TypeError, ValueError)):
            save_bundle(bad, path)
        assert path.read_text() == "old"


# ---------------------------------------------------------------------------
# bundle loads
# ---------------------------------------------------------------------------

# 8, 16, 24 and 0 payload bytes: one '=' of padding, two, none, and an empty payload
BASE = ModelBundle("seq-lm", {"n": 1}, {"a": np.array(1.5), "b": np.array([-0.0, 2.5]),
                                        "c": np.arange(3.0) / 7, "e": np.zeros((0, 2))}, seed=3)
BASE_TEXT = canonical_bundle_bytes(BASE).decode("ascii")


def base64_reference(obj):
    """What a stored tensor must load as: ``base64.b64decode``'s bytes as ``<f8`` in the
    stored shape, a list of non-negative integers, or None where the loader must refuse it."""
    if obj.get("dtype") != "float64" or obj.get("byte_order") != "little":
        return None
    shape = obj["shape"]
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        return None  # stricter than reshape, which takes null and -1 as "flat", True as 1
    try:
        arr = np.frombuffer(base64.b64decode(obj["data"]), "<f8").reshape(shape)
    except (TypeError, ValueError):
        return None
    return arr if np.isfinite(arr).all() else None


def assert_loaded(bundle: ModelBundle, want: dict) -> None:
    assert bundle.kind == BASE.kind and bundle.config == BASE.config and bundle.seed == BASE.seed
    assert sorted(bundle.params) == sorted(want)
    for name, arr in want.items():
        got = bundle.params[name]
        assert got.dtype == np.float64 and got.shape == arr.shape, name
        assert got.tobytes() == arr.tobytes(), name


@st.composite
def payload_faults(draw):
    """A param of BASE and its stored object with one fault in it."""
    name = draw(st.sampled_from(sorted(BASE.params)))
    obj = json.loads(BASE_TEXT)["params"][name]
    data = obj["data"]
    fault = draw(st.sampled_from(["char", "padding", "data", "shape", "encoding", "non-finite"]))
    if fault == "char":
        k = draw(st.integers(0, len(data)))
        char = draw(st.sampled_from(["!", "=", " ", "\n", "\t", "é", "Ā", "😀"]))
        obj["data"] = data[:k] + char + data[k:]
    elif fault == "padding":
        bare = data.rstrip("=")
        obj["data"] = draw(st.sampled_from([bare, data + data[len(bare):], bare + "=", data + "="]))
    elif fault == "data":
        obj["data"] = draw(st.sampled_from([0, 1.5, [], [data], None, True, {}]))
    elif fault == "shape":
        obj["shape"] = draw(st.sampled_from([[], [1], [2], [3], [-1], [0], [2, 1], [0, 2], [3, 0],
                                             [2**70], [-2], [True], "2", None, [1.5], {}]))
    elif fault == "encoding":
        key = draw(st.sampled_from(["dtype", "byte_order"]))
        value = draw(st.sampled_from([None, "float32", "big", "little", "float64", "<f8"]))
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    else:
        value = np.frombuffer(base64.b64decode(data), "<f8").copy()
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        value = np.append(value, bad) if value.size == 0 else value
        value[draw(st.integers(0, value.size - 1))] = bad
        obj["data"] = base64.b64encode(value.tobytes()).decode("ascii")
    return name, obj


@given(payload_faults())
def test_damaged_payloads_load_as_base64_reads_them_or_name_the_parameter(tmp_path_factory, fault):
    name, obj = fault
    doc = json.loads(BASE_TEXT)
    doc["params"][name] = obj
    path = tmp_path_factory.getbasetemp() / "damaged.bundle"
    path.write_text(json.dumps(doc))
    want = base64_reference(obj)
    if want is None:
        with pytest.raises(DataError) as err:
            load_bundle(path)
        assert str(err.value).startswith(f"{path}: param {name!r}: ")
        return
    assert_loaded(load_bundle(path), {**BASE.params, name: want})


def test_truncated_bundles_raise_data_error_naming_the_file(tmp_path):
    path = tmp_path / "truncated.bundle"
    for k in range(len(BASE_TEXT) + 1):
        path.write_text(BASE_TEXT[:k])
        try:
            bundle = load_bundle(path)
        except DataError as exc:
            assert str(exc).startswith(f"{path}:"), k
            continue
        # the text is one JSON object, so only its trailing newline can go
        assert k >= len(BASE_TEXT) - 1, k
        assert_loaded(bundle, BASE.params)


# ---------------------------------------------------------------------------
# vocabulary and corpus files
# ---------------------------------------------------------------------------

LINE_TEXT = st.text(st.sampled_from(list("ab c\t") + ["\n", "\r", "\x0b", " ", "é", "\x00"]),
                    max_size=30)
FILES = st.one_of(LINE_TEXT.map(str.encode), st.text(max_size=30).map(str.encode),
                  st.binary(max_size=20))


def written(tmp_path_factory, content: bytes, name: str):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(content)
    try:
        return path, path.read_text()
    except UnicodeDecodeError:
        return path, None


@given(FILES)
@example(b"\xff\xfe")
@example(b"a\n\nb")
@example(b"a\nb\na ")
def test_vocab_files_load_as_their_lines_or_raise_data_error(tmp_path_factory, content):
    path, text = written(tmp_path_factory, content, "fuzzed_vocab.txt")
    lines = None if text is None else [line.strip() for line in text.splitlines()]
    try:
        seen, tokens = load_vocab(path)
    except DataError as exc:
        assert str(exc).startswith(f"{path}:")
        assert lines is None or not lines or "" in lines or len(set(lines)) < len(lines)
        return
    assert tokens == lines and seen == {tok: i for i, tok in enumerate(tokens)}


@given(FILES, st.booleans())
@example(b"\xff", False)
@example(b" \n\t\n", True)
def test_corpus_files_load_as_their_tokens_or_raise_data_error(tmp_path_factory, content,
                                                              distinct):
    path, text = written(tmp_path_factory, content, "fuzzed_corpus.txt")
    vocab = {"<unk>": 0, "a": 1, "b": 2}
    sentences = None if text is None else [line.split() for line in text.splitlines()
                                           if line.split()]
    try:
        got = load_corpus(path, vocab, distinct_unknowns=distinct)
    except DataError as exc:
        assert str(exc).startswith(f"{path}:")
        assert not sentences
        return
    ids = dict(vocab)
    for tok in (t for sent in sentences for t in sent):
        ids.setdefault(tok, len(ids) if distinct else 0)
    assert got == [[ids[t] for t in sent] for sent in sentences]
