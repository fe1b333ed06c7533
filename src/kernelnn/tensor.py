"""Dense float64 tensors, a reverse-mode tape, and a finite-difference oracle.

Everything downstream (sequence modules, graph modules, training) is built on
the small op set defined here.  Values are immutable numpy arrays; gradients
are produced by replaying a :class:`Tape` in reverse creation order, which
makes repeated backward passes bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import ContractError, EvaluationError, ShapeError
from .inputs import Adjacency, Segments

Array = np.ndarray

# open tapes, innermost last; ops record to the innermost one
_TAPES: list["Tape"] = []


class Tensor:
    """Immutable float64 array. Ops on tensors record to the open Tape, if any."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        self.data = _frozen(np.array(data, dtype=np.float64))

    @classmethod
    def _adopt(cls, arr: Array, finite: bool = False) -> "Tensor":
        """Wrap a float64 array that nothing writes afterwards, without copying it;
        ``finite`` skips the scan of an array whose every entry the caller checked."""
        out = cls.__new__(cls)
        if finite:
            arr.setflags(write=False)
            out.data = arr
        else:
            out.data = _frozen(arr)
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor({self.data!r})"


def _frozen(arr: Array) -> Array:
    # the ufunc's own reduce and setflags: ndarray.all() and the flags object
    # each add a Python-level step to every tensor made
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise EvaluationError("tensor holds non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass
class _Node:
    out: Tensor
    op: str
    parents: tuple[Tensor, ...]
    # maps the output adjoint to one adjoint contribution per parent
    bwd: Callable[[Array], tuple[Array, ...]]


class Tape:
    """Append-only record of ops, replayed in reverse for gradients.

    Open it with a ``with`` block; ops record to the innermost open tape.  The
    stack of open tapes is shared by the whole process, so record from one
    thread only.  Tensors created while no tape is open are plain values and
    never receive gradients.
    """

    def __init__(self) -> None:
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, root: Tensor) -> dict[Tensor, Tensor]:
        """Gradients of scalar ``root`` w.r.t. every reachable leaf tensor.

        Leaves are tensors that were consumed by some recorded op but not
        produced by one (parameters and inputs).  Accumulation follows node
        creation order, so two identical passes give bit-identical results.
        Adjoints are summed out of place, so no stored array is ever written.
        """
        if root.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        adjoints: dict[Tensor, Array] = {root: np.ones_like(root.data)}
        for node in reversed(self._nodes):
            out_adj = adjoints.get(node.out)
            if out_adj is None:
                continue
            for parent, contrib in zip(node.parents, node.bwd(out_adj)):
                if contrib is not None:
                    acc = adjoints.get(parent)
                    adjoints[parent] = contrib if acc is None else acc + contrib
        produced = {node.out for node in self._nodes}
        return {t: Tensor._adopt(np.asarray(adj, dtype=np.float64)) for t, adj in adjoints.items()
                if t not in produced}


def emit(out_data: Array, op: str, parents: tuple[Tensor, ...], bwd) -> Tensor:
    """Wrap ``out_data`` as a tensor and record it on the open tape, if any.

    ``bwd`` maps the output adjoint to one adjoint (or None) per parent; this
    is how ops outside this module, such as the sequence scan, join the tape.
    The tape copies nothing, so an op hands it arrays that nothing writes
    afterwards: ``out_data`` becomes the tensor's read-only data, and what
    ``bwd`` returns may be stored or passed on as it is.
    """
    out = Tensor._adopt(np.asarray(out_data, dtype=np.float64))
    if _TAPES:
        _TAPES[-1]._nodes.append(_Node(out, op, parents, bwd))
    return out


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """``w`` applied to a vector or to every row of a matrix: ``x @ w.T``.

    ``w`` is (m, d) and ``x`` is (d,) or (N, d).
    """
    if w.data.ndim != 2 or x.data.ndim not in (1, 2) or w.shape[1] != x.shape[-1]:
        raise ShapeError(f"matvec needs (m,d) @ (d,) or rows (N,d), got {w.shape} @ {x.shape}")
    wd, xd = w.data, x.data

    def bwd(g: Array):
        gw = np.outer(g, xd) if xd.ndim == 1 else g.T @ xd
        return gw, g @ wd

    return emit(xd @ wd.T, "matvec", (w, x), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape and b.shape != ():
        raise ShapeError(f"add needs equal shapes or a 0-d second term, got {a.shape} and "
                         f"{b.shape}")
    broadcast = a.shape != b.shape

    def bwd(g: Array):
        return g, (np.sum(g) if broadcast else g)

    return emit(a.data + b.data, "add", (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub needs equal shapes, got {a.shape} and {b.shape}")

    def bwd(g: Array):
        return g, -g

    return emit(a.data - b.data, "sub", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul needs equal shapes, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g: Array):
        return g * bd, g * ad

    return emit(ad * bd, "mul", (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g: Array):
        return (g * c,)

    return emit(a.data * c, "scale", (a,), bwd)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot needs equal 1-d shapes, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g: Array):
        return g * bd, g * ad

    return emit(np.dot(ad, bd), "dot", (a, b), bwd)


def row(a: Tensor, i: int) -> Tensor:
    """Row i of a 2-d tensor; the gradient scatters back into that row."""
    if a.data.ndim != 2:
        raise ShapeError(f"row needs a 2-d input, got {a.shape}")
    if not 0 <= i < a.shape[0]:
        raise ContractError(f"row {i} out of range for shape {a.shape}")
    shape = a.shape

    def bwd(g: Array):
        out = np.zeros(shape)
        out[i] = g
        return (out,)

    return emit(a.data[i], "row", (a,), bwd)


def stack(rows: Sequence[Tensor]) -> Tensor:
    """Equal-shaped 1-d tensors as the rows of a matrix."""
    if not rows:
        raise ContractError("stack needs at least one tensor")
    shape = rows[0].shape
    if len(shape) != 1 or any(r.shape != shape for r in rows):
        raise ShapeError(f"stack needs equal 1-d shapes, got {sorted({r.shape for r in rows})}")

    def bwd(g: Array):
        return tuple(g)

    return emit(np.stack([r.data for r in rows]), "stack", tuple(rows), bwd)


def _check_rows(op: str, a: Tensor, rows: int) -> None:
    if a.data.ndim != 2 or a.shape[0] != rows:
        raise ShapeError(f"{op} needs a 2-d input with {rows} rows, got {a.shape}")


def gather_rows(a: Tensor, seg: Segments) -> Tensor:
    """Rows ``seg.ids`` of a (seg.count, m) tensor; the gradient adds each row back."""
    _check_rows("gather_rows", a, seg.count)

    def bwd(g: Array):
        return (seg.sum(g),)

    return emit(a.data[seg.ids], "gather_rows", (a,), bwd)


def segment_sum(a: Tensor, seg: Segments) -> Tensor:
    """The (seg.count, m) sums of the rows of ``a`` per segment; the gradient gathers rows."""
    _check_rows("segment_sum", a, seg.ids.size)

    def bwd(g: Array):
        return (g[seg.ids],)

    return emit(seg.sum(a.data), "segment_sum", (a,), bwd)


def neighbor_sum(a: Tensor, adj: Adjacency) -> Tensor:
    """Row v sums the rows u of ``a`` over the walk steps u -> v; the gradient sums
    along the reversed steps."""
    _check_rows("neighbor_sum", a, adj.num_nodes)

    def bwd(g: Array):
        return (adj.sum(g, reverse=True),)

    return emit(adj.sum(a.data), "neighbor_sum", (a,), bwd)


def gather_columns(a: Tensor, ids: Sequence[int]) -> Tensor:
    """Columns ``ids`` of a 2-d tensor as the rows of a (len(ids), rows) matrix.

    This is the embedding lookup; the gradient adds each row back into its
    column, so a repeated id accumulates.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"gather_columns needs a 2-d input, got {a.shape}")
    idx = np.asarray(ids, dtype=np.intp).reshape(-1)
    if idx.size == 0 or idx.min() < 0 or idx.max() >= a.shape[1]:
        raise ContractError(f"column ids {list(ids)} out of range for shape {a.shape}")
    shape = a.shape

    def bwd(g: Array):
        out = np.zeros(shape)
        np.add.at(out.T, idx, g)
        return (out,)

    return emit(a.data.T[idx], "gather_columns", (a,), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of every row, ``x @ w.T + b``, for x (T, d), w (m, d) and b (m,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != w.shape[:1]:
        raise ShapeError(f"linear needs (T,d), (m,d), (m,), got {x.shape}, {w.shape}, {b.shape}")
    xd, wd = x.data, w.data

    def bwd(g: Array):
        return g @ wd, g.T @ xd, g.sum(axis=0)

    z = xd @ wd.T
    return emit(np.add(z, b.data, out=z), "linear", (x, w, b), bwd)


def softmax_cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean over rows of ``logsumexp(row) - row[target]``; one target column per row."""
    z = logits.data
    ys = np.asarray(targets, dtype=np.intp).reshape(-1)
    if z.ndim != 2 or ys.shape != z.shape[:1] or ys.size == 0:
        raise ShapeError(f"softmax_cross_entropy needs (T,V) logits and T targets, got "
                         f"{logits.shape} and {ys.size}")
    if ys.min() < 0 or ys.max() >= z.shape[1]:
        raise ContractError(f"targets out of range for {z.shape[1]} classes")
    rows = np.arange(ys.size)
    top = z.max(axis=1, keepdims=True)
    ez = np.subtract(z, top)
    np.exp(ez, out=ez)
    total = ez.sum(axis=1, keepdims=True)
    per_row = top[:, 0] + np.log(total[:, 0]) - z[rows, ys]
    inv = 1.0 / ys.size

    def bwd(g: Array):
        out = ez / total
        out[rows, ys] -= 1.0
        return (np.multiply(out, float(g) * inv, out=out),)

    return emit(np.sum(per_row) * inv, "softmax_cross_entropy", (logits,), bwd)


def accumulate(tensors: Sequence[Tensor]) -> Tensor:
    """Sum a non-empty list of same-shaped tensors in list order."""
    if not tensors:
        raise ContractError("accumulate needs at least one tensor")
    out = tensors[0]
    for t in tensors[1:]:
        out = add(out, t)
    return out


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def _sigmoid_raw(z: Array, out: Array | None = None) -> Array:
    # exp of -|z| only, so nothing overflows; one division serves both signs:
    # the numerator max(e, sign z) is 1 for z >= 0 (e = 1 at z = 0) and e below
    e = np.exp(np.copysign(z, -1.0))
    return np.divide(np.fmax(e, np.sign(z)), np.add(1.0, e), out=out)


class Activation(Enum):
    """Pointwise nonlinearity with a matching analytic derivative.

    ``IDENTITY`` exists so the deep-kernel equalities can be tested exactly;
    the others are checked against finite differences.
    """

    IDENTITY = "identity"
    SIGMOID = "sigmoid"
    TANH = "tanh"
    RELU = "relu"
    QUADRATIC = "quadratic"

    def f(self, z: Array) -> Array:
        z = np.asarray(z, dtype=np.float64)
        if self is Activation.IDENTITY:
            return z.copy()
        if self is Activation.SIGMOID:
            return _sigmoid_raw(z)
        if self is Activation.TANH:
            return np.tanh(z)
        if self is Activation.RELU:
            return np.maximum(z, 0.0)
        return z * z

    def deriv(self, z: Array) -> Array:
        z = np.asarray(z, dtype=np.float64)
        if self is Activation.IDENTITY:
            return np.ones_like(z)
        if self is Activation.SIGMOID:
            s = _sigmoid_raw(z)
            return s * (1.0 - s)
        if self is Activation.TANH:
            t = np.tanh(z)
            return 1.0 - t * t
        if self is Activation.RELU:
            return (z > 0.0).astype(np.float64)
        return 2.0 * z

    def __call__(self, a: Tensor) -> Tensor:
        if self is Activation.IDENTITY:
            return a
        zd = a.data
        kind = self

        def bwd(g: Array):
            return (g * kind.deriv(zd),)

        return emit(self.f(zd), self.value, (a,), bwd)


# ---------------------------------------------------------------------------
# parameter naming
# ---------------------------------------------------------------------------


def _map_nested(value, head: str, template: str, idx: tuple[int, ...], fn):
    """``value`` with every tensor in it replaced by fn(name, tensor).

    A module-level function on purpose: a recursive closure would form a
    reference cycle that keeps ``fn`` and everything it holds alive until the
    cyclic garbage collector runs.
    """
    if isinstance(value, list):
        return [_map_nested(v, head, template, (*idx, i if isinstance(v, NamedParams) else i + 1),
                            fn) for i, v in enumerate(value)]
    if isinstance(value, NamedParams):
        return value._map(f"{head}{template.format(*idx)}.", fn)
    return fn(head + template.format(*idx), value) if isinstance(value, Tensor) else value


def _setter(holder, target: Tensor):
    """A setter for the slot of ``holder``, a list or NamedParams at any depth, holding ``target``."""
    if isinstance(holder, list):
        put, items = holder.__setitem__, enumerate(holder)
    else:
        put = partial(setattr, holder)
        items = ((f.name, getattr(holder, f.name)) for f in fields(holder))
    for key, value in items:
        if value is target:
            return partial(put, key)
        if isinstance(value, (list, NamedParams)) and (found := _setter(value, target)):
            return found
    return None


class NamedParams:
    """Flat ``name -> Tensor`` view of a dataclass of parameter tensors.

    A tensor's name is its field path.  A tensor field is named after the
    field and skipped while it is None.  A field listed in ``LISTS`` holds
    (nested) lists, named by its template with one index per nesting level,
    e.g. ``W{}`` gives ``W1, W2, ...``.  A field holding a NamedParams names
    its tensors ``field.child_name``; a list of them is numbered from 0, a
    list of tensors from 1.  Other fields pass through unnamed.  Names follow
    field order, then list order.
    """

    LISTS: ClassVar[dict[str, str]] = {"W": "W{}"}

    def _map(self, head: str, fn: Callable[[str, Tensor], Tensor]):
        """A copy with every tensor t, named ``head`` + its own name, replaced by fn(name, t)."""
        return type(self)(**{f.name: _map_nested(getattr(self, f.name), head,
                                                 self.LISTS.get(f.name, f.name), (), fn)
                             for f in fields(self)})

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        self._map("", lambda name, t: out.setdefault(name, t))
        return out

    def setter(self, name: str) -> Callable[[Tensor], None]:
        """A function that puts a tensor in place of the one named ``name``, in this
        object itself: a caller that swaps one tensor many times walks the layout once."""
        if (target := self.named().get(name)) is None:
            raise ContractError(f"no parameters named {[name]}")
        return _setter(self, target)

    def with_named(self, updates: dict[str, Tensor]):
        """A copy with the named tensors replaced; a name it does not hold is a ContractError."""
        held: set[str] = set()  # every name the one walk passes
        out = self._map("", lambda name, t: held.add(name) or updates.get(name, t))
        if unknown := updates.keys() - held:
            raise ContractError(f"no parameters named {sorted(unknown)}")
        return out


def init_params(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator,
                fill: dict[str, float] | None = None) -> dict[str, Tensor]:
    """The one init rule: a tensor per name, in order, filled with ``fill[name]``
    where given, else drawn from Uniform(-a, a) with a = 1/sqrt(its last axis)."""
    out = {}
    for name, shape in shapes.items():
        if fill and name in fill:
            out[name] = Tensor(np.full(shape, fill[name]))
        else:
            a = 1.0 / math.sqrt(shape[-1])
            out[name] = Tensor(rng.uniform(-a, a, size=shape))
    return out


def model_params(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator | None,
                 fill: dict[str, float] | None = None) -> dict[str, Tensor]:
    """:func:`init_params` given an rng; given None, a skeleton that draws nothing:
    each tensor a read-only zero view of its shape, for a decoder to replace by name."""
    if rng is not None:
        return init_params(shapes, rng, fill)
    skeleton = {name: Tensor.__new__(Tensor) for name in shapes}
    for name, shape in shapes.items():  # a zero view is finite and read-only: nothing to scan
        skeleton[name].data = np.broadcast_to(0.0, shape)
    return skeleton


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, eps: float = 1e-6) -> Tensor:
    """Central-difference gradient of scalar ``f`` at ``x``, one coordinate at a time.

    Independent of the tape machinery on purpose: this is the oracle the
    tape is checked against.  Each side of coordinate i is one copy of ``x``
    with only entry i moved, in C order whatever the layout of ``x.data``.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    base = x.data
    grad = np.empty(base.shape)
    for i in range(base.size):
        up, down = base.copy(), base.copy()
        up.flat[i] += eps
        down.flat[i] -= eps
        hi = float(f(Tensor._adopt(up)))
        lo = float(f(Tensor._adopt(down)))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            idx = tuple(int(k) for k in np.unravel_index(i, base.shape))
            raise EvaluationError(f"non-finite value while perturbing coordinate {idx}")
        grad.flat[i] = (hi - lo) / (2.0 * eps)
    return Tensor._adopt(grad)


def rel_error(a, b) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, 1): relative with a unit floor."""
    ad = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    bd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    if ad.shape != bd.shape:
        raise ShapeError(f"rel_error needs equal shapes, got {ad.shape} and {bd.shape}")
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(bd)), 1.0)
    return float(np.max(np.abs(ad - bd) / denom, initial=0.0))
