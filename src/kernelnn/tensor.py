"""Dense float64 tensors, a reverse-mode tape, and a finite-difference oracle.

Everything downstream (sequence modules, graph modules, training) is built on
the small op set defined here.  Values are immutable numpy arrays; gradients
are produced by replaying a :class:`Tape` in reverse creation order, which
makes repeated backward passes bit-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import ContractError, EvaluationError, ShapeError

Array = np.ndarray

# one tape stack per thread: a Tape is single-threaded, distinct Tapes may
# run concurrently
_TAPES = threading.local()


def _stack() -> list["Tape"]:
    if not hasattr(_TAPES, "stack"):
        _TAPES.stack = []
    return _TAPES.stack


def _active_tape() -> "Tape | None":
    stack = _stack()
    return stack[-1] if stack else None


class Tensor:
    """Immutable float64 array. Ops on tensors record to the open Tape, if any."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise EvaluationError("tensor holds non-finite entries")
        arr.flags.writeable = False
        self.data = arr

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

    # arithmetic sugar; all shape checks live in the op functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return scale(self, -1.0)


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


@dataclass
class _Node:
    out: Tensor
    op: str
    parents: tuple[Tensor, ...]
    # maps the output adjoint to one adjoint contribution per parent
    bwd: Callable[[Array], tuple[Array, ...]]


class Tape:
    """Append-only record of ops, replayed in reverse for gradients.

    A tape is single-threaded; open it with a ``with`` block.  Tensors created
    while no tape is open are plain values and never receive gradients.
    """

    def __init__(self) -> None:
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _stack().pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, root: Tensor) -> dict[Tensor, Tensor]:
        """Gradients of scalar ``root`` w.r.t. every reachable leaf tensor.

        Leaves are tensors that were consumed by some recorded op but not
        produced by one (parameters and inputs).  Accumulation follows node
        creation order, so two identical passes give bit-identical results.
        """
        if root.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        adjoints: dict[int, Array] = {id(root): np.ones_like(root.data)}
        produced = {id(node.out) for node in self._nodes}
        by_id: dict[int, Tensor] = {id(root): root}
        for node in reversed(self._nodes):
            out_adj = adjoints.get(id(node.out))
            if out_adj is None:
                continue
            contribs = node.bwd(out_adj)
            for parent, contrib in zip(node.parents, contribs):
                if contrib is None:
                    continue
                key = id(parent)
                by_id[key] = parent
                acc = adjoints.get(key)
                if acc is None:
                    adjoints[key] = np.array(contrib, dtype=np.float64)
                else:
                    acc += contrib
        grads: dict[Tensor, Tensor] = {}
        for key, adj in adjoints.items():
            if key not in produced:
                grads[by_id[key]] = Tensor(adj)
        return grads


def backward(tape: Tape, root: Tensor) -> dict[Tensor, Tensor]:
    """Functional alias for :meth:`Tape.backward`."""
    return tape.backward(root)


def _emit(out_data: Array, op: str, parents: tuple[Tensor, ...], bwd) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        tape._nodes.append(_Node(out, op, parents, bwd))
    return out


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """Matrix-vector product ``w @ x`` for w of shape (m, d) and x of shape (d,)."""
    if w.data.ndim != 2 or x.data.ndim != 1 or w.shape[1] != x.shape[0]:
        raise ShapeError(f"matvec needs (m,d) @ (d,), got {w.shape} @ {x.shape}")
    wd, xd = w.data, x.data

    def bwd(g: Array):
        return np.outer(g, xd), wd.T @ g

    return _emit(wd @ xd, "matvec", (w, x), bwd)


def add(a, b) -> Tensor:
    if isinstance(a, Tensor) and not isinstance(b, Tensor) and np.isscalar(b):
        av = a

        def bwd_s(g: Array):
            return (g,)

        return _emit(av.data + float(b), "add_scalar", (av,), bwd_s)
    if isinstance(b, Tensor) and not isinstance(a, Tensor) and np.isscalar(a):
        return add(b, a)
    ta, tb = _coerce(a), _coerce(b)
    if ta.shape != tb.shape:
        raise ShapeError(f"add needs equal shapes, got {ta.shape} and {tb.shape}")

    def bwd(g: Array):
        return g, g

    return _emit(ta.data + tb.data, "add", (ta, tb), bwd)


def sub(a, b) -> Tensor:
    if isinstance(b, Tensor) and not isinstance(a, Tensor) and np.isscalar(a):
        tb = b

        def bwd_s(g: Array):
            return (-g,)

        return _emit(float(a) - tb.data, "rsub_scalar", (tb,), bwd_s)
    if isinstance(a, Tensor) and not isinstance(b, Tensor) and np.isscalar(b):
        return add(a, -float(b))
    ta, tb = _coerce(a), _coerce(b)
    if ta.shape != tb.shape:
        raise ShapeError(f"sub needs equal shapes, got {ta.shape} and {tb.shape}")

    def bwd(g: Array):
        return g, -g

    return _emit(ta.data - tb.data, "sub", (ta, tb), bwd)


def mul(a, b) -> Tensor:
    if isinstance(a, Tensor) and not isinstance(b, Tensor) and np.isscalar(b):
        return scale(a, float(b))
    if isinstance(b, Tensor) and not isinstance(a, Tensor) and np.isscalar(a):
        return scale(b, float(a))
    ta, tb = _coerce(a), _coerce(b)
    if ta.shape != tb.shape:
        raise ShapeError(f"mul needs equal shapes, got {ta.shape} and {tb.shape}")
    ad, bd = ta.data, tb.data

    def bwd(g: Array):
        return g * bd, g * ad

    return _emit(ad * bd, "mul", (ta, tb), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g: Array):
        return (g * c,)

    return _emit(a.data * c, "scale", (a,), bwd)


def smul(s: Tensor, a: Tensor) -> Tensor:
    """Broadcast a scalar tensor over ``a`` (both factors differentiable)."""
    if s.size != 1:
        raise ShapeError(f"smul needs a scalar first factor, got shape {s.shape}")
    sv = float(s.data.reshape(()))
    ad = a.data

    def bwd(g: Array):
        return np.sum(g * ad).reshape(s.shape), g * sv

    return _emit(ad * sv, "smul", (s, a), bwd)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot needs equal 1-d shapes, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g: Array):
        return g * bd, g * ad

    return _emit(np.dot(ad, bd), "dot", (a, b), bwd)


def tsum(a: Tensor) -> Tensor:
    shape = a.shape

    def bwd(g: Array):
        return (np.full(shape, float(g)),)

    return _emit(np.sum(a.data), "sum", (a,), bwd)


def concat(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise ShapeError(f"concat needs 1-d inputs, got {a.shape} and {b.shape}")
    na = a.shape[0]

    def bwd(g: Array):
        return g[:na], g[na:]

    return _emit(np.concatenate([a.data, b.data]), "concat", (a, b), bwd)


def column(a: Tensor, j: int) -> Tensor:
    """Column j of a 2-d tensor; the gradient scatters back into that column."""
    if a.data.ndim != 2:
        raise ShapeError(f"column needs a 2-d input, got {a.shape}")
    if not 0 <= j < a.shape[1]:
        raise ContractError(f"column {j} out of range for shape {a.shape}")
    shape = a.shape

    def bwd(g: Array):
        out = np.zeros(shape)
        out[:, j] = g
        return (out,)

    return _emit(a.data[:, j].copy(), "column", (a,), bwd)


def pick(a: Tensor, index: int) -> Tensor:
    if a.data.ndim != 1:
        raise ShapeError(f"pick needs a 1-d input, got {a.shape}")
    if not 0 <= index < a.shape[0]:
        raise ContractError(f"pick index {index} out of range for shape {a.shape}")
    shape = a.shape

    def bwd(g: Array):
        out = np.zeros(shape)
        out[index] = float(g)
        return (out,)

    return _emit(a.data[index], "pick", (a,), bwd)


def logsumexp(a: Tensor) -> Tensor:
    if a.data.ndim != 1:
        raise ShapeError(f"logsumexp needs a 1-d input, got {a.shape}")
    m = np.max(a.data)
    ez = np.exp(a.data - m)
    z = np.sum(ez)
    soft = ez / z

    def bwd(g: Array):
        return (float(g) * soft,)

    return _emit(m + np.log(z), "logsumexp", (a,), bwd)


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


def _sigmoid_raw(z: Array) -> Array:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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

        return _emit(self.f(zd), self.value, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    return Activation.SIGMOID(a)


def tanh(a: Tensor) -> Tensor:
    return Activation.TANH(a)


def relu(a: Tensor) -> Tensor:
    return Activation.RELU(a)


def quadratic(a: Tensor) -> Tensor:
    return Activation.QUADRATIC(a)


# ---------------------------------------------------------------------------
# parameter naming
# ---------------------------------------------------------------------------


class NamedParams:
    """Flat ``prefix.name -> Tensor`` view of a dataclass of parameter tensors.

    A tensor field is named after the field and skipped while it is None.  A
    field listed in ``LISTS`` holds (nested) lists of tensors, named by its
    template with one 1-based index per nesting level, e.g. ``W{}`` gives
    ``W1, W2, ...``.  Names follow field order, then list order.
    """

    LISTS: ClassVar[dict[str, str]] = {"W": "W{}"}
    PREFIX: ClassVar[str] = ""

    def _map(self, prefix: str | None, fn: Callable[[str, Tensor], Tensor]) -> dict:
        """Field values with every tensor t replaced by fn(name, t)."""
        prefix = self.PREFIX if prefix is None else prefix
        head = f"{prefix}." if prefix else ""

        def walk(value, template: str, idx: tuple[int, ...]):
            if isinstance(value, list):
                return [walk(v, template, (*idx, i + 1)) for i, v in enumerate(value)]
            return None if value is None else fn(head + template.format(*idx), value)

        return {f.name: walk(getattr(self, f.name), self.LISTS.get(f.name, f.name), ())
                for f in fields(self)}

    def named(self, prefix: str | None = None) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        self._map(prefix, lambda name, t: out.setdefault(name, t))
        return out

    def with_named(self, updates: dict[str, Tensor], prefix: str | None = None):
        """A copy with the named tensors replaced; names it does not hold are ignored."""
        return type(self)(**self._map(prefix, lambda name, t: updates.get(name, t)))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, eps: float = 1e-6) -> Tensor:
    """Central-difference gradient of scalar ``f`` at ``x``, one coordinate at a time.

    Independent of the tape machinery on purpose: this is the oracle the
    tape is checked against.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    base = x.data
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        bump = np.zeros_like(base).reshape(-1)
        bump[i] = eps
        bump = bump.reshape(base.shape)
        hi = float(f(Tensor(base + bump)))
        lo = float(f(Tensor(base - bump)))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            idx = tuple(int(k) for k in np.unravel_index(i, base.shape))
            raise EvaluationError(f"non-finite value while perturbing coordinate {idx}")
        flat[i] = (hi - lo) / (2.0 * eps)
    return Tensor(grad)


def rel_error(a, b, floor: float = 1.0) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor): relative with a unit floor."""
    ad = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    bd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    if ad.shape != bd.shape:
        raise ShapeError(f"rel_error needs equal shapes, got {ad.shape} and {bd.shape}")
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(bd)), floor)
    if ad.size == 0:
        return 0.0
    return float(np.max(np.abs(ad - bd) / denom))
