"""Outside-in span recording: wrap module attributes, keep spans in memory.

A :class:`Tracer` replaces named callables (``module.attr`` or
``module.Class.method``) with wrappers that record one span per call: name,
start, end, parent span and run id, plus an optional tag and count drawn from
the call's arguments.  Uninstalling puts the original objects back.  No
source file of the program is touched, and a name that no longer exists is
recorded as missing instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    run: int
    tag: str | None = None
    count: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A callable to wrap: ``module`` plus a dotted ``attr`` path inside it."""

    module: str
    attr: str
    span: str
    tag: Callable | None = None
    count: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._run = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str, tag: str | None = None, count: int | None = None,
              run: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if run is not None:
            self._run = run
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._run, tag, count))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = target.tag(*args, **kwargs) if target.tag else None
            count = target.count(*args, **kwargs) if target.count else None
            index = self.begin(target.span, tag, count)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.add(target.span)
                continue
            if not callable(original):
                self.missing.add(target.span)
                continue
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, target))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def children(spans: list[Span]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            out[span.parent].append(i)
    return out


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    kids = children(spans)
    return [
        s.duration - covered(((spans[k].start, spans[k].end) for k in kids[i]), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def ancestor_names(spans: list[Span]) -> list[frozenset[str]]:
    """Names of all strict ancestors of every span (parents precede children)."""
    out: list[frozenset[str]] = []
    for span in spans:
        if span.parent < 0:
            out.append(frozenset())
        else:
            out.append(out[span.parent] | {spans[span.parent].name})
    return out
