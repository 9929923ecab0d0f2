"""Spans around the isingring package's public callables, and the arithmetic
that turns them into per-layer metrics.

A layer is one module of the package.  `Tracer.install` replaces every
public function of every module, at each module attribute that holds it
(the name the caller looks up at call time), and every public method plus
explicit `__init__`/`__post_init__` of the package's classes, with a
wrapper that records a span (name, start, end, parent, op id, shape of the
first argument).  Nothing inside the package changes; `uninstall` puts the
originals back.  Spans nest properly because the traced run is serial and
single-threaded.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

LAYERS = ("cli", "simulate", "model", "even_observables", "odd_observables",
          "pfaffian", "rdm", "ed_oracle")

#: Real flops per trailing-block element per elimination step: the rank-2
#: complex update a b^T - b a^T is two complex multiply-adds of 8 flops.
FLOP_PER_ELEM = 16
#: Bytes per trailing-block element per step: one complex128 read and write.
BYTE_PER_ELEM = 32

_HOOKS = ("__init__", "__post_init__")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    op: object
    shape: tuple | None  # shape of the first argument, when it has one

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _first_shape(args) -> tuple | None:
    if not args:
        return None
    first = getattr(args[0], "entries", args[0])   # SkewMatrix holds an array
    shape = getattr(first, "shape", None)
    return tuple(shape) if shape is not None else None


class Tracer:
    """Span recorder for one package; spans accumulate in `self.spans`."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list[Span | None] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        shaped = name.startswith("pfaffian.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op,
                                    _first_shape(args) if shaped else None)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        names = {}                      # id(original) -> span name
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(obj, short)
                elif callable(obj):
                    names[id(obj)] = f"{short}.{attr}"
        wrappers = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                name = names.get(id(obj))
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def _patch_class(self, cls, short: str) -> None:
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr.startswith("_") and attr not in _HOOKS:
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue                # generated; __post_init__ holds the work
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, f"{short}.{cls.__name__}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        """Return the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        done = list(self.spans)
        self.spans.clear()
        return done


# ---------------------------------------------------------------------------
# arithmetic on a list of properly nested spans (parents precede children)
# ---------------------------------------------------------------------------

def layer_self_times(spans) -> dict[str, float]:
    """Seconds in which each layer's span is the innermost open span.

    A span's self time is its duration minus that of its direct children,
    so a span nested in one of the same layer is counted once, as itself.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.layer] += s.duration - child[i]
    return dict(out)


def _ancestors(spans, i: int):
    p = spans[i].parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent


def outermost(spans, match) -> list[Span]:
    """Spans satisfying `match` that have no ancestor satisfying it."""
    return [s for i, s in enumerate(spans)
            if match(s) and not any(match(a) for a in _ancestors(spans, i))]


def inclusive(spans, name: str) -> float:
    """Wall seconds inside spans called `name`, nested repeats counted once."""
    return sum(s.duration for s in outermost(spans, lambda s: s.name == name))


def inclusive_without(spans, name: str, layer: str) -> float:
    """`inclusive(name)` less the time of `layer` spans nested inside it."""
    inner = sum(s.duration
                for i, s in enumerate(spans)
                if s.layer == layer
                and not any(a.layer == layer for a in _ancestors(spans, i))
                and any(a.name == name for a in _ancestors(spans, i)))
    return inclusive(spans, name) - inner


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def pfaffian_work(n: int, batch: int) -> tuple[float, float]:
    """(flops, bytes) of eliminating `batch` skew matrices of dimension n.

    Computed from n and the batch size, not counted by hardware: step
    j = 1 .. n/2 - 1 updates a trailing block of (n - 2j)^2 elements.
    """
    elems = sum((n - 2 * j) ** 2 for j in range(1, n // 2))
    return (float(batch * FLOP_PER_ELEM * elems),
            float(batch * BYTE_PER_ELEM * elems))


def _pfaffian_function(s: Span) -> bool:
    return s.layer == "pfaffian" and s.name.count(".") == 1


def pfaffian_calls(spans) -> list[tuple[float, int, int]]:
    """(seconds, matrices, dimension) of each outermost call of a
    module-level function of the pfaffian layer (not its classes)."""
    calls = []
    for s in outermost(spans, _pfaffian_function):
        shape = s.shape or (0, 0)
        matrices = 1
        for d in shape[:-2]:
            matrices *= d
        calls.append((s.duration, matrices, shape[-1]))
    return calls
