"""Spans and counts at the library's layer boundaries, by wrapping functions.

A target is a module-level function of ``sr3d``.  While a :func:`patched`
block is open, or a :class:`Patch` is applied, the target is replaced by a wrapper where it is defined and in
every ``sr3d`` module that imported it by name; the originals come back when
the block ends.  A target that no longer exists is recorded in
``Tracer.absent`` with its missing name instead of failing the run, so the
trace survives refactors that delete or rename kernels.

Spans (name, start, end, parent, op) are kept in memory and written out at
the end of the run.  A span's self time is its duration minus the durations
of its direct children; one thread calls the library, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

# An info hook turns (args, kwargs, result) of a wrapped call into a small
# dict stored on its span, e.g. the RK4 steps the call ran.
InfoHook = Callable[[tuple, dict, Any], Dict[str, Any]]


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    info: Optional[InfoHook] = None
    count_only: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.split('.')[-1]}.{self.attr}"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.info = parent, op, None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, label: str):
        self.label = label
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.absent: Dict[str, str] = {}  # span name -> why it is missing
        self._stack: List[int] = []
        self._op = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, index: int) -> Iterator[None]:
        """Root span of one op; every span inside carries its index."""
        self._op = index
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self._op = -1

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        if target.count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if target.info is not None:
                span.info = target.info(args, kwargs, result)
            return result
        return traced

    # --- derived numbers ----------------------------------------------------

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def within(self, span: Span, ancestor: str) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name == ancestor:
                return True
            p = self.spans[p].parent
        return False

    def as_dict(self) -> dict:
        """Everything recorded; spans as [name, start, end, parent, op, info]."""
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.info] for s in self.spans]
        return {"label": self.label, "counts": dict(self.counts),
                "absent": self.absent, "spans": rows}


def _sr3d_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "sr3d" or n.startswith("sr3d."))]


class Patch:
    """Wrappers for the targets, found once; :meth:`apply` puts them in place
    and :meth:`restore` puts the originals back, cheaply enough to do per op."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target]):
        self.swaps = []  # (module, attribute, original, wrapper)
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                tracer.absent[target.name] = f"module {target.module} not found"
                continue
            original = getattr(module, target.attr, None)
            if not callable(original):
                tracer.absent[target.name] = f"{target.module}.{target.attr} not found"
                continue
            wrapper = tracer.wrap(target, original)
            for mod in _sr3d_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.swaps.append((mod, attr, original, wrapper))

    def apply(self) -> None:
        for mod, attr, _, wrapper in self.swaps:
            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original, _ in reversed(self.swaps):
            setattr(mod, attr, original)


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore."""
    patch = Patch(tracer, targets)
    patch.apply()
    try:
        yield tracer
    finally:
        patch.restore()
