"""In-memory span recorder for the traced benchmark run.

A span records name, start, end, parent span and op id.  Spans are recorded
around calls into the library's public functions by wrappers that the
recorder installs in every namespace that binds the function (a module that
did ``from .x import f`` looks ``f`` up in its own namespace) and removes
again in ``restore``.  Nothing inside the library is instrumented.

Spans of the functions named in ``peak_names`` also record their
tracemalloc peak: tracemalloc runs only inside those spans, which must not
nest, because tracing every allocation slows the per-sample Python loops of
the library several times over.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    peak_bytes: int
    counts: dict | None


class _Frame:
    __slots__ = ("id", "name", "start", "parent", "tracks_peak")

    def __init__(self, sid, name, parent):
        self.id, self.name, self.parent = sid, name, parent
        self.start = 0.0
        self.tracks_peak = False


class Recorder:
    """Records spans; the thread that creates it is the op thread.

    A span opened on another thread with no open span of its own (a worker
    of the CLI's thread pool) gets the innermost open span of the op thread
    as its parent: the op thread is blocked inside that span waiting for it.
    """

    def __init__(self, peak_names=()):
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._peak_names = frozenset(peak_names)
        self._ids = itertools.count(1)
        self._op_thread = threading.get_ident()
        self._op_stack: list[_Frame] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if threading.get_ident() == self._op_thread:
            return self._op_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._op_stack:
            parent = self._op_stack[-1].id
        else:
            parent = None
        frame = _Frame(next(self._ids), name, parent)
        if name in self._peak_names and not tracemalloc.is_tracing():
            tracemalloc.start()
            frame.tracks_peak = True
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def exit(self, frame: _Frame, counts: dict | None = None) -> None:
        end = time.perf_counter()
        self._stack().pop()
        peak_bytes = 0
        if frame.tracks_peak:
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self.spans.append(Span(frame.id, frame.name, frame.start, end, frame.parent,
                               self.op_id, peak_bytes, counts))

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Return fn wrapped in a span; count(args, kwargs, result, exc) -> dict."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(frame, count(args, kwargs, None, exc) if count else None)
                raise
            self.exit(frame, count(args, kwargs, result, None) if count else None)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each (span name, module, attribute, count) target.

        Every binding of the original function in the target's package and
        its submodules is replaced, so each caller sees the wrapper whichever
        namespace it looks the name up in.
        """
        originals = [getattr(importlib.import_module(module), attr)
                     for _, module, attr, _ in targets]
        packages = {module.split(".")[0] for _, module, _, _ in targets}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and n.split(".")[0] in packages]
        for (name, _, _, count), original in zip(targets, originals):
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def restore(self) -> None:
        """Put every original function back."""
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the part of its interval
    that the union of its children's intervals covers."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c_lo, c_hi in sorted(children.get(s.id, ())):
            c_lo, c_hi = max(c_lo, s.start), min(c_hi, s.end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def aggregate(spans) -> dict:
    """Per span name: calls, total self time, largest peak and summed counts."""
    selfs = self_times(spans)
    stats = {}
    for s in spans:
        st = stats.setdefault(s.name, {"calls": 0, "self_s": 0.0, "peak_bytes": 0,
                                       "counts": defaultdict(float)})
        st["calls"] += 1
        st["self_s"] += selfs[s.id]
        st["peak_bytes"] = max(st["peak_bytes"], s.peak_bytes)
        for key, value in (s.counts or {}).items():
            st["counts"][key] += value
    return stats
