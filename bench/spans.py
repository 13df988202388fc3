"""In-memory span tracer that times a package's public functions from outside.

``Tracer`` is one small context manager.  Entering it rebinds every wrapped
function in every module of the package that holds the function by name (so
``sigmoid`` is replaced in ``neurons``, ``network``, ``inference`` and
``coding`` alike, and an alias such as ``train.net_forward`` is caught too);
leaving it restores the originals.  Each wrapped call records a span with a
name, start, end, parent span and the id of the benchmark operation it ran
under.  Spans stay in memory until the caller writes them out.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (``self_times``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    start: float
    end: float = float("nan")


@dataclass(slots=True)
class Call:
    """What a return hook sees of one wrapped call."""

    args: tuple
    kwargs: dict
    counts_before: dict


class Tracer:
    """Records nested spans and per-operation counts while active.

    ``wrap`` registers a function to time; ``span`` times a block of the
    caller's own code; ``operation`` sets the id that every span and count
    recorded inside it shares.  ``paused`` suspends recording without
    unbinding, for untimed checks.
    """

    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self.counts: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.op = ""
        self.recording = True
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, module: str, attr: str, on_return=None) -> None:
        """Time ``module.attr`` as span ``name``; ``on_return(tracer, call, result)``
        may add counts after each call."""
        self._targets.append((name, module, attr, on_return))

    def count(self, key: str, n: float = 1) -> None:
        if self.recording:
            self.counts[self.op][key] += n

    @contextmanager
    def operation(self, op: str):
        prev, self.op = self.op, op
        try:
            yield
        finally:
            self.op = prev

    @contextmanager
    def paused(self):
        prev, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = prev

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        s = Span(id=len(self.spans), parent=self._stack[-1] if self._stack else None,
                 op=self.op, name=name, start=time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn, on_return):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            before = dict(self.counts[self.op]) if on_return else None
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_return:
                on_return(self, Call(args, kwargs, before), out)
            return out
        return timed

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for name, module, attr, on_return in self._targets:
            fn = getattr(sys.modules[module], attr)
            timed = self._wrapper(name, fn, on_return)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, timed)
                        self._patches.append((mod, key, fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; overlapping children are
    counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out
