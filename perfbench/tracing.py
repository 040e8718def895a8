"""In-memory span tracer that wraps a program's public calls from outside.

The benchmark never edits the program under test. A traced run instead
replaces selected public functions and methods with thin wrappers that
open a span around each call, then restores the originals. Spans are
plain tuples kept in memory and written out once, when the run ends.

Two kinds of wrapper exist:

- :meth:`Tracer.wrap` records one span per call (name, start, end,
  parent span, trace id). Use it for calls made a few times per cell
  or job.
- :meth:`Tracer.wrap_hot` is for calls made up to millions of times
  (the tracker feedback slow path). It keeps only a running total and
  a call count per (name, parent span), and charges the time to the
  enclosing span so that the parent's self time stays right.

Spans of one grid cell or service job share a trace id, which a
wrapper derives from the call's arguments or inherits from its parent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One finished span: (span_id, parent_id, trace_id, name, start, end).
Span = Tuple[int, int, str, str, float, float]


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        root_trace_id: Callable[[], str] = lambda: "",
    ) -> None:
        self.clock = clock
        #: Trace id of a span opened with no parent and no explicit id.
        self.root_trace_id = root_trace_id
        self.spans: List[Span] = []
        #: (name, parent_id, trace_id) -> [total seconds, calls]
        self.rollups: Dict[Tuple[str, int, str], List[float]] = defaultdict(
            lambda: [0.0, 0]
        )
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    # -- span stack ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace_id: Optional[str] = None) -> list:
        """Start a span; returns the frame that :meth:`close` takes."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None:
            trace_id = parent[2] if parent else self.root_trace_id()
        frame = [next(self._ids), parent[0] if parent else 0, trace_id, name,
                 self.clock()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        span_id, parent_id, trace_id, name, start = frame
        with self._lock:
            self.spans.append((span_id, parent_id, trace_id, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str, trace_id: Optional[str] = None):
        """Context manager form of :meth:`open`/:meth:`close`."""
        frame = self.open(name, trace_id)
        try:
            yield frame
        finally:
            self.close(frame)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    # -- patching --------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        trace_id_of: Optional[Callable[..., Optional[str]]] = None,
        on_return: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span a call.

        ``trace_id_of(*args, **kwargs)`` may name the span's trace id
        (``None`` inherits the parent's). ``on_return(frame, result,
        *args, **kwargs)`` sees each call's result while the span is
        still open, so it may retag ``frame[2]`` (the trace id).
        """
        original, kind = _unwrap_descriptor(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            trace_id = trace_id_of(*args, **kwargs) if trace_id_of else None
            frame = tracer.open(name, trace_id)
            try:
                result = original(*args, **kwargs)
                if on_return is not None:
                    on_return(frame, result, *args, **kwargs)
            finally:
                tracer.close(frame)
            return result

        self._patch(owner, attr, kind(wrapper))

    def wrap_hot(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only sums time."""
        original, kind = _unwrap_descriptor(owner, attr)
        tracer = self
        clock = self.clock
        rollups = self.rollups

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                key = (name, parent[0] if parent else 0,
                       parent[2] if parent else "")
                entry = rollups[key]
                entry[0] += elapsed
                entry[1] += 1

        self._patch(owner, attr, kind(wrapper))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Swap in an arbitrary replacement, restored by :meth:`restore`."""
        self._patch(owner, attr, value)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """name -> (total seconds, calls) over spans and rollups."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for _, _, _, name, start, end in self.spans:
            out[name][0] += end - start
            out[name][1] += 1
        for (name, _, _), (total, calls) in self.rollups.items():
            out[name][0] += total
            out[name][1] += calls
        return {k: (v[0], int(v[1])) for k, v in out.items()}

    def self_times(self) -> Dict[str, float]:
        """name -> summed self time: duration minus time its children cover.

        Children of one span run on the parent's thread and never
        overlap, so the covered part is the sum of their durations.
        """
        covered: Dict[int, float] = defaultdict(float)
        for _, parent_id, _, _, start, end in self.spans:
            if parent_id:
                covered[parent_id] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, parent_id, _), (total, _) in self.rollups.items():
            out[name] += total
            if parent_id:
                covered[parent_id] += total
        for span_id, _, _, name, start, end in self.spans:
            out[name] += (end - start) - covered.get(span_id, 0.0)
        return dict(out)

    def export(self) -> Dict[str, Any]:
        """Spans, rollups and counts as plain JSON-ready data."""
        return {
            "spans": [list(s) for s in self.spans],
            "rollups": [
                [name, parent, trace, total, calls]
                for (name, parent, trace), (total, calls) in self.rollups.items()
            ],
            "counts": dict(self.counts),
        }


def _unwrap_descriptor(owner: Any, attr: str):
    """The plain function behind ``owner.attr`` and how to re-wrap it."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, staticmethod):
        return raw.__func__, staticmethod
    if isinstance(raw, classmethod):
        return raw.__func__, classmethod
    return raw, lambda f: f
