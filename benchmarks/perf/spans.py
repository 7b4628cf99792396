"""In-memory span recorder for the traced benchmark pass.

Spans are recorded *from outside* the program: the benchmark replaces an
attribute (a module-level function, a method on a class) by a wrapper
that opens a span, calls the original and closes the span.  Nothing
under ``src/`` knows it is being timed, and :meth:`SpanRecorder.restore`
puts every original back.

A span is ``(name, start, end, parent id, iteration id)``; ids are list
positions.  Spans of one timed iteration share its iteration id.  A
span's *self time* is its duration minus the part its direct children
cover (one thread, so children never overlap each other).  The five
fields live in five flat lists: tens of thousands of per-span containers
would give the cyclic collector work that the untraced pass does not do.

Private names move.  Asking to wrap an attribute that no longer exists
is not an error: the span name lands in :attr:`SpanRecorder.absent`, the
metrics derived from it are reported as ``null`` with a warning, and the
benchmark carries on -- a refactor costs one layer metric, not the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecorder", "SpanTotals"]

#: ``on_exit(result, args, kwargs)`` -- lets a wrapper count what the call
#: produced (steps returned, engine chosen) at the boundary it times.
#: Fires only inside a timed iteration, so counts are per timed work.
ExitHook = Callable[[Any, tuple, dict], None]


class SpanTotals:
    """Calls, total duration and total self time of one span name."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class SpanRecorder:
    def __init__(self) -> None:
        # one entry per span in each; ``ends`` holds None while it is open
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[Optional[float]] = []
        self.parents: List[int] = []
        self.iterations: List[int] = []
        self._stack: List[int] = []
        self.iteration = -1
        self._timed = 0
        #: span names whose wrap target was missing
        self.absent: List[str] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.iterations.append(self.iteration)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def rows(self):
        """``(name, start, end, parent, iteration)`` per span, by id."""
        return zip(self.names, self.starts, self.ends, self.parents, self.iterations)

    @contextmanager
    def timed_iteration(self):
        """Root span of one timed iteration; children carry its id.

        Spans recorded outside any timed iteration carry id ``-1`` and
        stay out of :meth:`per_iteration`.
        """
        self.iteration = self._timed
        self._timed += 1
        try:
            with self.span("iteration") as index:
                yield index
        finally:
            self.iteration = -1

    # -- wrapping -------------------------------------------------------
    def _wrapper(self, original: Callable, name: str, on_exit: Optional[ExitHook]):
        open_span, close_span = self._open, self._close

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = open_span(name)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(index)
            if on_exit is not None and self.iteration >= 0:
                on_exit(result, args, kwargs)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_exit: Optional[ExitHook] = None,
    ) -> bool:
        """Wrap ``owner.attr`` (a class, instance or module attribute)."""
        raw = vars(owner).get(attr, _MISSING)
        if raw is _MISSING:
            self.absent.append(name)
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            traced = type(raw)(self._wrapper(raw.__func__, name, on_exit))
        else:
            traced = self._wrapper(raw, name, on_exit)
        self._patch(owner, attr, traced)
        return True

    def wrap_function(
        self,
        module: str,
        attr: str,
        name: str,
        on_exit: Optional[ExitHook] = None,
    ) -> bool:
        """Wrap a module-level function wherever its package holds it.

        ``from m import f`` copies the reference into the importer, so
        the defining module alone is not enough: every loaded module of
        ``module``'s top-level package whose ``attr`` *is* the original
        gets the wrapper.
        """
        package = module.partition(".")[0]
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return False
        traced = self._wrapper(original, name, on_exit)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            if vars(mod).get(attr) is original:
                self._patch(mod, attr, traced)
        return True

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._patched:
            owner, attr, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- reading --------------------------------------------------------
    def per_iteration(self) -> Dict[str, Dict[int, SpanTotals]]:
        """``name -> iteration id -> totals`` over the timed iterations."""
        child_cover = [0.0] * len(self.names)
        for _name, start, end, parent, _iteration in self.rows():
            if parent >= 0 and end is not None:
                child_cover[parent] += end - start
        out: Dict[str, Dict[int, SpanTotals]] = {}
        for index, (name, start, end, _parent, iteration) in enumerate(self.rows()):
            if end is None or iteration < 0:
                continue
            entry = out.setdefault(name, {}).get(iteration)
            if entry is None:
                entry = out[name][iteration] = SpanTotals()
            duration = end - start
            entry.calls += 1
            entry.total += duration
            entry.self_time += duration - child_cover[index]
        return out

    def durations(self, name: str) -> List[float]:
        """Durations of the ``name`` spans inside timed iterations."""
        return [
            end - start
            for span, start, end, _parent, iteration in self.rows()
            if span == name and end is not None and iteration >= 0
        ]

    def timed_span_count(self) -> int:
        return sum(1 for iteration in self.iterations if iteration >= 0)

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        """One JSON document: ``meta``, column names, span rows."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta or {},
                    "absent": self.absent,
                    "columns": ["name", "start", "end", "parent", "iteration"],
                    "spans": list(self.rows()),
                },
                fh,
            )
            fh.write("\n")


_MISSING = object()
