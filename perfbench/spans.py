"""In-memory spans around calls into the program's public functions.

A :class:`Tracer` replaces public methods and functions with wrappers
at run time (nothing in ``src/`` changes) and restores them on
:meth:`Tracer.uninstall`.  Each wrapped call records one span: its name,
start, end, the span that was open when it began (its parent), and the
run id shared by every span of one workload run.  Counts are recorded
by hooks at the same boundaries.  Everything stays in memory until the
run ends; :func:`totals` and :func:`self_times` then reduce the spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Records nested spans and counts for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        """Close the span ``index`` (always the innermost open one)."""
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        record: Callable[..., None] | None = None,
        prepare: Callable[[tuple], tuple] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``name`` is the span name, or a function of the call's positional
        arguments that returns it.  ``prepare`` may rewrite the positional
        arguments before the call (to materialise an iterable it counts);
        ``record(counts, args, result)`` adds counts after it returns.
        Works for functions, methods, classmethods and staticmethods.  A
        generator function is drained inside its span, so the span holds
        the work, and the wrapper returns an iterator over the results.
        """
        original = inspect.getattr_static(owner, attr)
        binder = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        func = original.__func__ if binder else original
        drain = inspect.isgeneratorfunction(func)
        begin, end, counts = self.begin, self.end, self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            index = begin(name if isinstance(name, str) else name(args))
            try:
                result = func(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                end(index)
            if record is not None:
                record(counts, args, result)
            return result

        setattr(owner, attr, binder(wrapper) if binder else wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    covered = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    starts, ends = tracer.starts, tracer.ends
    for index, parent in enumerate(tracer.parents):
        if parent >= 0:
            children[parent].append((starts[index], ends[index]))
    return [
        ends[i] - starts[i] - _covered(children.get(i, ()), starts[i], ends[i])
        for i in range(len(tracer.names))
    ]


def totals(tracer: Tracer) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: total time, total self time and call count.

    A span nested inside a span of the same name adds to the count but
    not to the time, which its outer span already holds.
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    names, parents = tracer.names, tracer.parents
    selfs = self_times(tracer)
    for index, name in enumerate(names):
        calls[name] += 1
        own[name] += selfs[index]
        parent = parents[index]
        while parent >= 0 and names[parent] != name:
            parent = parents[parent]
        if parent < 0:
            total[name] += tracer.ends[index] - tracer.starts[index]
    return total, own, calls


def coverage(tracer: Tracer, low: float, high: float) -> float:
    """Share of ``[low, high]`` covered by top-level spans."""
    top = [
        (tracer.starts[i], tracer.ends[i])
        for i, parent in enumerate(tracer.parents)
        if parent < 0
    ]
    return _covered(top, low, high) / (high - low) if high > low else 0.0
