"""Span recorder: the flight recorder behind ``world.obs``.

A traced run records into one :class:`SpanRecorder`: hierarchical
spans, instant markers (:class:`~repro.sim.trace.TraceEvent`, the raw
material of the timeline and the Chrome counter lanes) and the
kernel's wait-for graph.  It drops into ``Kernel(tracer=...)`` and
becomes ``world.obs``.

An untraced run carries :data:`~repro.sim.trace.NULL_RECORDER`, the
shared :class:`~repro.sim.trace.NullRecorder` whose methods do
nothing.  Every instrumentation site guards on ``recorder.enabled``
before building a single argument, so the disabled path costs one
attribute read per site and makes no call into the recorder at all;
:func:`repro.perf.workloads.zero_cost_check` counts those calls and
requires none.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from ..sim.trace import NULL_RECORDER, NullRecorder, TraceEvent, WaitEdge
from .spans import Span

__all__ = ["SpanRecorder", "NullRecorder", "NULL_RECORDER"]

#: Sentinel: ``begin(parent=AUTO)`` parents to the owning rank's
#: innermost open scoped span; ``parent=None`` forces a detached root.
_AUTO = object()


class SpanRecorder:
    """Collects spans, instant markers and the wait-for graph."""

    AUTO = _AUTO
    #: A class attribute so the enabled check is one attribute load.
    enabled = True

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._spans: list[Span] = []
        self._next_sid = 1
        #: per-rank stacks of open *scoped* spans (auto-parent targets)
        self._stacks: dict[int | None, list[Span]] = {}
        #: wait-for graph raw material, filled by the kernel
        self._wait_edges: list[WaitEdge] = []
        self._sleeps: dict[str, list[tuple[float, float]]] = {}
        self._task_starts: dict[str, float] = {}
        self._task_finishes: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Instant markers
    # ------------------------------------------------------------------
    def record(self, time: float, category: str, **fields: Any) -> None:
        """Append one instant marker."""
        self._events.append(TraceEvent(time=time, category=category, fields=fields))

    def events(self, category: str | None = None, **match: Any) -> list[TraceEvent]:
        """Instant markers, optionally filtered by category and fields."""
        out: Iterable[TraceEvent] = self._events
        if category is not None:
            out = (e for e in out if e.category == category)
        for key, value in match.items():
            out = (e for e in out if e.get(key) == value)
        return list(out)

    def count(self, category: str | None = None, **match: Any) -> int:
        return len(self.events(category, **match))

    def categories(self) -> set[str]:
        return {e.category for e in self._events}

    def clear(self) -> None:
        """Drop the instant markers (spans and wait edges stay)."""
        self._events.clear()

    def format(self) -> str:
        """The instant markers as one printable block."""
        return "\n".join(e.format() for e in self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    # ------------------------------------------------------------------
    # Wait-for graph recording (called by the kernel)
    # ------------------------------------------------------------------
    def record_wait_edge(self, edge: WaitEdge) -> None:
        self._wait_edges.append(edge)

    def record_sleep(self, task: str, begin: float, end: float) -> None:
        self._sleeps.setdefault(task, []).append((begin, end))

    def record_task_start(self, task: str, time: float) -> None:
        self._task_starts.setdefault(task, time)

    def record_task_finish(self, task: str, time: float) -> None:
        self._task_finishes[task] = time

    def wait_edges(self) -> list[WaitEdge]:
        return list(self._wait_edges)

    def task_sleeps(self) -> dict[str, list[tuple[float, float]]]:
        return {name: list(segs) for name, segs in self._sleeps.items()}

    def task_starts(self) -> dict[str, float]:
        return dict(self._task_starts)

    def task_finishes(self) -> dict[str, float]:
        return dict(self._task_finishes)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(
        self,
        time: float,
        name: str,
        *,
        rank: int | None = None,
        category: str = "",
        parent: Span | None | object = _AUTO,
        **attrs: Any,
    ) -> Span:
        """Open a span at virtual ``time``.

        ``parent=AUTO`` (default) nests under the owning rank's
        innermost scoped span; ``parent=None`` creates a detached root
        (in-flight protocol spans whose lifetime is event-driven).
        """
        if parent is _AUTO:
            stack = self._stacks.get(rank)
            parent = stack[-1] if stack else None
        parent_id = parent.sid if isinstance(parent, Span) else None
        span = Span(
            sid=self._next_sid,
            name=name,
            category=category,
            rank=rank,
            begin=time,
            parent_id=parent_id,
            attrs=attrs,
        )
        self._next_sid += 1
        self._spans.append(span)
        return span

    def end(self, span: Span, time: float, **attrs: Any) -> Span:
        """Close ``span`` at virtual ``time``, merging extra attrs."""
        if span.end is not None:
            raise ValueError(f"span {span.name!r} (sid={span.sid}) already closed")
        if time < span.begin:
            raise ValueError(
                f"span {span.name!r} would close at {time} before its begin {span.begin}"
            )
        span.end = time
        if attrs:
            span.attrs.update(attrs)
        return span

    def push(self, rank: int | None, span: Span) -> None:
        """Make ``span`` the auto-parent target for ``rank``."""
        self._stacks.setdefault(rank, []).append(span)

    def pop(self, rank: int | None, span: Span) -> None:
        stack = self._stacks.get(rank)
        if not stack or stack[-1] is not span:
            raise ValueError(f"span stack for rank {rank} does not end with {span.name!r}")
        stack.pop()

    def complete(
        self,
        begin: float,
        end: float,
        name: str,
        *,
        rank: int | None = None,
        category: str = "",
        parent: Span | None | object = _AUTO,
        **attrs: Any,
    ) -> Span:
        """Record an already-finished span in one call.

        This is the workhorse for instrumentation that charges a merged
        sleep and reconstructs the phase boundaries afterwards — the
        traced and untraced runs then execute the *same* kernel events.
        """
        span = self.begin(begin, name, rank=rank, category=category, parent=parent, **attrs)
        return self.end(span, end)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spans(
        self,
        name: str | None = None,
        *,
        rank: int | None = None,
        category: str | None = None,
        **attr_match: Any,
    ) -> list[Span]:
        """Spans in creation (begin-time per rank) order, filtered."""
        out: Iterable[Span] = self._spans
        if name is not None:
            out = (s for s in out if s.name == name)
        if rank is not None:
            out = (s for s in out if s.rank == rank)
        if category is not None:
            out = (s for s in out if s.category == category)
        for key, value in attr_match.items():
            out = (s for s in out if s.get(key) == value)
        return list(out)

    def span_count(self, name: str | None = None, **kwargs: Any) -> int:
        return len(self.spans(name, **kwargs))

    def span_by_id(self, sid: int) -> Span | None:
        for span in self._spans:
            if span.sid == sid:
                return span
        return None

    def children(self, span: Span) -> list[Span]:
        return [s for s in self._spans if s.parent_id == span.sid]

    def roots(self) -> list[Span]:
        return [s for s in self._spans if s.parent_id is None]

    def open_spans(self) -> list[Span]:
        return [s for s in self._spans if s.end is None]

    def all_spans(self) -> list[Span]:
        return list(self._spans)

    def span_names(self) -> set[str]:
        return {s.name for s in self._spans}

    def __contains__(self, name: str) -> bool:
        return any(s.name == name for s in self._spans)
