"""The records a traced run produces, and the disabled recorder.

The MPI layer records one :class:`TraceEvent` (an instant marker) per
interesting protocol step (pack, eager send, RTS/CTS, delivery, fence,
...), and the kernel records one :class:`WaitEdge` per resolved wait.
Tests assert on them to verify that a scheme exercised the code path
the paper says it does — e.g. that a direct derived-type send staged
through internal chunks while packing(v) did not.

The recorder that collects them is :class:`repro.obs.SpanRecorder`.
This module holds only the plain records and :class:`NullRecorder`, the
disabled recorder the kernel defaults to, so the simulation layer does
not import the observability package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["NULL_RECORDER", "NullRecorder", "TraceEvent", "WakeCause", "WaitEdge"]


@dataclass(frozen=True)
class WakeCause:
    """Provenance of a wakeup: why a blocked task was allowed to resume.

    ``hops`` is a sequence of ``(begin, end, resource)`` intervals that
    tile virtual time from ``origin_time`` up to the woken task's resume
    time — e.g. an eager delivery is a latency hop followed by a wire
    hop.  ``origin`` names the task in whose execution context the chain
    started (``None`` when the chain began in kernel context and the
    recorded waker should be used instead).
    """

    label: str
    origin: str | None = None
    origin_time: float | None = None
    hops: tuple[tuple[float, float, str], ...] = ()


@dataclass(frozen=True)
class WaitEdge:
    """One resolved wait: task ``task`` blocked at ``block_begin`` with
    ``reason`` and resumed at ``resume_time`` because ``waker`` woke it
    at ``notify_time`` (optionally carrying a :class:`WakeCause`)."""

    task: str
    block_begin: float
    resume_time: float
    reason: str
    waker: str | None
    notify_time: float
    cause: WakeCause | None = None

    def format(self) -> str:
        who = self.waker or "kernel"
        why = f" [{self.cause.label}]" if self.cause is not None else ""
        return (
            f"{self.task} blocked on {self.reason!r} at t={self.block_begin:.9g}, "
            f"woken by {who}{why} at t={self.resume_time:.9g}"
        )


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulation event."""

    time: float
    category: str
    fields: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def format(self) -> str:
        body = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.time:.9f}] {self.category} {body}".rstrip()


class NullRecorder:
    """The disabled flight recorder: the recording methods are no-ops.

    What an untraced kernel and world carry (one shared instance,
    :data:`NULL_RECORDER`).  Instrumentation sites guard on
    ``recorder.enabled`` before building a single argument, so a
    correct untraced run never calls any of these methods; the
    zero-cost check (:func:`repro.perf.workloads.zero_cost_check`)
    counts the calls and requires none.  The active counterpart is
    :class:`repro.obs.SpanRecorder`; ``wait_edges`` is the one query
    both answer (a deadlock report reads it, traced or not).
    """

    #: A class attribute so the disabled check is one attribute load.
    enabled = False

    # -- instant markers ------------------------------------------------
    def record(self, time: float, category: str, **fields: Any) -> None:
        pass

    # -- wait-for graph (called by the kernel) --------------------------
    def record_wait_edge(self, edge: WaitEdge) -> None:
        pass

    def record_sleep(self, task: str, begin: float, end: float) -> None:
        pass

    def record_task_start(self, task: str, time: float) -> None:
        pass

    def record_task_finish(self, task: str, time: float) -> None:
        pass

    def wait_edges(self) -> list[WaitEdge]:
        return []

    # -- spans ----------------------------------------------------------
    def begin(self, time: float, name: str, **kwargs: Any) -> None:
        return None

    def end(self, span: Any, time: float, **attrs: Any) -> None:
        return None

    def complete(self, begin: float, end: float, name: str, **kwargs: Any) -> None:
        return None

    def push(self, rank: int | None, span: Any) -> None:
        pass

    def pop(self, rank: int | None, span: Any) -> None:
        pass


#: The one disabled recorder: the kernel's default and every untraced
#: world's ``obs``.  It holds no state, so one instance serves all.
NULL_RECORDER = NullRecorder()
