"""Deterministic discrete-event kernel with thread-backed tasks.

Design
------
User code (an MPI "rank program") runs in an ordinary Python thread and
calls blocking APIs (``comm.Send``, ``task.sleep``, ...), which suspend
the thread.  A single virtual clock advances by draining a priority
queue of events in ``(time, sequence-number)`` order.  Exactly one
thread holds the *baton* at any instant, so execution is fully
deterministic regardless of OS scheduling and no shared-state locking
is needed.

The baton holder runs the event loop itself: :meth:`Kernel.run` at
first, then whichever task suspends (inside ``_suspend``) or finishes.
It pops events, runs ``"call"`` callbacks inline, and stops at the
first event that resumes a task.  If that task is the holder's own, it
simply returns: a same-task resume costs no thread switch.  Otherwise
it releases the target's parking ``Lock`` and parks on its own.  When
the queue drains or a failure is recorded the baton goes back to
``run()``, which reports the outcome and unwinds parked threads.

This is the classic "threads as coroutines" PDES construction; the
threads exist only to give rank programs a natural blocking call style
(matching real MPI code, see ``examples/``) without rewriting them as
generators.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections.abc import Callable
from enum import Enum
from typing import TYPE_CHECKING, Any

from .errors import DeadlockError, EventLimitExceeded, KernelStateError, SimError
from .trace import NULL_RECORDER, NullRecorder, WaitEdge, WakeCause

if TYPE_CHECKING:
    from ..obs.recorder import SpanRecorder

__all__ = ["Kernel", "SimTask", "TaskState"]


class _TaskKilled(BaseException):
    """Injected into a suspended task to unwind its thread on abort.

    Derives from ``BaseException`` so ordinary ``except Exception``
    blocks in user code cannot swallow it.
    """


class TaskState(Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    FINISHED = "finished"
    KILLED = "killed"


class SimTask:
    """One cooperatively-scheduled task (an MPI rank, usually).

    Created via :meth:`Kernel.spawn`; the public surface for code
    running *inside* the task is :meth:`sleep`, :meth:`wait_until`, and
    the :attr:`now` clock.
    """

    def __init__(self, kernel: "Kernel", fn: Callable[..., Any], args: tuple, name: str):
        self._kernel = kernel
        self._fn = fn
        self._args = args
        self.name = name
        self.state = TaskState.NEW
        self.block_reason = ""
        self.result: Any = None
        # Held while the task is parked; whoever passes it the baton
        # releases it.
        self._baton = threading.Lock()
        self._baton.acquire()
        self._killed = False
        self._wake_token = 0
        self._block_begin = 0.0
        # Set by wake() while tracing is on: (waker, notify_time,
        # cause); consumed when the resume event fires.
        self._pending_wake: tuple[str | None, float, WakeCause | None] | None = None
        self._thread = threading.Thread(target=self._thread_body, name=f"sim:{name}", daemon=True)

    # ------------------------------------------------------------------
    # Thread plumbing (private)
    # ------------------------------------------------------------------
    def _thread_body(self) -> None:
        self._baton.acquire()
        try:
            self.state = TaskState.RUNNING
            self.result = self._fn(*self._args)
            self.state = TaskState.FINISHED
        except _TaskKilled:
            self.state = TaskState.KILLED
        except BaseException as exc:  # noqa: BLE001 - forwarded to kernel
            self.state = TaskState.FINISHED
            self._kernel._record_failure(exc, self)
        finally:
            self._kernel._task_done(self)
        if not self._killed:
            # A killed task is unwound by run(), which holds the baton.
            self._kernel._pass_baton(self, park=False)

    def _suspend(self) -> None:
        """Run the event loop until this task is resumed."""
        self._wake_token += 1
        self._kernel._pass_baton(self)
        if self._killed:
            raise _TaskKilled()
        self.state = TaskState.RUNNING

    # ------------------------------------------------------------------
    # Public task API (call only from inside the task)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._kernel.now

    @property
    def alive(self) -> bool:
        return self.state not in (TaskState.FINISHED, TaskState.KILLED)

    def sleep(self, duration: float) -> None:
        """Advance this task's clock by ``duration`` virtual seconds."""
        self._kernel._check_current(self)
        if duration < 0:
            raise ValueError(f"cannot sleep for negative duration {duration!r}")
        if duration == 0:
            return
        if self._kernel.tracer.enabled:
            now = self._kernel.now
            self._kernel.tracer.record_sleep(self.name, now, now + duration)
        self.state = TaskState.SLEEPING
        self.block_reason = f"sleep({duration:.3g})"
        # _suspend() increments the wake token on entry, so the token
        # valid *while suspended* is the current value plus one.
        self._kernel._schedule_resume(self, self._kernel.now + duration, self._wake_token + 1)
        self._suspend()

    def wait_until(self, time: float) -> None:
        """Sleep until virtual ``time`` (no-op if already past it)."""
        self.sleep(max(0.0, time - self._kernel.now))

    def block(self, reason: str) -> None:
        """Suspend until another party calls :meth:`wake`.

        Building block for condition variables and message matching; the
        ``reason`` string surfaces in deadlock diagnostics.
        """
        self._kernel._check_current(self)
        self.state = TaskState.BLOCKED
        self.block_reason = reason
        self._block_begin = self._kernel.now
        self._pending_wake = None
        self._suspend()

    def wake(self, delay: float = 0.0, cause: WakeCause | None = None) -> None:
        """Schedule this (suspended) task to resume ``delay`` from now.

        Calling ``wake`` on a task that is not currently suspended is a
        programming error: there is no suspension for the wakeup to
        target.  ``cause`` (only stored while tracing is on)
        documents *why* — it becomes part of the wait-for edge emitted
        when the resume fires.
        """
        if not self.alive:
            return
        if self.state not in (TaskState.SLEEPING, TaskState.BLOCKED):
            raise KernelStateError(f"cannot wake {self.name!r}: state is {self.state.value}")
        kernel = self._kernel
        if kernel.tracer.enabled:
            waker = kernel._current
            self._pending_wake = (waker.name if waker is not None else None, kernel.now, cause)
        # The task is suspended, so its wake token already carries the
        # suspended value.
        kernel._schedule_resume(self, kernel.now + delay, self._wake_token)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimTask {self.name} {self.state.value}>"


class Kernel:
    """The event loop.  See module docstring for the execution model."""

    def __init__(self, tracer: "SpanRecorder | NullRecorder | None" = None):
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._tasks: list[SimTask] = []
        self._live_count = 0
        self._current: SimTask | None = None
        self._failure: BaseException | None = None
        self._ran = False
        self._events_processed = 0
        self._max_events: int | None = None
        # run()'s parking lock: released when the baton comes back.
        self._run_baton = threading.Lock()
        self._run_baton.acquire()
        #: Times the baton moved to a different thread.
        self.thread_switches = 0
        #: The flight recorder: a ``SpanRecorder`` for a traced run,
        #: else the shared disabled one.
        self.tracer: SpanRecorder | NullRecorder = (
            tracer if tracer is not None else NULL_RECORDER
        )

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time, seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def tasks(self) -> list[SimTask]:
        return list(self._tasks)

    @property
    def current_task(self) -> SimTask | None:
        return self._current

    # ------------------------------------------------------------------
    # Construction-time API
    # ------------------------------------------------------------------
    def spawn(self, fn: Callable[..., Any], *args: Any, name: str | None = None) -> SimTask:
        """Create a task that starts running at the current virtual time."""
        task = SimTask(self, fn, args, name or f"task{len(self._tasks)}")
        self._tasks.append(task)
        self._live_count += 1
        task.state = TaskState.READY
        self._push(self._now, "start", task)
        return task

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule a kernel-context callback ``delay`` from now.

        Callbacks run in whichever thread holds the baton, with
        :attr:`current_task` ``None``, and must not block; they are the
        mechanism for timed deliveries (a message "arriving").
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._push(self._now + delay, "call", (fn, args))

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> None:
        """Drain the event queue; returns when every task has finished.

        Raises :class:`DeadlockError` if live tasks remain with no
        events pending, re-raises the first exception any task or
        callback raised, and raises :class:`EventLimitExceeded` past
        ``max_events``.
        """
        if self._ran:
            raise KernelStateError("a Kernel can only be run once")
        self._ran = True
        self._max_events = max_events
        try:
            self._pass_baton(None)
            if self._failure is not None:
                raise self._failure
            if self._live_count > 0:
                blocked = [
                    (t.name, t.block_reason or t.state.value, t._block_begin)
                    for t in self._tasks
                    if t.alive
                ]
                raise DeadlockError(blocked, edges=self.tracer.wait_edges())
        finally:
            self._abort_remaining()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, payload: Any) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    def _schedule_resume(self, task: SimTask, time: float, token: int) -> None:
        self._push(time, "resume", (task, token))

    def _pass_baton(self, me: SimTask | None, park: bool = True) -> None:
        """Run events on the calling thread until one resumes a task.

        ``me`` is the caller's task (``None`` for :meth:`run`).  If the
        resumed task is ``me`` this returns at once; otherwise the baton
        goes to that task's thread (or back to ``run()`` once the queue
        drains or a failure is recorded) and, if ``park``, the caller
        waits until it is handed the baton again.
        """
        self._current = None
        try:
            target = self._next_task()
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self._failure = exc
            target = None
        self._current = target
        if target is me:
            return
        self.thread_switches += 1
        (self._run_baton if target is None else target._baton).release()
        if park:
            (self._run_baton if me is None else me._baton).acquire()

    def _next_task(self) -> SimTask | None:
        """Pop events, running callbacks inline, up to the next resume."""
        tracer = self.tracer
        while self._heap and self._failure is None:
            time, _seq, kind, payload = heapq.heappop(self._heap)
            self._now = time
            self._events_processed += 1
            if self._max_events is not None and self._events_processed > self._max_events:
                raise EventLimitExceeded(
                    f"exceeded {self._max_events} events at virtual time {time:.6g}"
                )
            if kind == "call":
                fn, args = payload
                fn(*args)
            elif kind == "start":
                # Threads start lazily here so tasks spawned mid-run
                # work the same as tasks spawned up front.
                if tracer.enabled:
                    tracer.record_task_start(payload.name, time)
                payload._thread.start()
                return payload
            elif kind == "resume":
                task, token = payload
                if (
                    task.state in (TaskState.SLEEPING, TaskState.BLOCKED)
                    and token == task._wake_token
                ):
                    if task.state is TaskState.BLOCKED and tracer.enabled:
                        pending = task._pending_wake
                        waker, notify_time, cause = (
                            pending if pending is not None else (None, time, None)
                        )
                        tracer.record_wait_edge(
                            WaitEdge(
                                task=task.name,
                                block_begin=task._block_begin,
                                resume_time=time,
                                reason=task.block_reason,
                                waker=waker,
                                notify_time=notify_time,
                                cause=cause,
                            )
                        )
                    return task
            else:  # pragma: no cover - defensive
                raise SimError(f"unknown event kind {kind!r}")
        return None

    def _check_current(self, task: SimTask) -> None:
        if self._current is not task:
            raise KernelStateError(
                f"task API for {task.name!r} called outside its own execution context"
            )

    def _record_failure(self, exc: BaseException, task: SimTask) -> None:
        if self._failure is None:
            exc.add_note(f"raised in simulated task {task.name!r} at t={self._now:.6g}s")
            self._failure = exc

    def _task_done(self, task: SimTask) -> None:
        self._live_count -= 1
        if self.tracer.enabled and task.state is TaskState.FINISHED:
            self.tracer.record_task_finish(task.name, self._now)

    def _abort_remaining(self) -> None:
        """Unwind any still-suspended task threads so they don't leak."""
        for task in self._tasks:
            if task._thread.is_alive() and task.alive:
                task._killed = True
                task._baton.release()
        for task in self._tasks:
            if task._thread.is_alive():
                task._thread.join(timeout=10.0)
