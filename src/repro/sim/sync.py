"""Synchronization primitives built on the kernel.

Mesa-style condition variables (re-check your predicate after waking)
and a reusable barrier.  These are the building blocks for message
matching, rendezvous handshakes, and ``MPI_Win_fence``.
"""

from __future__ import annotations

from .errors import KernelStateError
from .kernel import Kernel, SimTask
from .trace import WakeCause

__all__ = ["SimCondition", "SimBarrier"]


class SimCondition:
    """A broadcast-wakeup condition variable over virtual time.

    ``wait`` suspends the current task until some other task (or kernel
    callback) calls ``notify_all``.  Wakeups carry no payload and may be
    spurious from the waiter's perspective, so callers loop::

        while not predicate():
            cond.wait(task)
    """

    def __init__(self, kernel: Kernel, name: str = "cond"):
        self._kernel = kernel
        self.name = name
        self._waiters: list[SimTask] = []

    def wait(self, task: SimTask, reason: str | None = None) -> None:
        """Suspend ``task`` until the next ``notify_all``."""
        if self._kernel.current_task is not task:
            raise KernelStateError(f"{task.name!r} cannot wait on {self.name!r}: not running")
        self._waiters.append(task)
        task.block(reason or f"wait({self.name})")

    def notify_all(self, delay: float = 0.0, cause: WakeCause | None = None) -> int:
        """Wake every current waiter ``delay`` virtual seconds from now.

        ``cause`` labels the wakeup for the wait-for graph (ignored when
        tracing is off).  Returns the number of tasks woken.
        """
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.wake(delay, cause=cause)
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)


class SimBarrier:
    """A reusable ``n``-party barrier.

    The last task to arrive releases everyone after ``release_cost``
    virtual seconds (modelling the synchronization fan-in/fan-out).
    """

    def __init__(self, kernel: Kernel, parties: int, name: str = "barrier"):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self._kernel = kernel
        self.parties = parties
        self.name = name
        self._generation = 0
        self._arrived = 0
        self._cond = SimCondition(kernel, f"{name}.cond")

    def arrive(self, task: SimTask, release_cost: float = 0.0) -> None:
        """Block until all parties of the current generation arrive."""
        generation = self._generation
        self._arrived += 1
        if self._arrived == self.parties:
            self._arrived = 0
            self._generation += 1
            cause = None
            if self._kernel.tracer.enabled:
                now = self._kernel.now
                hops = ((now, now + release_cost, "sync"),) if release_cost > 0 else ()
                cause = WakeCause(
                    "barrier-release", origin=task.name, origin_time=now, hops=hops
                )
            self._cond.notify_all(delay=release_cost, cause=cause)
            if release_cost > 0:
                task.sleep(release_cost)
            return
        while self._generation == generation:
            self._cond.wait(task, reason=f"barrier({self.name} gen={generation})")
