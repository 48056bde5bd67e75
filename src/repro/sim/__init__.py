"""Deterministic discrete-event simulation kernel.

Exports the :class:`Kernel` event loop, thread-backed :class:`SimTask`
cooperative tasks, condition/barrier primitives, and the trace records
(the recorder itself is :class:`repro.obs.SpanRecorder`).
"""

from .errors import DeadlockError, EventLimitExceeded, KernelStateError, SimError
from .kernel import Kernel, SimTask, TaskState
from .sync import SimBarrier, SimCondition
from .trace import NULL_RECORDER, NullRecorder, TraceEvent

__all__ = [
    "Kernel",
    "SimTask",
    "TaskState",
    "SimBarrier",
    "SimCondition",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceEvent",
    "SimError",
    "DeadlockError",
    "EventLimitExceeded",
    "KernelStateError",
]
