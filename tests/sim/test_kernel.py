"""Kernel unit tests: scheduling, clocks, wake tokens, failure modes."""

from __future__ import annotations

import threading

import pytest

from repro.core import PAPER_ORDER, StridedLayout, run_pingpong
from repro.core import pingpong as pingpong_module
from repro.obs import SpanRecorder
from repro.sim import (
    DeadlockError,
    EventLimitExceeded,
    Kernel,
    KernelStateError,
    SimCondition,
    TaskState,
)


def test_single_task_sleep_advances_clock():
    k = Kernel()
    seen = []

    def main():
        t = k.tasks[0]
        seen.append(t.now)
        t.sleep(2.5)
        seen.append(t.now)
        t.sleep(0.5)
        seen.append(t.now)

    k.spawn(main, name="solo")
    k.run()
    assert seen == [0.0, 2.5, 3.0]
    assert k.now == 3.0


def test_zero_sleep_is_noop():
    k = Kernel()

    def main():
        t = k.tasks[0]
        t.sleep(0.0)
        assert t.now == 0.0

    k.spawn(main)
    k.run()
    assert k.events_processed == 1  # just the start event


def test_negative_sleep_rejected():
    k = Kernel()
    def main():
        k.tasks[0].sleep(-1.0)
    k.spawn(main)
    with pytest.raises(ValueError, match="negative"):
        k.run()


def test_tasks_interleave_by_virtual_time():
    k = Kernel()
    order = []

    def make(name, delay):
        def body():
            task = next(t for t in k.tasks if t.name == name)
            task.sleep(delay)
            order.append((name, task.now))
        return body

    k.spawn(make("slow", 5.0), name="slow")
    k.spawn(make("fast", 1.0), name="fast")
    k.spawn(make("mid", 3.0), name="mid")
    k.run()
    assert order == [("fast", 1.0), ("mid", 3.0), ("slow", 5.0)]


def test_equal_times_resolve_in_spawn_order():
    k = Kernel()
    order = []

    def make(tag):
        def body():
            t = [t for t in k.tasks if t.name == tag][0]
            t.sleep(1.0)
            order.append(tag)
        return body

    for tag in ("a", "b", "c"):
        k.spawn(make(tag), name=tag)
    k.run()
    assert order == ["a", "b", "c"]


def test_task_results_and_finish_states():
    k = Kernel()

    def main():
        k.tasks[0].sleep(1.0)
        return 42

    task = k.spawn(main)
    k.run()
    assert task.result == 42
    assert task.state == TaskState.FINISHED
    assert not task.alive


def test_call_later_runs_in_kernel_context():
    k = Kernel()
    fired = []

    def main():
        t = k.tasks[0]
        k.call_later(2.0, lambda: fired.append((k.now, k.current_task)))
        t.sleep(5.0)

    k.spawn(main)
    k.run()
    assert fired == [(2.0, None)]


def test_call_later_negative_delay_rejected():
    k = Kernel()
    with pytest.raises(ValueError):
        k.call_later(-0.1, lambda: None)


def test_exception_propagates_with_task_note():
    k = Kernel()

    def boom():
        k.tasks[0].sleep(1.0)
        raise RuntimeError("kaput")

    k.spawn(boom, name="boomtask")
    with pytest.raises(RuntimeError, match="kaput") as exc_info:
        k.run()
    assert any("boomtask" in note for note in exc_info.value.__notes__)


def test_first_failure_wins():
    k = Kernel()

    def fail_at(t_fail, msg):
        def body():
            task = [t for t in k.tasks if t.name == msg][0]
            task.sleep(t_fail)
            raise ValueError(msg)
        return body

    k.spawn(fail_at(2.0, "late"), name="late")
    k.spawn(fail_at(1.0, "early"), name="early")
    with pytest.raises(ValueError, match="early"):
        k.run()


def test_deadlock_reports_blocked_tasks():
    k = Kernel()
    cond = SimCondition(k, "never")

    def stuck():
        cond.wait(k.tasks[0], reason="waiting-for-godot")

    k.spawn(stuck, name="estragon")
    with pytest.raises(DeadlockError, match="estragon.*waiting-for-godot"):
        k.run()


def test_deadlock_not_raised_when_tasks_finish():
    k = Kernel()
    k.spawn(lambda: None)
    k.run()  # must not raise


def test_event_limit():
    k = Kernel()

    def spin():
        t = k.tasks[0]
        while True:
            t.sleep(1.0)

    task = k.spawn(spin)
    with pytest.raises(EventLimitExceeded, match="exceeded 50 events") as exc_info:
        k.run(max_events=50)
    # Only the start event is popped by run(); the 51st event is popped
    # by the spinning task's own thread while it suspends.
    assert any(
        entry.name == "_pass_baton" and entry.locals["me"] is task
        for entry in exc_info.traceback
    )
    assert k.events_processed == 51
    assert task.state is TaskState.KILLED
    assert not task._thread.is_alive()


def test_kernel_single_use():
    k = Kernel()
    k.spawn(lambda: None)
    k.run()
    with pytest.raises(KernelStateError):
        k.run()


def test_task_api_outside_context_rejected():
    k = Kernel()
    captured = {}

    def main():
        captured["task"] = k.tasks[0]

    k.spawn(main)
    k.run()
    with pytest.raises(KernelStateError):
        captured["task"].sleep(1.0)


def test_wait_until_past_time_is_noop():
    k = Kernel()

    def main():
        t = k.tasks[0]
        t.sleep(5.0)
        t.wait_until(3.0)  # already past
        assert t.now == 5.0
        t.wait_until(7.0)
        assert t.now == 7.0

    k.spawn(main)
    k.run()


def test_wake_while_running_rejected():
    k = Kernel()

    def main():
        task = k.tasks[0]
        with pytest.raises(KernelStateError):
            task.wake()

    k.spawn(main)
    k.run()


def test_spawn_mid_run():
    k = Kernel()
    log = []

    def child():
        t = [t for t in k.tasks if t.name == "child"][0]
        t.sleep(1.0)
        log.append(("child", t.now))

    def parent():
        t = k.tasks[0]
        t.sleep(2.0)
        k.spawn(child, name="child")
        t.sleep(2.0)
        log.append(("parent", t.now))

    k.spawn(parent, name="parent")
    k.run()
    assert log == [("child", 3.0), ("parent", 4.0)]


def test_stale_wakeups_ignored():
    """A task woken through a condition must not be resumed again by a
    stale event from an earlier suspension."""
    k = Kernel()
    cond = SimCondition(k, "c")
    log = []

    def waiter():
        t = [t for t in k.tasks if t.name == "w"][0]
        cond.wait(t)
        log.append(("woken", t.now))
        t.sleep(10.0)
        log.append(("slept", t.now))

    def notifier():
        t = [t for t in k.tasks if t.name == "n"][0]
        t.sleep(1.0)
        cond.notify_all()
        t.sleep(1.0)
        cond.notify_all()  # nobody waiting; must not disturb the sleep

    k.spawn(waiter, name="w")
    k.spawn(notifier, name="n")
    k.run()
    assert log == [("woken", 1.0), ("slept", 11.0)]


def test_determinism_fingerprint():
    """Two identical runs process identical event counts and times."""

    def build():
        k = Kernel()
        cond = SimCondition(k, "c")

        def a():
            t = k.tasks[0]
            for _ in range(10):
                t.sleep(0.3)
                cond.notify_all()

        def b():
            t = k.tasks[1]
            for _ in range(3):
                cond.wait(t)

        k.spawn(a, name="a")
        k.spawn(b, name="b")
        k.run()
        return (k.now, k.events_processed)

    assert build() == build()


# ----------------------------------------------------------------------
# The baton: whichever thread suspends runs the event loop
# ----------------------------------------------------------------------
def test_callback_error_in_task_drain_reraises_unchanged():
    """A callback popped by a suspending task's thread raises out of
    run() with its own type and message, and no task note."""
    k = Kernel()
    ran_on = []

    def explode():
        ran_on.append(threading.current_thread().name)
        raise LookupError("callback failed")

    def main():
        k.call_later(1.0, explode)
        k.tasks[0].sleep(5.0)

    task = k.spawn(main, name="holder")
    with pytest.raises(LookupError) as exc_info:
        k.run()
    assert type(exc_info.value) is LookupError
    assert str(exc_info.value) == "callback failed"
    assert not getattr(exc_info.value, "__notes__", [])
    assert ran_on == ["sim:holder"]
    assert task.state is TaskState.KILLED
    assert not task._thread.is_alive()


def test_wake_from_callback_records_no_waker():
    k = Kernel(tracer=SpanRecorder())
    cond = SimCondition(k, "door")

    def main():
        k.call_later(2.0, cond.notify_all)
        cond.wait(k.tasks[0], reason="door")

    k.spawn(main, name="guest")
    k.run()
    (edge,) = k.tracer.wait_edges()
    assert (edge.task, edge.waker, edge.notify_time, edge.resume_time) == (
        "guest", None, 2.0, 2.0,
    )


def test_wake_from_task_records_the_waker():
    k = Kernel(tracer=SpanRecorder())
    cond = SimCondition(k, "door")

    def guest():
        cond.wait(k.tasks[0], reason="door")

    def host():
        k.tasks[1].sleep(1.0)
        cond.notify_all()

    k.spawn(guest, name="guest")
    k.spawn(host, name="host")
    k.run()
    (edge,) = k.tracer.wait_edges()
    assert (edge.task, edge.waker, edge.notify_time) == ("guest", "host", 1.0)


@pytest.mark.parametrize("sleeps", [1, 1000])
def test_same_task_resumes_cost_no_thread_switch(sleeps):
    """The only switches are the hand-over from run() to the task's
    thread at start and back to run() at the end; every resume of the
    sleeping task runs on its own thread."""
    k = Kernel()

    def main():
        t = k.tasks[0]
        for _ in range(sleeps):
            t.sleep(1.0)

    k.spawn(main)
    k.run()
    assert k.now == float(sleeps)
    assert k.events_processed == sleeps + 1
    assert k.thread_switches == 2


def test_thread_switches_count_cross_task_handoffs():
    k = Kernel()
    cond = SimCondition(k, "c")

    def a():
        t = k.tasks[0]
        for _ in range(3):
            t.sleep(1.0)
            cond.notify_all()

    def b():
        t = k.tasks[1]
        for _ in range(3):
            cond.wait(t)

    k.spawn(a, name="a")
    k.spawn(b, name="b")
    k.run()
    # run -> a (start), a -> b (start), b -> a; a -> b and b -> a after
    # each of the first two wakeups; a finishes -> b, b finishes -> run.
    assert k.thread_switches == 9


#: Exact baton moves for one default-policy ping-pong on skx-impi
#: (64 KiB eager limit): 1 KiB eager and 128 KiB rendezvous, per scheme.
PINGPONG_THREAD_SWITCHES = {
    1024: {
        "reference": 89, "copying": 89, "buffered": 89, "vector": 89,
        "subarray": 89, "onesided": 139, "packing-element": 91,
        "packing-vector": 93,
    },
    131072: {
        "reference": 129, "copying": 131, "buffered": 91, "vector": 131,
        "subarray": 131, "onesided": 139, "packing-element": 131,
        "packing-vector": 131,
    },
}


@pytest.mark.parametrize("message_bytes", sorted(PINGPONG_THREAD_SWITCHES))
def test_pingpong_thread_switches_pinned(monkeypatch, message_bytes):
    jobs = []
    run_mpi = pingpong_module.run_mpi

    def recording_run_mpi(*args, **kwargs):
        jobs.append(run_mpi(*args, **kwargs))
        return jobs[-1]

    monkeypatch.setattr(pingpong_module, "run_mpi", recording_run_mpi)
    layout = StridedLayout(nblocks=message_bytes // 8)
    counts = {}
    for scheme in PAPER_ORDER:
        run_pingpong(scheme, layout, "skx-impi")
        counts[scheme] = jobs[-1].thread_switches
    assert counts == PINGPONG_THREAD_SWITCHES[message_bytes]
