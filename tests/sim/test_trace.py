"""Instant-marker and recorder tests."""

from __future__ import annotations

from repro.obs import SpanRecorder
from repro.sim import NULL_RECORDER, Kernel, NullRecorder


def test_record_and_filter():
    tr = SpanRecorder()
    tr.record(1.0, "send", rank=0, nbytes=100)
    tr.record(2.0, "send", rank=1, nbytes=200)
    tr.record(3.0, "recv", rank=1, nbytes=100)
    assert len(tr) == 3
    assert tr.count("send") == 2
    assert tr.count("send", rank=1) == 1
    assert tr.events("recv")[0]["nbytes"] == 100
    assert tr.categories() == {"send", "recv"}


def test_event_get_and_format():
    tr = SpanRecorder()
    tr.record(0.5, "x", a=1)
    ev = tr.events()[0]
    assert ev.get("a") == 1
    assert ev.get("missing", "dflt") == "dflt"
    assert "x" in ev.format() and "a=1" in ev.format()


def test_clear():
    tr = SpanRecorder()
    tr.record(0.0, "x")
    tr.clear()
    assert len(tr) == 0


def test_format_whole_trace():
    tr = SpanRecorder()
    tr.record(0.0, "alpha", v=1)
    tr.record(1.0, "beta", v=2)
    text = tr.format()
    assert "alpha" in text and "beta" in text
    assert len(text.splitlines()) == 2


def test_null_tracer_drops_everything():
    tr = NullRecorder()
    tr.record(0.0, "x", a=1)
    assert tr.wait_edges() == []
    assert not tr.enabled


def test_kernel_default_tracer_is_null():
    k = Kernel()
    assert k.tracer is NULL_RECORDER


def test_kernel_accepts_tracer():
    tr = SpanRecorder()
    k = Kernel(tracer=tr)
    assert k.tracer is tr and k.tracer.enabled
