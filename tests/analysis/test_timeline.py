"""Timeline-rendering tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.timeline import event_label, render_timeline
from repro.mpi import run_mpi
from repro.obs import SpanRecorder
from repro.sim.trace import TraceEvent


def traced_pingpong(nbytes: int):
    def main(comm):
        if comm.rank == 0:
            comm.Send(np.zeros(nbytes // 8, np.float64), dest=1, tag=5)
        else:
            comm.Recv(np.zeros(nbytes // 8, np.float64), source=0, tag=5)

    return run_mpi(main, 2, "ideal", trace=True).tracer


class TestRenderTimeline:
    def test_eager_message_timeline(self):
        text = render_timeline(traced_pingpong(800))
        assert "rank 0" in text and "rank 1" in text
        assert "eager ->1 tag=5 800B" in text
        assert "recv <-0 tag=5 800B (eager)" in text

    def test_rendezvous_timeline_shows_handshake(self):
        text = render_timeline(traced_pingpong(8000))
        assert "RTS ->1" in text
        assert "CTS granted" in text
        assert "push 8000B" in text
        assert "(rndv)" in text

    def test_times_ascend(self):
        text = render_timeline(traced_pingpong(8000))
        times = [
            float(line.split("|")[0]) for line in text.splitlines()[2:]
            if "|" in line and line.split("|")[0].strip()
        ]
        assert times == sorted(times)

    def test_empty_trace(self):
        assert "no protocol events" in render_timeline(SpanRecorder())

    def test_truncation_notice(self):
        tracer = SpanRecorder()
        for i in range(50):
            tracer.record(float(i), "flush", rank=0, nbytes=10)
        text = render_timeline(tracer, max_events=10)
        assert "first 10 shown" in text

    def test_category_filter(self):
        tracer = traced_pingpong(800)
        text = render_timeline(tracer, categories=("send.eager",))
        assert "eager" in text and "recv" not in text


class TestEventLabel:
    @pytest.mark.parametrize(
        "category,fields,expect",
        [
            ("send.eager", dict(dest=1, tag=3, nbytes=64, src=0, arrival=0), "eager ->1 tag=3 64B"),
            ("send.rts", dict(dest=1, tag=3, nbytes=64, src=0), "RTS ->1"),
            ("staging", dict(rank=0, nbytes=100, datatype="vector"), "staging 100B (vector)"),
            ("pack", dict(rank=0, nbytes=80, ncalls=10), "pack 80B x10 call(s)"),
            ("rma.put", dict(rank=0, target=1, nbytes=8), "Put ->1 8B"),
            ("flush", dict(rank=0, nbytes=50_000_000), "cache flush 50000000B"),
        ],
    )
    def test_labels(self, category, fields, expect):
        assert expect in event_label(TraceEvent(0.0, category, fields))

    def test_unknown_category_fallback(self):
        label = event_label(TraceEvent(0.0, "custom", {"a": 1}))
        assert "custom" in label and "a=1" in label
