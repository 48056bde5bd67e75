"""Chrome-trace exporter and attribution tests: schema validation,
JSON round-trips, a pinned golden file, and the partition property
(attributed phases sum to the total virtual time to 1e-9)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import PAPER_ORDER, TimingPolicy, run_pingpong, strided_for_bytes
from repro.mpi import SimBuffer, run_mpi
from repro.obs import (
    PHASE_PRIORITY,
    SpanRecorder,
    attribute_phases,
    chrome_trace,
    load_chrome_trace_schema,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import _validate_structurally

GOLDEN = Path(__file__).with_name("golden_chrome_trace.json")


@pytest.fixture(scope="module")
def tiny_job():
    """A 256 B eager ping-pong on the ideal platform: small, fully
    deterministic, exercises spans on both ranks."""

    def main(comm):
        if comm.rank == 0:
            comm.Send(SimBuffer.virtual(256), dest=1)
            comm.Recv(SimBuffer.virtual(256), source=1)
        else:
            comm.Recv(SimBuffer.virtual(256), source=0)
            comm.Send(SimBuffer.virtual(256), dest=0)

    return run_mpi(main, 2, "ideal", trace=True)


class TestChromeExport:
    def test_document_validates_against_schema(self, tiny_job):
        doc = chrome_trace(tiny_job.tracer)
        validate_chrome_trace(doc)  # jsonschema path (installed locally)
        _validate_structurally(doc)  # dependency-free path, same rules

    def test_schema_is_wellformed_json_schema(self):
        schema = load_chrome_trace_schema()
        assert schema["type"] == "object"
        assert "traceEvents" in schema["required"]

    def test_x_events_mirror_closed_spans(self, tiny_job):
        recorder = tiny_job.tracer
        doc = chrome_trace(recorder)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        closed = [s for s in recorder.all_spans() if s.closed]
        assert len(xs) == len(closed)
        by_sid = {e["args"]["sid"]: e for e in xs}
        for span in closed:
            ev = by_sid[span.sid]
            assert ev["name"] == span.name
            assert ev["ts"] == pytest.approx(span.begin * 1e6)
            assert ev["dur"] == pytest.approx((span.end - span.begin) * 1e6)
            assert ev["tid"] == span.rank
            if span.parent_id is not None:
                assert ev["args"]["parent"] == span.parent_id

    def test_instant_markers_and_thread_metadata(self, tiny_job):
        doc = chrome_trace(tiny_job.tracer)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        depth_events = [e for e in tiny_job.tracer if e.category == "queue.depth"]
        assert len(instants) == len(tiny_job.tracer) - len(depth_events)
        assert all(e["s"] == "t" for e in instants)
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"rank 0", "rank 1"} <= names

    def test_write_and_json_roundtrip(self, tiny_job, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace(tiny_job.tracer, out)
        loaded = json.loads(out.read_text())
        validate_chrome_trace(loaded)
        direct = json.loads(json.dumps(chrome_trace(tiny_job.tracer)))
        assert loaded == direct

    def test_matches_golden_file(self, tiny_job):
        """The export is pinned byte-for-byte: any change to span
        emission, naming, or serialization shows up as a golden diff.
        Regenerate with ``write_chrome_trace(job.tracer, GOLDEN)`` and
        review the diff when the change is intentional."""
        produced = json.loads(json.dumps(chrome_trace(tiny_job.tracer)))
        golden = json.loads(GOLDEN.read_text())
        assert produced == golden

    def test_recorder_without_spans_exports_instants_only(self):
        tracer = SpanRecorder()
        tracer.record(1e-6, "send.eager", rank=0, nbytes=8)
        doc = chrome_trace(tracer)
        validate_chrome_trace(doc)
        assert [e["ph"] for e in doc["traceEvents"] if e["ph"] != "M"] == ["i"]

    def test_queue_depth_becomes_counter_series(self, tiny_job):
        """Matching-queue depth samples export as ``C`` counter events,
        one series per rank, carrying both queue depths as args."""
        doc = chrome_trace(tiny_job.tracer)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        depth_events = [e for e in tiny_job.tracer if e.category == "queue.depth"]
        assert len(depth_events) > 0
        assert len(counters) == len(depth_events)
        for ev in counters:
            assert ev["cat"] == "matching"
            assert set(ev["args"]) == {"unexpected", "posted"}
        # both recvs were posted before their matches: posted depth rises
        assert any(ev["args"]["posted"] > 0 for ev in counters)
        assert all(ev["args"]["unexpected"] == 0 for ev in counters)

    def test_unexpected_queue_depth_counted(self):
        """A message whose receive is posted late sits in the unexpected
        queue; the counter series must show that depth."""

        def main(comm):
            if comm.rank == 0:
                comm.Send(SimBuffer.virtual(64), dest=1, tag=0)
                comm.Send(SimBuffer.virtual(64), dest=1, tag=5)
            else:
                # tag=0 arrives while we wait on tag=5 -> unexpected
                comm.Recv(SimBuffer.virtual(64), source=0, tag=5)
                comm.Recv(SimBuffer.virtual(64), source=0, tag=0)

        job = run_mpi(main, 2, "ideal", trace=True)
        doc = chrome_trace(job.tracer)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert any(e["args"]["unexpected"] > 0 for e in counters)

    def test_critical_path_lane_and_flows(self, tiny_job):
        from repro.obs import extract_critical_path

        path = extract_critical_path(tiny_job.tracer, tiny_job.virtual_time)
        doc = chrome_trace(tiny_job.tracer, critical_path=path)
        validate_chrome_trace(doc)
        tiles = [e for e in doc["traceEvents"] if e.get("cat") == "critical"]
        assert len(tiles) == len(path.segments)
        assert all(e["tid"] == 98 for e in tiles)
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "flow"]
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "critical path" in names


class TestValidationRejects:
    BAD_DOCS = [
        ("not an object", []),
        ("missing traceEvents", {}),
        ("traceEvents not a list", {"traceEvents": "nope"}),
        ("event not an object", {"traceEvents": [3]}),
        ("missing ph", {"traceEvents": [{"name": "x", "pid": 0, "tid": 0}]}),
        (
            "bad ph value",
            {"traceEvents": [{"name": "x", "ph": "Q", "pid": 0, "tid": 0, "ts": 0}]},
        ),
        (
            "negative ts",
            {"traceEvents": [{"name": "x", "ph": "i", "pid": 0, "tid": 0, "ts": -1}]},
        ),
        (
            "X without dur",
            {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0}]},
        ),
    ]

    @pytest.mark.parametrize("label,doc", BAD_DOCS, ids=[b[0] for b in BAD_DOCS])
    def test_both_validators_reject(self, label, doc):
        with pytest.raises(ValueError):
            validate_chrome_trace(doc)
        with pytest.raises(ValueError):
            _validate_structurally(doc)


class TestAttribution:
    @pytest.mark.parametrize("key", PAPER_ORDER)
    @pytest.mark.parametrize("platform", ["ideal", "skx-impi"])
    def test_phases_partition_total_exactly(self, key, platform):
        """The headline acceptance property: attributed phase times sum
        to the job's total virtual time to 1e-9 for every scheme."""
        result = run_pingpong(
            key,
            strided_for_bytes(1_000_000),
            platform,
            policy=TimingPolicy(iterations=1, flush=False),
            materialize=False,
            trace=True,
        )
        phases = attribute_phases(result.tracer, result.virtual_time)
        assert abs(sum(phases.values()) - result.virtual_time) < 1e-9
        assert all(t >= 0 for t in phases.values())
        assert set(phases) == set(PHASE_PRIORITY) | {"other"}

    def test_zero_total_is_all_zero(self):
        from repro.obs import SpanRecorder

        phases = attribute_phases(SpanRecorder(), 0.0)
        assert sum(phases.values()) == 0.0

    def test_priority_resolves_overlaps(self):
        """When a pack span overlaps a scheme envelope, the interval is
        charged to the higher-priority phase (pack), never twice."""
        from repro.obs import SpanRecorder

        recorder = SpanRecorder()
        recorder.complete(0.0, 10.0, "scheme.iteration", rank=0, category="scheme")
        recorder.complete(2.0, 5.0, "pack.pack", rank=0, category="pack")
        phases = attribute_phases(recorder, 10.0)
        assert phases["pack"] == pytest.approx(3.0)
        assert phases["scheme"] == pytest.approx(7.0)
        assert sum(phases.values()) == pytest.approx(10.0)
