"""Structural span invariants, property-tested.

Every traced run — any scheme, any platform, any message size, any
datatype shape — must produce a well-formed span tree: every span
closes, closes no earlier than it begins, nests inside its parent's
interval, and per-rank begin times are monotone in recording order.
The same file pins the zero-perturbation contract: tracing must not
change virtual time or the kernel event count, and an untraced run
must never touch the span recorder at all.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PAPER_ORDER, TimingPolicy, run_pingpong, strided_for_bytes
from repro.mpi import SimBuffer, run_mpi
from repro.obs import NULL_RECORDER, SpanRecorder
from repro.perf.workloads import zero_cost_check
from tests.mpi.test_engine import random_datatype


def assert_span_invariants(recorder: SpanRecorder) -> None:
    """The four structural invariants every finished trace must satisfy."""
    spans = recorder.all_spans()
    # (1) span ids are unique
    sids = [s.sid for s in spans]
    assert len(sids) == len(set(sids))
    # (2) every span closes, and closes no earlier than it begins
    assert recorder.open_spans() == []
    for s in spans:
        assert s.closed and s.end >= s.begin, s.format()
    # (3) every child lies within its parent's interval
    for s in spans:
        if s.parent_id is not None:
            parent = recorder.span_by_id(s.parent_id)
            assert parent is not None, f"{s.name} has a dangling parent_id"
            assert parent.contains(s), (parent.format(), s.format())
    # (4) per-rank begin times are monotone in recording order
    per_rank: dict[int | None, list] = defaultdict(list)
    for s in spans:
        per_rank[s.rank].append(s)
    for rank, seq in per_rank.items():
        for a, b in zip(seq, seq[1:]):
            assert b.begin >= a.begin - 1e-15, (rank, a.format(), b.format())


@given(
    key=st.sampled_from(PAPER_ORDER),
    nbytes=st.sampled_from([256, 4_096, 100_000, 2_000_000]),
    platform=st.sampled_from(["ideal", "skx-impi", "ls5-cray"]),
    iterations=st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_every_scheme_cell_satisfies_span_invariants(key, nbytes, platform, iterations):
    result = run_pingpong(
        key,
        strided_for_bytes(nbytes),
        platform,
        policy=TimingPolicy(iterations=iterations, flush=False),
        materialize=False,
        trace=True,
    )
    recorder = result.tracer
    assert_span_invariants(recorder)
    # The per-iteration scheme envelopes exist on both ranks ...
    for rank in (0, 1):
        assert recorder.span_count("scheme.iteration", rank=rank) == iterations
        # ... inside that rank's single rank.main root, which covers
        # the rank's whole life.
        (main_span,) = recorder.spans("rank.main", rank=rank)
        for it in recorder.spans("scheme.iteration", rank=rank):
            assert main_span.contains(it)
    # The attributable spans all end inside the job.
    for s in recorder.all_spans():
        assert s.end <= result.virtual_time + 1e-15


@given(dtype=random_datatype(), count=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_random_datatype_traffic_produces_wellformed_spans(dtype, count):
    """Arbitrary nested datatype sends through the full protocol stack
    still yield a closed, nested, monotone span tree."""
    dtype.commit()
    hi = max((o + n for o, n in dtype.segments(count)), default=1)
    payload = dtype.size * count

    def main(comm):
        if comm.rank == 0:
            comm.Send(SimBuffer.virtual(max(hi, 1)), dest=1, count=count, datatype=dtype)
        else:
            comm.Recv(SimBuffer.virtual(max(payload, 1)), source=0)

    job = run_mpi(main, 2, "skx-impi", trace=True)
    assert_span_invariants(job.tracer)
    sends = job.tracer.spans("p2p.send_call", rank=0)
    assert len(sends) == 1 and sends[0]["nbytes"] == payload


@pytest.mark.parametrize("key", PAPER_ORDER)
def test_tracing_does_not_perturb_the_run(key):
    """Traced and untraced runs execute the *same* kernel events: the
    virtual clock, the measured time, and the event count are
    bit-identical (the merged-sleep reconstruction contract)."""
    kwargs = dict(
        policy=TimingPolicy(iterations=2, flush=True),
        materialize=False,
    )
    layout = strided_for_bytes(65_536)
    off = run_pingpong(key, layout, "skx-impi", trace=False, **kwargs)
    on = run_pingpong(key, layout, "skx-impi", trace=True, **kwargs)
    assert on.virtual_time == off.virtual_time
    assert on.events == off.events
    assert on.stats.times == off.stats.times


def test_untraced_run_never_touches_the_recorder(ideal):
    """Zero-cost check: across an untraced workload (every scheme, an
    eager and a rendezvous size, a fat-tree halo) no call reaches the
    shared disabled recorder and no wait edge is recorded."""
    counts = zero_cost_check()
    assert counts["recorder_calls"] == 0
    assert counts["wait_edges"] == 0
    result = run_pingpong(
        "vector",
        strided_for_bytes(100_000),
        ideal,
        policy=TimingPolicy(iterations=2, flush=True),
        materialize=False,
        trace=False,
    )
    assert result.tracer is NULL_RECORDER
    # Metrics are always on, tracing or not.
    assert result.metrics.counter_value("p2p.staged_sends") == 2


def test_double_close_and_backwards_close_rejected():
    recorder = SpanRecorder()
    span = recorder.begin(1.0, "x", rank=0)
    with pytest.raises(ValueError, match="before its begin"):
        recorder.end(span, 0.5)
    recorder.end(span, 2.0)
    with pytest.raises(ValueError, match="already closed"):
        recorder.end(span, 3.0)


def test_auto_parenting_follows_the_scoped_stack():
    recorder = SpanRecorder()
    outer = recorder.begin(0.0, "outer", rank=0)
    recorder.push(0, outer)
    inner = recorder.begin(1.0, "inner", rank=0)
    assert inner.parent_id == outer.sid
    detached = recorder.begin(1.5, "detached", rank=0, parent=None)
    assert detached.parent_id is None
    other_rank = recorder.begin(1.5, "elsewhere", rank=1)
    assert other_rank.parent_id is None  # stacks are per-rank
    recorder.pop(0, outer)
    sibling = recorder.begin(2.0, "sibling", rank=0)
    assert sibling.parent_id is None
