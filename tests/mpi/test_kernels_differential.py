"""Differential suite for multi-run gather/scatter.

The whole-plan :class:`BatchTable` must be *byte-identical* to the
per-run loop (:func:`gather_runs` / :func:`scatter_runs`) on every plan
the datatype constructors can produce — same packed bytes, same
unpacked buffer, same return values, at every destination offset —
whichever of the two a plan's run count selects in production.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import Datatype, compile_plan
from repro.mpi.datatypes.batch import BatchTable, gather_runs, scatter_runs
from repro.mpi.datatypes.runs import ContigRun, IrregularRuns, StridedRuns

from .ir.strategies import COUNTS, DERIVED


def _filled(nbytes: int) -> np.ndarray:
    """A deterministic, non-repeating byte pattern (mod 251 avoids the
    period-256 coincidence with aligned block lengths)."""
    return (np.arange(max(nbytes, 1), dtype=np.int64) % 251).astype(np.uint8)


@settings(max_examples=120, deadline=None)
@given(dtype=DERIVED, count=COUNTS, dst_offset=st.integers(0, 17))
def test_gather_scatter_bit_identical_across_tiers(
    dtype: Datatype, count: int, dst_offset: int
):
    dtype.commit()
    try:
        plan = compile_plan(dtype, count)
        span = max(plan.max_end, 1)
        src = _filled(span)

        table = BatchTable(plan.runs)

        # Gather into an offset destination, both paths.
        packed_s = np.zeros(plan.nbytes + dst_offset, dtype=np.uint8)
        packed_b = np.zeros_like(packed_s)
        n_s = gather_runs(plan.runs, src, packed_s, dst_offset)
        n_b = table.gather(src, packed_b, dst_offset)
        assert n_s == n_b == plan.nbytes
        assert np.array_equal(packed_s, packed_b)

        # Scatter back from the same offset, both paths.
        back_s = np.zeros(span, dtype=np.uint8)
        back_b = np.zeros(span, dtype=np.uint8)
        m_s = scatter_runs(plan.runs, packed_s, dst_offset, back_s)
        m_b = table.scatter(packed_b, dst_offset, back_b)
        assert m_s == m_b == plan.nbytes
        assert np.array_equal(back_s, back_b)
    finally:
        dtype.free()


@settings(max_examples=60, deadline=None)
@given(dtype=DERIVED, count=st.integers(1, 3))
def test_checked_pack_unpack_bit_identical_across_tiers(
    dtype: Datatype, count: int
):
    """The checked engine entry points (``pack_into``/``unpack_from``),
    which is what comm paths call, move exactly the bytes of both
    multi-run paths, whichever one the plan's run count selects."""
    dtype.commit()
    try:
        plan = compile_plan(dtype, count)
        span = max(plan.max_end, 1)
        src = _filled(span)
        table = BatchTable(plan.runs)

        packed = np.zeros(plan.nbytes, dtype=np.uint8)
        packed_s = np.zeros_like(packed)
        packed_b = np.zeros_like(packed)
        plan.pack_into(src, packed)
        gather_runs(plan.runs, src, packed_s, 0)
        table.gather(src, packed_b, 0)
        assert np.array_equal(packed, packed_s)
        assert np.array_equal(packed, packed_b)

        back = np.zeros(span, dtype=np.uint8)
        back_s = np.zeros(span, dtype=np.uint8)
        back_b = np.zeros(span, dtype=np.uint8)
        plan.unpack_from(packed, 0, back)
        scatter_runs(plan.runs, packed, 0, back_s)
        table.scatter(packed, 0, back_b)
        assert np.array_equal(back, back_s)
        assert np.array_equal(back, back_b)
    finally:
        dtype.free()


class TestBatchTable:
    """Unit coverage of the compiled whole-plan block table itself."""

    RUNS = [
        ContigRun(3, 5),
        StridedRuns(offset=16, count=3, blocklen=2, stride=7),
        IrregularRuns(offsets=(40, 50, 61), lengths=(4, 1, 4)),
        ContigRun(70, 1),
    ]

    def test_table_shape(self):
        table = BatchTable(self.RUNS)
        assert table.nblocks == 1 + 3 + 3 + 1
        assert table.total_bytes == sum(r.total_bytes for r in self.RUNS)

    def test_matches_scalar_run_loop(self):
        table = BatchTable(self.RUNS)
        span = max(r.max_end for r in self.RUNS)
        src = _filled(span)

        ref = np.zeros(table.total_bytes + 5, dtype=np.uint8)
        assert gather_runs(self.RUNS, src, ref, 5) == table.total_bytes
        got = np.zeros_like(ref)
        assert table.gather(src, got, 5) == table.total_bytes
        assert np.array_equal(got, ref)

        ref_back = np.zeros(span, dtype=np.uint8)
        assert scatter_runs(self.RUNS, ref, 5, ref_back) == table.total_bytes
        got_back = np.zeros(span, dtype=np.uint8)
        assert table.scatter(got, 5, got_back) == table.total_bytes
        assert np.array_equal(got_back, ref_back)

    def test_empty_run_list(self):
        table = BatchTable([])
        assert table.nblocks == 0 and table.total_bytes == 0
        buf = np.zeros(4, dtype=np.uint8)
        assert table.gather(buf, buf, 0) == 0
        assert table.scatter(buf, 0, buf) == 0
