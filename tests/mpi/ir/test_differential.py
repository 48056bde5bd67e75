"""The differential harness: random derived types, lowered and fully
canonicalized, against the ``segments_of``/``TransferPlan`` oracle.

Three properties, each at >= 200 hypothesis examples:

* byte identity — the canonical program gathers and scatters exactly
  the bytes the uncompiled datatype describes, pre- and post-rewrite;
* plan agreement — total bytes, span, and min offset match the
  independently built :func:`~repro.mpi.datatypes.compile_plan`;
* priced-cost monotonicity — with a platform-guarded pipeline, the
  canonical program never prices worse than the naive lowering.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.machine.registry import get_platform
from repro.mpi.datatypes import Datatype, compile_plan, segments_of
from repro.mpi.datatypes.ir import lower, program_cost, run_pipeline

from .strategies import COUNTS, DERIVED, merged_segments

PLATFORMS = ("skx-impi", "skx-mvapich2", "ls5-cray", "knl-impi")


@settings(max_examples=200, deadline=None)
@given(dtype=DERIVED, count=COUNTS)
def test_byte_identity_pre_and_post_rewrite(dtype: Datatype, count: int):
    try:
        naive = lower(dtype, count)
        canonical = run_pipeline(naive).program
        segs = segments_of(dtype.flatten(count))
        span = max((o + n for o, n in segs), default=0)
        src = (np.arange(max(span, 1), dtype=np.int64) * 7 % 251).astype(np.uint8)
        ref = np.concatenate(
            [src[o : o + n] for o, n in segs] or [np.empty(0, np.uint8)]
        )

        for program in (naive, canonical):
            packed = np.zeros(program.nbytes, dtype=np.uint8)
            program.gather(src, packed)
            assert np.array_equal(packed, ref)

            back = np.zeros(max(span, 1), dtype=np.uint8)
            program.scatter(packed, 0, back)
            expect = np.zeros_like(back)
            pos = 0
            for off, length in segs:
                expect[off : off + length] = packed[pos : pos + length]
                pos += length
            assert np.array_equal(back, expect)
    finally:
        dtype.free()


@settings(max_examples=200, deadline=None)
@given(dtype=DERIVED, count=COUNTS)
def test_canonical_program_agrees_with_plan(dtype: Datatype, count: int):
    dtype.commit()
    try:
        plan = compile_plan(dtype, count)
        canonical = run_pipeline(lower(dtype, count)).program
        assert canonical.nbytes == plan.nbytes
        assert canonical.normalized_segments() == merged_segments(
            list(plan.segments())
        )
        if plan.nbytes:
            assert canonical.min_offset == plan.min_offset
            assert canonical.max_end == plan.max_end
    finally:
        dtype.free()


@settings(max_examples=200, deadline=None)
@given(dtype=DERIVED, count=COUNTS)
def test_priced_cost_never_increases(dtype: Datatype, count: int):
    platforms = [get_platform(p) for p in PLATFORMS]
    try:
        naive = lower(dtype, count)
        for platform in platforms:
            guarded = run_pipeline(naive, platform=platform).program
            assert program_cost(guarded, platform) <= program_cost(naive, platform)
    finally:
        dtype.free()


@pytest.mark.parametrize("platform", PLATFORMS)
def test_pattern_totals_survive_rewrites(platform: str):
    """The canonical pattern reports the same payload as the datatype
    itself — span and totals are rewrite-invariant on the paper's
    layout family."""
    from repro.mpi.datatypes import DOUBLE, make_vector

    dtype = make_vector(500, 1, 2, DOUBLE)
    try:
        result = run_pipeline(lower(dtype), platform=get_platform(platform))
        pattern = result.program.pattern()
        assert pattern.total_bytes == dtype.size
        assert pattern.span_bytes == 500 * 2 * 8 - 8
    finally:
        dtype.free()


def test_plan_keeps_its_own_lowering_across_replica_boundaries():
    """Why ``compile_plan`` does not take the canonical program: the
    two agree byte for byte but not block for block.  Two replicas of
    ``hvector(2, 4, 43 B, DOUBLE)`` (extent 75 B) touch at offset 75;
    the canonical program merges across that boundary into 3 blocks,
    while the plan replicates the coalesced element and keeps 4.  The
    block count feeds the cost model, so plans on the canonical
    program would change virtual time."""
    from repro.mpi.datatypes import DOUBLE, make_hvector

    dtype = make_hvector(2, 4, 43, DOUBLE).commit()
    try:
        plan = compile_plan(dtype, 2)
        canonical = run_pipeline(lower(dtype, 2)).program
        assert canonical.normalized_segments() == merged_segments(
            list(plan.segments())
        )
        assert canonical.pattern().nblocks == 3
        assert plan.pattern.nblocks == 4
    finally:
        dtype.free()
