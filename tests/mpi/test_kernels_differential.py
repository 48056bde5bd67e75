"""Differential suite for multi-run gather/scatter across the layers.

Three layers move a derived type's blocks: the compiled
:class:`TransferPlan`, the transfer-IR :class:`Program` (naive lowering
and fully canonicalized), and the checked entry points comm paths call
(``TransferPlan.pack_into``/``unpack_from`` and the engine's
``pack_bytes``/``unpack_bytes``).  All of them must be *byte-identical*
on every plan the datatype constructors can produce — same packed
bytes, same unpacked buffer, same return values, at every destination
offset.  The segment-list oracle itself is checked in
``test_plan_property``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import Datatype, compile_plan
from repro.mpi.datatypes.engine import pack_bytes, unpack_bytes
from repro.mpi.datatypes.ir import lower, run_pipeline

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
        naive = lower(dtype, count)
        movers = (plan, naive, run_pipeline(naive).program)
        span = max(plan.max_end, 1)
        src = _filled(span)

        # Gather into an offset destination through every layer.
        packed = []
        for mover in movers:
            out = np.zeros(plan.nbytes + dst_offset, dtype=np.uint8)
            assert mover.gather(src, out, dst_offset) == plan.nbytes
            packed.append(out)
        for out in packed[1:]:
            assert np.array_equal(out, packed[0])

        # Scatter back from the same offset through every layer.
        backs = []
        for mover in movers:
            back = np.zeros(span, dtype=np.uint8)
            assert mover.scatter(packed[0], dst_offset, back) == plan.nbytes
            backs.append(back)
        for back in backs[1:]:
            assert np.array_equal(back, backs[0])
    finally:
        dtype.free()


@settings(max_examples=60, deadline=None)
@given(dtype=DERIVED, count=st.integers(1, 3))
def test_checked_pack_unpack_bit_identical_across_tiers(
    dtype: Datatype, count: int
):
    """The checked entry points (``pack_into``/``unpack_from`` and the
    engine functions that delegate to them), which is what comm paths
    call, move exactly the bytes of the unchecked plan movers."""
    dtype.commit()
    try:
        plan = compile_plan(dtype, count)
        span = max(plan.max_end, 1)
        src = _filled(span)

        packed = np.zeros(plan.nbytes, dtype=np.uint8)
        packed_p = np.zeros_like(packed)
        packed_e = np.zeros_like(packed)
        plan.gather(src, packed, 0)
        assert plan.pack_into(src, packed_p) == plan.nbytes
        assert pack_bytes(src, dtype, count, packed_e) == plan.nbytes
        assert np.array_equal(packed, packed_p)
        assert np.array_equal(packed, packed_e)

        back = np.zeros(span, dtype=np.uint8)
        back_p = np.zeros(span, dtype=np.uint8)
        back_e = np.zeros(span, dtype=np.uint8)
        plan.scatter(packed, 0, back)
        assert plan.unpack_from(packed, 0, back_p) == plan.nbytes
        assert unpack_bytes(packed, 0, back_e, dtype, count) == plan.nbytes
        assert np.array_equal(back, back_p)
        assert np.array_equal(back, back_e)
    finally:
        dtype.free()
