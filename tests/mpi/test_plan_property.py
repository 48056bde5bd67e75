"""Property tests: a compiled TransferPlan is byte- and pattern-
equivalent to the uncompiled datatype across random layouts.

The oracle is ``segments_of`` — the materialized (offset, length) list
— applied one segment at a time; the plan's vectorized gather/scatter
must move exactly those bytes, and its pattern must equal what
``Datatype.access_pattern`` computes from scratch.  Both the unchecked
movers (``gather``/``scatter``) and the checked entry points comm paths
call (``pack_into``/``unpack_from``) are compared, at every packed-buffer
offset from 0 to 17, over this module's layouts and every constructor
the transfer-IR strategies generate.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import (
    DOUBLE,
    INT,
    Datatype,
    compile_plan,
    make_indexed,
    make_resized,
    make_struct,
    make_vector,
    segments_of,
)

from .ir.strategies import DERIVED as IR_DERIVED

BASE = st.sampled_from([DOUBLE, INT])


@st.composite
def vector_types(draw) -> Datatype:
    blocklen = draw(st.integers(1, 4))
    stride = blocklen + draw(st.integers(0, 4))
    return make_vector(draw(st.integers(1, 6)), blocklen, stride, draw(BASE))


@st.composite
def indexed_types(draw) -> Datatype:
    base = draw(BASE)
    nblocks = draw(st.integers(1, 5))
    lengths = [draw(st.integers(1, 4)) for _ in range(nblocks)]
    # Increasing, non-overlapping displacements (in elements).
    disps, pos = [], 0
    for length in lengths:
        pos += draw(st.integers(0, 3))
        disps.append(pos)
        pos += length
    return make_indexed(lengths, disps, base)


@st.composite
def struct_types(draw) -> Datatype:
    nfields = draw(st.integers(1, 4))
    lengths, types, disps, pos = [], [], [], 0
    for _ in range(nfields):
        base = draw(BASE)
        length = draw(st.integers(1, 3))
        pos += draw(st.integers(0, 2)) * 8  # aligned byte gaps
        lengths.append(length)
        types.append(base)
        disps.append(pos)
        pos += length * base.extent
    return make_struct(lengths, disps, types)


@st.composite
def resized_types(draw) -> Datatype:
    inner = draw(vector_types())
    pad = draw(st.integers(0, 3)) * 8
    return make_resized(inner, 0, inner.extent + pad)


DERIVED = st.one_of(vector_types(), indexed_types(), struct_types(), resized_types())


@settings(max_examples=120, deadline=None)
@given(
    dtype=st.one_of(DERIVED, IR_DERIVED),
    count=st.integers(0, 4),
    offset=st.integers(0, 17),
)
def test_plan_matches_segment_reference(dtype: Datatype, count: int, offset: int):
    dtype.commit()
    try:
        plan = compile_plan(dtype, count)
        segs = segments_of(dtype.flatten(count))

        assert list(plan.segments()) == segs
        assert plan.pattern == dtype.access_pattern(count)
        assert plan.nbytes == dtype.size * count == sum(n for _, n in segs)
        span = max((o + n for o, n in segs), default=0)
        assert plan.max_end == span
        assert plan.min_offset == (min(o for o, _ in segs) if segs else 0)

        src = (np.arange(max(span, 1), dtype=np.int64) % 251).astype(np.uint8)
        ref = np.concatenate(
            [src[o : o + n] for o, n in segs] or [np.empty(0, np.uint8)]
        )
        packed = np.zeros(offset + plan.nbytes, dtype=np.uint8)
        assert plan.gather(src, packed, offset) == plan.nbytes
        assert not packed[:offset].any()
        assert np.array_equal(packed[offset:], ref)
        checked = np.zeros_like(packed)
        assert plan.pack_into(src, checked, offset) == plan.nbytes
        assert np.array_equal(checked, packed)

        ref_back = np.zeros(max(span, 1), dtype=np.uint8)
        pos = offset
        for off, length in segs:
            ref_back[off : off + length] = packed[pos : pos + length]
            pos += length
        back = np.zeros_like(ref_back)
        assert plan.scatter(packed, offset, back) == plan.nbytes
        assert np.array_equal(back, ref_back)
        checked_back = np.zeros_like(ref_back)
        assert plan.unpack_from(packed, offset, checked_back) == plan.nbytes
        assert np.array_equal(checked_back, ref_back)
    finally:
        dtype.free()
