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

``test_word_width_mover_matches_segments`` drives the word-width rule
of the run movers: BYTE/SHORT/INT/DOUBLE layouts at odd and even buffer
offsets, negative strides, misaligned and read-only buffers, and asserts
that every copy width (1, 2, 4 and 8 bytes) was taken.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import (
    BYTE,
    DOUBLE,
    INT,
    SHORT,
    Datatype,
    compile_plan,
    make_hvector,
    make_indexed,
    make_resized,
    make_struct,
    make_vector,
    segments_of,
)
from repro.mpi.datatypes.runs import (
    ContigRun,
    IrregularRuns,
    StridedRuns,
    _word_width,
    gather_runs,
    scatter_runs,
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


# ----------------------------------------------------------------------
# Word-width movers


WORD_BASE = st.sampled_from([BYTE, SHORT, INT, DOUBLE])


@st.composite
def word_layouts(draw) -> Datatype:
    """Vectors (element or byte strides, either sign) and irregular
    indexed types over 1-, 2-, 4- and 8-byte elements."""
    base = draw(WORD_BASE)
    kind = draw(st.sampled_from(["vector", "hvector", "indexed"]))
    count = draw(st.integers(2, 6))
    blocklen = draw(st.integers(1, 3))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "vector":
        return make_vector(count, blocklen, sign * (blocklen + draw(st.integers(0, 3))), base)
    if kind == "hvector":
        gap = draw(st.integers(0, 9))
        return make_hvector(count, blocklen, sign * (blocklen * base.extent + gap), base)
    lengths = [draw(st.integers(1, 3)) for _ in range(count)]
    disps, pos = [], 0
    for length in lengths:
        pos += draw(st.integers(0, 3))
        disps.append(pos)
        pos += length
    return make_indexed(lengths, disps, base)


def _widths_taken(runs, pack_offset: int) -> set[int]:
    """The copy width each strided/irregular run takes at its position
    in a pack that starts at ``pack_offset``."""
    widths, pos = set(), pack_offset
    for run in runs:
        if isinstance(run, StridedRuns):
            widths.add(_word_width(run.offset, run.blocklen, run.stride, pos))
        elif isinstance(run, IrregularRuns):
            widths.update(w for w, *_ in run._length_classes(_word_width(pos)))
        pos += run.total_bytes
    return widths


def test_word_width_mover_matches_segments():
    widths: set[int] = set()

    # The explicit examples pin one layout per width, so the final
    # assertion never rests on what the random draws happen to reach.
    @settings(max_examples=300, deadline=None)
    # Arguments: dtype, count, shift, offset, misaligned, read_only.
    @example(make_vector(4, 1, 2, DOUBLE), 2, 0, 8, False, False)   # w=8, paper layout
    @example(make_indexed([1, 2, 1], [0, 2, 5], DOUBLE), 1, 8, 16, True, True)  # w=8
    @example(make_vector(3, 1, 2, INT), 1, 4, 4, False, True)       # w=4
    @example(make_vector(3, 1, -2, SHORT), 2, 2, 6, True, False)    # w=2
    @example(make_hvector(3, 1, 9, DOUBLE), 1, 1, 3, False, False)  # w=1
    @given(
        dtype=word_layouts(),
        count=st.integers(1, 3),
        shift=st.integers(0, 9),
        offset=st.integers(0, 17),
        misaligned=st.booleans(),
        read_only=st.booleans(),
    )
    def check(dtype, count, shift, offset, misaligned, read_only):
        runs = dtype.flatten(count)
        # Move the footprint to start ``shift`` bytes into the buffer:
        # odd shifts break 2/4/8-byte alignment, even ones keep some.
        delta = shift - min(r.min_offset for r in runs)
        runs = [r.shifted(delta) for r in runs]
        widths.update(_widths_taken(runs, offset))
        segs = segments_of(runs)
        span = max(o + n for o, n in segs)
        nbytes = sum(n for _, n in segs)

        # A misaligned source starts one byte into its allocation.
        src = np.zeros(span + int(misaligned), np.uint8)[int(misaligned):]
        src[:] = (np.arange(span) * 7 + 3) % 251
        src.flags.writeable = not read_only
        ref = np.concatenate([src[o : o + n] for o, n in segs])

        packed = np.zeros(offset + nbytes, np.uint8)
        assert gather_runs(runs, src, packed, offset) == nbytes
        assert not packed[:offset].any()
        assert np.array_equal(packed[offset:], ref)

        ref_back = np.zeros(span, np.uint8)
        pos = offset
        for off, length in segs:
            ref_back[off : off + length] = packed[pos : pos + length]
            pos += length
        back = np.zeros(span + int(misaligned), np.uint8)[int(misaligned):]
        assert scatter_runs(runs, packed, offset, back) == nbytes
        assert np.array_equal(back, ref_back)

    check()
    assert widths == {1, 2, 4, 8}


@pytest.mark.parametrize("run", [
    ContigRun(8, 16),
    StridedRuns(0, 4, 8, 16),                     # 8-byte words
    StridedRuns(62, 4, 2, -20),                   # 2-byte words, negative stride
    StridedRuns(1, 3, 3, 5),                      # bytes
    IrregularRuns([0, 24, 8], [8, 16, 8]),        # 8-byte words
    IrregularRuns([1, 9, 4], [2, 3, 4]),          # bytes
])
def test_scatter_into_read_only_destination_raises(run):
    packed = np.arange(run.total_bytes, dtype=np.uint8)
    dst = np.zeros(run.max_end, np.uint8)
    dst.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        scatter_runs([run], packed, 0, dst)
    assert not dst.any()
