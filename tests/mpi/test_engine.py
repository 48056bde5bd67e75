"""Pack/unpack engine tests, including hypothesis round-trip properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import (
    BYTE,
    DOUBLE,
    INT,
    Datatype,
    check_fits,
    compile_plan,
    make_contiguous,
    make_hvector,
    make_indexed,
    make_indexed_block,
    make_struct,
    make_subarray,
    make_vector,
    pack_bytes,
    unpack_bytes,
)
from repro.mpi.errors import DatatypeError, PackError


def reference_pack(dtype: Datatype, count: int, src: np.ndarray) -> np.ndarray:
    """Oracle: gather via the materialized segment list."""
    src_b = src.view(np.uint8).reshape(-1)
    return np.concatenate(
        [src_b[o : o + n] for o, n in dtype.segments(count)]
        or [np.empty(0, dtype=np.uint8)]
    )


class TestPackBasics:
    def test_vector_pack(self):
        v = make_vector(8, 1, 2, DOUBLE).commit()
        src = np.arange(16, dtype=np.float64)
        dst = np.zeros(8, dtype=np.float64)
        n = pack_bytes(src, v, 1, dst)
        assert n == 64
        assert np.array_equal(dst, src[::2])

    def test_pack_with_offset(self):
        v = make_vector(4, 1, 2, DOUBLE).commit()
        src = np.arange(8, dtype=np.float64)
        dst = np.zeros(64, dtype=np.uint8)
        pack_bytes(src, v, 1, dst, dst_offset=32)
        out = dst[32:].view(np.float64)
        assert np.array_equal(out, src[::2])

    def test_unpack_inverse(self):
        v = make_vector(8, 1, 2, DOUBLE).commit()
        src = np.arange(16, dtype=np.float64)
        packed = np.zeros(8, dtype=np.float64)
        pack_bytes(src, v, 1, packed)
        back = np.zeros(16, dtype=np.float64)
        n = unpack_bytes(packed, 0, back, v, 1)
        assert n == 64
        assert np.array_equal(back[::2], src[::2])
        assert np.all(back[1::2] == 0)

    def test_count_replication(self):
        c = make_contiguous(2, DOUBLE).commit()
        src = np.arange(6, dtype=np.float64)
        dst = np.zeros(6, dtype=np.float64)
        pack_bytes(src, c, 3, dst)
        assert np.array_equal(dst, src)

    def test_zero_count_noop(self):
        dst = np.zeros(8, dtype=np.uint8)
        assert pack_bytes(np.zeros(8, dtype=np.uint8), BYTE, 0, dst) == 0


class TestPackErrors:
    def test_destination_overflow(self):
        v = make_vector(8, 1, 2, DOUBLE).commit()
        src = np.arange(16, dtype=np.float64)
        with pytest.raises(PackError, match="overflows"):
            pack_bytes(src, v, 1, np.zeros(7, dtype=np.float64))

    def test_source_bounds(self):
        v = make_vector(8, 1, 2, DOUBLE).commit()
        with pytest.raises(DatatypeError, match="reaches byte"):
            pack_bytes(np.arange(10, dtype=np.float64), v, 1, np.zeros(8, dtype=np.float64))

    def test_unpack_overrun(self):
        v = make_vector(8, 1, 2, DOUBLE).commit()
        with pytest.raises(PackError, match="overruns"):
            unpack_bytes(np.zeros(7, dtype=np.float64), 0, np.zeros(16, dtype=np.float64), v, 1)

    def test_non_array_rejected(self):
        with pytest.raises(TypeError):
            pack_bytes([1, 2, 3], BYTE, 3, np.zeros(3, dtype=np.uint8))

    def test_negative_pack_offset_rejected(self):
        # Regression: a negative dst_offset must not wrap to the tail
        # of the destination via Python slicing semantics.
        v = make_vector(4, 1, 2, DOUBLE).commit()
        src = np.arange(8, dtype=np.float64)
        with pytest.raises(PackError, match="overflows"):
            pack_bytes(src, v, 1, np.zeros(64, dtype=np.uint8), dst_offset=-8)

    def test_negative_unpack_offset_rejected(self):
        v = make_vector(4, 1, 2, DOUBLE).commit()
        with pytest.raises(PackError, match="overruns"):
            unpack_bytes(np.zeros(64, dtype=np.uint8), -8,
                         np.zeros(8, dtype=np.float64), v, 1)

    def test_offset_overrun_rejected(self):
        # Fits from offset 0 but not from offset 40.
        v = make_vector(4, 1, 2, DOUBLE).commit()  # packs 32 B
        src = np.arange(8, dtype=np.float64)
        dst = np.zeros(64, dtype=np.uint8)
        pack_bytes(src, v, 1, dst, dst_offset=32)  # exactly fits
        with pytest.raises(PackError, match="overflows"):
            pack_bytes(src, v, 1, dst, dst_offset=40)
        with pytest.raises(PackError, match="overruns"):
            unpack_bytes(dst, 40, np.zeros(8, dtype=np.float64), v, 1)

    def test_noncontiguous_multidim_buffer_rejected(self):
        # Regression: reshape(-1) on a non-contiguous array returns a
        # *copy* — unpack writes would be lost and pack reads stale.
        v = make_vector(4, 1, 2, BYTE).commit()
        sliced = np.zeros((4, 6), dtype=np.uint8)[:, ::2]  # 2-D, non-contiguous
        with pytest.raises(DatatypeError, match="C-contiguous"):
            pack_bytes(sliced, v, 1, np.zeros(8, dtype=np.uint8))
        with pytest.raises(DatatypeError, match="C-contiguous"):
            unpack_bytes(np.zeros(8, dtype=np.uint8), 0, sliced, v, 1)

    def test_noncontiguous_typed_buffer_rejected(self):
        v = make_vector(4, 1, 2, DOUBLE).commit()
        strided = np.arange(16, dtype=np.float64)[::2]  # 1-D, non-contiguous
        with pytest.raises(DatatypeError, match="C-contiguous"):
            pack_bytes(strided, v, 1, np.zeros(4, dtype=np.float64))

    def test_strided_byte_buffers_rejected(self):
        # Regression: a strided 1-D uint8 view used to pass, so datatype
        # byte offsets indexed its *elements* — packing memory bytes 0
        # and 4 for offsets 0 and 2 — and unpack wrote to those bytes too.
        v = make_vector(2, 1, 2, BYTE).commit()
        plan = compile_plan(v, 1)
        strided = np.arange(16, dtype=np.uint8)[::2]
        packed = np.zeros(2, dtype=np.uint8)
        with pytest.raises(DatatypeError, match="C-contiguous"):
            pack_bytes(strided, v, 1, packed)
        with pytest.raises(DatatypeError, match="C-contiguous"):
            plan.pack_into(strided, packed)
        with pytest.raises(DatatypeError, match="C-contiguous"):
            unpack_bytes(packed, 0, strided, v, 1)
        with pytest.raises(DatatypeError, match="C-contiguous"):
            plan.unpack_from(packed, 0, strided)
        assert not packed.any()
        assert np.array_equal(strided, np.arange(0, 16, 2, dtype=np.uint8))

    def test_strided_packed_buffers_rejected(self):
        # The contiguous side of a pack/unpack must be dense too.
        v = make_vector(2, 1, 2, BYTE).commit()
        plan = compile_plan(v, 1)
        src = np.arange(3, dtype=np.uint8)
        strided = np.zeros(8, dtype=np.uint8)[::2]
        with pytest.raises(DatatypeError, match="C-contiguous"):
            pack_bytes(src, v, 1, strided)
        with pytest.raises(DatatypeError, match="C-contiguous"):
            plan.pack_into(src, strided)
        with pytest.raises(DatatypeError, match="C-contiguous"):
            unpack_bytes(strided, 0, src.copy(), v, 1)
        with pytest.raises(DatatypeError, match="C-contiguous"):
            plan.unpack_from(strided, 0, src.copy())

    def test_negative_displacement_rejected(self):
        from repro.mpi.datatypes import make_hindexed

        t = make_hindexed([1], [-8], DOUBLE).commit()
        with pytest.raises(DatatypeError, match="before buffer start"):
            pack_bytes(np.zeros(2, dtype=np.float64), t, 1, np.zeros(1, dtype=np.float64))

    def test_check_fits_ok_cases(self):
        v = make_vector(4, 1, 2, DOUBLE).commit()
        check_fits(v, 1, 7 * 8, "x")  # true extent = (3*2+1)*8
        with pytest.raises(DatatypeError):
            check_fits(v, 1, 7 * 8 - 1, "x")


class TestPackOracle:
    """Every constructor agrees with the segment-list oracle."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: make_vector(7, 2, 5, DOUBLE),
            lambda: make_hvector(5, 3, 40, BYTE),
            lambda: make_indexed([3, 1, 2], [0, 5, 9], DOUBLE),
            lambda: make_indexed_block(2, [0, 4, 11], INT),
            lambda: make_struct([2, 1, 3], [0, 24, 40], [INT, DOUBLE, BYTE]),
            lambda: make_subarray([6, 8], [3, 4], [2, 1], DOUBLE),
            lambda: make_subarray([4, 4, 4], [2, 2, 2], [1, 1, 1], INT),
            lambda: make_contiguous(3, make_vector(3, 1, 3, DOUBLE)),
        ],
    )
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_matches_oracle(self, factory, count):
        dtype = factory().commit()
        hi = max((o + n for o, n in dtype.segments(count)), default=0)
        src = np.arange(max(hi, 1), dtype=np.uint8)
        dst = np.zeros(dtype.pack_size(count), dtype=np.uint8)
        pack_bytes(src, dtype, count, dst)
        assert np.array_equal(dst, reference_pack(dtype, count, src))

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: make_vector(7, 2, 5, DOUBLE),
            lambda: make_indexed([3, 1, 2], [0, 5, 9], DOUBLE),
            lambda: make_struct([2, 1], [0, 24], [INT, DOUBLE]),
        ],
    )
    def test_roundtrip(self, factory):
        dtype = factory().commit()
        hi = max(o + n for o, n in dtype.segments(2))
        src = (np.arange(hi, dtype=np.uint64) % 251).astype(np.uint8)
        packed = np.zeros(dtype.pack_size(2), dtype=np.uint8)
        pack_bytes(src, dtype, 2, packed)
        dst = np.zeros(hi, dtype=np.uint8)
        unpack_bytes(packed, 0, dst, dtype, 2)
        for o, n in dtype.segments(2):
            assert np.array_equal(dst[o : o + n], src[o : o + n])


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@st.composite
def random_datatype(draw, max_depth: int = 2):
    """A random (possibly nested) datatype with modest bounds."""
    if max_depth == 0:
        return draw(st.sampled_from([BYTE, INT, DOUBLE]))
    kind = draw(st.sampled_from(["basic", "vector", "indexed", "contiguous", "struct"]))
    if kind == "basic":
        return draw(st.sampled_from([BYTE, INT, DOUBLE]))
    old = draw(random_datatype(max_depth=max_depth - 1))
    if kind == "vector":
        count = draw(st.integers(1, 5))
        blocklen = draw(st.integers(1, 3))
        stride = draw(st.integers(blocklen, blocklen + 4))
        return make_vector(count, blocklen, stride, old)
    if kind == "contiguous":
        return make_contiguous(draw(st.integers(1, 4)), old)
    if kind == "indexed":
        n = draw(st.integers(1, 4))
        lengths = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        # Strictly increasing, gapped displacements: no overlap.
        disps = []
        cursor = 0
        for length in lengths:
            cursor += draw(st.integers(0, 3))
            disps.append(cursor)
            cursor += length
        return make_indexed(lengths, disps, old)
    # struct over basic fields at non-overlapping displacements
    n = draw(st.integers(1, 3))
    types = [draw(st.sampled_from([BYTE, INT, DOUBLE])) for _ in range(n)]
    lengths = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    disps = []
    cursor = 0
    for t, length in zip(types, lengths):
        disps.append(cursor)
        cursor += t.extent * length + draw(st.integers(0, 8))
    return make_struct(lengths, disps, types)


@given(dtype=random_datatype(), count=st.integers(1, 3), data=st.data())
@settings(max_examples=120, deadline=None)
def test_property_pack_matches_segment_oracle(dtype, count, data):
    dtype.commit()
    hi = max((o + n for o, n in dtype.segments(count)), default=1)
    src = (np.arange(hi, dtype=np.int64) * 37 % 251).astype(np.uint8)
    dst = np.zeros(dtype.pack_size(count), dtype=np.uint8)
    pack_bytes(src, dtype, count, dst)
    assert np.array_equal(dst, reference_pack(dtype, count, src))


@given(dtype=random_datatype(), count=st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_property_roundtrip_restores_payload(dtype, count):
    dtype.commit()
    segs = dtype.segments(count)
    hi = max((o + n for o, n in segs), default=1)
    src = (np.arange(hi, dtype=np.int64) * 13 % 251).astype(np.uint8)
    packed = np.zeros(dtype.pack_size(count), dtype=np.uint8)
    pack_bytes(src, dtype, count, packed)
    dst = np.full(hi, 255, dtype=np.uint8)
    unpack_bytes(packed, 0, dst, dtype, count)
    touched = np.zeros(hi, dtype=bool)
    for o, n in segs:
        assert np.array_equal(dst[o : o + n], src[o : o + n])
        touched[o : o + n] = True
    # Untouched bytes stay at the sentinel.
    assert np.all(dst[~touched] == 255)


@given(dtype=random_datatype())
@settings(max_examples=120, deadline=None)
def test_property_size_extent_invariants(dtype):
    segs = dtype.segments()
    assert dtype.size == sum(n for _, n in segs)
    assert dtype.extent == dtype.ub - dtype.lb
    if segs:
        lo = min(o for o, _ in segs)
        hi = max(o + n for o, n in segs)
        assert dtype.true_extent == hi - lo
        assert dtype.true_lb == lo
        # The typemap lies within [lb, ub].
        assert dtype.lb <= lo and hi <= dtype.ub
    # Segments never overlap (our engine restriction).
    spans = sorted(segs)
    for (o1, n1), (o2, _n2) in zip(spans, spans[1:]):
        assert o1 + n1 <= o2


@given(dtype=random_datatype(), count=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_property_access_pattern_consistent_with_flatten(dtype, count):
    dtype.commit()
    pattern = dtype.access_pattern(count)
    segs = dtype.segments(count)
    assert pattern.total_bytes == sum(n for _, n in segs)
    if segs:
        assert pattern.nblocks >= 1
        assert pattern.span_bytes >= pattern.total_bytes
