"""Lowering correctness: ``lower(dtype, count)`` vs the ``segments_of``
oracle, for every constructor family and for the fold-limit fallbacks.

The invariant is *normalized* segment equality: lowering may legally
merge byte-adjacent blocks (``runs_from_blocks`` returns the most
compact representation), so both sides are compared after an in-order
adjacency merge.  Byte movement is checked directly with ``gather``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.mpi.datatypes import (
    DOUBLE,
    Datatype,
    make_contiguous,
    make_hvector,
    make_indexed,
    make_indexed_block,
    make_resized,
    make_struct,
    make_subarray,
    make_vector,
    segments_of,
)
from repro.mpi.datatypes.ir import LoweringError, Program, lower
from repro.mpi.datatypes.runs import ContigRun
from repro.mpi.errors import DatatypeError

from .strategies import DERIVED, merged_segments


def assert_equivalent(program: Program, dtype: Datatype, count: int) -> None:
    segs = segments_of(dtype.flatten(count))
    assert program.normalized_segments() == merged_segments(segs)
    assert program.nbytes == dtype.size * count

    span = max((o + n for o, n in segs), default=0)
    src = (np.arange(max(span, 1), dtype=np.int64) % 251).astype(np.uint8)
    packed = np.zeros(program.nbytes, dtype=np.uint8)
    program.gather(src, packed)
    ref = np.concatenate([src[o : o + n] for o, n in segs] or [np.empty(0, np.uint8)])
    assert np.array_equal(packed, ref)


CASES = {
    "contiguous": lambda: make_contiguous(5, DOUBLE),
    "vector": lambda: make_vector(6, 2, 5, DOUBLE),
    "hvector": lambda: make_hvector(4, 1, 13, DOUBLE),
    "indexed": lambda: make_indexed([2, 1, 3], [0, 5, 9], DOUBLE),
    "indexed-block": lambda: make_indexed_block(2, [0, 4, 9], DOUBLE),
    "struct": lambda: make_struct([2, 3], [0, 32], [DOUBLE, DOUBLE]),
    "subarray": lambda: make_subarray([4, 6], [2, 3], [1, 2], DOUBLE),
    "resized": lambda: make_resized(make_vector(3, 1, 2, DOUBLE), 0, 64),
    "nested": lambda: make_vector(3, 2, 3, make_contiguous(2, DOUBLE)),
    "zero-len-indexed": lambda: make_indexed([1, 0, 2], [0, 2, 4], DOUBLE),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("count", [0, 1, 3])
def test_constructor_lowers_to_oracle_segments(name: str, count: int):
    dtype = CASES[name]()
    try:
        assert_equivalent(lower(dtype, count), dtype, count)
    finally:
        dtype.free()


@settings(max_examples=120, deadline=None)
@given(dtype=DERIVED)
def test_random_types_lower_to_oracle_segments(dtype: Datatype):
    try:
        for count in (0, 1, 2):
            assert_equivalent(lower(dtype, count), dtype, count)
    finally:
        dtype.free()


def test_zero_count_is_empty_program():
    dtype = make_vector(4, 1, 2, DOUBLE)
    try:
        program = lower(dtype, 0)
        assert program.ops == ()
        assert program.nbytes == 0
        assert program.pattern().total_bytes == 0
    finally:
        dtype.free()


def test_named_type_is_single_copy():
    program = lower(DOUBLE, 3)
    assert all(isinstance(run, ContigRun) for run in program.ops)
    assert program.nbytes == 24
    # Three adjacent doubles normalize to one span.
    assert program.normalized_segments() == [(0, 24)]


def test_freed_type_rejected():
    dtype = make_vector(2, 1, 2, DOUBLE)
    dtype.free()
    with pytest.raises(DatatypeError):
        lower(dtype)


def test_unknown_combiner_raises_lowering_error():
    class MysteryType(Datatype):
        combiner = "mystery"

        def __init__(self) -> None:
            super().__init__(size=8, lb=0, ub=8, name="mystery")

    with pytest.raises(LoweringError, match="mystery"):
        lower(MysteryType())


@pytest.mark.parametrize("count", [1, 5])
def test_tiny_op_limit_still_equivalent(count: int):
    """Past the fold limit, lowering falls back to the run-layer
    flatten — the result must stay equivalent, just differently built."""
    dtype = make_indexed([1] * 40, list(range(0, 120, 3)), DOUBLE)
    try:
        program = lower(dtype, count, op_limit=8)
        assert_equivalent(program, dtype, count)
        # The fallback compacts: far fewer ops than naive blocks.
        assert program.nops <= 8
    finally:
        dtype.free()


def test_oversized_replication_compacts():
    """A large count on a regular type must not explode into
    count * nblocks copy ops."""
    dtype = make_vector(8, 1, 2, DOUBLE)
    try:
        program = lower(dtype, 10_000, op_limit=64)
        assert program.nbytes == dtype.size * 10_000
        assert program.nops <= 64
        segs = segments_of(dtype.flatten(10_000))
        assert program.normalized_segments() == merged_segments(segs)
    finally:
        dtype.free()
