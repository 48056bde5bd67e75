"""Per-pass properties: every rewrite is equivalence-preserving,
idempotent, and strictly progress-making (so the pipeline terminates).

Equivalence is ``normalized_segments`` identity — the in-order
adjacency-merged byte footprint, which pins both *which* bytes move and
the order they are packed in.  The termination measure is lexicographic
``(run count, run-kind rank sum, total block count)`` with
Contig < Strided < Irregular: every accepted rewrite strictly decreases
it, and it is bounded below.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.machine.registry import get_platform
from repro.mpi.datatypes import Datatype
from repro.mpi.datatypes.ir import (
    MAX_ROUNDS,
    PASSES,
    ConvergenceError,
    Program,
    coalesce_copies,
    collapse_strides,
    fold_contiguous,
    lower,
    program_cost,
    rows_to_vector,
    run_pipeline,
)
from repro.mpi.datatypes.runs import ContigRun, IrregularRuns, StridedRuns

from .strategies import DERIVED

_KIND_RANK = {ContigRun: 0, StridedRuns: 1, IrregularRuns: 2}


def measure(program: Program) -> tuple[int, int, int]:
    return (
        program.nops,
        sum(_KIND_RANK[type(run)] for run in program.ops),
        program.nblocks,
    )


def _programs_of(dtype: Datatype, count: int) -> Program:
    try:
        return lower(dtype, count)
    finally:
        dtype.free()


class TestPerPassProperties:
    @pytest.mark.parametrize("pass_fn", PASSES, ids=lambda f: f.__name__)
    @settings(max_examples=60, deadline=None)
    @given(dtype=DERIVED)
    def test_equivalence_preserving(self, pass_fn, dtype: Datatype):
        program = _programs_of(dtype, 2)
        rewritten = pass_fn(program)
        assert rewritten.normalized_segments() == program.normalized_segments()
        assert rewritten.nbytes == program.nbytes

    @pytest.mark.parametrize("pass_fn", PASSES, ids=lambda f: f.__name__)
    @settings(max_examples=60, deadline=None)
    @given(dtype=DERIVED)
    def test_idempotent(self, pass_fn, dtype: Datatype):
        once = pass_fn(_programs_of(dtype, 2))
        twice = pass_fn(once)
        assert twice.ops == once.ops

    @pytest.mark.parametrize("pass_fn", PASSES, ids=lambda f: f.__name__)
    @settings(max_examples=60, deadline=None)
    @given(dtype=DERIVED)
    def test_progress_measure_never_increases(self, pass_fn, dtype: Datatype):
        program = _programs_of(dtype, 2)
        rewritten = pass_fn(program)
        if rewritten.ops != program.ops:
            assert measure(rewritten) < measure(program)
        else:
            assert measure(rewritten) == measure(program)


class TestIndividualRewrites:
    def test_coalesce_merges_adjacent_copies(self):
        program = Program(ops=(ContigRun(0, 8), ContigRun(8, 8), ContigRun(24, 8)))
        out = coalesce_copies(program)
        assert out.ops == (ContigRun(0, 16), ContigRun(24, 8))

    def test_collapse_dense_strided_to_copy(self):
        program = Program(ops=(StridedRuns(0, count=4, blocklen=8, stride=8),))
        out = collapse_strides(program)
        assert out.ops == (ContigRun(0, 32),)

    def test_collapse_single_count_strided(self):
        program = Program(ops=(StridedRuns(16, count=1, blocklen=8, stride=24),))
        assert collapse_strides(program).ops == (ContigRun(16, 8),)

    def test_collapse_uniform_indexed_to_strided(self):
        import numpy as np

        run = IrregularRuns(np.array([0, 16, 32]), np.array([8, 8, 8]))
        out = collapse_strides(Program(ops=(run,)))
        assert out.ops == (StridedRuns(0, count=3, blocklen=8, stride=16),)

    def test_rows_to_vector_fuses_copy_trains(self):
        program = Program(ops=tuple(ContigRun(i * 16, 8) for i in range(5)))
        out = rows_to_vector(program)
        assert out.ops == (StridedRuns(0, count=5, blocklen=8, stride=16),)

    def test_rows_to_vector_extends_existing_vector(self):
        program = Program(
            ops=(
                StridedRuns(0, count=3, blocklen=8, stride=16),
                StridedRuns(48, count=2, blocklen=8, stride=16),
            )
        )
        out = rows_to_vector(program)
        assert out.ops == (StridedRuns(0, count=5, blocklen=8, stride=16),)

    def test_fold_contiguous_compacts_indexed(self):
        import numpy as np

        run = IrregularRuns(np.array([0, 8, 24]), np.array([8, 8, 8]))
        out = fold_contiguous(Program(ops=(run,)))
        # Adjacent first pair merges; the survivor is more regular.
        assert out.normalized_segments() == [(0, 16), (24, 8)]
        assert measure(out) < measure(Program(ops=(run,)))


class TestPipeline:
    @settings(max_examples=100, deadline=None)
    @given(dtype=DERIVED)
    def test_converges_to_fixed_point(self, dtype: Datatype):
        program = _programs_of(dtype, 2)
        result = run_pipeline(program)
        assert result.rounds <= MAX_ROUNDS
        # A second full pipeline run makes no further progress.
        again = run_pipeline(result.program)
        assert again.program.ops == result.program.ops
        assert again.trail == ()
        assert result.program.normalized_segments() == program.normalized_segments()

    @settings(max_examples=60, deadline=None)
    @given(dtype=DERIVED)
    def test_cost_guard_is_monotone(self, dtype: Datatype):
        platform = get_platform("skx-impi")
        program = _programs_of(dtype, 2)
        result = run_pipeline(program, platform=platform)
        assert program_cost(result.program, platform) <= program_cost(program, platform)

    def test_zero_round_budget_raises(self):
        dtype_programs = Program(ops=(ContigRun(0, 8), ContigRun(8, 8)))
        with pytest.raises(ConvergenceError):
            run_pipeline(dtype_programs, max_rounds=0)

    def test_trail_names_the_passes(self):
        program = Program(ops=tuple(ContigRun(i * 16, 8) for i in range(4)), source="rows")
        result = run_pipeline(program)
        assert "rows_to_vector" in result.trail
        assert result.program.ops == (StridedRuns(0, count=4, blocklen=8, stride=16),)
