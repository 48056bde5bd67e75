"""Rewrite passes: naive IR → canonical IR, one verified step at a time.

Every pass is a pure function ``Program -> Program`` over the program's
run list, with the same equivalence invariant: the program's
*normalized segments* (see
:func:`~repro.mpi.datatypes.ir.ops.normalized_segments`) are unchanged,
so the rewritten program gathers and scatters byte-identical streams.
Each pass is also idempotent, and the full pipeline terminates: any
accepted rewrite strictly decreases the lexicographic measure
``(run count, run-kind rank sum, total block count)`` — with
Contig < Strided < Irregular — so a fixed point is reached within a
bounded number of rounds.  (The third component covers
:func:`fold_contiguous` merging blocks *inside* one ``IrregularRuns``,
which changes neither run count nor kind.)

The four passes:

* :func:`coalesce_copies` — run coalescing: byte-adjacent ``ContigRun``
  pairs merge into one (the run layer's :func:`~..runs.merge_contiguous`).
* :func:`collapse_strides` — stride collapse: degenerate strided and
  irregular runs demote to the simplest kind that represents them.
* :func:`rows_to_vector` — subarray→vector: a train of equal
  ``ContigRun`` rows at a uniform stride fuses into one
  ``StridedRuns``; strided trains that continue each other merge.
* :func:`fold_contiguous` — contiguous folding: blocks inside an
  ``IrregularRuns`` that are byte-adjacent *in order* merge; a fully
  dense result becomes a single ``ContigRun``.

:func:`run_pipeline` iterates all four to a fixed point.  Given a
platform it additionally *cost-guards* every rewrite: a pass result is
accepted only if the modeled cold-gather cost does not increase, so
priced-cost monotonicity holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ....machine.platform import Platform
from ..runs import (
    ContigRun,
    IrregularRuns,
    Run,
    StridedRuns,
    demote_strided,
    merge_contiguous,
    runs_from_blocks,
)
from .ops import Program

__all__ = [
    "ConvergenceError",
    "PASSES",
    "PipelineResult",
    "coalesce_copies",
    "collapse_strides",
    "fold_contiguous",
    "program_cost",
    "rows_to_vector",
    "run_pipeline",
]


class ConvergenceError(RuntimeError):
    """The pass pipeline failed to reach a fixed point within bounds."""


def coalesce_copies(program: Program) -> Program:
    """Merge byte-adjacent ``ContigRun`` pairs, in run order.

    Invariant: normalized segments unchanged (adjacency merging is
    exactly what normalization does)."""
    return program.replace(merge_contiguous(program.ops))


def collapse_strides(program: Program) -> Program:
    """Demote degenerate runs to the simplest kind that represents
    them: single-block or dense ``StridedRuns`` → ``ContigRun``; an
    ``IrregularRuns`` with uniform lengths and spacing → ``StridedRuns``
    (demoted further if degenerate); a single-block ``IrregularRuns`` →
    ``ContigRun``.

    Invariant: normalized segments unchanged (only the representation
    of each run changes, never its segment list, except dense trains
    whose segments were already adjacent)."""
    out: list[Run] = []
    for run in program.ops:
        if isinstance(run, StridedRuns):
            run = demote_strided(run)
        elif isinstance(run, IrregularRuns):
            if run.nblocks == 1:
                run = ContigRun(int(run.offsets[0]), int(run.lengths[0]))
            else:
                lengths = run.lengths
                gaps = np.diff(run.offsets)
                if (
                    np.all(lengths == lengths[0])
                    and np.all(gaps == gaps[0])
                    and abs(int(gaps[0])) >= int(lengths[0])
                ):
                    run = demote_strided(
                        StridedRuns(
                            int(run.offsets[0]), run.nblocks, int(lengths[0]), int(gaps[0])
                        )
                    )
        out.append(run)
    return program.replace(out)


def rows_to_vector(program: Program) -> Program:
    """Fuse a train of ≥2 equal-length ``ContigRun`` rows at one
    uniform, non-overlapping spacing into a single ``StridedRuns`` (the
    subarray→vector rewrite), then merge consecutive ``StridedRuns``
    that continue the same arithmetic progression.

    Invariant: normalized segments unchanged (the fused train yields
    the identical segment sequence; merging preserves it likewise)."""
    # Stage 1: greedy maximal ContigRun trains → StridedRuns.
    fused: list[Run] = []
    i = 0
    runs = program.ops
    while i < len(runs):
        run = runs[i]
        if isinstance(run, ContigRun):
            j = i + 1
            stride = None
            while j < len(runs):
                nxt = runs[j]
                if not (isinstance(nxt, ContigRun) and nxt.length == run.length):
                    break
                gap = nxt.offset - runs[j - 1].offset
                if abs(gap) < run.length:
                    break  # overlapping or zero gap: not a legal train
                if stride is None:
                    stride = gap
                elif gap != stride:
                    break
                j += 1
            if j - i >= 2 and stride is not None and stride != run.length:
                fused.append(StridedRuns(run.offset, j - i, run.length, stride))
                i = j
                continue
        fused.append(run)
        i += 1
    # Stage 2: merge StridedRuns continuing one progression (greedy
    # left fold, so whole chains merge in a single application).
    out: list[Run] = []
    for run in fused:
        prev = out[-1] if out else None
        if (
            isinstance(run, StridedRuns)
            and isinstance(prev, StridedRuns)
            and prev.blocklen == run.blocklen
            and prev.stride == run.stride
            and run.offset == prev.offset + prev.count * prev.stride
        ):
            out[-1] = StridedRuns(prev.offset, prev.count + run.count, prev.blocklen, prev.stride)
        else:
            out.append(run)
    return program.replace(out)


def fold_contiguous(program: Program) -> Program:
    """Merge blocks inside each ``IrregularRuns`` that are byte-adjacent
    in pack order; re-represent the result in the most compact kind (a
    fully dense block list becomes one ``ContigRun``).

    Invariant: normalized segments unchanged (in-order adjacency
    merging is the normalization rule itself)."""
    out: list[Run] = []
    for run in program.ops:
        if isinstance(run, IrregularRuns):
            out.extend(runs_from_blocks(run.offsets, run.lengths))
        else:
            out.append(run)
    return program.replace(out)


#: The full pipeline, in application order.
PASSES: tuple[Callable[[Program], Program], ...] = (
    coalesce_copies,
    collapse_strides,
    rows_to_vector,
    fold_contiguous,
)

#: Safety bound on pipeline rounds; the measure argument above makes
#: real programs converge in a handful.
MAX_ROUNDS = 64


def program_cost(program: Program, platform: Platform) -> float:
    """The modeled cold-gather cost of the program's footprint — the
    quantity the cost guard keeps monotone."""
    return platform.memory.gather_cost(program.pattern(), warm=False).total


@dataclass(frozen=True)
class PipelineResult:
    """A canonicalized program plus how it got there."""

    program: Program
    trail: tuple[str, ...]
    rounds: int


def run_pipeline(program: Program, *, platform: Platform | None = None,
                 max_rounds: int = MAX_ROUNDS) -> PipelineResult:
    """Iterate all passes to a fixed point.

    With a ``platform``, every pass result is cost-guarded: it is
    accepted only if :func:`program_cost` does not increase, so the
    canonical program is never priced worse than the naive one."""
    trail: list[str] = []
    current = program
    cost = program_cost(current, platform) if platform is not None else None
    for round_no in range(1, max_rounds + 1):
        before = current
        for pass_fn in PASSES:
            candidate = pass_fn(current)
            if candidate.ops == current.ops:
                continue
            if platform is not None:
                candidate_cost = program_cost(candidate, platform)
                if candidate_cost > cost:
                    continue
                cost = candidate_cost
            trail.append(pass_fn.__name__)
            current = candidate
        if current.ops == before.ops:
            return PipelineResult(current, tuple(trail), round_no)
    raise ConvergenceError(
        f"pipeline did not reach a fixed point within {max_rounds} rounds "
        f"for {program.source!r}"
    )
