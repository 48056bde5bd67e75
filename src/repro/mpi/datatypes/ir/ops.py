"""The transfer IR: a program is an ordered run list.

A :class:`Program` is a flat, ordered tuple of the three run classes of
:mod:`repro.mpi.datatypes.runs` — :class:`~..runs.ContigRun` (one dense
block), :class:`~..runs.StridedRuns` (a regular block train),
:class:`~..runs.IrregularRuns` (an irregular block list) — whose
concatenated segments define the exact byte stream a send of a derived
datatype packs, in pack order.  Lowering produces a *naive* run list,
rewrite passes canonicalize it, and the program moves and prices its
bytes through the run layer's own movers and pattern summaries.

The semantic identity of a program is :func:`normalized_segments` — the
segment list with in-order byte adjacency merged.  Two programs with
equal normalized segments gather and scatter identical bytes; every
rewrite pass must preserve it (that is the equivalence invariant the
property tests enforce).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ....machine.access import AccessPattern
from ..runs import (
    Run,
    combine_patterns,
    gather_runs,
    scatter_runs,
    segments_of,
    total_bytes,
)

__all__ = ["Program", "normalized_segments"]


def normalized_segments(runs: Iterable[Run]) -> list[tuple[int, int]]:
    """The semantic identity of a run sequence: its (offset, length)
    segments in pack order, with in-order byte adjacency merged.

    Every rewrite pass must leave this list unchanged — that is the
    equivalence invariant.  Testing/debug only: materializes the full
    block list."""
    out: list[list[int]] = []
    for run in runs:
        for off, length in run.segments():
            if out and out[-1][0] + out[-1][1] == off:
                out[-1][1] += length
            else:
                out.append([off, length])
    return [(off, length) for off, length in out]


@dataclass(frozen=True)
class Program:
    """An ordered run sequence plus provenance.

    ``source`` names the datatype the program was lowered from and
    ``count`` the element count; neither affects semantics — the runs
    are already the fully replicated transfer.
    """

    ops: tuple[Run, ...]
    source: str = "?"
    count: int = 1

    @property
    def nops(self) -> int:
        return len(self.ops)

    @property
    def nbytes(self) -> int:
        return total_bytes(self.ops)

    @property
    def nblocks(self) -> int:
        return sum(run.nblocks for run in self.ops)

    @property
    def min_offset(self) -> int:
        return min((run.min_offset for run in self.ops), default=0)

    @property
    def max_end(self) -> int:
        return max((run.max_end for run in self.ops), default=0)

    def replace(self, ops: Iterable[Run]) -> "Program":
        return Program(tuple(ops), source=self.source, count=self.count)

    def segments(self) -> list[tuple[int, int]]:
        """Every (offset, length) block in pack order (unmerged)."""
        return segments_of(self.ops)

    def normalized_segments(self) -> list[tuple[int, int]]:
        return normalized_segments(self.ops)

    def pattern(self) -> AccessPattern:
        """Cost-model summary of the program's memory footprint."""
        return combine_patterns(self.ops)

    def gather(self, src: np.ndarray, dst: np.ndarray, dst_offset: int = 0) -> int:
        """Pack the program's bytes from ``src`` into ``dst``."""
        return gather_runs(self.ops, src, dst, dst_offset)

    def scatter(self, src: np.ndarray, src_offset: int, dst: np.ndarray) -> int:
        """Unpack a packed buffer back into the program's layout."""
        return scatter_runs(self.ops, src, src_offset, dst)
