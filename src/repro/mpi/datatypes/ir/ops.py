"""The transfer IR: canonical ops describing a gather/scatter order.

A :class:`Program` is a flat, ordered sequence of three op kinds —
:class:`CopyOp` (one dense block), :class:`StridedOp` (a regular block
train), :class:`IndexedOp` (an irregular block list) — whose
concatenated segments define the exact byte stream a send of a derived
datatype packs, in pack order.  Ops are deliberately a mirror of the
run classes in :mod:`repro.mpi.datatypes.runs`: lowering produces a
*naive* op sequence, rewrite passes canonicalize it, and
:meth:`Program.to_runs` hands the result back to the existing
vectorized movement/pricing machinery.

The semantic identity of a program is :func:`normalized_segments` — the
segment list with in-order byte adjacency merged.  Two programs with
equal normalized segments gather and scatter identical bytes; every
rewrite pass must preserve it (that is the equivalence invariant the
property tests enforce).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ....machine.access import AccessPattern
from ..runs import (
    ContigRun,
    IrregularRuns,
    Run,
    StridedRuns,
    combine_patterns,
    gather_runs,
    scatter_runs,
)

__all__ = [
    "CopyOp",
    "StridedOp",
    "IndexedOp",
    "Op",
    "Program",
    "normalized_segments",
]


@dataclass(frozen=True)
class CopyOp:
    """One contiguous block of ``length`` bytes at ``offset``."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("CopyOp length must be positive")

    @property
    def nbytes(self) -> int:
        return self.length

    @property
    def nblocks(self) -> int:
        return 1

    @property
    def min_offset(self) -> int:
        return self.offset

    @property
    def max_end(self) -> int:
        return self.offset + self.length

    def shifted(self, delta: int) -> "CopyOp":
        return CopyOp(self.offset + delta, self.length)

    def segments(self) -> Iterator[tuple[int, int]]:
        yield (self.offset, self.length)

    def to_run(self) -> Run:
        return ContigRun(self.offset, self.length)


@dataclass(frozen=True)
class StridedOp:
    """``count`` blocks of ``blocklen`` bytes, ``stride`` bytes apart.

    Mirrors :class:`~repro.mpi.datatypes.runs.StridedRuns`: the stride
    may exceed, equal, or be negative relative to the block length, but
    blocks must not overlap.
    """

    offset: int
    count: int
    blocklen: int
    stride: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("StridedOp count must be positive")
        if self.blocklen <= 0:
            raise ValueError("StridedOp blocklen must be positive")
        if self.count > 1 and abs(self.stride) < self.blocklen:
            raise ValueError("stride smaller than block length: blocks overlap")

    @property
    def nbytes(self) -> int:
        return self.count * self.blocklen

    @property
    def nblocks(self) -> int:
        return self.count

    @property
    def min_offset(self) -> int:
        if self.stride >= 0:
            return self.offset
        return self.offset + (self.count - 1) * self.stride

    @property
    def max_end(self) -> int:
        if self.stride >= 0:
            return self.offset + (self.count - 1) * self.stride + self.blocklen
        return self.offset + self.blocklen

    def shifted(self, delta: int) -> "StridedOp":
        return StridedOp(self.offset + delta, self.count, self.blocklen, self.stride)

    def segments(self) -> Iterator[tuple[int, int]]:
        for i in range(self.count):
            yield (self.offset + i * self.stride, self.blocklen)

    def to_run(self) -> Run:
        return StridedRuns(self.offset, self.count, self.blocklen, self.stride)


class IndexedOp:
    """Arbitrary blocks given by numpy offset/length arrays, in pack
    order (non-overlapping, not necessarily sorted)."""

    __slots__ = ("offsets", "lengths")

    def __init__(self, offsets: Sequence[int] | np.ndarray,
                 lengths: Sequence[int] | np.ndarray):
        object.__setattr__(self, "offsets", np.ascontiguousarray(offsets, dtype=np.int64))
        object.__setattr__(self, "lengths", np.ascontiguousarray(lengths, dtype=np.int64))
        if self.offsets.ndim != 1 or self.offsets.shape != self.lengths.shape:
            raise ValueError("offsets and lengths must be equal-length 1-D arrays")
        if self.offsets.size == 0:
            raise ValueError("IndexedOp must contain at least one block")
        if np.any(self.lengths <= 0):
            raise ValueError("all block lengths must be positive")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IndexedOp is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IndexedOp)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.lengths, other.lengths)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IndexedOp(n={self.offsets.size}, bytes={self.nbytes})"

    @property
    def nbytes(self) -> int:
        return int(self.lengths.sum())

    @property
    def nblocks(self) -> int:
        return int(self.offsets.size)

    @property
    def min_offset(self) -> int:
        return int(self.offsets.min())

    @property
    def max_end(self) -> int:
        return int((self.offsets + self.lengths).max())

    def shifted(self, delta: int) -> "IndexedOp":
        return IndexedOp(self.offsets + delta, self.lengths)

    def segments(self) -> Iterator[tuple[int, int]]:
        for off, length in zip(self.offsets.tolist(), self.lengths.tolist()):
            yield (off, length)

    def to_run(self) -> Run:
        return IrregularRuns(self.offsets, self.lengths)


Op = CopyOp | StridedOp | IndexedOp


def normalized_segments(ops: Iterable[Op]) -> list[tuple[int, int]]:
    """The semantic identity of an op sequence: its (offset, length)
    segments in pack order, with in-order byte adjacency merged.

    Every rewrite pass must leave this list unchanged — that is the
    equivalence invariant.  Testing/debug only: materializes the full
    block list."""
    out: list[list[int]] = []
    for op in ops:
        for off, length in op.segments():
            if out and out[-1][0] + out[-1][1] == off:
                out[-1][1] += length
            else:
                out.append([off, length])
    return [(off, length) for off, length in out]


@dataclass(frozen=True)
class Program:
    """An ordered op sequence plus provenance.

    ``source`` names the datatype the program was lowered from and
    ``count`` the element count; neither affects semantics — the ops
    are already the fully replicated transfer.
    """

    ops: tuple[Op, ...]
    source: str = "?"
    count: int = 1

    @property
    def nops(self) -> int:
        return len(self.ops)

    @property
    def nbytes(self) -> int:
        return sum(op.nbytes for op in self.ops)

    @property
    def nblocks(self) -> int:
        return sum(op.nblocks for op in self.ops)

    @property
    def min_offset(self) -> int:
        return min((op.min_offset for op in self.ops), default=0)

    @property
    def max_end(self) -> int:
        return max((op.max_end for op in self.ops), default=0)

    def replace(self, ops: Iterable[Op]) -> "Program":
        return Program(tuple(ops), source=self.source, count=self.count)

    def segments(self) -> list[tuple[int, int]]:
        """Every (offset, length) block in pack order (unmerged)."""
        out: list[tuple[int, int]] = []
        for op in self.ops:
            out.extend(op.segments())
        return out

    def normalized_segments(self) -> list[tuple[int, int]]:
        return normalized_segments(self.ops)

    def to_runs(self) -> list[Run]:
        """Hand the program to the run layer for vectorized movement."""
        return [op.to_run() for op in self.ops]

    def pattern(self) -> AccessPattern:
        """Cost-model summary of the program's memory footprint."""
        return combine_patterns(self.to_runs())

    def gather(self, src: np.ndarray, dst: np.ndarray, dst_offset: int = 0) -> int:
        """Pack the program's bytes from ``src`` into ``dst``."""
        return gather_runs(self.to_runs(), src, dst, dst_offset)

    def scatter(self, src: np.ndarray, src_offset: int, dst: np.ndarray) -> int:
        """Unpack a packed buffer back into the program's layout."""
        return scatter_runs(self.to_runs(), src, src_offset, dst)
