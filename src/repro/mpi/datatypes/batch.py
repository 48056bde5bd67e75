"""Multi-run gather/scatter: the per-run loop and the whole-plan table.

A :class:`~repro.mpi.datatypes.plan.TransferPlan` with several runs
moves its bytes one of two ways, chosen by run count alone
(:data:`~repro.mpi.datatypes.plan.BATCH_RUN_CUTOFF`):

* :func:`gather_runs` / :func:`scatter_runs` — a Python loop over the
  runs, each moving its blocks with its own vectorized numpy copy.
  Cheapest when there are few runs.
* :class:`BatchTable` — the *entire* run list collapsed once into flat
  offset/length/destination arrays, then moved with one fancy-indexing
  expression per distinct block length — the same per-length-class
  trick :class:`~repro.mpi.datatypes.runs.IrregularRuns` already plays,
  lifted from one run to the whole plan.  Wins once the per-run loop's
  interpreter overhead dominates (many small runs: struct types,
  replicated mixed-length blocks).

Byte-identity between the two is structural: both write each
destination byte exactly once from the same source byte (runs are
non-overlapping), so write order cannot matter.  The differential suite
asserts it anyway, across every datatype constructor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .runs import ContigRun, Run, StridedRuns

__all__ = ["BatchTable", "gather_runs", "scatter_runs"]


def gather_runs(runs: Sequence[Run], src: np.ndarray, dst: np.ndarray,
                dst_offset: int) -> int:
    """Move every run out of ``src`` into contiguous ``dst`` at
    ``dst_offset``, one run at a time; returns bytes written."""
    written = dst_offset
    for run in runs:
        written += run.gather(src, dst, written)
    return written - dst_offset


def scatter_runs(runs: Sequence[Run], src: np.ndarray, src_offset: int,
                 dst: np.ndarray) -> int:
    """Inverse of :func:`gather_runs`; returns bytes consumed."""
    consumed = src_offset
    for run in runs:
        consumed += run.scatter(src, consumed, dst)
    return consumed - src_offset


def _expand(runs: Sequence[Run]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a run list to (offsets, lengths) int64 arrays in pack
    order — the same expansion :func:`~repro.mpi.datatypes.runs.replicate`
    uses for its vectorized fold."""
    offsets_parts: list[np.ndarray] = []
    lengths_parts: list[np.ndarray] = []
    for run in runs:
        if isinstance(run, ContigRun):
            offsets_parts.append(np.asarray([run.offset], dtype=np.int64))
            lengths_parts.append(np.asarray([run.length], dtype=np.int64))
        elif isinstance(run, StridedRuns):
            offsets_parts.append(
                run.offset + run.stride * np.arange(run.count, dtype=np.int64)
            )
            lengths_parts.append(np.full(run.count, run.blocklen, dtype=np.int64))
        else:
            offsets_parts.append(run.offsets)
            lengths_parts.append(run.lengths)
    if not offsets_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(offsets_parts), np.concatenate(lengths_parts)


class BatchTable:
    """The whole-plan block table: every (src offset, length, pack
    offset) triple of a run list, grouped by distinct block length.

    Built once per plan (lazily, on the first large-plan transfer) and
    reused for every subsequent gather/scatter of that plan — the
    compile-once discipline of the plan cache, extended to the index
    arrays.
    """

    __slots__ = ("nblocks", "total_bytes", "_classes")

    def __init__(self, runs: Sequence[Run]):
        offsets, lengths = _expand(runs)
        self.nblocks = int(offsets.size)
        self.total_bytes = int(lengths.sum()) if lengths.size else 0
        # Pack-buffer offset of each block: exclusive prefix sum over
        # the pack order (identical to the per-run loop's running total).
        dst = np.concatenate(([0], np.cumsum(lengths[:-1]))) if lengths.size else lengths
        classes: list[tuple[int, np.ndarray, np.ndarray]] = []
        for length in np.unique(lengths):
            mask = lengths == length
            classes.append((int(length), offsets[mask], dst[mask]))
        self._classes = classes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BatchTable(blocks={self.nblocks}, bytes={self.total_bytes}, "
            f"classes={len(self._classes)})"
        )

    def gather(self, src: np.ndarray, dst: np.ndarray, dst_offset: int) -> int:
        """Move every block out of ``src`` into contiguous ``dst`` at
        ``dst_offset``; returns bytes written."""
        for length, offs, dsts in self._classes:
            if length == 1:
                dst[dsts + dst_offset] = src[offs]
            else:
                span = np.arange(length, dtype=np.int64)
                dst[(dsts + dst_offset)[:, None] + span] = src[offs[:, None] + span]
        return self.total_bytes

    def scatter(self, src: np.ndarray, src_offset: int, dst: np.ndarray) -> int:
        """Inverse of :meth:`gather`; returns bytes consumed."""
        for length, offs, dsts in self._classes:
            if length == 1:
                dst[offs] = src[dsts + src_offset]
            else:
                span = np.arange(length, dtype=np.int64)
                dst[offs[:, None] + span] = src[(dsts + src_offset)[:, None] + span]
        return self.total_bytes
