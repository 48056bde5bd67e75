"""Compiled transfer plans: flatten once, move many.

A :class:`TransferPlan` is the canonical artifact of one
``(datatype, count)`` pair: the replicated run list, precomputed true
bounds (making fit checks O(1)), the :class:`AccessPattern` the cost
model prices, and the gather/scatter entry points that move real bytes.
Every byte-moving layer — ``engine.pack_bytes``, ``MPI_Pack``, p2p
sends/receives, one-sided Put/Get — obtains its plan from one shared
cache, so the cost model and the byte mover are guaranteed to price and
move the *same* runs, and the flattening work (``replicate`` +
``coalesce`` + pattern summarization) happens once per layout instead
of once per call.  This is the simulated analogue of a compiled
dataloop / canonical datatype representation (cf. TEMPI,
arXiv:2012.14363).

Lifecycle: plans are snapshots.  ``Datatype.Commit()`` populates the
cache for ``count=1``; ``Free()`` evicts every entry of that datatype,
but any transfer already holding a plan keeps working — the same
commit-snapshot semantics the datatypes themselves follow.  The cache
is a bounded LRU; hit/miss/eviction counts are mirrored into a world's
metrics registry (``plan.cache_hits`` / ``plan.cache_misses`` /
``plan.cache_evictions``) whenever the call site has one.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ...machine.access import AccessPattern, contiguous_pattern
from ...obs import host as _host
from ..errors import DatatypeError, PackError
from .batch import BatchTable, gather_runs, scatter_runs
from .runs import Run, combine_patterns

if TYPE_CHECKING:  # pragma: no cover
    from ...obs.metrics import MetricsRegistry
    from .datatype import Datatype

__all__ = [
    "TransferPlan",
    "PlanCache",
    "plan_for",
    "compile_plan",
    "invalidate_plans",
    "plan_cache_stats",
    "clear_plan_cache",
    "plan_cache_capacity",
    "DEFAULT_PLAN_CACHE_CAPACITY",
]

#: Multi-run plans with fewer runs than this use the per-run loop: the
#: batch table's fixed setup/indexing cost is amortized over runs, not
#: bytes, so at few runs the loop's handful of vectorized strided
#: copies wins (measured ~2.5x at 4 runs; crossover near 16; the table
#: is ~100x faster by 4096 runs).  Both paths are byte-identical, so the
#: cutoff affects wall-clock only.
BATCH_RUN_CUTOFF = 16

#: Default bound on cached plans across all datatypes.  Each entry is a
#: handful of small objects (runs are O(1) or shared numpy arrays), so
#: the bound exists to cap pathological workloads (a fresh count per
#: message), not memory in the common case.
DEFAULT_PLAN_CACHE_CAPACITY = 512


def _as_bytes(buf: np.ndarray, name: str) -> np.ndarray:
    """Reinterpret ``buf`` as a flat uint8 view (no copy)."""
    if not isinstance(buf, np.ndarray):
        raise TypeError(f"{name} must be a numpy array, got {type(buf).__name__}")
    if buf.dtype != np.uint8:
        if not buf.flags.c_contiguous:
            raise DatatypeError(f"{name} must be C-contiguous to be reinterpreted as bytes")
        buf = buf.view(np.uint8).reshape(-1)
    if buf.ndim != 1:
        # reshape(-1) on a non-contiguous array returns a *copy*: reads
        # would silently see stale data and writes would be lost.
        if not buf.flags.c_contiguous:
            raise DatatypeError(f"{name} must be C-contiguous to be flattened to bytes")
        buf = buf.reshape(-1)
    return buf


class TransferPlan:
    """The compiled form of ``count`` elements of one datatype.

    Immutable once built (``reuses`` is bookkeeping, not layout): holds
    everything a transfer needs without touching the datatype again, so
    a plan outlives ``Free()`` of its source type.
    """

    __slots__ = (
        "datatype_name",
        "count",
        "elem_size",
        "nbytes",
        "runs",
        "min_offset",
        "max_end",
        "pattern",
        "nblocks",
        "reuses",
        "_batch",
    )

    def __init__(self, datatype_name: str, count: int, elem_size: int,
                 runs: list[Run], pattern: AccessPattern):
        self.datatype_name = datatype_name
        self.count = count
        self.elem_size = elem_size
        self.nbytes = elem_size * count
        self.runs = runs
        self.min_offset = min((r.min_offset for r in runs), default=0)
        self.max_end = max((r.max_end for r in runs), default=0)
        self.pattern = pattern
        self.nblocks = pattern.nblocks
        #: Cache hits served by this plan (0 on a cold compile) — the
        #: span attribute that records plan reuse.
        self.reuses = 0
        #: Lazily compiled whole-plan block table (plans with at least
        #: ``BATCH_RUN_CUTOFF`` runs only).
        self._batch = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TransferPlan {self.datatype_name} x{self.count} "
            f"nbytes={self.nbytes} nblocks={self.nblocks} reuses={self.reuses}>"
        )

    @property
    def is_contiguous(self) -> bool:
        return self.pattern.is_contiguous

    def segments(self) -> Iterator[tuple[int, int]]:
        """Every (offset, length) block in pack order (debug/tests)."""
        for run in self.runs:
            yield from run.segments()

    # ------------------------------------------------------------------
    # O(1) bounds checking
    # ------------------------------------------------------------------
    def check_fits(self, buf_bytes: int, name: str) -> None:
        """Validate that this plan's footprint lies inside a buffer of
        ``buf_bytes`` bytes — precomputed bounds, no run traversal."""
        if not self.runs:
            return
        if self.min_offset < 0:
            raise DatatypeError(
                f"{name}: datatype {self.datatype_name!r} x{self.count} "
                f"reaches {-self.min_offset} bytes before buffer start"
            )
        if self.max_end > buf_bytes:
            raise DatatypeError(
                f"{name}: datatype {self.datatype_name!r} x{self.count} "
                f"reaches byte {self.max_end} but the buffer holds only {buf_bytes}"
            )

    # ------------------------------------------------------------------
    # Byte movement
    # ------------------------------------------------------------------
    def _batch_table(self) -> BatchTable:
        """The compiled whole-plan block table (built once, reused for
        every large-plan transfer of this plan)."""
        batch = self._batch
        if batch is None:
            batch = self._batch = BatchTable(self.runs)
        return batch

    def _path(self) -> str:
        """Which mover this plan's run count selects, counted per call
        under ``kernel.gather.*`` / ``kernel.scatter.*`` host metrics."""
        nruns = len(self.runs)
        if nruns == 1:
            return "single_run"
        return "batched" if nruns >= BATCH_RUN_CUTOFF else "scalar"

    def gather(self, src_b: np.ndarray, dst_b: np.ndarray, dst_offset: int = 0) -> int:
        """Move this layout out of ``src_b`` into contiguous ``dst_b``
        (both flat uint8); returns bytes written.

        Single-run plans (the common case after coalescing) go straight
        to the run's own vectorized movement; plans with at least
        :data:`BATCH_RUN_CUTOFF` runs use the compiled
        :class:`~.batch.BatchTable`, and smaller ones the per-run loop.
        """
        path = self._path()
        if _host.active is not None:
            _host.active.metrics.counter(f"kernel.gather.{path}").inc()
        if path == "single_run":
            return self.runs[0].gather(src_b, dst_b, dst_offset)
        if path == "scalar":
            return gather_runs(self.runs, src_b, dst_b, dst_offset)
        return self._batch_table().gather(src_b, dst_b, dst_offset)

    def scatter(self, src_b: np.ndarray, src_offset: int, dst_b: np.ndarray) -> int:
        """Inverse of :meth:`gather`; returns bytes consumed."""
        path = self._path()
        if _host.active is not None:
            _host.active.metrics.counter(f"kernel.scatter.{path}").inc()
        if path == "single_run":
            return self.runs[0].scatter(src_b, src_offset, dst_b)
        if path == "scalar":
            return scatter_runs(self.runs, src_b, src_offset, dst_b)
        return self._batch_table().scatter(src_b, src_offset, dst_b)

    def pack_into(self, src: np.ndarray, dst: np.ndarray, dst_offset: int = 0) -> int:
        """Checked gather with engine semantics: validates the packed
        region and the source footprint, then moves the bytes."""
        src_b = _as_bytes(src, "src")
        dst_b = _as_bytes(dst, "dst")
        if dst_offset < 0 or dst_offset + self.nbytes > dst_b.size:
            raise PackError(
                f"pack of {self.nbytes} bytes at offset {dst_offset} overflows "
                f"{dst_b.size}-byte destination"
            )
        self.check_fits(src_b.size, "pack")
        return self.gather(src_b, dst_b, dst_offset)

    def unpack_from(self, src: np.ndarray, src_offset: int, dst: np.ndarray) -> int:
        """Checked scatter with engine semantics (mirror of
        :meth:`pack_into`)."""
        src_b = _as_bytes(src, "src")
        dst_b = _as_bytes(dst, "dst")
        if src_offset < 0 or src_offset + self.nbytes > src_b.size:
            raise PackError(
                f"unpack of {self.nbytes} bytes at offset {src_offset} overruns "
                f"{src_b.size}-byte source"
            )
        self.check_fits(dst_b.size, "unpack")
        return self.scatter(src_b, src_offset, dst_b)


def compile_plan(dtype: "Datatype", count: int) -> TransferPlan:
    """Compile ``count`` elements of ``dtype`` into a fresh plan
    (uncached; use :func:`plan_for` on communication paths).

    The pattern mirrors ``Datatype.access_pattern`` exactly — same
    branches, same arithmetic — so cold- and warm-cache runs price
    identically down to the bit.
    """
    size = dtype._size
    runs = dtype.flatten(count)  # validates count, honours commit snapshot
    if count == 0 or size == 0:
        pattern = contiguous_pattern(0)
    else:
        pattern = combine_patterns(runs)
    return TransferPlan(dtype.name, count, size, runs, pattern)


class PlanCache:
    """Bounded LRU of compiled plans, keyed by datatype *identity* and
    count.

    The datatype object itself is part of the key (identity hashing),
    so two structurally equal types cache independently — matching MPI,
    where commit/free lifecycle is per handle.  ``capacity <= 0``
    disables storage (every lookup compiles cold), which tests use to
    prove cache state never leaks into virtual time.
    """

    __slots__ = ("capacity", "_plans", "hits", "misses", "evictions", "invalidations")

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_CAPACITY):
        self.capacity = capacity
        self._plans: OrderedDict[tuple["Datatype", int], TransferPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, dtype: "Datatype", count: int,
            metrics: "MetricsRegistry | None" = None) -> TransferPlan:
        key = (dtype, count)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.hits += 1
            plan.reuses += 1
            if metrics is not None:
                metrics.counter("plan.cache_hits").inc()
            return plan
        plan = compile_plan(dtype, count)
        self.misses += 1
        if metrics is not None:
            metrics.counter("plan.cache_misses").inc()
        if self.capacity > 0:
            self._plans[key] = plan
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
                if metrics is not None:
                    metrics.counter("plan.cache_evictions").inc()
        return plan

    def invalidate(self, dtype: "Datatype") -> int:
        """Drop every plan of ``dtype`` (``Free()`` semantics); plans
        already handed out keep working.  Returns entries removed."""
        stale = [key for key in self._plans if key[0] is dtype]
        for key in stale:
            del self._plans[key]
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._plans.clear()

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._plans),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


#: The process-wide cache every communication layer shares.
_CACHE = PlanCache()


def plan_for(dtype: "Datatype", count: int,
             metrics: "MetricsRegistry | None" = None) -> TransferPlan:
    """The (cached) plan of ``count`` elements of ``dtype``.

    Basic named types bypass the cache entirely: their plan is one
    contiguous run, cheaper to rebuild than to look up, and caching
    them would churn the LRU with one entry per message size.
    """
    if dtype._plan_uncached:
        return compile_plan(dtype, count)
    return _CACHE.get(dtype, count, metrics)


def invalidate_plans(dtype: "Datatype") -> int:
    """Evict every cached plan of ``dtype`` (called by ``Free()``).
    Plans already held by in-flight transfers keep working."""
    return _CACHE.invalidate(dtype)


def plan_cache_stats() -> dict[str, int]:
    """Process-wide cache counters (tools and tests)."""
    return _CACHE.stats()


def clear_plan_cache() -> None:
    _CACHE.clear()


@contextmanager
def plan_cache_capacity(capacity: int):
    """Temporarily override the shared cache's bound (tests: LRU
    eviction with a small bound, cold-compile runs with ``0``)."""
    saved = _CACHE.capacity
    _CACHE.capacity = capacity
    if capacity > 0:
        while len(_CACHE._plans) > capacity:
            _CACHE._plans.popitem(last=False)
            _CACHE.evictions += 1
    else:
        _CACHE.clear()
    try:
        yield _CACHE
    finally:
        _CACHE.capacity = saved
