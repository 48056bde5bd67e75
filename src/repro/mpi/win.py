"""One-sided communication: windows, Put/Get/Accumulate, fences.

Active-target synchronization with ``Win_fence`` only — the mode the
paper benchmarks (section 2.5).  Transfers issued inside an epoch are
queued at the origin and drained at the closing fence; the fence's
synchronization overhead (``fence_base`` + per-rank term) is what makes
one-sided transfers slow for small messages (section 4.4), and the
platform's one-sided bandwidth factor is what separates the
installations at larger sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..sim.sync import SimBarrier
from .buffers import SimBuffer, as_simbuffer
from .datatypes import BYTE, Datatype
from .datatypes.plan import TransferPlan, plan_for
from .errors import WindowError

if TYPE_CHECKING:  # pragma: no cover
    from .comm import Comm

__all__ = ["Win"]


@dataclass
class _QueuedOp:
    """One origin-side RMA operation awaiting the closing fence."""

    kind: str  # "put" | "get" | "accumulate"
    nbytes: int
    wire_time: float
    apply: Callable[[], None]  # functional data movement
    #: Which fabric priced ``wire_time`` (``"network"`` / ``"shm"``).
    transport_kind: str = "network"
    #: The pair's one-way control latency (the landing hop at the fence).
    land_latency: float = 0.0


class _WinState:
    """State shared by all ranks' handles of one window."""

    def __init__(self, size: int, barrier: SimBarrier):
        self.buffers: list[SimBuffer | None] = [None] * size
        self.barrier = barrier
        self.registered = 0
        self.freed = False


class Win:
    """One rank's handle on a shared RMA window."""

    def __init__(self, comm: "Comm", state: _WinState):
        self.comm = comm
        self._state = state
        self._pending: list[_QueuedOp] = []
        self._fence_count = 0

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, comm: "Comm", buffer: SimBuffer | np.ndarray | None) -> "Win":
        """Collective window creation (``MPI_Win_create``).

        Every rank calls this in the same order; ranks exposing no
        memory pass ``None``.
        """
        world = comm.world
        proc = comm.process
        index = proc.next_win_index(comm.context_id)
        key = (comm.context_id, index)
        if key not in world.win_registry:
            world.win_registry[key] = _WinState(
                comm.size, SimBarrier(world.kernel, comm.size, f"win{key}")
            )
        state = world.win_registry[key]
        state.buffers[comm.rank] = as_simbuffer(buffer) if buffer is not None else None
        state.registered += 1
        comm.process.task.sleep(world.cost.call())
        win = cls(comm, state)
        # Creation is collective: synchronize so every rank's memory is
        # registered before any epoch can open.
        comm.Barrier()
        return win

    # ------------------------------------------------------------------
    @property
    def in_epoch(self) -> bool:
        return self._fence_count >= 1 and not self._state.freed

    def _require_epoch(self, what: str) -> None:
        if self._state.freed:
            raise WindowError(f"{what} on a freed window")
        if not self.in_epoch:
            raise WindowError(f"{what} outside an access epoch (call Fence first)")

    def _target_buffer(self, target_rank: int, what: str) -> SimBuffer:
        if not 0 <= target_rank < self.comm.size:
            raise WindowError(f"{what}: target rank {target_rank} out of range")
        buf = self._state.buffers[target_rank]
        if buf is None:
            raise WindowError(f"{what}: rank {target_rank} exposed no window memory")
        return buf

    @staticmethod
    def _check_target_region(buf: SimBuffer, disp: int, plan: TransferPlan,
                             what: str) -> None:
        """Validate the target region at *call* time.

        Python slicing made a negative displacement silently wrap to the
        end of the window, and out-of-range regions only surfaced at the
        closing fence (and only for materialized windows); bounds are
        known from the window size and the plan's precomputed footprint
        alone, so check eagerly — O(1), no flattening.
        """
        if disp < 0:
            raise WindowError(f"{what}: negative target displacement {disp}")
        if disp > buf.nbytes:
            raise WindowError(
                f"{what}: target displacement {disp} beyond {buf.nbytes}-byte window"
            )
        plan.check_fits(buf.nbytes - disp, f"{what} target")

    # ------------------------------------------------------------------
    def Put(
        self,
        origin,
        target_rank: int,
        *,
        origin_count: int | None = None,
        origin_datatype: Datatype | None = None,
        target_disp: int = 0,
        target_count: int | None = None,
        target_datatype: Datatype | None = None,
    ) -> None:
        """``MPI_Put``: transfer local data into the target window.

        Completes at the closing fence.  Derived origin datatypes are
        staged exactly like a derived-type send (the paper puts a single
        derived type, section 2.5).
        """
        self._require_epoch("Put")
        comm = self.comm
        cost = comm.world.cost
        task = comm.process.task
        origin_buf, origin_count, origin_datatype, origin_plan = comm._resolve(
            origin, origin_count, origin_datatype
        )
        nbytes = origin_plan.nbytes
        if target_datatype is None:
            target_datatype = BYTE
            target_count = nbytes
        elif target_count is None:
            if target_datatype.size == 0:
                target_count = 0
            else:
                target_count = nbytes // target_datatype.size
        target_datatype.require_committed()
        target_plan = plan_for(target_datatype, target_count, comm.world.metrics)
        if target_plan.nbytes != nbytes:
            raise WindowError(
                f"Put: origin carries {nbytes} bytes but target spec holds "
                f"{target_plan.nbytes}"
            )
        target_buf = self._target_buffer(target_rank, "Put")
        self._check_target_region(target_buf, target_disp, target_plan, "Put")
        task.sleep(cost.call())
        origin_pattern = origin_plan.pattern
        if not origin_pattern.is_contiguous:
            t0 = task.now
            staging_cost = cost.staging(origin_pattern, comm.process.cache_warm)
            task.sleep(staging_cost)
            comm.process.touch_caches()
            comm.world.metrics.counter("rma.bytes_staged").inc(nbytes)
            if comm.world.obs.enabled:
                comm.world.obs.complete(t0, t0 + staging_cost, "rma.staging",
                                        rank=comm.process.rank, category="staging",
                                        nbytes=nbytes,
                                        chunks=cost.staging_chunks(nbytes),
                                        plan_reuse=origin_plan.reuses)
        payload = comm._build_payload(origin_buf, origin_plan)
        transport = comm.world.transport_for(
            comm.process.rank, comm._world_rank(target_rank)
        )
        wire = (
            transport.transfer_time(
                nbytes,
                factor=cost.onesided_factor(nbytes),
                derived=not origin_pattern.is_contiguous,
            )
            if nbytes
            else 0.0
        )

        tplan, tcount, tdisp = target_plan, target_count, target_disp

        def apply() -> None:
            # The plan snapshot keeps the queued op valid even if the
            # target datatype is freed before the closing fence.
            if payload.data is None or not target_buf.materialized or tcount == 0:
                return
            window = target_buf.bytes[tdisp:]
            tplan.check_fits(window.size, "Put target")
            tplan.unpack_from(payload.data, 0, window)

        self._pending.append(
            _QueuedOp("put", nbytes, wire, apply,
                      transport_kind=transport.kind,
                      land_latency=transport.control_latency)
        )
        comm.world.metrics.counter("rma.ops").inc()
        comm.world.metrics.counter("rma.bytes").inc(nbytes)
        obs = comm.world.obs
        if obs.enabled:
            obs.record(comm.world.kernel.now, "rma.put", rank=comm.rank,
                       target=target_rank, nbytes=nbytes, transport=transport.kind)

    def Get(
        self,
        origin,
        target_rank: int,
        *,
        origin_count: int | None = None,
        origin_datatype: Datatype | None = None,
        target_disp: int = 0,
        target_count: int | None = None,
        target_datatype: Datatype | None = None,
    ) -> None:
        """``MPI_Get``: transfer target window data into a local buffer,
        completing at the closing fence."""
        self._require_epoch("Get")
        comm = self.comm
        cost = comm.world.cost
        task = comm.process.task
        origin_buf, origin_count, origin_datatype, origin_plan = comm._resolve(
            origin, origin_count, origin_datatype
        )
        nbytes = origin_plan.nbytes
        if target_datatype is None:
            target_datatype = BYTE
            target_count = nbytes
        elif target_count is None:
            target_count = nbytes // target_datatype.size if target_datatype.size else 0
        target_datatype.require_committed()
        target_plan = plan_for(target_datatype, target_count, comm.world.metrics)
        if target_plan.nbytes != nbytes:
            raise WindowError(
                f"Get: origin holds {nbytes} bytes but target spec carries "
                f"{target_plan.nbytes}"
            )
        target_buf = self._target_buffer(target_rank, "Get")
        self._check_target_region(target_buf, target_disp, target_plan, "Get")
        task.sleep(cost.call())
        transport = comm.world.transport_for(
            comm.process.rank, comm._world_rank(target_rank)
        )
        wire = (
            transport.transfer_time(nbytes, factor=cost.onesided_factor(nbytes))
            if nbytes
            else 0.0
        )
        origin_pattern = origin_plan.pattern
        scatter_cost = (
            0.0
            if origin_pattern.is_contiguous
            else cost.unstaging(origin_pattern, comm.process.cache_warm)
        )
        tplan, tcount, tdisp = target_plan, target_count, target_disp
        oplan = origin_plan

        def apply() -> None:
            if not target_buf.materialized or not origin_buf.materialized or tcount == 0:
                return
            window = target_buf.bytes[tdisp:]
            tplan.check_fits(window.size, "Get target")
            staged = np.empty(nbytes, dtype=np.uint8)
            tplan.pack_into(window, staged)
            oplan.unpack_from(staged, 0, origin_buf.bytes)

        self._pending.append(
            _QueuedOp("get", nbytes, wire + scatter_cost, apply,
                      transport_kind=transport.kind,
                      land_latency=transport.control_latency)
        )
        comm.world.metrics.counter("rma.ops").inc()
        comm.world.metrics.counter("rma.bytes").inc(nbytes)
        obs = comm.world.obs
        if obs.enabled:
            obs.record(comm.world.kernel.now, "rma.get", rank=comm.rank,
                       target=target_rank, nbytes=nbytes, transport=transport.kind)

    def Accumulate(
        self,
        origin: np.ndarray,
        target_rank: int,
        *,
        op: str = "sum",
        target_disp: int = 0,
    ) -> None:
        """``MPI_Accumulate`` with a numpy origin array; element type is
        discovered from the array, and ``target_disp`` is in bytes."""
        self._require_epoch("Accumulate")
        from .collectives import REDUCE_OPS

        if op not in REDUCE_OPS:
            raise WindowError(f"unknown accumulate op {op!r}")
        comm = self.comm
        cost = comm.world.cost
        task = comm.process.task
        if not isinstance(origin, np.ndarray):
            raise WindowError("Accumulate requires a numpy origin array")
        nbytes = origin.nbytes
        target_buf = self._target_buffer(target_rank, "Accumulate")
        if target_disp < 0 or target_disp + nbytes > target_buf.nbytes:
            raise WindowError(
                f"Accumulate: {nbytes} bytes at displacement {target_disp} outside "
                f"the {target_buf.nbytes}-byte window"
            )
        task.sleep(cost.call())
        transport = comm.world.transport_for(
            comm.process.rank, comm._world_rank(target_rank)
        )
        wire = (
            transport.transfer_time(nbytes, factor=cost.onesided_factor(nbytes))
            if nbytes
            else 0.0
        )
        snapshot = origin.copy()
        combine = REDUCE_OPS[op]

        def apply() -> None:
            if not target_buf.materialized or nbytes == 0:
                return
            region = target_buf.bytes[target_disp : target_disp + nbytes].view(snapshot.dtype)
            combine(region, snapshot.reshape(-1), out=region)

        self._pending.append(
            _QueuedOp("accumulate", nbytes, wire, apply,
                      transport_kind=transport.kind,
                      land_latency=transport.control_latency)
        )
        comm.world.metrics.counter("rma.ops").inc()
        comm.world.metrics.counter("rma.bytes").inc(nbytes)
        obs = comm.world.obs
        if obs.enabled:
            obs.record(comm.world.kernel.now, "rma.acc", rank=comm.rank,
                       target=target_rank, nbytes=nbytes, transport=transport.kind)

    # ------------------------------------------------------------------
    def Fence(self) -> None:
        """``MPI_Win_fence``: close the current epoch (draining this
        rank's queued transfers), synchronize all ranks, and open the
        next epoch."""
        if self._state.freed:
            raise WindowError("Fence on a freed window")
        comm = self.comm
        cost = comm.world.cost
        task = comm.process.task
        task.sleep(cost.call())
        obs = comm.world.obs
        if self._pending:
            # Drain: transfers serialize on the origin's injection port
            # (network) or its memory system (shm); the final payload
            # lands one control latency later.  Segments are grouped by
            # transport so the profiler blames each fabric separately —
            # with no shm ops both sums and every instant reduce to the
            # historical single-transport arithmetic bit for bit.
            net_ops = [op for op in self._pending if op.transport_kind == "network"]
            shm_ops = [op for op in self._pending if op.transport_kind == "shm"]
            total_net = sum(op.wire_time for op in net_ops)
            total_shm = sum(op.wire_time for op in shm_ops)
            total = total_net + total_shm
            land = max(op.land_latency for op in self._pending)
            t0 = task.now
            task.sleep(total + land)
            for op in self._pending:
                op.apply()
            comm.world.metrics.counter("rma.drains").inc()
            if obs.enabled:
                if net_ops:
                    obs.complete(t0, t0 + total_net, "rma.drain",
                                 rank=comm.process.rank, category="rma",
                                 nops=len(net_ops),
                                 nbytes=sum(op.nbytes for op in net_ops),
                                 transport="network")
                if shm_ops:
                    obs.complete(t0 + total_net, t0 + total, "rma.shm_drain",
                                 rank=comm.process.rank, category="rma",
                                 nops=len(shm_ops),
                                 nbytes=sum(op.nbytes for op in shm_ops),
                                 transport="shm")
                # The trailing latency of the drain sleep: the last
                # payload in flight to the target.  End at the clock,
                # not ``t0 + total + latency`` — the sleep advanced the
                # clock by ``total + latency`` in one addition, and the
                # differently-rounded sum can overshoot the enclosing
                # iteration span by one ulp.
                obs.complete(t0 + total, task.now, "rma.land",
                             rank=comm.process.rank, category="handshake",
                             nops=len(self._pending))
                obs.record(task.now, "rma.drain", rank=comm.rank,
                           nops=len(self._pending))
            self._pending.clear()
        t_sync = task.now
        self._state.barrier.arrive(task, release_cost=cost.fence(comm.size))
        if obs.enabled:
            obs.complete(t_sync, task.now, "rma.fence", rank=comm.process.rank,
                         category="sync", epoch=self._fence_count)
        self._fence_count += 1

    def free(self) -> None:
        """``MPI_Win_free`` (collective; any queued ops must be fenced)."""
        if self._pending:
            raise WindowError("Win_free with unfenced RMA operations pending")
        self.comm.Barrier()
        self._state.freed = True

    Free = free
