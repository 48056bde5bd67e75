"""Job runtime: processes, the world, and the ``run_mpi`` entry point.

A *world* is one simulated MPI job: N rank processes over one platform,
scheduled by one deterministic kernel.  ``run_mpi(main, nranks=2, ...)``
is the public way to execute an MPI program — ``main(comm)`` runs once
per rank, exactly like an ``mpiexec``-launched script::

    def main(comm):
        if comm.rank == 0:
            comm.Send(data, dest=1)
        else:
            comm.Recv(data, source=0)
        return comm.Wtime()

    result = run_mpi(main, nranks=2, platform="skx-impi")
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from ..machine.platform import Platform
from ..machine.registry import get_platform
from ..net.flows import FlowEngine
from ..net.transport import NetworkTransport, ShmTransport, Transport, transport_for_pair
from ..obs import MetricsRegistry, NullRecorder, SpanRecorder
from ..sim.kernel import Kernel
from ..sim.sync import SimCondition
from .buffers import AttachedBuffer
from .comm import Comm
from .costs import CostModel
from .errors import BufferError_
from .matching import Inbox

__all__ = ["Process", "World", "JobResult", "run_mpi"]


class Process:
    """Per-rank library state (the simulated MPI process)."""

    def __init__(self, world: "World", rank: int):
        self.world = world
        self.rank = rank
        self.inbox = Inbox(
            on_match=self._on_match,
            on_depth=self._record_queue_depth if world.obs.enabled else None,
        )
        self.arrival_cond = SimCondition(world.kernel, f"arrivals@{rank}")
        self.attached: AttachedBuffer | None = None
        #: Whether this rank's recently used buffers may still be cached.
        #: The benchmark flusher clears it; data-touching operations set it.
        self.cache_warm = False
        self._win_counters: dict[int, int] = {}
        #: Lazily bound match instruments (see ``_on_match``).
        self._match_counter = None
        self._match_hist = None
        self.task = None  # bound by run_mpi after spawn

    # ------------------------------------------------------------------
    def deliver(self, message) -> None:
        """Kernel context: a message/RTS reaches this process."""
        self.inbox.on_message(message)
        self.arrival_cond.notify_all(cause=message.operation.delivery_cause)

    def _record_queue_depth(self, unexpected: int, posted: int) -> None:
        """Traced runs only: instant markers behind the Chrome counter lane."""
        world = self.world
        world.obs.record(world.kernel.now, "queue.depth", rank=self.rank,
                         unexpected=unexpected, posted=posted)

    def _on_match(self, message) -> None:
        """Matching-engine callback: one envelope found its receive.

        Hot path (fires per delivered message): the instruments are
        bound once on first use, not looked up per call.
        """
        counter = self._match_counter
        if counter is None:
            metrics = self.world.metrics
            counter = self._match_counter = metrics.counter("match.envelopes")
            self._match_hist = metrics.histogram("match.message_bytes")
        counter.inc()
        self._match_hist.observe(message.nbytes)

    def touch_caches(self) -> None:
        self.cache_warm = True

    # ------------------------------------------------------------------
    def attach_buffer(self, nbytes: int) -> None:
        if self.attached is not None:
            raise BufferError_("a buffer is already attached (detach it first)")
        self.attached = AttachedBuffer(nbytes)

    def require_attached_buffer(self) -> AttachedBuffer:
        if self.attached is None:
            raise BufferError_("Bsend requires a prior Buffer_attach")
        return self.attached

    def detach_buffer(self) -> int:
        if self.attached is None:
            raise BufferError_("no buffer attached")
        self.attached.detach_check()
        capacity = self.attached.capacity
        self.attached = None
        return capacity

    def next_win_index(self, context_id: int) -> int:
        """Per-communicator window creation counter: collective creation
        order identifies the shared window state."""
        index = self._win_counters.get(context_id, 0)
        self._win_counters[context_id] = index + 1
        return index


class World:
    """Shared state of one simulated job."""

    def __init__(self, kernel: Kernel, platform: Platform, *, concurrent_streams: int = 1):
        self.kernel = kernel
        self.platform = platform
        self.cost = CostModel(platform, concurrent_streams)
        #: Always-on instrument registry (counters/gauges/histograms).
        self.metrics = MetricsRegistry()
        # Hot-path counters, bound once: the send/receive/match paths
        # fire per message, so they must not pay a registry lookup each.
        m = self.metrics
        self.c_eager_sends = m.counter("p2p.eager_sends")
        self.c_rendezvous_sends = m.counter("p2p.rendezvous_sends")
        self.c_rendezvous_roundtrips = m.counter("p2p.rendezvous_roundtrips")
        self.c_bytes_on_wire = m.counter("p2p.bytes_on_wire")
        self.c_recv_completions = m.counter("p2p.recv_completions")
        self.c_bytes_received = m.counter("p2p.bytes_received")
        self.c_staged_sends = m.counter("p2p.staged_sends")
        self.c_bytes_staged = m.counter("p2p.bytes_staged")
        self.c_staging_chunks = m.counter("p2p.staging_chunks")
        self.c_shm_sends = m.counter("p2p.shm_sends")
        self.c_shm_bytes = m.counter("p2p.shm_bytes")
        #: The flight recorder (the kernel's): a ``SpanRecorder`` when
        #: traced, else the shared ``NULL_RECORDER``.  Instrumentation
        #: sites guard on ``obs.enabled`` so the untraced path stays free.
        self.obs = kernel.tracer
        #: Link-contention engine — built only for a non-flat topology.
        #: ``None`` means the closed-form single-wire pricing (today's
        #: model, bit-identical to every pre-fabric simulation).
        topology = platform.topology
        if topology is not None and not topology.is_flat:
            self.fabric: FlowEngine | None = FlowEngine(
                kernel,
                topology,
                platform.network,
                concurrent_streams=concurrent_streams,
                metrics=self.metrics,
            )
        else:
            self.fabric = None
        self.topology = topology
        #: Per-pair transport selection.  The network transport is the
        #: universal fallback (pure delegation to the cost model, hence
        #: bit-identical to the pre-transport closed form); the shm
        #: transport exists only when the platform attaches a model
        #: *and* the topology can co-locate ranks.
        self.net_transport = NetworkTransport(self.cost)
        if platform.shm_reachable:
            self.shm_transport: ShmTransport | None = ShmTransport(
                platform.shm, platform.memory
            )
        else:
            self.shm_transport = None
        self.processes: list[Process] = []
        #: RMA window states, keyed by (context id, per-context index).
        self.win_registry: dict[tuple[int, int], Any] = {}
        #: Split bookkeeping, keyed by (parent context id, derive seq).
        self.split_registry: dict[tuple[int, int], dict[int, tuple[int | None, int]]] = {}
        self._context_table: dict[Any, int] = {}
        self._next_context = 1  # context 0 is COMM_WORLD

    def transport_for(self, src: int, dst: int) -> Transport:
        """The fabric carrying bytes from world rank ``src`` to ``dst``:
        shared memory when both are co-located and an shm model is
        reachable, the network otherwise."""
        return transport_for_pair(
            self.net_transport, self.shm_transport, self.topology, src, dst
        )

    def context_for(self, key: Any) -> int:
        """Deterministic context-id allocation: every rank deriving the
        same communicator presents the same key and receives the same
        fresh id."""
        if key not in self._context_table:
            self._context_table[key] = self._next_context
            self._next_context += 1
        return self._context_table[key]

    @contextmanager
    def span(self, name: str, *, rank: int | None = None, category: str = "",
             **attrs: Any):
        """A scoped span over the enclosed block of task execution.

        Only call when ``world.obs.enabled`` — the scoped span becomes
        the auto-parent for everything the rank records inside it.
        """
        obs = self.obs
        span = obs.begin(self.kernel.now, name, rank=rank, category=category, **attrs)
        obs.push(rank, span)
        try:
            yield span
        finally:
            obs.pop(rank, span)
            obs.end(span, self.kernel.now)


@dataclass
class JobResult:
    """Outcome of one simulated MPI job."""

    #: ``main``'s return value per rank.
    results: list[Any]
    #: Virtual time at which each rank returned from ``main``.
    finish_times: list[float]
    #: Virtual time when the whole job drained.
    virtual_time: float
    #: Kernel events processed (a determinism/performance fingerprint).
    events: int
    #: Times the kernel's baton moved to a different thread (a host
    #: cost, not part of any digest or stored record).
    thread_switches: int
    #: The recorder: a ``SpanRecorder`` if tracing was enabled, else
    #: the shared ``NULL_RECORDER``.
    tracer: SpanRecorder | NullRecorder
    #: The job's metrics registry (always populated).
    metrics: MetricsRegistry | None = None

    @property
    def elapsed(self) -> float:
        """Longest rank finish time."""
        return max(self.finish_times) if self.finish_times else 0.0


def run_mpi(
    main: Callable[[Comm], Any],
    nranks: int = 2,
    platform: Platform | str = "skx-impi",
    *,
    concurrent_streams: int = 1,
    trace: bool = False,
    max_events: int | None = None,
) -> JobResult:
    """Run ``main(comm)`` on ``nranks`` simulated ranks.

    Parameters
    ----------
    main:
        The rank program.  Its return value is collected per rank.
    platform:
        A registry name or a :class:`Platform` instance.
    concurrent_streams:
        Communicating pairs sharing each node's injection bandwidth
        (the section 4.7 all-cores scenario).
    trace:
        Record spans, instant markers and the wait-for graph into a
        fresh :class:`SpanRecorder` (``result.tracer``).
    max_events:
        Safety bound on kernel events (tests).
    """
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    if isinstance(platform, str):
        platform = get_platform(platform)
    if platform.topology is not None and not platform.topology.is_flat:
        if nranks > platform.topology.max_ranks:
            raise ValueError(
                f"{nranks} rank(s) do not fit on the selected topology "
                f"({platform.topology.describe()})"
            )
    kernel = Kernel(tracer=SpanRecorder() if trace else None)
    world = World(kernel, platform, concurrent_streams=concurrent_streams)
    finish_times: list[float] = [0.0] * nranks
    results: list[Any] = [None] * nranks

    def make_rank_main(rank: int, comm: Comm) -> Callable[[], Any]:
        def rank_main() -> Any:
            obs = world.obs
            root = None
            if obs.enabled:
                root = obs.begin(kernel.now, "rank.main", rank=rank,
                                 category="task", parent=None)
                obs.push(rank, root)
            try:
                out = main(comm)
            finally:
                if root is not None:
                    obs.pop(rank, root)
                    obs.end(root, kernel.now)
            results[rank] = out
            finish_times[rank] = comm.process.task.now
            return out

        return rank_main

    for rank in range(nranks):
        proc = Process(world, rank)
        world.processes.append(proc)
    for rank in range(nranks):
        proc = world.processes[rank]
        comm = Comm(world, proc)
        proc.task = kernel.spawn(make_rank_main(rank, comm), name=f"rank{rank}")
    kernel.run(max_events=max_events)
    return JobResult(
        results=results,
        finish_times=finish_times,
        virtual_time=kernel.now,
        events=kernel.events_processed,
        thread_switches=kernel.thread_switches,
        tracer=kernel.tracer,
        metrics=world.metrics,
    )
