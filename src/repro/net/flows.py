"""Flow-based link contention: max-min fair bandwidth sharing.

The flow engine prices what the closed-form ``wire_time`` cannot:
*concurrent* transfers traversing *shared* links.  Each in-flight
payload is a **flow** — a byte count draining along a static route at a
rate set by max-min fair sharing of every link it crosses.  Whenever a
flow starts or finishes, the engine re-solves all rates and reschedules
the next completion, so virtual time stays exact (each flow's finish
instant is computed, not sampled) and fully deterministic (the solver
iterates links and flows in fixed order; the kernel orders events by
``(time, sequence)``).

Max-min fairness is computed by progressive filling: all unfrozen flow
rates rise together until a link saturates (its flows freeze at their
fair share) or a flow reaches its demand cap (it freezes there); repeat
until every flow is frozen.  The demand cap encodes the flow's NIC
stream bandwidth times any protocol derating (buffered sends,
one-sided emulation), so an uncontended flow drains in exactly the
closed-form wire time of the flat model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..obs import host as _host
from .routing import Router
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.network import NetworkModel
    from ..obs.metrics import MetricsRegistry
    from ..sim.kernel import Kernel

__all__ = ["Flow", "FlowEngine", "max_min_rates", "LINK_UTIL_EVENT"]

#: Instant-marker category carrying per-link utilization samples (exported
#: as Chrome counter tracks, like matching-queue depths).
LINK_UTIL_EVENT = "link.util"

#: A flow whose residual drops below this many bytes at a completion
#: event is finished.  Far above float round-off at simulation scales
#: (~1e-7 B for GB/s rates over microseconds), far below one real byte.
_EPS_BYTES = 1e-3

#: Relative tolerance for "link saturated" / "flow at cap" during the
#: progressive fill.
_EPS_REL = 1e-12


def max_min_rates(
    routes: Sequence[tuple[int, ...]],
    demands: Sequence[float],
    capacities: Sequence[float],
) -> list[float]:
    """Max-min fair rates for ``routes[i]`` flows with ``demands[i]``
    rate caps over links of the given ``capacities``.

    Pure and deterministic: iteration order is positional, ties freeze
    together.  Every returned rate is positive (demands and capacities
    must be), no link's total exceeds its capacity (up to float
    round-off), and each flow is either at its demand cap or crosses at
    least one saturated link — the max-min bottleneck condition.
    """
    n = len(routes)
    if len(demands) != n:
        raise ValueError("routes and demands must align")
    for d in demands:
        if d <= 0:
            raise ValueError("flow demand caps must be positive")
    for c in capacities:
        if c <= 0:
            raise ValueError("link capacities must be positive")
    rates = [0.0] * n
    headroom = list(capacities)
    active = list(range(n))
    while active:
        counts: dict[int, int] = {}
        for i in active:
            for link in routes[i]:
                counts[link] = counts.get(link, 0) + 1
        inc = min(demands[i] - rates[i] for i in active)
        for link, count in counts.items():
            share = headroom[link] / count
            if share < inc:
                inc = share
        if inc > 0:
            for i in active:
                rates[i] += inc
            for link, count in counts.items():
                headroom[link] -= inc * count
        saturated = {
            link
            for link in counts
            if headroom[link] <= _EPS_REL * capacities[link]
        }
        still = []
        for i in active:
            if rates[i] >= demands[i] * (1 - _EPS_REL):
                rates[i] = demands[i]
                continue
            if any(link in saturated for link in routes[i]):
                continue
            still.append(i)
        if len(still) == len(active):  # pragma: no cover - float pathology guard
            break
        active = still
    return rates


class Flow:
    """One in-flight transfer inside the :class:`FlowEngine`."""

    __slots__ = (
        "fid",
        "src_rank",
        "dst_rank",
        "route",
        "nbytes",
        "demand",
        "remaining",
        "rate",
        "start_time",
        "finish_time",
        "ideal_duration",
        "on_finish",
    )

    def __init__(
        self,
        fid: int,
        src_rank: int,
        dst_rank: int,
        route: tuple[int, ...],
        nbytes: int,
        demand: float,
        ideal_duration: float,
        start_time: float,
        on_finish: Callable[["Flow", float], None],
    ):
        self.fid = fid
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.route = route
        self.nbytes = nbytes
        self.demand = demand
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.start_time = start_time
        self.finish_time: float | None = None
        self.ideal_duration = ideal_duration
        self.on_finish = on_finish

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow #{self.fid} {self.src_rank}->{self.dst_rank} "
            f"{self.remaining:.0f}/{self.nbytes} B @ {self.rate:.3g} B/s>"
        )


class FlowEngine:
    """Shared-fabric bandwidth arbitration over one simulated job.

    Owned by the :class:`~repro.mpi.runtime.World` when (and only when)
    the platform selects a non-flat topology; the protocol layer hands
    its wire segments here instead of pricing them closed-form.
    """

    def __init__(
        self,
        kernel: "Kernel",
        topology: Topology,
        network: "NetworkModel",
        *,
        concurrent_streams: int = 1,
        metrics: "MetricsRegistry | None" = None,
    ):
        if topology.is_flat:
            raise ValueError("the flat topology bypasses the flow engine")
        self.kernel = kernel
        self.topology = topology
        self.network = network
        self.router = Router(topology)
        self.concurrent_streams = concurrent_streams
        #: Absolute link capacities, bytes/s (factors x platform stream).
        self.capacities = [
            network.bandwidth * link.capacity_factor for link in topology.links
        ]
        self._flows: dict[int, Flow] = {}
        self._next_fid = 0
        self._epoch = 0
        self._last_update = kernel.now
        self._c_flows = metrics.counter("net.flows") if metrics is not None else None
        self._c_bytes = metrics.counter("net.bytes_delivered") if metrics is not None else None
        self._c_resolves = metrics.counter("net.resolves") if metrics is not None else None
        self._g_active = metrics.gauge("net.active_flows") if metrics is not None else None
        self._h_stretch = metrics.histogram("net.flow_stretch") if metrics is not None else None

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> list[Flow]:
        return list(self._flows.values())

    def node_of(self, rank: int) -> int:
        return self.topology.node_of(rank)

    def route_of(self, src_rank: int, dst_rank: int) -> tuple[int, ...]:
        return self.router.route(self.node_of(src_rank), self.node_of(dst_rank))

    def path_latency(self, src_rank: int, dst_rank: int) -> float:
        """One-way latency between two ranks: the platform constant plus
        the topology's per-hop surcharge."""
        hops = len(self.route_of(src_rank, dst_rank))
        return self.network.latency + self.topology.hop_latency * hops

    def stream_cap(self, factor: float = 1.0) -> float:
        """A single flow's demand cap: NIC stream bandwidth times the
        protocol's derating factor."""
        if factor <= 0:
            raise ValueError("bandwidth factor must be positive")
        return self.network.stream_bandwidth(self.concurrent_streams) * factor

    def ideal_duration(self, nbytes: int, route: tuple[int, ...], cap: float) -> float:
        """Contention-free serialization time: the route's bottleneck
        capacity (or the flow's own cap) fully owned by this flow."""
        bottleneck = cap
        for link in route:
            if self.capacities[link] < bottleneck:
                bottleneck = self.capacities[link]
        return nbytes / bottleneck

    # ------------------------------------------------------------------
    def start_flow(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: int,
        *,
        factor: float = 1.0,
        on_finish: Callable[[Flow, float], None],
    ) -> Flow:
        """Begin draining ``nbytes`` from ``src_rank`` to ``dst_rank``.

        ``on_finish(flow, finish_time)`` fires in kernel context at the
        exact virtual instant the last byte leaves the wire.  Callable
        from task or kernel context.
        """
        if nbytes <= 0:
            raise ValueError("flows must carry at least one byte")
        now = self.kernel.now
        self._advance(now)
        route = self.route_of(src_rank, dst_rank)
        cap = self.stream_cap(factor)
        flow = Flow(
            self._next_fid,
            src_rank,
            dst_rank,
            route,
            nbytes,
            cap,
            self.ideal_duration(nbytes, route, cap),
            now,
            on_finish,
        )
        self._next_fid += 1
        self._flows[flow.fid] = flow
        if self._c_flows is not None:
            self._c_flows.inc()
            self._g_active.set(len(self._flows))
        self._resolve(now)
        return flow

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows.values():
                drained = flow.rate * dt
                flow.remaining = flow.remaining - drained if drained < flow.remaining else 0.0
        self._last_update = now

    def _resolve(self, now: float) -> None:
        """Recompute max-min rates and schedule the next completion."""
        self._epoch += 1
        if self._c_resolves is not None:
            self._c_resolves.inc()
        if not self._flows:
            return
        flows = list(self._flows.values())
        if _host.active is not None:
            begin = _host.active.now()
            rates = max_min_rates(
                [f.route for f in flows],
                [f.demand for f in flows],
                self.capacities,
            )
            _host.active.metrics.counter("net.resolves").inc()
            _host.active.metrics.histogram("net.solve_seconds", "latency").observe(
                _host.active.now() - begin
            )
        else:
            rates = max_min_rates(
                [f.route for f in flows],
                [f.demand for f in flows],
                self.capacities,
            )
        next_finish = None
        for flow, rate in zip(flows, rates):
            flow.rate = rate
            eta = now + flow.remaining / rate
            if next_finish is None or eta < next_finish:
                next_finish = eta
        if self.kernel.tracer.enabled:
            self._trace_utilization(now, flows)
        assert next_finish is not None
        self.kernel.call_later(max(0.0, next_finish - now), self._fire, self._epoch)

    def _trace_utilization(self, now: float, flows: list[Flow]) -> None:
        """Per-link utilization samples (traced runs only)."""
        load: dict[int, tuple[float, int]] = {}
        for flow in flows:
            for link in flow.route:
                total, count = load.get(link, (0.0, 0))
                load[link] = (total + flow.rate, count + 1)
        links = self.topology.links
        obs = self.kernel.tracer
        for link in sorted(load):
            total, count = load[link]
            cap = self.capacities[link]
            obs.record(
                now,
                LINK_UTIL_EVENT,
                link=f"{links[link].src}->{links[link].dst}",
                rate=total,
                capacity=cap,
                utilization=total / cap,
                flows=count,
            )
        obs.record(now, "net.resolve", flows=len(flows))

    def _fire(self, epoch: int) -> None:
        """Kernel context: the scheduled next-completion instant."""
        if epoch != self._epoch:
            return  # a start/finish since re-solved; stale wakeup
        now = self.kernel.now
        self._advance(now)
        finished = [f for f in self._flows.values() if f.remaining <= _EPS_BYTES]
        for flow in finished:
            del self._flows[flow.fid]
            flow.remaining = 0.0
            flow.rate = 0.0
            flow.finish_time = now
            if self._c_bytes is not None:
                self._c_bytes.inc(flow.nbytes)
                self._g_active.set(len(self._flows))
                duration = now - flow.start_time
                if flow.ideal_duration > 0:
                    self._h_stretch.observe(duration / flow.ideal_duration)
        self._resolve(now)
        for flow in finished:
            flow.on_finish(flow, now)
