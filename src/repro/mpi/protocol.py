"""Two-sided transfer protocol: eager and rendezvous state machines.

Timing model (section 3.2 of the paper, LogGP-flavoured):

Eager (``nbytes <= eager limit``)
    sender:   [call + staging/pack] + send_overhead, then free
    receiver: data arrives at ``t_inject + latency + wire(n)``; matching
    copies it out of the bounce buffer (``eager_bounce``) and charges
    ``recv_overhead``.

Rendezvous (``nbytes > eager limit``)
    sender:   injects an RTS (one latency), blocks for the CTS, then
    pushes the payload (``wire(n) / factor``) and completes; the payload
    lands one latency later, straight into the user buffer (no bounce).
    The CTS leaves the receiver when the matching receive is posted.

The sender side is *callback-driven* (a :class:`SendOperation` advanced
by kernel events), so blocking sends, nonblocking sends, and buffered
sends — whose transfer outlives the ``Bsend`` call — all share one
machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..sim.sync import SimCondition
from ..sim.trace import WakeCause

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Process, World

__all__ = ["Payload", "TransitMessage", "SendHandle", "SendOperation"]


class Payload:
    """Bytes on the wire: a packed snapshot, or virtual (size only)."""

    __slots__ = ("nbytes", "data")

    def __init__(self, nbytes: int, data: np.ndarray | None):
        if data is not None and data.size != nbytes:
            raise ValueError(f"payload data holds {data.size} bytes, expected {nbytes}")
        self.nbytes = nbytes
        self.data = data

    @property
    def materialized(self) -> bool:
        return self.data is not None


class SendHandle:
    """Completion object for the sender side.

    ``done`` flips at the virtual instant the send buffer becomes
    reusable (eager: after injection; rendezvous: after the push).
    """

    def __init__(self, world: "World", label: str):
        self._world = world
        self.label = label
        self.done = False
        self.complete_time: float | None = None
        self.cond = SimCondition(world.kernel, f"send-done:{label}")

    def _complete_at(self, time: float, cause: WakeCause | None = None) -> None:
        """Schedule completion at virtual ``time`` (kernel or task ctx).

        A completion that is already due fires synchronously so that,
        e.g., an eager ``Isend`` tests as done immediately — the buffer
        really is reusable the moment the call returns."""
        now = self._world.kernel.now
        if time <= now:
            self._finish(now, cause)
        else:
            self._world.kernel.call_later(time - now, self._finish, time, cause)

    def _finish(self, time: float, cause: WakeCause | None = None) -> None:
        self.done = True
        self.complete_time = time
        self.cond.notify_all(cause=cause)

    def wait(self, task) -> None:
        """Block the calling task until the send completes."""
        while not self.done:
            self.cond.wait(task, reason=f"wait({self.label})")


class TransitMessage:
    """What the receiver's inbox matches on: either a complete eager
    message or a rendezvous RTS."""

    __slots__ = (
        "source",
        "dest",
        "tag",
        "context_id",
        "nbytes",
        "payload",
        "eager",
        "arrival_time",
        "operation",
        "data_arrived",
        "data_cond",
        "synchronous",
        "transport",
    )

    def __init__(
        self,
        *,
        source: int,
        dest: int,
        tag: int,
        nbytes: int,
        payload: Payload,
        eager: bool,
        operation: "SendOperation",
        synchronous: bool = False,
        context_id: int = 0,
    ):
        self.source = source
        self.dest = dest
        self.tag = tag
        self.context_id = context_id
        self.nbytes = nbytes
        self.payload = payload
        self.eager = eager
        self.arrival_time: float | None = None  # eager: payload arrival
        self.operation = operation
        self.data_arrived = False  # rendezvous: payload landed
        self.data_cond: SimCondition | None = None
        self.synchronous = synchronous
        self.transport = operation.transport


class SendOperation:
    """One sender-side transfer; see module docstring.

    Parameters
    ----------
    wire_factor:
        Bandwidth derating for the payload push (buffered sends,
        one-sided emulation).
    on_buffer_free:
        Callback fired when the internal copy of the message no longer
        occupies library buffers — releases ``Bsend`` reservations.
    """

    def __init__(
        self,
        world: "World",
        proc: "Process",
        *,
        dest: int,
        tag: int,
        payload: Payload,
        packed: bool,
        derived: bool,
        wire_factor: float = 1.0,
        synchronous: bool = False,
        on_buffer_free: Callable[[], None] | None = None,
        context_id: int = 0,
    ):
        self.world = world
        self.proc = proc
        self.dest = dest
        self.tag = tag
        self.payload = payload
        self.wire_factor = wire_factor
        self.on_buffer_free = on_buffer_free
        self.cts_granted = False
        #: Open ``proto.rendezvous`` span (traced runs only); closed in
        #: ``_data_landed`` when the payload reaches the user buffer.
        self._span = None
        #: Wait-for provenance (traced runs only): the task/time where
        #: the current cause chain entered the protocol, the contiguous
        #: (begin, end, resource) hops accumulated since, and the cause
        #: attached to the message's arrival at the matching engine.
        self._origin: tuple[str, float] | None = None
        self._hops: list[tuple[float, float, str]] = []
        self.delivery_cause: WakeCause | None = None
        self._data_cause: WakeCause | None = None
        #: Fabric mode: when the rendezvous push entered the CTS handler
        #: (anchors the ``proto.push`` span, whose end is only known
        #: when the flow drains).
        self._cts_time = 0.0
        self.derived = derived
        #: The fabric carrying this pair's bytes (network or shm).
        self.transport = world.transport_for(proc.rank, dest)
        self.eager = self.transport.uses_eager(
            payload.nbytes, packed=packed, derived=derived
        )
        if synchronous:
            # Ssend semantics: completion requires the matching receive,
            # i.e. always take the handshaking path.
            self.eager = False
        self.handle = SendHandle(world, f"send->{dest} tag={tag} n={payload.nbytes}")
        self.message = TransitMessage(
            source=proc.rank,
            dest=dest,
            tag=tag,
            nbytes=payload.nbytes,
            payload=payload,
            eager=self.eager,
            operation=self,
            synchronous=synchronous,
            context_id=context_id,
        )
        self.message.data_cond = SimCondition(world.kernel, f"data:{proc.rank}->{dest}")

    # ------------------------------------------------------------------
    def start(self) -> SendHandle:
        """Inject the message.  Called from the sending task *after*
        inline costs (call overhead, staging/packing, send overhead)
        have been charged; all further progress is event-driven.
        """
        world = self.world
        transport = self.transport
        now = world.kernel.now
        obs = world.obs
        if transport.kind == "shm":
            world.c_shm_sends.inc()
            world.c_shm_bytes.inc(self.payload.nbytes)
        if self.eager:
            world.c_eager_sends.inc()
            world.c_bytes_on_wire.inc(self.payload.nbytes)
            if (
                world.fabric is not None
                and transport.kind == "network"
                and self.payload.nbytes > 0
            ):
                # Fabric mode: the wire segment is a flow whose finish
                # instant depends on contention — everything downstream
                # (trace, spans, delivery) waits for the flow to drain.
                if obs.enabled:
                    sender = world.kernel.current_task
                    self._origin = (sender.name if sender is not None else "", now)
                # Buffer reusable immediately: eager copies into library
                # buffers at injection.
                self.handle._complete_at(now)
                world.fabric.start_flow(
                    self.proc.rank, self.dest, self.payload.nbytes,
                    factor=self.wire_factor, on_finish=self._eager_flow_finished,
                )
                return self.handle
            latency = transport.control_latency
            arrival = now + latency + transport.transfer_time(
                self.payload.nbytes, factor=self.wire_factor, derived=self.derived
            )
            self.message.arrival_time = arrival
            if obs.enabled:
                obs.record(now, "send.eager", src=self.proc.rank, dest=self.dest,
                           tag=self.tag, nbytes=self.payload.nbytes, arrival=arrival,
                           transport=transport.kind)
                # Detached root: the wire transfer outlives the Send call.
                obs.complete(now, arrival, "proto.eager", rank=self.proc.rank,
                             category="transfer", parent=None, dest=self.dest,
                             tag=self.tag, nbytes=self.payload.nbytes,
                             transport=transport.kind)
                sender = world.kernel.current_task
                self.delivery_cause = WakeCause(
                    "eager-data",
                    origin=sender.name if sender is not None else None,
                    origin_time=now,
                    hops=(
                        (now, now + latency, transport.control_resource),
                        (now + latency, arrival, transport.payload_resource),
                    ),
                )
            world.kernel.call_later(arrival - now, self._deliver)
            # Buffer reusable immediately: eager copies into library
            # buffers at injection.
            self.handle._complete_at(now)
            if self.on_buffer_free is not None:
                world.kernel.call_later(arrival - now, self.on_buffer_free)
        else:
            world.c_rendezvous_sends.inc()
            world.c_bytes_on_wire.inc(self.payload.nbytes)
            latency = transport.control_latency
            if obs.enabled:
                obs.record(now, "send.rts", src=self.proc.rank, dest=self.dest,
                           tag=self.tag, nbytes=self.payload.nbytes,
                           transport=transport.kind)
                self._span = obs.begin(now, "proto.rendezvous", rank=self.proc.rank,
                                       category="protocol", parent=None,
                                       dest=self.dest, tag=self.tag,
                                       nbytes=self.payload.nbytes,
                                       transport=transport.kind)
                obs.complete(now, now + latency, "proto.rts",
                             rank=self.proc.rank, category="handshake",
                             parent=self._span, dest=self.dest, tag=self.tag,
                             transport=transport.kind)
                sender = world.kernel.current_task
                self._origin = (sender.name if sender is not None else "", now)
                self._hops = [(now, now + latency, transport.control_resource)]
                self.delivery_cause = WakeCause(
                    "rts",
                    origin=self._origin[0],
                    origin_time=now,
                    hops=tuple(self._hops),
                )
            world.kernel.call_later(latency, self._deliver)
        return self.handle

    def _deliver(self) -> None:
        """Kernel context: the eager payload / the RTS reaches the
        destination's matching engine."""
        self.world.processes[self.dest].deliver(self.message)

    # -- fabric mode ----------------------------------------------------
    def _flow_hops(self, flow, done: float) -> tuple[tuple[float, float, str], ...]:
        """Wait-for hops for a drained flow: the contention-free wire
        time, then whatever max-min sharing stretched on top of it.

        Under max-min fairness a flow's rate never exceeds its
        uncontended bottleneck rate, so the stretch is non-negative; a
        float-epsilon overshoot collapses to a single wire hop so the
        chain always tiles ``[start, done]`` exactly.
        """
        start = flow.start_time
        wire_end = start + flow.ideal_duration
        if wire_end < done:
            return ((start, wire_end, "wire"), (wire_end, done, "contention"))
        return ((start, done, "wire"),)

    def _eager_flow_finished(self, flow, done: float) -> None:
        """Kernel context: the eager payload's flow drained; one path
        latency later it reaches the destination's matching engine."""
        world = self.world
        fabric = world.fabric
        latency = fabric.path_latency(self.proc.rank, self.dest)
        arrival = done + latency
        self.message.arrival_time = arrival
        obs = world.obs
        if obs.enabled:
            obs.record(world.kernel.now, "send.eager", src=self.proc.rank,
                       dest=self.dest, tag=self.tag, nbytes=self.payload.nbytes,
                       arrival=arrival)
            obs.complete(flow.start_time, arrival, "proto.eager", rank=self.proc.rank,
                         category="transfer", parent=None, dest=self.dest,
                         tag=self.tag, nbytes=self.payload.nbytes)
        if obs.enabled and self._origin is not None:
            origin, origin_time = self._origin
            self.delivery_cause = WakeCause(
                "eager-data",
                origin=origin,
                origin_time=origin_time,
                hops=self._flow_hops(flow, done) + ((done, arrival, "latency"),),
            )
        world.kernel.call_later(latency, self._deliver)
        if self.on_buffer_free is not None:
            world.kernel.call_later(latency, self.on_buffer_free)

    def grant_cts(self) -> None:
        """The receive side matched the RTS: grant the clear-to-send.

        Called by the matching engine at match time (the simulated
        progress engine), so rendezvous transfers overlap with whatever
        the receiving task does between ``Irecv`` and ``wait``.
        Idempotent: the CTS leaves once.  The CTS takes one latency to
        reach the sender, after which the push starts.
        """
        if self.cts_granted:
            return
        self.cts_granted = True
        world = self.world
        transport = self.transport
        latency = transport.control_latency
        world.c_rendezvous_roundtrips.inc()
        obs = world.obs
        if obs.enabled:
            now = world.kernel.now
            obs.record(now, "send.cts", src=self.proc.rank, dest=self.dest,
                       tag=self.tag, transport=transport.kind)
            if self._span is not None:
                # The CTS belongs to the *receiver* — it leaves when the
                # matching receive is found.
                obs.complete(now, now + latency, "proto.cts", rank=self.dest,
                             category="handshake", parent=self._span,
                             src=self.proc.rank, tag=self.tag,
                             transport=transport.kind)
            grantor = world.kernel.current_task
            if grantor is not None:
                # The receive was found by a task (a late post): the
                # enabling chain restarts at the granting task — the RTS
                # had long been waiting in the unexpected queue.
                self._origin = (grantor.name, now)
                self._hops = []
            self._hops.append((now, now + latency, transport.control_resource))
        world.kernel.call_later(latency, self._on_cts)

    def _on_cts(self) -> None:
        """Kernel context, at CTS arrival: push the payload."""
        world = self.world
        transport = self.transport
        now = world.kernel.now
        if (
            world.fabric is not None
            and transport.kind == "network"
            and self.payload.nbytes > 0
        ):
            # Fabric mode: charge the push overhead, then hand the wire
            # segment to the flow engine.
            overhead = transport.rendezvous_overhead
            if world.obs.enabled and self._origin is not None:
                self._hops.append((now, now + overhead, transport.overhead_resource))
            self._cts_time = now
            world.kernel.call_later(overhead, self._start_push_flow)
            return
        overhead = transport.rendezvous_overhead
        push = overhead + transport.transfer_time(
            self.payload.nbytes, factor=self.wire_factor, derived=self.derived
        )
        done = now + push
        arrival = done + transport.control_latency
        obs = world.obs
        if obs.enabled:
            obs.record(now, "send.push", src=self.proc.rank, dest=self.dest,
                       nbytes=self.payload.nbytes, done=done, arrival=arrival,
                       transport=transport.kind)
            if self._span is not None:
                obs.complete(now, arrival, "proto.push", rank=self.proc.rank,
                             category="transfer", parent=self._span,
                             dest=self.dest, nbytes=self.payload.nbytes,
                             transport=transport.kind)
        completion_cause = None
        if obs.enabled and self._origin is not None:
            self._hops.append((now, now + overhead, transport.overhead_resource))
            self._hops.append((now + overhead, done, transport.payload_resource))
            origin, origin_time = self._origin
            completion_cause = WakeCause(
                "send-complete", origin=origin, origin_time=origin_time,
                hops=tuple(self._hops),
            )
            self._data_cause = WakeCause(
                "data-landing", origin=origin, origin_time=origin_time,
                hops=tuple(self._hops) + ((done, arrival, transport.control_resource),),
            )
        self.handle._complete_at(done, completion_cause)
        if self.on_buffer_free is not None:
            world.kernel.call_later(max(0.0, done - now), self.on_buffer_free)
        world.kernel.call_later(arrival - now, self._data_landed)

    def _start_push_flow(self) -> None:
        """Kernel context: rendezvous push overhead paid; start the
        payload's flow through the fabric."""
        self.world.fabric.start_flow(
            self.proc.rank, self.dest, self.payload.nbytes,
            factor=self.wire_factor, on_finish=self._push_flow_finished,
        )

    def _push_flow_finished(self, flow, done: float) -> None:
        """Kernel context: the rendezvous payload's flow drained — the
        send buffer frees now; the data lands one path latency later."""
        world = self.world
        fabric = world.fabric
        latency = fabric.path_latency(self.proc.rank, self.dest)
        arrival = done + latency
        obs = world.obs
        if obs.enabled:
            obs.record(world.kernel.now, "send.push", src=self.proc.rank,
                       dest=self.dest, nbytes=self.payload.nbytes, done=done,
                       arrival=arrival)
            if self._span is not None:
                obs.complete(self._cts_time, arrival, "proto.push",
                             rank=self.proc.rank, category="transfer",
                             parent=self._span, dest=self.dest,
                             nbytes=self.payload.nbytes)
        completion_cause = None
        if obs.enabled and self._origin is not None:
            self._hops.extend(self._flow_hops(flow, done))
            origin, origin_time = self._origin
            completion_cause = WakeCause(
                "send-complete", origin=origin, origin_time=origin_time,
                hops=tuple(self._hops),
            )
            self._data_cause = WakeCause(
                "data-landing", origin=origin, origin_time=origin_time,
                hops=tuple(self._hops) + ((done, arrival, "latency"),),
            )
        self.handle._complete_at(done, completion_cause)
        if self.on_buffer_free is not None:
            self.on_buffer_free()
        world.kernel.call_later(latency, self._data_landed)

    def _data_landed(self) -> None:
        """Kernel context: rendezvous payload is in the user buffer."""
        self.message.data_arrived = True
        if self._span is not None:
            self.world.obs.end(self._span, self.world.kernel.now)
            self._span = None
        assert self.message.data_cond is not None
        self.message.data_cond.notify_all(cause=self._data_cause)
