"""Causal critical-path profiler over the wait-for graph.

A traced run records, besides spans, the raw material of a *program
activity graph*: every task's sleep intervals (modelled work), every
resolved wait (a :class:`~repro.sim.trace.WaitEdge` with who woke whom
and why), and task start/finish times.  This module walks that graph
backwards from the last-finishing task and extracts the **critical
path**: a chain of segments that tiles end-to-end virtual time exactly
— segment boundaries are bit-equal, the first begins at 0.0 and the
last ends at the job's virtual time, so the durations sum to the total
*as exact rational arithmetic*, not merely within a tolerance
(:meth:`CriticalPath.assert_partitions`).

Each segment is blamed to a **resource**:

``pack`` / ``unpack``
    Sender-side gather (packing, staging, user copies) and
    receiver-side scatter CPU time.
``copy``
    Library buffer copies (eager bounce, Bsend copy-in).
``wire``
    Serialization time on the fabric (including derated RMA/Bsend
    pushes).
``shm``
    Every in-flight instant of an intra-node shared-memory transfer:
    control handoffs, segment/CMA copies, rendezvous-analogue setup
    (zero whenever no co-located pair uses the shm transport).
``contention``
    Extra wire time caused by max-min bandwidth sharing on a non-flat
    topology: the gap between a flow's contention-free drain time and
    when it actually finished (zero on ``flat``, where the flow engine
    is off).
``latency``
    Handshake and propagation delays (RTS/CTS flights, payload landing).
``overhead``
    Per-call CPU costs (call overheads, send/recv overheads,
    rendezvous setup).
``sync``
    Barrier / fence release costs.
``other``
    Anything uncovered (idle drain at job end, unattributed waits).

Work (sleep) segments are blamed through the covering spans of their
rank, most specific category first — the same sweep the phase
attribution uses; wait segments carry resource tiles directly from the
protocol layer's :class:`~repro.sim.trace.WakeCause` hops.

The **what-if engine** re-prices the path under a perturbed machine:
each :class:`Perturbation` pairs per-resource duration scales with the
equivalent :class:`~repro.machine.platform.Platform` transform, so a
prediction (``predict``) can be validated against an actual re-run on
the transformed platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable

from .attribution import PHASE_PRIORITY
from .spans import Span

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids an
    # import cycle: net.flows -> obs -> critical -> machine.platform)
    from ..machine.platform import Platform

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.trace import WaitEdge
    from .recorder import SpanRecorder

__all__ = [
    "PathSegment",
    "CriticalPath",
    "Perturbation",
    "PERTURBATIONS",
    "RESOURCES",
    "RESOURCE_DESCRIPTIONS",
    "all_remote_perturbation",
    "extract_critical_path",
    "resource_legend",
    "span_slack",
]

#: Span-name blame: most specific first (falls back to category).
_NAME_RESOURCE = {
    "pack.pack": "pack",
    "pack.unpack": "unpack",
    "copy.gather": "pack",
    "copy.scatter": "unpack",
    "p2p.staging": "pack",
    "p2p.unstaging": "unpack",
    "p2p.recv_copy": "copy",
    "p2p.bsend_copy": "copy",
    "p2p.send_call": "overhead",
    "cache.flush": "overhead",
    "rma.staging": "pack",
    "rma.drain": "wire",
    "rma.shm_drain": "shm",
    "rma.land": "latency",
    "rma.fence": "sync",
}

#: Category blame for spans without a name rule.  ``scheme``/``task``
#: envelopes (and uncovered sleep time) blame to ``overhead``: every
#: modelled sleep not owned by a more specific span is per-call CPU.
_CATEGORY_RESOURCE = {
    "pack": "pack",
    "staging": "pack",
    "copy": "copy",
    "rma": "wire",
    "handshake": "latency",
    "transfer": "wire",
    "protocol": "latency",
    "overhead": "overhead",
    "sync": "sync",
    "scheme": "overhead",
    "task": "overhead",
}

#: Cause labels whose whole block interval maps to one resource when
#: the cause carries no hop tiles (e.g. a buffer reservation draining
#: at wire speed).
_LABEL_RESOURCE = {
    "buffer-drain": "wire",
}

#: Resources that :class:`~repro.sim.trace.WakeCause` hop tiles may
#: carry beyond what the span blame tables produce — the protocol
#: layer's transports emit these directly (see
#: :mod:`repro.net.transport` for the per-transport mapping).
_HOP_RESOURCES = ("wire", "shm", "contention", "latency", "overhead")

#: Preferred report order; resources a blame table introduces beyond
#: this list are appended alphabetically rather than dropped.
_REPORT_ORDER = (
    "pack",
    "unpack",
    "copy",
    "wire",
    "shm",
    "contention",
    "latency",
    "overhead",
    "sync",
    "other",
)


def _derive_resources() -> tuple[str, ...]:
    """All blame targets, derived from the blame tables themselves (not
    a second hardcoded list): the union of every resource a span name,
    span category, cause label, or wake-cause hop can produce, plus the
    ``other`` fallback.  Adding a blame rule for a new resource makes
    it appear everywhere — shares, legends, reports — automatically."""
    known = (
        set(_NAME_RESOURCE.values())
        | set(_CATEGORY_RESOURCE.values())
        | set(_LABEL_RESOURCE.values())
        | set(_HOP_RESOURCES)
        | {"other"}
    )
    ordered = tuple(name for name in _REPORT_ORDER if name in known)
    return ordered + tuple(sorted(known - set(_REPORT_ORDER)))


#: All blame targets, in report order (derived — see above).
RESOURCES = _derive_resources()

#: One-line meaning of each resource, for dynamically built legends.
RESOURCE_DESCRIPTIONS = {
    "pack": "sender-side gather/pack CPU time",
    "unpack": "receiver-side scatter/unpack CPU time",
    "copy": "library buffer copies (eager bounce, Bsend copy-in)",
    "wire": "serialization on the network fabric",
    "shm": "intra-node shared-memory transport (copies, handoffs, setup)",
    "contention": "extra wire time from max-min link sharing",
    "latency": "handshake and propagation delays",
    "overhead": "per-call CPU costs",
    "sync": "barrier/fence release costs",
    "other": "unattributed time (idle drain, untracked waits)",
}


def resource_legend() -> list[str]:
    """``"name: meaning"`` lines for every blame target, in report
    order.  Driven by :data:`RESOURCES` (itself derived from the blame
    tables), so a new resource shows up without manual edits."""
    return [
        f"{name}: {RESOURCE_DESCRIPTIONS.get(name, 'unclassified resource')}"
        for name in RESOURCES
    ]


_PRIORITY_INDEX = {name: i for i, name in enumerate(PHASE_PRIORITY)}


@dataclass(frozen=True)
class PathSegment:
    """One tile of the critical path.

    ``kind`` is ``"work"`` (a task sleep), ``"wait"`` (a cause hop or
    unattributed block), or ``"drain"`` (job time after the last task
    finished).  ``task`` is the owning task for work segments and the
    *waiting* task for wait segments.
    """

    begin: float
    end: float
    resource: str
    kind: str
    task: str | None
    detail: str

    @property
    def duration(self) -> float:
        return self.end - self.begin


@dataclass
class CriticalPath:
    """The extracted longest chain, tiling ``[0, total]`` exactly."""

    total: float
    segments: list[PathSegment]

    def by_resource(self) -> dict[str, float]:
        """Total on-path time per resource (every resource a key)."""
        out = {name: 0.0 for name in RESOURCES}
        for seg in self.segments:
            out[seg.resource] = out.get(seg.resource, 0.0) + seg.duration
        return out

    def bounding_resource(self) -> str:
        """The resource holding the most critical-path time."""
        shares = self.by_resource()
        return max(RESOURCES, key=lambda name: (shares.get(name, 0.0), name))

    def predict(self, perturbation: "Perturbation") -> float:
        """Re-price the path under per-resource duration scales."""
        return sum(
            seg.duration * perturbation.scales.get(seg.resource, 1.0)
            for seg in self.segments
        )

    def assert_partitions(self) -> None:
        """Prove the tiling: contiguous bit-equal boundaries from 0.0
        to ``total``, so segment durations telescope to the total under
        exact rational arithmetic.  Raises ``ValueError`` otherwise."""
        if not self.segments:
            if self.total != 0.0:
                raise ValueError(f"empty path cannot cover total {self.total!r}")
            return
        if self.segments[0].begin != 0.0:
            raise ValueError(f"path starts at {self.segments[0].begin!r}, not 0.0")
        if self.segments[-1].end != self.total:
            raise ValueError(
                f"path ends at {self.segments[-1].end!r}, not total {self.total!r}"
            )
        for left, right in zip(self.segments, self.segments[1:]):
            if left.end != right.begin:
                raise ValueError(
                    f"gap/overlap at t={left.end!r}: {left!r} -> {right!r}"
                )
            if right.end < right.begin:
                raise ValueError(f"negative segment {right!r}")
        exact = sum(
            (Fraction(seg.end) - Fraction(seg.begin) for seg in self.segments),
            Fraction(0),
        )
        if exact != Fraction(self.total):
            raise ValueError(
                f"segment durations sum to {float(exact)!r}, not {self.total!r}"
            )


@dataclass(frozen=True)
class Perturbation:
    """A machine change, expressed twice: as per-resource duration
    scales for the predictor and as the equivalent platform transform
    for a validating re-run."""

    key: str
    label: str
    scales: dict[str, float]
    transform: Callable[[Platform], Platform]


def _scale_network_bandwidth(platform: Platform, factor: float) -> Platform:
    net = platform.network
    return replace(
        platform,
        network=replace(
            net,
            bandwidth=net.bandwidth * factor,
            per_node_bandwidth=(
                None if net.per_node_bandwidth is None else net.per_node_bandwidth * factor
            ),
        ),
    )


def _scale_latency(platform: Platform, factor: float) -> Platform:
    return replace(
        platform, network=replace(platform.network, latency=platform.network.latency * factor)
    )


def _zero_fence(platform: Platform) -> Platform:
    return replace(
        platform, tuning=replace(platform.tuning, fence_base=0.0, fence_per_rank=0.0)
    )


def _free_copies(platform: Platform) -> Platform:
    """Zero-cost packing: every copy loop becomes free.  Infinite cache
    and DRAM bandwidths make read/write time exactly 0.0 (``bytes/inf``),
    and the loop-engine / per-element pack overheads go to zero, so the
    re-run's pack, unpack, *and* bounce-copy segments all vanish —
    matching the predictor's ``{pack,unpack,copy} -> 0`` scaling."""
    mem = platform.memory
    hier = mem.hierarchy
    inf = float("inf")
    return replace(
        platform,
        memory=replace(
            mem,
            hierarchy=replace(
                hier,
                levels=tuple(
                    replace(lvl, read_bandwidth=inf, write_bandwidth=inf)
                    for lvl in hier.levels
                ),
                dram_read_bandwidth=inf,
                dram_write_bandwidth=inf,
            ),
            loop_iteration_cost=0.0,
        ),
        cpu=replace(platform.cpu, pack_element_overhead=0.0),
    )


#: The built-in what-if catalogue.
PERTURBATIONS: dict[str, Perturbation] = {
    "wire2x": Perturbation(
        key="wire2x",
        label="2x wire bandwidth",
        scales={"wire": 0.5},
        transform=lambda p: _scale_network_bandwidth(p, 2.0),
    ),
    "latency-half": Perturbation(
        key="latency-half",
        label="halved network latency",
        scales={"latency": 0.5},
        transform=lambda p: _scale_latency(p, 0.5),
    ),
    "sync-free": Perturbation(
        key="sync-free",
        label="free fence synchronization",
        scales={"sync": 0.0},
        transform=_zero_fence,
    ),
    "pack-free": Perturbation(
        key="pack-free",
        label="zero-cost packing",
        scales={"pack": 0.0, "unpack": 0.0, "copy": 0.0},
        transform=_free_copies,
    ),
    "contention-free": Perturbation(
        key="contention-free",
        label="uncontended fabric (flat topology)",
        scales={"contention": 0.0},
        transform=lambda p: replace(p, topology=None),
    ),
}


def all_remote_perturbation(
    platform: Platform,
    nbytes: int,
    *,
    packed: bool = False,
    derived: bool = False,
    factor: float = 1.0,
) -> Perturbation:
    """What-if: every message crosses the network ("all ranks remote").

    Unlike the static catalogue, the predictor scale depends on the
    message size — replacing an shm hop by a network hop multiplies its
    in-flight time by ``net/shm`` for *that* size, not by a universal
    constant.  The returned perturbation is therefore exact (not just a
    bound) whenever the shm segments on the critical path all carry
    ``nbytes``-sized messages with the given payload flavour *and* both
    transports classify that size the same way (eager vs rendezvous) —
    a mode flip changes the receiver-side copy structure, which lives
    outside the in-flight window, so the prediction degrades to
    first-order there.  Small control messages (barrier, pong acks)
    riding shm in a mixed run likewise scale by the payload ratio
    instead of the latency ratio.

    The validating transform simply detaches the shm model: with
    ``shm=None`` no pair is co-located in transport terms, so the re-run
    prices every send through the network path.
    """
    from ..mpi.costs import CostModel
    from ..net.transport import NetworkTransport, ShmTransport

    if platform.shm is None:
        raise ValueError("platform has no shm model attached")
    net = NetworkTransport(CostModel(platform))
    shm = ShmTransport(platform.shm, platform.memory)
    shm_time = shm.in_flight_time(nbytes, packed=packed, derived=derived, factor=factor)
    net_time = net.in_flight_time(nbytes, packed=packed, derived=derived, factor=factor)
    if shm_time <= 0.0:
        raise ValueError("shm in-flight time is zero; cannot form a scale")
    return Perturbation(
        key="all-remote",
        label=f"all ranks remote ({nbytes}B messages)",
        scales={"shm": net_time / shm_time},
        transform=lambda p: replace(p, shm=None),
    )


# ----------------------------------------------------------------------
# Path extraction
# ----------------------------------------------------------------------
def _rank_of(task: str | None) -> int | None:
    if task is not None and task.startswith("rank") and task[4:].isdigit():
        return int(task[4:])
    return None


def _blame_span(span: Span) -> str:
    name_rule = _NAME_RESOURCE.get(span.name)
    if name_rule is not None:
        return name_rule
    return _CATEGORY_RESOURCE.get(span.category, "other")


class _WorkBlamer:
    """Blames sleep intervals through the covering spans of a rank.

    Detached ``proto.*`` spans model in-flight network activity that
    merely *overlaps* a rank's sleeps, so they are excluded: a sleep is
    blamed only by spans that describe what the task itself was paying
    for.
    """

    def __init__(self, spans: Iterable[Span]):
        self._by_rank: dict[int | None, list[Span]] = {}
        for span in spans:
            if span.end is None or span.name.startswith("proto."):
                continue
            self._by_rank.setdefault(span.rank, []).append(span)

    def split(self, rank: int | None, begin: float, end: float) -> list[tuple[float, float, str, str]]:
        """Partition ``[begin, end]`` into ``(b, e, resource, detail)``
        tiles using the most specific covering span at each instant."""
        covering = [
            s
            for s in self._by_rank.get(rank, ())
            if s.begin < end and s.end is not None and s.end > begin
        ]
        if not covering:
            return [(begin, end, "overhead", "uncovered")]
        cuts = {begin, end}
        for s in covering:
            if begin < s.begin < end:
                cuts.add(s.begin)
            if s.end is not None and begin < s.end < end:
                cuts.add(s.end)
        ordered = sorted(cuts)
        tiles: list[tuple[float, float, str, str]] = []
        for b, e in zip(ordered, ordered[1:]):
            mid = (b + e) / 2.0
            best: Span | None = None
            best_prio = len(PHASE_PRIORITY) + 1
            for s in covering:
                if s.begin <= mid and s.end is not None and s.end >= mid:
                    prio = _PRIORITY_INDEX.get(s.category, len(PHASE_PRIORITY))
                    if prio < best_prio:
                        best, best_prio = s, prio
            if best is None:
                tiles.append((b, e, "overhead", "uncovered"))
            else:
                tiles.append((b, e, _blame_span(best), best.name))
        # Merge adjacent tiles with identical blame so the path stays
        # readable (boundaries remain bit-equal either way).
        merged: list[tuple[float, float, str, str]] = []
        for tile in tiles:
            if merged and merged[-1][2] == tile[2] and merged[-1][3] == tile[3]:
                merged[-1] = (merged[-1][0], tile[1], tile[2], tile[3])
            else:
                merged.append(tile)
        return merged


def extract_critical_path(recorder: "SpanRecorder", total: float) -> CriticalPath:
    """Walk the wait-for graph backwards and return the critical path.

    ``recorder`` must come from a traced run whose
    job finished normally; ``total`` is the job's virtual time.
    """
    finishes = recorder.task_finishes()
    if total == 0.0 or not finishes:
        path = CriticalPath(total=total, segments=[])
        path.assert_partitions()
        return path

    # Per-task interval lists: sleeps and resolved blocks, begin-sorted.
    timeline: dict[str, list[tuple[float, float, str, "WaitEdge | None"]]] = {}
    for task, sleeps in recorder.task_sleeps().items():
        lane = timeline.setdefault(task, [])
        for begin, end in sleeps:
            lane.append((begin, end, "sleep", None))
    for edge in recorder.wait_edges():
        timeline.setdefault(edge.task, []).append(
            (edge.block_begin, edge.resume_time, "block", edge)
        )
    for lane in timeline.values():
        lane.sort(key=lambda iv: (iv[0], iv[1]))

    def find(task: str, t: float):
        """Latest interval of ``task`` with ``begin < t <= end``."""
        lane = timeline.get(task, ())
        for iv in reversed(lane):
            if iv[0] < t:
                if iv[1] >= t:
                    return iv
                return None
        return None

    blamer = _WorkBlamer(recorder.all_spans())
    reversed_segments: list[PathSegment] = []

    def emit(begin: float, end: float, resource: str, kind: str,
             task: str | None, detail: str) -> None:
        begin = max(0.0, min(begin, end))
        if begin == end:
            return
        reversed_segments.append(
            PathSegment(begin=begin, end=end, resource=resource, kind=kind,
                        task=task, detail=detail)
        )

    last_task = max(finishes, key=lambda name: (finishes[name], name))
    t = finishes[last_task]
    if total > t:
        emit(t, total, "other", "drain", None, "post-finish drain")
    elif total < t:
        t = total  # defensive: never walk past the reported total
    cur = last_task

    guard = 4 * (len(recorder.wait_edges()) + sum(len(v) for v in timeline.values()) + 8)
    steps = 0
    while t > 0.0:
        steps += 1
        if steps > guard:
            raise RuntimeError(
                f"critical-path walk did not converge (t={t!r}, task={cur!r})"
            )
        iv = find(cur, t)
        if iv is None:
            # Pre-history of this task (mid-run spawn) or a hole in the
            # recording: close the tiling defensively.
            emit(0.0, t, "other", "wait", cur, "untracked")
            break
        begin, _end, kind, edge = iv
        if kind == "sleep":
            for b, e, resource, detail in reversed(blamer.split(_rank_of(cur), begin, min(t, _end))):
                emit(b, min(e, t), resource, "work", cur, detail)
            t = begin
            continue
        assert edge is not None
        cause = edge.cause
        if cause is not None and cause.hops:
            tt = t
            for hb, he, resource in reversed(cause.hops):
                if hb >= tt or he <= hb:
                    continue
                emit(hb, tt, resource, "wait", edge.task, cause.label)
                tt = hb
            origin = cause.origin if cause.origin is not None else edge.waker
            origin_time = (
                cause.origin_time if cause.origin_time is not None else edge.notify_time
            )
            if tt > origin_time:
                emit(origin_time, tt, "other", "wait", edge.task, f"{cause.label} (gap)")
                tt = origin_time
            if origin is None:
                # Chain born in kernel context with nowhere to continue:
                # charge the rest of the block to the waiting task.
                emit(begin, tt, "other", "wait", edge.task, edge.reason)
                t = begin
                continue
            cur, t = origin, min(tt, origin_time)
            continue
        if cause is not None and cause.origin is not None:
            # A labelled wake without hop tiles: bridge the notify delay
            # (if any) and continue at the origin task.
            resource = _LABEL_RESOURCE.get(cause.label, "other")
            origin_time = (
                cause.origin_time if cause.origin_time is not None else edge.notify_time
            )
            emit(origin_time, t, resource, "wait", edge.task, cause.label)
            cur, t = cause.origin, origin_time
            continue
        if edge.waker is not None:
            resource = "other"
            if cause is not None:
                resource = _LABEL_RESOURCE.get(cause.label, "other")
            detail = cause.label if cause is not None else edge.reason
            emit(edge.notify_time, t, resource, "wait", edge.task, detail)
            cur, t = edge.waker, edge.notify_time
            continue
        # Unlabelled kernel wake: blame the whole block interval.
        resource = "other"
        if cause is not None:
            resource = _LABEL_RESOURCE.get(cause.label, "other")
        emit(begin, t, resource, "wait", edge.task,
             cause.label if cause is not None else edge.reason)
        t = begin

    path = CriticalPath(total=total, segments=list(reversed(reversed_segments)))
    path.assert_partitions()
    return path


# ----------------------------------------------------------------------
# Slack
# ----------------------------------------------------------------------
def span_slack(recorder: "SpanRecorder", path: CriticalPath) -> list[tuple[Span, float]]:
    """Per-span slack: how much of each closed span's duration lies off
    the critical path (0.0 = entirely on-path).  Sorted by slack,
    largest first."""
    merged: list[tuple[float, float]] = []
    for seg in sorted(path.segments, key=lambda s: s.begin):
        if merged and seg.begin <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], seg.end))
        else:
            merged.append((seg.begin, seg.end))

    def overlap(begin: float, end: float) -> float:
        covered = 0.0
        for b, e in merged:
            if e <= begin:
                continue
            if b >= end:
                break
            covered += min(e, end) - max(b, begin)
        return covered

    out = []
    for span in recorder.all_spans():
        if span.end is None:
            continue
        slack = span.duration - overlap(span.begin, span.end)
        out.append((span, slack))
    out.sort(key=lambda pair: -pair[1])
    return out
