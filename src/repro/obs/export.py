"""Chrome ``trace_event`` export.

Produces the JSON object format understood by ``chrome://tracing`` and
Perfetto: closed spans become ``"X"`` (complete) events with
microsecond ``ts``/``dur``, instant markers become ``"i"`` (instant)
markers, matching-queue depth samples become ``"C"`` counter series,
and each rank gets a named thread via ``"M"`` metadata events.  When a
:class:`~repro.obs.critical.CriticalPath` is supplied, its segments
render as a highlighted lane with ``"s"``/``"f"`` flow arrows binding
the hand-off points between rank lanes.  ``validate_chrome_trace``
checks a document against the checked-in JSON schema (via
``jsonschema`` when available, with a structural fallback so the test
suite needs no extra dependency).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .recorder import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover
    from .critical import CriticalPath
    from .host import HostTelemetry

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "load_chrome_trace_schema",
    "host_trace_events",
    "host_chrome_trace",
]

_SCHEMA_PATH = Path(__file__).with_name("chrome_trace.schema.json")

#: tid used for spans/events that belong to no rank (world-level).
_GLOBAL_TID = 99

#: tid of the critical-path highlight lane.
_CRITICAL_TID = 98

#: Instant-marker category carrying matching-queue depth samples; exported
#: as Chrome counter series instead of instant markers.
_QUEUE_DEPTH = "queue.depth"

#: Instant-marker category carrying per-link utilization samples from the
#: flow engine (see :data:`repro.net.flows.LINK_UTIL_EVENT`); exported
#: as one counter track per link.
_LINK_UTIL = "link.util"

#: pid of the host wall-clock timeline (the virtual-time job is pid 0).
_HOST_PID = 1

#: Host event name sampled by the executor; exported as a counter
#: track rather than instant markers.
_HOST_QUEUE_DEPTH = "exec.queue_depth"


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    # numpy scalars and anything else exotic
    for caster in (int, float):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return str(value)


def _event_rank(fields: dict[str, Any]) -> int | None:
    for key in ("rank", "src"):
        if key in fields:
            return int(fields[key])
    return None


def host_trace_events(
    host: "HostTelemetry", *, pid: int = _HOST_PID, label: str = "host wall-clock"
) -> list[dict[str, Any]]:
    """Render one host-telemetry capture as a Chrome lane set.

    Lanes (``main``, ``worker-<pid>``, ...) become threads of a
    dedicated process; timestamps rebase onto the capture's origin so
    the host timeline starts near zero.  Spans become ``X`` tiles,
    queue-depth samples a ``C`` counter track, everything else instant
    markers.
    """
    lanes = host.lanes()
    tid_of = {lane: i for i, lane in enumerate(lanes)}
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for lane in lanes:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid_of[lane],
                "args": {"name": lane},
            }
        )

    def ts(t: float) -> float:
        # Worker clocks share the parent's monotonic domain on Linux;
        # clamp defensively so exotic start methods cannot produce the
        # negative timestamps the schema forbids.
        return max(0.0, (t - host.origin) * 1e6)

    for span in host.spans:
        args = {str(k): _json_safe(v) for k, v in span.fields.items()}
        args["pid"] = span.pid
        events.append(
            {
                "name": span.name,
                "cat": "host",
                "ph": "X",
                "pid": pid,
                "tid": tid_of[span.lane],
                "ts": ts(span.begin),
                "dur": max(0.0, (span.end - span.begin) * 1e6),
                "args": args,
            }
        )
    for ev in host.events:
        if ev.name == _HOST_QUEUE_DEPTH:
            events.append(
                {
                    "name": "queue depth",
                    "cat": "host",
                    "ph": "C",
                    "pid": pid,
                    "tid": tid_of[ev.lane],
                    "ts": ts(ev.time),
                    "args": {"pending_chunks": _json_safe(ev.fields.get("depth", 0))},
                }
            )
            continue
        events.append(
            {
                "name": ev.name,
                "cat": "host",
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid_of[ev.lane],
                "ts": ts(ev.time),
                "args": {str(k): _json_safe(v) for k, v in ev.fields.items()},
            }
        )
    return events


def host_chrome_trace(
    sections: "HostTelemetry | Sequence[tuple[str, HostTelemetry]]",
) -> dict[str, Any]:
    """A standalone host-timeline trace document.

    Accepts one capture, or ``[(label, capture), ...]`` — each capture
    then gets its own process (the perf-gate runner exports one section
    per gate).
    """
    from .host import HostTelemetry  # local: avoid import cycle at module load

    if isinstance(sections, HostTelemetry):
        sections = [("host wall-clock", sections)]
    events: list[dict[str, Any]] = []
    for i, (label, host) in enumerate(sections):
        events.extend(host_trace_events(host, pid=_HOST_PID + i, label=label))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace(
    tracer: SpanRecorder,
    *,
    pid: int = 0,
    critical_path: "CriticalPath | None" = None,
    host: "HostTelemetry | None" = None,
) -> dict[str, Any]:
    """Render a :class:`SpanRecorder` as a Chrome ``trace_event`` document.

    Spans become ``X`` events and instant markers ``i`` (or ``C``
    counter) events.  Times convert from
    virtual seconds to microseconds, the trace-viewer convention.
    ``critical_path`` adds the highlighted critical-path lane plus flow
    arrows at the points where the path hands off between tasks.
    ``host`` appends the wall-clock host-timeline lane set as a second
    process alongside the virtual-time lanes (its timestamps are host
    microseconds since the capture began — a separate clock domain).
    """
    events: list[dict[str, Any]] = []
    tids: set[int] = set()

    for span in tracer.all_spans():
        if span.end is None:
            continue
        tid = span.rank if span.rank is not None else _GLOBAL_TID
        tids.add(tid)
        args = {str(k): _json_safe(v) for k, v in span.attrs.items()}
        args["sid"] = span.sid
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": span.begin * 1e6,
                "dur": (span.end - span.begin) * 1e6,
                "args": args,
            }
        )

    for event in tracer:
        rank = _event_rank(event.fields)
        tid = rank if rank is not None else _GLOBAL_TID
        tids.add(tid)
        if event.category == _QUEUE_DEPTH:
            # Matching-engine queue depths: one counter series per rank
            # (stacked area in the viewer), not an instant marker.
            events.append(
                {
                    "name": f"rank{rank} queues" if rank is not None else "queues",
                    "cat": "matching",
                    "ph": "C",
                    "pid": pid,
                    "tid": tid,
                    "ts": event.time * 1e6,
                    "args": {
                        "unexpected": _json_safe(event.get("unexpected", 0)),
                        "posted": _json_safe(event.get("posted", 0)),
                    },
                }
            )
            continue
        if event.category == _LINK_UTIL:
            # Fabric link utilization: one counter track per directed
            # link, sampled at every flow-rate re-solve.
            events.append(
                {
                    "name": f"link {event.get('link', '?')}",
                    "cat": "net",
                    "ph": "C",
                    "pid": pid,
                    "tid": tid,
                    "ts": event.time * 1e6,
                    "args": {
                        "utilization": _json_safe(event.get("utilization", 0.0)),
                        "flows": _json_safe(event.get("flows", 0)),
                    },
                }
            )
            continue
        events.append(
            {
                "name": event.category,
                "cat": "marker",
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": event.time * 1e6,
                "args": {str(k): _json_safe(v) for k, v in event.fields.items()},
            }
        )

    if critical_path is not None and critical_path.segments:
        events.extend(_critical_events(critical_path, pid))
        tids.add(_CRITICAL_TID)

    metadata: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "simulated MPI job"},
        }
    ]
    for tid in sorted(tids):
        if tid == _GLOBAL_TID:
            label = "world"
        elif tid == _CRITICAL_TID:
            label = "critical path"
        else:
            label = f"rank {tid}"
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )
    if host is not None:
        events.extend(host_trace_events(host))
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def _task_tid(task: str | None) -> int:
    if task is not None and task.startswith("rank") and task[4:].isdigit():
        return int(task[4:])
    return _CRITICAL_TID


def _critical_events(path: "CriticalPath", pid: int) -> list[dict[str, Any]]:
    """The critical-path lane: one ``X`` tile per segment plus ``s/f``
    flow pairs wherever the path hands off between tasks."""
    events: list[dict[str, Any]] = []
    flow_id = 0
    previous = None
    for seg in path.segments:
        events.append(
            {
                "name": seg.resource,
                "cat": "critical",
                "ph": "X",
                "pid": pid,
                "tid": _CRITICAL_TID,
                "ts": seg.begin * 1e6,
                "dur": seg.duration * 1e6,
                "args": {
                    "kind": seg.kind,
                    "task": seg.task if seg.task is not None else "",
                    "detail": seg.detail,
                },
            }
        )
        if previous is not None and previous.task != seg.task:
            flow_id += 1
            events.append(
                {
                    "name": "critical-path",
                    "cat": "flow",
                    "ph": "s",
                    "id": flow_id,
                    "pid": pid,
                    "tid": _task_tid(previous.task),
                    "ts": previous.end * 1e6,
                }
            )
            events.append(
                {
                    "name": "critical-path",
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "pid": pid,
                    "tid": _task_tid(seg.task),
                    "ts": seg.begin * 1e6,
                }
            )
        previous = seg
    return events


def write_chrome_trace(
    tracer: SpanRecorder,
    path: str | Path,
    *,
    critical_path: "CriticalPath | None" = None,
    host: "HostTelemetry | None" = None,
) -> Path:
    """Export ``tracer`` to ``path`` as Chrome trace JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(
            chrome_trace(tracer, critical_path=critical_path, host=host),
            indent=1,
            sort_keys=True,
        )
    )
    return path


def load_chrome_trace_schema() -> dict[str, Any]:
    return json.loads(_SCHEMA_PATH.read_text())


def validate_chrome_trace(doc: dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``doc`` is not a valid trace document.

    Uses ``jsonschema`` when installed; otherwise applies an equivalent
    structural check of the same constraints.
    """
    schema = load_chrome_trace_schema()
    try:
        import jsonschema
    except ImportError:  # pragma: no cover - exercised on minimal installs
        _validate_structurally(doc)
        return
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise ValueError(f"invalid Chrome trace document: {exc.message}") from exc


def _validate_structurally(doc: dict[str, Any]) -> None:
    """Dependency-free mirror of the schema's constraints."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("trace document must be an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be an array")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"traceEvents[{i}] missing required key {key!r}")
        if not isinstance(ev["name"], str) or ev["ph"] not in ("X", "i", "M", "C", "s", "t", "f"):
            raise ValueError(f"traceEvents[{i}] has a bad name/ph")
        if ev["ph"] != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"traceEvents[{i}] needs a non-negative numeric 'ts'")
        if ev["ph"] == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{i}] ('X') needs a non-negative 'dur'")
        if ev["ph"] == "C" and not isinstance(ev.get("args"), dict):
            raise ValueError(f"traceEvents[{i}] ('C') needs counter 'args'")
        if ev["ph"] in ("s", "t", "f") and not isinstance(ev.get("id"), (int, str)):
            raise ValueError(f"traceEvents[{i}] (flow) needs an 'id'")
