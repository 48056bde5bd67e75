"""The serve-mixed workload: a seeded request plan and a closed loop of
two clients against an in-process sweep daemon.

The loop runs in blocks.  In each block every client sends its own
shuffled list of ``READS_PER_BLOCK`` reads and one write, then both
clients meet at a barrier and send the same fresh grid at once (a dedup
pair), so one job executes the grid and the other joins its flight.

* A read is a 24-cell grid (3 schemes x 8 sizes) of the pool warmed
  into the store during set-up: every cell is a store hit.
* A write is a fresh ``eager_limit`` override of 2 cells: both are
  recomputed and stored.
* A dedup grid is a fresh override of 1 cell that takes long enough
  (100 flushed iterations, 35 ms or more on a 2-vCPU host) for the
  partner's request to reach the daemon while it is still in flight;
  the two submissions of a pair land within a few milliseconds.

Eager-limit overrides are unique within a session, so no write or dedup
grid is ever found in the store.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from dataclasses import dataclass, field
from time import perf_counter, process_time

PLATFORMS = ("ideal", "knl-impi", "ls5-cray", "skx-impi", "skx-mvapich2")
READ_SIZES = (992, 3168, 10000, 31616, 100000, 316224, 1000000, 3162272)
READ_SCHEMES = 3
GRIDS_PER_PLATFORM = 1
FRESH_SIZES = (992, 10000, 100000)
READS_PER_BLOCK = 12
EAGER_BASE = 20000
#: Blocks per second of session.  A session runs a fixed number of
#: blocks, not a fixed time: the daemon keeps every job it served, so a
#: session's memory grows with the requests it completed, and a fixed
#: count keeps that (and every count) the same from run to run.  A
#: block takes about 0.3 s on 2 vCPUs.
BLOCKS_PER_SECOND = 3

#: (reused, recomputed, deduped) each request kind must report.
EXPECTED = {
    "read": (len(READ_SIZES) * READ_SCHEMES, 0, 0),
    "write": (0, 2, 0),
}
DEDUP_CELLS = 1


class Plan:
    """The seeded request stream of one session."""

    def __init__(self, seed: int, session: int):
        from repro.core.schemes import PAPER_ORDER

        self._schemes = PAPER_ORDER
        self._prefix = f"serve-mixed/{seed}/{session}"
        rng = random.Random(f"{self._prefix}/pool")
        self.pool = []
        for platform in PLATFORMS:
            # Disjoint scheme sets, so no two pool grids share a cell.
            picked = rng.sample(self._schemes, READ_SCHEMES * GRIDS_PER_PLATFORM)
            for g in range(GRIDS_PER_PLATFORM):
                group = set(picked[g * READ_SCHEMES:(g + 1) * READ_SCHEMES])
                schemes = tuple(s for s in self._schemes if s in group)
                self.pool.append(
                    self._request(platform, None, READ_SIZES, schemes, iterations=3, flush=False)
                )

    def _pick(self, rng: random.Random, k: int) -> tuple[str, ...]:
        chosen = set(rng.sample(self._schemes, k))
        return tuple(s for s in self._schemes if s in chosen)

    @staticmethod
    def _request(platform, eager, sizes, schemes, *, iterations, flush):
        from repro.serve import PlatformSpec, SweepRequest

        return SweepRequest(
            platforms=(PlatformSpec(name=platform, eager_limit=eager),),
            sizes=tuple(sizes),
            schemes=tuple(schemes),
            iterations=iterations,
            flush=flush,
        )

    def _fresh(self, rng: random.Random, eager: int, nschemes: int, iterations: int):
        return self._request(
            rng.choice(PLATFORMS), eager, (rng.choice(FRESH_SIZES),),
            self._pick(rng, nschemes), iterations=iterations, flush=True,
        )

    def client_block(self, client: int, block: int) -> list[tuple[str, object]]:
        rng = random.Random(f"{self._prefix}/client{client}/block{block}")
        items = [("read", rng.choice(self.pool)) for _ in range(READS_PER_BLOCK)]
        items.append(("write", self._fresh(rng, EAGER_BASE + 3 * block + client, 2, 10)))
        rng.shuffle(items)
        return items

    def dedup(self, block: int):
        rng = random.Random(f"{self._prefix}/dedup/block{block}")
        return self._fresh(rng, EAGER_BASE + 3 * block + 2, 1, 100)

    def fingerprint(self) -> str:
        """A digest of the stream's first blocks (self-test: seeds differ)."""
        parts = [str(r.to_json()) for r in self.pool]
        for block in range(2):
            parts += [str(r.to_json()) for c in (0, 1) for _, r in self.client_block(c, block)]
            parts.append(str(self.dedup(block).to_json()))
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def cells_fingerprint(cells) -> str:
    """Order-independent digest of ``(digest, times, virtual time,
    events, verified)`` per cell, in the wire form's hex floats."""
    h = hashlib.sha256()
    for digest, cell in sorted(cells):
        h.update(
            f"{digest}|{','.join(cell['times_hex'])}|{cell['virtual_time_hex']}"
            f"|{cell['events']}|{bool(cell['verified'])}\n".encode()
        )
    return h.hexdigest()


@dataclass
class Record:
    kind: str
    client: int
    block: int
    request: object
    latency_s: float
    job: str | None = None
    status: str | None = None
    counts: tuple[int, int, int] | None = None
    cells: str | None = None
    error: str | None = None


@dataclass
class LoopResult:
    records: list[Record] = field(default_factory=list)
    block_s: list[float] = field(default_factory=list)
    block_cpu_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    errors: list[str] = field(default_factory=list)


def _issue(client, kind: str, request, block: int, index: int) -> Record:
    from repro.serve import ServeError

    body = request.to_json()
    t0 = perf_counter()
    try:
        resp = client.request_json("POST", "/sweep?wait=1", body)
    except ServeError as exc:
        return Record(kind, index, block, request, perf_counter() - t0, error=str(exc))
    latency = perf_counter() - t0
    return Record(
        kind, index, block, request, latency,
        job=resp.get("job"),
        status=resp.get("status"),
        counts=(resp.get("reused"), resp.get("recomputed"), resp.get("deduped")),
        cells=cells_fingerprint(resp.get("cells", {}).items()),
    )


def closed_loop(url: str, plan: Plan, *, blocks: int) -> LoopResult:
    """Two clients, each sending its next request only after the
    previous one completed, for ``blocks`` blocks."""
    from repro.serve import ServeClient

    out = LoopResult()
    marks: list[tuple[float, float]] = []  # (wall, process CPU) per boundary
    state = {"block": -1, "go": True}

    def at_block_boundary() -> None:
        marks.append((perf_counter(), process_time()))
        state["block"] += 1
        state["go"] = state["block"] < blocks

    boundary = threading.Barrier(2, action=at_block_boundary)
    pair = threading.Barrier(2)
    records: list[list[Record]] = [[], []]

    def drive(index: int) -> None:
        client = ServeClient(url, timeout=120.0)
        try:
            while True:
                boundary.wait(timeout=300)
                if not state["go"]:
                    return
                block = state["block"]
                for kind, request in plan.client_block(index, block):
                    records[index].append(_issue(client, kind, request, block, index))
                pair.wait(timeout=300)
                records[index].append(_issue(client, "dedup", plan.dedup(block), block, index))
        except threading.BrokenBarrierError:
            return
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            out.errors.append(f"client {index}: {type(exc).__name__}: {exc}")
            boundary.abort()
            pair.abort()

    threads = [threading.Thread(target=drive, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.loop_s = marks[-1][0] - marks[0][0]
    out.block_s = [b[0] - a[0] for a, b in zip(marks, marks[1:])]
    out.block_cpu_s = [b[1] - a[1] for a, b in zip(marks, marks[1:])]
    out.records = records[0] + records[1]
    return out


def grid_key(request) -> str:
    return json.dumps(request.to_json(), sort_keys=True)


def reference_fingerprints(requests) -> dict[str, str]:
    """The local result of every distinct grid, by :func:`grid_key`:
    the spec compilation and executor ``run_sweep`` uses, over two
    worker processes (the run has ended, so this is not timed)."""
    from repro.exec import Executor

    grids: dict[str, list] = {}
    for request in requests:
        key = grid_key(request)
        if key not in grids:
            grids[key] = list(request.iter_specs())
    specs = [spec for grid in grids.values() for spec in grid]
    outcomes = iter(Executor(jobs=2, cache=None).execute_batch(specs))
    out: dict[str, str] = {}
    for key, grid in grids.items():
        # Built here, not with the daemon's encode_cell, so a wire
        # encoding fault cannot cancel out.
        cells = [
            (spec.digest, {
                "times_hex": [t.hex() for t in outcome.times],
                "virtual_time_hex": outcome.virtual_time.hex(),
                "events": outcome.events,
                "verified": outcome.verified,
            })
            for spec, (outcome, _) in zip(grid, outcomes)
        ]
        out[key] = cells_fingerprint(cells)
    return out


def check_traffic(loop: LoopResult) -> list[str]:
    """Each job's realized reused/recomputed/deduped against the plan."""
    problems = []
    pairs: dict[int, list[tuple]] = {}
    for rec in loop.records:
        if rec.error is not None:
            continue
        if rec.kind == "dedup":
            pairs.setdefault(rec.block, []).append(rec.counts)
        elif rec.counts != EXPECTED[rec.kind]:
            problems.append(
                f"{rec.kind} in block {rec.block} (client {rec.client}) realized "
                f"{rec.counts}, planned {EXPECTED[rec.kind]}"
            )
    for block, counts in sorted(pairs.items()):
        planned = [(0, 0, DEDUP_CELLS), (0, DEDUP_CELLS, 0)]
        if len(counts) == 2 and sorted(counts) != planned:
            problems.append(f"dedup pair in block {block} realized {counts}, planned {planned}")
    return problems


def planned_totals(loop: LoopResult) -> dict[str, int]:
    """The /stats cell totals the completed requests must add up to."""
    totals = {"reused": 0, "recomputed": 0, "deduped": 0}
    for rec in loop.records:
        if rec.error is not None:
            continue
        if rec.kind == "dedup":
            totals["recomputed"] += DEDUP_CELLS / 2
            totals["deduped"] += DEDUP_CELLS / 2
        else:
            for key, value in zip(("reused", "recomputed", "deduped"), EXPECTED[rec.kind]):
                totals[key] += value
    return {k: int(v) for k, v in totals.items()}
