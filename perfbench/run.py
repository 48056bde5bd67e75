"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each unit of work runs in a fresh
interpreter (``unit.py``), as a user runs one ``repro`` command per
process.

Times are CPU seconds of the unit process (all its threads): on a
shared 2-vCPU virtual machine, hypervisor steal took up to a third of
the wall time, varying from minute to minute, and process CPU time
excludes steal.  Where nothing steals, wall and CPU time of these
GIL-bound workloads agree within a few percent; the report prints both.  ``setup_s`` is
the CPU time of a unit process up to its ``ready`` line (interpreter
start, ``import repro``, set-up), ``cpu_s`` that of one unit of work.

* ``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
  untraced: as many units as fit in ``--seconds`` at the pace of the
  first (serve-mixed runs three sessions of a fixed number of blocks,
  about ``--seconds / 3`` each),
  and every time is the median over the units.  ``setup_s`` is the
  median of at least three set-ups: processes that only set up fill in
  when fewer units ran.
* ``--trace 1`` spends half the time untraced and half traced, and
  prints the per-layer metrics, the layer tiling table and
  ``trace.overhead_ratio`` (traced / untraced median unit CPU time).

Every unit checks its outputs (pinned hex times for paper-sweep and
halo64-fattree, a local recompute and the planned traffic for
serve-mixed).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweep", "halo64-fattree", "serve-mixed")
SERVE_SESSIONS = 3
#: Set-ups timed per untraced run; processes that only set up fill in
#: when fewer units ran.
SETUP_SAMPLES = 3
UNIT_TIMEOUT_S = 170.0
#: No unit starts once it would likely end this long after the run
#: started, so a run on a host slowed down two- or threefold still ends
#: well within 180 s.
DEADLINE_S = 100.0
STARTED = perf_counter()


class UnitError(RuntimeError):
    pass


def spawn(workload: str, seed: int, *, trace: int, size: str, seconds: float,
          session: int, setup_only: bool = False) -> dict:
    """Run one unit in a fresh interpreter; return its result with its
    set-up CPU time (``setup_s``) and set-up wall time seen from here."""
    cmd = [
        sys.executable, str(HERE / "unit.py"), workload,
        "--seed", str(seed), "--trace", str(trace), "--size", size,
        "--seconds", repr(seconds), "--session", str(session),
    ] + (["--setup-only"] if setup_only else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(UNIT_TIMEOUT_S, proc.kill)
    killer.start()
    setup_s = setup_wall_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith("ready ") and setup_s is None:
                setup_wall_s = perf_counter() - t0
                setup_s = float(line.split()[1])
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or result is None or setup_s is None:
        raise UnitError(f"{workload} unit (session {session}) exited with {proc.returncode}")
    result["setup_s"] = setup_s
    result["setup_wall_s"] = setup_wall_s
    return result


def run_units(workload: str, seed: int, *, trace: int, size: str, budget: float,
              first_session: int, seconds: float = 0.0,
              count: int | None = None) -> list[dict]:
    """Units one after another: ``count`` of them when given, else as
    many as fit in ``budget`` seconds at the pace of the first (one when
    tiny).  No unit starts once it would likely end past ``DEADLINE_S``
    into the run."""
    def one(index: int) -> dict:
        return spawn(workload, seed, trace=trace, size=size, seconds=seconds,
                     session=first_session + index)

    t0 = perf_counter()
    units = [one(0)]
    pace = perf_counter() - t0
    if size == "tiny":
        count = 1
    elif count is None:
        count = max(1, round(budget / pace))
    while len(units) < count and perf_counter() - STARTED + pace < DEADLINE_S:
        units.append(one(len(units)))
    return units


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def unit_times(workload: str, units: list[dict], clock: str) -> list[float]:
    """Unit times on ``clock`` ("cpu" or "wall"): one per sweep or
    experiment, one per serve-mixed block."""
    if workload == "serve-mixed":
        return [b for u in units for b in u[f"block_{clock}_s"]]
    return [u[f"{clock}_s"] for u in units]


def unit_time(workload: str, units: list[dict], clock: str = "cpu") -> float:
    return statistics.median(unit_times(workload, units, clock))


def serve_latencies(units: list[dict]) -> dict[str, float]:
    reads = [x for u in units for x in u["read_ms"]]
    writes = [x for u in units for x in u["write_ms"]]
    loop = sum(u["loop_s"] for u in units)
    return {
        "serve.read_p50_ms": statistics.median(reads),
        "serve.read_p95_ms": percentile(reads, 0.95),
        "serve.read_samples": len(reads),
        "serve.write_p50_ms": statistics.median(writes),
        "serve.write_samples": len(writes),
        "serve.requests_per_s": sum(u["attempted"] for u in units) / loop,
    }


def report(workload: str, untraced: list[dict], traced: list[dict],
           setups: list[dict]) -> list[str]:
    """The human-readable table printed above the JSON line."""
    units = untraced + traced
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    def median_of(clock: str) -> str:
        times = unit_times(workload, untraced, clock)
        if workload == "serve-mixed":
            return f"{len(times)} blocks"
        return ", ".join(f"{x:.3f}" for x in times)

    lines = [
        f"{workload}: {len(untraced)} untraced unit(s), {len(traced)} traced",
        f"  setup_s      {statistics.median(u['setup_s'] for u in setups):.4f} s CPU, "
        f"{statistics.median(u['setup_wall_s'] for u in setups):.4f} s wall "
        f"(median of {len(setups)})",
        f"  cpu_s        {unit_time(workload, untraced):.4f} s (median of {median_of('cpu')})",
        f"  wall_s       {unit_time(workload, untraced, 'wall'):.4f} s "
        f"(median of {median_of('wall')})",
        f"  peak_rss_mb  {statistics.median(u['rss_mb'] for u in untraced):.1f} MB",
        f"  error_rate   {failed / attempted:.4g} ({failed} of {attempted} checked)",
    ]
    if workload == "serve-mixed":
        lat = serve_latencies(untraced)
        n95 = lat["serve.read_samples"] - math.ceil(0.95 * lat["serve.read_samples"])
        lines += [
            f"  read_p50_ms  {lat['serve.read_p50_ms']:.3f} ms "
            f"(n={lat['serve.read_samples']})",
            f"  read_p95_ms  {lat['serve.read_p95_ms']:.3f} ms ({n95} samples above it)",
            f"  write_p50_ms {lat['serve.write_p50_ms']:.3f} ms "
            f"(n={lat['serve.write_samples']})",
            f"  requests_per_s {lat['serve.requests_per_s']:.2f} 1/s (2 closed-loop clients)",
        ]
        for u in units:
            mix = u["mix"]
            lines.append(
                f"  realized mix read:write:dedup = {mix['read']}:{mix['write']}:{mix['dedup']}"
                f" requests; cells reused/recomputed/deduped = "
                f"{u['cells']['reused']}/{u['cells']['recomputed']}/{u['cells']['deduped']}"
                f" ({'matches' if u['traffic_ok'] else 'DIFFERS FROM'} the plan)"
            )
    for u in traced:
        lines += ["  layer tiling of one traced unit:"] + u["tiling"]
    for u in units:
        lines += [f"  problem: {p}" for p in u["problems"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one unit per phase on a small grid (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    w = args.workload
    tiny = args.size == "tiny"
    phase = args.seconds / 2 if args.trace else args.seconds
    # serve-mixed units are sessions of a fixed length; the others are
    # one sweep or experiment each.
    sessions = 1 if tiny or args.trace else SERVE_SESSIONS
    fixed = {"count": sessions, "seconds": phase / sessions} if w == "serve-mixed" else {}
    try:
        untraced = run_units(w, args.seed, trace=0, size=args.size, budget=phase,
                             first_session=0, **fixed)
        traced = run_units(w, args.seed, trace=1, size=args.size, budget=phase,
                           first_session=len(untraced), **fixed) if args.trace else []
        setups = list(untraced)
        while not (tiny or args.trace) and len(setups) < SETUP_SAMPLES:
            setups.append(spawn(w, args.seed, trace=0, size=args.size, seconds=0.0,
                                session=len(setups), setup_only=True))
    except UnitError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        # serve-mixed stores; a unit killed at its timeout leaves its own.
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)

    values: dict[str, float] = {}
    if args.trace:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(u["layers"][name] for u in traced)
        if w == "serve-mixed":
            values.update(serve_latencies(untraced))
        else:  # no daemon runs here: its rows read zero
            values.update((m["name"], 0) for m in wanted if m["name"].startswith("serve."))
        values["trace.overhead_ratio"] = unit_time(w, traced) / unit_time(w, untraced)
    else:
        values = {
            "setup_s": statistics.median(u["setup_s"] for u in setups),
            "cpu_s": unit_time(w, untraced),
            "peak_rss_mb": statistics.median(u["rss_mb"] for u in untraced),
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: {w} does not produce {missing}", file=sys.stderr)
        return 1

    units = untraced + traced
    failed = sum(u["failed"] for u in units)
    correct = (
        failed == 0
        and all(not u["problems"] for u in units)
        and all(u.get("tiles", True) for u in units)
    )
    for line in report(w, untraced, traced, setups):
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(u["attempted"] for u in units),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
