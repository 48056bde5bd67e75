"""One unit of a benchmark workload, in a fresh interpreter.

``run.py`` starts one of these per unit, the way a user starts one
``repro sweep`` or ``repro experiment halo`` process per command::

    python3 perfbench/unit.py WORKLOAD --seed N --trace 0|1 --size full|tiny
                              [--seconds S] [--session K] [--setup-only] [--pin]

The unit prints ``ready <CPU seconds>`` once set-up is done, then
``result <json>``; with ``--setup-only`` it stops after set-up.
``--pin`` rewrites the pinned reference of paper-sweep or halo64-fattree
from this run instead of checking against it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

REFERENCE = HERE / "reference"
SWEEP_PLATFORMS = ("skx-impi", "skx-mvapich2", "ls5-cray", "knl-impi")
HALO_PLATFORM = "skx-impi"


@contextlib.contextmanager
def traced(probe):
    """The layer probe installed for the measured part of a unit."""
    if probe is None:
        yield
        return
    probe.install()
    try:
        yield
    finally:
        probe.uninstall()


def peak_rss_mb() -> float:
    """This process's peak resident set so far."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------
def sweep_setup(args) -> dict:
    from repro.core import SweepConfig
    from repro.machine.registry import get_platform

    names = list(SWEEP_PLATFORMS)
    config = SweepConfig()
    if args.size == "tiny":
        # A sub-grid of the full sweep, so the same pinned cells check it.
        names = names[:1]
        config = config.with_sizes((992, 100000)).with_schemes(("reference", "vector"))
    # The seed only orders the platforms: cells are pure functions of
    # their specs, so the pinned reference holds for every order.
    random.Random(f"paper-sweep/{args.seed}/{args.session}").shuffle(names)
    return {"platforms": [get_platform(n) for n in names], "config": config}


def sweep_unit(state: dict, args, probe) -> dict:
    from repro.core import run_sweep
    from repro.exec import Executor

    with traced(probe):
        t0, c0 = perf_counter(), process_time()
        results = [
            run_sweep(p, state["config"], executor=Executor(jobs=1, cache=None))
            for p in state["platforms"]
        ]
        wall, cpu = perf_counter() - t0, process_time() - c0
    rss = peak_rss_mb()
    cells = {
        f"{r.platform}/{m.scheme}/{m.message_bytes}": [m.time.hex(), m.verified]
        for r in results
        for m in r.measurements
    }
    path = REFERENCE / "paper_sweep.json"
    if args.pin:
        path.write_text(json.dumps({"cells": cells}, indent=1, sort_keys=True) + "\n")
    pinned = json.loads(path.read_text())["cells"]
    failed = [key for key, value in cells.items() if pinned.get(key) != value or value[1] is False]
    return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "attempted": len(cells),
            "failed": len(failed), "problems": failed[:5]}


# ----------------------------------------------------------------------
# halo64-fattree
# ----------------------------------------------------------------------
def halo_setup(args) -> dict:
    from repro.machine.registry import get_platform
    from repro.net import make_topology

    ranks = 8 if args.size == "tiny" else 64
    # The platform and topology build, timed as set-up; the experiment
    # builds its own from the same arguments.
    topology = make_topology("fat-tree", ranks, ranks_per_node=4, placement="cyclic")
    get_platform(HALO_PLATFORM).with_topology(topology)
    return {"ranks": ranks, "quick": args.size == "tiny"}


def halo_unit(state: dict, args, probe) -> dict:
    import repro.experiments.halo as halo_module

    jobs = []

    with traced(probe):
        # Keep every job for the per-rank check; installed after the
        # probe so traced jobs still pass through its run_mpi span.
        run_mpi = halo_module.run_mpi

        def keep(*a, **k):
            job = run_mpi(*a, **k)
            jobs.append(job)
            return job

        halo_module.run_mpi = keep
        try:
            t0, c0 = perf_counter(), process_time()
            result = halo_module.run_halo_experiment(
                HALO_PLATFORM, ranks=state["ranks"], topology="fat-tree",
                quick=state["quick"],
            )
            wall, cpu = perf_counter() - t0, process_time() - c0
        finally:
            halo_module.run_mpi = run_mpi
    rss = peak_rss_mb()

    observed = {
        "passed": result.passed,
        "auto_choices": result.data["auto_choices"],
        "schemes": {
            scheme: {fabric: times[fabric].hex() for fabric in ("flat", "topology")}
            for scheme, times in result.data["schemes"].items()
        },
        "jobs": [
            {
                "virtual_time": job.virtual_time.hex(),
                "ranks": [[r.time.hex(), r.chosen] for r in job.results],
            }
            for job in jobs
        ],
    }
    key = f"{state['ranks']}{'-quick' if state['quick'] else ''}"
    path = REFERENCE / "halo.json"
    if args.pin:
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored[key] = observed
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    pinned = json.loads(path.read_text())[key]

    # A rank fails when it fails its own ghost verification, when its
    # time or its job's virtual time differs from the pin, or when the
    # experiment-level times or auto choices do.
    experiment_ok = all(
        observed[k] == pinned[k] for k in ("passed", "auto_choices", "schemes")
    ) and len(jobs) == len(pinned["jobs"])
    attempted = failed = 0
    problems = []
    for index, job in enumerate(jobs):
        pin = pinned["jobs"][index] if index < len(pinned["jobs"]) else None
        for rank, rank_result in enumerate(job.results):
            attempted += 1
            ok = (
                experiment_ok
                and pin is not None
                and pin["virtual_time"] == observed["jobs"][index]["virtual_time"]
                and pin["ranks"][rank] == observed["jobs"][index]["ranks"][rank]
                and rank_result.verified is not False
            )
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"job {index} rank {rank}")
    return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "attempted": attempted,
            "failed": failed, "problems": problems}


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def serve_setup(args) -> dict:
    from repro.serve import ServeClient, ServerThread

    from servemix import EXPECTED, Plan

    plan = Plan(args.seed, args.session)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    store = tempfile.mkdtemp(prefix="store-", dir=scratch)
    server = ServerThread(store_root=store).start()
    client = ServeClient(server.url, timeout=120.0)
    try:
        for request in plan.pool:
            resp = client.request_json("POST", "/sweep?wait=1", request.to_json())
            if resp["status"] != "done" or resp["recomputed"] != EXPECTED["read"][0]:
                raise RuntimeError(f"store warm-up failed: {resp}"[:400])
    except BaseException:
        server.stop()
        shutil.rmtree(store, ignore_errors=True)
        raise
    return {"plan": plan, "server": server, "client": client, "store": store}


def serve_teardown(state: dict) -> None:
    state["server"].stop()
    shutil.rmtree(state["store"], ignore_errors=True)


def serve_unit(state: dict, args, probe) -> dict:
    from servemix import (
        BLOCKS_PER_SECOND, check_traffic, closed_loop, grid_key, planned_totals,
        reference_fingerprints,
    )

    client, server = state["client"], state["server"]
    try:
        before = client.stats()
        with traced(probe):
            blocks = max(1, round(args.seconds * BLOCKS_PER_SECOND))
            if args.size == "tiny":
                blocks = 1
            loop = closed_loop(server.url, state["plan"], blocks=blocks)
            after = client.stats()
        rss = peak_rss_mb()
    finally:
        serve_teardown(state)

    references = reference_fingerprints(r.request for r in loop.records)
    failed = [
        r for r in loop.records
        if r.error is not None or r.status != "done" or r.cells != references[grid_key(r.request)]
    ]
    problems = list(loop.errors) + check_traffic(loop)
    delta = {
        key: after["cells"][key] - before["cells"][key]
        for key in ("reused", "recomputed", "deduped")
    }
    planned = planned_totals(loop)
    if delta != planned:
        problems.append(f"/stats cell totals {delta} differ from the plan {planned}")
    jobs_failed = after["jobs"]["failed"] - before["jobs"]["failed"]
    if jobs_failed:
        problems.append(f"/stats reports {jobs_failed} failed job(s)")
    kinds = [r.kind for r in loop.records]
    out = {
        "block_wall_s": loop.block_s,
        "block_cpu_s": loop.block_cpu_s,
        "rss_mb": rss,
        "loop_s": loop.loop_s,
        "attempted": len(loop.records),
        "failed": len(failed),
        "problems": problems + [
            f"{r.kind} request: {r.error or 'cells differ'}" for r in failed[:5]
        ],
        "traffic_ok": not problems,
        "mix": {k: kinds.count(k) for k in ("read", "write", "dedup")},
        "cells": delta,
        "read_ms": [r.latency_s * 1e3 for r in loop.records if r.kind == "read" and not r.error],
        "write_ms": [r.latency_s * 1e3 for r in loop.records if r.kind == "write" and not r.error],
    }
    if probe is not None:
        out["serve"] = serve_layer_metrics(probe, loop, before, after)
    return out


def serve_layer_metrics(probe, loop, before: dict, after: dict) -> dict:
    """The serve rows of the per-layer table, read from the daemon's
    ``/stats`` and the spans around its entry points."""
    h0 = before["metrics"].get("serve.job_seconds", {"count": 0, "sum": 0.0})
    h1 = after["metrics"]["serve.job_seconds"]
    cells = {k: after["cells"][k] - before["cells"][k] for k in ("reused", "recomputed", "deduped")}
    served = sum(cells.values())
    ok = [r for r in loop.records if r.error is None]
    server_s = [probe.server_s[r.job] for r in ok if r.job in probe.server_s]
    overhead = [
        (r.latency_s - probe.server_s[r.job]) * 1e3 for r in ok if r.job in probe.server_s
    ]
    return {
        "serve.requests": len(loop.records),
        "serve.request_errors": len(loop.records) - len(ok),
        "serve.server_request_s": statistics.median(server_s) if server_s else 0.0,
        "serve.job_s": (h1["sum"] - h0["sum"]) / max(1, h1["count"] - h0["count"]),
        "serve.cells_reused": cells["reused"],
        "serve.cells_recomputed": cells["recomputed"],
        "serve.cells_deduped": cells["deduped"],
        "serve.dedup_hit_rate": (cells["reused"] + cells["deduped"]) / served if served else 0.0,
        "serve.http_overhead_ms": statistics.median(overhead) if overhead else 0.0,
    }


# ----------------------------------------------------------------------
WORKLOADS = {
    "paper-sweep": (sweep_setup, sweep_unit),
    "halo64-fattree": (halo_setup, halo_unit),
    "serve-mixed": (serve_setup, serve_unit),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark unit.")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="nominal length of one serve-mixed session")
    parser.add_argument("--session", type=int, default=0)
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report the set-up time and stop")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (set-up includes the package import)

    setup, unit = WORKLOADS[args.workload]
    state = setup(args)
    # Process CPU seconds so far: interpreter start, import and set-up.
    print(f"ready {process_time()!r}", flush=True)
    if args.setup_only:
        if args.workload == "serve-mixed":
            serve_teardown(state)
        print("result {}", flush=True)
        return 0

    probe = None
    if args.trace:
        from probes import Probe, tiles, tiling_table

        probe = Probe()
    out = unit(state, args, probe)
    if probe is not None:
        out["layers"] = probe.metrics()
        out["layers"].update(out.pop("serve", {}))
        out["tiling"] = tiling_table(probe.tracer)
        out["tiles"] = tiles(probe.tracer)
    print("result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
