"""The built-in regression gates.

Each gate is a :class:`~.gates.GateSpec` run by ``repro perf gate`` /
``repro perf record``.  Registered gates:

``tracing-overhead``
    Zero-cost-when-off contract of the flight recorder *and* host
    telemetry, as exact counts (:func:`zero_cost_check`): an untraced
    workload makes no call into the disabled recorder, records no wait
    edge and reads no host clock.
``plan-speedup``
    The TransferPlan cache must keep paying for itself: a repeated
    pack/send workload timed with the cache on against the same body
    under ``plan_cache_capacity(0)``, in one process.
``exec-speedup``
    The exec layer's two wall-clock wins (``--jobs`` parallelism, warm
    result cache) plus byte-identity across all four run modes.  The
    parallel check is skipped (never faked) on a single-CPU host, and
    the parallel metrics are then marked informational.
``contention-overhead``
    The flat-topology bypass: 64 golden cells bit-identical through a
    cold and a warm store, and the bypass's wall-clock cost bounded.
``shm-overhead``
    The transport refactor's no-regression contract: an all-on-node
    64-rank halo must ride the shm transport, and its wall-clock must
    stay within noise of the pre-refactor fabric path.
``serve-throughput``
    The sweep daemon under concurrent load: N clients submitting
    colliding grids must hit the in-flight dedup / result-store path
    (hit-rate floor), keep p99 request latency bounded, finish every
    request, and leave the daemon healthy.

Workload shapes and correctness bounds are constants.  The settable
options are ``<ns>.repeats`` for every gate, plus the few keys a gate
lists in its checks' ``option`` or its ``options`` field
(``exec.min_cache_speedup``, ``plan.min_speedup``, ...).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from ..obs import host as _host
from .gates import GateCheck, GateContext, GateSpec, register

__all__ = ["ZERO_COST_SIZES", "zero_cost_check"]


# ======================================================================
# tracing-overhead
# ======================================================================
#: The zero-cost check's message sizes on skx-impi: one eager, one
#: rendezvous (its eager limit is 64 KiB).
ZERO_COST_SIZES = (4_096, 1_000_000)


def zero_cost_check() -> dict[str, float]:
    """Run an untraced workload and count what tracing-off must never do.

    The workload is every paper scheme at :data:`ZERO_COST_SIZES`
    through the exec layer into a fresh result store, plus a 16-rank
    fat-tree halo (the flow engine).  Returns three counts; the
    zero-cost-when-off contract holds when all are 0:

    * ``recorder_calls`` — calls into any :class:`NullRecorder` method
      (every site must guard on ``enabled`` before recording);
    * ``wait_edges`` — wait-for edges recorded by any ``SpanRecorder``
      (an untraced run must not carry an enabled recorder);
    * ``clock_reads`` — reads of ``repro.obs.host._now``, the funnel
      every host timestamp goes through (host telemetry is off).

    The counters patch the classes for the duration of the call, so
    host telemetry must be off when it starts.
    """
    from ..core import PAPER_ORDER, TimingPolicy, strided_for_bytes
    from ..core.halo import HaloSpec, halo_program
    from ..exec import CellSpec, Executor, ResultStore
    from ..machine import get_platform
    from ..mpi.runtime import run_mpi
    from ..net import make_topology
    from ..obs import NullRecorder, SpanRecorder
    from ..obs import host as host_mod

    if host_mod.active is not None:
        raise RuntimeError("zero_cost_check needs host telemetry off")
    counts = {"recorder_calls": 0, "wait_edges": 0, "clock_reads": 0}
    targets = [
        (NullRecorder, name, "recorder_calls")
        for name, attr in vars(NullRecorder).items()
        if callable(attr) and not name.startswith("__")
    ]
    targets += [
        (SpanRecorder, "record_wait_edge", "wait_edges"),
        (host_mod, "_now", "clock_reads"),
    ]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in targets]

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for (owner, name, key), (_, _, fn) in zip(targets, saved):
        setattr(owner, name, counting(fn, key))
    try:
        platform = get_platform("skx-impi")
        policy = TimingPolicy(iterations=2, flush=True)
        specs = [
            CellSpec(scheme=key, layout=strided_for_bytes(nbytes),
                     platform=platform, policy=policy, materialize=False)
            for key in PAPER_ORDER
            for nbytes in ZERO_COST_SIZES
        ]
        with tempfile.TemporaryDirectory(prefix="zero-cost-") as tmp:
            Executor(cache=ResultStore(tmp)).run_batch(specs)
        topo = make_topology("fat-tree", 16, ranks_per_node=4, placement="cyclic")
        halo = halo_program(HaloSpec(nx=32, ny=16, ghost=2, iterations=1))
        run_mpi(halo, nranks=16, platform=platform.with_topology(topo))
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return {key: float(value) for key, value in counts.items()}


#: The gate's subprocess body: the check's counts as one JSON line.
_ZERO_COST_MAIN = (
    "import json; from repro.perf.workloads import zero_cost_check; "
    "print(json.dumps(zero_cost_check()))"
)


def _tracing_measure(ctx: GateContext) -> dict[str, float]:
    """:func:`zero_cost_check` in a fresh interpreter: ``run_gate``
    captures host telemetry around this call, so in-process every
    instrumented site would read the clock."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2]))
    env.pop(_host.ENV_VAR, None)
    out = subprocess.run(
        [sys.executable, "-c", _ZERO_COST_MAIN],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


register(
    GateSpec(
        name="tracing-overhead",
        title="flight recorder and host telemetry are zero-cost when off",
        ns="tracing",
        measure=_tracing_measure,
        describe=lambda ctx: {
            "workload": f"8 untraced schemes x {list(ZERO_COST_SIZES)} B through "
            "a fresh store, plus a 16-rank fat-tree halo; calls counted",
        },
        checks=(
            GateCheck(
                name="recorder-calls",
                metric="recorder_calls",
                op="<=",
                threshold=0.0,
            ),
            GateCheck(
                name="wait-edges",
                metric="wait_edges",
                op="<=",
                threshold=0.0,
            ),
            GateCheck(
                name="host-clock-reads",
                metric="clock_reads",
                op="<=",
                threshold=0.0,
            ),
        ),
    )
)


# ======================================================================
# plan-speedup
# ======================================================================
def _plan_workload():
    """The hot loop the plan cache exists for: many calls over one
    (datatype, count) pair.  Without the cache every call re-compiles
    the plan (re-flattens and re-summarizes the layout)."""
    import numpy as np

    from ..mpi import DOUBLE, make_vector, run_mpi
    from ..mpi.datatypes import pack_bytes

    nblocks, count, pack_calls, sends = 512, 4, 400, 200
    vec = make_vector(nblocks, 1, 2, DOUBLE).commit()
    src = np.arange(2 * nblocks * count, dtype=np.float64)
    dst = np.zeros(nblocks * count, dtype=np.float64)

    def main(comm):
        if comm.rank == 0:
            for tag in range(sends):
                comm.Send(src, dest=1, tag=tag, count=count, datatype=vec)
        else:
            buf = np.empty(nblocks * count, dtype=np.float64)
            for tag in range(sends):
                comm.Recv(buf, source=0, tag=tag)

    def once():
        for _ in range(pack_calls):
            pack_bytes(src, vec, count, dst)
        run_mpi(main, 2, "skx-impi")

    return once


def _plan_best(once, cache_on: bool) -> float:
    """Best-of-5 wall seconds of ``once`` after one warm-up call, with
    the shared plan cache at its default bound or disabled."""
    from ..mpi.datatypes import plan_cache_capacity

    with nullcontext() if cache_on else plan_cache_capacity(0):
        once()
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            once()
            times.append(time.perf_counter() - t0)
    return min(times)


def _plan_measure(ctx: GateContext) -> dict[str, float]:
    """One cache-off/cache-on pair; the leg order alternates between
    repeats so drifting load biases neither side."""
    once = ctx.scratch.setdefault("plan_once", _plan_workload())
    pair = ctx.scratch["plan_pairs"] = ctx.scratch.get("plan_pairs", 0) + 1
    order = (False, True) if pair % 2 else (True, False)
    seconds = {cache_on: _plan_best(once, cache_on) for cache_on in order}
    t_off, t_on = seconds[False], seconds[True]
    return {
        "cache_off_seconds": t_off,
        "cache_on_seconds": t_on,
        "speedup": t_off / t_on,
    }


register(
    GateSpec(
        name="plan-speedup",
        title="TransferPlan cache keeps paying for itself",
        ns="plan",
        measure=_plan_measure,
        default_repeats=5,
        describe=lambda ctx: {
            "workload": "repeated derived-type pack_bytes + Send over one "
            "(datatype, count) pair, cache off vs on, best of 5 each"
        },
        checks=(
            GateCheck(
                name="plan-cache-speedup",
                metric="speedup",
                op=">=",
                threshold=1.5,
                option="plan.min_speedup",
            ),
        ),
    )
)


# ======================================================================
# exec-speedup
# ======================================================================
#: The exec gate's sweep (every scheme at two sizes on one platform)
#: and the worker count of its parallel leg.
EXEC_PLATFORM = "skx-impi"
EXEC_SIZES = (500_000, 1_000_000)
EXEC_ITERATIONS = 20
EXEC_JOBS = 2


def _exec_config():
    from ..core import SweepConfig, TimingPolicy

    return SweepConfig(
        sizes=EXEC_SIZES,
        policy=TimingPolicy(iterations=EXEC_ITERATIONS, flush=True),
    )


def _exec_skip_parallel(ctx: GateContext) -> str | None:
    if ctx.cpus < 2:
        return f"single-CPU host ({ctx.cpus} usable CPU)"
    return None


def _exec_measure(ctx: GateContext) -> dict[str, float]:
    """One interleaved serial/parallel/cold-cache/warm-cache pass, plus
    the byte-identity contract across all four sweeps."""
    from ..core import run_sweep
    from ..exec import Executor, ResultStore

    config = _exec_config()

    def timed(executor: Executor):
        t0 = time.perf_counter()
        sweep = run_sweep(EXEC_PLATFORM, config, executor=executor)
        return time.perf_counter() - t0, sweep

    with tempfile.TemporaryDirectory(prefix="exec-bench-") as cache_root:
        store = ResultStore(cache_root)
        t_serial, s_serial = timed(Executor(jobs=1))
        t_parallel, s_parallel = timed(Executor(jobs=EXEC_JOBS))
        t_cold, s_cold = timed(Executor(jobs=1, cache=store))
        t_warm, s_warm = timed(Executor(jobs=1, cache=store))

    baseline = s_serial.to_dict()
    identical = all(
        sweep.to_dict() == baseline for sweep in (s_parallel, s_cold, s_warm)
    )
    return {
        "serial_seconds": t_serial,
        "parallel_seconds": t_parallel,
        "cold_cache_seconds": t_cold,
        "warm_cache_seconds": t_warm,
        "parallel_speedup": t_serial / t_parallel,
        "cache_speedup": t_serial / t_warm,
        "cache_overhead": t_cold / t_serial,
        "sweeps_identical": 1.0 if identical else 0.0,
    }


def _exec_describe(ctx: GateContext) -> dict[str, Any]:
    config = _exec_config()
    return {
        "workload": f"{len(config.schemes)} schemes x {list(config.sizes)} B, "
        f"{config.policy.iterations} iterations, flushed, materialized",
        "platform": EXEC_PLATFORM,
        "jobs": EXEC_JOBS,
        "cpus": ctx.cpus,
    }


register(
    GateSpec(
        name="exec-speedup",
        title="exec layer: parallel and warm-cache wall-clock wins",
        ns="exec",
        measure=_exec_measure,
        describe=_exec_describe,
        default_repeats=3,
        checks=(
            GateCheck(
                name="identity",
                metric="sweeps_identical",
                op=">=",
                threshold=1.0,
            ),
            GateCheck(
                name="parallel",
                metric="parallel_speedup",
                op=">=",
                threshold=1.1,
                skip=_exec_skip_parallel,
                informational=("parallel_seconds",),
            ),
            GateCheck(
                name="cache",
                metric="cache_speedup",
                op=">=",
                threshold=10.0,
                option="exec.min_cache_speedup",
            ),
        ),
    )
)


# ======================================================================
# contention-overhead
# ======================================================================
def _contention_layouts():
    from ..core import StridedLayout

    return {
        "small-2KB": StridedLayout(nblocks=256, blocklen=1, stride=2),
        "mid-1MB": StridedLayout(nblocks=125_000, blocklen=1, stride=2),
    }


def _golden_specs(with_topology: bool, *, small_only: bool = False):
    from ..core import PAPER_ORDER, TimingPolicy
    from ..exec import CellSpec
    from ..machine import get_platform
    from ..net import flat

    policy = TimingPolicy(iterations=3, flush=True)  # matches the capture run
    layouts = _contention_layouts()
    if small_only:
        layouts = {"small-2KB": layouts["small-2KB"]}
    specs = []
    for pname in ("skx-impi", "skx-mvapich2", "ls5-cray", "knl-impi"):
        platform = get_platform(pname)
        if with_topology:
            platform = platform.with_topology(flat())
        for lname, layout in layouts.items():
            for key in PAPER_ORDER:
                specs.append(
                    (
                        f"{pname}/{lname}/{key}",
                        CellSpec(
                            scheme=key,
                            layout=layout,
                            platform=platform,
                            policy=policy,
                            materialize=False,
                        ),
                    )
                )
    return specs


def _count_golden_mismatches(executor, golden) -> int:
    named = _golden_specs(with_topology=True)
    results = executor.run_batch([spec for _, spec in named])
    bad = 0
    for (name, _), cell in zip(named, results):
        got = {
            "time": cell.time.hex(),
            "virtual_time": cell.virtual_time.hex(),
            "events": cell.events,
        }
        if got != golden[name]:
            bad += 1
    return bad


def _contention_goldens(ctx: GateContext) -> dict[str, float]:
    """Cold + warm golden passes (expensive — run once per gate, cached
    in the scratch dict across the timing repeats)."""
    cached = ctx.scratch.get("goldens")
    if cached is not None:
        return cached
    from ..exec import Executor, ResultStore

    golden = json.loads(
        (ctx.repo / "tests" / "core" / "golden_scheme_times.json").read_text()
    )
    with tempfile.TemporaryDirectory(prefix="contention-store-") as tmp:
        store = ResultStore(tmp)
        cold = Executor(cache=store)
        cold_bad = _count_golden_mismatches(cold, golden)
        warm = Executor(cache=store)
        warm_bad = _count_golden_mismatches(warm, golden)
        result = {
            "golden_mismatches": float(cold_bad + warm_bad),
            "unexpected_cold_hits": float(cold.cells_cached),
            "warm_reexecutions": float(warm.cells_executed),
            "golden_cells": float(len(golden)),
        }
    ctx.scratch["goldens"] = result
    return result


def _contention_time_sweep(with_topology: bool) -> float:
    from ..exec import Executor

    named = _golden_specs(with_topology, small_only=True)
    executor = Executor()  # no cache: every cell executes
    t0 = time.perf_counter()
    executor.run_batch([spec for _, spec in named])
    return time.perf_counter() - t0


def _contention_measure(ctx: GateContext) -> dict[str, float]:
    metrics = dict(_contention_goldens(ctx))
    t_bare = _contention_time_sweep(with_topology=False)
    t_flat = _contention_time_sweep(with_topology=True)
    metrics.update(
        bare_seconds=t_bare, flat_seconds=t_flat, overhead=t_flat / t_bare
    )
    return metrics


register(
    GateSpec(
        name="contention-overhead",
        title="flat-topology bypass: bit-identical goldens, bounded cost",
        ns="contention",
        measure=_contention_measure,
        default_repeats=5,
        describe=lambda ctx: {
            "workload": "64 golden cells (cold + warm store) and the "
            "small-layout sweep with/without the flat topology"
        },
        checks=(
            GateCheck(
                name="goldens",
                metric="golden_mismatches",
                op="<=",
                threshold=0.0,
                informational=("unexpected_cold_hits", "warm_reexecutions"),
            ),
            GateCheck(
                name="cold-store-misses",
                metric="unexpected_cold_hits",
                op="<=",
                threshold=0.0,
            ),
            GateCheck(
                name="warm-store-hits",
                metric="warm_reexecutions",
                op="<=",
                threshold=0.0,
            ),
            GateCheck(
                name="bypass-overhead",
                metric="overhead",
                op="<=",
                threshold=1.2,
                option="contention.max_overhead",
            ),
        ),
    )
)


# ======================================================================
# shm-overhead
# ======================================================================
def _shm_halo_setup():
    """The all-on-node halo: every rank of the job on one node, so all
    ring faces ride the shm transport when the model is attached and
    the (pre-refactor) fabric path when it is not."""
    from ..core.halo import HaloSpec
    from ..machine import get_platform
    from ..machine.network import default_shm_model
    from ..net import make_topology

    nranks = 64
    spec = HaloSpec(nx=64, ny=32, ghost=2, iterations=2)
    topo = make_topology(
        "fat-tree", nranks, ranks_per_node=nranks, placement="block"
    )
    plat_net = get_platform("skx-impi").with_topology(topo)
    return nranks, spec, plat_net, plat_net.with_shm(default_shm_model())


def _shm_time_halo(spec, nranks: int, platform) -> tuple[float, int]:
    """(wall seconds, shm sends) of one halo job on ``platform``."""
    from ..core.halo import halo_program
    from ..mpi.runtime import run_mpi

    program = halo_program(spec)
    t0 = time.perf_counter()
    job = run_mpi(program, nranks=nranks, platform=platform)
    elapsed = time.perf_counter() - t0
    return elapsed, int(job.metrics.counter("p2p.shm_sends").value)


def _shm_measure(ctx: GateContext) -> dict[str, float]:
    nranks, spec, plat_net, plat_shm = _shm_halo_setup()
    t_net, net_shm_sends = _shm_time_halo(spec, nranks, plat_net)
    t_shm, shm_sends = _shm_time_halo(spec, nranks, plat_shm)
    return {
        "network_seconds": t_net,
        "shm_seconds": t_shm,
        "overhead": t_shm / t_net,
        "shm_sends": float(shm_sends),
        "network_shm_sends": float(net_shm_sends),
    }


register(
    GateSpec(
        name="shm-overhead",
        title="shm transport: exercised, bounded halo cost",
        ns="shm",
        measure=_shm_measure,
        default_repeats=3,
        describe=lambda ctx: {
            "workload": "an all-on-node 64-rank halo with/without the "
            "shm transport"
        },
        checks=(
            GateCheck(
                name="halo-overhead",
                metric="overhead",
                op="<=",
                threshold=1.3,
            ),
            GateCheck(
                name="shm-exercised",
                metric="shm_sends",
                op=">=",
                threshold=1.0,
                informational=("network_shm_sends",),
            ),
        ),
    )
)


# ======================================================================
# serve-throughput
# ======================================================================
#: Concurrent clients, and the synchronized rounds each one submits.
SERVE_CLIENTS, SERVE_ROUNDS = 4, 3


def _serve_requests(rounds: int) -> list:
    """The per-round request bodies: a shared hot grid in round 0, then
    a perturbed-eager-limit variant per later round — every round prices
    fresh digests while all clients inside a round collide on the same
    ones."""
    from ..serve import PlatformSpec, SweepRequest

    requests = []
    for index in range(rounds):
        eager = None if index == 0 else 7000 + index
        requests.append(
            SweepRequest(
                platforms=(PlatformSpec(name="ideal", eager_limit=eager),),
                sizes=(2048, 8192),
                schemes=("reference", "copying", "vector"),
                iterations=2,
                flush=False,
            )
        )
    return requests


def _serve_measure(ctx: GateContext) -> dict[str, float]:
    import threading

    from ..serve import ServeClient, ServerThread

    clients = SERVE_CLIENTS
    requests = _serve_requests(SERVE_ROUNDS)
    barrier = threading.Barrier(clients)
    lock = threading.Lock()
    latencies: list[float] = []
    failures: list[str] = []

    tmp = tempfile.mkdtemp(prefix="repro-serve-gate-")
    try:
        with ServerThread(store_root=tmp) as server:

            def drive() -> None:
                client = ServeClient(server.url, timeout=120.0)
                for request in requests:
                    try:
                        # Synchronised release: all clients fire the
                        # round's request together, so the daemon sees
                        # genuinely concurrent identical submissions.
                        barrier.wait(timeout=60.0)
                        t0 = time.perf_counter()
                        client.request_json(
                            "POST", "/sweep?wait=1", request.to_json()
                        )
                        elapsed = time.perf_counter() - t0
                        with lock:
                            latencies.append(elapsed)
                    except Exception as exc:  # noqa: BLE001 - tallied below
                        barrier.abort()
                        with lock:
                            failures.append(f"{type(exc).__name__}: {exc}")
                        return

            threads = [threading.Thread(target=drive) for _ in range(clients)]
            t_begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - t_begin
            healthy = ServeClient(server.url).healthy()
            stats = server.service.stats()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ordered = sorted(latencies)
    if ordered:
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        mean = sum(ordered) / len(ordered)
    else:  # every request failed: latency checks must fail loudly too
        p99 = mean = float("inf")
    return {
        "requests_total": float(len(latencies) + len(failures)),
        "requests_failed": float(len(failures)),
        "cells_served": float(stats["cells"]["served"]),
        "cells_recomputed": float(stats["cells"]["recomputed"]),
        "dedup_hit_rate": float(stats["dedup_hit_rate"] or 0.0),
        "p99_request_seconds": p99,
        "mean_request_seconds": mean,
        "requests_per_second": (len(latencies) / wall) if wall > 0 else 0.0,
        "server_ok": 1.0 if healthy else 0.0,
    }


register(
    GateSpec(
        name="serve-throughput",
        title="the sweep daemon dedups concurrent load and stays responsive",
        ns="serve",
        measure=_serve_measure,
        default_repeats=1,
        describe=lambda ctx: {
            "workload": f"{SERVE_CLIENTS} concurrent clients "
            f"x {SERVE_ROUNDS} synchronized rounds of a "
            "6-cell ideal-platform grid (hot round 0, perturbed eager "
            "limits after)"
        },
        checks=(
            GateCheck(
                name="server-ok",
                metric="server_ok",
                op=">=",
                threshold=1.0,
            ),
            GateCheck(
                name="request-failures",
                metric="requests_failed",
                op="<=",
                threshold=0.0,
            ),
            GateCheck(
                name="dedup",
                metric="dedup_hit_rate",
                op=">=",
                threshold=0.5,
            ),
            GateCheck(
                name="p99-latency",
                metric="p99_request_seconds",
                op="<=",
                threshold=2.0,
            ),
        ),
    )
)
