"""Which public entry points the traced run wraps, per layer, and how the
per-layer metrics are read off the spans and the program's own counters.

Layers are named after the ``repro`` modules they wrap:

* ``sim``: ``repro.sim.kernel`` (``Kernel.run``, ``SimTask.sleep``/``block``);
* ``core``: the rank programs handed to ``Kernel.spawn`` (scheme and halo code);
* ``mpi``: ``repro.mpi`` calls, requests, windows, matching and the send protocol;
* ``plan``: ``repro.mpi.datatypes.plan`` (``plan_for``, ``compile_plan``);
* ``kernels``: ``summarize``, the max-min flow solve and plan gather/scatter;
* ``machine``: ``repro.mpi.costs.CostModel`` and ``repro.machine.pricing.SchemePricer``;
* ``net``: ``repro.net.flows.FlowEngine.start_flow``;
* ``exec``: ``Executor.execute_batch`` and ``execute_spec``;
* ``store``: ``ResultStore.get``/``put``;
* ``serve``: client requests, ``SweepService.submit``/``stats`` and ``Job.finish``.
"""

from __future__ import annotations

import os
import statistics
import types
from time import perf_counter

from tracer import UNATTRIBUTED, Tracer

#: Tiling rows, in print order.
LAYERS = (
    "sim", "core", "mpi", "plan", "kernels", "machine", "net", "exec", "store", "serve",
)


class Probe:
    """A tracer installed over the ``repro`` layers for one traced unit,
    plus the program-side counters gathered while it is installed."""

    def __init__(self) -> None:
        from repro.obs import MetricsRegistry

        self.tracer = Tracer()
        self.job_metrics = MetricsRegistry()
        self.submitted: dict[str, float] = {}
        self.server_s: dict[str, float] = {}
        self._plan0: dict[str, int] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.exec import executor, spec
        from repro.exec.store import ResultStore
        from repro.machine.pricing import SchemePricer
        from repro.mpi import comm, matching, persistent, protocol, request, runtime, win
        from repro.mpi.costs import CostModel
        from repro.mpi.datatypes import plan
        from repro.net import flows
        from repro.core import timing
        from repro.serve.client import ServeClient
        from repro.serve.jobs import Job
        from repro.serve.service import SweepService
        from repro.sim.kernel import Kernel, SimTask

        tr = self.tracer
        self._plan0 = plan.plan_cache_stats()

        # sim
        tr.wrap_method(Kernel, "run", "sim.run", "sim", after=self._after_kernel_run)
        tr.wrap_method(SimTask, "sleep", "sim.sleep", "sim")
        tr.wrap_method(SimTask, "block", "sim.block", "sim")
        spawn = Kernel.__dict__["spawn"]

        def traced_spawn(kernel, fn, *args, name=None):
            return spawn(kernel, tr.spanned(fn, "core.rank", "core"), *args, name=name)

        tr.patch(Kernel, "spawn", traced_spawn)

        # mpi: the public API of communicators, requests and windows,
        # matching and the send protocol.
        for cls in (comm.Comm, win.Win):
            for attr, value in list(vars(cls).items()):
                if isinstance(value, types.FunctionType) and attr[:1].isupper():
                    tr.wrap_method(cls, attr, "mpi.call", "mpi")
        for attr in ("user_gather", "user_scatter", "flush_caches"):
            tr.wrap_method(comm.Comm, attr, "mpi.call", "mpi")
        for cls in (request.SendRequest, request.RecvRequest, persistent._PersistentBase):
            for attr in ("wait", "test"):
                if attr in vars(cls):
                    tr.wrap_method(cls, attr, "mpi.call", "mpi")
        tr.wrap_method(matching.Inbox, "post", "mpi.match", "mpi")
        tr.wrap_method(matching.Inbox, "on_message", "mpi.match", "mpi")
        tr.wrap_method(protocol.SendOperation, "start", "mpi.protocol", "mpi")
        tr.wrap_function(runtime, "run_mpi", "mpi.run_mpi", "mpi", after=self._after_run_mpi)

        # plan
        tr.wrap_function(plan, "plan_for", "plan.lookup", "plan")
        tr.wrap_function(plan, "compile_plan", "plan.compile", "plan")

        # kernels
        tr.wrap_function(timing, "summarize", "kernels.summarize", "kernels")
        tr.wrap_function(flows, "max_min_rates", "kernels.flow_solve", "kernels",
                         after=self._after_flow_solve)
        for attr in ("gather", "scatter"):
            tr.wrap_method(plan.TransferPlan, attr, "kernels.gather", "kernels")

        # machine
        for attr, value in list(vars(CostModel).items()):
            if isinstance(value, types.FunctionType) and not attr.startswith("_"):
                tr.wrap_method(CostModel, attr, "machine.cost", "machine")
        tr.wrap_method(SchemePricer, "price", "machine.pricer", "machine")

        # net
        tr.wrap_method(flows.FlowEngine, "start_flow", "net.engine", "net")

        # exec
        tr.wrap_method(executor.Executor, "execute_batch", "exec.batch", "exec")
        tr.wrap_function(spec, "execute_spec", "exec.execute_spec", "exec")

        # store
        tr.wrap_method(ResultStore, "get", "store.get", "store", after=_after_store_get)
        tr.wrap_method(ResultStore, "put", "store.put", "store", after=_after_store_put)

        # serve
        tr.wrap_method(ServeClient, "request_json", "serve.client", "serve")
        tr.wrap_method(SweepService, "submit", "serve.submit", "serve",
                       after=self._after_submit)
        tr.wrap_method(SweepService, "stats", "serve.stats", "serve")
        tr.wrap_method(Job, "finish", "serve.finish", "serve", after=self._after_finish)
        tr.start()

    def uninstall(self) -> None:
        self.tracer.stop()
        self.tracer.unpatch()

    # ------------------------------------------------------------------
    def _after_kernel_run(self, tr, result, args, kwargs, seconds) -> None:
        tr.count("sim.events", args[0].events_processed)

    def _after_run_mpi(self, tr, job, args, kwargs, seconds) -> None:
        if job.metrics is not None:
            with tr.lock:
                self.job_metrics.merge(job.metrics)

    @staticmethod
    def _after_flow_solve(tr, result, args, kwargs, seconds) -> None:
        tr.sample("kernels.flow_solve_flows", len(args[0]))

    def _after_submit(self, tr, job, args, kwargs, seconds) -> None:
        # The submit span opened when the request reached the service.
        self.submitted[job.id] = perf_counter() - seconds

    def _after_finish(self, tr, result, args, kwargs, seconds) -> None:
        job = args[0]
        began = self.submitted.get(job.id)
        if began is not None:
            self.server_s[job.id] = perf_counter() - began

    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this probe can read (serve metrics that
        need the daemon's ``/stats`` are added by the serve workload)."""
        from repro.mpi.datatypes.plan import plan_cache_stats

        tr = self.tracer
        c = self.job_metrics.counter_value
        plan1 = plan_cache_stats()
        hits = plan1["hits"] - self._plan0.get("hits", 0)
        misses = plan1["misses"] - self._plan0.get("misses", 0)
        flows = tr.samples.get("kernels.flow_solve_flows", [])
        events = tr.counts.get("sim.events", 0)
        run_s = tr.inclusive_s.get("sim.run", 0.0)
        store_hits = tr.counts.get("store.hits", 0)
        store_misses = tr.counts.get("store.misses", 0)
        rows, _ = tr.tiling()
        wall = tr.wall_s
        out = {
            "sim.jobs": tr.calls.get("sim.run", 0),
            "sim.events": events,
            "sim.blocking_calls": tr.calls.get("sim.sleep", 0) + tr.calls.get("sim.block", 0),
            "sim.run_s": run_s,
            "sim.us_per_event": run_s / events * 1e6 if events else 0.0,
            "mpi.eager_sends": c("p2p.eager_sends"),
            "mpi.rendezvous_sends": c("p2p.rendezvous_sends"),
            "mpi.staging_chunks": c("p2p.staging_chunks"),
            "mpi.match_envelopes": c("match.envelopes"),
            "mpi.pack_calls": c("pack.pack_calls"),
            "plan.cache_hits": hits,
            "plan.cache_misses": misses,
            "plan.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "plan.compile_s": tr.inclusive_s.get("plan.compile", 0.0),
            "kernels.summarize_calls": tr.calls.get("kernels.summarize", 0),
            "kernels.summarize_s": tr.inclusive_s.get("kernels.summarize", 0.0),
            "kernels.flow_solves": len(flows),
            "kernels.flow_solve_s": tr.inclusive_s.get("kernels.flow_solve", 0.0),
            "kernels.flow_solve_flows_p50": statistics.median(flows) if flows else 0,
            "kernels.flow_solve_flows_max": max(flows) if flows else 0,
            "kernels.gather_s": tr.inclusive_s.get("kernels.gather", 0.0),
            "machine.cost_calls": tr.calls.get("machine.cost", 0),
            "machine.cost_s": tr.inclusive_s.get("machine.cost", 0.0),
            "machine.pricer_s": tr.inclusive_s.get("machine.pricer", 0.0),
            "net.flows": c("net.flows"),
            "net.resolves": c("net.resolves"),
            "net.engine_s": tr.inclusive_s.get("net.engine", 0.0),
            "exec.cells": tr.calls.get("exec.execute_spec", 0),
            "exec.execute_spec_s": tr.inclusive_s.get("exec.execute_spec", 0.0),
            "exec.batch_s": tr.inclusive_s.get("exec.batch", 0.0),
            "store.hits": store_hits,
            "store.misses": store_misses,
            "store.writes": tr.counts.get("store.writes", 0),
            "store.hit_ratio": (
                store_hits / (store_hits + store_misses) if store_hits + store_misses else 0.0
            ),
            "store.get_s": tr.inclusive_s.get("store.get", 0.0),
            "store.put_s": tr.inclusive_s.get("store.put", 0.0),
            "store.bytes_read": tr.counts.get("store.bytes_read", 0),
            "store.bytes_written": tr.counts.get("store.bytes_written", 0),
            "trace.wall_s": wall,
            "trace.unattributed_share": rows[UNATTRIBUTED] / wall if wall else 0.0,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = rows.get(layer, 0.0)
        return out


# Store counts come from these spans, not from ``/stats``: the store's
# own counters are advisory and lose increments under concurrent
# flushes (see ``ResultStore.flush_counters``).
def _after_store_get(tr: Tracer, outcome, args, kwargs, seconds) -> None:
    if outcome is None:
        tr.count("store.misses")
        return
    tr.count("store.hits")
    store, spec = args[0], args[1]
    try:
        tr.count("store.bytes_read", os.path.getsize(store.path_for(spec)))
    except OSError:
        pass


def _after_store_put(tr: Tracer, path, args, kwargs, seconds) -> None:
    tr.count("store.writes")
    tr.count("store.bytes_written", os.path.getsize(path))


def tiling_table(tracer: Tracer) -> list[str]:
    """Printable layer -> self seconds -> share rows."""
    rows, gap = tracer.tiling()
    wall = tracer.wall_s
    lines = [f"  {'layer':14s} {'self_s':>10s} {'share':>7s}"]
    for layer in (*LAYERS, UNATTRIBUTED):
        value = rows.get(layer, 0.0)
        lines.append(f"  {layer:14s} {value:10.4f} {value / wall if wall else 0:7.1%}")
    lines.append(f"  {'traced wall':14s} {wall:10.4f} (rows sum to it within {abs(gap):.1e} s)")
    return lines


def tiles(tracer: Tracer) -> bool:
    """True when the rows sum to the traced wall time (up to float
    rounding of the summation)."""
    _, gap = tracer.tiling()
    return abs(gap) <= 1e-6 * max(1.0, tracer.wall_s)
