"""Unit tests for the ``exec-speedup`` gate's checks — specifically the
single-CPU skip path, which a multi-core CI box never exercises end to
end.  The registered spec runs with a stub ``measure`` and a patched
CPU count, so the real check definitions are what is tested."""

from __future__ import annotations

import dataclasses

from repro.perf import get_gate, run_gate
from repro.perf import gates as gates_mod


def run_exec_gate(monkeypatch, *, cpus, parallel_speedup, cache_speedup):
    monkeypatch.setattr(gates_mod, "usable_cpus", lambda: cpus)
    metrics = {
        "serial_seconds": 1.0,
        "parallel_seconds": 1.0 / parallel_speedup,
        "cold_cache_seconds": 1.1,
        "warm_cache_seconds": 1.0 / cache_speedup,
        "parallel_speedup": parallel_speedup,
        "cache_speedup": cache_speedup,
        "cache_overhead": 1.1,
        "sweeps_identical": 1.0,
    }
    spec = dataclasses.replace(get_gate("exec-speedup"), measure=lambda ctx: metrics)
    result, _ = run_gate(spec, {"exec.repeats": 1}, capture_host=False)
    return result


def checks_of(result):
    return {c.name: c for c in result.checks}


class TestGateRecords:
    def test_single_cpu_parallel_gate_is_explicitly_skipped(self, monkeypatch):
        result = run_exec_gate(
            monkeypatch, cpus=1, parallel_speedup=0.7, cache_speedup=50.0
        )
        parallel = checks_of(result)["parallel"]
        assert parallel.skipped is True
        assert parallel.passed is None
        assert parallel.reason == "single-CPU host (1 usable CPU)"
        # The cache check is CPU-independent and always enforced.
        cache = checks_of(result)["cache"]
        assert cache.skipped is False and cache.passed is True
        assert cache.threshold == 10.0

    def test_multi_cpu_parallel_gate_is_enforced(self, monkeypatch):
        result = run_exec_gate(
            monkeypatch, cpus=4, parallel_speedup=1.8, cache_speedup=50.0
        )
        parallel = checks_of(result)["parallel"]
        assert parallel.skipped is False and parallel.passed is True
        assert parallel.threshold == 1.1

    def test_every_gate_has_an_explicit_skipped_field(self, monkeypatch):
        for cpus in (1, 2, 64):
            result = run_exec_gate(
                monkeypatch, cpus=cpus, parallel_speedup=1.8, cache_speedup=50.0
            )
            for check in result.to_json()["checks"]:
                assert isinstance(check["skipped"], bool)


class TestEvaluateGates:
    def test_skipped_parallel_gate_never_fails(self, monkeypatch):
        # Terrible parallel "speedup": irrelevant when skipped.
        result = run_exec_gate(
            monkeypatch, cpus=1, parallel_speedup=0.2, cache_speedup=50.0
        )
        assert result.passed and result.failures() == []

    def test_enforced_parallel_gate_fails_below_minimum(self, monkeypatch):
        result = run_exec_gate(
            monkeypatch, cpus=4, parallel_speedup=0.9, cache_speedup=50.0
        )
        (failure,) = result.failures()
        assert failure.startswith("parallel: FAIL (parallel_speedup = 0.9")

    def test_cache_gate_fails_even_on_single_cpu(self, monkeypatch):
        result = run_exec_gate(
            monkeypatch, cpus=1, parallel_speedup=0.2, cache_speedup=2.0
        )
        (failure,) = result.failures()
        assert failure.startswith("cache: FAIL (cache_speedup = 2")

    def test_all_green_when_both_speedups_clear(self, monkeypatch):
        result = run_exec_gate(
            monkeypatch, cpus=4, parallel_speedup=1.8, cache_speedup=40.0
        )
        assert result.passed and not result.skipped


class TestInformational:
    """A single-CPU 'parallel speedup' is recorded but can never read
    as an asserted result."""

    def test_skipped_parallel_metrics_are_informational(self, monkeypatch):
        result = run_exec_gate(
            monkeypatch, cpus=1, parallel_speedup=0.696, cache_speedup=110.0
        )
        assert {"parallel_seconds", "parallel_speedup"} <= set(result.informational)
        assert result.metrics["parallel_speedup"] == 0.696  # still recorded
        assert "cache_speedup" not in result.informational
        assert "parallel_speedup" in result.to_json()["informational"]

    def test_checked_parallel_metrics_are_asserted(self, monkeypatch):
        result = run_exec_gate(
            monkeypatch, cpus=4, parallel_speedup=1.5, cache_speedup=110.0
        )
        assert "parallel_seconds" not in result.informational
        assert "parallel_speedup" not in result.informational
