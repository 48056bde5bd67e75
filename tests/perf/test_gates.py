"""Gate-engine tests with synthetic GateSpecs: median-over-repeats,
skip semantics, informational marking, error capture, and the
telemetry snapshot embedded per run, and the closed option set of
the built-in gates."""

from __future__ import annotations

import pytest

from repro.obs import host as host_mod
from repro.perf import (
    GateCheck,
    GateContext,
    GateSpec,
    all_gates,
    check_options,
    gate_names,
    get_gate,
    run_gate,
)


def spec_of(measure, checks, *, repeats=1, setup=None, teardown=None, describe=None):
    return GateSpec(
        name="synthetic",
        title="a synthetic gate",
        ns="syn",
        measure=measure,
        checks=tuple(checks),
        default_repeats=repeats,
        setup=setup,
        teardown=teardown,
        describe=describe,
    )


def check(metric="speed", op=">=", default=2.0, *, skip=None, informational=()):
    return GateCheck(
        name=metric,
        metric=metric,
        op=op,
        threshold=default,
        option=f"syn.min_{metric}",
        skip=skip,
        informational=informational,
    )


class TestEngine:
    def test_median_over_repeats(self):
        values = iter([1.0, 100.0, 3.0])

        def measure(ctx):
            return {"speed": next(values)}

        result, _ = run_gate(spec_of(measure, [check()], repeats=3))
        assert result.metrics["speed"] == 3.0  # median, outlier-proof
        assert result.samples["speed"] == [1.0, 100.0, 3.0]
        assert result.passed

    def test_repeats_option_overrides_default(self):
        calls = [0]

        def measure(ctx):
            calls[0] += 1
            return {"speed": 9.0}

        run_gate(spec_of(measure, [check()], repeats=1), {"syn.repeats": 4})
        assert calls[0] == 4

    def test_threshold_option_overrides_default(self):
        result, _ = run_gate(
            spec_of(lambda ctx: {"speed": 2.5}, [check(default=2.0)]),
            {"syn.min_speed": 3.0},
        )
        assert not result.passed
        assert "required >= 3" in result.failures()[0]

    def test_le_op_caps_regressions(self):
        result, _ = run_gate(
            spec_of(lambda ctx: {"overhead": 1.5}, [check("overhead", "<=", 1.2)])
        )
        assert not result.passed

    def test_unknown_op_rejected_at_definition(self):
        with pytest.raises(ValueError, match="unknown op"):
            check(op="==")

    def test_skip_is_explicit_never_silently_green(self):
        result, _ = run_gate(
            spec_of(
                lambda ctx: {"speed": 0.1, "other": 7.0},
                [
                    check(skip=lambda ctx: "single-CPU host"),
                    check("other", ">=", 1.0),
                ],
            )
        )
        (skipped, ran) = result.checks
        assert skipped.skipped and skipped.passed is None
        assert skipped.reason == "single-CPU host"
        assert "skipped (single-CPU host)" in skipped.message()
        assert ran.passed is True
        # The gate passes (a skip is not a failure) but is not "skipped"
        # overall because one check did run.
        assert result.passed and not result.skipped
        # The metric the skipped check would have asserted is
        # informational; the asserted one is not.
        assert "speed" in result.informational
        assert "other" not in result.informational

    def test_fully_skipped_gate(self):
        result, _ = run_gate(
            spec_of(lambda ctx: {"speed": 1.0}, [check(skip=lambda ctx: "nope")])
        )
        assert result.skipped and result.passed

    def test_workload_error_becomes_failing_result(self):
        def measure(ctx):
            raise RuntimeError("worktree vanished")

        result, _ = run_gate(spec_of(measure, [check()]))
        assert result.error == "RuntimeError: worktree vanished"
        assert not result.passed
        assert result.checks[0].skipped
        assert result.checks[0].reason == "workload errored"
        assert any("workload error" in f for f in result.failures())

    def test_missing_metric_fails_not_skips(self):
        result, _ = run_gate(spec_of(lambda ctx: {"unrelated": 1.0}, [check()]))
        assert not result.passed
        assert result.checks[0].reason == "metric 'speed' was never measured"

    def test_setup_scratch_teardown_order(self):
        trail = []

        def setup(ctx):
            ctx.scratch["golden"] = 42
            trail.append("setup")

        def measure(ctx):
            trail.append("measure")
            return {"speed": float(ctx.scratch["golden"])}

        def teardown(ctx):
            trail.append("teardown")

        result, _ = run_gate(
            spec_of(measure, [check()], repeats=2, setup=setup, teardown=teardown)
        )
        assert trail == ["setup", "measure", "measure", "teardown"]
        assert result.metrics["speed"] == 42.0

    def test_teardown_runs_after_measure_error(self):
        trail = []

        def measure(ctx):
            raise ValueError("boom")

        result, _ = run_gate(
            spec_of(measure, [check()], teardown=lambda ctx: trail.append("td"))
        )
        assert trail == ["td"] and result.error is not None

    def test_describe_lands_in_extra(self):
        result, _ = run_gate(
            spec_of(
                lambda ctx: {"speed": 9.0},
                [check()],
                describe=lambda ctx: {"workload": "synthetic", "cpus": ctx.cpus},
            )
        )
        assert result.extra["workload"] == "synthetic"
        assert result.extra["cpus"] >= 1

    def test_telemetry_snapshot_embedded_and_scoped(self):
        assert host_mod.active is None

        def measure(ctx):
            host_mod.active.metrics.counter("syn.touches").inc(3)
            with host_mod.active.span("syn.work"):
                pass
            return {"speed": 9.0}

        result, telemetry = run_gate(spec_of(measure, [check()]))
        assert host_mod.active is None  # capture did not leak
        assert result.telemetry["metrics"]["syn.touches"] == 3
        assert any(s.name == "syn.work" for s in telemetry.spans)

    def test_capture_host_false(self):
        result, telemetry = run_gate(
            spec_of(lambda ctx: {"speed": 9.0}, [check()]), capture_host=False
        )
        assert telemetry is None and result.telemetry is None

    def test_to_json_and_render(self):
        result, _ = run_gate(
            spec_of(lambda ctx: {"speed": 9.0, "note": 1.0}, [check()])
        )
        data = result.to_json()
        assert data["gate"] == "synthetic" and data["passed"] is True
        assert data["informational"] == ["note"]
        text = result.render()
        assert "speed" in text and "(informational)" in text
        assert "ok (speed = 9" in text


class TestContext:
    def test_option_coercion(self):
        ctx = GateContext({"a.x": "2.5", "a.n": "7"})
        assert ctx.opt_float("a.x", 0.0) == 2.5
        assert ctx.opt_int("a.n", 1) == 7
        assert ctx.opt_int("a.missing", 5) == 5

    def test_repo_discovery(self):
        ctx = GateContext()
        assert (ctx.repo / "src" / "repro").is_dir()


class TestBuiltinRegistry:
    def test_the_five_legacy_guards_are_registered(self):
        assert set(gate_names()) == {
            "tracing-overhead",
            "plan-speedup",
            "exec-speedup",
            "contention-overhead",
            "shm-overhead",
            "serve-throughput",
        }
        assert [s.name for s in all_gates()] == gate_names()

    def test_get_gate_unknown_lists_available(self):
        with pytest.raises(LookupError, match="plan-speedup"):
            get_gate("definitely-not-a-gate")


class TestOptions:
    #: Every option a built-in gate reads: ``<ns>.repeats`` plus the
    #: keys CI, the README and the tests set.
    SETTABLE = {
        "tracing.repeats",
        "plan.repeats",
        "plan.min_speedup",
        "exec.repeats",
        "exec.min_cache_speedup",
        "contention.repeats",
        "contention.max_overhead",
        "shm.repeats",
        "serve.repeats",
    }

    def test_builtin_option_set_is_closed(self):
        keys = set().union(*(spec.option_keys() for spec in all_gates()))
        assert keys == self.SETTABLE

    def test_fixed_threshold_ignores_options(self):
        fixed = GateCheck(name="speed", metric="speed", op=">=", threshold=2.0)
        result, _ = run_gate(
            spec_of(lambda ctx: {"speed": 2.5}, [fixed]), {"syn.speed": 9.0}
        )
        assert result.passed and result.checks[0].threshold == 2.0

    def test_ci_overrides_are_accepted(self):
        check_options(
            all_gates(),
            {
                "exec.min_cache_speedup": "5",
                "plan.min_speedup": "1.2",
                "contention.max_overhead": "1.5",
            },
        )

    @pytest.mark.parametrize(
        "gate, key",
        [
            ("plan-speedup", "plan.min_sped"),  # typo
            ("exec-speedup", "exec.min_identity"),  # removed correctness key
            ("plan-speedup", "exec.min_cache_speedup"),  # gate not selected
        ],
    )
    def test_unknown_keys_are_rejected_with_the_valid_ones(self, gate, key):
        spec = get_gate(gate)
        with pytest.raises(ValueError, match=f"unknown gate option.*{key}") as err:
            check_options([spec], {key: "0"})
        assert f"{spec.ns}.repeats" in str(err.value)


class TestPlanSpeedup:
    def test_cache_off_against_on_in_process(self, monkeypatch):
        """The plan gate needs no base revision: it times one body with
        the plan cache disabled and at its default bound, alternating
        which leg runs first, and never shells out."""
        import subprocess

        from repro.mpi.datatypes import plan_cache_stats
        from repro.perf import workloads

        def no_subprocess(*args, **kwargs):
            raise AssertionError("plan-speedup must not run a subprocess")

        monkeypatch.setattr(subprocess, "run", no_subprocess)
        capacities = []
        monkeypatch.setattr(
            workloads,
            "_plan_workload",
            lambda: lambda: capacities.append(plan_cache_stats()["capacity"]),
        )
        result, _ = run_gate(
            get_gate("plan-speedup"), {"plan.repeats": 2}, capture_host=False
        )
        assert result.error is None
        default = plan_cache_stats()["capacity"]
        assert default > 0
        # Each leg is one warm-up plus five timed calls.
        off, on = [0] * 6, [default] * 6
        assert capacities == off + on + on + off
        assert set(result.metrics) == {
            "cache_off_seconds",
            "cache_on_seconds",
            "speedup",
        }
