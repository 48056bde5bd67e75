"""Diff + report tests: noise bands from raw samples and informational
marking end-to-end."""

from __future__ import annotations

from repro.machine.fingerprint import MODEL_VERSION
from repro.perf import (
    LedgerEntry,
    diff_entries,
    machine_fingerprint,
    render_diff,
    render_report,
)


def entry(sha, gates, *, machine=None):
    return LedgerEntry(
        sha=sha,
        recorded_at="2026-08-08T00:00:00+00:00",
        machine=machine or machine_fingerprint(),
        model_version=MODEL_VERSION,
        gates=tuple(gates),
    )


def gate(name, metrics, samples=None, informational=()):
    return {
        "gate": name,
        "passed": True,
        "metrics": metrics,
        "samples": samples or {k: [v] for k, v in metrics.items()},
        "informational": list(informational),
        "checks": [],
        "seconds": 0.5,
    }


class TestDiff:
    def test_deltas_and_noise_bands(self):
        a = entry(
            "a" * 40,
            [gate("g", {"speed": 10.0}, {"speed": [9.0, 10.0, 11.0]})],
        )
        b = entry(
            "b" * 40,
            [gate("g", {"speed": 14.0}, {"speed": [13.5, 14.0, 14.5]})],
        )
        (d,) = diff_entries(a, b)
        assert d.delta == 4.0
        assert d.pct == 0.4
        assert d.noise == 2.0  # max of the two spreads (2.0 vs 1.0)
        assert d.significant  # |4.0| > 2.0

    def test_within_noise_not_significant(self):
        a = entry("a" * 40, [gate("g", {"t": 1.0}, {"t": [0.5, 1.5]})])
        b = entry("b" * 40, [gate("g", {"t": 1.4}, {"t": [1.3, 1.5]})])
        (d,) = diff_entries(a, b)
        assert not d.significant
        assert "[within noise]" in d.render()

    def test_zero_band_flags_any_change(self):
        # Bit-identity metrics repeat exactly; any drift is significant.
        a = entry("a" * 40, [gate("g", {"identical": 1.0}, {"identical": [1.0]})])
        b = entry("b" * 40, [gate("g", {"identical": 0.0}, {"identical": [0.0]})])
        (d,) = diff_entries(a, b)
        assert d.significant

    def test_informational_metrics_tagged_not_headlined(self):
        a = entry(
            "a" * 40,
            [gate("g", {"par": 0.7, "cache": 50.0}, informational=["par"])],
        )
        b = entry(
            "b" * 40,
            [gate("g", {"par": 2.0, "cache": 50.0}, informational=["par"])],
        )
        deltas = diff_entries(a, b)
        par = next(d for d in deltas if d.metric == "par")
        assert par.informational and "[informational]" in par.render()
        text = render_diff(a, b, deltas)
        # The informational jump never counts as a significant change.
        assert "no significant changes" in text

    def test_only_common_gates_and_metrics_compared(self):
        a = entry("a" * 40, [gate("g", {"x": 1.0, "only_a": 2.0})])
        b = entry(
            "b" * 40,
            [gate("g", {"x": 2.0, "only_b": 3.0}), gate("h", {"y": 1.0})],
        )
        deltas = diff_entries(a, b)
        assert [(d.gate, d.metric) for d in deltas] == [("g", "x")]

    def test_cross_machine_warning(self):
        a = entry("a" * 40, [gate("g", {"x": 1.0})])
        other = dict(machine_fingerprint(), host_id="deadbeef0000")
        b = entry("b" * 40, [gate("g", {"x": 1.0})], machine=other)
        text = render_diff(a, b, diff_entries(a, b))
        assert "different machines" in text
        assert "not comparable" in text

    def test_no_common_metrics(self):
        a = entry("a" * 40, [gate("g", {"x": 1.0})])
        b = entry("b" * 40, [gate("h", {"y": 1.0})])
        assert "no common metrics" in render_diff(a, b, diff_entries(a, b))

    def test_gates_in_one_entry_only_are_named(self):
        a = entry("a" * 40, [gate("g", {"x": 1.0}), gate("old", {"y": 1.0})])
        b = entry("b" * 40, [gate("g", {"x": 1.0}), gate("new", {"z": 1.0})])
        deltas = diff_entries(a, b)
        assert [(d.gate, d.metric) for d in deltas] == [("g", "x")]
        text = render_diff(a, b, deltas)
        assert f"gate(s) only in A ({'a' * 12}): old" in text
        assert f"gate(s) only in B ({'b' * 12}): new" in text

    def test_same_gates_print_no_only_in_line(self):
        a = entry("a" * 40, [gate("g", {"x": 1.0})])
        b = entry("b" * 40, [gate("g", {"x": 2.0})])
        assert "only in" not in render_diff(a, b, diff_entries(a, b))

    def test_significant_changes_listed_first(self):
        a = entry("a" * 40, [gate("g", {"big": 1.0, "tiny": 1.0})])
        b = entry(
            "b" * 40,
            [gate("g", {"big": 5.0, "tiny": 1.0}, {"big": [5.0], "tiny": [1.0]})],
        )
        text = render_diff(a, b, diff_entries(a, b))
        assert "1 significant change(s):" in text
        assert text.index("g/big") < text.index("g/tiny")


class TestReport:
    def test_empty_ledger_message(self):
        assert "empty" in render_report([])

    def test_newest_first_with_verdicts(self):
        old = entry("a" * 40, [gate("g", {"x": 1.0})])
        new = entry(
            "b" * 40,
            [
                {
                    "gate": "g",
                    "passed": False,
                    "metrics": {"x": 2.0, "note": 1.0},
                    "samples": {},
                    "informational": ["note"],
                    "checks": [
                        {"name": "c1", "skipped": True},
                        {"name": "c2", "skipped": False, "passed": False},
                    ],
                    "seconds": 3.2,
                }
            ],
        )
        text = render_report([old, new])
        assert "2 recorded run(s)" in text
        assert text.index("b" * 12) < text.index("a" * 12)  # newest first
        assert "FAIL (1 check(s) skipped)" in text
        assert "note" in text and "(informational)" in text

    def test_limit(self):
        entries = [entry(ch * 40, [gate("g", {"x": 1.0})]) for ch in "abc"]
        text = render_report(entries, limit=1)
        assert "c" * 12 in text and "a" * 12 not in text

    def test_all_skipped_gate_reports_skip(self):
        e = entry(
            "a" * 40,
            [
                {
                    "gate": "exec-speedup",
                    "passed": True,
                    "metrics": {},
                    "samples": {},
                    "informational": [],
                    "checks": [{"name": "parallel", "skipped": True}],
                    "seconds": 0.1,
                }
            ],
        )
        assert "SKIP" in render_report([e])
