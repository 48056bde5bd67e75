"""Ledger roundtrips, reference resolution, and fingerprint privacy."""

from __future__ import annotations

import json
import platform as _platform

import pytest

from repro.machine.fingerprint import MODEL_VERSION
from repro.perf import (
    LEDGER_VERSION,
    Ledger,
    LedgerEntry,
    default_ledger_dir,
    git_sha,
    machine_fingerprint,
    usable_cpus,
)


def entry(sha: str, *, passed: bool = True) -> LedgerEntry:
    return LedgerEntry(
        sha=sha,
        recorded_at="2026-08-08T00:00:00+00:00",
        machine=machine_fingerprint(),
        model_version=MODEL_VERSION,
        gates=(
            {
                "gate": "plan-speedup",
                "passed": passed,
                "metrics": {"speedup": 12.0},
                "samples": {"speedup": [11.0, 12.0, 13.0]},
                "informational": [],
                "checks": [
                    {"name": "plan-cache-speedup", "skipped": False, "passed": passed}
                ],
                "seconds": 1.0,
            },
        ),
    )


class TestFingerprint:
    def test_hostname_never_stored_in_clear(self):
        fp = machine_fingerprint()
        hostname = _platform.node()
        blob = json.dumps(fp)
        if hostname:  # a real hostname must not leak
            assert hostname not in blob
        assert len(fp["host_id"]) == 12
        assert int(fp["host_id"], 16) >= 0  # hex digest prefix

    def test_fingerprint_is_stable_and_complete(self):
        a, b = machine_fingerprint(), machine_fingerprint()
        assert a == b
        assert set(a) == {"host_id", "cpus", "system", "machine", "python"}
        assert a["cpus"] == usable_cpus() >= 1

    def test_git_sha_of_this_repo(self):
        sha = git_sha()
        assert sha != "unknown" and len(sha) == 40

    def test_git_sha_outside_a_repo(self, tmp_path):
        assert git_sha(tmp_path) == "unknown"


class TestLedgerRoundtrip:
    def test_default_dir_rides_cache_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert default_ledger_dir() == tmp_path / "c" / "perf-ledger"

    def test_append_and_read_back(self, tmp_path):
        ledger = Ledger(tmp_path)
        e = entry("a" * 40)
        path = ledger.append(e)
        assert path == tmp_path / "ledger.jsonl"
        (loaded,) = ledger.entries()
        assert loaded == e
        assert loaded.gate("plan-speedup")["metrics"]["speedup"] == 12.0
        assert loaded.gate("nope") is None
        assert loaded.passed()

    def test_record_stamps_current_tree(self, tmp_path):
        e = LedgerEntry.record([{"gate": "g", "passed": True}], options={"x": 1})
        assert e.sha == git_sha()
        assert e.model_version == MODEL_VERSION
        assert e.recorded_at.startswith("20")  # ISO, current century
        assert e.options == {"x": 1}
        assert e.version == LEDGER_VERSION

    def test_malformed_and_future_lines_skipped(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.append(entry("a" * 40))
        with ledger.path.open("a") as fh:
            fh.write("{ not json\n")
            fh.write(json.dumps({"version": LEDGER_VERSION + 1, "sha": "x"}) + "\n")
            fh.write(json.dumps({"version": LEDGER_VERSION}) + "\n")  # missing keys
        ledger.append(entry("b" * 40))
        shas = [e.sha for e in ledger.entries()]
        assert shas == ["a" * 40, "b" * 40]

    def test_empty_ledger(self, tmp_path):
        assert Ledger(tmp_path / "nowhere").entries() == []


class TestResolve:
    def test_latest_positional_and_sha_prefix(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.append(entry("aaaa" + "0" * 36))
        ledger.append(entry("abcd" + "0" * 36))
        ledger.append(entry("aaaa" + "1" * 36))  # same prefix, newer
        assert ledger.resolve("latest").sha.startswith("aaaa1")
        assert ledger.resolve("@0").sha.startswith("aaaa0")
        assert ledger.resolve("@-1").sha.startswith("aaaa1")
        assert ledger.resolve("@1").sha.startswith("abcd")
        # sha prefix: the newest match wins
        assert ledger.resolve("aaaa").sha.startswith("aaaa1")
        assert ledger.resolve("abcd").sha.startswith("abcd")

    def test_resolve_errors_are_lookup_errors(self, tmp_path):
        ledger = Ledger(tmp_path)
        with pytest.raises(LookupError, match="empty"):
            ledger.resolve("latest")
        ledger.append(entry("a" * 40))
        with pytest.raises(LookupError, match="no ledger entry"):
            ledger.resolve("@7")
        with pytest.raises(LookupError, match="sha prefix"):
            ledger.resolve("beef")

    def test_describe_marks_skips_and_failures(self, tmp_path):
        ok = entry("a" * 40)
        assert "plan-speedup=ok" in ok.describe()
        bad = entry("b" * 40, passed=False)
        assert "plan-speedup=FAIL" in bad.describe()
        skipped = LedgerEntry(
            sha="c" * 40,
            recorded_at="2026-08-08T00:00:00+00:00",
            machine=machine_fingerprint(),
            model_version=MODEL_VERSION,
            gates=(
                {
                    "gate": "exec-speedup",
                    "passed": True,
                    "checks": [{"name": "parallel", "skipped": True}],
                },
            ),
        )
        assert "exec-speedup=skip" in skipped.describe()
