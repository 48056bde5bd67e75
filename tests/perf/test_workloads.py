"""Regression tests for the structural leg of the tracing-overhead
gate (satellite of the zero-cost-when-off contract)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.perf.workloads import STRUCTURAL_CHECK

REPO = Path(__file__).resolve().parents[2]


class TestStructuralCheck:
    def test_guards_both_recorder_and_host_telemetry(self):
        """The snippet must keep all three structural assertions: no
        wait edges from the virtual-time recorder, telemetry stays off,
        and zero reads of the host clock funnel."""
        assert "host_mod.active is None" in STRUCTURAL_CHECK
        assert "host_mod._now" in STRUCTURAL_CHECK
        assert "clock_calls[0] == 0" in STRUCTURAL_CHECK

    def test_passes_against_the_current_tree(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        env.pop("REPRO_HOST_TELEMETRY", None)
        proc = subprocess.run(
            [sys.executable, "-c", STRUCTURAL_CHECK],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
