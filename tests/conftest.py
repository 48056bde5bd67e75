"""Shared fixtures: the friction-free platform and small run helpers."""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.timing import TimingPolicy
from repro.machine import get_platform
from repro.mpi import run_mpi


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path_factory, monkeypatch):
    """Point the exec-layer result store at a per-test temp directory.

    CLI commands cache by default; without this, tests would write to
    (and read stale cells from) the user's real ~/.cache/repro-mpi.
    """
    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("result-store"))
    )


_TESTS_DIR = Path(__file__).parent
#: Suites whose tests run the sim kernel and must not leak its threads.
_SIM_THREAD_SUITES = {"sim", "mpi", "core", "integration"}


@pytest.fixture(autouse=True)
def _no_leaked_sim_threads(request):
    """Fail a test that leaves a ``sim:*`` task thread alive: a parked
    thread that never got the baton back."""
    yield
    if request.path.relative_to(_TESTS_DIR).parts[0] not in _SIM_THREAD_SUITES:
        return
    leaked = [t.name for t in threading.enumerate() if t.name.startswith("sim:")]
    assert not leaked, f"sim task threads still alive: {leaked}"


@pytest.fixture
def ideal():
    """The round-number test platform (10 GB/s everywhere, 1 us latency,
    zero software overheads, 1000 B eager limit)."""
    return get_platform("ideal")


@pytest.fixture
def skx():
    return get_platform("skx-impi")


@pytest.fixture
def fast_policy():
    """A 3-iteration, flush-free measurement policy for quick cells."""
    return TimingPolicy(iterations=3, flush=False)


@pytest.fixture
def run2(ideal):
    """Run a two-rank MPI program on the ideal platform and return the
    JobResult."""

    def _run(main, *, nranks=2, platform=None, trace=False, max_events=200_000):
        return run_mpi(
            main, nranks=nranks, platform=platform or ideal, trace=trace, max_events=max_events
        )

    return _run


@pytest.fixture
def doubles():
    """Factory for float64 arange arrays."""

    def _make(n: int) -> np.ndarray:
        return np.arange(n, dtype=np.float64)

    return _make
