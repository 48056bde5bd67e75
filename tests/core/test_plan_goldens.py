"""Bit-exact timing regression for the TransferPlan refactor.

``golden_scheme_times.json`` was captured on the pre-plan tree: every
scheme x platform x layout cell's reported time, drain time, and event
count, with floats stored as hex for exactness.  The plan layer is a
host-side optimization — if any golden cell moves by one ulp, cache
state has leaked into virtual time.

The cold-vs-warm tests check the same invariant from the other side:
a run that compiles every plan from scratch (cache capacity 0) must be
bit-identical to a run served from the cache.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import PAPER_ORDER, StridedLayout, TimingPolicy, run_pingpong
from repro.mpi.datatypes import plan_cache_capacity

GOLDEN = json.loads((Path(__file__).parent / "golden_scheme_times.json").read_text())

PLATFORMS = ("skx-impi", "skx-mvapich2", "ls5-cray", "knl-impi")
LAYOUTS = {
    "small-2KB": dict(nblocks=256, blocklen=1, stride=2),
    "mid-1MB": dict(nblocks=125_000, blocklen=1, stride=2),
}
#: Must match the capture run exactly.
POLICY = TimingPolicy(iterations=3, flush=True)


def run_cell(key: str, layout: StridedLayout, platform: str):
    return run_pingpong(key, layout, platform, policy=POLICY, materialize=False)


@pytest.mark.parametrize("lname", sorted(LAYOUTS))
@pytest.mark.parametrize("platform", PLATFORMS)
def test_times_bit_identical_to_pre_plan_goldens(platform: str, lname: str):
    layout = StridedLayout(**LAYOUTS[lname])
    for key in PAPER_ORDER:
        cell = run_cell(key, layout, platform)
        want = GOLDEN[f"{platform}/{lname}/{key}"]
        got = {
            "time": cell.time.hex(),
            "virtual_time": cell.virtual_time.hex(),
            "events": cell.events,
        }
        assert got == want, f"{platform}/{lname}/{key}"


@pytest.mark.parametrize("key", PAPER_ORDER)
def test_cold_and_warm_plan_cache_bit_identical(key: str):
    layout = StridedLayout(nblocks=256, blocklen=1, stride=2)
    with plan_cache_capacity(0):
        cold = run_cell(key, layout, "skx-impi")
    warm = run_cell(key, layout, "skx-impi")
    assert cold.time.hex() == warm.time.hex()
    assert cold.virtual_time.hex() == warm.virtual_time.hex()
    assert cold.events == warm.events
