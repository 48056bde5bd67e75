"""Pinned per-category counts of the instant markers a traced run records.

Every marker site sits behind its ``obs.enabled`` guard; these counts
catch a site that stops recording (or records twice) even where the
Chrome golden, a single 256 B eager exchange, does not reach: every
scheme at an eager and a rendezvous size, and a fat-tree halo for the
fabric markers (``link.util``, ``net.resolve``) and queue depths.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import PAPER_ORDER, TimingPolicy, run_pingpong, strided_for_bytes
from repro.core.halo import HaloSpec, halo_program
from repro.machine import get_platform
from repro.mpi import run_mpi
from repro.net import make_topology

#: Two flushed iterations of one ping-pong on skx-impi (eager limit
#: 64 KiB): markers every cell records, the wire protocol's, and each
#: scheme's own.
_COMMON = {"flush": 4, "queue.depth": 16, "recv.complete": 8}
_EAGER = {"send.eager": 8}
_RENDEZVOUS = {"send.eager": 6, "send.rts": 2, "send.cts": 2, "send.push": 2}
_SCHEME_MARKERS = {
    "reference": {},
    "copying": {},
    "buffered": {"bsend": 2},
    "vector": {"staging": 2},
    "subarray": {"staging": 2},
    "onesided": {"rma.put": 2, "rma.drain": 2},
    "packing-element": {"pack": 2},
    "packing-vector": {"pack": 2},
}


def _counts(recorder) -> dict[str, int]:
    return dict(Counter(event.category for event in recorder))


@pytest.mark.parametrize("nbytes", [4_096, 1_000_000])
@pytest.mark.parametrize("scheme", PAPER_ORDER)
def test_pingpong_marker_counts(scheme, nbytes):
    result = run_pingpong(
        scheme, strided_for_bytes(nbytes), "skx-impi",
        policy=TimingPolicy(iterations=2, flush=True), materialize=False, trace=True,
    )
    rendezvous = nbytes > 65_536 and scheme != "onesided"
    wire = _RENDEZVOUS if rendezvous else _EAGER
    assert _counts(result.tracer) == {**_COMMON, **wire, **_SCHEME_MARKERS[scheme]}


def test_fat_tree_halo_marker_counts():
    topo = make_topology("fat-tree", 16, ranks_per_node=4, placement="cyclic")
    platform = get_platform("skx-impi").with_topology(topo)
    program = halo_program(HaloSpec(nx=32, ny=16, ghost=2, iterations=1))
    job = run_mpi(program, nranks=16, platform=platform, trace=True)
    assert _counts(job.tracer) == {
        "link.util": 83,
        "net.resolve": 38,
        "queue.depth": 124,
        "recv.complete": 62,
        "send.eager": 62,
        "staging": 32,
    }
