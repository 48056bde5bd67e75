"""Self-test of the benchmark at a tiny size (under two minutes on 2 vCPUs).

    python3 perfbench/selftest.py

Runs every workload through ``run.py --size tiny`` and checks that

* every metric of ``BENCHMARK.json`` is printed with its unit, untraced
  (end-to-end) and traced (per-layer), and every run is correct;
* the traced run's layer rows plus ``unattributed`` sum to its wall time;
* counts repeat exactly for one seed across two traced runs;
* a different seed changes the serve-mixed request stream;
* ``map.json`` describes exactly the workloads and per-layer metrics of
  ``BENCHMARK.json``.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: Counts that must repeat exactly (they are not times).
COUNTS = (
    "sim.jobs", "sim.events", "sim.blocking_calls",
    "mpi.eager_sends", "mpi.rendezvous_sends", "mpi.staging_chunks",
    "mpi.match_envelopes", "mpi.pack_calls",
    "plan.cache_hits", "plan.cache_misses",
    "kernels.summarize_calls", "kernels.flow_solves", "kernels.flow_solve_flows_max",
    "machine.cost_calls", "net.flows", "net.resolves", "exec.cells",
    "store.hits", "store.misses", "store.writes", "store.bytes_read", "store.bytes_written",
    "serve.requests", "serve.cells_reused", "serve.cells_recomputed", "serve.cells_deduped",
)


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def tiling_gap(lines: list[str]) -> float:
    """Printed layer rows minus the printed traced wall, in seconds."""
    start = lines.index("  layer tiling of one traced unit:") + 2
    rows = total = 0.0
    for line in lines[start:]:
        parts = line.split()
        if parts[:2] == ["traced", "wall"]:
            total = float(parts[2])
            break
        rows += float(parts[1])
    return rows - total


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layout = json.loads((HERE / "map.json").read_text())
    failures: list[str] = []

    def check(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            failures.append(message)

    names = [w["name"] for w in spec["workloads"]]
    check(sorted(layout["workloads"]) == sorted(names), "map.json lists every workload")
    check(
        sorted(layout["per_layer"]) == sorted(m["name"] for m in spec["per_layer"]),
        "map.json lists every per-layer metric",
    )

    for workload in names:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, lines = run(workload, 1, trace)
            printed = result["metrics"]
            check(
                all(printed.get(m["name"], {}).get("unit") == m["unit"] for m in wanted)
                and len(printed) == len(wanted),
                f"{workload} trace={trace}: every metric printed with its unit",
            )
            check(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: correct")
            if trace:
                check(abs(tiling_gap(lines)) < 1e-3, f"{workload}: layer rows tile the traced wall")
                again, _ = run(workload, 1, 1)
                differ = [
                    n for n in COUNTS
                    if printed[n]["value"] != again["metrics"][n]["value"]
                ]
                check(not differ, f"{workload}: counts repeat for one seed {differ or ''}")

    from servemix import Plan

    check(Plan(1, 0).fingerprint() != Plan(2, 0).fingerprint(),
          "serve-mixed: another seed changes the request stream")
    check(Plan(1, 0).fingerprint() == Plan(1, 0).fingerprint(),
          "serve-mixed: one seed gives one request stream")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
