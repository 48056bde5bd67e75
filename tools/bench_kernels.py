#!/usr/bin/env python
"""Guard the whole-plan ``BatchTable`` gather/scatter's wall-clock win.

Thin shim over the ``kernel-speedup`` entry of the :mod:`repro.perf`
gate registry (``repro perf gate --gate kernel-speedup``), kept for
the historical entry point and the ``BENCH_kernels.json`` record it
maintains.  The measurement body (a many-run gather/scatter through
``BatchTable`` and through the per-run loop, with byte-identity
re-checked on the side) lives in :mod:`repro.perf.workloads`.

Usage::

    python tools/bench_kernels.py [--min-gather-speedup 2.0] [--repeats 5]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.perf import get_gate, run_gate  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-gather-speedup", type=float, default=2.0,
                        help="required per-run-loop/BatchTable ratio for "
                             "gather AND scatter (default 2.0)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timing repetitions per path; the best is used "
                             "inside each sample")
    parser.add_argument("--output", default=str(REPO / "BENCH_kernels.json"),
                        help="where to record the measurement")
    args = parser.parse_args(argv)

    options = {
        "kernels.min_gather_speedup": args.min_gather_speedup,
        "kernels.inner_repeats": args.repeats,
    }
    result, _ = run_gate(get_gate("kernel-speedup"), options)
    print(result.render())
    if result.error is not None:
        return 1

    m = result.metrics
    record = {
        "gather_scatter": {
            "workload": result.extra.get("workload", ""),
            "gather_scalar_us": round(m["gather_scalar_us"], 1),
            "gather_batched_us": round(m["gather_batched_us"], 1),
            "scatter_scalar_us": round(m["scatter_scalar_us"], 1),
            "scatter_batched_us": round(m["scatter_batched_us"], 1),
            "gather_speedup": round(m["gather_speedup"], 2),
            "scatter_speedup": round(m["scatter_speedup"], 2),
        },
        "gather_gate": {"checked": True, "min": args.min_gather_speedup},
    }
    Path(args.output).write_text(json.dumps(record, indent=1) + "\n")

    failures = result.failures()
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
