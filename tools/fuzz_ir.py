#!/usr/bin/env python
"""Seeded differential fuzzer: transfer IR vs the TransferPlan oracle.

Generates ``--cases`` random derived datatypes (vector / hvector /
indexed / indexed-block / contiguous / struct / subarray / resized,
with one level of nesting), lowers each to the IR, canonicalizes it
through the full rewrite pipeline, and cross-checks against the
independently implemented ``compile_plan`` + ``segments_of`` path:

* normalized segment lists agree;
* the IR programs' and the plan's gather and scatter move the same
  bytes as the segment list, at pack-buffer offsets 0, 3 and 8 (so the
  run movers take every word width the layout allows);
* total bytes, span, and min offset agree;
* with a platform, the cost-guarded pipeline never prices worse than
  the naive lowering.

Every case is a serializable *spec* (a nested dict), so failures are
replayable: the first failing case is greedily minimized — shrink every
numeric field, drop nesting — and written to ``--artifact`` as JSON
with the seed, the spec, and what diverged.  Exit 1 on any failure.

Deterministic by construction: ``--seed N`` (default 20260807) fixes
the whole run.

Before the random cases, every spec in the seed corpus
(``tools/fuzz_corpus/*.json``) is replayed — handwritten nestings the
random generator reaches rarely or not at all (resized-of-struct,
subarray-of-vector), kept as committed regression anchors.  ``--replay
ARTIFACT.json`` re-runs a single recorded case (a corpus file or a
minimized failure artifact) and exits.

Usage::

    python tools/fuzz_ir.py [--cases 1000] [--seed 20260807]
        [--artifact FUZZ_ir_failure.json]
    python tools/fuzz_ir.py --replay tools/fuzz_corpus/subarray_of_vector.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.machine.registry import get_platform  # noqa: E402
from repro.mpi.datatypes import (  # noqa: E402
    BYTE,
    DOUBLE,
    INT,
    SHORT,
    compile_plan,
    make_contiguous,
    make_hvector,
    make_indexed,
    make_indexed_block,
    make_resized,
    make_struct,
    make_subarray,
    make_vector,
    segments_of,
)
from repro.mpi.datatypes.ir import lower, program_cost, run_pipeline  # noqa: E402

BASES = {"double": DOUBLE, "int": INT, "short": SHORT, "byte": BYTE}
#: Pack-buffer offsets every case is gathered to and scattered from: 3
#: forces byte copies on the packed side, 8 keeps 8-byte words.
PACK_OFFSETS = (0, 3, 8)
PLATFORM = get_platform("skx-impi")
CORPUS_DIR = REPO / "tools" / "fuzz_corpus"


def load_corpus() -> list[tuple[str, dict, list[int]]]:
    """The committed seed cases: (name, spec, counts) per corpus file."""
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        record = json.loads(path.read_text())
        spec = record.get("minimized", {}).get("spec") or record["spec"]
        counts = record.get("counts", [record.get("count", 1)])
        cases.append((path.stem, spec, [int(c) for c in counts]))
    return cases


# ----------------------------------------------------------------------
# Spec generation: every case is plain data, so it can be minimized,
# serialized, and replayed.

def random_spec(rng: random.Random, depth: int = 0) -> dict:
    kinds = ["vector", "hvector", "indexed", "indexed-block",
             "contiguous", "struct", "subarray", "resized"]
    kind = rng.choice(kinds)
    base = {"kind": "named", "name": rng.choice(list(BASES))}
    # One level of nesting, 25% of the time, for the kinds that take a
    # single oldtype.
    if depth == 0 and kind in ("vector", "contiguous", "resized") and rng.random() < 0.25:
        base = random_spec(rng, depth=1)
        while base["kind"] in ("struct", "resized"):
            base = {"kind": "named", "name": rng.choice(list(BASES))}
    if kind == "vector":
        blocklen = rng.randint(1, 6)
        return {"kind": kind, "count": rng.randint(1, 12), "blocklen": blocklen,
                "stride": blocklen + rng.randint(0, 8), "base": base}
    if kind == "hvector":
        blocklen = rng.randint(1, 4)
        name = rng.choice(list(BASES))
        return {"kind": kind, "count": rng.randint(1, 8), "blocklen": blocklen,
                "stride": blocklen * BASES[name].extent + rng.randint(0, 17),
                "base": {"kind": "named", "name": name}}
    if kind == "indexed":
        nblocks = rng.randint(1, 8)
        lengths, disps, pos = [], [], 0
        for _ in range(nblocks):
            pos += rng.randint(0, 5)
            length = rng.randint(0, 4)  # zero-length blocks are legal
            lengths.append(length)
            disps.append(pos)
            pos += length
        return {"kind": kind, "lengths": lengths, "disps": disps,
                "base": {"kind": "named", "name": rng.choice(list(BASES))}}
    if kind == "indexed-block":
        blocklen = rng.randint(1, 4)
        disps, pos = [], 0
        for _ in range(rng.randint(1, 8)):
            disps.append(pos)
            pos += blocklen + rng.randint(0, 4)
        return {"kind": kind, "blocklen": blocklen, "disps": disps,
                "base": {"kind": "named", "name": rng.choice(list(BASES))}}
    if kind == "contiguous":
        return {"kind": kind, "count": rng.randint(1, 10), "base": base}
    if kind == "struct":
        nfields = rng.randint(1, 5)
        lengths, names, disps, pos = [], [], [], 0
        for _ in range(nfields):
            name = rng.choice(list(BASES))
            length = rng.randint(1, 4)
            pos += rng.randint(0, 3) * 8
            lengths.append(length)
            names.append(name)
            disps.append(pos)
            pos += length * BASES[name].extent
        return {"kind": kind, "lengths": lengths, "disps": disps, "fields": names}
    if kind == "subarray":
        sizes = [rng.randint(2, 8), rng.randint(2, 10)]
        subsizes = [rng.randint(1, sizes[0]), rng.randint(1, sizes[1])]
        starts = [rng.randint(0, sizes[0] - subsizes[0]),
                  rng.randint(0, sizes[1] - subsizes[1])]
        sub_base = {"kind": "named", "name": rng.choice(list(BASES))}
        # subarray-of-vector: a derived element type, 25% of the time.
        if depth == 0 and rng.random() < 0.25:
            sub_base = {"kind": "vector", "count": rng.randint(1, 3),
                        "blocklen": 1, "stride": rng.randint(1, 4),
                        "base": {"kind": "named",
                                 "name": rng.choice(list(BASES))}}
        return {"kind": kind, "sizes": sizes, "subsizes": subsizes,
                "starts": starts, "base": sub_base}
    # resized: the inner type is a vector, or (25%) a struct — the
    # resized-of-struct nesting the seed corpus pins.
    if depth == 0 and rng.random() < 0.25:
        nfields = rng.randint(1, 4)
        lengths, names, disps, pos = [], [], [], 0
        for _ in range(nfields):
            name = rng.choice(list(BASES))
            length = rng.randint(1, 4)
            pos += rng.randint(0, 3) * 8
            lengths.append(length)
            names.append(name)
            disps.append(pos)
            pos += length * BASES[name].extent
        inner = {"kind": "struct", "lengths": lengths, "disps": disps,
                 "fields": names}
    else:
        inner = {"kind": "vector", "count": rng.randint(1, 5),
                 "blocklen": 1, "stride": rng.randint(1, 4), "base": base}
    return {"kind": "resized", "pad": rng.randint(0, 3) * 8, "base": inner}


def build(spec: dict):
    kind = spec["kind"]
    if kind == "named":
        return BASES[spec["name"]]
    if kind == "vector":
        return make_vector(spec["count"], spec["blocklen"], spec["stride"],
                           build(spec["base"]))
    if kind == "hvector":
        return make_hvector(spec["count"], spec["blocklen"], spec["stride"],
                            build(spec["base"]))
    if kind == "indexed":
        return make_indexed(spec["lengths"], spec["disps"], build(spec["base"]))
    if kind == "indexed-block":
        return make_indexed_block(spec["blocklen"], spec["disps"],
                                  build(spec["base"]))
    if kind == "contiguous":
        return make_contiguous(spec["count"], build(spec["base"]))
    if kind == "struct":
        return make_struct(spec["lengths"], spec["disps"],
                           [BASES[n] for n in spec["fields"]])
    if kind == "subarray":
        return make_subarray(spec["sizes"], spec["subsizes"], spec["starts"],
                             build(spec["base"]))
    if kind == "resized":
        inner = build(spec["base"])
        return make_resized(inner, 0, inner.extent + spec["pad"])
    raise ValueError(f"unknown spec kind {kind!r}")


# ----------------------------------------------------------------------
# The differential check itself.

def merged(segs):
    out = []
    for off, length in segs:
        if out and out[-1][0] + out[-1][1] == off:
            out[-1][1] += length
        else:
            out.append([off, length])
    return [(o, n) for o, n in out]


def check(spec: dict, count: int) -> str | None:
    """Run one differential case; returns a divergence message or None."""
    dtype = build(spec)
    try:
        dtype.commit()
        plan = compile_plan(dtype, count)
        segs = segments_of(dtype.flatten(count))
        naive = lower(dtype, count)
        canonical = run_pipeline(naive, platform=PLATFORM).program

        for name, program in (("naive", naive), ("canonical", canonical)):
            if program.nbytes != plan.nbytes:
                return (f"{name}: nbytes {program.nbytes} != plan {plan.nbytes}")
            if program.normalized_segments() != merged(list(plan.segments())):
                return f"{name}: normalized segments diverge from plan"
            if program.nbytes:
                if program.min_offset != plan.min_offset:
                    return (f"{name}: min_offset {program.min_offset} "
                            f"!= plan {plan.min_offset}")
                if program.max_end != plan.max_end:
                    return f"{name}: max_end {program.max_end} != plan {plan.max_end}"

        span = max((o + n for o, n in segs), default=0)
        src = (np.arange(max(span, 1), dtype=np.int64) * 13 % 251).astype(np.uint8)
        ref = np.concatenate(
            [src[o:o + n] for o, n in segs] or [np.empty(0, np.uint8)]
        )
        for pack_offset in PACK_OFFSETS:
            packed = np.zeros(pack_offset + plan.nbytes, dtype=np.uint8)
            packed[pack_offset:] = ref
            ref_back = np.zeros(max(span, 1), dtype=np.uint8)
            pos = pack_offset
            for o, n in segs:
                ref_back[o:o + n] = packed[pos:pos + n]
                pos += n
            # The plan's own movers too: at these sizes only the plan's
            # runs hold IrregularRuns (the naive lowering expands blocks
            # one op each below its op limit).
            for name, program in (("plan", plan), ("naive", naive),
                                  ("canonical", canonical)):
                out = np.zeros_like(packed)
                program.gather(src, out, pack_offset)
                if not np.array_equal(out, packed):
                    return (f"{name}: gathered bytes at pack offset {pack_offset} "
                            f"diverge from segment oracle")
                back = np.zeros_like(ref_back)
                program.scatter(packed, pack_offset, back)
                if not np.array_equal(back, ref_back):
                    return (f"{name}: scattered bytes from pack offset {pack_offset} "
                            f"diverge from segment oracle")

        if (program_cost(canonical, PLATFORM)
                > program_cost(naive, PLATFORM) * (1 + 1e-12)):
            return "cost guard violated: canonical prices worse than naive"
        return None
    finally:
        dtype.free()


# ----------------------------------------------------------------------
# Greedy minimizer: shrink every numeric field toward its floor while
# the failure reproduces.

def _variants(spec: dict):
    for key, value in spec.items():
        if isinstance(value, int) and value > (1 if key in
                ("count", "blocklen", "stride") else 0):
            yield {**spec, key: value - 1}
            if value > 2:
                yield {**spec, key: value // 2}
        elif isinstance(value, list) and value and all(
                isinstance(v, int) for v in value):
            if len(value) > 1:
                yield {**spec, key: value[:-1]}
            for i, v in enumerate(value):
                if v > 0:
                    yield {**spec, key: value[:i] + [v - 1] + value[i + 1:]}
        elif isinstance(value, dict):
            if value.get("kind") != "named":
                yield {**spec, key: {"kind": "named", "name": "double"}}
            for sub in _variants(value):
                yield {**spec, key: sub}


def _fails(spec: dict, count: int) -> bool:
    try:
        return check(spec, count) is not None
    except Exception:
        return True  # an exception is also a failure worth keeping


def minimize(spec: dict, count: int, budget: int = 400) -> tuple[dict, int]:
    """Greedy descent: apply any single shrink that still fails."""
    if count > 0 and _fails(spec, 0):
        count = 0
    elif count > 1 and _fails(spec, 1):
        count = 1
    progress = True
    while progress and budget > 0:
        progress = False
        for candidate in _variants(spec):
            budget -= 1
            if budget <= 0:
                break
            try:
                if _fails(candidate, count):
                    spec = candidate
                    progress = True
                    break
            except Exception:
                continue  # invalid shrink (constructor rejected it)
    return spec, count


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=1000,
                        help="random datatypes to generate (default 1000)")
    parser.add_argument("--seed", type=int, default=20260807,
                        help="RNG seed; the whole run is a pure function of it")
    parser.add_argument("--artifact", default=str(REPO / "FUZZ_ir_failure.json"),
                        help="where to write the minimized failure (on failure)")
    parser.add_argument("--replay", metavar="ARTIFACT",
                        help="re-run one recorded case (corpus file or "
                             "failure artifact) and exit")
    args = parser.parse_args(argv)

    if args.replay:
        record = json.loads(Path(args.replay).read_text())
        spec = record.get("minimized", {}).get("spec") or record["spec"]
        counts = record.get("counts", [record.get("count", 1)])
        for count in counts:
            try:
                message = check(spec, int(count))
            except Exception as exc:  # noqa: BLE001
                message = f"exception: {type(exc).__name__}: {exc}"
            status = "OK" if message is None else f"FAIL: {message}"
            print(f"replay {args.replay} count={count}: {status}")
            if message is not None:
                return 1
        return 0

    rng = random.Random(args.seed)
    failures = 0
    first_failure = None
    for name, spec, counts in load_corpus():
        for count in counts:
            try:
                message = check(spec, count)
            except Exception as exc:  # noqa: BLE001
                message = f"exception: {type(exc).__name__}: {exc}"
            if message is not None:
                failures += 1
                if first_failure is None:
                    first_failure = (-1, spec, count, f"corpus {name}: {message}")
    print(f"  seed corpus: {sum(len(c) for _, _, c in load_corpus())} case(s), "
          f"{failures} failure(s)", flush=True)
    for case_no in range(args.cases):
        spec = random_spec(rng)
        count = rng.randint(0, 3)
        try:
            message = check(spec, count)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the run
            message = f"exception: {type(exc).__name__}: {exc}"
        if message is not None:
            failures += 1
            if first_failure is None:
                first_failure = (case_no, spec, count, message)
        if (case_no + 1) % 200 == 0:
            print(f"  {case_no + 1}/{args.cases} cases, {failures} failure(s)",
                  flush=True)

    if first_failure is None:
        print(f"OK: {args.cases} random datatypes, IR == plan oracle "
              f"(seed {args.seed})")
        return 0

    case_no, spec, count, message = first_failure
    small_spec, small_count = minimize(spec, count)
    small_message = None
    try:
        small_message = check(small_spec, small_count)
    except Exception as exc:  # noqa: BLE001
        small_message = f"exception: {type(exc).__name__}: {exc}"
    artifact = {
        "seed": args.seed,
        "cases": args.cases,
        "failures": failures,
        "first_failure_case": case_no,
        "original": {"spec": spec, "count": count, "message": message},
        "minimized": {"spec": small_spec, "count": small_count,
                      "message": small_message},
        "replay": f"python tools/fuzz_ir.py --seed {args.seed} "
                  f"--cases {case_no + 1}",
    }
    Path(args.artifact).write_text(json.dumps(artifact, indent=1) + "\n")
    print(f"FAIL: {failures}/{args.cases} case(s) diverged; first at "
          f"case {case_no}: {message}")
    print(f"minimized failure written to {args.artifact}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
