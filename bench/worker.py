"""One fresh benchmark process for one workload.

Sets the workload up (imports, inputs, replay files), then runs passes over
the workload's ops as a closed loop with one client, checks every output
after each pass, and prints one JSON line for ``run.py``. Run it through
``run.py``; it is a separate process so that its peak RSS belongs to the
workload alone.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SOURCE = BENCH.parent / "src"
if not (SOURCE / "tanglescope").is_dir():
    # never fall back to some other installed copy of the package
    sys.exit(f"bench: no package source at {SOURCE}/tanglescope")
sys.path.insert(0, str(SOURCE))

import workloads as wl  # noqa: E402  (needs the source tree on sys.path)
from tracer import Tracer  # noqa: E402


def write_replay(out: Path, ops) -> list[str]:
    """Grid files of every picture and a script replaying each op from the
    CLI; returns the grid file of each op."""
    out.mkdir(parents=True, exist_ok=True)
    files: dict[object, str] = {}
    cli = "PYTHONPATH=src python3 -m tanglescope.cli"
    lines = ["#!/bin/sh", "# run from the repository root", "set -x"]
    op_files = []
    for op in ops:
        pic = op.picture
        if pic not in files:
            path = out / f"{len(files):03d}-{pic.label}.grid"
            path.write_text(pic.grid_text())
            files[pic] = str(path.relative_to(BENCH.parent))
        grid = files[pic]
        op_files.append(grid)
        if op.subset is None:
            lines.append(f"{cli} analyze --pixel-cap {pic.pixel_cap} {grid} > /dev/null")
        else:
            lines.append(f"{cli} resolution --pixel-cap {pic.pixel_cap} "
                         f"--subset {op.subset:x} {grid}")
    (out / "replay.sh").write_text("\n".join(lines) + "\n")
    return op_files


def load_reference(workload: str, seed: int):
    if seed != wl.DEFAULT_SEED:
        return None
    return json.loads((BENCH / "reference" / f"{workload}.json").read_text())["digests"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes instead of timing")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = wl.generate(args.workload, args.seed)
    states = [wl.prepare(op) for op in ops]
    out = BENCH / "out" / f"{args.workload}-seed{args.seed}"
    op_files = write_replay(out, ops)
    reference = load_reference(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.trace else None
    latencies: list[float] = []
    records = []
    failures = []
    skipped = verdicts = 0
    loop_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = []
        with tracer if tracer is not None else nullcontext():
            for op, state in zip(ops, states):
                if tracer is not None:
                    tracer.op = len(latencies)
                t0 = time.perf_counter()
                try:
                    result = wl.run_op(op, state)
                except Exception as exc:  # an op failure is counted, never fatal
                    result = exc
                latencies.append(time.perf_counter() - t0)
                results.append(result)
                # analyze leaves its pool in a reference cycle (pool, profile
                # cache, strata), so the previous picture's 2^n order table
                # would otherwise stay alive into the next op: 1.48 GB peak
                # instead of 0.76 GB on glyph25
                gc.collect()
        for i, (op, state, result) in enumerate(zip(ops, states, results)):
            try:
                problem = wl.check(op, state, result, reference[i] if reference else None)
                if not isinstance(result, BaseException):
                    s, v = wl.verdict_counts(result)
                    skipped += s
                    verdicts += v
            except Exception as exc:  # malformed output fails the op, not the run
                problem = f"checking raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append(f"op {i} ({op_files[i]}): {problem}")
            records.append({"index": i, "grid": op_files[i], "subset": op.subset,
                            "latency_s": latencies[len(records)], "failure": problem})
        now = time.perf_counter()
        done = len(latencies) // len(ops)
        if args.passes:
            if done >= args.passes:
                break
        elif (now - loop_start) + (now - pass_start) > args.seconds:
            break

    (out / ("ops-traced.json" if tracer else "ops.json")).write_text(
        json.dumps(records, indent=1) + "\n")
    result = {
        "ready": ready,
        "passes": done,
        "wall_s": sum(latencies),
        "latencies": latencies,
        "failures": failures,
        "verdicts_skipped": skipped,
        "verdicts": verdicts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replay": str((out / "replay.sh").relative_to(BENCH.parent)),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
        with open(out / "trace.jsonl", "w") as fh:
            for name, op_index, start, end, parent in tracer.spans:
                fh.write(json.dumps({"layer": name, "op": op_index, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
