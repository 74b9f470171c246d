"""tanglescope benchmark: one workload per invocation.

    python3 bench/run.py --workload random12 --seed 3 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. Each
workload runs in fresh worker processes (``worker.py``) as a closed loop
with one client on one thread: the next op starts when the previous one
returns. Whole passes over the workload's ops are run until another pass
would end after ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median,
over several fresh processes, of the time from process start to the first
timed op (imports, input generation, replay files).

``--trace 1`` reports the per-layer metrics: one pass with the package's
public functions wrapped at runtime (``tracer.py``), and one untraced pass
of the same ops for ``trace.overhead_ratio``.

Human-readable lines come first; the last line of standard output is the
JSON result. Replay files land in ``bench/out/<workload>-seed<n>/``.
"""
from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
# as in workloads.py, which this process does not import: it needs numpy
WORKLOADS = ("random12", "glyph25", "resolution-subsets")
SETUP_PROBES = 6          # plus the measuring worker itself
RUN_LIMIT_S = 175.0       # a run must end within 180 s
TAIL_MIN_OPS = 20
TAIL_BEYOND = 10

# per-layer metrics besides busy_s: (metric suffix, unit)
LAYER_EXTRAS = {
    "search.profiles": [("calls", "count"), ("pairs_total", "count")],
    "search.ftangle": [("calls", "count"), ("found_ratio", "1")],
    "canvas.all_orders": [("builds", "count"), ("cache_hits", "count"),
                          ("rss_added_mb", "MB")],
    "sepsys.stratum": [("calls", "count"), ("pairs_max", "count"),
                       ("rss_added_mb", "MB")],
    "profiles.restrict": [("calls", "count")],
    "duality.find_f_tangle": [("calls", "count")],
}


class WorkerError(RuntimeError):
    pass


def spawn(args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker process; returns (monotonic start, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker did not finish within {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float]):
    """Highest whole percentile with at least TAIL_BEYOND samples above it
    (nearest-rank), as (value, percentile, samples beyond); None below
    TAIL_MIN_OPS samples."""
    count = len(latencies)
    if count < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies)
    pct = math.floor(100 * (count - TAIL_BEYOND) / count)
    rank = max(1, math.ceil(pct * count / 100))
    return ordered[rank - 1], pct, count - rank


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    setup = []
    for _ in range(SETUP_PROBES):
        start, probe = spawn(args, ["--setup-only"], deadline)
        setup.append(probe["ready"] - start)
    start, run = spawn(args, [], deadline)
    setup.append(run["ready"] - start)

    lat = run["latencies"]
    attempted, failed = len(lat), len(run["failures"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_per_s": (attempted / run["wall_s"], "ops/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    lines = [f"{name:22s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines[0] += f"  (median of {len(setup)} fresh processes)"
    lines[2] += f"  ({attempted} samples)"
    tail = tail_latency(lat)
    lines.insert(3, "latency_tail_s         none (fewer than "
                 f"{TAIL_MIN_OPS} ops in the run)" if tail is None else
                 f"latency_tail_s         {tail[0]:.6g} s  (p{tail[1]}, {attempted} "
                 f"samples, {tail[2]} beyond)")
    lines.append(f"fail_ratio             {failed / attempted:.6g} 1  ({failed}/{attempted})")
    if run["verdicts"]:
        ratio = run["verdicts_skipped"] / run["verdicts"]
        lines.append(f"skipped_verdict_ratio  {ratio:.6g} 1  "
                     f"({run['verdicts_skipped']}/{run['verdicts']} verdicts with ok not true/false)")
    else:
        lines.append("skipped_verdict_ratio  none (the workload produces no verdicts)")
    lines.append(f"passes {run['passes']}, timed loop {run['wall_s']:.3f} s; "
                 f"replay: {run['replay']}")
    return metrics, run, lines


def per_layer(args, deadline: float) -> tuple[dict, dict, list[str]]:
    _, base = spawn(args, ["--passes", "1"], deadline)
    _, run = spawn(args, ["--passes", "1", "--trace"], deadline)
    layers = run["layers"]
    metrics = {}
    for name, stats in layers.items():
        metrics[f"{name}.busy_s"] = (stats["busy_s"], "s")
        for key, unit in LAYER_EXTRAS.get(name, ()):
            if key == "builds":
                value = stats["calls"]
            elif key == "found_ratio":
                value = stats.get("found", 0) / stats["calls"] if stats["calls"] else 0.0
            else:
                value = stats.get(key, 0)
            metrics[f"{name}.{key}"] = (value, unit)
    metrics["duality.verdicts"] = (run["verdicts"], "count")
    metrics["duality.verdicts_skipped"] = (run["verdicts_skipped"], "count")
    metrics["trace.overhead_ratio"] = (run["wall_s"] / base["wall_s"] - 1, "1")

    traced = run["wall_s"]
    lines = [f"traced pass {traced:.3f} s, untraced pass {base['wall_s']:.3f} s"]
    for name, stats in sorted(layers.items(), key=lambda kv: -kv[1]["busy_s"]):
        lines.append(f"{name:34s} busy {stats['busy_s']:9.4f} s "
                     f"({100 * stats['busy_s'] / traced:5.1f}%)  calls {stats['calls']}")
    if run["absent"]:
        lines.append("absent layers: " + ", ".join(run["absent"]))
    # both passes count towards the correctness figures
    run["latencies"] = base["latencies"] + run["latencies"]
    run["failures"] = base["failures"] + run["failures"]
    return metrics, run, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # exit through SystemExit so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        metrics, run, lines = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    attempted, failed = len(run["latencies"]), len(run["failures"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines + run["failures"][:10]:
        print("  " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
