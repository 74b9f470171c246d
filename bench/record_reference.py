"""Record the reference outputs that default-seed runs are compared with.

    python3 bench/record_reference.py [workload ...]

Runs one pass of each workload at the default seed, refuses to record an
op whose output fails the other checks, and writes
``bench/reference/<workload>.json``. Record only from a commit whose
reports are trusted: later commits are checked against these files.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402


def main(names) -> int:
    for workload in names or wl.WORKLOADS:
        ops = wl.generate(workload, wl.DEFAULT_SEED)
        digests = []
        for i, op in enumerate(ops):
            state = wl.prepare(op)
            result = wl.run_op(op, state)
            problem = wl.check(op, state, result, None)
            if problem:
                print(f"{workload} op {i}: {problem}", file=sys.stderr)
                return 1
            digests.append(wl.digest(result))
        path = BENCH / "reference" / f"{workload}.json"
        path.write_text(json.dumps({"seed": wl.DEFAULT_SEED, "digests": digests}) + "\n")
        print(f"{path.relative_to(BENCH.parent)}: {len(digests)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
