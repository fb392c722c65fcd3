"""The benchmark's own test: traced counts repeat exactly.

    python3 perfbench/selftest.py

Runs ``run.py --trace 1`` twice per workload, all four at seed 0, in
fresh processes, so string hashing differs between the two, and fails
unless every count metric, and every ratio of counts, is identical.  It
also checks that a wrap point whose name is gone is recorded as absent
rather than failing the run.  Exit code 0 means everything held.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_RATIOS = ("adversary.pieces_per_cell", "adversary.met_ratio")


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] == "count" or name in COUNT_RATIOS
    }


def absent_is_recorded() -> bool:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracing

    tr = tracing.Tracer()
    tr.install([
        ("tunnelmeet.geometry", "no_such_function", lambda fn: fn),
        ("tunnelmeet.routes", "Route.no_such_method", lambda fn: fn),
    ])
    tr.uninstall()
    return len(tr.absent) == 2


def main() -> int:
    ok = absent_is_recorded()
    print(f"absent wrap points recorded: {'ok' if ok else 'FAILED'}")
    for name in WORKLOADS:
        first, second = traced(name), traced(name)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        ok = ok and not diff
        print(f"{name}: {len(first)} counts {'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
