"""Closed-loop benchmark of the tunnelmeet pipeline.

    python3 perfbench/run.py --workload construct --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  One
caller in one process issues operations back to back, with no threads,
in whole passes over the workload's seeded inputs until ``--seconds``
have elapsed, and for at least MIN_PASSES passes.  Every output is
checked outside the timed region, and every repeat of an operation must
reproduce its first output.  An operation's latency is the median of
its runs, or the fastest run where the workload says so.  The metrics are
taken over the operations of a pass, one latency each, so the rank of the
tail is fixed by the workload, not by the number of passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a
warm-up pass, one untraced reference pass and one pass with the
per-layer tracer installed (the two give the tracing overhead), and
prints the per-layer metrics; its counts repeat exactly from run to run,
and it writes its spans to ``.perfbench/``.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: the tail percentile leaves this many samples beyond it, or a tenth of
#: the samples when there are fewer than ten times as many
TAIL_BEYOND = 10
#: an operation's latency is taken over at least this many runs
MIN_PASSES = 3
WORKLOADS = ("construct", "certify", "adversary", "scenarios")


def _import_package():
    sys.path.insert(0, SRC)
    import tunnelmeet

    where = os.path.dirname(os.path.abspath(tunnelmeet.__file__))
    if where != os.path.join(SRC, "tunnelmeet"):
        raise ImportError(f"tunnelmeet imported from {where}, not from {SRC}")


class Runner:
    """Issues operations, times them and checks their outputs."""

    def __init__(self, workload):
        self.wl = workload
        self.ops = workload.ops()
        self.samples: list[tuple] = []  # (key, seconds)
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict = {}

    def verify(self, key, out, exc) -> None:
        from workloads import CheckFailed  # importable only once src/ is on the path

        try:
            if exc is not None:
                raise CheckFailed(f"raised {type(exc).__name__}: {exc}")
            # the first run of an operation gets every check; a repeat must
            # reproduce that checked output
            fp = self.wl.check(key, out, full=key not in self.first)
            if self.first.setdefault(key, fp) != fp:
                raise CheckFailed("output differs from the first run of this operation")
        except CheckFailed as err:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {key!r}: {err}")

    def one_pass(self, run=None) -> float:
        """Every operation once; returns the summed operation time."""
        perf = time.perf_counter
        total = 0.0
        for key, thunk in self.ops:
            exc = out = None
            t0 = perf()
            try:
                out = thunk() if run is None else run(thunk)
            except Exception as err:  # reported as a failed operation
                exc = err
            dt = perf() - t0
            total += dt
            self.samples.append((key, dt))
            self.verify(key, out, exc)
        return total


def _tail(xs):
    """Latency at the highest percentile of the sorted samples ``xs`` with
    TAIL_BEYOND samples beyond it, or a tenth of them (at least one) when
    there are fewer than 10 * TAIL_BEYOND.  `certify` and `scenarios` have
    13 and 10 operations: their tail is the lighter of the two heaviest."""
    beyond = max(min(TAIL_BEYOND, len(xs) // 10), 1)
    idx = max(len(xs) - beyond - 1, 0)
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - idx - 1


def _setup(name, seed, workloads):
    """Set the workload up several times; the median is the set-up time."""
    times, wl = [], None
    while len(times) < 3 or (sum(times) < 1.0 and len(times) < 9):
        wl = None
        gc.collect()
        t0 = time.perf_counter()
        wl = workloads.make(name, seed, os.path.join(OUT_DIR, f"{name}-{seed}"))
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times), len(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="one workload, or all four, each in a fresh process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        failed = 0
        for name in WORKLOADS:
            rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            failed |= subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
        return 1 if failed else 0

    try:
        _import_package()
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import tunnelmeet from {SRC}: {exc}\n")
        return 2
    import tracing
    import workloads

    import_s = time.perf_counter() - T_START
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        wl, setup_med, setups = _setup(args.workload, args.seed, workloads)
    except workloads.CheckFailed as exc:
        sys.stderr.write(f"error: set-up failed: {exc}\n")
        return 1
    runner = Runner(wl)
    print(f"workload {args.workload} seed {args.seed}: {len(runner.ops)} operations per pass; "
          "closed loop, one caller, one process, no threads")
    print(f"setup_s = imports {import_s:.4f} s + median of {setups} set-ups {setup_med:.4f} s")

    # The set-up's own objects (corpus, instance lists) are not the
    # program's: keep them out of the collector's full scans.
    gc.collect()
    gc.freeze()
    if args.trace:
        runner.one_pass()  # warm-up, so the untraced reference pass is not the first
        untraced = runner.one_pass()
        tracer = tracing.Tracer()
        tracer.install()

        def run(thunk):
            tracer.active = True
            try:
                return tracer.run_op(thunk)
            finally:
                tracer.active = False

        traced = runner.one_pass(run)
        tracer.uninstall()
        metrics = tracer.metrics()
        n = len(runner.ops)
        metrics["trace.untraced_ops_per_s"] = (n / untraced, "ops/s")
        metrics["trace.traced_ops_per_s"] = (n / traced, "ops/s")
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        spans = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(spans)
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(spans, ROOT)}")
        for name in tracer.absent:
            print(f"absent wrap point: {name}")
        print("no layer queues or waits (one thread), so no waiting time is reported")
    else:
        t_begin = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - t_begin < args.seconds:
            runner.one_pass()
            passes += 1
        runs: dict = {}
        for key, t in runner.samples:
            runs.setdefault(key, []).append(t)
        samples = sorted(wl.latency(ts) for ts in runs.values())
        tail, pct, beyond = _tail(samples)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "ops_per_s": (len(samples) / sum(samples), "ops/s"),
            "op_p50_s": (statistics.median(samples), "s"),
            "op_tail_s": (tail, "s"),
            "setup_s": (import_s + setup_med, "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
        print(f"{len(runner.samples)} operations in {passes} passes; an operation's latency "
              f"is the {wl.latency.__name__} of its {passes} runs; op_tail_s is p{pct:.2f} "
              f"with {beyond} of {len(samples)} samples beyond it")

    correct = runner.failed == 0
    try:
        note = wl.finish()
        print(note)
    except workloads.CheckFailed as exc:
        correct = False
        runner.errors.append(f"run check: {exc}")
    attempted = len(runner.samples)
    for err in runner.errors:
        sys.stderr.write(f"check failed: {err}\n")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {runner.failed / attempted:.6g} fraction ({runner.failed}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
