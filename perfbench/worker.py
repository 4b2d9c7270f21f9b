"""One benchmark run inside a fresh interpreter; started by run.py.

A job is one ``pretzelhomfly.cli.main(argv)`` call with stdout captured,
which builds a fresh engine exactly as one CLI invocation does.  Jobs run
back to back (a closed loop with one client): the first always, and each
next one only if a job as long as the last would still end within
``--seconds``.  On store-replay a job is a cycle: a fresh empty store, one cold pass that fills it, then WARM_PASSES
passes that read it back; the store is deleted at the end of the cycle.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

from workloads import WORKLOADS, golden_key, load_goldens

OUT_DIR = Path(__file__).resolve().parent / "out"
WARM_PASSES = 40


class Recorder:
    """Runs passes and checks each one against its golden."""

    def __init__(self, argv, golden):
        from pretzelhomfly import cli

        self.cli = cli
        self.argv = list(argv)
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def run_pass(self, extra=()) -> Tuple[float, float]:
        """One CLI call; returns its start and end on the perf_counter clock."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(self.argv + list(extra))
            except SystemExit as exc:
                code = exc.code
        t1 = time.perf_counter()
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        self.attempted += 1
        if digest != self.golden["sha256"] or code != self.golden["exit"]:
            self.failed += 1
            print(f"mismatch: exit {code}, stdout sha256 {digest}; "
                  f"stderr: {err.getvalue().strip()[:500]}", file=sys.stderr)
        return t0, t1

    def run_cycle(self) -> List[Tuple[float, float]]:
        """One store-replay cycle: the cold pass, then the warm passes."""
        store = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        try:
            extra = ("--cache-dir", store)
            return [self.run_pass(extra) for _ in range(1 + WARM_PASSES)]
        finally:
            shutil.rmtree(store)


def p90(values: List[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(rec: Recorder, store: bool, seconds: float) -> dict:
    """Jobs back to back under the host-speed probe.

    Every time is in reference seconds (see probe.py): the probe's own time
    inside the interval is subtracted, and the rest is divided by the speed
    factor of the interval.
    """
    from probe import Probe

    jobs, cpus, cold, warm, raw_jobs, factors = [], [], [], [], [], []
    probe = Probe()
    probe.start()
    try:
        start = time.perf_counter()
        # A job starts only if one as long as the last still ends in time.
        while not jobs or time.perf_counter() - start + raw_jobs[-1] <= seconds:
            t0, c0 = time.perf_counter(), time.process_time()
            passes = rec.run_cycle() if store else [rec.run_pass()]
            t1, c1 = time.perf_counter(), time.process_time()
            factor = probe.factor(t0, t1)
            spent = probe.spent(t0, t1)
            jobs.append((t1 - t0 - spent) / factor)
            cpus.append((c1 - c0 - spent) / factor)
            raw_jobs.append(t1 - t0)
            factors.append(factor)
            net = [(b - a - probe.spent(a, b)) / probe.factor(a, b) for a, b in passes]
            cold.append(net[0])
            warm.extend(net[1:])
    finally:
        probe.stop()
    if not store:
        # Without a store nothing persists between calls: every job is a cold
        # pass, and a repeated call costs what the first one did.
        warm = cold
    ms = [w * 1000 for w in warm]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "job_s": (statistics.median(jobs), "s"),
        "job_cpu_s": (statistics.median(cpus), "s"),
        "cold_pass_s": (statistics.median(cold), "s"),
        "warm_pass_p50_ms": (statistics.median(ms), "ms"),
        "warm_pass_p90_ms": (p90(ms), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    samples = {"jobs_n": len(jobs), "cold_pass_n": len(cold),
               "warm_pass_n": len(warm), "probe_n": len(probe.samples)}
    raw = {"job_wall_s": statistics.median(raw_jobs),
           "speed_factor": statistics.median(factors)}
    return {"metrics": metrics, "samples": samples, "raw": raw}


def trace(rec: Recorder, store: bool, seconds: float, name: str, seed: int) -> dict:
    """Alternate untraced and traced jobs; per-layer metrics of traced jobs."""
    from tracer import EXACT_COUNTS, Tracer, layer_metrics, step_shares

    unit = rec.run_cycle if store else rec.run_pass
    plain, traced, per_job, first = [], [], [], None
    start = time.perf_counter()
    # A pair starts only if one as long as the last still ends in time.
    while not traced or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        t0 = time.perf_counter()
        unit()
        plain.append(time.perf_counter() - t0)
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            unit()
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        per_job.append(layer_metrics(tracer.spans))
        first = first or tracer
    counts = [{k: m[k][0] for k in EXACT_COUNTS} for m in per_job]
    repeat_ok = all(c == counts[0] for c in counts)
    if not repeat_ok:
        print(f"exact counts differ between traced jobs: {counts}", file=sys.stderr)
    metrics = {k: (statistics.median(m[k][0] for m in per_job), unit_)
               for k, (_, unit_) in per_job[0].items()}
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    spans_file = OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz"
    first.write(spans_file)
    steps = step_shares(first.spans)
    return {"metrics": metrics, "repeat_ok": repeat_ok,
            "steps": steps, "spans_file": str(spans_file),
            "samples": {"jobs_n": len(traced)}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the CLI (and make a store), then exit")
    args = ap.parse_args()
    if "PRETZELHOMFLY_CACHE_DIR" in os.environ:
        raise SystemExit("PRETZELHOMFLY_CACHE_DIR must not reach the engine")
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        from pretzelhomfly import cache, cli  # noqa: F401

        if wl.store:
            store = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
            cache.HomflyCache(store)
            shutil.rmtree(store)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    argv = wl.argv(args.seed)
    rec = Recorder(argv, load_goldens()[golden_key(argv)])
    if args.trace:
        result = trace(rec, wl.store, args.seconds, wl.name, args.seed)
        correct = result["repeat_ok"]
    else:
        result = measure(rec, wl.store, args.seconds)
        correct = True
    result.update(argv=argv, attempted=rec.attempted, failed=rec.failed,
                  correct=correct and rec.failed == 0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
