"""Benchmark entry point: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With ``--trace 0`` it times
``setup_s`` (fresh interpreters importing the CLI) and then one fresh child
interpreter that runs the workload's jobs back to back for up to S seconds,
and reports the end-to-end metrics in reference seconds (probe.py).  With ``--trace 1`` the child alternates
untraced and traced jobs and reports the per-layer metrics.  Every job's
stdout digest and exit code are checked against goldens.json.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPS = 9
PROBE_REPS = 5
TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    # resolve_cache_dir falls back to this variable; it would silently turn
    # the compute workloads into store reads.
    env.pop("PRETZELHOMFLY_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def time_setup(workload: str, env: dict, deadline: float) -> float:
    """Median set-up time in reference seconds (see probe.py).

    Set-up is the time from starting a fresh interpreter until it has
    imported the CLI (and, for store-replay, made an empty store).  The child
    reads the system-wide monotonic clock when set-up is done; the exit is not
    timed, because waiting with a timeout polls in steps of up to 50 ms.  The
    speed factor of each start comes from PROBE_REPS kernel runs on either
    side of it.
    """
    from probe import KERNEL_REF_S, kernel_time

    times = []
    for _ in range(SETUP_REPS):
        before = [kernel_time() for _ in range(PROBE_REPS)]
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", workload, "--setup-only"],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            timeout=deadline - time.monotonic())
        wall = float(proc.stdout) - t0
        after = [kernel_time() for _ in range(PROBE_REPS)]
        times.append(wall * KERNEL_REF_S / statistics.fmean(before + after))
    return statistics.median(times)


def expected_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIMEOUT_S
    if not (ROOT / "src" / "pretzelhomfly" / "cli.py").is_file():
        print(f"no pretzelhomfly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # One CPU for this process and every child: the probe samples the
    # host's speed on the CPU the job runs on, and the verify pool's worker
    # thread cannot move to another CPU than the probe's main thread.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (time_setup(args.workload, env, deadline), "s")
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=deadline - time.monotonic())
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update((k, tuple(v)) for k, v in result["metrics"].items())

    expected = expected_metrics(bool(args.trace))
    got = {k: unit for k, (_, unit) in metrics.items()}
    if got != expected:
        print(f"metrics {got} do not match BENCHMARK.json {expected}",
              file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  argv: {' '.join(result['argv'])}")
    print(f"  samples: {result['samples']}  "
          f"failed_frac: {failed / attempted} ({failed}/{attempted} CLI calls)")
    if "raw" in result:
        print(f"  median job wall time {result['raw']['job_wall_s']:.4g} s, "
              f"median speed factor {result['raw']['speed_factor']:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    if args.trace:
        print(f"  self time by blocking step (first traced job; spans in {result['spans_file']}):")
        total = sum(s for _, s in result["steps"])
        for step, s in result["steps"][:8]:
            print(f"    {step:40s} {s:9.3f} s {100 * s / total:5.1f}%")
    print(json.dumps({
        "correct": result["correct"], "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
