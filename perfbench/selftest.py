"""Self-test of the traced run: exact counts repeat, outputs match goldens.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default) it makes two traced runs, each in fresh
interpreters, and requires that both are correct with no failed job (so the
traced and the untraced jobs printed the golden stdout and exit code) and that
every exact count in tracer.EXACT_COUNTS is identical between the two.
Exits 1 if any workload fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload in sys.argv[1:] or list(WORKLOADS):
        a, b = traced_run(workload), traced_run(workload)
        counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in (a, b)]
        good = all(r["correct"] and r["failed"] == 0 for r in (a, b))
        same = counts[0] == counts[1]
        ok &= good and same
        print(f"{workload}: outputs {'match goldens' if good else 'MISMATCH'}, "
              f"exact counts {'repeat' if same else 'DIFFER'}: {counts[0]}")
        if not same:
            print(f"  second run: {counts[1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
