"""Record goldens.json: stdout sha256 and exit code of every pool input.

    python3 perfbench/make_goldens.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Each input runs once, through the CLI with a fresh engine and no
store; its wall time goes to stderr, to check that a pool's inputs cost about
the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("PRETZELHOMFLY_CACHE_DIR", None)

from pretzelhomfly import cli  # noqa: E402
from workloads import GOLDENS, WORKLOADS, golden_key  # noqa: E402


def main() -> int:
    goldens = {}
    for wl in WORKLOADS.values():
        for argv in wl.pool:
            key = golden_key(argv)
            if key in goldens:
                continue
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            print(f"{time.perf_counter() - t0:8.2f} s  exit {code}  {key}",
                  file=sys.stderr)
            goldens[key] = {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                            "exit": code}
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
