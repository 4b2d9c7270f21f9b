"""The benchmark's workloads: which CLI argv each seed gives, and the goldens.

Seed 0 gives each workload's canonical job.  Other seeds index a small fixed
pool, so the program only ever sees argv.  The pools hold inputs of about the
same work as seed 0 (mirror images, reordered parameters), so a change of
seed changes the input and the output more than the cost.

Options whose value may start with "-" are passed as one "--opt=value" token:
with a space, argparse reads a value such as "-5:5" or "-3,-3,3" as a flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

Argv = Tuple[str, ...]


def _ffactors(params: str) -> Argv:
    return ("ffactors", f"--params={params}", "--max-r", "4", "--format", "json")


def _diff(params: str, c_range: str) -> Argv:
    return ("diff", "--order", "3", f"--params={params}", "--rep", "3",
            f"--c-range={c_range}", "--format", "json")


THEOREM1: Argv = ("verify", "theorem1", "--depth", "2", "--format", "json")


@dataclass(frozen=True)
class Workload:
    name: str
    pool: Tuple[Argv, ...]
    # store-replay runs its argv against a fresh --cache-dir store: one cold
    # pass that fills the store, then warm passes that read it back.
    store: bool = False

    def argv(self, seed: int) -> Argv:
        return self.pool[seed % len(self.pool)]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Deep: four Racah builds (r = 1..4) on one knot, no memo reuse, no store.
    Workload("ffactor-tower", (
        _ffactors("3,3,-3"), _ffactors("-3,-3,3"),
        _ffactors("-3,3,3"), _ffactors("3,-3,-3"))),
    # Wide: 128 checks over 60 distinct (knot, r) pairs with r <= 2; exits 1
    # because the criterion-5 counterexamples at r = 2 are reported as fails.
    Workload("theorem1-sweep", (THEOREM1,)),
    # A long family in the last parameter: one r = 3 build, nine direct
    # assemblies, 48 homfly lookups through the q_diff recursion.
    # Fixed: no other family found costs the same.  The mirror family
    # (-3,-3) over 1:11 takes about 40% longer, shifted windows up to 7%
    # more or less, which would show as spread between seeds.
    Workload("c-sweep", (_diff("3,3", "-5:5"),)),
    # The only workload that touches the persistent store, both ways.
    Workload("store-replay", (THEOREM1,), store=True),
)}


def load_goldens() -> Dict[str, dict]:
    """argv (space-joined) -> {"sha256": stdout digest, "exit": exit code}."""
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def golden_key(argv: Argv) -> str:
    return " ".join(argv)
