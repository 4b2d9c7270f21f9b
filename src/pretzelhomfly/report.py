"""Three-valued verdicts for conjecture and theorem sweeps.

A sweep must distinguish a mathematical failure (a real result worth
reporting) from not having computed enough representations to decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

HOLDS = "holds"
FAILS = "fails"
INSUFFICIENT = "insufficient-data"


@dataclass
class Verdict:
    status: str
    witness: Optional[Any] = None
    detail: str = ""

    @staticmethod
    def holds(detail: str = "") -> "Verdict":
        return Verdict(HOLDS, None, detail)

    @staticmethod
    def fails(witness=None, detail: str = "") -> "Verdict":
        return Verdict(FAILS, witness, detail)

    @staticmethod
    def insufficient(detail: str = "") -> "Verdict":
        return Verdict(INSUFFICIENT, None, detail)

    @property
    def ok(self) -> bool:
        return self.status == HOLDS

    def to_json(self) -> dict:
        out = {"verdict": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            w = self.witness
            out["witness"] = w.to_text() if hasattr(w, "to_text") else str(w)
        return out
