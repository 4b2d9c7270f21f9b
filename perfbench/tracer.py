"""Outside-in tracing of the engine: spans around calls into each module.

Nothing under ``src/`` knows about this.  ``install`` replaces public
functions at the names their callers actually look up (class attributes such
as ``LaurentPoly.__mul__``, and names imported by value such as
``pretzel.build_S``) with wrappers that record one span per call, and
``uninstall`` puts every original back.  Spans stay in memory; the per-layer
metrics and the span file are derived from them once the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (span id, parent id, name, start, end, raised, extra)
Span = Tuple[int, int, str, float, float, bool, Optional[int]]

MAX_R = 4  # racah.build_*.r<k>_s are reported for k = 1..MAX_R


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._tls = threading.local()
        # One C call under the interpreter lock, so ids stay unique across threads.
        self._new_id = itertools.count(1).__next__
        self._saved: List[Tuple[object, str, object]] = []
        # Spans opened on a thread with an empty stack (the verify pool's
        # worker) are children of the job's open cli.main span.
        self.root = 0

    def wrap(self, owner, attr: str, name: str,
             extra: Optional[Callable] = None, root: bool = False):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``extra(args, result)`` returns an integer stored with the span.
        """
        original = vars(owner)[attr]
        tls, spans, clock, new_id = self._tls, self.spans, time.perf_counter, self._new_id

        def traced(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            parent = stack[-1] if stack else self.root
            sid = new_id()
            if root:
                self.root = sid
            stack.append(sid)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, True, None))
                raise
            finally:
                if root:
                    self.root = 0
            t1 = clock()
            stack.pop()
            spans.append((sid, parent, name, t0, t1, False,
                          extra(args, result) if extra else None))
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def install(self):
        from pretzelhomfly import (cache, cli, diffexp, differences, laurent,
                                   pretzel, qcore, symfunc)

        w = self.wrap
        w(cli, "main", "cli.main", root=True)
        # The engine calls these through the names pretzel imported by value.
        w(pretzel, "build_S", "racah.build_S", extra=lambda a, _: a[0])
        w(pretzel, "build_Sbar", "racah.build_Sbar", extra=lambda a, _: a[0])
        w(pretzel, "twist_row", "racah.twist_row")
        w(pretzel, "canonicalize_framing", "pretzel.canonicalize_framing")
        for mod in (symfunc, pretzel, cli):
            w(mod, "schur_hook", "symfunc.schur_hook")
        Engine = pretzel.HomflyEngine
        for attr in ("homfly", "homfly_rational", "matrices", "twist_row",
                     "chi_single_row"):
            w(Engine, attr, f"pretzel.{attr}")
        for attr in ("__mul__", "__add__", "__sub__", "__neg__", "__truediv__",
                     "__pow__", "inverse", "mul_poly", "div_poly"):
            w(qcore.RationalFn, attr, "qcore.rational")
        w(qcore.RationalFn, "to_poly", "qcore.to_poly")
        Poly = laurent.LaurentPoly
        w(Poly, "__mul__", "laurent.mul",
          extra=lambda a, _: len(a[0].terms) * len(a[1].terms))
        w(Poly, "exact_div", "laurent.exact_div")
        w(Poly, "substitute", "laurent.substitute")
        for mod in (diffexp, cli):
            w(mod, "extract_F", "diffexp.extract_F")
            w(mod, "check_conjecture_935", "diffexp.checks")
            w(mod, "check_conjecture_946", "diffexp.checks")
        for mod in (differences, cli):
            w(mod, "q_diff", "differences.q_diff")
            w(mod, "check_theorem_1", "differences.check_theorem_1")
        w(cache.HomflyCache, "get", "cache.get",
          extra=lambda a, hit: 0 if hit is None else a[0]._path(a[1]).stat().st_size)
        w(cache.HomflyCache, "put", "cache.put",
          extra=lambda a, _: a[0]._path(a[1]).stat().st_size)

    def uninstall(self):
        """Restore every wrapped name; raise if one was replaced meanwhile."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if getattr(vars(owner)[attr], "__wrapped__", None) is not original:
                raise RuntimeError(f"{owner}.{attr} changed while traced")
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as tab-separated lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\traised\textra\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    child = defaultdict(float)
    for sid, parent, _, t0, t1, _, _ in spans:
        child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _, _, t0, t1, _, _ in spans}


def layer_metrics(spans: List[Span]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced job: name -> (value, unit)."""
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    raised = defaultdict(int)
    extra = defaultdict(int)
    hits = 0
    build = defaultdict(float)
    computed = set()  # homfly spans that read the store or assembled
    by_id = {s[0]: s for s in spans}
    for sid, parent, name, t0, t1, failed, x in spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += own[sid]
        raised[name] += failed
        if x is not None:
            extra[name] += x
        if name.startswith("racah.build_"):
            build[(name, x)] += t1 - t0
        elif name == "cache.get" and x:
            hits += 1
        if name in ("cache.get", "pretzel.homfly_rational"):
            p = by_id.get(parent)
            if p is not None and p[2] == "pretzel.homfly":
                computed.add(parent)

    out: Dict[str, Tuple[float, str]] = {}
    for kind in ("S", "Sbar"):
        for r in range(1, MAX_R + 1):
            out[f"racah.build_{kind}.r{r}_s"] = (build[(f"racah.build_{kind}", r)], "s")
    out["racah.twist_row.s"] = (total["racah.twist_row"], "s")
    out["qcore.rational.calls"] = (calls["qcore.rational"], "count")
    out["qcore.rational.self_s"] = (self_s["qcore.rational"], "s")
    out["qcore.to_poly.s"] = (total["qcore.to_poly"], "s")
    div_calls, div_failed = calls["laurent.exact_div"], raised["laurent.exact_div"]
    out.update({
        "laurent.mul.calls": (calls["laurent.mul"], "count"),
        "laurent.mul.term_products": (extra["laurent.mul"], "count"),
        "laurent.mul.s": (total["laurent.mul"], "s"),
        "laurent.exact_div.calls": (div_calls, "count"),
        "laurent.exact_div.failed": (div_failed, "count"),
        "laurent.exact_div.success_ratio": (
            (div_calls - div_failed) / div_calls if div_calls else 0.0, "ratio"),
        "laurent.exact_div.s": (total["laurent.exact_div"], "s"),
        "laurent.substitute.calls": (calls["laurent.substitute"], "count"),
        "laurent.substitute.s": (total["laurent.substitute"], "s"),
    })
    homfly_calls = calls["pretzel.homfly"]
    out.update({
        "pretzel.homfly.calls": (homfly_calls, "count"),
        "pretzel.homfly_rational.calls": (calls["pretzel.homfly_rational"], "count"),
        "pretzel.memo_hit_ratio": (
            (homfly_calls - len(computed)) / homfly_calls if homfly_calls else 0.0,
            "ratio"),
        "pretzel.matrices.s": (total["pretzel.matrices"], "s"),
        "pretzel.twist_row.calls": (calls["pretzel.twist_row"], "count"),
        "pretzel.assembly.self_s": (self_s["pretzel.homfly_rational"], "s"),
        "pretzel.canonicalize_framing.s": (total["pretzel.canonicalize_framing"], "s"),
        "pretzel.chi_single_row.s": (total["pretzel.chi_single_row"], "s"),
        "symfunc.schur_hook.calls": (calls["symfunc.schur_hook"], "count"),
        "symfunc.schur_hook.s": (total["symfunc.schur_hook"], "s"),
        "diffexp.extract_F.s": (total["diffexp.extract_F"], "s"),
        "diffexp.checks.s": (total["diffexp.checks"], "s"),
        "differences.q_diff.calls": (calls["differences.q_diff"], "count"),
        "differences.check_theorem_1.self_s": (
            self_s["differences.check_theorem_1"], "s"),
        "cache.get.calls": (calls["cache.get"], "count"),
        "cache.get.hits": (hits, "count"),
        "cache.get.s": (total["cache.get"], "s"),
        "cache.put.calls": (calls["cache.put"], "count"),
        "cache.put.s": (total["cache.put"], "s"),
        "cache.bytes_read": (extra["cache.get"], "B"),
        "cache.bytes_written": (extra["cache.put"], "B"),
        "cli.self_s": (self_s["cli.main"], "s"),
    })
    return out


# Exact counts that must repeat from one traced run to the next.
EXACT_COUNTS = (
    "laurent.mul.calls", "laurent.mul.term_products", "laurent.exact_div.calls",
    "laurent.exact_div.failed", "pretzel.homfly.calls",
    "pretzel.homfly_rational.calls", "cache.get.hits", "qcore.rational.calls",
    "differences.q_diff.calls", "cache.get.calls", "cache.put.calls",
)

# Spans that open a blocking step of a job; every span's self time is
# charged to the innermost step around it.
_STEPS = ("racah.build_S", "racah.build_Sbar", "racah.twist_row",
          "pretzel.homfly_rational", "qcore.to_poly",
          "pretzel.canonicalize_framing", "pretzel.chi_single_row",
          "diffexp.extract_F", "diffexp.checks", "differences.check_theorem_1",
          "cache.get", "cache.put", "cli.main")


def step_shares(spans: List[Span]) -> List[Tuple[str, float]]:
    """Self time per blocking step, largest first; Racah builds are split by r
    so that the r = 4 build shows as its own step."""
    own = self_times(spans)
    step_of: Dict[int, str] = {0: "outside cli.main"}
    out = defaultdict(float)
    for sid, parent, name, _, _, _, x in sorted(spans, key=lambda s: s[3]):
        if name in _STEPS:
            step = f"racah.build r={x}" if name.startswith("racah.build") else name
            if name == "pretzel.homfly_rational":
                step = "pretzel.assembly"
        else:
            step = step_of.get(parent, "outside cli.main")
        step_of[sid] = step
        out[step] += own[sid]
    return sorted(out.items(), key=lambda kv: -kv[1])
