"""Command-line interface: batch computation, extraction and verification.

Exit codes separate science from plumbing: 0 means success or a verdict of
"holds", 1 means some verdict is "fails" (a reportable result, not a bug),
2 is a usage error and 3 a computation error.  Sweeps never abort on a
single failing verdict; they report it and continue.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from typing import List, Optional

from . import ENGINE_VERSION
from .cache import HomflyCache, resolve_cache_dir
from .diffexp import (alexander, check_conjecture_935, check_conjecture_946,
                      defect, extract_F)
# q_diff is not called here, but stays importable from this module: the
# benchmark tracer (perfbench/tracer.py) wraps it under this name.
from .differences import (check_conjecture_main, check_conjecture_mono,  # noqa: F401
                          check_theorem_1, q_diff, q_diff_window)
from .errors import EngineError
from .laurent import LaurentPoly
from .pretzel import HomflyEngine, PretzelSpec
from .report import FAILS, HOLDS
from .symfunc import YoungDiagram, schur_hook, schur_jacobi_trudi

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


def _parse_params(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad parameter list: {text!r}")


def _emit(obj, fmt: str, text_of=None):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(text_of(obj) if text_of else obj)


def _engine(args) -> HomflyEngine:
    cache_dir = resolve_cache_dir(getattr(args, "cache_dir", None))
    cache = HomflyCache(cache_dir) if cache_dir else None
    return HomflyEngine(cache=cache)


def _verdict_exit(statuses: List[str]) -> int:
    return EXIT_FAILS if FAILS in statuses else EXIT_OK


# -- verbs -------------------------------------------------------------------

def _cmd_homfly(args) -> int:
    eng = _engine(args)
    result = eng.homfly(PretzelSpec(args.params, args.rep))
    payload = {"params": list(args.params), "rep": args.rep,
               "poly": result.poly.to_text()}
    if result.framing_unit is not None:
        payload["framing_unit"] = result.framing_unit.as_poly().to_text()
    _emit(payload, args.format, lambda o: o["poly"])
    return EXIT_OK


def _cmd_alexander(args) -> int:
    eng = _engine(args)
    h1 = eng.homfly(PretzelSpec(args.params, 1)).poly
    al = alexander(h1)
    _emit({"params": list(args.params), "alexander": al.to_text()},
          args.format, lambda o: o["alexander"])
    return EXIT_OK


def _cmd_defect(args) -> int:
    if args.alexander:
        from .diffexp import AlexanderPoly
        al = AlexanderPoly(LaurentPoly.from_text(args.alexander))
    elif args.params:
        eng = _engine(args)
        al = alexander(eng.homfly(PretzelSpec(args.params, 1)).poly)
    else:
        print("defect: need --params or --alexander", file=sys.stderr)
        return EXIT_USAGE
    d = defect(al)
    _emit({"alexander": al.to_text(), "defect": d}, args.format,
          lambda o: str(o["defect"]))
    return EXIT_OK


def _cmd_ffactors(args) -> int:
    eng = _engine(args)
    hs = [eng.homfly(PretzelSpec(args.params, r)).poly
          for r in range(1, args.max_r + 1)]
    knot = ",".join(str(p) for p in args.params)
    fe = extract_F(hs, knot)
    conjectures = {}
    for i in range(2, fe.maxR + 1):
        conjectures[f"sum_with_prev_divisible_i{i}"] = \
            check_conjecture_935(fe, i).to_json()
    for i in range(3, fe.maxR + 1, 2):
        conjectures[f"factor_and_step_i{i}"] = check_conjecture_946(fe, i).to_json()
    payload = {"knot": knot, "defect": fe.defect,
               "F": [f.to_text() for f in fe.F], "conjectures": conjectures}
    _emit(payload, args.format,
          lambda o: "\n".join(f"F_{i + 1} = {t}" for i, t in enumerate(o["F"])))
    return EXIT_OK


def _cmd_diff(args) -> int:
    eng = _engine(args)
    if len(args.params) != 2:
        print("diff: --params takes the two fixed parameters a,b", file=sys.stderr)
        return EXIT_USAGE
    a, b = args.params
    lo, _, hi = args.c_range.partition(":")
    clo, chi = int(lo), int(hi)
    cs = range(clo, chi + 1, 2)
    diffs = q_diff_window(args.order, (a, b), cs, args.rep, eng)
    rows = [{"c": c, "poly": d.to_text()} for c, d in zip(cs, diffs)]
    _emit({"order": args.order, "a": a, "b": b, "rep": args.rep,
           "entries": rows}, args.format,
          lambda o: "\n".join(f"c={e['c']}: {e['poly']}" for e in o["entries"]))
    return EXIT_OK


def _theorem1_cases(depth: int):
    odd = (-3, -1, 1, 3)
    for a, b, c in product(odd, repeat=3):
        for r in range(1, depth + 1):
            yield a, b, (c + 1) // 2, r  # m with c = 2m - 1


def _cmd_verify(args) -> int:
    eng = _engine(args)
    reports, statuses = [], []

    def record(case: str, verdict):
        reports.append({"case": case, **verdict.to_json()})
        statuses.append(verdict.status)

    if args.property == "theorem1":
        if args.depth:
            cases = list(_theorem1_cases(args.depth))
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                verdicts = list(pool.map(
                    lambda t: check_theorem_1(*t, engine=eng), cases))
            for (a, b, m, r), v in zip(cases, verdicts):
                record(f"theorem1(a={a},b={b},m={m},r={r})", v)
        else:
            a, b = args.params
            record(f"theorem1(a={a},b={b},m={args.m},r={args.rep})",
                   check_theorem_1(a, b, args.m, args.rep, eng))
    elif args.property == "conj-main":
        a, b = args.params
        record(f"conj-main(a={a},b={b},c={args.c},r={args.rep})",
               check_conjecture_main(a, b, args.c, args.rep, eng))
    elif args.property == "conj-mono":
        a, b = args.params
        mv = check_conjecture_mono(a, b, args.c, args.rep, eng)
        record(f"conj-mono-step1(a={a},b={b},c={args.c},r={args.rep})",
               mv.literal_step)
        record(f"conj-mono-step2(a={a},b={b},c={args.c},r={args.rep})",
               mv.odd_step)
    elif args.property in ("conj-935", "conj-946"):
        params = args.params if len(args.params) == 3 else (
            (3, 3, 3) if args.property == "conj-935" else (3, 3, -3))
        max_r = args.depth or 3
        hs = [eng.homfly(PretzelSpec(params, r)).poly
              for r in range(1, max_r + 1)]
        fe = extract_F(hs, ",".join(str(p) for p in params))
        if args.property == "conj-935":
            for i in range(2, max_r + 1):
                record(f"conj-935(i={i})", check_conjecture_935(fe, i))
        else:
            for i in range(3, max_r + 1, 2):
                cv = check_conjecture_946(fe, i)
                record(f"conj-946-divisibility(i={i})", cv.divisibility)
                record(f"conj-946-quotient-step(i={i})", cv.quotient_step)
    else:
        print(f"verify: unknown property {args.property}", file=sys.stderr)
        return EXIT_USAGE

    _emit({"reports": reports}, args.format,
          lambda o: "\n".join(f"{e['case']}: {e['verdict']}"
                              + (f" ({e['detail']})" if e.get("detail") else "")
                              for e in o["reports"]))
    return _verdict_exit(statuses)


def _cmd_cache(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        print("cache: no cache directory configured", file=sys.stderr)
        return EXIT_USAGE
    cache = HomflyCache(cache_dir)
    if args.action == "ls":
        entries = list(cache.entries())
        _emit({"entries": entries}, args.format,
              lambda o: "\n".join(f"{e['key']} v{e['version']}"
                                  for e in o["entries"]) or "(empty)")
    else:
        n = cache.clear()
        _emit({"cleared": n}, args.format, lambda o: f"cleared {o['cleared']}")
    return EXIT_OK


def _cmd_schur(args) -> int:
    rows = json.loads(args.diagram)
    lam = YoungDiagram(rows)
    value = (schur_jacobi_trudi(lam) if args.method == "jt"
             else schur_hook(lam))
    _emit({"diagram": rows, "method": args.method, "value": value.to_text()},
          args.format, lambda o: o["value"])
    return EXIT_OK


# -- wiring ------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--cache-dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pretzelhomfly",
        description="Exact colored HOMFLY polynomials of pretzel knots")
    top.add_argument("--version", action="version",
                     version=f"engine-version {ENGINE_VERSION}")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("homfly", help="canonical [r]-colored HOMFLY polynomial")
    p.add_argument("--params", type=_parse_params, required=True)
    p.add_argument("--rep", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_homfly)

    p = sub.add_parser("alexander", help="A=1 slice of the fundamental polynomial")
    p.add_argument("--params", type=_parse_params, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_alexander)

    p = sub.add_parser("defect", help="differential-expansion defect")
    p.add_argument("--params", type=_parse_params)
    p.add_argument("--alexander", help="Alexander polynomial as text")
    _add_common(p)
    p.set_defaults(fn=_cmd_defect)

    p = sub.add_parser("ffactors", help="extract F-factors from H_[1..R]")
    p.add_argument("--params", type=_parse_params, required=True)
    p.add_argument("--max-r", type=int, default=3)
    _add_common(p)
    p.set_defaults(fn=_cmd_ffactors)

    p = sub.add_parser("diff", help="n-th finite difference in the last parameter")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--params", type=_parse_params, required=True,
                   help="the two fixed parameters a,b")
    p.add_argument("--rep", type=int, required=True)
    p.add_argument("--c-range", required=True, help="lo:hi, stepped by 2")
    _add_common(p)
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("verify", help="run a theorem/conjecture check")
    p.add_argument("property",
                   choices=("theorem1", "conj-main", "conj-mono",
                            "conj-935", "conj-946"))
    p.add_argument("--params", type=_parse_params, default=())
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--rep", type=int, default=1)
    p.add_argument("--depth", type=int, default=0,
                   help="sweep depth (max r for theorem1 sweeps / max-r for "
                        "F-factor conjectures)")
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cache", help="inspect or clear the persistent store")
    p.add_argument("action", choices=("ls", "clear"))
    _add_common(p)
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser("schur", help="Schur function at the special point")
    p.add_argument("--diagram", required=True, help='row list, e.g. "[4,4,3,1]"')
    p.add_argument("--method", choices=("hook", "jt"), default="hook")
    _add_common(p)
    p.set_defaults(fn=_cmd_schur)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except EngineError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, IndexError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
