"""The names perfbench/tracer.py wraps still exist and are still called.

The tracer replaces engine functions by name (``vars(owner)[attr]``) and
reads the Racah builds' r from their first positional argument, so a renamed
function or a keyword-only r breaks the benchmark's traced run.  This test
makes that break show in the test suite.
"""

import importlib.util
from pathlib import Path

from pretzelhomfly import cli, pretzel, racah

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_homfly_records_engine_spans(capsys):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["homfly", "--params=1,1,1", "--rep", "2",
                         "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out
    spans = {(name, extra) for _, _, name, _, _, _, extra in tracer.spans}
    names = {name for name, _ in spans}
    assert ("racah.build_S", 2) in spans
    assert ("racah.build_Sbar", 2) in spans
    assert {"racah.twist_row", "pretzel.homfly_rational"} <= names
    assert pretzel.build_S is racah.build_S
