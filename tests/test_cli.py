"""Command-line interface: exit codes, output determinism, verbs."""

import json

import pytest

from pretzelhomfly.cli import (EXIT_ERROR, EXIT_FAILS, EXIT_OK, EXIT_USAGE,
                               main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHomfly:
    def test_trefoil_text(self, capsys):
        code, out, _ = run(capsys, "homfly", "--params", "1,1,1", "--rep", "1")
        assert code == EXIT_OK
        assert out.strip() == "-A^4 + A^2*q^2 + A^2*q^-2"

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "homfly", "--params", "3,3,-3", "--rep", "1",
                         "--format", "json")
        _, out2, _ = run(capsys, "homfly", "--params", "3,3,-3", "--rep", "1",
                         "--format", "json")
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["params"] == [3, 3, -3]
        assert obj["framing_unit"] == "1"


class TestAlexanderAndDefect:
    def test_alexander_935(self, capsys):
        code, out, _ = run(capsys, "alexander", "--params", "3,3,3")
        assert code == EXIT_OK
        assert out.strip() == "7*q^2 - 13 + 7*q^-2"

    def test_defect_from_params(self, capsys):
        code, out, _ = run(capsys, "defect", "--params", "3,3,-3")
        assert code == EXIT_OK
        assert out.strip() == "0"

    def test_defect_from_text(self, capsys):
        code, out, _ = run(
            capsys, "defect", "--alexander",
            "q^8 - q^6 + q^4 - q^2 + 1 - q^-2 + q^-4 - q^-6 + q^-8",
            "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["defect"] == 3

    def test_defect_needs_input(self, capsys):
        code, _, err = run(capsys, "defect")
        assert code == EXIT_USAGE
        assert "need --params or --alexander" in err


class TestFFactors:
    def test_946_first_factor(self, capsys):
        code, out, _ = run(capsys, "ffactors", "--params", "3,3,-3",
                           "--max-r", "2", "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["defect"] == 0
        assert obj["F"][0] == "A^4 + A^2"


class TestDiff:
    def test_first_difference_row(self, capsys):
        code, out, _ = run(capsys, "diff", "--order", "1", "--params", "1,1",
                           "--rep", "1", "--c-range", "1:3", "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert [e["c"] for e in obj["entries"]] == [1, 3]

    def test_two_params_enforced(self, capsys):
        code, _, err = run(capsys, "diff", "--order", "1", "--params", "1,1,1",
                           "--rep", "1", "--c-range", "1:3")
        assert code == EXIT_USAGE

    def test_warm_store_byte_identical(self, capsys, tmp_path, monkeypatch):
        # window -3..7 holds six members at r = 1: two seeds, four from the
        # recurrence; on the warm pass the seeds are read from the store and
        # assembled again for their raw (pre-framing) values
        from pretzelhomfly.pretzel import HomflyEngine
        argv = ("diff", "--order", "2", "--params", "1,3", "--rep", "1",
                "--c-range=-3:3", "--format", "json")
        d = str(tmp_path)
        _, plain, _ = run(capsys, *argv)
        _, cold, _ = run(capsys, *argv, "--cache-dir", d)
        assert len(list(tmp_path.glob("*/*.json"))) == 6
        calls = []
        assemble = HomflyEngine.homfly_rational
        monkeypatch.setattr(HomflyEngine, "homfly_rational",
                            lambda self, spec: calls.append(spec)
                            or assemble(self, spec))
        _, warm, _ = run(capsys, *argv, "--cache-dir", d)
        assert plain == cold == warm
        assert len(calls) == 2
        assert len(json.loads(plain)["entries"]) == 4

    def test_even_c_is_usage(self, capsys):
        code, _, err = run(capsys, "diff", "--order", "3", "--params", "1,1",
                           "--rep", "1", "--c-range", "0:4")
        assert code == EXIT_USAGE
        assert "ValueError" in err

    @pytest.mark.parametrize("c_range", ["5:3", "7:-7"])
    def test_empty_range_computes_nothing(self, capsys, monkeypatch, c_range):
        from pretzelhomfly.pretzel import HomflyEngine
        calls = []
        monkeypatch.setattr(HomflyEngine, "homfly_rational",
                            lambda self, spec: calls.append(spec))
        code, out, _ = run(capsys, "diff", "--order", "3", "--params", "1,1",
                           "--rep", "1", f"--c-range={c_range}",
                           "--format", "json")
        assert code == EXIT_OK
        assert '"entries":[]' in out
        assert calls == []


class TestVerify:
    def test_theorem1_single_holds(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--params", "1,1",
                           "--m", "1", "--rep", "1")
        assert code == EXIT_OK
        assert "holds" in out

    def test_theorem1_fails_at_r2(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--params", "1,1",
                           "--m", "1", "--rep", "2", "--format", "json")
        assert code == EXIT_FAILS
        (report,) = json.loads(out)["reports"]
        assert report["verdict"] == "fails"

    def test_conj_946_holds(self, capsys):
        code, out, _ = run(capsys, "verify", "conj-946", "--depth", "3",
                           "--format", "json")
        assert code == EXIT_OK
        reports = json.loads(out)["reports"]
        assert {r["verdict"] for r in reports} == {"holds"}

    def test_conj_main_reports_and_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "conj-main", "--params", "1,1",
                           "--c", "1", "--rep", "1", "--format", "json")
        assert code == EXIT_FAILS
        (report,) = json.loads(out)["reports"]
        assert "A^2" in report["detail"]


class TestCacheVerb:
    def test_ls_and_clear(self, capsys, tmp_path):
        d = str(tmp_path)
        run(capsys, "homfly", "--params", "1,1,1", "--rep", "1",
            "--cache-dir", d)
        code, out, _ = run(capsys, "cache", "ls", "--cache-dir", d,
                           "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["entries"]) == 1
        code, out, _ = run(capsys, "cache", "clear", "--cache-dir", d,
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["cleared"] == 1

    def test_no_dir_is_usage_error(self, capsys, monkeypatch):
        from pretzelhomfly.cache import CACHE_ENV_VAR
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        code, _, err = run(capsys, "cache", "ls")
        assert code == EXIT_USAGE

    def test_env_var_respected(self, capsys, tmp_path, monkeypatch):
        from pretzelhomfly.cache import CACHE_ENV_VAR
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        run(capsys, "homfly", "--params", "1,1,3", "--rep", "1")
        assert list(tmp_path.glob("*/*.json"))


class TestSchur:
    def test_methods_agree(self, capsys):
        # the printed forms are not reduced, so compare as rational functions
        from pretzelhomfly.symfunc import (YoungDiagram, schur_hook,
                                           schur_jacobi_trudi)
        code_h, hook, _ = run(capsys, "schur", "--diagram", "[3,2]",
                              "--method", "hook")
        code_j, jt, _ = run(capsys, "schur", "--diagram", "[3,2]",
                            "--method", "jt")
        assert code_h == code_j == EXIT_OK and hook and jt
        lam = YoungDiagram([3, 2])
        assert schur_hook(lam) == schur_jacobi_trudi(lam)

    def test_bad_diagram_is_usage(self, capsys):
        code, _, err = run(capsys, "schur", "--diagram", "not json")
        assert code == EXIT_USAGE


class TestErrorPaths:
    def test_even_params_usage(self, capsys):
        code, _, err = run(capsys, "homfly", "--params", "1,2,3", "--rep", "1")
        assert code == EXIT_USAGE
        assert "odd" in err

    def test_rep_cap_is_computation_error(self, capsys):
        code, _, err = run(capsys, "homfly", "--params", "1,1,1", "--rep", "99")
        assert code == EXIT_ERROR
        assert "RepCapExceeded" in err

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
