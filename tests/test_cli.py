"""Command-line interface: exit codes, output determinism, verbs."""

import json
import time

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

    def test_json_deterministic(self, capsys, tmp_path):
        argv = ("homfly", "--params", "3,3,-3", "--rep", "1", "--format", "json")
        _, plain, _ = run(capsys, *argv)
        store = ("--cache-dir", str(tmp_path))
        _, cold, _ = run(capsys, *argv, *store)
        _, warm, _ = run(capsys, *argv, *store)  # served from the store
        assert plain == cold == warm
        assert json.loads(plain)["params"] == [3, 3, -3]


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
        # recurrence; on the warm pass the seeds are read from the store, so
        # nothing is assembled
        from pretzelhomfly.pretzel import HomflyEngine
        argv = ("diff", "--order", "2", "--params", "1,3", "--rep", "1",
                "--c-range=-3:3", "--format", "json")
        d = str(tmp_path)
        _, plain, _ = run(capsys, *argv)
        _, cold, _ = run(capsys, *argv, "--cache-dir", d)
        assert len(list(tmp_path.glob("*.json"))) == 6
        calls = []
        assemble = HomflyEngine.homfly_rational
        monkeypatch.setattr(HomflyEngine, "homfly_rational",
                            lambda self, spec: calls.append(spec)
                            or assemble(self, spec))
        _, warm, _ = run(capsys, *argv, "--cache-dir", d)
        assert plain == cold == warm
        assert calls == []
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

    def test_theorem1_sweep_shares_swapped_checks(self, capsys, tmp_path,
                                                  monkeypatch):
        # the same stdout with no store, a cold store and a warm one, equal
        # to 128 separate checks; Q^1 is checked once per distinct
        # (min(a,b), max(a,b), m, r), 80 times in all
        from itertools import product
        from pretzelhomfly import cli, differences
        from pretzelhomfly.pretzel import HomflyEngine
        eng = HomflyEngine()
        odd = (-3, -1, 1, 3)
        reports = [{"case": f"theorem1(a={a},b={b},m={m},r={r})",
                    **differences.check_theorem_1(a, b, m, r, eng).to_json()}
                   for a, b, c in product(odd, repeat=3)
                   for m in [(c + 1) // 2] for r in (1, 2)]
        assert len(reports) == 128
        expect = json.dumps({"reports": reports}, sort_keys=True,
                            separators=(",", ":")) + "\n"
        calls = []
        check = cli.check_theorem_1
        monkeypatch.setattr(cli, "check_theorem_1",
                            lambda *a, **k: calls.append(a) or check(*a, **k))
        argv = ("verify", "theorem1", "--depth", "2", "--format", "json")
        store = ("--cache-dir", str(tmp_path))
        for extra in ((), store, store):
            calls.clear()
            code, out, _ = run(capsys, *argv, *extra)
            assert code == EXIT_FAILS
            assert out == expect
            assert len(calls) == 80
        assert len(list(tmp_path.glob("*.json"))) == 60

    @pytest.mark.parametrize("argv", [
        ("theorem1", "--params", "1,1,1"), ("theorem1",),
        ("conj-main", "--params", "1"), ("conj-mono", "--params", "1,1,1")])
    def test_two_params_usage(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"verify {argv[0]}: --params takes the two fixed "
                       "parameters a,b\n")

    @pytest.mark.parametrize("prop", ["conj-935", "conj-946"])
    @pytest.mark.parametrize("params", ["3,3", "3,3,3,3"])
    def test_three_params_usage(self, capsys, monkeypatch, prop, params):
        # a wrong length is a usage error before any knot is computed
        from pretzelhomfly.pretzel import HomflyEngine
        monkeypatch.setattr(HomflyEngine, "homfly",
                            lambda *a: pytest.fail("computed a knot"))
        code, out, err = run(capsys, "verify", prop, "--params", params)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"verify {prop}: --params takes the three "
                       "parameters a,b,c\n")

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

    def test_clear_counts_old_sharded_entries(self, capsys, tmp_path):
        # an entry in the older <2 hex>/<sha256>.json layout is not listed
        # (nothing reads it) but clear removes and counts it, and then its
        # emptied directory
        d = str(tmp_path)
        for params in ("1,1,1", "1,1,3"):
            run(capsys, "homfly", "--params", params, "--rep", "1",
                "--cache-dir", d)
        old, _ = sorted(tmp_path.glob("*.json"))
        (tmp_path / old.name[:2]).mkdir()
        old.rename(tmp_path / old.name[:2] / old.name)
        code, out, _ = run(capsys, "cache", "ls", "--cache-dir", d,
                           "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["entries"]) == 1
        code, out, _ = run(capsys, "cache", "clear", "--cache-dir", d,
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["cleared"] == 2
        assert not list(tmp_path.glob("**/*.json"))
        assert not (tmp_path / old.name[:2]).exists()

    @pytest.mark.parametrize("body", ['{"version": "x", "checksum": "0"}',
                                      '[1, 2]'], ids=["missing-poly", "list"])
    def test_malformed_entry_exits_3(self, capsys, tmp_path, body):
        d = str(tmp_path)
        argv = ("homfly", "--params", "1,1,1", "--rep", "1", "--cache-dir", d)
        run(capsys, *argv)
        (path,) = tmp_path.glob("*.json")
        path.write_text(body)
        code, _, err = run(capsys, *argv)
        assert code == EXIT_ERROR
        assert json.loads(err)["error"] == "CorruptStore"
        # listing skips an entry that is not an object, as it skips
        # unreadable files
        code, out, _ = run(capsys, "cache", "ls", "--cache-dir", d,
                           "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["entries"]) == (body != "[1, 2]")

    @pytest.mark.parametrize("poly", [
        {"terms": "x"},
        {"terms": [[0, 0, "0"]]},
        {"terms": [[0, 0, "1"], [0, 0, "-1"]]},
        {"terms": [[0, 0, 1.5]]},
        {"terms": [[0, 0, True]]},
        {"terms": [[0.9, 0, "1"]]},
        {"terms": [[0, 0, "1_0"]]},
        {"terms": [[0, 0, " 1"]]},
    ], ids=["not-terms", "zero-coefficient", "repeated-term",
            "float-coefficient", "bool-coefficient", "float-exponent",
            "underscore-digits", "padded-digits"])
    def test_checksummed_bad_poly_exits_3(self, capsys, tmp_path, poly):
        # the checksum matches, so only the polynomial itself is wrong: it
        # must not read back as another value (0, -1, 1, 10) or as a
        # ParseError
        import hashlib
        d = str(tmp_path)
        argv = ("homfly", "--params", "1,1,1", "--rep", "1", "--cache-dir", d)
        run(capsys, *argv)
        (path,) = tmp_path.glob("*.json")
        obj = json.loads(path.read_text())
        obj["poly"] = poly
        obj["checksum"] = hashlib.sha256(
            json.dumps(poly, sort_keys=True).encode()).hexdigest()
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert json.loads(err)["error"] == "CorruptStore"

    @pytest.mark.parametrize("damage", ["directory", "half-truncated"])
    def test_unreadable_entry_exits_3(self, capsys, tmp_path, damage):
        d = str(tmp_path)
        argv = ("verify", "theorem1", "--params", "1,1", "--m", "1",
                "--rep", "1", "--cache-dir", d)
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
        path, other = sorted(tmp_path.glob("*.json"))
        if damage == "directory":
            path.unlink()
            path.mkdir()
        else:
            data = path.read_bytes()
            path.write_bytes(data[:len(data) // 2])
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert json.loads(err)["error"] == "CorruptStore"
        # listing skips it; clear refuses a directory, and removes nothing
        code, out, _ = run(capsys, "cache", "ls", "--cache-dir", d,
                           "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["entries"]) == 1
        code, out, err = run(capsys, "cache", "clear", "--cache-dir", d,
                             "--format", "json")
        if damage == "directory":
            assert code == EXIT_ERROR
            assert json.loads(err)["error"] == "CorruptStore"
            assert path.is_dir() and other.is_file()
        else:
            assert code == EXIT_OK
            assert json.loads(out)["cleared"] == 2

    def test_no_dir_is_usage_error(self, capsys, monkeypatch):
        from pretzelhomfly.cache import CACHE_ENV_VAR
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        code, _, err = run(capsys, "cache", "ls")
        assert code == EXIT_USAGE

    def test_env_var_respected(self, capsys, tmp_path, monkeypatch):
        from pretzelhomfly.cache import CACHE_ENV_VAR
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        run(capsys, "homfly", "--params", "1,1,3", "--rep", "1")
        assert list(tmp_path.glob("*.json"))


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

    @pytest.mark.parametrize("diagram", ["5", "null", '{"a": 1}'])
    def test_non_list_diagram_is_usage(self, capsys, diagram):
        code, out, err = run(capsys, "schur", "--diagram", diagram)
        assert code == EXIT_USAGE and not out
        assert "JSON list" in err

    @pytest.mark.parametrize("diagram", ["[1.5]", "[2, 1.0]", "[true]",
                                         '["2"]'])
    def test_non_integer_row_is_usage(self, capsys, diagram):
        # YoungDiagram rejects the row before either method runs
        code, out, err = run(capsys, "schur", "--diagram", diagram)
        assert code == EXIT_USAGE and not out
        assert "integers" in err

    def test_long_row_rejected_on_jt_only(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "schur", "--diagram", "[60]",
                             "--method", "jt")
        assert time.monotonic() - start < 1.0
        assert code == EXIT_ERROR and not out
        assert "DiagramTooLarge" in err
        code, out, _ = run(capsys, "schur", "--diagram", "[60]",
                           "--method", "hook")
        assert code == EXIT_OK and out


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
