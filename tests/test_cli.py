"""End-to-end driver checks: exit codes, fixture comparison, determinism,
the JSON writer against json.dumps, and the parser shared by every run."""

import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cmsweep import cli
from cmsweep.cli import SUBCOMMANDS, _canonical, main, render

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "cmsweep" / "fixtures"


def test_verify_all_passes(capsys):
    assert main(["verify-all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_timing_goes_on_each_section(capsys):
    assert main(["verify-all", "--timing", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"] == {"passed": 91, "failed": 0}
    for section in report["sections"]:
        assert type(section["runtime_ms"]) is int
        assert all("runtime_ms" not in case for case in section["cases"])


def test_single_sweep_json_output(capsys):
    assert main(["sweep-dim1", "--format", "json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["summary"] == {"passed": 12, "failed": 0}
    cases = report["sections"][0]["cases"]
    assert len(cases) == 12
    assert all(r["verdict"] == "REJECTED_DIVISOR_TEST" for r in cases)


def test_determinism(capsys):
    assert main(["sweep-klein4", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["sweep-klein4", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_markdown_rendering(capsys):
    assert main(["gross-periods", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "|" in out and "case" in out.lower()


def test_markdown_names_the_mismatched_case_and_key(tmp_path, capsys):
    for f in FIXDIR.glob("*.json"):
        shutil.copy(f, tmp_path / f.name)
    data = json.loads((tmp_path / "sweep-klein4.json").read_text())
    case_id = data[3]["case_id"]
    key = sorted(data[3]["certificate"])[0]
    data[3]["certificate"][key] = "tampered"
    (tmp_path / "sweep-klein4.json").write_text(json.dumps(data))
    assert main(["sweep-klein4", "--fixtures", str(tmp_path),
                 "--format", "markdown"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        "**passed 21, failed 1**", "",
        f"- sweep-klein4: mismatched {case_id} at certificate.{key}"]


def test_markdown_names_the_type_and_frame_of_an_error(monkeypatch, capsys):
    from cmsweep import periods
    lines, start = inspect.getsourcelines(periods.gross_matrix)
    line = start + next(i for i, text in enumerate(lines)
                        if "raise ValueError" in text)
    monkeypatch.setitem(cli.SECTIONS, "gross-periods",
                        lambda args: periods.gross_matrix(5, 2))
    assert main(["gross-periods", "--format", "markdown"]) == 1
    out = capsys.readouterr().out
    assert ("| gross-periods:error | ERROR ValueError: need 0 <= p <= n, "
            f"not p = 5, n = 2 (periods.py:{line}) |") in out.splitlines()
    assert out.endswith("; extra gross-periods:error\n")


def test_markdown_of_an_override_run_notes_the_skipped_fixture(capsys):
    assert main(["gross-periods", "-p", "2", "-n", "6",
                 "--format", "markdown"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["", "- gross-periods: parameter overrides, "
                            "fixture skipped"]


def test_tampered_fixture_fails(tmp_path, capsys):
    for f in FIXDIR.glob("*.json"):
        shutil.copy(f, tmp_path / f.name)
    data = json.loads((tmp_path / "sweep-dim1.json").read_text())
    data[0]["verdict"] = "SURVIVES_D4"
    (tmp_path / "sweep-dim1.json").write_text(json.dumps(data))
    assert main(["sweep-dim1", "--fixtures", str(tmp_path)]) == 1
    capsys.readouterr()


def test_missing_fixture_fails(tmp_path, capsys):
    assert main(["sweep-dim1", "--fixtures", str(tmp_path)]) == 1
    capsys.readouterr()


def test_missing_fixture_directory_is_usage_error(tmp_path, capsys):
    gone = tmp_path / "no-such-dir"
    assert main(["sweep-dim1", "--fixtures", str(gone)]) == 2
    captured = capsys.readouterr()
    assert f"--fixtures {gone}: no such directory" in captured.err
    assert captured.out == ""
    # --bless creates the directory and writes the fixture
    assert main(["sweep-dim1", "--bless", "--fixtures", str(gone)]) == 0
    capsys.readouterr()
    assert (gone / "sweep-dim1.json").read_bytes() == \
        (FIXDIR / "sweep-dim1.json").read_bytes()


@pytest.mark.parametrize("bless", [False, True])
def test_fixtures_path_that_is_a_file_is_usage_error(tmp_path, capsys, bless):
    path = tmp_path / "fixtures.json"
    path.write_text("[]")
    argv = ["sweep-dim1", "--fixtures", str(path)] + (["--bless"] * bless)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"--fixtures {path}: not a directory" in captured.err
    assert captured.out == ""
    assert path.read_text() == "[]"


def test_usage_error(capsys):
    assert main(["no-such-subcommand"]) == 2
    capsys.readouterr()


def test_parameter_override_skips_fixture(capsys):
    # overriding the case parameters produces a report without comparing
    # against the blessed fixture
    assert main(["gross-periods", "-p", "2", "-n", "6"]) == 0
    out = capsys.readouterr().out
    assert "TRDEG" in out


def test_all_subcommands_listed():
    assert set(SUBCOMMANDS) == {
        "sweep-dim1", "sweep-order4", "sweep-klein4", "sweep-a4",
        "d4-cmtypes", "rep-classify", "antiweil-verify", "positivity",
        "gross-periods", "verify-all"}


def test_verify_all_rejects_overrides(capsys):
    # overrides used to skip the fixture diff of all nine sections
    assert main(["verify-all", "-p", "1", "-n", "4"]) == 2
    assert "verify-all does not take -p, -n" in capsys.readouterr().err


def test_p_without_n_is_usage_error(capsys):
    assert main(["gross-periods", "-p", "2"]) == 2
    assert "-p and -n must be given together" in capsys.readouterr().err


def test_n_without_p_is_usage_error(capsys):
    assert main(["gross-periods", "-n", "3"]) == 2
    assert "-p and -n must be given together" in capsys.readouterr().err


def test_periods_options_only_on_gross_periods(capsys):
    assert main(["positivity", "-p", "1", "-n", "4"]) == 2
    assert "positivity does not take -p, -n" in capsys.readouterr().err


def test_positivity_options_only_on_positivity(capsys):
    assert main(["sweep-dim1", "--weil-x", "1,2,0,0"]) == 2
    assert "sweep-dim1 does not take --weil-x" in capsys.readouterr().err


def test_lam_option_is_gone(capsys):
    # each antiweil case fixes its own sign of lambda, so --lam never
    # changed a record
    assert main(["positivity", "--lam", "2"]) == 2
    capsys.readouterr()


def test_weil_x_arity_is_usage_error(capsys):
    assert main(["positivity", "--weil-x", "1,2"]) == 2
    assert "expected 4 comma-separated rationals, got 2" in \
        capsys.readouterr().err


@pytest.mark.parametrize("x", ["0,0,0,0", "0/3,0,-0,0"])
def test_weil_x_zero_is_usage_error(capsys, x):
    # the family check needs a nonzero x
    assert main(["positivity", "--weil-x", x]) == 2
    assert "x must be a nonzero vector" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["1/0,1,1,1", "a,1,1,1"])
def test_weil_x_bad_rational_is_usage_error(capsys, x):
    assert main(["positivity", "--weil-x", x]) == 2
    assert f"expected 4 comma-separated rationals, got '{x}'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("p, n, code", [
    (5, 2, 2), (-1, 2, 2), (1, 0, 2), (3, 2, 2),
    (0, 0, 0), (2, 2, 0), (0, 3, 0),
])
def test_p_must_lie_in_0_to_n(capsys, p, n, code):
    assert main(["gross-periods", "-p", str(p), "-n", str(n)]) == code
    out, err = capsys.readouterr()
    if code:
        assert f"-p {p} -n {n}: need 0 <= p <= n" in err
    else:
        (case,) = json.loads(out)["sections"][0]["cases"]
        assert case["case_id"] == f"gross({p},{n})"


def test_positivity_overrides_run(capsys):
    assert main(["positivity", "--weil-x", "1,2,0,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["notes"] == ["positivity: parameter overrides, "
                               "fixture skipped"]


@pytest.mark.parametrize("argv", [["--fixtures", ""], ["--fixtures="],
                                  ["--fixtures", "", "--bless"],
                                  ["--fixtures=", "--bless"]])
def test_empty_fixtures_path_is_usage_error(capsys, argv):
    packaged = FIXDIR / "sweep-dim1.json"
    before = packaged.read_bytes(), packaged.stat().st_mtime_ns
    assert main(["sweep-dim1"] + argv) == 2
    captured = capsys.readouterr()
    assert "--fixtures: empty path" in captured.err
    assert captured.out == ""
    assert (packaged.read_bytes(), packaged.stat().st_mtime_ns) == before


def test_jobs_option_is_gone(capsys):
    assert main(["sweep-dim1", "--jobs", "2"]) == 2
    capsys.readouterr()


def _copy_fixtures(tmp_path):
    for f in FIXDIR.glob("*.json"):
        shutil.copy(f, tmp_path / f.name)
    return json.loads((tmp_path / "sweep-dim1.json").read_text())


def _run_dim1(tmp_path, data, capsys):
    (tmp_path / "sweep-dim1.json").write_text(json.dumps(data))
    rc = main(["sweep-dim1", "--fixtures", str(tmp_path)])
    return rc, json.loads(capsys.readouterr().out)


def test_passing_run_has_no_notes(capsys):
    assert main(["sweep-dim1"]) == 0
    assert "notes" not in json.loads(capsys.readouterr().out)


def test_mismatch_note_names_case_and_key(tmp_path, capsys):
    data = _copy_fixtures(tmp_path)
    case_id = data[0]["case_id"]
    key = sorted(data[0]["certificate"])[0]
    data[0]["certificate"][key] = "tampered"
    rc, report = _run_dim1(tmp_path, data, capsys)
    assert rc == 1
    assert report["summary"] == {"passed": 11, "failed": 1}
    assert report["notes"] == [
        f"sweep-dim1: mismatched {case_id} at certificate.{key}"]


def test_missing_and_extra_cases_are_named(tmp_path, capsys):
    data = _copy_fixtures(tmp_path)
    gone = data.pop(3)["case_id"]
    data.append(dict(data[0], case_id="not-a-case"))
    rc, report = _run_dim1(tmp_path, data, capsys)
    assert rc == 1
    assert report["summary"] == {"passed": 11, "failed": 2}
    assert report["notes"] == [
        f"sweep-dim1: missing not-a-case; extra {gone}"]


def test_duplicate_case_id_fails(tmp_path, capsys):
    data = _copy_fixtures(tmp_path)
    case_id = data[1]["case_id"]
    data.append(data[1])
    rc, report = _run_dim1(tmp_path, data, capsys)
    assert rc == 1
    assert report["summary"] == {"passed": 11, "failed": 1}
    assert report["notes"] == [
        f"sweep-dim1: duplicate case_id {case_id}"]


@pytest.mark.parametrize("argv", [
    ["gross-periods", "-p", "3", "-n", "6"],
    ["positivity", "--weil-x", "1,2,3,4"],
])
def test_bless_with_overrides_is_usage_error(tmp_path, capsys, argv):
    _copy_fixtures(tmp_path)
    before = {f.name: f.read_bytes() for f in tmp_path.glob("*.json")}
    assert main(argv + ["--bless", "--fixtures", str(tmp_path)]) == 2
    assert "--bless does not take" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in tmp_path.glob("*.json")} == before


@pytest.mark.parametrize("text, error", [
    ('[{"case_id": ', "JSONDecodeError"),
    ('["not a record"]', "TypeError"),
    ('[{"verdict": "OK"}]', "KeyError"),
])
def test_malformed_fixture_is_a_failing_note(tmp_path, capsys, text, error):
    _copy_fixtures(tmp_path)
    n_positivity = len(json.loads((FIXDIR / "positivity.json").read_text()))
    (tmp_path / "positivity.json").write_text(text)
    assert main(["verify-all", "--fixtures", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    (note,) = report["notes"]
    assert note.startswith(f"fixture unreadable: positivity.json ({error}")
    # every other section is still compared, and passes
    assert report["summary"] == {"passed": 91 - n_positivity,
                                 "failed": n_positivity}


@pytest.mark.parametrize("text, error", [
    ('[{"case_id": [1]}]', "case_id [1] is not a str"),
    ('[{"case_id": "a"}, {"case_id": 5}]', "case_id 5 is not a str"),
    ('{"case_id": "a"}', "a dict, not a JSON list"),
])
def test_fixture_that_is_no_list_of_str_ids_is_unreadable(tmp_path, capsys,
                                                         text, error):
    _copy_fixtures(tmp_path)
    (tmp_path / "sweep-dim1.json").write_text(text)
    assert main(["sweep-dim1", "--fixtures", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["notes"] == [
        f"fixture unreadable: sweep-dim1.json (TypeError: {error})"]
    assert main(["sweep-dim1", "--bless", "--fixtures", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["notes"] == [
        "sweep-dim1: rewrote unreadable fixture sweep-dim1.json "
        f"(TypeError: {error})"]
    assert (tmp_path / "sweep-dim1.json").read_bytes() == \
        (FIXDIR / "sweep-dim1.json").read_bytes()


def test_bless_rewrites_an_unreadable_fixture(tmp_path, capsys):
    _copy_fixtures(tmp_path)
    (tmp_path / "positivity.json").write_text("{not json")
    assert main(["positivity", "--bless", "--fixtures", str(tmp_path)]) == 0
    (note,) = json.loads(capsys.readouterr().out)["notes"]
    assert note.startswith(
        "positivity: rewrote unreadable fixture positivity.json "
        "(JSONDecodeError")
    assert (tmp_path / "positivity.json").read_bytes() == \
        (FIXDIR / "positivity.json").read_bytes()


def test_bless_onto_a_directory_fails_the_section(tmp_path, capsys):
    (tmp_path / "sweep-dim1.json").mkdir()
    assert main(["sweep-dim1", "--bless", "--fixtures", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    (note,) = report["notes"]
    assert note.startswith("sweep-dim1: cannot write fixture sweep-dim1.json "
                           "(IsADirectoryError")
    n_cases = len(report["sections"][0]["cases"])
    assert report["summary"] == {"passed": 0, "failed": n_cases} and n_cases
    assert (tmp_path / "sweep-dim1.json").is_dir()


def test_bless_leaves_the_fixture_of_a_failing_section(tmp_path, capsys,
                                                      monkeypatch):
    from cmsweep import torus

    def broken():
        raise ValueError("broken sweep")

    _copy_fixtures(tmp_path)
    monkeypatch.setattr(torus, "sweep_dim1", broken)
    assert main(["verify-all", "--bless", "--fixtures", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["notes"][0] == ("sweep-dim1: not blessed, sweep-dim1.json "
                                  "left as it was: failing sweep-dim1:error")
    assert report["summary"]["failed"] == 1
    for f in FIXDIR.glob("*.json"):  # every section else blessed unchanged
        assert (tmp_path / f.name).read_bytes() == f.read_bytes()


def test_error_record_names_type_and_frame(monkeypatch, capsys):
    from cmsweep import cmfields
    # a bare assert inside the package: the message alone is empty
    monkeypatch.setattr(cmfields.SubfieldModel, "is_cm", False)
    lines, start = inspect.getsourcelines(cmfields._quartic_subfields)
    line = start + next(i for i, text in enumerate(lines)
                        if "assert k1.is_cm" in text)
    assert main(["d4-cmtypes"]) == 1
    report = json.loads(capsys.readouterr().out)
    (case,) = report["sections"][0]["cases"]
    assert case == {"case_id": "d4-cmtypes:error", "verdict": "ERROR",
                    "certificate": {"message": "", "type": "AssertionError",
                                    "where": f"cmfields.py:{line}"},
                    "table": "d4-cmtypes"}


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_antiweil_verify_with_a_doubled_k_is_one_error_record(
        monkeypatch, capsys, fmt):
    """A rational model whose k is doubled breaks [i, j] = 2k: the
    section is one ERROR record naming ValueError and the line that
    raised it."""
    from cmsweep import quatrep
    build = quatrep.AntiWeilRep._build_rational_model

    def doubled_k(self):
        model = build(self)
        model["k"] = [{c: 2 * x for c, x in row.items()}
                      for row in model["k"]]
        return model

    monkeypatch.setattr(quatrep.AntiWeilRep, "_build_rational_model",
                        doubled_k)
    lines, start = inspect.getsourcelines(
        quatrep.AntiWeilRep.bracket_generators.func)
    line = start + next(i for i, text in enumerate(lines)
                        if "raise ValueError" in text)
    message = "the rational model breaks [i, j] = 2k"
    assert main(["antiweil-verify", "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        (case,) = json.loads(out)["sections"][0]["cases"]
        assert case == {"case_id": "antiweil-verify:error",
                        "verdict": "ERROR",
                        "certificate": {"message": message,
                                        "type": "ValueError",
                                        "where": f"quatrep.py:{line}"},
                        "table": "antiweil-verify"}
    else:
        rows = [text for text in out.splitlines() if "ERROR" in text]
        assert rows == [f"| antiweil-verify:error | ERROR ValueError: "
                        f"{message} (quatrep.py:{line}) |"]


def test_antiweil_verify_builds_the_extended_algebra_once(monkeypatch,
                                                         capsys):
    from cmsweep import quatrep
    dims = []
    init = quatrep.QuaternionAlgebra.__init__

    def counting(self, field, a, b, D=None):
        dims.append(4 if D is None else 8)
        init(self, field, a, b, D)

    monkeypatch.setattr(quatrep.QuaternionAlgebra, "__init__", counting)
    assert main(["antiweil-verify"]) == 0
    cases = json.loads(capsys.readouterr().out)["sections"][0]["cases"]
    assert dims.count(8) == 1
    assert cases[0]["case_id"] == "algebra-associativity"
    assert cases[0]["certificate"]["triples"] == {"4": 64, "8": 512}
    assert [c["case_id"] for c in cases[1:4]] == [
        "sl2-triple-brackets", "sl2-conjugation-relation",
        "algebra-brackets-15"]


@pytest.mark.parametrize("patch", ["weight table", "rational route"])
def test_rational_invariant_dims_fail_when_the_two_routes_differ(
        monkeypatch, patch):
    """The rational-invariant-dims record is OK only when the module
    functions, which read the weight table's counts on (-1, -2, -3), and
    the rational route both give (2, 1); its certificate keeps the
    module functions' counts."""
    from cmsweep import quatrep
    from cmsweep.cli import _run_antiweil_verify
    if patch == "weight table":
        monkeypatch.setattr(quatrep, "weight_table_counts",
                            lambda: (3, 1, 8))
    else:
        monkeypatch.setattr(quatrep.AntiWeilRep, "rational_invariant_dims",
                            lambda self: (3, 1))
    records = {r["case_id"]: r for r in _run_antiweil_verify()}
    case = records.pop("rational-invariant-dims")
    assert case["verdict"] == "FAIL"
    assert case["certificate"] == {
        "end_dim": 3 if patch == "weight table" else 2, "wedge2_dim": 1}
    assert all(r["verdict"] == "OK" for r in records.values())


# one broken faithfulness check per type: the liereps function replaced,
# and the source of its replacement as a function of the original
REP_CLASSIFY_BREAKS = {
    # the A1 weight search finds nothing
    "A1": ("search_dim", "lambda f: lambda t, d: {'solutions': []} "
                         "if (t, d) == ('A1', 4) else f(t, d)"),
    # the last sp(4) basis element is a copy of the first: rank 9, not 10
    "B2": ("sp4_basis", "lambda f: lambda: [*f()[:9], f()[0]]"),
}


def _check_one_failed_record(typ, code, cases):
    """A broken check of typ costs its own record, which reads FAIL, and
    leaves the other nine rep-classify records as the fixture has them."""
    assert code == 1
    want = json.loads((FIXDIR / "rep-classify.json").read_text())
    failed = f"faithful-dim4:{typ}"
    assert [c["case_id"] for c in cases] == [c["case_id"] for c in want]
    for got, fixture in zip(cases, want):
        if got["case_id"] == failed:
            assert got == dict(fixture, verdict="FAIL")
        else:
            assert got == fixture


@pytest.mark.parametrize("typ", sorted(REP_CLASSIFY_BREAKS))
def test_failed_classification_check_costs_one_record(typ, monkeypatch,
                                                      capsys):
    from cmsweep import liereps
    name, source = REP_CLASSIFY_BREAKS[typ]
    monkeypatch.setattr(liereps, name, eval(source)(getattr(liereps, name)))
    code = main(["rep-classify", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    _check_one_failed_record(typ, code, report["sections"][0]["cases"])


@pytest.mark.parametrize("typ", sorted(REP_CLASSIFY_BREAKS))
def test_failed_classification_check_is_a_fail_under_optimize_flag(typ):
    """The faithfulness checks are no asserts: under python -O a broken
    check still reads FAIL."""
    name, source = REP_CLASSIFY_BREAKS[typ]
    code = ("import sys\n"
            "from cmsweep import liereps\n"
            f"liereps.{name} = ({source})(liereps.{name})\n"
            "from cmsweep.cli import main\n"
            "sys.exit(main(['rep-classify', '--format', 'json']))\n")
    env = dict(os.environ, PYTHONPATH=str(FIXDIR.parents[1]))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    report = json.loads(run.stdout)
    _check_one_failed_record(typ, run.returncode,
                             report["sections"][0]["cases"])


def _check_dim1_fails(code, cases):
    """A divisor test that finds no element turns each of the 12 sweep-dim1
    records into FAIL, with the case ids the fixture has."""
    assert code == 1
    want = json.loads((FIXDIR / "sweep-dim1.json").read_text())
    assert [c["case_id"] for c in cases] == [c["case_id"] for c in want]
    assert [c["verdict"] for c in cases] == ["FAIL"] * 12


def test_dim1_verdict_is_computed_from_the_divisor_test(monkeypatch, capsys):
    from cmsweep import torus
    monkeypatch.setattr(torus, "divisor_test", lambda lat: (False, None))
    code = main(["sweep-dim1", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    _check_dim1_fails(code, report["sections"][0]["cases"])


def test_dim1_verdict_is_a_fail_under_optimize_flag():
    """No assert stands behind the sweep-dim1 verdict: under python -O a
    divisor test that finds nothing still reads FAIL."""
    code = ("import sys\n"
            "from cmsweep import torus\n"
            "torus.divisor_test = lambda lat: (False, None)\n"
            "from cmsweep.cli import main\n"
            "sys.exit(main(['sweep-dim1', '--format', 'json']))\n")
    env = dict(os.environ, PYTHONPATH=str(FIXDIR.parents[1]))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    report = json.loads(run.stdout)
    _check_dim1_fails(run.returncode, report["sections"][0]["cases"])


def test_rep_classify_builds_each_search_and_module_once(monkeypatch,
                                                         capsys):
    from cmsweep import liereps
    calls = []
    for name in ("search_dim", "sl2_irrep", "external_product", "sp4_basis"):
        def counting(*args, name=name, original=getattr(liereps, name)):
            keyed = name in ("search_dim", "sl2_irrep")
            calls.append((name, *args) if keyed else (name,))
            return original(*args)

        monkeypatch.setattr(liereps, name, counting)
    assert main(["rep-classify"]) == 0
    assert sorted(calls) == sorted(
        [("search_dim", typ, 4) for typ in ("A1", "A2", "B2", "G2", "A3")]
        + [("search_dim", "A1", 2), ("sl2_irrep", 1), ("sl2_irrep", 3),
           ("external_product",), ("sp4_basis",)])


def test_d4_cmtypes_runs_the_analysis_once(monkeypatch, capsys):
    """The relabeling check reuses the analysis the section already holds,
    dual survivors included: one d4_analysis and one enumeration of the
    CM types."""
    from cmsweep import cmfields
    calls = []
    for name in ("d4_analysis", "_all_id_types"):
        def counting(*args, name=name, original=getattr(cmfields, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(cmfields, name, counting)
    assert main(["d4-cmtypes"]) == 0
    assert sorted(calls) == ["_all_id_types", "d4_analysis"]


def test_verify_all_imports_neither_numpy_nor_sympy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cmsweep.cli",
         "verify-all"], env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0
    imported = {line.rsplit("|", 1)[-1].strip().split(".")[0]
                for line in run.stderr.splitlines()
                if line.startswith("import time:")}
    assert "cmsweep" in imported
    assert not imported & {"numpy", "sympy"}


def test_verify_all_output_is_the_same_under_optimize_flag():
    """No verdict depends on an assert: python -O gives the same bytes."""
    env = dict(os.environ, PYTHONPATH=str(FIXDIR.parents[1]))
    outs = []
    for flags in ([], ["-O"]):
        run = subprocess.run(
            [sys.executable, *flags, "-m", "cmsweep.cli", "verify-all",
             "--format", "json"], env=env, capture_output=True, text=True,
            timeout=600)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert json.loads(outs[0])["summary"] == {"passed": 91, "failed": 0}
    assert outs[1] == outs[0]


REVERSED_SECTIONS = """
from cmsweep import cli
args = cli.PARSER.parse_args(["verify-all"])
print(cli._json({sub: produce(args)
                 for sub, produce in reversed(cli.SECTIONS.items())}))
"""


def test_output_depends_on_no_hash_seed_and_no_section_order():
    """verify-all writes the same bytes in fresh processes under two hash
    seeds, and the producers run in reversed order in a fresh process give
    each section the same records: no record depends on set order or on
    state that an earlier section left behind."""
    env = dict(os.environ, PYTHONPATH=str(FIXDIR.parents[1]))
    verify_all = [sys.executable, "-m", "cmsweep.cli", "verify-all",
                  "--format", "json"]
    runs = [subprocess.Popen(argv, env=dict(env, PYTHONHASHSEED=seed),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for argv, seed in ((verify_all, "0"), (verify_all, "1"),
                               ([sys.executable, "-c", REVERSED_SECTIONS],
                                "0"))]
    outs = []
    for run in runs:
        out, err = run.communicate(timeout=600)
        assert run.returncode == 0, err
        outs.append(out)
    assert outs[1] == outs[0]
    report = json.loads(outs[0])
    assert report["summary"] == {"passed": 91, "failed": 0}
    assert json.loads(outs[2]) == {sec["subcommand"]: sec["cases"]
                                   for sec in report["sections"]}


# -- the JSON writer ---------------------------------------------------------

def _dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("path", sorted(FIXDIR.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_fixtures_are_canonical(path):
    text = path.read_text()
    assert _canonical(json.loads(text)) == text


def _rendered_report(monkeypatch, argv, capsys):
    """The report object main renders on argv, and what main prints."""
    reports = []

    def recording(report, fmt):
        reports.append(report)
        return render(report, fmt)

    monkeypatch.setattr(cli, "render", recording)
    main(argv)
    out = capsys.readouterr().out
    (report,) = reports
    return report, out


@pytest.mark.parametrize("argv", [["verify-all"],
                                  ["sweep-a4", "--timing"]])
def test_json_report_is_what_json_dumps_writes(monkeypatch, capsys, argv):
    report, out = _rendered_report(monkeypatch, argv, capsys)
    assert render(report, "json") == _dumps(report)
    assert out == _dumps(report) + "\n"


def test_report_with_notes_and_an_error_record_is_what_json_dumps_writes(
        monkeypatch, capsys):
    from cmsweep import torus

    def broken():
        raise ValueError("broken \"sweep\" \\ \x01 é")

    monkeypatch.setattr(torus, "sweep_dim1", broken)
    report, out = _rendered_report(monkeypatch, ["sweep-dim1"], capsys)
    assert report["notes"] and \
        report["sections"][0]["cases"][0]["case_id"] == "sweep-dim1:error"
    assert render(report, "json") == _dumps(report)
    assert out == _dumps(report) + "\n"


_text = st.text() | st.text(st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "/", "a", "é",
     " ", "\U0001f600"]))
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(-2 ** 80, 2 ** 80) | st.floats() | _text)
_trees = st.recursive(
    _scalars,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_text, kids, max_size=4)),
    max_leaves=25)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_writer_is_what_json_dumps_writes(value):
    assert cli._json(value) == _dumps(value)
    assert _canonical(value) == _dumps(value) + "\n"


@pytest.mark.parametrize("value", [{1, 2}, object(), {"a": [set()]},
                                   [1, b"bytes"]])
def test_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        _dumps(value)
    with pytest.raises(TypeError):
        cli._json(value)


# -- the shared parser -------------------------------------------------------

def test_main_builds_no_parser(monkeypatch):
    class NoParser:
        def __init__(self, *args, **kwargs):
            raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", NoParser)
    assert main(["gross-periods"]) == 0
    assert main(["gross-periods", "-p", "1"]) == 2


def test_parser_keeps_no_state_between_runs(capsys):
    assert main(["positivity", "--weil-x", "0,0,0,0"]) == 2
    assert main(["positivity", "--weil-x", "1,2,3,4"]) == 0
    assert json.loads(capsys.readouterr().out)["notes"] == [
        "positivity: parameter overrides, fixture skipped"]
    # the plain run has no override left over: it is compared again
    assert main(["positivity"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "notes" not in report
    assert report["summary"]["passed"] == \
        len(json.loads((FIXDIR / "positivity.json").read_text()))


def test_bless_writes_the_shipped_fixtures(tmp_path):
    assert main(["verify-all", "--bless", "--fixtures", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXDIR.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXDIR / name).read_bytes()
