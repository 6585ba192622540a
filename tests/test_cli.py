"""End-to-end driver checks: exit codes, fixture comparison, determinism."""

import json
import shutil
from pathlib import Path

import pytest

from cmsweep.cli import SUBCOMMANDS, main

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "cmsweep" / "fixtures"


def test_verify_all_passes(capsys):
    assert main(["verify-all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


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
    assert main(["gross-periods", "--lam", "1"]) == 2
    assert "gross-periods does not take --lam" in capsys.readouterr().err
    assert main(["sweep-dim1", "--weil-x", "1,2,0,0"]) == 2
    assert "sweep-dim1 does not take --weil-x" in capsys.readouterr().err


def test_lam_zero_is_usage_error(capsys):
    assert main(["positivity", "--lam", "0"]) == 2
    assert "must be nonzero" in capsys.readouterr().err


def test_weil_x_arity_is_usage_error(capsys):
    assert main(["positivity", "--weil-x", "1,2"]) == 2
    assert "expected 4 comma-separated rationals, got 2" in \
        capsys.readouterr().err


def test_positivity_overrides_run(capsys):
    assert main(["positivity", "--lam", "2", "--weil-x", "1,2,0,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["notes"] == ["positivity: parameter overrides, "
                               "fixture skipped"]


def test_jobs_option_is_gone(capsys):
    assert main(["sweep-dim1", "--jobs", "2"]) == 2
    capsys.readouterr()
