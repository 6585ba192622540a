"""
Command-line driver: each analysis runs as a subcommand producing a
deterministic list of case records, compared against golden fixtures.

Exit codes: 0 all cases match their fixture, 1 verification/fixture
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__, record


# ---------------------------------------------------------------------------
# case-record producers
# ---------------------------------------------------------------------------

def _run_sweep(name):
    """The records of torus.<name>()."""
    from . import torus
    return getattr(torus, name)()


def _run_d4_cmtypes():
    from .cmfields import (d4_analysis, d4_relabeled_analysis,
                           quartic_multiplicity_predicate)
    base = d4_analysis()
    records = [record(
        "phi:" + "+".join(rec["phi"]),
        "SURVIVES_K2" if quartic_multiplicity_predicate(rec["k2_mults"])
        else "REJECTED_K2",
        {"k1_mults": rec["k1_mults"], "k2_mults": rec["k2_mults"]},
        "cmtypes") for rec in base["surviving_types"]]
    rel = d4_relabeled_analysis(base)
    records.append(_check(
        "relabel-invariance", rel["original_types"] == rel["mapped_types"],
        {"survivors": len(base["surviving_types"]),
         "duality_matches": rel["dual_mapped_types"] == rel["dual_survivors"]},
        "cmtypes"))
    return records


def _run_rep_classify():
    from .liereps import (classify_dim4_faithful, invariant_space, search_dim,
                          tensor_module, wedge2_module, weyl_dim)
    table = classify_dim4_faithful()
    records = [record(
        f"faithful-dim4:{entry['algebra_type']}",
        "CLASSIFIED" if entry["ok"] else "FAIL",
        {"highest_weight": list(entry["highest_weight"]),
         "module": entry["module"]},
        "classification") for entry in table]
    for typ in ("A2", "G2"):
        empty = search_dim(typ, 4)["solutions"] == []
        records.append(record(f"no-dim4:{typ}", "EMPTY" if empty else "FAIL",
                              {}, "classification"))
    dim = weyl_dim("B2", 0, 1)
    records.append(_check("weyl:B2(0,1)", dim == 4, {"dim": dim},
                          "classification"))

    def inv_record(case_id, module):
        inv = invariant_space(module)
        nz = [(lab, c) for lab, c in zip(module.basis_labels,
                                         inv[0] if inv else [])
              if c]
        return record(case_id,
                      "INVARIANT_LINE" if len(inv) == 1 else "FAIL",
                      {"dim": len(inv),
                       "support": [[lab, str(c)] for lab, c in nz]},
                      "invariants")

    module = {entry["algebra_type"]: entry["weight_module"] for entry in table}
    records.append(inv_record("invariant:wedge2-V3",
                              wedge2_module(module["A1"])))
    records.append(inv_record("invariant:tensor2-V1xV1",
                              tensor_module(module["A1xA1"],
                                            module["A1xA1"])))
    records.append(inv_record("invariant:wedge2-sp4",
                              wedge2_module(module["B2"])))
    return records


def _run_antiweil_verify():
    from .quatrep import (GALOIS_LIE_TABLE, algebra_associativity,
                          build_antiweil_rep, invariant_endomorphisms_dim,
                          invariant_wedge2_dim, sl2_triple,
                          conjugation_relation, unit_table_text,
                          verify_e_a1_brackets)
    rep = build_antiweil_rep(-1, -2, -3)
    _, D, a = rep.params
    triples = algebra_associativity()
    records = [_check("algebra-associativity",
                      triples == {"4": 4 ** 3, "8": 8 ** 3},
                      {"triples": triples, "table": unit_table_text()},
                      "quatrep")]
    tri = sl2_triple(-3, -1)
    records.append(_check("sl2-triple-brackets", tri.verify_brackets(),
                          {"a": -3, "lam": -1}, "quatrep"))
    records.append(_check("sl2-conjugation-relation",
                          conjugation_relation(-3, -1)
                          and conjugation_relation(2, -1), {}, "quatrep"))
    alg, gens, _ = rep.e_a1
    records.append(_check("algebra-brackets-15",
                          verify_e_a1_brackets(alg, gens),
                          {"D": D, "a": a}, "quatrep"))
    records.append(_check("matrix-brackets", rep.verify_matrix_brackets(),
                          {}, "quatrep"))
    ok, fails = rep.verify_galois_equivariance()
    records.append(_check("galois-equivariance-144", ok,
                          {"failures": fails}, "quatrep"))
    ok, checks = rep.verify_symplectic()
    records.append(_check("symplectic", ok,
                          {k: bool(v) for k, v in checks.items()}, "quatrep"))
    records.append(_check("irreducibility", rep.verify_irreducibility(),
                          {}, "quatrep"))
    records.append(_check("galois-lie-table-fidelity",
                          rep.regenerate_galois_lie_table()
                          == GALOIS_LIE_TABLE, {}, "quatrep"))
    # the counts of the module functions must equal the rational route's
    end_dim = invariant_endomorphisms_dim(rep)
    w2_dim = invariant_wedge2_dim(rep)
    records.append(_check("rational-invariant-dims",
                          (end_dim, w2_dim) == rep.rational_invariant_dims()
                          == (2, 1),
                          {"end_dim": end_dim, "wedge2_dim": w2_dim},
                          "quatrep"))
    return records


def _check(case_id, ok, certificate, table):
    return record(case_id, "OK" if ok else "FAIL", certificate, table)


def _run_positivity(weil_x):
    from . import positivity as pos
    records = [record("deg4-imaginary",
                      *pos.diagonal_feasibility(pos.deg4_imaginary_system()),
                      "positivity")]
    w = pos.zero_witness_real_case(pos.antisymmetric_weight_gram())
    records.append(record(
        "deg4-real", "INFEASIBLE" if w is not None else "FAIL",
        {"zero_witness": [str(c) for c in (w or [])]}, "positivity"))
    for tag, lam in (("neg", -1), ("pos", 1)):
        records.append(record(f"antiweil-imaginary-lam-{tag}",
                              *pos.antiweil_lambda_positive(lam),
                              "positivity"))
    xw = weil_x or (1, 2, 0, 0)
    w = pos.zero_witness_real_case(pos.antiweil_real_gram(),
                                   [pos.antiweil_real_constraint(xw)])
    records.append(record(
        "antiweil-real", "INFEASIBLE" if w is not None else "FAIL",
        {"zero_witness": [str(c) for c in (w or [])],
         "x": [str(c) for c in xw]}, "positivity"))
    rep = pos.weil_family_check(weil_x or (1, 0, 0, -1))
    records.append(record("weil-family", rep["status"],
                          {k: v for k, v in rep.items() if k != "status"},
                          "positivity"))
    return records


def _run_gross_periods(p, n):
    from .periods import gross_matrix, trdeg_lower_bound, twisted_membership
    cases = [(p, n)] if p is not None else [(1, 4), (2, 4)]
    records = []
    for pp, nn in cases:
        ms = gross_matrix(pp, nn)
        records.append(record(
            f"gross({pp},{nn})", f"TRDEG>={trdeg_lower_bound(ms)}",
            {"exponents": [list(m) for m in ms],
             "twisted_k_half_n":
                 nn % 2 == 0 and twisted_membership(ms, nn // 2)},
            "periods"))
    return records


# every section of verify-all, in its order, with the producer of its
# case records from the parsed arguments
SECTIONS = {
    "sweep-dim1": lambda args: _run_sweep("sweep_dim1"),
    "sweep-order4": lambda args: _run_sweep("sweep_order4"),
    "sweep-klein4": lambda args: _run_sweep("sweep_klein4"),
    "sweep-a4": lambda args: _run_sweep("sweep_a4"),
    "d4-cmtypes": lambda args: _run_d4_cmtypes(),
    "rep-classify": lambda args: _run_rep_classify(),
    "antiweil-verify": lambda args: _run_antiweil_verify(),
    "positivity": lambda args: _run_positivity(args.weil_x),
    "gross-periods": lambda args: _run_gross_periods(args.p, args.n),
}
SUBCOMMANDS = tuple(SECTIONS) + ("verify-all",)


def _error_certificate(exc):
    """The message, class and innermost cmsweep frame of an exception
    raised by a section producer (so at least one frame is in this
    package)."""
    import traceback
    package = Path(__file__).resolve().parent
    *_, frame = (f for f in traceback.extract_tb(exc.__traceback__)
                 if Path(f.filename).resolve().parent == package)
    return {"message": str(exc), "type": type(exc).__name__,
            "where": f"{Path(frame.filename).name}:{frame.lineno}"}


# ---------------------------------------------------------------------------
# fixtures and reports
# ---------------------------------------------------------------------------

def _fixture_file(args, sub):
    if args.fixtures is not None:
        return Path(args.fixtures) / f"{sub}.json"
    return Path(__file__).parent / "fixtures" / f"{sub}.json"


def _json(value, pad=""):
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, with
    each line after the first indented by pad: sorted str keys, two-space
    indent, ASCII escapes.  (json.dumps runs its pure-Python encoder when
    given an indent.)  A value that is not a str, int, float, bool, None,
    list, tuple or dict raises TypeError, and so does a dict key that is
    not a str, in encode_basestring_ascii or in sorted."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}"
                 for k in sorted(value)]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def _canonical(cases):
    return _json(cases) + "\n"


def _first_difference(want, got, path=""):
    """The first key path at which two JSON values differ, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            sub = f"{path}.{key}" if path else key
            if key not in want or key not in got:
                return sub
            diff = _first_difference(want[key], got[key], sub)
            if diff is not None:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (a, b) in enumerate(zip(want, got)):
            diff = _first_difference(a, b, f"{path}[{i}]")
            if diff is not None:
                return diff
        if len(want) != len(got):
            return f"{path}[{min(len(want), len(got))}]"
        return None
    return None if want == got else path


def _read_fixture(path):
    """The records of the fixture at path, a JSON list of records with str
    case_ids: FileNotFoundError when there is none, and OSError,
    ValueError, TypeError or KeyError when it cannot be read as one."""
    golden = json.loads(path.read_text())
    if not isinstance(golden, list):
        raise TypeError(f"a {type(golden).__name__}, not a JSON list")
    for c in golden:
        if not isinstance(c["case_id"], str):
            raise TypeError(f"case_id {c['case_id']!r} is not a str")
    return golden


def compare_with_fixture(args, sub, cases):
    """Returns (passed, failed, note).  A case passes when its case_id is
    unique on both sides and its record equals the fixture's; the note
    names every other case and is empty when all pass."""
    try:
        golden = _read_fixture(_fixture_file(args, sub))
    except FileNotFoundError:
        return 0, len(cases), f"fixture missing: {sub}.json"
    except (OSError, ValueError, TypeError, KeyError) as exc:
        return 0, len(cases), (f"fixture unreadable: {sub}.json "
                               f"({type(exc).__name__}: {exc})")
    want_ids = [c["case_id"] for c in golden]
    got_ids = [c["case_id"] for c in cases]
    want_count, got_count = Counter(want_ids), Counter(got_ids)
    duplicate = sorted({k for count in (want_count, got_count)
                        for k, n in count.items() if n > 1})
    missing = [k for k in want_ids if k not in got_count]
    extra = [k for k in got_ids if k not in want_count]
    by_id = {c["case_id"]: c for c in golden}
    passed = 0
    mismatched = []
    for c in cases:
        k = c["case_id"]
        if k in duplicate or k in extra:
            continue
        if by_id[k] == c:
            passed += 1
        else:
            mismatched.append(f"{k} at {_first_difference(by_id[k], c)}")
    failed = len(cases) - passed + len(missing)
    problems = [f"{what} {', '.join(ids)}" for what, ids in (
        ("mismatched", mismatched), ("missing", missing),
        ("extra", extra), ("duplicate case_id", duplicate)) if ids]
    return passed, failed, f"{sub}: {'; '.join(problems)}" if problems else ""


def _failing(cases):
    """The case_ids of the FAIL and ERROR records."""
    return [c["case_id"] for c in cases if c["verdict"] in ("FAIL", "ERROR")]


def bless_fixture(args, sub, cases):
    """Write the cases as the fixture of sub; returns (note, written).  A
    section with a FAIL or ERROR record is not written."""
    failing = _failing(cases)
    if failing:
        return (f"{sub}: not blessed, {sub}.json left as it was: failing "
                f"{', '.join(failing)}"), False
    path = _fixture_file(args, sub)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        old_ids = {c["case_id"]: c for c in _read_fixture(path)}
    except FileNotFoundError:
        old_ids = None
        note = f"{sub}: new fixture with {len(cases)} cases"
    except (OSError, ValueError, TypeError, KeyError) as exc:
        old_ids = None
        note = (f"{sub}: rewrote unreadable fixture {sub}.json "
                f"({type(exc).__name__}: {exc})")
    try:
        path.write_text(_canonical(cases))
    except OSError as exc:
        return (f"{sub}: cannot write fixture {sub}.json "
                f"({type(exc).__name__}: {exc})"), False
    if old_ids is None:
        return note, True
    new_ids = {c["case_id"]: c for c in cases}
    added = sorted(set(new_ids) - set(old_ids))
    removed = sorted(set(old_ids) - set(new_ids))
    changed = sorted(k for k in set(old_ids) & set(new_ids)
                     if old_ids[k] != new_ids[k])
    return (f"{sub}: {len(added)} added, {len(removed)} removed, "
            f"{len(changed)} changed" +
            (f" ({', '.join(changed[:5])})" if changed else "")), True


def _verdict_cell(case):
    """The verdict, and for an ERROR record its cause, type: message
    (where)."""
    if case["verdict"] != "ERROR":
        return case["verdict"]
    cert = case["certificate"]
    return f"ERROR {cert['type']}: {cert['message']} ({cert['where']})"


def render(report, fmt):
    """The report as JSON, or as markdown: one table of verdicts per
    section, the summary, then the notes, if the report has any."""
    if fmt == "json":
        return _json(report)
    lines = [f"# cmsweep {report['tool_version']}", ""]
    for sec in report["sections"]:
        lines.append(f"## {sec['subcommand']}")
        lines.append("")
        lines.append("| case | verdict |")
        lines.append("|---|---|")
        for c in sec["cases"]:
            lines.append(f"| {c['case_id']} | {_verdict_cell(c)} |")
        lines.append("")
    s = report["summary"]
    lines.append(f"**passed {s['passed']}, failed {s['failed']}**")
    if "notes" in report:
        lines.append("")
        lines += [f"- {note}" for note in report["notes"]]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse_x(text):
    from fractions import Fraction
    try:
        x = tuple(Fraction(t) for t in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected 4 comma-separated rationals, got {text!r} ({exc})"
        ) from None
    if len(x) != 4:
        raise argparse.ArgumentTypeError(
            f"expected 4 comma-separated rationals, got {len(x)}")
    if not any(x):
        raise argparse.ArgumentTypeError("x must be a nonzero vector")
    return x


# the case-parameter options by argparse name, and who takes them
OVERRIDE_FLAGS = {"p": "-p", "n": "-n", "weil_x": "--weil-x"}
OVERRIDES = {"gross-periods": ("p", "n"), "positivity": ("weil_x",)}


def _override_error(args):
    """Why the parameter options do not fit the subcommand, or None."""
    allowed = OVERRIDES.get(args.subcommand, ())
    stray = [flag for name, flag in OVERRIDE_FLAGS.items()
             if getattr(args, name) is not None and name not in allowed]
    if stray:
        return f"{args.subcommand} does not take {', '.join(stray)}"
    if (args.p is None) != (args.n is None):
        return "-p and -n must be given together"
    if args.p is not None and not 0 <= args.p <= args.n:
        return f"-p {args.p} -n {args.n}: need 0 <= p <= n"
    given = [flag for name, flag in OVERRIDE_FLAGS.items()
             if getattr(args, name) is not None]
    if args.bless and given:
        # an overridden run is not the fixture's case list
        return f"--bless does not take {', '.join(given)}"
    return None


# built once at import: main only parses with it
PARSER = argparse.ArgumentParser(
    prog="cmsweep",
    description="exact verification sweeps with golden fixtures")
PARSER.add_argument("subcommand", choices=SUBCOMMANDS)
PARSER.add_argument("--format", choices=("json", "markdown"), default="json")
PARSER.add_argument("--fixtures", default=None,
                    help="fixture directory (default: packaged)")
PARSER.add_argument("--bless", action="store_true",
                    help="rewrite fixtures, printing a diff summary")
PARSER.add_argument("--timing", action="store_true",
                    help="include runtime_ms in each section")
PARSER.add_argument("--weil-x", type=_parse_x, default=None,
                    help="positivity only: x as 4 comma-separated rationals")
PARSER.add_argument("-p", type=int, default=None,
                    help="gross-periods only, with -n")
PARSER.add_argument("-n", type=int, default=None,
                    help="gross-periods only, with -p")


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        problem = _override_error(args)
        fixtures = None if args.fixtures is None else Path(args.fixtures)
        if not problem and args.fixtures == "":
            problem = "--fixtures: empty path"
        elif not problem and fixtures and not fixtures.is_dir():
            if fixtures.exists():
                problem = f"--fixtures {args.fixtures}: not a directory"
            # only --bless creates the directory; without it every
            # section would be a "fixture missing" note
            elif not args.bless:
                problem = f"--fixtures {args.fixtures}: no such directory"
        if problem:
            PARSER.error(problem)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    subs = list(SECTIONS) if args.subcommand == "verify-all" \
        else [args.subcommand]
    overridden = any(v is not None for v in (args.weil_x, args.p, args.n))

    sections = []
    total_pass = total_fail = 0
    notes = []
    for sub in subs:
        t0 = time.monotonic()
        try:
            cases = SECTIONS[sub](args)
        except Exception as exc:  # surfaced as a failing case
            cases = [record(f"{sub}:error", "ERROR",
                            _error_certificate(exc), sub)]
        ms = int((time.monotonic() - t0) * 1000)
        failing = _failing(cases)
        if args.bless:
            note, written = bless_fixture(args, sub, cases)
            notes.append(note)
            passed, failed = (len(cases), 0) if written else (0, len(cases))
        elif overridden:
            notes.append(f"{sub}: parameter overrides, fixture skipped")
            passed, failed = len(cases) - len(failing), len(failing)
        else:
            passed, failed, note = compare_with_fixture(args, sub, cases)
            if note:
                notes.append(note)
        failed = max(failed, len(failing))
        total_pass += passed
        total_fail += failed
        section = {"subcommand": sub, "cases": cases}
        if args.timing:
            section["runtime_ms"] = ms
        sections.append(section)

    report = {
        "tool_version": __version__,
        "sections": sections,
        "summary": {"passed": total_pass, "failed": total_fail},
    }
    if notes:
        report["notes"] = notes
    print(render(report, args.format))
    return 0 if total_fail == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
