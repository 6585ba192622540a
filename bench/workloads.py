"""The benchmark's workloads and the correctness gate run inside every pass.

A workload is built from the seed and the loaded modules and fixtures;
``run_pass`` computes and checks every case once and returns a PassResult.
The program only ever receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field

# Fixture-checked sections of the paper's case tables, apart from the two
# heavy ones (sweep-order4, antiweil-verify) that dominate verify-all.
LIGHT_SECTIONS = ("sweep-dim1", "sweep-klein4", "sweep-a4", "d4-cmtypes",
                  "rep-classify", "positivity", "gross-periods")
ALL_SECTIONS = ("sweep-dim1", "sweep-order4", "sweep-klein4", "sweep-a4",
                "d4-cmtypes", "rep-classify", "antiweil-verify",
                "positivity", "gross-periods")

# Negative square-free integers of absolute value at most 30.  Three
# distinct ones always generate a degree-8 field: each pairwise product is
# a positive non-square, the triple product is negative.
NEG_SQUAREFREE = tuple(-n for n in range(1, 31)
                       if all(n % (d * d) for d in range(2, 6)))
GRID_TRIPLES = 3

BAD_VERDICTS = ("FAIL", "ERROR")


@dataclass
class PassResult:
    """Cases attempted and failed in one pass, with the case records that
    traced and untraced passes must reproduce exactly."""
    attempted: int = 0
    failed: int = 0
    records: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def fail(self, what):
        self.failed += 1
        self.errors.append(what)


def grid_triples(seed):
    """GRID_TRIPLES ordered triples (D', D, a) drawn without reusing a
    value, so every seed spends a similar share of the sample on large |d|."""
    values = list(NEG_SQUAREFREE)
    random.Random(seed).shuffle(values)
    return [tuple(values[3 * t:3 * t + 3]) for t in range(GRID_TRIPLES)]


def load_fixtures(fixture_dir):
    """Golden case records of every section, by subcommand."""
    return {sub: json.loads((fixture_dir / f"{sub}.json").read_text())
            for sub in ALL_SECTIONS}


def check_sections(result, rc, report, subs, fixtures):
    """Gate one cli report: every golden case must come back equal and with
    a good verdict, nothing extra may appear, and the exit code and summary
    must agree with that."""
    got = {sec["subcommand"]: sec["cases"] for sec in report["sections"]}
    expected = 0
    before = result.failed
    for sub in subs:
        cases = got.get(sub, [])
        by_id = {c["case_id"]: c for c in cases}
        golden_ids = set()
        for want in fixtures[sub]:
            expected += 1
            result.attempted += 1
            golden_ids.add(want["case_id"])
            have = by_id.get(want["case_id"])
            if have is None:
                result.fail(f"{sub}/{want['case_id']}: missing")
            elif have != want:
                result.fail(f"{sub}/{want['case_id']}: differs from fixture")
            elif have["verdict"] in BAD_VERDICTS:
                result.fail(f"{sub}/{want['case_id']}: {have['verdict']}")
        for c in cases:
            if c["case_id"] not in golden_ids:
                result.attempted += 1
                result.fail(f"{sub}/{c['case_id']}: not in fixture")
        result.records.append([sub, cases])
    summary_ok = rc == 0 and report["summary"] == {"passed": expected,
                                                   "failed": 0}
    if result.failed == before and not summary_ok:
        result.attempted += 1
        result.fail(f"{'+'.join(subs)}: exit {rc}, summary "
                    f"{report['summary']} disagrees with the fixtures")


class CliWorkload:
    """Runs ``cli.main`` in process with stdout captured, once per argv."""

    def __init__(self, argvs, mods, fixtures, fixture_arg):
        self.argvs = argvs
        self.cli = mods["cli"]
        self.fixtures = fixtures
        self.extra = ["--fixtures", fixture_arg] if fixture_arg else []
        self.inputs = [argv[0] for argv in argvs]

    def run_pass(self):
        result = PassResult()
        for argv in self.argvs:
            subs = ALL_SECTIONS if argv[0] == "verify-all" else argv
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(list(argv) + self.extra)
                report = json.loads(buf.getvalue())
            except Exception as exc:  # every case of the call fails
                n = sum(len(self.fixtures[s]) for s in subs)
                result.attempted += n
                for _ in range(n):
                    result.fail(f"{argv[0]}: {type(exc).__name__}: {exc}")
                result.records.append([argv[0], repr(exc)])
                continue
            check_sections(result, rc, report, subs, self.fixtures)
        return result


class AntiweilGridWorkload:
    """The quatrep verification chain on seeded parameter triples."""

    def __init__(self, seed, mods):
        self.q = mods["quatrep"]
        self.inputs = grid_triples(seed)

    def _checks(self, triple):
        """(case name, thunk) pairs; each thunk returns (ok, value)."""
        q = self.q
        Dp, D, a = triple
        state = {}

        def build():
            state["rep"] = q.build_antiweil_rep(Dp, D, a)
            return True, list(state["rep"].params)

        def e_a1():
            alg, gens = q.e_a1_triples(D, a)
            ok = q.verify_e_a1_brackets(alg, gens)
            return ok, ok

        def flag(fn):
            def run():
                ok = fn(state["rep"])
                return ok, ok
            return run

        def dim(fn, want):
            def run():
                d = fn(state["rep"])
                return d == want, d
            return run

        return (
            ("build", build),
            ("matrix-brackets", flag(lambda r: r.verify_matrix_brackets())),
            ("galois-equivariance", flag(q.verify_galois_equivariance)),
            ("symplectic", flag(q.verify_symplectic)),
            ("irreducibility", flag(q.verify_irreducibility)),
            ("galois-lie-table",
             flag(lambda r: r.regenerate_galois_lie_table()
                  == q.GALOIS_LIE_TABLE)),
            ("e-a1-brackets", e_a1),
            ("end-dim", dim(q.invariant_endomorphisms_dim, 2)),
            ("wedge2-dim", dim(q.invariant_wedge2_dim, 1)),
        )

    def run_pass(self):
        result = PassResult()
        for triple in self.inputs:
            for case, thunk in self._checks(triple):
                result.attempted += 1
                try:
                    ok, value = thunk()
                except Exception as exc:  # a raised case is a failed case
                    ok, value = False, f"{type(exc).__name__}: {exc}"
                if ok is not True:
                    result.fail(f"{triple}/{case}: {value}")
                result.records.append([list(triple), case, value])
        return result


def make_workload(name, seed, mods, fixtures, fixture_arg=None):
    if name == "verify-all":
        return CliWorkload([("verify-all",)], mods, fixtures, fixture_arg)
    if name == "light-sections":
        return CliWorkload([(sub,) for sub in LIGHT_SECTIONS], mods,
                           fixtures, fixture_arg)
    if name == "antiweil-grid":
        return AntiweilGridWorkload(seed, mods)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-all", "antiweil-grid", "light-sections")
