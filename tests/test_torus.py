"""The signed-permutation sweeps: verdict tables, witnesses, stable
subspace families, sign-flip symmetry, the integer cubic constraints,
the Plücker quadratics, the integer root candidates and the filtered
divisor test against their references, the signed-permutation type,
its eigenvectors and eigenlines read off the cycles, the eigenvalue
trial scan, the commutant dimensions of the case matrices and the
survivor demo."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cmsweep.fields import (DoesNotSplit, ExactMatrix,
                            _eigenvalue_candidates, cleared_rows,
                            eigen_decompose, field_create, rational_kernel,
                            rational_rank, roots_of_unity)
from cmsweep.intlat import IntLattice, rational_span_intersect, saturate
from cmsweep.torus import (ORDER4_FIELD, REJECTED_DIVISOR_TEST,
                           REJECTED_NO_DESCENT, REJECTED_RANK, SURVIVES_D4,
                           A4_Q, A4_QP, M1, M2, MixedFamily,
                           P0, P1, P2, P3, P4, PP0, PP1, PP2, Q1, Q2, Q3,
                           QP1, QP2, QP3, QQ0, QQ1, QQ2,
                           R0, R1, R2, R3, R4, R5, R6, R7,
                           SignedGroup, SignedPerm, all_subgroups_s4,
                           divisor_candidates, divisor_test, divisor_verdict,
                           family_constraints, finite_route_verdict,
                           pair_analysis,
                           stable_subspaces, stable_subspaces_finite,
                           sweep_a4, sweep_dim1, sweep_klein4, sweep_order4,
                           transitive_subgroups_s4, _one_flip_lifts,
                           ONE4, _commutation_sign, _eigenvectors,
                           _order4_lifts, _rational_projective_roots,
                           _rational_restriction, _signed_eigenlines,
                           _square_sign)
from helpers import (dense_rows, divisor_test_by_candidates,
                     family_stable_at, identity_matrix, mat_apply,
                     matrix_rank, projective_roots_by_fractions,
                     qq_restriction)

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "cmsweep" / "fixtures"


def _verdicts(cases):
    return {cv["case_id"]: cv["verdict"] for cv in cases}


def _dense(m):
    """The dense rows of a SignedPerm, read off its sparse rows."""
    return tuple(map(tuple, dense_rows(m.nonzero, len(m.perm))))


def test_transitive_subgroup_families():
    fams = transitive_subgroups_s4()
    assert [f["family"] for f in fams] == ["C4", "V", "D4", "A4", "S4"]
    counts = {f["family"]: len(f["subgroups"]) for f in fams}
    assert counts == {"C4": 3, "V": 1, "D4": 3, "A4": 1, "S4": 1}
    # brute force: transitive = single orbit on {0,1,2,3}
    brute = []
    for sub in all_subgroups_s4():
        orbit = {0}
        for p in sub:
            orbit |= {p[i] for i in orbit}
        for p in sub:
            orbit |= {p[i] for i in orbit}
        if orbit == {0, 1, 2, 3}:
            brute.append(frozenset(sub))
    listed = [frozenset(s) for f in fams for s in f["subgroups"]]
    assert sorted(map(sorted, brute)) == sorted(map(sorted, listed))


def test_sweep_dim1_all_divisor_rejected():
    cases = sweep_dim1()
    assert len(cases) == 12
    assert all(cv["verdict"] == REJECTED_DIVISOR_TEST for cv in cases)
    for cv in cases:
        wit = cv["certificate"]["element"]
        assert sorted(map(abs, wit)) == [0, 0, 1, 1]


def test_sweep_order4_table():
    got = _verdicts(sweep_order4())
    assert got == {
        "order4-pppp": REJECTED_DIVISOR_TEST,
        "order4-ppmm": REJECTED_DIVISOR_TEST,
        "order4-pmpm": REJECTED_DIVISOR_TEST,
        "order4-pmmp": REJECTED_DIVISOR_TEST,
        "order4-pppm": REJECTED_NO_DESCENT,
        "order4-ppmp": REJECTED_NO_DESCENT,
        "order4-pmpp": REJECTED_NO_DESCENT,
        "order4-pmmm": REJECTED_NO_DESCENT,
    }


def test_order4_m1_eigendata_and_m2_descent():
    assert ORDER4_FIELD == (-1, 2)
    f = field_create(ORDER4_FIELD)
    eig = {str(lam): vecs for lam, vecs in
           eigen_decompose(ExactMatrix.from_rows(f, M1.nonzero, 4))}
    minus = eig["-1"]
    assert len(minus) == 1
    assert [c.as_fraction() for c in minus[0]] == [-1, 1, -1, 1]
    m2_cases = [cid for cid, m in _order4_lifts() if m in (M2, -M2)]
    assert len(m2_cases) == 1
    got = _verdicts(sweep_order4())
    assert got[m2_cases[0]] == REJECTED_NO_DESCENT


KLEIN4_TABLE = {
    "klein4-oneflip-mppp": REJECTED_DIVISOR_TEST,
    "klein4-oneflip-pmpp": REJECTED_DIVISOR_TEST,
    "klein4-oneflip-ppmp": REJECTED_DIVISOR_TEST,
    "klein4-oneflip-pppm": REJECTED_DIVISOR_TEST,
    "klein4-p0-pure-planes": REJECTED_DIVISOR_TEST,
    "klein4-p0-p1": REJECTED_DIVISOR_TEST,
    "klein4-p0-p2": SURVIVES_D4,
    "klein4-p0-p3": SURVIVES_D4,
    "klein4-p0-p4": REJECTED_RANK,
    "klein4-p0-p2-q1": REJECTED_RANK,
    "klein4-p0-p2-q2": REJECTED_DIVISOR_TEST,
    "klein4-p0-p2-q3": REJECTED_DIVISOR_TEST,
    "klein4-p0-p3-q1p": REJECTED_RANK,
    "klein4-p0-p3-q2p": REJECTED_DIVISOR_TEST,
    "klein4-p0-p3-q3p": REJECTED_DIVISOR_TEST,
    "klein4-pp0-pure-planes": REJECTED_DIVISOR_TEST,
    "klein4-pp0-qq0": REJECTED_DIVISOR_TEST,
    "klein4-pp0-qq1": REJECTED_RANK,
    "klein4-pp1-qq0": REJECTED_RANK,
    "klein4-pp1-qq2": REJECTED_RANK,
    "klein4-pp2-qq1": REJECTED_RANK,
    "klein4-pp2-qq2": REJECTED_DIVISOR_TEST,
}


def test_sweep_klein4_table():
    assert _verdicts(sweep_klein4()) == KLEIN4_TABLE


def test_klein4_survivor_witnesses():
    by_id = {cv["case_id"]: cv for cv in sweep_klein4()}
    for cid, lat_rows in (("klein4-p0-p2", [[1, 3, -1, 3], [0, 4, -3, 5]]),
                          ("klein4-p0-p3", [[1, 3, -3, 1], [0, 4, -5, 3]])):
        cert = by_id[cid]["certificate"]
        assert cert["witness_point"] == [1, 2]
        lat = IntLattice(4, cert["witness_lattice"])
        assert lat == IntLattice(4, lat_rows)
        flag, _ = divisor_test(lat)
        assert not flag  # survivor passes (i.e. is not rejected by) the test


def test_sweep_a4_all_rank_rejected():
    cases = sweep_a4()
    assert len(cases) == 16
    assert all(cv["verdict"] == REJECTED_RANK for cv in cases)


def test_stable_subspaces_examples():
    fams = stable_subspaces([M1], 2)
    lats = sorted(f.lattice.basis for f in fams if f.kind == "finite")
    assert lats == [((1, 0, -1, 0), (0, 1, 0, -1)),
                    ((1, 0, 1, 0), (0, 1, 0, 1))]
    fams = stable_subspaces([P0, P2], 2)
    assert len(fams) == 1 and fams[0].kind == "parametric"
    assert all(family_stable_at(fams[0].family, x1, x2)
               for x1, x2 in ((1, 0), (0, 1), (1, 2), (2, -3), (5, 7)))
    assert stable_subspaces([P0, P4], 2) == []


def test_stable_subspaces_finite_checks_the_other_matrices():
    # M1 * M1 keeps both eigenline sums of M1 stable; the transposition of
    # e0 and e1 sends e0 - e2 to e1 - e2 and e0 + e2 to e1 + e2, so it
    # keeps neither
    swap = SignedPerm((1, 0, 2, 3), (1, 1, 1, 1))
    minus = ((1, 0, -1, 0), (0, 1, 0, -1))
    plus = ((1, 0, 1, 0), (0, 1, 0, 1))
    for ms, want in (([M1, M1 * M1], [minus, plus]), ([M1, swap], []),
                     ([M1, M1 * M1, swap], [])):
        fams = stable_subspaces(ms, 2)
        assert sorted(f.lattice.basis for f in fams) == want


def test_stable_subspaces_needs_second_involutive_matrix():
    with pytest.raises(ValueError):
        stable_subspaces([P0], 2)


@pytest.mark.parametrize("ms,dims", [
    ([-ONE4, P0], (4, 0)),
    ([ONE4, SignedPerm((1, 0, 3, 2), (1, -1, 1, -1))], (0, 4)),
    # a reflection and a commuting transposition
    ([SignedPerm((0, 1, 2, 3), (1, 1, 1, -1)),
      SignedPerm((1, 0, 2, 3), (1, 1, 1, 1))], (1, 3))])
def test_real_first_lift_needs_two_eigenplanes(ms, dims):
    """A real-type first lift whose eigenplanes are not both 2-dimensional
    is refused with their dimensions, not an IndexError from an empty
    restriction or a verdict from the wrong planes."""
    minus, plus = dims
    with pytest.raises(ValueError, match=re.escape(
            f"eigenplanes of dimensions {minus} (-1) and {plus} (+1)")):
        stable_subspaces(ms, 2)


def _fixture(sub):
    return json.loads((FIXDIR / f"{sub}.json").read_text())


# the matrices of every sweep case that is not a pure-plane case
STABLE_CASES = {
    **{cid: ([m], field_create(ORDER4_FIELD)) for cid, m in _order4_lifts()},
    **{cid: ([m], field_create([-1])) for cid, m in _one_flip_lifts()},
    "klein4-p0-p1": ([P0, P1], None),
    "klein4-p0-p2": ([P0, P2], None),
    "klein4-p0-p3": ([P0, P3], None),
    "klein4-p0-p4": ([P0, P4], None),
    "klein4-p0-p2-q1": ([P0, P2, Q1], None),
    "klein4-p0-p2-q2": ([P0, P2, Q2], None),
    "klein4-p0-p2-q3": ([P0, P2, Q3], None),
    "klein4-p0-p3-q1p": ([P0, P3, QP1], None),
    "klein4-p0-p3-q2p": ([P0, P3, QP2], None),
    "klein4-p0-p3-q3p": ([P0, P3, QP3], None),
    "klein4-pp0-qq0": ([PP0, QQ0], None),
    "klein4-pp0-qq1": ([PP0, QQ1], None),
    "klein4-pp1-qq0": ([PP1, QQ0], None),
    "klein4-pp1-qq2": ([PP1, QQ2], None),
    "klein4-pp2-qq2": ([PP2, QQ2], None),
    "klein4-pp2-qq1": ([PP2, QQ1], None),
    **{f"a4-p0-{tag}-r{i}": ([P0, q, r], None)
       for tag, q in (("q", A4_Q), ("qp", A4_QP))
       for i, r in enumerate((R0, R1, R2, R3, R4, R5, R6, R7))},
}


def test_stable_subspaces_agree_with_fixtures():
    records = [rec for sub in ("sweep-order4", "sweep-klein4", "sweep-a4")
               for rec in _fixture(sub)
               if not rec["case_id"].endswith("pure-planes")]
    assert sorted(r["case_id"] for r in records) == sorted(STABLE_CASES)
    for rec in records:
        ms, field = STABLE_CASES[rec["case_id"]]
        fams = stable_subspaces(ms, 2, field)
        verdict, cert = rec["verdict"], rec["certificate"]
        if verdict in (REJECTED_RANK, REJECTED_NO_DESCENT):
            assert fams == [], rec["case_id"]
        elif verdict == REJECTED_DIVISOR_TEST:
            assert all(f.kind == "finite" for f in fams)
            assert sorted([list(r) for r in f.lattice.basis] for f in fams) \
                == sorted(c["lattice"] for c in cert["candidates"]), \
                rec["case_id"]
        else:
            assert verdict == SURVIVES_D4
            (fam,) = fams
            assert fam.kind == "parametric"
            lat = fam.family.lattice_at(*cert["witness_point"])
            assert [list(r) for r in lat.basis] == cert["witness_lattice"]


def test_witness_point_search_order(monkeypatch):
    # with a divisor test that every lattice passes, the search visits
    # every coprime point, x2 = total - x1 before -(total - x1)
    import cmsweep.torus as torus
    monkeypatch.setattr(torus, "divisor_test", lambda lat: (True, None))
    kind, fam = pair_analysis(P0, P2)
    assert kind == "family"
    tried = []
    lattice_at = fam.lattice_at

    def recording(x1, x2):
        tried.append((x1, x2))
        return lattice_at(x1, x2)

    monkeypatch.setattr(fam, "lattice_at", recording)
    assert fam.witness_point() == (None, None)
    assert tried == [(x1, x2) for total in range(1, 12)
                     for x1 in range(total + 1)
                     for x2 in ((total - x1, x1 - total) if x1 < total
                                else (0,))
                     if gcd(x1, x2) == 1]
    assert tried.index((1, 4)) < tried.index((1, -4))
    assert tried.index((1, 5)) < tried.index((1, -5))


def test_pair_analysis_kinds():
    kind, _ = pair_analysis(P0, P2)
    assert kind == "family"
    kind, _ = pair_analysis(P0, A4_Q)
    assert kind == "family"
    kind, out = pair_analysis(P0, P4)
    assert kind == "none"


def test_divisor_sign_symmetry():
    """Negating any single generator of a one-matrix case leaves the
    verdict unchanged (the candidate vector set is sign-closed)."""
    gauss = field_create([-1])
    for cid, m in _one_flip_lifts():
        v1 = finite_route_verdict(cid, [m], gauss, "t")["verdict"]
        v2 = finite_route_verdict(cid, [-m], gauss, "t")["verdict"]
        assert v1 == v2


def test_signed_group_enumeration():
    g = SignedGroup([M1])
    assert len(g.elements) == 8  # order-4 cycle with -I
    perms = g.image_in_s4()
    assert len(perms) == 4


def test_signed_lift_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        perm = tuple(rng.sample(range(4), 4))
        signs = tuple(rng.choice((1, -1)) for _ in range(4))
        m = SignedPerm(perm, signs)
        assert m.perm == perm
        assert SignedPerm.from_rows(_dense(m)) == m


B4 = [SignedPerm(p, s) for p in permutations(range(4))
      for s in product((1, -1), repeat=4)]


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(4))
                       for j in range(4)) for i in range(4))


def test_signed_perm_agrees_with_its_matrix():
    assert len(set(B4)) == 384
    rng = random.Random(11)
    for _ in range(300):
        a, b = rng.choice(B4), rng.choice(B4)
        v = tuple(rng.randint(-9, 9) for _ in range(4))
        assert SignedPerm.from_rows(_dense(a)) == a
        assert _dense(a * b) == _mat_mul(_dense(a), _dense(b))
        assert _dense(-a) == tuple(tuple(-x for x in r) for r in _dense(a))
        assert a.apply(v) == mat_apply(_dense(a), v)
        for lam in (1, -1):
            assert _eigenvectors(a, lam) == rational_kernel(
                [[x - lam * (i == j) for j, x in enumerate(row)]
                 for i, row in enumerate(_dense(a))], 4)
        cycles = a.cycles()
        assert sorted(c for cycle in cycles for c in cycle) == [0, 1, 2, 3]
        for cycle in cycles:
            assert cycle[0] == min(cycle)
            assert all(a.perm[c] == cycle[(t + 1) % len(cycle)]
                       for t, c in enumerate(cycle))


# dim End_G(Q^4), the commutant of the group each case's matrices generate
COMMUTANT_DIMS = [
    ((P0,), 8), ((M1,), 4),
    ((P0, P1), 4), ((P0, P2), 4), ((PP0, QQ0), 4),
    ((P0, P2, Q1), 2), ((P0, P2, Q2), 2), ((P0, P3, QP2), 2),
    ((P0, A4_Q, R0), 1), ((P0, A4_QP, R5), 1),
]


@pytest.mark.parametrize("gens,want", COMMUTANT_DIMS)
def test_commutant_dimensions_of_case_matrices(gens, want):
    """The commutant X g = g X of the case matrices, from the int rows of
    liereps.commutant_rows, against sympy's rank of the dense system
    X -> g X - X g written out cell by cell."""
    import sympy
    from cmsweep.fields import rational_rank
    from cmsweep.liereps import commutant_rows
    rows = commutant_rows([m.nonzero for m in gens], 4)
    assert all(type(x) is int for row in rows for x in row.values())
    assert 16 - rational_rank(rows) == want
    dense = []
    for m in gens:
        g = _dense(m)
        dense += [[(g[i][k] if l == j else 0) - (g[l][j] if k == i else 0)
                   for k in range(4) for l in range(4)]
                  for i in range(4) for j in range(4)]
    assert dense_rows(rows, 16) == dense
    assert 16 - sympy.Matrix(dense).rank() == want


def _sign_of(p, q):
    """+1 or -1 when the 4x4 matrices satisfy p = +-q, else None."""
    if p == q:
        return 1
    if p == tuple(tuple(-x for x in r) for r in q):
        return -1
    return None


def _sign_or_none(f, *args):
    try:
        return f(*args)
    except ValueError:
        return None


def test_square_and_commutation_signs_agree_with_matrix_products():
    one = _dense(ONE4)
    squares = [_sign_or_none(_square_sign, a) for a in B4]
    assert squares == [_sign_of(_mat_mul(_dense(a), _dense(a)), one)
                       for a in B4]
    rng = random.Random(13)
    outcomes = set()
    for _ in range(3000):
        a, b = rng.choice(B4), rng.choice(B4)
        got = _sign_or_none(_commutation_sign, a, b)
        assert got == _sign_of(_mat_mul(_dense(a), _dense(b)),
                               _mat_mul(_dense(b), _dense(a)))
        outcomes.add(got)
    assert set(squares) == outcomes == {1, -1, None}


@pytest.mark.parametrize("rows", [
    ((1, 0, 0, 0), (1, 1, 1, 0), (0, 0, 1, 0), (-1, 0, -1, 1)),
    ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)),  # 3x4, one row per column
    ((1, 0), (0, 1, 5)),  # ragged
])
def test_signed_perm_rejects_other_matrices(rows):
    with pytest.raises(ValueError, match="not a signed permutation"):
        SignedPerm.from_rows(rows)


# -- eigenlines of signed permutations read off their cycles ----------------

@pytest.mark.parametrize("gens, lines", [
    ((-1, 2), 1280), ((-1,), 1088), ((-3,), 1056), ((-2, 2), 1280)])
def test_eigenvectors_are_the_kernel_basis_on_b4(gens, lines):
    """The walk off the cycles gives the basis ExactMatrix.kernel reads off
    the rref of m - zeta*I, vector for vector, for every root of unity of
    the field."""
    field = field_create(gens)
    one, found = field.one(), 0
    for g in B4:
        for zeta, _ in roots_of_unity(field):
            rows = g.nonzero
            for i, row in enumerate(rows):
                row[i] = row.get(i, 0) - zeta
            want = ExactMatrix.from_rows(field, rows, 4).kernel()
            assert _eigenvectors(g, zeta, one) == want
            found += len(want)
    assert found == lines  # eigenlines of the 384 elements in the field


def test_int_eigenvectors_are_the_rational_kernel_basis_on_b4():
    """At zeta = +-1 over ints the walk gives the rational_kernel basis of
    m - zeta*I, as ints."""
    for g in B4:
        for lam in (1, -1):
            got = _eigenvectors(g, lam)
            assert all(type(x) is int for v in got for x in v)
            assert got == rational_kernel(
                [{**row, i: row.get(i, 0) - lam}
                 for i, row in enumerate(g.nonzero)], 4)


@pytest.mark.parametrize("gens", [(-1, 2), (-1,), (-3,), (-2, 2)])
def test_signed_eigenlines_agree_with_eigen_decompose_on_b4(gens):
    field = field_create(gens)
    split = 0
    for g in B4:
        m = ExactMatrix.from_rows(field, g.nonzero, 4)
        try:
            want = eigen_decompose(m)
        except DoesNotSplit:
            with pytest.raises(DoesNotSplit):
                _signed_eigenlines(g, field)
            continue
        split += 1
        got = _signed_eigenlines(g, field)
        # one line per eigenspace dimension, in candidate order
        assert [lam for lam, _ in got] == \
            [lam for lam, ker in want for _ in ker]
        for lam, v in got:
            assert m * v == [lam * x for x in v]
        assert matrix_rank(ExactMatrix(field, [v for _, v in got])) == 4
    assert 0 < split < len(B4)
    if gens == (-1, 2):  # only the 128 elements with a 3-cycle fail
        assert split == 256


def test_sweeps_try_eigenvalues_only_on_2x2_restrictions(monkeypatch):
    import cmsweep.torus as torus
    sizes = []
    decompose = torus.eigen_decompose

    def counting(m):
        sizes.append(m.rows)
        return decompose(m)

    monkeypatch.setattr(torus, "eigen_decompose", counting)
    sweep_order4()
    assert sizes == []
    sweep_klein4()
    assert sizes and set(sizes) == {2}


def _involutive_commuting_pairs():
    """Every (m1, m2) of B4 elements with m1^2 = I, m2^2 = +-I and
    m1 m2 = m2 m1: the pairs the rational branch of pair_analysis takes."""
    signs = {m: _sign_or_none(_square_sign, m) for m in B4}
    return [(a, b) for a in B4 if signs[a] == 1 for b in B4
            if signs[b] is not None and a * b == b * a]


def test_int_restriction_matches_the_qq_route_on_b4():
    """The int restriction read off the free columns, and its eigenlines
    from the kernels of C - I and C + I, against one QQ solve per basis
    vector and eigen_decompose over QQ, on both eigenplanes of every
    commuting involutive pair; eigenlines agree once cleared of their
    denominators."""
    pairs = _involutive_commuting_pairs()
    sizes, splits = set(), set()
    for m1, m2 in pairs:
        for lam in (1, -1):
            basis = _eigenvectors(m1, lam)
            c, lines = _rational_restriction(m2, basis)
            want_c, want_lines = qq_restriction(m2, basis)
            assert all(type(x) is int for row in c + lines for x in row)
            assert c == want_c
            assert lines == dense_rows(cleared_rows(want_lines), len(basis))
            sizes.add(len(basis))
            splits.add(bool(lines))
    assert len(pairs) > 1000 and sizes == {0, 1, 2, 3, 4}
    assert splits == {True, False}


def test_rational_pair_branch_builds_no_qq_matrix(monkeypatch):
    """The commuting pairs with a real-type first lift build no
    ExactMatrix at all, so none over QQ, and call neither solve nor
    eigen_decompose; the Q(i) branch still calls both, over Q(i) only."""
    import cmsweep.fields as fields
    import cmsweep.torus as torus
    seen = []

    def recording(name, fn, field_of):
        def call(*args):
            seen.append((name, field_of(*args)))
            return fn(*args)
        return call

    monkeypatch.setattr(ExactMatrix, "__init__", recording(
        "init", ExactMatrix.__init__, lambda self, field, entries: field))
    monkeypatch.setattr(fields, "_matrix", recording(
        "matrix", fields._matrix, lambda field, nonzero, cols: field))
    monkeypatch.setattr(ExactMatrix, "solve", recording(
        "solve", ExactMatrix.solve, lambda self, rhs: self.field))
    monkeypatch.setattr(torus, "eigen_decompose", recording(
        "eigen", torus.eigen_decompose, lambda m: m.field))
    for m1, m2 in ((P0, P1), (P0, P4), (PP0, QQ0), (PP0, QQ1), (PP1, QQ0)):
        kind, _ = pair_analysis(m1, m2)
        assert kind in ("finite", "none")
    assert seen == []
    assert pair_analysis(PP2, QQ2)[0] == "finite"
    assert {name for name, _ in seen} >= {"solve", "eigen"}
    assert {field for _, field in seen} == {field_create([-1])}


@pytest.mark.parametrize("rows", [P0, PP0, SignedPerm((0, 1, 3, 2),
                                                       (1, 1, 1, 1))])
def test_finite_route_rejects_repeated_eigenvalues(rows):
    with pytest.raises(ValueError,
                       match="first matrix must have distinct eigenvalues"):
        stable_subspaces_finite([rows], 2, field_create(ORDER4_FIELD))


# -- the cubic constraints against the Fraction polynomial products -------

def _hpoly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for a, pa in enumerate(p):
        for b, qb in enumerate(q):
            out[a + b] += pa * qb
    return out


def _det3_linear(rows):
    """det of a 3x3 matrix whose entries are linear forms (cx1, cx2) in
    (x1, x2); result as homogeneous cubic coefficient list [x2^3 .. x1^3]."""
    def lf(e):
        return [Fraction(e[1]), Fraction(e[0])]  # [x2-coef, x1-coef]
    total = [Fraction(0)] * 4
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        term = [Fraction(sign)]
        for r in range(3):
            term = _hpoly_mul(term, lf(rows[r][perm[r]]))
        total = [a + b for a, b in zip(total, term + [Fraction(0)] *
                                       (4 - len(term)))]
    return total


def _constraints_by_products(fam, m3):
    """The minor cubics multiplied out as Fraction polynomials."""
    def linform(vec_a, vec_b):
        return [(Fraction(pa), Fraction(pb)) for pa, pb in zip(vec_a, vec_b)]

    u = linform(fam.a, fam.b)
    w = linform(fam.c, fam.d)
    out = []
    for src_a, src_b in ((fam.a, fam.b), (fam.c, fam.d)):
        img = linform(mat_apply(_dense(m3), src_a),
                      mat_apply(_dense(m3), src_b))
        for cols in combinations(range(4), 3):
            rows = [[u[c] for c in cols], [w[c] for c in cols],
                    [img[c] for c in cols]]
            minor = _det3_linear(rows)
            if any(x != 0 for x in minor):
                out.append(minor)
    return out


# the (second, third) matrices the sweeps impose on the family of (P0, *)
SWEEP_TRIPLES = [(P2, Q1), (P2, Q2), (P2, Q3), (P3, QP1), (P3, QP2),
                 (P3, QP3)] + [(q, r) for q in (A4_Q, A4_QP)
                               for r in (R0, R1, R2, R3, R4, R5, R6, R7)]


def _assert_same_constraints(fam, m3):
    got = family_constraints(fam, m3)
    assert got == _constraints_by_products(fam, m3)
    assert all(type(c) is int for cubic in got for c in cubic)


def test_family_constraints_match_products_on_sweep_triples():
    assert len(SWEEP_TRIPLES) == 22
    for second, third in SWEEP_TRIPLES:
        kind, fam = pair_analysis(P0, second)
        assert kind == "family"
        assert all(type(x) is int
                   for v in (fam.a, fam.b, fam.c, fam.d) for x in v)
        _assert_same_constraints(fam, third)


int_vectors = st.lists(st.integers(-6, 6), min_size=4, max_size=4)


@given(st.lists(int_vectors, min_size=4, max_size=4),
       st.sampled_from(list(permutations(range(4)))),
       st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_family_constraints_match_products_on_random_families(vecs, perm,
                                                             signs):
    fam = MixedFamily(*vecs)
    _assert_same_constraints(fam, SignedPerm(perm, tuple(signs)))


def test_family_vectors_must_be_integral():
    fam = MixedFamily((Fraction(2), 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                      (0, 0, 0, Fraction(-4, 2)))
    assert fam.a == (2, 0, 0, 0) and fam.d == (0, 0, 0, -2)
    assert all(type(x) is int for x in fam.a + fam.d)
    with pytest.raises(ValueError):
        MixedFamily((Fraction(1, 2), 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                    (0, 0, 0, 1))


# -- the Plücker quadratics, the integer root candidates and the filtered
# divisor test against their references ------------------------------------

def _hpoly_int_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for a, pa in enumerate(p):
        for b, qb in enumerate(q):
            out[a + b] += pa * qb
    return out


def _sweep_families():
    """The two families the sweep triples constrain, one per second lift."""
    return [pair_analysis(P0, second)[1]
            for second in dict.fromkeys(second for second, _ in SWEEP_TRIPLES)]


def test_plucker_quadratics_are_the_minors_of_the_family():
    rng = random.Random(3901)
    fams = _sweep_families() + [
        MixedFamily(*[[rng.randint(-6, 6) for _ in range(4)]
                      for _ in range(4)]) for _ in range(200)]
    assert len(fams) == 202
    for fam in fams:
        assert fam.plucker is fam.plucker  # cached on the family
        assert all(type(x) is int for quad in fam.plucker for x in quad)
        for x1, x2 in ((1, 0), (0, 1), (1, 1), (2, -3), (-5, 7)):
            u, w = fam.at(x1, x2)
            assert [q0 * x2 * x2 + q1 * x1 * x2 + q2 * x1 * x1
                    for q0, q1, q2 in fam.plucker] == \
                [u[i] * w[j] - u[j] * w[i]
                 for i, j in combinations(range(4), 2)]


def _sympy_projective_roots(polys):
    """The rational roots of the gcd of the polynomials read in
    t = x1/x2, after (1 : 0) when every x1^d coefficient is 0."""
    t = sympy.Symbol("t")
    g = sympy.Poly(0, t)
    for p in polys:
        g = sympy.gcd(g, sympy.Poly(list(reversed(p)), t))
    finite = sorted(-f.all_coeffs()[1] / f.all_coeffs()[0]
                    for f, _ in g.factor_list()[1] if f.degree() == 1)
    return [(1, 0)] * all(p[-1] == 0 for p in polys) + \
        [(r.p, r.q) for r in finite]


def test_projective_roots_match_references_on_sweep_triples():
    with_roots = 0
    for second, third in SWEEP_TRIPLES:
        polys = family_constraints(pair_analysis(P0, second)[1], third)
        roots = _rational_projective_roots(polys)
        assert roots == projective_roots_by_fractions(polys)
        assert roots == _sympy_projective_roots(polys)
        with_roots += bool(roots)
    # klein4 q2, q3, q2p and q3p; no a4 triple has a root
    assert with_roots == 4


def _planted_cubics(rng, n):
    """1-3 int cubics [x2^3 .. x1^3] with common planted roots (x1 : x2):
    (1 : 0) for n % 4 == 0, t = 0 for 1, a double root for 2 and a
    denominator 2..6 for 3, with up to one more planted root; each cubic
    is their linear forms q*x1 - p*x2 times random linear forms and a
    nonzero scale."""
    def rational(low):  # a reduced p/q with q in low..6
        q = rng.randint(low, 6)
        while True:
            p = rng.randint(-9, 9)
            if gcd(p, q) == 1:
                return p, q
    first = [(1, 0), (0, 1), rational(1), rational(2)][n % 4]
    planted = [first] * (2 if n % 4 == 2 else 1)
    if rng.random() < 0.5:
        planted.append(rational(1))
    cubics = []
    for _ in range(rng.randint(1, 3)):
        cubic = [rng.choice((-3, -2, -1, 1, 2, 3))]
        for p, q in planted:
            cubic = _hpoly_int_mul(cubic, [-p, q])
        while len(cubic) < 4:
            lin = [rng.randint(-6, 6), rng.randint(-6, 6)]
            if any(lin):
                cubic = _hpoly_int_mul(cubic, lin)
        cubics.append(cubic)
    return planted, cubics


def test_projective_roots_match_fraction_reference_on_planted_cubics():
    rng = random.Random(3902)
    for n in range(600):
        planted, polys = _planted_cubics(rng, n)
        roots = _rational_projective_roots(polys)
        assert roots == projective_roots_by_fractions(polys)
        assert set(planted) <= set(roots)
        assert ((1, 0) in roots) == all(p[-1] == 0 for p in polys)
        assert all(type(x) is int for r in roots for x in r)


def test_family_stage_builds_no_fraction_beyond_its_sorted_roots(monkeypatch):
    """The cubic constraints, the root candidates and their tests stay in
    ints: a sweep-a4 pass, whose constraints have no root, builds no
    Fraction, and a sweep-klein4 pass builds one per finite root at most,
    to sort them."""
    import cmsweep.torus as torus
    built, found = [], []
    find = torus._rational_projective_roots

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    def recording(polys):
        found.append(find(polys))
        return found[-1]

    monkeypatch.setattr(torus, "Fraction", CountingFraction)
    monkeypatch.setattr(torus, "_rational_projective_roots", recording)
    assert {cv["verdict"] for cv in sweep_a4()} == {REJECTED_RANK}
    assert len(found) == 16 and found == [[]] * 16 and built == []
    found.clear()
    sweep_klein4()
    finite = sum(x2 != 0 for roots in found for _, x2 in roots)
    assert len(found) == 6 and 0 < len(built) <= finite


def _mixed(rng, rows):
    """rows mixed by an int matrix of determinant +-2 .. +-4: a scaled
    first row, then unimodular row additions."""
    r = len(rows)
    mix = [[int(i == j) for j in range(r)] for i in range(r)]
    mix[0][0] = rng.choice((-4, -3, -2, 2, 3, 4))
    for _ in range(3 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i != j:
            c = rng.randint(-2, 2)
            mix[i] = [a + c * b for a, b in zip(mix[i], mix[j])]
    return [[sum(m * x for m, x in zip(mrow, col)) for col in zip(*rows)]
            for mrow in mix]


def _seeded_lattices(rng, count):
    """The n-th has rank n % 5 and rows with entries in -2..2; for even n
    it is their saturation, for odd n their mix by _mixed, which is not
    saturated (checked on every fifth of them)."""
    out = []
    for n in range(count):
        r = n % 5
        rows = []
        while rational_rank(rows) < r:
            rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(r)]
        if not r:
            out.append(IntLattice(4, []))
        elif n % 2 == 0:
            out.append(rational_span_intersect(rows, 4))
        else:
            out.append(IntLattice(4, _mixed(rng, rows)))
            assert n % 10 != 1 or saturate(out[-1]) != out[-1]
    return out


def _planted_pair_lattices(rng):
    """Rank-2 lattices holding a candidate, as a basis row beside a random
    row or twice one, and lattices whose span meets span(e_i, e_j) in
    a*e_i + b*e_j with (a, b) not a +-1 pair, so the complementary minor
    is 0 but no candidate of (i, j) is a member."""
    with_candidate, minor_only = [], []
    for cand in divisor_candidates():
        for scale in (1, 2):
            v = [scale * rng.randint(-3, 3) for _ in range(4)]
            lat = IntLattice(4, [cand, v])
            if lat.rank == 2:
                with_candidate.append((cand, lat))
    for (i, j), (k, l) in zip(combinations(range(4), 2),
                              reversed(list(combinations(range(4), 2)))):
        for a, b in ((2, 2), (1, 2), (-2, 1), (3, -1), (2, 0), (0, -3)):
            f = [0] * 4
            f[i], f[j] = a, b
            v = [rng.randint(-3, 3) for _ in range(4)]
            v[k] = v[k] or 1
            minor_only.append(((i, j, k, l), IntLattice(4, [f, v])))
    return with_candidate, minor_only


def _scan_calls(lat):
    """The contains calls of a scan that tries the candidates of only the
    pairs (i, j) whose span(e_i, e_j) meets the lattice's Q-span, up to
    the first member.  A span of rank 3 or 4 meets every such plane, and
    at rank 0 every pair is tried."""
    calls = 0
    for i, j in combinations(range(4), 2):
        e_ij = [[int(c == t) for c in range(4)] for t in (i, j)]
        if lat.rank in (1, 2) and \
                rational_rank(list(lat.basis) + e_ij) == lat.rank + 2:
            continue
        for cand in divisor_candidates():
            if cand[i] and cand[j]:
                calls += 1
                if lat.contains(cand):
                    return calls
    return calls


def _assert_filtered_full_scan(monkeypatch, lattices):
    """divisor_test gives the full scan's flag and witness on each lattice,
    with exactly the contains calls of _scan_calls; returns the flags."""
    calls, flags = [], []
    contains = IntLattice.contains
    monkeypatch.setattr(IntLattice, "contains",
                        lambda lat, v: calls.append(v) or contains(lat, v))
    for lat in lattices:
        calls.clear()
        got = divisor_test(lat)
        made = len(calls)
        assert got == divisor_test_by_candidates(lat), lat
        assert made == _scan_calls(lat), lat
        flags.append(got[0])
    monkeypatch.undo()
    return flags


def test_divisor_test_matches_the_full_scan_on_seeded_lattices(monkeypatch):
    rng = random.Random(3903)
    lattices = _seeded_lattices(rng, 2000)
    with_candidate, minor_only = _planted_pair_lattices(rng)
    assert len(with_candidate) >= 40 and len(minor_only) == 36
    for cand, lat in with_candidate:
        assert lat.contains(cand)
    for (i, j, k, l), lat in minor_only:
        (r, s) = lat.basis
        assert r[k] * s[l] == r[l] * s[k]
        assert not any(lat.contains(c) for c in divisor_candidates()
                       if c[i] and c[j])
    lattices += [lat for _, lat in with_candidate + minor_only]
    assert {r: sum(lat.rank == r for lat in lattices) for r in range(5)} \
        == {0: 400, 1: 400, 2: 400 + len(with_candidate) + 36, 3: 400,
            4: 400}
    flags = _assert_filtered_full_scan(monkeypatch, lattices)
    assert 500 < sum(flags) < len(flags) - 500


def test_divisor_test_matches_the_full_scan_on_sweep_lattices(monkeypatch):
    import cmsweep.torus as torus
    seen = []
    test = torus.divisor_test

    def recording(lat):
        seen.append(lat)
        return test(lat)

    monkeypatch.setattr(torus, "divisor_test", recording)
    for sweep in (sweep_dim1, sweep_order4, sweep_klein4, sweep_a4):
        sweep()
    monkeypatch.undo()
    assert len(seen) == 64 and {lat.rank for lat in seen} == {1, 2}
    assert set(_assert_filtered_full_scan(monkeypatch, seen)) == \
        {True, False}


# -- the eigenvalue trial scan --------------------------------------------

def _eigen_by_identity_scale(m):
    """The trial loop that subtracts a full scaled identity matrix."""
    ident = identity_matrix(m.field, m.rows)
    found = []
    total = 0
    for lam in _eigenvalue_candidates(m.field):
        ker = (m - ident.scale(lam)).kernel()
        if ker:
            found.append((lam, ker))
            total += len(ker)
            if total == m.rows:
                break
    return found


@pytest.mark.parametrize("case_id, lift, gens", [
    *[(cid, m, ORDER4_FIELD) for cid, m in _order4_lifts()],
    *[(cid, m, (-1,)) for cid, m in _one_flip_lifts()],
])
def test_eigen_trials_stop_at_the_last_eigenvalue(monkeypatch, case_id, lift,
                                                  gens):
    field = field_create(gens)
    m = ExactMatrix.from_rows(field, lift.nonzero, 4)
    kernels = []
    kernel = ExactMatrix.kernel

    def counting(self):
        kernels.append(self)
        return kernel(self)

    monkeypatch.setattr(ExactMatrix, "kernel", counting)
    found = eigen_decompose(m)
    candidates = _eigenvalue_candidates(field)
    assert len(kernels) == max(candidates.index(lam) for lam, _ in found) + 1
    monkeypatch.undo()
    assert found == _eigen_by_identity_scale(m)


# a lattice the divisor test rejects, with its witness, and one it keeps
_REJECTED = IntLattice(4, [[1, 1, 0, 0], [0, 0, 1, 3]])
_KEPT = IntLattice(4, [[1, 2, 0, 0], [0, 0, 1, 2]])


@pytest.mark.parametrize("labels, survivor_keys", [
    ({"eigenvalues": ["-1", "1"]}, {"witness_lattice"}),
    ({"point": [1, 2]}, {"witness_point", "witness_lattice"}),
    ({}, {"witness_lattice"}),
])
def test_divisor_verdict_certificate_shapes(labels, survivor_keys):
    rejected = [list(r) for r in _REJECTED.basis]
    kept = [list(r) for r in _KEPT.basis]
    assert divisor_test(_REJECTED) == (True, (1, 1, 0, 0))
    assert not divisor_test(_KEPT)[0]

    cv = divisor_verdict("c", [(_REJECTED, labels), (_KEPT, labels)], "t")
    assert cv["case_id"] == "c" and cv["table"] == "t"
    assert cv["verdict"] == SURVIVES_D4
    assert set(cv["certificate"]) == survivor_keys
    assert cv["certificate"]["witness_lattice"] == kept
    if "point" in labels:
        assert cv["certificate"]["witness_point"] == labels["point"]

    cv = divisor_verdict("c", [(_REJECTED, labels)] * 2, "t")
    assert cv["verdict"] == REJECTED_DIVISOR_TEST
    assert cv["certificate"] == {"candidates": [
        {**labels, "lattice": rejected, "witness": [1, 1, 0, 0]}] * 2}


def test_klein4_and_a4_analyse_each_pair_once(monkeypatch):
    import cmsweep.torus as torus
    pairs, planes = [], []
    analyse, walk = torus.pair_analysis, torus._eigenvectors

    def counting_pairs(m1, m2):
        pairs.append((m1, m2))
        return analyse(m1, m2)

    def counting_walks(m, zeta, one=1):
        if type(one) is int and len(m.perm) == 4:  # eigenplanes of a lift
            planes.append((m, zeta))
        return walk(m, zeta, one)

    monkeypatch.setattr(torus, "pair_analysis", counting_pairs)
    monkeypatch.setattr(torus, "_eigenvectors", counting_walks)
    sweep_klein4()
    sweep_a4()
    # P1-P4 once in the klein4 sweep, P2 and P3 once more in the a4 sweep
    assert [m2 for m1, m2 in pairs if m1 == P0] == [P1, P2, P3, P4, P2, P3]
    assert len(planes) == 22 and {zeta for _, zeta in planes} == {1, -1}


# -- bad input and a wrong case table raise ValueError, not AssertionError --

def test_divisor_test_needs_a_lattice_in_z4():
    with pytest.raises(ValueError, match="Z\\^4, got Z\\^3"):
        divisor_test(IntLattice(3, [[1, 1, 0]]))


@pytest.mark.parametrize("polys", [[], [[0, 0, 0, 0], [1, 0, 0, 1]]])
def test_projective_roots_need_a_nonzero_first_polynomial(polys):
    with pytest.raises(ValueError, match="not zero"):
        _rational_projective_roots(polys)


@pytest.mark.parametrize("sweep, case_id", [
    (sweep_klein4, "klein4-p0-p2-q1"), (sweep_a4, "a4-p0-q")])
def test_a_pair_without_a_family_is_named(monkeypatch, sweep, case_id):
    import cmsweep.torus as torus
    monkeypatch.setattr(torus, "pair_analysis",
                        lambda m1, m2: ("none", {"reason": "-"}))
    with pytest.raises(ValueError, match=f"^{case_id}: the pair gives "
                                         "'none', not a family"):
        sweep()


def test_a_family_without_a_witness_point_is_named(monkeypatch):
    import cmsweep.torus as torus
    monkeypatch.setattr(torus, "divisor_test", lambda lat: (True, None))
    fam = torus._family("c", pair_analysis(P0, P2))
    with pytest.raises(ValueError, match="^c: no small parameter point"):
        torus.constrained_family_verdict("c", fam, [], "t")


def test_survivor_hunt_demo_runs():
    """The demo drives every sweep and prints the two klein4 survivors,
    each with a witness lattice that the divisor test does not reject."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, str(root / "demos" / "survivor_hunt.py")],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    survivors, case = {}, None
    for line in run.stdout.split("Survivors in detail:")[1].splitlines():
        if line.startswith("  ") and not line.startswith("    "):
            case = line.split(":")[0].strip()
        elif "divisor test rejects" in line:
            survivors[case] = line.split(":")[1].strip()
    assert survivors == {"klein4-p0-p2": "False", "klein4-p0-p3": "False"}
