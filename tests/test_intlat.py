"""Integer lattice normal forms: fixed examples, sympy Smith-form oracle,
Smith-form shapes and divisibility steps in ints, the 1000-case
randomized idempotence/saturation suite, saturation and its
already-saturated shortcut against the inverse of the Smith column
transform, membership against an HNF reference, and the input checks."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form

from cmsweep import intlat
from cmsweep.cli import SECTIONS
from cmsweep.fields import QQ, ExactMatrix
from cmsweep.intlat import (IntLattice, rational_span_intersect, saturate,
                            snf)
from helpers import saturation_index

ROOT = Path(__file__).resolve().parents[1]


def _saturate_by_inverse(l):
    """Reference saturation: the first r rows of V^-1 for U*B*V = S,
    with V inverted over QQ."""
    if l.rank == 0:
        return l
    factors, _, v = snf([list(r) for r in l.basis])
    vinv = ExactMatrix(QQ, v).inverse().entries
    # V is unimodular
    assert all(e.as_fraction().denominator == 1 for row in vinv for e in row)
    return IntLattice(l.ambient_rank, [[int(e.as_fraction()) for e in row]
                                       for row in vinv[:len(factors)]])


def test_hnf_examples():
    l = IntLattice(3, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert all(row[next(j for j, a in enumerate(row) if a)] > 0
               for row in l.basis)
    assert IntLattice(l.ambient_rank, l.basis) == l
    assert IntLattice(2, [[0, 0], [0, 0]]).rank == 0


def test_membership():
    l = IntLattice(3, [[1, 2, 0], [0, 4, 1]])
    assert l.contains([1, 6, 1])
    assert not l.contains([0, 1, 0])
    assert not l.contains([0, 2, 1])


def test_snf_against_sympy():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        factors, u, v = snf(mat)
        um = sympy.Matrix(u)
        vm = sympy.Matrix(v)
        mm = sympy.Matrix(mat)
        prod = um * mm * vm
        for i in range(rows):
            for j in range(cols):
                want = factors[i] if i == j and i < len(factors) else 0
                assert prod[i, j] == want
        assert abs(um.det()) == 1 and abs(vm.det()) == 1
        sy = smith_normal_form(mm)
        assert factors == [abs(sy[i, i]) for i in range(min(rows, cols))
                           if sy[i, i] != 0]
        assert all(f > 0 for f in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def _int_det(m):
    """Leibniz expansion in ints; the matrices here are at most 3 x 3."""
    return sum((-1) ** sum(a > b for a, b in combinations(p, 2))
               * prod(row[k] for row, k in zip(m, p))
               for p in permutations(range(len(m))))


@pytest.mark.parametrize("mat, factors", [
    ([], []),  # 0 x 0
    ([[], []], []),  # 2 x 0
    ([[0, 0, 0], [0, 0, 0]], []),
    # the divisibility step: d_i does not divide d_j
    ([[2, 0], [0, 3]], [1, 6]),
    ([[2, 0], [0, 1]], [1, 2]),
    ([[4, 0], [0, 6]], [2, 12]),
    # a row added in place of the column would be undone by the row HNF
    ([[0, -2], [2, 6], [-2, 1]], [1, 2]),
])
def test_snf_shapes_and_divisibility_step(mat, factors):
    """Shapes and chains the random sympy cases do not reach: U * mat * V
    is diag(factors) padded with zeros, and U, V have determinant +-1."""
    got, u, v = snf(mat)
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    assert got == factors
    assert len(u) == nrows and len(v) == ncols
    assert [[sum(u[i][k] * mat[k][l] * v[l][j] for k in range(nrows)
                 for l in range(ncols)) for j in range(ncols)]
            for i in range(nrows)] == \
        [[factors[i] if i == j and i < len(factors) else 0
          for j in range(ncols)] for i in range(nrows)]
    assert abs(_int_det(u)) == 1 and abs(_int_det(v)) == 1


def test_saturation_example():
    l = IntLattice(3, [[2, 0, 2], [0, 4, 4]])
    sat = saturate(l)
    assert sat.basis == ((1, 0, 1), (0, 1, 1))
    assert saturation_index(l) == 8
    assert not l.contains([1, 0, 1]) and l.contains([2, 0, 2])
    assert saturation_index(sat) == 1


def test_rational_span_intersect():
    l = rational_span_intersect([[Fraction(1, 2), Fraction(1, 2)]], 2)
    assert l.basis == ((1, 1),)


def test_randomized_idempotence_1000():
    """HNF idempotence, span invariance under unimodular row mixes, and
    saturation idempotence, 1000 seeded cases."""
    rng = random.Random(20240817)
    for case in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        l = IntLattice(cols, mat)
        # idempotence
        assert IntLattice(cols, l.basis) == l
        # span invariance: add a random multiple of one row to another
        if rows >= 2:
            i, j = rng.sample(range(rows), 2)
            mixed = [r[:] for r in mat]
            c = rng.randint(-3, 3)
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mat[j])]
            assert IntLattice(cols, mixed) == l
        # saturation is idempotent and full-rank-preserving
        sat = saturate(l)
        assert saturate(sat) == sat
        assert sat.rank == l.rank
        assert saturation_index(sat) == 1
        idx = saturation_index(l)
        assert idx >= 1
        # every lattice vector scaled into the saturation and back
        for row in l.basis:
            assert sat.contains(row)


def test_saturate_matches_inverse_reference_1000():
    rng = random.Random(20261018)
    for _ in range(1000):
        cols = rng.randint(1, 5)
        rows = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        l = IntLattice(cols, mat)
        assert saturate(l) == _saturate_by_inverse(l)


def test_saturate_matches_inverse_reference_on_sweeps(monkeypatch):
    """Every lattice the four torus sweeps saturate (sweep-dim1 and
    sweep-a4 saturate none: dim1 builds its lattices directly and each a4
    case is rejected by rank before a lattice is formed).  Both routes are
    taken: the saturated lattice handed back as it is, and the Smith
    route."""
    received = []
    sat = intlat.saturate

    def recording(l):
        received.append(l)
        return sat(l)

    monkeypatch.setattr(intlat, "saturate", recording)
    for sweep in ("sweep-dim1", "sweep-order4", "sweep-klein4", "sweep-a4"):
        SECTIONS[sweep](None)
    monkeypatch.undo()
    assert len(received) >= 50
    assert {saturate(l) is l for l in received} == {True, False}
    for l in received:
        assert saturate(l) == _saturate_by_inverse(l)


# rank 1-3 lattices in Z^4: a basis of independent rows, then a row mix by
# a nonsingular integer matrix whose determinant is the index it adds
_rows4 = st.lists(st.integers(-6, 6), min_size=4, max_size=4)


@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.lists(_rows4, min_size=r, max_size=r),
    st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
             min_size=r, max_size=r))))
@settings(max_examples=300, deadline=None)
def test_saturation_shortcut_matches_the_smith_route(case):
    """saturate hands back an already-saturated lattice as it is; every
    result equals the inverse reference, and the Smith route on 2L, whose
    pivots are all even, gives the same saturation."""
    rows, mix = case
    r = len(rows)
    assume(sympy.Matrix(rows).rank() == r and sympy.Matrix(mix).det() != 0)
    l = IntLattice(4, [[sum(m * x for m, x in zip(mrow, col))
                        for col in zip(*rows)] for mrow in mix])
    assert l.rank == r
    sat = saturate(l)
    assert sat == _saturate_by_inverse(l)
    assert saturation_index(sat) == 1
    if sat is l:
        assert saturation_index(l) == 1
    doubled = IntLattice(4, [[2 * x for x in row] for row in l.basis])
    assert saturate(doubled) is not doubled
    assert saturate(doubled) == sat


def test_saturation_shortcut_needs_unit_pivots():
    """Unit pivots make a minor 1, so the lattice is saturated; index 1
    with a pivot 2, and index above 1, take the Smith route."""
    l = IntLattice(4, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert saturate(l) is l
    for rows, index in (([[1, 1, 1, 1], [0, 2, 2, 0]], 2),
                        ([[2, 1, 0, 0]], 1), ([[3, 0, 0, 3]], 3)):
        l = IntLattice(4, rows)
        assert saturation_index(l) == index
        assert saturate(l) is not l
        assert saturate(l) == _saturate_by_inverse(l)


@given(st.lists(_rows4, min_size=0, max_size=3),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3), _rows4)
@settings(max_examples=300, deadline=None)
def test_contains_matches_the_hnf_reference(rows, coeffs, vec):
    """v lies in L iff adding v to the rows leaves the HNF unchanged; the
    vectors are an integer combination of the rows, that combination
    moved by one unit vector, and a random vector."""
    l = IntLattice(4, rows)
    combo = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)] \
        if rows else [0, 0, 0, 0]
    moved = combo[:1] + [combo[1] + 1] + combo[2:]
    assert l.contains(combo)
    for v in (combo, moved, vec):
        assert l.contains(v) == (IntLattice(4, list(l.basis) + [v]) == l)


def test_contains_refuses_non_integral_vectors():
    """A rational vector off the lattice stays off it: entries are divided
    as they are, not truncated to ints first."""
    assert not IntLattice(2, [[1, 0]]).contains([Fraction(1, 2), 0])
    assert not IntLattice(2, [[2, 0]]).contains([Fraction(5, 2), 0])
    assert IntLattice(2, [[2, 0]]).contains([Fraction(4, 2), 0])


def test_lattice_refuses_non_integral_rows():
    """A row with a non-integral entry is refused, not truncated to ints,
    and the message names the row; an integral Fraction counts as its
    int."""
    with pytest.raises(ValueError, match=r"row \[Fraction\(1, 2\), 1\]"):
        IntLattice(2, [[Fraction(1, 2), 1]])
    with pytest.raises(ValueError, match="not integral"):
        IntLattice(3, [[1, 0, 0], [0, 1, Fraction(-7, 3)]])
    assert IntLattice(2, [[Fraction(4, 2), 1]]) == IntLattice(2, [[2, 1]])
    assert IntLattice(2, [[Fraction(4, 2), 1]]).basis == ((2, 1),)


def test_length_checks_survive_optimize_flag():
    """A row or a vector of the wrong length is refused with ValueError,
    also under python -O."""
    code = ("from cmsweep.intlat import IntLattice\n"
            "for make in (lambda: IntLattice(3, [[1, 2, 0], [1, 2]]),\n"
            "             lambda: IntLattice(3, [[1, 2, 0]]).contains([1, 2])):\n"
            "    try:\n"
            "        print('accepted:', make())\n"
            "    except ValueError as exc:\n"
            "        print('refused:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "refused: row [1, 2] does not have length 3",
        "refused: vector [1, 2] does not have length 3",
    ]
    with pytest.raises(ValueError, match="does not have length 4"):
        IntLattice(4, [[0, 0, 0]])
