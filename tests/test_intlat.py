"""Integer lattice normal forms: fixed examples, sympy Smith-form oracle,
the 1000-case randomized idempotence/saturation suite, and saturation
against the inverse of the Smith column transform."""

import random

import sympy
from sympy.matrices.normalforms import smith_normal_form

from cmsweep import intlat
from cmsweep.cli import SECTIONS
from cmsweep.fields import QQ, ExactMatrix
from cmsweep.intlat import (IntLattice, hnf, rational_span_intersect,
                            saturate, snf)
from helpers import saturation_index


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
    l = hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert all(row[next(j for j, a in enumerate(row) if a)] > 0
               for row in l.basis)
    assert hnf(l.basis, l.ambient_rank) == l
    assert hnf([[0, 0], [0, 0]]).rank == 0


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
        sy_factors = sorted(abs(sy[i, i]) for i in range(min(rows, cols))
                            if sy[i, i] != 0)
        assert sorted(map(abs, factors)) == sy_factors


def test_saturation_example():
    l = IntLattice(3, [[2, 0, 2], [0, 4, 4]])
    sat = saturate(l)
    assert sat.basis == ((1, 0, 1), (0, 1, 1))
    assert saturation_index(l) == 8
    assert not l.contains([1, 0, 1]) and l.contains([2, 0, 2])
    assert saturation_index(sat) == 1


def test_rational_span_intersect():
    from fractions import Fraction
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
        l = hnf(mat)
        # idempotence
        assert hnf(l.basis, cols) == l
        # span invariance: add a random multiple of one row to another
        if rows >= 2:
            i, j = rng.sample(range(rows), 2)
            mixed = [r[:] for r in mat]
            c = rng.randint(-3, 3)
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mat[j])]
            assert hnf(mixed) == l
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
        l = hnf(mat, cols)
        assert saturate(l) == _saturate_by_inverse(l)


def test_saturate_matches_inverse_reference_on_sweeps(monkeypatch):
    """Every lattice the four torus sweeps build (sweep-a4 builds none:
    each of its cases is rejected by rank before a lattice is formed)."""
    built = []
    init = intlat.IntLattice.__init__

    def recording(self, ambient_rank, rows):
        init(self, ambient_rank, rows)
        built.append(self)

    monkeypatch.setattr(intlat.IntLattice, "__init__", recording)
    for sweep in ("sweep-dim1", "sweep-order4", "sweep-klein4", "sweep-a4"):
        SECTIONS[sweep](None)
    monkeypatch.undo()
    assert len(built) >= 100
    for l in built:
        assert saturate(l) == _saturate_by_inverse(l)
