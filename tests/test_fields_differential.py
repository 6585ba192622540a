"""Differential tests of the exact core: the fraction-free QQ elimination
against sympy's rref and against the generic elimination over a bigger
field, the canonical element form, and singular inverses over random
towers of degree 1 to 8."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from cmsweep.fields import (QQ, DependentGenerators, ExactMatrix,
                            FieldElement, field_create)

SQUAREFREE = [d for d in range(-30, 31)
              if d not in (0, 1) and all(d % (p * p) for p in range(2, 6))]

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def towers(draw):
    """QQ or Q(sqrt(d_1), ..., sqrt(d_k)) for k = 1..3, independent d_i."""
    k = draw(st.integers(0, 3))
    if k == 0:
        return QQ
    gens = draw(st.lists(st.sampled_from(SQUAREFREE), min_size=k,
                         max_size=k, unique=True))
    try:
        return field_create(gens)
    except DependentGenerators:
        assume(False)


def coord_dicts(field):
    return st.dictionaries(st.sampled_from(field.subsets), fracs,
                           max_size=field.degree)


def test_canonical_form():
    f = field_create([-1, 2])
    e = FieldElement(f, {frozenset(): Fraction(2, 4),
                         frozenset([1]): Fraction(-3, 6)})
    assert (e.nums, e.den) == ([1, 0, -1, 0], 2)
    z = e - e
    assert (z.nums, z.den) == ([0, 0, 0, 0], 1) and z == 0
    assert FieldElement.from_nums(f, [2, 0, 4, 0], -6) == \
        FieldElement(f, {frozenset(): Fraction(-1, 3),
                         frozenset([1]): Fraction(-2, 3)})
    with pytest.raises(AttributeError):
        e.coords = {}
    e.coords[frozenset()] = 1  # a fresh dict each time: e is unchanged
    assert e.coords == {frozenset(): Fraction(1, 2),
                        frozenset([1]): Fraction(-1, 2)}


def _same_rref(m, red, pivots):
    """The rref of the rational matrix m agrees with sympy's."""
    want, want_pivots = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row]
         for row in m]).rref()
    assert tuple(pivots) == want_pivots
    assert [[e.as_fraction() for e in row] for row in red.entries] == \
        [[Fraction(int(x.p), int(x.q)) for x in want.row(i)]
         for i in range(want.rows)]


@st.composite
def rational_matrices(draw):
    """Rational matrices of every shape up to 7x7: full random, rank
    deficient (a product through a narrower inner dimension), with zero
    rows spliced in, or all zero."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("random", "low-rank", "zero")))
    if kind == "zero":
        return [[Fraction(0)] * cols for _ in range(rows)]
    if kind == "random":
        m = [[draw(fracs) for _ in range(cols)] for _ in range(rows)]
    else:
        r = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        left = [[draw(fracs) for _ in range(r)] for _ in range(rows)]
        right = [[draw(fracs) for _ in range(cols)] for _ in range(r)]
        m = [[sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0))
              for j in range(cols)] for i in range(rows)]
    for i in range(rows):
        if draw(st.integers(0, 4)) == 0:
            m[i] = [Fraction(0)] * cols
    return m


F2 = field_create([2])


def _check_qq_rref(m):
    qq = ExactMatrix(QQ, [[QQ.rational(x) for x in row] for row in m])
    red, pivots = qq.rref()
    _same_rref(m, red, pivots)
    # the generic elimination over a bigger field gives the same form
    big = ExactMatrix(F2, [[F2.rational(x) for x in row] for row in m])
    big_red, big_pivots = big.rref()
    assert big_pivots == pivots
    assert [[e.coords for e in row] for row in big_red.entries] == \
        [[e.coords for e in row] for row in red.entries]
    assert qq.rank() == len(pivots)
    for v in qq.kernel():
        assert all(e.is_zero() for e in qq * v)


@given(rational_matrices())
@settings(max_examples=120, deadline=None)
def test_qq_rref_matches_generic(m):
    _check_qq_rref(m)


@pytest.mark.parametrize("m", [
    [[0, 0, 0], [0, 0, 0]],                       # zero matrix
    [[0]],
    [[3]],
    [[0, 2, 4, 6, 8, 10, 12, 14]],                # one wide row
    [[1], [2], [Fraction(1, 3)], [0], [5]],        # one tall column
    [[1, 2], [2, 4], [3, 6], [0, 0], [-1, -2]],    # tall, rank 1
    [[0, 0, 1, 2], [0, 0, 2, 5], [1, 1, 0, 0]],   # pivot rows out of order
    [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]],
])
def test_qq_rref_edge_shapes(m):
    _check_qq_rref([[Fraction(x) for x in row] for row in m])


def square_matrices(field, n):
    entry = coord_dicts(field).map(lambda c: FieldElement(field, c))
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_matrix_times_inverse_is_identity(data):
    field = data.draw(towers())
    n = data.draw(st.integers(1, 4))
    m = ExactMatrix(field, data.draw(square_matrices(field, n)))
    try:
        inv = m.inverse()
    except ZeroDivisionError:
        assert m.rank() < n
        return
    assert m * inv == ExactMatrix.identity(field, n)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_singular_inverse_raises(data):
    field = data.draw(towers())
    n = data.draw(st.integers(1, 4))
    rows = data.draw(square_matrices(field, n))[:n - 1]
    # the last row is a field combination of the others (zero when n = 1)
    coeffs = [FieldElement(field, data.draw(coord_dicts(field)))
              for _ in rows]
    last = [sum((c * row[j] for c, row in zip(coeffs, rows)), field.zero())
            for j in range(n)]
    at = data.draw(st.integers(0, n - 1))
    m = ExactMatrix(field, rows[:at] + [last] + rows[at:])
    with pytest.raises(ZeroDivisionError):
        m.inverse()
