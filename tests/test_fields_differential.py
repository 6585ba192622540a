"""Differential tests: the integer-numerator field elements and the
fraction-free QQ elimination of cmsweep.fields against the dict-of-Fraction
oracle in fields_oracle.py, over random towers of degree 1 to 8."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import fields_oracle as oracle
from cmsweep.fields import (QQ, DependentGenerators, ExactMatrix,
                            FieldElement, apply_galois, field_create)

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


def same(new, old):
    assert new.coords == old.coords
    assert repr(new) == repr(old)
    assert hash(new) == hash(old)
    assert new.is_zero() == old.is_zero()
    assert new.is_rational() == old.is_rational()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_element_operations_match_oracle(data):
    field = data.draw(towers())
    ca = data.draw(coord_dicts(field))
    cb = dict(ca) if data.draw(st.booleans()) else \
        data.draw(coord_dicts(field))
    a, b = FieldElement(field, ca), FieldElement(field, cb)
    oa, ob = oracle.OracleElement(field, ca), oracle.OracleElement(field, cb)
    same(a, oa)
    same(a + b, oa + ob)
    same(a - b, oa - ob)
    same(a * b, oa * ob)
    same(-a, -oa)
    assert (a == b) == (oa == ob)
    q = data.draw(st.one_of(fracs, st.integers(-9, 9)))
    same(a + q, oa + q)
    same(q + a, q + oa)
    same(a - q, oa - q)
    same(q - a, q - oa)
    same(a * q, oa * q)
    same(q * a, q * oa)
    assert (a == q) == (oa == q)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    else:
        same(b.inverse(), ob.inverse())
        same(a / b, oa / ob)
        same(q / b, q / ob)
    same(a.conj(), oa.conj())
    g = data.draw(st.sampled_from(field.galois_group()))
    same(apply_galois(g, a), oracle.apply_galois(g.signs, oa))
    if a.is_rational():
        assert a.as_fraction() == oa.as_fraction()


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


def _oracle_rows(field, rows):
    return [[oracle.OracleElement(field, e.coords) for e in row]
            for row in rows]


def _same_rref(m: ExactMatrix, red, pivots):
    want, want_pivots = oracle.rref(_oracle_rows(m.field, m.entries))
    assert pivots == want_pivots
    assert [[e.coords for e in row] for row in red.entries] == \
        [[e.coords for e in row] for row in want]


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_matrix_product_and_rref_match_oracle(data):
    field = data.draw(towers())
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    entry = coord_dicts(field).map(lambda c: FieldElement(field, c))
    a = ExactMatrix(field, [[data.draw(entry) for _ in range(inner)]
                            for _ in range(rows)])
    b = ExactMatrix(field, [[data.draw(entry) for _ in range(cols)]
                            for _ in range(inner)])
    oa, ob = _oracle_rows(field, a.entries), _oracle_rows(field, b.entries)
    zero = oracle.OracleElement(field, {})
    prod = a * b
    for i in range(rows):
        for j in range(cols):
            want = sum((oa[i][t] * ob[t][j] for t in range(inner)), zero)
            same(prod.entries[i][j], want)
    vec, ovec = [row[0] for row in b.entries], [row[0] for row in ob]
    for got, row in zip(a * vec, oa):
        same(got, sum((x * y for x, y in zip(row, ovec)), zero))
    _same_rref(a, *a.rref())
    _same_rref(prod, *prod.rref())


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
    _same_rref(qq, red, pivots)
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
def test_inverse_matches_oracle(data):
    field = data.draw(towers())
    n = data.draw(st.integers(1, 4))
    m = ExactMatrix(field, data.draw(square_matrices(field, n)))
    ident = ExactMatrix.identity(field, n)
    aug = [row + irow for row, irow in zip(m.entries, ident.entries)]
    want, pivots = oracle.rref(_oracle_rows(field, aug))
    if pivots != list(range(n)):
        with pytest.raises(ZeroDivisionError):
            m.inverse()
        return
    inv = m.inverse()
    assert m * inv == ident
    assert [[e.coords for e in row] for row in inv.entries] == \
        [[e.coords for e in row[n:]] for row in want]


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
