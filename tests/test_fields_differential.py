"""Differential tests of the exact core: the fraction-free QQ elimination
against sympy's rref and against the generic elimination over a bigger
field, the sparse rref, rank, kernel, solve, inverse and det against the
dense Gauss-Jordan and determinant references and det against sympy, the
row-sparse product and the other index-only matrix operations
against dense elementwise references and sympy, the sparse rational
elimination against the dense integer elimination and sympy, unit
scalars, the canonical element form and the sparse element arithmetic
against the dense element reference, the sum-of-products kernel against
plain sums of element products, its monomial direct paths (products,
inverses and one sum of monomials in two degree-8 fields) against the
dense element reference, matrix combinations of products against
the dense sum, denominator clearing against its rebuild-every-row form,
the field inclusion against the coordinate route, the commutant rows
against the End(V) module, and singular inverses over random towers
of degree 1 to 8."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from cmsweep import fields
from hypothesis import assume, given, settings, strategies as st

from cmsweep.fields import (QQ, DependentGenerators, ExactMatrix,
                            FieldElement, _axpy, _echelon, apply_galois,
                            cleared_rows, eigen_decompose, field_create,
                            rational_kernel, rational_rank, sum_of_products)
from helpers import (DenseElement, dense_det, dense_product, dense_rows,
                     dense_rref, distinct_rows, ELEMENT_CODES,
                     element_from_code, element_from_nums, identity_matrix,
                     integer_rref, matrix_rank)

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
    assert (e.nums, e.den) == ({0: 1, 2: -1}, 2)
    z = e - e
    assert (z.nums, z.den) == ({}, 1) and z == 0
    assert element_from_nums(f, {0: 2, 1: 0, 2: 4}, -6) == \
        FieldElement(f, {frozenset(): Fraction(-1, 3),
                         frozenset([1]): Fraction(-2, 3)})
    with pytest.raises(AttributeError):
        e.coords = {}
    e.coords[frozenset()] = 1  # a fresh dict each time: e is unchanged
    assert e.coords == {frozenset(): Fraction(1, 2),
                        frozenset([1]): Fraction(-1, 2)}


# -- sparse elements against the dense reference ------------------------------

# the last has sqrt(-2)*sqrt(2) = 2i: a monomial square with a square factor
ELEMENT_FIELDS = [QQ, field_create([-1]), field_create([-1, 2]),
                  field_create([-2, 2, -3])]


@st.composite
def element_triples(draw):
    """A field and three dense numerator lists with denominators, mostly
    zero; the third agrees with the first on some monomials, so sums and
    differences cancel there."""
    field = draw(st.sampled_from(ELEMENT_FIELDS))
    n = field.degree
    coeffs = st.lists(st.one_of(st.just(0), st.integers(-30, 30)),
                      min_size=n, max_size=n)
    dens = st.integers(-12, 12).filter(bool)
    a, da = draw(coeffs), draw(dens)
    b, db = draw(coeffs), draw(dens)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    c = [x if k else 0 for x, k in zip(a, keep)]
    return field, [(a, da), (b, db), (c, da)]


def _agrees(e, ref):
    """e is canonical and stores exactly the nonzero numerators of ref."""
    assert e.den > 0 and 0 not in e.nums.values()
    assert math.gcd(e.den, *e.nums.values()) == 1
    assert e.nums or e.den == 1
    assert (e.nums, e.den) == ref.sparse()


@given(element_triples())
@settings(max_examples=300, deadline=None)
def test_sparse_elements_match_dense_reference(case):
    field, raw = case
    refs = [DenseElement(field, nums, den) for nums, den in raw]
    els = [element_from_nums(field, dict(enumerate(nums)), den)
           for nums, den in raw]
    for e, ref in zip(els, refs):
        _agrees(e, ref)
        coords = ref.coords()
        _agrees(FieldElement(field, {s: coords.get(s, 0)
                                     for s in field.subsets}), ref)
    for (x, rx), (y, ry) in combinations(zip(els, refs), 2):
        for p, q, rp, rq in ((x, y, rx, ry), (y, x, ry, rx), (x, x, rx, rx)):
            _agrees(p + q, rp + rq)
            _agrees(p - q, rp - rq)
            _agrees(p * q, rp * rq)
            _agrees(_axpy(field, p, q, p), rp - rq * rp)
            _agrees(sum_of_products(field, [(0, p, q, field.one()),
                                            (0, q, p, field.one())]).get(
                0, field.zero()), rp * rq + rq * rp)
            assert (p == q) == (rp == rq)
            assert p != q or hash(p) == hash(q)
            # equal elements built in another order hash alike
            r = element_from_nums(field, dict(reversed(p.nums.items())),
                                       p.den)
            assert r == p and hash(r) == hash(p)
    for x, rx in zip(els, refs):
        _agrees(-x, -rx)
        if not rx.is_zero():
            _agrees(x.inverse(), rx.inverse())
            assert x * x.inverse() == 1
        for g in field.galois_group():
            _agrees(apply_galois(g, x), rx.galois(g))


INT_CONSTANTS = st.sampled_from((0, 1, -1, 2, -2))


@st.composite
def product_terms(draw):
    """A field and up to 12 (key, x, y, c) terms over it, keys 0..3, each
    element one flat int draw (helpers.element_from_code): sparse
    elements, zero among them, constants that are the field's one, an
    element equal to one but not it, zero, general, or an int in
    {0, +-1, +-2}, and a key "cancel" whose two terms are x * y * c and
    (-x) * y * c for nonzero x, y and c (a zero draw there is taken as
    the field's one)."""
    field = draw(st.sampled_from(ELEMENT_FIELDS))
    codes = st.integers(0, ELEMENT_CODES - 1)

    def element(nonzero=False):
        e = element_from_code(field, draw(codes))
        return e if e.nums or not nonzero else field.one()

    constants = (field.one, lambda: field.rational(1), field.zero, element,
                 lambda: draw(INT_CONSTANTS))
    terms = [(draw(st.integers(0, 3)), element(), element(),
              constants[draw(st.integers(0, 4))]())
             for _ in range(draw(st.integers(0, 12)))]
    x, y, c = (element(True) for _ in range(3))
    cut = draw(st.integers(0, len(terms)))
    return field, terms[:cut] + [("cancel", x, y, c)] + terms[cut:] + \
        [("cancel", -x, y, c)]


@given(product_terms())
@settings(max_examples=300, deadline=None)
def test_sum_of_products_matches_plain_sums(case):
    field, terms = case
    want = {}
    for key, x, y, c in terms:
        want[key] = want.get(key, field.zero()) + x * y * c
    got = sum_of_products(field, iter(terms))
    assert "cancel" not in got
    assert got == {k: e for k, e in want.items() if not e.is_zero()}
    # an int constant c is the same as the element field.rational(c)
    assert got == sum_of_products(field, [
        (k, x, y, field.rational(c) if type(c) is int else c)
        for k, x, y, c in terms])
    for e in got.values():
        assert e.field is field and e.den > 0 and 0 not in e.nums.values()
        assert math.gcd(e.den, *e.nums.values()) == 1


# -- the monomial direct paths ------------------------------------------------

# the anti-Weil fields of the fixture triple and of a triple with large |d|
MONOMIAL_FIELDS = [field_create([-1, -2, -3]), field_create([-7, -17, -29])]


def _monomials(field):
    """(element, dense reference) for every monomial mask of the field with
    numerators ±1 and ±6 over denominators 1, 4 and 15."""
    out = []
    for m in range(field.degree):
        for x in (1, -1, 6, -6):
            for d in (1, 4, 15):
                nums = [0] * field.degree
                nums[m] = x
                out.append((element_from_nums(field, {m: x}, d),
                            DenseElement(field, nums, d)))
    return out


def _dense(field, c):
    """The dense reference of an int or an element."""
    if type(c) is int:
        return DenseElement(field, [c] + [0] * (field.degree - 1))
    nums = [0] * field.degree
    for m, x in c.nums.items():
        nums[m] = x
    return DenseElement(field, nums, c.den)


@pytest.mark.parametrize("field", MONOMIAL_FIELDS, ids=repr)
def test_monomial_direct_paths_match_dense_reference(field):
    squares = [field._table[m][m][1] for m in range(field.degree)]
    # some sqrt(m)^2 are negative: their inverses move the sign
    assert min(squares) < 0 < max(squares)
    mono = _monomials(field)
    for x, rx in mono:
        _agrees(x, rx)
        inv = x.inverse()
        _agrees(inv, rx.inverse())
        assert x * inv == 1 and inv * x == 1
    for x, rx in mono:
        for y, ry in mono:
            _agrees(x * y, rx * ry)
    # one sum over these elements: mixed denominators, int and element
    # constants, a two-numerator term among monomial ones on key 0, a key
    # whose terms cancel and one whose single term needs a gcd
    consts = (1, -2, 3, mono[44][0], mono[61][0], field.one())
    terms = [(t % 5, x, mono[(7 * t + 3) % len(mono)][0],
              consts[t % len(consts)]) for t, (x, _) in enumerate(mono)]
    x, y, c = mono[50][0], mono[83][0], mono[20][0]
    terms += [("cancel", x, y, c), ("cancel", -x, y, c),
              (0, element_from_nums(field, {0: 1, 5: -3}, 4), x, 2)]
    six4 = element_from_nums(field, {1: 6}, 4)
    six15 = element_from_nums(field, {1: 6}, 15)
    terms.append(("reduce", six4, six15, 1))
    want = {}
    for key, x, y, c in terms:
        term = _dense(field, x) * _dense(field, y) * _dense(field, c)
        want[key] = want[key] + term if key in want else term
    got = sum_of_products(field, terms)
    assert "cancel" not in got and want["cancel"].is_zero()
    assert got.keys() == {k for k, e in want.items() if not e.is_zero()}
    for key, e in got.items():
        _agrees(e, want[key])
    # 3/2 * 2/5 * sqrt(d_1)^2: 6 * d_1 over 10, reduced by their gcd 2
    assert (got["reduce"].nums, got["reduce"].den) == \
        ({0: 3 * field.gens[0]}, 5)


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
    assert matrix_rank(qq) == len(pivots)
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
        assert matrix_rank(m) < n
        return
    assert m * inv == identity_matrix(field, n)


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


# -- the row-sparse product ---------------------------------------------------

PRODUCT_FIELDS = {"QQ": QQ, "Q(i)": field_create([-1]),
                  "Q(i, sqrt2)": field_create([-1, 2]),
                  "degree 8": field_create([-1, -2, -3])}

# (rows, inner, cols) of the product shapes
SHAPES = [(5, 4, 3), (6, 6, 64), (1, 7, 5), (6, 5, 1), (1, 1, 1), (8, 8, 8)]


def _random_entry(rng, field, density):
    """Zero, or with the given probability an element with up to
    ``degree`` random rational coordinates (which may still be zero)."""
    if rng.random() >= density:
        return field.zero()
    coords = {rng.choice(field.subsets): Fraction(rng.randint(-20, 20),
                                                  rng.randint(1, 12))
              for _ in range(rng.randint(1, field.degree))}
    return FieldElement(field, coords)


@st.composite
def products(draw):
    """(field, a, b) with a * b defined: dense or random-sparse factors,
    sometimes with a zero row of a or a zero column of b, or an identity
    or permutation matrix on either side.  Entries come from a drawn
    seed, which keeps the 6x64 factors cheap to generate."""
    field = PRODUCT_FIELDS[draw(st.sampled_from(sorted(PRODUCT_FIELDS)))]
    n, k, m = draw(st.sampled_from(SHAPES))
    density = draw(st.sampled_from((1, 0.3, 0.1)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = [[_random_entry(rng, field, density) for _ in range(k)]
         for _ in range(n)]
    b = [[_random_entry(rng, field, density) for _ in range(m)]
         for _ in range(k)]
    if draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = [field.zero()] * k
    if draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for row in b:
            row[j] = field.zero()
    special = draw(st.sampled_from((None, "identity", "permutation")))
    if special is not None:
        perm = draw(st.permutations(range(k))) if special == "permutation" \
            else list(range(k))
        square = [[field.one() if perm[i] == j else field.zero()
                   for j in range(k)] for i in range(k)]
        if draw(st.booleans()):
            a = (square + [[field.zero()] * k] * n)[:n]
        else:
            b = [row[:m] + [field.zero()] * (m - k) for row in square]
    return field, ExactMatrix(field, a), ExactMatrix(field, b)


def _cells(m):
    return [[(e.nums, e.den) for e in row] for row in m.entries]


def _sympy_qq(m):
    return sympy.Matrix([[sympy.Rational(e.as_fraction()) for e in row]
                         for row in m.entries])


@given(products())
@settings(max_examples=150, deadline=None)
def test_sparse_product_matches_dense_and_sympy(case):
    field, a, b = case
    got = a * b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert _cells(got) == _cells(dense_product(a, b))
    if field is QQ:
        want = _sympy_qq(a) * _sympy_qq(b)
        assert [[e.as_fraction() for e in row]
                for row in got.entries] == \
            [[Fraction(int(x.p), int(x.q)) for x in want.row(i)]
             for i in range(want.rows)]


@pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
def test_sparse_product_edge_shapes(name):
    field = PRODUCT_FIELDS[name]
    gens = [field.monomial([i]) for i in range(field.k)] or [field.one()]
    row = [field.rational(t + 1) + gens[t % len(gens)] for t in range(6)]
    col = ExactMatrix(field, [[e] for e in row])
    wide = ExactMatrix(field, [row])
    eye = identity_matrix(field, 6)
    zero = ExactMatrix(field, [[field.zero()] * 6 for _ in range(6)])
    for a, b in [(wide, col), (col, wide), (eye, col), (wide, eye),
                 (zero, col), (wide, zero), (eye, eye)]:
        assert _cells(a * b) == _cells(dense_product(a, b))
    assert eye * col == col and wide * eye == wide
    assert all(e.is_zero() for r in (zero * col).entries for e in r)


@given(products(), st.data())
@settings(max_examples=150, deadline=None)
def test_matrix_and_vector_products_match_dense_reference(case, data):
    """M * N and M * v, the one-column matrix of v read back as a list,
    agree with dense_product; v is a column of N with some entries
    replaced by ints, or all zero, and a v of another length raises."""
    field, a, b = case
    assert _cells(a * b) == _cells(dense_product(a, b))
    j = data.draw(st.integers(0, b.cols - 1))
    vec = [data.draw(st.integers(-3, 3)) if data.draw(st.booleans())
           else row[j] for row in b.entries]
    if data.draw(st.booleans()):
        vec = [0] * len(vec)
    want = dense_product(a, ExactMatrix(field, [[x] for x in vec]))
    assert [(e.nums, e.den) for e in a * vec] == \
        [(row[0].nums, row[0].den) for row in want.entries]
    wrong = vec + [1] if data.draw(st.booleans()) else vec[:-1]
    with pytest.raises(ValueError, match="inner dimensions differ"):
        a * wrong


def test_product_checks_fields():
    """A product of matrices over two fields raises, as their sum does,
    rather than reading sqrt(-1) * sqrt(2) as sqrt(-1)^2 = -1."""
    f, g = field_create([-1]), field_create([2])
    a = ExactMatrix(f, [[f.sqrt_gen(-1)]])
    b = ExactMatrix(g, [[g.sqrt_gen(2)]])
    for op in (lambda: a * b, lambda: b * a, lambda: a * [g.sqrt_gen(2)]):
        with pytest.raises(ValueError, match="field mismatch"):
            op()


# -- linear combinations of products ------------------------------------------

@st.composite
def combinations_of_products(draw):
    """(field, terms) for ExactMatrix.combination: one to four (c, a, b)
    terms of one n x m shape, c in {0, +-1, +-2}, b None for a alone or
    a's n x k partner, with factors random-sparse or zero; sometimes a
    last term that cancels an earlier one."""
    field = PRODUCT_FIELDS[draw(st.sampled_from(sorted(PRODUCT_FIELDS)))]
    n, k, m = draw(st.sampled_from(SHAPES))
    density = draw(st.sampled_from((1, 0.3, 0.1, 0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def matrix(rows, cols):
        return ExactMatrix(field, [[_random_entry(rng, field, density)
                                    for _ in range(cols)]
                                   for _ in range(rows)])

    terms = []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.sampled_from((0, 1, -1, 2, -2)))
        if draw(st.booleans()):
            terms.append((c, matrix(n, m), None))
        else:
            terms.append((c, matrix(n, k), matrix(k, m)))
    if draw(st.booleans()):
        c, a, b = draw(st.sampled_from(terms))
        terms.append((-c, a, b))
    return field, terms


@given(combinations_of_products())
@settings(max_examples=150, deadline=None)
def test_combination_matches_dense_reference(case):
    field, terms = case
    _, a, b = terms[0]
    want = [[field.zero()] * (a.cols if b is None else b.cols)
            for _ in range(a.rows)]
    for c, a, b in terms:
        term = a if b is None else dense_product(a, b)
        want = [[w + field.rational(c) * e for w, e in zip(r1, r2)]
                for r1, r2 in zip(want, term.entries)]
    _same(ExactMatrix.combination(iter(terms)), ExactMatrix(field, want))


def test_combination_checks_fields_and_shapes():
    f = field_create([-1])
    i = f.sqrt_gen(-1)
    a = ExactMatrix(f, [[1, i, 0], [0, 2, i]])          # 2 x 3
    sq = ExactMatrix(f, [[i, 1], [1, 0]])               # 2 x 2
    assert ExactMatrix.combination([(1, sq, a), (-2, a, None)]) == \
        sq * a - a.scale(2)
    assert ExactMatrix.combination([(1, a, None), (-1, a, None)]).nonzero \
        == [{}, {}]
    other = ExactMatrix(QQ, [[1, 0, 0], [0, 1, 0]])
    for terms, message in [
            ([], "at least one term"),
            ([(1, a, None), (1, other, None)], "field mismatch"),
            ([(1, sq, ExactMatrix(QQ, [[1], [0]]))], "field mismatch"),
            ([(1, a, sq)], "inner dimensions differ"),
            ([(1, sq, a), (1, sq, None)], "shapes differ"),
            ([(1, sq, None), (1, a.transpose(), None)], "shapes differ")]:
        with pytest.raises(ValueError, match=message):
            ExactMatrix.combination(terms)
    # sums, differences and scale are combinations: the same checks hold,
    # also where no cell of the two fields meets another
    apart = ExactMatrix(QQ, [[0, 0, 1], [1, 0, 0]])
    for op, message in [
            (lambda: a + apart, "field mismatch"),
            (lambda: apart - a, "field mismatch"),
            (lambda: a.scale(field_create([2]).sqrt_gen(2)), "field mismatch"),
            (lambda: sq + a, "shapes differ"),
            (lambda: a - a.transpose(), "shapes differ")]:
        with pytest.raises(ValueError, match=message):
            op()


# -- the one field elimination against the dense references -------------------

def _shaped(field, rows, ncols):
    """The ExactMatrix with the given rows and ncols columns, 0 x ncols
    included (the transpose of ncols x 0)."""
    if rows:
        return ExactMatrix(field, rows)
    return ExactMatrix(field, [[] for _ in range(ncols)]).transpose()


@st.composite
def eliminations(draw):
    """(field, matrix, rhs) of every shape up to 5x5, 0 x n and n x 0
    included: random-sparse or dense rows with zero, repeated and
    dependent rows spliced in (so square ones are often singular), and a
    right-hand side that is random (often inconsistent), in the column
    span, or zero."""
    field = PRODUCT_FIELDS[draw(st.sampled_from(sorted(PRODUCT_FIELDS)))]
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        ncols = nrows
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from((1, 0.5, 0.2)))
    rows = [[_random_entry(rng, field, density) for _ in range(ncols)]
            for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "repeat",
                                     "dependent")))
        if kind == "zero":
            rows[i] = [field.zero()] * ncols
        elif kind == "repeat":
            rows[i] = rows[draw(st.integers(0, nrows - 1))][:]
        elif kind == "dependent":
            c1, c2 = (_random_entry(rng, field, 1) for _ in range(2))
            r1, r2 = (rows[draw(st.integers(0, nrows - 1))] for _ in range(2))
            rows[i] = [c1 * x + c2 * y for x, y in zip(r1, r2)]
    m = _shaped(field, rows, ncols)
    rhs = draw(st.sampled_from(("random", "image", "zero")))
    if rhs == "random":
        b = [_random_entry(rng, field, density) for _ in range(nrows)]
    elif rhs == "image":
        b = m * [_random_entry(rng, field, 1) for _ in range(ncols)]
    else:
        b = [field.zero()] * nrows
    return field, m, b


def _dense_kernel(m, red, pivots):
    """The kernel basis read off the dense reduced rows, one free
    variable set to 1 in each vector."""
    basis = []
    for fc in range(m.cols):
        if fc not in pivots:
            v = [m.field.zero()] * m.cols
            v[fc] = m.field.one()
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            basis.append(v)
    return basis


def _dense_solve(m, rhs):
    n = m.cols
    red, pivots = dense_rref(ExactMatrix(m.field, [
        row + [b] for row, b in zip(m.entries, rhs)]))
    if n in pivots:
        return None
    x = [m.field.zero()] * n
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][n]
    return x


def _dense_inverse(m):
    """The right half of the dense rref of [M | I], or None if M is
    singular."""
    n = m.rows
    one, zero = m.field.one(), m.field.zero()
    red, pivots = dense_rref(ExactMatrix(m.field, [
        row + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(m.entries)]))
    if pivots != list(range(n)):
        return None
    return ExactMatrix(m.field, [row[n:] for row in red.entries])


@given(eliminations())
@settings(max_examples=200, deadline=None)
def test_sparse_elimination_matches_dense_references(case):
    field, m, rhs = case
    red, pivots = m.rref()
    want_red, want_pivots = dense_rref(m)
    assert pivots == want_pivots
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert _cells(red) == _cells(want_red)
    assert not [e for row in red.nonzero for e in row.values()
                if e.is_zero()]
    assert matrix_rank(m) == len(want_pivots)
    kernel = m.kernel()
    assert kernel == _dense_kernel(m, want_red, want_pivots)
    for v in kernel:
        assert all(e.is_zero() for e in m * v)
    x = m.solve(rhs)
    assert x == _dense_solve(m, rhs)
    if x is not None:
        assert m * x == rhs
    if m.rows != m.cols:
        for op in (m.inverse, m.det):
            with pytest.raises(ValueError):
                op()
        return
    assert m.det() == dense_det(m)
    want_inv = _dense_inverse(m)
    if want_inv is None:
        assert m.det().is_zero()
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    else:
        assert _cells(m.inverse()) == _cells(want_inv)
        assert m * m.inverse() == identity_matrix(field, m.rows)


@pytest.mark.parametrize("ncols", [0, 1, 3])
@pytest.mark.parametrize("nrows", [0, 1, 3])
def test_elimination_of_empty_and_zero_shapes(nrows, ncols):
    field = PRODUCT_FIELDS["Q(i)"]
    m = _shaped(field, [[field.zero()] * ncols for _ in range(nrows)], ncols)
    assert (m.rows, m.cols) == (nrows, ncols)
    red, pivots = m.rref()
    assert pivots == [] and red == m and matrix_rank(m) == 0
    eye = identity_matrix(field, ncols)
    assert m.kernel() == eye.entries
    assert m.solve([0] * nrows) == [field.zero()] * ncols
    if nrows:
        assert m.solve([1] + [0] * (nrows - 1)) is None
    if nrows == ncols:
        assert m.det() == (field.one() if nrows == 0 else field.zero())


def _to_sympy(e):
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.prod(
        [sympy.sqrt(e.field.gens[i]) for i in s]) for s, c in e.coords.items()),
        sympy.Integer(0))


@pytest.mark.parametrize("gens", [(-1, 2), (2, 3), (-1, -2, -3)])
@pytest.mark.parametrize("seed", range(4))
def test_det_matches_sympy_over_multiquadratic_fields(gens, seed):
    field = field_create(gens)
    rng = random.Random(seed)
    n = 3 if len(gens) < 3 else 2
    rows = [[_random_entry(rng, field, 0.8) for _ in range(n)]
            for _ in range(n)]
    if seed == 3:  # a dependent row
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1 % n])]
    want = sympy.Matrix([[_to_sympy(e) for e in row] for row in rows]).det()
    got = ExactMatrix(field, rows).det()
    assert sympy.expand(_to_sympy(got) - want) == 0
    assert got == dense_det(ExactMatrix(field, rows))


def test_every_elimination_runs_through_echelon(monkeypatch):
    """rref, rank, kernel, solve, inverse, det, the eigen trials and the
    rational kernel and rank have no elimination loop of their own."""
    def refuse(*args, **kwargs):
        raise RuntimeError("_echelon called")

    monkeypatch.setattr(fields, "_echelon", refuse)
    m = ExactMatrix.from_int(QQ, [[1, 2], [3, 4]])
    calls = {"rref": m.rref, "rank": lambda: matrix_rank(m),
             "kernel": m.kernel, "solve": lambda: m.solve([1, 0]),
             "inverse": m.inverse,
             "det": m.det, "eigen_decompose": lambda: eigen_decompose(m),
             "rational_kernel": lambda: rational_kernel([[1, 2]], 2),
             "rational_rank": lambda: rational_rank([[1, 2]])}
    for name, call in calls.items():
        with pytest.raises(RuntimeError, match="_echelon called"):
            call()


def test_entries_is_a_read_only_view():
    f = field_create([-1])
    m = ExactMatrix(f, [[1, 0], [0, f.monomial([0])]])
    assert m.nonzero == [{0: f.one()}, {1: f.monomial([0])}]
    view = m.entries
    view[0][0] = f.zero()
    assert m.entries == [[f.one(), f.zero()], [f.zero(), f.monomial([0])]]
    with pytest.raises(AttributeError):
        m.entries = view
    # the sparse rows are the only storage
    assert set(vars(m)) == {"field", "rows", "cols", "nonzero"}


def test_matrix_shape_checks_raise_value_error():
    f = field_create([-1])
    with pytest.raises(ValueError, match="different lengths"):
        ExactMatrix(f, [[1, 2], [3]])
    a = ExactMatrix(f, [[1, 2], [3, 4]])
    b = ExactMatrix(f, [[1, 2, 3]])
    for op in (lambda: a + b, lambda: a - b, lambda: a * b,
               lambda: a * [1, 2, 3], lambda: a.solve([1]), b.inverse,
               b.det, lambda: eigen_decompose(b)):
        with pytest.raises(ValueError):
            op()


# -- the sparse rational elimination ------------------------------------------

def _raw_kernel(rows, ncols):
    """rational_kernel by the dense reference: every cleared row, as a
    list, goes through integer_rref.  Returns (kernel, pivots)."""
    rows = dense_rows(cleared_rows(rows), ncols)
    pivots = integer_rref(rows, ncols)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis, pivots


@st.composite
def repeated_rows(draw):
    """Rational rows with scaled, negated, repeated and zero copies of
    some of them spliced in; each row given as a list or as a {col: value}
    dict, which may hold explicit zeros."""
    ncols = draw(st.integers(1, 7))
    base = draw(st.lists(st.lists(fracs, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    rows = [row[:] for row in base]
    for _ in range(draw(st.integers(0, 8))):
        src = draw(st.sampled_from(base))
        c = draw(st.sampled_from((1, -1, 2, -3, Fraction(1, 2),
                                  Fraction(-5, 7), 0)))
        rows.insert(draw(st.integers(0, len(rows))), [c * x for x in src])
    as_dict = draw(st.lists(st.booleans(), min_size=len(rows),
                            max_size=len(rows)))
    keep_zeros = draw(st.booleans())
    given_rows = [{j: x for j, x in enumerate(row) if x or keep_zeros}
                  if d else row for row, d in zip(rows, as_dict)]
    return given_rows, rows, ncols


def _primitive_with_positive_lead(pivots):
    for pc, row in pivots.items():
        assert pc == min(row) and row[pc] > 0
        assert all(x for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert not set(row) & set(pivots) - {pc}


@given(repeated_rows())
@settings(max_examples=150, deadline=None)
def test_sparse_elimination_matches_dense_reference_and_sympy(case):
    given_rows, rows, ncols = case
    kernel, pivots = _raw_kernel(rows, ncols)
    echelon = _echelon(cleared_rows(given_rows))
    _primitive_with_positive_lead(echelon)
    assert sorted(echelon) == pivots
    assert rational_kernel(given_rows, ncols) == kernel
    assert rational_rank(given_rows) == len(pivots)
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])
    red, want_pivots = want.rref()
    assert tuple(pivots) == want_pivots
    # each reduced row is the sympy row up to its positive leading entry
    for i, pc in enumerate(want_pivots):
        row = echelon[pc]
        assert [Fraction(row.get(j, 0), row[pc]) for j in range(ncols)] == \
            [Fraction(int(x.p), int(x.q)) for x in red.row(i)]
    assert [[Fraction(int(x.p), int(x.q)) for x in v]
            for v in want.nullspace()] == kernel


@given(repeated_rows())
@settings(max_examples=150, deadline=None)
def test_distinct_row_kernel_and_rank_match_raw_rows(case):
    _, rows, ncols = case
    kernel, pivots = _raw_kernel(rows, ncols)
    distinct = distinct_rows(dense_rows(cleared_rows(rows), ncols))
    assert integer_rref(distinct, ncols) == pivots
    assert rational_kernel(distinct, ncols) == kernel
    assert rational_rank(distinct) == len(pivots)
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])
    assert len(pivots) == want.rank()


def test_echelon_rows_are_primitive_with_positive_lead():
    rows = [[0, 2, -4], [0, -1, 2], [0, Fraction(3, 2), -3], [0, 0, 0],
            {0: 1, 2: 0}, {0: -2}, [0, 1, -2]]
    # multiples of one line collapse into one primitive, positive row
    assert _echelon(cleared_rows(rows)) == {1: {1: 1, 2: -2}, 0: {0: 1}}
    assert _echelon(cleared_rows(rows + [[0, 1, 2]])) == \
        {1: {1: 1}, 0: {0: 1}, 2: {2: 1}}
    # negative leads flip, and the second pivot is back-eliminated from
    # the first row
    assert _echelon(cleared_rows([[-2, 4, 6], [0, -3, 9]])) == \
        {0: {0: 1, 2: -9}, 1: {1: 1, 2: -3}}
    assert cleared_rows(rows) == [{1: 2, 2: -4}, {1: -1, 2: 2},
                                  {1: 3, 2: -6}, {0: 1}, {0: -2},
                                  {1: 1, 2: -2}]


def _cleared_rows_reference(rows):
    """cleared_rows as it was before int rows passed through: every
    nonzero row times the lcm of its denominators, rebuilt."""
    out = []
    for row in rows:
        nonzero = [(j, x) for j, x in
                   (row.items() if isinstance(row, dict) else enumerate(row))
                   if x]
        if nonzero:
            den = math.lcm(*(x.denominator for _, x in nonzero))
            out.append({j: x.numerator * (den // x.denominator)
                        for j, x in nonzero})
    return out


mixed_values = st.one_of(st.integers(-9, 9), fracs, st.booleans())


@st.composite
def mixed_rows(draw):
    """Rows of ints, Fractions and bools, some all-int, given as lists or
    as {col: value} dicts that may hold explicit zeros."""
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        values = st.integers(-9, 9) if draw(st.booleans()) else mixed_values
        row = draw(st.lists(values, min_size=ncols, max_size=ncols))
        if draw(st.booleans()):
            keep_zeros = draw(st.booleans())
            row = {j: x for j, x in enumerate(row) if x or keep_zeros}
        rows.append(row)
    return rows


@given(mixed_rows())
@settings(max_examples=200, deadline=None)
def test_cleared_rows_matches_reference_and_leaves_input(rows):
    before = [dict(r) if isinstance(r, dict) else list(r) for r in rows]
    got = cleared_rows(rows)
    want = _cleared_rows_reference(before)
    assert got == want
    assert all(type(x) is int and x for row in got for x in row.values())
    assert rows == before
    # a nonempty dict of nonzero ints comes back as it is, and every other
    # row is rebuilt: changing a rebuilt row leaves the input as it was
    clean = [r for r in rows if isinstance(r, dict) and r
             and all(type(x) is int and x for x in r.values())]
    passed = [row for row in got if any(row is r for r in rows)]
    assert list(map(id, passed)) == list(map(id, clean))
    for row in got:
        if not any(row is r for r in rows):
            for j in list(row):
                row[j] += 1
            row[-1] = 5
    assert rows == before


def test_cleared_rows_passes_int_rows_through_fresh():
    rows = [{0: 2, 1: 0, 3: -4}, [0, 3, 0], {2: Fraction(1, 2), 0: 1},
            [True, 0, 2], {}, [0, 0]]
    got = cleared_rows(rows)
    assert got == [{0: 2, 3: -4}, {1: 3}, {2: 1, 0: 2}, {0: 1, 2: 2}]
    assert got[0] is not rows[0]
    assert type(got[3][0]) is int


def test_cleared_rows_hands_back_clean_int_rows():
    """A dict of nonzero ints is the row it clears to and comes back
    unchanged, the same object; Fraction and list rows are still
    cleared, and a bool is no int."""
    clean = {3: -4, 0: 2}
    rows = [clean, {1: Fraction(1, 2), 2: 3}, [0, Fraction(2, 3), 4],
            {0: 1, 1: 0}, {2: True}, {0: Fraction(4, 2)}, {}]
    got = cleared_rows(rows)
    assert got[0] is clean and clean == {3: -4, 0: 2}
    assert got[1:] == [{1: 1, 2: 6}, {1: 2, 2: 12}, {0: 1}, {2: 1}, {0: 2}]
    assert all(type(x) is int for row in got for x in row.values())
    assert all(row is not r for row in got[1:] for r in rows)


@pytest.mark.parametrize("int_rows", [True, False])
def test_echelon_leaves_its_input_rows(int_rows):
    """_echelon reduces copies: the rows it is given, which cleared_rows
    now hands on as they are, are unchanged after it, for int rows and
    for field rows."""
    rng = random.Random(3002)
    F = field_create((-1, 2))
    rows = []
    for _ in range(12):
        row = {j: rng.randint(-3, 3) for j in rng.sample(range(7), 4)}
        row = {j: x for j, x in row.items() if x}
        rows.append(row if int_rows else
                    {j: F.rational(x) + F.sqrt_gen(2) for j, x in row.items()})
    before = [dict(row) for row in rows]
    if int_rows:
        pivots = _echelon(cleared_rows(rows))
    else:
        pivots = _echelon(rows, fields._subtracted, fields._monic)
    assert pivots and rows == before


@pytest.mark.parametrize("small_gens,big_gens", [
    ((-1,), (-1, 2)), ((2,), (-1, 2)), ((-3, -1), (-1, 2, -3)),
    ((-3, 2, -1), (-1, 2, -3)), ((-7, -5), (-5, -7, -2))])
def test_field_inclusion_matches_coords_route(small_gens, big_gens):
    """The mask relabel against the route the lift once took: coords,
    then Fractions, then FieldElement(big, coords) on the big field's
    generator indices."""
    small, big = field_create(small_gens), field_create(big_gens)
    lift = fields.field_inclusion(small, big)
    index = [big.gens.index(d) for d in small.gens]
    rng = random.Random(hash(small_gens) % 1000)
    for _ in range(40):
        e = element_from_nums(
            small, {m: rng.randint(-6, 6) for m in range(small.degree)
                    if rng.random() < 0.6}, rng.randint(1, 9))
        want = FieldElement(big, {frozenset(index[i] for i in s): c
                                  for s, c in e.coords.items()})
        got = lift(e)
        assert got.field is big
        assert (got.nums, got.den) == (want.nums, want.den)
    for i, d in enumerate(small.gens):
        assert lift(small.monomial([i])) == big.sqrt_gen(d)
        assert lift(small.monomial([i])) * lift(small.monomial([i])) == d


# -- the Galois comparison on numerators ---------------------------------------

# the negative square-free integers with |d| <= 30: three distinct ones
# generate a degree-8 field, as in the antiweil grid
NEG_SQUAREFREE = tuple(-n for n in range(1, 31)
                       if all(n % (d * d) for d in range(2, 6)))


@st.composite
def galois_pairs(draw):
    """An element x of the field of a grid triple and a y that is zero,
    an unrelated element, ±h(x) for a Galois element h, or ±h(x) times
    1/q, whose denominator differs from x's."""
    triple = draw(st.lists(st.sampled_from(NEG_SQUAREFREE), min_size=3,
                           max_size=3, unique=True))
    F = field_create(triple)
    x = FieldElement(F, draw(coord_dicts(F)))
    kind = draw(st.sampled_from(["zero", "other", "image", "rescaled"]))
    if kind == "zero":
        return x, F.zero()
    if kind == "other":
        return x, FieldElement(F, draw(coord_dicts(F)))
    y = apply_galois(draw(st.sampled_from(F.galois_group())), x)
    if draw(st.booleans()):
        y = -y
    if kind == "rescaled":
        y = y * Fraction(1, draw(st.integers(2, 6)))
    return x, y


@given(galois_pairs())
@settings(max_examples=150, deadline=None)
def test_galois_comparison_matches_apply_galois(pair):
    """is_galois_image(g, x, y, sign) decides apply_galois(g, x) == sign *
    y for every Galois element of the field and both signs, and for the
    zero on either side."""
    x, y = pair
    zero = x.field.zero()
    for g in x.field.galois_group():
        for sign in (1, -1):
            for a, b in ((x, y), (y, x), (zero, y), (x, zero)):
                assert fields.is_galois_image(g, a, b, sign) == \
                    (apply_galois(g, a) == sign * b)


def test_galois_comparison_reads_the_denominator():
    """Equal numerators over unequal denominators differ, and x is
    compared with its images under the four signs of one field."""
    F = field_create([-1, -2])
    x = FieldElement(F, {frozenset(): Fraction(1, 2),
                         frozenset([0]): Fraction(3, 2)})
    y = FieldElement(F, {frozenset(): Fraction(1, 3),
                         frozenset([0]): Fraction(3, 3)})
    assert x.nums == {0: 1, 1: 3} and y.nums == {0: 1, 1: 3}
    for g in F.galois_group():
        assert not fields.is_galois_image(g, x, y)
        assert fields.is_galois_image(g, x, apply_galois(g, x))
        assert fields.is_galois_image(g, x, -apply_galois(g, x), -1)
        assert fields.is_galois_image(g, x, x) == (g.signs[0] == 1)


def test_commutant_rows_collapse_to_distinct_lines():
    """The commutant system of the fixture's rational generators is the
    stacked End(V) = V ⊗ V* action row for row: 448 rows, 352 of them
    nonzero, 128 distinct up to a rational factor, rank 62."""
    from cmsweep.liereps import commutant_rows, tensor_module
    from cmsweep.quatrep import build_antiweil_rep
    from helpers import dual_module, rational_module
    w = rational_module(build_antiweil_rep())
    t = tensor_module(w, dual_module(w))
    stacked = [row for n in t.generator_names() for row in t.actions[n]]
    got = commutant_rows([w.actions[n] for n in w.generator_names()], w.dim)
    assert got == stacked
    assert all(x for row in got for x in row.values())
    rows = cleared_rows(got)
    assert (len(got), len(rows), len(distinct_rows(dense_rows(rows, 64)))) \
        == (448, 352, 128)
    assert rational_rank(got) == len(_raw_kernel(stacked, 64)[1]) == 62


# -- index-only matrix operations ---------------------------------------------

def _elementwise(field, a, b, op):
    return ExactMatrix(field, [[op(x, y) for x, y in zip(r1, r2)]
                               for r1, r2 in zip(a.entries, b.entries)])


def _index_of(m):
    """The nonzero cells read off the entries, as {col: cell} rows."""
    return [{j: (e.nums, e.den) for j, e in enumerate(row) if not e.is_zero()}
            for row in m.entries]


def _same(got, want):
    """got equals want cell by cell, and its stored rows hold exactly its
    nonzero cells: no stored value is zero."""
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert _cells(got) == _cells(want)
    assert [{j: (e.nums, e.den) for j, e in row.items()}
            for row in got.nonzero] == _index_of(want)
    assert not [e for row in got.nonzero for e in row.values()
                if e.is_zero()]
    assert got == want


@given(products(), st.integers(0, 2 ** 32))
@settings(max_examples=150, deadline=None)
def test_index_operations_match_elementwise(case, seed):
    field, a, _ = case
    rng = random.Random(seed)
    b = ExactMatrix(field, [[_random_entry(rng, field, 0.4) for _ in row]
                            for row in a.entries])
    # a - a' where a' agrees with a on some cells: sums cancel to zero there
    c = ExactMatrix(field, [[x if rng.random() < 0.5 else y
                             for x, y in zip(r1, r2)]
                            for r1, r2 in zip(a.entries, b.entries)])
    for x, y in ((a, b), (a, c), (b, a), (a, a)):
        _same(x + y, _elementwise(field, x, y, lambda p, q: p + q))
        _same(x - y, _elementwise(field, x, y, lambda p, q: p - q))
    _same(a - a, ExactMatrix(field, [[field.zero()] * a.cols] * a.rows))
    _same(-a, ExactMatrix(field, [[-e for e in row] for row in a.entries]))
    gens = [field.monomial([i]) for i in range(field.k)]
    for k in (field.zero(), field.one(), -field.one(), field.rational(3),
              *(g + field.rational(Fraction(1, 2)) for g in gens)):
        _same(a.scale(k), ExactMatrix(field, [[k * e for e in row]
                                             for row in a.entries]))
    _same(a.transpose(), ExactMatrix(field, [list(col)
                                             for col in zip(*a.entries)]))
    for g in field.galois_group():
        _same(a.galois(g), ExactMatrix(field, [[apply_galois(g, e)
                                                for e in row]
                                               for row in a.entries]))
    order = [rng.randrange(a.rows) for _ in range(a.rows)]
    _same(a.take_rows(order), ExactMatrix(field, [a.entries[i]
                                                  for i in order]))
    # the same matrix as a product result and as built from its entries
    prod = a * identity_matrix(field, a.cols)
    built = ExactMatrix(field, [row[:] for row in prod.entries])
    assert prod == built and built == prod and built == a
    _same(prod, built)
    assert (a == b) == (_cells(a) == _cells(b))


def test_equality_compares_shape_and_field():
    f = field_create([-1])
    zero23 = ExactMatrix(f, [[f.zero()] * 3] * 2)
    assert zero23 != ExactMatrix(f, [[f.zero()] * 2] * 3)
    assert zero23 != ExactMatrix(f, [[f.zero()] * 4] * 2)
    assert zero23 != ExactMatrix(QQ, [[0] * 3] * 2)
    assert zero23 == ExactMatrix(f, [[0] * 3] * 2) == zero23.scale(0)


# -- the checked sparse constructor -------------------------------------------

@given(products(), st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_from_rows_matches_the_dense_build(case, seed):
    """Each row given as its nonzero cells, with zeros of every kind mixed
    in and some rational cells as ints or Fractions, builds the matrix
    the dense rows build, storing no zero."""
    field, a, _ = case
    rng = random.Random(seed)
    zeros = (field.zero(), 0, Fraction(0), Fraction(0, 7))
    rows = []
    for row in a.nonzero:
        out = {}
        for j in range(a.cols):
            if j in row:
                e = row[j]
                out[j] = e.as_fraction() if (e.is_rational()
                                             and rng.random() < 0.5) else e
            elif rng.random() < 0.5:
                out[j] = rng.choice(zeros)
        rows.append(dict(sorted(out.items(), key=lambda _: rng.random())))
    _same(ExactMatrix.from_rows(field, rows, a.cols), a)


def test_from_rows_drops_zeros_and_checks_its_input():
    f = field_create([-1, 2])
    i = f.sqrt_gen(-1)
    m = ExactMatrix.from_rows(f, [{0: 0, 2: i}, {1: Fraction(0)},
                                  {0: f.zero(), 1: Fraction(3, 2)}], 3)
    assert m.nonzero == [{2: i}, {}, {1: f.rational(Fraction(3, 2))}]
    assert m == ExactMatrix(f, [[0, 0, i], [0, 0, 0], [0, Fraction(3, 2), 0]])
    assert ExactMatrix.from_rows(f, [], 4).cols == 4
    other = field_create([-1])
    with pytest.raises(ValueError, match="field mismatch"):
        ExactMatrix.from_rows(f, [{0: other.sqrt_gen(-1)}], 2)
    for j in (2, -1, 5):
        with pytest.raises(ValueError, match=f"column {j} is outside"):
            ExactMatrix.from_rows(f, [{0: 1}, {j: i}], 2)
    # a zero in an out-of-range column is refused too
    with pytest.raises(ValueError, match="outside"):
        ExactMatrix.from_rows(f, [{3: 0}], 3)


# -- unit scalars -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
def test_scale_by_plus_or_minus_one(name):
    field = PRODUCT_FIELDS[name]
    gens = [field.monomial([i]) for i in range(field.k)] or [field.one()]
    m = ExactMatrix(field, [[field.rational(Fraction(i - j, 3)) + gens[-1]
                             for j in range(3)] for i in range(2)])
    elementwise = ExactMatrix(field, [[-e for e in row] for row in m.entries])
    for one in (1, Fraction(1), field.one()):
        assert m.scale(one) == m
    for minus in (-1, Fraction(-1), -field.one()):
        assert m.scale(minus) == elementwise == -m
    # no shortcut for other scalars, irrational parts included
    for c in (2, Fraction(-1, 2), field.one() + gens[0]):
        c = FieldElement.coerce(field, c)
        if c.is_rational() and c.as_fraction() in (1, -1):
            continue
        assert _cells(m.scale(c)) == \
            [[((c * e).nums, (c * e).den) for e in row] for row in m.entries]
