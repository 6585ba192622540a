"""Field tower arithmetic: examples, sympy cross-checks, and the
hypothesis axiom suite."""

from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cmsweep.fields import (QQ, DependentGenerators, DoesNotSplit,
                            ExactMatrix, FieldElement, _eigenvalue_candidates,
                            apply_galois, complex_conjugation,
                            eigen_decompose, field_create, form_value,
                            roots_of_unity)
from helpers import (ELEMENT_CODES, divide, element_from_code,
                     element_from_nums, is_identity, matrix_rank)

F2 = field_create([2])
F = field_create([-1, 2])
F3 = field_create([2, -3])


def test_create_rejects_bad_generators():
    with pytest.raises(DependentGenerators):
        field_create([4])
    with pytest.raises(DependentGenerators):
        field_create([1])
    with pytest.raises(DependentGenerators):
        field_create([12])
    with pytest.raises(DependentGenerators):
        field_create([-8])


def test_basic_arithmetic():
    s2 = F2.sqrt_gen(2)
    one = F2.one()
    assert (one + s2) * (one - s2) == F2.rational(-1)
    assert s2 * s2 == F2.rational(2)
    assert s2.inverse() * s2 == one


def test_inverse_of_mixed_element():
    # 1/(1 + sqrt(-1) + sqrt(2)) recomputed by sympy
    e = F.one() + F.sqrt_gen(-1) + F.sqrt_gen(2)
    inv = e.inverse()
    assert (e * inv) == F.one()
    x = 1 + sympy.I + sympy.sqrt(2)
    got = sum(sympy.Rational(c) * sympy.prod(
        [sympy.sqrt(F.gens[i]) for i in s]) for s, c in inv.coords.items())
    assert sympy.simplify(got - 1 / x) == 0


def test_as_rational_gives_an_int_when_integral():
    for q, want in ((6, 6), (Fraction(-4, 2), -2), (0, 0),
                    (Fraction(3, 4), Fraction(3, 4))):
        got = F.rational(q).as_rational()
        assert got == want and type(got) is type(want)
    assert F.rational(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError, match="not rational"):
        (F.rational(1) + F.sqrt_gen(2)).as_rational()


def test_conjugation():
    i = F.sqrt_gen(-1)
    s2 = F.sqrt_gen(2)
    assert i.conj() == -i
    assert s2.conj() == s2
    cc = complex_conjugation(F)
    assert apply_galois(cc, i + s2) == -i + s2


# -- hypothesis axiom suite -------------------------------------------------

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def elements(draw, field=F3):
    subsets = list(field.subsets)
    coords = {s: draw(fracs) for s in subsets}
    return FieldElement(field, coords)


CONJ_FIELDS = (F2, F, F3, field_create([-1, -2, -3]), field_create([-5, 7]))


@given(st.sampled_from(CONJ_FIELDS).flatmap(elements))
@settings(max_examples=100, deadline=None)
def test_conj_is_complex_conjugation(x):
    """conj applies the field's complex conjugation, built once per field
    and then reused."""
    assert x.conj() == apply_galois(complex_conjugation(x.field), x)
    assert x.field._conjugation is x.field._conjugation
    assert x.field._conjugation == complex_conjugation(x.field)


@given(elements(), elements(), elements())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(elements())
@settings(max_examples=150, deadline=None)
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == F3.one()


@given(elements(), elements(), fracs)
@settings(max_examples=100, deadline=None)
def test_quotients_by_elements_and_rationals(a, b, q):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divide(F3, a, b)
        return
    assert divide(F3, a, b) * b == a
    assert divide(F3, 1, b) == b.inverse()
    assert divide(F3, q, b) == b.inverse() * q
    if q:
        assert divide(F3, a, q) == a * (1 / q)


@given(elements(), elements(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_galois_homomorphism(a, b, idx):
    g = F3.galois_group()[idx]
    assert apply_galois(g, a * b) == apply_galois(g, a) * apply_galois(g, b)
    assert apply_galois(g, a + b) == apply_galois(g, a) + apply_galois(g, b)


def test_galois_group_structure():
    gg = F3.galois_group()
    assert len(gg) == 4
    assert len({g.signs for g in gg}) == 4
    for g in gg:
        assert is_identity(g * g)


# -- linear algebra vs sympy ------------------------------------------------

def _to_sympy(m):
    rows = []
    for row in m.entries:
        out = []
        for e in row:
            out.append(sum(sympy.Rational(c) * sympy.prod(
                [sympy.sqrt(m.field.gens[i]) for i in s])
                for s, c in e.coords.items()))
        rows.append(out)
    return sympy.Matrix(len(m.entries), len(m.entries[0]) if m.entries else 0,
                        lambda i, j: rows[i][j])


@st.composite
def forms(draw):
    """Vectors u, v of F3 elements, some zero, and a Gram matrix as
    {col: value} rows of nonzero ints or elements, some rows empty; each
    element one flat int draw (helpers.element_from_code)."""
    n = draw(st.integers(0, 4))
    drawn = st.integers(0, ELEMENT_CODES - 1).map(
        lambda code: element_from_code(F3, code))
    entry = st.one_of(st.just(F3.zero()), drawn)
    u, v = (draw(st.lists(entry, min_size=n, max_size=n)) for _ in "uv")
    value = st.one_of(st.integers(-3, 3).filter(bool), drawn)
    gram = [draw(st.dictionaries(st.integers(0, n - 1), value, max_size=n))
            if n else {} for _ in range(n)]
    return u, gram, v


@given(forms())
@settings(max_examples=100, deadline=None)
def test_form_value_is_the_dense_sum(form):
    """form_value(u, G, v) is the dense sum of u_r G[r][c] v_c over every
    cell, with the cells missing from G's rows read as zero."""
    u, gram, v = form
    want = F3.zero()
    for r in range(len(u)):
        for c in range(len(v)):
            g = FieldElement.coerce(F3, gram[r].get(c, 0))
            want = want + u[r] * g * v[c]
    assert form_value(F3, u, gram, v) == want


def test_rank_det_against_sympy():
    import random
    rng = random.Random(7)
    for _ in range(25):
        ints = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        m = ExactMatrix.from_int(QQ, ints)
        sm = sympy.Matrix(ints)
        assert matrix_rank(m) == sm.rank()
        assert m.det().as_fraction() == Fraction(int(sm.det()))


def test_kernel_and_solve():
    m = ExactMatrix.from_int(QQ, [[1, 2, 3], [2, 4, 6]])
    ker = m.kernel()
    assert len(ker) == 2
    for v in ker:
        img = m * list(v)
        assert all(e.is_zero() for e in img)
    sol = m.solve([QQ.rational(6), QQ.rational(12)])
    assert sol is not None
    assert m.solve([QQ.rational(1), QQ.rational(0)]) is None


def test_eigen_decompose_signed_cycle():
    # the 4-cycle has eigenvalues 1, -1, +-sqrt(-1); sympy agrees
    rows = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))
    m = ExactMatrix.from_int(F, rows)
    eig = eigen_decompose(m)
    assert len(eig) == 4
    sy = sympy.Matrix([list(r) for r in rows])
    assert set(sy.eigenvals()) == {1, -1, sympy.I, -sympy.I}
    for lam, vecs in eig:
        assert len(vecs) == 1
        got = m * list(vecs[0])
        want = [lam * c for c in vecs[0]]
        assert all((p - q).is_zero() for p, q in zip(got, want))


# -- the eigenvalue candidates and the roots of unity ------------------------

def _raw_monomial_candidates(field):
    """Coefficients in {±1, ±1/2} on at most two raw monomials, the
    candidate list before the monomials were normalised."""
    halves = ((1, 1), (-1, 1), (1, 2), (-1, 2))
    out = []
    for m in field._order:
        for c in (1, -1):
            out.append(element_from_nums(field, {m: c}))
    for m1, m2 in combinations(field._order, 2):
        for c1, d1 in halves:
            for c2, d2 in halves:
                out.append(element_from_nums(
                    field, {m1: c1 * 2 // d1, m2: c2 * 2 // d2}, 2))
    return out


@pytest.mark.parametrize("gens, count", [((-1,), 20), ((-1, 2), 104)])
def test_candidates_of_the_sweep_fields_are_unchanged(gens, count):
    # every monomial square there is square-free, so normalising moves
    # no candidate: the trial counts of the sweeps stay the same
    field = field_create(gens)
    got = _eigenvalue_candidates(field)
    want = _raw_monomial_candidates(field)
    assert len(got) == count
    assert [(e.nums, e.den) for e in got] == [(e.nums, e.den) for e in want]


def _sympy_element(e):
    return sum(sympy.Rational(c) * sympy.prod(
        [sympy.sqrt(e.field.gens[i]) for i in s])
        for s, c in e.coords.items())


def _sympy_linear_roots(poly, t, gens):
    """The roots of poly in Q(sqrt(gens)), from its sympy factorisation."""
    _, factors = sympy.factor_list(
        poly, t, extension=[sympy.sqrt(d) for d in gens])
    return [sympy.solve(p, t)[0] for p, _ in factors
            if sympy.degree(p, t) == 1]


def _same_numbers(xs, ys):
    return len(xs) == len(ys) and all(
        any(sympy.simplify(x - y) == 0 for y in ys) for x in xs)


# the rotations of order 4 (roots ±i) and of order 3 (primitive cube roots)
ROTATIONS = {4: ((0, -1), (1, 0)), 3: ((0, -1), (1, -1))}


@pytest.mark.parametrize("gens, order, splits", [
    ((-2, 2), 4, True),    # sqrt(-2)*sqrt(2) = 2i
    ((-3, 3), 4, True),    # sqrt(-3)*sqrt(3) = 3i
    ((2, -6), 4, False),   # no i: the quadratic subfields are 2, -6, -3
    ((2, -6), 3, True),    # sqrt(2)*sqrt(-6) = 2*sqrt(-3)
    ((-3, 3), 3, True),
    ((-1, 2), 3, False),
])
def test_rotations_split_where_sympy_finds_the_roots(gens, order, splits):
    field = field_create(gens)
    rows = ROTATIONS[order]
    t = sympy.symbols("t")
    charpoly = sympy.Matrix(rows).charpoly(t).as_expr()
    want = _sympy_linear_roots(charpoly, t, gens)
    assert (len(want) == 2) == splits
    m = ExactMatrix.from_int(field, rows)
    if not splits:
        with pytest.raises(DoesNotSplit):
            eigen_decompose(m)
        return
    eig = eigen_decompose(m)
    assert [len(ker) for _, ker in eig] == [1, 1]
    assert _same_numbers([_sympy_element(lam) for lam, _ in eig], want)
    if order == 4:
        assert _same_numbers(want, [sympy.I, -sympy.I])


def _power(x, k):
    out = x.field.one()
    for _ in range(k):
        out = out * x
    return out


@pytest.mark.parametrize("gens", [
    (-1,), (-3,), (2,), (-1, 2), (-2, 2), (-3, 3), (2, -6),
    (-1, 3),  # holds the 12th roots (±sqrt(3) ± i)/2, which are left out
    (-1, 2, -3),
])
def test_roots_of_unity_are_the_candidates_of_order_dividing_8_or_6(gens):
    field = field_create(gens)
    got = roots_of_unity(field)
    assert [z for z, _ in got] == [
        c for c in _eigenvalue_candidates(field)
        if _power(c, 8) == 1 or _power(c, 6) == 1]
    for z, order in got:
        assert _power(z, order) == 1
        assert all(_power(z, k) != 1 for k in range(1, order))
    if len(gens) < 3:  # sympy counts the roots the field holds
        t = sympy.symbols("t")
        held = (len(_sympy_linear_roots(t ** 8 - 1, t, gens))
                + len(_sympy_linear_roots(t ** 6 - 1, t, gens)) - 2)
        assert len(got) == held


def test_roots_of_unity_are_built_once_per_field_object(monkeypatch):
    """Repeated calls on one field object build the roots once and hand
    out equal lists of their own; a new field object builds them anew."""
    from cmsweep import fields
    calls = []
    real = fields._unit_monomials
    monkeypatch.setattr(fields, "_unit_monomials",
                        lambda f: calls.append(f) or real(f))
    field = field_create([-1, 2])
    first = roots_of_unity(field)
    second = roots_of_unity(field)
    assert first == second and first is not second and len(first) == 8
    first.clear()
    assert roots_of_unity(field) == second and len(calls) == 1
    assert roots_of_unity(field_create([-1, 2])) == second
    assert len(calls) == 2
