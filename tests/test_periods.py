"""Formal period exponent bookkeeping."""

from fractions import Fraction

import pytest

from cmsweep.periods import (DEFAULT_BASIS, PeriodMonomial, gross_matrix,
                             trdeg_lower_bound, twisted_membership)


def test_gross_matrix_exponents():
    m = gross_matrix(1, 4)
    assert [e.exponents for e in m.entries()] == [(-2, 3), (2, 1)]
    m = gross_matrix(2, 4)
    assert [e.exponents for e in m.entries()] == [(0, 2), (0, 2)]
    m = gross_matrix(0, 0)
    assert [e.exponents for e in m.entries()] == [(0, 0), (0, 0)]


def test_trdeg_lower_bounds():
    assert trdeg_lower_bound(gross_matrix(1, 4)) == 2
    assert trdeg_lower_bound(gross_matrix(2, 4)) == 1
    assert trdeg_lower_bound(gross_matrix(0, 0)) == 0
    assert trdeg_lower_bound([]) == 0
    assert trdeg_lower_bound([PeriodMonomial((0, 0))]) == 0


def test_twisted_membership():
    assert twisted_membership(gross_matrix(2, 4), 2)
    assert not twisted_membership(gross_matrix(1, 4), 2)
    assert twisted_membership([], 3)


def test_twisted_iff_balanced():
    # the diagonal lies in a single twist class exactly when 2p = n
    for n in range(0, 9):
        for p in range(n + 1):
            m = gross_matrix(p, n)
            assert twisted_membership(m, n // 2) == (2 * p == n)


def test_monomial_product_and_coefficients():
    a = PeriodMonomial((1, 2), Fraction(3))
    b = PeriodMonomial((-1, 1), Fraction(1, 3))
    prod = a * b
    assert prod.exponents == (0, 3)
    assert prod.coefficient == 1
    assert PeriodMonomial(a.exponents, Fraction(5)).coefficient == 5
    with pytest.raises(AssertionError):
        PeriodMonomial((1, 2), 0)
    # trdeg bound ignores coefficients
    assert trdeg_lower_bound([a]) == trdeg_lower_bound(
        [PeriodMonomial(a.exponents, Fraction(7))])


def test_trdeg_subadditivity():
    # rank of a union is at most the sum of ranks
    ms1 = list(gross_matrix(1, 4))
    ms2 = list(gross_matrix(3, 8))
    r12 = trdeg_lower_bound(ms1 + ms2)
    assert r12 <= trdeg_lower_bound(ms1) + trdeg_lower_bound(ms2)
    assert r12 >= max(trdeg_lower_bound(ms1), trdeg_lower_bound(ms2))
    # products stay in the span: adding pairwise products keeps the rank
    prods = [p * q for p in ms1 for q in ms1]
    assert trdeg_lower_bound(ms1 + prods) == trdeg_lower_bound(ms1)


def test_default_basis():
    assert DEFAULT_BASIS == ("b", "2*pi*i")
