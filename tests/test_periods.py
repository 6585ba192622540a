"""Formal period exponent bookkeeping."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    with pytest.raises(ValueError, match="nonzero coefficient"):
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


def test_input_checks_survive_optimize_flag():
    """Under python -O p > n, a zero coefficient and exponents that do not
    match the basis are still refused, where an assert would let
    gross_matrix(3, 1) build the exponents (5, -2) and (-5, 3)."""
    code = ("from cmsweep.periods import PeriodMonomial, gross_matrix\n"
            "for make in (lambda: gross_matrix(3, 1).entries(),\n"
            "             lambda: gross_matrix(-1, 2).entries(),\n"
            "             lambda: PeriodMonomial((1, 2), 0),\n"
            "             lambda: PeriodMonomial((1, 2, 3))):\n"
            "    try:\n"
            "        print('accepted:', make())\n"
            "    except ValueError as exc:\n"
            "        print('refused:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve()
                                          .parents[1] / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "refused: need 0 <= p <= n, not p = 3, n = 1",
        "refused: need 0 <= p <= n, not p = -1, n = 2",
        "refused: a period monomial needs a nonzero coefficient",
        "refused: the exponents do not match the basis",
    ]
