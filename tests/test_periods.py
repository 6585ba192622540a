"""Formal period exponent bookkeeping: a monomial b^e0 (2 pi i)^e1 is
its exponent pair (e0, e1)."""

import json
import os
import subprocess
import sys
from pathlib import Path

from cmsweep.cli import main
from cmsweep.periods import (gross_matrix, trdeg_lower_bound,
                             twisted_membership)


def _product(p, q):
    """The pair of the product of two monomials: the exponent sum."""
    return (p[0] + q[0], p[1] + q[1])


def test_gross_matrix_exponents():
    assert gross_matrix(1, 4) == [(-2, 3), (2, 1)]
    assert gross_matrix(2, 4) == [(0, 2), (0, 2)]
    assert gross_matrix(0, 0) == [(0, 0), (0, 0)]


def test_trdeg_lower_bounds():
    assert trdeg_lower_bound(gross_matrix(1, 4)) == 2
    assert trdeg_lower_bound(gross_matrix(2, 4)) == 1
    assert trdeg_lower_bound(gross_matrix(0, 0)) == 0
    assert trdeg_lower_bound([]) == 0
    assert trdeg_lower_bound([(0, 0)]) == 0


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


def test_monomial_products_are_exponent_sums():
    # b (2 pi i)^2 * b^-1 (2 pi i) = (2 pi i)^3
    prod = _product((1, 2), (-1, 1))
    assert prod == (0, 3)
    assert twisted_membership([prod], 3)
    assert trdeg_lower_bound([(1, 2), (-1, 1), prod]) == 2
    # the product of the gross(2, 4) diagonal lies in the twist class 4
    assert twisted_membership([_product(*gross_matrix(2, 4))], 4)


def test_trdeg_subadditivity():
    # rank of a union is at most the sum of ranks
    ms1 = gross_matrix(1, 4)
    ms2 = gross_matrix(3, 8)
    r12 = trdeg_lower_bound(ms1 + ms2)
    assert r12 <= trdeg_lower_bound(ms1) + trdeg_lower_bound(ms2)
    assert r12 >= max(trdeg_lower_bound(ms1), trdeg_lower_bound(ms2))
    # products stay in the span: adding pairwise products keeps the rank
    prods = [_product(p, q) for p in ms1 for q in ms1]
    assert trdeg_lower_bound(ms1 + prods) == trdeg_lower_bound(ms1)


def test_pairs_are_ordered_b_then_2pi_i():
    # gross(0, 2) = diag((2 pi i / b)^2, b^2): b comes first in each pair
    assert gross_matrix(0, 2) == [(-2, 2), (2, 0)]
    assert twisted_membership([(0, 1)], 1)
    assert not twisted_membership([(1, 0)], 1)


def test_input_checks_survive_optimize_flag():
    """Under python -O p > n and p < 0 are still refused, where an assert
    would let gross_matrix(3, 1) build the exponents (5, -2) and
    (-5, 3)."""
    code = ("from cmsweep.periods import gross_matrix\n"
            "for make in (lambda: gross_matrix(3, 1),\n"
            "             lambda: gross_matrix(-1, 2)):\n"
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
    ]


def test_gross_periods_verdict_table(capsys):
    """`gross-periods -p P -n N` over 0 <= p <= n <= 12: TRDEG>=2, except
    TRDEG>=1 at p = n/2 for even n with 2 <= n <= 12 and TRDEG>=0 at
    (0, 0)."""
    for n in range(13):
        for p in range(n + 1):
            assert main(["gross-periods", "-p", str(p), "-n", str(n),
                         "--format", "json"]) == 0
            (case,) = json.loads(
                capsys.readouterr().out)["sections"][0]["cases"]
            want = 0 if n == 0 else 1 if 2 * p == n else 2
            assert (case["case_id"], case["verdict"]) == \
                (f"gross({p},{n})", f"TRDEG>={want}")
