"""Sign-pattern feasibility, zero witnesses, and the weight-1 family
membership check."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cmsweep.positivity import (DiagonalPositivitySystem, Monomial,
                                antisymmetric_weight_gram,
                                antiweil_imaginary_system,
                                antiweil_lambda_positive, antiweil_real_gram,
                                antiweil_real_constraint,
                                check_infeasibility_certificate,
                                deg4_imaginary_system, diagonal_feasibility,
                                gauss, weil_family_check,
                                zero_witness_real_case)
from positivity_oracle import float_oracle_agrees

ROOT = Path(__file__).resolve().parents[1]


def test_deg4_imaginary_infeasible_with_certificate():
    sys = deg4_imaginary_system()
    v = status, certificate = diagonal_feasibility(sys)
    assert status == "INFEASIBLE"
    assert sorted(certificate["pair"]) == ["tau-bar:y'-1", "tau:y1"]
    assert check_infeasibility_certificate(sys, v)


def test_antiweil_imaginary_infeasible_both_lambda_signs():
    for lam_sign in (-1, 1):
        sys = antiweil_imaginary_system(lam_sign=lam_sign)
        v = diagonal_feasibility(sys)
        assert v[0] == "INFEASIBLE"
        assert check_infeasibility_certificate(sys, v)


def test_antiweil_lambda_positive_branch():
    status, certificate = antiweil_lambda_positive(Fraction(1, 4))
    assert status == "INFEASIBLE"
    assert certificate["pair"] is not None
    # negative lambda routes to the imaginary-branch system
    status, _ = antiweil_lambda_positive(-2)
    assert status == "INFEASIBLE"
    with pytest.raises(ValueError, match="lam must be nonzero"):
        antiweil_lambda_positive(0)


def test_input_checks_survive_optimize_flag():
    """Under python -O an empty system, a lam_sign off +-1, lam = 0, an
    x without 4 components and a certificate check on a FEASIBLE verdict
    or a pairless INFEASIBLE one are still refused, where an assert would
    let an empty system come back FEASIBLE, lam = 0 take the lam > 0
    branch to INFEASIBLE and the check confirm a pair it was not given."""
    code = ("from cmsweep.positivity import (DiagonalPositivitySystem,\n"
            "    antiweil_imaginary_system, antiweil_lambda_positive,\n"
            "    check_infeasibility_certificate, deg4_imaginary_system,\n"
            "    weil_family_check)\n"
            "sys = deg4_imaginary_system()\n"
            "for make in (lambda: DiagonalPositivitySystem(('M',), []),\n"
            "             lambda: antiweil_imaginary_system(0),\n"
            "             lambda: antiweil_lambda_positive(0),\n"
            "             lambda: weil_family_check([1, 0, 0]),\n"
            "             lambda: check_infeasibility_certificate(\n"
            "                 sys, ('FEASIBLE', {'signs': {}})),\n"
            "             lambda: check_infeasibility_certificate(\n"
            "                 sys, ('INFEASIBLE', {'pair': None}))):\n"
            "    try:\n"
            "        print('accepted:', make())\n"
            "    except ValueError as exc:\n"
            "        print('refused:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "refused: coefficient list must be nonempty",
        "refused: lam_sign must be 1 or -1, not 0",
        "refused: lam must be nonzero",
        "refused: x needs 4 components, not 3",
        "refused: need an INFEASIBLE verdict with a pair, not FEASIBLE with "
        "pair None",
        "refused: need an INFEASIBLE verdict with a pair, not INFEASIBLE "
        "with pair None",
    ]


def test_diagonal_feasibility_soundness_random():
    """Randomized soundness/completeness check: the verdict agrees with
    an exhaustive search over 100 exact sample points."""
    rng = random.Random(11)
    mags = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5))
    for _ in range(30):
        n_coeff = rng.randint(1, 4)
        coeffs = []
        for t in range(n_coeff):
            c = rng.choice((-3, -1, 1, 2))
            coeffs.append((f"c{t}", Monomial.of(
                c, A=rng.randint(0, 2), B=rng.randint(0, 2))))
        sys = DiagonalPositivitySystem(("A", "B"), coeffs)
        status, _ = diagonal_feasibility(sys)
        found = False
        for sa, sb in itertools.product((1, -1), repeat=2):
            for ma, mb in itertools.product(mags, repeat=2):
                vals = {"A": sa * ma, "B": sb * mb}
                if all(m.evaluate(vals) > 0 for _, m in coeffs):
                    found = True
        # sign-pattern feasibility is exactly point feasibility here:
        # monomials have constant sign on each orthant
        assert (status == "FEASIBLE") == found


def test_zero_witnesses():
    w = zero_witness_real_case(antisymmetric_weight_gram())
    assert w is not None
    assert w == [1, 1]
    w2 = zero_witness_real_case(antiweil_real_gram(),
                                [antiweil_real_constraint([1, 2, 0, 0])])
    assert w2 is not None
    # a definite form has no real zero vector
    definite = ({0: 1}, {1: 1})
    assert zero_witness_real_case(definite) is None
    # Gram entries may be Gaussian rationals as well as ints
    assert zero_witness_real_case(({1: gauss(-1)}, {0: gauss(1)})) == [1, 1]
    assert zero_witness_real_case(({0: gauss(1)}, {1: gauss(2)})) is None


def test_weil_family_member():
    rep = weil_family_check((1, 0, 0, -1))
    assert rep["status"] == "IN_FAMILY"
    assert rep["s_value"] == "-2"
    assert rep["s_negative"] and rep["positive_definite"]
    assert rep["minors"] == ["1", "1", "2"]
    assert float_oracle_agrees((1, 0, 0, -1), rep)


def test_weil_family_nonmember():
    rep = weil_family_check((1, 0, 0, 1))
    assert rep["status"] == "NOT_IN_FAMILY"
    assert rep["s_value"] == "2"


def test_weil_family_scaling_invariance():
    base = weil_family_check((1, 1, 0, -2))
    assert base["status"] == "IN_FAMILY"
    scaled = weil_family_check(tuple(gauss(0, 2) * gauss(c)
                                     for c in (1, 1, 0, -2)))
    assert scaled["status"] == "IN_FAMILY"
    assert scaled["positive_definite"] == base["positive_definite"]


def test_weil_family_random_agreement_with_float_oracle():
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        x = tuple(gauss(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(4))
        if all(e.is_zero() for e in x):
            continue
        rep = weil_family_check(x)
        if rep["status"] == "IN_FAMILY":
            assert float_oracle_agrees(x, rep, samples=40, seed=checked)
        checked += 1
