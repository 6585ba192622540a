"""Quaternion sl(2)-triples and the 8-dimensional anti-symmetric
representation: bracket tables, Galois equivariance, symplectic form,
irreducibility, and rational descent."""

import importlib.util
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cmsweep import fields, liereps, quatrep
from cmsweep.fields import (QQ, DependentGenerators, ExactMatrix,
                            FieldElement, GaloisElement, apply_galois,
                            field_create)
from cmsweep.quatrep import (AntiWeilRep, GALOIS_EIGEN_TABLE,
                             GALOIS_LIE_TABLE, GENERATOR_NAMES, REP_TABLE,
                             UNIT_TABLE, WEIGHT_LABELS, QuaternionAlgebra,
                             algebra_associativity, build_antiweil_rep,
                             conjugation_relation, e_a1_triples,
                             invariant_endomorphisms_dim,
                             invariant_wedge2_dim, sl2_triple,
                             squarefree_split, sqrt_gens,
                             unit_table_associativity, unit_table_text,
                             verify_e_a1_brackets, verify_galois_equivariance,
                             verify_irreducibility, verify_symplectic,
                             _block_sum)
from cmsweep.liereps import invariant_space, tensor_module, wedge2_module
from helpers import (DenseQuaternionAlgebra, brackets_by_products,
                     dense_model, descent_basis,
                     descent_by_combinations, dual_module,
                     equivariance_by_combinations, identity_matrix,
                     invariant_dims_over_all_units,
                     matrix_rank, mu_by_products, pairwise_quaternion_mul,
                     rational_model_by_products, rational_module,
                     solve_galois_lie_table, solve_unit_coefficients)


@pytest.fixture(scope="module")
def rep():
    return build_antiweil_rep(-1, -2, -3)


@pytest.mark.parametrize("a,lam", [(-3, -1), (-3, 2), (-1, -2), (5, -1),
                                   (2, 3), (-7, Fraction(1, 2)), (2, -1)])
def test_sl2_triple_brackets(a, lam):
    tri = sl2_triple(a, lam)
    assert tri.verify_brackets()


def test_conjugation_relation():
    assert conjugation_relation(-3, -1)
    assert conjugation_relation(-3, 2)
    assert conjugation_relation(5, -1)
    assert conjugation_relation(2, 7)


def test_conjugation_relation_checks_the_brackets(monkeypatch):
    # sl2_triple asserts nothing: the relation's verdict carries the check
    monkeypatch.setattr(quatrep.SL2Triple, "verify_brackets",
                        lambda self: False)
    assert not conjugation_relation(-3, -1)
    assert not conjugation_relation(2, -1)


def test_e_a1_brackets():
    alg, gens = e_a1_triples(-2, -3)
    assert verify_e_a1_brackets(alg, gens)


def test_e_a1_square_scaling_invariance():
    # a and a * s^2 give the same field and the same generator formulas
    assert sqrt_gens(-2, -3) == sqrt_gens(-2, -12)
    alg, gens = e_a1_triples(-2, -12)
    assert verify_e_a1_brackets(alg, gens)


def test_squarefree_split():
    assert squarefree_split is fields.squarefree_split  # the one copy
    assert squarefree_split(-12) == (2, -3)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(-1) == (1, -1)
    assert squarefree_split(Fraction(1, 12)) == (Fraction(1, 6), 3)
    # an int runs the route of its Fraction, with s a Fraction for both
    for r in range(-300, 301):
        if r:
            s, r0 = squarefree_split(r)
            assert (s, r0) == squarefree_split(Fraction(r))
            assert type(s) is Fraction
            assert type(squarefree_split(Fraction(r))[0]) is Fraction
            assert s * s * r0 == r
            assert all(r0 % (d * d) for d in range(2, 18))
    raised = []
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError,
                           match="^0 has no square-free part$") as exc:
            squarefree_split(zero)
        raised.append((exc.type, str(exc.value)))
    assert raised[0] == raised[1]
    # a float is refused by name, not trial-divided as the numerator of
    # its binary value
    with pytest.raises(ValueError, match=r"-0\.1 is not an int or a Fraction"):
        squarefree_split(-0.1)
    with pytest.raises(ValueError, match=r"-0\.1 is not an int or a Fraction"):
        build_antiweil_rep(-0.1, -2, -3)


def test_dependent_parameters_rejected():
    with pytest.raises(DependentGenerators):
        build_antiweil_rep(-1, -2, -8)     # sqrt(-8) ~ sqrt(-2)
    with pytest.raises(DependentGenerators):
        build_antiweil_rep(-1, -2, -2)


def _column(m, j):
    return [m.entries[i][j] for i in range(8)]


def test_weight_action_examples(rep):
    # y1 lowers the first weight index: y1 . v_{1,1} = v_{-1,1}
    assert REP_TABLE["y1"]["1,1"] == (1, "-1,1")
    # x2 raises the second: x2 . v_{1,-1} = v_{1,1}
    assert REP_TABLE["x2"]["1,-1"] == (1, "1,1")
    # and the realized matrices agree with every entry on the basis
    # columns v_l and w_l
    index = rep.basis_labels.index
    zero = [rep.field.zero()] * 8
    for name, table in REP_TABLE.items():
        for label, entry in table.items():
            for side in "vw":
                got = rep.mu[name] * _column(rep.B, index(side + label))
                want = zero if entry is None else [
                    x * entry[0]
                    for x in _column(rep.B, index(side + entry[1]))]
                assert got == want, (name, side + label)


def test_galois_eigen_example(rep):
    # g3 (the sqrt(a)-flip) sends v_{1,-1} to -v_{-1,1}
    assert GALOIS_EIGEN_TABLE["g3"]["1,-1"] == (-1, "v", "-1,1")
    # every entry is a column of C_g = B^-1 g(B), the matrix of g in the
    # v/w basis; g w_l = g g2 v_l = g2 (g v_l), and g2 swaps v_m and w_m
    F = rep.field
    index = rep.basis_labels.index
    other = {"v": "w", "w": "v"}
    assert set(GALOIS_EIGEN_TABLE) == set(rep.galois)
    for tag, table in GALOIS_EIGEN_TABLE.items():
        assert set(table) == set(WEIGHT_LABELS)
        want = [[F.zero()] * 8 for _ in range(8)]
        for label, (sign, side, target) in table.items():
            want[index(side + target)][index("v" + label)] = F.rational(sign)
            want[index(other[side] + target)][index("w" + label)] = \
                F.rational(sign)
        assert rep.B_inv * rep.galois_act(tag, rep.B) == ExactMatrix(F, want)


def test_galois_lie_example():
    # g1 swaps the two sl(2) factors with a sign: h1 -> -h2
    assert GALOIS_LIE_TABLE["g1"]["h1"] == (-1, "h2")
    assert GALOIS_LIE_TABLE["g2"] == {n: (1, n) for n in GENERATOR_NAMES}


def test_matrix_brackets(rep):
    assert rep.verify_matrix_brackets()


def test_galois_lie_table_fidelity(rep):
    assert rep.regenerate_galois_lie_table() == GALOIS_LIE_TABLE


def test_galois_equivariance(rep):
    assert verify_galois_equivariance(rep)


def test_symplectic(rep):
    assert verify_symplectic(rep)
    ok, checks = rep.verify_symplectic()
    assert ok
    assert set(checks) >= {"antisymmetric", "nondegenerate", "descent",
                           "infinitesimal", "k_adjoint", "central_invariance",
                           "isotropy", "phi_value"}
    assert all(checks.values())


def test_irreducibility(rep):
    assert verify_irreducibility(rep)


def test_central_action_squares_to_Dp(rep):
    sq = rep.J * rep.J
    Dp = rep.field.rational(rep.params[0])
    for i in range(8):
        for j in range(8):
            want = Dp if i == j else rep.field.zero()
            assert (sq.entries[i][j] - want).is_zero()


def test_rational_model(rep):
    model = rep.rational_model()
    assert set(model) == {"i", "j", "k", "Ji", "Jj", "Jk", "J", "gram"}
    for mat in model.values():
        assert len(mat) == 8
        for row in mat:
            assert row.keys() <= set(range(8))
            for x in row.values():
                # rational and nonzero, an int when integral
                assert x and (type(x) is int or (type(x) is Fraction
                                                 and x.denominator > 1))
    # the Gram matrix stays antisymmetric after descent
    g = dense_model(model)["gram"]
    for i in range(8):
        for j in range(8):
            assert g[i][j] == -g[j][i]


def test_invariant_dimensions(rep):
    assert invariant_endomorphisms_dim(rep) == 2
    assert invariant_wedge2_dim(rep) == 1


# negative square-free integers of absolute value at most 30: three
# distinct ones always generate a degree-8 field
NEG_SQUAREFREE = tuple(-n for n in range(1, 31)
                       if all(n % (d * d) for d in range(2, 6)))


def test_invariant_dims_match_module_kernels_on_grid_triples():
    """The rank-only dimensions equal the kernel lengths of the V ⊗ V*
    and ∧²V modules on seeded triples (D', D, a), where both are 2 and
    1."""
    rng = random.Random(2104)
    for _ in range(10):
        r = build_antiweil_rep(*rng.sample(NEG_SQUAREFREE, 3))
        w = rational_module(r)
        end = len(invariant_space(tensor_module(w, dual_module(w))))
        wedge = len(invariant_space(wedge2_module(w)))
        assert (invariant_endomorphisms_dim(r), invariant_wedge2_dim(r)) \
            == (end, wedge) == (2, 1), r.params


def test_invariant_dims_build_no_kernel_basis(rep, monkeypatch):
    def refuse(*args):
        raise AssertionError("a kernel basis was built")
    monkeypatch.setattr(fields, "_kernel_basis", refuse)
    monkeypatch.setattr(liereps, "rational_kernel", refuse)
    assert invariant_endomorphisms_dim(rep) == 2
    assert invariant_wedge2_dim(rep) == 1


def test_bracket_generator_dims_match_all_units_on_grid_triples():
    """On seeded triples (D', D, a), the ranks over i, j, Ji and J equal
    the ranks over all seven generators."""
    rng = random.Random(3207)
    for _ in range(10):
        r = build_antiweil_rep(*rng.sample(NEG_SQUAREFREE, 3))
        assert r.bracket_generators.generator_names() == ("i", "j", "Ji", "J")
        assert (invariant_endomorphisms_dim(r), invariant_wedge2_dim(r)) \
            == invariant_dims_over_all_units(r) == (2, 1), r.params


def test_bracket_generator_systems_have_256_and_112_rows(monkeypatch):
    sizes = []
    rank = quatrep.rational_rank

    def counting(rows):
        sizes.append(len(rows))
        return rank(rows)
    monkeypatch.setattr(quatrep, "rational_rank", counting)
    rep = build_antiweil_rep(-1, -2, -3)
    assert rep.rational_invariant_dims() == (2, 1)
    assert sizes == [256, 112]


# each doubled unit breaks the first bracket that reads it
DOUBLED_UNIT_BREAKS = {"k": "[i, j] = 2k", "Jk": "[j, Ji] = -2Jk",
                       "Jj": "[k, Ji] = -2a Jj"}


@pytest.mark.parametrize("unit", DOUBLED_UNIT_BREAKS)
def test_doubled_unit_fails_both_dims_naming_the_bracket(unit):
    rep = build_antiweil_rep(-1, -2, -3)
    rep._model[unit] = [{c: 2 * x for c, x in row.items()}
                        for row in rep._model[unit]]
    message = re.escape(DOUBLED_UNIT_BREAKS[unit])
    for dim in (invariant_endomorphisms_dim, invariant_wedge2_dim):
        with pytest.raises(ValueError, match=message):
            dim(rep)


def test_doubled_units_fail_both_dims_under_optimize_flag():
    code = ("from cmsweep import quatrep\n"
            "for unit in ('k', 'Jk', 'Jj'):\n"
            "    rep = quatrep.build_antiweil_rep(-1, -2, -3)\n"
            "    rep._model[unit] = [{c: 2 * x for c, x in row.items()}\n"
            "                        for row in rep._model[unit]]\n"
            "    for dim in (quatrep.invariant_endomorphisms_dim,\n"
            "                quatrep.invariant_wedge2_dim):\n"
            "        try:\n"
            "            dim(rep)\n"
            "        except ValueError as exc:\n"
            "            print('refused:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve()
                                          .parents[1] / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "".join(
        f"refused: the rational model breaks {text}\n" * 2
        for text in DOUBLED_UNIT_BREAKS.values())


# -- the unit table and its associativity proof -----------------------------

def test_unit_table_proven_for_both_dimensions():
    assert algebra_associativity() == {"4": 64, "8": 512}
    text = unit_table_text()
    assert text[3][3] == "-ab*1" and text[7][7] == "-abD*1"
    assert text[4] == ["+1*J", "+1*Ji", "+1*Jj", "+1*Jk",
                       "+D*1", "+D*i", "+D*j", "+D*k"]


@pytest.mark.parametrize("n", [4, 8])
def test_every_flipped_sign_fails_the_proof(n):
    for p, q in product(range(n), repeat=2):
        table = [list(row[:n]) for row in UNIT_TABLE[:n]]
        sign, exps, t = table[p][q]
        table[p][q] = (-sign, exps, t)
        with pytest.raises(ValueError, match="not associative"):
            unit_table_associativity(table)


def test_wrong_exponent_fails_the_proof():
    table = [list(row) for row in UNIT_TABLE]
    sign, (ea, eb, eD), t = table[6][6]          # Jj * Jj = b D
    table[6][6] = (sign, (ea, eb, 0), t)
    with pytest.raises(ValueError, match="not associative"):
        unit_table_associativity(table)


def _associative_by_products(alg):
    """Reference: (e_p e_q) e_r = e_p (e_q e_r) by field products for
    every basis triple, as QuaternionAlgebra once checked on each
    construction."""
    e = [alg.basis_element(t) for t in range(alg.dim)]
    return all(alg.mul(alg.mul(e[p], e[q]), e[r])
               == alg.mul(e[p], alg.mul(e[q], e[r]))
               for p, q, r in product(range(alg.dim), repeat=3))


def _defining_relations(alg):
    """i^2 = a, j^2 = b, ij = -ji = k; J central with J^2 = D."""
    e = [alg.basis_element(t) for t in range(alg.dim)]
    one, i, j, k = e[:4]
    ok = alg.mul(i, i) == alg.scale(alg.a, one)
    ok &= alg.mul(j, j) == alg.scale(alg.b, one)
    ok &= alg.mul(i, j) == k
    ok &= alg.mul(j, i) == alg.scale(-1, k)
    if alg.dim == 8:
        J = e[4]
        ok &= alg.mul(J, J) == alg.scale(alg.D, one)
        ok &= all(alg.mul(J, x) == alg.mul(x, J) for x in e)
        ok &= all(alg.mul(J, e[t]) == e[4 + t] for t in range(4))
    return ok


def _algebra(gens, a, b, D):
    field = field_create(gens) if gens else QQ
    if gens:
        a = field.sqrt_gen(gens[0]) + field.rational(a)
    return QuaternionAlgebra(field, a, b, D)


# (field generators, a, b, D); with generators, a becomes sqrt(gens[0]) + a,
# so the third algebra has a = 1 + sqrt(-2)
ALGEBRAS = [
    ((), -3, -1, None),
    ((), Fraction(2, 3), Fraction(-5, 7), None),
    ((-2,), 1, Fraction(1, 3), None),
    ((), Fraction(-1, 2), 3, Fraction(5, 4)),
    ((), -3, 1, -2),
    ((-2, -3), Fraction(3, 5), Fraction(-7, 2), -7),
]


@pytest.mark.parametrize("gens,a,b,D", ALGEBRAS)
def test_table_product_matches_brute_force_reference(gens, a, b, D):
    alg = _algebra(gens, a, b, D)
    assert alg.dim == (4 if D is None else 8)
    assert _associative_by_products(alg)
    assert _defining_relations(alg)
    # and on general elements, not only basis triples
    F = alg.field
    x, y, z = ({t: F.rational(Fraction(s * (t + 1), t + 2))
                for t in range(alg.dim)} for s in (1, -2, 3))
    x = alg.combination((1, x), (alg.a, y))
    assert alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))


def _random_elements(alg, rng):
    """element(support): a random {unit: element} dict with no zero on
    part of the units in support, coefficients a rational times 1 or a
    generator's root."""
    F = alg.field
    units = [F.one()] + [F.monomial([i]) for i in range(F.k)]

    def element(support):
        out = {t: rng.choice(units) * F.rational(
                   Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
               for t in support if rng.random() >= 0.4}
        return {t: e for t, e in out.items() if not e.is_zero()}
    return element


@pytest.mark.parametrize("gens,a,b,D", ALGEBRAS)
def test_product_matches_pairwise_reference(gens, a, b, D):
    """The one-kernel product against one field product and sum per
    nonzero pair: on basis pairs, and on random sparse elements, with
    products that cancel in some coordinates (x * x is a scalar for x in
    the span of i, j, k) or everywhere (x * 0)."""
    alg = _algebra(gens, a, b, D)
    element = _random_elements(alg, random.Random(17))
    basis = [alg.basis_element(t) for t in range(alg.dim)]
    pairs = [(x, y) for x in basis for y in basis]
    for _ in range(30):
        x, y = element(range(alg.dim)), element(range(alg.dim))
        pure = element((1, 2, 3))
        pairs += [(x, y), (y, x), (pure, pure),
                  (x, alg.combination((1, x), (-1, x)))]
    for x, y in pairs:
        assert alg.mul(x, y) == pairwise_quaternion_mul(alg, x, y)


def _element_table(alg):
    """The structure constants as the algebra once stored them: every
    sign * a^ea * b^eb * D^eD a field element, built by field products."""
    F = alg.field
    out = []
    for row in UNIT_TABLE[:alg.dim]:
        out.append([])
        for sign, exps, t in row[:alg.dim]:
            c = F.rational(sign)
            for x, e in zip((alg.a, alg.b, alg.D), exps):
                for _ in range(e):
                    c = c * x
            out[-1].append((c, t))
    return out


@pytest.mark.parametrize("gens,a,b,D", ALGEBRAS + [
    ((), Fraction(-3, 2), -1, -2), ((-2,), Fraction(-3, 2), 3, -5)])
def test_integer_structure_constants_are_ints(gens, a, b, D):
    """A constant that is a rational integer is stored as an int, any
    other as a field element; each equals the element-built constant, and
    the product over the element table is the same."""
    alg = _algebra(gens, a, b, D)
    ref = _element_table(alg)
    kinds = set()
    for row, ref_row in zip(alg._table, ref):
        for (c, t), (want, ref_t) in zip(row, ref_row):
            assert t == ref_t and c == want
            integral = want.is_rational() and \
                want.as_fraction().denominator == 1
            assert (c.__class__ is int) == integral
            kinds.add(c.__class__)
    if (gens, a) == ((), Fraction(-3, 2)):
        assert kinds == {int, FieldElement}
    old = QuaternionAlgebra(alg.field, alg.a, alg.b, alg.D)
    old._table = ref
    element = _random_elements(alg, random.Random(41))
    for _ in range(20):
        x, y = element(range(alg.dim)), element(range(alg.dim))
        assert alg.mul(x, y) == old.mul(x, y) == \
            pairwise_quaternion_mul(old, x, y)


def test_integer_constants_multiply_no_numerators(monkeypatch):
    """With a, b and D integers every constant is an int, and a product
    of algebra elements scales numerators only."""
    alg, gens = e_a1_triples(-2, -3)
    assert all(c.__class__ is int for row in alg._table for c, _ in row)
    calls = Counter()
    monkeypatch.setattr(fields, "_mul_nums",
                        _counting(calls, "_mul_nums", fields._mul_nums))
    products = [alg.mul(gens[m], gens[n]) for m in GENERATOR_NAMES
                for n in GENERATOR_NAMES]
    assert any(products) and calls == {}


@pytest.mark.parametrize("gens,a,b,D", ALGEBRAS)
def test_sparse_algebra_matches_dense_reference(gens, a, b, D):
    """Sums and differences by combination, scale, mul and galois on
    random sparse elements against the dense tuple algebra: equal after
    densifying, and no zero kept."""
    alg = _algebra(gens, a, b, D)
    ref = DenseQuaternionAlgebra(alg)
    F = alg.field
    element = _random_elements(alg, random.Random(29))
    roots = [F.monomial([i]) for i in range(F.k)]
    scalars = [0, 1, -1, 2, Fraction(-3, 4), F.zero(), F.one(), alg.a,
               *(r + F.rational(Fraction(1, 3)) for r in roots)]

    def same(got, want):
        assert not [e for e in got.values() if e.is_zero()]
        assert set(got) <= set(range(alg.dim))
        assert ref.dense(got) == want

    for _ in range(20):
        x = element(range(alg.dim))
        y = element(range(alg.dim))
        dx, dy = ref.dense(x), ref.dense(y)
        same(alg.combination((1, x), (1, y)), ref.add(dx, dy))
        same(alg.combination((1, x), (-1, y)), ref.sub(dx, dy))
        same(alg.mul(x, y), ref.mul(dx, dy))
        for c in scalars:
            same(alg.scale(c, x), ref.scale(c, dx))
            same(alg.combination((c, x), (-2, y)),
                 ref.sub(ref.scale(c, dx), ref.scale(2, dy)))
        for g in F.galois_group():
            same(alg.galois(g, x), ref.galois(g, dx))
        assert alg.combination((1, x), (-1, x)) == {} == alg.scale(0, x)
        assert alg.combination((1, x), (1, alg.scale(-1, x))) == {}
        assert alg.mul(x, {}) == {} == alg.mul({}, y)
    assert alg.combination((1, {}), (1, {})) == {} == alg.combination()


def test_products_make_no_element_product_or_sum(rep, monkeypatch):
    """QuaternionAlgebra.mul, combination, scale and vanishes,
    ExactMatrix.__mul__ and combination, and phi run on the one kernel: no
    FieldElement product or sum is built for them."""
    alg, gens, _ = rep.e_a1
    elements = [gens[n] for n in GENERATOR_NAMES]
    mats = [rep.mu[n] for n in GENERATOR_NAMES] + [rep.gram, rep.B]
    vec = [rep.field.rational(t - 3) + rep.sa for t in range(8)]
    calls = Counter()
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__"):
        monkeypatch.setattr(FieldElement, name,
                            _counting(calls, name,
                                      getattr(FieldElement, name)))
    products = [alg.mul(x, y) for x in elements for y in elements]
    products += [alg.combination((1, x), (sign, y)) for sign in (1, -1)
                 for x in elements for y in elements]
    products += [alg.scale(c, x) for c in (2, -1) for x in elements]
    products += [alg.vanishes([(1, x, y), (-1, y, x), (2, x, None)])
                 for x in elements for y in elements]
    products += [m * n for m in mats for n in mats]
    products += [ExactMatrix.combination([(1, m, n), (-2, n, None)])
                 for m in mats for n in mats]
    products += [m * vec for m in mats] + [rep.phi(vec, vec)]
    assert products and calls == {}


def test_elimination_sets_each_lead_without_a_product(rep, monkeypatch):
    """A pivot row's lead becomes one without a product: det multiplies
    only the eight leads of the Gram matrix, whose rows hold one nonzero
    each, and the rref of that Gram matrix makes no product at all."""
    calls = Counter()
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(FieldElement, name,
                            _counting(calls, "mul",
                                      getattr(FieldElement, name)))
    for run, want in ((rep.gram.det, 8), (rep.gram.rref, 0),
                      (rep.B.inverse, 16)):
        calls.clear()
        run()
        assert calls["mul"] == want, run


# -- one build per rep --------------------------------------------------------

def _counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_rep_builds_e_a1_and_rational_model_once(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(quatrep, "e_a1_triples",
                        _counting(calls, "e_a1", quatrep.e_a1_triples))
    monkeypatch.setattr(AntiWeilRep, "_build_rational_model",
                        _counting(calls, "model",
                                  AntiWeilRep._build_rational_model))
    rep = build_antiweil_rep(-1, -2, -3)
    assert calls == {}
    assert rep.regenerate_galois_lie_table() == GALOIS_LIE_TABLE
    assert invariant_endomorphisms_dim(rep) == 2
    assert invariant_wedge2_dim(rep) == 1
    first = rep.rational_model()
    first["gram"][0][0] = 1         # a caller's copy, not the rep's model
    second, third = rep.rational_model(), rep.rational_model()
    assert second == third and second != first
    assert calls == {"e_a1": 1, "model": 1}
    # a second rep of the same parameters builds its own
    build_antiweil_rep(-1, -2, -3).rational_model()
    assert calls == {"e_a1": 2, "model": 2}


# -- the Galois checks against their per-vector references ------------------

def _galois_on_vector(rep, tag, vec):
    """Reference semilinear action on one f-coordinate vector."""
    g = rep.galois[tag]
    out = [apply_galois(g, c) for c in vec]
    if g.signs[rep._gen_index["g2"]] == -1:
        out = out[4:] + out[:4]
    return out


def _unit(F, t):
    return [F.one() if s == t else F.zero() for s in range(8)]


def _equivariance_by_vectors(rep):
    """Reference: g^{-1} mu(l) (g e_t) = mu(g^{-1} l) e_t one basis vector
    at a time, as verify_galois_equivariance once ran."""
    failures = []
    for tag in ("g1", "g2", "g3"):
        for name in GENERATOR_NAMES:
            sign, target = GALOIS_LIE_TABLE[tag][name]
            rhs_mat = rep.mu[target].scale(rep.field.rational(sign))
            for t in range(8):
                vec = _unit(rep.field, t)
                gv = _galois_on_vector(rep, tag, vec)
                lhs = _galois_on_vector(rep, tag, rep.mu[name] * gv)
                rhs = rhs_mat * vec
                if any(not (p - q).is_zero() for p, q in zip(lhs, rhs)):
                    failures.append((tag, name, t))
    return (not failures), failures


def _descent_by_pairs(rep):
    """Reference: phi(g u, g v) = g(phi(u, v)) on every ordered pair of
    basis vectors, as verify_symplectic once ran."""
    basis = [_unit(rep.field, t) for t in range(8)]
    return all((rep.phi(_galois_on_vector(rep, tag, u),
                        _galois_on_vector(rep, tag, v))
                - apply_galois(rep.galois[tag], rep.phi(u, v))).is_zero()
               for tag in ("g1", "g2", "g3")
               for u in basis for v in basis)


def _irreducible_by_ranks(rep):
    """Reference: J-line rank checks on the weight (1,1) and a rank test
    for each Galois image of each vector of the 16 side patterns, as
    verify_irreducibility once ran."""
    F = rep.field

    def vw_vector(label, side):
        return rep.B * _unit(F, rep.basis_labels.index(side + label))

    v, w = vw_vector("1,1", "v"), vw_vector("1,1", "w")
    for p, q, rank in ((1, 1, 2), (1, -1, 2), (2, 3, 2), (1, 0, 1), (0, 1, 1)):
        line = [F.rational(p) * a + F.rational(q) * b for a, b in zip(v, w)]
        if matrix_rank(ExactMatrix(F, [line, rep.J * line])) != rank:
            return False
    for sides in product("vw", repeat=4):
        span_vecs = [vw_vector(label, side)
                     for label, side in zip(WEIGHT_LABELS, sides)]
        if all(matrix_rank(ExactMatrix(
                F, span_vecs + [_galois_on_vector(rep, tag, vec)])) == 4
               for tag in ("g1", "g2", "g3") for vec in span_vecs):
            return False
    return True


def _seeded_triples(seed, count):
    """Negative (D', D, a) whose square roots generate a degree-8 field."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        triple = tuple(-rng.randint(1, 40) for _ in range(3))
        if len(sqrt_gens(*triple)) == 3 and triple not in out:
            out.append(triple)
    return out


def _agree_with_references(rep):
    assert rep.verify_galois_equivariance() == _equivariance_by_vectors(rep) \
        == equivariance_by_combinations(rep)
    assert rep.verify_symplectic()[1]["descent"] == _descent_by_pairs(rep) \
        == descent_by_combinations(rep)
    assert rep.verify_irreducibility() == _irreducible_by_ranks(rep)


@pytest.mark.parametrize("triple", [(-1, -2, -3)] + _seeded_triples(7, 6))
def test_galois_checks_match_references(triple):
    rep = build_antiweil_rep(*triple)
    _agree_with_references(rep)
    assert rep.verify_galois_equivariance() == (True, [])
    assert rep.verify_symplectic()[1]["descent"]
    assert rep.verify_irreducibility()


def test_perturbed_mu_fails_equivariance_like_reference():
    rep = build_antiweil_rep(-1, -2, -3)
    F = rep.field
    bump = [[rep.sa if (r, c) == (2, 5) else F.zero() for c in range(8)]
            for r in range(8)]
    rep.mu["x1"] = rep.mu["x1"] + ExactMatrix(F, bump)
    ok, failures = rep.verify_galois_equivariance()
    assert not ok and failures
    assert (ok, failures) == _equivariance_by_vectors(rep)


@pytest.mark.parametrize("root,r,c", [("sD", 0, 1), ("sa", 2, 5),
                                      (None, 0, 1)])
def test_perturbed_gram_fails_descent_like_reference(root, r, c):
    rep = build_antiweil_rep(-1, -2, -3)
    F = rep.field
    x = F.one() if root is None else getattr(rep, root)
    bump = [[F.zero()] * 8 for _ in range(8)]
    bump[r][c], bump[c][r] = x, -x
    rep.gram = rep.gram + ExactMatrix(F, bump)
    ok, checks = rep.verify_symplectic()
    assert checks["antisymmetric"]
    assert not ok and not checks["descent"]
    assert not _descent_by_pairs(rep)


def test_isotropy_reads_the_gram_of_the_rep():
    """isotropy asks G to pair f_1..f_4 only with fbar_1..fbar_4: an
    antisymmetric G pairing f_1 with f_2 fails it."""
    rep = build_antiweil_rep(-1, -2, -3)
    assert rep.verify_symplectic()[1]["isotropy"]
    rep.gram = ExactMatrix.from_rows(rep.field,
                                     [{1: 1}, {0: -1}] + [{}] * 6, 8)
    ok, checks = rep.verify_symplectic()
    assert checks["antisymmetric"]
    assert not ok and not checks["isotropy"]


def _symplectic_by_products(rep):
    """Reference: the symplectic identities as the products of both sides
    compared with ==, as verify_symplectic once ran."""
    F, G = rep.field, rep.gram
    identity = identity_matrix(F, 8)
    adjoint = rep.J.transpose() * G == -(G * rep.J)
    return {
        "antisymmetric": G.transpose() == G.scale(F.rational(-1)),
        "nondegenerate": not G.det().is_zero(),
        "descent": all(P.transpose() * G * P == G.galois(rep.galois[tag])
                       for tag in rep.galois
                       for P in [rep.galois_act(tag, identity)]),
        "infinitesimal": all(rep.mu[n].transpose() * G == -(G * rep.mu[n])
                             for n in GENERATOR_NAMES),
        "k_adjoint": adjoint, "central_invariance": adjoint}


def _bump(rep, r, c, x):
    """The 8x8 matrix with x at (r, c) and zeros elsewhere."""
    return ExactMatrix.from_rows(rep.field, [{c: x} if i == r else {}
                                             for i in range(8)], 8)


# each perturbation and the check it breaks
SYMPLECTIC_PERTURBATIONS = {
    "mu": (lambda rep: rep.mu.update(x1=rep.mu["x1"] + _bump(rep, 2, 5,
                                                              rep.sa)),
           "infinitesimal"),
    "J": (lambda rep: setattr(rep, "J", rep.J + _bump(rep, 0, 1,
                                                      rep.field.one())),
          "k_adjoint"),
    "gram": (lambda rep: setattr(rep, "gram", rep.gram + _bump(rep, 1, 3,
                                                               rep.sD)),
             "antisymmetric"),
}


@pytest.mark.parametrize("name", [None] + sorted(SYMPLECTIC_PERTURBATIONS))
def test_symplectic_checks_match_product_reference(name):
    """Each identity as one vanishing combination decides as both sides
    built and compared: on the true rep, and on a rep whose mu, J or Gram
    matrix is perturbed."""
    rep = build_antiweil_rep(-1, -2, -3)
    if name is not None:
        perturb, broken = SYMPLECTIC_PERTURBATIONS[name]
        perturb(rep)
    ok, checks = rep.verify_symplectic()
    want = _symplectic_by_products(rep)
    assert {k: checks[k] for k in want} == want
    if name is None:
        assert ok and all(want.values())
    else:
        assert not ok and not checks[broken]


# perturbations that keep every symplectic identity but break a premise of
# the weight-table route: G B = B^-T G_vw (G doubled) or mu_x1 B = B A_x1
# (mu_x1 doubled); the number of generators decided by the int identity
PREMISE_PERTURBATIONS = {
    "gram": (lambda rep: setattr(rep, "gram", rep.gram.scale(2)), 0),
    "mu": (lambda rep: rep.mu.update(x1=rep.mu["x1"].scale(2)), 5),
}


@pytest.mark.parametrize("name", sorted(PREMISE_PERTURBATIONS))
def test_broken_premise_falls_back_to_the_combination(name, weight_table,
                                                      monkeypatch):
    """Where a premise fails, infinitesimal invariance is the combination
    mu_l^T G + G mu_l, and every flag equals the product reference: the
    doubled G or mu_x1 is still invariant, while the brackets fail for
    the doubled mu_x1."""
    calls = Counter()
    monkeypatch.setattr(quatrep, "_keeps_gram_pattern", _counting(
        calls, "int", quatrep._keeps_gram_pattern))
    rep = build_antiweil_rep(-1, -2, -3)
    perturb, by_table = PREMISE_PERTURBATIONS[name]
    perturb(rep)
    ok, checks = rep.verify_symplectic()
    want = _symplectic_by_products(rep)
    assert {k: checks[k] for k in want} == want
    assert checks["infinitesimal"] and want["infinitesimal"]
    assert calls["int"] == by_table
    assert rep.verify_matrix_brackets() == (name != "mu")
    assert brackets_by_products(rep) == (name != "mu")


def test_flipped_weight_table_decides_invariance_like_products(
        weight_table):
    """A rep built from a weight table with a flipped sign keeps every
    premise, mu_l = B A_l B^-1 for the flipped A_l, and the int identity
    then decides infinitesimal invariance as the products do."""
    weight_table(_flipped_weight_matrices())
    rep = build_antiweil_rep(-1, -2, -3)
    assert len(rep._weight_actions) == len(GENERATOR_NAMES)
    want = _symplectic_by_products(rep)["infinitesimal"]
    assert rep.verify_symplectic()[1]["infinitesimal"] == want
    assert not want
    assert not quatrep._keeps_gram_pattern("x1")


def test_passing_identities_build_no_matrix_side(rep, monkeypatch):
    """The bracket, symplectic and Galois identities of a passing rep are
    evaluated as combinations: no ExactMatrix product of two matrices,
    sum, difference, negation or scaling is built for them."""
    calls = Counter()
    mul = ExactMatrix.__mul__

    def counted_mul(a, b):
        if isinstance(b, ExactMatrix):
            calls["__mul__"] += 1
        return mul(a, b)

    monkeypatch.setattr(ExactMatrix, "__mul__", counted_mul)
    for name in ("__add__", "__sub__", "__neg__", "scale"):
        monkeypatch.setattr(ExactMatrix, name,
                            _counting(calls, name, getattr(ExactMatrix,
                                                           name)))
    assert rep.verify_matrix_brackets()
    assert rep.verify_symplectic()[0]
    assert rep.verify_galois_equivariance() == (True, [])
    assert calls == {}


# -- the structured factors against the product routes ---------------------

@st.composite
def grid_matrices(draw):
    """A sparse 8x8 matrix over the field of a grid triple (D', D, a), and
    sqrt(D') in that field."""
    triple = draw(st.lists(st.sampled_from(NEG_SQUAREFREE), min_size=3,
                           max_size=3, unique=True))
    F = field_create(sqrt_gens(*triple))
    coords = st.dictionaries(st.sampled_from(F.subsets),
                             st.fractions(-9, 9, max_denominator=6),
                             max_size=3)
    cells = draw(st.dictionaries(st.integers(0, 63), coords, max_size=24))
    rows = [{} for _ in range(8)]
    for cell, c in cells.items():
        rows[cell // 8][cell % 8] = FieldElement(F, c)
    return ExactMatrix.from_rows(F, rows, 8), quatrep.sqrt_in(F, triple[0])


def _cells(m):
    return {8 * r + c: e for r, row in enumerate(m.nonzero)
            for c, e in row.items()}


@given(grid_matrices())
@settings(max_examples=60, deadline=None)
def test_block_sum_matches_products_with_u(drawn):
    """The signed block sum with the factors 1/2, s/2, 1/(2s), 1/2 is
    U^-1 M U, and with 1, s, s, s^2 it is U^T M U, for U = [[I, sI],
    [I, -sI]]."""
    m, s = drawn
    F = m.field
    U = descent_basis(F, s)
    half = F.rational(Fraction(1, 2))
    assert _block_sum(F, _cells(m),
                      ((half, s * half), ((s * 2).inverse(), half))) \
        == _cells(U.inverse() * m * U)
    assert _block_sum(F, _cells(m), ((F.one(), s), (s, s * s))) \
        == _cells(U.transpose() * m * U)


@pytest.mark.parametrize("triple", [(-1, -2, -3)] + _seeded_triples(23, 5))
def test_relabelled_build_matches_product_route(triple):
    """mu read off B with its columns relabelled equals B * A * B^-1, and
    the rational model from the signed block sums equals the one through
    U^-1 M U and U^T G U with solve-based unit coefficients."""
    rep = build_antiweil_rep(*triple)
    assert rep.mu == mu_by_products(rep)
    assert dense_model(rep.rational_model()) == rational_model_by_products(rep)


# (generator or None for the Gram matrix, row, column, bump)
CORRUPTIONS = [("x1", 2, 5, "sa"), ("h1", 0, 0, "one"), ("y2", 7, 3, "sD"),
               ("h2", 4, 1, "sDp"), (None, 0, 5, "one"), (None, 6, 2, "sa"),
               (None, 1, 3, "sD")]


@pytest.mark.parametrize("name,r,c,root", CORRUPTIONS)
def test_corrupted_entry_fails_like_combination_routes(name, r, c, root):
    """One corrupted mu or Gram entry gives the failures list and the
    descent flag of the combination routes."""
    rep = build_antiweil_rep(-1, -2, -3)
    x = rep.field.one() if root == "one" else getattr(rep, root)
    if name is None:
        rep.gram = rep.gram + _bump(rep, r, c, x)
    else:
        rep.mu[name] = rep.mu[name] + _bump(rep, r, c, x)
    ok, failures = rep.verify_galois_equivariance()
    assert (ok, failures) == equivariance_by_combinations(rep)
    assert ok == (name is None) and ok == (not failures)
    descent = rep.verify_symplectic()[1]["descent"]
    assert descent == descent_by_combinations(rep)
    assert descent == (name is not None)


def _grid_triples(seed, count):
    """count triples of distinct values of NEG_SQUAREFREE, shuffled by
    the seed, as the antiweil-grid benchmark draws them."""
    values = random.Random(seed).sample(NEG_SQUAREFREE, 3 * count)
    return [tuple(values[3 * t:3 * t + 3]) for t in range(count)]


@pytest.mark.parametrize("triple", [(-1, -2, -3)] + _grid_triples(3001, 5))
def test_conjugation_brackets_match_product_route(triple):
    """The six identities mu_l B = B A_l decide as the 30 products of the
    relations themselves."""
    rep = build_antiweil_rep(*triple)
    assert rep.verify_matrix_brackets()
    assert brackets_by_products(rep)


@pytest.mark.parametrize("name,r,c,root",
                         [x for x in CORRUPTIONS if x[0] is not None])
def test_corrupted_mu_fails_both_bracket_routes(name, r, c, root):
    rep = build_antiweil_rep(-1, -2, -3)
    x = rep.field.one() if root == "one" else getattr(rep, root)
    rep.mu[name] = rep.mu[name] + _bump(rep, r, c, x)
    assert not rep.verify_matrix_brackets()
    assert not brackets_by_products(rep)


def _flipped_weight_matrices():
    """A copy of WEIGHT_MATRICES with the sign of x1 on weight -1,-1 (row
    2, column 1) flipped: then [x1, y1] sends v1,-1 to -v1,-1, not to
    h1 v1,-1."""
    table = {n: [dict(row) for row in rows]
             for n, rows in quatrep.WEIGHT_MATRICES.items()}
    t, c = WEIGHT_LABELS.index("1,-1"), WEIGHT_LABELS.index("-1,-1")
    table["x1"][t][c] = -table["x1"][t][c]
    return table


def _sampled_triples(seed, count):
    """count distinct triples of distinct values of NEG_SQUAREFREE."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        triple = tuple(rng.sample(NEG_SQUAREFREE, 3))
        if triple not in out:
            out.append(triple)
    return out


@pytest.mark.parametrize("triple", _sampled_triples(3305, 20))
def test_nine_antiweil_checks_pass_on_grid_triples(triple):
    """The nine checks of the anti-Weil grid on seeded triples (D', D,
    a): the build, the brackets, Galois equivariance, the symplectic
    checks, irreducibility, the Galois Lie table, the explicit triples'
    brackets and the two invariant counts."""
    _, D, a = triple
    rep = build_antiweil_rep(*triple)
    assert rep.verify_matrix_brackets()
    assert rep.verify_galois_equivariance() == (True, [])
    assert rep.verify_symplectic()[0]
    assert rep.verify_irreducibility()
    assert rep.regenerate_galois_lie_table() == GALOIS_LIE_TABLE
    assert verify_e_a1_brackets(*e_a1_triples(D, a))
    assert invariant_endomorphisms_dim(rep) == 2
    assert invariant_wedge2_dim(rep) == 1


def test_weight_table_relations_run_once(weight_table, monkeypatch):
    calls = Counter()
    monkeypatch.setattr(quatrep, "sl2_relations_hold", _counting(
        calls, "relations", quatrep.sl2_relations_hold))
    rep = build_antiweil_rep(-1, -2, -3)
    assert calls == {}                       # not at import or build
    assert rep.verify_matrix_brackets() and rep.verify_matrix_brackets()
    assert build_antiweil_rep(-5, -7, -11).verify_matrix_brackets()
    assert calls == {"relations": 1}


def test_weight_table_counts_run_once(weight_table, monkeypatch):
    calls = Counter()
    monkeypatch.setattr(quatrep, "_invariant_counts", _counting(
        calls, "counts", quatrep._invariant_counts))
    reps = [build_antiweil_rep(-1, -2, -3), build_antiweil_rep(-5, -7, -11)]
    assert calls == {}                       # not at import or build
    for rep in reps:
        assert invariant_endomorphisms_dim(rep) == 2
        assert invariant_wedge2_dim(rep) == 1
        assert rep.verify_symplectic()[1]["nondegenerate"]
    assert quatrep.weight_table_counts() == (2, 1, 8)
    assert calls == {"counts": 1}


def _dense(rows):
    return [[row.get(c, 0) for c in range(8)] for row in rows]


def _dense_commutant(m):
    """The 64x64 matrix of X -> m X - X m on row-major X: entry ((i, j),
    (k, l)) is m[i][k] [j = l] - [i = k] m[l][j]."""
    return [[m[i][k] * (j == l) - (i == k) * m[l][j]
             for k in range(8) for l in range(8)]
            for i in range(8) for j in range(8)]


def _dense_wedge2(m):
    """The 28x28 matrix of m on ∧²V in the basis e_i ^ e_j, i < j: m e_i ^
    e_j + e_i ^ m e_j, with e_b ^ e_a = -e_a ^ e_b and e_a ^ e_a = 0."""
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    out = [[0] * len(pairs) for _ in pairs]
    for col, (i, j) in enumerate(pairs):
        for r in range(8):
            for p, q, x in ((r, j, m[r][i]), (i, r, m[r][j])):
                if x and p != q:
                    row = pairs.index((min(p, q), max(p, q)))
                    out[row][col] += x if p < q else -x
    return out


def test_weight_table_counts_match_sympy_ranks():
    """64, 28 and 0 plus or minus sympy's Matrix.rank of the same int
    systems, built densely here: the stacked commutant and ∧² systems of
    the six A_l and J_0, and G_0."""
    import sympy
    mats = [_dense(rows) for rows in
            [*quatrep.WEIGHT_MATRICES.values(), quatrep.SPLIT_PATTERN]]
    end = sum((_dense_commutant(m) for m in mats), [])
    wedge = sum((_dense_wedge2(m) for m in mats), [])
    assert (len(end), len(wedge)) == (448, 196)
    assert quatrep.weight_table_counts() == (
        64 - sympy.Matrix(end).rank(), 28 - sympy.Matrix(wedge).rank(),
        sympy.Matrix(_dense(quatrep.GRAM_PATTERN)).rank()) == (2, 1, 8)


@pytest.mark.parametrize("triple", _sampled_triples(3305, 20))
def test_invariant_dims_agree_on_both_routes_on_grid_triples(triple,
                                                            monkeypatch):
    """On the grid triples every premise holds, so the module functions
    read the weight table's counts; they equal the rational route over
    i, j, Ji and J and the ranks over all seven generators."""
    calls = Counter()
    monkeypatch.setattr(AntiWeilRep, "rational_invariant_dims", _counting(
        calls, "rational", AntiWeilRep.rational_invariant_dims))
    rep = build_antiweil_rep(*triple)
    dims = (invariant_endomorphisms_dim(rep), invariant_wedge2_dim(rep))
    assert calls == {}
    assert dims == rep.rational_invariant_dims() \
        == invariant_dims_over_all_units(rep) == (2, 1)


def _doubled_k(rep):
    rep._model["k"] = [{c: 2 * x for c, x in row.items()}
                       for row in rep._model["k"]]


# each change to a rep, whether the rational model is built before it, and
# the route the counts take: the weight table, the rational route, or the
# ValueError the model raises
PREMISE_BREAKS = {
    "intact": (lambda rep: None, False, "table"),
    # the model was built from the true mu, so only _weight_actions fails
    "mu_x1 bumped": (lambda rep: rep.mu.update(
        x1=rep.mu["x1"] + _bump(rep, 2, 5, rep.sa)), True, "rational"),
    "mu_x1 bumped before the model": (lambda rep: rep.mu.update(
        x1=rep.mu["x1"] + _bump(rep, 2, 5, rep.sa)), False,
        "j does not descend to Q"),
    # 2 sqrt(D') J_0 still descends, but J B = B sqrt(D') J_0 fails
    "J doubled": (lambda rep: setattr(rep, "J", rep.J.scale(2)), False,
                  "rational"),
    "k doubled": (_doubled_k, False, "the rational model breaks [i, j] = 2k"),
}


@pytest.mark.parametrize("name", sorted(PREMISE_BREAKS))
def test_broken_premise_takes_the_rational_route_or_raises(name,
                                                           weight_table,
                                                           monkeypatch):
    calls = Counter()
    monkeypatch.setattr(quatrep, "weight_table_counts", _counting(
        calls, "table", quatrep.weight_table_counts))
    monkeypatch.setattr(AntiWeilRep, "rational_invariant_dims", _counting(
        calls, "rational", AntiWeilRep.rational_invariant_dims))
    rep = build_antiweil_rep(-1, -2, -3)
    change, model_first, route = PREMISE_BREAKS[name]
    if model_first:
        rep.bracket_generators
    change(rep)
    for dim, want in ((invariant_endomorphisms_dim, 2),
                      (invariant_wedge2_dim, 1)):
        if route in ("table", "rational"):
            assert dim(rep) == want
        else:
            with pytest.raises(ValueError, match=re.escape(route)):
                dim(rep)
    assert calls == ({route: 2} if route in ("table", "rational") else {})


def test_nondegenerate_reads_the_gram_pattern_where_the_identity_holds(
        monkeypatch):
    """nondegenerate is the rank of G_0 while G B = B^-T G_vw holds, and
    G.det() != 0 once it fails: a doubled G is nondegenerate, a G of rank
    2 is not."""
    calls = Counter()
    monkeypatch.setattr(ExactMatrix, "det",
                        _counting(calls, "det", ExactMatrix.det))
    rep = build_antiweil_rep(-1, -2, -3)
    assert rep.verify_symplectic()[1]["nondegenerate"]
    assert calls == {}
    for gram, want in ((rep.gram.scale(2), True),
                       (ExactMatrix.from_rows(rep.field, [{1: 1}, {0: -1}]
                                              + [{}] * 6, 8), False)):
        rep.gram = gram
        assert rep.verify_symplectic()[1]["nondegenerate"] is want
    assert calls == {"det": 2}


def test_flipped_weight_sign_fails_the_brackets(weight_table, monkeypatch):
    """A flipped sign in the weight table fails the relations proof, for
    a rep built from the flipped table; a rep built from the true table
    fails the identity mu_l B = B A_l against the flipped one."""
    true_rep = build_antiweil_rep(-1, -2, -3)
    weight_table(_flipped_weight_matrices())
    assert not quatrep.weight_table_relations()
    rep = build_antiweil_rep(-1, -2, -3)
    assert not rep.verify_matrix_brackets()
    assert not brackets_by_products(rep)
    monkeypatch.setattr(quatrep, "weight_table_relations", lambda: True)
    assert not true_rep.verify_matrix_brackets()
    assert brackets_by_products(true_rep)


def test_flipped_weight_table_facts(weight_table):
    """The table facts proven on the flipped table: the relations fail,
    x1 breaks the Gram pattern and the ∧² count drops to 0."""
    weight_table(_flipped_weight_matrices())
    assert not quatrep.weight_table_relations()
    assert not quatrep._keeps_gram_pattern("x1")
    assert quatrep.weight_table_counts() == (2, 0, 8)


def test_true_table_facts_after_a_flipped_table():
    """Runs after test_flipped_weight_table_facts: once its weight_table
    fixture has put the true table back, no fact of the flipped table is
    left in a cache, and the true rep passes the brackets and the
    symplectic checks."""
    assert quatrep.weight_table_relations()
    assert quatrep.weight_table_counts() == (2, 1, 8)
    assert all(quatrep._keeps_gram_pattern(n) for n in GENERATOR_NAMES)
    rep = build_antiweil_rep(-1, -2, -3)
    assert rep.verify_matrix_brackets() and rep.verify_symplectic()[0]


def test_gram_pattern_identity_runs_once_per_generator(weight_table,
                                                       monkeypatch):
    """verify_symplectic on two reps evaluates the int identity A_l^T G_0
    + G_0 A_l = 0 once for each of the six generators, not once per rep:
    it is the only int row combination those calls make."""
    calls = Counter()
    monkeypatch.setattr(quatrep, "_rows_vanish", _counting(
        calls, "int", quatrep._rows_vanish))
    for triple in ((-1, -2, -3), (-5, -7, -11)):
        assert build_antiweil_rep(*triple).verify_symplectic()[0]
    assert calls == {"int": len(GENERATOR_NAMES)}


def test_flipped_weight_sign_fails_under_optimize_flag():
    """The flip of _flipped_weight_matrices, made in place in a process
    of its own, still fails the brackets under python -O."""
    code = ("from cmsweep import quatrep\n"
            "rows = quatrep.WEIGHT_MATRICES['x1']\n"
            "rows[2][1] = -rows[2][1]\n"
            "rep = quatrep.build_antiweil_rep(-1, -2, -3)\n"
            "print(rep.verify_matrix_brackets())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve()
                                          .parents[1] / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_non_integral_generator_keeps_the_invariant_dims():
    """A rational model whose generator J has non-integral entries (its
    rows halved, ±1/2) runs the clearing branch of the rational route's
    ranks and keeps the dimensions, as halving J changes no invariant."""
    rep = build_antiweil_rep(-1, -2, -3)
    rep._model["J"] = [{c: x * Fraction(1, 2) for c, x in row.items()}
                       for row in rep._model["J"]]
    assert all(type(x) is Fraction and x.denominator == 2
               for row in rational_module(rep).actions["J"]
               for x in row.values())
    assert rep.rational_invariant_dims() == (2, 1)


def test_structured_factors_build_no_generic_product(monkeypatch):
    """On (-1, -2, -3) the build makes 6 matrix products (the six mu, each
    one combination; the Gram matrix is one sum of products) and inverts
    B; the Galois check makes no product or combination, the bracket
    check 6 combinations, the symplectic check 3 (antisymmetry, the Gram
    identity G B = B^-T G_vw and J's adjointness: the six mu_l B = B A_l
    are read from the bracket check) and no matrix-vector product (its
    spot vectors are columns of B), and the rational model one product,
    so one combination, and one inverse (the unit coefficients')."""
    calls = Counter()
    mul = ExactMatrix.__mul__

    def counted_mul(a, b):
        calls["product" if isinstance(b, ExactMatrix) else "vector"] += 1
        return mul(a, b)

    monkeypatch.setattr(ExactMatrix, "__mul__", counted_mul)
    monkeypatch.setattr(ExactMatrix, "inverse",
                        _counting(calls, "inverse", ExactMatrix.inverse))
    monkeypatch.setattr(ExactMatrix, "combination", staticmethod(
        _counting(calls, "combination", ExactMatrix.combination)))
    rep = build_antiweil_rep(-1, -2, -3)
    assert calls == {"product": 6, "combination": 6, "inverse": 1}
    for run, want in ((rep.verify_galois_equivariance, {}),
                      (rep.verify_matrix_brackets, {"combination": 6}),
                      (rep.verify_symplectic, {"combination": 3}),
                      (rep.rational_model,
                       {"product": 1, "combination": 1, "inverse": 1})):
        calls.clear()
        run()
        assert calls == want, run


def test_phi_matches_the_dense_form_on_random_vectors(rep):
    """phi(u, v), one sum over the nonzeros of G, equals u^T (G v) summed
    entry by entry over the dense Gram matrix, on random vectors with
    zero, rational and irrational entries."""
    F = rep.field
    pool = [F.zero(), F.one(), rep.sDp, rep.sD * rep.sa,
            F.rational(Fraction(-3, 4)) + rep.sa]
    rng = random.Random(3406)
    for _ in range(20):
        u, v = ([rng.choice(pool) * F.rational(rng.randint(-5, 5))
                 for _ in range(8)] for _ in range(2))
        Gv = [sum((x * y for x, y in zip(row, v)), F.zero())
              for row in rep.gram.entries]
        assert rep.phi(u, v) == sum((x * y for x, y in zip(u, Gv)),
                                    F.zero())

def test_trivial_galois_action_leaves_a_stable_pattern():
    rep = build_antiweil_rep(-1, -2, -3)
    trivial = GaloisElement((1, 1, 1))
    rep.galois = {tag: trivial for tag in rep.galois}
    assert not rep.verify_irreducibility()
    assert not _irreducible_by_ranks(rep)
    _agree_with_references(rep)


@pytest.mark.parametrize("triple", [(-1, -2, -3)] + _seeded_triples(13, 9))
def test_solve_free_steps_match_solve_references(triple):
    rep = build_antiweil_rep(*triple)
    assert rep._unit_coefficients().transpose().entries == \
        solve_unit_coefficients(rep)
    assert rep.regenerate_galois_lie_table() == solve_galois_lie_table(rep) \
        == GALOIS_LIE_TABLE


def _altered_e_a1(name, change):
    """An e_a1 in place of AntiWeilRep's whose generator `name` is changed
    by change(alg, element); the span, and so the rational model, keeps
    the true generators."""
    build = AntiWeilRep.e_a1.func

    def e_a1(self):
        alg, gens, span = build(self)
        return alg, dict(gens, **{name: change(alg, gens[name])}), span
    return property(e_a1)


ALTERATIONS = {
    # g1 x1 = -y2 is then not +-2 x1 and g1 y2 = -x1 not +-x1'
    "doubled": lambda alg, g: alg.scale(2, g),
    # the J component leaves the span, so a solve finds no coordinates
    "off-span": lambda alg, g: alg.combination((1, g),
                                               (1, alg.basis_element(4))),
}


@pytest.mark.parametrize("alteration", sorted(ALTERATIONS))
def test_altered_generator_fails_the_lie_table(monkeypatch, alteration):
    monkeypatch.setattr(AntiWeilRep, "e_a1",
                        _altered_e_a1("x1", ALTERATIONS[alteration]))
    table = build_antiweil_rep(-1, -2, -3).regenerate_galois_lie_table()
    assert table["g1"]["x1"] is None and table["g3"]["x1"] is None
    assert table != GALOIS_LIE_TABLE
    # the section keeps its records: the changed generator fails its
    # checks and the Lie table reads FAIL, and nothing raises
    from cmsweep.cli import _run_antiweil_verify
    verdicts = {r["case_id"]: r["verdict"] for r in _run_antiweil_verify()}
    assert verdicts["galois-lie-table-fidelity"] == "FAIL"
    assert verdicts["algebra-brackets-15"] == "FAIL"
    assert verdicts["rational-invariant-dims"] == "OK"


def test_antiweil_chain_makes_no_solve_call(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("ExactMatrix.solve called")
    monkeypatch.setattr(ExactMatrix, "solve", refuse)
    from cmsweep.cli import main
    assert main(["antiweil-verify"]) == 0
    capsys.readouterr()


def test_rational_module_stores_no_zeros(rep):
    model = rep.rational_model()
    module = rational_module(rep)
    for name, act in module.actions.items():
        assert act == model[name]
        assert all(x for row in act for x in row.values())
        assert all(x for row in model[name] for x in row.values())
    # the model keeps only the nonzeros of a matrix that has zeros
    assert any(x == 0 for row in dense_model(model)["i"] for x in row)
    # rational_model() still hands out fresh copies
    r, c = next((r, c) for r, row in enumerate(model["i"]) for c in row)
    model["i"][r][c] += 1
    assert rep.rational_model()["i"][r][c] == model["i"][r][c] - 1


def _irrational_J(rep):
    rep.J = quatrep._split_scalar(rep.field, rep.sD)


def _unit_component(rep):
    alg, gens, span = rep.e_a1
    rows = [row[:] for row in span.entries]
    rows[0][0] = alg.field.one()
    rep.__dict__["e_a1"] = (alg, gens, ExactMatrix(alg.field, rows))


def _irrational_gram(rep):
    F = rep.field
    rep.gram = rep.gram.scale(rep.sD) + identity_matrix(F, 8)


@pytest.mark.parametrize("corrupt,message", [
    (_irrational_J, "J does not descend to Q"),
    (_unit_component, "a generator has a 1 or J component"),
    (_irrational_gram, "the Gram matrix does not descend to Q"),
])
def test_rational_model_checks_raise_value_error(corrupt, message):
    rep = build_antiweil_rep(-1, -2, -3)
    corrupt(rep)
    with pytest.raises(ValueError, match=message):
        rep.rational_model()


def test_rational_model_checks_survive_optimize_flag():
    """Under python -O the descent check still refuses a J that does not
    descend to Q."""
    code = ("from cmsweep import quatrep\n"
            "rep = quatrep.build_antiweil_rep(-1, -2, -3)\n"
            "rep.J = quatrep._split_scalar(rep.field, rep.sD)\n"
            "try:\n"
            "    quatrep.invariant_wedge2_dim(rep)\n"
            "except ValueError as exc:\n"
            "    print('refused:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve()
                                          .parents[1] / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "refused: J does not descend to Q\n"


@pytest.mark.parametrize("params, name", [
    ((5, -2, -3), "D'"), ((-1, 2, -3), "D"), ((-1, -2, 0), "a")])
def test_antiweil_rep_rejects_nonnegative_parameters(params, name):
    with pytest.raises(ValueError, match=f"^{name} = "):
        AntiWeilRep(*params)


def test_input_checks_survive_optimize_flag():
    """Under python -O a positive D', a ragged matrix, a sparse row with a
    column out of range, a Galois sign other than ±1, the square-free
    part of 0 and an all-zero x for the weight-1 family check are still
    refused, with the offending parameter named."""
    code = ("from cmsweep.fields import QQ, ExactMatrix, GaloisElement\n"
            "from cmsweep.positivity import weil_family_check\n"
            "from cmsweep.quatrep import AntiWeilRep, squarefree_split\n"
            "for make in (lambda: AntiWeilRep(5, -2, -3),\n"
            "             lambda: ExactMatrix(QQ, [[1, 2], [3]]),\n"
            "             lambda: ExactMatrix.from_rows(QQ, [{2: 1}], 2),\n"
            "             lambda: GaloisElement((1, 0)),\n"
            "             lambda: squarefree_split(0),\n"
            "             lambda: weil_family_check([0, 0, 0, 0])):\n"
            "    try:\n"
            "        make()\n"
            "    except ValueError as exc:\n"
            "        print('refused:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve()
                                          .parents[1] / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == ("refused: D' = 5 is not negative\n"
                          "refused: matrix rows have different lengths\n"
                          "refused: column 2 is outside range(2)\n"
                          "refused: Galois signs (1, 0) are not all +1 or "
                          "-1\n"
                          "refused: 0 has no square-free part\n"
                          "refused: all components are zero\n")


def test_antiweil_walkthrough_demo_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, str(root / "demos" / "antiweil_walkthrough.py")],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert any("irreducibility" in line for line in lines)
    assert not [line for line in lines if "False" in line]


def _grid_demo():
    path = Path(__file__).resolve().parents[1] / "demos" / "antiweil_grid.py"
    spec = importlib.util.spec_from_file_location("antiweil_grid", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def test_antiweil_grid_demo_counts_triples_and_names_failing_checks(
        monkeypatch, capsys):
    demo = _grid_demo()
    assert demo.NEG_SQUAREFREE == NEG_SQUAREFREE
    assert demo.main(["--limit", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("2 triples, 0 failing, ")
    monkeypatch.setattr(quatrep, "invariant_wedge2_dim", lambda rep: 0)
    monkeypatch.setattr(quatrep, "verify_symplectic",
                        lambda rep: 1 / 0)
    assert demo.main(["--limit", "1"]) == 1
    first = demo.NEG_SQUAREFREE[:3]
    assert capsys.readouterr().out.splitlines()[0] == (
        f"{first}: symplectic (ZeroDivisionError: division by zero), "
        "wedge2-dim")
    # a count below 1 checks nothing, so it is a usage error
    for limit in ("0", "-5810"):
        with pytest.raises(SystemExit) as exit_:
            demo.main(["--limit", limit])
        assert exit_.value.code == 2
        assert "need at least 1 triple" in capsys.readouterr().err
