"""Weight modules, invariant tensors, and the dimension-4 classification."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cmsweep.fields import QQ, ExactMatrix, rational_kernel, rational_rank
from cmsweep.liereps import (WeightModule, _vanishes,
                             classify_dim4_faithful, commutant_rows,
                             external_product,
                             invariant_space, search_dim, sl2_irrep,
                             sl2_relations_hold, sl4_basis, sp4_basis,
                             sp4_standard_module, tensor_module,
                             wedge2_module, weyl_dim)
from helpers import (dense_rows, dual_module,
                     invariant_space_over_all_generators, matrix_rank,
                     weil_layer_identity)

ROOT = Path(__file__).resolve().parents[1]


def test_weyl_dim_values():
    assert weyl_dim("A1", 3) == 4
    assert weyl_dim("B2", 0, 1) == 4
    assert weyl_dim("B2", 1, 0) == 5
    assert weyl_dim("A2", 1, 1) == 8      # adjoint
    assert weyl_dim("G2", 1, 0) == 7
    assert weyl_dim("A3", 1, 0, 0) == 4
    assert weyl_dim("A3", 0, 1, 0) == 6


def test_search_dim():
    assert search_dim("A2", 4)["solutions"] == []
    assert search_dim("G2", 4)["solutions"] == []
    assert search_dim("A1", 4)["solutions"] == [(3,)]
    assert search_dim("B2", 4)["solutions"] == [(0, 1)]


def test_classification_dim4():
    res = classify_dim4_faithful()
    assert [r["algebra_type"] for r in res] == ["A1", "A1xA1", "B2", "A3"]
    assert res[2]["highest_weight"] == (0, 1)
    assert [r["highest_weight"] for r in res] == [(3,), (1, 1), (0, 1),
                                                  (1, 0, 0)]
    assert all(r["ok"] for r in res)
    assert [r["weight_module"].dim for r in res] == [4] * 4


def test_sl2_irrep_and_sl4_basis_hold_ints():
    mats = [*sl2_irrep(3).actions.values(), *sl4_basis()]
    assert all(type(x) is int for m in mats for row in m
               for x in row.values())


def _assert_annihilated(w, vec):
    for name in w.generator_names():
        img = w.act(name, vec)
        assert all(x == 0 for x in img), name


def test_invariant_wedge2_v3():
    w = wedge2_module(sl2_irrep(3))
    inv = invariant_space(w)
    assert len(inv) == 1
    support = {lab: c for lab, c in zip(w.basis_labels, inv[0]) if c != 0}
    ratio = support["v0^v3"] / support["v1^v2"]
    assert ratio == -3  # proportional to 3 v0^v3 - v1^v2
    _assert_annihilated(w, inv[0])


def test_invariant_tensor_square_v1xv1():
    prod = external_product(sl2_irrep(1), sl2_irrep(1))
    # the invariant bilinear form lives in the tensor square and is
    # symmetric: the wedge square has no invariant at all
    assert invariant_space(wedge2_module(prod)) == []
    w = tensor_module(prod, prod)
    inv = invariant_space(w)
    assert len(inv) == 1
    support = {lab: c for lab, c in zip(w.basis_labels, inv[0]) if c != 0}
    assert len(support) == 4
    signs = {lab: c / abs(c) for lab, c in support.items()}
    # product of the two epsilon forms: sign = parity of swapped factors
    assert sorted(signs.values()) == [-1, -1, 1, 1]
    _assert_annihilated(w, inv[0])


def test_invariant_wedge2_sp4():
    w = wedge2_module(sp4_standard_module())
    inv = invariant_space(w)
    assert len(inv) == 1
    support = {lab: c for lab, c in zip(w.basis_labels, inv[0]) if c != 0}
    assert support["e1^e3"] == support["e2^e4"]
    assert set(support) == {"e1^e3", "e2^e4"}
    _assert_annihilated(w, inv[0])


def test_sp4_basis_dimension():
    assert len(sp4_basis()) == 10


def _random_unimodular(n, rng, steps=8):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for t in range(n):
            m[i][t] += c * m[j][t]
    return m


def weil_wedge_fixed_by_block_sl(block_dims, samples=20, seed=0,
                                 blocks=None) -> bool:
    """For block-diagonal matrices whose blocks have determinant 1, the
    induced action on the direct sum of per-block top wedges is the
    identity.  Checked exactly on sampled random unimodular blocks (or on
    the given blocks)."""
    n = block_dims[0]
    assert all(d == n for d in block_dims)
    rng = random.Random(seed)
    runs = ([blocks] if blocks is not None else
            [[_random_unimodular(n, rng) for _ in block_dims]
             for _ in range(samples)])
    for blist in runs:
        assert len(blist) == len(block_dims)
        # top wedge of an n x n block is multiplication by its determinant
        if any(ExactMatrix(QQ, b).det() != 1 for b in blist):
            return False
    return True


def test_block_sl_fixes_top_wedges():
    assert weil_wedge_fixed_by_block_sl((2, 2, 2, 2), samples=20, seed=1)
    bad = [[[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]] * 4
    assert not weil_wedge_fixed_by_block_sl((2, 2, 2, 2), blocks=bad)


def test_weil_layer_identity_all_divisor_chains():
    chains = [(dk, d) for dk in (1, 2, 4, 8) for d in (1, 2, 4, 8)
              if dk % d == 0 and 8 % dk == 0]
    assert len(chains) == 10
    for deg_K, deg_k in chains:
        assert weil_layer_identity(deg_K, deg_k, 8)


def test_weil_layer_identity_rejects_bad_input():
    with pytest.raises(AssertionError):
        weil_layer_identity(3, 2, 8)


def _rep_classify_modules():
    """The three modules whose invariants rep-classify records."""
    module = {entry["algebra_type"]: entry["weight_module"]
              for entry in classify_dim4_faithful()}
    return [wedge2_module(module["A1"]),
            tensor_module(module["A1xA1"], module["A1xA1"]),
            wedge2_module(module["B2"])]


def test_invariant_space_of_rep_classify_matches_all_generators():
    for w in _rep_classify_modules():
        assert invariant_space(w) == invariant_space_over_all_generators(w)


@st.composite
def sl2_products(draw):
    """Tensor, wedge and external products of sl2_irrep(m), m <= 3, one
    or two levels deep."""
    irrep = st.integers(0, 3).map(sl2_irrep)
    kind = draw(st.sampled_from(["tensor", "wedge", "external",
                                 "wedge-external", "tensor-wedge"]))
    a, b = draw(irrep), draw(irrep)
    if kind == "tensor":
        return tensor_module(a, b)
    if kind == "wedge":
        return wedge2_module(a)
    if kind == "external":
        return external_product(a, b)
    if kind == "wedge-external":
        return wedge2_module(external_product(sl2_irrep(1), b))
    return tensor_module(wedge2_module(a), wedge2_module(b))


@given(sl2_products())
@settings(max_examples=40, deadline=None)
def test_invariant_space_skipping_h_matches_all_generators(w):
    """Leaving out the h of each triple, which is [x, y], keeps the
    kernel and so its basis."""
    assert invariant_space(w) == invariant_space_over_all_generators(w)


def test_invariant_space_of_zero_actions_is_everything():
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    for actions in ([("a", zero), ("b", zero)], []):
        w = WeightModule(["e0", "e1", "e2"], actions, [])
        assert invariant_space(w) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _element_built(rows):
    """The rows as one QQ ExactMatrix built cell by cell, the way the
    kernels and ranks were computed before they took integer rows."""
    return ExactMatrix(QQ, [[QQ.rational(x) for x in row] for row in rows])


def _element_built_kernel(rows):
    return [[x.as_fraction() for x in v] for v in _element_built(rows).kernel()]


@st.composite
def fraction_modules(draw):
    """Modules with 1-3 generators of random Fraction matrices: mixed
    denominators, sparse rows and whole zero rows."""
    dim = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
    row = st.one_of(st.just([Fraction(0)] * dim),
                    st.lists(entry, min_size=dim, max_size=dim))
    mats = draw(st.lists(st.lists(row, min_size=dim, max_size=dim),
                         min_size=1, max_size=3))
    return WeightModule([f"e{i}" for i in range(dim)],
                        [(f"g{t}", m) for t, m in enumerate(mats)], [])


@given(fraction_modules())
@settings(max_examples=150, deadline=None)
def test_invariant_space_matches_element_built_kernel(w):
    stacked = [row for name in w.generator_names() for row in w.actions[name]]
    dense = dense_rows(stacked, w.dim)
    got = invariant_space(w)
    assert got == _element_built_kernel(dense)
    assert rational_kernel(stacked, w.dim) == rational_kernel(dense, w.dim) \
        == got
    assert rational_rank(stacked) == matrix_rank(_element_built(dense))
    assert all(x for row in stacked for x in row.values())
    for v in got:
        assert all(type(x) is Fraction for x in v)
        _assert_annihilated(w, v)


@st.composite
def int_or_fraction_rows(draw):
    """1-6 rows of plain ints, Fractions or both, with whole zero rows."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
    row = st.one_of(st.just([0] * ncols),
                    st.lists(entry, min_size=ncols, max_size=ncols))
    return draw(st.lists(row, min_size=1, max_size=6)), ncols


@given(int_or_fraction_rows())
@settings(max_examples=150, deadline=None)
def test_rational_kernel_and_rank_match_element_built(case):
    rows, ncols = case
    kernel = rational_kernel(rows, ncols)
    assert kernel == _element_built_kernel(rows)
    assert all(type(x) is Fraction for v in kernel for x in v)
    assert rational_rank(rows) == matrix_rank(_element_built(rows))
    assert rational_rank(rows) + len(kernel) == ncols


def test_rational_kernel_of_no_rows_is_the_standard_basis():
    assert rational_kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rational_kernel([[0, 0, 0]], 3) == rational_kernel([], 3)
    assert rational_rank([]) == 0


# -- the one sl(2)-relations check, on the three element types it serves ----

def _row_combination(*pairs):
    """sum c * a over the (c, a) pairs of {col: value} rows."""
    out = [{} for _ in pairs[0][1]]
    for c, a in pairs:
        for acc, row in zip(out, a):
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + c * x
    return [{j: x for j, x in acc.items() if x} for acc in out]


def _relations_case(kind):
    """Two commuting sl(2) triples of one element type, with the type's
    vanishing test and its linear combination sum c * a over (c, a)
    pairs."""
    from cmsweep.quatrep import (TRIPLE_NAMES, _vanishes as mat_vanishes,
                                 build_antiweil_rep, e_a1_triples)
    if kind == "quaternion":
        alg, gens = e_a1_triples(-2, -3)
        return ([[gens[n] for n in t] for t in TRIPLE_NAMES],
                alg.vanishes, alg.combination)
    if kind == "exact-matrix":
        mu = build_antiweil_rep(-1, -2, -3).mu
        return ([[mu[n] for n in t] for t in TRIPLE_NAMES], mat_vanishes,
                lambda *pairs: ExactMatrix.combination(
                    (c, a, None) for c, a in pairs))
    w = external_product(sl2_irrep(1), sl2_irrep(1))
    return ([[w.actions[n] for n in t] for t in w.triples],
            _vanishes, _row_combination)


RELATION_KINDS = ("quaternion", "exact-matrix", "fraction-lists")


@pytest.mark.parametrize("kind", RELATION_KINDS)
def test_sl2_relations_hold_on_commuting_triples(kind):
    triples, vanishes, _ = _relations_case(kind)
    assert sl2_relations_hold(triples, vanishes)
    assert all(sl2_relations_hold([t], vanishes) for t in triples)
    assert sl2_relations_hold([], vanishes)


@pytest.mark.parametrize("kind", RELATION_KINDS)
def test_sl2_relations_fail_on_one_broken_relation(kind):
    triples, vanishes, combine = _relations_case(kind)
    (h, x, y), second = triples
    x_plus_y = combine((1, x), (1, y))

    # each mutant breaks exactly one relation: [h, x+y] = 2x - 2y is not
    # 2(x+y) while [x+y, y] = h; [h, x+y] is not -2(x+y) while
    # [x, x+y] = h; [x, 0] = 0 is not h while [h, 0] = -2 * 0
    for mutant in ((h, x_plus_y, y), (h, x, x_plus_y),
                   (h, x, combine((0, y)))):
        assert not sl2_relations_hold([mutant], vanishes)
        assert not sl2_relations_hold([mutant, second], vanishes)
    # a triple does not commute with itself
    assert not sl2_relations_hold([triples[0], triples[0]], vanishes)


@pytest.mark.parametrize("kind", RELATION_KINDS)
def test_sl2_relations_fail_on_one_non_commuting_cross_pair(kind):
    triples, vanishes, _ = _relations_case(kind)
    for a in triples[0]:
        for b in triples[1]:
            def skewed(terms, a=a, b=b):
                # the product of a by b alone gains a term, so a and b no
                # longer commute; the triples' own brackets are untouched
                return vanishes(list(terms) + [
                    (c, a, None) for c, p, q in terms if p is a and q is b])

            assert not sl2_relations_hold(triples, skewed)


def test_weight_module_rejects_broken_relations():
    v1 = sl2_irrep(1)
    zero = [{} for _ in v1.actions["y"]]
    with pytest.raises(ValueError, match="sl\\(2\\) relations"):
        WeightModule(v1.basis_labels, dict(v1.actions, y=zero),
                     v1.triples)


def test_relations_check_survives_optimize_flag():
    """The relations check is no assert: under python -O a module whose
    y acts by zero is still refused."""
    code = ("from cmsweep.liereps import WeightModule, sl2_irrep\n"
            "v1 = sl2_irrep(1)\n"
            "try:\n"
            "    WeightModule(v1.basis_labels, dict(v1.actions, y=[{}, {}]),\n"
            "                 v1.triples)\n"
            "except ValueError as exc:\n"
            "    print('refused:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("refused:")


def _dense_action(m, n):
    return [[row.get(j, 0) for j in range(n)] for row in m]


def _dense_tensor(a, b):
    """a (x) 1 + 1 (x) b from the dense factors, cell by cell."""
    na, nb = len(a), len(b)
    return [[(a[i2][i] if j == j2 else 0) + (b[j2][j] if i == i2 else 0)
             for i in range(na) for j in range(nb)]
            for i2 in range(na) for j2 in range(nb)]


def _dense_wedge(a):
    """The action on e_i ^ e_j, i < j, from the images of its factors."""
    n = len(a)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cols = []
    for i, j in pairs:
        col = dict.fromkeys(pairs, 0)
        for k in range(n):
            for (p, q), c in (((k, j), a[k][i]), ((i, k), a[k][j])):
                if c and p != q:
                    col[(p, q) if p < q else (q, p)] += c if p < q else -c
        cols.append([col[p] for p in pairs])
    return [list(r) for r in zip(*cols)]


@given(fraction_modules(), st.data())
@settings(max_examples=100, deadline=None)
def test_commutant_rows_match_the_dense_end_action(w, data):
    """Row for row the dense m ⊗ 1 + 1 ⊗ (-m^T), with no zero stored and
    ints kept as ints; applied to a random X, row (i, j) gives
    (m X - X m)[i][j]."""
    n = w.dim
    mats = [w.actions[name] for name in w.generator_names()]
    got = commutant_rows(mats, n)
    want = []
    for m in mats:
        a = _dense_action(m, n)
        want += _dense_tensor(a, [[-x for x in col] for col in zip(*a)])
    assert dense_rows(got, n * n) == want
    assert all(x for row in got for x in row.values())
    if all(type(x) is int for m in mats for row in m for x in row.values()):
        assert all(type(x) is int for row in got for x in row.values())
    X = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=n,
                                    max_size=n), min_size=n, max_size=n))
    flat = [x for row in X for x in row]
    rows = iter(got)
    for m in mats:
        a = _dense_action(m, n)
        for i in range(n):
            for j in range(n):
                value = sum(x * flat[c] for c, x in next(rows).items())
                assert value == sum(a[i][k] * X[k][j] - X[i][k] * a[k][j]
                                    for k in range(n))


def test_commutant_rows_of_the_identity_vanish():
    eye = [{i: 1} for i in range(3)]
    assert commutant_rows([eye], 3) == [{}] * 9
    assert commutant_rows([], 3) == []


@pytest.mark.parametrize("build", ["V(3)", "V(1)xV(1)", "sp4"])
def test_sparse_constructions_match_dense_references(build):
    w = {"V(3)": lambda: sl2_irrep(3),
         "V(1)xV(1)": lambda: external_product(sl2_irrep(1), sl2_irrep(1)),
         "sp4": sp4_standard_module}[build]()
    n = w.dim
    dual = dual_module(w)
    tensor = tensor_module(w, dual)
    wedge = wedge2_module(w)
    for name, m in w.actions.items():
        a = _dense_action(m, n)
        minus_t = [[-x for x in col] for col in zip(*a)]
        assert _dense_action(dual.actions[name], n) == minus_t
        assert _dense_action(tensor.actions[name], n * n) == \
            _dense_tensor(a, minus_t)
        assert _dense_action(wedge.actions[name], wedge.dim) == \
            _dense_wedge(a)
        for mod in (w, dual, tensor, wedge):
            assert all(x for row in mod.actions[name] for x in row.values())


BAD_INPUTS = {
    "sl2_irrep": (lambda: sl2_irrep(-1), "m >= 0, not -1"),
    "tensor_names": (lambda: tensor_module(sl2_irrep(1),
                                           sp4_standard_module()),
                     "generator names"),
    "tensor_triples": (lambda: tensor_module(
        sl2_irrep(1), WeightModule(["v0", "v1"], sl2_irrep(1).actions,
                                   [])), "triples"),
    "weyl_dim": (lambda: weyl_dim("A1", -1), "negative entry"),
    "search_dim": (lambda: search_dim("A1", 0), "below 1"),
    "search_dim_type": (lambda: search_dim("D4", 4),
                        "unknown algebra type 'D4', not one of A1, A2, B2, "
                        "G2, A3"),
    "weyl_dim_arity": (lambda: weyl_dim("B2", 1),
                       "a highest weight of B2 has 2 entries, not 1"),
    "weyl_dim_fraction": (lambda: weyl_dim("A1", 2.5),
                          r"highest weight \(2.5,\) has a non-integral"),
    "weyl_dim_fractions": (lambda: weyl_dim("B2", 0.9, 1.2),
                           r"highest weight \(0.9, 1.2\) has a "
                           "non-integral"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_inputs_raise_value_error(name):
    make, message = BAD_INPUTS[name]
    with pytest.raises(ValueError, match=message):
        make()


def test_weyl_dim_refuses_a_product_its_denominator_does_not_divide(
        monkeypatch):
    """The quotient is an exact divmod: a remainder raises, where an int
    division would round it away."""
    from cmsweep import liereps
    monkeypatch.setitem(liereps._WEYL_FORMS, "A1", (lambda m: m + 1, 2))
    assert weyl_dim("A1", 1) == 1
    with pytest.raises(ValueError, match=r"A1\(2,\) is not divisible by 2"):
        weyl_dim("A1", 2)


def test_input_checks_survive_optimize_flag():
    """Under python -O a negative highest weight, mismatched tensor
    factors, a target dimension below 1, an unknown algebra type, a
    weight of the wrong length and non-integral weights are still
    refused, where an assert would let weyl_dim("A1", -1) return 0 and
    sl2_irrep(-1) build a 0-dimensional module, and truncating each entry
    would let weyl_dim("A1", 2.5) return 3."""
    code = ("from cmsweep.liereps import (WeightModule, search_dim,\n"
            "    sl2_irrep, sp4_standard_module, tensor_module, weyl_dim)\n"
            "v1 = sl2_irrep(1)\n"
            "bare = WeightModule(v1.basis_labels, v1.actions, [])\n"
            "for make in (lambda: sl2_irrep(-1),\n"
            "             lambda: tensor_module(v1, sp4_standard_module()),\n"
            "             lambda: tensor_module(v1, bare),\n"
            "             lambda: weyl_dim('A1', -1),\n"
            "             lambda: search_dim('A1', 0),\n"
            "             lambda: search_dim('D4', 4),\n"
            "             lambda: weyl_dim('B2', 1),\n"
            "             lambda: weyl_dim('A1', 2.5),\n"
            "             lambda: weyl_dim('B2', 0.9, 1.2)):\n"
            "    try:\n"
            "        print('accepted:', make())\n"
            "    except ValueError as exc:\n"
            "        print('refused:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "refused: V(m) needs a highest weight m >= 0, not -1",
        "refused: generator names ('h', 'x', 'y') and ('g0', 'g1', 'g2', "
        "'g3', 'g4', 'g5', 'g6', 'g7', 'g8', 'g9') differ",
        "refused: triples (('h', 'x', 'y'),) and () differ",
        "refused: highest weight (-1,) has a negative entry",
        "refused: target dimension 0 is below 1",
        "refused: unknown algebra type 'D4', not one of A1, A2, B2, G2, A3",
        "refused: a highest weight of B2 has 2 entries, not 1",
        "refused: highest weight (2.5,) has a non-integral entry",
        "refused: highest weight (0.9, 1.2) has a non-integral entry",
    ]
