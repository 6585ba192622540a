"""Top-level acceptance checks.

Each test covers one headline criterion and prints a single PASS line on
success (run with -s to see them; any failure fails the test outright).
"""

import random
from fractions import Fraction

from cmsweep.fields import (ExactMatrix, FieldElement, apply_galois,
                            eigen_decompose, field_create)
from cmsweep.intlat import IntLattice, saturate
from helpers import saturation_index, weil_layer_identity


def _ok(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_transitive_subgroups():
    from cmsweep.torus import all_subgroups_s4, transitive_subgroups_s4
    fams = transitive_subgroups_s4()
    assert [f["family"] for f in fams] == ["C4", "V", "D4", "A4", "S4"]
    assert sum(len(f["subgroups"]) for f in fams) == 9
    brute = []
    for sub in all_subgroups_s4():
        orbit = {0}
        for _ in range(2):
            for p in sub:
                orbit |= {p[i] for i in orbit}
        if orbit == {0, 1, 2, 3}:
            brute.append(sorted(sub))
    listed = [sorted(s) for f in fams for s in f["subgroups"]]
    assert sorted(brute) == sorted(listed)
    _ok(1, "five transitive families, brute-force enumeration agrees")


def test_criterion_02_dim1_sweep():
    from cmsweep.torus import REJECTED_DIVISOR_TEST, sweep_dim1
    cases = sweep_dim1()
    assert len(cases) == 12
    assert all(cv["verdict"] == REJECTED_DIVISOR_TEST for cv in cases)
    _ok(2, "all 12 one-dimensional cases rejected by the divisor test")


def test_criterion_03_order4_sweep():
    from cmsweep.torus import (M1, M2, ORDER4_FIELD, REJECTED_NO_DESCENT,
                               SURVIVES_D4, _order4_lifts, sweep_order4)
    cases = sweep_order4()
    assert len(cases) == 8
    assert all(cv["verdict"] != SURVIVES_D4 for cv in cases)
    f = field_create(ORDER4_FIELD)  # Q(i, sqrt 2)
    eig = dict(eigen_decompose(ExactMatrix.from_rows(f, M1.nonzero, 4)))
    minus_one = next(vs for lam, vs in eig.items()
                     if lam == f.rational(-1))
    assert [c.as_fraction() for c in minus_one[0]] == [-1, 1, -1, 1]
    m2_case = next(cid for cid, m in _order4_lifts() if m in (M2, -M2))
    verdicts = {cv["case_id"]: cv["verdict"] for cv in cases}
    assert verdicts[m2_case] == REJECTED_NO_DESCENT
    _ok(3, "order-4 sweep rejects all; M1 eigen data exact; "
           "M2 fails descent over Q(i, sqrt 2)")


def test_criterion_04_klein4_sweep():
    from cmsweep.torus import SURVIVES_D4, divisor_test, sweep_klein4
    cases = sweep_klein4()
    assert len(cases) == 22
    survivors = [cv for cv in cases if cv["verdict"] == SURVIVES_D4]
    assert sorted(cv["case_id"] for cv in survivors) == \
        ["klein4-p0-p2", "klein4-p0-p3"]
    for cv in survivors:
        assert cv["certificate"]["witness_point"] == [1, 2]
        lat = IntLattice(4, cv["certificate"]["witness_lattice"])
        assert lat.rank == 2
        rejected, _ = divisor_test(lat)
        assert not rejected
    _ok(4, "Klein-four tables reproduced; exactly two survivors with "
           "integer witness lattices at (x1, x2) = (1, 2)")


def test_criterion_05_a4_sweep():
    from cmsweep.torus import REJECTED_RANK, sweep_a4
    cases = sweep_a4()
    assert len(cases) == 16
    assert all(cv["verdict"] == REJECTED_RANK for cv in cases)
    _ok(5, "all sixteen alternating-group branches rejected by rank")


def test_criterion_06_d4_cmtypes():
    from cmsweep.cmfields import d4_analysis
    rep = d4_analysis()
    surv = rep["surviving_types"]
    assert len(surv) == 4
    for rec in surv:
        assert sorted(rec["k1_mults"]) == [0, 1, 1, 2]
        assert sorted(rec["k2_mults"]) in ([1, 1, 1, 1], [0, 0, 2, 2])
    _ok(6, "exactly 4 dihedral CM-types with the quartic multiplicity "
           "pattern; second-subfield multiplicities as expected")


def test_criterion_07_dim4_classification():
    from cmsweep.liereps import classify_dim4_faithful, search_dim, weyl_dim
    res = classify_dim4_faithful()
    assert [r["algebra_type"] for r in res] == ["A1", "A1xA1", "B2", "A3"]
    assert search_dim("A2", 4)["solutions"] == []
    assert search_dim("G2", 4)["solutions"] == []
    assert weyl_dim("B2", 0, 1) == 4
    _ok(7, "four faithful 4-dimensional cases; A2/G2 searches empty; "
           "B2 weight (0,1) has dimension 4")


def test_criterion_08_invariants():
    from cmsweep.liereps import (external_product, invariant_space,
                                 sl2_irrep, sp4_standard_module,
                                 tensor_module, wedge2_module)

    def check(w):
        inv = invariant_space(w)
        assert len(inv) == 1
        for name in w.generator_names():
            assert all(x == 0 for x in w.act(name, inv[0]))
        return {lab: c for lab, c in zip(w.basis_labels, inv[0]) if c != 0}

    s1 = check(wedge2_module(sl2_irrep(3)))
    assert s1["v0^v3"] / s1["v1^v2"] == -3
    prod = external_product(sl2_irrep(1), sl2_irrep(1))
    s2 = check(tensor_module(prod, prod))
    assert len(s2) == 4 and sorted(c / abs(c) for c in s2.values()) == \
        [-1, -1, 1, 1]
    s3 = check(wedge2_module(sp4_standard_module()))
    assert s3 == {"e1^e3": s3["e1^e3"], "e2^e4": s3["e1^e3"]}
    _ok(8, "all three invariant tensors reproduced up to scalar and "
           "annihilated by every generator")


def test_criterion_09_antiweil():
    from cmsweep.quatrep import (build_antiweil_rep, e_a1_triples,
                                 verify_e_a1_brackets)
    alg, gens = e_a1_triples(-2, -3)
    assert verify_e_a1_brackets(alg, gens)          # all 15 brackets
    rep = build_antiweil_rep(-1, -2, -3)
    assert rep.verify_matrix_brackets()
    ok, failures = rep.verify_galois_equivariance()  # 144 identities
    assert ok and not failures
    sym_ok, checks = rep.verify_symplectic()
    assert sym_ok and all(checks.values())
    assert rep.verify_irreducibility()
    _ok(9, "(D', D, a) = (-1, -2, -3): brackets, 144 equivariance "
           "identities, symplectic checks and irreducibility all pass")


def test_criterion_10_positivity():
    from cmsweep.positivity import (antisymmetric_weight_gram,
                                    antiweil_imaginary_system,
                                    antiweil_lambda_positive,
                                    antiweil_real_constraint,
                                    antiweil_real_gram,
                                    check_infeasibility_certificate,
                                    deg4_imaginary_system,
                                    diagonal_feasibility, weil_family_check,
                                    zero_witness_real_case)
    from positivity_oracle import float_oracle_agrees
    v = diagonal_feasibility(deg4_imaginary_system())
    assert v[0] == "INFEASIBLE"
    assert check_infeasibility_certificate(deg4_imaginary_system(), v)
    # real branches: a nonzero real vector with exact zero value defeats
    # strict positivity
    assert zero_witness_real_case(antisymmetric_weight_gram()) is not None
    assert zero_witness_real_case(
        antiweil_real_gram(),
        [antiweil_real_constraint([1, 2, 0, 0])]) is not None
    for lam in (-1, 1):
        status, _ = antiweil_lambda_positive(lam)
        assert status == "INFEASIBLE"
    sys_neg = antiweil_imaginary_system(lam_sign=-1)
    assert check_infeasibility_certificate(
        sys_neg, diagonal_feasibility(sys_neg))
    rep = weil_family_check((1, 0, 0, -1))
    assert rep["status"] == "IN_FAMILY"
    assert rep["s_value"] == "-2"
    assert rep["positive_definite"]
    assert float_oracle_agrees((1, 0, 0, -1), rep, samples=100)
    _ok(10, "all positivity branches infeasible with checkable "
            "certificates; family membership of (1,0,0,-1) verified")


def test_criterion_11_periods():
    from cmsweep.periods import gross_matrix, trdeg_lower_bound, \
        twisted_membership
    assert trdeg_lower_bound(gross_matrix(1, 4)) == 2
    assert twisted_membership(gross_matrix(2, 4), 2)
    assert not twisted_membership(gross_matrix(1, 4), 2)
    _ok(11, "transcendence-degree bound 2 at (1,4); twisted membership "
            "holds at (2,4) and fails at (1,4)")


def test_criterion_12_property_suites():
    # (a) 1000-case randomized HNF/saturation idempotence
    rng = random.Random(987654)
    for _ in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(cols)]
               for _ in range(rows)]
        lat = IntLattice(cols, mat)
        assert IntLattice(cols, lat.basis) == lat
        sat = saturate(lat)
        assert saturate(sat) == sat
        assert saturation_index(sat) == 1

    # (b) field axioms and Galois homomorphism on random elements
    f = field_create([-1, 5])
    gg = f.galois_group()
    for _ in range(200):
        def rand_elem():
            return FieldElement(f, {s: Fraction(rng.randint(-4, 4),
                                                rng.randint(1, 4))
                                    for s in f.subsets})
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        g = gg[rng.randrange(len(gg))]
        assert apply_galois(g, a * b) == \
            apply_galois(g, a) * apply_galois(g, b)

    # (c) divisor-test sign symmetry over the one-matrix sweep inputs
    from cmsweep.torus import (_one_flip_lifts, _order4_lifts,
                               finite_route_verdict)

    gauss = field_create([-1])
    big = field_create([-1, 2])
    for cid, m in _one_flip_lifts():
        assert finite_route_verdict(cid, [m], gauss, "t")["verdict"] == \
            finite_route_verdict(cid, [-m], gauss, "t")["verdict"]
    for cid, m in _order4_lifts():
        assert finite_route_verdict(cid, [m], big, "t")["verdict"] == \
            finite_route_verdict(cid, [-m], big, "t")["verdict"]

    # (d) the layer identity over every divisor chain of 8
    for deg_K in (1, 2, 4, 8):
        for deg_k in (1, 2, 4, 8):
            if deg_K % deg_k == 0:
                assert weil_layer_identity(deg_K, deg_k, 8)
    _ok(12, "randomized lattice, field, sign-symmetry and layer-identity "
            "property suites: zero failures")
