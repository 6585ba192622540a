"""CM-type combinatorics on small Galois-group models."""

import pytest

from cmsweep.cmfields import (CMType, SubfieldModel, d4_analysis, d4_model,
                              d4_relabeled_analysis,
                              quartic_multiplicity_predicate,
                              restrict_multiplicities)
from helpers import cyclic_model, induce_type, is_primitive


def test_d4_model_structure():
    m = d4_model()
    assert len(m.elements) == 8
    assert m.tau == (2, 0)
    assert m.mul(m.tau, m.tau) == m.identity
    # tau = a^2 is central
    for g in m.elements:
        assert m.mul(m.tau, g) == m.mul(g, m.tau)


def test_cmtype_pairing_validation():
    m = cyclic_model(2)
    with pytest.raises(AssertionError):
        CMType(m, frozenset(m.elements))  # contains both of a conjugate pair
    phi = CMType(m, frozenset([m.identity]))
    assert phi.labels() == (m.label(m.identity),)


def test_d4_analysis_counts():
    rep = d4_analysis()
    assert rep["total_types_with_id"] == 8
    surv = rep["surviving_types"]
    assert len(surv) == 4
    for rec in surv:
        assert sorted(rec["k1_mults"]) == [0, 1, 1, 2]
        assert sorted(rec["k2_mults"]) in ([1, 1, 1, 1], [0, 0, 2, 2])
    # both second-subfield patterns actually occur
    pats = {tuple(sorted(rec["k2_mults"])) for rec in surv}
    assert pats == {(1, 1, 1, 1), (0, 0, 2, 2)}


def test_survivors_are_induced_with_expected_witness():
    # every survivor is induced from a reflection subgroup: even k2
    # multiplicities (2,0,2,0) come from <ax> cosets, the balanced
    # pattern (1,1,1,1) from <a3x> cosets
    m = d4_model()
    ax = frozenset([(0, 0), (1, 1)])
    a3x = frozenset([(0, 0), (3, 1)])
    label_to_elem = {m.label(g): g for g in m.elements}
    for rec in d4_analysis()["surviving_types"]:
        phi = CMType(m, frozenset(label_to_elem[s] for s in rec["phi"]))
        flag, witness = is_primitive(phi)
        assert not flag
        if sorted(rec["k2_mults"]) == [1, 1, 1, 1]:
            assert witness == a3x
        else:
            assert witness == ax


def test_induced_type_is_imprimitive():
    m = d4_model()
    sub = frozenset([(0, 0), (1, 1)])    # <ax>, a CM subgroup
    h = SubfieldModel(m, sub)
    assert h.is_cm
    cosets = h.cosets()
    # pick one coset per tau-conjugate coset pair
    chosen = []
    used = set()
    for cs in cosets:
        conj = frozenset(m.mul(m.tau, g) for g in cs)
        if cs not in used:
            used |= {cs, conj}
            chosen.append(cs)
    phi = induce_type(m, sub, chosen)
    flag, witness = is_primitive(phi)
    assert not flag
    assert witness == sub


def test_restrict_roundtrip_on_cyclic():
    m = cyclic_model(4)
    phi = CMType(m, frozenset([0, 1]))
    h = SubfieldModel(m, frozenset([0]))
    mult = restrict_multiplicities(phi, h)
    assert sorted(mult.counts) == [0, 0, 1, 1]
    assert not quartic_multiplicity_predicate(mult)


def test_relabel_invariance_and_duality():
    rep = d4_relabeled_analysis()
    assert rep["mapped_types"] == rep["original_types"]
    assert rep["dual_mapped_types"] == rep["dual_survivors"]
    assert rep["dual_mapped_types"] != rep["original_types"]
