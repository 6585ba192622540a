"""CM-type combinatorics on small Galois-group models."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cmsweep.cmfields import (CMType, SubfieldModel, d4_analysis, d4_model,
                              d4_relabeled_analysis,
                              quartic_multiplicity_predicate,
                              restrict_multiplicities)
from helpers import cyclic_model, induce_type, is_primitive

ROOT = Path(__file__).resolve().parents[1]


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
    with pytest.raises(ValueError, match="exactly one of sigma = g0 and "
                       r"tau\*sigma = g1 must lie in the type"):
        CMType(m, frozenset(m.elements))  # contains both of a conjugate pair
    with pytest.raises(ValueError, match="exactly one of sigma = g0"):
        CMType(m, frozenset())  # contains neither
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
    assert mult == (1, 1, 0, 0)
    assert not quartic_multiplicity_predicate(mult)
    assert quartic_multiplicity_predicate((2, 1, 0, 1))


def test_relabel_invariance_and_duality():
    rep = d4_relabeled_analysis(d4_analysis())
    assert rep["mapped_types"] == rep["original_types"]
    assert rep["dual_mapped_types"] == rep["dual_survivors"]
    assert rep["dual_mapped_types"] != rep["original_types"]


def test_input_checks_survive_optimize_flag():
    """Under python -O a tau that is not a central involution, a type with
    both or neither of a conjugate pair and a type restricted to a
    subfield of another model are still refused, where an assert would
    let a non-central tau pair up the elements and the counts be read
    off cosets of the wrong group."""
    code = ("from cmsweep.cmfields import (CMFieldModel, CMType,\n"
            "    SubfieldModel, d4_model, restrict_multiplicities)\n"
            "d4 = d4_model()\n"
            "elems = list(range(4))\n"
            "add = lambda g, h: (g + h) % 4\n"
            "z4 = CMFieldModel(elems, add, 0, 2)\n"
            "for make in (lambda: CMFieldModel(elems, add, 0, 0),\n"
            "             lambda: CMFieldModel(elems, add, 0, 1),\n"
            "             lambda: CMFieldModel(d4.elements, d4.mul,\n"
            "                                  (0, 0), (0, 1)),\n"
            "             lambda: CMType(z4, frozenset(elems)),\n"
            "             lambda: CMType(z4, frozenset()),\n"
            "             lambda: restrict_multiplicities(\n"
            "                 CMType(z4, frozenset([0, 1])),\n"
            "                 SubfieldModel(d4, frozenset([(0, 0)])))):\n"
            "    try:\n"
            "        print('accepted:', make())\n"
            "    except ValueError as exc:\n"
            "        print('refused:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "refused: tau = 0 is not a central involution",
        "refused: tau = 1 is not a central involution",
        "refused: tau = (0, 1) is not a central involution",
        "refused: exactly one of sigma = 0 and tau*sigma = 2 must lie in "
        "the type",
        "refused: exactly one of sigma = 0 and tau*sigma = 2 must lie in "
        "the type",
        "refused: the CM type and the subfield are on different models",
    ]
