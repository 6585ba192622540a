"""The records of the package are plain classes: construction by position
and by keyword with the same defaults, a fresh default dict or list per
instance, read-only fields where the record is immutable, the checks that
run on construction, and the parametric record of stable_subspaces."""

from fractions import Fraction

import pytest

from cmsweep.cmfields import CMType, SubfieldModel, d4_model
from cmsweep.fields import QQ
from cmsweep.positivity import DiagonalPositivitySystem, Monomial
from cmsweep.quatrep import QuaternionAlgebra, SL2Triple
from cmsweep.torus import (P0, P2, MixedFamily, StableFamily, pair_analysis,
                           stable_subspaces)

MODEL = d4_model()
ALGEBRA = QuaternionAlgebra(QQ, -1, -1)
FAMILY = MixedFamily((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
TERMS = [("x0", Monomial(Fraction(1), (("M", 1),)))]

# class, its fields in order, the values given and the defaults left out
RECORDS = [
    (MixedFamily, ("a", "b", "c", "d", "matrices"),
     (FAMILY.a, FAMILY.b, FAMILY.c, FAMILY.d), {"matrices": []}),
    (StableFamily, ("kind", "lattice", "family"),
     ("finite",), {"lattice": None, "family": None}),
    (CMType, ("model", "members"),
     (MODEL, frozenset(g for g in MODEL.elements if g[0] < 2)), {}),
    (SubfieldModel, ("model", "subgroup"),
     (MODEL, frozenset([(0, 0), (0, 1)])), {}),
    (Monomial, ("coeff", "powers"), (Fraction(-2), (("M", 1),)), {}),
    (DiagonalPositivitySystem, ("parameters", "coefficients", "fixed_signs"),
     (("M",), TERMS), {"fixed_signs": {}}),
    (SL2Triple, ("algebra", "h", "x", "y"),
     (ALGEBRA, {1: QQ.one()}, {2: QQ.one()}, {3: QQ.one()}), {}),
]
FROZEN = [CMType, SubfieldModel, Monomial]  # in RECORDS order


def _fields(record, names):
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize("cls, names, values, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_positional_and_keyword_construction_agree(cls, names, values,
                                                   defaults):
    want = dict(zip(names, values), **defaults)
    assert list(want) == list(names)
    assert _fields(cls(*values), names) == want
    assert _fields(cls(**dict(zip(names, values))), names) == want
    assert _fields(cls(*want.values()), names) == want
    with pytest.raises(TypeError):
        cls(*values, *[None] * (len(names) - len(values) + 1))


def test_default_dict_and_list_are_fresh_per_instance():
    one, two = (DiagonalPositivitySystem(("M",), TERMS) for _ in range(2))
    one.fixed_signs["M"] = -1
    assert two.fixed_signs == {} and one.fixed_signs is not two.fixed_signs
    one, two = (MixedFamily(*(FAMILY.a,) * 4) for _ in range(2))
    one.matrices.append(P0)
    assert two.matrices == [] and one.matrices is not two.matrices


@pytest.mark.parametrize("cls, names, values, defaults",
                         [r for r in RECORDS if r[0] in FROZEN],
                         ids=[cls.__name__ for cls in FROZEN])
def test_frozen_records_refuse_assignment(cls, names, values, defaults):
    record = cls(*values)
    for name in names:
        kept = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, kept)
        assert getattr(record, name) is kept
    with pytest.raises(AttributeError):
        record.extra = 1


def test_construction_checks_still_run():
    with pytest.raises(ValueError, match="exactly one of sigma = 1 and "
                       "tau\\*sigma = a2 must lie in the type"):
        CMType(MODEL, frozenset(MODEL.elements))
    with pytest.raises(ValueError):
        DiagonalPositivitySystem(("M",), [])
    with pytest.raises(ValueError):
        MixedFamily((Fraction(1, 2), 0, 0, 0), *(FAMILY.a,) * 3)
    fam = MixedFamily((Fraction(4, 2), 0, 0, 0), *(FAMILY.a,) * 3)
    assert fam.a == (2, 0, 0, 0) and type(fam.a[0]) is int


@pytest.mark.parametrize("ms", [[P0, P2], [P0, P2, P0]],
                         ids=["pair", "pair-and-repeat"])
def test_parametric_record_carries_all_the_matrices(ms):
    _, found = pair_analysis(ms[0], ms[1])
    (rec,) = stable_subspaces(ms, 2)
    assert rec.kind == "parametric" and rec.lattice is None
    fam = rec.family
    assert fam.matrices == ms and fam.matrices is not ms
    assert (fam.a, fam.b, fam.c, fam.d) == (found.a, found.b, found.c,
                                            found.d)
    assert found.matrices == ms[:2]
