"""
Group-theoretic models of Galois CM fields and CM-type combinatorics.

A Galois CM field is modeled by its Galois group together with the central
complex-conjugation involution tau; subfields are subgroups, and all the
multiplicity bookkeeping is coset counting.  No field arithmetic happens
here on purpose: the geometric inputs behind the multiplicity lemmas are
encoded axioms, and only their combinatorial conclusions are mechanized.
"""

from __future__ import annotations

from . import Frozen


def closure(gens, mul, identity) -> frozenset:
    """The subgroup of a finite group generated by gens, by breadth-first
    products on both sides."""
    elems = {identity}
    frontier = list(gens)
    while frontier:
        nxt = []
        for g in frontier:
            if g not in elems:
                elems.add(g)
                for h in list(elems):
                    nxt.append(mul(g, h))
                    nxt.append(mul(h, g))
        frontier = nxt
    return frozenset(elems)


class CMFieldModel:
    """A finite group with a chosen central involution tau."""

    def __init__(self, elements, mul, identity, tau, labels=None):
        self.elements = tuple(elements)
        self.mul = mul
        self.identity = identity
        self.tau = tau
        self._labels = labels or {g: str(g) for g in self.elements}
        if tau == identity or mul(tau, tau) != identity or \
                any(mul(tau, g) != mul(g, tau) for g in self.elements):
            raise ValueError(f"tau = {tau!r} is not a central involution")

    def label(self, g) -> str:
        return self._labels[g]

    def order_key(self, g):
        return self.elements.index(g)


# --- concrete models -------------------------------------------------------

def d4_model() -> CMFieldModel:
    """The dihedral group <a, x | a^4 = x^2 = 1, axa = x> with tau = a^2.

    Elements are pairs (k, e) standing for a^k x^e.
    """
    elements = [(k, e) for e in (0, 1) for k in range(4)]

    def mul(g, h):
        k, e = g
        l, f = h
        if e == 0:
            return ((k + l) % 4, f)
        return ((k - l) % 4, 1 - f)

    labels = {}
    for k, e in elements:
        word = {0: "1", 1: "a", 2: "a2", 3: "a3"}[k] if e == 0 else \
               {0: "x", 1: "ax", 2: "a2x", 3: "a3x"}[k]
        labels[(k, e)] = word
    return CMFieldModel(elements, mul, (0, 0), (2, 0), labels)


# --- CM types and subfields ------------------------------------------------

class CMType(Frozen):
    __slots__ = ("model", "members")

    def __init__(self, model, members):
        self.model, self.members = model, members
        m = self.model
        for g in m.elements:
            conj = m.mul(m.tau, g)
            if (g in self.members) == (conj in self.members):
                raise ValueError(
                    f"exactly one of sigma = {m.label(g)} and tau*sigma = "
                    f"{m.label(conj)} must lie in the type")

    def labels(self):
        m = self.model
        return tuple(m.label(g) for g in sorted(self.members,
                                                key=m.order_key))


class SubfieldModel(Frozen):
    __slots__ = ("model", "subgroup")

    def __init__(self, model, subgroup):
        self.model, self.subgroup = model, subgroup

    @property
    def is_totally_real(self) -> bool:
        return self.model.tau in self.subgroup

    @property
    def is_cm(self) -> bool:
        return not self.is_totally_real

    def cosets(self):
        """The cosets gH in a deterministic order."""
        m = self.model
        seen = set()
        out = []
        for g in m.elements:
            cs = frozenset(m.mul(g, h) for h in self.subgroup)
            if cs not in seen:
                seen.add(cs)
                out.append(cs)
        return out


def restrict_multiplicities(phi: CMType, h: SubfieldModel) -> tuple:
    """Per-coset count of type members, m_C = |Phi ∩ C|, over the cosets
    of h in order."""
    if h.model is not phi.model:
        raise ValueError("the CM type and the subfield are on different "
                         "models")
    return tuple(sum(1 for g in coset if g in phi.members)
                 for coset in h.cosets())


def quartic_multiplicity_predicate(counts) -> bool:
    """The multiplicity pattern a degree-4 CM subfield of a simple CM
    fourfold must exhibit, on a tuple of per-coset counts.  (The
    geometric content is an encoded axiom; this tests only the
    combinatorial condition.)"""
    return sorted(counts) == [0, 1, 1, 2]


# --- the dihedral analysis -------------------------------------------------

def _quartic_subfields(m: CMFieldModel):
    """K1 = E^<x> and K2 = E^<ax> on the dihedral model, both CM."""
    k1 = SubfieldModel(m, frozenset([(0, 0), (0, 1)]))       # <x>
    k2 = SubfieldModel(m, frozenset([(0, 0), (1, 1)]))       # <ax>
    # constant subgroups of the constant model: a failure is a coding slip
    assert k1.is_cm and k2.is_cm
    return k1, k2


def _all_id_types(m: CMFieldModel):
    """Every CM type containing the identity.  A CM type picks one element
    of each conjugation pair {g, tau g}."""
    pairs = []
    seen = set()
    for g in m.elements:
        if g in seen:
            continue
        conj = m.mul(m.tau, g)
        seen |= {g, conj}
        pairs.append((g, conj))
    out = []
    for bits in range(2 ** len(pairs)):
        members = set()
        for t, (g, conj) in enumerate(pairs):
            members.add(g if (bits >> t) & 1 == 0 else conj)
        if m.identity in members:
            out.append(CMType(m, frozenset(members)))
    return out


def d4_analysis() -> dict:
    """Enumerate CM types on the dihedral model, normalized by id ∈ Φ, and
    single out those whose index-2 totally-real-over subfield K1 = E^<x>
    shows the quartic multiplicity pattern; report their multiplicities
    over the second quartic subfield K2 = E^<ax>, and the dual survivors,
    the types with the pattern over K2."""
    m = d4_model()
    k1, k2 = _quartic_subfields(m)
    all_types = _all_id_types(m)
    surviving, dual = [], []
    for phi in all_types:
        m1 = restrict_multiplicities(phi, k1)
        m2 = restrict_multiplicities(phi, k2)
        if quartic_multiplicity_predicate(m2):
            dual.append(sorted(phi.labels()))
        if quartic_multiplicity_predicate(m1):
            surviving.append({
                "phi": list(phi.labels()),
                "k1_mults": list(m1),
                "k2_mults": list(m2),
            })
    surviving.sort(key=lambda rec: rec["phi"])
    return {
        "model": "dihedral order 8, tau = a^2",
        "normalization": "id in Phi",
        "total_types_with_id": len(all_types),
        "surviving_types": surviving,
        "dual_survivors": sorted(dual),
    }


def _apply_words(m: CMFieldModel, g, a_image, x_image):
    """Image of g = a^k x^e under the substitution a -> a_image,
    x -> x_image (must define a group automorphism)."""
    k, e = g
    out = (0, 0)
    for _ in range(k):
        out = m.mul(out, a_image)
    if e:
        out = m.mul(out, x_image)
    return out


def d4_relabeled_analysis(base: dict) -> dict:
    """Stability of the surviving types of base, a d4_analysis() result,
    under the relabeling a -> a^3, x -> x: this is the automorphism fixing
    tau *and* both quartic subgroups <x>, <ax>, and it permutes the four
    surviving types among themselves.  The substitution a -> a^3,
    x -> ax is also an automorphism, but it swaps <x> with <ax>; it maps
    the survivors onto base's dual survivors, the types that survive the
    analysis with the two subfields exchanged (a duality, not an
    invariance), so it is reported separately."""
    m = d4_model()
    originals = sorted(sorted(rec["phi"]) for rec in base["surviving_types"])

    def map_types(a_image, x_image):
        out = []
        label_to_elem = {m.label(g): g for g in m.elements}
        for rec in base["surviving_types"]:
            elems = frozenset(_apply_words(m, label_to_elem[s],
                                           a_image, x_image)
                              for s in rec["phi"])
            out.append(sorted(CMType(m, elems).labels()))
        return sorted(out)

    return {
        "original_types": originals,
        "mapped_types": map_types((3, 0), (0, 1)),  # a -> a^3, x -> x
        "dual_mapped_types": map_types((3, 0), (1, 1)),  # a -> a^3, x -> ax
        "dual_survivors": base["dual_survivors"],
    }

