"""
Character-lattice case sweeps for rank-4 signed permutation Galois actions.

The ambient lattice is Z^4 with a finite group of signed permutation
matrices acting, and every eigenvector of one, over Z or a field, is
walked off its cycles with no elimination (_eigenvectors).  A rank-2
stable sublattice is hunted down exactly:

* lifts with distinct eigenvalues are handled by Galois descent of
  eigenline sums (the finite route);
* lifts squaring to +-I have two 2-dimensional eigenplanes, and a rank-2
  stable subspace is either a pure eigenplane or a mixed pair of lines; a
  second anticommuting lift forces the second line (one projective
  parameter), a commuting one restricts to exact 2x2 eigenline problems;
* a third matrix imposes homogeneous cubic minor constraints on the
  projective parameter whose rational roots are found exactly.

Rejection criteria: the divisor test (a lattice vector with two zero and
two +-1 coordinates), rank collapse, or failure of Galois descent.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, prod

from . import record
from .cmfields import closure
from .fields import (DoesNotSplit, ExactMatrix, MultiQuadField,
                     apply_galois, eigen_decompose,
                     field_create, rational_kernel, rational_rank,
                     roots_of_unity)
from .intlat import IntLattice, rational_span_intersect

# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

REJECTED_DIVISOR_TEST = "REJECTED_DIVISOR_TEST"
REJECTED_RANK = "REJECTED_RANK"
REJECTED_NO_DESCENT = "REJECTED_NO_DESCENT"
SURVIVES_D4 = "SURVIVES_D4"


# ---------------------------------------------------------------------------
# signed permutations
# ---------------------------------------------------------------------------

class SignedPerm(namedtuple("SignedPerm", "perm signs")):
    """The signed permutation matrix sending e_j to signs[j] * e_perm[j];
    ``*`` is the matrix product."""
    __slots__ = ()

    @classmethod
    def from_rows(cls, rows) -> "SignedPerm":
        """ValueError unless rows is a square signed permutation matrix."""
        cols = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*rows)]
        if any(len(c) != 1 or c[0][1] not in (1, -1) for c in cols) \
                or any(len(row) != len(rows) for row in rows) \
                or len({c[0][0] for c in cols}) != len(rows):
            raise ValueError("not a signed permutation matrix")
        return cls(*zip(*(c[0] for c in cols))) if rows else cls((), ())

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        return SignedPerm(tuple(self.perm[p] for p in other.perm),
                          tuple(s * self.signs[p]
                                for p, s in zip(other.perm, other.signs)))

    def __neg__(self) -> "SignedPerm":
        return SignedPerm(self.perm, tuple(-s for s in self.signs))

    def apply(self, v) -> tuple:
        out = [0] * len(v)
        for x, p, s in zip(v, self.perm, self.signs):
            out[p] = s * x
        return tuple(out)

    @property
    def nonzero(self) -> list:
        """Row i as the {col: sign} dict of its one nonzero entry, the row
        form ExactMatrix stores; a fresh list of fresh dicts."""
        rows = [None] * len(self.perm)
        for j, (p, s) in enumerate(zip(self.perm, self.signs)):
            rows[p] = {j: s}
        return rows

    def cycles(self) -> list:
        """The cycles (c0, perm[c0], ...) of the permutation, each from
        its smallest index."""
        out, seen = [], set()
        for c in range(len(self.perm)):
            cycle = []
            while c not in seen:
                seen.add(c)
                cycle.append(c)
                c = self.perm[c]
            if cycle:
                out.append(tuple(cycle))
        return out


ONE4 = SignedPerm((0, 1, 2, 3), (1, 1, 1, 1))


class SignedGroup:
    """A finite set of SignedPerm closed under product, containing -I."""

    def __init__(self, generators):
        self.elements = closure(list(generators) + [-ONE4],
                                SignedPerm.__mul__, ONE4)

    def image_in_s4(self):
        """Underlying permutations (every -1 entry flipped to 1)."""
        return frozenset(m.perm for m in self.elements)


# ---------------------------------------------------------------------------
# S4 subgroup enumeration
# ---------------------------------------------------------------------------

def _compose(p, q):
    return tuple(p[q[i]] for i in range(4))


def all_subgroups_s4():
    """All subgroups of S4 (every subgroup of S4 is 2-generated)."""
    elems = [tuple(p) for p in permutations(range(4))]
    ident = tuple(range(4))
    subs = {frozenset([ident])}
    for a in elems:
        subs.add(closure([a], _compose, ident))
        for b in elems:
            subs.add(closure([a, b], _compose, ident))
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def transitive_subgroups_s4():
    """The five families of transitive subgroups of S4, with every member
    subgroup listed (9 subgroups in total)."""
    families: dict[str, list] = {"C4": [], "V": [], "D4": [], "A4": [], "S4": []}
    for g in all_subgroups_s4():
        if len({p[0] for p in g}) != 4:  # the orbit of 0 is {p[0]}
            continue
        if len(g) == 4:  # cyclic iff some element does not square to 1
            fam = "C4" if any(_compose(p, p) != ONE4.perm for p in g) else "V"
        else:  # the other transitive subgroups have order 8, 12 or 24
            fam = {8: "D4", 12: "A4", 24: "S4"}[len(g)]
        families[fam].append(sorted(g))
    return [{"family": fam, "subgroups": families[fam]}
            for fam in ("C4", "V", "D4", "A4", "S4")]


# ---------------------------------------------------------------------------
# divisor test
# ---------------------------------------------------------------------------

def divisor_candidates():
    out = []
    for i, j in combinations(range(4), 2):
        for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            v = [0, 0, 0, 0]
            v[i], v[j] = a, b
            out.append(tuple(v))
    return out


_DIVISOR_CANDIDATES = divisor_candidates()


def divisor_test(lat: IntLattice):
    """True iff the lattice contains a vector with exactly two zero
    coordinates and the other two in {-1,+1}.  Returns (flag, witness);
    ValueError unless the lattice lies in Z^4."""
    if lat.ambient_rank != 4:
        raise ValueError(f"divisor test needs a lattice in Z^4, got Z^"
                         f"{lat.ambient_rank}")
    for cand in _DIVISOR_CANDIDATES:
        if lat.contains(cand):
            return True, cand
    return False, None


def _is_stable(lat: IntLattice, matrices) -> bool:
    return all(lat.contains(m.apply(row))
               for m in matrices for row in lat.basis)


# ---------------------------------------------------------------------------
# Galois descent of eigenline sums (finite route)
# ---------------------------------------------------------------------------

def rational_intersection(field: MultiQuadField, vectors):
    """Basis (over Q) of span_F(vectors) ∩ Q^n, computed by expanding the
    annihilator equations coordinate-wise over the field basis."""
    n = len(vectors[0])
    vmat = ExactMatrix(field, vectors)
    ann = vmat.kernel()  # each a gives the equation sum_j a_j w_j = 0
    rows = []
    for a in ann:
        # one equation per monomial
        coords = [aj.coords for aj in a]
        for s in field.subsets:
            rows.append({j: c[s] for j, c in enumerate(coords) if s in c})
    return rational_kernel(rows, n)


def _eigenvectors(m: SignedPerm, zeta, one=1) -> list:
    """The kernel basis of m - zeta*I that rational_kernel and
    ExactMatrix.kernel give, with no elimination (zeta and one are ints or
    elements of one field).  Each k-cycle whose sign product is zeta^k
    gives one vector, in the order of the cycles' largest indices c:
    `one` at c, v[p] = s_p * zeta * v[q] wherever m e_p = s_p e_q, and
    zero off the cycle.  The walk goes backwards from c and must close up
    at one."""
    zero, step, out = one - one, {1: zeta, -1: -zeta}, []
    for cycle in sorted(m.cycles(), key=max):
        j = cycle.index(max(cycle))
        v, x = [zero] * len(m.perm), one
        for p in reversed(cycle[j:] + cycle[:j]):  # ends at c itself
            x = v[p] = step[m.signs[p]] * x
        if x == one:
            out.append(v)
    return out


def _signed_eigenlines(m: SignedPerm, field):
    """The eigenlines (zeta, v) of a signed permutation in the order
    eigen_decompose finds them, the _eigenvectors of each root of unity of
    the field in turn; DoesNotSplit when fewer lines than coordinates."""
    kinds = {(len(c), prod(m.signs[i] for i in c)) for c in m.cycles()}
    one = field.one()
    # walk a root only if some k-cycle with sign product eps has zeta^k =
    # eps: its order divides k (eps = 1), or 2k but not k (eps = -1)
    lines = [(zeta, v) for zeta, order in roots_of_unity(field)
             if any((k % order == 0) == (eps == 1) and 2 * k % order == 0
                    for k, eps in kinds)
             for v in _eigenvectors(m, zeta, one)]
    if len(lines) < len(m.perm):
        raise DoesNotSplit(f"only {len(lines)} of {len(m.perm)} eigenlines "
                           f"split over {field}")
    return lines


def stable_subspaces_finite(ms, target_rank, field):
    """All Galois-stable sums of eigenlines of the SignedPerm ms[0] of
    total dimension target_rank that are stable under the other SignedPerms
    of ms, descended to Q.  ms[0] must have distinct eigenvalues over the
    field (ValueError otherwise).  Returns the sorted eigenvalue reprs of
    ms[0] and the list of results."""
    n = len(ms[0].perm)
    lines = _signed_eigenlines(ms[0], field)
    if len({lam for lam, _ in lines}) != len(lines):
        raise ValueError("first matrix must have distinct eigenvalues")
    lam_index = {lam: t for t, (lam, _) in enumerate(lines)}
    galois_perms = [tuple(lam_index[apply_galois(g, lam)] for lam, _ in lines)
                    for g in field.galois_group()]
    results = []
    for subset in combinations(range(len(lines)), target_rank):
        sset = set(subset)
        if any(set(sigma[t] for t in subset) != sset for sigma in galois_perms):
            continue
        basis_f = [lines[t][1] for t in subset]
        rat = rational_intersection(field, basis_f)
        assert len(rat) == target_rank  # Galois-stable sums always descend
        if all(rational_rank(rat + [m.apply(r) for r in rat]) == target_rank
               for m in ms[1:]):
            results.append({
                "eigenvalues": sorted(repr(lines[t][0]) for t in subset),
                "basis": rat,
                "lattice": rational_span_intersect(rat, n),
            })
    return sorted(repr(lam) for lam, _ in lines), results


def finite_route_verdict(case_id, ms, field, table):
    """Run the finite descent route on matrices with a distinct-eigenvalue
    first element and classify the outcome."""
    eigenvalues, cands = stable_subspaces_finite(ms, 2, field)
    if not cands:
        return record(case_id, REJECTED_NO_DESCENT, {
            "field": list(field.gens),
            "eigenvalues": eigenvalues,
            "reason": "no Galois-stable rank-2 eigenline sum descends to Q",
        }, table)
    return divisor_verdict(case_id, [(c["lattice"],
                                      {"eigenvalues": c["eigenvalues"]})
                                     for c in cands], table)


def divisor_verdict(case_id, cands, table):
    """Classify candidate lattices, each a (lattice, labels) pair with
    labels {"eigenvalues": ...}, {"point": ...} or {}.  The first lattice
    that passes the divisor test survives, with its point if it has one;
    otherwise every candidate is listed with its labels and witness."""
    rejected = []
    for lat, labels in cands:
        basis = [list(r) for r in lat.basis]
        flag, witness = divisor_test(lat)
        if not flag:
            certificate = {"witness_lattice": basis}
            if "point" in labels:
                certificate["witness_point"] = labels["point"]
            return record(case_id, SURVIVES_D4, certificate, table)
        rejected.append({**labels, "lattice": basis, "witness": list(witness)})
    return record(case_id, REJECTED_DIVISOR_TEST, {"candidates": rejected},
                  table)


# ---------------------------------------------------------------------------
# mixed-line machinery for involutive lifts (M^2 = +-I)
# ---------------------------------------------------------------------------

def _square_sign(m: SignedPerm):
    sq = m * m
    if sq.perm != ONE4.perm or len(set(sq.signs)) != 1:
        raise ValueError("matrix does not square to +-I")
    return sq.signs[0]


def _commutation_sign(a: SignedPerm, b: SignedPerm):
    ab, ba = a * b, b * a
    if ab == ba:
        return 1
    if ab == -ba:
        return -1
    raise ValueError("matrices neither commute nor anticommute")


def _restrict(m: SignedPerm, basis, field):
    """The matrix C of m on span(basis): m*b_i = sum_j C[j][i] b_j."""
    bmat = ExactMatrix(field, [list(col) for col in zip(*basis)])
    cols = []
    for b in basis:
        sol = bmat.solve(m.apply(b))
        # m commutes with the lift whose eigenspace the basis spans
        assert sol is not None, "subspace not stable under restriction"
        cols.append(sol)
    return ExactMatrix(field, [[cols[j][i] for j in range(len(cols))]
                               for i in range(len(cols))])


def _combination(coeffs, basis) -> list:
    """sum_t coeffs[t] * basis[t] of the vectors in basis."""
    return [sum(x * b for x, b in zip(coeffs, col)) for col in zip(*basis)]


def _rational_restriction(m: SignedPerm, basis):
    """The int matrix C of m on the span of int _eigenvectors b_j of a
    lift, m*b_i = sum_j C[j][i] b_j, and the eigenlines of C: its
    _eigenvectors at 1, then -1, or [] when they do not fill the span.
    C[j][i] is (m*b_i) at the free column of b_j, where b_j is 1 and the
    other b are 0.  m permutes the lift's cycles, so C is a signed
    permutation (ValueError otherwise)."""
    n = len(basis)
    free = [max(j for j, x in enumerate(b) if x) for b in basis]
    images = [m.apply(b) for b in basis]
    c = [[img[f] for img in images] for f in free]
    # m commutes with the lift whose eigenspace the basis spans
    assert all(list(img) == _combination(col, basis)
               for img, col in zip(images, zip(*c))), \
        "subspace not stable under restriction"
    sc = SignedPerm.from_rows(c)
    lines = _eigenvectors(sc, 1) + _eigenvectors(sc, -1)
    return c, lines if len(lines) == n else []


def _eigenlines_2x2(c: ExactMatrix):
    """Eigenlines of a semisimple 2x2 matrix over its field; [] when the
    matrix does not split there."""
    try:
        found = eigen_decompose(c)
    except DoesNotSplit:
        return []
    return [(lam, v) for lam, ker in found for v in ker]


def _charpoly_2x2_str(c) -> str:
    """The characteristic polynomial of the 2x2 rows c, of ints or field
    elements (whose reprs agree on integers)."""
    tr = c[0][0] + c[1][1]
    det = c[0][0] * c[1][1] - c[0][1] * c[1][0]
    return f"t^2 - ({tr!r})*t + ({det!r})"


def _integral(v) -> tuple:
    """The entries of v, ints or Fractions, as a tuple of ints; ValueError
    unless each is integral."""
    if any(x.denominator != 1 for x in v):
        raise ValueError(f"vector {list(v)} is not integral")
    return tuple(x.numerator for x in v)


class MixedFamily:
    """W(x1:x2) = span{u, w} with u = x1*a + x2*b and w forced linear in
    (x1, x2): w = x1*c + x2*d.  a, b, c, d are stored as int tuples; a
    non-integral entry raises ValueError.  The matrices (default: a fresh
    empty list) must all stabilize W."""

    def __init__(self, a, b, c, d, matrices=None):
        self.a, self.b, self.c, self.d = (_integral(v) for v in (a, b, c, d))
        self.matrices = [] if matrices is None else matrices

    def at(self, x1: int, x2: int):
        u = [x1 * p + x2 * q for p, q in zip(self.a, self.b)]
        w = [x1 * p + x2 * q for p, q in zip(self.c, self.d)]
        return u, w

    def lattice_at(self, x1: int, x2: int) -> IntLattice:
        u, w = self.at(x1, x2)
        return rational_span_intersect([u, w], 4)

    def witness_point(self):
        """First small integer parameter point whose saturated lattice
        defeats the divisor test.  Points go by |x1| + |x2| = total, then
        x1 = 0..total, then x2 = total - x1 before -(total - x1); only
        coprime points are tried."""
        for total in range(1, 12):
            for x1 in range(0, total + 1):
                x2a = total - x1
                for x2 in ((x2a, -x2a) if x2a else (0,)):
                    if gcd(x1, abs(x2)) != 1:
                        continue
                    lat = self.lattice_at(x1, x2)
                    if lat.rank != 2:
                        continue
                    flag, _ = divisor_test(lat)
                    if not flag:
                        return (x1, x2), lat
        return None, None


def pair_analysis(m1: SignedPerm, m2: SignedPerm):
    """Classify the rank-2 subspaces stable under two involutive-image
    lifts m1, m2 (both squaring to +-I, m1 preferred real type).

    Returns one of
      ("family", MixedFamily)            -- one-parameter survivor family
      ("finite", [IntLattice, ...])      -- finitely many candidates
      ("none", reason_dict)              -- no rank-2 stable subspace
    Pure eigenplanes of a real-type m1 are *not* included here; they are
    handled once per first matrix (they fail the divisor test outright).
    ValueError unless a real-type m1 has two 2-dimensional eigenplanes.
    """
    s1, s2 = _square_sign(m1), _square_sign(m2)
    if s1 == -1 and s2 == 1:
        m1, m2 = m2, m1
        s1, s2 = s2, s1
    comm = _commutation_sign(m1, m2)
    if s1 == 1:
        vm = _eigenvectors(m1, -1)
        vp = _eigenvectors(m1, 1)
        if (len(vm), len(vp)) != (2, 2):
            raise ValueError(
                f"real-type first lift has eigenplanes of dimensions "
                f"{len(vm)} (-1) and {len(vp)} (+1), not 2 and 2")
        if comm == -1:
            # second line forced: w = m2 u
            a, b = vm
            fam = MixedFamily(a, b, m2.apply(a), m2.apply(b), [m1, m2])
            return "family", fam
        # commuting: lines are eigenlines of the 2x2 restrictions
        cm, lm = _rational_restriction(m2, vm)
        cp, lp = _rational_restriction(m2, vp)
        if not lm or not lp:
            side = "minus" if not lm else "plus"
            cc = cm if not lm else cp
            return "none", {"reason": "restriction has no rational eigenline",
                            "eigenplane": side,
                            "charpoly": _charpoly_2x2_str(cc)}
        cands = []
        for cv in lm:
            for dv in lp:
                cands.append(rational_span_intersect(
                    [_combination(cv, vm), _combination(dv, vp)], 4))
        return "finite", cands
    # both square to -I: work over Q(i)
    gauss = field_create([-1])
    vi = _eigenvectors(m1, gauss.sqrt_gen(-1), gauss.one())
    # m1 is real with m1^2 = -I: conjugation swaps its +-i eigenspaces
    assert len(vi) == 2
    if comm == 1:
        c = _restrict(m2, vi, gauss)
        lines = _eigenlines_2x2(c)
        if not lines:
            return "none", {"reason": "restriction has no eigenline over Q(i)",
                            "charpoly": _charpoly_2x2_str(c.entries)}
        cands = []
        for _, cv in lines:
            ell = [cv[0] * vi[0][j] + cv[1] * vi[1][j] for j in range(4)]
            ell_bar = [x.conj() for x in ell]
            rat = rational_intersection(gauss, [ell, ell_bar])
            assert len(rat) == 2  # a conjugation-stable plane descends
            cands.append(rational_span_intersect(rat, 4))
        return "finite", cands
    # anticommuting: antilinear eigenproblem B = conj . m2 on V_i with
    # B^2 = m2^2 = s2 * I; s2 = -1 kills every line.
    if s2 == -1:
        return "none", {"reason": "antilinear square is -1: no stable line",
                        "detail": "conj(m2 conj(m2 u)) = m2^2 u = -u"}
    # s2 = +1: real structure on V_i; a line family would exist, but no
    # configuration in scope reaches this branch.
    raise NotImplementedError(
        "anticommuting pair with antilinear square +1 does not occur "
        "in the configurations in scope")


# ---------------------------------------------------------------------------
# homogeneous cubic constraints from a third matrix
# ---------------------------------------------------------------------------

def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


_MINOR_COLUMNS = tuple(combinations(range(4), 3))
# (x1, x2) points at which family_constraints evaluates every minor
_CUBIC_NODES = ((0, 1), (1, 0), (1, 1), (1, -1))


def family_constraints(fam: MixedFamily, m3: SignedPerm):
    """All 3x3 minor constraints for m3-stability of the family, as
    homogeneous integer cubics in (x1, x2); coefficient lists [x2^3 ..
    x1^3].  Each minor f is an integer determinant at the four nodes, and
    its cubic [c0, c1, c2, c3] is interpolated exactly: c0 = f(0,1),
    c3 = f(1,0), c1 + c2 = f(1,1) - c0 - c3, c1 - c2 = f(1,-1) + c0 - c3."""
    images = ((m3.apply(fam.a), m3.apply(fam.b)),
              (m3.apply(fam.c), m3.apply(fam.d)))
    values = []
    for x1, x2 in _CUBIC_NODES:
        u, w = fam.at(x1, x2)
        minors = []
        for p, q in images:
            img = [x1 * s + x2 * t for s, t in zip(p, q)]
            for cols in _MINOR_COLUMNS:
                minors.append(_det3([[u[c] for c in cols], [w[c] for c in cols],
                                     [img[c] for c in cols]]))
        values.append(minors)
    out = []
    for c0, c3, f11, f1m in zip(*values):
        plus = f11 - c0 - c3
        minus = f1m + c0 - c3
        cubic = [c0, (plus + minus) // 2, (plus - minus) // 2, c3]
        if any(cubic):
            out.append(cubic)
    return out


def _rational_projective_roots(polys):
    """Common projective rational roots (x1 : x2) of homogeneous integer
    polynomials given as coefficient lists [x2^d ... x1^d]; ValueError
    when there are none or the first is identically zero."""
    nz = [j for j, c in enumerate(polys[0]) if c] if polys else []
    if not nz:
        raise ValueError("need a first polynomial that is not zero")

    def value(p, x1, x2):
        d = len(p) - 1
        return sum(c * x1 ** j * x2 ** (d - j) for j, c in enumerate(p))

    roots = []
    # root at infinity (1 : 0): leading x1 coefficient vanishes everywhere
    if all(p[-1] == 0 for p in polys):
        roots.append((1, 0))
    # finite roots x1/x2 = t: rational root candidates of the first poly,
    # with the powers of t and of x2 that divide it taken out
    low, high = nz[0], nz[-1]
    cands = {Fraction(0)} if low > 0 else set()
    for pnum in _divisors(abs(polys[0][low])):
        for qden in _divisors(abs(polys[0][high])):
            for s in (1, -1):
                cands.add(Fraction(s * pnum, qden))
    for t in sorted(cands):
        if all(value(p, t.numerator, t.denominator) == 0 for p in polys):
            roots.append((t.numerator, t.denominator))
    return roots


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n and n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def constrained_points(fam: MixedFamily, extra):
    """Impose the matrices in `extra` on the family.  Returns the cubic
    constraints they put on (x1 : x2) and, for each rational root whose
    lattice has rank 2 and is kept stable by every matrix of the family
    and of `extra`, the pair ((x1, x2), lattice).  With no constraint
    every point of the family is stable, and the list is None."""
    polys = [p for m3 in extra for p in family_constraints(fam, m3)]
    if not polys:
        return polys, None
    matrices = fam.matrices + list(extra)
    points = []
    for x1, x2 in _rational_projective_roots(polys):
        lat = fam.lattice_at(x1, x2)
        if lat.rank == 2 and _is_stable(lat, matrices):  # else spurious
            points.append(((x1, x2), lat))
    return polys, points


def constrained_family_verdict(case_id, fam: MixedFamily, extra, table):
    """Impose the matrices in `extra` on a surviving one-parameter family
    and classify the residual parameter points."""
    polys, points = constrained_points(fam, extra)
    if points is None:  # the witness point defeats the divisor test
        point, lat = fam.witness_point()
        if point is None:
            raise ValueError(f"{case_id}: no small parameter point of the "
                             "family passes the divisor test")
        points = [(point, lat)]
    elif not points:
        return record(case_id, REJECTED_RANK, {
            "reason": "stability constraints have no rational parameter point",
            "constraints": [_hpoly_str(p) for p in polys[:4]],
        }, table)
    return divisor_verdict(case_id, [(lat, {"point": list(point)})
                                     for point, lat in points], table)


def _hpoly_str(p) -> str:
    d = len(p) - 1
    parts = []
    for j, c in enumerate(p):
        if c == 0:
            continue
        mono = []
        if j:
            mono.append(f"x1^{j}" if j > 1 else "x1")
        if d - j:
            mono.append(f"x2^{d - j}" if d - j > 1 else "x2")
        parts.append(f"{c}*" + "*".join(mono) if mono else f"{c}")
    return " + ".join(parts) if parts else "0"


def pair_case_verdict(case_id, analysis, table):
    """Classify a pair of lifts from its pair_analysis result."""
    kind, payload = analysis
    if kind == "none":
        return record(case_id, REJECTED_RANK, payload, table)
    if kind == "finite":
        return divisor_verdict(case_id, [(lat, {}) for lat in payload], table)
    return constrained_family_verdict(case_id, payload, [], table)


def pure_plane_verdict(case_id, m1: SignedPerm, table):
    """The two eigenplanes of a real-type lift, both divisor-rejected."""
    return divisor_verdict(case_id, [
        (rational_span_intersect(_eigenvectors(m1, lam), 4), {})
        for lam in (-1, 1)], table)


# ---------------------------------------------------------------------------
# named matrices of the case tables
# ---------------------------------------------------------------------------

M1 = SignedPerm.from_rows(((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)))
M2 = SignedPerm.from_rows(((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0)))

P0 = SignedPerm.from_rows(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
P1 = SignedPerm.from_rows(((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)))
P2 = SignedPerm.from_rows(((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)))
P3 = SignedPerm.from_rows(((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)))
P4 = SignedPerm.from_rows(((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)))

# third-generator lifts for the (P0, P2, *) rows
Q1 = SignedPerm.from_rows(((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0)))
Q2 = SignedPerm.from_rows(((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)))
Q3 = SignedPerm.from_rows(((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))
# third-generator lifts for the (P0, P3, *) rows
QP1 = Q1
QP2 = SignedPerm.from_rows(((0, 0, -1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, 1, 0, 0)))
QP3 = Q3

# two-sign-flip lifts for the all-two-flips configuration
PP0 = SignedPerm.from_rows(((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
PP1 = SignedPerm.from_rows(((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)))
PP2 = SignedPerm.from_rows(((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)))
QQ0 = SignedPerm.from_rows(((0, 0, 0, 1), (0, 0, -1, 0), (0, -1, 0, 0), (1, 0, 0, 0)))
QQ1 = SignedPerm.from_rows(((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)))
QQ2 = SignedPerm.from_rows(((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)))

# order-3 lifts for the alternating-group configuration
R0 = SignedPerm.from_rows(((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)))
R1 = SignedPerm.from_rows(((0, 0, 1, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)))
R2 = SignedPerm.from_rows(((0, 0, 1, 0), (1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1)))
R3 = SignedPerm.from_rows(((0, 0, -1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)))
R4 = SignedPerm.from_rows(((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1)))
R5 = SignedPerm.from_rows(((0, 0, 1, 0), (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1)))
R6 = SignedPerm.from_rows(((0, 0, -1, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)))
R7 = SignedPerm.from_rows(((0, 0, 1, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1)))
A4_Q = P2
A4_QP = P3


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_dim1():
    """A 1-dimensional torus forces e_i - e_j or e_i + e_j into the kernel
    lattice for every basis pair under a transitive signed action; every
    such vector is a divisor-test element, so a test that finds none
    reads FAIL."""
    out = []
    for i, j in combinations(range(4), 2):
        for sign in (-1, 1):
            v = [0, 0, 0, 0]
            v[i], v[j] = 1, sign
            flag, witness = divisor_test(IntLattice(4, [v]))
            out.append(record(
                f"dim1-e{i + 1}{'-' if sign < 0 else '+'}e{j + 1}",
                REJECTED_DIVISOR_TEST if flag else "FAIL",
                {"element": list(witness) if flag else None}, "dim1"))
    return out


def _order4_lifts():
    """Sign classes of lifts of the underlying 4-cycle of M1, modulo -I,
    each by its lift with first sign +1."""
    out = []
    for signs in product((1, -1), repeat=3):
        tag = "".join("p" if s > 0 else "m" for s in (1,) + signs)
        out.append((f"order4-{tag}", SignedPerm(M1.perm, (1,) + signs)))
    return out


ORDER4_FIELD = (-1, 2)


def sweep_order4():
    field = field_create(ORDER4_FIELD)
    out = []
    for case_id, m in _order4_lifts():
        out.append(finite_route_verdict(case_id, [m], field, "order4"))
    return out


def _one_flip_lifts():
    """Lifts of the double transposition underlying P0 with exactly one
    sign flip."""
    out = []
    for pos in range(4):
        signs = tuple(-1 if t == pos else 1 for t in range(4))
        tag = "".join("p" if s > 0 else "m" for s in signs)
        out.append((f"klein4-oneflip-{tag}", SignedPerm(P0.perm, signs)))
    return out


def _family(case_id, analysis):
    """The MixedFamily of a pair_analysis result; ValueError naming the
    case when its pair of lifts leaves no one-parameter family."""
    kind, fam = analysis
    if kind != "family":
        raise ValueError(f"{case_id}: the pair gives {kind!r}, not a family")
    return fam


def sweep_klein4():
    gauss = field_create([-1])
    out = []
    # (a) some preimage contains a one-sign-flip lift: it alone rejects
    for case_id, m in _one_flip_lifts():
        out.append(finite_route_verdict(case_id, [m], gauss, "klein4-oneflip"))
    # (b) an unsigned lift present: pure eigenplanes once, then pairs,
    # each pair analysed once
    out.append(pure_plane_verdict("klein4-p0-pure-planes", P0, "klein4-p0"))
    pairs = {tag: pair_analysis(P0, m)
             for tag, m in (("p1", P1), ("p2", P2), ("p3", P3), ("p4", P4))}
    for tag, analysis in pairs.items():
        out.append(pair_case_verdict(f"klein4-p0-{tag}", analysis,
                                     "klein4-p0"))
    # (b') third generators on the two surviving pair families
    for case_id, second, third in (
            ("klein4-p0-p2-q1", "p2", Q1),
            ("klein4-p0-p2-q2", "p2", Q2),
            ("klein4-p0-p2-q3", "p2", Q3),
            ("klein4-p0-p3-q1p", "p3", QP1),
            ("klein4-p0-p3-q2p", "p3", QP2),
            ("klein4-p0-p3-q3p", "p3", QP3)):
        fam = _family(case_id, pairs[second])
        out.append(constrained_family_verdict(case_id, fam, [third],
                                              "klein4-triples"))
    # (c) every preimage has exactly two sign flips
    out.append(pure_plane_verdict("klein4-pp0-pure-planes", PP0,
                                  "klein4-twoflip"))
    for case_id, a, b in (
            ("klein4-pp0-qq0", PP0, QQ0),
            ("klein4-pp0-qq1", PP0, QQ1),
            ("klein4-pp1-qq0", PP1, QQ0),
            ("klein4-pp1-qq2", PP1, QQ2),
            ("klein4-pp2-qq2", PP2, QQ2),
            ("klein4-pp2-qq1", PP2, QQ1)):
        out.append(pair_case_verdict(case_id, pair_analysis(a, b),
                                     "klein4-twoflip"))
    return out


def sweep_a4():
    out = []
    for qtag, q in (("q", A4_Q), ("qp", A4_QP)):
        fam = _family(f"a4-p0-{qtag}", pair_analysis(P0, q))
        for idx, r in enumerate((R0, R1, R2, R3, R4, R5, R6, R7)):
            out.append(constrained_family_verdict(
                f"a4-p0-{qtag}-r{idx}", fam, [r], "a4"))
    return out


# ---------------------------------------------------------------------------
# spec-facing stable_subspaces on the sweeps' exact path
# ---------------------------------------------------------------------------

class StableFamily:
    """kind "finite" with a lattice, or "parametric" with a family."""
    __slots__ = ("kind", "lattice", "family")

    def __init__(self, kind, lattice=None, family=None):
        self.kind, self.lattice, self.family = kind, lattice, family


def stable_subspaces(ms, target_rank, field=None):
    """Rank-`target_rank` subspaces stable under all of ms, as
    StableFamily records.  Only subspaces spanned by eigenvectors of
    *different* eigenvalues are in scope (pure eigenplanes are handled
    separately by the sweeps).

    ms is a list of SignedPerms.  An ms[0] with distinct eigenvalues goes
    through Galois descent over `field` (default Q(sqrt(-1),
    sqrt(2))).  An involutive first matrix goes through pair_analysis
    with ms[1], then through the rational roots of the constraints that
    ms[2:] impose.  The result is finite lattices, or one parametric
    record whose MixedFamily all of ms keep stable at every point.  A
    single involutive matrix raises ValueError: the mixed line needs a
    second matrix."""
    if target_rank != 2:
        raise ValueError("only rank-2 subspaces are in scope")
    try:
        _square_sign(ms[0])
    except ValueError:
        if field is None:
            field = field_create(ORDER4_FIELD)
        _, res = stable_subspaces_finite(ms, 2, field)
        return [StableFamily("finite", f["lattice"]) for f in res]
    if len(ms) < 2:
        raise ValueError("an involutive first matrix needs a second "
                         "matrix to fix the mixed line")
    kind, found = pair_analysis(ms[0], ms[1])
    if kind == "none":
        return []
    if kind == "finite":
        return [StableFamily("finite", lat) for lat in found
                if _is_stable(lat, ms[2:])]
    _, points = constrained_points(found, ms[2:])
    if points is None:
        found = MixedFamily(found.a, found.b, found.c, found.d, list(ms))
        return [StableFamily("parametric", family=found)]
    return [StableFamily("finite", lat) for _, lat in points]
