"""
Quaternion algebras with exact coefficients, explicit sl(2) triples inside
them, and the full verification suite for the 8-dimensional rational
representation of E(a,1)^o built from the weight-basis tables: Lie
brackets, Galois equivariance, symplectic descent and invariance, and the
irreducibility decision procedure.

Everything is matrix/vector identity checking over multiquadratic fields;
the hardcoded tables are cross-validated by regenerating them from the
explicit algebra elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .fields import (QQ, DependentGenerators, ExactMatrix, FieldElement,
                     GaloisElement, MultiQuadField, apply_galois,
                     field_create)
from .liereps import (WeightModule, invariant_space, tensor_module,
                      wedge2_module)


def _flip_generator(field: MultiQuadField, idx: int) -> GaloisElement:
    """The Galois element negating sqrt(gens[idx]) and fixing the rest."""
    return GaloisElement(tuple(-1 if t == idx else 1
                               for t in range(len(field.gens))))


def _field_lift(small: MultiQuadField, big: MultiQuadField):
    """Inclusion of a multiquadratic field whose generators all occur among
    the generators of a bigger one."""
    # big-field bitmask of each small-field monomial
    bit = [1 << big.gens.index(d) for d in small.gens]
    mask_map = [sum(b for t, b in enumerate(bit) if m >> t & 1)
                for m in range(small.degree)]

    def lift(e: FieldElement) -> FieldElement:
        nums = [0] * big.degree
        for m, x in zip(mask_map, e.nums):
            nums[m] = x
        return FieldElement.from_nums(big, nums, e.den)

    return lift

# ---------------------------------------------------------------------------
# square roots inside multiquadratic fields
# ---------------------------------------------------------------------------

def squarefree_split(r):
    """r = s^2 * r0 with r0 a square-free integer; returns (s, r0)."""
    fr = Fraction(r)
    assert fr != 0
    n = fr.numerator * fr.denominator
    s = Fraction(1, fr.denominator)
    s2, n0 = 1, n
    d = 2
    while d * d <= abs(n0):
        while n0 % (d * d) == 0:
            n0 //= d * d
            s2 *= d
        d += 1
    return s * s2, n0


def sqrt_gens(*values):
    """Square-free generator list needed to express every sqrt(value)."""
    gens = []
    for r in values:
        _, r0 = squarefree_split(r)
        if r0 != 1 and r0 not in gens:
            gens.append(r0)
    return gens


def sqrt_in(field: MultiQuadField, r) -> FieldElement:
    """sqrt(r) as an element of the field (r's square-free part must be a
    generator)."""
    s, r0 = squarefree_split(r)
    if r0 == 1:
        return field.rational(s)
    return field.sqrt_gen(r0) * field.rational(s)


# ---------------------------------------------------------------------------
# quaternion algebras (optionally extended by a central J with J^2 = D)
# ---------------------------------------------------------------------------

class QuaternionAlgebra:
    """Basis {1, i, j, k} with i^2 = a, j^2 = b, ij = -ji = k; when D is
    given, the algebra is doubled by a central J with J^2 = D (basis
    1, i, j, k, J, Ji, Jj, Jk).  Elements are coefficient tuples."""

    def __init__(self, field: MultiQuadField, a, b, D=None):
        self.field = field
        self.a = FieldElement.coerce(field, a)
        self.b = FieldElement.coerce(field, b)
        self.D = None if D is None else FieldElement.coerce(field, D)
        self.dim = 4 if D is None else 8
        one = field.one()
        ab = self.a * self.b
        # unit_table[p][q] = (coefficient, unit index) for q_p * q_q
        self._units = [
            [(one, 0), (one, 1), (one, 2), (one, 3)],
            [(one, 1), (self.a, 0), (one, 3), (self.a, 2)],
            [(one, 2), (-one, 3), (self.b, 0), (-self.b, 1)],
            [(one, 3), (-self.a, 2), (self.b, 1), (-ab, 0)],
        ]
        self._check_associative()

    def zero(self):
        return tuple(self.field.zero() for _ in range(self.dim))

    def basis_element(self, t):
        z = [self.field.zero()] * self.dim
        z[t] = self.field.one()
        return tuple(z)

    def add(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def sub(self, x, y):
        return tuple(p - q for p, q in zip(x, y))

    def scale(self, c, x):
        c = FieldElement.coerce(self.field, c)
        return tuple(c * p for p in x)

    def mul(self, x, y):
        out = [self.field.zero()] * self.dim
        n_units = 4
        for p in range(self.dim):
            if x[p].is_zero():
                continue
            ep, qp = divmod(p, n_units) if self.dim == 8 else (0, p)
            for q in range(self.dim):
                if y[q].is_zero():
                    continue
                eq, qq = divmod(q, n_units) if self.dim == 8 else (0, q)
                coeff, unit = self._units[qp][qq]
                c = x[p] * y[q] * coeff
                e = ep + eq
                if e == 2:
                    c = c * self.D
                    e = 0
                out[e * n_units + unit] = out[e * n_units + unit] + c
        return tuple(out)

    def bracket(self, x, y):
        return self.sub(self.mul(x, y), self.mul(y, x))

    def galois(self, g, x):
        return tuple(apply_galois(g, c) for c in x)

    def is_zero(self, x):
        return all(c.is_zero() for c in x)

    def equal(self, x, y):
        return self.is_zero(self.sub(x, y))

    def _check_associative(self):
        for p in range(self.dim):
            ep = self.basis_element(p)
            for q in range(self.dim):
                eq = self.basis_element(q)
                pq = self.mul(ep, eq)
                for r in range(self.dim):
                    er = self.basis_element(r)
                    lhs = self.mul(pq, er)
                    rhs = self.mul(ep, self.mul(eq, er))
                    assert self.equal(lhs, rhs), "associativity failure"


# ---------------------------------------------------------------------------
# sl(2) triples
# ---------------------------------------------------------------------------

@dataclass
class SL2Triple:
    algebra: QuaternionAlgebra
    h: tuple
    x: tuple
    y: tuple

    def verify_brackets(self) -> bool:
        alg = self.algebra
        two = alg.field.rational(2)
        ok = alg.equal(alg.bracket(self.h, self.x), alg.scale(two, self.x))
        ok &= alg.equal(alg.bracket(self.h, self.y),
                        alg.scale(-two, self.y))
        ok &= alg.equal(alg.bracket(self.x, self.y), self.h)
        return ok


def sl2_triple(a, lam) -> SL2Triple:
    """The explicit triple h = i/sqrt(a), x = (j + k/sqrt(a))/(2 lam),
    y = (j - k/sqrt(a))/2 inside the quaternion algebra with i^2 = a,
    j^2 = lam."""
    gens = sqrt_gens(a)
    field = field_create(gens) if gens else QQ
    alg = QuaternionAlgebra(field, a, lam)
    sa = sqrt_in(field, a)
    sa_inv = sa.inverse()
    i, j, k = alg.basis_element(1), alg.basis_element(2), alg.basis_element(3)
    h = alg.scale(sa_inv, i)
    half = Fraction(1, 2)
    lam_el = FieldElement.coerce(field, lam)
    x = alg.scale((lam_el * field.rational(2)).inverse(),
                  alg.add(j, alg.scale(sa_inv, k)))
    y = alg.scale(field.rational(half), alg.sub(j, alg.scale(sa_inv, k)))
    tri = SL2Triple(alg, h, x, y)
    assert tri.verify_brackets()
    return tri


def conjugation_relation(a, lam) -> bool:
    """a < 0: lam * conj(x) = y;  a > 0: conj(x) = x  (coefficient-wise
    complex conjugation of the field)."""
    tri = sl2_triple(a, lam)
    alg = tri.algebra
    xbar = tuple(c.conj() for c in tri.x)
    if Fraction(a) < 0:
        return alg.equal(alg.scale(FieldElement.coerce(alg.field, lam), xbar),
                         tri.y)
    return alg.equal(xbar, tri.x)


GENERATOR_NAMES = ("h1", "h2", "x1", "x2", "y1", "y2")


def e_a1_triples(D, a):
    """The six explicit elements identifying E(a,1)^o ⊗ F with
    sl(2) x sl(2): two commuting triples (h1,x1,y1), (h2,x2,y2) inside
    the J-extended quaternion algebra (J^2 = D, central)."""
    gens = sqrt_gens(D, a)
    field = field_create(gens)
    alg = QuaternionAlgebra(field, a, 1, D=D)
    sD = sqrt_in(field, D)
    sa_inv = sqrt_in(field, a).inverse()
    pref = (field.rational(2) * sD).inverse()
    i, j, k = alg.basis_element(1), alg.basis_element(2), alg.basis_element(3)
    Ji = alg.basis_element(5)
    Jj = alg.basis_element(6)
    Jk = alg.basis_element(7)

    def with_J(vec):
        """J * vec for a vec supported on {i, j, k}."""
        out = [field.zero()] * 8
        for t in range(1, 4):
            out[4 + t] = vec[t]
        return tuple(out)

    del Ji, Jj, Jk
    half = field.rational(Fraction(1, 2))
    jk_plus = alg.add(j, alg.scale(sa_inv, k))     # j + k/sqrt(a)
    jk_minus = alg.sub(j, alg.scale(sa_inv, k))    # j - k/sqrt(a)
    h1 = alg.scale(pref, alg.add(with_J(alg.scale(sa_inv, i)),
                                 alg.scale(sD * sa_inv, i)))
    h2 = alg.scale(pref, alg.sub(with_J(alg.scale(sa_inv, i)),
                                 alg.scale(sD * sa_inv, i)))
    x1 = alg.scale(pref, alg.add(with_J(alg.scale(half, jk_plus)),
                                 alg.scale(sD * half, jk_plus)))
    x2 = alg.scale(pref, alg.sub(with_J(alg.scale(half, jk_minus)),
                                 alg.scale(sD * half, jk_minus)))
    y1 = alg.scale(pref, alg.add(with_J(alg.scale(half, jk_minus)),
                                 alg.scale(sD * half, jk_minus)))
    y2 = alg.scale(pref, alg.sub(with_J(alg.scale(half, jk_plus)),
                                 alg.scale(sD * half, jk_plus)))
    return alg, {"h1": h1, "h2": h2, "x1": x1, "x2": x2, "y1": y1, "y2": y2}


def verify_e_a1_brackets(alg, gens) -> bool:
    """All 15 pairwise bracket identities of the two commuting triples."""
    two = alg.field.rational(2)
    expect = {
        ("h1", "x1"): ("x1", two), ("h1", "y1"): ("y1", -two),
        ("x1", "y1"): ("h1", alg.field.one()),
        ("h2", "x2"): ("x2", two), ("h2", "y2"): ("y2", -two),
        ("x2", "y2"): ("h2", alg.field.one()),
    }
    names = GENERATOR_NAMES
    count = 0
    for s in range(len(names)):
        for t in range(s + 1, len(names)):
            n1, n2 = names[s], names[t]
            br = alg.bracket(gens[n1], gens[n2])
            key = (n1, n2) if (n1, n2) in expect else (n2, n1)
            if key in expect:
                target, coeff = expect[key]
                sign = 1 if key == (n1, n2) else -1
                want = alg.scale(coeff * alg.field.rational(sign), gens[target])
                if not alg.equal(br, want):
                    return False
            else:
                if not alg.is_zero(br):
                    return False
            count += 1
    assert count == 15
    return True


# ---------------------------------------------------------------------------
# hardcoded tables of the 8-dimensional construction
# ---------------------------------------------------------------------------

WEIGHT_LABELS = ("1,1", "-1,-1", "1,-1", "-1,1")

# action of each generator on a single weight block; entries
# label -> (sign, target label) or None for zero
REP_TABLE = {
    "h1": {"1,1": (1, "1,1"), "-1,-1": (-1, "-1,-1"),
           "1,-1": (1, "1,-1"), "-1,1": (-1, "-1,1")},
    "h2": {"1,1": (1, "1,1"), "-1,-1": (-1, "-1,-1"),
           "1,-1": (-1, "1,-1"), "-1,1": (1, "-1,1")},
    "y1": {"1,1": (1, "-1,1"), "-1,-1": None,
           "1,-1": (1, "-1,-1"), "-1,1": None},
    "y2": {"1,1": (1, "1,-1"), "-1,-1": None,
           "1,-1": None, "-1,1": (1, "-1,-1")},
    "x1": {"1,1": None, "-1,-1": (1, "1,-1"),
           "1,-1": None, "-1,1": (1, "1,1")},
    "x2": {"1,1": None, "-1,-1": (1, "-1,1"),
           "1,-1": (1, "1,1"), "-1,1": None},
}

# Galois action on the v-basis of V_sigma; w entries follow by
# commutativity (g . w = g . g2 . v = g2 . (g . v))
GALOIS_EIGEN_TABLE = {
    "g1": {"1,1": (-1, "v", "-1,-1"), "-1,-1": (-1, "v", "1,1"),
           "1,-1": (1, "v", "1,-1"), "-1,1": (1, "v", "-1,1")},
    "g2": {"1,1": (1, "w", "1,1"), "-1,-1": (1, "w", "-1,-1"),
           "1,-1": (1, "w", "1,-1"), "-1,1": (1, "w", "-1,1")},
    "g3": {"1,1": (-1, "v", "-1,-1"), "-1,-1": (-1, "v", "1,1"),
           "1,-1": (-1, "v", "-1,1"), "-1,1": (-1, "v", "1,-1")},
}

# Galois action on the six Lie generators
GALOIS_LIE_TABLE = {
    "g1": {"h1": (-1, "h2"), "h2": (-1, "h1"), "x1": (-1, "y2"),
           "x2": (-1, "y1"), "y1": (-1, "x2"), "y2": (-1, "x1")},
    "g2": {n: (1, n) for n in GENERATOR_NAMES},
    "g3": {"h1": (-1, "h1"), "h2": (-1, "h2"), "x1": (1, "y1"),
           "x2": (1, "y2"), "y1": (1, "x1"), "y2": (1, "x2")},
}


class AntiWeilRep:
    """The 8-dimensional rational representation of E(a,1)^o determined by
    the weight-basis tables, realized concretely: V ⊗ F has the f-basis
    f_1..f_4 (the sigma-eigenspace of the imaginary quadratic action) and
    f-bar_1..f-bar_4 = g2(f); all matrices are over F = Q(sqrt D', sqrt D,
    sqrt a) in the f-coordinates."""

    def __init__(self, Dp, D, a):
        for val in (Dp, D, a):
            assert Fraction(val) < 0
        gens = sqrt_gens(Dp, D, a)
        if len(gens) != 3:
            raise DependentGenerators(
                f"parameters {(Dp, D, a)} do not generate a degree-8 field")
        self.params = (Dp, D, a)
        self.field = field_create(gens)
        F = self.field
        self.sDp = sqrt_in(F, Dp)
        self.sD = sqrt_in(F, D)
        self.sa = sqrt_in(F, a)
        self._gen_index = {}
        for tag, root in (("g1", D), ("g2", Dp), ("g3", a)):
            _, r0 = squarefree_split(root)
            self._gen_index[tag] = F.gens.index(r0)
        self.galois = {tag: _flip_generator(F, idx)
                       for tag, idx in self._gen_index.items()}

        # v/w basis in f-coordinates (8x8 matrix with basis as columns)
        saD = self.sa * self.sD
        zero = F.zero()
        one = F.one()
        vcols = [
            [-one, saD, zero, zero],      # v_{1,1}
            [one, saD, zero, zero],       # v_{-1,-1}
            [zero, zero, -one, self.sa],  # v_{1,-1}
            [zero, zero, one, self.sa],   # v_{-1,1}
        ]
        cols = []
        for c in vcols:
            cols.append(c + [zero] * 4)
        for c in vcols:
            # w = g2(v): g2 fixes sqrt(aD) and sqrt(a), moves to the f-bar block
            cols.append([zero] * 4 + [apply_galois(self.galois["g2"], e)
                                      for e in c])
        self.basis_labels = tuple(f"v{l}" for l in WEIGHT_LABELS) + \
            tuple(f"w{l}" for l in WEIGHT_LABELS)
        self.B = ExactMatrix(F, [[cols[j][i] for j in range(8)]
                                 for i in range(8)])
        self.B_inv = self.B.inverse()

        # action matrices, f-coordinates
        self.mu = {}
        for name in GENERATOR_NAMES:
            A = [[F.zero()] * 8 for _ in range(8)]
            for blk in (0, 4):
                for ci, label in enumerate(WEIGHT_LABELS):
                    entry = REP_TABLE[name][label]
                    if entry is None:
                        continue
                    sign, target = entry
                    A[blk + WEIGHT_LABELS.index(target)][blk + ci] = \
                        F.rational(sign)
            Amat = ExactMatrix(F, A)
            self.mu[name] = self.B * Amat * self.B_inv

        # the imaginary quadratic generator sqrt(D') acts by sDp on V_sigma
        # and -sDp on V_sigma-bar
        J = [[F.zero()] * 8 for _ in range(8)]
        for t in range(4):
            J[t][t] = self.sDp
            J[4 + t][4 + t] = -self.sDp
        self.J = ExactMatrix(F, J)

        # symplectic Gram matrix in the v/w basis, then in f-coordinates
        M = -self.sDp
        G = [[F.zero()] * 8 for _ in range(8)]
        pairs = {("1,1", "-1,-1"): M, ("-1,-1", "1,1"): M,
                 ("-1,1", "1,-1"): -M, ("1,-1", "-1,1"): -M}
        for (lv, lw), val in pairs.items():
            r = WEIGHT_LABELS.index(lv)
            c = 4 + WEIGHT_LABELS.index(lw)
            G[r][c] = val
            G[c][r] = -val
        self.gram_vw = ExactMatrix(F, G)
        self.gram = self.B_inv.transpose() * self.gram_vw * self.B_inv

    # -- Galois machinery ---------------------------------------------------

    def galois_on_vector(self, tag, vec):
        """Semilinear Galois action on f-coordinate vectors: conjugate
        coefficients; the sqrt(D')-flipping generator also swaps the
        f and f-bar blocks."""
        g = self.galois[tag]
        out = [apply_galois(g, c) for c in vec]
        if g.signs[self._gen_index["g2"]] == -1:
            out = out[4:] + out[:4]
        return out

    # -- verification -------------------------------------------------------

    def verify_matrix_brackets(self) -> bool:
        """The 8x8 matrices satisfy the sl(2) x sl(2) relations."""
        mu = self.mu
        F = self.field
        two = F.rational(2)

        def br(p, q):
            return mu[p] * mu[q] - mu[q] * mu[p]

        checks = [
            br("h1", "x1") == mu["x1"].scale(two),
            br("h1", "y1") == mu["y1"].scale(-two),
            br("x1", "y1") == mu["h1"],
            br("h2", "x2") == mu["x2"].scale(two),
            br("h2", "y2") == mu["y2"].scale(-two),
            br("x2", "y2") == mu["h2"],
        ]
        zeromat = ExactMatrix(F, [[F.zero()] * 8 for _ in range(8)])
        for p in ("h1", "x1", "y1"):
            for q in ("h2", "x2", "y2"):
                checks.append(br(p, q) == zeromat)
        return all(checks)

    def regenerate_galois_lie_table(self):
        """Recompute the Galois action on the six generators from the
        explicit quaternion elements and express it back in the
        generator basis; returns the table in the hardcoded format."""
        Dp, D, a = self.params
        alg, gens = e_a1_triples(D, a)
        # coordinates of the six generators as an F'-basis of the span
        Fq = alg.field
        span = ExactMatrix(Fq, [[gens[n][t] for n in GENERATOR_NAMES]
                                for t in range(8)])
        table = {}
        for tag, root in (("g1", D), ("g3", a)):
            _, r0 = squarefree_split(root)
            gq = _flip_generator(Fq, Fq.gens.index(r0))
            table[tag] = {}
            for n in GENERATOR_NAMES:
                img = alg.galois(gq, gens[n])
                sol = span.solve(list(img))
                assert sol is not None
                nz = [(t, c) for t, c in enumerate(sol) if not c.is_zero()]
                assert len(nz) == 1 and nz[0][1].is_rational()
                t, c = nz[0]
                table[tag][n] = (int(c.as_fraction()), GENERATOR_NAMES[t])
        # g2 only moves sqrt(D'), which the algebra elements do not contain
        table["g2"] = {n: (1, n) for n in GENERATOR_NAMES}
        return table

    def verify_galois_equivariance(self):
        """g^{-1} mu(l) (g v) = mu(g^{-1} l) v for the three Galois
        generators, six Lie generators and eight basis vectors."""
        failures = []
        count = 0
        for tag in ("g1", "g2", "g3"):
            for name in GENERATOR_NAMES:
                sign, target = GALOIS_LIE_TABLE[tag][name]
                rhs_mat = self.mu[target].scale(self.field.rational(sign))
                for t in range(8):
                    vec = [self.field.one() if s == t else self.field.zero()
                           for s in range(8)]
                    gv = self.galois_on_vector(tag, vec)
                    lhs = self.galois_on_vector(tag, self.mu[name] * gv)
                    rhs = rhs_mat * vec
                    count += 1
                    if any(not (p - q).is_zero() for p, q in zip(lhs, rhs)):
                        failures.append((tag, name, t))
        assert count == 144
        return (not failures), failures

    def phi(self, u, v):
        gu = self.gram * v
        return sum((u[t] * gu[t] for t in range(8)), self.field.zero())

    def verify_symplectic(self):
        F = self.field
        checks = {}
        # antisymmetry and nondegeneracy
        checks["antisymmetric"] = \
            self.gram.transpose() == self.gram.scale(F.rational(-1))
        checks["nondegenerate"] = not self.gram.det().is_zero()
        # (i) Galois descent
        ok = True
        basis = [[F.one() if s == t else F.zero() for s in range(8)]
                 for t in range(8)]
        for tag in ("g1", "g2", "g3"):
            g = self.galois[tag]
            for u in basis:
                for v in basis:
                    lhs = self.phi(self.galois_on_vector(tag, u),
                                   self.galois_on_vector(tag, v))
                    rhs = apply_galois(g, self.phi(u, v))
                    if not (lhs - rhs).is_zero():
                        ok = False
        checks["descent"] = ok
        # (ii) infinitesimal invariance
        checks["infinitesimal"] = all(
            (self.mu[n].transpose() * self.gram
             + self.gram * self.mu[n])
            == ExactMatrix(F, [[F.zero()] * 8 for _ in range(8)])
            for n in GENERATOR_NAMES)
        # (iii) adjointness of the quadratic generator: phi(Jv, w) =
        # phi(v, conj(J) w) with conj(J) = -J
        checks["k_adjoint"] = \
            (self.J.transpose() * self.gram) \
            == (self.gram * self.J.scale(F.rational(-1)))
        # (iv) central invariance: k + conj(k) = 0 means k = c sqrt(D'),
        # and phi(kv, w) + phi(v, kw) = 0 is (iii) restated
        checks["central_invariance"] = \
            (self.J.transpose() * self.gram + self.gram * self.J) \
            == ExactMatrix(F, [[F.zero()] * 8 for _ in range(8)])
        # isotropy of the eigenspaces (v/w Gram blocks vanish)
        iso = all(self.gram_vw.entries[r][c].is_zero()
                  for r in range(4) for c in range(4))
        iso &= all(self.gram_vw.entries[4 + r][4 + c].is_zero()
                   for r in range(4) for c in range(4))
        checks["isotropy"] = iso
        # spot values
        vmm = self.B * [F.one() if self.basis_labels[t] == "v-1,-1"
                        else F.zero() for t in range(8)]
        wpp = self.B * [F.one() if self.basis_labels[t] == "w1,1"
                        else F.zero() for t in range(8)]
        checks["phi_value"] = (self.phi(vmm, wpp) + self.sDp).is_zero()
        return all(checks.values()), checks

    def verify_irreducibility(self):
        """Weight-line patterns: a proper invariant subspace must be
        spanned by p_l v_l + q_l w_l per weight; stability under the
        sqrt(D') action forces p_l q_l = 0, and none of the 16 resulting
        side patterns is Galois stable."""
        F = self.field

        def vw_vector(label, side):
            t = self.basis_labels.index(side + label)
            return self.B * [F.one() if s == t else F.zero()
                             for s in range(8)]

        # mixed p, q nonzero: the J image leaves the line
        for p, q in ((1, 1), (1, -1), (2, 3)):
            v = vw_vector("1,1", "v")
            w = vw_vector("1,1", "w")
            mixed = [F.rational(p) * a + F.rational(q) * b
                     for a, b in zip(v, w)]
            jm = self.J * mixed
            if ExactMatrix(F, [mixed, jm]).rank() != 2:
                return False
        for p, q in ((1, 0), (0, 1)):
            v = vw_vector("1,1", "v")
            w = vw_vector("1,1", "w")
            pure = [F.rational(p) * a + F.rational(q) * b
                    for a, b in zip(v, w)]
            jp = self.J * pure
            if ExactMatrix(F, [pure, jp]).rank() != 1:
                return False

        # the 16 pure side patterns all fail Galois stability
        for sides in iproduct("vw", repeat=4):
            span_vecs = [vw_vector(label, side)
                         for label, side in zip(WEIGHT_LABELS, sides)]
            span = ExactMatrix(F, span_vecs)
            stable = True
            for tag in ("g1", "g2", "g3"):
                for vec in span_vecs:
                    img = self.galois_on_vector(tag, vec)
                    if ExactMatrix(F, span.entries + [img]).rank() != 4:
                        stable = False
            if stable:
                return False
        return True

    # -- rational model -----------------------------------------------------

    RATIONAL_UNITS = (("i", 1), ("j", 2), ("k", 3),
                      ("Ji", 5), ("Jj", 6), ("Jk", 7))

    def rational_model(self):
        """Matrices of the rational algebra basis i, j, k, Ji, Jj, Jk (as
        F-combinations of the six generators pushed through mu) and of the
        sqrt(D') action, in a Q-basis of V (u_t = f_t + fbar_t,
        u'_t = sqrt(D')(f_t - fbar_t)); all entries must be rational,
        certifying descent to Q.  The six sl(2) generators themselves are
        genuinely irrational combinations and do not descend."""
        F = self.field
        Dp, D, a = self.params
        alg, gens = e_a1_triples(D, a)
        Fq = alg.field
        span = ExactMatrix(Fq, [[gens[n][t] for n in GENERATOR_NAMES]
                                for t in range(8)])
        lift = _field_lift(Fq, F)
        rational_mats = {}
        for name, idx in self.RATIONAL_UNITS:
            target = [Fq.one() if t == idx else Fq.zero() for t in range(8)]
            sol = span.solve(target)
            assert sol is not None
            acc = ExactMatrix(F, [[F.zero()] * 8 for _ in range(8)])
            for c, gname in zip(sol, GENERATOR_NAMES):
                acc = acc + self.mu[gname].scale(lift(c))
            rational_mats[name] = acc

        cols = []
        for t in range(4):
            c = [F.zero()] * 8
            c[t] = F.one()
            c[4 + t] = F.one()
            cols.append(c)
        for t in range(4):
            c = [F.zero()] * 8
            c[t] = self.sDp
            c[4 + t] = -self.sDp
            cols.append(c)
        U = ExactMatrix(F, [[cols[j][i] for j in range(8)]
                            for i in range(8)])
        U_inv = U.inverse()
        out = {}
        for name, mat in list(rational_mats.items()) + [("J", self.J)]:
            ru = U_inv * mat * U
            assert all(e.is_rational() for row in ru.entries for e in row), \
                f"{name} does not descend to Q"
            out[name] = [[e.as_fraction() for e in row] for row in ru.entries]
        gram_u = U.transpose() * self.gram * U
        assert all(e.is_rational() for row in gram_u.entries for e in row)
        out["gram"] = [[e.as_fraction() for e in row]
                       for row in gram_u.entries]
        return out


def build_antiweil_rep(Dp=-1, D=-2, a=-3) -> AntiWeilRep:
    return AntiWeilRep(Dp, D, a)


def verify_galois_equivariance(rep: AntiWeilRep) -> bool:
    ok, _ = rep.verify_galois_equivariance()
    return ok


def verify_symplectic(rep: AntiWeilRep) -> bool:
    ok, _ = rep.verify_symplectic()
    return ok


def verify_irreducibility(rep: AntiWeilRep) -> bool:
    return rep.verify_irreducibility()


# ---------------------------------------------------------------------------
# degree-2 invariants of the rational model (kernel computations)
# ---------------------------------------------------------------------------

def _rational_module(rep: AntiWeilRep) -> WeightModule:
    """V over Q with the rational units and J of one rational_model()
    call as its generator actions."""
    model = rep.rational_model()
    names = [n for n, _ in AntiWeilRep.RATIONAL_UNITS] + ["J"]
    return WeightModule(range(8), [(n, model[n]) for n in names], [])


def invariant_endomorphisms_dim(rep: AntiWeilRep) -> int:
    """dim of { T in End(V) : [mu(l), T] = 0 for all l, [J, T] = 0 },
    computed over Q in the rational model as the invariants of V ⊗ V*,
    where m ⊗ 1 + 1 ⊗ (-m^T) acts as T -> [m, T].  Expected 2 (the
    quadratic field acting)."""
    w = _rational_module(rep)
    dual = WeightModule(range(8), [(n, [[-x for x in col] for col in zip(*m)])
                                   for n, m in w.actions.items()], [])
    return len(invariant_space(tensor_module(w, dual)))


def invariant_wedge2_dim(rep: AntiWeilRep) -> int:
    """dim of the wedge-square invariants under the six generators and
    the centered quadratic action (which kills no symplectic line);
    expected 1, the line of the symplectic form."""
    return len(invariant_space(wedge2_module(_rational_module(rep))))
