"""
Quaternion algebras with exact coefficients, explicit sl(2) triples inside
them, and the full verification suite for the 8-dimensional rational
representation of E(a,1)^o built from the weight-basis tables: Lie
brackets, Galois equivariance, symplectic descent and invariance, and the
irreducibility decision procedure.

Everything is matrix/vector identity checking over multiquadratic fields;
the hardcoded tables are cross-validated by regenerating them from the
explicit algebra elements.  Facts of the int tables that do not depend
on (D', D, a), like the weight table's relations, Gram invariance and
invariant counts, are proven once per process (functools.cache); each
rep checks only the premises that carry them over to its matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import product as iproduct

from .fields import (QQ, DependentGenerators, ExactMatrix, FieldElement,
                     GaloisElement, MultiQuadField, apply_galois,
                     field_create, field_inclusion, form_value,
                     is_galois_image, rational_rank, squarefree_split,
                     sum_of_products)
from .liereps import (WeightModule, _vanishes as _rows_vanish,
                      commutant_rows, sl2_relations_hold, wedge2_module)


def _flip_generator(field: MultiQuadField, idx: int) -> GaloisElement:
    """The Galois element negating sqrt(gens[idx]) and fixing the rest."""
    return GaloisElement(tuple(-1 if t == idx else 1
                               for t in range(len(field.gens))))


# ---------------------------------------------------------------------------
# square roots inside multiquadratic fields
# ---------------------------------------------------------------------------

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

UNIT_NAMES = ("1", "i", "j", "k", "J", "Ji", "Jj", "Jk")

# Q_p * Q_q = sign * a^ea * b^eb * Q_t for the units 1, i, j, k, as
# (sign, (ea, eb), t).
_QUATERNION_UNITS = (
    ((1, (0, 0), 0), (1, (0, 0), 1), (1, (0, 0), 2), (1, (0, 0), 3)),
    ((1, (0, 0), 1), (1, (1, 0), 0), (1, (0, 0), 3), (1, (1, 0), 2)),
    ((1, (0, 0), 2), (-1, (0, 0), 3), (1, (0, 1), 0), (-1, (0, 1), 1)),
    ((1, (0, 0), 3), (-1, (1, 0), 2), (1, (0, 1), 1), (-1, (1, 1), 0)),
)


def _doubled(p, q):
    """(J^ep Q_s)(J^eq Q_t) = J^(ep+eq) Q_s Q_t, with J^2 = D central."""
    sign, (ea, eb), t = _QUATERNION_UNITS[p % 4][q % 4]
    ep, eq = p // 4, q // 4
    return sign, (ea, eb, ep * eq), 4 * ((ep + eq) % 2) + t


# The units of the J-doubled algebra, index 4e + t for J^e Q_t:
# e_p * e_q = sign * a^ea * b^eb * D^eD * e_t as (sign, (ea, eb, eD), t).
# The 4-dimensional algebra is its top-left 4x4 block.
UNIT_TABLE = tuple(tuple(_doubled(p, q) for q in range(8)) for p in range(8))


def unit_table_associativity(table) -> int:
    """Prove (e_p e_q) e_r = e_p (e_q e_r) for every basis triple of a unit
    table whose products are signed monomials in central parameters,
    (sign, exponent vector, unit index).  Both sides are again signed
    monomials, so comparing signs, exponent vectors and units proves the
    identity for every value of the parameters, and by bilinearity for all
    elements.  Returns the number of triples; raises ValueError at the
    first triple that fails."""
    n = len(table)

    def times(mono, r):
        sign, exps, p = mono
        s, e, t = table[p][r]
        return sign * s, tuple(x + y for x, y in zip(exps, e)), t

    for p, q, r in iproduct(range(n), repeat=3):
        sign, exps, t = table[q][r]
        s, e, u = table[p][t]
        right = (sign * s, tuple(x + y for x, y in zip(exps, e)), u)
        if times(table[p][q], r) != right:
            raise ValueError(f"unit table not associative at {(p, q, r)}")
    return n ** 3


@cache
def _associative_triples() -> tuple:
    """(n, triples) for the 4- and 8-dimensional blocks of UNIT_TABLE."""
    return tuple((str(n), unit_table_associativity(
        tuple(row[:n] for row in UNIT_TABLE[:n]))) for n in (4, 8))


def algebra_associativity() -> dict:
    """Triples proven associative in the 4- and 8-dimensional algebras,
    {"4": 64, "8": 512}, as a dict of the caller's own.  The proof does
    not depend on (a, b, D), so it runs once per process."""
    return dict(_associative_triples())


def unit_table_text() -> list:
    """UNIT_TABLE as rows of strings such as "-ab*1" (sign, monomial in a,
    b, D, then the unit), for certificates."""
    def text(sign, exps, t):
        mono = "".join(v if e == 1 else f"{v}^{e}"
                       for v, e in zip("abD", exps) if e) or "1"
        return f"{'+' if sign > 0 else '-'}{mono}*{UNIT_NAMES[t]}"
    return [[text(*entry) for entry in row] for row in UNIT_TABLE]


class QuaternionAlgebra:
    """Basis {1, i, j, k} with i^2 = a, j^2 = b, ij = -ji = k; when D is
    given, the algebra is doubled by a central J with J^2 = D (basis
    1, i, j, k, J, Ji, Jj, Jk).  Elements are {unit index: FieldElement}
    dicts that hold no zero, the row form of ExactMatrix, so == compares
    them.  The product evaluates UNIT_TABLE, proven associative by
    algebra_associativity, at (a, b, D)."""

    def __init__(self, field: MultiQuadField, a, b, D=None):
        self.field = field
        self.a = FieldElement.coerce(field, a)
        self.b = FieldElement.coerce(field, b)
        self.D = None if D is None else FieldElement.coerce(field, D)
        self.dim = 4 if D is None else 8
        _associative_triples()
        monomials = {}

        def coefficient(sign, exps):
            if exps not in monomials:
                c = field.one()
                for x, e in zip((self.a, self.b, self.D), exps):
                    for _ in range(e):
                        c = c * x
                if c.is_rational() and c.as_fraction().denominator == 1:
                    c = c.as_fraction().numerator
                monomials[exps] = c
            return monomials[exps] if sign > 0 else -monomials[exps]

        # _table[p][q] = (coefficient, unit index) for e_p * e_q; a
        # rational-integer coefficient is an int, which sum_of_products
        # takes as a numerator scale
        self._table = [[(coefficient(sign, exps), t)
                        for sign, exps, t in row[:self.dim]]
                       for row in UNIT_TABLE[:self.dim]]

    def basis_element(self, t):
        return {t: self.field.one()}

    def combination(self, *pairs):
        """sum c * x over the (c, x) pairs as one sum of products: an int c
        is the structure constant of each term, any other scalar c is
        coerced into the field."""
        field = self.field
        one = field.one()
        pairs = [(c if c.__class__ is int else FieldElement.coerce(field, c),
                  x) for c, x in pairs]
        return sum_of_products(field, ((t, e, one, c) for c, x in pairs
                                       for t, e in x.items()))

    def scale(self, c, x):
        return self.combination((c, x))

    def mul(self, x, y):
        table = self._table
        return sum_of_products(self.field, (
            (t, xp, yq, coeff) for p, xp in x.items() for q, yq in y.items()
            for coeff, t in (table[p][q],)))

    def vanishes(self, terms) -> bool:
        """Whether sum c * a * b over the (c, a, b) in terms is zero, for
        an int c and elements a and b, b None for a alone: one combination
        of the products."""
        return not self.combination(*((c, a if b is None else self.mul(a, b))
                                      for c, a, b in terms))

    def galois(self, g, x):
        return {t: apply_galois(g, c) for t, c in x.items()}


# ---------------------------------------------------------------------------
# sl(2) triples
# ---------------------------------------------------------------------------

class SL2Triple:
    __slots__ = ("algebra", "h", "x", "y")

    def __init__(self, algebra, h, x, y):
        self.algebra, self.h, self.x, self.y = algebra, h, x, y

    def verify_brackets(self) -> bool:
        return sl2_relations_hold([(self.h, self.x, self.y)],
                                  self.algebra.vanishes)


def sl2_triple(a, lam) -> SL2Triple:
    """The explicit triple h = i/sqrt(a), x = (j + k/sqrt(a))/(2 lam),
    y = (j - k/sqrt(a))/2 inside the quaternion algebra with i^2 = a,
    j^2 = lam."""
    gens = sqrt_gens(a)
    field = field_create(gens) if gens else QQ
    alg = QuaternionAlgebra(field, a, lam)
    sa_inv = sqrt_in(field, a).inverse()
    i, j, k = alg.basis_element(1), alg.basis_element(2), alg.basis_element(3)
    h = alg.scale(sa_inv, i)
    x = alg.scale((alg.b * 2).inverse(),
                  alg.combination((1, j), (sa_inv, k)))
    y = alg.scale(Fraction(1, 2), alg.combination((1, j), (-sa_inv, k)))
    return SL2Triple(alg, h, x, y)


def conjugation_relation(a, lam) -> bool:
    """The triple's brackets hold, and a < 0: lam * conj(x) = y; a > 0:
    conj(x) = x  (coefficient-wise complex conjugation of the field)."""
    tri = sl2_triple(a, lam)
    alg = tri.algebra
    xbar = {t: c.conj() for t, c in tri.x.items()}
    if Fraction(a) < 0:
        return tri.verify_brackets() and alg.scale(lam, xbar) == tri.y
    return tri.verify_brackets() and xbar == tri.x


GENERATOR_NAMES = ("h1", "h2", "x1", "x2", "y1", "y2")
TRIPLE_NAMES = (("h1", "x1", "y1"), ("h2", "x2", "y2"))


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

    def doubled(vec, sign):
        """(J + sign sqrt(D)) vec / (2 sqrt(D)) for a vec supported on
        {i, j, k}: J vec is vec shifted to the J units."""
        return alg.combination((pref, {4 + t: e for t, e in vec.items()}),
                               (Fraction(sign, 2), vec))

    half = Fraction(1, 2)
    half_sa_inv = sa_inv * half
    ia = alg.scale(sa_inv, i)                                 # i/sqrt(a)
    # (j + k/sqrt(a))/2 and (j - k/sqrt(a))/2
    jk_plus = alg.combination((half, j), (half_sa_inv, k))
    jk_minus = alg.combination((half, j), (-half_sa_inv, k))
    h1, h2 = doubled(ia, 1), doubled(ia, -1)
    x1, x2 = doubled(jk_plus, 1), doubled(jk_minus, -1)
    y1, y2 = doubled(jk_minus, 1), doubled(jk_plus, -1)
    return alg, {"h1": h1, "h2": h2, "x1": x1, "x2": x2, "y1": y1, "y2": y2}


def verify_e_a1_brackets(alg, gens) -> bool:
    """All 15 pairwise bracket identities of the two commuting triples:
    three within each triple and the nine commutations across them."""
    return sl2_relations_hold([[gens[n] for n in t] for t in TRIPLE_NAMES],
                              alg.vanishes)


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


def _weight_matrix(name):
    """The 8x8 matrix A of the generator in the v/w basis as int
    {col: ±1} rows: in each block of four, sign at (t, c) when the
    weight table sends weight c to (sign, t)."""
    rows = [{} for _ in range(8)]
    for blk in (0, 4):
        for c, label in enumerate(WEIGHT_LABELS):
            entry = REP_TABLE[name][label]
            if entry is not None:
                sign, target = entry
                rows[blk + WEIGHT_LABELS.index(target)][blk + c] = sign
    return rows


WEIGHT_MATRICES = {name: _weight_matrix(name) for name in GENERATOR_NAMES}

@cache
def weight_table_relations() -> bool:
    """Whether the int rows of WEIGHT_MATRICES satisfy the sl(2) x sl(2)
    relations.  The table does not depend on (D', D, a), so the proof
    runs once per process, at the first call."""
    return sl2_relations_hold([[WEIGHT_MATRICES[n] for n in t]
                               for t in TRIPLE_NAMES], _rows_vanish)


# The int pattern G_0 of the symplectic Gram matrix in the v/w basis,
# G_vw = -sqrt(D') G_0, as {col: ±1} rows: v_l pairs with w_-l, by +1 for
# l = (1,1) and (-1,-1) and by -1 for l = (1,-1) and (-1,1); G_0 is
# antisymmetric.
GRAM_PATTERN = ({5: 1}, {4: 1}, {7: -1}, {6: -1},
                {1: -1}, {0: -1}, {3: 1}, {2: 1})


@cache
def _keeps_gram_pattern(name) -> bool:
    """Whether A^T G_0 + G_0 A = 0 for the weight-table matrix A of the
    generator name; it does not depend on (D', D, a), so it is decided
    once per generator per process."""
    A, At = WEIGHT_MATRICES[name], [{} for _ in range(8)]
    for t, row in enumerate(A):
        for c, x in row.items():
            At[c][t] = x
    return _rows_vanish([(1, At, GRAM_PATTERN), (1, GRAM_PATTERN, A)])


# The int pattern J_0 = diag(I_4, -I_4) of the sqrt(D') action in the v/w
# basis, B^-1 J B = sqrt(D') J_0, as {col: ±1} rows.
SPLIT_PATTERN = tuple({r: 1 if r < 4 else -1} for r in range(8))


def _invariant_counts(w: WeightModule) -> tuple:
    """(End count, ∧² count) of the generators of w: n² minus the rank of
    the commutant system X -> m X - X m, and dim ∧²V minus the rank of the
    stacked ∧² actions; ranks of int systems, no kernel basis formed.
    The ∧² module is built only once the End system is gone, so the two
    systems are never held at once."""
    mats = [w.actions[name] for name in w.generator_names()]
    end = w.dim ** 2 - rational_rank(commutant_rows(mats, w.dim))
    wedge = wedge2_module(w)
    return end, wedge.dim - rational_rank(
        [row for name in wedge.generator_names()
         for row in wedge.actions[name]])


@cache
def weight_table_counts() -> tuple:
    """(End count, ∧² count, rank of G_0) of the weight table: the
    invariant counts of the six WEIGHT_MATRICES A_l and J_0 = SPLIT_PATTERN
    (448 and 196 int rows), and the rank of GRAM_PATTERN.  The table does
    not depend on (D', D, a), so they are computed once per process, at
    the first call; expected (2, 1, 8)."""
    w = WeightModule(range(8), [*WEIGHT_MATRICES.items(),
                                ("J", SPLIT_PATTERN)], [])
    return _invariant_counts(w) + (rational_rank(GRAM_PATTERN),)


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


def _split_scalar(field: MultiQuadField, c) -> ExactMatrix:
    """c J_0 = diag(c I_4, -c I_4), read off SPLIT_PATTERN."""
    return ExactMatrix.from_rows(field, [
        {r: c if s > 0 else -c for r, s in row.items()}
        for row in SPLIT_PATTERN], 8)


def _vanishes(terms) -> bool:
    """Whether the matrix combination sum c * a * b over the (c, a, b) in
    terms is zero; see ExactMatrix.combination."""
    return not any(ExactMatrix.combination(terms).nonzero)


class AntiWeilRep:
    """The 8-dimensional rational representation of E(a,1)^o determined by
    the weight-basis tables, realized concretely: V ⊗ F has the f-basis
    f_1..f_4 (the sigma-eigenspace of the imaginary quadratic action) and
    f-bar_1..f-bar_4 = g2(f); all matrices are over F = Q(sqrt D', sqrt D,
    sqrt a) in the f-coordinates.  The explicit algebra elements (e_a1)
    and the rational model are built once per rep, on first use."""

    def __init__(self, Dp, D, a):
        for name, val in (("D'", Dp), ("D", D), ("a", a)):
            if not Fraction(val) < 0:
                raise ValueError(f"{name} = {val} is not negative")
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
        one = F.one()
        vcols = [
            {0: -one, 1: saD},      # v_{1,1}
            {0: one, 1: saD},       # v_{-1,-1}
            {2: -one, 3: self.sa},  # v_{1,-1}
            {2: one, 3: self.sa},   # v_{-1,1}
        ]
        # w = g2(v): g2 fixes sqrt(aD) and sqrt(a), moves to the f-bar block
        wcols = [{4 + t: apply_galois(self.galois["g2"], e)
                  for t, e in c.items()} for c in vcols]
        self.basis_labels = tuple(f"v{l}" for l in WEIGHT_LABELS) + \
            tuple(f"w{l}" for l in WEIGHT_LABELS)
        self.B = ExactMatrix.from_rows(F, vcols + wcols, 8).transpose()
        self.B_inv = self.B.inverse()

        # action matrices, f-coordinates: the weight-table matrix A holds
        # sign at (t, c), so column c of B A is sign * column t of B, and
        # mu = (B A) B^-1 is one product
        self.mu = {}
        for name in GENERATOR_NAMES:
            A = WEIGHT_MATRICES[name]
            BA = ExactMatrix.from_rows(
                F, [{c: x if sign > 0 else -x for t, x in row.items()
                     for c, sign in A[t].items()}
                    for row in self.B.nonzero], 8)
            self.mu[name] = BA * self.B_inv

        # the imaginary quadratic generator sqrt(D') acts by sDp on V_sigma
        # and -sDp on V_sigma-bar
        self.J = _split_scalar(F, self.sDp)

        # symplectic Gram matrix in the v/w basis, -sqrt(D') G_0, then in
        # f-coordinates: B^-T G B^-1 at (i, j) is the sum over the nonzeros
        # G[r][s] of B^-1[r][i] G[r][s] B^-1[s][j], one sum of products
        # with the entry G[r][s] as the constant of each term
        value = {1: -self.sDp, -1: self.sDp}
        G = [{c: value[x] for c, x in row.items()} for row in GRAM_PATTERN]
        inv = self.B_inv.nonzero
        self.gram = ExactMatrix.from_rows(F, _split(sum_of_products(F, (
            (8 * i + j, x, y, g) for r, row in enumerate(G)
            for s, g in row.items() for i, x in inv[r].items()
            for j, y in inv[s].items()))), 8)

    @cached_property
    def e_a1(self):
        """e_a1_triples(D, a) and the 8x6 matrix whose columns are the six
        generators in the algebra basis: (alg, gens, span)."""
        _, D, a = self.params
        alg, gens = e_a1_triples(D, a)
        span = ExactMatrix.from_rows(
            alg.field, [gens[n] for n in GENERATOR_NAMES], 8).transpose()
        return alg, gens, span

    # -- Galois machinery ---------------------------------------------------

    def galois_act(self, tag, m: ExactMatrix) -> ExactMatrix:
        """Semilinear Galois action on the columns of m, f-coordinate
        vectors: conjugate the entries; a generator flipping sqrt(D') also
        swaps the f and f-bar row blocks."""
        g = self.galois[tag]
        out = m.galois(g)
        if g.signs[self._gen_index["g2"]] == -1:
            out = out.take_rows([4, 5, 6, 7, 0, 1, 2, 3])
        return out

    def _galois_mismatches(self, tag, X, Y, sign=1) -> set:
        """The columns t at which P g(X) P and sign Y differ, for the rows
        X and Y of two 8x8 matrices and P = g(I), the involution t -> t ^ 4
        when g flips sqrt(D') and I otherwise: entry (r, t) of P g(X) P is
        g(X[r ^ s][t ^ s]) with s = 4 or 0, compared with sign Y[r][t] by
        is_galois_image on the numerators, so no image is built."""
        g = self.galois[tag]
        s = 4 if g.signs[self._gen_index["g2"]] == -1 else 0
        bad = set()
        for r, row in enumerate(Y):
            xrow = X[r ^ s]
            matched = 0
            for t, y in row.items():
                x = xrow.get(t ^ s)
                if x is None or not is_galois_image(g, x, y, sign):
                    bad.add(t)
                matched += x is not None
            if matched != len(xrow):
                bad.update(t ^ s for t in xrow if t ^ s not in row)
        return bad

    @cached_property
    def _weight_actions(self) -> set:
        """The generators l with mu_l B = B A_l, A_l the weight-table
        matrix of l, one combination each, from mu and B as they are at
        first use.  B is invertible (B_inv = B^-1 was built from it), so
        mu_l = B A_l B^-1 for each l it holds."""
        return {n for n in GENERATOR_NAMES if _vanishes([
            (1, self.mu[n], self.B),
            (-1, self.B, ExactMatrix.from_rows(self.field,
                                               WEIGHT_MATRICES[n], 8))])}

    # -- verification -------------------------------------------------------

    @cached_property
    def _j_splits(self) -> bool:
        """Whether J B = B diag(sqrt(D') I_4, -sqrt(D') I_4), one
        combination, from J and B as they are at first use: then B^-1 J B
        = sqrt(D') J_0, J_0 = SPLIT_PATTERN."""
        return _vanishes([(1, self.J, self.B),
                          (-1, self.B, _split_scalar(self.field, self.sDp))])

    def verify_matrix_brackets(self) -> bool:
        """The 8x8 matrices satisfy the sl(2) x sl(2) relations: once
        mu_l B = B A_l holds for every generator l (_weight_actions, read
        once per rep), mu_l = B A_l B^-1, and every relation R reads R(mu)
        = B R(A) B^-1 = 0, as R(A) = 0 holds by weight_table_relations."""
        return weight_table_relations() and \
            len(self._weight_actions) == len(GENERATOR_NAMES)

    def regenerate_galois_lie_table(self):
        """Recompute the Galois action on the six generators from the
        explicit quaternion elements, each image matched against the
        twelve generators +-l; returns the table in the hardcoded format,
        with None for an image that is not +-a generator."""
        _, D, a = self.params
        alg, gens, _ = self.e_a1
        signed = {}
        for n in GENERATOR_NAMES:
            signed[frozenset(gens[n].items())] = (1, n)
            signed[frozenset((t, -e) for t, e in gens[n].items())] = (-1, n)
        Fq = alg.field
        table = {}
        for tag, root in (("g1", D), ("g3", a)):
            _, r0 = squarefree_split(root)
            gq = _flip_generator(Fq, Fq.gens.index(r0))
            table[tag] = {n: signed.get(frozenset(
                alg.galois(gq, gens[n]).items())) for n in GENERATOR_NAMES}
        # g2 only moves sqrt(D'), which the algebra elements do not contain
        table["g2"] = {n: (1, n) for n in GENERATOR_NAMES}
        return table

    def verify_galois_equivariance(self):
        """g^{-1} mu(l) (g v) = mu(g^{-1} l) v for the three Galois
        generators, six Lie generators and eight basis vectors, as the 18
        matrix identities g(mu(l) P) = sign mu(l') with P = g(I), g acting
        on the columns (galois_act).  P is a rational involution, so
        g(mu(l) P) is P g(mu(l)) P, compared row by row with sign mu(l')
        by _galois_mismatches.  failures lists (tag, name, t) for each
        column t where they differ."""
        failures = []
        for tag in self.galois:
            for name in GENERATOR_NAMES:
                sign, target = GALOIS_LIE_TABLE[tag][name]
                failures += [(tag, name, t) for t in sorted(
                    self._galois_mismatches(tag, self.mu[name].nonzero,
                                            self.mu[target].nonzero, sign))]
        return (not failures), failures

    def phi(self, u, v):
        """u^T G v for lists u and v of field elements."""
        return form_value(self.field, u, self.gram.nonzero, v)

    def verify_symplectic(self):
        """The checks of the Gram matrix G in f-coordinates, as (all
        pass, {name: flag}).  Where the Gram identity G B = B^-T G_vw
        holds (one combination, on G as it is at the call) and B_inv =
        B^-1 (as built), G = -sqrt(D') B^-T G_0 B^-1: nondegeneracy is
        then the rank of G_0 (weight_table_counts), and infinitesimal
        invariance is read off the weight table for each generator l with
        mu_l B = B A_l (_weight_actions, from mu and B read once per
        rep).  Otherwise nondegeneracy is G.det() != 0, and any l without
        these premises gets the combination mu_l^T G + G mu_l.  Either way
        each flag is that of the identity itself."""
        F = self.field
        checks = {}
        G = self.gram
        checks["antisymmetric"] = _vanishes([(1, G.transpose(), None),
                                             (1, G, None)])
        # the Gram identity G B + sqrt(D') B^-T G_0 = 0; with M = -sqrt(D')
        # != 0 and B invertible, G = M B^-T G_0 B^-1 has the rank of G_0
        pattern = ExactMatrix.from_rows(F, GRAM_PATTERN, 8)
        gram_identity = _vanishes([(1, G, self.B),
                                   (self.sDp, self.B_inv.transpose(),
                                    pattern)])
        checks["nondegenerate"] = weight_table_counts()[2] == 8 \
            if gram_identity else not G.det().is_zero()
        # (i) Galois descent: phi(g u, g v) = g(phi(u, v)) on all pairs of
        # basis vectors is P^T G P = g(G) with P = g(I).  P is a rational
        # involution, so the identity is P g(G) P = G, compared row by row
        checks["descent"] = not any(
            self._galois_mismatches(tag, G.nonzero, G.nonzero)
            for tag in self.galois)
        # (ii) infinitesimal invariance: under the premises mu_l^T G + G
        # mu_l is M B^-T (A_l^T G_0 + G_0 A_l) B^-1
        acts = self._weight_actions if gram_identity else set()
        checks["infinitesimal"] = all(
            _keeps_gram_pattern(n) if n in acts else
            _vanishes([(1, self.mu[n].transpose(), G), (1, G, self.mu[n])])
            for n in GENERATOR_NAMES)
        # (iii) adjointness of the quadratic generator: phi(Jv, w) =
        # phi(v, conj(J) w) with conj(J) = -J.  (iv) central invariance:
        # k + conj(k) = 0 means k = c sqrt(D'), and phi(kv, w) + phi(v, kw)
        # = 0 is the same equation; the record keeps both keys.
        adjoint = _vanishes([(1, self.J.transpose(), G), (1, G, self.J)])
        checks["k_adjoint"] = adjoint
        checks["central_invariance"] = adjoint
        # isotropy of the eigenspaces: B keeps each v_l in f_1..f_4 and each
        # w_l in fbar_1..fbar_4, so G pairs only the two blocks
        checks["isotropy"] = all((c < 4) != (r < 4)
                                 for r, row in enumerate(G.nonzero)
                                 for c in row)
        # spot values on v_{-1,-1} and w_{1,1}, two columns of B
        vmm, wpp = ([row.get(self.basis_labels.index(want), F.zero())
                     for row in self.B.nonzero]
                    for want in ("v-1,-1", "w1,1"))
        checks["phi_value"] = (self.phi(vmm, wpp) + self.sDp).is_zero()
        return all(checks.values()), checks

    def verify_irreducibility(self):
        """Weight-line patterns: a proper invariant subspace must be
        spanned by p_l v_l + q_l w_l per weight.  In the v/w basis the
        sqrt(D') action is B^-1 J B = diag(sqrt(D') I_4, -sqrt(D') I_4),
        so such a line is J-stable only when p_l q_l = 0.  The span of a
        side pattern S (v_l or w_l for each l) is stable under g exactly
        when C_g = B^-1 g(B), the matrix of g in the v/w basis, has
        C_g[r][t] = 0 for every t in S and r not in S; none of the 16
        patterns is stable under all three generators.  The J check
        B^-1 J B = diag(...) is _j_splits, decided once per rep."""
        if not self._j_splits:
            return False
        moved = [(self.B_inv * self.galois_act(tag, self.B)).nonzero
                 for tag in self.galois]
        for sides in iproduct((0, 4), repeat=4):
            span = {side + t for t, side in enumerate(sides)}
            if not any(t in rows[r] for rows in moved for t in span
                       for r in range(8) if r not in span):
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
        genuinely irrational combinations and do not descend.  Each matrix
        is 8 rows {col: value} holding no zero, an integral value as an
        int and any other as a Fraction.  Built once per rep; each call
        returns its own copy of the rows."""
        return {name: [dict(row) for row in mat]
                for name, mat in self._model.items()}

    @cached_property
    def _model(self):
        return self._build_rational_model()

    @cached_property
    def bracket_generators(self) -> WeightModule:
        """V over Q acted on by i, j, Ji and J alone: once the model shows
        2k = [i, j], -2Jk = [j, Ji] and -2a Jj = [k, Ji], these generate
        the units as a Lie algebra and so have the same invariants.
        ValueError names the first bracket that fails."""
        m = self.rational_model()
        a = self.params[2]
        # [x, y] + c z = 0
        for x, y, c, z, text in (("i", "j", -2, "k", "[i, j] = 2k"),
                                 ("j", "Ji", 2, "Jk", "[j, Ji] = -2Jk"),
                                 ("k", "Ji", 2 * a, "Jj", "[k, Ji] = -2a Jj")):
            if not _rows_vanish([(1, m[x], m[y]), (-1, m[y], m[x]),
                                 (c, m[z], None)]):
                raise ValueError(f"the rational model breaks {text}")
        return WeightModule(range(8), [(n, m[n]) for n in
                                       ("i", "j", "Ji", "J")], [])

    def rational_invariant_dims(self) -> tuple:
        """(End count, ∧² count) of the rational model: the invariants of
        End(V) and ∧²V under the rational units and J, as ranks over the
        bracket generators i, j, Ji and J (256 and 112 int rows)."""
        return _invariant_counts(self.bracket_generators)

    def _unit_coefficients(self) -> ExactMatrix:
        """The 6x6 matrix, over the algebra's field, whose column u holds
        the coefficients c_ug with sum_g c_ug g the rational unit u.  The
        generators have no 1 or J component, so it is the inverse of the
        block of span on the units i, j, k, Ji, Jj, Jk."""
        _, _, span = self.e_a1
        if span.nonzero[0] or span.nonzero[4]:
            raise ValueError("a generator has a 1 or J component")
        return span.take_rows([idx for _, idx in self.RATIONAL_UNITS]) \
            .inverse()

    def _build_rational_model(self):
        F = self.field
        one = F.one()
        lift = field_inclusion(self.e_a1[0].field, F)
        coeffs = ExactMatrix.from_rows(
            F, [{g: lift(c) for g, c in row.items()}
                for row in self._unit_coefficients().transpose().nonzero], 6)
        # row u of coeffs * (the mu as flattened rows) is sum_g c_ug mu_g,
        # the nonzeros {8 r + c: element} of the unit matrix u
        mus = ExactMatrix.from_rows(
            F, [_cells(self.mu[g]) for g in GENERATOR_NAMES], 64)
        units = [(name, cells) for (name, _), cells in
                 zip(self.RATIONAL_UNITS, (coeffs * mus).nonzero)]

        # the Q-basis is the columns of U = [[I, sI], [I, -sI]], s =
        # sqrt(D'): u_t = f_t + fbar_t and u'_t = s(f_t - fbar_t).  Block
        # (P, Q) of U^-1 M U is s^(Q-P)/2 and of U^T G U is s^(P+Q) times
        # the signed sum of the blocks (R, C) of M or G (see _block_sum)
        s = self.sDp
        half = F.rational(Fraction(1, 2))
        conjugate = ((half, s * half), ((s * 2).inverse(), half))
        out = {name: _descended(_block_sum(F, cells, conjugate), name)
               for name, cells in units + [("J", _cells(self.J))]}
        out["gram"] = _descended(
            _block_sum(F, _cells(self.gram), ((one, s), (s, s * s))),
            "the Gram matrix")
        return out


def _cells(m: ExactMatrix) -> dict:
    """The nonzeros of the 8x8 matrix m as {8 r + c: element}."""
    return {8 * r + c: x for r, row in enumerate(m.nonzero)
            for c, x in row.items()}


def _split(cells: dict) -> list:
    """The 8 rows {c: x} of the 8x8 matrix with the nonzeros
    {8 r + c: x}."""
    rows = [{} for _ in range(8)]
    for k, x in cells.items():
        rows[k >> 3][k & 7] = x
    return rows


def _block_sum(field, cells: dict, factors) -> dict:
    """The nonzeros {8 r + c: element} of the 8x8 matrix whose 4x4 block
    (P, Q) is factors[P][Q] times the sum over (R, C) of (-1)^(PR + QC)
    times block (R, C) of m, for the 8x8 matrix m with the nonzeros cells
    {8 r + c: element}, as one sum of products over them: U^-1 m U and
    U^T m U for U = [[I, sI], [I, -sI]], whose blocks are scalars, with
    their factors."""
    return sum_of_products(field, (
        (8 * (4 * P + r % 4) + 4 * Q + c % 4, x, factors[P][Q],
         -1 if (P & r >> 2) ^ (Q & c >> 2) else 1)
        for k, x in cells.items() for r, c in (divmod(k, 8),)
        for P in (0, 1) for Q in (0, 1)))


def _descended(cells: dict, name) -> list:
    """The 8x8 matrix with the nonzeros {8 r + c: element} as 8 rows
    {c: value} with no zero, an integral value as an int and any other as
    a Fraction; ValueError unless all are rational."""
    try:
        return _split({k: e.as_rational() for k, e in cells.items()})
    except ValueError:
        raise ValueError(f"{name} does not descend to Q") from None


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
# degree-2 invariants of the rational model (ranks of int systems)
# ---------------------------------------------------------------------------

def _invariant_dims(rep: AntiWeilRep) -> tuple:
    """(End count, ∧² count) of rep: the weight table's counts
    (weight_table_counts) wherever the premises hold, else the rational
    route (rep.rational_invariant_dims).  The rational model must exist
    with its brackets (bracket_generators, which raises ValueError
    otherwise): its units are then rational and span the same F-space as
    the six mu_l, their coefficients being invertible.  Where also mu_l B
    = B A_l for every l (_weight_actions) and J B = B sqrt(D') J_0
    (_j_splits), conjugation by B carries the mu_l and J to the A_l and
    sqrt(D') J_0, and a rank over Q is the rank over F."""
    rep.bracket_generators          # builds the model, or raises
    if len(rep._weight_actions) == len(GENERATOR_NAMES) and rep._j_splits:
        return weight_table_counts()[:2]
    return rep.rational_invariant_dims()


def invariant_endomorphisms_dim(rep: AntiWeilRep) -> int:
    """dim of { T in End(V) : T commutes with the rational units and J },
    by _invariant_dims; expected 2 (the quadratic field acting)."""
    return _invariant_dims(rep)[0]


def invariant_wedge2_dim(rep: AntiWeilRep) -> int:
    """dim of the ∧²V invariants of the rational units and J, by
    _invariant_dims; expected 1, the line of the symplectic form."""
    return _invariant_dims(rep)[1]
