"""Helpers that only the tests use: the dense field element that the
sparse FieldElement is checked against; the dense matrix product and the
pairwise quaternion product that the one sum-of-products kernel is checked
against; the dense tuple quaternion algebra that the sparse one is checked
against; the dense Gauss-Jordan elimination and determinant that the
sparse elimination is checked against; the dense integer elimination and
distinct-row pass that the sparse rational core is checked against; the
dual module, whose tensor with V is the End(V) module that the commutant
rows are checked against; the dense matrix-vector product that
SignedPerm.apply is checked against; the QQ restriction by solve and
eigen_decompose that the int restriction of the rational pair branch is
checked against; the solve-based rational-unit coefficients and Galois
Lie table that the anti-Weil chain is checked against; the identity
matrix; the members the verifier no longer has (an element from its
numerators or from one int draw, the quotient of two elements, the
matrix rank, the stability of a mixed family at one point); the product
and combination routes of the anti-Weil chain (mu as B * A * B^-1, the rational model through
U^-1 M U and U^T G U, the Galois and descent identities with
P = g(I), and the sl(2) x sl(2) relations of mu as products) that its
column relabels, signed block sums and conjugation identities are
checked against, and the dense form of its sparse rational model; the
invariant space and the anti-Weil invariant dimensions over every
generator, which the bracket-generator ranks are checked against; and
spec-facing functions that the
verifier itself never calls (a saturation index, CM-type primitivity and
induction, the subgroups of a Galois model, a cyclic Galois model, the Galois identity test and a
top-wedge layer identity)."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from cmsweep import fields
from cmsweep.cmfields import (CMFieldModel, CMType, SubfieldModel, closure,
                              restrict_multiplicities)
from cmsweep.fields import (QQ, ExactMatrix, FieldElement, _axpy,
                            apply_galois, field_inclusion, rational_kernel,
                            rational_rank, sum_of_products)
from cmsweep.intlat import IntLattice, snf
from cmsweep.liereps import (WeightModule, commutant_rows,
                             sl2_relations_hold, wedge2_module)
from cmsweep.quatrep import (GALOIS_LIE_TABLE, GENERATOR_NAMES, TRIPLE_NAMES,
                             WEIGHT_MATRICES, AntiWeilRep, _flip_generator,
                             squarefree_split)
from cmsweep.torus import (MixedFamily, _eigenlines_2x2, _is_stable,
                           _restrict)


class DenseElement:
    """A field element as one int numerator per generator bitmask over a
    positive denominator, in canonical form (gcd 1, zero is all zeros over
    1): the storage FieldElement had before it kept only the nonzero
    numerators, with its arithmetic, as a reference."""

    def __init__(self, field, nums, den=1):
        if den < 0:
            nums, den = [-x for x in nums], -den
        g = gcd(den, *nums)
        self.field = field
        self.nums = [x // g for x in nums]
        self.den = den // g

    def is_zero(self):
        return not any(self.nums)

    def coords(self):
        """{generator subset: nonzero Fraction}, subsets read off the bits."""
        return {frozenset(i for i in range(self.field.k) if m >> i & 1):
                Fraction(x, self.den) for m, x in enumerate(self.nums) if x}

    def sparse(self):
        """(nums, den) as the sparse element stores them."""
        return {m: x for m, x in enumerate(self.nums) if x}, self.den

    def __eq__(self, other):
        return (self.field, self.nums, self.den) == \
            (other.field, other.nums, other.den)

    def _mul_nums(self, a, b):
        out = [0] * len(a)
        for i, x in enumerate(a):
            if x:
                for (k, c), y in zip(self.field._table[i], b):
                    if y:
                        out[k] += x * y * c
        return out

    def __add__(self, other):
        return DenseElement(self.field, [x * other.den + y * self.den for
                                         x, y in zip(self.nums, other.nums)],
                            self.den * other.den)

    def __neg__(self):
        return DenseElement(self.field, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return DenseElement(self.field, self._mul_nums(self.nums, other.nums),
                            self.den * other.den)

    def inverse(self):
        """Rationalise one generator at a time by its conjugate."""
        num = [1] + [0] * (self.field.degree - 1)
        cur = self.nums
        for i in range(self.field.k):
            conj = [-x if m >> i & 1 else x for m, x in enumerate(cur)]
            num = self._mul_nums(num, conj)
            cur = self._mul_nums(cur, conj)
        assert not any(cur[1:])
        return DenseElement(self.field, [x * self.den for x in num], cur[0])

    def galois(self, g):
        """sqrt(d_i) -> g.signs[i] * sqrt(d_i)."""
        signs = [1] * self.field.degree
        for m in range(self.field.degree):
            for i, s in enumerate(g.signs):
                if m >> i & 1:
                    signs[m] *= s
        return DenseElement(self.field, [s * x for s, x in
                                         zip(signs, self.nums)], self.den)


def dense_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a * b with one plain sum of FieldElement products per output entry
    over the full inner dimension."""
    assert a.cols == b.rows
    cols = list(zip(*b.entries))
    zero = a.field.zero()
    return ExactMatrix(a.field, [[sum((x * y for x, y in zip(row, col)), zero)
                                  for col in cols] for row in a.entries])


def pairwise_quaternion_mul(alg, x, y):
    """x * y in the quaternion algebra alg, for {unit: element} dicts, one
    FieldElement product and sum per nonzero pair of coordinates."""
    out = {}
    for p, xp in x.items():
        for q, yq in y.items():
            coeff, t = alg._table[p][q]
            out[t] = out.get(t, alg.field.zero()) + xp * yq * coeff
    return {t: e for t, e in out.items() if not e.is_zero()}


class DenseQuaternionAlgebra:
    """The algebra of alg with elements as coefficient tuples of length
    alg.dim, zeros included: the form QuaternionAlgebra had before its
    elements kept only their nonzero coordinates, with its arithmetic, as
    a reference."""

    def __init__(self, alg):
        self.field = alg.field
        self.dim = alg.dim
        self._table = alg._table

    def dense(self, x):
        """The tuple of the {unit: element} dict x."""
        return tuple(x.get(t, self.field.zero()) for t in range(self.dim))

    def add(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def sub(self, x, y):
        return tuple(p - q for p, q in zip(x, y))

    def scale(self, c, x):
        c = FieldElement.coerce(self.field, c)
        return tuple(c * p for p in x)

    def mul(self, x, y):
        sums = sum_of_products(self.field, (
            (t, xp, yq, coeff) for xp, row in zip(x, self._table)
            for yq, (coeff, t) in zip(y, row)))
        return tuple(sums.get(t, self.field.zero()) for t in range(self.dim))

    def galois(self, g, x):
        return tuple(apply_galois(g, c) for c in x)


def dense_rref(m: ExactMatrix):
    """Gauss-Jordan on the dense rows of m with deterministic pivoting
    (leftmost nonzero column, smallest row index).  Returns (reduced
    matrix, pivot cols)."""
    field = m.field
    rows = m.entries
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pr = next((i for i in range(r, m.rows) if not rows[i][c].is_zero()),
                  None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e if e.is_zero() else inv * e for e in rows[r]]
        prow = rows[r]
        for i in range(m.rows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a if b.is_zero() else _axpy(field, a, f, b)
                           for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return ExactMatrix(field, rows) if rows else m, pivots


def dense_det(m: ExactMatrix):
    """The determinant by dense elimination below each pivot, with a
    sign flip for each row swap."""
    assert m.rows == m.cols
    field = m.field
    rows = m.entries
    d = field.one()
    for c in range(m.cols):
        pr = next((i for i in range(c, m.rows) if not rows[i][c].is_zero()),
                  None)
        if pr is None:
            return field.zero()
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = -d
        d = d * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, m.rows):
            if not rows[i][c].is_zero():
                f = rows[i][c] * inv
                rows[i] = [_axpy(field, a, f, b)
                           for a, b in zip(rows[i], rows[c])]
    return d


def dense_rows(rows, ncols):
    """{col: value} rows as lists of length ncols."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def mat_apply(rows, v):
    """The product of the matrix with the given dense rows and v."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in rows)


def qq_restriction(m, basis):
    """The matrix C of the SignedPerm m on span(basis) and the eigenlines
    of C, as Fractions, by the QQ route the rational pair branch took
    before it stayed on ints: one QQ solve per basis vector, then
    eigen_decompose over QQ."""
    c = _restrict(m, basis, QQ)
    return ([[e.as_fraction() for e in row] for row in c.entries],
            [[e.as_fraction() for e in v] for _, v in _eigenlines_2x2(c)])


def integer_rref(rows, ncols):
    """Fraction-free Gauss-Jordan, in place, on a list of integer rows of
    length ncols, each kept primitive (Bareiss 1968 keeps entries integral
    the same way).  Pivoting is deterministic: leftmost nonzero column,
    smallest row index.  Returns the pivot columns; afterwards row i <
    len(pivots) is nonzero at pivots[i] and zero at every other pivot
    column, and the rows after them are zero."""
    for i, row in enumerate(rows):
        g = gcd(*row)
        if g > 1:
            rows[i] = [x // g for x in row]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                new = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return pivots


def distinct_rows(rows):
    """The nonzero integer rows, each made primitive with a positive
    leading entry, once each in first-seen order: rows that differ by a
    rational factor span the same line."""
    seen = {}
    for row in rows:
        g = gcd(*row)
        if next(x for x in row if x) < 0:
            g = -g
        seen[tuple([x // g for x in row] if g != 1 else row)] = None
    return [list(row) for row in seen]


def dual_module(w: WeightModule) -> WeightModule:
    """V* with each generator acting by -m^T: with tensor_module, the
    End(V) = V ⊗ V* module whose stacked actions liereps.commutant_rows
    builds directly."""
    acts = []
    for name, m in w.actions.items():
        out = [{} for _ in range(w.dim)]
        for i, row in enumerate(m):
            for j, x in row.items():
                out[j][i] = -x
        acts.append((name, out))
    return WeightModule(w.basis_labels, acts, w.triples)


def stacked_rows(w: WeightModule) -> list:
    """The action rows of every generator of w, one after another."""
    return [row for name in w.generator_names() for row in w.actions[name]]


def invariant_space_over_all_generators(w: WeightModule):
    """The kernel of the stacked actions of every generator, h included,
    as invariant_space once computed it."""
    return rational_kernel(stacked_rows(w), w.dim)


def rational_module(rep: AntiWeilRep) -> WeightModule:
    """V over Q with the rational units and J of the rational model as its
    seven generator actions."""
    model = rep.rational_model()
    names = [n for n, _ in AntiWeilRep.RATIONAL_UNITS] + ["J"]
    return WeightModule(range(8), [(n, model[n]) for n in names], [])


def invariant_dims_over_all_units(rep: AntiWeilRep) -> tuple:
    """(end_dim, wedge2_dim) of the rational model as ranks over all seven
    generators i, j, k, Ji, Jj, Jk and J (448 and 196 rows), as
    invariant_endomorphisms_dim and invariant_wedge2_dim once ran."""
    w = rational_module(rep)
    mats = [w.actions[name] for name in w.generator_names()]
    wedge = wedge2_module(w)
    return (w.dim ** 2 - rational_rank(commutant_rows(mats, w.dim)),
            wedge.dim - rational_rank(stacked_rows(wedge)))


def solve_unit_coefficients(rep: AntiWeilRep):
    """Row u holds the coefficients of the rational unit u in the six
    generators, from one span.solve per unit."""
    alg, _, span = rep.e_a1
    Fq = alg.field
    out = []
    for _, idx in AntiWeilRep.RATIONAL_UNITS:
        sol = span.solve([Fq.one() if t == idx else Fq.zero()
                          for t in range(8)])
        assert sol is not None
        out.append(sol)
    return out


def solve_galois_lie_table(rep: AntiWeilRep):
    """The Galois action on the six generators, each image written in the
    generators by one span.solve and read off its one nonzero
    coordinate."""
    _, D, a = rep.params
    alg, gens, span = rep.e_a1
    Fq = alg.field
    zero = Fq.zero()
    table = {}
    for tag, root in (("g1", D), ("g3", a)):
        _, r0 = squarefree_split(root)
        gq = _flip_generator(Fq, Fq.gens.index(r0))
        table[tag] = {}
        for n in GENERATOR_NAMES:
            image = alg.galois(gq, gens[n])
            sol = span.solve([image.get(t, zero) for t in range(8)])
            assert sol is not None
            nz = [(t, c) for t, c in enumerate(sol) if not c.is_zero()]
            assert len(nz) == 1 and nz[0][1].is_rational()
            t, c = nz[0]
            table[tag][n] = (int(c.as_fraction()), GENERATOR_NAMES[t])
    table["g2"] = {n: (1, n) for n in GENERATOR_NAMES}
    return table


def identity_matrix(field, n: int) -> ExactMatrix:
    """The n x n identity matrix over field."""
    return ExactMatrix.from_rows(field, [{i: field.one()} for i in range(n)],
                                 n)


def element_from_nums(field, nums, den: int = 1) -> FieldElement:
    """The element sum_m nums[m] / den * sqrt(m) for a {mask: int} dict
    nums, den != 0."""
    if den < 0:
        nums, den = {m: -x for m, x in nums.items()}, -den
    return fields._norm(field, {m: x for m, x in nums.items() if x}, den)


# the int draws element_from_code reads: den, count, three (mask, numerator)
ELEMENT_CODES = 12 * 4 * (8 * 61) ** 3


def element_from_code(field, code: int) -> FieldElement:
    """The element read off one int draw in range(ELEMENT_CODES), taken as
    mixed-radix digits, lowest first: den - 1 in 0..11, a count in 0..3,
    then three pairs of a mask in 0..7, taken mod the field's degree, and
    a digit v in 0..60 for the numerator 0, 1, -1, 2, -2, ..., 30, -30.
    The first count pairs give the numerators, a repeated mask keeping its
    first; a small draw is a small element."""
    code, den = divmod(code, 12)
    code, count = divmod(code, 4)
    nums = {}
    for _ in range(count):
        code, m = divmod(code, 8)
        code, v = divmod(code, 61)
        nums.setdefault(m % field.degree, (v + 1) // 2 * (-1) ** (v + 1))
    return element_from_nums(field, nums, den + 1)


def divide(field, x, y) -> FieldElement:
    """x / y in field, each an element of it or a rational."""
    return FieldElement.coerce(field, x) * \
        FieldElement.coerce(field, y).inverse()


def matrix_rank(m: ExactMatrix) -> int:
    """The rank of m: the number of pivots of the one sparse
    elimination."""
    return len(fields._echelon(m.nonzero, fields._subtracted, fields._monic))


def family_stable_at(fam: MixedFamily, x1: int, x2: int) -> bool:
    """The lattice of fam at (x1 : x2) has rank 2 and all of fam.matrices
    keep it."""
    lat = fam.lattice_at(x1, x2)
    return lat.rank == 2 and _is_stable(lat, fam.matrices)


def mu_by_products(rep: AntiWeilRep) -> dict:
    """Each action matrix as the two products B * A * B^-1, A the
    weight-table matrix."""
    return {name: rep.B * ExactMatrix.from_rows(
        rep.field, WEIGHT_MATRICES[name], 8) * rep.B_inv
        for name in GENERATOR_NAMES}


def brackets_by_products(rep: AntiWeilRep) -> bool:
    """The sl(2) x sl(2) relations of the six action matrices mu, each
    one vanishing combination of their products (30 products in all), as
    verify_matrix_brackets once ran."""
    return sl2_relations_hold(
        [[rep.mu[n] for n in t] for t in TRIPLE_NAMES],
        lambda terms: not any(ExactMatrix.combination(terms).nonzero))


def dense_model(model: dict) -> dict:
    """A rational model of 8 {col: value} rows per matrix as dense rows
    of length 8, the form rational_model_by_products gives."""
    return {name: dense_rows(rows, 8) for name, rows in model.items()}


def descent_basis(field, s) -> ExactMatrix:
    """U = [[I, sI], [I, -sI]]: the columns u_t = f_t + fbar_t and
    u'_t = s(f_t - fbar_t) of the Q-basis of the rational model."""
    return ExactMatrix.from_rows(
        field, [{t: 1, 4 + t: s} for t in range(4)]
        + [{t: 1, 4 + t: -s} for t in range(4)], 8)


def rational_model_by_products(rep: AntiWeilRep) -> dict:
    """The rational model with each unit matrix the sum of c_ug mu_g over
    the solve-based coefficients, then U^-1 M U and U^T G U as products
    with U and U.inverse(), as dense rows of Fractions."""
    F = rep.field
    lift = field_inclusion(rep.e_a1[0].field, F)
    U = descent_basis(F, rep.sDp)
    U_inv = U.inverse()
    mats = {}
    for (name, _), coeffs in zip(AntiWeilRep.RATIONAL_UNITS,
                                 solve_unit_coefficients(rep)):
        m = ExactMatrix.from_rows(F, [{} for _ in range(8)], 8)
        for g, c in zip(GENERATOR_NAMES, coeffs):
            m = m + rep.mu[g].scale(lift(c))
        mats[name] = U_inv * m * U
    mats["J"] = U_inv * rep.J * U
    mats["gram"] = U.transpose() * rep.gram * U
    return {name: [[e.as_fraction() for e in row] for row in m.entries]
            for name, m in mats.items()}


def equivariance_by_combinations(rep: AntiWeilRep):
    """The 18 Galois identities g(mu(l)) P - sign mu(l') = 0, P = g(I),
    each one ExactMatrix.combination; failures lists (tag, name, t) for
    each column t of a combination that does not vanish."""
    identity = identity_matrix(rep.field, 8)
    failures = []
    for tag in rep.galois:
        P = rep.galois_act(tag, identity)
        for name in GENERATOR_NAMES:
            sign, target = GALOIS_LIE_TABLE[tag][name]
            diff = ExactMatrix.combination(
                [(1, rep.galois_act(tag, rep.mu[name]), P),
                 (-sign, rep.mu[target], None)])
            failures += [(tag, name, t) for t in
                         sorted({t for row in diff.nonzero for t in row})]
    return (not failures), failures


def descent_by_combinations(rep: AntiWeilRep) -> bool:
    """The Gram descent G P - g(G) = 0, P = g(I), for each Galois
    generator, one ExactMatrix.combination each."""
    identity = identity_matrix(rep.field, 8)
    return all(not any(ExactMatrix.combination(
        [(1, rep.gram, rep.galois_act(tag, identity)),
         (-1, rep.galois_act(tag, rep.gram), None)]).nonzero)
        for tag in rep.galois)


def saturation_index(l: IntLattice) -> int:
    """[saturate(l) : l] = product of the invariant factors."""
    if l.rank == 0:
        return 1
    factors, _, _ = snf([list(r) for r in l.basis])
    idx = 1
    for d in factors:
        idx *= d
    return idx


def cyclic_model(n: int) -> CMFieldModel:
    """Z/n with tau the unique element of order 2 (n even)."""
    assert n % 2 == 0
    elements = list(range(n))
    return CMFieldModel(elements, lambda g, h: (g + h) % n, 0, n // 2,
                        {g: f"g{g}" for g in elements})


def subgroups(m: CMFieldModel):
    """All subgroups of the model, via closures of small generating sets,
    by size and then by the model's element order."""
    found = {frozenset([m.identity])}
    for r in (1, 2, 3):
        for gens in combinations(m.elements, r):
            found.add(closure(gens, m.mul, m.identity))
    return sorted(found, key=lambda s: (len(s), sorted(map(m.order_key, s))))


def is_primitive(phi: CMType):
    """A CM type is primitive iff it is not induced from a proper CM
    subfield.  Returns (flag, witness_subgroup_or_None)."""
    m = phi.model
    for sub in subgroups(m):
        if len(sub) == 1:
            continue  # E itself, not proper
        h = SubfieldModel(m, sub)
        if not h.is_cm:
            continue
        if all(c in (0, len(sub))
               for c in restrict_multiplicities(phi, h)):
            return False, sub
    return True, None


def induce_type(model: CMFieldModel, subgroup, coset_choices) -> CMType:
    """The CM type that is the union of the chosen cosets gH."""
    members = set()
    for cs in coset_choices:
        members |= set(cs)
    return CMType(model, frozenset(members))


def is_identity(g) -> bool:
    """Whether the GaloisElement g fixes every generator."""
    return all(s == 1 for s in g.signs)


def weil_layer_identity(deg_K: int, deg_k: int, dim_V: int) -> bool:
    """Labeled index-set identity: with n = dim/deg_K, l = deg_K/deg_k,
    m = dim/deg_k, the layer ∧_k^l(∧_K^n V) and the layer ∧_k^m V have
    the same eigen-label decomposition ⊕_τ ⊗_{σ|_k = τ} ∧^n V_σ.

    Embeddings of K are labels 0..deg_K-1; restriction to k is reduction
    mod deg_k; V_σ has basis labels (σ, t), t < n."""
    assert deg_K % deg_k == 0 and dim_V % deg_K == 0
    n = dim_V // deg_K
    l = deg_K // deg_k
    m = dim_V // deg_k
    sigmas = list(range(deg_K))
    taus = list(range(deg_k))

    def restrict(sigma):
        return sigma % deg_k

    # side A: per-sigma top wedges of V_sigma, then the l-th layer over k
    # groups the l lines above a common tau and tensors them
    top = {s: frozenset((s, t) for t in range(n)) for s in sigmas}
    side_a = {}
    for tau in taus:
        fiber = [top[s] for s in sigmas if restrict(s) == tau]
        assert len(fiber) == l
        combined = frozenset().union(*fiber)
        assert len(combined) == l * n  # tensor factors are disjoint
        side_a[tau] = combined
    # side B: the tau-eigenspace of V over k has basis {(s, t): s|k = tau};
    # its top wedge (degree m) uses every label once
    side_b = {}
    for tau in taus:
        basis = frozenset((s, t) for s in sigmas if restrict(s) == tau
                          for t in range(n))
        assert len(basis) == m
        side_b[tau] = basis
    return side_a == side_b
