"""
Exact arithmetic in multiquadratic extensions Q(sqrt(d_1), ..., sqrt(d_k)).

An element is stored as its nonzero integer numerators over one common
denominator: ``nums[m] / den`` is the coefficient of prod_{i in m} sqrt(d_i),
for the bitmask m of the generators.  The form is canonical (den > 0, no
zero in the {m: int} dict, gcd 1, zero is {} over 1), so equality compares
ints; only this module reads ``nums`` and ``den``.  Each field precomputes
its product table, (i, j) -> (i ^ j, prod_{b in i & j} d_b), and a product
of two elements is integer arithmetic plus one gcd normalisation.  Every
sum of products (matrix, quaternion and symplectic products) is one call
of sum_of_products, which builds no intermediate element.  Most elements
are monomials, one numerator over the denominator (every anti-Weil
matrix has single-radical entries), and the operand's shape selects a
direct path for them: a product of two, a sum_of_products term of two
and a one-numerator sum or normalisation are one table read, one
multiply and one gcd, and the inverse of (x/d) * sqrt(m) is
d * sqrt(m) / (x * sqrt(m)^2) with the sign moved off the denominator.
Any other shape runs the general loops.  The
Galois group is (Z/2)^k acting by sign flips on the generators, which is
all the field theory the case sweeps need: every algebraic number that
shows up (roots of unity of order dividing 8, sqrt(a), sqrt(D), sqrt(D'))
lives in such a field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd, isqrt, lcm


class DependentGenerators(ValueError):
    """Raised when the proposed generators do not give a degree-2^k field."""


class DoesNotSplit(ValueError):
    """Raised when a characteristic polynomial has no root in the field."""


def squarefree_split(r):
    """r = s^2 * r0 with r0 a square-free integer, for an int or Fraction r;
    returns (s, r0) with s a Fraction.  One trial division runs on
    numerator * denominator, which is r itself for an int; ValueError on
    0 and on any other type (a float would be trial-divided as the huge
    numerator of its binary value)."""
    if isinstance(r, int):
        n, den = r, 1
    elif isinstance(r, Fraction):
        n, den = r.numerator * r.denominator, r.denominator
    else:
        raise ValueError(f"{r!r} is not an int or a Fraction")
    if not n:
        raise ValueError("0 has no square-free part")
    s, n0 = 1, n
    d = 2
    while d * d <= abs(n0):
        while n0 % (d * d) == 0:
            n0 //= d * d
            s *= d
        d += 1
    return Fraction(s, den), n0


class MultiQuadField:
    """Q(sqrt(d_1), ..., sqrt(d_k)) with square-free, independent d_i."""

    def __init__(self, gens: tuple[int, ...]):
        self.gens = tuple(gens)
        self.k = len(self.gens)
        self.degree = 2 ** self.k
        # all 2^k - 1 nonempty subset products must be non-squares
        for r in range(1, self.k + 1):
            for sub in combinations(range(self.k), r):
                prod = 1
                for i in sub:
                    prod *= self.gens[i]
                if prod >= 0 and isqrt(prod) ** 2 == prod:
                    raise DependentGenerators(
                        f"subset product {prod} of {self.gens} is a square")
        self.subsets = [frozenset(s)
                        for r in range(self.k + 1)
                        for s in combinations(range(self.k), r)]
        n = self.degree
        # generator subset <-> bitmask; subsets is also the repr term order
        self._mask = {s: sum(1 << i for i in s) for s in self.subsets}
        self._subset = [frozenset()] * n
        for s, m in self._mask.items():
            self._subset[m] = s
        self._order = [self._mask[s] for s in self.subsets]
        self._radical = ["*".join(f"sqrt({self.gens[i]})" for i in sorted(s))
                         for s in self._subset]
        # square[m] = prod_{b in m} d_b; sqrt(m) * sqrt(m') = square[m & m']
        # * sqrt(m ^ m')
        square = [1] * n
        for m in range(1, n):
            low = m & -m
            square[m] = square[m ^ low] * self.gens[low.bit_length() - 1]
        self._table = tuple(tuple((i ^ j, square[i & j]) for j in range(n))
                            for i in range(n))
        self._zero = _new(self, {}, 1)
        self._one = _new(self, {0: 1}, 1)

    def __eq__(self, other):
        return isinstance(other, MultiQuadField) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        if not self.gens:
            return "QQ"
        return "QQ(" + ", ".join(f"sqrt({d})" for d in self.gens) + ")"

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def rational(self, q) -> "FieldElement":
        if q.__class__ is not int and q.__class__ is not Fraction:
            q = Fraction(q)
        return _new(self, {0: q.numerator} if q else {}, q.denominator)

    def sqrt_gen(self, d: int) -> "FieldElement":
        """The element sqrt(d) for a single generator d."""
        return self.monomial([self.gens.index(d)])

    def monomial(self, indices) -> "FieldElement":
        """prod_{i in indices} sqrt(d_i) by generator index."""
        return _new(self, {self._mask[frozenset(indices)]: 1}, 1)

    def galois_group(self) -> list["GaloisElement"]:
        return [GaloisElement(signs) for signs in product((1, -1), repeat=self.k)]

    @cached_property
    def _conjugation(self) -> "GaloisElement":
        """complex_conjugation(self), built once, on first use."""
        return complex_conjugation(self)

    @cached_property
    def _roots_of_unity(self) -> tuple:
        """The pairs of roots_of_unity(self), built once, on first use."""
        units = _unit_monomials(self)
        out = [(_on_units(self, [(m, s, c, 1)]),
                4 if d == -1 else 1 if c == 1 else 2)
               for m, s, d in units if d in (1, -1) for c in (1, -1)]
        for (m1, s1, d1), (m2, s2, d2) in combinations(units, 2):
            if {d1, d2} in ({1, -3}, {2, -2}):
                for c1, c2 in product((1, -1), repeat=2):
                    out.append((_on_units(self, [(m1, s1, c1, 2),
                                                 (m2, s2, c2, 2)]),
                                8 if d1 != 1 else 6 if c1 == 1 else 3))
        return tuple(out)


def field_create(gens) -> MultiQuadField:
    gens = tuple(int(g) for g in gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if g in (0, 1) or squarefree_split(g)[1] != g:
            raise DependentGenerators(
                f"generator {g} is not square-free or is trivial")
    return MultiQuadField(gens)


class GaloisElement:
    """A sign vector in {+1,-1}^k; acts by sqrt(d_i) -> signs[i]*sqrt(d_i)."""

    def __init__(self, signs):
        self.signs = tuple(int(s) for s in signs)
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError(f"Galois signs {self.signs} are not all +1 or -1")
        # the sign of each monomial, indexed by generator bitmask
        mask_signs = [1]
        for s in self.signs:
            mask_signs += [s * t for t in mask_signs]
        self._mask_signs = mask_signs

    def __mul__(self, other: "GaloisElement") -> "GaloisElement":
        return GaloisElement(tuple(a * b for a, b in zip(self.signs, other.signs)))

    def __eq__(self, other):
        return isinstance(other, GaloisElement) and self.signs == other.signs

    def __hash__(self):
        return hash(self.signs)

    def __repr__(self):
        return f"Galois{self.signs}"


def complex_conjugation(field: MultiQuadField) -> GaloisElement:
    """-1 exactly on the negative generators (sqrt of d<0 is purely imaginary)."""
    return GaloisElement(tuple(-1 if d < 0 else 1 for d in field.gens))


def apply_galois(g: GaloisElement, e: "FieldElement") -> "FieldElement":
    signs = g._mask_signs
    return _new(e.field, {m: signs[m] * x for m, x in e.nums.items()}, e.den)


def is_galois_image(g: GaloisElement, x: "FieldElement",
                    y: "FieldElement", sign=1) -> bool:
    """Whether sign * y == g(x) for sign = ±1, on the canonical numerators
    under g's mask signs over one denominator: no element is built."""
    if (x.den != y.den or len(x.nums) != len(y.nums)
            or (x.field is not y.field and x.field != y.field)):
        return False
    signs, b = g._mask_signs, y.nums
    for m, u in x.nums.items():
        if signs[m] * u != sign * b.get(m, 0):
            return False
    return True


def field_inclusion(small: MultiQuadField, big: MultiQuadField):
    """The inclusion of small into big, whose generators include all of
    small's: each monomial mask is relabelled to the big field's, and the
    numerators and denominator carry over, already canonical."""
    bits = [1 << big.gens.index(d) for d in small.gens]
    relabel = [sum(b for i, b in enumerate(bits) if m >> i & 1)
               for m in range(small.degree)]

    def lift(e: "FieldElement") -> "FieldElement":
        return _new(big, {relabel[m]: x for m, x in e.nums.items()}, e.den)

    return lift


# ---------------------------------------------------------------------------
# integer kernels on {mask: numerator} dicts
# ---------------------------------------------------------------------------

def _new(field, nums, den) -> "FieldElement":
    """An element from numerators already in canonical form."""
    e = object.__new__(FieldElement)
    e.field = field
    e.nums = nums
    e.den = den
    e._hash = None
    return e


def _norm(field, nums, den) -> "FieldElement":
    """An element from zero-free numerators over a positive denominator."""
    if len(nums) == 1:
        m, = nums
        x = nums[m]
        g = gcd(den, x)
        return _new(field, {m: x // g} if g != 1 else nums, den // g)
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {m: x // g for m, x in nums.items()}
        den //= g
    return _new(field, nums, den)


def _mul_nums(field, a, b):
    """The zero-free numerators of the product of two numerator dicts;
    two one-numerator dicts make one table read and one multiply."""
    table = field._table
    if len(a) == 1 and len(b) == 1:
        i, = a
        j, = b
        k, c = table[i][j]
        return {k: a[i] * b[j] * c}
    out = {}
    for i, x in a.items():
        row = table[i]
        for j, y in b.items():
            k, c = row[j]
            out[k] = out.get(k, 0) + x * y * c
    return {k: x for k, x in out.items() if x}


def sum_of_products(field, terms) -> dict:
    """{key: sum x * y * c} over the (key, x, y, c) in terms, for field
    elements x, y and a structure constant c, an int (1 for a plain
    product) or a field element, holding only the keys whose sums are
    nonzero.  Each key keeps one slot, [integer numerators, running common
    denominator], and is normalised once; an int c only scales the
    numerators, and a term of two one-numerator elements is one table
    read."""
    table = field._table
    one = field._one
    slots = {}
    for key, x, y, c in terms:
        a = x.nums
        b = y.nums
        if not a or not b:
            continue
        d = x.den * y.den
        if c.__class__ is int:
            if not c:
                continue
            scale = c
        elif not c.nums:
            continue
        else:
            scale = 1
            if c is not one:
                a = _mul_nums(field, a, c.nums)
                d *= c.den
        slot = slots.get(key)
        if slot is None:
            slots[key] = slot = [{}, d]
        elif slot[1] != d:
            den = slot[1]
            g = gcd(den, d)
            grow = d // g
            if grow != 1:
                acc = slot[0]
                for k in acc:
                    acc[k] *= grow
                slot[1] = den * grow
            scale *= den // g
        acc = slot[0]
        if len(a) == 1 and len(b) == 1:
            i, = a
            j, = b
            k, s = table[i][j]
            acc[k] = acc.get(k, 0) + a[i] * b[j] * s * scale
            continue
        for i, u in a.items():
            u *= scale
            row = table[i]
            for j, v in b.items():
                k, s = row[j]
                acc[k] = acc.get(k, 0) + u * v * s
    out = {}
    for key, (acc, den) in slots.items():
        # _norm's one-numerator branch inline, without the zero filter
        # and the call: most keys of a pass end with one numerator
        if len(acc) == 1:
            k, = acc
            u = acc[k]
            if u:
                g = gcd(den, u)
                out[key] = _new(field, {k: u // g} if g != 1 else acc,
                                den // g)
            continue
        # filter only a sum with a cancelled numerator: most have none
        if 0 in acc.values():
            acc = {k: u for k, u in acc.items() if u}
        if acc:
            out[key] = _norm(field, acc, den)
    return out


def form_value(field, u, gram, v) -> "FieldElement":
    """u^T G v for lists u and v of field elements and G as {col: value}
    rows of ints or field elements: one sum of products over the nonzeros
    of G, each Gram entry the constant of its term."""
    return sum_of_products(field, (
        (0, u[r], v[c], g) for r, row in enumerate(gram)
        for c, g in row.items())).get(0, field.zero())


def _sum(field, a, da, b, db, sign) -> "FieldElement":
    """a / da + sign * b / db for numerator dicts a and b, sign = ±1, with
    one normalisation."""
    if da == db:
        out = dict(a)
    else:
        out = {m: x * db for m, x in a.items()}
        sign *= da
        da *= db
    for m, y in b.items():
        x = out.get(m, 0) + sign * y
        if x:
            out[m] = x
        else:
            del out[m]
    return _norm(field, out, da)


def _axpy(field, a, f, b) -> "FieldElement":
    """a - f * b with one normalisation."""
    return _sum(field, a.nums, a.den, _mul_nums(field, f.nums, b.nums),
                f.den * b.den, -1)


class FieldElement:
    """An element of a MultiQuadField; immutable.

    ``nums`` ({generator bitmask: nonzero int}) over ``den`` is the
    storage; ``coords`` is a read-only view {generator subset: Fraction}."""

    __slots__ = ("field", "nums", "den", "_hash")

    def __init__(self, field: MultiQuadField, coords: dict):
        fracs = {}
        for s, c in coords.items():
            m = field._mask[frozenset(s)]
            fracs[m] = fracs.get(m, 0) + Fraction(c)
        fracs = {m: c for m, c in fracs.items() if c}
        # the lcm of reduced denominators is prime to the numerators' gcd
        den = lcm(1, *(c.denominator for c in fracs.values()))
        self.field = field
        self.nums = {m: c.numerator * (den // c.denominator)
                     for m, c in fracs.items()}
        self.den = den
        self._hash = None

    # -- constructors -----------------------------------------------------
    @staticmethod
    def coerce(field: MultiQuadField, x) -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.field is not field and x.field != field:
                raise ValueError("field mismatch")
            return x
        return field.rational(x)

    # -- basics -----------------------------------------------------------
    @property
    def coords(self) -> dict:
        """{generator subset: nonzero Fraction coefficient}."""
        subset = self.field._subset
        return {subset[m]: Fraction(x, self.den)
                for m, x in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def is_rational(self) -> bool:
        return self.nums.keys() <= {0}

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums.get(0, 0), self.den)

    def as_rational(self):
        """The rational value as an int when it is integral, else as a
        Fraction; ValueError when the element is not rational."""
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        x = self.nums.get(0, 0)
        return x if self.den == 1 else Fraction(x, self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        return (isinstance(other, FieldElement)
                and self.nums == other.nums and self.den == other.den
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.den,
                               frozenset(self.nums.items())))
        return self._hash

    def __repr__(self):
        nums, den = self.nums, self.den
        parts = []
        for m in self.field._order:
            x = nums.get(m)
            if x is None:
                continue
            g = gcd(x, den)
            c = str(x // g) if den == g else f"{x // g}/{den // g}"
            if not m:
                parts.append(c)
            elif x == den:
                parts.append(self.field._radical[m])
            else:
                parts.append(f"{c}*{self.field._radical[m]}")
        return " + ".join(parts) if parts else "0"

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        other = FieldElement.coerce(self.field, other)
        return _sum(self.field, self.nums, self.den, other.nums, other.den, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.field, {m: -x for m, x in self.nums.items()},
                    self.den)

    def __sub__(self, other):
        other = FieldElement.coerce(self.field, other)
        return _sum(self.field, self.nums, self.den, other.nums, other.den,
                    -1)

    def __rsub__(self, other):
        return FieldElement.coerce(self.field, other) - self

    def __mul__(self, other):
        other = FieldElement.coerce(self.field, other)
        return _norm(self.field, _mul_nums(self.field, self.nums, other.nums),
                     self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        field = self.field
        if len(self.nums) == 1:
            # (x / d) * sqrt(m) has inverse d * sqrt(m) / (x * sqrt(m)^2),
            # and sqrt(m)^2 may be negative: the sign moves to num
            m, = self.nums
            q = self.nums[m] * field._table[m][m][1]
            return _norm(field, {m: self.den if q > 0 else -self.den},
                         abs(q))
        # rationalize one generator at a time: x * conj_i(x) has no
        # sqrt(d_i) component, so num ends as den / x_nums times the
        # rational q
        num = {0: self.den}
        cur = self.nums
        for i in range(field.k):
            bit = 1 << i
            if any(m & bit for m in cur):
                conj = {m: -x if m & bit else x for m, x in cur.items()}
                num = _mul_nums(field, num, conj)
                cur = _mul_nums(field, cur, conj)
        q = cur[0]
        if q < 0:
            num, q = {m: -x for m, x in num.items()}, -q
        return _norm(field, num, q)

    def conj(self) -> "FieldElement":
        """Complex conjugation (the distinguished embedding)."""
        return apply_galois(self.field._conjugation, self)


QQ = MultiQuadField(())


# ---------------------------------------------------------------------------
# exact matrices over a MultiQuadField
# ---------------------------------------------------------------------------

def cleared_rows(rows):
    """The nonzero rows of int or Fraction entries, given as lists or as
    {col: value} dicts, each times the lcm of the denominators of its
    nonzero entries, as {col: int} dicts.  A dict of nonzero ints is
    handed back as it is, not copied; any other row is rebuilt, and a row
    of ints is only stripped of its zeros."""
    out = []
    for row in rows:
        if row.__class__ is dict:
            for x in row.values():
                if x.__class__ is not int or not x:
                    break
            else:
                if row:
                    out.append(row)
                continue
        nonzero = {j: x for j, x in
                   (row.items() if isinstance(row, dict) else enumerate(row))
                   if x}
        if not nonzero:
            continue
        if all(x.__class__ is int for x in nonzero.values()):
            out.append(nonzero)
        else:
            den = lcm(*(x.denominator for x in nonzero.values()))
            out.append({j: x.numerator * (den // x.denominator)
                        for j, x in nonzero.items()})
    return out


def _combined(row, prow, c):
    """prow[c] * row - row[c] * prow for {col: int} rows: column c of row
    eliminated, made primitive, without zeros."""
    p, f = prow[c], row[c]
    out = {j: p * x for j, x in row.items()} if p != 1 else dict(row)
    for j, y in prow.items():
        x = out.get(j, 0) - f * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values())
    if g > 1:
        out = {j: x // g for j, x in out.items()}
    return out


def _primitive(row, c):
    """The {col: int} row divided by the gcd of its entries, signed so
    that its entry at c is positive."""
    g = gcd(*row.values())
    if row[c] < 0:
        g = -g
    return {j: x // g for j, x in row.items()} if g != 1 else row


def _subtracted(row, prow, c):
    """row - row[c] * prow for {col: FieldElement} rows with prow[c] = 1:
    column c of row eliminated, without zeros."""
    f = row[c]
    field = f.field
    zero = field.zero()
    out = dict(row)
    del out[c]
    for j, y in prow.items():
        if j != c:
            e = _axpy(field, out.get(j, zero), f, y)
            if e.nums:
                out[j] = e
            else:
                del out[j]
    return out


def _monic(row, c):
    """The {col: FieldElement} row divided by its entry at c, whose lead
    becomes the field's one without a product."""
    inv = row[c].inverse()
    return {j: inv * e if j != c else inv.field.one() for j, e in row.items()}


def _echelon(rows, reduce=_combined, normalise=_primitive):
    """Reduced echelon form of sparse rows, as {pivot col: row} in the
    order of the rows that gave the pivots, by elimination on the nonzeros
    only (Davis, Direct Methods for Sparse Linear Systems, 2006).  Each
    incoming row is reduced by the pivot rows so far, normalised at its
    leftmost column, which becomes its pivot, and that column is then
    eliminated from the earlier pivot rows.  The defaults keep {col: int}
    rows primitive with a positive lead; _subtracted and _monic give
    field rows lead 1.  The form is unique, so pivots and kernels do not
    depend on the order of the rows."""
    pivots = {}
    for row in rows:
        # pivot rows are zero at each other's columns: one pass suffices
        for c in [c for c in row if c in pivots]:
            row = reduce(row, pivots[c], c)
        if not row:
            continue
        c = min(row)
        row = normalise(row, c)
        for pc, prow in pivots.items():
            if c in prow:
                pivots[pc] = reduce(prow, row, c)
        pivots[c] = row
    return pivots


def _kernel_basis(pivots, ncols, zero, one, coeff):
    """The right kernel of the pivot rows: per free column fc, one at fc
    and coeff(x, lead) at each pivot column whose row has x at fc."""
    basis = {}
    for fc in range(ncols):
        if fc not in pivots:
            basis[fc] = v = [zero] * ncols
            v[fc] = one
    for pc, row in pivots.items():
        lead = row[pc]
        for fc, x in row.items():
            if fc != pc:
                basis[fc][pc] = coeff(x, lead)
    return list(basis.values())


def rational_kernel(rows, ncols):
    """Basis of the right kernel of the rational matrix with the given rows
    (lists or {col: value} dicts of ints or Fractions), as lists of
    Fractions: each basis vector sets one free variable to 1, as
    ExactMatrix.kernel does.  No rows give the standard basis."""
    return _kernel_basis(_echelon(cleared_rows(rows)), ncols, Fraction(0),
                         Fraction(1), lambda x, lead: Fraction(-x, lead))


def rational_rank(rows) -> int:
    """Rank of the rational matrix with the given rows, which are as for
    rational_kernel."""
    return len(_echelon(cleared_rows(rows)))


def _matrix(field, nonzero, cols) -> "ExactMatrix":
    """The ExactMatrix with the given zero-free rows, unchecked."""
    m = object.__new__(ExactMatrix)
    m.field = field
    m.nonzero = nonzero
    m.rows = len(nonzero)
    m.cols = cols
    return m


class ExactMatrix:
    """Matrix with FieldElement entries; immutable by convention.

    ``nonzero`` is the storage: per row, a {col: element} dict that holds
    no zero.  Arithmetic reads and builds only these dicts, so it costs
    O(nonzeros); ``entries`` is a dense view built on each access.
    rref, kernel, solve, inverse and det all run the one sparse
    elimination, _echelon."""

    def __init__(self, field: MultiQuadField, entries):
        rows = [dict(enumerate(row)) for row in entries]
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("matrix rows have different lengths")
        self.field, self.rows, self.cols = field, len(rows), cols
        self.nonzero = ExactMatrix.from_rows(field, rows, cols).nonzero

    @staticmethod
    def from_rows(field: MultiQuadField, rows, cols: int) -> "ExactMatrix":
        """The matrix with cols columns whose row i holds the {col: value}
        dict rows[i], each value coerced into the field and the zeros
        dropped; ValueError on a column outside range(cols) or an element
        of another field."""
        nonzero = []
        for row in rows:
            out = {}
            for j, e in row.items():
                if j not in range(cols):
                    raise ValueError(f"column {j} is outside range({cols})")
                e = FieldElement.coerce(field, e)
                if e.nums:
                    out[j] = e
            nonzero.append(out)
        return _matrix(field, nonzero, cols)

    @staticmethod
    def from_int(field: MultiQuadField, rows) -> "ExactMatrix":
        return ExactMatrix(field, rows)

    @property
    def entries(self):
        """The dense rows, built from ``nonzero`` on each access."""
        zero = self.field.zero()
        return [[row.get(j, zero) for j in range(self.cols)]
                for row in self.nonzero]

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.field == other.field
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.nonzero == other.nonzero)

    def __repr__(self):
        return "ExactMatrix(" + "; ".join(
            ", ".join(repr(e) for e in row) for row in self.entries) + ")"

    def __add__(self, other):
        return ExactMatrix.combination([(1, self, None), (1, other, None)])

    def __sub__(self, other):
        return ExactMatrix.combination([(1, self, None), (-1, other, None)])

    def __neg__(self):
        return ExactMatrix.combination([(-1, self, None)])

    def scale(self, c) -> "ExactMatrix":
        return ExactMatrix.combination(
            [(FieldElement.coerce(self.field, c), self, None)])

    def __mul__(self, other):
        """One combination term; a vector (elements or ints) is read as a
        one-column matrix, and its product comes back as a list."""
        if isinstance(other, ExactMatrix):
            return ExactMatrix.combination([(1, self, other)])
        vec = ExactMatrix.from_rows(self.field, [{0: v} for v in other], 1)
        zero = self.field.zero()
        return [row.get(0, zero) for row in
                ExactMatrix.combination([(1, self, vec)]).nonzero]

    @staticmethod
    def combination(terms) -> "ExactMatrix":
        """sum c * a * b over the (c, a, b) in terms, for c an int or an
        element of the matrices' field and matrices a and b, b None for a
        alone, as one sum of products keyed by cell: a cell whose sum
        cancels gets no element, so a combination that vanishes builds no
        row entry at all.  Products, sums, differences, negation and scale
        are each one call.  ValueError on no terms, a field mismatch or a
        shape mismatch."""
        terms = list(terms)
        if not terms:
            raise ValueError("a combination needs at least one term")
        field = terms[0][1].field
        shapes = set()
        for c, a, b in terms:
            if a.field != field or (b is not None and b.field != field):
                raise ValueError("field mismatch")
            if b is None:
                shapes.add((a.rows, a.cols))
            elif a.cols != b.rows:
                raise ValueError("inner dimensions differ")
            else:
                shapes.add((a.rows, b.cols))
        if len(shapes) != 1:
            raise ValueError("matrix shapes differ")
        (rows, cols), = shapes
        one = field.one()

        def products():
            for c, a, b in terms:
                for i, row in enumerate(a.nonzero):
                    base = i * cols
                    if b is None:
                        for j, x in row.items():
                            yield base + j, x, one, c
                    else:
                        for t, x in row.items():
                            for j, y in b.nonzero[t].items():
                                yield base + j, x, y, c

        out = [{} for _ in range(rows)]
        for cell, e in sum_of_products(field, products()).items():
            out[cell // cols][cell % cols] = e
        return _matrix(field, out, cols)

    def transpose(self) -> "ExactMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nonzero):
            for j, e in row.items():
                out[j][i] = e
        return _matrix(self.field, out, self.rows)

    def galois(self, g: GaloisElement) -> "ExactMatrix":
        return _matrix(self.field,
                       [{j: apply_galois(g, e) for j, e in row.items()}
                        for row in self.nonzero], self.cols)

    def take_rows(self, order) -> "ExactMatrix":
        """The matrix whose row i is row order[i] of self."""
        return _matrix(self.field, [self.nonzero[i] for i in order],
                       self.cols)

    # -- elimination ------------------------------------------------------
    def rref(self):
        """Reduced row echelon form, the pivot rows in column order above
        the zero rows.  Returns (matrix, pivot cols)."""
        pivots = _echelon(self.nonzero, _subtracted, _monic)
        cols = sorted(pivots)
        rows = [pivots[c] for c in cols] + \
            [{} for _ in range(self.rows - len(cols))]
        return _matrix(self.field, rows, self.cols), cols

    def kernel(self):
        """Basis of the right kernel, read off the rref.  Each basis vector
        sets one free variable to 1 (matching the hand computations'
        normalization)."""
        red, cols = self.rref()
        return _kernel_basis(dict(zip(cols, red.nonzero)), self.cols,
                             self.field.zero(), self.field.one(),
                             lambda x, lead: -x)

    def solve(self, rhs):
        """One solution of self * x = rhs, or None if inconsistent."""
        rhs = [FieldElement.coerce(self.field, v) for v in rhs]
        if len(rhs) != self.rows:
            raise ValueError("rhs length differs from the row count")
        n = self.cols
        pivots = _echelon([{**row, n: b} if b.nums else row
                           for row, b in zip(self.nonzero, rhs)],
                          _subtracted, _monic)
        if n in pivots:
            return None
        zero = self.field.zero()
        x = [zero] * n
        for pc, row in pivots.items():
            x[pc] = row.get(n, zero)
        return x

    def inverse(self) -> "ExactMatrix":
        """M^-1 from one elimination of [M | I]; ZeroDivisionError if M is
        singular."""
        n = self._square()
        one = self.field.one()
        pivots = _echelon([{**row, n + i: one}
                           for i, row in enumerate(self.nonzero)],
                          _subtracted, _monic)
        # [M | I] has rank n: M is invertible iff every pivot lies in M
        if any(c >= n for c in pivots):
            raise ZeroDivisionError("matrix is singular")
        return _matrix(self.field, [{j - n: e for j, e in pivots[i].items()
                                     if j >= n} for i in range(n)], n)

    def det(self) -> FieldElement:
        """The product of the leads the elimination divides out, times
        the sign of the permutation taking each row to the pivot column
        it gives; zero when a row reduces to nothing."""
        n = self._square()
        d = self.field.one()

        def monic(row, c):
            nonlocal d
            d = d * row[c]
            return _monic(row, c)

        order = list(_echelon(self.nonzero, _subtracted, monic))
        if len(order) < n:
            return self.field.zero()
        inversions = sum(a > b for i, a in enumerate(order)
                         for b in order[i + 1:])
        return -d if inversions % 2 else d

    def _square(self) -> int:
        if self.rows != self.cols:
            raise ValueError(f"{self.rows}x{self.cols} matrix is not square")
        return self.rows


def _unit_monomials(field: MultiQuadField):
    """(bitmask, s, d) for each generator subset in repr order: the
    monomial's square is d * s^2 with d square-free, so monomial / s is
    the unit sqrt(d).  In Q(sqrt(-2), sqrt(2)) the monomial
    sqrt(-2)*sqrt(2) gives (3, 2, -1): it is 2i."""
    out = []
    for m in field._order:
        s, d = squarefree_split(field._table[m][m][1])
        out.append((m, int(s), d))
    return out


def _on_units(field: MultiQuadField, terms) -> "FieldElement":
    """sum of c/q * (monomial m) / s over the (m, s, c, q) in terms, for
    distinct masks m, c = ±1 and q in {1, 2}: canonical as built."""
    den = lcm(*(q * s for _, s, _, q in terms))
    return _new(field, {m: c * den // (q * s) for m, s, c, q in terms}, den)


def _eigenvalue_candidates(field: MultiQuadField):
    """Finite trial set: coefficients in {±1, ±1/2} on at most two unit
    monomials (a monomial divided by the square part of its square).
    Contains every root of unity of order dividing 8 or 6 expressible in
    the field, and all ±sqrt(d) units.  No candidate repeats: supports or
    coefficients differ."""
    halves = ((1, 1), (-1, 1), (1, 2), (-1, 2))
    units = _unit_monomials(field)
    out = [_on_units(field, [(m, s, c, 1)])
           for m, s, _ in units for c in (1, -1)]
    for (m1, s1, _), (m2, s2, _) in combinations(units, 2):
        for c1, q1 in halves:
            for c2, q2 in halves:
                out.append(_on_units(field, [(m1, s1, c1, q1),
                                             (m2, s2, c2, q2)]))
    return out


def roots_of_unity(field: MultiQuadField):
    """The roots of unity of order dividing 8 or 6 in the field, as
    (zeta, order) pairs in the order of _eigenvalue_candidates: 1, -1,
    then ±i, (±sqrt(2) ± sqrt(-2))/2 and (±1 ± sqrt(-3))/2 where the
    field holds the units they need.  At most twelve.  They are built
    once per field object; each call returns its own list."""
    return list(field._roots_of_unity)


def eigen_decompose(m: ExactMatrix):
    """Eigenvalues and exact eigenbases by trial over the candidate set.

    Raises DoesNotSplit if the eigenspace dimensions do not sum to the
    matrix size (semisimple input assumed).
    """
    n = m._square()
    zero = m.field.zero()
    found = []
    total = 0
    for lam in _eigenvalue_candidates(m.field):
        # m - lam*I: only the diagonal changes
        shifted = [dict(row) for row in m.nonzero]
        for i, row in enumerate(shifted):
            e = row.pop(i, zero) - lam
            if e.nums:
                row[i] = e
        ker = _matrix(m.field, shifted, n).kernel()
        if ker:
            found.append((lam, ker))
            total += len(ker)
            if total == n:
                break
    if total != n:
        raise DoesNotSplit(
            f"only {total} of {n} eigenspace dimensions found over {m.field}")
    return found
