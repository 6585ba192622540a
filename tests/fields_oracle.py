"""Test oracle: the dict-of-Fraction field element and the generic
Gauss-Jordan elimination that ``cmsweep.fields`` used before it moved to
integer numerators.  Only the differential tests import it.

An ``OracleElement`` maps generator subsets S to Fraction coefficients of
prod_{i in S} sqrt(d_i); the field argument is a ``MultiQuadField`` and
only its ``gens`` and ``k`` are read.
"""

from __future__ import annotations

from fractions import Fraction


class OracleElement:
    """An element of a multiquadratic field as {subset: Fraction}."""

    __slots__ = ("field", "coords", "_hash")

    def __init__(self, field, coords: dict):
        self.field = field
        self.coords = {s: Fraction(c) for s, c in coords.items() if c != 0}
        self._hash = None

    @staticmethod
    def rational(field, q) -> "OracleElement":
        return OracleElement(field, {frozenset(): Fraction(q)})

    def _coerce(self, x) -> "OracleElement":
        if isinstance(x, OracleElement):
            if x.field != self.field:
                raise ValueError("field mismatch")
            return x
        return OracleElement.rational(self.field, x)

    def is_zero(self) -> bool:
        return not self.coords

    def is_rational(self) -> bool:
        return all(not s for s in self.coords)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords.get(frozenset(), Fraction(0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = OracleElement.rational(self.field, other)
        return (isinstance(other, OracleElement)
                and self.field == other.field and self.coords == other.coords)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field,
                               frozenset(self.coords.items())))
        return self._hash

    def __repr__(self):
        if not self.coords:
            return "0"
        parts = []
        for s in sorted(self.coords, key=lambda t: (len(t), sorted(t))):
            c = self.coords[s]
            if not s:
                parts.append(str(c))
            else:
                rad = "*".join(f"sqrt({self.field.gens[i]})" for i in sorted(s))
                parts.append(f"{c}*{rad}" if c != 1 else rad)
        return " + ".join(parts)

    def __add__(self, other):
        other = self._coerce(other)
        coords = dict(self.coords)
        for s, c in other.coords.items():
            coords[s] = coords.get(s, Fraction(0)) + c
        return OracleElement(self.field, coords)

    __radd__ = __add__

    def __neg__(self):
        return OracleElement(self.field,
                             {s: -c for s, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        gens = self.field.gens
        coords: dict = {}
        for s1, c1 in self.coords.items():
            for s2, c2 in other.coords.items():
                factor = Fraction(1)
                for i in s1 & s2:
                    factor *= gens[i]
                key = s1 ^ s2
                coords[key] = coords.get(key, Fraction(0)) + c1 * c2 * factor
        return OracleElement(self.field, coords)

    __rmul__ = __mul__

    def inverse(self) -> "OracleElement":
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        # rationalize one generator at a time:
        # e * conj_i(e) has no sqrt(d_i) component.
        num = OracleElement.rational(self.field, 1)
        cur = self
        for i in range(self.field.k):
            if any(i in s for s in cur.coords):
                flip = tuple(-1 if j == i else 1 for j in range(self.field.k))
                conj = apply_galois(flip, cur)
                num = num * conj
                cur = cur * conj
        return num * OracleElement.rational(self.field, 1 / cur.as_fraction())

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def conj(self) -> "OracleElement":
        signs = tuple(-1 if d < 0 else 1 for d in self.field.gens)
        return apply_galois(signs, self)


def apply_galois(signs, e: OracleElement) -> OracleElement:
    """The automorphism sqrt(d_i) -> signs[i] * sqrt(d_i) applied to e."""
    coords = {}
    for s, c in e.coords.items():
        for i in s:
            c = c * signs[i]
        coords[s] = c
    return OracleElement(e.field, coords)


def rref(entries):
    """Reduced row echelon form of a list of rows of OracleElements, with
    the leftmost-column, smallest-row pivot rule.  Returns (rows, pivot
    columns)."""
    m = [row[:] for row in entries]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = None
        for i in range(r, n_rows):
            if not m[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * e for e in m[r]]
        for i in range(n_rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [m[i][j] - f * m[r][j] for j in range(n_cols)]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots
