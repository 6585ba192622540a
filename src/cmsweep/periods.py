"""
Formal period monomials over a declared basis of algebraically
independent transcendentals (default (b, 2*pi*i)), diagonal comparison
matrices, exponent-rank transcendence bounds, and twisted-class
membership.  No numbers are ever evaluated; everything is exponent
bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction

from . import Frozen
from .fields import rational_rank

DEFAULT_BASIS = ("b", "2*pi*i")


class PeriodMonomial(Frozen):
    """coefficient * prod(basis[t] ** exponents[t]) with a nonzero
    algebraic coefficient."""
    __slots__ = ("exponents", "coefficient", "basis")

    def __init__(self, exponents, coefficient=Fraction(1),
                 basis=DEFAULT_BASIS):
        self.exponents, self.coefficient = exponents, coefficient
        self.basis = basis
        if self.coefficient == 0:
            raise ValueError("a period monomial needs a nonzero coefficient")
        if len(self.exponents) != len(self.basis):
            raise ValueError("the exponents do not match the basis")

    def __mul__(self, other: "PeriodMonomial") -> "PeriodMonomial":
        assert self.basis == other.basis
        return PeriodMonomial(
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
            self.coefficient * other.coefficient, self.basis)


class PeriodMatrix(Frozen):
    """Diagonal matrix of period monomials."""
    __slots__ = ("diagonal",)

    def __init__(self, diagonal):
        self.diagonal = diagonal

    def entries(self):
        return list(self.diagonal)

    def __iter__(self):
        return iter(self.diagonal)


def gross_matrix(p: int, n: int) -> PeriodMatrix:
    """diag(b^p (2 pi i / b)^{n-p}, b^{n-p} (2 pi i / b)^p): exponent
    vectors (2p - n, n - p) and (n - 2p, p)."""
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, not p = {p}, n = {n}")
    return PeriodMatrix((
        PeriodMonomial((2 * p - n, n - p)),
        PeriodMonomial((n - 2 * p, p)),
    ))


def trdeg_lower_bound(ms) -> int:
    """Rank over Q of the exponent matrix: a lower bound for the
    transcendence degree of the field the monomials generate, given that
    the basis transcendentals are algebraically independent (an encoded
    axiom for (b, 2*pi*i))."""
    ms = list(ms)
    if not ms:
        return 0
    basis = ms[0].basis
    assert all(m.basis == basis for m in ms)
    return rational_rank([m.exponents for m in ms])


def twisted_membership(ms, k: int) -> bool:
    """True iff every monomial lies in Qbar * (2 pi i)^k, i.e. has
    b-exponent 0 and 2*pi*i-exponent k."""
    for m in ms:
        assert m.basis == DEFAULT_BASIS
        if m.exponents != (0, k):
            return False
    return True
