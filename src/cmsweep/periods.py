"""
Formal period bookkeeping for the de Rham-Betti comparison: a period
monomial prod(b^e0 (2*pi*i)^e1) is its exponent pair (e0, e1), products
are exponent sums, and diagonal comparison matrices are lists of pairs.
No numbers are ever evaluated.

Encoded axiom: b and 2*pi*i are algebraically independent.  Then the
exponent rank over Q is a lower bound for the transcendence degree of the
field the monomials generate, and a monomial lies in Qbar * (2*pi*i)^k
exactly when its pair is (0, k).  A nonzero algebraic coefficient in
front of a monomial changes neither bound: it lies in Qbar, which adds
no transcendence degree and is the coefficient field of every twist
class, so it is not recorded.
"""

from __future__ import annotations

from .fields import rational_rank


def gross_matrix(p: int, n: int) -> list:
    """diag(b^p (2 pi i / b)^{n-p}, b^{n-p} (2 pi i / b)^p): exponent
    pairs (2p - n, n - p) and (n - 2p, p)."""
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, not p = {p}, n = {n}")
    return [(2 * p - n, n - p), (n - 2 * p, p)]


def trdeg_lower_bound(ms) -> int:
    """Rank over Q of the exponent pairs ms: a lower bound for the
    transcendence degree of the field their monomials generate."""
    return rational_rank(ms)


def twisted_membership(ms, k: int) -> bool:
    """True iff every monomial lies in Qbar * (2 pi i)^k, i.e. has
    b-exponent 0 and 2*pi*i-exponent k."""
    return all(m == (0, k) for m in ms)
