"""
Exact integer-lattice algorithms: row-style Hermite normal form, Smith normal
form, saturation and membership.  Ranks here are tiny (at most 4), so
everything favors exactness and canonical output over speed.
"""

from __future__ import annotations

from math import prod

from .fields import cleared_rows


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row HNF: positive pivots, entries above each pivot reduced into
    [0, pivot); zero rows dropped."""
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        # gcd-out column c below row r
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return [row for row in m[:r] if any(row)]


class IntLattice:
    """A sublattice of Z^n given by its canonical HNF basis (rows) and the
    pivot column of each basis row.  The rows it is built from hold ints
    or integral Fractions; ValueError on a row of another length or with
    a non-integral entry."""

    def __init__(self, ambient_rank: int, rows):
        self.ambient_rank = int(ambient_rank)
        rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != self.ambient_rank:
                raise ValueError(f"row {r} does not have length "
                                 f"{self.ambient_rank}")
            for x in r:
                # an integral Fraction counts as its int
                if x.__class__ is not int and x != int(x):
                    raise ValueError(f"row {r} is not integral")
        self.basis = tuple(map(tuple, _hnf_rows(rows)))
        self.pivots = tuple(next(j for j, a in enumerate(row) if a)
                            for row in self.basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, IntLattice)
                and self.ambient_rank == other.ambient_rank
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_rank, self.basis))

    def __repr__(self):
        return f"IntLattice({self.ambient_rank}, {list(map(list, self.basis))})"

    def contains(self, vec) -> bool:
        """Exact membership via the HNF basis: greedy division at the
        pivots, so a vector with a non-integral entry is not a member;
        ValueError unless vec has ambient_rank entries."""
        v = list(vec)
        if len(v) != self.ambient_rank:
            raise ValueError(f"vector {v} does not have length "
                             f"{self.ambient_rank}")
        for p, row in zip(self.pivots, self.basis):
            q, r = divmod(v[p], row[p])
            if r:
                return False
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return not any(v)


def snf(mat):
    """Smith normal form by alternating row HNFs (Kannan and Bachem, SIAM
    J. Comput. 8(4), 1979).  Returns (factors, U, V) with U * mat * V =
    diag(factors) padded with zeros, U and V unimodular, and the factors
    positive, each dividing the next.

    The state is the square block matrix S = [[A, U], [V, 0]], with
    A = U * mat * V of shape m x n.  A row HNF of the top m rows of S acts
    on [A | U] from the left; S transposed is [[Aᵀ, Vᵀ], [Uᵀ, 0]], so a
    row HNF of its top n rows acts on A and V from the right.  The
    identity blocks keep every row nonzero, so _hnf_rows drops none, and
    its zero rows of A sink below the others: once A is diagonal, its
    nonzero entries lead.  If d_i does not divide a later d_j, adding
    column j into column i puts gcd(d_i, d_j) < d_i in reach of the next
    HNF."""
    a = [list(map(int, r)) for r in mat]
    m, n = len(a), len(a[0]) if a else 0
    s = ([row + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
         + [[int(i == j) for j in range(n + m)] for i in range(n)])
    while True:
        for k in (m, n):  # rows [A | U], then rows [Aᵀ | Vᵀ]
            s = [list(c) for c in zip(*(_hnf_rows(s[:k]) + s[k:]))]
        if any(s[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        factors = [s[i][i] for i in range(min(m, n)) if s[i][i]]
        step = next(((i, j) for i, d in enumerate(factors)
                     for j in range(i + 1, len(factors))
                     if factors[j] % d), None)
        if step is None:
            return factors, [r[n:] for r in s[:m]], [r[:n] for r in s[m:]]
        i, j = step
        for row in s:
            row[i] += row[j]


def saturate(l: IntLattice) -> IntLattice:
    """Intersection of the Q-span of l with Z^n.  The index [sat L : L] is
    the gcd of the maximal minors of the basis B (Newman, Integral
    Matrices, 1972, ch. II), and B is echelon, so its minor at the pivot
    columns is the pivot product: l comes back as it is when that is 1.
    Otherwise, with U*B*V = S from the Smith form of B, U*B = S*V^-1: row
    i of U*B is d_i times row i of V^-1, and the first r rows of the
    unimodular V^-1 span the saturation."""
    if prod(row[p] for p, row in zip(l.pivots, l.basis)) == 1:
        return l
    factors, u, _ = snf([list(r) for r in l.basis])
    cols = list(zip(*l.basis))
    rows = []
    for d, urow in zip(factors, u):
        row = [sum(c * x for c, x in zip(urow, col)) for col in cols]
        assert all(x % d == 0 for x in row)
        rows.append([x // d for x in row])
    return IntLattice(l.ambient_rank, rows)


def rational_span_intersect(vectors, ambient_rank: int) -> IntLattice:
    """The saturated lattice span_Q(vectors) ∩ Z^n, vectors rational."""
    return saturate(IntLattice(ambient_rank,
                               [[row.get(j, 0) for j in range(ambient_rank)]
                                for row in cleared_rows(vectors)]))
