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
    pivot column of each basis row."""

    def __init__(self, ambient_rank: int, rows):
        self.ambient_rank = int(ambient_rank)
        rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != self.ambient_rank:
                raise ValueError(f"row {r} does not have length "
                                 f"{self.ambient_rank}")
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


def hnf(mat, ambient_rank: int | None = None) -> IntLattice:
    mat = [list(r) for r in mat]
    if ambient_rank is None:
        ambient_rank = len(mat[0]) if mat else 0
    return IntLattice(ambient_rank, mat)


def snf(mat):
    """Smith normal form.  Returns (invariant_factors, U, V) with
    U * mat * V = diag(invariant_factors) (padded with zeros), U, V
    unimodular."""
    a = [list(map(int, r)) for r in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def addmul_row(i, j, q):  # row_i -= q*row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_col(i, j, q):  # col_i -= q*col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    t = 0
    while t < min(nrows, ncols):
        # find a nonzero pivot
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # divisibility: a[t][t] must divide everything below-right
        fixed = False
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    addmul_row(t, i, -1)  # row_t += row_i
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    factors = [a[i][i] for i in range(t)]
    return factors, u, v


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
