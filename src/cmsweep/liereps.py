"""
Small-dimensional representation bookkeeping: Weyl dimensions from the
Cartan matrices of rank <= 3 types, explicit sl(2) weight modules and
their tensor and wedge constructions, the commutant system of a set of
matrices, exact invariant-vector solving, and the sp(4) standard module
built from its symplectic form.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import inf, prod
from operator import mul

from .fields import rational_kernel, rational_rank

# ---------------------------------------------------------------------------
# sparse matrices: one {col: value} dict per row, never holding a zero
# ---------------------------------------------------------------------------

def _sparse_rows(m):
    """The rows of m, each a list or a {col: value} dict, as dicts of the
    nonzero entries, an integral value as an int (int arithmetic runs in
    C, rational arithmetic in Python)."""
    return [{j: x.numerator if x.denominator == 1 else x for j, x in
             (row.items() if isinstance(row, dict) else enumerate(row)) if x}
            for row in m]


def _vanishes(terms) -> bool:
    """Whether sum c * a * b over the (c, a, b) in terms is zero, for an
    int c and matrices a and b given as {col: value} rows, b None for a
    alone; one row of the sum at a time, up to the first that does not
    cancel."""
    terms = list(terms)
    for i in range(len(terms[0][1])):
        acc = {}
        for c, a, b in terms:
            for t, x in a[i].items():
                if b is None:
                    acc[t] = acc.get(t, 0) + c * x
                else:
                    cx = c * x
                    for j, y in b[t].items():
                        acc[j] = acc.get(j, 0) + cx * y
        if any(acc.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# the sl(2) relations
# ---------------------------------------------------------------------------

def sl2_relations_hold(triples, vanishes) -> bool:
    """Whether [h,x] = 2x, [h,y] = -2y and [x,y] = h hold in each triple
    (h, x, y), and elements of distinct triples commute.  The elements may
    be of any type: vanishes(terms) says whether sum c * a * b over the
    (c, a, b) in terms is zero, for an int c and b None for a alone, so
    each relation is one sum, lhs - rhs, that must vanish."""
    for h, x, y in triples:
        if not (vanishes([(1, h, x), (-1, x, h), (-2, x, None)])
                and vanishes([(1, h, y), (-1, y, h), (2, y, None)])
                and vanishes([(1, x, y), (-1, y, x), (-1, h, None)])):
            return False
    return all(vanishes([(1, a, b), (-1, b, a)])
               for t1, t2 in combinations(triples, 2) for a in t1 for b in t2)


# ---------------------------------------------------------------------------
# weight modules
# ---------------------------------------------------------------------------

class WeightModule:
    """A vector space with named generator actions, organized into sl(2)
    triples (h, x, y).  Each action is given as rows, lists or {col: value}
    dicts of ints or rationals, and kept as one dict of its nonzero entries
    per row, integral values as ints.  Bracket
    identities are verified at construction: [h,x] = 2x, [h,y] = -2y,
    [x,y] = h per triple, and generators of distinct triples commute;
    ValueError if one fails."""

    def __init__(self, basis_labels, actions, triples):
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        self.actions = {name: _sparse_rows(m)
                        for name, m in dict(actions).items()}
        self.triples = tuple(tuple(t) for t in triples)
        if not sl2_relations_hold(
                [[self.actions[n] for n in t] for t in self.triples],
                _vanishes):
            raise ValueError(f"the actions of {self.triples} break the "
                             "sl(2) relations")

    def generator_names(self):
        return tuple(self.actions)

    def act(self, name, vec):
        return [sum(x * vec[j] for j, x in row.items())
                for row in self.actions[name]]


def sl2_irrep(m: int) -> WeightModule:
    """V(m): h.v_i = (m-2i) v_i, y.v_i = (i+1) v_{i+1}, x.v_i = (m-i+1) v_{i-1}."""
    if m < 0:
        raise ValueError(f"V(m) needs a highest weight m >= 0, not {m}")
    n = m + 1
    h = [{i: m - 2 * i} for i in range(n)]
    x = [{i + 1: m - i} for i in range(m)] + [{}]
    y = [{}] + [{i - 1: i} for i in range(1, n)]
    return WeightModule([f"v{i}" for i in range(n)],
                        [("h", h), ("x", x), ("y", y)], [("h", "x", "y")])


def _tensor_action(a, b):
    """Leibniz action a (x) 1 + 1 (x) b on the tensor basis (i, j), built
    row by row from the nonzeros of a and b, with no zero: only the cell
    (i, j) of row (i, j) gets two terms, a[i][i] + b[j][j]."""
    nb = len(b)
    out = []
    for i2, arow in enumerate(a):
        base = i2 * nb
        for j2, brow in enumerate(b):
            acc = {i * nb + j2: x for i, x in arow.items()}
            for j, y in brow.items():
                acc[base + j] = acc.get(base + j, 0) + y
            if acc.get(base + j2) == 0:
                del acc[base + j2]
            out.append(acc)
    return out


def external_product(w1: WeightModule, w2: WeightModule) -> WeightModule:
    """V ⊠ W for two algebras acting on separate factors."""
    labels = [f"({l1}|{l2})" for l1 in w1.basis_labels for l2 in w2.basis_labels]
    acts = []
    z1 = [{}] * w1.dim
    z2 = [{}] * w2.dim
    for name, a in w1.actions.items():
        acts.append((f"{name}1", _tensor_action(a, z2)))
    for name, b in w2.actions.items():
        acts.append((f"{name}2", _tensor_action(z1, b)))
    triples = [tuple(f"{n}1" for n in t) for t in w1.triples] + \
              [tuple(f"{n}2" for n in t) for t in w2.triples]
    return WeightModule(labels, acts, triples)


def tensor_module(w1: WeightModule, w2: WeightModule) -> WeightModule:
    """V ⊗ W with the same algebra acting diagonally (generators matched
    by name)."""
    if w1.generator_names() != w2.generator_names():
        raise ValueError(f"generator names {w1.generator_names()} and "
                         f"{w2.generator_names()} differ")
    if w1.triples != w2.triples:
        raise ValueError(f"triples {w1.triples} and {w2.triples} differ")
    labels = [f"({l1}|{l2})" for l1 in w1.basis_labels for l2 in w2.basis_labels]
    acts = [(name, _tensor_action(w1.actions[name], w2.actions[name]))
            for name in w1.generator_names()]
    return WeightModule(labels, acts, w1.triples)


def wedge2_module(w: WeightModule) -> WeightModule:
    """∧²V with the induced action, built from the nonzeros of each
    action: l.(e_i ^ e_j) = (l e_i) ^ e_j + e_i ^ (l e_j)."""
    n = w.dim
    pairs = list(combinations(range(n), 2))
    index = {p: t for t, p in enumerate(pairs)}
    labels = [f"{w.basis_labels[i]}^{w.basis_labels[j]}" for i, j in pairs]
    acts = []
    for name, a in w.actions.items():
        out = [{} for _ in pairs]
        for r, row in enumerate(a):
            # a[r][c] sends e_c to a[r][c] e_r: in e_c ^ e_k the factor
            # e_c becomes e_r, and e_r ^ e_k = -e_k ^ e_r
            for c, x in row.items():
                for k in range(n):
                    if k != c and k != r:
                        sign = 1 if (r < k) == (c < k) else -1
                        col = index[(c, k) if c < k else (k, c)]
                        t = index[(r, k) if r < k else (k, r)]
                        out[t][col] = out[t].get(col, 0) + sign * x
        acts.append((name, out))
    return WeightModule(labels, acts, w.triples)


def commutant_rows(mats, n):
    """The {col: value} rows of the linear system X -> m X - X m over the
    n x n matrices m in mats, given as {col: value} rows: row (i, j) of
    each m in turn, with the unknown X[k][j] at column k * n + j.  These
    are the actions on V ⊗ V*, where m acts as m ⊗ 1 + 1 ⊗ (-m^T): one
    _tensor_action each, so a row holds no zero, and ints stay ints."""
    rows = []
    for m in mats:
        neg_t = [{} for _ in range(n)]
        for k, mrow in enumerate(m):
            for j, y in mrow.items():
                neg_t[j][k] = -y
        rows += _tensor_action(m, neg_t)
    return rows


def invariant_space(w: WeightModule):
    """Basis of { v : g.v = 0 for every generator }, exactly: the kernel
    of the stacked sparse actions of all but the h of each triple, which
    kills what x and y kill since __init__ checked h = [x, y]."""
    hs = {t[0] for t in w.triples}
    return rational_kernel([row for name in w.generator_names()
                            if name not in hs
                            for row in w.actions[name]], w.dim)


# ---------------------------------------------------------------------------
# Weyl dimensions from Cartan matrices and the dimension-4 classification
# ---------------------------------------------------------------------------

# A[i][j] = <alpha_i^vee, alpha_j> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i),
# numbered as in Bourbaki: alpha_1 is long in B2 and B3, short in C3 and G2
CARTAN = {"A1": ((2,),), "A2": ((2, -1), (-1, 2)),
          "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), "B2": ((2, -1), (-2, 2)),
          "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
          "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)), "G2": ((2, -3), (-1, 2))}


@cache
def positive_coroots(algebra_type: str) -> tuple:
    """The positive coroots in simple-coroot coordinates, simple ones
    first: the positive roots of the transposed Cartan matrix, height by
    height, by alpha-strings (Humphreys, 9.4): with beta - r alpha_i the
    last root below beta, beta + alpha_i is a root exactly when
    r > <beta, alpha_i^vee>.  ValueError for a type not in CARTAN."""
    if algebra_type not in CARTAN:
        raise ValueError(f"unknown algebra type {algebra_type!r}, not one "
                         f"of {', '.join(CARTAN)}")
    dual = tuple(zip(*CARTAN[algebra_type]))
    roots = [tuple(int(i == j) for j in range(len(dual)))
             for i in range(len(dual))]
    for beta in roots:   # roots grows behind beta, one height after another
        for i, row in enumerate(dual):
            r = sum(beta[:i] + (beta[i] - k,) + beta[i + 1:] in roots
                    for k in range(1, beta[i] + 1))
            up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
            if r > sum(map(mul, row, beta)) and up not in roots:
                roots.append(up)
    return tuple(roots)


def algebra_dim(algebra_type: str) -> int:
    """2 |positive roots| + rank, summed over the factors of A1xA1."""
    return sum(2 * len(c) + len(c[0])
               for c in map(positive_coroots, algebra_type.split("x")))


def _weyl_dims(algebra_type, coroots, weights) -> list:
    """dim V(w) for each weight w of the list: the product over the
    coroots c of sum c_i (w_i + 1), one coroot at a time over the whole
    list, divided by its value at w = 0 by an exact divmod (ValueError on
    a remainder)."""
    den, products = prod(map(sum, coroots)), [1] * len(weights)
    for c in coroots:
        h = sum(c)
        products = [p * (sum(map(mul, c, w)) + h)
                    for p, w in zip(products, weights)]
    for w, p in zip(weights, products):
        if p % den:
            raise ValueError(f"the Weyl product of {algebra_type}{w} is "
                             f"not divisible by {den}")
    return [p // den for p in products]


def weyl_dim(algebra_type: str, *weights) -> int:
    """dim V(m_1 omega_1 + ... + m_n omega_n), numbered as in CARTAN, by
    Weyl's formula over positive_coroots(algebra_type), in ints.
    ValueError for a type not in CARTAN, a weight whose length is not the
    rank, or a non-integral (inf and nan too) or negative entry."""
    coroots = positive_coroots(algebra_type)
    w = tuple(None if m != m or m in (inf, -inf) else int(m) for m in weights)
    if w != weights:
        raise ValueError(f"highest weight {weights} has a non-integral entry")
    if len(w) != len(coroots[0]):
        raise ValueError(f"a highest weight of {algebra_type} has "
                         f"{len(coroots[0])} entries, not {len(w)}")
    if any(m < 0 for m in w):
        raise ValueError(f"highest weight {w} has a negative entry")
    return _weyl_dims(algebra_type, coroots, [w])[0]


def search_dim(algebra_type: str, target: int):
    """The highest weights of the type with the target dimension, over the
    grid 0 <= m_i <= target: each Weyl factor is >= 1 and that of
    alpha_i^vee is m_i + 1, so dim >= m_i + 1.  The type and the target
    are checked once (ValueError for a type not in CARTAN or a target that
    is no int >= 1, a bool or a float); each grid point only multiplies."""
    coroots = positive_coroots(algebra_type)
    if type(target) is not int or target < 1:
        raise ValueError(f"target dimension {target!r} is " + (
            "below 1" if type(target) is int else "not an int"))
    grid = list(product(range(target + 1), repeat=len(coroots[0])))
    return {"algebra_type": algebra_type, "target": target, "solutions": [
        w for w, dim in zip(grid, _weyl_dims(algebra_type, coroots, grid))
        if dim == target]}


SP4_FORM = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


def sp4_basis():
    """Basis of sp(4) = { x : x^T s + s x = 0 } by exact linear solving,
    each element as sparse rows."""
    s = SP4_FORM
    # 16 unknowns x[i][j]; equation (x^T s + s x)[i][j] = 0
    rows = []
    for i in range(4):
        for j in range(4):
            coeff = [0] * 16
            for t in range(4):
                coeff[4 * t + i] += s[t][j]      # (x^T s)[i][j] = x[t][i] s[t][j]
                coeff[4 * t + j] += s[i][t]      # (s x)[i][j] = s[i][t] x[t][j]
            rows.append(coeff)
    return [_sparse_rows([v[4 * i:4 * i + 4] for i in range(4)])
            for v in rational_kernel(rows, 16)]


def _standard_module(basis) -> WeightModule:
    """The module on e1..e4 with the 4 x 4 matrices of basis as its
    generators g0, g1, ... (no sl(2)-triple bookkeeping: the bracket
    structure is implied by the algebra's defining equation)."""
    return WeightModule([f"e{i + 1}" for i in range(4)],
                        [(f"g{t}", m) for t, m in enumerate(basis)], [])


def sp4_standard_module() -> WeightModule:
    """The 4-dimensional standard module of sp(4), generators g0..g9."""
    return _standard_module(sp4_basis())


def sl4_basis():
    """Basis of sl(4) as sparse rows: elementary off-diagonal units and
    traceless diagonals."""
    out = []
    for i in range(4):
        for j in range(4):
            if i != j:
                out.append([{j: 1} if r == i else {} for r in range(4)])
    for i in range(3):
        out.append([{r: 1 if r == i else -1} if r in (i, i + 1) else {}
                    for r in range(4)])
    return out


def classify_dim4_faithful():
    """The four semisimple types with a faithful irreducible 4-dimensional
    module, each with the check that makes it one.  Simple types come from
    search_dim over CARTAN (A2 and G2 have no 4-dimensional module, the
    no-dim4 records of rep-classify); in a product every factor acts by a
    faithful irreducible of dimension >= 2, so 4 = 2 x 2 (three factors
    need 8) forces A1xA1 on V(1) boxtimes V(1), its highest weight the two
    A1 weights.  D_l starts at dim D_4 = 28 > 15, as dim D_l = l(2l - 1).
    An entry is "ok" when its search finds exactly the expected weights
    and the generator images of its "weight_module" span algebra_dim(type)
    dimensions, so the algebra acts faithfully."""
    v1 = sl2_irrep(1)
    table = (
        # type, weight search (type, dimension), the weights it must find,
        # the recorded highest weight, module name, module
        ("A1", ("A1", 4), [(3,)], (3,), "V(3)", sl2_irrep(3)),
        ("A1xA1", ("A1", 2), [(1,)], (1, 1), "V(1) boxtimes V(1)",
         external_product(v1, v1)),
        ("B2", ("B2", 4), [(0, 1)], (0, 1), "standard sp(4)",
         sp4_standard_module()),
        # the standard module of sl(4) and its dual, weight (0,0,1)
        ("A3", ("A3", 4), [(0, 0, 1), (1, 0, 0)], (1, 0, 0),
         "standard sl(4)", _standard_module(sl4_basis())),
    )
    results = []
    for typ, search, expected, weight, name, module in table:
        images = [{i * module.dim + j: x
                   for i, row in enumerate(module.actions[g])
                   for j, x in row.items()}
                  for g in module.generator_names()]
        results.append({
            "algebra_type": typ, "highest_weight": weight, "module": name,
            "weight_module": module,
            "ok": search_dim(*search)["solutions"] == expected
            and rational_rank(images) == algebra_dim(typ)})
    return results
