"""
Exact feasibility engine for the Hermitian positivity systems of the
polarization analyses: diagonal forms with sign-monomial coefficients in
named real parameters, antisymmetric zero-witness forms, and the
per-point definiteness check for the weight-1 family construction.

Only the structured systems that actually arise are handled; there is no
general parametric solver here on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from . import Frozen
from .fields import (ExactMatrix, FieldElement, field_create, form_value,
                     rational_kernel)

# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

GAUSS = field_create([-1])


def gauss(re, im=0) -> FieldElement:
    """The Gaussian rational re + im*sqrt(-1)."""
    return GAUSS.rational(Fraction(re)) + \
        GAUSS.sqrt_gen(-1) * GAUSS.rational(Fraction(im))


def g_re(e: FieldElement) -> Fraction:
    return e.coords.get(frozenset(), Fraction(0))


def g_im(e: FieldElement) -> Fraction:
    return e.coords.get(frozenset([0]), Fraction(0))


# ---------------------------------------------------------------------------
# sign-monomial diagonal systems
# ---------------------------------------------------------------------------

class Monomial(Frozen):
    """coeff * prod(param^exp); the sign under a parameter sign pattern is
    determined because the parameters are real."""
    __slots__ = ("coeff", "powers")

    def __init__(self, coeff, powers):  # powers: sorted (name, exponent>0)
        self.coeff, self.powers = coeff, powers

    @staticmethod
    def of(coeff, **powers) -> "Monomial":
        return Monomial(Fraction(coeff),
                        tuple(sorted((n, e) for n, e in powers.items() if e)))

    def sign_under(self, signs: dict) -> int:
        s = 1 if self.coeff > 0 else -1
        for name, e in self.powers:
            if signs[name] < 0 and e % 2 == 1:
                s = -s
        return s

    def evaluate(self, values: dict) -> Fraction:
        v = self.coeff
        for name, e in self.powers:
            v *= Fraction(values[name]) ** e
        return v

    def __str__(self):
        parts = [str(self.coeff)]
        for name, e in self.powers:
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)


class DiagonalPositivitySystem:
    """A conjunction of strict positivity requirements on diagonal-form
    coefficients, a list of (label, Monomial); `fixed_signs` (default: a
    fresh empty dict) pins parameters whose sign is part of the case
    hypothesis (e.g. lambda < 0)."""
    __slots__ = ("parameters", "coefficients", "fixed_signs")

    def __init__(self, parameters, coefficients, fixed_signs=None):
        self.parameters, self.coefficients = parameters, coefficients
        self.fixed_signs = {} if fixed_signs is None else fixed_signs
        if not self.coefficients:
            raise ValueError("coefficient list must be nonempty")

    def free_parameters(self):
        return tuple(p for p in self.parameters if p not in self.fixed_signs)


def _sign_patterns(sys: DiagonalPositivitySystem):
    free = sys.free_parameters()
    for bits in iproduct((1, -1), repeat=len(free)):
        signs = dict(sys.fixed_signs)
        signs.update(dict(zip(free, bits)))
        yield signs


def diagonal_feasibility(sys: DiagonalPositivitySystem) -> tuple:
    """Decide whether some sign assignment of the parameters makes every
    coefficient positive: ("FEASIBLE" or "INFEASIBLE", certificate).
    Infeasibility is certified by a pair of requirements that no sign
    pattern satisfies simultaneously."""
    for signs in _sign_patterns(sys):
        if all(m.sign_under(signs) > 0 for _, m in sys.coefficients):
            values = {p: Fraction(s) for p, s in signs.items()}
            return "FEASIBLE", {
                "signs": {p: int(s) for p, s in signs.items()},
                "parameter_point": {p: str(v) for p, v in values.items()},
                "coefficient_values": [str(m.evaluate(values))
                                       for _, m in sys.coefficients],
            }
    # find a contradictory pair
    n = len(sys.coefficients)
    for i in range(n):
        for j in range(i + 1, n):
            mi, mj = sys.coefficients[i][1], sys.coefficients[j][1]
            if not any(mi.sign_under(s) > 0 and mj.sign_under(s) > 0
                       for s in _sign_patterns(sys)):
                return "INFEASIBLE", {
                    "pair": [sys.coefficients[i][0], sys.coefficients[j][0]],
                    "monomials": [str(mi), str(mj)],
                    "fixed_signs": dict(sys.fixed_signs),
                }
    return "INFEASIBLE", {
        "pair": None,
        "note": "no single contradictory pair; all sign patterns fail",
        "fixed_signs": dict(sys.fixed_signs),
    }


def check_infeasibility_certificate(sys: DiagonalPositivitySystem,
                                    verdict) -> bool:
    """Re-check the (status, certificate) verdict of an INFEASIBLE pair:
    at every sampled parameter point of every admissible sign pattern, at
    least one of the two certified requirements is violated."""
    status, certificate = verdict
    labels = certificate.get("pair")
    if status != "INFEASIBLE" or not labels:
        raise ValueError(f"need an INFEASIBLE verdict with a pair, not "
                         f"{status} with pair {labels!r}")
    pair = [m for lab, m in sys.coefficients if lab in labels]
    for signs in _sign_patterns(sys):
        for mags in iproduct((1, 2, Fraction(1, 3)),
                             repeat=len(sys.parameters)):
            values = {p: signs[p] * m
                      for p, m in zip(sys.parameters, mags)}
            if all(m.evaluate(values) > 0 for m in pair):
                return False
    return True


# --- the concrete systems --------------------------------------------------

def deg4_imaginary_system() -> DiagonalPositivitySystem:
    """Quartic-CM imaginary branch: the three eigenspace blocks give the
    coefficients (-2M, 2M lam), (-2N, 2N lam), (-2N lam, 2N)."""
    return DiagonalPositivitySystem(
        parameters=("M", "N", "lam"),
        coefficients=[
            ("sigma:x1", Monomial.of(-2, M=1)),
            ("sigma:x-1", Monomial.of(2, M=1, lam=1)),
            ("tau:y1", Monomial.of(-2, N=1)),
            ("tau:y-1", Monomial.of(2, N=1, lam=1)),
            ("tau-bar:y'1", Monomial.of(-2, N=1, lam=1)),
            ("tau-bar:y'-1", Monomial.of(2, N=1)),
        ])


def antiweil_imaginary_system(lam_sign=-1) -> DiagonalPositivitySystem:
    """Anti-Weil imaginary branch: x-side M(1, -3 lam, 12 lam^2,
    -36 lam^3), y-side -M(-36 lam^3, 12 lam^2, -3 lam, 1), with the sign
    of lam fixed by the case hypothesis."""
    if lam_sign not in (1, -1):
        raise ValueError(f"lam_sign must be 1 or -1, not {lam_sign!r}")
    return DiagonalPositivitySystem(
        parameters=("M", "lam"),
        coefficients=[
            ("x0", Monomial.of(1, M=1)),
            ("x1", Monomial.of(-3, M=1, lam=1)),
            ("x2", Monomial.of(12, M=1, lam=2)),
            ("x3", Monomial.of(-36, M=1, lam=3)),
            ("y0", Monomial.of(36, M=1, lam=3)),
            ("y1", Monomial.of(-12, M=1, lam=2)),
            ("y2", Monomial.of(3, M=1, lam=1)),
            ("y3", Monomial.of(-1, M=1)),
        ],
        fixed_signs={"lam": lam_sign})


def antiweil_lambda_positive(lam) -> tuple:
    """lam > 0 branch: restrict the y-side form to the two coordinate
    subspaces y0 = y2 = 0 and y1 = y3 = 0 (each meets the orthogonality
    subspace nontrivially); the two restrictions force M < 0 and M > 0."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if lam < 0:
        return diagonal_feasibility(antiweil_imaginary_system(lam_sign=-1))
    sys = DiagonalPositivitySystem(
        parameters=("M", "lam"),
        coefficients=[
            # y0 = y2 = 0:  -M(12 lam^2 y1 y1~ + y3 y3~) > 0
            ("y0=y2=0:y1", Monomial.of(-12, M=1, lam=2)),
            ("y0=y2=0:y3", Monomial.of(-1, M=1)),
            # y1 = y3 = 0:  -M(-36 lam^3 y0 y0~ - 3 lam y2 y2~) > 0
            ("y1=y3=0:y0", Monomial.of(36, M=1, lam=3)),
            ("y1=y3=0:y2", Monomial.of(3, M=1, lam=1)),
        ],
        fixed_signs={"lam": 1})
    return diagonal_feasibility(sys)


# ---------------------------------------------------------------------------
# antisymmetric zero witnesses
# ---------------------------------------------------------------------------

def zero_witness_real_case(gram, constraints=()):
    """A real nonzero vector, inside the real solution set of the given
    Gaussian-rational linear constraints, on which the sesquilinear form
    v^T gram conj(v) vanishes exactly, for gram as {col: value} rows of
    ints or Gaussian rationals.  Returns the vector, or None when no
    witness is found among the tested candidates (e.g. for a definite
    form)."""
    n = len(gram)
    rows = []
    for c in constraints:
        rows.append([g_re(e) for e in c])
        rows.append([g_im(e) for e in c])
    basis = rational_kernel(rows, n)
    if not basis:
        return None

    def vanishes(vec):
        # v is real, so conj(v) = v
        v = [GAUSS.rational(t) for t in vec]
        return form_value(GAUSS, v, gram, v).is_zero()

    candidates = [[sum(b[t] for b in basis) for t in range(n)]]
    candidates += [list(b) for b in basis]
    for s in range(len(basis)):
        for t in range(s + 1, len(basis)):
            candidates.append([basis[s][u] + basis[t][u] for u in range(n)])
            candidates.append([basis[s][u] - basis[t][u] for u in range(n)])
    for vec in candidates:
        if all(v == 0 for v in vec):
            continue
        if vanishes(vec):
            return vec
    return None


def antisymmetric_weight_gram():
    """The 2x2 Gram of the a>0 eigenspace form (x1 xbar_{-1} -
    x_{-1} xbar_1), up to the nonzero scalar 2M', as {col: int} rows."""
    return ({1: -1}, {0: 1})


def antiweil_real_gram():
    """The 4x4 Gram of y0 y3~ - y1 y2~ + y2 y1~ - y3 y0~, as {col: int}
    rows."""
    return ({3: 1}, {2: -1}, {1: 1}, {0: -1})


def antiweil_real_constraint(x):
    """x0 y3 - x1 y2 + x2 y1 - x3 y0 = 0 as a coefficient vector on y."""
    x = [e if isinstance(e, FieldElement) else gauss(e) for e in x]
    return [-x[3], x[2], -x[1], x[0]]


# ---------------------------------------------------------------------------
# the weight-1 family membership check
# ---------------------------------------------------------------------------

# value form y0 y3~ + y1 y1~ + y2 y2~ + y3 y0~ in the w-basis, as the
# {col: value} rows of its Gram matrix
_FAMILY_GRAM = ({3: 1}, {1: 1}, {2: 1}, {0: 1})


def weil_family_check(x) -> dict:
    """Decide whether the 4-vector x of Gaussian rationals cuts out a
    polarized member of the weight-1 family: (i) S(x) = x0 x3~ + x1 x1~ +
    x2 x2~ + x3 x0~ < 0; (ii) the 3-dimensional orthogonal subspace
    x0 y3 - x1 y2 - x2 y1 + x3 y0 = 0; (iii) the induced Hermitian form
    is positive definite (leading principal minors); (iv) the reduced
    discriminant condition when x1 != 0."""
    x = [e if isinstance(e, FieldElement) else gauss(e) for e in x]
    if len(x) != 4:
        raise ValueError(f"x needs 4 components, not {len(x)}")
    if all(e.is_zero() for e in x):
        raise ValueError("all components are zero")

    # S(x) and the minors of the Hermitian R are real: as_fraction raises
    # ValueError otherwise
    s_frac = form_value(GAUSS, x, _FAMILY_GRAM,
                        [e.conj() for e in x]).as_fraction()
    report = {"s_value": str(s_frac), "s_negative": s_frac < 0}

    if s_frac >= 0:
        report["status"] = "NOT_IN_FAMILY"
        return report

    # (ii) the orthogonal subspace: kernel of (x3, -x2, -x1, x0) . y
    functional = [x[3], -x[2], -x[1], x[0]]
    # x is nonzero, so the kernel has 3 vectors b_i
    B = ExactMatrix.from_rows(GAUSS, [dict(enumerate(functional))],
                              4).kernel()

    # (iii) restricted Hermitian Gram R[i][j] = b_i^T H conj(b_j), Hermitian
    # since H is real symmetric, and its leading minors
    Bbar = [[e.conj() for e in b] for b in B]
    R = [{j: form_value(GAUSS, b, _FAMILY_GRAM, c) for j, c in enumerate(Bbar)}
         for b in B]
    minors = [ExactMatrix.from_rows(
        GAUSS, [{j: e for j, e in row.items() if j < k} for row in R[:k]],
        k).det().as_fraction() for k in (1, 2, 3)]
    report["minors"] = [str(m) for m in minors]
    positive_definite = all(m > 0 for m in minors)
    report["positive_definite"] = positive_definite

    # (iv) discriminant cross-check, (|x1|^2 + |x2|^2)(S - |x1|^2)
    if not x[1].is_zero():
        n1, n2 = (g_re(e) ** 2 + g_im(e) ** 2 for e in x[1:3])
        disc = (n1 + n2) * (s_frac - n1)
        report["discriminant"] = str(disc)
        report["discriminant_negative"] = disc < 0

    report["status"] = "IN_FAMILY" if positive_definite else "NOT_IN_FAMILY"
    return report
