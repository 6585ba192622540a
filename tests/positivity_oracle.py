"""Test oracle: floating-point sampling of the Hermitian form that
``cmsweep.positivity.weil_family_check`` decides exactly.  Only the tests
import it; numpy is a test dependency.

The orthogonal subspace of x is recomputed here as a numerical null space
(SVD), so the oracle shares no linear algebra with the exact check.
"""

from __future__ import annotations

import numpy as np

from cmsweep.fields import FieldElement
from cmsweep.positivity import g_im, g_re, gauss

# y0 y3~ + y1 y1~ + y2 y2~ + y3 y0~
FAMILY_GRAM = np.array([[0, 0, 0, 1],
                        [0, 1, 0, 0],
                        [0, 0, 1, 0],
                        [1, 0, 0, 0]], dtype=float)


def g_float(e) -> complex:
    """A Gaussian rational as a complex float."""
    return complex(g_re(e), g_im(e))


def float_oracle_agrees(x, report, samples=100, seed=0) -> bool:
    """False when the exact report calls the form positive definite but
    a random vector of the subspace x0 y3 - x1 y2 - x2 y1 + x3 y0 = 0
    gives a value <= 1e-12.  An indefinite verdict is not contradicted by
    nonnegative samples, so it always agrees."""
    if not report.get("positive_definite"):
        return True
    xf = [g_float(e if isinstance(e, FieldElement) else gauss(e))
          for e in x]
    functional = np.array([[xf[3], -xf[2], -xf[1], xf[0]]])
    # the rows of vh after the first span the null space of the functional
    # up to conjugation: functional @ vh[t].conj() = 0 for t >= 1
    _, _, vh = np.linalg.svd(functional)
    basis = vh[1:].conj()
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = c @ basis
        if (v @ FAMILY_GRAM @ np.conj(v)).real <= 1e-12:
            return False
    return True
