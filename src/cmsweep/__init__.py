"""Exact-arithmetic verification toolkit: Galois-equivariant character
lattice sweeps, CM-type combinatorics, small Lie representation
classification, quaternion representation checks, Hermitian positivity
feasibility, and formal period bookkeeping."""

__version__ = "0.1.0"


class Frozen:
    """Base of the immutable records: each field is a slot that __init__
    assigns once; assigning it again raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__setattr__(self, name, value)


def record(case_id, verdict, certificate, table) -> dict:
    """One case record of a section, as its fixture stores it: the only
    place the record keys are spelled."""
    return {"case_id": case_id, "verdict": verdict,
            "certificate": certificate, "table": table}
