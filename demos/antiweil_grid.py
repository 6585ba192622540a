#!/usr/bin/env python3
"""Send every ordered triple (D', D, a) of distinct negative square-free
integers with |d| <= 30 (5 814 of them) through the nine anti-Weil checks,
print each failing triple with its failing check, then the number of
triples, the mean time per triple and the mean time of each check.

Run:  python3 demos/antiweil_grid.py [--limit N]
"""

import argparse
import time
from itertools import permutations

from cmsweep import quatrep

# three distinct ones always generate a degree-8 field: each pairwise
# product is a positive non-square, the triple product is negative
NEG_SQUAREFREE = tuple(-n for n in range(1, 31)
                       if all(n % (d * d) for d in range(2, 6)))


def checks(triple):
    """The nine (name, check) pairs of one triple, in order; a check
    returns True when it passes.  The first builds the representation
    that the others read."""
    Dp, D, a = triple
    state = {}

    def build():
        state["rep"] = quatrep.build_antiweil_rep(Dp, D, a)
        return True

    def e_a1():
        alg, gens = quatrep.e_a1_triples(D, a)
        return quatrep.verify_e_a1_brackets(alg, gens)

    def on_rep(fn):
        return lambda: fn(state["rep"])

    return (
        ("build", build),
        ("matrix-brackets", on_rep(lambda r: r.verify_matrix_brackets())),
        ("galois-equivariance", on_rep(quatrep.verify_galois_equivariance)),
        ("symplectic", on_rep(quatrep.verify_symplectic)),
        ("irreducibility", on_rep(quatrep.verify_irreducibility)),
        ("galois-lie-table",
         on_rep(lambda r: r.regenerate_galois_lie_table()
                == quatrep.GALOIS_LIE_TABLE)),
        ("e-a1-brackets", e_a1),
        ("end-dim",
         on_rep(lambda r: quatrep.invariant_endomorphisms_dim(r) == 2)),
        ("wedge2-dim", on_rep(lambda r: quatrep.invariant_wedge2_dim(r) == 1)),
    )


def positive(text):
    """The --limit count, an int of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 triple, not {n}")
    return n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=positive, default=None,
                        help="run only the first N triples")
    args = parser.parse_args(argv)
    triples = list(permutations(NEG_SQUAREFREE, 3))[:args.limit]
    failing = 0
    spent = {}
    start = time.perf_counter()
    for triple in triples:
        bad = []
        for name, check in checks(triple):
            began = time.perf_counter()
            try:
                ok, error = check() is True, ""
            except Exception as exc:  # a raised check is a failed check
                ok, error = False, f" ({type(exc).__name__}: {exc})"
            spent[name] = spent.get(name, 0) + time.perf_counter() - began
            if not ok:
                bad.append(name + error)
        if bad:
            failing += 1
            print(f"{triple}: {', '.join(bad)}")
    elapsed = time.perf_counter() - start
    count = len(triples)
    split = ", ".join(f"{name} {1000 * seconds / count:.3f}"
                      for name, seconds in spent.items())
    print(f"{len(triples)} triples, {failing} failing, "
          f"{1000 * elapsed / count:.2f} ms per triple (ms per check: "
          f"{split})")
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
