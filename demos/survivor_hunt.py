#!/usr/bin/env python3
"""Walk through the signed-permutation sweeps and show how the two
surviving configurations emerge.

Run:  python3 demos/survivor_hunt.py
"""

from cmsweep.intlat import IntLattice
from cmsweep.torus import (SURVIVES_D4, divisor_test, sweep_a4, sweep_dim1,
                           sweep_klein4, sweep_order4,
                           transitive_subgroups_s4)


def main():
    print("Transitive subgroup families of S4:")
    for fam in transitive_subgroups_s4():
        print(f"  {fam['family']:>3}: {len(fam['subgroups'])} subgroup(s)")

    print("\nSweeps (cases by verdict):")
    for name, sweep in (("dim1", sweep_dim1), ("order4", sweep_order4),
                        ("klein4", sweep_klein4), ("a4", sweep_a4)):
        cases = sweep()
        tally = {}
        for cv in cases:
            tally[cv["verdict"]] = tally.get(cv["verdict"], 0) + 1
        summary = ", ".join(f"{v} x{c}" for v, c in sorted(tally.items()))
        print(f"  {name:>7} ({len(cases):2d} cases): {summary}")

    print("\nSurvivors in detail:")
    for cv in sweep_klein4():
        if cv["verdict"] != SURVIVES_D4:
            continue
        lat = IntLattice(4, cv["certificate"]["witness_lattice"])
        rejected, _ = divisor_test(lat)
        print(f"  {cv['case_id']}: witness point "
              f"{tuple(cv['certificate']['witness_point'])}")
        for row in lat.basis:
            print(f"    {list(row)}")
        print(f"    divisor test rejects: {rejected}")


if __name__ == "__main__":
    main()
