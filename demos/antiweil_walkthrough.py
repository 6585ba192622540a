#!/usr/bin/env python3
"""Build the 8-dimensional quaternionic representation at
(D', D, a) = (-1, -2, -3) and run every verification layer, printing
what each one establishes.

Run:  python3 demos/antiweil_walkthrough.py
"""

from cmsweep.quatrep import (build_antiweil_rep, e_a1_triples,
                             invariant_endomorphisms_dim,
                             invariant_wedge2_dim, sl2_triple,
                             verify_e_a1_brackets, weight_table_counts)


def main():
    print("Step 1: a single sl(2)-triple inside the quaternion algebra")
    tri = sl2_triple(-3, -1)
    print(f"  brackets [h,x]=2x, [h,y]=-2y, [x,y]=h: "
          f"{tri.verify_brackets()}")

    print("\nStep 2: two commuting triples in the J-extended algebra")
    alg, gens = e_a1_triples(-2, -3)
    print(f"  all 15 pairwise bracket identities: "
          f"{verify_e_a1_brackets(alg, gens)}")

    print("\nStep 3: the 8-dimensional realization over Q(i, sqrt-2, sqrt-3)")
    rep = build_antiweil_rep(-1, -2, -3)
    print("  matrix brackets: the weight-table matrices A_l satisfy the")
    print("  sl(2) x sl(2) relations, and mu_l B = B A_l for each generator, so")
    print(f"  mu_l = B A_l B^-1 satisfies them too: "
          f"{rep.verify_matrix_brackets()}")
    ok, failures = rep.verify_galois_equivariance()
    print(f"  Galois equivariance:    {ok} (144 identities, "
          f"{len(failures)} failures)")
    sym_ok, checks = rep.verify_symplectic()
    print(f"  symplectic form:        {sym_ok}")
    for k, v in checks.items():
        print(f"    {k:>20}: {v}")
    print(f"  irreducibility:         {rep.verify_irreducibility()}")

    print("\nStep 4: rational descent and the invariant counts")
    model = rep.rational_model()
    print(f"  rational matrices for: {sorted(model)}")
    print("  nonzero entries of the image of i (each matrix is kept as its")
    print("  zero-free rows, integral values as ints):")
    for r, row in enumerate(model["i"]):
        for c, x in sorted(row.items()):
            print(f"    [{r}][{c}] = {x}")
    print("  Gram matrix in the Q-basis:")
    for r, row in enumerate(model["gram"]):
        for c, x in sorted(row.items()):
            print(f"    [{r}][{c}] = {x}")
    gens = rep.bracket_generators.generator_names()
    print(f"  bracket generators {', '.join(gens)}: in the rational model")
    print("  2k = [i, j], -2Jk = [j, Ji] and -2a Jj = [k, Ji], so these four")
    print("  generate all seven as a Lie algebra and have their invariants")
    print("  (ranks of int systems over the four):")
    end_dim, w2_dim = rep.rational_invariant_dims()
    print(f"    dim End(V) invariants = {end_dim}, "
          f"dim wedge^2 V invariants = {w2_dim}")
    print("  the weight-table route: conjugation by B carries each mu_l to")
    print("  the int matrix A_l and J to sqrt(D') J_0; the counts of the A_l")
    counts = weight_table_counts()[:2]
    print(f"  and J_0, computed once per process, are {counts}.")
    print("  Here mu_l B = B A_l, J B = B sqrt(D') J_0 and the model's")
    print("  brackets hold, so the module functions read those counts:")
    print(f"    dim End(V) invariants = {invariant_endomorphisms_dim(rep)}, "
          f"dim wedge^2 V invariants = {invariant_wedge2_dim(rep)}")


if __name__ == "__main__":
    main()
