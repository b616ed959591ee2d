"""Decide which groups admit a cyclic regular subgroup in their holomorph.

The classifier never enumerates the holomorph.  It splits N into an
odd-order metacyclic part M and a 2-group P, reads off the conjugation
action, and applies exact conditions on that action; on success it builds
an explicit generator and verifies the full-length cycle.
"""

from holoreg import (classify, construct, cyclic_group, cyclic_regular_oracle,
                     decompose, dihedral_group, direct_product,
                     normalize_alpha, parse_group_spec, quaternion_group,
                     twisted_partial_products, closed_form_products)

candidates = {
    "cyclic 27": cyclic_group(27),
    "C3 x C9": direct_product(cyclic_group(3), cyclic_group(9)),
    "dihedral 16": dihedral_group(16),
    "quaternion 8": quaternion_group(8),
    "C2 x C4": direct_product(cyclic_group(2), cyclic_group(4)),
    "C7 : D8 (r inverts)": parse_group_spec(
        "semidirect (cyclic 7) (dihedral 8) alpha r->phi:6 s->id"),
    "C7 : D8 (s inverts)": parse_group_spec(
        "semidirect (cyclic 7) (dihedral 8) alpha r->id s->phi:6"),
}
for name, group in candidates.items():
    verdict = classify(group)
    print(f"{name:25s} realizable={str(verdict.realizable):5s} "
          f"reason={verdict.reason}")

# on the positive side the classifier hands back a verified generator;
# rebuild it by hand to watch the pieces
N = parse_group_spec("semidirect (cyclic 7) (dihedral 8) alpha r->id s->phi:6")
dec = normalize_alpha(decompose(N))
xi, eta0, witness = construct(dec)
print("\nstart element:", N.format_element(eta0))
prods = twisted_partial_products(dec, xi, eta0, N.order)
print("the twisted partial products match their closed form:",
      prods == closed_form_products(dec, N.order))
print("cycle length through the identity:",
      witness.cycle_length_through_identity(), "of", N.order)

# the brute-force oracle agrees
print("oracle finds", len(cyclic_regular_oracle(N, hol_bound=50000)),
      "generators in the holomorph")
