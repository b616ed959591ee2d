"""The holomorph, its regular subgroups, and the skew braces they define.

A holomorph element is a pair (translation, twist) acting by
x -> twist(x) * translation^-1.  A set of them is a HolElements array of
translations and twist rows.  A subgroup is regular when evaluating at the
identity hits every element once; such subgroups are the same data as
bijective crossed homomorphisms and as skew braces on the group.
"""

import numpy as np

from holoreg import (automorphism_group, crossed_from_regular, cyclic_group,
                     cyclic_regular_oracle, dihedral_group,
                     is_regular_subgroup, lambda_embedding,
                     regular_from_crossed, regular_subgroups_isomorphic_to,
                     rho_embedding, skew_brace_from_regular,
                     subgroup_generated_by_hol)

N = dihedral_group(8)

# one element of the holomorph per (translation, twist) pair: |N| * |Aut N|
print("holomorph of D8 has order", N.order * len(automorphism_group(N)))

# both regular representations are regular subgroups
print("right translations regular?", is_regular_subgroup(N, rho_embedding(N)))
print("left translations give the trivial brace:",
      np.array_equal(skew_brace_from_regular(N, lambda_embedding(N)).circle_table,
                     N.table))

# the oracle scans every (translation, twist) pair for a full-length cycle
generators = cyclic_regular_oracle(N)
print("cyclic regular generators found in Hol(D8):", len(generators))
h = generators[0]  # indexing builds one HolElement
subgroup = subgroup_generated_by_hol(h)  # its powers, as arrays
print("first one has order", h.order(), "and spans", len(subgroup), "elements")

# a regular subgroup splits into a twist map and a bijective translation map
G, crossed = crossed_from_regular(N, subgroup)
print("crossed data is bijective?", crossed.is_bijective)
back = regular_from_crossed(N, crossed)
order = np.argsort(subgroup.translations)
twists = subgroup.perms[subgroup.twists[order]]
print("round trip returns the same subgroup:",
      np.array_equal(back.translations, subgroup.translations[order]) and
      np.array_equal(back.perms[back.twists], twists))

# the brace attached to the cyclic subgroup has a cyclic circle group
brace = skew_brace_from_regular(N, subgroup)
print("circle group element orders:",
      sorted(int(o) for o in brace.multiplicative.orders))

# subgroup-level enumeration: C4 copies inside the holomorph of the Klein group
klein = dihedral_group(4)
print("regular C4 subgroups in Hol(C2 x C2):",
      len(regular_subgroups_isomorphic_to(cyclic_group(4), klein)))
