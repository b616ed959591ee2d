"""A group of order 84 that defeats every coarse necessary condition.

Take the order-21 cyclic group and let the Klein four-group act through
all four square roots of unity mod 21.  The result is isomorphic to a
product of two dihedral groups, its odd part is cyclic, its Sylow
2-subgroup is as tame as possible, and still no cyclic regular subgroup
exists in its holomorph because the action is too big by exactly one notch.  The same group IS fine in the mirrored question where the target
group is cyclic, so the two questions genuinely differ.
"""

import math

from holoreg import (CGroupPresentation, HolElement, automorphism_group,
                     cgroup_group, classify, classify_rump, decompose,
                     direct_product, find_isomorphism, parse_group_spec,
                     quotient_action_probe)

N = parse_group_spec(
    "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:8 s->phi:13")
verdict = classify(N)
print("order:", N.order)
print("classifier verdict:", verdict.realizable, f"({verdict.reason})")
print("decomposition:", verdict.decomposition.summary())

# the group in friendlier clothes: a product of two dihedral groups
d14 = cgroup_group(CGroupPresentation(7, 2, 6))
d6 = cgroup_group(CGroupPresentation(3, 2, 2))
print("isomorphic to D14 x D6?",
      find_isomorphism(N, direct_product(d14, d6)) is not None)

# the holomorph splits over the two factors; scan their element orders,
# one (translation, twist) pair at a time
auts14, auts6 = automorphism_group(d14).tolist(), automorphism_group(d6).tolist()
orders14 = {HolElement(d14, a, p).order() for a in range(d14.order) for p in auts14}
orders6 = {HolElement(d6, a, p).order() for a in range(d6.order) for p in auts6}
print(f"element orders in Hol(D14) (order {d14.order * len(auts14)}):", sorted(orders14))
print(f"element orders in Hol(D6)  (order {d6.order * len(auts6)}):", sorted(orders6))
print("any pair with lcm 84?",
      any(math.lcm(a, b) == 84 for a in orders14 for b in orders6))

# the structural reason: every automorphism of N collapses on the Klein
# quotient, so no twist can drive a full cycle
probe = quotient_action_probe(decompose(N))
print("automorphisms induced on the Klein quotient:", len(probe))

# the mirrored question (cyclic target group) accepts this group happily
print("fine as the acting group over a cyclic target?", classify_rump(N))
