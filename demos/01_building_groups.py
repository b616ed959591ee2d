"""Build finite groups as Cayley tables and poke at their structure.

Every group in this library is an n x n table of element indices plus
optional structured labels, so the same object supports both raw index
arithmetic and symbolic reading like r^3*s.
"""

from holoreg import (center, commutator_subgroup, cyclic_group, dihedral_group,
                     direct_product, is_cgroup, normal_hall_odd_subgroup,
                     quaternion_group, quotient_group, sylow_subgroup)

# cyclic groups: the generator always sits at index 1
C12 = cyclic_group(12)
print("C12 element orders:", [C12.order_of(g) for g in range(12)])

# dihedral and generalized quaternion groups of 2-power order, on r and s;
# the order-4 dihedral group is the Klein four-group
D16 = dihedral_group(16)
Q16 = quaternion_group(16)
r, s = 2, 1
print("in D16:  |r| =", D16.order_of(r), " |s| =", D16.order_of(s))
print("in Q16:  s^2 =", Q16.format_element(Q16.mul(s, s)),
      " (the unique involution is", Q16.format_element(Q16.power(r, 4)) + ")")

# centers and commutators come back as index tuples
print("center of D16:", [D16.format_element(z) for z in center(D16)])
print("derived subgroup of Q16:",
      [Q16.format_element(g) for g in commutator_subgroup(Q16)])

# the quotient by the derived subgroup is always the Klein group here
K, _ = quotient_group(D16, commutator_subgroup(D16))
print("D16 / D16' has order", K.order, "and exponent",
      max(int(o) for o in K.orders))

# Sylow subgroups by deterministic closure search
G = direct_product(cyclic_group(9), dihedral_group(8))
print("|Sylow_2| of C9 x D8:", len(sylow_subgroup(G, 2)))
print("|Sylow_3| of C9 x D8:", len(sylow_subgroup(G, 3)))

# groups whose Sylow subgroups are all cyclic; and the odd-order normal part
print("C9 x D8 has all Sylow subgroups cyclic?", is_cgroup(G))
print("odd normal part of C9 x D8 has size:",
      len(normal_hall_odd_subgroup(G) or ()))
