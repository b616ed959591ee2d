"""Symbolic arithmetic in <x, y | x^e, y^d, y x y^-1 = x^k> and its automorphisms.

The automorphism group of such a presentation has an exact product shape:
a theta family of order e/gcd(e, k-1), the phi_u family indexed by units
mod e, and the psi_v family indexed by units mod d fixing k.  Every
automorphism has a unique normal form theta^c phi_u psi_v.
"""

from holoreg import (CGroupAut, CGroupPresentation, aut_decompose,
                     automorphism_group, cgroup_aut_group, cgroup_group,
                     geometric_sum, recognize_cgroup, unit_groups)

M = CGroupPresentation(7, 3, 2)
print(f"presentation C(7,3,2): z = {M.z}, theta order = {M.g_theta}, "
      f"ord of k = {M.ord}")

# powers collapse through geometric sums: (x y)^3 = x^(1+2+4) y^3 = 1
print("S(2, 3) mod 7 =", geometric_sum(2, 3, 7))
print("(x y)^3 has coordinates", M.power(1, 1, 3))

# the three generator families
theta = CGroupAut(M, 1, 1, 1)
phi3 = CGroupAut(M, 0, 3, 1)
print("theta sends y to x^z y:", theta.y_image())
print("phi_3 after theta equals theta^3 after phi_3:",
      phi3.compose(theta) == CGroupAut(M, 3, 1, 1).compose(phi3))

# normal forms round trip through images of the generators
aut = CGroupAut(M, 4, 5, 1)
print("decompose(images of", aut.spec, ") ->",
      aut_decompose(M, aut.x_image(), aut.y_image()).spec)

# the closed-form count matches a brute-force search over the Cayley table
G = cgroup_group(M)
ue, ukd = unit_groups(M)
print(f"|Aut| closed form: {M.g_theta} * {len(ue)} * {len(ukd)} =",
      cgroup_aut_group(M).order)
print("|Aut| brute force:", len(automorphism_group(G)))

# the recognizer recovers a normalized presentation from a bare table
pres, x, y = recognize_cgroup(G)
print("recognized:", pres.spec, "with witness orders",
      G.order_of(x), "and", G.order_of(y))
