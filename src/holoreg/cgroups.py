"""Metacyclic presentations <x, y | x^e, y^d, y x y^-1 x^-k> and their automorphisms.

Groups whose Sylow subgroups are all cyclic ("C-groups") admit such a
presentation with gcd(e, d) = gcd(e, k) = 1 and the order of k mod e dividing
d.  This module does exact symbolic arithmetic in those coordinates: element
powers through geometric sums, the three standard automorphism families
(theta, phi_u, psi_v), a canonical normal form theta^c phi_u psi_v for the
full automorphism group, and a recognizer that reads a presentation off a
group's element orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Optional

import numpy as np

from .groups import (FiniteGroup, GroupDefinitionError, HomomorphismError,
                     _prime_powers, check_table_size, dihedral_group,
                     quaternion_group, words)


def geometric_sum(h: int, length: int, modulus: int) -> int:
    """1 + h + ... + h^(length-1) mod modulus, with the empty sum equal to 0.

    Computed by fast doubling: S(h, 2l) = S(h, l) * (1 + h^l).
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if length < 0:
        raise ValueError("length must be nonnegative")
    if modulus == 1:
        return 0
    h %= modulus

    def rec(l: int):
        if l == 0:
            return 0, 1  # (partial sum, h^l)
        s, p = rec(l // 2)
        s = (s * (1 + p)) % modulus
        p = (p * p) % modulus
        if l & 1:
            s = (s + p) % modulus
            p = (p * h) % modulus
        return s, p

    return rec(length)[0]


def multiplicative_order(k: int, modulus: int) -> int:
    if modulus == 1:
        return 1
    k %= modulus
    if math.gcd(k, modulus) != 1:
        raise ValueError(f"{k} is not a unit mod {modulus}")
    cur, n = k, 1
    while cur != 1:
        cur = (cur * k) % modulus
        n += 1
    return n


@dataclass(frozen=True)
class CGroupPresentation:
    """The data (e, d, k) of a metacyclic presentation, with derived symbols.

    z = gcd(e, k - 1) and g_theta = e / z govern the theta family of
    automorphisms; ord is the multiplicative order of k mod e.
    """

    e: int
    d: int
    k: int

    def __post_init__(self):
        if self.e < 1 or self.d < 1:
            raise GroupDefinitionError("e and d must be positive")
        k = 1 if self.e == 1 else self.k % self.e
        object.__setattr__(self, "k", k)
        if math.gcd(self.e, self.d) != 1:
            raise GroupDefinitionError(f"gcd(e, d) must be 1, got ({self.e}, {self.d})")
        if math.gcd(self.e, self.k) != 1:
            raise GroupDefinitionError(f"gcd(e, k) must be 1, got ({self.e}, {self.k})")
        if self.d % self.ord != 0:
            raise GroupDefinitionError(
                f"the order of k mod e ({self.ord}) must divide d ({self.d})")

    @cached_property
    def z(self) -> int:
        return math.gcd(self.e, self.k - 1) if self.e > 1 else 1

    @cached_property
    def g_theta(self) -> int:
        return self.e // self.z

    @cached_property
    def ord(self) -> int:
        return multiplicative_order(self.k, self.e)

    @property
    def order(self) -> int:
        return self.e * self.d

    @cached_property
    def is_normalized(self) -> bool:
        """True when every prime factor of d divides the order of k mod e."""
        return self.ord % math.prod(_prime_powers(self.d)) == 0

    @property
    def spec(self) -> str:
        return f"cgroup {self.e} {self.d} {self.k}"

    # -- element arithmetic in (i, j) coordinates, meaning x^i y^j ---------

    def power(self, i: int, j: int, length: int):
        """(x^i y^j)^length = (i * S(k^j, length), j * length)."""
        if self.e == 1:
            return (0, (j * length) % self.d)
        kj = pow(self.k, j % self.d, self.e)
        return ((i * geometric_sum(kj, length, self.e)) % self.e,
                (j * length) % self.d)


def unit_groups(M: CGroupPresentation):
    """Explicit lists of U(e) and of the units v mod d with k^v = k mod e."""
    ue = [1] if M.e == 1 else [u for u in range(1, M.e) if math.gcd(u, M.e) == 1]
    if M.d == 1:
        ukd = [1]
    else:
        ukd = [v for v in range(1, M.d)
               if math.gcd(v, M.d) == 1 and v % M.ord == 1 % M.ord]
    return ue, ukd


@dataclass(frozen=True)
class CGroupAut:
    """Canonical form theta^c phi_u psi_v of an automorphism of C(e, d, k).

    Acts by x -> x^u and y -> x^(c z) y^v.
    """

    pres: CGroupPresentation
    c: int
    u: int
    v: int

    def __post_init__(self):
        p = self.pres
        object.__setattr__(self, "c", self.c % p.g_theta)
        object.__setattr__(self, "u", 1 if p.e == 1 else self.u % p.e)
        object.__setattr__(self, "v", 1 if p.d == 1 else self.v % p.d)
        if math.gcd(self.u, p.e) != 1:
            raise HomomorphismError(f"u = {self.u} is not a unit mod e = {p.e}")
        if math.gcd(self.v, p.d) != 1 or self.v % p.ord != 1 % p.ord:
            raise HomomorphismError(
                f"v = {self.v} must be a unit mod d congruent to 1 mod ord_e(k)")

    @property
    def is_identity(self) -> bool:
        return self.c == 0 and self.u == 1 and self.v == 1

    @property
    def is_phi(self) -> bool:
        """self is some phi_u: x -> x^u, y -> y."""
        return self.c == 0 and self.v == 1

    def x_image(self):
        return (self.u % self.pres.e, 0)

    def y_image(self):
        return ((self.c * self.pres.z) % self.pres.e if self.pres.e > 1 else 0,
                self.v % self.pres.d)

    def apply(self, i: int, j: int):
        """Image of x^i y^j."""
        p = self.pres
        if p.e == 1:
            return (0, (self.v * j) % p.d)
        kv = pow(p.k, self.v % p.d, p.e)
        shift = self.c * p.z * geometric_sum(kv, j, p.e)
        return ((self.u * i + shift) % p.e, (self.v * j) % p.d)

    def compose(self, other: "CGroupAut") -> "CGroupAut":
        """self after other, renormalized with the defining relations."""
        p = self.pres
        if other.pres != p:
            raise HomomorphismError("automorphisms act on different presentations")
        return CGroupAut(p,
                         (self.c + self.u * other.c) % p.g_theta,
                         (self.u * other.u) % p.e if p.e > 1 else 1,
                         (self.v * other.v) % p.d if p.d > 1 else 1)

    def inverse(self) -> "CGroupAut":
        p = self.pres
        u_inv = pow(self.u, -1, p.e) if p.e > 1 else 1
        v_inv = pow(self.v, -1, p.d) if p.d > 1 else 1
        return CGroupAut(p, (-self.c * u_inv) % p.g_theta, u_inv, v_inv)

    def as_permutation(self, coords, index_of) -> tuple:
        """Permutation of a concrete group given coords[g] = (i, j) labels."""
        return tuple(index_of[self.apply(*coords[g])] for g in range(len(coords)))

    @property
    def spec(self) -> str:
        parts = []
        if self.c:
            parts.append(f"theta:{self.c}")
        if self.pres.e > 1 and self.u != 1:
            parts.append(f"phi:{self.u}")
        if self.pres.d > 1 and self.v != 1:
            parts.append(f"psi:{self.v}")
        return "*".join(parts) if parts else "id"


def aut_decompose(M: CGroupPresentation, x_image, y_image) -> CGroupAut:
    """Recover (c, u, v) from the images of x and y, validating each relation."""
    xi, xj = x_image[0] % max(M.e, 1), x_image[1] % M.d
    yi, yv = y_image[0] % max(M.e, 1), y_image[1] % M.d
    if xj != 0:
        raise HomomorphismError("image of x must lie in <x> (x -> x^u)")
    u = xi if M.e > 1 else 1
    if math.gcd(u, M.e) != 1:
        raise HomomorphismError(f"image x^{u} violates x^e = 1 with a non-unit exponent")
    if math.gcd(yv, M.d) != 1:
        raise HomomorphismError("image of y has order < d: relation y^d = 1 forces a unit")
    if M.e > 1 and pow(M.k, yv, M.e) != M.k % M.e:
        raise HomomorphismError(
            "relation y x y^-1 = x^k is violated: k^v must equal k mod e")
    v = yv if M.d > 1 else 1
    if M.e > 1 and yi % M.z != 0:
        raise HomomorphismError(
            "relation y^d = 1 is violated: the x-exponent of the image of y "
            f"must be divisible by z = {M.z}")
    c = (yi // M.z) % M.g_theta if M.e > 1 else 0
    aut = CGroupAut(M, c, u, v)
    if aut.apply(1 % M.e, 0) != (xi, 0) or aut.apply(0, 1 % M.d) != (yi, yv % M.d):
        raise HomomorphismError("images are inconsistent with a canonical form")
    return aut


# -- concrete groups ----------------------------------------------------------


def cgroup_group(M: CGroupPresentation) -> FiniteGroup:
    """The presented group as a Cayley table with (i, j) labels, index i*d + j.

    (x^i1 y^j1)(x^i2 y^j2) = x^(i1 + i2 k^j1) y^(j1 + j2), the product of
    Z/e x| Z/d with y acting as x -> x^k: the checked presentation makes k
    a unit mod e whose order divides d, so that action is a homomorphism
    and this is a group's table, with identity 0."""
    e, d, k = M.e, M.d, M.k
    n = e * d
    check_table_size(n)
    idx = np.arange(n, dtype=np.int64)
    i1, j1 = idx[:, None] // d, idx[:, None] % d
    i2, j2 = idx[None, :] // d, idx[None, :] % d
    if e > 1:
        kpow = np.array([pow(k, j, e) for j in range(d)], dtype=np.int64)
        new_i = (i1 + i2 * kpow[j1]) % e
    else:
        new_i = np.zeros((n, n), dtype=np.int64)
    new_j = (j1 + j2) % d
    table = (new_i * d + new_j).astype(np.int32)
    labels = [(int(i), int(j)) for i in range(e) for j in range(d)]
    return FiniteGroup._from_builder(table, 0, labels=labels, name=M.spec,
                                     label_style="cgroup")


# -- the factors of a split: one by-value cache ---------------------------------


FACTORS: dict = {}


def factor(fn):
    """Keep ``fn(*args)`` in ``FACTORS`` under the key (fn's name, *args).

    ``FACTORS`` is the one cache of values shared between groups.  Its keys
    are values (presentations and canonical automorphisms compare by their
    numbers), so every spec and split that names a factor gets the same
    object.  Entries live as long as the process and are few in practice:
    the 202 corpus representatives name 12 presentations of M, 5 groups P
    and 27 automorphisms of M.  It holds:

    - ``m_factor(pres)``: ``cgroup_group(pres)``;
    - ``p_factor(kind, order)``: ``dihedral_group(order)`` or
      ``quaternion_group(order)``;
    - ``aut_permutation(aut)``: the permutation of ``m_factor(aut.pres)``
      that the canonical ``aut`` induces;
    - ``cgroup_auts(pres)`` and ``cgroup_aut_group(pres)``.

    Nothing keyed by a whole spec lives here, so every parse builds its own
    N, and the public builders stay uncached.  A call that raises leaves no
    entry.  ``FACTORS.clear()`` empties the cache.
    """
    @wraps(fn)
    def shared(*args):
        key = (fn.__name__, *args)
        try:
            return FACTORS[key]
        except KeyError:  # threads that race all get the first value stored
            return FACTORS.setdefault(key, fn(*args))
    return shared


@factor
def m_factor(pres: CGroupPresentation) -> FiniteGroup:
    """The group C(e, d, k) of ``pres``."""
    return cgroup_group(pres)


@factor
def p_factor(kind: str, order: int) -> FiniteGroup:
    """The dihedral or quaternion group of ``order``, by ``kind``."""
    return (dihedral_group if kind == "dihedral" else quaternion_group)(order)


@factor
def aut_permutation(aut: CGroupAut) -> np.ndarray:
    """The read-only int32 permutation of ``m_factor(aut.pres)`` by ``aut``."""
    M = m_factor(aut.pres)
    index = {lab: i for i, lab in enumerate(M.labels)}
    perm = np.array(aut.as_permutation(M.labels, index), dtype=np.int32)
    perm.setflags(write=False)
    return perm


@factor
def cgroup_auts(M: CGroupPresentation) -> tuple:
    """Every canonical automorphism theta^c phi_u psi_v of M, in (c, u, v) order."""
    ue, ukd = unit_groups(M)
    return tuple(CGroupAut(M, c, u, v)
                 for c in range(M.g_theta) for u in ue for v in ukd)


@factor
def cgroup_aut_group(M: CGroupPresentation) -> FiniteGroup:
    """Aut(C(e,d,k)) in canonical coordinates, of order g_theta * phi(e) * |U_k(d)|.

    Element i is ``cgroup_auts(M)[i]``, labelled by its (c, u, v).
    """
    auts = cgroup_auts(M)
    index = {a: i for i, a in enumerate(auts)}
    table = [[index[a.compose(b)] for b in auts] for a in auts]
    return FiniteGroup(table, labels=[(a.c, a.u, a.v) for a in auts],
                       name=f"aut of ({M.spec})")


# -- recognition ---------------------------------------------------------------


def recognize_cgroup(G: FiniteGroup, hall: Optional[int] = None) -> Optional[tuple]:
    """The normalized presentation C(e, d, k) of the normal Hall subgroup H
    of G of order ``hall`` (all of G by default), with witnesses (x, y) in
    G; None when H is not a C-group.

    H holds every element of G whose order divides |H|, so its element
    orders, its Sylow subgroups and whether they are normal are all read
    off ``G.orders``; no subgroup is closed and no table is built.  Among
    the presentations of H it returns the least k, then the least (x, y).

    The lemma behind it: in a normalized C(e, d, k), where every prime of
    d divides the order of k mod e, the primes of e are exactly those whose
    Sylow subgroup is normal.  Those of e are characteristic in the normal
    cyclic <x>, so normal; a normal Sylow q-subgroup for a prime q of d,
    spanned by a power w of y, meets <x> trivially, so w centralizes x and
    q does not divide the order of k.  Hence e is the product of the p^a
    with exactly p^a elements of order dividing p^a (the Sylow p-subgroup
    is then the only one).  Every element of order e spans a Hall
    subgroup, conjugate to the normal <x> and so equal to it.  Every y of
    order d = |H|/e gives a normalized presentation: the q-part of y, for
    a prime q of d not dividing the order of k, would centralize x and y
    and so span a normal Sylow q-subgroup.  Every C-group has a normalized
    presentation, so such a y exists.
    """
    n = G.order if hall is None else hall
    orders = G.orders
    prime_powers = _prime_powers(n).values()
    if not all((orders == q).any() for q in prime_powers):
        return None  # a Sylow subgroup of H is not cyclic
    e = math.prod(q for q in prime_powers if np.count_nonzero(q % orders == 0) == q)
    x = int(np.argmax(orders == e))
    ys = np.flatnonzero(orders == n // e)
    log_x = np.zeros(G.order, dtype=np.int64)  # x^i -> i
    log_x[words(G, (x,), range(e))] = np.arange(e)
    t = G.table
    ks = log_x[t[t[ys, x], G.inverses[ys]]]  # y x y^-1 = x^k for each y
    least = int(np.argmin(ks))
    return CGroupPresentation(e, n // e, int(ks[least])), x, int(ys[least])
