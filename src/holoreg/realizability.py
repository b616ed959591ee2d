"""Deciding when the holomorph of N contains a cyclic regular subgroup.

The classifier works through a structure theorem: beyond the C-group case,
a group N of order n admits a cyclic regular subgroup in its holomorph
exactly when N splits as M x| P with M a C-group of odd order, P dihedral or
generalized quaternion, and the conjugation action alpha of P on M satisfies

  * |alpha(P)| <= 2 when P is the Klein group or the quaternion group of
    order 8, or
  * alpha trivial on the (unique) cyclic index-2 subgroup of P otherwise.

On the positive side an explicit generator is produced: after normalizing
alpha so that r acts trivially and s acts as some phi_u, the holomorph pair
(eta0, xi) with eta0 = x y r s and xi the automorphism fixing y, sending
x -> (alpha_s phi_k^-1)(x), r -> r^-1, s -> r s generates a cyclic regular
subgroup.  A brute-force oracle cross-checks every verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np

from .cgroups import (CGroupAut, CGroupPresentation, aut_decompose,
                      cgroup_aut_group, cgroup_auts, p_factor, recognize_cgroup)
from .groups import (FiniteGroup, GroupDefinitionError, Homomorphism,
                     HomomorphismError, all_homomorphisms,
                     automorphism_group, memoized, normal_hall_odd_subgroup,
                     quotient_group, respects_product, subgroup_generated,
                     sylow_subgroup, words)
from .holomorph import HolElement, _conjugations, conjugation_perm
from .specs import (action_from_generators, build_semidirect_from_auts,
                    semidirect_spec)

REASON_CGROUP = "c-group"
REASON_CASE_1 = "theorem-case-1"
REASON_CASE_2 = "theorem-case-2"
REASON_NOT_2NILPOTENT = "fails-supersolvable-reduction"
REASON_P_SHAPE = "fails-P-shape"
REASON_ALPHA = "fails-alpha-condition"


@dataclass(frozen=True)
class Decomposition:
    """A split N = M x| P, built and checked from its witnesses inside N.

    M is the normal Hall subgroup of odd order, with presentation witnesses
    x, y in N (M gets no table of its own); P is a Sylow 2-subgroup with
    witnesses r, s.  P's kind is read off s^2 (1 for dihedral, else
    quaternion) and ``p_group`` is that group at order |N|/|M|, the shared
    ``p_factor``.
    Building one evaluates every word x^i y^j r^a s^b once and derives
    alpha, the conjugation by each element of P as a canonical-form
    automorphism of M; ``dataclasses.replace`` with new witnesses builds
    and checks the split again.  Frozen.

    Row k of ``exps`` is (i, j, a, b) with k = (i d + j) |P| + t, where t is
    the index of r^a s^b in ``p_group``: the index ``semidirect_product``
    gives the label ((i, j), (a, b)) in M x| P built from alpha.
    ``grid[k]`` is that word in N and ``pos`` its inverse permutation.

    Three checks, all exact.  The words hit every element of N exactly
    once: x, y lie in M, r, s in P and |M| |P| = n, so the grid is a
    bijection only if the words x^i y^j are exactly M and the words r^a s^b
    exactly P.  x and y meet the relations x^e = 1, y^d = 1 and
    y x y^-1 = x^k of ``pres``, and t -> r^a s^b, the first |P| words,
    respects the product of ``p_group``: by von Dyck's theorem x, y and r,
    s then span copies of ``pres``'s group and of ``p_group``.  Only
    conjugation by r and s is read off N (M, all odd-order elements, is
    normal); ``action_from_generators`` extends it to P.
    """

    group: FiniteGroup
    pres: CGroupPresentation
    x: int
    y: int
    r: int
    s: int
    p_kind: str = field(init=False)  # dihedral | quaternion
    p_group: FiniteGroup = field(init=False, compare=False)  # labelled by the words (a, b)
    alpha: tuple = field(init=False)  # p_group index -> CGroupAut
    exps: np.ndarray = field(init=False, compare=False)  # row k -> (i, j, a, b)
    grid: np.ndarray = field(init=False, compare=False)  # row k -> x^i y^j r^a s^b in N
    pos: np.ndarray = field(init=False, compare=False)   # N index -> row k

    def __post_init__(self):
        N, pres, x, y = self.group, self.pres, self.x, self.y
        p_kind = "dihedral" if N.mul(self.s, self.s) == N.identity else "quaternion"
        P = p_factor(p_kind, N.order // pres.order)
        m, t = np.divmod(np.arange(pres.order * P.order), P.order)
        exps = np.column_stack([m // pres.d, m % pres.d, np.array(P.labels)[t]])
        grid = words(N, (x, y, self.r, self.s), exps)
        pos = np.argsort(grid)
        if not np.array_equal(grid[pos], np.arange(N.order)):
            raise GroupDefinitionError("the words x^i y^j r^a s^b do not factor N uniquely")
        if (N.power(x, pres.e), N.power(y, pres.d), N.conj(x, y)) != \
                (N.identity, N.identity, N.power(x, pres.k)):
            raise GroupDefinitionError(f"x and y do not meet the relations of {pres.spec}")
        if not respects_product(P, N, grid[None, :P.order])[0]:
            raise GroupDefinitionError(f"r and s do not meet the relations of {P.name}")
        for arr in (exps, grid, pos):
            arr.setflags(write=False)
        alpha = action_from_generators(P, *(  # from the (i, j) of each conjugate
            aut_decompose(pres, *exps[pos[[N.conj(x, g), N.conj(y, g)]], :2].tolist())
            for g in (self.r, self.s)))
        for name, value in (("p_kind", p_kind), ("p_group", P), ("alpha", alpha),
                            ("exps", exps), ("grid", grid), ("pos", pos)):
            object.__setattr__(self, name, value)

    @property
    def alpha_image_size(self) -> int:
        return len(set(self.alpha))

    @property
    def alpha_r(self) -> CGroupAut:
        return self.alpha[self.pos[self.r]]

    @property
    def alpha_s(self) -> CGroupAut:
        return self.alpha[self.pos[self.s]]

    @property
    def is_normalized(self) -> bool:
        """r acts trivially and s as some phi_u: the form ``construct`` needs."""
        return self.alpha_r.is_identity and self.alpha_s.is_phi

    @property
    def p_is_klein_or_q8(self) -> bool:
        """P is the Klein group or Q8: theorem case 1."""
        return self.p_group.order == 4 or (
            self.p_kind == "quaternion" and self.p_group.order == 8)

    def summary(self) -> str:
        return (f"e={self.pres.e} d={self.pres.d} k={self.pres.k} "
                f"P={self.p_kind} m={self.p_group.order.bit_length() - 1} "
                f"alpha_image={self.alpha_image_size}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of the classifier, with a verified witness when realizable."""

    realizable: bool
    reason: str
    decomposition: Optional[Decomposition] = None
    witness: Optional[HolElement] = None


def _two_group_witnesses(G: FiniteGroup, p_elems: Sequence[int]) -> Optional[tuple]:
    """(r, s) for a dihedral or generalized quaternion Sylow 2-subgroup P,
    given as ``p_elems``; None for any other P, the cyclic ones (trivial
    included) among them.

    P is tested on one pair: r the first element of order |P|/2, s the
    first outside <r>.  The pair generates P, so it satisfies the dihedral
    or quaternion relations only if P is that group (von Dyck), and in
    those groups every s outside a cyclic index-2 <r> satisfies them.
    """
    order = len(p_elems)
    orders = {g: G.order_of(g) for g in p_elems}
    if order in orders.values():
        return None
    half = order // 2
    r = next((g for g in p_elems if orders[g] == half), None)
    if r is None:
        return None
    r_span = set(subgroup_generated(G, [r]))
    s = next(g for g in p_elems if g not in r_span)
    if G.conj(r, s) != G.inv(r):
        return None
    s_sq = G.mul(s, s)
    if s_sq == G.identity or (half >= 4 and s_sq == G.power(r, half // 2)):
        return r, s
    return None


def decompose(N: FiniteGroup) -> Optional[Decomposition]:
    """Split N = M x| P with M an odd-order C-group and P dihedral or quaternion.

    Returns None when no such split exists.  For a group that is not a
    C-group this certifies that the holomorph of N has no cyclic regular
    subgroup; a C-group, whose P is cyclic, also gets None.  P's shape,
    its table and its action all come from the one pair (r, s) of
    ``_two_group_witnesses``.

    Past these checks building the ``Decomposition`` cannot fail:
    conjugation by r or s is an automorphism of M, which keeps the
    characteristic <x> (see ``recognize_cgroup``), and r, s meet P's
    relations; so an error is a bug.
    """
    odd = _odd_part(N)
    if odd is None:
        return None
    shape = _two_group_witnesses(N, sylow_subgroup(N, 2))
    return None if shape is None else Decomposition(N, *odd, *shape)


@memoized
def _odd_part(N: FiniteGroup) -> Optional[tuple]:
    """(pres, x, y) for the odd Hall part M of N, or None when M does not
    exist or is not a C-group.

    M is recognized inside N, from N's element orders (``recognize_cgroup``
    with Hall order |M|), so x and y are indices of N.  Memoized, so a
    failing ``classify`` reads its reason off the same pass that
    ``decompose`` made.
    """
    m_elems = normal_hall_odd_subgroup(N)
    return None if m_elems is None else recognize_cgroup(N, len(m_elems))


@memoized
def classify(N: FiniteGroup) -> Verdict:
    """Decide whether the holomorph of N contains a cyclic regular subgroup.

    Every positive verdict carries a holomorph element whose cycle through
    the identity is verified to have full length.  Verdicts are memoized per
    group.
    """
    recognized = recognize_cgroup(N)
    if recognized is not None:
        _, x, y = recognized
        return Verdict(True, REASON_CGROUP, None, cgroup_witness(N, x, y))
    dec = decompose(N)
    if dec is None:
        reason = REASON_NOT_2NILPOTENT if _odd_part(N) is None else REASON_P_SHAPE
        return Verdict(False, reason, None, None)
    if dec.p_is_klein_or_q8:
        ok = dec.alpha_image_size <= 2
        reason = REASON_CASE_1
    else:  # alpha is trivial on the cyclic index-2 <r> exactly when alpha(r) is
        ok = dec.alpha_r.is_identity
        reason = REASON_CASE_2
    if not ok:
        return Verdict(False, REASON_ALPHA, dec, None)
    normalized = normalize_alpha(dec)
    _, _, witness = construct(normalized)
    _verify_witness(N, witness)
    return Verdict(True, reason, normalized, witness)


def _verify_witness(N: FiniteGroup, witness: HolElement):
    """No order check: the twist is a bijection, so a cycle of length n
    through the identity makes the witness an n-cycle, of order n."""
    if witness.cycle_length_through_identity() != N.order:
        raise GroupDefinitionError("constructed witness is not regular")


def cgroup_witness(N: FiniteGroup, x: int, y: int) -> HolElement:
    """A cyclic regular generator for a C-group N, from the witnesses x, y
    of its presentation (``recognize_cgroup``) and the projection pair.

    With N = <x><y> of coprime orders, the pair f, h sending a generator of
    the cyclic group to x and y is fixed point free, and rho(h) lambda(f)
    evaluates to the holomorph element (y x^-1, conjugation by x).
    """
    translation = N.mul(y, N.inv(x))
    witness = HolElement(N, translation, conjugation_perm(N, x))
    _verify_witness(N, witness)
    return witness


# -- normalization -----------------------------------------------------------


_KAPPA_IMAGES = {
    # automorphisms of the Klein group and of the order-8 quaternion group
    # moving r onto a chosen element of {r, s, rs}, as words (r, s) -> images
    ("dihedral", "r"): ((1, 0), (0, 1)),
    ("dihedral", "s"): ((0, 1), (1, 0)),
    ("dihedral", "rs"): ((1, 1), (0, 1)),
    ("quaternion", "r"): ((1, 0), (0, 1)),
    ("quaternion", "s"): ((0, 1), (1, 2)),   # r -> s, s -> r s^2
    ("quaternion", "rs"): ((1, 1), (1, 0)),  # r -> rs, s -> r
}


def normalize_alpha(dec: Decomposition) -> Decomposition:
    """Rewitness the split so that r acts trivially and s acts as some phi_u.

    Both moves are read off ``dec``: the new r, s are words in the old ones
    along an automorphism of P moving an alpha-trivial element onto r; the
    new x, y are read off ``dec.grid`` along a canonical automorphism that
    conjugates the action of the new s, ``dec.alpha`` at its index, into the
    phi family.  The split is rebuilt, by ``replace``, once if a witness
    moved, else never.
    """
    N, r, s = dec.group, dec.r, dec.s
    if not dec.alpha_r.is_identity:
        if not dec.p_is_klein_or_q8:
            raise GroupDefinitionError(
                "only the Klein/quaternion-8 cases admit moving r inside ker(alpha)")
        choices = (("r", r), ("s", s), ("rs", N.mul(r, s)))
        name = next((name for name, eps in choices
                     if dec.alpha[dec.pos[eps]].is_identity), None)
        if name is None:
            raise GroupDefinitionError("no alpha-trivial element among r, s, rs")
        # images such as r s^2 are words, not all in the grid's normal form
        r, s = words(N, (r, s), _KAPPA_IMAGES[(dec.p_kind, name)]).tolist()
    a_s, x, y = dec.alpha[dec.pos[s]], dec.x, dec.y
    if not a_s.is_phi:
        pi = next((pi for pi in cgroup_auts(dec.pres)
                   if pi.compose(a_s).compose(pi.inverse()).is_phi), None)
        if pi is None:
            raise GroupDefinitionError("no conjugate of the s action lies in the phi family")
        pi_inv = pi.inverse()
        d, p = dec.pres.d, dec.p_group
        x, y = (int(dec.grid[(i * d + j) * p.order + p.identity]) for i, j in
                (pi_inv.apply(1 % dec.pres.e, 0), pi_inv.apply(0, 1 % d)))
    if (r, s, x, y) != (dec.r, dec.s, dec.x, dec.y):
        dec = replace(dec, x=x, y=y, r=r, s=s)
    if not dec.is_normalized:
        raise GroupDefinitionError("normalization failed to reach r trivial, s in the phi family")
    return dec


# -- explicit construction -----------------------------------------------------


def construct(dec: Decomposition):
    """Build (xi, eta0, witness) for a normalized split.

    xi fixes y, maps x by alpha_s phi_k^-1, inverts r, and sends s to r s;
    eta0 = x y r s.  xi is evaluated on every grid word at once, as the same
    word in the four images, and read back in N's order through ``pos``;
    it is then checked as a bijective ``Homomorphism`` of N.  The returned
    witness is the holomorph pair (eta0, xi), whose powers sweep out all
    of N.
    """
    if not dec.is_normalized:
        raise GroupDefinitionError(
            "construction requires r to act trivially and s in the phi family")
    N, pres = dec.group, dec.pres
    u0 = (dec.alpha_s.u * pow(pres.k, -1, pres.e)) % pres.e if pres.e > 1 else 1
    xi_gens = (N.power(dec.x, u0), dec.y, N.inv(dec.r), N.mul(dec.r, dec.s))
    xi = Homomorphism(N, N, words(N, xi_gens, dec.exps)[dec.pos])
    if not xi.is_bijective:
        raise GroupDefinitionError("xi is not bijective")
    eta0 = N.mul(N.mul(N.mul(dec.x, dec.y), dec.r), dec.s)
    witness = HolElement(N, eta0, tuple(xi.images))
    return xi, eta0, witness


def twisted_partial_products(dec: Decomposition, xi: Homomorphism, eta0: int,
                             count: int) -> list:
    """The products eta0 * xi(eta0) * ... * xi^(l-1)(eta0) for l = 1..count."""
    N = dec.group
    out = []
    current = eta0
    term = eta0
    for _ in range(count):
        out.append(current)
        term = xi(term)
        current = N.mul(current, term)
    return out


def closed_form_products(dec: Decomposition, count: int) -> list:
    """x^l y^l r^((l+1)//2) s^l evaluated inside N for l = 1..count: the
    words in (x, y, r, s) with those exponents, from one ``words`` call."""
    l = np.arange(1, count + 1)
    exps = np.column_stack([l, l, (l + 1) // 2, l])
    return words(dec.group, (dec.x, dec.y, dec.r, dec.s), exps).tolist()


# -- diagnostics and companions ---------------------------------------------------


def quotient_action_probe(dec: Decomposition) -> np.ndarray:
    """Automorphisms of N/(M x| P') induced by Aut(N), deduplicated: the
    sorted, read-only int32 image array over the cosets as ``quotient_group``
    numbers them, one row per map, whose rows get one ``respects_product``
    check.

    The quotient is the Klein four-group P/P'; when the classifier condition
    fails, this image is trivial, which certifies non-realizability.
    """
    N = dec.group
    r2 = N.mul(dec.r, dec.r)
    m_elems = dec.grid[dec.p_group.identity::dec.p_group.order]  # x^i y^j, i.e. M
    m0 = subgroup_generated(N, m_elems.tolist() + [r2])
    Q, coset = quotient_group(N, m0)
    coset = np.asarray(coset, dtype=np.int32)
    images = coset[automorphism_group(N)]   # images[a, g]: coset of aut a of g
    induced = images[:, np.unique(coset, return_index=True)[1]]
    if not np.array_equal(induced[:, coset], images):
        raise GroupDefinitionError("M x| P' is not characteristic")
    induced = np.unique(induced, axis=0)
    if not respects_product(Q, Q, induced).all():
        raise HomomorphismError("images do not respect the group product")
    induced.setflags(write=False)
    return induced


def classify_rump(G: FiniteGroup) -> bool:
    """Companion test (Rump): the holomorph *of* C_n, n = |G|, has a regular
    subgroup isomorphic to G exactly when G is 2-nilpotent with a C-group odd
    part and a Sylow 2-subgroup that is trivial, cyclic, or contains a cyclic
    subgroup of index 2."""
    if _odd_part(G) is None:
        return False
    p_elems = sylow_subgroup(G, 2)
    size = len(p_elems)
    if size <= 2:
        return True
    half = size // 2
    return any(int(G.orders[g]) == half or int(G.orders[g]) == size for g in p_elems)


# -- corpus ---------------------------------------------------------------------


def cgroup_pool(max_order: int = 21) -> list:
    """Pairwise non-isomorphic normalized presentations of odd order e*d up
    to max_order: the first found per key (e, d, <k> in U(e)), no search.

    The key is exact.  In a normalized C(e, d, k) the primes of e are
    exactly those whose Sylow subgroup is normal (the lemma of
    ``recognize_cgroup``), so <x>, their product, is characteristic.  An
    isomorphism onto C(e, d, k') sends y to x^c y^v, v a unit mod d, so
    k' = k^v; and x, y^v satisfy the relations of C(e, d, k^v).
    """
    found: dict = {}
    for total in range(1, max_order + 1, 2):
        for e in range(1, total + 1):
            d = total // e
            if total % e or math.gcd(e, d) != 1:
                continue
            for k in range(1, max(e, 2)):
                try:  # refuses gcd(e, k) > 1 and an order of k not dividing d
                    pres = CGroupPresentation(e, d, k)
                except GroupDefinitionError:
                    continue
                if pres.is_normalized:
                    powers = frozenset(pow(pres.k, i, e) for i in range(pres.ord))
                    found.setdefault((e, d, powers), pres)
    return list(found.values())


TWO_GROUP_SPECS = ("dihedral 4", "quaternion 8", "dihedral 8",
                   "dihedral 16", "quaternion 16")


@dataclass(frozen=True)
class CorpusEntry:
    """One split M x| P of the corpus, named by its spec string.

    ``duplicate_of`` is the index of the first earlier entry isomorphic to
    this one, or None.  It is read off the action alone (see
    ``generate_corpus``), so no Cayley table is needed for it.  ``group``
    builds the table from ``factors`` = (pres, P, aut_r, aut_s), through
    ``build_semidirect_from_auts``, the first time it is read, and keeps it.
    """

    spec: str
    duplicate_of: Optional[int]
    factors: tuple = field(repr=False, compare=False)

    @cached_property
    def group(self) -> FiniteGroup:
        return build_semidirect_from_auts(*self.factors)


def generate_corpus(max_m_order: int = 21) -> list:
    """Every split M x| P with M from ``cgroup_pool(max_m_order)`` and P from
    ``TWO_GROUP_SPECS``, one entry per action alpha: P -> Aut(M).

    Entries are deterministic; later entries isomorphic to an earlier one
    carry its index in ``duplicate_of``.  The classes come from the action,
    with no isomorphism search.  |M| is odd and |P| a power of 2, so M is
    the normal Hall subgroup of N, hence characteristic, and P a Sylow
    2-subgroup.  Their isomorphism types are invariants of N, and the pool's
    presentations are pairwise non-isomorphic, so splits over different
    (M, P) are never isomorphic.  For one (M, P), every complement of M is
    conjugate to P (Schur-Zassenhaus), so M x|_alpha P and M x|_beta P are
    isomorphic exactly when beta = c_mu o alpha o sigma for some mu in
    Aut(M) and sigma in Aut(P): the coprime case of Taunt's lemma.  An
    action is fixed by (alpha(r), alpha(s)), so the least such pair over
    all (mu, sigma) names the class of alpha.

    No table is built here: each entry builds its own when ``group`` is
    read.  The result is cached per process: the entries are frozen, and
    the list must not be modified.
    """
    return _corpus(max_m_order)


@cache
def _corpus(max_m_order: int) -> list:
    two_groups = [p_factor(kind, int(order))
                  for kind, order in map(str.split, TWO_GROUP_SPECS)]
    entries = []
    for pres in cgroup_pool(max_m_order):
        auts, A = cgroup_auts(pres), cgroup_aut_group(pres)
        conj = _conjugations(A)  # conj[mu, a] = mu a mu^-1
        for P in two_groups:
            rs = [P.labels.index((1, 0)), P.labels.index((0, 1))]
            alphas = all_homomorphisms(P, A)
            # images[mu, i, sigma] = c_mu o alpha_i o sigma on (r, s)
            images = conj[:, alphas[:, automorphism_group(P)[:, rs]]]
            keys = (images[..., 0] * A.order + images[..., 1]).min(axis=(0, 2))
            first: dict = {}  # class key -> index of its first entry
            for key, (a_r, a_s) in zip(keys.tolist(), alphas[:, rs].tolist()):
                dup = first.setdefault(key, len(entries))
                factors = (pres, P, auts[a_r], auts[a_s])
                entries.append(CorpusEntry(semidirect_spec(*factors),
                                           None if dup == len(entries) else dup,
                                           factors))
    return entries


def corpus_representatives(entries: Sequence[CorpusEntry]) -> list:
    return [e for e in entries if e.duplicate_of is None]
