"""The holomorph of a finite group, regular subgroups, and their avatars.

An element of the holomorph is stored as a pair (translation a, twist pi)
acting on the group by x -> pi(x) * a^-1; pairs compose by
(a, pi)(b, sigma) = (a * pi(b), pi o sigma), which acts as the composition
of the two actions when pi is an automorphism.  A set of pairs is a
``HolElements`` array, read through its action rows.  A subgroup is regular
when evaluation at the identity is a bijection, which for pairs means the
translation components exhaust the group.  Regular subgroups, bijective
crossed homomorphisms, and skew braces are three views of the same data and
this module converts between all of them.  Everything here is pair
arithmetic; no dense holomorph table is ever built.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .groups import (FiniteGroup, BoundExceeded, GroupDefinitionError,
                     HomomorphismError, automorphism_group,
                     find_isomorphism, greedy_closure, is_action,
                     respects_product)

DEFAULT_HOL_BOUND = 20000
DEFAULT_SUBGROUP_HOL_BOUND = 5000


@dataclass(frozen=True)
class HolElement:
    """A holomorph element rho(a) pi, stored as the pair (a, pi)."""

    group: FiniteGroup
    translation: int
    twist: tuple

    def __post_init__(self):
        object.__setattr__(self, "twist", tuple(map(int, self.twist)))
        if len(self.twist) != self.group.order:
            raise GroupDefinitionError("twist must be a permutation of the group")

    def action_perm(self) -> tuple:
        """The map x -> pi(x) * a^-1, as the tuple of its images."""
        g = self.group
        return tuple(g.table[self.twist, g.inv(self.translation)].tolist())

    def order(self) -> int:
        """Order as a permutation of the group (the action is faithful)."""
        perm = self.action_perm()
        seen = [False] * len(perm)
        result = 1
        for start in range(len(perm)):
            if seen[start]:
                continue
            length, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                length += 1
            result = math.lcm(result, length)
        return result

    def cycle_length_through_identity(self) -> int:
        perm, e = self.action_perm(), self.group.identity
        cur, length = perm[e], 1
        while cur != e:
            cur, length = perm[cur], length + 1
        return length


@dataclass(frozen=True, eq=False)
class HolElements(Sequence):
    """A set of holomorph elements held as arrays: element i is the pair
    (translations[i], perms[twists[i]]).  ``perms`` is any table of twist
    rows: Aut(N) for the oracle and ``all_regular_subgroups``, one row per
    element elsewhere.  Readers check
    that each twist used is an automorphism of N.  A HolElement is built
    only when one is indexed; a slice is again a HolElements."""

    group: FiniteGroup
    perms: np.ndarray          # (k, n) twist rows
    translations: np.ndarray
    twists: np.ndarray         # row indices into perms

    def __len__(self) -> int:
        return len(self.translations)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return HolElements(self.group, self.perms, self.translations[i], self.twists[i])
        return HolElement(self.group, int(self.translations[i]),
                          tuple(self.perms[self.twists[i]].tolist()))


@dataclass(frozen=True, eq=False)
class OracleResult(HolElements):
    """The oracle's winners, with the number of (pair, step) moves its scan made."""

    pair_steps: int


def rho_embedding(N: FiniteGroup) -> HolElements:
    """The right regular copy of N: all (a, identity twist)."""
    n = N.order
    return HolElements(N, np.arange(n)[None, :], np.arange(n), np.zeros(n, dtype=np.intp))


def lambda_embedding(N: FiniteGroup) -> HolElements:
    """The left regular copy: eta -> (eta^-1, conjugation by eta)."""
    return HolElements(N, _conjugations(N), N.inverses, np.arange(N.order))


def conjugation_perm(N: FiniteGroup, a: int) -> tuple:
    return tuple(N.table[N.table[a], N.inv(a)].tolist())


def _conjugations(N: FiniteGroup) -> np.ndarray:
    """Row a is conjugation by a, x -> a x a^-1."""
    return N.table[N.table, N.inverses[:, None]]


def _hol_perms(N: FiniteGroup, hol_bound: int) -> np.ndarray:
    """automorphism_group(N), refused when |Hol(N)| = n |Aut(N)| exceeds
    ``hol_bound``; the count is checked before any automorphism is listed."""
    perms = automorphism_group(N, max_count=max(hol_bound // N.order, 1))
    total = N.order * len(perms)
    if total > hol_bound:
        raise BoundExceeded(f"holomorph order {total} exceeds bound {hol_bound}")
    return perms


def _composition_index(perms: np.ndarray) -> np.ndarray:
    """comp[i, j] is the row of ``perms`` holding perms[i] o perms[j]
    (perms[j] applied first); the rows must form a group under composition."""
    a_count, n = perms.shape
    return _rows_of(perms, perms[:, perms].reshape(-1, n)).reshape(a_count, a_count)


def _rows_of(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The index of each row of ``queries`` among the rows of ``table``, each
    looked up as one sortable void key, or -1 where the row does not occur."""
    table = np.ascontiguousarray(table)
    queries = np.ascontiguousarray(queries, dtype=table.dtype)
    row = np.dtype((np.void, table.itemsize * table.shape[1]))
    keys = table.view(row).ravel()
    wanted = queries.view(row).ravel()
    order = np.argsort(keys)
    found = order[np.minimum(np.searchsorted(keys[order], wanted), len(keys) - 1)]
    return np.where(keys[found] == wanted, found, -1)


def _are_automorphisms(N: FiniteGroup, rows: np.ndarray) -> bool:
    """True when every row is an endomorphism of N, by ``respects_product``,
    with trivial kernel: exactly the automorphisms."""
    return bool(respects_product(N, N, rows).all()
                and ((rows == N.identity).sum(axis=1) == 1).all())


def _circle_table(N: FiniteGroup, subgroup: HolElements) -> Optional[np.ndarray]:
    """Row k: the action x -> pi(x) a^-1 of the element of ``subgroup`` that
    sends the identity to k; None when the set is closed but not regular.

    The rows are the brace's circle table and the subgroup's Cayley table
    indexed by images of the identity: (h_i h_j)(1) = h_i(j).  Raises when a
    twist is not an automorphism of N (pairs would not compose as actions)
    or when the set is not closed, checked as S g in S for each g of a
    greedy generating sequence: exact, since then every product of the g
    lies in S and every element of S is such a product.
    """
    if not _are_automorphisms(N, subgroup.perms[np.unique(subgroup.twists)]):
        raise GroupDefinitionError("a twist is not an automorphism of the group")
    acts = N.table[subgroup.perms[subgroup.twists],
                   N.inverses[subgroup.translations][:, None]]
    identity = _rows_of(acts, np.arange(N.order)[None, :])[0] if len(acts) else -1

    def right_column(g):  # the row of s g is acts[s] after acts[g]
        col = _rows_of(acts, acts[:, acts[g]])
        if (col < 0).any():
            raise GroupDefinitionError("set is not closed under composition")
        return col

    if identity < 0:
        raise GroupDefinitionError("set is not closed under composition")
    greedy_closure(len(acts), identity, right_column)
    images = acts[:, N.identity]
    if len(acts) != N.order or len(np.unique(images)) != N.order:
        return None
    return acts[np.argsort(images)]


def is_regular_subgroup(N: FiniteGroup, subgroup: HolElements) -> bool:
    """True when evaluation at the identity maps ``subgroup`` bijectively onto N.

    Raises if the given set is not closed under composition or uses a twist
    that is not an automorphism of N.
    """
    return _circle_table(N, subgroup) is not None


def cyclic_regular_oracle(N: FiniteGroup,
                          hol_bound: int = DEFAULT_HOL_BOUND) -> OracleResult:
    """All holomorph elements whose cycle through the identity has full length.

    Any such element generates a cyclic regular subgroup, so an empty result
    certifies that no cyclic regular subgroup exists.  Conjugating by
    (1, sigma), sigma in Aut(N), maps the walk x -> pi(x) a^-1 onto
    y -> sigma pi sigma^-1(y) sigma(a)^-1 and fixes the identity, so the
    winners of translation sigma(a) are the conjugates sigma pi sigma^-1 of
    the winners pi of a.  The scan therefore walks only the pairs whose
    translation is the least element of its Aut(N)-orbit, all at once, and
    drops a pair as soon as its walk is back at the identity, stopping early
    once none is left: the pairs left after n - 1 steps are exactly those
    whose cycle has length n.  Every other translation b takes the
    conjugates of its orbit's winners by one sigma with sigma(least) = b;
    each conjugate's row in ``perms`` is found from its images of
    ``N.generators``, which determine it.  Winners come
    in (translation, twist) order, as arrays: a HolElement is built only
    when the result is indexed.  ``pair_steps`` counts the moves of the
    reduced scan, one per live pair per step.
    """
    n = N.order
    perms = _hol_perms(N, hol_bound)
    a_count = len(perms)
    e = N.identity
    inv = N.inverses
    least = perms.min(axis=0)  # the rows form a group: the least of each orbit
    reps = np.flatnonzero(least == np.arange(n))
    flat_perms = perms.ravel()
    flat_table = N.table.ravel()
    # The live pairs in scan order, which masking keeps: the offset of each
    # twist's row in flat_perms, the inverse of each translation, and the
    # position of each walk.
    offset = np.tile(np.arange(a_count) * n, len(reps))
    a_inv = np.repeat(inv[reps].astype(np.intp), a_count)
    pos = np.full(len(offset), e)
    pair_steps = 0
    for _ in range(n - 1):
        if not len(pos):
            break  # no pair is live: the later steps would move nothing
        pair_steps += len(pos)
        pos = flat_table[flat_perms[offset + pos] * n + a_inv]
        live = pos != e
        offset, a_inv, pos = offset[live], a_inv[live], pos[live]
    translations, twists = inv[a_inv], offset // n
    if len(reps) == n:  # Aut(N) is trivial: nothing to expand
        return OracleResult(N, perms, translations, twists, pair_steps)
    # Translation b takes the winners of its orbit's least element, each
    # conjugated by sigma_b, the first automorphism with sigma_b(least[b]) = b.
    counts = np.bincount(translations, minlength=n)[least]
    b = np.repeat(np.arange(n, dtype=translations.dtype), counts)
    src = (np.searchsorted(translations, least)[b] + np.arange(len(b))
           - np.repeat(np.cumsum(counts) - counts, counts))
    sigma = perms[np.argmax(perms[:, least] == np.arange(n), axis=0)]
    gens = list(N.generators)
    sigma_inv = np.empty_like(sigma)
    sigma_inv[np.arange(n)[:, None], sigma] = np.arange(n, dtype=sigma.dtype)
    sigma_inv_gens = sigma_inv[:, gens]
    images = sigma[b[:, None], perms[twists[src, None], sigma_inv_gens[b]]]
    rows = _rows_of(perms[:, gens], images)  # an automorphism is fixed by its images of gens
    order = np.lexsort((rows, b))
    return OracleResult(N, perms, b[order], rows[order], pair_steps)


def all_regular_subgroups(N: FiniteGroup) -> list:
    """Every regular subgroup of the holomorph, by transversal backtracking.

    A regular subgroup contains exactly one element per translation, so the
    search gives the least translation not yet covered each twist in turn
    and closes the chosen pairs from the identity under right
    multiplication; a second twist at one translation refuses the choice.
    Each subgroup is found once, along the path of its least uncovered
    translations.  Each is a HolElements in translation order; the list is
    sorted by the elements' keys.  Refused above
    ``DEFAULT_SUBGROUP_HOL_BOUND``.
    """
    n = N.order
    perms = _hol_perms(N, DEFAULT_SUBGROUP_HOL_BOUND)
    perm_rows = perms.tolist()
    comp = _composition_index(perms).tolist()
    rows = N.table.tolist()
    start = [-1] * n  # start[a]: the twist at translation a, or -1
    start[N.identity] = perm_rows.index(list(range(n)))
    results = []

    def close(twist: list, gens: list) -> Optional[list]:
        # twist is closed under gens[:-1]: follow the edges of gens[-1] from
        # its elements and those of every generator from the elements added;
        # (x, p)(a, q) = (x p(a), p o q)
        twist = twist[:]
        fresh: list = []
        for elems, edges in (([x for x in range(n) if twist[x] >= 0], gens[-1:]),
                             (fresh, gens)):
            for x in elems:
                px = twist[x]
                for a, q in edges:
                    c, pc = rows[x][perm_rows[px][a]], comp[px][q]
                    if twist[c] < 0:
                        twist[c] = pc
                        fresh.append(c)
                    elif twist[c] != pc:
                        return None
        return twist

    def dfs(twist: list, gens: list):
        if -1 not in twist:
            results.append(twist)
            return
        a = twist.index(-1)
        for q in range(len(perm_rows)):
            chosen = gens + [(a, q)]
            closed = close(twist, chosen)
            if closed is not None:
                dfs(closed, chosen)

    dfs(start, [])
    results.sort(key=lambda twists: [perm_rows[p] for p in twists])
    return [HolElements(N, perms, np.arange(n), np.array(t)) for t in results]


def regular_subgroup_as_group(N: FiniteGroup, subgroup: HolElements,
                              name: str = "") -> FiniteGroup:
    """The abstract group of a regular subgroup, element i its i-th pair.

    Pair i sends the identity to k_i = a_i^-1, so the product of pairs i
    and j is the pair sending the identity to circle[k_i, k_j]: one gather
    over the circle table, looked up by image of the identity.  Raises as
    ``is_regular_subgroup`` does, and when the set is not regular.
    """
    circle = _circle_table(N, subgroup)
    if circle is None:
        raise GroupDefinitionError("subgroup is not regular")
    k = N.inverses[subgroup.translations]
    return FiniteGroup(np.argsort(k)[circle[np.ix_(k, k)]],
                       name=name or f"regular subgroup in holomorph of ({N.name})")


def regular_subgroups_isomorphic_to(G: FiniteGroup, N: FiniteGroup) -> list:
    """All regular subgroups of the holomorph of N isomorphic to G."""
    if G.order != N.order:
        raise GroupDefinitionError("G and N must have the same order")
    return [sub for sub in all_regular_subgroups(N)
            if find_isomorphism(G, regular_subgroup_as_group(N, sub)) is not None]


# -- crossed homomorphisms ------------------------------------------------------


@dataclass(frozen=True)
class CrossedHom:
    """A pair (f: G -> Aut(N), g: G -> N) with g(st) = g(s) * f(s)(g(t)).

    Twists are stored as one permutation of N per element of G.  On
    construction f(s) is checked to be an automorphism of N for every s in
    ``G.generators``, f to be a homomorphism by ``is_action``, and the
    crossed relation for every t and every generator s.  The relation then
    holds for all s by the induction of ``respects_product``: g(s w t) =
    g(s) f(s)(g(w) f(w)(g(t))) splits because f(s) is an automorphism.
    """

    source: FiniteGroup
    target: FiniteGroup
    twists: tuple          # per G-index, a permutation of N
    translations: tuple    # per G-index, an element of N

    def __post_init__(self):
        G, N = self.source, self.target
        twists = np.asarray(self.twists, dtype=np.intp)
        translations = np.asarray(self.translations, dtype=np.intp)
        if twists.shape != (G.order, N.order) or translations.shape != (G.order,):
            raise HomomorphismError("need one twist and one translation per element")
        object.__setattr__(self, "twists", tuple(map(tuple, twists.tolist())))
        object.__setattr__(self, "translations", tuple(translations.tolist()))
        if not np.array_equal(twists[G.identity], np.arange(N.order)):
            raise HomomorphismError("f must send the identity to the identity map")
        if translations[G.identity] != N.identity:
            raise HomomorphismError("g must send the identity to the identity")
        gens = list(G.generators)
        fs, st = twists[gens], G.table[gens]
        if not (_are_automorphisms(N, fs) and is_action(G, twists)):
            raise HomomorphismError("f is not a homomorphism into Aut(N)")
        if not np.array_equal(translations[st],
                              N.table[translations[gens][:, None], fs[:, translations]]):
            raise HomomorphismError(
                "g violates the crossed relation g(st) = g(s) f(s)(g(t))")

    @cached_property
    def is_bijective(self) -> bool:
        return len(set(self.translations)) == self.source.order == self.target.order


def crossed_from_regular(N: FiniteGroup, subgroup: HolElements):
    """Split a regular subgroup into its crossed-homomorphism data.

    Returns (G, ch) where G is the subgroup as an abstract group, its
    element i the pair with translation i, and the crossed pair is keyed by
    the element indices of G.
    """
    order = np.argsort(subgroup.translations)
    ordered = HolElements(N, subgroup.perms, subgroup.translations[order],
                          subgroup.twists[order])
    G = regular_subgroup_as_group(N, ordered)
    return G, CrossedHom(G, N, ordered.perms[ordered.twists], ordered.translations)


def regular_from_crossed(N: FiniteGroup, ch: CrossedHom) -> HolElements:
    """The regular subgroup {(g(s), f(s))} of a bijective crossed pair."""
    if not ch.is_bijective:
        raise HomomorphismError("crossed homomorphism must be bijective")
    sub = HolElements(N, np.array(ch.twists), np.array(ch.translations),
                      np.arange(ch.source.order))
    if not is_regular_subgroup(N, sub):
        raise GroupDefinitionError("crossed data does not give a regular subgroup")
    return sub


# -- skew braces -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SkewBrace:
    """One carrier with two group operations sharing an identity.

    ``additive`` is the original group; ``circle_table`` defines the second
    operation, whose group structure is exposed as ``multiplicative``.
    Braces compare and hash by identity, as their groups do.
    """

    additive: FiniteGroup
    circle_table: np.ndarray
    multiplicative: FiniteGroup


def skew_brace_from_regular(N: FiniteGroup, subgroup: HolElements) -> SkewBrace:
    """The brace with a o b = sigma_a(b), sigma_a the subgroup element sending 1 to a.

    Raises as ``regular_subgroup_as_group`` does.  The circle table is the
    subgroup's Cayley table indexed by images of the identity, so the circle
    group, validated as a group, is isomorphic to the subgroup.  The law
    a o (b c) = (a o b) a^-1 (a o c) says that every lambda_a: x -> a^-1 (a o x)
    is an endomorphism of N, which ``respects_product`` checks for every
    lambda_a on ``N.generators``.
    """
    circle = _circle_table(N, subgroup)
    if circle is None:
        raise GroupDefinitionError("subgroup is not regular")
    mult = FiniteGroup(circle, labels=N.labels, name=f"circle group over ({N.name})",
                       label_style=N.label_style)
    lam = N.table[N.inverses[:, None], circle]
    if not respects_product(N, N, lam).all():
        raise GroupDefinitionError("brace compatibility fails")
    return SkewBrace(N, mult.table, mult)


def subgroup_generated_by_hol(h: HolElement) -> HolElements:
    """The cyclic subgroup generated by one holomorph element, as its powers
    1, h, h^2, ...: (a, pi) h = (a pi(b), pi o sigma) for h = (b, sigma)."""
    N = h.group
    identity = np.arange(N.order)
    twist = np.asarray(h.twist)
    a, pi = N.identity, identity
    translations, rows = [], []
    while True:
        translations.append(a)
        rows.append(pi)
        a, pi = N.mul(a, int(pi[h.translation])), pi[twist]
        if a == N.identity and np.array_equal(pi, identity):
            return HolElements(N, np.array(rows), np.array(translations),
                               np.arange(len(rows)))
