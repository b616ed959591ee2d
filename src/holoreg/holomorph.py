"""The holomorph of a finite group, regular subgroups, and their avatars.

An element of the holomorph is stored as a pair (translation a, twist pi)
acting on the group by x -> pi(x) * a^-1; pairs compose by
(a, pi)(b, sigma) = (a * pi(b), pi o sigma).  A subgroup is regular when
evaluation at the identity is a bijection, which for pairs means the
translation components exhaust the group.  Regular subgroups, bijective
crossed homomorphisms, and skew braces are three views of the same data and
this module converts between all of them.  Pair arithmetic never needs the
dense holomorph table, which is only materialized on request.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .groups import (FiniteGroup, Homomorphism, BoundExceeded,
                     GroupDefinitionError, HomomorphismError,
                     all_homomorphisms, as_subgroup, automorphism_perms,
                     center, find_isomorphism, generating_set, is_subgroup,
                     quotient_group)

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

    def act(self, x: int) -> int:
        """Apply the map x -> pi(x) * a^-1."""
        g = self.group
        return g.mul(self.twist[x], g.inv(self.translation))

    def action_perm(self) -> tuple:
        g = self.group
        return tuple(g.table[self.twist, g.inv(self.translation)].tolist())

    def compose(self, other: "HolElement") -> "HolElement":
        """(a, pi)(b, sigma) = (a * pi(b), pi o sigma)."""
        g = self.group
        a = g.mul(self.translation, self.twist[other.translation])
        tw = tuple(self.twist[x] for x in other.twist)
        return HolElement(g, a, tw)

    def inverse(self) -> "HolElement":
        g = self.group
        inv_twist = [0] * g.order
        for i, x in enumerate(self.twist):
            inv_twist[x] = i
        a = inv_twist[g.inv(self.translation)]
        return HolElement(g, a, tuple(inv_twist))

    @property
    def is_identity(self) -> bool:
        return (self.translation == self.group.identity
                and self.twist == tuple(range(self.group.order)))

    def order(self) -> int:
        """Order as a permutation of the group (the action is faithful)."""
        perm = self.action_perm()
        n = len(perm)
        seen = [False] * n
        result = 1
        for start in range(n):
            if seen[start]:
                continue
            length, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                length += 1
            result = result * length // math.gcd(result, length)
        return result

    def cycle_length_through_identity(self) -> int:
        g = self.group
        e = g.identity
        cur = self.act(e)
        length = 1
        while cur != e:
            cur = self.act(cur)
            length += 1
        return length

    def key(self):
        return (self.translation, self.twist)


@dataclass(frozen=True, eq=False)
class HolElements(Sequence):
    """Holomorph elements held as arrays: element i is the pair
    (translations[i], perms[twists[i]]).  A HolElement is built only when
    one is indexed."""

    group: FiniteGroup
    perms: np.ndarray          # (|Aut|, n) twists, from automorphism_perms
    translations: np.ndarray
    twists: np.ndarray         # row indices into perms

    def __len__(self) -> int:
        return len(self.translations)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return HolElement(self.group, int(self.translations[i]),
                          tuple(self.perms[self.twists[i]].tolist()))


@dataclass(frozen=True, eq=False)
class OracleResult(HolElements):
    """The oracle's winners, with the number of (pair, step) moves its scan
    made."""

    pair_steps: int


def identity_hol(N: FiniteGroup) -> HolElement:
    return HolElement(N, N.identity, tuple(range(N.order)))


def rho_embedding(N: FiniteGroup) -> list:
    """The right regular copy of N: all (a, identity twist)."""
    ident = tuple(range(N.order))
    return [HolElement(N, a, ident) for a in range(N.order)]


def lambda_embedding(N: FiniteGroup) -> list:
    """The left regular copy: eta -> (eta^-1, conjugation by eta)."""
    return [HolElement(N, N.inv(a), conjugation_perm(N, a)) for a in range(N.order)]


def conjugation_perm(N: FiniteGroup, a: int) -> tuple:
    return tuple(N.table[N.table[a], N.inv(a)].tolist())


def holomorph_order(N: FiniteGroup) -> int:
    return N.order * len(automorphism_perms(N))


def _hol_perms(N: FiniteGroup, hol_bound: int) -> np.ndarray:
    """automorphism_perms(N), refused when |Hol(N)| = n |Aut(N)| exceeds
    ``hol_bound``; the count is checked before any automorphism is listed."""
    perms = automorphism_perms(N, max_count=max(hol_bound // N.order, 1))
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
    """The index of each row of ``queries`` among the distinct rows of
    ``table``, each looked up as one sortable void key; every query row must
    occur in ``table``."""
    table = np.ascontiguousarray(table)
    queries = np.ascontiguousarray(queries, dtype=table.dtype)
    row = np.dtype((np.void, table.itemsize * table.shape[1]))
    keys = table.view(row).ravel()
    order = np.argsort(keys)
    return order[np.searchsorted(keys[order], queries.view(row).ravel())]


def hol_group(N: FiniteGroup, bound: int = DEFAULT_HOL_BOUND) -> FiniteGroup:
    """The holomorph as a dense Cayley table over (translation, twist) labels.

    Memory grows with the square of |N| * |Aut(N)|, so this is intended for
    holomorphs into the low thousands; pair arithmetic covers the rest.
    """
    perms = _hol_perms(N, bound)
    a_count = len(perms)
    n = N.order
    comp = _composition_index(perms)
    b = np.repeat(np.arange(n), a_count)   # translation of each column
    q = np.tile(np.arange(a_count), n)     # twist of each column
    table = np.empty((n * a_count, n * a_count), dtype=np.int32)
    for a in range(n):  # rows (a, p) for every p: (a, p)(b, q) = (a * p(b), p o q)
        table[a * a_count:(a + 1) * a_count] = \
            N.table[a, perms[:, b]] * a_count + comp[:, q]
    labels = [(a, p) for a in range(n) for p in range(a_count)]
    return FiniteGroup(table, labels=labels, name=f"holomorph of ({N.name})")


def hol_elements(N: FiniteGroup, bound: int = DEFAULT_HOL_BOUND) -> HolElements:
    """All holomorph elements as a HolElements sequence, translations outer,
    twists inner."""
    perms = _hol_perms(N, bound)
    a_count = len(perms)
    return HolElements(N, perms, np.repeat(np.arange(N.order), a_count),
                       np.tile(np.arange(a_count), N.order))


def is_regular_subgroup(N: FiniteGroup, subgroup: Sequence[HolElement]) -> bool:
    """True when evaluation at the identity maps ``subgroup`` bijectively onto N.

    Raises if the given set is not closed under composition.
    """
    keys = {h.key() for h in subgroup}
    for h1 in subgroup:
        for h2 in subgroup:
            if h1.compose(h2).key() not in keys:
                raise GroupDefinitionError("set is not closed under composition")
    if len(keys) != len(subgroup):
        return False
    translations = {h.translation for h in subgroup}
    return len(translations) == len(subgroup) == N.order


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
    drops a pair as soon as its walk is back at the identity: the pairs left
    after n - 1 steps are exactly those whose cycle has length n.  Every
    other translation b takes the conjugates of its orbit's winners by one
    sigma with sigma(least) = b; each conjugate's row in ``perms`` is found
    from its images of ``generating_set(N)``.  Winners come in (translation,
    twist) order, as arrays: a HolElement is built only when the result is
    indexed.  ``pair_steps`` counts the moves of the reduced scan, one per
    live pair per step.
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
    gens = list(generating_set(N))
    sigma_inv_gens = np.argsort(sigma, axis=1)[:, gens]
    images = sigma[b[:, None], perms[twists[src, None], sigma_inv_gens[b]]]
    rows = _rows_of(perms[:, gens], images)  # an automorphism is fixed by its images of gens
    order = np.lexsort((rows, b))
    return OracleResult(N, perms, b[order], rows[order], pair_steps)


def all_regular_subgroups(N: FiniteGroup,
                          hol_bound: int = DEFAULT_SUBGROUP_HOL_BOUND) -> list:
    """Every regular subgroup of the holomorph, by transversal backtracking.

    A regular subgroup contains exactly one element per translation, so the
    search assigns a twist to each translation and propagates closure.  Each
    subgroup is a HolElements in translation order; the list is sorted by
    the elements' keys.
    """
    n = N.order
    perms = _hol_perms(N, hol_bound)
    a_count = len(perms)
    perm_rows = perms.tolist()
    comp = _composition_index(perms).tolist()
    rows = N.rows
    identity_perm = perm_rows.index(list(range(n)))
    results = []

    def propagate(assign: dict) -> Optional[dict]:
        # Close the partial transversal under composition.  Keying by the
        # translation makes a repeated translation with a different twist a
        # conflict, which is exactly failure of regularity.
        work = dict(assign)
        queue = list(work.items())
        processed = []
        while queue:
            item = queue.pop()
            a, p = item
            for b, q in processed + [item]:
                for (x, px), (y, py) in ((a, p), (b, q)), ((b, q), (a, p)):
                    c = rows[x][perm_rows[px][y]]
                    pc = comp[px][py]
                    if c in work:
                        if work[c] != pc:
                            return None
                    else:
                        work[c] = pc
                        queue.append((c, pc))
            processed.append(item)
        return work

    def dfs(assign: dict):
        if len(assign) == n:
            results.append([assign[a] for a in range(n)])
            return
        a = min(x for x in range(n) if x not in assign)
        for p in range(a_count):
            h = HolElement(N, a, perm_rows[p])
            if n % h.order() != 0:  # element order must divide the subgroup order
                continue
            closed = propagate({**assign, a: p})
            if closed is not None:
                dfs(closed)

    dfs({N.identity: identity_perm})
    results.sort(key=lambda twists: [perm_rows[p] for p in twists])
    return [HolElements(N, perms, np.arange(n), np.array(t)) for t in results]


def regular_subgroup_as_group(N: FiniteGroup, subgroup: Sequence[HolElement],
                              name: str = "") -> FiniteGroup:
    """The abstract group structure of a set of holomorph pairs."""
    elems = [h.key() for h in subgroup]
    index = {k: i for i, k in enumerate(elems)}

    def op(k1, k2):
        h = HolElement(N, k1[0], k1[1]).compose(HolElement(N, k2[0], k2[1]))
        return h.key()

    return FiniteGroup.from_product_function(
        elems, op, name=name or f"regular subgroup in holomorph of ({N.name})")


def regular_subgroups_isomorphic_to(G: FiniteGroup, N: FiniteGroup,
                                    hol_bound: int = DEFAULT_SUBGROUP_HOL_BOUND) -> list:
    """All regular subgroups of the holomorph of N isomorphic to G."""
    if G.order != N.order:
        raise GroupDefinitionError("G and N must have the same order")
    out = []
    for sub in all_regular_subgroups(N, hol_bound=hol_bound):
        abstract = regular_subgroup_as_group(N, sub)
        if find_isomorphism(G, abstract) is not None:
            out.append(sub)
    return out


# -- crossed homomorphisms ------------------------------------------------------


@dataclass(frozen=True)
class CrossedHom:
    """A pair (f: G -> Aut(N), g: G -> N) with g(st) = g(s) * f(s)(g(t)).

    Twists are stored as one permutation of N per element of G; the
    homomorphism property of f and the crossed relation of g are verified on
    construction.
    """

    source: FiniteGroup
    target: FiniteGroup
    twists: tuple          # per G-index, a permutation of N
    translations: tuple    # per G-index, an element of N

    def __post_init__(self):
        G, N = self.source, self.target
        object.__setattr__(self, "twists",
                           tuple(tuple(int(x) for x in t) for t in self.twists))
        object.__setattr__(self, "translations",
                           tuple(int(x) for x in self.translations))
        if len(self.twists) != G.order or len(self.translations) != G.order:
            raise HomomorphismError("need one twist and one translation per element")
        ident = tuple(range(N.order))
        if self.twists[G.identity] != ident:
            raise HomomorphismError("f must send the identity to the identity map")
        if self.translations[G.identity] != N.identity:
            raise HomomorphismError("g must send the identity to the identity")
        rows = N.rows
        for s in range(G.order):
            fs = self.twists[s]
            gs = self.translations[s]
            row_g = G.rows[s]
            for t in range(G.order):
                st = row_g[t]
                if self.twists[st] != tuple(fs[x] for x in self.twists[t]):
                    raise HomomorphismError("f is not a homomorphism into Aut(N)")
                if self.translations[st] != rows[gs][fs[self.translations[t]]]:
                    raise HomomorphismError(
                        "g violates the crossed relation g(st) = g(s) f(s)(g(t))")

    @cached_property
    def is_bijective(self) -> bool:
        return len(set(self.translations)) == self.source.order == self.target.order


def crossed_from_regular(N: FiniteGroup, subgroup: Sequence[HolElement]):
    """Split a regular subgroup into its crossed-homomorphism data.

    Returns (G, ch) where G is the subgroup as an abstract group and the
    crossed pair is keyed by the element indices of G.
    """
    if not is_regular_subgroup(N, subgroup):
        raise GroupDefinitionError("subgroup is not regular")
    ordered = sorted(subgroup, key=lambda h: h.key())
    G = regular_subgroup_as_group(N, ordered)
    twists = tuple(ordered[i].twist for i in range(G.order))
    translations = tuple(ordered[i].translation for i in range(G.order))
    return G, CrossedHom(G, N, twists, translations)


def regular_from_crossed(N: FiniteGroup, ch: CrossedHom) -> list:
    """The regular subgroup {(g(s), f(s))} of a bijective crossed pair."""
    if not ch.is_bijective:
        raise HomomorphismError("crossed homomorphism must be bijective")
    sub = [HolElement(N, ch.translations[s], ch.twists[s])
           for s in range(ch.source.order)]
    if not is_regular_subgroup(N, sub):
        raise GroupDefinitionError("crossed data does not give a regular subgroup")
    return sub


def _verify_characteristic(N: FiniteGroup, elems: Iterable[int]):
    sset = set(int(x) for x in elems)
    for perm in automorphism_perms(N):
        if {int(perm[x]) for x in sset} != sset:
            raise GroupDefinitionError("subgroup is not characteristic")


def induction_restrict(ch: CrossedHom, m_elems: Sequence[int]):
    """Restrict a bijective crossed pair to a characteristic subgroup M of N.

    Returns (h_elems, M_group, restricted) where h_elems are the G-indices of
    the preimage H = g^-1(M) and ``restricted`` is the crossed pair for (H, M).
    """
    G, N = ch.source, ch.target
    if not ch.is_bijective:
        raise HomomorphismError("induction requires a bijective crossed pair")
    m_elems = tuple(sorted(int(x) for x in m_elems))
    if not is_subgroup(N, m_elems):
        raise GroupDefinitionError("M must be a subgroup of N")
    _verify_characteristic(N, m_elems)
    mset = set(m_elems)
    h_elems = tuple(s for s in range(G.order) if ch.translations[s] in mset)
    if not is_subgroup(G, h_elems):
        raise GroupDefinitionError("preimage of M is not a subgroup")  # unreachable
    H, _ = as_subgroup(G, h_elems, name=f"preimage of order {len(m_elems)}")
    M, _ = as_subgroup(N, m_elems, name=f"characteristic subgroup of ({N.name})")
    m_pos = {e: i for i, e in enumerate(m_elems)}
    twists = []
    translations = []
    for s in h_elems:
        perm = ch.twists[s]
        twists.append(tuple(m_pos[perm[x]] for x in m_elems))
        translations.append(m_pos[ch.translations[s]])
    restricted = CrossedHom(H, M, tuple(twists), tuple(translations))
    return h_elems, M, restricted


def induction_quotient(ch: CrossedHom, m_elems: Sequence[int],
                       h_elems: Sequence[int]):
    """Quotient crossed pair for (G/H, N/M); requires H central in G.

    As part of well-definedness this checks that every twist attached to H
    induces the identity on N/M.
    """
    G, N = ch.source, ch.target
    h_elems = tuple(sorted(int(x) for x in h_elems))
    m_elems = tuple(sorted(int(x) for x in m_elems))
    zg = set(center(G))
    if not set(h_elems) <= zg:
        raise GroupDefinitionError("H must lie in the center of G")
    Q_G, coset_G = quotient_group(G, h_elems)
    Q_N, coset_N = quotient_group(N, m_elems)
    for tau in h_elems:
        perm = ch.twists[tau]
        if any(coset_N[perm[x]] != coset_N[x] for x in range(N.order)):
            raise HomomorphismError(
                "a twist attached to H does not act trivially on N/M")
    twists = [None] * Q_G.order
    translations = [None] * Q_G.order
    for s in range(G.order):
        cs = coset_G[s]
        perm = ch.twists[s]
        induced = [None] * Q_N.order
        for x in range(N.order):
            cx, cy = coset_N[x], coset_N[perm[x]]
            if induced[cx] is None:
                induced[cx] = cy
            elif induced[cx] != cy:
                raise HomomorphismError("twist does not descend to the quotient")
        induced = tuple(induced)
        if twists[cs] is None:
            twists[cs] = induced
            translations[cs] = coset_N[ch.translations[s]]
        else:
            if twists[cs] != induced or translations[cs] != coset_N[ch.translations[s]]:
                raise HomomorphismError("crossed data is not constant on cosets")
    return Q_G, Q_N, CrossedHom(Q_G, Q_N, tuple(twists), tuple(translations))


# -- skew braces -----------------------------------------------------------------


@dataclass(frozen=True)
class SkewBrace:
    """One carrier with two group operations sharing an identity.

    ``additive`` is the original group; ``circle_table`` defines the second
    operation, whose group structure is exposed as ``multiplicative``.
    """

    additive: FiniteGroup
    circle_table: np.ndarray
    multiplicative: FiniteGroup = field(compare=False)

    def circle(self, a: int, b: int) -> int:
        return int(self.circle_table[a, b])


def skew_brace_from_regular(N: FiniteGroup,
                            subgroup: Sequence[HolElement]) -> SkewBrace:
    """The brace with a o b = sigma_a(b), sigma_a the subgroup element sending 1 to a.

    The compatibility law a o (b c) = (a o b) a^-1 (a o c) is verified on all
    triples, and the circle group is isomorphic to the regular subgroup.
    """
    if not is_regular_subgroup(N, subgroup):
        raise GroupDefinitionError("subgroup is not regular")
    n = N.order
    inv = N.inverses
    by_translation = {h.translation: h for h in subgroup}
    circle = np.zeros((n, n), dtype=np.int32)
    for a in range(n):
        sigma = by_translation[int(inv[a])]  # sigma_a(1) = translation^-1 = a
        circle[a] = N.table[np.asarray(sigma.twist, dtype=np.int32), inv[sigma.translation]]
    mult = FiniteGroup(circle.copy(), labels=N.labels,
                       name=f"circle group over ({N.name})",
                       label_style=N.label_style)
    if mult.identity != N.identity:
        raise GroupDefinitionError("circle operation does not share the identity")
    table = N.table
    for a in range(n):
        lhs = circle[a][table]                                  # a o (b c)
        ca = table[circle[a][:, None], inv[a]]                  # (a o b) a^-1
        rhs = table[ca, circle[a][None, :]]                     # ... (a o c)
        if not np.array_equal(lhs, rhs):
            raise GroupDefinitionError("brace compatibility fails")
    return SkewBrace(N, circle, mult)


# -- fixed point free pairs --------------------------------------------------------


def fpf_search(G: FiniteGroup, N: FiniteGroup) -> list:
    """All pairs (f, h) of homomorphisms G -> N agreeing only at the identity."""
    homs = all_homomorphisms(G, N)
    if not homs:
        return []
    mat = np.array([h.images for h in homs], dtype=np.int32)
    non_identity = [s for s in range(G.order) if s != G.identity]
    pairs = []
    if not non_identity:
        return [(f, h) for f in homs for h in homs]
    sub = mat[:, non_identity]
    for i in range(len(homs)):
        collide = (sub == sub[i][None, :]).any(axis=1)
        for j in np.nonzero(~collide)[0]:
            pairs.append((homs[i], homs[int(j)]))
    return pairs


def regular_from_fpf(N: FiniteGroup, f: Homomorphism, h: Homomorphism) -> list:
    """The regular subgroup {rho(h(s)) lambda(f(s))} of a fixed point free pair."""
    out = []
    for s in range(f.source.order):
        fs, hs = f(s), h(s)
        translation = N.mul(hs, N.inv(fs))
        out.append(HolElement(N, translation, conjugation_perm(N, fs)))
    return out


def subgroup_generated_by_hol(h: HolElement) -> list:
    """The cyclic subgroup generated by one holomorph element."""
    out = [identity_hol(h.group)]
    cur = h
    while not cur.is_identity:
        out.append(cur)
        cur = cur.compose(h)
    return out
