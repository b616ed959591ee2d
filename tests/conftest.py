"""Shared fixtures: the generated test corpus is expensive, so build it once."""

import math

import numpy as np
import pytest

from holoreg import (BoundExceeded, CGroupPresentation, CrossedHom,
                     FiniteGroup, GroupDefinitionError, HolElements,
                     Homomorphism, HomomorphismError, all_homomorphisms,
                     automorphism_group,
                     build_semidirect_from_auts, center, cgroup_group,
                     corpus_representatives, generate_corpus, is_cgroup,
                     is_subgroup, quotient_group, subgroup_generated, words)
from holoreg.cgroups import FACTORS
from holoreg.groups import (_check_count, _fingerprints, _normalize_action,
                            check_table_size, find_isomorphism, generating_set,
                            greedy_closure)
from holoreg.holomorph import (DEFAULT_HOL_BOUND, DEFAULT_SUBGROUP_HOL_BOUND,
                               _composition_index, _conjugations, _hol_perms)

SUBGROUP_ENUM_BOUND = 128


@pytest.fixture(autouse=True)
def empty_factor_cache():
    """Every test starts with an empty ``cgroups.FACTORS``, so no factor
    made under one test's monkeypatch reaches another test."""
    FACTORS.clear()


@pytest.fixture(scope="session")
def corpus():
    """All corpus entries, duplicates marked."""
    return generate_corpus()


@pytest.fixture(scope="session")
def corpus_reps(corpus):
    return corpus_representatives(corpus)


def _duplicate_of(groups):
    """For each group, the index of the first earlier one isomorphic to it,
    or None; only groups in one bucket of invariants (order, element orders,
    class sizes) are compared."""
    duplicate_of = []
    by_invariant: dict = {}
    for idx, g in enumerate(groups):
        key = (g.order, tuple(sorted(g.orders.tolist())),
               tuple(sorted(g.class_sizes.tolist())))
        bucket = by_invariant.setdefault(key, [])
        dup = next((prev for prev in bucket
                    if find_isomorphism(groups[prev], g) is not None), None)
        if dup is None:
            bucket.append(idx)
        duplicate_of.append(dup)
    return duplicate_of


@pytest.fixture(scope="session")
def duplicate_of():
    """``duplicate_of(groups)``: the reference deduplication by isomorphism
    search, which looks ``find_isomorphism`` up in this module."""
    return _duplicate_of


@pytest.fixture(scope="session")
def cgroup_test_presentations():
    """Small presentations covering the trivial, abelian, odd, and even cases."""
    return [
        CGroupPresentation(1, 1, 1),
        CGroupPresentation(5, 1, 1),
        CGroupPresentation(6, 1, 1),
        CGroupPresentation(3, 2, 2),    # symmetric group on 3 points
        CGroupPresentation(7, 3, 2),    # nonabelian of order 21
        CGroupPresentation(7, 3, 4),
        CGroupPresentation(5, 4, 2),    # even order, order of k is 4
        CGroupPresentation(7, 2, 6),    # dihedral of order 14
        CGroupPresentation(9, 2, 8),
        CGroupPresentation(21, 1, 1),
        CGroupPresentation(7, 6, 3),    # ord_7(3) = 6
        CGroupPresentation(13, 3, 3),   # ord_13(3) = 3
        CGroupPresentation(7, 9, 2),    # ord_7(2) = 3 < 9, psi family nontrivial
    ]


@pytest.fixture(scope="session")
def cgroup_test_groups(cgroup_test_presentations):
    return [(p, cgroup_group(p)) for p in cgroup_test_presentations]


@pytest.fixture(scope="session")
def ref_preserves_relations():
    """``check(aut)``: raises HomomorphismError unless the images of x and
    y under a canonical automorphism meet the defining relations x^e = 1,
    y^d = 1 and y x y^-1 = x^k, computed in (i, j) coordinates."""
    def mul(p, a, b):
        (i1, j1), (i2, j2) = a, b
        return ((i1 + i2 * pow(p.k, j1, p.e)) % p.e if p.e > 1 else 0,
                (j1 + j2) % p.d)

    def check(aut):
        p = aut.pres
        xi = aut.apply(1 % p.e, 0)
        yi = aut.apply(0, 1 % p.d)
        if mul(p, yi, xi) != mul(p, p.power(*xi, p.k), yi):
            raise HomomorphismError("conjugation relation y x y^-1 = x^k not preserved")
        if p.power(*xi, p.e) != (0, 0) or p.power(*yi, p.d) != (0, 0):
            raise HomomorphismError("generator order relation not preserved")
    return check


@pytest.fixture(scope="session")
def relabel():
    """``relabel(G, rng)``: G with its elements renumbered at random, index 0
    kept at 0.  G is a FiniteGroup, which comes back with its labels, label
    style and name carried along, or a square table, which comes back as a
    table."""
    def renumber(G, rng):
        is_group = isinstance(G, FiniteGroup)
        table = np.asarray(G.table if is_group else G)
        sigma = np.concatenate([[0], 1 + rng.permutation(len(table) - 1)])
        inv = np.argsort(sigma)
        out = sigma[table[inv][:, inv]]
        if not is_group:
            return out
        labels = None if G.labels is None else [G.labels[i] for i in inv]
        return FiniteGroup(out, labels=labels, name=f"{G.name} relabelled",
                           label_style=G.label_style)
    return renumber


@pytest.fixture(scope="session")
def as_subgroup():
    """``as_subgroup(G, elems, name)``: a subgroup reindexed as its own
    FiniteGroup; returns (H, to_parent)."""
    def reindex(G, elems, name=""):
        elems = tuple(sorted(int(x) for x in elems))
        E = np.array(elems, dtype=np.intp)
        pos = np.full(G.order, -1, dtype=np.int32)  # -1 outside the set
        pos[E] = np.arange(len(E), dtype=np.int32)
        table = pos[G.table[np.ix_(E, E)]]
        if (table < 0).any():
            raise GroupDefinitionError("element set is not closed under the product")
        labels = [G.label(e) for e in elems] if G.labels is not None else list(elems)
        H = FiniteGroup(table, labels=labels, name=name or f"subgroup of ({G.name})",
                        label_style=G.label_style)
        return H, elems
    return reindex


@pytest.fixture(scope="session")
def fpf_search():
    """``fpf_search(G, N)``: all pairs (f, h) of homomorphisms G -> N
    agreeing only at the identity (fixed point free pairs)."""
    def search(G, N):
        homs = all_homomorphisms(G, N)
        others = np.delete(homs, G.identity, axis=1)
        return [(Homomorphism(G, N, homs[i]), Homomorphism(G, N, homs[j]))
                for i, row in enumerate(others)
                for j in np.flatnonzero(~(others == row).any(axis=1)).tolist()]
    return search


@pytest.fixture(scope="session")
def all_subgroups():
    """``all_subgroups(G)``: every subgroup of G as a sorted tuple, by
    closure-extension search, sorted by (size, elements).  Refuses G above
    order ``SUBGROUP_ENUM_BOUND``."""
    def enumerate_subgroups(G):
        if G.order > SUBGROUP_ENUM_BOUND:
            raise BoundExceeded(f"subgroup enumeration bound {SUBGROUP_ENUM_BOUND} "
                                f"exceeded by order {G.order}")
        trivial = (G.identity,)
        found = {trivial}
        frontier = [trivial]
        while frontier:
            nxt = []
            for sub in frontier:
                inside = set(sub)
                for g in range(G.order):
                    if g in inside:
                        continue
                    bigger = subgroup_generated(G, list(sub) + [g])
                    if bigger not in found:
                        found.add(bigger)
                        nxt.append(bigger)
            frontier = nxt
        return sorted(found, key=lambda s: (len(s), s))
    return enumerate_subgroups


@pytest.fixture(scope="session")
def characteristic_subgroups(all_subgroups):
    """``characteristic_subgroups(G)``: the subgroups invariant under every
    automorphism of G (one that an automorphism maps into itself it maps
    onto itself)."""
    def characteristic(G):
        subgroups = all_subgroups(G)  # refuses an oversized G first
        auts = automorphism_group(G)
        return [sub for sub in subgroups if np.isin(auts[:, list(sub)], sub).all()]
    return characteristic


@pytest.fixture(scope="session")
def hol_elements():
    """``hol_elements(N)``: all holomorph elements as a HolElements sequence,
    translations outer, twists inner; refused above ``DEFAULT_HOL_BOUND``."""
    def elements(N):
        perms = _hol_perms(N, DEFAULT_HOL_BOUND)
        a_count = len(perms)
        return HolElements(N, perms, np.repeat(np.arange(N.order), a_count),
                           np.tile(np.arange(a_count), N.order))
    return elements


@pytest.fixture(scope="session")
def hol_group():
    """``hol_group(N, bound)``: the holomorph as a dense Cayley table over
    (translation, twist) labels, the reference for pair arithmetic.  Refused
    above ``bound`` pairs, and its (n |Aut(N)|)^2 entries are checked against
    physical memory before the table is allocated."""
    def build(N, bound=DEFAULT_HOL_BOUND):
        perms = _hol_perms(N, bound)
        a_count = len(perms)
        n = N.order
        check_table_size(n * a_count)
        comp = _composition_index(perms)
        b = np.repeat(np.arange(n), a_count)   # translation of each column
        q = np.tile(np.arange(a_count), n)     # twist of each column
        table = np.empty((n * a_count, n * a_count), dtype=np.int32)
        for a in range(n):  # rows (a, p) for every p: (a, p)(b, q) = (a * p(b), p o q)
            table[a * a_count:(a + 1) * a_count] = \
                N.table[a, perms[:, b]] * a_count + comp[:, q]
        labels = [(a, p) for a in range(n) for p in range(a_count)]
        return FiniteGroup(table, labels=labels, name=f"holomorph of ({N.name})")
    return build


@pytest.fixture(scope="session")
def induction_restrict(as_subgroup):
    """``induction_restrict(ch, m_elems)``: a bijective crossed pair
    restricted to a characteristic subgroup M of N.  Returns (h_elems,
    M_group, restricted), where h_elems are the G-indices of the preimage
    H = g^-1(M) and ``restricted`` is the crossed pair for (H, M)."""
    def restrict(ch, m_elems):
        G, N = ch.source, ch.target
        if not ch.is_bijective:
            raise HomomorphismError("induction requires a bijective crossed pair")
        m_elems = tuple(sorted(int(x) for x in m_elems))
        if not is_subgroup(N, m_elems):
            raise GroupDefinitionError("M must be a subgroup of N")
        inside = np.zeros(N.order, dtype=bool)
        inside[list(m_elems)] = True
        if not inside[automorphism_group(N)[:, list(m_elems)]].all():
            raise GroupDefinitionError("subgroup is not characteristic")
        h_elems = tuple(np.flatnonzero(inside[list(ch.translations)]).tolist())
        if not is_subgroup(G, h_elems):
            raise GroupDefinitionError("preimage of M is not a subgroup")  # unreachable
        H, _ = as_subgroup(G, h_elems, name=f"preimage of order {len(m_elems)}")
        M, _ = as_subgroup(N, m_elems, name=f"characteristic subgroup of ({N.name})")
        m_pos = np.cumsum(inside) - 1  # the index in M of each element of M
        twists = np.array(ch.twists)[list(h_elems)]
        restricted = CrossedHom(H, M, m_pos[twists[:, list(m_elems)]],
                                m_pos[np.array(ch.translations)[list(h_elems)]])
        return h_elems, M, restricted
    return restrict


@pytest.fixture(scope="session")
def induction_quotient():
    """``induction_quotient(ch, m_elems, h_elems)``: the quotient crossed
    pair for (G/H, N/M), returned as (G/H, N/M, pair); H must be central in
    G.  As part of well-definedness this checks that every twist attached to
    H induces the identity on N/M."""
    def quotient(ch, m_elems, h_elems):
        G, N = ch.source, ch.target
        h_elems = tuple(sorted(int(x) for x in h_elems))
        m_elems = tuple(sorted(int(x) for x in m_elems))
        if not set(h_elems) <= set(center(G)):
            raise GroupDefinitionError("H must lie in the center of G")
        Q_G, coset_G = quotient_group(G, h_elems)
        Q_N, coset_N = quotient_group(N, m_elems)
        coset_G, coset_N = np.array(coset_G), np.array(coset_N)
        induced = coset_N[np.array(ch.twists)]  # (|G|, n): the coset of f(s)(x)
        if (induced[list(h_elems)] != coset_N).any():
            raise HomomorphismError("a twist attached to H does not act trivially on N/M")
        # each twist read at the first element of each coset
        twists = induced[:, np.unique(coset_N, return_index=True)[1]]
        if not np.array_equal(twists[:, coset_N], induced):
            raise HomomorphismError("twist does not descend to the quotient")
        translations = coset_N[list(ch.translations)]
        firsts = np.unique(coset_G, return_index=True)[1]
        if not (np.array_equal(twists[firsts][coset_G], twists)
                and np.array_equal(translations[firsts][coset_G], translations)):
            raise HomomorphismError("crossed data is not constant on cosets")
        return Q_G, Q_N, CrossedHom(Q_G, Q_N, twists[firsts], translations[firsts])
    return quotient


@pytest.fixture(scope="session")
def regular_from_fpf():
    """``regular_from_fpf(N, f, h)``: the regular subgroup
    {rho(h(s)) lambda(f(s))} of a fixed point free pair: element s is
    (h(s) f(s)^-1, conjugation by f(s))."""
    def build(N, f, h):
        fs, hs = np.asarray(f.images), np.asarray(h.images)
        return HolElements(N, _conjugations(N), N.table[hs, N.inverses[fs]], fs)
    return build


@pytest.fixture(scope="session")
def ref_validate():
    """``ref_validate(table)``: the error text ``FiniteGroup`` gave when it
    sorted every row and column for the Latin check before Light's test,
    which checked each generator on whole n x n gathers; None for a group.
    Up to order 8 the verdict of Light's test is checked on all n^3 triples."""
    def validate(table):
        t = np.asarray(table, dtype=np.int32)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            return f"Cayley table must be square, got shape {t.shape}"
        n = len(t)
        if n == 0:
            return "empty Cayley table"
        if t.min() < 0 or t.max() >= n:
            return "table entries must be element indices"
        idx = np.broadcast_to(np.arange(n), t.shape)
        e = next((e for e in range(n)
                  if np.array_equal(t[e], idx[0]) and np.array_equal(t[:, e], idx[0])), None)
        if e is None:
            return "table has no two-sided identity"
        if not (np.array_equal(np.sort(t, axis=1), idx)
                and np.array_equal(np.sort(t, axis=0).T, idx)):
            return "table is not a Latin square"

        def right_column(g):
            if not np.array_equal(t[t[:, g]], t[:, t[g]]):
                raise GroupDefinitionError(f"associativity fails at element {g}")
            return t[:, g]

        try:
            greedy_closure(n, e, right_column)
            message = None
        except GroupDefinitionError as exc:
            message = str(exc)
        if n <= 8:  # (a b) c == a (b c) for every triple
            assert bool((t[t] == t[:, t]).all()) == (message is None), t.tolist()
        return message
    return validate


@pytest.fixture(scope="session")
def ref_semidirect_product():
    """``ref_semidirect_product(M, P, alpha, name)``: the (table, labels,
    label_style, name) that ``semidirect_product`` once built from four n^2
    index arrays and two fancy gathers, without validating the table."""
    def build(M, P, alpha, name=""):
        check_table_size(M.order * P.order)
        act = _normalize_action(M, P, alpha)
        nm, np_ = M.order, P.order
        n = nm * np_
        idx = np.arange(n, dtype=np.int32)
        m1, t1 = idx[:, None] // np_, idx[:, None] % np_
        m2, t2 = idx[None, :] // np_, idx[None, :] % np_
        m_part = M.table[m1, act[t1, m2]]
        t_part = P.table[t1, t2]
        table = (m_part * np_ + t_part).astype(np.int32)
        labels = tuple((M.label(i // np_), P.label(i % np_)) for i in range(n))
        style = "semidirect" if M.label_style in ("cyclic", "cgroup") and \
            P.label_style == "twogroup" else None
        return table, labels, style, name or f"semidirect of ({M.name}) and ({P.name})"
    return build


@pytest.fixture(scope="session")
def loop_table():
    """``loop_table(m)``: the table of L5 x C_m, a Latin square with identity 0
    that is not associative because its order-5 factor L5 is a loop."""
    loop5 = np.array([[0, 1, 2, 3, 4],
                      [1, 0, 3, 4, 2],
                      [2, 4, 0, 1, 3],
                      [3, 2, 4, 0, 1],
                      [4, 3, 1, 2, 0]])

    def build(m):
        a, i = np.arange(5 * m) // m, np.arange(5 * m) % m
        return loop5[a[:, None], a[None, :]] * m + (i[:, None] + i[None, :]) % m
    return build


@pytest.fixture(scope="session")
def full_scan():
    """``full_scan(N, hol_bound)``: the oracle's winners as (translations,
    twists) arrays, from the plain scan that walks every (translation,
    twist) pair of Hol(N), kept as the reference for the orbit scan."""
    def scan(N, hol_bound):
        n = N.order
        perms = _hol_perms(N, hol_bound)
        a_count = len(perms)
        e = N.identity
        inv = N.inverses
        flat_perms = perms.ravel()
        flat_table = N.table.ravel()
        offset = np.tile(np.arange(a_count) * n, n)
        a_inv = np.repeat(inv.astype(np.intp), a_count)
        pos = np.full(n * a_count, e)
        for _ in range(n - 1):
            pos = flat_table[flat_perms[offset + pos] * n + a_inv]
            live = pos != e
            offset, a_inv, pos = offset[live], a_inv[live], pos[live]
        return inv[a_inv], offset // n
    return scan


@pytest.fixture(scope="session")
def ref_respects_product():
    """``ref_respects_product(G, H, images)``: the n^2 check ``Homomorphism``
    once made, kept as the reference for ``respects_product``.  True when
    every image is an index of H, the identity goes to the identity, and
    f(a b) = f(a) f(b) for every pair a, b."""
    def check(G, H, images):
        imgs = np.asarray(images, dtype=np.int64)
        if imgs.min() < 0 or imgs.max() >= H.order:
            return False
        return bool(imgs[G.identity] == H.identity and np.array_equal(
            imgs[G.table], H.table[imgs[:, None], imgs[None, :]]))
    return check


@pytest.fixture(scope="session")
def split_model(ref_respects_product):
    """``split_model(dec)``: the abstract M x| P built from the split's
    action by ``build_semidirect_from_auts``, after checking on all n^2
    products that ``dec.pos`` is an isomorphism from N onto it."""
    def build(dec):
        model = build_semidirect_from_auts(dec.pres, dec.p_group, dec.alpha_r, dec.alpha_s)
        assert sorted(dec.pos.tolist()) == list(range(model.order)), model.name
        assert ref_respects_product(dec.group, model, dec.pos), model.name
        return model
    return build


@pytest.fixture(scope="session")
def ref_homomorphism_search():
    """``ref_homomorphism_search(G, H, gens, injective)``: the two-pass
    search ``_homomorphism_search`` once was, kept as its reference.  For
    each generator prefix it first lists the prefix subgroup in BFS order
    with the word (parent, generator) that reaches each element, fills the
    images along those words, then checks img(u g) = img(u) h on every
    element u and chosen pair (g, h) in a second loop."""
    def build(G, H, gens, injective):
        def words(prefix):
            parent, elems, seen = {}, [G.identity], {G.identity}
            for u in elems:
                for pos, g in enumerate(prefix):
                    v = G.mul(u, g)
                    if v not in seen:
                        seen.add(v)
                        parent[v] = (u, pos)
                        elems.append(v)
            return elems, parent

        prefixes = [words(gens[:i + 1]) for i in range(len(gens))]

        def fill(depth, chosen):
            elems, parent = prefixes[depth]
            img = [-1] * G.order
            img[G.identity] = H.identity
            used = {H.identity}
            for g, hg in zip(gens, chosen):
                if img[g] == -1:
                    img[g] = hg
                    if injective:
                        if hg in used:
                            return None
                        used.add(hg)
            for v in elems:
                if img[v] != -1:
                    continue
                u, pos = parent[v]
                img[v] = H.mul(img[u], chosen[pos])
                if injective:
                    if img[v] in used:
                        return None
                    used.add(img[v])
            for u in elems:
                for g, hg in zip(gens, chosen):
                    if img[G.mul(u, g)] != H.mul(img[u], hg):
                        return None
            return img

        def search(candidates, first_only=False):
            if not gens:
                return [(H.identity,)]
            results = []

            def dfs(chosen):
                for cand in candidates[len(chosen)]:
                    img = fill(len(chosen), chosen + [cand])
                    if img is None:
                        continue
                    if len(chosen) + 1 < len(gens):
                        dfs(chosen + [cand])
                    else:
                        results.append(tuple(img))
                    if first_only and results:
                        return

            dfs([])
            return results[:1] if first_only else results
        return search
    return build


def _closure(G, gens):
    """The subgroup generated by ``gens``, walked over the n x k generator
    columns of the table, as ``subgroup_generated`` once was."""
    cols = G.table[:, [int(g) for g in gens]].tolist()
    seen = bytearray(G.order)
    seen[G.identity] = 1
    queue = [G.identity]
    while queue:
        for v in cols[queue.pop()]:
            if not seen[v]:
                seen[v] = 1
                queue.append(v)
    return tuple(np.flatnonzero(seen).tolist())


@pytest.fixture(scope="session")
def ref_sylow_subgroup():
    """``ref_sylow_subgroup(G, p)``: the Sylow search ``sylow_subgroup`` once
    was, which closed every candidate over all of G before rejecting it as
    larger than p^a."""
    def is_p_power(value, p):
        while value % p == 0:
            value //= p
        return value == 1

    def sylow(G, p):
        n, target = G.order, 1
        while n % p == 0:
            target *= p
            n //= p
        if target == 1:
            return (G.identity,)
        p_elements = [g for g in range(G.order)
                      if g != G.identity and is_p_power(int(G.orders[g]), p)]
        current, gens = (G.identity,), []
        while len(current) < target:
            for g in p_elements:
                if g in current:
                    continue
                candidate = _closure(G, gens + [g])
                if len(candidate) <= target and is_p_power(len(candidate), p):
                    gens.append(g)
                    current = candidate
                    break
            else:
                raise AssertionError("Sylow closure search failed")
        return current
    return sylow


@pytest.fixture(scope="session")
def ref_normal_cyclic_subgroup_generator():
    """``ref_normal_cyclic_subgroup_generator(G, e)``: the search the
    C-group recognizer once made, which closed <x> for each x of order e
    and checked all n x e conjugates g a g^-1 of its members."""
    def search(G, e):
        if e == 1:
            return G.identity
        t = G.table
        for x in range(G.order):
            if int(G.orders[x]) != e:
                continue
            span = np.array(_closure(G, [x]), dtype=np.intp)
            inside = np.zeros(G.order, dtype=bool)
            inside[span] = True
            if inside[t[t[:, span], G.inverses[:, None]]].all():
                return x
        return None
    return search


def _divisors(n):
    out = []
    for a in range(1, int(math.isqrt(n)) + 1):
        if n % a == 0:
            out.append(a)
            if a != n // a:
                out.append(n // a)
    return out


@pytest.fixture(scope="session")
def ref_recognize_cgroup(ref_normal_cyclic_subgroup_generator):
    """``ref_recognize_cgroup(G)``: the search ``recognize_cgroup`` once was,
    kept as its reference.  For each divisor e of n prime to n/e it takes
    the least generator x of a normal cyclic subgroup of order e and, for
    each y of order n/e, the presentation with y x y^-1 = x^k; it returns
    the least normalized (e, d, k, x, y), or None."""
    def recognize(G):
        n = G.order
        if not is_cgroup(G):
            return None
        if n == 1:
            e = G.identity
            return CGroupPresentation(1, 1, 1), e, e
        orders = G.orders
        candidates = []
        for e in sorted(_divisors(n)):
            d = n // e
            if math.gcd(e, d) != 1:
                continue
            x = ref_normal_cyclic_subgroup_generator(G, e)
            if x is None:
                continue
            xpow = {g: t for t, g in enumerate(words(G, (x,), range(e)).tolist())}
            seen_k = set()
            for y in range(n):
                if int(orders[y]) != d:
                    continue
                conj = G.conj(x, y)
                k = 1 if e == 1 else xpow[conj] % e
                if k in seen_k:
                    continue
                seen_k.add(k)
                try:
                    pres = CGroupPresentation(e, d, k)
                except GroupDefinitionError:
                    continue
                candidates.append((pres, x, y))
        normalized = [c for c in candidates if c[0].is_normalized]
        if not normalized:
            return None
        normalized.sort(key=lambda c: (c[0].e, c[0].d, c[0].k, c[1], c[2]))
        return normalized[0]
    return recognize


@pytest.fixture(scope="session")
def ref_least_conjugates():
    """``ref_least_conjugates(G)``: the least member of each element's
    conjugacy class as ``FiniteGroup`` once found it, the running column
    minimum of t[t[g, :], g^-1] over every g, a block of g rows at a time."""
    def least_conjugates(G):
        n = G.order
        t = G.table
        inv = G.inverses
        least = np.arange(n, dtype=np.int32)
        block = max(1, (1 << 18) // n)
        for start in range(0, n, block):
            g = np.arange(start, min(start + block, n))
            np.minimum(least, t[t[g], inv[g, None]].min(axis=0), out=least)
        return least
    return least_conjugates


@pytest.fixture(scope="session")
def ref_automorphisms(ref_homomorphism_search):
    """``ref_automorphisms(G, max_count)``: the stabilizer chain
    ``_automorphisms`` once was, over the two-pass reference search, kept as
    its reference.  It checks ``max_count`` only against the product of the
    orbits of finished levels, and rebuilds an orbit with its numpy
    transversal each time an automorphism is found."""
    def orbit_of(x, perms, n):
        reps = {x: np.arange(n, dtype=np.int32)}
        queue = [x]
        qi = 0
        while qi < len(queue):
            p = queue[qi]
            qi += 1
            for s in perms:
                q = int(s[p])
                if q not in reps:
                    reps[q] = s[reps[p]]
                    queue.append(q)
        return reps

    def automorphisms(G, max_count):
        n = G.order
        gens = generating_set(G)
        fps = _fingerprints(G)
        cands = [[h for h in range(n) if fps[h] == fps[g]] for g in gens]
        search = ref_homomorphism_search(G, G, gens, True)
        found, levels = [], []
        count = 1
        for i in reversed(range(len(gens))):
            pinned = [[g] for g in gens[:i]]
            orbit = orbit_of(gens[i], found, n)
            outside = set()
            for c in cands[i]:
                if c in orbit or c in outside:
                    continue
                images = search(pinned + [[c]] + cands[i + 1:], first_only=True)
                if images:
                    found.append(np.array(images[0], dtype=np.int32))
                    orbit = orbit_of(gens[i], found, n)
                else:
                    outside.update(orbit_of(c, found, n))
            count *= len(orbit)
            _check_count(count, max_count)
            levels.append(np.array(list(orbit.values())))
        auts = np.arange(n, dtype=np.int32)[None, :]
        for reps in levels:
            auts = reps[:, auts].reshape(-1, n)
        if gens:
            auts = auts[np.lexsort([auts[:, g] for g in reversed(gens)])]
        return np.ascontiguousarray(auts, dtype=np.int32)
    return automorphisms


@pytest.fixture(scope="session")
def ref_regular_subgroups():
    """``ref_regular_subgroups(N)``: the twist rows, one list per translation,
    of every regular subgroup, sorted, as ``all_regular_subgroups`` once
    found them: a translation's twists were pre-filtered to pairs whose
    order divides n, and each choice closed the partial transversal under
    the products of every pair of its elements."""
    def enumerate_regular(N):
        n = N.order
        perms = _hol_perms(N, DEFAULT_SUBGROUP_HOL_BOUND)
        perm_rows = perms.tolist()
        comp = _composition_index(perms).tolist()
        rows = N.table.tolist()
        divides = []
        for a in range(n):
            acts = N.table[perms, N.inverses[a]]  # x -> p(x) a^-1 for every twist p
            power, k = np.broadcast_to(np.arange(n), acts.shape), n
            while k:
                if k & 1:
                    power = np.take_along_axis(acts, power, axis=1)
                acts = np.take_along_axis(acts, acts, axis=1)
                k >>= 1
            divides.append((power == np.arange(n)).all(axis=1).tolist())
        results = []

        def propagate(assign):
            work = dict(assign)
            queue = list(work.items())
            processed = []
            while queue:
                item = queue.pop()
                a, p = item
                for b, q in processed + [item]:
                    for (x, px), (y, py) in ((a, p), (b, q)), ((b, q), (a, p)):
                        c, pc = rows[x][perm_rows[px][y]], comp[px][py]
                        if c in work:
                            if work[c] != pc:
                                return None
                        else:
                            work[c] = pc
                            queue.append((c, pc))
                processed.append(item)
            return work

        def dfs(assign):
            if len(assign) == n:
                results.append([perm_rows[assign[a]] for a in range(n)])
                return
            a = min(x for x in range(n) if x not in assign)
            for p in range(len(perms)):
                if divides[a][p]:
                    closed = propagate({**assign, a: p})
                    if closed is not None:
                        dfs(closed)

        dfs({N.identity: perm_rows.index(list(range(n)))})
        return sorted(results)
    return enumerate_regular


@pytest.fixture
def constructions(monkeypatch):
    """(validated, built): lists to which every group made for the rest of
    the test is appended, by its provenance: ``FiniteGroup(table)``, the
    full table check, or ``FiniteGroup._from_builder``, a checked builder."""
    validated, built = [], []
    init, from_builder = FiniteGroup.__init__, FiniteGroup._from_builder.__func__

    def counting_init(self, *args, **kwargs):
        validated.append(self)
        init(self, *args, **kwargs)

    def counting_builder(cls, *args, **kwargs):
        G = from_builder(cls, *args, **kwargs)
        built.append(G)
        return G

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    monkeypatch.setattr(FiniteGroup, "_from_builder", classmethod(counting_builder))
    return validated, built
