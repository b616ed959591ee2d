"""The table primitives read the Cayley table as an array: each is checked
against the plain Python loop it replaced, and the classify path is checked
to build no nested-list copy of the table."""

import math
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoreg import (CGroupPresentation, FiniteGroup, GroupDefinitionError,
                     HolElement, HomomorphismError, automorphism_group,
                     cgroup_group, classify,
                     commutator_subgroup, conjugation_perm, cyclic_group,
                     decompose, dihedral_group, direct_product,
                     find_isomorphism, generating_set, is_normal, is_subgroup,
                     normal_hall_odd_subgroup, parse_group_spec,
                     quaternion_group, quotient_group, recognize_cgroup,
                     respects_product, semidirect_product, subgroup_generated,
                     sylow_subgroup)
from holoreg import cgroups, groups, realizability, specs
from holoreg.groups import _fingerprints, _prime_powers, center

REFERENCE_MAX_ORDER = 120


# -- the plain loops, kept as references --------------------------------------


@lru_cache(maxsize=4)
def table_rows(G):
    """G's Cayley table as nested lists, for the loops below to index."""
    return G.table.tolist()


def ref_subgroup_generated(G, gens):
    gens = [int(g) for g in gens]
    t = table_rows(G)
    seen = bytearray(G.order)
    seen[G.identity] = 1
    frontier = [G.identity]
    for g in gens:
        if not seen[g]:
            seen[g] = 1
            frontier.append(g)
    queue = list(frontier)
    while queue:
        row = t[queue.pop()]
        for g in gens:
            v = row[g]
            if not seen[v]:
                seen[v] = 1
                queue.append(v)
    return tuple(i for i in range(G.order) if seen[i])


def ref_is_subgroup(G, elems):
    elems = set(int(x) for x in elems)
    if G.identity not in elems:
        return False
    t = table_rows(G)
    return all(t[a][b] in elems for a in elems for b in elems)


def ref_as_subgroup(G, elems):
    elems = tuple(sorted(int(x) for x in elems))
    pos = {e: i for i, e in enumerate(elems)}
    k = len(elems)
    table = np.zeros((k, k), dtype=np.int32)
    t = table_rows(G)
    for i, a in enumerate(elems):
        row = t[a]
        for j, b in enumerate(elems):
            c = row[b]
            if c not in pos:
                raise GroupDefinitionError("element set is not closed under the product")
            table[i, j] = pos[c]
    labels = [G.label(e) for e in elems] if G.labels is not None else list(elems)
    return FiniteGroup(table, labels=labels, label_style=G.label_style), elems


def ref_conjugation_perm(N, a):
    row = table_rows(N)
    a_inv = N.inv(a)
    return tuple(row[row[a][x]][a_inv] for x in range(N.order))


def ref_action_perm(h):
    row = table_rows(h.group)
    a_inv = h.group.inv(h.translation)
    return tuple(row[p][a_inv] for p in h.twist)


def ref_power(G, a, k):
    if k < 0:
        a, k = G.inv(a), -k
    result, base = G.identity, a
    t = table_rows(G)
    while k:
        if k & 1:
            result = t[result][base]
        base = t[base][base]
        k >>= 1
    return result


def ref_conj(G, a, b):
    t = table_rows(G)
    return t[t[b][a]][G.inv(b)]


def ref_is_normal(G, elems):
    """Conjugation by every element of G, as ``is_normal`` once checked."""
    elems = list(elems)
    inside = np.zeros(G.order, dtype=bool)
    inside[elems] = True
    t = G.table
    return bool(inside[t[t[:, elems], G.inverses[:, None]]].all())


def ref_commutator_subgroup(G):
    t = table_rows(G)
    inv = G.inverses
    comms = {t[t[g][h]][t[inv[g]][inv[h]]] for g in range(G.order) for h in range(G.order)}
    return ref_subgroup_generated(G, comms)


def ref_quotient_group(G, nset):
    """(table, coset_index) of G/N for a normal subgroup N."""
    t = table_rows(G)
    coset_index = [-1] * G.order
    reps = []
    for a in range(G.order):
        if coset_index[a] >= 0:
            continue
        members = sorted(t[a][m] for m in nset)
        for x in members:
            coset_index[x] = len(reps)
        reps.append(tuple(members))
    table = [[coset_index[t[ca[0]][cb[0]]] for cb in reps] for ca in reps]
    return table, tuple(coset_index)


def ref_orders(G):
    """Element orders by advancing every power one multiplication per step."""
    n = G.order
    base = np.arange(n, dtype=np.int32)
    cur = base.copy()
    out = np.zeros(n, dtype=np.int32)
    out[G.identity] = 1
    for step in range(2, n + 1):
        if not (out == 0).any():
            break
        cur = G.table[cur, base]
        hit = (cur == G.identity) & (out == 0)
        out[hit] = step
    out[out == 0] = 1
    return out


def ref_conjugacy_classes(G):
    """Conjugacy classes as sorted tuples, one orbit t[t[:, a], inv] at a time."""
    t = G.table
    seen = np.zeros(G.order, dtype=bool)
    classes = []
    for a in range(G.order):
        if not seen[a]:
            orbit = np.unique(t[t[:, a], G.inverses])
            seen[orbit] = True
            classes.append(tuple(int(x) for x in orbit))
    return classes


def ref_fingerprints(G):
    orders, sizes = G.orders, G.class_sizes
    t = table_rows(G)
    return [(int(orders[g]), int(sizes[g]), int(orders[t[g][g]])) for g in range(G.order)]


# -- the groups compared -------------------------------------------------------


@pytest.fixture(scope="module")
def reference_groups(corpus_reps, relabel):
    """Every corpus representative of order <= 120, and two relabellings of each."""
    rng = np.random.default_rng(20211216)
    out = []
    for entry in corpus_reps:
        G = entry.group
        if G.order <= REFERENCE_MAX_ORDER:
            out += [G, relabel(G, rng), relabel(G, rng)]
    assert len(out) == 3 * 96
    return out


# The nine tables of the large-tables benchmark, orders 72 to 1008.
LARGE_TABLES = {
    "cyclic-1000": lambda: cyclic_group(1000),
    "quaternion-256": lambda: quaternion_group(256),
    "dihedral-256": lambda: dihedral_group(256),
    "semidirect-672": lambda: parse_group_spec(
        "semidirect (cgroup 7 3 2) (dihedral 32) alpha r->id s->phi:6"),
    "semidirect-600": lambda: parse_group_spec(
        "semidirect (cyclic 75) (quaternion 8) alpha r->id s->phi:74"),
    "semidirect-1008": lambda: parse_group_spec(
        "semidirect (cyclic 63) (dihedral 16) alpha r->phi:62 s->id"),
    "c3xc3xd8": lambda: direct_product(direct_product(cyclic_group(3), cyclic_group(3)),
                                       dihedral_group(8)),
    "c15xc2xc4": lambda: direct_product(direct_product(cyclic_group(15), cyclic_group(2)),
                                        cyclic_group(4)),
    "c63xc2xc2xc2": lambda: direct_product(direct_product(direct_product(
        cyclic_group(63), cyclic_group(2)), cyclic_group(2)), cyclic_group(2)),
}


def element_sets(G, rng):
    """Closed sets (generated subgroups) and non-closed ones: a subgroup with
    one element added or its identity removed, random subsets, the empty set."""
    n = G.order
    closed = [subgroup_generated(G, []), subgroup_generated(G, generating_set(G))]
    closed += [subgroup_generated(G, rng.choice(n, size=k))
               for k in (1, 1, 2) for _ in range(2)]
    other = [(), tuple(int(g) for g in rng.choice(n, size=n // 2, replace=False))]
    for sub in closed:
        outside = [g for g in range(n) if g not in sub]
        if outside:
            other.append(tuple(sorted(sub + (int(rng.choice(outside)),))))
        if len(sub) > 1:
            other.append(tuple(g for g in sub if g != G.identity))
    return closed, other


def test_subgroup_closure_matches_reference(reference_groups):
    rng = np.random.default_rng(1)
    for G in reference_groups:
        n = G.order
        gen_sets = [[], [G.identity], generating_set(G), list(range(n))]
        gen_sets += [rng.choice(n, size=k).tolist() for k in (1, 1, 1, 2, 2, 3)]
        for gens in gen_sets:
            assert subgroup_generated(G, gens) == ref_subgroup_generated(G, gens), (G, gens)
        assert commutator_subgroup(G) == ref_commutator_subgroup(G), G


def test_subgroup_tests_match_reference(reference_groups, as_subgroup):
    rng = np.random.default_rng(2)
    for G in reference_groups:
        closed, other = element_sets(G, rng)
        for elems in closed + other:
            want = ref_is_subgroup(G, elems)
            assert is_subgroup(G, elems) is want, (G, elems)
            assert is_subgroup(G, iter(elems)) is want, (G, elems)
            try:
                ref = ref_as_subgroup(G, elems)
            except GroupDefinitionError as exc:
                with pytest.raises(GroupDefinitionError) as got:
                    as_subgroup(G, elems)
                assert str(got.value) == str(exc)
                assert not want
                continue
            H, to_parent = as_subgroup(G, elems)
            assert np.array_equal(H.table, ref[0].table), (G, elems)
            assert H.table.dtype == ref[0].table.dtype
            assert H.labels == ref[0].labels and to_parent == ref[1], (G, elems)


def test_quotients_and_fingerprints_match_reference(reference_groups):
    for G in reference_groups:
        assert _fingerprints(G) == ref_fingerprints(G), G
        for normal in (commutator_subgroup(G), subgroup_generated(G, [])):
            Q, coset = quotient_group(G, normal)
            table, want_coset = ref_quotient_group(G, normal)
            assert Q.table.tolist() == table and coset == want_coset, G
            assert all(type(c) is int for c in coset)


def test_respects_product_matches_reference(reference_groups, ref_respects_product):
    verdicts = set()
    for G in reference_groups[0::3] + reference_groups[1::3]:  # given, relabelled
        n = G.order
        gens = G.generators  # the generators respects_product walks
        auts = automorphism_group(G)[:4]
        swapped = auts.copy()  # the images of the first and last generator swapped
        swapped[:, [gens[0], gens[-1]]] = auts[:, [gens[-1], gens[0]]]
        # x -> x on the subgroup K the other generators generate, x -> g x
        # off it, g the last generator: f(x k) = f(x) f(k) for every k in K,
        # so only the last generator can reject it
        inside = np.isin(np.arange(n), subgroup_generated(G, gens[:-1]))
        twisted = np.where(inside, np.arange(n), G.table[gens[-1]])
        out_of_range = np.where(np.arange(n) == gens[0], n, np.arange(n))
        maps = np.vstack([np.arange(n), auts, swapped, np.full(n, gens[0]),
                          twisted, out_of_range])
        got = respects_product(G, G, maps)
        want = [ref_respects_product(G, G, f) for f in maps]
        assert got.dtype == bool and got.tolist() == want, G
        verdicts.update(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("source", ["corpus", *LARGE_TABLES])
def test_orders_and_classes_match_reference(source, corpus_reps, relabel,
                                            ref_least_conjugates):
    # each group as given (a fresh copy, so nothing is cached yet) and relabelled
    rng = np.random.default_rng(5)
    given = ([entry.group for entry in corpus_reps] if source == "corpus"
             else [LARGE_TABLES[source]()])
    for G in given:
        for H in (FiniteGroup(G.table), relabel(G, rng)):
            assert np.array_equal(H.orders, ref_orders(H)), H
            assert H.orders.dtype == np.int32
            least = H._least_conjugates
            assert np.array_equal(least, ref_least_conjugates(H)) and least.dtype == np.int32, H
            t = H.table  # the elements that commute with every element
            assert center(H) == tuple(z for z in range(H.order)
                                      if np.array_equal(t[z], t[:, z])), H
            classes = ref_conjugacy_classes(H)
            sizes = np.zeros(H.order, dtype=np.int32)
            for cls in classes:
                sizes[list(cls)] = len(cls)
            assert np.array_equal(H.class_sizes, sizes) and H.class_sizes.dtype == np.int32


def test_element_arithmetic_matches_reference(reference_groups):
    rng = np.random.default_rng(3)
    for G in reference_groups:
        n = G.order
        for a in range(n):
            assert conjugation_perm(G, a) == ref_conjugation_perm(G, a), (G, a)
        for a, b in rng.choice(n, size=(40, 2)).tolist():
            assert G.conj(a, b) == ref_conj(G, a, b), (G, a, b)
            assert G.mul(a, b) == int(G.table[a, b]) and type(G.mul(a, b)) is int
            for k in (0, 1, -1, 2, -3, n - 1, n, n + 1, -n - 1, 3 * n + 2):
                got = G.power(a, k)
                assert got == ref_power(G, a, k) and type(got) is int, (G, a, k)
        for _ in range(4):
            a, x = (int(v) for v in rng.choice(n, size=2))
            for twist in (conjugation_perm(G, x), tuple(rng.permutation(n).tolist())):
                h = HolElement(G, a, twist)
                assert h.action_perm() == ref_action_perm(h), (G, a, twist)


# -- subgroup searches that stop at the size they look for ---------------------


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_bounded_closure_stops_exactly_past_its_limit(reference_groups, data):
    G = data.draw(st.sampled_from(reference_groups))
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    limit = data.draw(st.integers(0, G.order + 1))
    full = ref_subgroup_generated(G, gens)
    assert subgroup_generated(G, gens) == full
    reads = []

    def item(u, g):
        reads.append(u)
        return G.table.item(u, g)

    # the same group with every table read counted
    counted = SimpleNamespace(table=SimpleNamespace(item=item), order=G.order,
                              identity=G.identity)
    got = subgroup_generated(counted, gens, limit=limit)
    assert got == (None if len(full) > limit else full), (G, gens, limit)
    assert len(reads) <= limit * len(gens)


def check_subgroup_searches(G, ref_sylow):
    """Every Sylow subgroup search of G against the reference; returns
    whether the Sylow 2-subgroup is normal."""
    for p in _prime_powers(G.order):
        assert sylow_subgroup(G, p) == ref_sylow(G, p), (G, p)
    return is_normal(G, sylow_subgroup(G, 2))


def test_subgroup_searches_match_reference_on_corpus(corpus_reps, relabel,
                                                     ref_sylow_subgroup):
    rng = np.random.default_rng(17)
    normal = set()
    for entry in corpus_reps:
        for G in (entry.group, relabel(entry.group, rng)):
            normal.add(check_subgroup_searches(G, ref_sylow_subgroup))
    assert normal == {True, False}


def test_subgroup_searches_match_reference_on_large_tables(
        monkeypatch, relabel, ref_sylow_subgroup):
    closures = []  # what each closure of sylow_subgroup returned

    def recorded(G, gens, limit=None):
        closures.append(subgroup_generated(G, gens, limit))
        return closures[-1]
    monkeypatch.setattr(groups, "subgroup_generated", recorded)
    rng = np.random.default_rng(18)
    normal = {}
    for name, build in LARGE_TABLES.items():
        G = build()
        for H in (G, relabel(G, rng)):
            normal[name] = check_subgroup_searches(H, ref_sylow_subgroup)
    assert not any(normal[name] for name in
                   ("semidirect-600", "semidirect-672", "semidirect-1008"))
    assert None in closures  # candidates were dropped past the Sylow order


def test_conjugation_checks_match_full_scans(reference_groups):
    # given and relabelled: each check reads the generator conjugations only
    rng = np.random.default_rng(21)
    abelian, normal = set(), {True: set(), False: set()}
    for G in reference_groups:
        abelian.add(bool(np.array_equal(G.table, G.table.T)))
        closed, other = element_sets(G, rng)
        closed += [sylow_subgroup(G, p) for p in _prime_powers(G.order)]
        closed += [center(G), commutator_subgroup(G)]
        for is_closed, sets in ((True, closed), (False, other)):
            for elems in sets:
                want = ref_is_normal(G, elems)
                assert is_normal(G, elems) is want, (G, elems)
                normal[is_closed].add(want)
    assert abelian == normal[True] == normal[False] == {True, False}


def test_checks_compute_no_generating_set(monkeypatch, corpus_reps):
    # the checks read G.generators; generating_set would leave its memo
    key = groups.generating_set.__wrapped__
    factors = []  # the M and P of every semidirect product built

    def recorded(M, P, alpha, name=""):
        factors.extend((M, P))
        return semidirect_product(M, P, alpha, name)
    monkeypatch.setattr(specs, "semidirect_product", recorded)
    M, P = cyclic_group(15), dihedral_group(8)
    semidirect_product(M, P, np.tile(np.arange(15, dtype=np.int32), (8, 1)))
    assert key not in M.memo and key not in P.memo
    shared = {}  # the M and P of every spec are the shared factors, kept
    for entry in corpus_reps:  # with their memos from one spec to the next
        factors.clear()
        N = parse_group_spec(entry.spec)  # fresh: nothing memoized yet
        verdict = classify(N)
        seen = [N, *factors]
        if verdict.decomposition is not None:
            seen.append(verdict.decomposition.p_group)
        assert not any(key in G.memo for G in seen), entry.spec
        shared.update((id(G), G) for G in seen[1:])
    assert len(shared) == 12 + 5


# -- the classify path reads the table as an array -----------------------------


def _classify_path_groups(G):
    """Classify and construct G as the classify and construct commands do;
    return N and the P the path built."""
    verdict = classify(G)
    generating_set(G)
    if verdict.witness is not None:
        verdict.witness.order()
        verdict.witness.cycle_length_through_identity()
    dec = verdict.decomposition or decompose(G)
    built = [G]
    if not isinstance(dec, str):
        built.append(dec.p_group)
    return verdict, built


def _nested_list_tables(H):
    """The attributes and memo entries of H that hold a list of H.order lists."""
    held = {**vars(H), **{getattr(k, "__name__", k): v for k, v in H.memo.items()}}
    return [name for name, v in held.items() if isinstance(v, list)
            and len(v) == H.order and all(isinstance(row, list) for row in v)]


@pytest.mark.parametrize("make, splits", [
    (lambda relabel: cyclic_group(1000), False),  # a C-group: no split, no P
    (lambda relabel: relabel(dihedral_group(256), np.random.default_rng(4)), True),
    (lambda relabel: parse_group_spec(
        "semidirect (cyclic 63) (dihedral 16) alpha r->phi:62 s->id"), True),
    (lambda relabel: parse_group_spec(
        "semidirect (cgroup 7 3 2) (dihedral 32) alpha r->id s->phi:6"), True),
], ids=["cyclic-1000", "dihedral-256-relabelled", "split-1008", "split-672"])
def test_classify_path_builds_no_nested_list_table(make, splits, relabel):
    G = make(relabel)
    _, built = _classify_path_groups(G)
    assert len(built) == 1 + splits
    for H in built:
        assert _nested_list_tables(H) == [], H


def test_corpus_classify_path_builds_no_nested_list_table(corpus_reps):
    for entry in corpus_reps[::9]:
        G = parse_group_spec(entry.spec)
        verdict, built = _classify_path_groups(G)
        assert verdict.realizable == classify(entry.group).realizable
        for H in built:
            assert _nested_list_tables(H) == [], (entry.spec, H)


def _retained(call):
    """(result of call(), bytes allocated by the call and still held after it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_searches_retain_no_table_sized_copy(relabel):
    # the homomorphism search reads table columns and keeps none of them: a
    # search leaves behind less than the table itself, besides its result
    G = LARGE_TABLES["semidirect-1008"]()
    H = relabel(G, np.random.default_rng(18))
    iso, retained = _retained(lambda: find_isomorphism(G, H))
    assert iso is not None and retained < G.table.nbytes, retained
    G = LARGE_TABLES["semidirect-672"]()
    auts, retained = _retained(lambda: automorphism_group(G, max_count=10_000))
    assert len(auts) == 5376
    assert retained - auts.nbytes < G.table.nbytes, retained


# -- C-group recognition, exhaustively at small orders --------------------------


def small_presentations():
    """Every valid C(e, d, k) of order <= 120."""
    out = []
    for e in range(1, 121):
        for d in range(1, 120 // e + 1):
            for k in range(e):
                try:
                    out.append(CGroupPresentation(e, d, k))
                except GroupDefinitionError:
                    continue
    return out


def test_recognize_cgroup_on_every_small_presentation():
    # every valid C(e, d, k) of order <= 120, the 195 of odd order among
    # them: ``decompose`` and ``classify_rump`` treat an odd Hall part as
    # a C-group exactly when ``recognize_cgroup`` accepts it
    cases = 0
    for pres in small_presentations():
        cases += 1
        G = cgroup_group(pres)
        found, x, y = recognize_cgroup(G)
        assert found.order == G.order == pres.order, pres
        assert G.order_of(x) == found.e and G.order_of(y) == found.d, pres
        assert G.conj(x, y) == G.power(x, found.k), pres
    assert cases == 637


def test_every_canonical_automorphism_preserves_the_relations(ref_preserves_relations):
    # the lemma that lets ``CGroupAut`` build an automorphism from (c, u, v)
    # alone: theta^c phi_u psi_v, for every c and every unit u mod e and v
    # mod d with k^v = k, sends x and y to images meeting the relations
    count = 0
    for pres in small_presentations():
        for aut in cgroups.cgroup_auts(pres):
            ref_preserves_relations(aut)
            count += 1
    assert count == 81471
    # the reference rejects y -> y^2 in C(7, 3, 2), where 2^2 != 2 mod 7
    pres = CGroupPresentation(7, 3, 2)
    squaring = SimpleNamespace(pres=pres, apply=lambda i, j: (i % 7, 2 * j % 3))
    with pytest.raises(HomomorphismError, match="conjugation relation"):
        ref_preserves_relations(squaring)


def test_recognizer_matches_reference_on_small_presentations(relabel,
                                                             ref_recognize_cgroup):
    rng = np.random.default_rng(29)
    for pres in small_presentations():
        G = cgroup_group(pres)
        for H in (G, relabel(G, rng)):
            assert recognize_cgroup(H) == ref_recognize_cgroup(H), (pres, H)


def test_recognizer_matches_reference_on_corpus_and_large_tables(
        corpus_reps, relabel, ref_recognize_cgroup):
    rng = np.random.default_rng(30)
    tables = [build() for build in LARGE_TABLES.values()]
    tables += [relabel(G, rng) for G in tables]
    recognized = set()
    for G in [H for e in corpus_reps for H in (e.group, relabel(e.group, rng))] + tables:
        want = ref_recognize_cgroup(G)
        assert recognize_cgroup(G) == want, G
        recognized.add(want is not None)
    assert recognized == {True, False}


def test_recognizer_matches_reference_on_coprime_products(relabel, ref_recognize_cgroup):
    # direct products of two C-groups of coprime orders, of order <= 400
    pool = [cgroup_group(pres) for pres in small_presentations() if pres.order > 1]
    pairs = [(A, B) for i, A in enumerate(pool) for B in pool[i + 1:]
             if A.order * B.order <= 400 and math.gcd(A.order, B.order) == 1]
    rng = np.random.default_rng(31)
    for i in rng.choice(len(pairs), size=60, replace=False).tolist():
        G = direct_product(*pairs[i])
        for H in (G, relabel(G, rng)):
            want = ref_recognize_cgroup(H)
            assert want is not None and recognize_cgroup(H) == want, H


def test_odd_part_matches_reference_on_its_own_table(corpus_reps, relabel, as_subgroup,
                                                     ref_recognize_cgroup):
    # M recognized inside N, against the reference run on M's own table
    rng = np.random.default_rng(32)
    groups_ = [H for e in corpus_reps for H in (e.group, relabel(e.group, rng))]
    groups_ += [build() for build in LARGE_TABLES.values()]
    outcomes = set()
    for N in groups_:
        m_elems = normal_hall_odd_subgroup(N)
        M, to_parent = as_subgroup(N, m_elems)
        ref = ref_recognize_cgroup(M)
        want = None if ref is None else (ref[0], to_parent[ref[1]], to_parent[ref[2]])
        assert recognize_cgroup(N, len(m_elems)) == want, N
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_recognizer_closes_no_subgroup_and_tests_no_normality(monkeypatch, corpus_reps):
    # fresh groups, nothing memoized: the corpus and every C(e, d, k) of
    # order <= 120, the odd part of each recognized inside it
    fresh = [parse_group_spec(entry.spec) for entry in corpus_reps]
    fresh += [cgroup_group(pres) for pres in small_presentations()]

    def fail(*args, **kwargs):
        raise AssertionError("recognition closed a subgroup or tested normality")
    for module in (groups, cgroups, realizability):
        for name in ("subgroup_generated", "is_normal"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)
    monkeypatch.setattr(FiniteGroup, "generator_conjugations", property(fail))
    recognized = [recognize_cgroup(N) is not None for N in fresh]
    corpus_count = len(corpus_reps)  # no corpus group is a C-group
    assert recognized == [False] * corpus_count + [True] * (len(fresh) - corpus_count)
    assert all(recognize_cgroup(N, len(normal_hall_odd_subgroup(N))) is not None
               for N in fresh)


def test_every_cgroup_reaches_the_cgroup_step_through_decompose():
    # Burnside's normal p-complement theorem puts the odd-part step first:
    # every C(e, d, k) of order <= 120, and each direct product with C2, C4
    # and C8, has an odd Hall part that is a C-group, so ``decompose``
    # reaches its C-group test; a product is a C-group exactly when the
    # C(e, d, k) has odd order
    twos = [cyclic_group(2 ** a) for a in (1, 2, 3)]
    odd = 0
    for pres in small_presentations():
        G = cgroup_group(pres)
        assert decompose(G) == realizability.REASON_CGROUP, pres
        for C in twos:
            H = direct_product(G, C)
            step = decompose(H)
            assert step != realizability.REASON_NOT_2NILPOTENT, (pres, C.order)
            assert (step == realizability.REASON_CGROUP) == (pres.order % 2 == 1) == \
                (recognize_cgroup(H) is not None), (pres, C.order)
        odd += pres.order % 2
    assert odd == 195
