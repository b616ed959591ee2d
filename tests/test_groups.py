"""Cayley-table core: constructors, subgroup machinery, search routines."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoreg import (BoundExceeded, FiniteGroup, GroupDefinitionError,
                     Homomorphism, HomomorphismError, all_homomorphisms,
                     automorphism_group, center,
                     commutator_subgroup, cyclic_group, dihedral_group,
                     direct_product, find_isomorphism, is_cgroup, is_normal,
                     is_subgroup,
                     normal_hall_odd_subgroup, quaternion_group,
                     quotient_group, semidirect_product, subgroup_generated,
                     sylow_subgroup, CGroupPresentation, cgroup_aut_group,
                     cgroup_group, cgroup_pool, parse_group_spec)
from holoreg import groups
from holoreg.realizability import TWO_GROUP_SPECS
from holoreg.groups import (_fingerprints, _homomorphism_search,
                            generating_set)


def klein_group():
    return dihedral_group(4)


# -- constructors ------------------------------------------------------------


def test_cyclic_trivial_group():
    G = cyclic_group(1)
    assert G.order == 1 and G.identity == 0


def test_cyclic_generator_has_full_order():
    G = cyclic_group(6)
    assert G.order_of(1) == 6


def test_cyclic_generator_count_matches_totient():
    G = cyclic_group(12)
    generators = [g for g in range(12) if G.order_of(g) == 12]
    assert len(generators) == 4  # phi(12), by scanning orders


def test_cyclic_rejects_zero():
    with pytest.raises(GroupDefinitionError):
        cyclic_group(0)


def test_dihedral_4_is_klein():
    G = klein_group()
    assert np.array_equal(G.table, G.table.T)
    assert all(G.order_of(g) <= 2 for g in range(4))


def test_dihedral_8_center():
    G = dihedral_group(8)
    assert set(center(G)) == {G.identity, G.power(2, 2)}  # r sits at index 2


def test_dihedral_16_generator_orders():
    G = dihedral_group(16)
    r, s = 2, 1
    assert G.order_of(r) == 8
    assert G.order_of(s) == 2


def test_dihedral_rejects_bad_orders():
    for bad in (2, 6, 12):
        with pytest.raises(GroupDefinitionError):
            dihedral_group(bad)


def test_quaternion_8_order_profile():
    G = quaternion_group(8)
    profile = sorted(G.order_of(g) for g in range(8))
    assert profile == [1, 2, 4, 4, 4, 4, 4, 4]


def test_quaternion_s_squared_is_r_squared():
    G = quaternion_group(8)
    r, s = 2, 1
    assert G.mul(s, s) == G.power(r, 2)


def test_quaternion_16_unique_involution():
    G = quaternion_group(16)
    r = 2
    involutions = [g for g in range(16) if G.order_of(g) == 2]
    assert involutions == [G.power(r, 4)]


def test_quaternion_rejects_order_4():
    with pytest.raises(GroupDefinitionError):
        quaternion_group(4)


def test_trivial_action_gives_direct_product():
    G = direct_product(cyclic_group(3), klein_group())
    assert G.order == 12
    assert np.array_equal(G.table, G.table.T)


def test_semidirect_validates_action():
    M = cyclic_group(5)
    P = cyclic_group(2)
    bad = np.array([[0, 1, 2, 3, 4], [0, 2, 4, 1, 3]], dtype=np.int32)
    # x -> x^2 has order 4 mod 5, not an involution: not a homomorphism from C2
    with pytest.raises(HomomorphismError):
        semidirect_product(M, P, bad)


def test_semidirect_names_the_first_failing_element():
    M, P = cyclic_group(5), cyclic_group(4)
    ident, swap = [0, 1, 2, 3, 4], [0, 2, 1, 3, 4]
    cases = [
        ([ident, [0, 1, 1, 3, 4], ident, ident], "element 1 is not a permutation"),
        ([ident, swap, [0, 0, 1, 2, 3], ident], "element 1 is not an automorphism"),
        ([ident, ident, [0, 1, 2, 3, 9], swap], "element 2 is not a permutation"),
        ([ident, ident, ident, swap], "element 3 is not an automorphism"),
        # every row inverts, but 1 + 1 = 2 in C4 needs row 2 to be ident
        ([ident] + [[0, 4, 3, 2, 1]] * 3, "action is not a homomorphism into Aut"),
    ]
    for rows, message in cases:
        with pytest.raises(HomomorphismError, match=message):
            semidirect_product(M, P, np.array(rows, dtype=np.int32))


def _all_pairs_action_error(M, P, act):
    """The message of the all-pairs action check ``semidirect_product`` once
    made, kept as the reference, or None when it accepts ``act``."""
    not_perm = (np.sort(act, axis=1) != np.arange(M.order)).any(axis=1)
    first_bad = int(np.argmax(not_perm)) if not_perm.any() else P.order
    perms = act[:first_bad]
    not_aut = (perms[:, M.table]
               != M.table[perms[:, :, None], perms[:, None, :]]).any(axis=(1, 2))
    if not_aut.any():
        return f"action of element {int(np.argmax(not_aut))} is not an automorphism"
    if first_bad < P.order:
        return f"action of element {first_bad} is not a permutation"
    if not np.array_equal(act[P.table], act[:, act]):
        return "action is not a homomorphism into Aut(M)"
    return None


def test_semidirect_check_matches_all_pairs_reference():
    # every assignment of a row to each element of C4 and of the Klein
    # group: the four automorphisms x -> k x of C5, a permutation that is not
    # one, and a row that is not a permutation
    M = cyclic_group(5)
    x = np.arange(5)
    rows = [k * x % 5 for k in (1, 2, 3, 4)] + [[0, 2, 1, 3, 4], [0, 1, 1, 3, 4]]
    for P in (cyclic_group(4), klein_group()):
        accepted = 0
        for choice in itertools.product(range(len(rows)), repeat=P.order):
            act = np.array([rows[c] for c in choice], dtype=np.int32)
            expected = _all_pairs_action_error(M, P, act)
            try:
                semidirect_product(M, P, act)
                message = None
            except HomomorphismError as exc:
                message = str(exc)
            assert message == expected, choice
            accepted += expected is None
        assert accepted == 4  # |Hom(P, Aut(C5))| = |Hom(P, C4)|


def test_semidirect_embeds_normal_factor():
    pres = CGroupPresentation(7, 3, 2)
    M = cgroup_group(pres)
    P = klein_group()
    # alpha(r) = id, alpha(s) inverts the x factor
    from holoreg import CGroupAut
    coords = [M.label(i) for i in range(M.order)]
    index_m = {lab: i for i, lab in enumerate(coords)}
    phi_neg = CGroupAut(pres, 0, 6, 1)
    ident = CGroupAut(pres, 0, 1, 1)
    acts = {(0, 0): ident, (1, 0): ident, (0, 1): phi_neg, (1, 1): phi_neg}
    perms = [acts[P.label(t)].as_permutation(coords, index_m) for t in range(P.order)]
    N = semidirect_product(M, P, perms)
    assert N.order == 84
    m_inside = tuple(range(0, 84, 4))  # (m, identity) pairs sit at index m*|P|
    assert is_subgroup(N, m_inside)
    assert is_normal(N, m_inside)
    odd = normal_hall_odd_subgroup(N)
    assert odd == m_inside


def test_conjugation_inside_semidirect_recovers_action():
    M = cyclic_group(7)
    P = cyclic_group(2)
    inversion = np.array([np.arange(7), (-np.arange(7)) % 7], dtype=np.int32)
    N = semidirect_product(M, P, inversion)
    t = 1  # the element (0, 1) of order 2
    for m in range(7):
        embedded = m * 2  # (m, 0)
        assert N.conj(embedded, t) == ((7 - m) % 7) * 2


# -- element and subgroup machinery -------------------------------------------


def test_identity_has_order_one():
    assert dihedral_group(16).order_of(0) == 1


def test_element_order_in_presented_group():
    G = cgroup_group(CGroupPresentation(7, 3, 2))
    xy = G.labels.index((1, 1))
    assert G.order_of(xy) == 3


def test_power_negative_exponent():
    G = cyclic_group(12)
    assert G.power(1, -1) == 11


def test_subgroup_generated_whole_group():
    G = dihedral_group(8)
    assert len(subgroup_generated(G, [2, 1])) == 8


def test_sylow_of_cyclic_group(as_subgroup):
    G = cyclic_group(12)
    syl = sylow_subgroup(G, 2)
    assert len(syl) == 4
    H, _ = as_subgroup(G, syl)
    assert max(int(o) for o in H.orders) == 4  # the unique C4


def test_sylow_of_order_84_group(as_subgroup):
    D14 = cgroup_group(CGroupPresentation(7, 2, 6))
    D6 = cgroup_group(CGroupPresentation(3, 2, 2))
    N = direct_product(D14, D6)
    syl = sylow_subgroup(N, 2)
    assert len(syl) == 4
    H, _ = as_subgroup(N, syl)
    assert all(int(o) <= 2 for o in H.orders)  # exponent 2


def test_sylow_7_of_frobenius_double():
    G = cgroup_group(CGroupPresentation(7, 6, 3))  # order 42
    syl = sylow_subgroup(G, 7)
    assert len(syl) == 7


def test_sylow_rejects_composite():
    with pytest.raises(GroupDefinitionError):
        sylow_subgroup(cyclic_group(12), 4)


def test_cgroup_predicate():
    assert is_cgroup(cyclic_group(30))
    assert is_cgroup(cgroup_group(CGroupPresentation(3, 2, 2)))  # S3
    assert not is_cgroup(dihedral_group(8))
    assert not is_cgroup(klein_group())


def test_center_and_commutator_of_two_groups():
    for P in (dihedral_group(8), dihedral_group(16),
              quaternion_group(8), quaternion_group(16)):
        r = 2
        derived = commutator_subgroup(P)
        expected = subgroup_generated(P, [P.power(r, 2)])
        assert derived == expected


def test_quotient_by_commutator_is_klein():
    for P in (dihedral_group(8), dihedral_group(16),
              quaternion_group(8), quaternion_group(16)):
        Q, _ = quotient_group(P, commutator_subgroup(P))
        assert Q.order == 4
        assert find_isomorphism(Q, klein_group()) is not None


def test_quotient_requires_normal_subgroup():
    G = cgroup_group(CGroupPresentation(3, 2, 2))
    reflection = G.labels.index((0, 1))
    with pytest.raises(GroupDefinitionError):
        quotient_group(G, subgroup_generated(G, [reflection]))


def test_is_normal_matches_the_definition(all_subgroups):
    S3 = cgroup_group(CGroupPresentation(3, 2, 2))
    for G in (S3, dihedral_group(8), quaternion_group(8), dihedral_group(16)):
        subsets = all_subgroups(G) + [(G.identity, 1), (), tuple(range(G.order))]
        verdicts = set()
        for elems in subsets:
            by_definition = all(G.conj(a, g) in elems
                                for a in elems for g in range(G.order))
            assert is_normal(G, elems) == by_definition
            assert is_normal(G, iter(elems)) == by_definition
            verdicts.add(by_definition)
        assert verdicts == {True, False}


def test_normal_hall_odd_subgroup_absent_in_alternating_group():
    # A4 as the Klein group extended by a 3-cycle rotation of coordinates
    K = klein_group()
    P = cyclic_group(3)
    rot = {0: 0, 1: 2, 2: 3, 3: 1}  # cycles the three involutions
    perm1 = [rot[g] for g in range(4)]
    perm2 = [rot[rot[g]] for g in range(4)]
    A4 = semidirect_product(K, P, [list(range(4)), perm1, perm2])
    assert A4.order == 12
    assert normal_hall_odd_subgroup(A4) is None


# -- automorphisms and isomorphisms ---------------------------------------------


def test_automorphism_count_cyclic_7():
    assert len(automorphism_group(cyclic_group(7))) == 6


def test_automorphism_count_klein():
    assert len(automorphism_group(klein_group())) == 6


def test_automorphism_count_frobenius_21():
    G = cgroup_group(CGroupPresentation(7, 3, 2))
    assert len(automorphism_group(G)) == 42


@pytest.mark.parametrize("n", range(1, 65))
def test_cyclic_automorphism_counts_match_totient(n):
    phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
    assert len(automorphism_group(cyclic_group(n))) == phi


def test_automorphisms_are_valid_homomorphisms():
    G = dihedral_group(16)
    for images in automorphism_group(G):
        assert Homomorphism(G, G, images).is_bijective  # re-validates the product rule


def test_automorphism_array_is_a_read_only_memo():
    G = dihedral_group(16)
    perms = automorphism_group(G)
    before = perms.copy()
    with pytest.raises(ValueError):
        perms[0, 1] = 0
    assert np.array_equal(automorphism_group(G), before)
    assert automorphism_group(G) is perms


def _aut_search_cases(cgroup_test_groups, corpus_reps):
    c2 = cyclic_group(2)
    return ([G for _, G in cgroup_test_groups]
            + [dihedral_group(8), quaternion_group(8), dihedral_group(16),
               quaternion_group(16), direct_product(direct_product(c2, c2), c2)]
            + [e.group for e in corpus_reps if e.group.order <= 64][::3])


def _assert_searches_agree(G, H, cands, injective, ref_homomorphism_search):
    gens = generating_set(G)
    search = _homomorphism_search(G, H, gens, injective)
    ref = ref_homomorphism_search(G, H, gens, injective)
    for first_only in (False, True):
        assert search(cands, first_only) == ref(cands, first_only), (G, H)


def test_automorphism_group_matches_plain_search(cgroup_test_groups, corpus_reps,
                                                 ref_homomorphism_search, relabel):
    # the stabilizer chain lists the images of the two-pass reference DFS, in
    # the same order; the one-pass search agrees with it on automorphisms,
    # on endomorphisms (not injective) and when it stops at the first
    rng = np.random.default_rng(15)
    for given in _aut_search_cases(cgroup_test_groups, corpus_reps):
        for G in (given, relabel(given, rng)):
            gens = generating_set(G)
            fps = _fingerprints(G)
            auts = [[h for h in range(G.order) if fps[h] == fps[g]] for g in gens]
            ends = [[h for h in range(G.order) if G.orders[g] % G.orders[h] == 0]
                    for g in gens]
            _assert_searches_agree(G, G, auts, True, ref_homomorphism_search)
            _assert_searches_agree(G, G, ends, False, ref_homomorphism_search)
            plain = ref_homomorphism_search(G, G, gens, True)(auts)
            assert list(map(tuple, automorphism_group(G).tolist())) == plain


def test_corpus_action_search_matches_plain_search(ref_homomorphism_search):
    # all_homomorphisms(P, Aut(M)) as the corpus calls it
    for pres in cgroup_pool():
        A = cgroup_aut_group(pres)
        for spec in TWO_GROUP_SPECS:
            P = parse_group_spec(spec)
            gens = generating_set(P)
            cands = [[h for h in range(A.order) if P.orders[g] % A.orders[h] == 0]
                     for g in gens]
            plain = ref_homomorphism_search(P, A, gens, False)(cands)
            assert list(map(tuple, all_homomorphisms(P, A).tolist())) == plain


def test_homomorphisms_from_cyclic_groups_match_plain_search(corpus_reps, relabel,
                                                             ref_homomorphism_search):
    # all_homomorphisms(cyclic_group(n), N) as fpf_search calls it, and from
    # cyclic groups whose order divides n or not; each source also relabelled,
    # so that its generator is not at index 1
    rng = np.random.default_rng(16)
    targets = [entry.group for entry in corpus_reps[::12]]
    targets += [cgroup_group(pres) for pres in cgroup_pool()] + [klein_group()]
    for N in targets:
        for m in (N.order, 1, 2, 6, 9):
            for G in (cyclic_group(m), relabel(cyclic_group(m), rng)):
                gens = generating_set(G)
                cands = [[h for h in range(N.order) if G.orders[g] % N.orders[h] == 0]
                         for g in gens]
                plain = ref_homomorphism_search(G, N, gens, False)(cands)
                assert list(map(tuple, all_homomorphisms(G, N).tolist())) == plain, (G, N)


def _c8_c2_by(image_a):
    """(C8 x C2) x| C2, the C2 acting by a -> image_a, b -> b on a = (1, 0)
    and b = (0, 1); the element (m, t) of C8 x C2 has index 2 m + t."""
    p, q = image_a
    m, t = np.arange(16) // 2, np.arange(16) % 2
    return semidirect_product(direct_product(cyclic_group(8), cyclic_group(2)),
                              cyclic_group(2),
                              [np.arange(16), 2 * (m * p % 8) + (m * q + t) % 2])


def _assert_isomorphisms_agree(G, H, ref_homomorphism_search):
    """``find_isomorphism`` and the same fingerprint-candidate search run by
    the two-pass reference agree on None against found and on the images."""
    want = None
    fps_G, fps_H = _fingerprints(G), _fingerprints(H)
    if G.order == H.order and sorted(fps_G) == sorted(fps_H):
        gens = generating_set(G)
        cands = [[h for h in range(H.order) if fps_H[h] == fps_G[g]] for g in gens]
        found = ref_homomorphism_search(G, H, gens, True)(cands, first_only=True)
        want = found[0] if found else None
    got = find_isomorphism(G, H)
    assert (None if got is None else got.images) == want, (G, H)
    return got


def test_isomorphism_search_matches_plain_search_on_corpus_duplicates(
        corpus, duplicate_of, monkeypatch, ref_homomorphism_search, relabel):
    # every same-bucket pair that the reference deduplication compares on
    # the corpus splits, as given and with the second group relabelled; the
    # pool's one pair is covered by test_cgroup_pool_matches_isomorphism_search
    pairs = []

    def recording(G, H):
        pairs.append((G, H))
        return find_isomorphism(G, H)

    monkeypatch.setitem(duplicate_of.__globals__, "find_isomorphism", recording)
    assert (duplicate_of([e.group for e in corpus])
            == [e.duplicate_of for e in corpus])
    monkeypatch.undo()
    assert len(corpus) == 435 and len(pairs) == 233
    rng = np.random.default_rng(18)
    for G, H in pairs:
        for target in (H, relabel(H, rng)):
            assert _assert_isomorphisms_agree(G, target, ref_homomorphism_search) is not None


def test_isomorphism_search_refutes_groups_with_equal_fingerprints(
        ref_homomorphism_search, relabel):
    # non-isomorphic pairs that no fingerprint tells apart, so the search runs
    c4 = cyclic_group(4)
    pairs = [(direct_product(quaternion_group(8), cyclic_group(2)),
              semidirect_product(c4, c4, [[0, 1, 2, 3], [0, 3, 2, 1]] * 2)),
             (_c8_c2_by((1, 1)), _c8_c2_by((5, 0))),
             (_c8_c2_by((3, 0)), _c8_c2_by((3, 1)))]
    rng = np.random.default_rng(16)
    for first, second in pairs:
        for G, H in ((first, second), (second, relabel(first, rng)),
                     (relabel(first, rng), relabel(second, rng))):
            assert sorted(_fingerprints(G)) == sorted(_fingerprints(H))
            assert _assert_isomorphisms_agree(G, H, ref_homomorphism_search) is None
            fps_G, fps_H = _fingerprints(G), _fingerprints(H)
            cands = [[h for h in range(H.order) if fps_H[h] == fps_G[g]]
                     for g in generating_set(G)]
            _assert_searches_agree(G, H, cands, True, ref_homomorphism_search)


@pytest.fixture(scope="module")
def small_groups(corpus_reps):
    """Corpus representatives of order <= 60 and small direct products."""
    c2, c3, c4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    products = [direct_product(c2, c2), direct_product(direct_product(c2, c2), c2),
                direct_product(c3, c3), direct_product(c2, c4), direct_product(c4, c4),
                direct_product(dihedral_group(8), c2), direct_product(quaternion_group(8), c3),
                direct_product(cgroup_group(CGroupPresentation(3, 2, 2)), c3),
                direct_product(c2, cyclic_group(6))]
    return [e.group for e in corpus_reps if e.group.order <= 60] + products


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_automorphisms_and_isomorphisms_survive_relabelling(small_groups, relabel, data):
    G = data.draw(st.sampled_from(small_groups))
    H = relabel(G, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    assert (len(automorphism_group(G, max_count=100_000))
            == len(automorphism_group(H, max_count=100_000))), G
    assert isinstance(find_isomorphism(G, H), Homomorphism), G


def test_automorphism_count_bound_is_exact(cgroup_test_groups, corpus_reps):
    for G in _aut_search_cases(cgroup_test_groups, corpus_reps):
        count = len(automorphism_group(G))
        if count == 1:
            continue
        fresh = FiniteGroup(G.table, labels=G.labels)  # nothing memoized yet
        with pytest.raises(BoundExceeded,
                           match=f"more than {count - 1} homomorphisms found"):
            automorphism_group(fresh, max_count=count - 1)
        assert len(automorphism_group(fresh, max_count=count)) == count
        with pytest.raises(BoundExceeded,  # the memoized count, same text
                           match=f"more than {count - 1} homomorphisms found"):
            automorphism_group(fresh, max_count=count - 1)


def test_automorphism_chain_matches_reference(corpus_reps, relabel, ref_automorphisms):
    # the same array or the same refusal as the chain that checked max_count
    # only after each level, at bounds on both sides of |Aut| and |Inn|.  That
    # chain's checked products grow to |Aut|, so it refuses m exactly when
    # |Aut| > m, with the text of its last check.
    chain = groups._automorphisms.__wrapped__  # not memoized
    rng = np.random.default_rng(19)
    for entry in corpus_reps:
        for G in (entry.group, relabel(entry.group, rng)):
            want = ref_automorphisms(G, None)
            count = len(want)
            inn = math.prod(groups._inner_orbit_sizes(G, generating_set(G)))
            assert inn == G.order // len(center(G)) and count % inn == 0, G
            for m in (None, count, count - 1, inn - 1, 100_000 // G.order, 1):
                try:
                    got = chain(G, m)
                except BoundExceeded as exc:
                    with pytest.raises(BoundExceeded, match=f"^{exc}$"):
                        groups._check_count(count, m)
                else:
                    assert m is None or count <= m, (G, m)
                    assert np.array_equal(got, want), (G, m)


def test_inner_automorphisms_refuse_before_any_search(monkeypatch):
    G = cgroup_group(CGroupPresentation(7, 3, 2))  # Z(G) = 1, |Inn(G)| = 21

    def no_search(*args, **kwargs):
        raise AssertionError("searched")
    monkeypatch.setattr(groups, "_homomorphism_search", no_search)
    with pytest.raises(BoundExceeded, match="more than 20 homomorphisms found"):
        automorphism_group(G, max_count=20)
    assert groups._automorphisms.__wrapped__ not in G.memo  # a refusal memoizes nothing
    monkeypatch.undo()
    assert len(automorphism_group(G, max_count=42)) == 42


def test_generators_are_the_greedy_sequence_and_generate(corpus_reps, relabel):
    rng = np.random.default_rng(23)
    for entry in corpus_reps:
        for G in (entry.group, relabel(entry.group, rng)):
            gens = G.generators
            assert subgroup_generated(G, gens) == tuple(range(G.order)), G
            for j, g in enumerate(gens):  # the least index not yet reached
                reached = set(subgroup_generated(G, gens[:j]))
                assert g == min(set(range(G.order)) - reached), (G, j)
    assert cyclic_group(1).generators == ()


def test_searches_have_no_order_cutoff():
    assert len(automorphism_group(cyclic_group(257))) == 256
    iso = find_isomorphism(cyclic_group(260),
                           direct_product(cyclic_group(4), cyclic_group(65)))
    assert iso is not None and iso.is_bijective


def test_generating_set_is_the_greedy_choice():
    # the greedy rule, with no element skipped
    def greedy(G):
        gens, current = [], (G.identity,)
        while len(current) < G.order:
            best = max(range(G.order),
                       key=lambda g: (len(subgroup_generated(G, gens + [g])), -g))
            gens.append(best)
            current = subgroup_generated(G, gens)
        return gens
    c2 = cyclic_group(2)
    for G in (cyclic_group(1), cyclic_group(12), dihedral_group(16),
              quaternion_group(16), direct_product(direct_product(c2, c2), c2),
              cgroup_group(CGroupPresentation(7, 9, 2))):
        assert generating_set(G) == tuple(greedy(G))
        assert generating_set(G) is generating_set(G)  # memoized per group


def test_characteristic_subgroups_of_klein(characteristic_subgroups):
    subs = characteristic_subgroups(klein_group())
    assert subs == [(0,), (0, 1, 2, 3)]


def test_all_subgroups_of_quaternion_8(all_subgroups):
    subs = all_subgroups(quaternion_group(8))
    assert len(subs) == 6  # 1, center, three C4, Q8


def test_odd_normal_part_is_characteristic_in_order_84_group(characteristic_subgroups):
    D14 = cgroup_group(CGroupPresentation(7, 2, 6))
    D6 = cgroup_group(CGroupPresentation(3, 2, 2))
    N = direct_product(D14, D6)
    odd = normal_hall_odd_subgroup(N)
    assert odd is not None and len(odd) == 21
    assert odd in characteristic_subgroups(N)


def test_find_isomorphism_rejects_c4_vs_klein():
    assert find_isomorphism(cyclic_group(4), klein_group()) is None


def test_find_isomorphism_klein_vs_product():
    target = direct_product(cyclic_group(2), cyclic_group(2))
    iso = find_isomorphism(klein_group(), target)
    assert iso is not None and iso.is_bijective


def test_find_isomorphism_rejects_q8_vs_d8():
    assert find_isomorphism(quaternion_group(8), dihedral_group(8)) is None


def test_all_homomorphisms_c4_to_c2():
    homs = all_homomorphisms(cyclic_group(4), cyclic_group(2))
    assert len(homs) == 2


def test_all_homomorphisms_checks_the_rows_it_returns(monkeypatch):
    # the search's rows get the one respects_product check: a row with one
    # wrong image is refused (two homomorphisms agreeing on all but one
    # element of a group of order > 2 agree everywhere)
    G = klein_group()
    search = groups._homomorphism_search

    def one_wrong_image(*args, **kwargs):
        inner = search(*args, **kwargs)

        def wrong(cands, first_only=False):
            rows = inner(cands, first_only)
            last = list(rows[-1])
            last[-1] = (last[-1] + 1) % G.order
            return rows[:-1] + [tuple(last)]
        return wrong

    assert len(all_homomorphisms(G, G)) == 16
    monkeypatch.setattr(groups, "_homomorphism_search", one_wrong_image)
    with pytest.raises(HomomorphismError):
        all_homomorphisms(G, G)


def test_homomorphism_validation_rejects_non_hom():
    G = cyclic_group(4)
    with pytest.raises(HomomorphismError):
        Homomorphism(G, G, (0, 1, 2, 0))


def test_homomorphism_validation_rejects_out_of_range_images():
    G = cyclic_group(4)
    with pytest.raises(HomomorphismError):
        Homomorphism(G, G, (0, 1, 2, 7))
    with pytest.raises(HomomorphismError):
        Homomorphism(G, G, (0, 1, 2, -1))


# -- table invariants ------------------------------------------------------------


def test_constructor_rejects_non_latin_table():
    with pytest.raises(GroupDefinitionError):
        FiniteGroup([[0, 0], [1, 1]])


def test_constructor_rejects_non_associative_table(loop_table):
    # Latin squares with identity that fail associativity: an order-5 loop,
    # and its product with C_103, of order 515
    for m in (1, 103):
        with pytest.raises(GroupDefinitionError):
            FiniteGroup(loop_table(m))


def test_trivial_group_is_valid():
    G = FiniteGroup([[0]])
    assert G.order == 1 and is_cgroup(G)


def test_label_round_trip_in_presented_groups():
    pres = CGroupPresentation(7, 3, 2)
    G = cgroup_group(pres)
    for g in range(G.order):
        i, j = G.label(g)
        for h in range(G.order):
            i2, j2 = G.label(h)
            # x^i y^j x^i2 y^j2 = x^(i + i2 k^j) y^(j + j2)
            assert G.label(G.mul(g, h)) == ((i + i2 * pow(pres.k, j, pres.e)) % pres.e,
                                            (j + j2) % pres.d)


def test_twogroup_label_relation():
    # y^j x^i = x^(i k^j) y^j analogue: s r = r^-1 s in dihedral coordinates
    G = dihedral_group(16)
    r, s = 2, 1
    assert G.mul(s, r) == G.mul(G.power(r, 7), s)
