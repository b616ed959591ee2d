"""Holomorph pairs, regular subgroups, crossed pairs, braces, and fpf pairs."""

import inspect
import random
import sys
import tracemalloc

import numpy as np
import pytest

from holoreg import (CGroupPresentation, CrossedHom, FiniteGroup,
                     GroupDefinitionError, HolElement, HolElements, all_regular_subgroups,
                     automorphism_group, cgroup_group, conjugation_perm,
                     crossed_from_regular, cyclic_group,
                     cyclic_regular_oracle, dihedral_group, direct_product,
                     find_isomorphism, is_regular_subgroup,
                     lambda_embedding, parse_group_spec, quaternion_group,
                     recognize_cgroup,
                     regular_from_crossed,
                     regular_subgroup_as_group,
                     regular_subgroups_isomorphic_to, rho_embedding,
                     skew_brace_from_regular, subgroup_generated_by_hol,
                     BoundExceeded)
from holoreg import groups
from holoreg.holomorph import _composition_index
from holoreg.realizability import classify


def klein_group():
    return dihedral_group(4)


# -- pair arithmetic ----------------------------------------------------------


def _actions(elements):
    return np.array([h.action_perm() for h in elements])


def test_pair_composition_matches_action_composition(hol_elements, hol_group):
    # the array product of hol_group, (a, p)(b, q) = (a p(b), p o q), acts
    # as the composed actions
    for N in (klein_group(), dihedral_group(8), cyclic_group(6)):
        elements = hol_elements(N)
        H = hol_group(N)
        assert [H.label(i) for i in range(H.order)] == \
            list(zip(elements.translations.tolist(), elements.twists.tolist()))
        acts = _actions(elements)
        m = len(acts)
        chained = acts[np.arange(m)[:, None, None], acts[None, :, :]]
        assert np.array_equal(acts[H.table], chained)


def test_inverse_and_identity(hol_elements, hol_group):
    # hol_group's identity and inverses act as the identity and the inverse
    # permutations; the array powers of subgroup_generated_by_hol are the
    # powers of the action and end at the identity
    N = dihedral_group(8)
    elements = hol_elements(N)
    H = hol_group(N)
    acts = _actions(elements)
    ident = np.arange(N.order)
    assert np.array_equal(acts[H.identity], ident)
    assert (np.take_along_axis(acts[H.inverses], acts, axis=1) == ident).all()
    assert (np.take_along_axis(acts, acts[H.inverses], axis=1) == ident).all()
    for h, act in zip(elements, acts):
        powers = subgroup_generated_by_hol(h)
        assert len(powers) == h.order()
        cur = ident
        for power in powers:
            assert np.array_equal(power.action_perm(), cur)
            cur = cur[act]
        assert np.array_equal(cur, ident)


def test_hol_order_small_groups():
    for N, order in ((cyclic_group(3), 6), (klein_group(), 24)):
        assert N.order * len(automorphism_group(N)) == order


def test_holomorph_order_and_element_orders_from_pairs(hol_group):
    # what the demos read off the (translation, twist) pairs is what the
    # dense table says: |Hol(N)| = n |Aut(N)| and the set of element orders
    for N in (dihedral_group(8), cgroup_group(CGroupPresentation(7, 2, 6)),
              cgroup_group(CGroupPresentation(3, 2, 2)), klein_group(),
              cyclic_group(9), quaternion_group(8)):
        ref = hol_group(N)
        auts = automorphism_group(N).tolist()
        assert N.order * len(auts) == ref.order, N.name
        assert {HolElement(N, a, p).order() for a in range(N.order) for p in auts} == \
            set(ref.orders.tolist()), N.name


def test_hol_group_c3(hol_group):
    H = hol_group(cyclic_group(3))
    assert H.order == 6
    # it is the symmetric group on 3 points, not abelian
    assert not np.array_equal(H.table, H.table.T)


def test_hol_group_klein_is_symmetric_4(hol_group):
    H = hol_group(klein_group())
    from itertools import permutations
    # row i of the table holds the index of p_i o p_j
    S4 = FiniteGroup(_composition_index(np.array(list(permutations(range(4))))))
    assert find_isomorphism(H, S4) is not None


def test_hol_group_respects_bound(hol_group):
    with pytest.raises(BoundExceeded):
        hol_group(direct_product(cyclic_group(4), cyclic_group(4)), bound=100)
    with pytest.raises(BoundExceeded,  # |Aut| = 1 fits, n = 2 does not
                       match="holomorph order 2 exceeds bound 1"):
        hol_group(cyclic_group(2), bound=1)


def test_hol_group_checks_its_table_size_before_allocating(monkeypatch, hol_group):
    # |Hol(D16)| = 16 * 32 = 512: a 1 MiB table against 256 KiB of memory
    N = dihedral_group(16)
    assert N.order * len(automorphism_group(N)) == 512
    pages = {"SC_PHYS_PAGES": 64, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(groups.os, "sysconf", pages.__getitem__)
    tracemalloc.start()
    try:
        with pytest.raises(GroupDefinitionError, match="order 512 is too large"):
            hol_group(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 512 * 512 // 8


def test_hol_action_is_faithful_with_stabilizer_the_twists(hol_elements):
    N = dihedral_group(8)
    elements = hol_elements(N)
    actions = {h.action_perm() for h in elements}
    assert len(actions) == len(elements)  # faithful
    identity_perm = tuple(range(N.order))
    stabilizer = {(h.translation, h.twist) for h in elements
                  if h.act(N.identity) == N.identity}
    twists = {(N.identity, p) for p in
              (tuple(int(x) for x in row) for row in automorphism_group(N))}
    assert stabilizer == twists


# -- regularity -----------------------------------------------------------------


def test_right_translations_are_regular():
    N = dihedral_group(8)
    assert is_regular_subgroup(N, rho_embedding(N))


def test_left_translations_are_regular():
    N = dihedral_group(8)
    lam = lambda_embedding(N)
    assert is_regular_subgroup(N, lam)
    # lambda(eta) acts by left multiplication
    for a in range(N.order):
        h = lam[a]
        for x in range(N.order):
            assert h.act(x) == N.mul(a, x)


def test_stabilizer_copy_is_not_regular():
    N = klein_group()
    perms = automorphism_group(N)
    twists = HolElements(N, perms, np.full(len(perms), N.identity), np.arange(len(perms)))
    assert not is_regular_subgroup(N, twists)


def test_regularity_requires_closure():
    N = klein_group()
    partial = rho_embedding(N)[:3]
    with pytest.raises(GroupDefinitionError):
        is_regular_subgroup(N, partial)


# -- the oracle -------------------------------------------------------------------


def test_oracle_cyclic_3():
    found = cyclic_regular_oracle(cyclic_group(3))
    assert len(found) == 2  # both generators of one subgroup
    spans = {frozenset(subgroup_generated_by_hol(f)) for f in found}
    assert len(spans) == 1


def test_oracle_klein_gives_three_subgroups():
    found = cyclic_regular_oracle(klein_group())
    spans = {frozenset(subgroup_generated_by_hol(f)) for f in found}
    assert len(spans) == 3


def test_oracle_elementary_9_is_empty():
    N = direct_product(cyclic_group(3), cyclic_group(3))
    assert len(cyclic_regular_oracle(N)) == 0


def test_oracle_respects_bound():
    with pytest.raises(BoundExceeded):
        cyclic_regular_oracle(klein_group(), hol_bound=10)


def test_oracle_winners_generate_regular_subgroups():
    for N in (dihedral_group(8), quaternion_group(8), cyclic_group(8)):
        found = cyclic_regular_oracle(N)
        assert found
        for h in found[:3]:
            assert h.order() == N.order
            sub = subgroup_generated_by_hol(h)
            assert is_regular_subgroup(N, sub)


def test_oracle_result_is_a_lazy_sequence():
    found = cyclic_regular_oracle(dihedral_group(8))
    elements = list(found)
    assert len(elements) == len(found) == 16
    assert found[-1] == elements[-1] and list(found[2:5]) == elements[2:5]
    assert type(found[2:5]) is HolElements  # a slice is a set in array form
    assert set(random.Random(0).sample(found, 4)) <= set(elements)
    assert type(found[0].translation) is int
    assert all(type(x) is int for x in found[0].twist)
    with pytest.raises(IndexError):
        found[len(found)]


def test_oracle_matches_brute_force_cycle_lengths(hol_elements):
    # the orbit scan and its expansion keep exactly the full-cycle pairs,
    # in scan order
    c2 = cyclic_group(2)
    for N in (cyclic_group(1), cyclic_group(2), cyclic_group(9), klein_group(),
              dihedral_group(8), quaternion_group(8), direct_product(cyclic_group(3), c2),
              direct_product(direct_product(c2, c2), c2),
              cgroup_group(CGroupPresentation(7, 3, 2))):
        lengths = [h.cycle_length_through_identity() for h in hol_elements(N)]
        brute = [h for h, length in zip(hol_elements(N), lengths)
                 if length == N.order]
        found = cyclic_regular_oracle(N)
        assert list(found) == brute
        # a walk moves at each step until it is back at the identity; only
        # translations that are the least of their Aut(N)-orbit are walked
        least = {min(int(p[a]) for p in automorphism_group(N)) for a in range(N.order)}
        assert found.pair_steps == sum(
            min(length, N.order - 1) for h, length in zip(hol_elements(N), lengths)
            if h.translation in least)


def _scan_steps(N) -> int:
    """The steps the oracle's scan of N takes: the line of its loop that
    counts pair steps, traced."""
    code = cyclic_regular_oracle.__code__
    lines, start = inspect.getsourcelines(cyclic_regular_oracle)
    counting = start + next(i for i, line in enumerate(lines)
                            if line.strip() == "pair_steps += len(pos)")
    steps = 0

    def in_oracle(frame, event, arg):
        nonlocal steps
        steps += event == "line" and frame.f_lineno == counting
        return in_oracle

    sys.settrace(lambda frame, event, arg: in_oracle if frame.f_code is code else None)
    try:
        cyclic_regular_oracle(N)
    finally:
        sys.settrace(None)
    return steps


def test_oracle_scan_stops_when_no_pair_is_live(hol_elements):
    # it walks as many steps as the longest walked cycle, at most n - 1
    c2 = cyclic_group(2)
    short = 0
    for N in (cyclic_group(9), klein_group(), dihedral_group(8), quaternion_group(8),
              direct_product(direct_product(c2, c2), c2), direct_product(cyclic_group(4), c2),
              cgroup_group(CGroupPresentation(7, 3, 2)),
              parse_group_spec("semidirect (cyclic 3) (dihedral 8) alpha r->phi:2 s->id")):
        least = {min(int(p[a]) for p in automorphism_group(N)) for a in range(N.order)}
        longest = max(h.cycle_length_through_identity() for h in hol_elements(N)
                      if h.translation in least)
        assert _scan_steps(N) == min(longest, N.order - 1), N
        short += longest < N.order - 1
    assert short == 2  # C4 x C2 walks 4 steps, the order-24 group 12


def hopf_galois_count(N):
    """e(C_n, N) = #winners / |Aut(N)|, Byott's translation of the number of
    Hopf-Galois structures of type N on a cyclic extension of degree n."""
    found = cyclic_regular_oracle(N)
    count, rest = divmod(len(found), len(found.perms))
    assert rest == 0  # Aut(N) acts freely on the winners by conjugation
    return count


@pytest.mark.parametrize("make, count", [
    (lambda: cyclic_group(4), 1),
    (klein_group, 1),
    # Kohl (1998): p^(m-1) structures for odd p^m, all of cyclic type
    (lambda: cyclic_group(9), 3),
    (lambda: cyclic_group(27), 9),
    (lambda: cyclic_group(25), 5),
    (lambda: cyclic_group(81), 27),
    (lambda: direct_product(cyclic_group(3), cyclic_group(3)), 0),
    # Byott (2007): 2^(m-2) structures of cyclic, dihedral and quaternion type
    (lambda: cyclic_group(8), 2), (lambda: dihedral_group(8), 2),
    (lambda: quaternion_group(8), 2),
    (lambda: cyclic_group(16), 4), (lambda: dihedral_group(16), 4),
    (lambda: quaternion_group(16), 4),
    (lambda: cyclic_group(32), 8), (lambda: dihedral_group(32), 8),
    (lambda: quaternion_group(32), 8),
], ids=["C4", "klein", "C9", "C27", "C25", "C81", "C3xC3", "C8", "D8", "Q8",
        "C16", "D16", "Q16", "C32", "D32", "Q32"])
def test_oracle_gives_published_hopf_galois_counts(make, count):
    assert hopf_galois_count(make()) == count


# -- subgroup-level enumeration ----------------------------------------------------


def test_regular_subgroups_prime_order():
    N = cyclic_group(5)
    subs = regular_subgroups_isomorphic_to(cyclic_group(5), N)
    assert len(subs) == 1


def test_regular_c4_in_holomorph_of_klein():
    subs = regular_subgroups_isomorphic_to(cyclic_group(4), klein_group())
    assert len(subs) == 3


def test_regular_klein_in_holomorph_of_c4():
    subs = regular_subgroups_isomorphic_to(klein_group(), cyclic_group(4))
    assert len(subs) >= 1


def test_composition_index_matches_tuple_lookup():
    # the plain reference: look each composed row up by its tuple
    for N in (cyclic_group(1), klein_group(), dihedral_group(8), quaternion_group(8),
              cgroup_group(CGroupPresentation(7, 3, 2))):
        perms = automorphism_group(N)
        rows = [tuple(p) for p in perms.tolist()]
        index = {p: i for i, p in enumerate(rows)}
        plain = [[index[tuple(pi[x] for x in sigma)] for sigma in rows] for pi in rows]
        assert _composition_index(perms).tolist() == plain


def test_regular_subgroups_come_sorted_by_keys():
    for N in (cyclic_group(4), klein_group(), dihedral_group(8)):
        keys = [[(h.translation, h.twist) for h in s] for s in all_regular_subgroups(N)]
        assert keys == sorted(keys)
        assert all([a for a, _ in k] == list(range(N.order)) for k in keys)


def test_regular_subgroups_match_pairwise_closure_reference(ref_regular_subgroups):
    # closing the chosen pairs under right multiplication by them finds the
    # subgroups that closing under all pairwise products found, in order
    groups = [cyclic_group(n) for n in range(1, 25)] + [
        klein_group(), dihedral_group(8), quaternion_group(8),
        direct_product(cyclic_group(2), klein_group()),
        cgroup_group(CGroupPresentation(3, 2, 2)), cgroup_group(CGroupPresentation(7, 3, 2))]
    for N in groups:
        got = [s.perms[s.twists].tolist() for s in all_regular_subgroups(N)]
        assert got == ref_regular_subgroups(N), N.name


def test_regular_subgroup_enumeration_covers_both_translations():
    N = cyclic_group(4)
    subs = all_regular_subgroups(N)
    keys = [frozenset(s) for s in subs]
    assert frozenset(rho_embedding(N)) in keys
    lam = frozenset(lambda_embedding(N))
    assert lam in keys  # abelian: lambda = rho
    for s in subs:
        assert is_regular_subgroup(N, s)


def test_order_mismatch_rejected():
    with pytest.raises(GroupDefinitionError):
        regular_subgroups_isomorphic_to(cyclic_group(3), cyclic_group(4))


# -- crossed homomorphisms -----------------------------------------------------------


def test_crossed_from_rho_has_trivial_twists():
    N = dihedral_group(8)
    G, ch = crossed_from_regular(N, rho_embedding(N))
    ident = tuple(range(N.order))
    assert all(t == ident for t in ch.twists)
    assert sorted(ch.translations) == list(range(N.order))


def test_crossed_from_lambda_twists_by_conjugation():
    N = dihedral_group(8)
    G, ch = crossed_from_regular(N, lambda_embedding(N))
    for s in range(G.order):
        a = ch.translations[s]
        assert ch.twists[s] == conjugation_perm(N, N.inv(a))


def test_crossed_round_trip_on_every_regular_subgroup():
    for N in (cyclic_group(4), klein_group(), cyclic_group(6),
              cgroup_group(CGroupPresentation(3, 2, 2)), cyclic_group(8),
              dihedral_group(8), quaternion_group(8),
              direct_product(cyclic_group(2), klein_group())):
        for sub in all_regular_subgroups(N):
            G, ch = crossed_from_regular(N, sub)
            back = regular_from_crossed(N, ch)
            assert set(back) == set(sub)


def _regular_counts_by_dense_table(H, target):
    """Independent enumeration: subgroup extension over the dense holomorph
    table H, pruned at the target order, then a regularity filter on labels."""
    rows = H.table.tolist()

    def closure(gens):
        seen = {H.identity}
        queue = [g for g in gens if g != H.identity]
        seen.update(queue)
        while queue:
            u = queue.pop()
            for g in gens:
                for v in (rows[u][g], rows[g][u]):
                    if v not in seen:
                        if len(seen) >= target + 1:
                            return None
                        seen.add(v)
                        queue.append(v)
        return frozenset(seen)

    found = set()
    frontier = set()
    for g in range(H.order):
        c = closure([g])
        if c:
            found.add(c)
            frontier.add(c)
    while frontier:
        nxt = set()
        for sub in frontier:
            for g in range(H.order):
                if g not in sub:
                    c = closure(list(sub) + [g])
                    if c and c not in found:
                        found.add(c)
                        nxt.add(c)
        frontier = nxt
    return sum(1 for s in found
               if len(s) == target
               and len({H.label(g)[0] for g in s}) == target)


def test_regular_subgroup_counts_match_independent_enumeration(hol_group):
    for N in (klein_group(), cyclic_group(4), cyclic_group(6),
              cgroup_group(CGroupPresentation(3, 2, 2))):
        assert len(all_regular_subgroups(N)) == \
            _regular_counts_by_dense_table(hol_group(N), N.order)


def test_regular_subgroup_count_for_elementary_8():
    # frozen from the same dense-table enumeration run once over the
    # order-1344 holomorph (too slow to repeat in the suite)
    N = direct_product(cyclic_group(2), klein_group())
    assert len(all_regular_subgroups(N)) == 232


def test_crossed_validation_rejects_broken_relation():
    N = cyclic_group(4)
    ident = tuple(range(4))
    twists = (ident,) * 4
    with pytest.raises(Exception):
        CrossedHom(cyclic_group(4), N, twists, (0, 1, 2, 0))


# -- induction ------------------------------------------------------------------------


def _cyclic_witness_subgroup(N):
    found = cyclic_regular_oracle(N)
    assert found
    return subgroup_generated_by_hol(found[0])


def test_restrict_to_whole_group_is_identity_on_data(induction_restrict):
    N = dihedral_group(8)
    G, ch = crossed_from_regular(N, _cyclic_witness_subgroup(N))
    h_elems, M, restricted = induction_restrict(ch, tuple(range(N.order)))
    assert len(h_elems) == N.order
    assert restricted.translations == ch.translations


def test_restrict_to_trivial_subgroup(induction_restrict):
    N = dihedral_group(8)
    G, ch = crossed_from_regular(N, _cyclic_witness_subgroup(N))
    h_elems, M, restricted = induction_restrict(ch, (N.identity,))
    assert h_elems == (G.identity,)
    assert M.order == 1


def test_restrict_d8_to_rotations(induction_restrict, as_subgroup):
    N = dihedral_group(8)
    G, ch = crossed_from_regular(N, _cyclic_witness_subgroup(N))
    rotations = tuple(sorted([0, 2, 4, 6]))
    h_elems, M, restricted = induction_restrict(ch, rotations)
    assert len(h_elems) == 4
    H, _ = as_subgroup(G, h_elems)
    assert max(int(o) for o in H.orders) == 4  # the order-4 subgroup of C8
    assert restricted.is_bijective


def test_restrict_rejects_non_characteristic_subgroup(induction_restrict):
    N = klein_group()
    G, ch = crossed_from_regular(N, _cyclic_witness_subgroup(N))
    with pytest.raises(GroupDefinitionError):
        induction_restrict(ch, (0, 1))  # single involution is moved by Aut


def test_quotient_induction_on_d8(induction_restrict, induction_quotient):
    N = dihedral_group(8)
    G, ch = crossed_from_regular(N, _cyclic_witness_subgroup(N))
    rotations = tuple(sorted([0, 2, 4, 6]))
    h_elems, _, _ = induction_restrict(ch, rotations)
    QG, QN, quotient = induction_quotient(ch, rotations, h_elems)
    assert QG.order == 2 and QN.order == 2
    assert quotient.is_bijective


def test_quotient_induction_on_realizable_order_84_member(induction_restrict,
                                                           induction_quotient):
    # a cyclic witness on C21 x| (C2 x C2) with a small action restricts to the
    # odd part and then quotients down to a crossed pair on the Klein group
    from holoreg import classify, normal_hall_odd_subgroup, parse_group_spec
    N = parse_group_spec(
        "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->id s->phi:20")
    verdict = classify(N)
    assert verdict.realizable
    sub = subgroup_generated_by_hol(verdict.witness)
    G, ch = crossed_from_regular(N, sub)
    odd = normal_hall_odd_subgroup(N)
    h_elems, _, restricted = induction_restrict(ch, odd)
    assert len(h_elems) == 21 and restricted.is_bijective
    QG, QN, quotient = induction_quotient(ch, odd, h_elems)
    assert QG.order == 4 and QN.order == 4
    assert quotient.is_bijective
    assert max(int(o) for o in QG.orders) == 4  # the quotient source is cyclic


def test_quotient_induction_requires_central_kernel(induction_restrict, induction_quotient):
    N = cgroup_group(CGroupPresentation(3, 2, 2))
    G, ch = crossed_from_regular(N, _cyclic_witness_subgroup(N))
    odd = tuple(sorted(g for g in range(6) if N.order_of(g) % 2 == 1))
    h_elems, _, _ = induction_restrict(ch, odd)
    H = set(h_elems)
    from holoreg import center
    if not H <= set(center(G)):
        with pytest.raises(GroupDefinitionError):
            induction_quotient(ch, odd, h_elems)
    else:
        induction_quotient(ch, odd, h_elems)


# -- skew braces -----------------------------------------------------------------------


def test_lambda_gives_the_trivial_brace():
    N = dihedral_group(8)
    brace = skew_brace_from_regular(N, lambda_embedding(N))
    assert np.array_equal(brace.circle_table, N.table)


def test_rho_gives_the_opposite_brace():
    N = dihedral_group(8)
    brace = skew_brace_from_regular(N, rho_embedding(N))
    assert np.array_equal(brace.circle_table, N.table.T)


def test_braces_compare_and_hash_by_identity():
    N = dihedral_group(8)
    brace, again = (skew_brace_from_regular(N, lambda_embedding(N)) for _ in range(2))
    assert brace == brace and brace != again
    assert len({brace, again, brace}) == 2


def test_cyclic_witness_brace_has_cyclic_circle_group():
    N = dihedral_group(8)
    brace = skew_brace_from_regular(N, _cyclic_witness_subgroup(N))
    assert max(int(o) for o in brace.multiplicative.orders) == 8


def test_brace_circle_group_isomorphic_to_source_subgroup():
    for N in (klein_group(), dihedral_group(8), quaternion_group(8)):
        for sub in all_regular_subgroups(N)[:6]:
            brace = skew_brace_from_regular(N, sub)
            abstract = regular_subgroup_as_group(N, sub)
            assert find_isomorphism(brace.multiplicative, abstract) is not None


# -- fixed point free pairs ---------------------------------------------------------


def test_projection_pair_found_for_coprime_product(fpf_search):
    N = cgroup_group(CGroupPresentation(3, 2, 2))
    G = cyclic_group(6)
    pairs = fpf_search(G, N)
    assert pairs
    pres, x, y = recognize_cgroup(N)
    hit = [(f, h) for f, h in pairs if f(1) == x and h(1) == y]
    assert hit


def test_fpf_empty_for_c4_acting_on_klein(fpf_search):
    assert fpf_search(cyclic_group(4), klein_group()) == []


def test_fpf_gap_on_klein_despite_realizability(fpf_search):
    # the oracle finds cyclic regular subgroups, yet no fpf pair exists:
    # fpf existence is strictly stronger than realizability
    N = klein_group()
    assert cyclic_regular_oracle(N)
    assert fpf_search(cyclic_group(4), N) == []
    assert classify(N).realizable


def test_fpf_pairs_give_regular_subgroups(fpf_search, regular_from_fpf):
    N = cgroup_group(CGroupPresentation(7, 3, 2))
    G = cyclic_group(21)
    pairs = fpf_search(G, N)
    assert pairs
    for f, h in pairs[:8]:
        sub = regular_from_fpf(N, f, h)
        assert is_regular_subgroup(N, sub)


def test_fpf_trivial_group(fpf_search):
    pairs = fpf_search(cyclic_group(1), cyclic_group(1))
    assert len(pairs) == 1
