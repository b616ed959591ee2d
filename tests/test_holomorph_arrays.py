"""Sets of holomorph elements are read as arrays: each check is compared
with the plain loop it replaced, which is kept here as the reference, and
each rejection is covered.

The loops: closure and the product table by composing every two pairs and
looking the product up by key, the crossed pair checked on all pairs, and
the brace law checked on all triples.
"""

import numpy as np
import pytest

from holoreg import (CGroupPresentation, CrossedHom, GroupDefinitionError,
                     HolElements, HomomorphismError, all_regular_subgroups, automorphism_group, cgroup_group,
                     classify, crossed_from_regular, cyclic_group,
                     dihedral_group, direct_product,
                     is_regular_subgroup, quaternion_group,
                     regular_subgroup_as_group, rho_embedding,
                     skew_brace_from_regular, subgroup_generated,
                     subgroup_generated_by_hol)
from holoreg import holomorph

REFERENCE_MAX_ORDER = 120


# -- the plain loops, kept as references --------------------------------------


def ref_product_table(N, elements):
    """The index of every product (a, pi)(b, sigma) = (a pi(b), pi o sigma),
    looked up by key among the elements; None when one is missing."""
    trans = elements.translations.tolist()
    rows = elements.perms[elements.twists]
    index = {(a, r.tobytes()): i for i, (a, r) in enumerate(zip(trans, rows))}
    table = np.empty((len(trans), len(trans)), dtype=np.int32)
    for i, (a, pi) in enumerate(zip(trans, rows)):
        products = zip(N.table[a, pi[trans]].tolist(), pi[rows])
        for j, (b, row) in enumerate(products):
            k = index.get((b, row.tobytes()))
            if k is None:
                return None
            table[i, j] = k
    return table


def ref_is_regular_subgroup(N, elements):
    if ref_product_table(N, elements) is None:
        raise GroupDefinitionError("set is not closed under composition")
    return len(set(elements)) == len(elements) == len(set(elements.translations.tolist())) == N.order


def ref_subgroup_generated_by_hol(h):
    N = h.group
    out = [(N.identity, tuple(range(N.order)))]
    cur = (h.translation, h.twist)
    while cur != out[0]:
        out.append(cur)
        a, pi = cur
        cur = (N.mul(a, pi[h.translation]), tuple(pi[x] for x in h.twist))
    return out


def ref_crossed_ok(G, N, twists, translations):
    """f(st) = f(s) f(t) and g(st) = g(s) f(s)(g(t)) for every s and t."""
    tw, tr = np.array(twists), np.array(translations)
    if not (np.array_equal(tw[G.identity], np.arange(N.order))
            and tr[G.identity] == N.identity):
        return False
    for s in range(G.order):
        st = G.table[s]
        if not (np.array_equal(tw[st], tw[s][tw])
                and np.array_equal(tr[st], N.table[tr[s], tw[s][tr]])):
            return False
    return True


def ref_circle_table(N, elements):
    inv = N.inverses
    by_translation = {h.translation: h for h in elements}
    circle = np.zeros((N.order, N.order), dtype=np.int32)
    for a in range(N.order):
        sigma = by_translation[int(inv[a])]  # sigma_a(1) = translation^-1 = a
        circle[a] = N.table[np.asarray(sigma.twist), inv[sigma.translation]]
    return circle


def ref_brace_law(N, circle):
    """a o (b c) = (a o b) a^-1 (a o c) on all triples."""
    t, inv = N.table, N.inverses
    for a in range(N.order):
        lhs = circle[a][t]
        ca = t[circle[a][:, None], inv[a]]
        if not np.array_equal(lhs, t[ca, circle[a][None, :]]):
            return False
    return True


# -- old and new agree ---------------------------------------------------------


def _check_regular_subgroup(N, sub):
    """Every reading of one regular subgroup agrees with the plain loops."""
    table = ref_product_table(N, sub)
    assert table is not None and is_regular_subgroup(N, sub)
    assert sorted(sub.translations.tolist()) == list(range(N.order))
    assert np.array_equal(regular_subgroup_as_group(N, sub).table, table)
    G, ch = crossed_from_regular(N, sub)
    order = np.argsort(sub.translations)  # G's element i has translation i
    assert np.array_equal(G.table, np.argsort(order)[table[np.ix_(order, order)]])
    assert ch.translations == tuple(range(N.order))
    assert ref_crossed_ok(G, N, ch.twists, ch.translations)
    brace = skew_brace_from_regular(N, sub)
    circle = ref_circle_table(N, sub)
    assert np.array_equal(brace.circle_table, circle) and ref_brace_law(N, circle)


ROUND_TRIP_GROUPS = [
    lambda: cyclic_group(4), lambda: dihedral_group(4), lambda: cyclic_group(6),
    lambda: cgroup_group(CGroupPresentation(3, 2, 2)), lambda: cyclic_group(8),
    lambda: dihedral_group(8), lambda: quaternion_group(8),
    lambda: direct_product(cyclic_group(2), dihedral_group(4)),
]


@pytest.mark.parametrize("make", ROUND_TRIP_GROUPS)
def test_every_regular_subgroup_matches_reference(make):
    N = make()
    for sub in all_regular_subgroups(N):
        _check_regular_subgroup(N, sub)


def test_witness_subgroups_match_reference(corpus_reps):
    checked = 0
    for entry in corpus_reps:
        N = entry.group
        if N.order > REFERENCE_MAX_ORDER:
            continue
        verdict = classify(N)
        if not verdict.realizable:
            continue
        sub = subgroup_generated_by_hol(verdict.witness)
        assert [(h.translation, h.twist) for h in sub] == ref_subgroup_generated_by_hol(verdict.witness)
        _check_regular_subgroup(N, sub)
        checked += 1
    assert checked == 75


def _hol_sets(H, N, rng):
    """Subgroups of Hol(N) generated by one to three random elements, regular
    or not, and random subsets of the size of N; H is the dense Hol(N)."""
    perms = automorphism_group(N)
    picks = [subgroup_generated(H, rng.choice(H.order, size=k)) for k in (1, 2, 3)
             for _ in range(6)]
    picks += [rng.choice(H.order, size=N.order, replace=False) for _ in range(6)]
    # the identity, then <g> and a coset x<g>: closed under g, so only the
    # check on a later generator can find that the union is not closed
    for _ in range(6):
        g, x = (int(v) for v in rng.choice(H.order, size=2))
        cyclic = subgroup_generated(H, [g])
        picks.append([H.identity, g] + [H.mul(x, c) for c in cyclic] + list(cyclic))
    for elems in picks:
        elems = list(dict.fromkeys(int(i) for i in elems))
        labels = np.array([H.label(i) for i in elems])
        yield HolElements(N, perms, labels[:, 0], labels[:, 1])


@pytest.mark.parametrize("make", ROUND_TRIP_GROUPS[:7])
def test_closure_on_generators_decides_as_pairwise_closure(make, hol_group):
    N = make()
    rng = np.random.default_rng(N.order)
    for elements in _hol_sets(hol_group(N), N, rng):
        try:
            want = ref_is_regular_subgroup(N, elements)
        except GroupDefinitionError:
            with pytest.raises(GroupDefinitionError, match="not closed"):
                is_regular_subgroup(N, elements)
        else:
            assert is_regular_subgroup(N, elements) == want


# -- rejections ----------------------------------------------------------------


def test_non_closed_sets_raise():
    N = dihedral_group(8)
    for partial in (rho_embedding(N)[:3], rho_embedding(N)[1:2]):
        with pytest.raises(GroupDefinitionError, match="not closed"):
            is_regular_subgroup(N, partial)
        with pytest.raises(GroupDefinitionError, match="not closed"):
            skew_brace_from_regular(N, partial)


def test_closed_sets_that_are_not_regular_give_false():
    # Aut(D8) has order 8, so its copy fixing the identity is a closed set of
    # the size of a regular subgroup
    for N in (dihedral_group(4), dihedral_group(8)):
        perms = automorphism_group(N)
        stabilizer = HolElements(N, perms, np.full(len(perms), N.identity),
                                 np.arange(len(perms)))
        assert not is_regular_subgroup(N, stabilizer)
        for convert in (regular_subgroup_as_group, crossed_from_regular,
                        skew_brace_from_regular):
            with pytest.raises(GroupDefinitionError, match="not regular"):
                convert(N, stabilizer)


def test_twists_must_be_automorphisms():
    # pi is an involution of C5 fixing 0 but no automorphism: the pairs
    # (0, id), (0, pi) are closed under the pair product, and with g = 0 the
    # crossed relation holds, yet pi is not holomorph data; nor is the zero
    # endomorphism, nor a row that is not a map of N
    N = cyclic_group(5)
    pi = [0, 2, 1, 3, 4]
    for bad in (pi, [0] * 5, [0, 1, 2, 3, -1], [0, 1, 2, 3, 5]):
        pairs = HolElements(N, np.array([list(range(5)), bad]), np.zeros(2, dtype=int),
                            np.arange(2))
        with pytest.raises(GroupDefinitionError, match="not an automorphism"):
            is_regular_subgroup(N, pairs)
    with pytest.raises(HomomorphismError, match="Aut"):
        CrossedHom(cyclic_group(2), N, (tuple(range(5)), tuple(pi)), (0, 0))
    assert ref_crossed_ok(cyclic_group(2), N, (tuple(range(5)), tuple(pi)), (0, 0))


def test_crossed_check_rejects_twists_that_are_not_a_homomorphism():
    # f(1) = multiplication by 2 on C5 is an automorphism of order 4, so f is
    # no homomorphism from C2, though the crossed relation holds with g = 0
    N = cyclic_group(5)
    twists = (tuple(range(5)), (0, 2, 4, 1, 3))
    assert not ref_crossed_ok(cyclic_group(2), N, twists, (0, 0))
    with pytest.raises(HomomorphismError, match="not a homomorphism"):
        CrossedHom(cyclic_group(2), N, twists, (0, 0))


def test_crossed_check_rejects_a_relation_broken_off_the_generators():
    # C4 with identity twists: g must be a homomorphism, and g(3) = 0 breaks
    # it only at s = 1, t = 2
    N = cyclic_group(4)
    twists = (tuple(range(4)),) * 4
    assert not ref_crossed_ok(N, N, twists, (0, 1, 2, 0))
    with pytest.raises(HomomorphismError, match="crossed relation"):
        CrossedHom(N, N, twists, (0, 1, 2, 0))


def test_brace_law_failure_is_reported(monkeypatch):
    # a circle table that is a group with N's identity but no brace: the
    # check can only fail on a table that no regular subgroup gives
    N = cyclic_group(6)
    swap = np.array([0, 1, 2, 3, 5, 4])  # S3 relabelled by the transposition (4 5)
    circle = swap[cgroup_group(CGroupPresentation(3, 2, 2)).table[np.ix_(swap, swap)]]
    assert not ref_brace_law(N, circle)
    monkeypatch.setattr(holomorph, "_circle_table", lambda N, sub: circle)
    with pytest.raises(GroupDefinitionError, match="brace compatibility fails"):
        skew_brace_from_regular(N, rho_embedding(N))


def test_circle_group_is_validated_as_a_group(monkeypatch):
    N = cyclic_group(6)
    loop = N.table.copy()
    loop[[1, 2]] = loop[[2, 1]]  # a Latin square without a two-sided identity
    monkeypatch.setattr(holomorph, "_circle_table", lambda N, sub: loop)
    with pytest.raises(GroupDefinitionError, match="identity"):
        skew_brace_from_regular(N, rho_embedding(N))
