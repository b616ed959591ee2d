"""Tables that checked builders make without the full table check.

``FiniteGroup._from_builder`` takes a builder's table on the builder's word:
the builder's inputs were checked, so the table is a group's.  These tests
hold each builder to that word.  The full check of ``FiniteGroup(table)``
accepts every table the builders make and reads the same identity, inverses
and generators off it; a fault planted in a builder's table is caught by the
same check; and bad inputs are refused before any table is made.
"""

import builtins
import sys
import tracemalloc

import numpy as np
import pytest

from holoreg import (CGroupPresentation, FiniteGroup, GroupDefinitionError,
                     HomomorphismError, center, cgroup_group, classify,
                     cyclic_group, decompose, dihedral_group, direct_product,
                     parse_group_spec, quaternion_group, quotient_action_probe,
                     quotient_group, semidirect_product)
from holoreg import cgroups, groups
from holoreg.cgroups import FACTORS, p_factor
from holoreg.groups import is_action
from holoreg.specs import SpecError
from test_surface import TRUSTED_BUILDERS


def full_check(G):
    """Rebuild G from its table through the full check; raise
    GroupDefinitionError when the table is not a group's, and
    AssertionError when the check reads another identity, inverses or
    generators than the builder gave G."""
    assert G.table.dtype == np.int32 and G.table.shape == (G.order, G.order), G
    F = FiniteGroup(G.table, labels=G.labels, name=G.name, label_style=G.label_style)
    assert F.identity == G.identity, G
    assert np.array_equal(F.inverses, G.inverses), G
    assert F.generators == G.generators, G


# -- every table a builder makes is a group's --------------------------------------


def test_closed_forms_pass_the_full_check():
    for n in range(1, 129):
        full_check(cyclic_group(n))
    for m in range(2, 11):
        full_check(dihedral_group(1 << m))
        if m >= 3:
            full_check(quaternion_group(1 << m))


def test_corpus_tables_pass_the_full_check(corpus_reps, constructions):
    # N from each spec, and P and M the first time a spec names them, when
    # the shared factors are made; each is checked before anything reads it,
    # since code past the builders may assume a group (``orders`` loops
    # forever on a table with no identity).  The split reads the same P, so
    # classify builds nothing.
    validated, built = constructions
    for entry in corpus_reps:
        before = len(built)
        N = parse_group_spec(entry.spec)
        assert built[-1] is N, entry.spec
        for G in built[before:]:
            full_check(G)
        validated.clear()
        made = len(built)
        dec = classify(N).decomposition
        assert (validated, len(built)) == ([], made), entry.spec
        assert dec.p_group is p_factor(dec.p_kind, dec.p_group.order), entry.spec
    # one build per N and one per distinct M and P: 202 + 12 + 5
    distinct = {e.factors[0] for e in corpus_reps} | {e.factors[1].name for e in corpus_reps}
    assert len(built) == len(corpus_reps) + len(distinct) == 202 + 17
    for value in FACTORS.values():  # every group the cache holds
        if isinstance(value, FiniteGroup):
            full_check(value)


@pytest.mark.parametrize("make", [
    lambda: cyclic_group(24),
    lambda: direct_product(cgroup_group(CGroupPresentation(7, 3, 2)), cyclic_group(4)),
    lambda: cgroup_group(CGroupPresentation(3, 4, 2)),  # y acts on x by inversion
    lambda: direct_product(cyclic_group(5), cyclic_group(2)),
    lambda: cgroup_group(CGroupPresentation(7, 3, 2)),  # P trivial
])
def test_a_cyclic_p_builds_no_split(make, constructions):
    # a cyclic P with an odd C-group M makes N a C-group: decompose stops
    # at that step with no split, and no P is made
    validated, built = constructions
    N = make()
    built.clear()
    assert decompose(N) == "c-group"
    verdict = classify(N)
    assert (verdict.reason, verdict.decomposition) == ("c-group", None)
    assert (validated, built) == ([], [])


def test_probe_quotients_pass_the_full_check(corpus_reps, constructions):
    _, built = constructions
    groups_ = [dihedral_group(8), parse_group_spec(
        "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:8 s->phi:13")] + \
        [e.group for e in corpus_reps if e.group.order <= 96][::7]
    for N in groups_:
        dec = decompose(N)
        built.clear()
        quotient_action_probe(dec)
        assert [Q.order for Q in built] == [4], N
        full_check(built[0])


def moved_identity(G, shift: int):
    """G through the full check, index i renamed (i + shift) mod n, so that
    its identity leaves index 0."""
    sigma = (np.arange(G.order) + shift) % G.order
    inv = np.argsort(sigma)
    return FiniteGroup(sigma[G.table[inv][:, inv]], labels=[G.labels[i] for i in inv],
                       name=f"{G.name} moved", label_style=G.label_style)


def test_builders_take_the_identity_of_their_inputs():
    M = moved_identity(cgroup_group(CGroupPresentation(7, 3, 2)), 5)
    P = moved_identity(dihedral_group(8), 3)
    assert (M.identity, P.identity) == (5, 3)
    N = direct_product(M, P)
    assert N.identity == 5 * 8 + 3
    full_check(N)
    Q, coset = quotient_group(P, center(P))
    assert Q.identity == coset[P.identity] != 0
    full_check(Q)


# -- a fault in a builder's table is caught by the full check --------------------------


BUILDERS = {
    "cyclic_group": lambda: cyclic_group(12),
    "dihedral_group": lambda: dihedral_group(16),
    "quaternion_group": lambda: quaternion_group(16),
    "cgroup_group": lambda: cgroup_group(CGroupPresentation(7, 3, 2)),
    "semidirect_product": lambda: parse_group_spec(
        "semidirect (cyclic 5) (dihedral 8) alpha r->id s->phi:4"),
    "quotient_group": lambda: quotient_group(dihedral_group(16),
                                             center(dihedral_group(16))),
}


def test_every_trusted_builder_gets_a_planted_fault():
    assert set(BUILDERS) == {name for _, name in TRUSTED_BUILDERS}


def swap_last_two(table, identity):
    """Two entries of the last row swapped, both off the identity's row and column."""
    table = table.copy()
    table[-1, [-2, -1]] = table[-1, [-1, -2]]
    return table, identity


def next_identity(table, identity):
    return table, (identity + 1) % len(table)


@pytest.mark.parametrize("fault", [swap_last_two, next_identity])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_a_fault_in_a_builder_is_caught(builder, fault, monkeypatch):
    # the fault goes into the table or identity that ``builder`` itself
    # hands over; the groups it calls on keep theirs
    faulty = []
    make = FiniteGroup._from_builder.__func__

    def planting(cls, table, identity, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == builder:
            table, identity = fault(table, identity)
            faulty.append(make(cls, table, identity, *args, **kwargs))
            return faulty[-1]
        return make(cls, table, identity, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "_from_builder", classmethod(planting))
    BUILDERS[builder]()
    assert len(faulty) == 1
    with pytest.raises((GroupDefinitionError, AssertionError)):
        full_check(faulty[0])


def test_two_swapped_entries_of_the_two_group_formula_are_caught(monkeypatch):
    formula = groups._two_group_table
    monkeypatch.setattr(groups, "_two_group_table",
                        lambda order, s_squared: swap_last_two(formula(order, s_squared), 0)[0])
    for make in (dihedral_group, quaternion_group):
        with pytest.raises(GroupDefinitionError, match="not a Latin square"):
            full_check(make(16))


def test_a_wrong_kpow_in_the_cgroup_formula_is_caught(monkeypatch):
    # powers of 3, whose order mod 7 is 6, in place of powers of k = 2, of
    # order 3 | d: a Latin square with identity 0, but no group
    pres = CGroupPresentation(7, 3, 2)
    monkeypatch.setattr(cgroups, "pow", lambda base, exp, mod: builtins.pow(3, exp, mod),
                        raising=False)
    G = cgroup_group(pres)
    with pytest.raises(GroupDefinitionError, match="associativity fails"):
        full_check(G)


def test_element_orders_end_on_a_table_with_no_identity(monkeypatch):
    # k^(j+1) in place of k^j: x^i y^0 no longer fixes x, so index 0 is no
    # identity; ``orders`` takes at most a p-th powers per prime p^a || n
    pres = CGroupPresentation(7, 3, 2)
    monkeypatch.setattr(cgroups, "pow",
                        lambda base, exp, mod: builtins.pow(base, exp + 1, mod),
                        raising=False)
    G = cgroup_group(pres)
    assert G.orders.shape == (G.order,)
    with pytest.raises(GroupDefinitionError, match="no two-sided identity"):
        FiniteGroup(G.table)


# -- bad inputs are refused before any table is made -----------------------------------


def _refused(exc, match: str, build) -> int:
    """The largest traced allocation, in bytes, while ``build()`` runs and
    raises ``exc``; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        with pytest.raises(exc, match=match):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bad_inputs_are_refused_before_any_table(constructions):
    validated, built = constructions
    M, P = cyclic_group(63), dihedral_group(16)  # N would be 1008 x 1008
    D8 = dihedral_group(8)
    built.clear()
    small = 4 * (M.order * P.order) ** 2 // 100  # 1% of N's table

    not_aut = np.tile(np.arange(M.order, dtype=np.int32), (P.order, 1))
    not_aut[1, [1, 2]] = [2, 1]  # a permutation, but no automorphism
    assert _refused(HomomorphismError, "element 1 is not an automorphism",
                    lambda: semidirect_product(M, P, not_aut)) < small

    # r^a s^b -> x -> x^(2^b): each row an automorphism, but s^2 = 1 and
    # x -> x^4 is not the identity
    doubling = np.array([np.arange(M.order) * 2 ** (t % 2) % M.order
                         for t in range(P.order)], dtype=np.int32)
    assert not is_action(P, doubling)
    assert _refused(HomomorphismError, "not a homomorphism into Aut",
                    lambda: semidirect_product(M, P, doubling)) < small

    assert _refused(GroupDefinitionError, r"order of k mod e \(3\) must divide d",
                    lambda: CGroupPresentation(7, 2, 2)) < small
    assert _refused(SpecError, r"must divide d",
                    lambda: parse_group_spec("cgroup 7 2 2")) < small

    with pytest.raises(GroupDefinitionError, match="requires a normal subgroup"):
        quotient_group(D8, (0, 1))  # <s>
    with pytest.raises(GroupDefinitionError, match="requires a subgroup"):
        quotient_group(D8, (0, 1, 2))
    assert (validated, built) == ([], [])
