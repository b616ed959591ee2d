"""The one by-value cache of split factors, ``cgroups.FACTORS``.

Specs and splits that name the same M, P or automorphism of M share one
object for it; nothing keyed by a whole spec is kept, so every parse builds
its own N, and the public builders stay uncached.  ``conftest.py`` empties
the cache before every test.
"""

import numpy as np
import pytest

from holoreg import (CGroupAut, CGroupPresentation, GroupDefinitionError,
                     cgroup_aut_group, cgroup_auts, cgroup_group, classify,
                     cyclic_group, dihedral_group, parse_group_spec,
                     quaternion_group)
from holoreg import groups
from holoreg.cgroups import FACTORS, aut_permutation, m_factor, p_factor
from test_trusted_builders import full_check, swap_last_two

SPEC = "semidirect (cgroup 7 3 2) (dihedral 8) alpha r->id s->phi:6"
SAME_FACTORS = "semidirect (cgroup 7 3 2) (dihedral 8) alpha r->id s->id"


def test_specs_that_share_m_and_p_share_their_tables(constructions):
    _, built = constructions
    N = parse_group_spec(SPEC)
    P, M = built[:2]
    assert [G.name for G in built] == ["dihedral 8", "cgroup 7 3 2", SPEC]
    assert (P, M) == (p_factor("dihedral", 8), m_factor(CGroupPresentation(7, 3, 2)))
    built.clear()
    other = parse_group_spec(SAME_FACTORS)
    assert built == [other]  # only N is new
    assert classify(N).decomposition.p_group is classify(other).decomposition.p_group is P
    assert built == [other]


def test_every_parse_builds_its_own_group():
    for spec in (SPEC, "dihedral 8", "quaternion 16", "cyclic 12", "cgroup 7 3 2"):
        first, second = parse_group_spec(spec), parse_group_spec(spec)
        assert first is not second, spec
        assert np.array_equal(first.table, second.table), spec
    assert classify(parse_group_spec(SPEC)) is not classify(parse_group_spec(SPEC))


def test_public_builders_stay_uncached():
    pres = CGroupPresentation(7, 3, 2)
    for make in (lambda: cyclic_group(12), lambda: dihedral_group(8),
                 lambda: quaternion_group(8), lambda: cgroup_group(pres)):
        assert make() is not make()
    assert FACTORS == {}


def test_keys_compare_by_value():
    # equal presentations and automorphisms built apart share their entries
    a, b = CGroupPresentation(7, 3, 2), CGroupPresentation(7, 3, 9)  # k = 9 = 2 mod 7
    assert a is not b and a == b
    assert m_factor(a) is m_factor(b)
    assert cgroup_auts(a) is cgroup_auts(b)
    assert cgroup_aut_group(a) is cgroup_aut_group(b)
    theta = CGroupAut(a, 1, 1, 1)
    perm = aut_permutation(theta)
    assert aut_permutation(CGroupAut(b, 8, 1, 1)) is perm  # c mod g_theta = 7
    assert not perm.flags.writeable
    M = m_factor(a)
    index = {lab: i for i, lab in enumerate(M.labels)}
    assert perm.tolist() == list(theta.as_permutation(M.labels, index))
    assert set(FACTORS) == {("m_factor", a), ("cgroup_auts", a), ("cgroup_aut_group", a),
                            ("aut_permutation", theta)}


def test_a_factor_that_fails_to_build_leaves_no_entry():
    for kind, order in (("dihedral", 6), ("quaternion", 4)):
        with pytest.raises(GroupDefinitionError):
            p_factor(kind, order)
    assert FACTORS == {}


def test_a_spec_parsed_under_a_faulty_formula_caches_its_faulty_p(monkeypatch):
    # the P a spec makes is kept past the monkeypatch: only emptying the
    # cache, as conftest does before each test, keeps it from a later parse
    formula = groups._two_group_table
    monkeypatch.setattr(groups, "_two_group_table",
                        lambda order, s_squared: swap_last_two(formula(order, s_squared), 0)[0])
    parse_group_spec("semidirect (cyclic 3) (dihedral 8) alpha r->id s->id")
    faulty = p_factor("dihedral", 8)
    with pytest.raises(GroupDefinitionError):
        full_check(faulty)
    monkeypatch.undo()
    assert p_factor("dihedral", 8) is faulty  # left behind for the next test


def test_each_test_starts_with_an_empty_factor_cache():
    # the faulty dihedral 8 that the test above leaves behind is gone
    assert FACTORS == {}
    N = parse_group_spec("semidirect (cyclic 3) (dihedral 8) alpha r->id s->id")
    full_check(p_factor("dihedral", 8))
    assert classify(N).reason == "theorem-case-2"
