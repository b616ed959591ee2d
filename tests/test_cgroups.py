"""Symbolic arithmetic and automorphisms of metacyclic presentations."""

import math

import pytest

from holoreg import (CGroupAut, CGroupPresentation, GroupDefinitionError,
                     HomomorphismError, aut_decompose, automorphism_group,
                     cgroup_aut_group, cgroup_group, cyclic_group,
                     dihedral_group, find_isomorphism, geometric_sum,
                     multiplicative_order, recognize_cgroup, unit_groups,
                     words)


def brute_geometric_sum(h, length, modulus):
    return sum(pow(h, a, modulus) for a in range(length)) % modulus


# -- geometric sums -------------------------------------------------------------


def test_geometric_sum_empty():
    assert geometric_sum(5, 0, 7) == 0
    assert geometric_sum(5, 0, 1) == 0


def test_geometric_sum_of_ones():
    for length in range(10):
        assert geometric_sum(1, length, 6) == length % 6


def test_geometric_sum_collapses_mod_7():
    assert geometric_sum(2, 3, 7) == 0  # 1 + 2 + 4


@pytest.mark.parametrize("h", range(-3, 8))
@pytest.mark.parametrize("modulus", [1, 2, 5, 7, 12])
def test_geometric_sum_matches_direct_summation(h, modulus):
    for length in range(0, 25):
        assert geometric_sum(h, length, modulus) == \
            brute_geometric_sum(h, length, modulus)


# -- element power formula --------------------------------------------------------


def test_power_at_zero_is_identity():
    M = CGroupPresentation(7, 3, 2)
    assert M.power(5, 2, 0) == (0, 0)


def test_power_kills_xy_in_frobenius_group():
    M = CGroupPresentation(7, 3, 2)
    assert M.power(1, 1, 3) == (0, 0)


def test_power_reduces_to_plain_multiple_when_y_trivial():
    M = CGroupPresentation(7, 3, 2)
    for i in range(7):
        for length in range(10):
            assert M.power(i, 0, length) == ((i * length) % 7, 0)


def test_power_matches_repeated_table_multiplication(cgroup_test_groups):
    for pres, G in cgroup_test_groups:
        for g in range(G.order):
            i, j = G.label(g)
            for length in (0, 1, 2, 3, pres.order - 1, pres.order):
                expected = G.power(g, length)
                assert G.labels.index(pres.power(i, j, length)) == expected


def element_order(pres, G, i, j):
    """The order of x^i y^j in C(e, d, k), stepping by the order of y^j:
    the power formula gives the step, G's table multiplies the steps."""
    jo = pres.d // math.gcd(pres.d, j % pres.d) if pres.d > 1 else 1
    step = G.labels.index(pres.power(i, j, jo))
    cur, length = step, jo
    while cur != G.identity:
        cur = G.mul(cur, step)
        length += jo
    return length


def test_element_order_via_power_formula(cgroup_test_groups):
    for pres, G in cgroup_test_groups:
        for g in range(G.order):
            i, j = G.label(g)
            assert element_order(pres, G, i, j) == G.order_of(g)


# -- presentation invariants -----------------------------------------------------


def test_presentation_rejects_shared_factor():
    with pytest.raises(GroupDefinitionError):
        CGroupPresentation(6, 3, 1)


def test_presentation_rejects_non_unit_k():
    with pytest.raises(GroupDefinitionError):
        CGroupPresentation(6, 1, 2)


def test_presentation_rejects_bad_k_order():
    # ord_7(3) = 6 does not divide 3
    with pytest.raises(GroupDefinitionError):
        CGroupPresentation(7, 3, 3)


def test_derived_symbols_for_frobenius_21():
    M = CGroupPresentation(7, 3, 2)
    assert (M.z, M.g_theta, M.ord) == (1, 7, 3)
    assert M.is_normalized


def test_trivial_presentation():
    M = CGroupPresentation(1, 1, 1)
    assert M.order == 1 and M.k == 1


def test_theta_relation_sums(cgroup_test_presentations):
    # z*S(k, d) = 0 mod e, and z*S(k, v) = z mod e for admissible v
    for M in cgroup_test_presentations:
        assert (M.z * geometric_sum(M.k, M.d, M.e)) % M.e == 0 if M.e > 1 else True
        _, ukd = unit_groups(M)
        for v in ukd:
            if M.e > 1:
                assert (M.z * geometric_sum(M.k, v, M.e)) % M.e == M.z % M.e


def test_theta_has_odd_order_for_odd_group(cgroup_test_presentations):
    for M in cgroup_test_presentations:
        if M.order % 2 == 1:
            assert M.g_theta % 2 == 1  # the theta subgroup has order g_theta | e


# -- standard automorphisms and canonical forms ------------------------------------


def test_theta_shifts_y_by_z():
    M = CGroupPresentation(7, 3, 2)
    theta = CGroupAut(M, 1, 1, 1)
    assert theta.y_image() == (M.z % 7, 1)  # z = 1, so y -> x y


def test_phi_with_unit_one_is_identity():
    M = CGroupPresentation(7, 3, 2)
    assert CGroupAut(M, 0, 1, 1).is_identity


def test_psi_trivial_when_unit_group_trivial():
    M = CGroupPresentation(7, 3, 2)
    _, ukd = unit_groups(M)
    assert ukd == [1]
    assert CGroupAut(M, 0, 1, 1).is_identity


def test_standard_aut_rejects_non_units():
    M = CGroupPresentation(7, 3, 2)
    with pytest.raises(HomomorphismError):
        CGroupAut(M, 0, 7, 1)
    with pytest.raises(HomomorphismError):
        CGroupAut(M, 0, 1, 2)  # 2 is a unit mod 3 but 2 != 1 mod ord = 3


def test_unit_groups_full_and_restricted():
    assert unit_groups(CGroupPresentation(7, 1, 1))[0] == [1, 2, 3, 4, 5, 6]
    # with k = 1 every unit mod d is admissible
    M = CGroupPresentation(1, 6, 1)
    assert unit_groups(M)[1] == [1, 5]


def test_phi_theta_braiding():
    M = CGroupPresentation(7, 3, 2)
    theta = CGroupAut(M, 1, 1, 1)
    for u in (2, 3, 6):
        phi = CGroupAut(M, 0, u, 1)
        lhs = phi.compose(theta)
        rhs = CGroupAut(M, u, 1, 1).compose(phi)  # theta^u then phi
        assert lhs == rhs


def test_theta_power_g_is_identity():
    M = CGroupPresentation(7, 3, 2)
    theta = CGroupAut(M, 1, 1, 1)
    acc = CGroupAut(M, 0, 1, 1)
    for _ in range(M.g_theta):
        acc = theta.compose(acc)
    assert acc.is_identity


def test_psi_commutes_with_theta_and_phi():
    M = CGroupPresentation(7, 9, 2)
    _, ukd = unit_groups(M)
    assert ukd == [1, 4, 7]
    theta = CGroupAut(M, 1, 1, 1)
    for v in ukd:
        psi = CGroupAut(M, 0, 1, v)
        assert psi.compose(theta) == theta.compose(psi)
        for u in (2, 3):
            phi = CGroupAut(M, 0, u, 1)
            assert psi.compose(phi) == phi.compose(psi)


def test_compose_agrees_with_permutation_composition(cgroup_test_groups):
    for pres, G in cgroup_test_groups:
        coords = [G.label(i) for i in range(G.order)]
        index_of = {lab: i for i, lab in enumerate(coords)}
        aut_grp = cgroup_aut_group(pres)
        gens = [CGroupAut(pres, *aut_grp.label(i))
                for i in range(min(aut_grp.order, 8))]
        for a in gens:
            pa = a.as_permutation(coords, index_of)
            for b in gens:
                pb = b.as_permutation(coords, index_of)
                composed = a.compose(b).as_permutation(coords, index_of)
                assert composed == tuple(pa[x] for x in pb)


def test_decompose_identity():
    M = CGroupPresentation(7, 3, 2)
    aut = aut_decompose(M, (1, 0), (0, 1))
    assert (aut.c, aut.u, aut.v) == (0, 1, 1)


def test_decompose_theta():
    M = CGroupPresentation(7, 3, 2)
    aut = aut_decompose(M, (1, 0), (M.z, 1))
    assert (aut.c, aut.u, aut.v) == (1, 1, 1)


def test_decompose_phi_cubed():
    M = CGroupPresentation(7, 3, 2)
    aut = aut_decompose(M, (3, 0), (0, 1))
    assert (aut.c, aut.u, aut.v) == (0, 3, 1)


def test_decompose_round_trips_with_compose(cgroup_test_presentations):
    for M in cgroup_test_presentations:
        ue, ukd = unit_groups(M)
        for c in range(M.g_theta):
            for u in ue[:4]:
                for v in ukd[:4]:
                    aut = CGroupAut(M, c, u, v)
                    back = aut_decompose(M, aut.x_image(), aut.y_image())
                    assert back == aut


def test_decompose_reports_violated_relation():
    M = CGroupPresentation(7, 3, 2)
    with pytest.raises(HomomorphismError, match="y x y"):
        aut_decompose(M, (1, 0), (0, 2))  # v = 2 moves k


def test_decompose_rejects_x_leaving_its_subgroup():
    M = CGroupPresentation(7, 3, 2)
    with pytest.raises(HomomorphismError, match="<x>"):
        aut_decompose(M, (1, 1), (0, 1))


# -- the automorphism group ---------------------------------------------------------


def test_canonical_aut_group_sizes(cgroup_test_groups):
    for pres, G in cgroup_test_groups:
        ue, ukd = unit_groups(pres)
        expected = pres.g_theta * len(ue) * len(ukd)
        assert cgroup_aut_group(pres).order == expected
        assert len(automorphism_group(G)) == expected


def test_canonical_auts_coincide_with_brute_force(cgroup_test_groups):
    for pres, G in cgroup_test_groups:
        coords = [G.label(i) for i in range(G.order)]
        index_of = {lab: i for i, lab in enumerate(coords)}
        aut_grp = cgroup_aut_group(pres)
        canonical = {CGroupAut(pres, *aut_grp.label(i)).as_permutation(coords, index_of)
                     for i in range(aut_grp.order)}
        brute = set(map(tuple, automorphism_group(G).tolist()))
        assert canonical == brute


# -- recognition ---------------------------------------------------------------------


def test_recognize_cyclic_6():
    pres, x, y = recognize_cgroup(cyclic_group(6))
    # the normalized abelian form puts everything in the x factor
    assert (pres.e, pres.d, pres.k) == (6, 1, 1)


def test_recognize_symmetric_3():
    G = cgroup_group(CGroupPresentation(3, 2, 2))
    pres, x, y = recognize_cgroup(G)
    assert (pres.e, pres.d, pres.k) == (3, 2, 2)
    assert G.order_of(x) == 3 and G.order_of(y) == 2
    assert G.conj(x, y) == G.power(x, 2)


def test_recognize_frobenius_21_prefers_least_k():
    G = cgroup_group(CGroupPresentation(7, 3, 4))
    pres, _, _ = recognize_cgroup(G)
    assert (pres.e, pres.d, pres.k) == (7, 3, 2)


def test_recognize_trivial_group():
    pres, x, y = recognize_cgroup(cyclic_group(1))
    assert (pres.e, pres.d, pres.k) == (1, 1, 1)


def test_recognize_rejects_non_cgroup():
    assert recognize_cgroup(dihedral_group(8)) is None


def test_recognized_witnesses_factor_group(cgroup_test_groups):
    for _, G in cgroup_test_groups:
        pres, x, y = recognize_cgroup(G)
        grid = words(G, (x, y), [(i, j) for i in range(pres.e) for j in range(pres.d)])
        assert len(set(grid.tolist())) == G.order
        assert pres.is_normalized


def test_recognize_round_trip_is_isomorphic(cgroup_test_groups):
    for _, G in cgroup_test_groups:
        pres, _, _ = recognize_cgroup(G)
        model = cgroup_group(pres)
        assert find_isomorphism(G, model) is not None


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(1, 1) == 1
