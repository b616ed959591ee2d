"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is exact integer arithmetic.
"""

import math

import numpy as np

from holoreg import (BoundExceeded, CGroupPresentation, FiniteGroup,
                     automorphism_group, cgroup_aut_group, cgroup_group,
                     cgroup_pool, classify, classify_rump,
                     closed_form_products, commutator_subgroup,
                     construct, cyclic_group, cyclic_regular_oracle, decompose,
                     dihedral_group, direct_product, find_isomorphism,
                     HolElement, is_regular_subgroup, normal_hall_odd_subgroup,
                     parse_group_spec, quaternion_group, quotient_action_probe,
                     quotient_group, recognize_cgroup,
                     semidirect_product, subgroup_generated,
                     twisted_partial_products, unit_groups)
from holoreg.cgroups import CGroupAut
from holoreg.realizability import REASON_ALPHA

WIDE_BOUND = 400_000  # covers the largest holomorph scanned here (C_2^4)


def _report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _oracle_agrees(G, bound=WIDE_BOUND):
    verdict = classify(G)
    found = cyclic_regular_oracle(G, hol_bound=bound)
    return verdict.realizable == bool(found)


def heisenberg_27():
    """Nonabelian exponent-3 group of order 27 as (C3 x C3) x| C3."""
    M = direct_product(cyclic_group(3), cyclic_group(3))
    # labels of M are (a, b); the action sends (a, b) -> (a + b, b)
    shear = []
    power = [M.labels.index(((a + b) % 3, b)) for a, b in M.labels]
    shear.append(list(range(9)))
    shear.append(power)
    shear.append([power[g] for g in power])
    return semidirect_product(M, cyclic_group(3), shear, name="heisenberg 27")


def nonabelian_27_exponent_9():
    """C9 x| C3 with the generator acting as x -> x^4."""
    M = cyclic_group(9)
    act = [list(range(9)), [(4 * g) % 9 for g in range(9)],
           [(7 * g) % 9 for g in range(9)]]
    return semidirect_product(M, cyclic_group(3), act, name="c9 by c3")


def test_criterion_1_odd_prime_power_law():
    order_9 = {
        "C9": (cyclic_group(9), True),
        "C3xC3": (direct_product(cyclic_group(3), cyclic_group(3)), False),
    }
    order_27 = {
        "C27": (cyclic_group(27), True),
        "C9xC3": (direct_product(cyclic_group(9), cyclic_group(3)), False),
        "C3^3": (direct_product(direct_product(cyclic_group(3), cyclic_group(3)),
                                cyclic_group(3)), False),
        "heisenberg": (heisenberg_27(), False),
        "C9:C3": (nonabelian_27_exponent_9(), False),
    }
    ok = True
    for name, (G, expected) in {**order_9, **order_27}.items():
        verdict = classify(G)
        ok = ok and verdict.realizable == expected and _oracle_agrees(G)
    _report("1 odd-prime-power-law", ok)


def test_criterion_2_even_prime_power_law():
    c2 = cyclic_group(2)
    order_4 = [cyclic_group(4), dihedral_group(4)]
    order_8 = {
        "C8": (cyclic_group(8), True),
        "C4xC2": (direct_product(cyclic_group(4), c2), False),
        "C2^3": (direct_product(dihedral_group(4), c2), False),
        "D8": (dihedral_group(8), True),
        "Q8": (quaternion_group(8), True),
    }
    order_16 = {
        "C16": (cyclic_group(16), True),
        "C8xC2": (direct_product(cyclic_group(8), c2), False),
        "C4xC4": (direct_product(cyclic_group(4), cyclic_group(4)), False),
        "C4xC2^2": (direct_product(cyclic_group(4), dihedral_group(4)), False),
        "C2^4": (direct_product(dihedral_group(4), dihedral_group(4)), False),
        "D16": (dihedral_group(16), True),
        "Q16": (quaternion_group(16), True),
    }
    ok = all(classify(G).realizable and _oracle_agrees(G) for G in order_4)
    for name, (G, expected) in {**order_8, **order_16}.items():
        verdict = classify(G)
        ok = ok and verdict.realizable == expected and _oracle_agrees(G)
    _report("2 even-prime-power-law", ok)


def test_criterion_3_order_84_counterexample():
    N = parse_group_spec(
        "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:8 s->phi:13")
    d14 = cgroup_group(CGroupPresentation(7, 2, 6))
    d6 = cgroup_group(CGroupPresentation(3, 2, 2))
    product = direct_product(d14, d6)
    ok = find_isomorphism(N, product) is not None

    # both factors are characteristic, so the holomorph splits accordingly
    first = set(range(0, product.order, 6))      # (a, identity) indices
    second = set(range(6))                       # (identity, b) indices
    for perm in automorphism_group(product):
        ok = ok and {int(perm[g]) for g in first} == first
        ok = ok and {int(perm[g]) for g in second} == second

    # the holomorphs read off their (translation, twist) pairs
    auts_14, auts_6 = automorphism_group(d14), automorphism_group(d6)
    ok = ok and d14.order * len(auts_14) == 588 and d6.order * len(auts_6) == 36
    ok = ok and 588 * 36 == 84 * len(automorphism_group(product))
    orders_14 = {HolElement(d14, a, p).order()
                 for a in range(d14.order) for p in auts_14.tolist()}
    orders_6 = {HolElement(d6, a, p).order()
                for a in range(d6.order) for p in auts_6.tolist()}
    ok = ok and 4 not in orders_14 and 4 not in orders_6
    # element orders in the split holomorph are lcm pairs: none reaches 84
    ok = ok and all(math.lcm(a, b) != 84 for a in orders_14 for b in orders_6)

    verdict = classify(N)
    ok = ok and not verdict.realizable and verdict.reason == REASON_ALPHA
    _report("3 order-84-counterexample", ok)


def test_criterion_4_classifier_oracle_equivalence(corpus_reps):
    disagreements = 0
    checked = 0
    for entry in corpus_reps:
        verdict = classify(entry.group)
        try:
            found = cyclic_regular_oracle(entry.group, hol_bound=20000)
        except BoundExceeded:
            continue
        checked += 1
        if verdict.realizable != bool(found):
            disagreements += 1
    ok = disagreements == 0 and checked > 0
    print(f"  (criterion 4: {checked} groups oracle-checked)")
    _report("4 classifier-oracle-equivalence", ok)


def test_criterion_4b_oracle_equivalence_at_hol_bound_100000(corpus_reps):
    # criterion 4 at five times its bound: every in-bound witness is also one
    # of the oracle's generators, and sympy sees it as a single n-cycle
    # (the winners are read from the oracle's arrays, not built as objects)
    from sympy.combinatorics import Permutation
    ok = True
    checked = 0
    pair_steps = 0
    for entry in corpus_reps:
        N = entry.group
        try:
            found = cyclic_regular_oracle(N, hol_bound=100_000)
        except BoundExceeded:
            continue
        checked += 1
        pair_steps += found.pair_steps
        verdict = classify(N)
        ok = ok and verdict.realizable == bool(found)
        phi = sum(1 for a in range(1, N.order + 1) if math.gcd(a, N.order) == 1)
        ok = ok and len(found) % phi == 0  # each cyclic subgroup has phi(n) generators
        if verdict.realizable:
            w = verdict.witness
            row = np.flatnonzero((found.perms == w.twist).all(axis=1))
            ok = ok and len(row) == 1 and bool(
                ((found.translations == w.translation) & (found.twists == row[0])).any())
            cycle = Permutation(list(w.action_perm()))
            ok = ok and cycle.size == N.order and cycle.cycles == 1
    print(f"  (criterion 4b: {checked} groups oracle-checked, {pair_steps} pair-steps)")
    _report("4b classifier-oracle-equivalence-at-100000",
            ok and checked == 114 and pair_steps == 2_421_096)


def test_criterion_4c_orbit_oracle_over_every_representative(corpus_reps, full_scan):
    # bound 3 400 000 holds all 202 holomorphs.  Aut(N) acts freely on the
    # winners by conjugation, so their count is a multiple of |Aut(N)|; where
    # the plain full scan is in bound (100 000) the arrays are its arrays.
    # Each group is a fresh copy, so its Aut(N) array is freed after use.
    checked = disagreements = winners = compared = 0
    ok = True
    for entry in corpus_reps:
        G = entry.group
        N = FiniteGroup(G.table, labels=G.labels, label_style=G.label_style)
        found = cyclic_regular_oracle(N, hol_bound=3_400_000)
        checked += 1
        winners += len(found)
        disagreements += classify(N).realizable != bool(found)
        ok = ok and len(found) % len(found.perms) == 0
        if N.order * len(found.perms) <= 100_000:
            compared += 1
            translations, twists = full_scan(N, 100_000)
            ok = ok and np.array_equal(found.translations, translations) \
                and np.array_equal(found.twists, twists)
    print(f"  (criterion 4c: {checked} groups oracle-checked, {winners} winners, "
          f"{disagreements} disagreements, {compared} matched the full scan)")
    _report("4c orbit-oracle-over-every-representative",
            ok and checked == len(corpus_reps) == 202 and disagreements == 0
            and winners == 1_320_410 and compared == 114)


def test_criterion_5_constructor_soundness(corpus_reps):
    ok = True
    checked = 0
    for entry in corpus_reps:
        verdict = classify(entry.group)
        if not verdict.realizable or verdict.decomposition is None:
            continue
        dec = verdict.decomposition
        n = entry.group.order
        xi, eta0, witness = construct(dec)
        # xi^n is the identity map
        perm = np.asarray(xi.images)
        power = np.arange(n)
        for _ in range(n):
            power = perm[power]
        ok = ok and np.array_equal(power, np.arange(n))
        # closed form against iterated products, out to 2n
        prods = twisted_partial_products(dec, xi, eta0, 2 * n)
        ok = ok and prods == closed_form_products(dec, 2 * n)
        ok = ok and prods[n - 1] == entry.group.identity
        # the witness generates a full-length cycle
        ok = ok and witness.cycle_length_through_identity() == n
        ok = ok and witness.order() == n
        checked += 1
    print(f"  (criterion 5: {checked} constructions verified)")
    _report("5 constructor-soundness", ok and checked > 0)


def test_criterion_6_aut_decomposition(cgroup_test_groups):
    ok = True
    for pres, G in cgroup_test_groups:
        ue, ukd = unit_groups(pres)
        expected = pres.g_theta * len(ue) * len(ukd)
        brute = automorphism_group(G)
        ok = ok and len(brute) == expected
        coords = [G.label(i) for i in range(G.order)]
        index_of = {lab: i for i, lab in enumerate(coords)}
        aut_grp = cgroup_aut_group(pres)
        canonical = {CGroupAut(pres, *aut_grp.label(i)).as_permutation(coords, index_of)
                     for i in range(aut_grp.order)}
        ok = ok and canonical == set(map(tuple, brute.tolist()))
    ok = ok and len(automorphism_group(
        cgroup_group(CGroupPresentation(7, 3, 2)))) == 42
    ok = ok and len(automorphism_group(
        cgroup_group(CGroupPresentation(5, 4, 2)))) == 20
    _report("6 aut-decomposition", ok)


def test_criterion_7_fpf_gap(corpus_reps, fpf_search, regular_from_fpf):
    ok = True
    for entry in corpus_reps:  # none of these splits is a C-group
        n = entry.group.order
        ok = ok and fpf_search(cyclic_group(n), entry.group) == []
    for pres in cgroup_pool() + [CGroupPresentation(5, 4, 2),
                                 CGroupPresentation(3, 2, 2)]:
        N = cgroup_group(pres)
        pairs = fpf_search(cyclic_group(N.order), N)
        ok = ok and bool(pairs)
        recognized = recognize_cgroup(N)
        x, y = recognized[1], recognized[2]
        gen = 1 if N.order > 1 else 0
        ok = ok and any(f(gen) == x and h(gen) == y for f, h in pairs)
        for f, h in pairs:
            sub = regular_from_fpf(N, f, h)
            ok = ok and is_regular_subgroup(N, sub)
    _report("7 fpf-gap", ok)


def test_criterion_8_rump_cross_check(corpus_reps):
    ok = True
    strict_witness = False
    for entry in corpus_reps:
        realizable = classify(entry.group).realizable
        rump = classify_rump(entry.group)
        if realizable and not rump:
            ok = False
        if rump and not realizable and entry.group.order == 84:
            strict_witness = True
    _report("8 rump-cross-check", ok and strict_witness)


def test_criterion_9_structural_lemma_suite(corpus_reps):
    ok = True
    klein = dihedral_group(4)
    # commutator subgroup and Klein quotient for every two-group in the pool
    for P in (dihedral_group(4), quaternion_group(8), dihedral_group(8),
              dihedral_group(16), quaternion_group(16)):
        derived = commutator_subgroup(P)
        ok = ok and derived == subgroup_generated(P, [P.power(2, 2)])
        quotient, _ = quotient_group(P, derived)
        ok = ok and find_isomorphism(quotient, klein) is not None

    probe_checked = 0
    for entry in corpus_reps:
        dec = decompose(entry.group)
        if dec is None:
            continue
        N = entry.group
        P = dec.p_group
        p_to_n = dec.grid[:P.order].tolist()
        image = {(a.c, a.u, a.v) for a in dec.alpha}

        # the action avoids the psi family and lands in an elementary
        # 2-abelian image of size 1, 2, or 4
        ok = ok and all(a.v == 1 for a in dec.alpha)
        ok = ok and len(image) in (1, 2, 4)
        for a in dec.alpha:
            ok = ok and a.compose(a).is_identity
            for b in dec.alpha:
                ok = ok and a.compose(b) == b.compose(a)

        # matching x images force matching actions
        by_u = {}
        for a in dec.alpha:
            by_u.setdefault(a.u, set()).add((a.c, a.u, a.v))
        ok = ok and all(len(v) == 1 for v in by_u.values())

        # kernel contains the squares subgroup and is one of five candidates
        r_idx = p_to_n.index(dec.r)
        s_idx = p_to_n.index(dec.s)
        rs_idx = p_to_n.index(N.mul(dec.r, dec.s))
        r2_idx = P.mul(r_idx, r_idx)
        kernel = frozenset(t for t in range(P.order) if dec.alpha[t].is_identity)
        ok = ok and set(subgroup_generated(P, [r2_idx])) <= kernel
        candidates = {
            frozenset(subgroup_generated(P, gens))
            for gens in ([r2_idx], [r2_idx, s_idx], [r2_idx, rs_idx],
                         [r_idx], [r_idx, s_idx])
        }
        ok = ok and kernel in candidates

        # elements of 2-power order lie in <x> extended by P
        orders = N.orders
        for g in range(N.order):
            o = int(orders[g])
            if o & (o - 1) == 0:  # 2-power order, including 1
                ok = ok and dec.exps[dec.pos[g], 1] == 0

        # quotient-action collapse when the index-2 cyclic subgroup acts
        big_p = dec.p_group.order >= 16 or \
            (dec.p_kind == "dihedral" and dec.p_group.order == 8)
        if big_p and not dec.alpha_r.is_identity:
            probe = quotient_action_probe(dec)
            _, coset = quotient_group(
                N, subgroup_generated(N, list(normal_hall_odd_subgroup(N))
                                      + [N.mul(dec.r, dec.r)]))
            for induced in probe:
                ok = ok and induced[coset[dec.r]] == coset[dec.r]
                ok = ok and induced[coset[dec.s]] == coset[dec.s]
            probe_checked += 1
    print(f"  (criterion 9: {probe_checked} quotient probes)")
    _report("9 structural-lemma-suite", ok and probe_checked > 0)
