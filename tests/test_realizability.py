"""The classifier, the decomposition, normalization, and the constructor."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from holoreg import (CGroupAut, CGroupPresentation, GroupDefinitionError,
                     HomomorphismError, automorphism_group, cgroup_aut_group,
                     cgroup_auts, cgroup_group, cgroup_pool, classify,
                     classify_rump, cli, closed_form_products, construct,
                     corpus_representatives, cyclic_group,
                     cyclic_regular_oracle, decompose, dihedral_group,
                     direct_product, dump_cayley_table, find_isomorphism,
                     generate_corpus, normal_hall_odd_subgroup,
                     normalize_alpha, parse_group_spec, quaternion_group,
                     quotient_action_probe, quotient_group,
                     semidirect_product, subgroup_generated,
                     twisted_partial_products)
from holoreg.realizability import (REASON_ALPHA, REASON_CASE_1, REASON_CASE_2,
                                   REASON_CGROUP, REASON_NOT_2NILPOTENT,
                                   REASON_P_SHAPE, Decomposition, _corpus)
from holoreg import specs
from holoreg.cgroups import FACTORS
from holoreg.specs import action_from_generators


def klein_group():
    return dihedral_group(4)


def faithful_order_84_group():
    return parse_group_spec(
        "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:8 s->phi:13")


def alternating_4():
    K = klein_group()
    rot = {0: 0, 1: 2, 2: 3, 3: 1}
    perm1 = [rot[g] for g in range(4)]
    perm2 = [rot[rot[g]] for g in range(4)]
    return semidirect_product(K, cyclic_group(3),
                              [list(range(4)), perm1, perm2], name="alt 4")


# -- decompose -------------------------------------------------------------------


def test_decompose_order_84_group():
    N = faithful_order_84_group()
    dec = decompose(N)
    assert dec is not None
    assert dec.pres.order == 21
    assert dec.p_kind == "dihedral" and dec.p_group.order == 4
    assert dec.alpha_image_size == 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        dec.r = dec.s


def test_decompose_quaternion_8():
    dec = decompose(quaternion_group(8))
    assert dec.pres.order == 1
    assert dec.p_kind == "quaternion"
    assert dec.alpha_image_size == 1


def test_decompose_alternating_4_absent():
    assert decompose(alternating_4()) is None


def test_decompose_witnesses_satisfy_relations():
    for N in (dihedral_group(16), quaternion_group(16),
              faithful_order_84_group()):
        dec = decompose(N)
        half = dec.p_group.order // 2
        assert N.order_of(dec.r) == half
        assert N.power(dec.r, half) == N.identity
        s_sq = N.mul(dec.s, dec.s)
        if dec.p_kind == "dihedral":
            assert s_sq == N.identity
        else:
            assert s_sq == N.power(dec.r, half // 2)
        assert N.conj(dec.r, dec.s) == N.inv(dec.r)


def test_decompose_alpha_matches_conjugation():
    N = faithful_order_84_group()
    dec = decompose(N)
    for idx, t in enumerate(dec.grid[:dec.p_group.order].tolist()):
        aut = dec.alpha[idx]
        for m in normal_hall_odd_subgroup(N):
            i, j, a, b = dec.exps[dec.pos[m]].tolist()
            assert (a, b) == (0, 0)
            assert dec.exps[dec.pos[N.conj(m, t)]].tolist() == [*aut.apply(i, j), 0, 0]


def test_action_check_rejects_a_non_action():
    # over C_7, phi:6 is an involution and phi:2 has order 3, so with r -> id
    # only s -> phi:6 is an action of the Klein group
    P = klein_group()
    pres = CGroupPresentation(7, 1, 1)
    ident = CGroupAut(pres, 0, 1, 1)
    for u, is_action in ((6, True), (2, False)):
        phi = CGroupAut(pres, 0, u, 1)
        if is_action:
            alpha = action_from_generators(P, ident, phi)
            assert alpha == tuple(phi if b else ident for _, b in P.labels)
        else:
            with pytest.raises(HomomorphismError, match="s\\^2 relation"):
                action_from_generators(P, ident, phi)


# -- classify --------------------------------------------------------------------


def test_classify_odd_prime_powers():
    assert classify(cyclic_group(9)).realizable
    assert classify(cyclic_group(27)).realizable
    nine = direct_product(cyclic_group(3), cyclic_group(3))
    verdict = classify(nine)
    assert not verdict.realizable
    assert verdict.reason == REASON_NOT_2NILPOTENT


def test_classify_order_8_exactly_three_groups():
    expected = {
        "cyclic": True, "dihedral": True, "quaternion": True,
        "c2xc4": False, "c2cubed": False,
    }
    groups = {
        "cyclic": cyclic_group(8),
        "dihedral": dihedral_group(8),
        "quaternion": quaternion_group(8),
        "c2xc4": direct_product(cyclic_group(2), cyclic_group(4)),
        "c2cubed": direct_product(cyclic_group(2), klein_group()),
    }
    for name, G in groups.items():
        assert classify(G).realizable == expected[name], name


def test_classify_reasons():
    assert classify(cyclic_group(8)).reason == REASON_CGROUP
    assert classify(klein_group()).reason == REASON_CASE_1
    assert classify(quaternion_group(8)).reason == REASON_CASE_1
    assert classify(dihedral_group(8)).reason == REASON_CASE_2
    assert classify(quaternion_group(16)).reason == REASON_CASE_2
    assert classify(direct_product(cyclic_group(2), cyclic_group(4))
                    ).reason == REASON_P_SHAPE
    assert classify(alternating_4()).reason == REASON_NOT_2NILPOTENT
    assert classify(faithful_order_84_group()).reason == REASON_ALPHA


def test_every_positive_verdict_carries_regular_witness(corpus_reps):
    for entry in corpus_reps:
        verdict = classify(entry.group)
        if verdict.realizable:
            w = verdict.witness
            assert w.order() == entry.group.order
            assert w.cycle_length_through_identity() == entry.group.order


def test_classify_builds_only_p(corpus_reps, constructions):
    # the split is checked inside N, and M recognized there: no second copy
    # of N and no table of M is built; P is the shared factor, so classify
    # builds it only when no spec has named it yet, and runs no full check
    validated, built = constructions
    for entry in corpus_reps:
        N = parse_group_spec(entry.spec)
        FACTORS.clear()  # the split must make its own P
        validated.clear()
        built.clear()
        dec = classify(N).decomposition
        assert (validated, built) == ([], [dec.p_group]), entry.spec
        again = parse_group_spec(entry.spec)  # makes its M and N, shares P
        assert len(built) == 3 and built[2] is again is not N, entry.spec
        built.clear()
        assert classify(again).decomposition.p_group is dec.p_group, entry.spec
        assert (validated, built) == ([], []), entry.spec


def test_a_table_file_gets_exactly_one_full_check(tmp_path, constructions):
    # the converse: trust never reaches a table read from a file
    validated, built = constructions
    path = tmp_path / "d8.tbl"
    dump_cayley_table(dihedral_group(8), path)
    validated.clear()
    built.clear()
    text, code = cli.run(cli.Request("classify", table=str(path)))
    assert code == 0 and "realizable: true" in text
    assert [G.name for G in validated] == [f"table {path}"]
    assert [G.name for G in built] == ["dihedral 8"]  # the split's P
    # read again, the file is checked again; the split's P is shared
    validated.clear()
    built.clear()
    assert cli.run(cli.Request("classify", table=str(path))) == (text, code)
    assert ([G.name for G in validated], built) == ([f"table {path}"], [])


def test_classify_agrees_with_oracle_on_small_corpus(corpus_reps):
    from holoreg import BoundExceeded
    for entry in corpus_reps:
        if entry.group.order > 48:
            continue
        verdict = classify(entry.group)
        try:
            found = cyclic_regular_oracle(entry.group, hol_bound=20000)
        except BoundExceeded:
            continue
        assert verdict.realizable == bool(found), entry.spec


# -- normalization ------------------------------------------------------------------


def test_normalize_leaves_trivial_action_alone(split_model):
    N = direct_product(cgroup_group(CGroupPresentation(7, 3, 2)), klein_group())
    dec = decompose(N)
    ndec = normalize_alpha(dec)
    assert ndec.alpha_r.is_identity
    assert ndec.alpha_s.is_identity
    assert split_model(ndec).order == N.order


def test_normalize_moves_kernel_element_onto_r(split_model):
    # ker(alpha) = {1, rs}: r and s both invert, rs acts trivially
    spec = "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:20 s->phi:20"
    N = parse_group_spec(spec)
    dec = decompose(N)
    assert not dec.alpha_r.is_identity
    ndec = normalize_alpha(dec)
    assert ndec.alpha_r.is_identity
    assert ndec.alpha_s.c == 0 and ndec.alpha_s.v == 1
    assert split_model(ndec).order == N.order


def _split_with_s_outside_phi_family():
    """(N, dec) for a split of order 84 whose witnesses put the r action at
    the identity and the s action outside the phi family."""
    from holoreg.specs import build_semidirect_from_auts

    pres = CGroupPresentation(7, 3, 2)
    N = build_semidirect_from_auts(pres, klein_group(),
                                   CGroupAut(pres, 0, 1, 1),
                                   CGroupAut(pres, 0, 6, 1))
    dec = decompose(N)
    # orient the witnesses so that r acts trivially and s does not
    if dec.alpha_r.is_identity and dec.alpha_s.is_identity:
        pytest.fail("the action should have image of order 2")
    if not dec.alpha_r.is_identity:
        if dec.alpha_s.is_identity:
            dec = dataclasses.replace(dec, r=dec.s, s=dec.r)
        else:
            dec = dataclasses.replace(dec, r=N.mul(dec.r, dec.s))
    # grid row (i d + j) |P| holds x^i y^j r^0 s^0
    x_z = int(dec.grid[(dec.pres.z % 7) * dec.pres.d * dec.p_group.order])
    theta_shifted_y = N.mul(x_z, dec.y)
    return N, dataclasses.replace(dec, y=theta_shifted_y)


def test_normalize_conjugates_s_action_into_phi_family(split_model):
    # force witnesses that put the s action outside the phi family, then
    # check the normalization search conjugates it back in
    N, dec = _split_with_s_outside_phi_family()
    assert dec.alpha_r.is_identity
    assert dec.alpha_s.c != 0
    ndec = normalize_alpha(dec)
    assert ndec.alpha_r.is_identity
    assert ndec.alpha_s.c == 0 and ndec.alpha_s.v == 1
    assert ndec.alpha_s.u != 1
    assert split_model(ndec).order == N.order
    _, _, witness = construct(ndec)
    assert witness.cycle_length_through_identity() == 84


def test_normalize_rebuilds_the_split_at_most_once(monkeypatch):
    # swapping r and s of the forced split makes both moves needed: r acts
    # nontrivially, and the s that takes its place acts outside the phi
    # family; both are read off the given split, which is rebuilt once
    _, mid = _split_with_s_outside_phi_family()
    dec = dataclasses.replace(mid, r=mid.s, s=mid.r)
    assert not dec.alpha_r.is_identity and mid.alpha_s.c != 0
    calls, build = [], Decomposition.__post_init__

    def counting(self):
        calls.append(self)
        build(self)

    monkeypatch.setattr(Decomposition, "__post_init__", counting)
    ndec = normalize_alpha(dec)
    assert len(calls) == 1 and ndec.is_normalized
    # the same witnesses as taking the two moves one at a time
    assert ndec == normalize_alpha(mid) and len(calls) == 2
    assert normalize_alpha(ndec) is ndec and len(calls) == 2


def test_normalize_rejects_failing_condition():
    dec = decompose(faithful_order_84_group())
    with pytest.raises(GroupDefinitionError):
        normalize_alpha(dec)


# -- the constructor -----------------------------------------------------------------


def test_construct_on_dihedral_8():
    dec = normalize_alpha(decompose(dihedral_group(8)))
    xi, eta0, witness = construct(dec)
    N = dec.group
    assert eta0 == N.mul(dec.r, dec.s)
    prods = twisted_partial_products(dec, xi, eta0, 2 * N.order)
    assert prods[1] == dec.r  # (rs) xi(rs) = r
    assert prods == closed_form_products(dec, 2 * N.order)
    assert prods[N.order - 1] == N.identity
    assert witness.cycle_length_through_identity() == N.order


def test_construct_on_direct_product_with_frobenius():
    N = direct_product(cgroup_group(CGroupPresentation(7, 3, 2)), klein_group())
    dec = normalize_alpha(decompose(N))
    xi, eta0, witness = construct(dec)
    # with a trivial action xi acts on the odd part as phi with u = k^-1 = 4
    assert xi(dec.x) == N.power(dec.x, 4)
    assert witness.order() == 84
    assert witness.cycle_length_through_identity() == 84


def test_construct_requires_normalized_action():
    spec = "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:20 s->phi:20"
    dec = decompose(parse_group_spec(spec))
    with pytest.raises(GroupDefinitionError):
        construct(dec)


def test_constructed_xi_has_order_dividing_2d(corpus_reps):
    for entry in corpus_reps:
        if entry.group.order > 100:
            continue
        verdict = classify(entry.group)
        if not verdict.realizable or verdict.decomposition is None:
            continue
        dec = verdict.decomposition
        xi, _, _ = construct(dec)
        perm = np.asarray(xi.images)
        power = perm.copy()
        order = 1
        idx = np.arange(entry.group.order)
        while not np.array_equal(power, idx):
            power = perm[power]
            order += 1
        assert (2 * dec.pres.d) % order == 0


# -- quotient-action diagnostics -------------------------------------------------------


def test_probe_is_trivial_for_the_order_84_group():
    N = faithful_order_84_group()
    dec = decompose(N)
    probe = quotient_action_probe(dec)
    assert len(probe) == 1


def test_probe_is_full_for_untwisted_product():
    N = direct_product(cgroup_group(CGroupPresentation(7, 3, 2)), klein_group())
    dec = decompose(N)
    probe = quotient_action_probe(dec)
    assert len(probe) == 6  # every automorphism of the Klein quotient


def test_probe_nontrivial_for_dihedral_8():
    N = dihedral_group(8)
    dec = decompose(N)
    probe = quotient_action_probe(dec)
    assert len(probe) > 1


def test_probe_matches_coset_by_coset_reference(corpus_reps):
    # the plain loop over automorphisms and elements that the probe vectorizes
    groups = [faithful_order_84_group(), dihedral_group(8)] + \
        [e.group for e in corpus_reps if e.group.order <= 96][::7]
    for N in groups:
        dec = decompose(N)
        Q, coset = quotient_group(N, subgroup_generated(
            N, list(normal_hall_odd_subgroup(N)) + [N.mul(dec.r, dec.r)]))
        induced = set()
        for perm in automorphism_group(N):
            img = [None] * Q.order
            for g in range(N.order):
                img[coset[g]] = coset[perm[g]]
            induced.add(tuple(img))
        assert list(map(tuple, quotient_action_probe(dec).tolist())) == sorted(induced)


# -- the companion classifier ------------------------------------------------------------


def test_rump_on_order_84_group():
    assert classify_rump(faithful_order_84_group())


def test_rump_rejects_elementary_9():
    assert not classify_rump(direct_product(cyclic_group(3), cyclic_group(3)))


def test_rump_accepts_quaternion_16():
    assert classify_rump(quaternion_group(16))


def test_rump_rejects_alternating_4():
    assert not classify_rump(alternating_4())


def test_rump_matches_regular_enumeration_in_cyclic_holomorph():
    # the companion classifier predicts whether a regular copy of G sits in
    # the holomorph of the cyclic group of the same order; enumerate to check
    from holoreg import regular_subgroups_isomorphic_to
    cases = [
        cyclic_group(8),
        dihedral_group(8),
        quaternion_group(8),
        direct_product(cyclic_group(2), cyclic_group(4)),
        dihedral_group(4),
        cgroup_group(CGroupPresentation(3, 2, 2)),
        direct_product(cyclic_group(3), cyclic_group(3)),
        parse_group_spec("semidirect (cyclic 3) (dihedral 4) alpha r->id s->phi:2"),
        cgroup_group(CGroupPresentation(7, 2, 6)),
        direct_product(cyclic_group(2), cyclic_group(6)),
        quaternion_group(16),
        dihedral_group(16),
        cyclic_group(16),
    ]
    for G in cases:
        found = regular_subgroups_isomorphic_to(G, cyclic_group(G.order))
        assert classify_rump(G) == bool(found), G.name


RUMP_ORDERS = [n for n in range(1, 64) if n not in (32, 48)]


def test_rump_holds_exactly_on_regular_subgroups_of_cyclic_holomorphs(corpus_reps):
    # every regular subgroup of Hol(C_n), n <= 63 but 32 and 48, satisfies
    # Rump's condition, and on the test groups the condition holds exactly
    # when some regular subgroup is isomorphic to the group
    from holoreg import all_regular_subgroups, regular_subgroup_as_group
    regular = {}
    for n in RUMP_ORDERS:
        N = cyclic_group(n)
        regular[n] = [regular_subgroup_as_group(N, s) for s in all_regular_subgroups(N)]
        assert all(classify_rump(G) for G in regular[n]), n
    assert sum(map(len, regular.values())) == 289

    def order_counts(G):
        return np.bincount(G.orders).tolist()

    reps = [e.group for e in corpus_reps if e.group.order in regular]
    assert len(reps) == 37
    tests = reps + [klein_group(), dihedral_group(8), dihedral_group(16),
                    quaternion_group(8), quaternion_group(16)]
    tests += [direct_product(cyclic_group(a), cyclic_group(b))
              for a in range(2, 32) for b in range(a, 32) if a * b in regular]
    tests += [cgroup_group(CGroupPresentation(*p)) for p in
              ((3, 2, 2), (7, 3, 2), (5, 4, 2), (7, 2, 6), (9, 2, 8), (7, 6, 3),
               (13, 3, 3))]
    for G in tests:
        occurs = any(order_counts(H) == order_counts(G)
                     and find_isomorphism(G, H) is not None for H in regular[G.order])
        assert classify_rump(G) == occurs, G.name


def test_realizable_implies_rump(corpus_reps):
    for entry in corpus_reps:
        if classify(entry.group).realizable:
            assert classify_rump(entry.group), entry.spec


# -- corpus hygiene ---------------------------------------------------------------------


def test_corpus_is_deterministic():
    # two builds past the cache, which would hand back the same list
    first, second = _corpus.__wrapped__(5), _corpus.__wrapped__(5)
    assert first is not second
    assert [(e.spec, e.duplicate_of) for e in first] == \
        [(e.spec, e.duplicate_of) for e in second]


def test_corpus_builds_each_table_only_when_read(monkeypatch):
    # the classes come from the action, so listing the corpus, its
    # representatives and every spec and duplicate link builds no table;
    # reading a group builds its table once
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return semidirect_product(*args, **kwargs)

    monkeypatch.setattr(specs, "semidirect_product", counting)
    corpus = _corpus.__wrapped__(21)
    reps = corpus_representatives(corpus)
    links = [(e.spec, e.duplicate_of) for e in corpus]
    assert len(links) == 435 and len(reps) == 202 and built == []
    entry = reps[-1]
    G = entry.group
    assert entry.group is G and len(built) == 1
    assert G.name == entry.spec


def test_corpus_makes_no_isomorphism_search(monkeypatch):
    # the pool and the splits are both classed without a search
    def refuse(G, H):
        raise AssertionError("find_isomorphism called while building the corpus")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "holoreg" and hasattr(module, "find_isomorphism"):
            monkeypatch.setattr(module, "find_isomorphism", refuse)
    assert len(_corpus.__wrapped__(21)) == 435


def test_cgroup_pool_matches_isomorphism_search(duplicate_of):
    # the pool keeps the first normalized presentation per (e, d, <k>); the
    # reference search over every normalized presentation of odd order up to
    # 255 keeps the same first member of each class
    found = []
    for total in range(1, 256, 2):
        for e in range(1, total + 1):
            if total % e or math.gcd(e, total // e) != 1:
                continue
            for k in range(1, max(e, 2)):
                try:
                    pres = CGroupPresentation(e, total // e, k)
                except GroupDefinitionError:
                    continue
                if pres.is_normalized:
                    found.append(pres)
    dup = duplicate_of([cgroup_group(pres) for pres in found])
    assert len(found) == 202 and dup.count(None) == 153
    assert cgroup_pool(255) == [pres for pres, d in zip(found, dup) if d is None]


def test_automorphism_count_matches_split_formula(corpus_reps):
    # N = M x|_alpha P with coprime orders: Aut(N) moves P through the
    # |M : C_M(P)| complements of M, all conjugate to P, and the
    # automorphisms keeping M and P are the pairs (mu, sigma) in
    # Aut(M) x Aut(P) with c_mu o alpha o sigma = alpha
    for entry in corpus_reps:
        pres, P, aut_r, aut_s = entry.factors
        auts, A = cgroup_auts(pres), cgroup_aut_group(pres)
        index = {a: i for i, a in enumerate(auts)}
        alpha = np.array([index[a] for a in action_from_generators(P, aut_r, aut_s)])
        rs = [P.labels.index((1, 0)), P.labels.index((0, 1))]
        conj = A.table[A.table, A.inverses[:, None]]  # conj[mu, a] = mu a mu^-1
        images = conj[:, alpha[automorphism_group(P)[:, rs]]]  # [mu, sigma, r|s]
        stabilizer = int(np.all(images == alpha[rs], axis=-1).sum())
        N = entry.group
        m_elems = [g for g in range(N.order) if N.label(g)[1] == (0, 0)]
        p_elems = [g for g in range(N.order) if N.label(g)[0] == (0, 0)]
        centralizer = [x for x in m_elems
                       if all(N.mul(x, t) == N.mul(t, x) for t in p_elems)]
        assert len(automorphism_group(N)) == \
            len(m_elems) // len(centralizer) * stabilizer, entry.spec


def test_corpus_specs_parse_back(corpus_reps):
    for entry in corpus_reps[:25]:
        G = parse_group_spec(entry.spec)
        assert G.order == entry.group.order


def test_corpus_duplicates_really_are_isomorphic(corpus):
    seen = 0
    for entry in corpus:
        if entry.duplicate_of is not None and entry.group.order <= 60:
            other = corpus[entry.duplicate_of].group
            assert find_isomorphism(entry.group, other) is not None
            seen += 1
            if seen >= 10:
                break
    assert seen > 0


def test_classify_is_isomorphism_invariant_up_to_96(corpus):
    """Equal verdicts along every isomorphism between corpus members.

    Isomorphic pairs are exactly the duplicate links found during corpus
    dedup; for pairs with differing verdicts we confirm no isomorphism
    exists, which together covers every pair of equal order.
    """
    small = [e for e in corpus if e.group.order <= 96]
    verdicts = {}
    for entry in small:
        rep = entry if entry.duplicate_of is None else corpus[entry.duplicate_of]
        key = id(rep)
        if key not in verdicts:
            verdicts[key] = classify(rep.group).realizable
        if entry.duplicate_of is not None:
            assert classify(entry.group).realizable == verdicts[key]
    by_order = {}
    for entry in small:
        if entry.duplicate_of is None:
            by_order.setdefault(entry.group.order, []).append(entry)
    for order, bucket in by_order.items():
        for i, a in enumerate(bucket):
            for b in bucket[i + 1:]:
                if classify(a.group).realizable != classify(b.group).realizable:
                    assert find_isomorphism(a.group, b.group) is None
