"""Every element of a split N = M x| P is one word x^i y^j r^a s^b, read off
the one grid a ``Decomposition`` evaluates when it is built.  Each reader of
the grid is compared with the plain loop it replaced, kept here as the
reference, and the grid's one uniqueness check is covered for each witness
fault the loops used to catch.

The loops: x^i y^j by repeated products, the words r^a s^b by ``N.power``,
x^i y^j r^a s^b from those two, the isomorphism onto the abstract model
M x| P through a label dict, and xi evaluated one element at a time.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from holoreg import (Decomposition, FiniteGroup, GroupDefinitionError,
                     classify, construct, cyclic_group, decompose,
                     dihedral_group, direct_product, parse_group_spec,
                     quaternion_group, recognize_cgroup, subgroup_generated,
                     words)
from holoreg.realizability import REASON_CASE_1, REASON_CASE_2

UNIQUE = r"^the words x\^i y\^j r\^a s\^b do not factor N uniquely$"


# -- the plain loops, kept as references --------------------------------------


def ref_cgroup_coordinates(G, x, y, pres):
    """coords[g] = (i, j) with g = x^i y^j, and the inverse index lookup."""
    coords = [None] * G.order
    index_of = {}
    xi = G.identity
    for i in range(pres.e):
        gij = xi
        for j in range(pres.d):
            if coords[gij] is not None:
                raise GroupDefinitionError("x and y do not factor the group uniquely")
            coords[gij] = (i, j)
            index_of[(i, j)] = gij
            gij = G.mul(gij, y)
        xi = G.mul(xi, x)
    return coords, index_of


def ref_p_words(N, p_group, r, s):
    """The N-index of each word r^a s^b, in p_group's order."""
    p_to_n = tuple(N.mul(N.power(r, a), N.power(s, b)) for a, b in p_group.labels)
    if len(set(p_to_n)) != p_group.order:
        raise GroupDefinitionError("witnesses r, s do not generate P")
    return p_to_n


def ref_factors(dec):
    """factors[g] = (i, j, a, b) with g = x^i y^j r^a s^b."""
    N = dec.group
    _, index_of = ref_cgroup_coordinates(N, dec.x, dec.y, dec.pres)
    p_to_n = ref_p_words(N, dec.p_group, dec.r, dec.s)
    out = [None] * N.order
    for (i, j), m in index_of.items():
        for pi, t in enumerate(p_to_n):
            a, b = dec.p_group.label(pi)
            out[N.mul(m, t)] = (i, j, a, b)
    if any(f is None for f in out):
        raise GroupDefinitionError("M and P do not factor N uniquely")
    return out


def ref_model_images(dec, model):
    index = {lab: g for g, lab in enumerate(model.labels)}
    return tuple(index[((i, j), (a, b))] for i, j, a, b in ref_factors(dec))


def ref_xi_images(dec):
    N, pres, a_s = dec.group, dec.pres, dec.alpha_s
    u0 = (a_s.u * pow(pres.k, -1, pres.e)) % pres.e if pres.e > 1 else 1
    xi_x, xi_y = N.power(dec.x, u0), dec.y
    xi_r, xi_s = N.inv(dec.r), N.mul(dec.r, dec.s)
    images = []
    for i, j, a, b in ref_factors(dec):
        val = N.mul(N.power(xi_x, i), N.power(xi_y, j))
        val = N.mul(val, N.power(xi_r, a))
        images.append(N.mul(val, N.power(xi_s, b)))
    return tuple(images)


# -- the comparisons -----------------------------------------------------------


def assert_grid_matches_reference(N: FiniteGroup, split_model) -> bool:
    """Compare every grid reader on N; True when N had a normalized split."""
    dec = decompose(N)
    if dec is None:
        return False
    verdict = classify(N)
    for d in filter(None, (dec, verdict.decomposition)):
        assert [tuple(row) for row in d.exps[d.pos].tolist()] == ref_factors(d), N.name
        assert tuple(d.grid[:d.p_group.order].tolist()) == \
            ref_p_words(N, d.p_group, d.r, d.s), N.name
    ndec = verdict.decomposition
    if not verdict.realizable or ndec is None:
        return False
    assert tuple(ndec.pos.tolist()) == ref_model_images(ndec, split_model(ndec)), N.name
    xi, _, witness = construct(ndec)
    assert xi.images == ref_xi_images(ndec) == witness.twist, N.name
    return True


def test_grid_matches_reference_on_corpus(corpus_reps, split_model, relabel):
    rng = np.random.default_rng(13)
    normalized = 0
    for entry in corpus_reps:
        normalized += assert_grid_matches_reference(entry.group, split_model)
        for _ in range(2):
            assert_grid_matches_reference(relabel(entry.group, rng), split_model)
    assert normalized == 135  # every representative is a theorem case 1 or 2


def _product(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = direct_product(out, f)
    return out


LARGE = {
    "cyclic-1000": lambda: cyclic_group(1000),
    "quaternion-256": lambda: quaternion_group(256),
    "dihedral-256": lambda: dihedral_group(256),
    "semidirect-672": lambda: parse_group_spec(
        "semidirect (cgroup 7 3 2) (dihedral 32) alpha r->id s->phi:6"),
    "semidirect-600": lambda: parse_group_spec(
        "semidirect (cyclic 75) (quaternion 8) alpha r->id s->phi:74"),
    "semidirect-1008": lambda: parse_group_spec(
        "semidirect (cyclic 63) (dihedral 16) alpha r->phi:62 s->id"),
    "c3xc3xd8": lambda: _product(cyclic_group(3), cyclic_group(3), dihedral_group(8)),
    "c15xc2xc4": lambda: _product(cyclic_group(15), cyclic_group(2), cyclic_group(4)),
    "c63xc2xc2xc2": lambda: _product(cyclic_group(63), *[cyclic_group(2)] * 3),
}


def test_grid_matches_reference_on_large_groups(split_model):
    normalized = {name for name, build in LARGE.items()
                  if assert_grid_matches_reference(build(), split_model)}
    assert normalized == {"quaternion-256", "dihedral-256", "semidirect-672",
                          "semidirect-600"}


def test_words_multiply_left_to_right():
    N = parse_group_spec("semidirect (cgroup 7 3 2) (dihedral 8) alpha r->id s->phi:6")
    gens = (5, 17, 40)
    rng = np.random.default_rng(3)
    exps = rng.integers(0, 30, size=(50, 3))
    want = [N.mul(N.mul(N.power(gens[0], a), N.power(gens[1], b)), N.power(gens[2], c))
            for a, b, c in exps.tolist()]
    assert words(N, gens, exps).tolist() == want
    assert words(N, gens, []).tolist() == []
    with pytest.raises(ValueError, match="non-negative"):
        words(N, gens, [(0, -1, 0)])


# -- the one uniqueness check --------------------------------------------------


@pytest.fixture(scope="module")
def split_15_by_d8():
    """A split with e = 15 and P dihedral of order 8, so x has powers of
    smaller order and r^2 is not the identity."""
    N = parse_group_spec("semidirect (cgroup 15 1 1) (dihedral 8) alpha r->id s->phi:14")
    dec = decompose(N)
    assert (dec.pres.e, dec.p_kind, dec.p_group.order) == (15, "dihedral", 8)
    return dec


@pytest.fixture(scope="module")
def split_7_3_by_klein():
    """A split with e = 7, d = 3 and P the Klein group, so x and y have
    different orders and both are nontrivial."""
    N = parse_group_spec("semidirect (cgroup 7 3 2) (dihedral 4) alpha r->id s->phi:6")
    dec = decompose(N)
    assert (dec.pres.e, dec.pres.d, dec.p_kind, dec.p_group.order) == (7, 3, "dihedral", 4)
    return dec


def test_grid_check_rejects_an_x_of_smaller_order(split_15_by_d8):
    dec = split_15_by_d8
    x3 = dec.group.power(dec.x, 3)
    with pytest.raises(GroupDefinitionError, match=UNIQUE):
        replace(dec, x=x3)


def test_grid_check_rejects_r_squared(split_15_by_d8):
    dec = split_15_by_d8
    r2 = dec.group.mul(dec.r, dec.r)
    with pytest.raises(GroupDefinitionError, match=UNIQUE):
        replace(dec, r=r2)


def test_grid_check_rejects_s_inside_r(split_15_by_d8):
    dec = split_15_by_d8
    r3 = dec.group.power(dec.r, 3)
    with pytest.raises(GroupDefinitionError, match=UNIQUE):
        replace(dec, s=r3)


def test_decompositions_compare_without_their_arrays(split_15_by_d8):
    dec = split_15_by_d8
    again = replace(dec)
    assert again == dec and again.grid is not dec.grid
    assert not any(a.flags.writeable for a in (dec.exps, dec.grid, dec.pos))


def test_constructor_rejects_swapped_x_and_y(split_7_3_by_klein):
    dec = split_7_3_by_klein
    with pytest.raises(GroupDefinitionError, match=UNIQUE):
        Decomposition(dec.group, dec.pres, dec.y, dec.x, dec.r, dec.s)


def test_constructor_rejects_r_at_the_identity(split_7_3_by_klein):
    dec = split_7_3_by_klein
    with pytest.raises(GroupDefinitionError, match=UNIQUE):
        Decomposition(dec.group, dec.pres, dec.x, dec.y, dec.group.identity, dec.s)


def test_replace_checks_the_new_witnesses(split_7_3_by_klein):
    dec = split_7_3_by_klein
    with pytest.raises(GroupDefinitionError, match=UNIQUE):
        replace(dec, r=dec.s)
    assert replace(dec, r=dec.group.mul(dec.r, dec.s)).r != dec.r


# -- the relation check ----------------------------------------------------------


def test_constructor_rejects_witnesses_that_break_p_relations():
    # in C3 x C4 x C2, r of order 4 and an involution s outside <r> factor N
    # uniquely and both act trivially on C3, but s r s^-1 = r, not r^-1
    N = direct_product(direct_product(cyclic_group(3), cyclic_group(4)), cyclic_group(2))
    pres, x, y = recognize_cgroup(N, 3)
    r = next(g for g in range(N.order) if N.order_of(g) == 4)
    s = next(g for g in range(N.order)
             if N.order_of(g) == 2 and g not in subgroup_generated(N, [r]))
    with pytest.raises(GroupDefinitionError, match="^r and s do not meet the relations "
                                                   "of dihedral 8$"):
        Decomposition(N, pres, x, y, r, s)


def test_constructor_rejects_witnesses_that_break_m_relations():
    # y^2 has order 3 and x, y^2 factor N with r, s, but y^2 x y^-2 = x^4,
    # not x^2; construct would make a witness that is not regular
    N = parse_group_spec("semidirect (cgroup 7 3 2) (dihedral 4) alpha r->id s->id")
    dec = decompose(N)
    with pytest.raises(GroupDefinitionError, match="^x and y do not meet the relations "
                                                   "of cgroup 7 3 2$"):
        replace(dec, y=N.power(dec.y, 2))


def test_every_power_choice_is_accepted_exactly_when_it_meets_m_relations(corpus_reps):
    # (x^u, y^w) for units u mod e and w mod d: the words still factor N, and
    # x^u, y^w meet the relations of C(e, d, k) exactly when k^w = k mod e
    tried = refused = 0
    for entry in corpus_reps:
        N = entry.group
        dec = decompose(N)
        e, d, k = dec.pres.e, dec.pres.d, dec.pres.k
        for u in (u for u in range(1, max(e, 2)) if math.gcd(u, e) == 1):
            for w in (w for w in range(1, max(d, 2)) if math.gcd(w, d) == 1):
                meets = pow(k, w, e) == k % e
                tried += 1
                try:
                    replace(dec, x=N.power(dec.x, u), y=N.power(dec.y, w))
                except GroupDefinitionError as exc:
                    assert not meets and "do not meet the relations" in str(exc), entry.spec
                    refused += 1
                else:
                    assert meets, entry.spec
    assert (tried, refused) == (1923, 78)


@pytest.mark.parametrize("P, kind, reason", [
    (dihedral_group(8), "dihedral", REASON_CASE_2),
    (quaternion_group(8), "quaternion", REASON_CASE_1),
], ids=["dihedral", "quaternion"])
def test_the_kind_of_p_is_read_off_s_squared(P, kind, reason):
    N = direct_product(cyclic_group(3), P)
    dec = decompose(N)
    assert (dec.p_kind, dec.p_group.name) == (kind, P.name)
    assert classify(N).reason == reason
    with pytest.raises(TypeError):
        Decomposition(dec.group, dec.pres, dec.x, dec.y, dec.r, dec.s, p_kind=kind)
    with pytest.raises(ValueError, match="init=False"):
        replace(dec, p_kind=kind)
