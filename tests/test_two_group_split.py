"""The split's P, its table and its action against the searches they replaced.

``decompose`` now reads P's shape off one pair (r, s), takes P's table from
the dihedral or quaternion constructor, and extends conjugation by r and s
to all of P.  The references below are the earlier derivations: a
search over every pair under the dihedral relations and then the quaternion
ones, the table of the words r^a s^b multiplied in N, and conjugation by
every element of P.
"""

import numpy as np
import pytest

from holoreg import (FiniteGroup, aut_decompose, cyclic_group, decompose,
                     dihedral_group, direct_product, quaternion_group,
                     semidirect_product, subgroup_generated, sylow_subgroup)
from holoreg.realizability import _two_group_witnesses


def reference_witnesses(G: FiniteGroup, p_elems):
    """(kind, m, r, s) by trying every pair under each kind's relations."""
    order = len(p_elems)
    if order == 1:
        return "cyclic", 0, p_elems[0], p_elems[0]
    m = order.bit_length() - 1
    if (1 << m) != order:
        return None
    orders = {g: G.order_of(g) for g in p_elems}
    cyclic_gen = next((g for g in p_elems if orders[g] == order), None)
    if cyclic_gen is not None:
        return "cyclic", m, cyclic_gen, G.identity
    half = order // 2
    for kind in ("dihedral", "quaternion"):
        if kind == "quaternion" and m < 3:
            continue
        s_sq_target_exp = 0 if kind == "dihedral" else half // 2
        for r in p_elems:
            if orders[r] != half:
                continue
            r_span = set(subgroup_generated(G, [r]))
            for s in p_elems:
                if (s not in r_span and G.mul(s, s) == G.power(r, s_sq_target_exp)
                        and G.conj(r, s) == G.inv(r)):
                    return kind, m, r, s
    return None


def reference_words_and_table(N: FiniteGroup, p_order: int, kind: str, r: int, s: int):
    """The words r^a s^b as N-indices, and their products looked up in N."""
    b_range = (0,) if kind == "cyclic" else (0, 1)
    p_to_n = []
    ra = N.identity
    for _ in range(p_order // len(b_range)):
        for b in b_range:
            p_to_n.append(N.mul(ra, s) if b else ra)
        ra = N.mul(ra, r)
    pos = {e: i for i, e in enumerate(p_to_n)}
    return tuple(p_to_n), [[pos[N.mul(a, b)] for b in p_to_n] for a in p_to_n]


def assert_split_matches_reference(N: FiniteGroup):
    dec = decompose(N)
    shape = reference_witnesses(N, sylow_subgroup(N, 2))
    m = dec.p_group.order.bit_length() - 1  # |P| = 2^m
    assert (dec.p_kind, m, dec.r, dec.s) == shape, N.name
    kind, _, r, s = shape
    p_to_n, table = reference_words_and_table(N, dec.p_group.order, kind, r, s)
    assert tuple(dec.grid[:dec.p_group.order].tolist()) == p_to_n, N.name
    assert dec.p_group.table.tolist() == table, N.name
    exps = dec.exps[:, :2][dec.pos].tolist()  # N index -> (i, j)
    alpha = tuple(aut_decompose(dec.pres, exps[N.conj(dec.x, t)], exps[N.conj(dec.y, t)])
                  for t in p_to_n)
    assert dec.alpha == alpha, N.name


def test_split_matches_reference_on_corpus(corpus_reps, relabel):
    rng = np.random.default_rng(8)
    for entry in corpus_reps:
        assert_split_matches_reference(entry.group)
        for _ in range(2):
            assert_split_matches_reference(relabel(entry.group, rng))


@pytest.mark.parametrize("build", [dihedral_group, quaternion_group])
def test_split_matches_reference_on_relabelled_two_groups(build, relabel):
    rng = np.random.default_rng(256)
    for m in range(2 if build is dihedral_group else 3, 9):
        assert_split_matches_reference(relabel(build(1 << m), rng))


def _cyclic_by_unit(n: int, u: int) -> FiniteGroup:
    """C_n x| C_2 with the involution acting as x -> x^u."""
    return semidirect_product(cyclic_group(n), cyclic_group(2),
                              [list(range(n)), [u * i % n for i in range(n)]],
                              name=f"c{n} by x^{u}")


def test_other_two_groups_have_no_split_shape():
    c2 = cyclic_group(2)
    others = [direct_product(cyclic_group(4), c2),
              direct_product(direct_product(c2, c2), c2),
              direct_product(cyclic_group(8), c2),
              direct_product(quaternion_group(8), c2),
              _cyclic_by_unit(8, 5),   # the modular group M16
              _cyclic_by_unit(8, 3)]   # the semidihedral group SD16
    for N in others:
        p_elems = tuple(range(N.order))
        assert reference_witnesses(N, p_elems) is None, N.name
        assert _two_group_witnesses(N, p_elems) is None, N.name


def test_a_cyclic_p_has_no_split_shape():
    # the reference names it cyclic; the split takes only dihedral and
    # quaternion P, and a cyclic P with an odd C-group M is a C-group
    for n in (1, 2, 4, 8, 16):
        C = cyclic_group(n)
        p_elems = tuple(range(n))
        assert reference_witnesses(C, p_elems)[0] == "cyclic", n
        assert _two_group_witnesses(C, p_elems) is None, n
