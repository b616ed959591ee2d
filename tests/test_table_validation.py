"""Table validation and the semidirect product against the forms they replaced.

``FiniteGroup`` checks that every row holds the identity and runs Light's
test a block of rows at a time; the reference in ``conftest.py`` sorts every
row and column first and checks each generator on whole n x n gathers.  Both
must give the same outcome and the same error text, naming the same element.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoreg import (FiniteGroup, GroupDefinitionError, cgroup_group,
                     CGroupPresentation, cyclic_group, dihedral_group,
                     direct_product, parse_group_spec, quaternion_group,
                     semidirect_product, specs)

SMALL_GROUPS = [cyclic_group(n).table for n in range(1, 9)] + [
    dihedral_group(4).table, dihedral_group(8).table, quaternion_group(8).table,
    cgroup_group(CGroupPresentation(3, 2, 2)).table]


def outcome(table):
    """The error text FiniteGroup gives for a copy of ``table``, or None;
    for a group, its inverses are checked too."""
    table = np.array(table, dtype=np.int32)
    try:
        G = FiniteGroup(table)
    except GroupDefinitionError as exc:
        return str(exc)
    assert np.array_equal(G.inverses, np.argmax(table == G.identity, axis=1))
    assert (G.table[np.arange(G.order), G.inverses] == G.identity).all()
    return None


def latin_with_identity(rng, n, e):
    """A random Latin square with two-sided identity e, filled cell by cell
    with backtracking: a loop, and sometimes a group."""
    t = np.full((n, n), -1)
    t[e], t[:, e] = np.arange(n), np.arange(n)
    cells = [(a, b) for a in range(n) for b in range(n) if a != e and b != e]

    def fill(k):
        if k == len(cells):
            return True
        a, b = cells[k]
        for v in rng.permutation(n).tolist():
            if v not in t[a] and v not in t[:, b]:
                t[a, b] = v
                if fill(k + 1):
                    return True
        t[a, b] = -1
        return False

    assert fill(0)
    return t


def cyclic_monoid(index, period):
    """The monoid <x | x^(index + period) = x^index>, element i = x^i: a
    group only when index is 0."""
    i = np.arange(index + period)
    s = i[:, None] + i[None, :]
    return np.where(s < index + period, s, index + (s - index) % period)


MONOIDS = [np.array([[0, 1], [1, 1]]), cyclic_monoid(1, 1), cyclic_monoid(2, 3),
           cyclic_monoid(0, 5), np.maximum(*np.indices((6, 6))),
           np.array([[0, 1, 2], [1, 1, 1], [2, 2, 2]])]  # left zeros 1, 2


@st.composite
def tables(draw):
    kind = draw(st.sampled_from(["magma", "row permutations", "loop", "loop x group",
                                 "monoid", "group", "group with a swap"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    e = int(rng.integers(n))
    if kind == "magma":  # a random table with a two-sided identity e
        t = rng.integers(0, n, size=(n, n))
        t[e], t[:, e] = np.arange(n), np.arange(n)
    elif kind == "row permutations":  # every row holds the identity
        t = np.array([np.insert(rng.permutation(np.delete(np.arange(n), a)), e, a)
                      for a in range(n)])
        t[e] = np.arange(n)
    elif kind == "loop":
        t = latin_with_identity(rng, n, e)
    elif kind == "loop x group":  # Light's test passes the group's generators first
        loop = latin_with_identity(rng, draw(st.integers(5, 6)), e % 5)
        h = SMALL_GROUPS[draw(st.integers(0, len(SMALL_GROUPS) - 1))]
        t = (loop[:, None, :, None] * len(h) + h[None, :, None, :]).reshape(len(loop) * len(h), -1)
    elif kind == "monoid":
        t = MONOIDS[draw(st.integers(0, len(MONOIDS) - 1))]
    else:
        t = SMALL_GROUPS[draw(st.integers(0, len(SMALL_GROUPS) - 1))].copy()
        if kind == "group with a swap" and len(t) > 2:
            a, b, c = rng.choice(np.arange(1, len(t)), size=3, replace=len(t) < 4)
            t[a, b], t[a, c] = t[a, c], t[a, b]
    return t, draw(st.integers(0, 2**32 - 1)) if draw(st.booleans()) else None


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(tables())
def test_validation_matches_reference(ref_validate, relabel, case):
    table, seed = case
    if seed is not None:
        table = relabel(table, np.random.default_rng(seed))
    assert outcome(table) == ref_validate(table), np.asarray(table).tolist()


def test_validation_matches_reference_on_loops_and_monoids(ref_validate, relabel, loop_table):
    rng = np.random.default_rng(16)
    late = cyclic_group(1000).table.copy()
    late[-1, [1, 2]] = late[-1, [2, 1]]  # only the last row block shows the fault
    cases = [loop_table(m) for m in (1, 3, 103)] + MONOIDS + [
        np.maximum(*np.indices((300, 300))), cyclic_monoid(40, 60), late]
    messages = set()
    for table in cases:
        for t in (table, relabel(table, rng), relabel(table, rng)):
            got = outcome(t)
            assert got == ref_validate(t), (len(t), got)
            messages.add(got and got.split(" at element")[0])
    assert messages == {None, "table is not a Latin square", "associativity fails"}


def test_table_whose_rows_hold_the_identity_is_still_not_latin():
    # every row holds the identity, so only a failed Light's test can find
    # the repeated entries, and the error names them as the sort did
    with pytest.raises(GroupDefinitionError, match="table is not a Latin square"):
        FiniteGroup([[0, 1, 2], [1, 0, 0], [2, 0, 0]])


def _assert_same(G, ref):
    table, labels, style, name = ref
    assert G.table.dtype == np.int32 and np.array_equal(G.table, table), name
    assert G.labels == labels and G.label_style == style and G.name == name


def test_semidirect_product_matches_reference_on_corpus(corpus, ref_semidirect_product,
                                                        monkeypatch):
    built = []
    tables = [entry.group.table for entry in corpus]  # built before the patch

    def checked(M, P, alpha, name=""):
        G = semidirect_product(M, P, alpha, name=name)
        _assert_same(G, ref_semidirect_product(M, P, alpha, name))
        built.append(G)
        return G

    monkeypatch.setattr(specs, "semidirect_product", checked)
    for entry, table in zip(corpus, tables):
        assert np.array_equal(parse_group_spec(entry.spec).table, table)
    assert len(corpus) == len(built) == 435


@pytest.mark.parametrize("factors", [
    lambda: [cyclic_group(15), cyclic_group(2), cyclic_group(4)],
    lambda: [cyclic_group(63), cyclic_group(2), cyclic_group(2), cyclic_group(2)],
    lambda: [cyclic_group(3), cyclic_group(3), dihedral_group(8)],
], ids=["c15xc2xc4", "c63xc2^3", "c3xc3xd8"])
def test_direct_product_matches_reference(factors, ref_semidirect_product):
    A, *rest = factors()
    for B in rest:
        trivial = np.tile(np.arange(A.order, dtype=np.int32), (B.order, 1))
        ref = ref_semidirect_product(A, B, trivial, f"product of ({A.name}) and ({B.name})")
        A = direct_product(A, B)
        _assert_same(A, ref)


def _peak(build):
    """The largest traced allocation while ``build()`` runs, in bytes, and
    what it returned; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        out = build()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_validation_and_semidirect_allocate_no_n2_temporaries():
    table = cyclic_group(1000).table.copy()
    peak, _ = _peak(lambda: FiniteGroup(table))
    assert peak < table.nbytes / 4, peak
    peak, G = _peak(lambda: parse_group_spec(
        "semidirect (cgroup 7 3 2) (dihedral 32) alpha r->id s->phi:6"))
    assert G.order == 672 and peak < 2 * G.table.nbytes, peak
