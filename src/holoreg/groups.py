"""Finite groups as Cayley tables: constructors, subgroup machinery, predicates.

Every group is an ``n x n`` table of element indices.  Structured labels
(generator-exponent tuples) ride alongside the table so that symbolic
formulas can be read back from a concrete group.  A table is validated as a
group once: on construction when it comes from outside, and through its
builder's checked inputs when a builder here or in ``cgroups`` makes it.
All objects are immutable after construction and every function here is
pure, so values may be shared freely between threads.  Values computed
from a group by other functions are cached per group through ``memoized``.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Optional

import numpy as np


class GroupDefinitionError(ValueError):
    """Data fails to define a group, or a constructor was misused."""


class HomomorphismError(ValueError):
    """Images fail to define a (valid) homomorphism."""


class BoundExceeded(RuntimeError):
    """An enumeration would exceed its configured desk-scale bound."""


def check_table_size(n: int) -> None:
    """Refuse an order whose n x n int32 Cayley table (n^2 x 4 bytes) would
    exceed the machine's physical memory; called before anything is allocated."""
    need = 4 * n * n
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise GroupDefinitionError(
            f"group order {n} is too large: its Cayley table needs {need} bytes, "
            f"more than the {have} bytes of physical memory")


def _as_int_table(table) -> np.ndarray:
    arr = np.asarray(table, dtype=np.int32)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GroupDefinitionError(f"Cayley table must be square, got shape {arr.shape}")
    return arr


def _label_tuple(labels, n: int) -> Optional[tuple]:
    if labels is None:
        return None
    labels = tuple(labels)
    if len(labels) != n:
        raise GroupDefinitionError("labels length must match group order")
    return labels


def _find_identity(table: np.ndarray) -> int:
    idx = np.arange(table.shape[0], dtype=np.int32)
    for e in range(table.shape[0]):
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            return e
    raise GroupDefinitionError("table has no two-sided identity")


class FiniteGroup:
    """A finite group given by a Cayley table on element indices 0..n-1.

    ``table[a, b]`` is the index of the product ``a*b``.  A table reaches a
    group by one of two provenances:

    - ``FiniteGroup(table)``, for a table from anywhere else (a file, user
      code, a regular subgroup or a brace's circle group, Aut(C(e, d, k))),
      validates the identity, that every row holds the identity (which
      gives ``inverses``), and associativity on all triples at every order
      (Light's test over a generating sequence).  An associative table with
      an identity and right inverses is a group, so it is a Latin square.
      Both passes read the table a block of rows at a time and allocate no
      n x n temporary.
    - ``FiniteGroup._from_builder``, for the table of a builder whose
      checked inputs prove it a group (the closed forms, a C-group
      presentation, a semidirect product under a checked action, a
      quotient by a checked normal subgroup), takes the identity from the
      builder and checks nothing.

    Either way ``generators`` is the same greedy generating sequence: each
    member the least index not reached from the identity by right products
    with the earlier ones, the sequence Light's test walks.
    """

    def __init__(self, table, labels=None, name: str = "",
                 label_style: Optional[str] = None):
        table = _as_int_table(table)
        n = table.shape[0]
        if n == 0:
            raise GroupDefinitionError("empty Cayley table")
        if table.min() < 0 or table.max() >= n:
            raise GroupDefinitionError("table entries must be element indices")
        labels = _label_tuple(labels, n)
        self._fill(table, _find_identity(table), labels, name, label_style,
                   self._light_column)

    @classmethod
    def _from_builder(cls, table: np.ndarray, identity: int, labels=None,
                      name: str = "", label_style: Optional[str] = None) -> FiniteGroup:
        """The group of an int32 ``table`` that its builder has proven a
        group, with ``identity`` its identity index: no table check runs.
        Only the builders ``tests/test_surface.py`` lists may call this, each
        with the argument that makes its table exact."""
        G = cls.__new__(cls)
        G._fill(table, identity, _label_tuple(labels, len(table)), name, label_style,
                lambda g: table[:, g])
        return G

    def _fill(self, table: np.ndarray, identity: int, labels, name: str,
              label_style: Optional[str], right_column: Callable) -> None:
        """Set every field; ``right_column(g)`` returns the column u -> u*g,
        after whatever check of g the provenance asks for."""
        n = table.shape[0]
        self.table = table
        self.order = n
        self.name = name
        self.label_style = label_style
        self.labels = labels
        self.identity = identity
        self.inverses = self._right_inverses()
        self.generators = greedy_closure(n, identity, right_column)
        table.setflags(write=False)
        self.memo = {}  # filled only by ``memoized``

    # -- construction checks ------------------------------------------------

    def _row_blocks(self):
        """Slices of about 2^16 table entries each, a whole number of rows."""
        n = self.order
        block = max(1, (1 << 16) // n)
        return [slice(start, start + block) for start in range(0, n, block)]

    def _check_latin(self):
        """Raise when the table is not a Latin square.  Called only after
        Light's test has failed, so that such a table gets the Latin-square
        error, as it did when this sort-based check ran first."""
        idx = np.arange(self.order, dtype=np.int32)
        rows = np.sort(self.table, axis=1)
        cols = np.sort(self.table, axis=0)
        if not (np.array_equal(rows, np.broadcast_to(idx, rows.shape))
                and np.array_equal(cols.T, np.broadcast_to(idx, rows.shape))):
            raise GroupDefinitionError("table is not a Latin square")

    def _right_inverses(self) -> np.ndarray:
        """The first b with a*b = 1 for every a, a block of rows at a time; a
        row without the identity means the table is not a Latin square.

        Checked before Light's test: with right inverses, each generator
        prefix that passes reaches a subgroup, so the generating sequence has
        at most log2(n) members; a monoid such as max(a, b) would need n - 1.
        Once the table is associative these are the inverses."""
        t, e = self.table, self.identity
        inv = np.empty(self.order, dtype=np.int32)
        for rows in self._row_blocks():
            hit = t[rows] == e
            if not hit.any(axis=1).all():
                raise GroupDefinitionError("table is not a Latin square")
            inv[rows] = hit.argmax(axis=1)
        inv.setflags(write=False)
        return inv

    def _light_column(self, g: int) -> np.ndarray:
        """Light's test at g: (a*g)*b == a*(g*b) for all a, b, one block of
        rows a at a time; returns the column u -> u*g.

        Walked by ``greedy_closure``, it is exact for any table with an
        identity: the g that pass contain the identity and are closed under
        the product, and every element is a left-nested product of the
        sequence.
        """
        t = self.table
        col, row = t[:, g], t[g]
        for rows in self._row_blocks():
            if not np.array_equal(t.take(col[rows], axis=0), t[rows].take(row, axis=1)):
                self._check_latin()
                raise GroupDefinitionError(f"associativity fails at element {g}")
        return col

    # -- basic arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table.item(a, b)

    def inv(self, a: int) -> int:
        return self.inverses.item(a)

    def conj(self, a: int, b: int) -> int:
        """Conjugate of ``a`` by ``b``, i.e. ``b a b^-1``."""
        t = self.table
        return t.item(t.item(b, a), self.inv(b))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        result, base = self.identity, a
        t = self.table
        while k:
            if k & 1:
                result = t.item(result, base)
            base = t.item(base, base)
            k >>= 1
        return result

    def order_of(self, a: int) -> int:
        return int(self.orders[a])

    @cached_property
    def orders(self) -> np.ndarray:
        """Element orders, one prime p | n at a time: with m the part of n
        prime to p, x^m has order the p-part of ord(x), which p-th powers of
        x^m strip one factor p at a time.  That p-part divides p^a, the
        largest power of p dividing n, so a p-th powers suffice, and on a
        table that is no group's the loop still ends.

        Each x^m is the product of the squarings x^(2^i) over the bits i of
        m, and the squarings are made once for all primes, no further than
        the largest m needs; every product is one gather from the flat
        table."""
        n, e = np.intp(self.order), self.identity
        flat = self.table.ravel()

        def power(sq: list, k: int) -> np.ndarray:
            """x^k from sq[i] = x^(2^i), which it extends as far as k needs."""
            result = None
            for i in range(k.bit_length()):
                if i == len(sq):
                    sq.append(flat[sq[-1] * (n + 1)])
                if k >> i & 1:
                    result = sq[i] if result is None else flat[result * n + sq[i]]
            return result

        out = np.ones(n, dtype=np.int32)
        squares = [np.arange(n, dtype=np.intp)]
        for p, q in _prime_powers(self.order).items():
            y = power(squares, self.order // q)
            moving = y != e
            while q > 1 and moving.any():
                out[moving] *= p
                y = power([y], p)
                moving = y != e
                q //= p
        return out

    @cached_property
    def generator_conjugations(self) -> np.ndarray:
        """The (k, n) array whose row i is x -> g x g^-1, g = generators[i].
        Conjugation by a product is the composite of the conjugations, so
        these k rows generate Inn(G)."""
        t, gens = self.table, list(self.generators)
        return t[t[gens], self.inverses[gens, None]].reshape(len(gens), self.order)

    @cached_property
    def _least_conjugates(self) -> np.ndarray:
        """The least member of each element's conjugacy class: the orbits of
        ``generator_conjugations``, each walked from the first element not
        yet reached, in index order, so it starts at its least member.
        O(n k) for k generators."""
        conj = self.generator_conjugations.tolist()
        least = [-1] * self.order
        for x in range(self.order):
            if least[x] >= 0:
                continue
            least[x] = x
            orbit = [x]
            for y in orbit:
                for c in conj:
                    z = c[y]
                    if least[z] < 0:
                        least[z] = x
                        orbit.append(z)
        return np.array(least, dtype=np.int32)

    @cached_property
    def class_sizes(self) -> np.ndarray:
        least = self._least_conjugates
        return np.bincount(least, minlength=self.order).astype(np.int32)[least]

    # -- labels ----------------------------------------------------------------

    def label(self, i: int):
        return self.labels[i] if self.labels is not None else i

    def format_element(self, i: int) -> str:
        return format_label(self.label(i), self.label_style, i)

    def __repr__(self):
        tag = self.name or f"group of order {self.order}"
        return f"<FiniteGroup {tag}>"


def memoized(fn):
    """Compute ``fn(G, ...)`` once per FiniteGroup ``G`` and keep it in ``G.memo``.

    A group is immutable and owns the dict its memoized values live in, so
    a value lives exactly as long as the group it was computed from.
    Arguments after ``G`` may only cut the computation short by raising;
    they are not part of the key.  Values shared between groups, keyed by
    value, live in ``cgroups.FACTORS`` instead.
    """
    @wraps(fn)
    def wrapper(obj, *args, **kwargs):
        memo = obj.memo
        if fn not in memo:
            memo[fn] = fn(obj, *args, **kwargs)
        return memo[fn]
    return wrapper


def format_label(label, style: Optional[str], idx: int) -> str:
    """Render a structured element label as a compact string."""
    if style == "cyclic" and isinstance(label, (int, np.integer)):
        return "1" if label == 0 else f"g^{label}"
    if style == "cgroup" and isinstance(label, tuple) and len(label) == 2:
        return _word(("x", label[0]), ("y", label[1]))
    if style == "twogroup" and isinstance(label, tuple) and len(label) == 2:
        return _word(("r", label[0]), ("s", label[1]))
    if style == "semidirect" and isinstance(label, tuple) and len(label) == 2:
        m_lab, p_lab = label
        if isinstance(m_lab, (int, np.integer)):
            m_lab = (m_lab, 0)
        return _word(("x", m_lab[0]), ("y", m_lab[1]), ("r", p_lab[0]), ("s", p_lab[1]))
    return f"e{idx}" if label is None or label == idx else f"e{idx}:{label}"


def _word(*parts) -> str:
    pieces = [f"{sym}^{exp}" if exp != 1 else sym for sym, exp in parts if exp]
    return "*".join(pieces) if pieces else "1"


@dataclass(frozen=True)
class Homomorphism:
    """A group homomorphism recorded by the image index of every source element.

    Construction checks the images with ``respects_product``.
    """

    source: FiniteGroup
    target: FiniteGroup
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(np.asarray(self.images).tolist()))
        if len(self.images) != self.source.order:
            raise HomomorphismError("images must list one target index per source element")
        if not respects_product(self.source, self.target, [self.images])[0]:
            raise HomomorphismError("images do not respect the group product")

    def __call__(self, i: int) -> int:
        return self.images[i]

    @cached_property
    def is_bijective(self) -> bool:
        return len(set(self.images)) == self.source.order == self.target.order


# -- constructors -------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group of order ``n`` with its generator at index 1."""
    if n < 1:
        raise GroupDefinitionError("cyclic group order must be at least 1")
    check_table_size(n)
    idx = np.arange(n, dtype=np.int32)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup._from_builder(table, 0, labels=range(n), name=f"cyclic {n}",
                                     label_style="cyclic")


def _power_of_two_exponent(order: int) -> int:
    m = order.bit_length() - 1
    if order <= 0 or (1 << m) != order:
        raise GroupDefinitionError(f"order {order} is not a power of 2")
    return m


def _two_group_table(order: int, s_squared: int) -> np.ndarray:
    # Elements r^a s^b indexed as 2a+b; s r s^-1 = r^-1 and s^2 = r^(s_squared).
    check_table_size(order)
    half = order // 2
    idx = np.arange(order, dtype=np.int32)
    a1, b1 = idx[:, None] // 2, idx[:, None] % 2
    a2, b2 = idx[None, :] // 2, idx[None, :] % 2
    a = (a1 + np.where(b1 == 1, -a2, a2) + s_squared * (b1 & b2)) % half
    b = (b1 + b2) % 2
    return (2 * a + b).astype(np.int32)


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group of 2-power order >= 4 on generators r, s with s^2 = 1."""
    m = _power_of_two_exponent(order)
    if m < 2:
        raise GroupDefinitionError("dihedral group here requires order >= 4")
    table = _two_group_table(order, 0)
    labels = [(i // 2, i % 2) for i in range(order)]
    return FiniteGroup._from_builder(table, 0, labels=labels, name=f"dihedral {order}",
                                     label_style="twogroup")


def quaternion_group(order: int) -> FiniteGroup:
    """Generalized quaternion group of 2-power order >= 8, with s^2 = r^(2^(m-2))."""
    m = _power_of_two_exponent(order)
    if m < 3:
        raise GroupDefinitionError("quaternion group requires order >= 8")
    table = _two_group_table(order, 1 << (m - 2))
    labels = [(i // 2, i % 2) for i in range(order)]
    return FiniteGroup._from_builder(table, 0, labels=labels, name=f"quaternion {order}",
                                     label_style="twogroup")


def _normalize_action(M: FiniteGroup, P: FiniteGroup, act) -> np.ndarray:
    """Check a (|P|, |M|) array, row t the action of t, as a homomorphism
    P -> Aut(M): rows by ``respects_product``, products by ``is_action``."""
    act = np.asarray(act, dtype=np.int32)
    if act.shape != (P.order, M.order):
        raise HomomorphismError(f"action must map each of {P.order} elements "
                                f"to a permutation of {M.order} points")
    not_perm = (np.sort(act, axis=1) != np.arange(M.order)).any(axis=1)
    bad = not_perm | ~respects_product(M, M, act)
    if bad.any():
        t = int(np.argmax(bad))
        kind = "a permutation" if not_perm[t] else "an automorphism"
        raise HomomorphismError(f"action of element {t} is not {kind}")
    if not is_action(P, act):
        raise HomomorphismError("action is not a homomorphism into Aut(M)")
    return act


def semidirect_product(M: FiniteGroup, P: FiniteGroup, alpha,
                       name: str = "") -> FiniteGroup:
    """Semidirect product with multiplication (m1,t1)(m2,t2) = (m1*a_t1(m2), t1 t2).

    ``alpha`` is a (|P|, |M|) array whose row t is the automorphism a_t of
    M, given as its images.  Each row is checked to be an automorphism, and
    a_(t g) = a_t a_g for every t and every g in ``P.generators``; M and P
    are groups, so the table is a group's, with identity (1, 1).
    """
    check_table_size(M.order * P.order)
    act = _normalize_action(M, P, alpha)
    nm, np_ = M.order, P.order
    n = nm * np_
    # entry [(m1, t1), (m2, t2)] = (m1 * a_t1(m2)) * |P| + t1 t2
    m_part = M.table.take(act, axis=1)  # [m1, t1, m2] = m1 * a_t1(m2)
    m_part *= np_
    table = (m_part[:, :, :, None] + P.table[None, :, None, :]).reshape(n, n)
    p_labels = [P.label(t) for t in range(np_)]
    labels = [(a, b) for a in map(M.label, range(nm)) for b in p_labels]
    style = "semidirect" if M.label_style in ("cyclic", "cgroup") and \
        P.label_style == "twogroup" else None
    return FiniteGroup._from_builder(
        table, M.identity * np_ + P.identity, labels=labels,
        name=name or f"semidirect of ({M.name}) and ({P.name})", label_style=style)


def direct_product(A: FiniteGroup, B: FiniteGroup, name: str = "") -> FiniteGroup:
    trivial = np.broadcast_to(np.arange(A.order, dtype=np.int32)[None, :],
                              (B.order, A.order))
    return semidirect_product(A, B, np.ascontiguousarray(trivial),
                              name=name or f"product of ({A.name}) and ({B.name})")


# -- subgroup machinery ---------------------------------------------------------


def words(G: FiniteGroup, gens: Sequence[int], exps) -> np.ndarray:
    """gens[0]^e0 * gens[1]^e1 * ... for each row (e0, e1, ...) of the
    non-negative ``exps``, multiplied left to right.

    One power table per generator, up to its largest exponent or one short
    of its order, whichever comes first, then one gather per generator.
    """
    exps = np.asarray(exps, dtype=np.int64).reshape(-1, len(gens))
    if exps.min(initial=0) < 0:
        raise ValueError("word exponents must be non-negative")
    t = G.table
    out = np.full(len(exps), G.identity, dtype=np.int32)
    for g, col in zip(gens, exps.T):
        powers = [G.identity]
        for _ in range(min(int(col.max(initial=0)), G.order_of(g) - 1)):
            powers.append(t.item(powers[-1], g))
        out = t[out, np.array(powers, dtype=np.int32)[col % len(powers)]]
    return out


class _RowsOnDemand:
    """``rows[u]`` is the list of products u * g for g in ``gens``, read
    from the table entry by entry when asked for."""

    def __init__(self, G: FiniteGroup, gens: list):
        self.item, self.gens = G.table.item, gens

    def __getitem__(self, u: int) -> list:
        return [self.item(u, g) for g in self.gens]


def subgroup_generated(G: FiniteGroup, gens: Iterable[int],
                       limit: Optional[int] = None) -> Optional[tuple]:
    """Sorted indices of the subgroup generated by ``gens``: the closure of
    the identity under right multiplication by each generator.

    Without ``limit`` the walk reads the n x k generator columns of the
    table in one gather.  With ``limit`` it returns None once more than
    ``limit`` elements are reached, and reads only the products u * g of
    the elements u it reaches: at most ``limit * len(gens)`` table entries.
    """
    gens = [int(g) for g in gens]
    if limit is None:
        rows = G.table[:, gens].tolist()  # rows[u][i] = u * gens[i]
        limit = G.order
    else:
        rows = _RowsOnDemand(G, gens)
    seen = {G.identity}
    queue = [G.identity]
    while queue:
        if len(seen) > limit:
            return None
        for v in rows[queue.pop()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return tuple(sorted(seen))


def greedy_closure(n: int, identity: int, right_column: Callable) -> tuple:
    """Walk the greedy generating sequence of n indexed elements: each g, in
    index order, not yet reached from ``identity`` by right products with
    the earlier ones.  ``right_column(g)`` returns the n indices u * g, or
    raises when g fails its caller's check; ``_grow_orbit`` grows the
    reached set by each new member's column.  Returns the sequence: every
    index was reached or is a member."""
    reached = [False] * n
    reached[identity] = True
    members, gens, cols = [identity], [], []  # cols[i][u] = u * gens[i]
    for g in range(n):
        if not reached[g]:
            gens.append(g)
            cols.append(right_column(g).tolist())
            _grow_orbit(members, reached, cols, len(cols) - 1)
    return tuple(gens)


def is_subgroup(G: FiniteGroup, elems: Iterable[int]) -> bool:
    """True when ``elems`` holds the identity and every product of two of them."""
    E = np.fromiter(elems, dtype=np.intp)
    inside = np.zeros(G.order, dtype=bool)
    inside[E] = True
    return bool(inside[G.identity] and inside[G.table[np.ix_(E, E)]].all())


def is_normal(G: FiniteGroup, elems: Iterable[int]) -> bool:
    """True when g a g^-1 is in ``elems`` for every a in ``elems`` and every
    g in ``G.generators``, whose conjugations generate all of them."""
    elems = np.fromiter(elems, dtype=np.intp)
    inside = np.zeros(G.order, dtype=bool)
    inside[elems] = True
    return bool(inside[G.generator_conjugations[:, elems]].all())


def center(G: FiniteGroup) -> tuple:
    """The elements whose conjugacy class is a single element."""
    return tuple(np.flatnonzero(G.class_sizes == 1).tolist())


def commutator_subgroup(G: FiniteGroup) -> tuple:
    t = G.table
    inv = G.inverses
    comms = np.unique(t[t, t[inv[:, None], inv[None, :]]])  # (g h)(g^-1 h^-1)
    return subgroup_generated(G, comms)


def quotient_group(G: FiniteGroup, normal_elems: Iterable[int], name: str = ""):
    """Quotient by a normal subgroup; returns (Q, coset_index of each element).
    The subgroup is checked normal, so the cosets multiply as a group."""
    nset = tuple(sorted(int(x) for x in normal_elems))
    if not is_subgroup(G, nset):
        raise GroupDefinitionError("quotient requires a subgroup")
    if not is_normal(G, nset):
        raise GroupDefinitionError("quotient requires a normal subgroup")
    t = G.table
    coset_index = np.full(G.order, -1, dtype=np.int32)
    reps = []
    for a in range(G.order):
        if coset_index[a] >= 0:
            continue
        members = np.sort(t[a, nset])
        coset_index[members] = len(reps)
        reps.append(tuple(members.tolist()))
    firsts = [c[0] for c in reps]
    table = coset_index[t[np.ix_(firsts, firsts)]]
    Q = FiniteGroup._from_builder(table, coset_index.item(G.identity), labels=reps,
                                  name=name or f"quotient of ({G.name})")
    return Q, tuple(coset_index.tolist())


def sylow_subgroup(G: FiniteGroup, p: int) -> tuple:
    """A Sylow p-subgroup found by deterministic closure over p-elements.

    Each round takes the first p-element g, in index order, outside the
    current subgroup whose closure with the generators so far is a p-group;
    a closure is abandoned once it has more than p^a elements, with p^a the
    Sylow order, so a rejected candidate costs at most p^a table reads per
    generator.
    """
    if p < 2 or any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
        raise GroupDefinitionError(f"{p} is not prime")
    target = _prime_powers(G.order).get(p, 1)
    if target == 1:
        return (G.identity,)
    orders = G.orders
    # orders and subgroup sizes divide |G|: the p-powers are those dividing p^a
    p_elements = np.flatnonzero((orders > 1) & (target % orders == 0)).tolist()
    current = (G.identity,)
    gens: list = []
    while len(current) < target:
        inside = set(current)
        for g in p_elements:
            if g in inside:
                continue
            candidate = subgroup_generated(G, gens + [g], limit=target)
            if candidate is not None and target % len(candidate) == 0:
                gens.append(g)
                current = candidate
                break
        else:
            raise GroupDefinitionError("Sylow closure search failed")  # unreachable
    return current


def is_cgroup(G: FiniteGroup) -> bool:
    """True when every Sylow subgroup is cyclic."""
    orders = set(G.orders.tolist())
    return all(q in orders for q in _prime_powers(G.order).values())


def _prime_powers(n: int) -> dict:
    """{p: p^a} over the primes p dividing n, p^a the largest power dividing n."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 1) * d
            n //= d
        d += 1
    if n > 1:
        out[n] = n
    return out


def normal_hall_odd_subgroup(G: FiniteGroup) -> Optional[tuple]:
    """The normal Hall subgroup of odd order (all odd-order elements), if it exists."""
    n = G.order
    odd_part = n // _prime_powers(n).get(2, 1)
    elems = tuple(np.flatnonzero(G.orders % 2 == 1).tolist())
    if len(elems) != odd_part or not is_subgroup(G, elems):
        return None
    return elems  # closed set of all odd-order elements is automatically normal


# -- generating sets and homomorphism search ---------------------------------


@memoized
def generating_set(G: FiniteGroup) -> tuple:
    """Greedy minimal-ish generating set: repeatedly add the element whose
    addition grows the generated subgroup the most (least index on ties).

    The first pick is the first element of largest order.  After that, an
    element inside a candidate subgroup already computed in the same pass
    generates no more than that candidate did, so it is skipped unexamined.
    Checks read ``G.generators``; this set is used only where its order
    shows in the output: ``_automorphisms`` (the Aut row order),
    ``find_isomorphism``, ``all_homomorphisms`` (the corpus order), and
    the ``aut``, ``oracle`` and witness lines of ``cli``.
    """
    if G.order == 1:
        return ()
    gens = [int(np.argmax(G.orders))]
    current = set(subgroup_generated(G, gens))
    while len(current) < G.order:
        best_g, best_set = -1, current
        covered = set(current)
        for g in range(G.order):
            if g in covered:
                continue
            cand = subgroup_generated(G, gens + [g])
            covered.update(cand)
            if len(cand) > len(best_set):
                best_g, best_set = g, set(cand)
                if len(cand) == G.order:
                    break
        gens.append(best_g)
        current = best_set
    return tuple(gens)


def respects_product(G: FiniteGroup, H: FiniteGroup, maps) -> np.ndarray:
    """One bool per row f of ``maps``: every entry an index of H and
    f(x g) = f(x) f(g) for every x in G and every g in ``G.generators``.

    Exact by induction on word length: every element of G is a product of
    the generators.  ``is_action``, ``CrossedHom`` and the brace law rest on
    the same induction.  x = 1 forces f(1) = 1; the trivial group, with no
    generators, is checked at g = 1 instead.
    """
    maps = np.asarray(maps).reshape(-1, G.order)
    ok = (maps.min(axis=1) >= 0) & (maps.max(axis=1) < H.order)
    f = maps if ok.all() else np.where(ok[:, None], maps, H.identity)
    for g in G.generators or (G.identity,):
        ok &= (f[:, G.table[:, g]] == H.table[f, f[:, g, None]]).all(axis=1)
    return ok


def is_action(P: FiniteGroup, rows) -> bool:
    """True when rows[t g] = rows[t] o rows[g] for every t in P and every g
    in ``P.generators`` (g = 1 for the trivial group).  Exact for rows of
    permutations: it forces rows[1] = 1, and t -> rows[t] is then a
    homomorphism by the induction of ``respects_product``."""
    rows = np.asarray(rows)
    return all(np.array_equal(rows[P.table[:, g]], rows[:, rows[g]])
               for g in P.generators or (P.identity,))


def _homomorphism_search(G: FiniteGroup, H: FiniteGroup, gens: Sequence[int],
                         injective: bool) -> Callable:
    """DFS over generator images with prefix-subgroup pruning.

    Returns ``search(candidates, first_only=False)``, which lists full image
    tuples in lexicographic candidate order.  Choosing h for gens[d]
    extends the images on <gens[:d]>, its DFS parent's, to <gens[:d+1]> in
    one breadth-first pass: each edge u -> u g, g chosen to go to h', sets
    img[u g] = img[u] h' or must agree with it.  The pass follows the edges
    of gens[d] from the parent's elements and the edges of every chosen
    generator from the elements it adds, so each edge of the Cayley graph
    of <gens[:d+1]> is checked once: ``respects_product`` on the prefix
    subgroup.  The images along the last path tried outlive the call, so a
    prefix that consecutive calls pin is filled once.

    The pass reads only table columns: the k generator columns of G, taken
    once, and the column x -> x h of H for each image h, taken the first
    time the DFS tries h and kept for the life of the returned closure.
    """
    colsG = G.table[:, list(gens)].tolist()  # colsG[u][i] = u * gens[i]
    colsH: dict = {}  # colsH[h][x] = x * h
    root = [-1] * G.order
    root[G.identity] = H.identity
    # trail[d] = (h, (img, reached, used)): gens[d] went to h on the last
    # path tried, whose images on <gens[:d+1]> are img
    trail: list = []

    def fill(parent: tuple, chosen: list) -> Optional[tuple]:
        img, reached, used = parent
        img = img[:]
        if injective:
            used = set(used)
        d = len(chosen) - 1
        fresh: list = []
        pairs = [(i, colsH[h]) for i, h in enumerate(chosen)]
        for elems, edges in ((reached, pairs[d:]), (fresh, pairs)):
            for u in elems:
                rowu, x = colsG[u], img[u]
                for i, col in edges:
                    v, val = rowu[i], col[x]
                    if img[v] == -1:
                        if injective:
                            if val in used:
                                return None
                            used.add(val)
                        img[v] = val
                        fresh.append(v)
                    elif img[v] != val:
                        return None
        return img, reached + fresh, used

    def search(candidates: Sequence[Sequence[int]], first_only: bool = False) -> list:
        if not gens:  # trivial source group
            return [(H.identity,)]
        results: list = []

        def dfs(depth: int, chosen: list, parent: tuple):
            # trail[:depth] holds the images of chosen, so trail[depth] is
            # reused only under the same prefix
            for cand in candidates[depth]:
                if cand not in colsH:
                    colsH[cand] = H.table[:, cand].tolist()
                chosen.append(cand)
                if len(trail) > depth and trail[depth][0] == cand:
                    state = trail[depth][1]
                else:
                    del trail[depth:]
                    state = fill(parent, chosen)
                    if state is not None:
                        trail.append((cand, state))
                if state is not None:
                    if depth + 1 == len(gens):
                        results.append(tuple(state[0]))
                        if first_only:
                            raise StopIteration
                    else:
                        dfs(depth + 1, chosen, state)
                chosen.pop()

        try:
            dfs(0, [], (root, [G.identity], {H.identity}))
        except StopIteration:
            pass
        return results

    return search


def _fingerprints(G: FiniteGroup) -> list:
    orders = G.orders
    return list(zip(orders.tolist(), G.class_sizes.tolist(),
                    orders[np.diagonal(G.table)].tolist()))


def automorphism_group(G: FiniteGroup, max_count: Optional[int] = None) -> np.ndarray:
    """All automorphisms of G as the memoized (|Aut|, n) int32 image array,
    row i the images of automorphism i, ordered lexicographically by their
    images of ``generating_set(G)``.  The array is read-only, like
    ``G.table``: copy it before writing.

    ``max_count`` is checked against |Aut(G)|, which a stabilizer chain
    counts exactly before any automorphism is enumerated: more than
    ``max_count`` raises BoundExceeded, whether the count is fresh or
    memoized.
    """
    perms = _automorphisms(G, max_count)
    _check_count(len(perms), max_count)
    return perms


def _check_count(count: int, max_count: Optional[int]):
    if max_count is not None and count > max_count:
        raise BoundExceeded(f"more than {max_count} homomorphisms found")


def _grow_orbit(orbit: list, reached: list, perms: list, start: int = 0,
                steps: Optional[list] = None) -> None:
    """Close the list ``orbit`` under the list-form ``perms``, given that
    it is closed under perms[:start]: its points are moved by perms[start:],
    the points it gains by every perm.  ``reached[q]`` flags the points of
    ``orbit``.  ``steps``, when given, runs along ``orbit`` as a tree of
    parent pointers: the step of q is (p, j) when perms[j] maps p, reached
    earlier, to q."""
    every = list(enumerate(perms))
    later, old = every[start:], len(orbit)
    for i, p in enumerate(orbit):  # orbit grows as it is walked
        for j, perm in later if i < old else every:
            q = perm[p]
            if not reached[q]:
                reached[q] = True
                orbit.append(q)
                if steps is not None:
                    steps.append((p, j))


def _inner_orbit_sizes(G: FiniteGroup, gens: Sequence[int]) -> list:
    """inner[i], the size of the orbit of gens[i] under conjugation by the
    centralizer of gens[:i].  Those conjugations are automorphisms fixing
    gens[:i], so inner[i] is at most the size of the stabilizer chain's
    orbit at level i; the product of all of them is |Inn(G)|."""
    t, inv = G.table, G.inverses
    cent = np.ones(G.order, dtype=bool)
    inner = []
    for g in gens:
        C = np.flatnonzero(cent)
        inner.append(len(np.unique(t[t[C, g], inv[C]])))
        cent &= t[:, g] == t[g]
    return inner


@memoized
def _automorphisms(G: FiniteGroup, max_count: Optional[int]) -> np.ndarray:
    """Aut(G) through a stabilizer chain over ``gens = generating_set(G)``.

    Level i is a transversal of the orbit of gens[i] under the automorphisms
    fixing gens[:i].  Levels are built deepest first: an orbit is closed under
    the automorphisms found so far, all of which fix gens[:i], and a remaining
    fingerprint candidate is decided by one search with gens[:i] pinned.  The
    top level, where nothing is pinned, also starts from
    ``G.generator_conjugations``, which generate Inn(G).  Fingerprints are
    invariant under automorphisms, so the candidates cover the orbit, and by
    orbit-stabilizer |Aut(G)| is the product of the orbit sizes.  Every
    automorphism is t_0 o ... o t_(k-1) for exactly one choice of level
    representatives t_i: the product of the automorphisms along the parent
    pointers of a tree over the orbit, built once the level is done.

    ``max_count`` is refused as soon as an exact lower bound on |Aut(G)|
    passes it, before each candidate is decided: the inner orbit sizes of
    the levels above (``_inner_orbit_sizes``), times the orbit sizes below,
    times the larger of level i's orbit so far and its inner orbit.  The
    (|Aut|, n) int32 image array returned is the memo itself, so it is
    read-only.
    """
    n = G.order
    gens = generating_set(G)
    inner = _inner_orbit_sizes(G, gens)
    _check_count(math.prod(inner), max_count)  # |Inn(G)| before any search
    fps = _fingerprints(G)
    cands = [[h for h in range(n) if fps[h] == fps[g]] for g in gens]
    search = _homomorphism_search(G, G, gens, injective=True)
    found: list = []   # list-form automorphisms, each fixing a prefix of gens
    levels: list = []  # transversals, deepest level first
    count = 1
    for i in reversed(range(len(gens))):
        above = math.prod(inner[:i])
        if i == 0:
            found.extend(G.generator_conjugations.tolist())
        pinned = [[g] for g in gens[:i]]
        orbit, steps, in_orbit = [gens[i]], [None], [False] * n
        in_orbit[gens[i]] = True
        _grow_orbit(orbit, in_orbit, found, 0, steps)
        outside: set = set()
        for c in cands[i]:
            _check_count(above * count * max(len(orbit), inner[i]), max_count)
            if in_orbit[c] or c in outside:
                continue
            images = search(pinned + [[c]] + cands[i + 1:], first_only=True)
            if images:
                found.append(images[0])
                _grow_orbit(orbit, in_orbit, found, len(found) - 1, steps)
            else:  # what the known automorphisms move c to is outside too
                stray, seen = [c], [False] * n
                seen[c] = True
                _grow_orbit(stray, seen, found)
                outside.update(stray)
        count *= len(orbit)
        _check_count(above * count, max_count)
        arrays = [np.array(s, dtype=np.int32) for s in found]
        transversal: dict = {}  # a parent comes before its children
        for q, step in zip(orbit, steps):
            transversal[q] = (np.arange(n, dtype=np.int32) if step is None
                              else arrays[step[1]][transversal[step[0]]])
        levels.append(np.array(list(transversal.values())))
    auts = np.arange(n, dtype=np.int32)[None, :]
    for reps in levels:  # reps[:, auts][r, a] is reps[r] after auts[a]
        auts = reps[:, auts].reshape(-1, n)
    if gens:  # the order of the generator-image DFS
        auts = auts[np.lexsort([auts[:, g] for g in reversed(gens)])]
    auts = np.ascontiguousarray(auts, dtype=np.int32)
    auts.setflags(write=False)
    return auts


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> Optional[Homomorphism]:
    """A bijective homomorphism G -> H if one exists, else None."""
    if G.order != H.order:
        return None
    fps_G, fps_H = _fingerprints(G), _fingerprints(H)
    if sorted(fps_G) != sorted(fps_H):
        return None
    gens = generating_set(G)
    cands = [[h for h in range(H.order) if fps_H[h] == fps_G[g]] for g in gens]
    images = _homomorphism_search(G, H, gens, injective=True)(cands, first_only=True)
    if not images:
        return None
    return Homomorphism(G, H, images[0])


def all_homomorphisms(G: FiniteGroup, H: FiniteGroup) -> np.ndarray:
    """Every homomorphism G -> H as a read-only (count, |G|) int32 image
    array, in deterministic order: lexicographic in the images of
    ``generating_set(G)``.  The rows get one ``respects_product`` check.

    From a cyclic G = <g>, each h with ord(h) | ord(g) extends uniquely, by
    g^k -> h^k, so the images are the powers of all those h at once.
    """
    gens = generating_set(G)
    ordersG, ordersH = G.orders, H.orders
    cands = [[h for h in range(H.order) if int(ordersG[g]) % int(ordersH[h]) == 0]
             for g in gens]
    if len(gens) == 1:
        hs = np.array(cands[0], dtype=np.int32)
        images = np.empty((len(hs), G.order), dtype=np.int32)
        power = np.full(len(hs), H.identity, dtype=np.int32)
        for gk in words(G, gens, range(G.order)).tolist():  # g^k, k = 0, 1, ...
            images[:, gk] = power
            power = H.table[power, hs]
    else:
        found = _homomorphism_search(G, H, gens, injective=False)(cands)
        images = np.array(found, dtype=np.int32).reshape(len(found), G.order)
    if not respects_product(G, H, images).all():
        raise HomomorphismError("images do not respect the group product")
    images.setflags(write=False)
    return images
