"""The one-line group-spec mini-language and the Cayley-table file format.

Grammar (whitespace separated)::

    spec       := atom | semidirect
    atom       := "cyclic" INT | "dihedral" INT | "quaternion" INT
                | "cgroup" INT INT INT
    semidirect := "semidirect" "(" atom ")" "(" atom ")"
                  "alpha" "r->" AUT "s->" AUT
    AUT        := "id" | PART ("*" PART)*
    PART       := ("theta" | "phi" | "psi") ":" INT
    INT        := [+-]?[0-9]+

In a semidirect spec the first factor must be a cyclic or cgroup atom (so
that automorphisms have canonical coordinates) and the second must be
dihedral or quaternion.

Table files: line 1 exactly ``order n``; line 2 optionally ``labels``
followed by n tokens; then n rows of n indices, row g column h holding g*h,
with the identity at index 0.  Blank lines are skipped.  Every integer, in a
spec or a table file, is a signed ASCII decimal INT (no ``_`` separators, no
other digits), and tokens are separated by whitespace; ``#`` is an ordinary
character, not a comment.  An order whose n x n int32 table would exceed
the machine's physical memory is refused before any row is read.
"""

from __future__ import annotations

import re

import numpy as np

from .cgroups import (CGroupAut, CGroupPresentation, aut_permutation,
                      cgroup_group, m_factor, p_factor)
from .groups import (FiniteGroup, GroupDefinitionError, HomomorphismError,
                     check_table_size, cyclic_group, semidirect_product)


class SpecError(ValueError):
    """Raised on any malformed group spec or table file."""


_INTEGER = re.compile(r"[+-]?[0-9]+")  # every integer of a spec or a table file


def _tokenize(text: str) -> list:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_group_spec(text: str) -> FiniteGroup:
    """Build the group described by a mini-language spec string."""
    tokens = _tokenize(text)
    if tokens[:1] == ["semidirect"]:
        group, rest = _parse_semidirect(tokens[1:])
    else:
        group, rest = _parse_atom(tokens)
    if rest:
        raise SpecError(f"trailing tokens in spec: {' '.join(rest)}")
    return group


def _take_int(tokens: list, what: str) -> tuple:
    if not tokens or not _INTEGER.fullmatch(tokens[0]):
        raise SpecError(f"expected an integer for {what}")
    return int(tokens[0]), tokens[1:]


def _parse_atom(tokens: list, shared: bool = False):
    """A fresh group, or with ``shared`` (a semidirect spec's acting slot)
    the shared ``p_factor`` for a dihedral or quaternion atom."""
    if not tokens:
        raise SpecError("empty group spec")
    head, rest = tokens[0], tokens[1:]
    try:
        if head == "cyclic":
            n, rest = _take_int(rest, "cyclic order")
            return cyclic_group(n), rest
        if head in ("dihedral", "quaternion"):
            n, rest = _take_int(rest, f"{head} order")  # __wrapped__ builds afresh
            return (p_factor if shared else p_factor.__wrapped__)(head, n), rest
    except GroupDefinitionError as exc:
        raise SpecError(str(exc)) from exc
    if head == "cgroup":
        pres, rest = _parse_presentation(tokens)
        return cgroup_group(pres), rest
    raise SpecError(f"unknown group constructor {head!r}")


def _parse_presentation(tokens: list):
    """A ``cyclic n`` or ``cgroup e d k`` atom as its presentation; a cyclic
    atom is C(n, 1, 1)."""
    if not tokens:
        raise SpecError("empty group spec")
    head, rest = tokens[0], tokens[1:]
    if head == "cyclic":
        e, rest = _take_int(rest, "cyclic order")
        d = k = 1
    elif head == "cgroup":
        e, rest = _take_int(rest, "cgroup e")
        d, rest = _take_int(rest, "cgroup d")
        k, rest = _take_int(rest, "cgroup k")
    else:
        raise SpecError("semidirect base must be a cyclic or cgroup atom")
    try:
        if e >= 1 and d >= 1:  # before the presentation's ord, a loop of up to e steps
            check_table_size(e * d)
        return CGroupPresentation(e, d, k), rest
    except GroupDefinitionError as exc:
        raise SpecError(str(exc)) from exc


def _parse_parenthesized(tokens: list, parse):
    """``parse`` applied to the tokens between a leading "(" and the next ")"."""
    if not tokens or tokens[0] != "(":
        raise SpecError("expected '(' in semidirect spec")
    if ")" not in tokens:
        raise SpecError("unbalanced parentheses in spec")
    i = tokens.index(")")
    value, leftover = parse(tokens[1:i])
    if leftover:
        raise SpecError(f"trailing tokens inside parentheses: {' '.join(leftover)}")
    return value, tokens[i + 1:]


def parse_aut_spec(text: str, pres: CGroupPresentation) -> CGroupAut:
    """Parse ``id`` or ``theta:c*phi:u*psi:v`` into a canonical automorphism."""
    if text == "id":
        return CGroupAut(pres, 0, 1, 1)
    c, u, v = 0, 1, 1
    seen = set()
    for part in text.split("*"):
        m = re.fullmatch(rf"(theta|phi|psi):({_INTEGER.pattern})", part)
        if m is None:
            raise SpecError(f"malformed automorphism component {part!r}")
        kind, value = m.group(1), int(m.group(2))
        if kind in seen:
            raise SpecError(f"duplicate automorphism component {kind!r}")
        seen.add(kind)
        if kind == "theta":
            c = value
        elif kind == "phi":
            u = value
        else:
            v = value
    try:
        return CGroupAut(pres, c, u, v)
    except HomomorphismError as exc:
        raise SpecError(str(exc)) from exc


def _parse_semidirect(tokens: list):
    pres, tokens = _parse_parenthesized(tokens, _parse_presentation)
    P, tokens = _parse_parenthesized(tokens, lambda atom: _parse_atom(atom, shared=True))
    if P.label_style != "twogroup":
        raise SpecError("semidirect acting factor must be dihedral or quaternion")
    if not tokens or tokens[0] != "alpha":
        raise SpecError("expected 'alpha' after the two factors")
    tokens = tokens[1:]
    images = {}
    for _ in range(2):
        if not tokens:
            raise SpecError("expected r-> and s-> automorphism assignments")
        m = re.fullmatch(r"(r|s)->(\S+)", tokens[0])
        if m is None:
            raise SpecError(f"malformed action assignment {tokens[0]!r}")
        images[m.group(1)] = m.group(2)
        tokens = tokens[1:]
    if set(images) != {"r", "s"}:
        raise SpecError("action must assign both r-> and s->")
    try:
        group = build_semidirect_from_auts(
            pres, P, parse_aut_spec(images["r"], pres), parse_aut_spec(images["s"], pres))
    except HomomorphismError as exc:
        raise SpecError(str(exc)) from exc
    return group, tokens


def build_semidirect_from_auts(pres: CGroupPresentation, P: FiniteGroup,
                               aut_r: CGroupAut, aut_s: CGroupAut) -> FiniteGroup:
    """Semidirect product of a presented C-group by a dihedral or quaternion
    group P, from the images of r and s in canonical automorphism coordinates.

    M and the permutations of M that aut_r and aut_s induce are the shared
    ``m_factor`` and ``aut_permutation``.  P's relations r^h = 1, s^2 = r^c
    (read off P's table) and s r s^-1 = r^-1 are checked on them, exactly,
    as canonical automorphisms act faithfully on M; a HomomorphismError
    names the first that fails.  They are then composed for each r^a s^b.
    The name is ``semidirect_spec``, the spec string that parses back to
    the product.
    """
    perm_r, perm_s = aut_permutation(aut_r), aut_permutation(aut_s)
    r_powers = [np.arange(len(perm_r), dtype=np.int32)]
    for _ in range(P.order // 2):
        r_powers.append(perm_r[r_powers[-1]])
    if not np.array_equal(r_powers.pop(), r_powers[0]):
        raise HomomorphismError("action of r violates its order relation")
    s = P.labels.index((0, 1))
    s_sq_exp, _ = P.label(P.mul(s, s))  # s^2 = r^s_sq_exp
    if not np.array_equal(perm_s[perm_s], r_powers[s_sq_exp]):
        raise HomomorphismError("action of s violates the s^2 relation")
    if not np.array_equal(perm_s[perm_r], r_powers[-1][perm_s]):
        raise HomomorphismError(
            "action violates the conjugation relation s r s^-1 = r^-1")
    perms = [r_powers[a][perm_s] if b else r_powers[a] for a, b in P.labels]
    return semidirect_product(m_factor(pres), P, perms,
                              name=semidirect_spec(pres, P, aut_r, aut_s))


def semidirect_spec(pres: CGroupPresentation, P: FiniteGroup,
                    aut_r: CGroupAut, aut_s: CGroupAut) -> str:
    """The spec string that parses back to
    ``build_semidirect_from_auts(pres, P, aut_r, aut_s)``, written without
    building it."""
    return f"semidirect ({pres.spec}) ({P.name}) alpha r->{aut_r.spec} s->{aut_s.spec}"


# -- Cayley table files -----------------------------------------------------------


def load_cayley_table(path) -> FiniteGroup:
    """Read a group from the line-oriented table format.

    The order is read and its table size checked before any row is read.
    The rows are then parsed by one ``np.loadtxt`` call straight into int32;
    only when that call refuses them does ``_diagnose_rows`` look at the
    tokens again, to say which check failed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = (ln.strip() for ln in fh if ln.strip())
            n = _read_order(next(lines, ""))
            body = list(lines)
    except UnicodeDecodeError as exc:
        raise SpecError(f"table file is not UTF-8 text: {exc}") from exc
    labels = None
    if body and body[0].startswith("labels"):
        labels = body[0].split()[1:]
        if len(labels) != n:
            raise SpecError(f"labels line must carry {n} tokens")
        body = body[1:]
    if len(body) != n:
        raise SpecError(f"expected {n} table rows, found {len(body)}")
    try:
        table = np.loadtxt(body, dtype=np.int32, comments=None, ndmin=2)
    except ValueError as exc:
        raise SpecError(_diagnose_rows(body, n)) from exc
    if table.shape != (n, n):
        raise SpecError("table rows have inconsistent width")
    try:
        group = FiniteGroup(table, labels=labels, name=f"table {path}")
    except GroupDefinitionError as exc:
        raise SpecError(str(exc)) from exc
    if group.identity != 0:
        raise SpecError("table files require the identity at index 0")
    return group


def _read_order(line: str) -> int:
    """n from the ``order n`` line, refused if its table could not fit."""
    if not line.startswith("order"):
        raise SpecError("table file must start with 'order n'")
    tokens = line.split()
    if tokens[0] != "order" or len(tokens) != 2 or not _INTEGER.fullmatch(tokens[1]):
        raise SpecError("malformed order line")
    n = int(tokens[1])
    if n < 1:
        raise SpecError("table order must be at least 1")
    try:
        check_table_size(n)
    except GroupDefinitionError as exc:
        raise SpecError(str(exc)) from exc
    return n


def _diagnose_rows(body: list, n: int) -> str:
    """Why ``np.loadtxt`` refused n rows: a row not n tokens wide, an integer
    beyond int32, or else a token outside the grammar."""
    rows = [row.split() for row in body]
    if any(len(row) != n for row in rows):
        return "table rows have inconsistent width"
    if all(_INTEGER.fullmatch(token) for row in rows for token in row):
        return "table entries must be element indices"
    return "table rows must contain integers"


def dump_cayley_table(G: FiniteGroup, path):
    """Write a group in the line-oriented table format.

    The n decimal names are made once; each row of the table is looked up
    in them and joined, the same bytes as formatting every entry.
    """
    if G.identity != 0:
        raise SpecError("table files require the identity at index 0")
    names = np.array([str(i) for i in range(G.order)], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"order {G.order}\n")
        if G.labels is not None:
            rendered = [G.format_element(i).replace(" ", "") for i in range(G.order)]
            fh.write("labels " + " ".join(rendered) + "\n")
        for row in G.table:
            fh.write(" ".join(names[row].tolist()) + "\n")
