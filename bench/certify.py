"""Independent certificates for cyclic regular generators.

Everything here works on a bare Cayley table (``table[a, b]`` is the index of
``a*b``) with numpy and sympy only.  Nothing imports holoreg, so a fault in the
library's own witness verification cannot let a bad witness through.

A holomorph element is the pair (translation ``a``, twist ``pi``) acting by
``x -> pi(x) * a^-1``.  It generates a cyclic regular subgroup exactly when
``pi`` is an automorphism and that action is a single cycle through all ``n``
elements.
"""

from __future__ import annotations

import re

import numpy as np
from sympy import totient
from sympy.combinatorics import Permutation, PermutationGroup


class CertificateError(Exception):
    """A witness, report or oracle result fails an independent check."""


def identity_of(table: np.ndarray) -> int:
    idx = np.arange(len(table))
    rows = np.flatnonzero((table == idx).all(axis=1))
    if len(rows) != 1:
        raise CertificateError("table has no unique left identity")
    return int(rows[0])


def extend_twist(table: np.ndarray, images: dict) -> np.ndarray:
    """The map fixing the identity with ``images`` on the generators, extended
    along breadth-first words.  It is only a candidate: ``check_witness`` then
    tests it on every pair."""
    rows = table.tolist()
    e = identity_of(table)
    twist = [-1] * len(rows)
    twist[e] = e
    frontier = [e]
    while frontier:
        nxt = []
        for u in frontier:
            for g, h in images.items():
                v = rows[u][g]
                if twist[v] < 0:
                    twist[v] = rows[twist[u]][h]
                    nxt.append(v)
        frontier = nxt
    if min(twist) < 0:
        raise CertificateError("reported generators do not generate the group")
    return np.array(twist)


def check_witness(table: np.ndarray, translation: int, twist) -> None:
    """Raise unless (translation, twist) generates a cyclic regular subgroup."""
    table = np.asarray(table)
    n = len(table)
    twist = np.asarray(twist)
    if twist.shape != (n,) or not np.array_equal(np.sort(twist), np.arange(n)):
        raise CertificateError("twist is not a bijection of the group")
    if not np.array_equal(twist[table], table[twist[:, None], twist[None, :]]):
        raise CertificateError("twist is not a homomorphism")
    e = identity_of(table)
    a_inv = int(np.flatnonzero(table[translation] == e)[0])
    action = Permutation(table[twist, a_inv].tolist())
    # <action> is transitive exactly when the action is one n-cycle
    if not PermutationGroup([action]).is_transitive():
        raise CertificateError(f"x -> twist(x) * a^-1 is not a single {n}-cycle")


def check_generator_count(n: int, count: int) -> None:
    """Each cyclic regular subgroup has exactly phi(n) generators."""
    if count % int(totient(n)):
        raise CertificateError(f"{count} generators is not a multiple of phi({n})")


def report_fields(text: str) -> dict:
    """``key: value`` lines of a report, first occurrence of each key."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


_TABLE_ELEMENT = re.compile(r"e(\d+)(?::.*)?")


def table_element(token: str) -> int:
    """Index of an element printed for a table-file group (``e12`` or ``e12:label``)."""
    m = _TABLE_ELEMENT.fullmatch(token)
    if m is None:
        raise CertificateError(f"unreadable table element {token!r}")
    return int(m.group(1))


def reported_witness(fields: dict, table: np.ndarray, element) -> tuple:
    """(translation, full twist) from the ``witness_*`` lines of a report.

    ``element`` turns a printed element into its index.
    """
    try:
        translation = element(fields["witness_translation"])
        twist_line = fields["witness_twist"]
    except KeyError as exc:
        raise CertificateError(f"report lacks {exc.args[0]}") from None
    images = {}
    if twist_line != "id":
        for pair in twist_line.split(", "):
            src, sep, dst = pair.partition("->")
            if not sep:
                raise CertificateError(f"unreadable twist image {pair!r}")
            images[element(src)] = element(dst)
    return translation, extend_twist(table, images)


def certify_report(text: str, table: np.ndarray, element, witness=None) -> None:
    """Check the witness a classify report prints, and that it is the
    library's own witness when one is given as (translation, twist)."""
    translation, twist = reported_witness(report_fields(text), table, element)
    check_witness(table, translation, twist)
    if witness is not None:
        w_translation, w_twist = witness
        if w_translation != translation or tuple(w_twist) != tuple(twist.tolist()):
            raise CertificateError("report and returned witness differ")
