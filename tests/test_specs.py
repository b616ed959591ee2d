"""The group-spec mini-language and the Cayley-table file format."""

import contextlib
import io
import re
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoreg import (FiniteGroup, GroupDefinitionError, SpecError, cgroup_group,
                     CGroupPresentation, cli, cyclic_group, dihedral_group,
                     dump_cayley_table, find_isomorphism, groups,
                     load_cayley_table, parse_aut_spec, parse_group_spec,
                     quaternion_group, semidirect_product)


def test_parse_atoms():
    assert parse_group_spec("cyclic 6").order == 6
    assert parse_group_spec("dihedral 8").order == 8
    assert parse_group_spec("quaternion 16").order == 16
    assert parse_group_spec("cgroup 7 3 2").order == 21


def test_parse_semidirect_example():
    G = parse_group_spec(
        "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:8 s->phi:13")
    assert G.order == 84
    assert not np.array_equal(G.table, G.table.T)


def test_parse_semidirect_with_cyclic_base():
    G = parse_group_spec(
        "semidirect (cyclic 7) (dihedral 4) alpha r->id s->phi:6")
    assert G.order == 28


def test_parse_trivial_action_matches_direct_product():
    from holoreg import direct_product
    G = parse_group_spec("semidirect (cyclic 5) (quaternion 8) alpha r->id s->id")
    H = direct_product(cyclic_group(5), quaternion_group(8))
    assert find_isomorphism(G, H) is not None


def test_parse_aut_spec_components():
    pres = CGroupPresentation(7, 3, 2)
    aut = parse_aut_spec("theta:2*phi:3", pres)
    assert (aut.c, aut.u, aut.v) == (2, 3, 1)
    assert parse_aut_spec("id", pres).is_identity


@pytest.mark.parametrize("spec", [
    "",
    "cyclic",
    "cyclic x",
    "frobnicate 7",
    "cgroup 6 3 1",                    # shared factor
    "dihedral 6",                      # not a 2-power
    "semidirect (cyclic 5) (cyclic 4) alpha r->id s->id",       # P not two-group
    "semidirect (dihedral 4) (dihedral 4) alpha r->id s->id",   # base not cyclic
    "semidirect (cyclic 5) (dihedral 4) alpha r->id",           # missing s->
    "semidirect (cyclic 5) (dihedral 4) alpha r->phi:5 s->id",  # non-unit
    "cyclic 6 7",                      # trailing tokens
])
def test_parse_rejects_malformed_specs(spec):
    with pytest.raises(SpecError):
        parse_group_spec(spec)


def test_each_semidirect_factor_is_one_atom(constructions):
    # a nested spec in either slot ends at the first ")" and is refused
    # before any table is made
    validated, built = constructions
    inner = "semidirect (cyclic 5) (dihedral 4) alpha r->id s->id"
    for spec in (f"semidirect (cyclic 3) ({inner}) alpha r->id s->id",
                 f"semidirect ({inner}) (dihedral 4) alpha r->id s->id",
                 "semidirect ((cyclic 3)) (dihedral 4) alpha r->id s->id",
                 "semidirect (cyclic 3) ((dihedral 4)) alpha r->id s->id",
                 "semidirect (cyclic 3) () alpha r->id s->id"):
        with pytest.raises(SpecError):
            parse_group_spec(spec)
    assert (validated, built) == ([], [])


def test_parse_rejects_relation_breaking_action():
    # r has order 4 in dihedral 8 but phi:3 has order 6 mod 7
    with pytest.raises(SpecError):
        parse_group_spec("semidirect (cyclic 7) (dihedral 8) alpha r->phi:3 s->id")


def test_quaternion_action_s_squared_relation():
    # in quaternion 8, s^2 = r^2: an order-4 image of r with trivial s breaks it
    with pytest.raises(SpecError):
        parse_group_spec("semidirect (cyclic 5) (quaternion 8) alpha r->phi:2 s->id")
    # involutions are fine on both generators
    G = parse_group_spec("semidirect (cyclic 5) (quaternion 8) alpha r->id s->phi:4")
    assert G.order == 40


@pytest.mark.parametrize("spec, message", [
    ("semidirect (cgroup 7 3 2) (dihedral 8) alpha r->phi:3 s->id",
     "action of r violates its order relation"),
    ("semidirect (cyclic 5) (quaternion 8) alpha r->phi:2 s->id",
     "action of s violates the s^2 relation"),
    ("semidirect (cgroup 7 3 2) (dihedral 4) alpha r->phi:6 s->theta:1*phi:6",
     "action violates the conjugation relation s r s^-1 = r^-1"),
])
def test_each_broken_relation_is_named(spec, message):
    with pytest.raises(SpecError) as info:
        parse_group_spec(spec)
    assert str(info.value) == message


def test_table_round_trip(tmp_path):
    path = tmp_path / "group.tbl"
    for G in (cyclic_group(6), dihedral_group(8),
              cgroup_group(CGroupPresentation(7, 3, 2))):
        dump_cayley_table(G, path)
        back = load_cayley_table(path)
        assert back.order == G.order
        assert (back.table == G.table).all()


def test_table_labels_line(tmp_path):
    path = tmp_path / "labeled.tbl"
    dump_cayley_table(dihedral_group(4), path)
    text = path.read_text().splitlines()
    assert text[0] == "order 4"
    assert text[1].startswith("labels ")
    assert len(text[1].split()) == 5


def test_table_rejects_malformed_files(tmp_path):
    cases = {
        "empty.tbl": ("", "order n"),
        "no_order.tbl": ("4\n0 1\n1 0\n", "order n"),
        "bad_rows.tbl": ("order 2\n0 1\n", "table rows"),
        "not_group.tbl": ("order 2\n0 1\n0 1\n", "identity"),
        "bad_identity.tbl": ("order 2\n1 0\n0 1\n", "identity at index 0"),
        "ragged.tbl": ("order 3\n0 1 2 3\n1 2 0\n2 0 1\n", "inconsistent width"),
        "huge_entry.tbl": ("order 2\n0 1\n1 1099511627776\n", "element indices"),
        "beyond_int64.tbl": (f"order 2\n0 1\n1 {10**30}\n", "element indices"),
        "undecodable.tbl": (b"order 2\n\xff\xfe 1\n1 0\n", "not UTF-8"),
        # the token grammar is [+-]?[0-9]+, stricter than int()
        "underscore.tbl": ("order 2\n0 1\n1 1_0\n", "must contain integers"),
        "arabic_digit.tbl": ("order 2\n0 1\n1 \u0661\n", "must contain integers"),
        "float.tbl": ("order 2\n0 1\n1 1.0\n", "must contain integers"),
        "word.tbl": ("order 2\n0 1\n1 x\n", "must contain integers"),
        "hash.tbl": ("order 2\n0 #\n1 0\n", "must contain integers"),  # not a comment
        "hash_after_row.tbl": ("order 2\n0 1 #\n1 0\n", "inconsistent width"),
        "zero_order.tbl": ("order 0\n", "at least 1"),
        "underscore_order.tbl": ("order 1_0\n" + "0\n" * 10, "malformed order line"),
    }
    for name, (content, message) in cases.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(SpecError, match=message):
            load_cayley_table(path)


def test_ragged_row_with_bad_token_exits_2(tmp_path):
    path = tmp_path / "ragged_bad.tbl"
    path.write_text("order 2\n0 1 x\n1 0\n")
    with pytest.raises(SpecError, match="inconsistent width|must contain integers"):
        load_cayley_table(path)
    text, code = cli.run(cli.Request("classify", table=str(path)))
    assert code == cli.EXIT_ERROR and text.startswith("error: ") and text.count("\n") == 1


KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


@pytest.mark.parametrize("text, table", [
    ("order 4\n0\t1 2  3\n1 \t 0   3 2\n2\t\t3 0 1\n3 2 1 0\n", KLEIN),  # tabs, runs of spaces
    ("order 4\r\n0 1 2 3\r\n1 0 3 2\r\n2 3 0 1\r\n3 2 1 0\r\n", KLEIN),  # CRLF
    ("order 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n\n\n  \n", KLEIN),      # trailing blank lines
    ("order 4\n0 +1 +2 +3\n+1 0 3 2\n2 3 +0 1\n3 2 1 0\n", KLEIN),         # signed entries
    ("order 1\n0", [[0]]),
])
def test_table_accepts_the_grammar(tmp_path, text, table):
    path = tmp_path / "group.tbl"
    path.write_bytes(text.encode("utf-8"))
    assert load_cayley_table(path).table.tolist() == table


@pytest.mark.parametrize("n", [10**10, 10**20])
def test_table_size_is_refused_before_reading_rows(tmp_path, n):
    # the rows are malformed too: the size must be refused first
    path = tmp_path / "huge.tbl"
    path.write_text(f"order {n}\n0 x\n")
    with pytest.raises(SpecError, match=f"group order {n} is too large"):
        load_cayley_table(path)


def _per_entry_dump(G):
    """The writer's output as formatted one entry at a time, the reference."""
    lines = [f"order {G.order}"]
    if G.labels is not None:
        lines.append("labels " + " ".join(
            G.format_element(i).replace(" ", "") for i in range(G.order)))
    lines += [" ".join(str(int(v)) for v in row) for row in G.table]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _relabelled(G, perm):
    """G renumbered by perm (perm[0] == 0), without labels."""
    sigma = np.array(perm)
    inv = np.argsort(sigma)
    return FiniteGroup(sigma[G.table[inv][:, inv]])


def test_dump_matches_per_entry_formatting(tmp_path):
    path = tmp_path / "group.tbl"
    d8 = dihedral_group(8)
    rng = np.random.default_rng(5)
    frob = cgroup_group(CGroupPresentation(7, 3, 2))
    for G in (d8, frob, _relabelled(frob, [0, *(1 + rng.permutation(20))]),
              cyclic_group(1000)):
        dump_cayley_table(G, path)
        assert path.read_bytes() == _per_entry_dump(G), G.name


def test_corpus_tables_round_trip(tmp_path, corpus_reps):
    path = tmp_path / "rep.tbl"
    checked = 0
    for entry in corpus_reps:
        if entry.group.order <= 120:
            dump_cayley_table(entry.group, path)
            assert np.array_equal(load_cayley_table(path).table, entry.group.table), entry.spec
            checked += 1
    assert checked > 0


def test_table_size_check_is_exact(monkeypatch):
    # 100 pages of 4 bytes: an order-10 table (400 bytes) fits, order 11 does not
    pages = {"SC_PHYS_PAGES": 100, "SC_PAGE_SIZE": 4}
    monkeypatch.setattr(groups.os, "sysconf", pages.__getitem__)
    groups.check_table_size(10)
    with pytest.raises(GroupDefinitionError, match="order 11 is too large"):
        groups.check_table_size(11)


@pytest.mark.parametrize("n", [10**10, 10**20])
def test_constructors_refuse_tables_beyond_memory(n):
    # each raises before it allocates anything
    with pytest.raises(GroupDefinitionError, match="too large"):
        cyclic_group(n)
    with pytest.raises(GroupDefinitionError, match="too large"):
        cgroup_group(CGroupPresentation(n, 1, 1))
    two_power = 1 << n.bit_length()
    for build in (dihedral_group, quaternion_group):
        with pytest.raises(GroupDefinitionError, match="too large"):
            build(two_power)
    # only the orders are read before the check
    with pytest.raises(GroupDefinitionError, match="too large"):
        semidirect_product(SimpleNamespace(order=n), SimpleNamespace(order=2), None)
    with pytest.raises(SpecError, match="too large"):
        parse_group_spec(f"cyclic {n}")


@pytest.mark.parametrize("source", [
    ["--spec", "cyclic \u0661\u0662"],
    ["--spec", "semidirect (cyclic 7) (dihedral 4) alpha r->phi:\u0666 s->id"],
    ["--table", "order \u0662\n0 1\n1 0\n"],
    ["--table", "orderly 2\n0 1\n1 0\n"],
    ["--table", "order 2 3\n0 1\n1 0\n"],
], ids=["arabic-order", "arabic-phi", "arabic-table-order", "orderly", "order-2-3"])
def test_integers_are_ascii(source, tmp_path, capsys):
    # each is refused with one error line, never read as a group
    if source[0] == "--table":
        path = tmp_path / "group.tbl"
        path.write_text(source[1], encoding="utf-8")
        source = ["--table", str(path)]
    assert cli.main(["classify", *source]) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and out == "", err


def test_spec_integers_take_a_sign_as_table_entries_do():
    assert parse_group_spec("cyclic +6").order == 6
    aut = parse_aut_spec("theta:+2*phi:+3", CGroupPresentation(7, 3, 2))
    assert (aut.c, aut.u, aut.v) == (2, 3, 1)


def test_huge_spec_order_exits_2(capsys):
    assert cli.main(["classify", "--spec", "cyclic 99999999999999999999"]) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: group order 99999999999999999999 is too large")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec", ["cgroup 1000000007 1 5",
                                  "semidirect (cgroup 1000000007 1 5) (dihedral 4) "
                                  "alpha r->id s->id"])
def test_huge_cgroup_spec_exits_2_at_once(spec, capsys):
    # the order of k mod e, a loop of up to e steps, is not reached
    start = time.perf_counter()
    assert cli.main(["classify", "--spec", spec]) == cli.EXIT_ERROR
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: group order 1000000007 is too large")
    assert err.count("\n") == 1


# -- fuzzing the spec parser ---------------------------------------------------

# Every integer is either small or far beyond memory: a spec then names no
# table between a few thousand elements and the memory limit, which would be
# slow to build and large to hold.
SPEC_INTS = st.one_of(st.integers(-2, 12).map(str),
                      st.sampled_from(["1000000007", str(2**40), str(10**30), "007", "-0"]))
SPEC_WORDS = ["cyclic", "dihedral", "quaternion", "cgroup", "semidirect", "(", ")",
              "alpha", "r->id", "s->id", "r->", "s->", "->", "id", "r->theta:1",
              "s->phi:2", "r->psi:2", "s->theta:1*phi:-1", "r->phi:1*phi:1",
              "s->psi:1000000007", "r->theta:x", "s->phi:2*", "(cyclic", "4)"]
# no decimal digits (category Nd): runs of ASCII digits could name tables
# too large to build in a test, and the parser refuses all other digits
# (``test_integers_are_ascii``)
spec_token = st.one_of(st.sampled_from(SPEC_WORDS), SPEC_INTS,
                       st.text(st.characters(blacklist_categories=("Cs", "Nd")),
                               min_size=1, max_size=3))
SEED_SPECS = ["cyclic 6", "dihedral 8", "quaternion 8", "cgroup 7 3 2", "cgroup 5 4 2",
              "semidirect (cyclic 5) (dihedral 4) alpha r->id s->phi:4",
              "semidirect (cgroup 7 3 2) (quaternion 8) alpha r->id s->phi:6",
              "semidirect (cgroup 3 1 1) (dihedral 8) alpha r->phi:2 s->id",
              "semidirect (cyclic 9) (dihedral 4) alpha r->theta:1 s->phi:8*psi:1"]


@st.composite
def spec_strings(draw):
    if draw(st.booleans()):
        return " ".join(draw(st.lists(spec_token, max_size=12)))
    tokens = draw(st.sampled_from(SEED_SPECS)).replace("(", "( ").replace(")", " )").split()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "swap", "replace", "insert",
                                     "truncate"]))
        if kind == "drop":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == "replace":
            tokens[i] = draw(spec_token)
        elif kind == "insert":
            tokens.insert(i, draw(spec_token))
        else:
            del tokens[i:]
        if not tokens:
            break
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    return sep.join(tokens)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(spec_strings())
def test_mutated_specs_fail_cleanly(text):
    try:
        parse_group_spec(text)
    except SpecError:
        pass
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["classify", f"--spec={text}"])
    assert code in (cli.EXIT_OK, cli.EXIT_NEGATIVE, cli.EXIT_ERROR)
    if code == cli.EXIT_ERROR:
        message = err.getvalue()
        assert out.getvalue() == "", out.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message


# -- fuzzing the reader ---------------------------------------------------------

_INTEGER = re.compile(r"[+-]?[0-9]+")
INT32 = np.iinfo(np.int32)


def reference_parse(data: bytes):
    """The reader spelled out with ``int()``: (table, labels), or None where
    the loader must raise SpecError."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    lines = [ln.strip() for ln in re.split(r"\r\n|\r|\n", text) if ln.strip()]
    order = lines[0].split() if lines else []
    if order[:1] != ["order"] or len(order) != 2 or not _INTEGER.fullmatch(order[1]):
        return None
    n = int(order[1])
    body, labels = lines[1:], None
    if body and body[0].startswith("labels"):
        labels, body = body[0].split()[1:], body[1:]
        if len(labels) != n:
            return None
    rows = [row.split() for row in body]
    if n < 1 or len(rows) != n or any(len(row) != n for row in rows):
        return None
    if not all(_INTEGER.fullmatch(token) for row in rows for token in row):
        return None
    table = [[int(token) for token in row] for row in rows]
    if any(not INT32.min <= v <= INT32.max for row in table for v in row):
        return None
    try:
        group = FiniteGroup(table, labels=labels)
    except GroupDefinitionError:
        return None
    return (table, labels) if group.identity == 0 else None


FUZZ_GROUPS = [cyclic_group(1), cyclic_group(2), cyclic_group(6), cyclic_group(24),
               dihedral_group(8), quaternion_group(8),
               cgroup_group(CGroupPresentation(3, 2, 2)),
               cgroup_group(CGroupPresentation(7, 3, 2))]

EDGE_TOKENS = ["0", "1", "2", "-1", "+1", "-0", "+0", "007", "1_0", "\u0661", "\uff11",
               "1.0", "1e0", "0x1", "x", "#", "# 1", "+", "-", "+-1", "", " ", "\t",
               "\xa0", "\u2003", "\x0c", "\x00", "\ufeff", "\r", "\n", "\r\n",
               "2147483647", "2147483648", "-2147483649", str(10**30), "order", "labels"]
token_text = st.one_of(st.sampled_from(EDGE_TOKENS), st.integers(-3, 30).map(str),
                       st.text(st.characters(blacklist_categories=("Cs",)), max_size=3))
# after a row's last entry a '#' would hide nothing if it started a comment
trailing_text = st.one_of(st.sampled_from(["#", "# 0", "#0"]), token_text)
ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                      "\u0665\u0666\u0667\u0668\u0669")
# the same entry spelled otherwise: int() reads all of these, the grammar
# only the first two, and the last wraps to the same int32
RESPELLINGS = [lambda t: "+" + t, lambda t: "00" + t, lambda t: "0_" + t,
               lambda t: t.translate(ARABIC), lambda t: t + ".0",
               lambda t: str(int(t) + 2**32) if t.isdigit() else t]


@st.composite
def table_files(draw):
    G = draw(st.sampled_from(FUZZ_GROUPS))
    if G.order > 2 and draw(st.booleans()):
        G = _relabelled(G, [0, *draw(st.permutations(range(1, G.order)))])
    lines = [line.split(" ") for line in _per_entry_dump(G).decode().splitlines()]
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines[i]) - 1))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "replace", "respell", "insert",
                                 "append", "add row", "remove row", "blank line", "order",
                                 "labels"]))
    if kind == "drop":
        del lines[i][j]
    elif kind == "duplicate":
        lines[i].insert(j, lines[i][j])
    elif kind == "swap":
        k = draw(st.integers(0, len(lines) - 1))
        m = draw(st.integers(0, len(lines[k]) - 1))
        lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
    elif kind == "replace":
        lines[i][j] = draw(token_text)
    elif kind == "respell":
        lines[i][j] = draw(st.sampled_from(RESPELLINGS))(lines[i][j])
    elif kind == "insert":
        lines[i].insert(j, draw(token_text))
    elif kind == "append":
        lines[i].append(draw(trailing_text))
    elif kind == "add row":
        lines.insert(i, list(draw(st.sampled_from(lines))))
    elif kind == "remove row":
        del lines[i]
    elif kind == "blank line":
        lines.insert(i, [draw(st.sampled_from(["", " ", "\t", "\r"]))])
    elif kind == "order":
        lines[0] = ["order", draw(token_text)] if draw(st.booleans()) else [draw(token_text)]
    elif lines[1][0] == "labels":
        labels = lines[1]
        if draw(st.booleans()):
            del lines[1]
        elif draw(st.booleans()) and len(labels) > 1:
            del labels[draw(st.integers(1, len(labels) - 1))]
        else:
            labels.append(draw(token_text))
    else:
        lines.insert(1, ["labels", *(str(v) for v in range(G.order))])
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(" ".join(line) + ending for line in lines).encode("utf-8")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(table_files())
def test_reader_agrees_with_reference_parse(data):
    want = reference_parse(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.tbl"
        path.write_bytes(data)
        try:
            G = load_cayley_table(path)
        except SpecError:
            assert want is None
        else:
            assert want is not None
            table, labels = want
            assert G.table.tolist() == table
            assert (G.labels is None) == (labels is None)
            if labels is not None:
                assert list(G.labels) == labels
        text, code = cli.run(cli.Request("classify", table=str(path)))
    assert code in (cli.EXIT_OK, cli.EXIT_NEGATIVE, cli.EXIT_ERROR)
    if code == cli.EXIT_ERROR:
        assert text.startswith("error: ") and text.count("\n") == 1


def test_loaded_table_classifies_like_spec(tmp_path):
    path = tmp_path / "d16.tbl"
    dump_cayley_table(dihedral_group(16), path)
    from holoreg import classify
    assert classify(load_cayley_table(path)).realizable
