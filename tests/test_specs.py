"""The group-spec mini-language and the Cayley-table file format."""

import pytest

from holoreg import (SpecError, cgroup_group, CGroupPresentation,
                     cyclic_group, dihedral_group, dump_cayley_table,
                     find_isomorphism, load_cayley_table, parse_aut_spec,
                     parse_group_spec, quaternion_group)


def test_parse_atoms():
    assert parse_group_spec("cyclic 6").order == 6
    assert parse_group_spec("dihedral 8").order == 8
    assert parse_group_spec("quaternion 16").order == 16
    assert parse_group_spec("cgroup 7 3 2").order == 21


def test_parse_semidirect_example():
    G = parse_group_spec(
        "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:8 s->phi:13")
    assert G.order == 84
    assert not G.is_abelian


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
        "undecodable.tbl": (b"order 2\n\xff\xfe 1\n1 0\n", "not UTF-8"),
    }
    for name, (content, message) in cases.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(SpecError, match=message):
            load_cayley_table(path)


def test_loaded_table_classifies_like_spec(tmp_path):
    path = tmp_path / "d16.tbl"
    dump_cayley_table(dihedral_group(16), path)
    from holoreg import classify
    assert classify(load_cayley_table(path)).realizable
