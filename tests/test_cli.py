"""The batch front end: reports, exit codes, determinism, bounds."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from holoreg import (HomomorphismError, cli, cyclic_group, dihedral_group,
                     direct_product, dump_cayley_table, realizability)
from holoreg.cli import (EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, Request,
                         build_parser, main, run)
from holoreg.specs import SpecError
from test_specs import SEED_SPECS, spec_strings, table_files

ORDER_84_SPEC = "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:8 s->phi:13"


def test_classify_counterexample_exits_1():
    text, code = run(Request("classify", spec=ORDER_84_SPEC))
    assert code == EXIT_NEGATIVE
    assert "realizable: false" in text
    assert "reason: fails-alpha-condition" in text


def test_classify_dihedral_16_attaches_witness():
    text, code = run(Request("classify", spec="dihedral 16"))
    assert code == EXIT_OK
    assert "realizable: true" in text
    assert "witness_translation:" in text
    assert "witness_twist:" in text


def test_oracle_cyclic_9_nonempty():
    text, code = run(Request("oracle", spec="cyclic 9"))
    assert code == EXIT_OK
    assert "generator_count: 18" in text


def test_oracle_elementary_9_empty_exits_1():
    text, code = run(Request("oracle", spec="cgroup 3 3 1"))
    assert code == EXIT_ERROR  # gcd(3, 3) != 1 is a spec error
    text, code = run(Request("oracle", spec="dihedral 8"))
    assert code == EXIT_OK


def test_construct_report_has_cycle_length():
    text, code = run(Request("construct", spec="quaternion 16"))
    assert code == EXIT_OK
    assert "cycle_length: 16" in text
    assert "witness_order: 16" in text


def test_brace_report_is_cyclic():
    text, code = run(Request("brace", spec="dihedral 8"))
    assert code == EXIT_OK
    assert "circle_cyclic: true" in text
    assert "circle_row_7:" in text


def test_rump_reports_counterexample_direction():
    text, code = run(Request("rump", spec=ORDER_84_SPEC))
    assert code == EXIT_OK
    assert "realizable_over_cyclic_target: true" in text


def test_aut_counts():
    text, code = run(Request("aut", spec="cgroup 7 3 2"))
    assert code == EXIT_OK
    assert "aut_count: 42" in text


def test_reports_are_byte_identical():
    for request in (Request("classify", spec=ORDER_84_SPEC),
                    Request("oracle", spec="cyclic 9"),
                    Request("aut", spec="dihedral 8")):
        first, _ = run(request)
        second, _ = run(request)
        assert first == second


def test_parse_failure_exits_2():
    text, code = run(Request("classify", spec="frobnicate 7"))
    assert code == EXIT_ERROR
    assert text.startswith("error:")


def test_bound_exceeded_exits_2():
    text, code = run(Request("oracle", spec="dihedral 16", hol_bound=5))
    assert code == EXIT_ERROR
    assert "bound" in text


def test_unreadable_table_exits_2(tmp_path):
    text, code = run(Request("classify", table=str(tmp_path)))  # a directory
    assert code == EXIT_ERROR
    assert text.startswith("error:") and text.count("\n") == 1


def test_undecodable_table_exits_2(tmp_path, capsys):
    path = tmp_path / "t.tbl"
    path.write_bytes(b"order 2\n\xff\xfe 1\n1 0\n")
    assert main(["classify", "--table", str(path)]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: table file is not UTF-8 text") and err.count("\n") == 1


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    code = main(["classify", "--spec", "cyclic 3", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["sweep", "--limit", "-1"],
                                  ["sweep", "--workers", "0"],
                                  ["classify", "--spec", "cyclic 3", "--workers", "-2"]])
def test_invalid_limit_and_workers_exit_2(argv, capsys):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["oracle", "--spec", "cyclic 3", "--hol-bound", "٦"],
                                  ["aut", "--spec", "cyclic 3", "--hol-bound", "2_0"],
                                  ["sweep", "--limit", "1_0"],
                                  ["sweep", "--limit", " 1"],
                                  ["sweep", "--workers", "١", "--limit", "0"]])
def test_option_integers_follow_the_ascii_grammar(argv, capsys):
    # the grammar of spec and table integers: ASCII digits, one optional sign
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["classify", "--spec", "cyclic 3", "--bogus"],
                                  ["classify", "--spec", "cyclic 3", "--hol-bound", "7"],
                                  [],
                                  ["oracle", "--spec", "cyclic 3", "--hol-bound", "x"]])
def test_malformed_command_line_is_one_error_line(argv, capsys):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_request_requires_exactly_one_source():
    with pytest.raises(SpecError):
        Request("classify")
    with pytest.raises(SpecError):
        Request("classify", spec="cyclic 3", table="x.tbl")


def test_table_input(tmp_path):
    path = tmp_path / "d8.tbl"
    dump_cayley_table(dihedral_group(8), path)
    text, code = run(Request("classify", table=str(path)))
    assert code == EXIT_OK
    assert "realizable: true" in text


def test_classify_table_rejects_non_associative_loop(tmp_path, loop_table):
    # order 515: associativity is checked at every order, so the loop is an
    # input error, not a verdict
    path = tmp_path / "loop515.tbl"
    table = loop_table(103)
    path.write_text(f"order {len(table)}\n" +
                    "".join(" ".join(map(str, row)) + "\n" for row in table.tolist()))
    text, code = run(Request("classify", table=str(path)))
    assert code == EXIT_ERROR
    assert text.startswith("error:")


# Exact classify reports, pinned so that no refactor of the classifier can
# change a byte of them.  Together they cover every reason, table input, and
# both retargeting steps of the normalization: r->phi:20 s->phi:20 moves the
# alpha-trivial rs onto r, and r->theta:1*phi:6 s->id moves the action of s
# into the phi family.
GOLDEN_CLASSIFY = {
    "cyclic 9": (EXIT_OK, """\
command: classify
spec: cyclic 9
order: 9
realizable: true
reason: c-group
witness_translation: g^8
witness_twist: g^1->g^1
"""),
    "cgroup 7 3 2": (EXIT_OK, """\
command: classify
spec: cgroup 7 3 2
order: 21
realizable: true
reason: c-group
witness_translation: x^5*y
witness_twist: x->x, y->x^6*y
"""),
    "quaternion 8": (EXIT_OK, """\
command: classify
spec: quaternion 8
order: 8
realizable: true
reason: theorem-case-1
decomposition: e=1 d=1 k=1 P=quaternion m=3 alpha_image=1
witness_translation: r^3*s
witness_twist: s->r^2*s, r->r^3*s
"""),
    "dihedral 16": (EXIT_OK, """\
command: classify
spec: dihedral 16
order: 16
realizable: true
reason: theorem-case-2
decomposition: e=1 d=1 k=1 P=dihedral m=4 alpha_image=1
witness_translation: r*s
witness_twist: r->r^7, s->r*s
"""),
    "semidirect (cyclic 5) (dihedral 8) alpha r->id s->phi:4": (EXIT_OK, """\
command: classify
spec: semidirect (cyclic 5) (dihedral 8) alpha r->id s->phi:4
order: 40
realizable: true
reason: theorem-case-2
decomposition: e=5 d=1 k=1 P=dihedral m=3 alpha_image=2
witness_translation: x*r*s
witness_twist: x*r->x^4*r^3, s->r*s
"""),
    ORDER_84_SPEC: (EXIT_NEGATIVE, """\
command: classify
spec: semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:8 s->phi:13
order: 84
realizable: false
reason: fails-alpha-condition
decomposition: e=21 d=1 k=1 P=dihedral m=2 alpha_image=4
"""),
    "semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:20 s->phi:20": (EXIT_OK, """\
command: classify
spec: semidirect (cgroup 21 1 1) (dihedral 4) alpha r->phi:20 s->phi:20
order: 84
realizable: true
reason: theorem-case-1
decomposition: e=21 d=1 k=1 P=dihedral m=2 alpha_image=2
witness_translation: x*s
witness_twist: x*r*s->x^20*r*s, s->r
"""),
    "semidirect (cgroup 7 3 2) (dihedral 4) alpha r->theta:1*phi:6 s->id": (EXIT_OK, """\
command: classify
spec: semidirect (cgroup 7 3 2) (dihedral 4) alpha r->theta:1*phi:6 s->id
order: 84
realizable: true
reason: theorem-case-1
decomposition: e=7 d=3 k=2 P=dihedral m=2 alpha_image=2
witness_translation: y*r*s
witness_twist: x*s->x^3*s, y*r->x^6*y*r*s
"""),
}

GOLDEN_TABLES = {
    "c3xc3": (direct_product(cyclic_group(3), cyclic_group(3)),
              "fails-supersolvable-reduction"),
    "c2xc4": (direct_product(cyclic_group(2), cyclic_group(4)), "fails-P-shape"),
}


def test_classify_reports_match_recorded_text(tmp_path):
    for spec, (want_code, want_text) in GOLDEN_CLASSIFY.items():
        assert run(Request("classify", spec=spec)) == (want_text, want_code), spec
    for name, (group, reason) in GOLDEN_TABLES.items():
        path = tmp_path / f"{name}.tbl"
        dump_cayley_table(group, path)
        want = (f"command: classify\nspec: table:{path}\norder: {group.order}\n"
                f"realizable: false\nreason: {reason}\n")
        assert run(Request("classify", table=str(path))) == (want, EXIT_NEGATIVE), name


# Exact oracle, aut and brace reports, recorded before each was rendered
# from arrays; the third spec is a corpus representative.
RECORDED = Path(__file__).parent / "recorded"
GOLDEN_ARRAY_REPORTS = {
    "dihedral-8": "dihedral 8",
    "cgroup-7-3-2": "cgroup 7 3 2",
    "c3-by-klein": "semidirect (cgroup 3 1 1) (dihedral 4) alpha r->phi:2 s->id",
}


@pytest.mark.parametrize("command", ["oracle", "aut", "brace"])
def test_oracle_and_aut_reports_match_recorded_text(command):
    for name, spec in GOLDEN_ARRAY_REPORTS.items():
        want = (RECORDED / f"{command}-{name}.txt").read_text(encoding="utf-8")
        assert run(Request(command, spec=spec)) == (want, EXIT_OK), name


def test_construct_reports_of_corpus_representatives_match_recorded_text(corpus_reps):
    """Every witness line, so xi through each way of retargeting r and s."""
    got = "".join(run(Request("construct", spec=e.spec))[0] for e in corpus_reps)
    assert got.encode("utf-8") == (RECORDED / "construct-corpus.txt").read_bytes()


def test_memory_error_exits_2(monkeypatch, capsys):
    # the loader raises instead of allocating, as numpy does for a dense
    # table that does not fit
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 37.3 GiB for an array with shape "
                          "(100000, 100000) and data type int32")
    monkeypatch.setattr(cli, "parse_group_spec", out_of_memory)
    text, code = run(Request("classify", spec="cyclic 100000"))
    assert code == EXIT_ERROR
    assert text.startswith("error: out of memory:") and text.count("\n") == 1
    assert main(["classify", "--spec", "cyclic 100000"]) == EXIT_ERROR
    assert capsys.readouterr() == ("", text)


def test_homomorphism_error_exits_2(monkeypatch, capsys):
    def bad_construct(dec):
        raise HomomorphismError("images do not respect the group product")
    monkeypatch.setattr(realizability, "construct", bad_construct)
    text, code = run(Request("construct", spec="dihedral 8"))
    assert code == EXIT_ERROR
    assert text == "error: images do not respect the group product\n"
    assert main(["construct", "--spec", "dihedral 8"]) == EXIT_ERROR
    assert capsys.readouterr() == ("", text)


def test_unexpected_error_exits_2_in_one_line(monkeypatch, capsys):
    def broken(request):
        raise RuntimeError("a bug\nover two lines")
    monkeypatch.setitem(cli._HANDLERS, "classify", broken)
    with pytest.raises(RuntimeError):  # run() keeps raising, so tests see the bug
        run(Request("classify", spec="dihedral 8"))
    assert main(["classify", "--spec", "dihedral 8"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: internal error: RuntimeError('a bug\\nover two lines')\n"


def test_hol_bound_flag_defaults_to_20000():
    for name in ("oracle", "aut", "sweep"):
        assert build_parser().parse_args([name]).hol_bound == 20000
        assert build_parser().parse_args([name, "--hol-bound", "7"]).hol_bound == 7


def test_main_writes_out_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["classify", "--spec", "dihedral 8", "--out", str(out)])
    assert code == EXIT_OK
    assert "realizable: true" in out.read_text()
    assert capsys.readouterr().out == ""


def test_main_prints_to_stdout(capsys):
    code = main(["rump", "--spec", "cyclic 6"])
    assert code == EXIT_OK
    assert "realizable_over_cyclic_target: true" in capsys.readouterr().out


def test_sweep_limited_run():
    text, code = run(Request("sweep", hol_bound=20000, limit=12))
    assert code == EXIT_OK
    assert "disagreements: 0" in text
    assert "corpus_size: 12" in text


def test_sweep_default_corpus_has_no_disagreements():
    text, code = run(Request("sweep", hol_bound=20000))
    assert code == EXIT_OK
    assert "disagreements: 0" in text


def test_sweep_parallel_matches_serial():
    serial, code1 = run(Request("sweep", hol_bound=20000, limit=8))
    parallel, code2 = run(Request("sweep", hol_bound=20000, limit=8, workers=2))
    assert code1 == code2 == EXIT_OK
    assert serial == parallel


class RecordingExecutor:
    """A stand-in for ``ProcessPoolExecutor`` that records ``max_workers``
    and maps in this process, so that no worker is started."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers, limit, cpus, made", [
    (100000, 3, 4, [3]),   # no more workers than specs
    (100000, 12, 2, [2]),  # no more workers than cores
    (2, 5, 1, []),         # one core: serial
    (3, 1, 4, []),         # one spec: serial
    (2, 0, 4, []),         # nothing to sweep
])
def test_sweep_workers_are_capped(monkeypatch, workers, limit, cpus, made):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "made", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    text, code = run(Request("sweep", hol_bound=20000, limit=limit, workers=workers))
    serial, _ = run(Request("sweep", hol_bound=20000, limit=limit))
    assert RecordingExecutor.made == made
    assert code == EXIT_OK and text == serial
    assert f"corpus_size: {limit}\n" in text


def test_sweep_of_nothing_with_workers_is_empty(capsys):
    assert main(["sweep", "--limit", "0", "--workers", "2"]) == EXIT_OK
    assert capsys.readouterr().out == ("command: sweep\ncorpus_size: 0\nrealizable_count: 0\n"
                                       "oracle_skipped: 0\ndisagreements: 0\n")


def test_aut_refuses_a_bound_below_n_as_the_oracle_does(capsys):
    for command in ("aut", "oracle"):
        assert main([command, "--spec", "cyclic 2", "--hol-bound", "1"]) == EXIT_ERROR
        assert capsys.readouterr() == \
            ("", "error: bound exceeded: holomorph order 2 exceeds bound 1\n")
    text, code = run(Request("aut", spec="cyclic 2", hol_bound=2))
    assert code == EXIT_OK and "aut_count: 1" in text


def test_error_writes_no_out_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["classify", "--spec", "cyclic x", "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    assert capsys.readouterr() == ("", "error: expected an integer for cyclic order\n")


# -- fuzzing the command line ---------------------------------------------------

# a Latin square with identity 0 that is not associative: the loop L5
LOOP5 = b"order 5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n"
BOUNDS = ["1", "6", "100", "20000", "0", "-5", "1e3", "٣", "2_0", "+6"]
# options that some command does not take, or takes with a bad value;
# --workers is never above 1, so no process pool starts
STRAY = [["--bogus"], ["--workers", "1"], ["--workers", "0"], ["--workers", "١"],
         ["--limit", "1"], ["--limit", "-1"], ["--limit", "1_0"], ["--hol-bound"], ["--spec", "cyclic 3"], ["--table", "missing.tbl"],
         ["->"]]


@st.composite
def command_lines(draw):
    """(argv, table bytes or None): a command on a well-formed spec, a
    mutated spec, a mutated table file or a loop, with bounds and stray
    options; a table goes to a file whose path the test appends as --table."""
    command = draw(st.sampled_from(list(cli._HANDLERS)))
    argv, table = [command], None
    if command == "sweep":
        argv += ["--limit", draw(st.sampled_from(["0", "1", "2"]))]
    else:
        source = draw(st.sampled_from(["seed", "seed", "spec", "table", "loop"]))
        if source == "seed":
            argv.append(f"--spec={draw(st.sampled_from([*SEED_SPECS, ORDER_84_SPEC]))}")
        elif source == "spec":
            argv.append(f"--spec={draw(spec_strings())}")
        else:
            table = draw(table_files()) if source == "table" else LOOP5
    if command in ("oracle", "aut", "sweep") and draw(st.booleans()):
        argv += ["--hol-bound", draw(st.sampled_from(BOUNDS))]
    if draw(st.integers(0, 4)) == 0:
        argv += draw(st.sampled_from(STRAY))
    return argv, table


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(command_lines())
def test_every_command_exits_cleanly(case):
    argv, table = case
    with tempfile.TemporaryDirectory() as tmp:
        if table is not None:
            path = Path(tmp) / "fuzz.tbl"
            path.write_bytes(table)
            argv = [*argv, "--table", str(path)]
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_ERROR), argv
    assert "internal error" not in err, (argv, err)
    one_error_line = err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert (code == EXIT_ERROR) == (out == "" and one_error_line), (argv, out, err)
    if code != EXIT_ERROR:
        assert err == "" and out.startswith(f"command: {argv[0]}\n"), (argv, out, err)
