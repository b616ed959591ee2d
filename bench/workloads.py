"""The three workloads: their inputs, set-up, timed operations and checks.

Each workload runs as a closed loop from one process and one client: the next
operation starts when the previous one has returned.

Every check runs outside the timed calls.  A check that fails adds a line to
``problems``, which turns ``correct`` false.  An operation that errors on a
valid input, or accepts an invalid one, counts as failed instead.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import certify
from certify import CertificateError
from spans import Capture, Hooks

from holoreg import cli, groups, realizability, specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
CORPUS_FILE = HERE / "corpus_reps.tsv"

SWEEP_BOUND = 100000       # the oracle checks 114 of the 202 representatives
SAMPLED_GENERATORS = 3     # oracle generators re-verified per group, chosen by the seed
# The relabelling changes how long a table takes (searches walk elements in
# index order), so it is fixed rather than drawn from --seed; run.py's
# --relabel-seed picks another.
RELABEL_SEED = 2021
IMPORT_REPEATS = 5


@dataclass
class Round:
    latencies: list   # seconds, one per timed operation
    batch_s: float    # the workload's whole batch, see README.md
    attempted: int
    failed: int


def timed(label: str, operation):
    """Run one operation; returns (result, seconds).  ``--trace 1`` passes
    ``spans.PairedCalls`` in its place.

    Each operation starts from an empty young generation, so the garbage
    collections inside it depend less on the operations and checks that ran
    before it.
    """
    gc.collect(1)
    t0 = time.perf_counter()
    result = operation()
    return result, time.perf_counter() - t0


def import_seconds() -> float:
    """Median time to import the library in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import holoreg.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def _element_lookup(group):
    names = {group.format_element(i): i for i in range(group.order)}
    if len(names) != group.order:
        raise CertificateError("element names are not distinct")

    def element(token):
        try:
            return names[token]
        except KeyError:
            raise CertificateError(f"unknown element {token!r}") from None
    return element


def _witness_pair(verdict):
    return verdict.witness.translation, verdict.witness.twist


# -- corpus ---------------------------------------------------------------------


@dataclass
class CorpusRow:
    spec: str
    order: int
    generators: Optional[int]   # oracle count at SWEEP_BOUND; None when skipped


def load_corpus() -> list:
    rows = []
    for line in CORPUS_FILE.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        spec, order, found = line.split("\t")
        rows.append(CorpusRow(spec, int(order), None if found == "-" else int(found)))
    return rows


_CORPUS_SPEC = re.compile(
    r"semidirect \(.+\) \((dihedral|quaternion) (\d+)\) alpha r->(\S+) s->(\S+)")


def theory_verdict(spec: str) -> tuple:
    """(realizable, reason) that the structure theorem fixes for a corpus spec.

    Corpus groups are M x| P with M an odd C-group and P dihedral or
    quaternion, and automorphisms are printed in canonical form, so two
    specs name the same automorphism exactly when their strings agree.  For
    the Klein group and Q8, |alpha(P)| <= 2 holds exactly when r or s acts
    trivially or both act alike; for larger P, <r> must act trivially.
    """
    m = _CORPUS_SPEC.fullmatch(spec)
    if m is None:
        raise CertificateError(f"not a corpus spec: {spec!r}")
    kind, order, act_r, act_s = m.group(1), int(m.group(2)), m.group(3), m.group(4)
    if order == 4 or (kind == "quaternion" and order == 8):
        ok = "id" in (act_r, act_s) or act_r == act_s
        return ok, "theorem-case-1" if ok else "fails-alpha-condition"
    ok = act_r == "id"
    return ok, "theorem-case-2" if ok else "fails-alpha-condition"


def _check_verdict_fields(fields: dict, order: int, ok: bool, reason: str):
    got = (fields.get("order"), fields.get("realizable"), fields.get("reason"))
    want = (str(order), "true" if ok else "false", reason)
    if got != want:
        raise CertificateError(f"report gives {got}, expected {want}")


class CorpusClassify:
    """Each corpus representative classified cold from its spec string."""

    smoke_max_order = 60
    smoke_groups = 6

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.problems = []

    def setup(self) -> None:
        rows = load_corpus()
        random.Random(self.seed).shuffle(rows)
        if self.smoke:
            rows = [r for r in rows if r.order <= self.smoke_max_order][:self.smoke_groups]
        self.rows = rows

    def round(self, run_op=timed) -> Round:
        hooks = Hooks()
        verdicts = Capture(hooks, "realizability", "classify")
        latencies, failed = [], 0
        try:
            for row in self.rows:
                (text, code), seconds = run_op(row.spec, lambda: cli.run(
                    cli.Request("classify", spec=row.spec)))
                latencies.append(seconds)
                call = verdicts.take()
                if code == cli.EXIT_ERROR or call is None:
                    failed += 1
                    continue
                try:
                    self.check(row, text, code, *call[:2])
                except CertificateError as exc:
                    self.problems.append(f"classify {row.spec}: {exc}")
        finally:
            hooks.restore()
        return Round(latencies, sum(latencies), len(self.rows), failed)

    @staticmethod
    def check(row: CorpusRow, text: str, code: int, args, verdict) -> None:
        ok, reason = theory_verdict(row.spec)
        _check_verdict_fields(certify.report_fields(text), row.order, ok, reason)
        if code != (cli.EXIT_OK if ok else cli.EXIT_NEGATIVE):
            raise CertificateError(f"exit code {code}")
        if ok:
            group = args[0]
            certify.certify_report(text, group.table, _element_lookup(group),
                                   _witness_pair(verdict))


def _attempt_sweep_one(spec: str):
    try:
        return cli.sweep_one(spec, SWEEP_BOUND)
    except Exception as exc:
        return exc


class CorpusSweep:
    """``sweep_one`` at bound 100 000 per representative."""

    smoke_max_order = 40
    smoke_groups = 5

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.problems = []

    def setup(self) -> None:
        rows = load_corpus()
        if not self.smoke:
            built = [(e.spec, e.group.order) for e in
                     realizability.corpus_representatives(realizability.generate_corpus())]
            if built != [(r.spec, r.order) for r in rows]:
                self.problems.append(
                    f"corpus differs from {CORPUS_FILE.name}; "
                    "rerun bench/regen_corpus.py after checking why")
        self.rng.shuffle(rows)
        if self.smoke:
            rows = [r for r in rows if r.order <= self.smoke_max_order][:self.smoke_groups]
        self.rows = rows

    def round(self, run_op=timed) -> Round:
        hooks = Hooks()
        verdicts = Capture(hooks, "realizability", "classify")
        oracles = Capture(hooks, "holomorph", "cyclic_regular_oracle")
        latencies, failed = [], 0
        try:
            for row in self.rows:
                result, seconds = run_op(row.spec, lambda: _attempt_sweep_one(row.spec))
                latencies.append(seconds)
                verdict, oracle = verdicts.take(), oracles.take()
                if isinstance(result, Exception) or verdict is None or oracle is None:
                    failed += 1  # an error on a valid corpus group
                    continue
                try:
                    self.check(row, result, verdict[1], oracle)
                except CertificateError as exc:
                    self.problems.append(f"sweep_one {row.spec}: {exc}")
        finally:
            hooks.restore()
        return Round(latencies, sum(latencies), len(self.rows), failed)

    def check(self, row: CorpusRow, result: tuple, verdict, oracle) -> None:
        spec, order, realizable, reason, status, agree = result
        ok, want_reason = theory_verdict(row.spec)
        if (spec, order, realizable, reason) != (row.spec, row.order, ok, want_reason):
            raise CertificateError(f"row {result[:4]} disagrees with the theorem")
        if verdict.realizable != realizable:
            raise CertificateError("row and verdict differ")
        _, found, exc = oracle
        if found is None:
            if row.generators is not None or status != "skipped(bound)":
                raise CertificateError(f"oracle skipped ({exc!r}), expected "
                                       f"{row.generators} generators")
        else:
            if len(found) != row.generators:
                raise CertificateError(f"oracle found {len(found)} generators, "
                                       f"expected {row.generators}")
            if status != ("nonempty" if found else "empty") or not agree:
                raise CertificateError(f"row reports oracle={status} agree={agree}")
            if bool(found) != ok:
                raise CertificateError("classifier and oracle disagree")
            certify.check_generator_count(order, len(found))
        if ok:
            table = verdict.witness.group.table
            translation, twist = _witness_pair(verdict)
            certify.check_witness(table, translation, twist)
            if found is not None and not any(
                    h.translation == translation and h.twist == twist for h in found):
                raise CertificateError("classifier witness is not among the oracle's")
        for h in self.rng.sample(found or [], min(SAMPLED_GENERATORS, len(found or []))):
            certify.check_witness(h.group.table, h.translation, h.twist)


# -- large tables -----------------------------------------------------------------

# An order-5 loop: a Latin square with identity 0 that is not associative.
LOOP5 = np.array([[0, 1, 2, 3, 4],
                  [1, 0, 3, 4, 2],
                  [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1],
                  [4, 3, 1, 2, 0]])


def _c(n):
    return groups.cyclic_group(n)


def _product(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = groups.direct_product(out, f)
    return out


# name, builder, realizable, reason: each answer is fixed by the theory.
TABLES = (
    ("cyclic-1000", lambda: _c(1000), True, "c-group"),
    ("quaternion-256", lambda: groups.quaternion_group(256), True, "theorem-case-2"),
    ("dihedral-256", lambda: groups.dihedral_group(256), True, "theorem-case-2"),
    ("semidirect-672", lambda: specs.parse_group_spec(
        "semidirect (cgroup 7 3 2) (dihedral 32) alpha r->id s->phi:6"),
     True, "theorem-case-2"),
    ("semidirect-600", lambda: specs.parse_group_spec(
        "semidirect (cyclic 75) (quaternion 8) alpha r->id s->phi:74"),
     True, "theorem-case-1"),
    ("semidirect-1008", lambda: specs.parse_group_spec(
        "semidirect (cyclic 63) (dihedral 16) alpha r->phi:62 s->id"),
     False, "fails-alpha-condition"),
    ("c3xc3xd8", lambda: _product(_c(3), _c(3), groups.dihedral_group(8)),
     False, "fails-supersolvable-reduction"),
    ("c15xc2xc4", lambda: _product(_c(15), _c(2), _c(4)), False, "fails-P-shape"),
    ("c63xc2xc2xc2", lambda: _product(_c(63), _c(2), _c(2), _c(2)),
     False, "fails-P-shape"),
)

# Loops L5 x C_m, which every classify must reject with exit 2.  The order-515
# one is accepted today: tables above ASSOC_CHECK_BOUND = 512 are never tested
# for associativity.
LOOPS = (("loop5xc3", 3), ("loop5xc103", 103))

SMOKE_TABLES = ("semidirect-600", "c3xc3xd8", "c15xc2xc4", "loop5xc3", "loop5xc103")


def loop_table(m: int) -> np.ndarray:
    n = 5 * m
    a, i = np.arange(n) // m, np.arange(n) % m
    return (LOOP5[a[:, None], a[None, :]] * m + (i[:, None] + i[None, :]) % m).astype(np.int32)


def write_table(path: Path, table: np.ndarray) -> None:
    """The table-file format, for tables no FiniteGroup accepts."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"order {len(table)}\n")
        for row in table.tolist():
            fh.write(" ".join(map(str, row)) + "\n")


def relabel(G, rng: np.random.Generator):
    """G with its elements renumbered at random, the identity kept at 0."""
    sigma = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    inv = np.argsort(sigma)
    table = sigma[G.table[inv][:, inv]]
    labels = None if G.labels is None else [G.labels[i] for i in inv]
    return groups.FiniteGroup(table, labels=labels, name=f"{G.name} relabelled",
                              label_style=G.label_style)


@dataclass
class TableCase:
    name: str
    path: Path
    table: np.ndarray
    realizable: Optional[bool]   # None for a loop, which must be rejected
    reason: Optional[str]


class LargeTables:
    """Cayley-table files of orders 72 to 1008, each also under a seeded
    relabelling, plus two non-associative loops, through ``classify --table``."""

    relabel_seed = RELABEL_SEED

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.problems = []

    def setup(self) -> None:
        WORK.mkdir(exist_ok=True)
        rng = np.random.default_rng(self.relabel_seed)
        cases = []
        for name, build, ok, reason in TABLES:
            if self.smoke and name not in SMOKE_TABLES:
                continue
            G = build()
            for variant, H in (("given", G), ("relabelled", relabel(G, rng))):
                path = WORK / f"{name}-{variant}.table"
                specs.dump_cayley_table(H, path)
                cases.append(TableCase(name, path, H.table, ok, reason))
        for name, m in LOOPS:
            path = WORK / f"{name}.table"
            table = loop_table(m)
            write_table(path, table)
            cases.append(TableCase(name, path, table, None, None))
        random.Random(self.seed).shuffle(cases)
        self.cases = cases

    def round(self, run_op=timed) -> Round:
        hooks = Hooks()
        verdicts = Capture(hooks, "realizability", "classify")
        latencies, failed, answers = [], 0, {}
        try:
            for case in self.cases:
                (text, code), seconds = run_op(case.path.name, lambda: cli.run(
                    cli.Request("classify", table=str(case.path))))
                latencies.append(seconds)
                call = verdicts.take()
                if case.realizable is None:
                    # a loop: exit 2 is the only right answer
                    if code != cli.EXIT_ERROR or not text.startswith("error: "):
                        failed += 1
                    continue
                if code == cli.EXIT_ERROR or call is None:
                    failed += 1
                    continue
                fields = certify.report_fields(text)
                answers.setdefault(case.name, set()).add(
                    (fields.get("realizable"), fields.get("reason")))
                try:
                    self.check(case, text, code, call[1])
                except CertificateError as exc:
                    self.problems.append(f"table {case.path.name}: {exc}")
        finally:
            hooks.restore()
        for name, seen in answers.items():
            if len(seen) != 1:
                self.problems.append(f"table {name}: relabelling changes the answer {seen}")
        return Round(latencies, sum(latencies), len(self.cases), failed)

    @staticmethod
    def check(case: TableCase, text: str, code: int, verdict) -> None:
        _check_verdict_fields(certify.report_fields(text), len(case.table),
                              case.realizable, case.reason)
        if code != (cli.EXIT_OK if case.realizable else cli.EXIT_NEGATIVE):
            raise CertificateError(f"exit code {code}")
        if case.realizable:
            certify.certify_report(text, case.table, certify.table_element,
                                   _witness_pair(verdict))


WORKLOADS = {
    "corpus-classify": CorpusClassify,
    "corpus-sweep": CorpusSweep,
    "large-tables": LargeTables,
}
