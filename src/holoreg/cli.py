"""Batch front end: classify, oracle, construct, brace, rump, aut, sweep.

Reports are line-oriented ``key: value`` text with a stable key order, so
reruns are byte-identical and diffs stay meaningful.  Exit codes: 0 for a
realizable verdict (or plain success), 1 for not realizable, 2 for errors
such as parse failures or exceeded bounds.  ``main`` writes an error as one
``error:`` line on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import (BoundExceeded, FiniteGroup, GroupDefinitionError,
                     HomomorphismError, generating_set)
from .holomorph import (DEFAULT_HOL_BOUND, _hol_perms, cyclic_regular_oracle,
                        skew_brace_from_regular, subgroup_generated_by_hol)
from .realizability import (classify, classify_rump, corpus_representatives,
                            generate_corpus)
from .specs import _INTEGER, SpecError, load_cayley_table, parse_group_spec

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


@dataclass
class Request:
    """One batch command: exactly one group source plus options."""

    command: str
    spec: Optional[str] = None
    table: Optional[str] = None
    hol_bound: int = DEFAULT_HOL_BOUND
    workers: int = 1
    out: Optional[str] = None
    limit: Optional[int] = None

    def __post_init__(self):
        if self.hol_bound <= 0:
            raise SpecError("bounds must be positive")
        if self.workers < 1:
            raise SpecError("workers must be positive")
        if self.limit is not None and self.limit < 0:
            raise SpecError("limit must not be negative")
        if self.command != "sweep" and (self.spec is None) == (self.table is None):
            raise SpecError("exactly one of --spec or --table is required")


class _Report:
    def __init__(self, command: str, request: Optional[Request] = None,
                 group: Optional[FiniteGroup] = None):
        """Open a report with its command and, given a group, its source and order."""
        self.lines = []
        self.add("command", command)
        if group is not None:
            self.add("spec", _group_source(request))
            self.add("order", group.order)

    def add(self, key: str, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.lines.append(f"{key}: {value}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _load_group(request: Request) -> FiniteGroup:
    if request.spec is not None:
        return parse_group_spec(request.spec)
    return load_cayley_table(request.table)


def _group_source(request: Request) -> str:
    return request.spec if request.spec is not None else f"table:{request.table}"


def _images(group: FiniteGroup, gens, images, sep: str) -> str:
    """``g->images[g]`` over ``gens`` joined by ``sep``, or ``id`` when empty."""
    fmt = group.format_element
    return sep.join(f"{fmt(g)}->{fmt(images[g])}" for g in gens) or "id"


def _witness_lines(report: _Report, group: FiniteGroup, witness):
    report.add("witness_translation", group.format_element(witness.translation))
    report.add("witness_twist",
               _images(group, generating_set(group), witness.twist, ", "))


def _classify_report(request: Request) -> tuple:
    group = _load_group(request)
    verdict = classify(group)
    report = _Report("classify", request, group)
    report.add("realizable", verdict.realizable)
    report.add("reason", verdict.reason)
    if verdict.decomposition is not None:
        report.add("decomposition", verdict.decomposition.summary())
    if verdict.witness is not None:
        _witness_lines(report, group, verdict.witness)
    return report.text(), EXIT_OK if verdict.realizable else EXIT_NEGATIVE


def _oracle_report(request: Request) -> tuple:
    group = _load_group(request)
    found = cyclic_regular_oracle(group, hol_bound=request.hol_bound)
    report = _Report("oracle", request, group)
    report.add("generator_count", len(found))
    gens = generating_set(group)
    twists = {p: _images(group, gens, found.perms[p].tolist(), ",")
              for p in np.unique(found.twists).tolist()}
    for idx, (a, p) in enumerate(zip(found.translations.tolist(),
                                     found.twists.tolist())):
        report.add(f"generator_{idx}", f"({group.format_element(a)}; {twists[p]})")
    return report.text(), EXIT_OK if found else EXIT_NEGATIVE


def _construct_report(request: Request) -> tuple:
    group = _load_group(request)
    verdict = classify(group)
    report = _Report("construct", request, group)
    report.add("realizable", verdict.realizable)
    report.add("reason", verdict.reason)
    if not verdict.realizable:
        return report.text(), EXIT_NEGATIVE
    witness = verdict.witness
    _witness_lines(report, group, witness)
    report.add("witness_order", witness.order())
    report.add("cycle_length", witness.cycle_length_through_identity())
    return report.text(), EXIT_OK


def _brace_report(request: Request) -> tuple:
    group = _load_group(request)
    verdict = classify(group)
    report = _Report("brace", request, group)
    report.add("realizable", verdict.realizable)
    if not verdict.realizable:
        report.add("reason", verdict.reason)
        return report.text(), EXIT_NEGATIVE
    subgroup = subgroup_generated_by_hol(verdict.witness)
    brace = skew_brace_from_regular(group, subgroup)
    report.add("additive", group.name or "table input")
    report.add("circle_cyclic",
               int(max(brace.multiplicative.orders)) == group.order)
    names = np.array([str(i) for i in range(group.order)], dtype=object)
    for a, row in enumerate(brace.circle_table):
        report.add(f"circle_row_{a}", " ".join(names[row].tolist()))
    return report.text(), EXIT_OK


def _rump_report(request: Request) -> tuple:
    group = _load_group(request)
    verdict = classify_rump(group)
    report = _Report("rump", request, group)
    report.add("realizable_over_cyclic_target", verdict)
    return report.text(), EXIT_OK if verdict else EXIT_NEGATIVE


def _aut_report(request: Request) -> tuple:
    group = _load_group(request)
    auts = _hol_perms(group, request.hol_bound)
    report = _Report("aut", request, group)
    report.add("aut_count", len(auts))
    gens = generating_set(group)
    for idx, images in enumerate(auts.tolist()):
        report.add(f"aut_{idx}", _images(group, gens, images, ", "))
    return report.text(), EXIT_OK


def sweep_one(spec: str, hol_bound: int) -> tuple:
    """Classify one corpus spec and compare with the oracle; picklable for workers."""
    group = parse_group_spec(spec)
    verdict = classify(group)
    try:
        found = cyclic_regular_oracle(group, hol_bound=hol_bound)
        oracle = "nonempty" if found else "empty"
        agree = verdict.realizable == bool(found)
    except BoundExceeded:
        oracle = "skipped(bound)"
        agree = True
    return spec, group.order, verdict.realizable, verdict.reason, oracle, agree


def _sweep_report(request: Request) -> tuple:
    entries = corpus_representatives(generate_corpus())
    if request.limit is not None:
        entries = entries[:request.limit]
    specs = [e.spec for e in entries]
    workers = min(request.workers, len(specs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(sweep_one, specs,
                                 [request.hol_bound] * len(specs)))
    else:
        rows = [sweep_one(s, request.hol_bound) for s in specs]
    report = _Report("sweep")
    report.add("corpus_size", len(rows))
    for spec, order, ok, reason, oracle, agree in rows:
        flag = ("skipped" if oracle == "skipped(bound)"
                else "agree" if agree else "DISAGREE")
        report.add("group", f"{spec} | order={order} | classify={str(ok).lower()} "
                            f"({reason}) | oracle={oracle} | {flag}")
    report.add("realizable_count", sum(row[2] for row in rows))
    report.add("oracle_skipped", sum(row[4] == "skipped(bound)" for row in rows))
    disagreements = sum(not row[5] for row in rows)
    report.add("disagreements", disagreements)
    return report.text(), EXIT_OK if disagreements == 0 else EXIT_NEGATIVE


_HANDLERS = {
    "classify": _classify_report,
    "oracle": _oracle_report,
    "construct": _construct_report,
    "brace": _brace_report,
    "rump": _rump_report,
    "aut": _aut_report,
    "sweep": _sweep_report,
}


def run(request: Request) -> tuple:
    """Execute a request; returns (report text, exit code)."""
    handler = _HANDLERS.get(request.command)
    if handler is None:
        return f"error: unknown command {request.command!r}\n", EXIT_ERROR
    try:
        return handler(request)
    except (SpecError, GroupDefinitionError, HomomorphismError) as exc:
        return f"error: {exc}\n", EXIT_ERROR
    except BoundExceeded as exc:
        return f"error: bound exceeded: {exc}\n", EXIT_ERROR
    except OSError as exc:
        return f"error: {exc}\n", EXIT_ERROR
    except MemoryError as exc:  # numpy's ArrayMemoryError included
        return f"error: out of memory: {exc}\n", EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one ``error:`` line, exit 2."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"error: {message}\n")


def _integer(text: str) -> int:
    """An option's integer, in the ASCII grammar of specs and tables."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holoreg",
        description="Decide, construct, and verify cyclic regular subgroups "
                    "in holomorphs of finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        if name != "sweep":
            cmd.add_argument("--spec", help="group spec in the mini-language")
            cmd.add_argument("--table", help="path to a Cayley-table file")
        if name in ("oracle", "aut", "sweep"):
            cmd.add_argument("--hol-bound", type=_integer, default=DEFAULT_HOL_BOUND,
                             help=f"holomorph size bound (default {DEFAULT_HOL_BOUND})")
        if name == "sweep":
            cmd.add_argument("--workers", type=_integer, default=1, help="parallel workers")
            cmd.add_argument("--limit", type=_integer, default=None,
                             help="only sweep the first K corpus entries")
        cmd.add_argument("--out", help="write the report to this file")
    return parser


def main(argv=None) -> int:
    try:
        request = Request(**vars(build_parser().parse_args(argv)))
    except SystemExit as exc:  # --help, or a malformed command line
        return exc.code
    except SpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    try:
        text, code = run(request)
    except Exception as exc:  # a bug: one line, exit 2, no traceback
        sys.stderr.write(f"error: internal error: {exc!r}\n")
        return EXIT_ERROR
    if code == EXIT_ERROR:
        sys.stderr.write(text)
    elif request.out:
        try:
            with open(request.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_ERROR
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
