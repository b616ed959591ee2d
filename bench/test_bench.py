"""Tests of the benchmark itself: the certificate checker, the span arithmetic
and a smoke run of every workload.

    python3 -m pytest -q bench/test_bench.py      # from the repository root
"""

import json

import numpy as np
import pytest

import run

run.load_library()

import certify  # noqa: E402
from certify import CertificateError  # noqa: E402
from spans import Hooks, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, theory_verdict  # noqa: E402

from holoreg import cli, parse_group_spec, realizability  # noqa: E402


def cyclic_table(n):
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def test_checker_accepts_a_true_generator():
    # x -> x - 1 in C_6 walks through all six elements
    certify.check_witness(cyclic_table(6), 1, np.arange(6))


@pytest.mark.parametrize("translation, twist, message", [
    (2, np.arange(6), "single 6-cycle"),                  # x -> x - 2: two 3-cycles
    (1, np.array([0, 2, 1, 3, 4, 5]), "homomorphism"),    # a transposition
    (1, np.array([0, 1, 1, 3, 4, 5]), "bijection"),
])
def test_checker_rejects_a_corrupted_witness(translation, twist, message):
    with pytest.raises(CertificateError, match=message):
        certify.check_witness(cyclic_table(6), translation, twist)


def test_checker_rejects_a_corrupted_report():
    spec = "semidirect (cyclic 5) (dihedral 8) alpha r->id s->phi:4"
    text, code = cli.run(cli.Request("classify", spec=spec))
    assert code == cli.EXIT_OK
    group = parse_group_spec(spec)
    names = {group.format_element(i): i for i in range(group.order)}
    certify.certify_report(text, group.table, names.__getitem__)
    fields = certify.report_fields(text)
    wrong = next(name for name in names if name != fields["witness_translation"])
    corrupted = text.replace(f"witness_translation: {fields['witness_translation']}",
                             f"witness_translation: {wrong}")
    with pytest.raises(CertificateError):
        certify.certify_report(corrupted, group.table, names.__getitem__)


def test_generator_count_must_be_a_multiple_of_phi():
    certify.check_generator_count(9, 18)
    with pytest.raises(CertificateError):
        certify.check_generator_count(9, 9)


def test_theory_verdicts():
    assert theory_verdict("semidirect (cgroup 1 1 1) (dihedral 4) alpha r->id s->id") == \
        (True, "theorem-case-1")
    assert theory_verdict("semidirect (cyclic 15) (dihedral 4) alpha r->phi:14 s->phi:4") == \
        (False, "fails-alpha-condition")
    assert theory_verdict("semidirect (cyclic 15) (quaternion 8) alpha r->phi:14 s->phi:14") == \
        (True, "theorem-case-1")
    assert theory_verdict("semidirect (cyclic 15) (dihedral 16) alpha r->id s->phi:14") == \
        (True, "theorem-case-2")
    assert theory_verdict("semidirect (cyclic 15) (quaternion 16) alpha r->phi:14 s->id") == \
        (False, "fails-alpha-condition")


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 0, "parent": None, "name": "cli", "start": 0.0, "end": 10.0, "child_s": 7.0},
        {"id": 1, "parent": 0, "name": "realizability.classify", "start": 1.0, "end": 8.0,
         "child_s": 5.0},
        {"id": 2, "parent": 1, "name": "groups.validate", "start": 2.0, "end": 7.0,
         "child_s": 0.0},
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"]["value"] == 3.0
    assert m["realizability.classify_s"]["value"] == 2.0
    assert m["groups.validate_s"]["value"] == 5.0
    assert m["groups.validate_calls"]["value"] == 1


def test_hooks_restore_the_library():
    before = (cli.classify, realizability.decompose, realizability.FiniteGroup.__init__)
    hooks = Hooks()
    Tracer().install(hooks)
    assert cli.classify is not before[0]
    hooks.restore()
    assert (cli.classify, realizability.decompose,
            realizability.FiniteGroup.__init__) == before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", trace, "--smoke"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    if workload == "large-tables":
        # the order-515 loop is accepted: one failure in each round of 8
        assert result["failed"] * 8 == result["attempted"]
    else:
        assert result["failed"] == 0
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
