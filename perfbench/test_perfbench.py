"""Tests of the benchmark itself, on tiny inputs:

    python3 -m pytest perfbench
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from coverstab import aut, census, cli  # noqa: E402


def test_selfcheck_passes():
    assert run.main(["--selfcheck"]) == 0


def test_wrong_census_row_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(workloads.CENSUS_ROWS, 6, (56, 6, 4))
    assert run.main(["--workload", "census8", "--tiny", "--seconds", "0"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": false' in last and '"failed": 1' in last


def test_failed_operation_is_counted():
    op = workloads.Op("truncated", ["analyze", "A"], {})
    results = [[run._run_op(cli, op)]]
    assert results[0][0][1] != 0
    assert run._verdicts([op], results)[:2] == (1, 1)


@pytest.mark.parametrize("field, value", [
    ("aut_x_order", "7"), ("index", "3"), ("classification", "stable"),
    ("reasons", [])])
def test_check_rejects_a_tampered_report(field, value):
    import json
    op = next(op for op in workloads.build("symmetric", 1, tiny=True)
              if op.label == "3K3")
    _, status, out = run._run_op(cli, op)
    assert status == 0 and checks.check(op, out) is None
    report = json.loads(out)
    report[field] = value
    assert checks.check(op, json.dumps(report)) is not None


def test_witness_and_refinement_certificates():
    import networkx as nx
    op = next(op for op in workloads.build("families", 1, tiny=True)
              if op.label.startswith("xab"))
    g = nx.from_graph6_bytes(op.argv[-1].encode())
    a1, a2, b1, b2 = op.expect["witness"]
    assert checks._witness_is_cover_automorphism(g, a1, a2, b1, b2)
    assert not checks._witness_is_cover_automorphism(g, a1, b1, a2, b2)
    assert not checks._discrete_refinement(nx.petersen_graph())
    asymmetric_tree = nx.Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                (2, 6)])
    assert checks._discrete_refinement(asymmetric_tree)


def test_tail_is_the_percentile_with_ten_beyond():
    assert run._tail(list(range(50)), 50) == pytest.approx(39.2)
    two_rounds = [t for t in range(50) for _ in range(2)]
    assert run._tail(two_rounds, 50) == pytest.approx(39.2)
    assert run._tail([3.0, 1.0, 2.0], 1) == 3.0


def test_tracer_wraps_every_binding_and_restores_them():
    original = aut.canonical_form
    tracer = Tracer()
    tracer.install()
    try:
        assert census.canonical_form is aut.canonical_form is not original
    finally:
        tracer.uninstall()
    assert census.canonical_form is aut.canonical_form is original


def test_traced_counts_repeat_exactly():
    def counts():
        args = run._parser().parse_args(
            ["--workload", "census8", "--tiny", "--seconds", "0",
             "--trace", "1"])
        metrics = run.traced(args)["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] == "count"}

    first = counts()
    assert first == counts()
    assert first["census.generate.accepted"] == workloads.GRAPH_COUNTS[6]
