"""The benchmark's own tests: every workload path at tiny shapes, the output
check's power to catch a wrong result, and transport-independent counts.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import dataclasses
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run as bench  # noqa: E402
from tracing import Meter  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_workload_prints_every_metric(workload, trace):
    result = bench.run_benchmark(workload, seed=3, seconds=0.1, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.fixture(scope="module")
def local_result():
    run = bench.Run("tune-ref", 5, smoke=True)
    try:
        op = run.op(Meter())
        assert op is not None
        yield run, op, checks.mirror(run.inputs, run.config)
    finally:
        run.close()


def _problems(run, output, expected, tmp_path):
    return checks.check_output(output, run.inputs, run.config, expected, str(tmp_path))


def test_check_passes_the_program_output(local_result, tmp_path):
    run, op, expected = local_result
    assert _problems(run, op.output, expected, tmp_path) == []


def test_check_fails_on_one_altered_cell(local_result, tmp_path):
    run, op, expected = local_result
    cells = op.output.cells.copy()
    cells[1, 0] += 1  # one unit of 2^-frac_bits in one gene cell
    assert _problems(run, dataclasses.replace(op.output, cells=cells), expected, tmp_path)


def test_check_fails_on_one_altered_decision_bit(local_result, tmp_path):
    run, op, expected = local_result
    (h, bit), = op.output.loops
    flipped = dataclasses.replace(op.output, loops=[(h, 1 - bit)])
    assert _problems(run, flipped, expected, tmp_path)
    assert _problems(run, dataclasses.replace(op.output, publish=False), expected, tmp_path)


def test_check_fails_on_one_altered_custodian_file(local_result, tmp_path):
    run, op, expected = local_result
    d, f = run.shape.genes, run.config.frac_bits
    good = checks.csv_bytes(op.output.cells, d, f, str(tmp_path / "good.csv"))
    decision = (op.output.publish, op.output.h_selected, op.output.loops)
    received = dataclasses.replace(op.output, cells=None, csv=[good, good], party_decisions=[decision] * 3)
    assert _problems(run, received, expected, tmp_path) == []
    lines = good.decode().splitlines()
    row = lines[1].split(",")
    row[-1] = str((int(row[-1]) + 1) % 5)  # one label cell
    lines[1] = ",".join(row)
    bad = ("\n".join(lines) + "\n").encode()
    assert _problems(run, dataclasses.replace(received, csv=[good, bad]), expected, tmp_path)


def test_tiny_counts_agree_across_transports():
    counts = []
    for workload in ("tune-ref", "tcp-ref"):
        run = bench.Run(workload, 11, smoke=True)
        try:
            op = run.op(Meter())
            assert op is not None
            counts.append(bench.traffic(op.counts))
        finally:
            run.close()
    assert counts[0] == counts[1]
