"""Self-test of the benchmark: python3 -m pytest -q perfbench

Checks that the benchmark's gate counts a tampered circuit and a raised
error as failed verifications, and that each workload prints every metric
BENCHMARK.json names, with its unit, in the last line's JSON object.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

gc = run.import_program()
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _case(spec: wl.Spec, instance) -> wl.Case:
    return wl.make_cases([(spec, 0, instance)])[0]


def test_tampered_circuit_counts_as_failed():
    # The circuit `sweep --mutation-control` verifies: its final Z dropped.
    instance = gc.OVInstance(u=(gc.BitString((1,)), gc.BitString((0,))),
                             v=(gc.BitString((1,)), gc.BitString((0,))))
    case = _case(wl.Spec("ov", {"n": 2, "d": 1}, (wl.QRAM,)), instance)
    built = gc.build_circuit(instance, wl.QRAM)
    assert isinstance(built.circuit.gates[-1], gc.Z)
    built.circuit.gates.pop()
    result = gc.verify_built(instance, built)
    assert wl.check(case, result, gc.render_report(result), None) is not None

    healthy = gc.verify_built(instance, gc.build_circuit(instance, wl.QRAM))
    assert wl.check(case, healthy, gc.render_report(healthy), None) is None


def test_raised_error_counts_as_failed():
    # A cap refusal is a failed verification, not a skipped one: 3sum n=64
    # U=1000 needs 65 qubits, over the path-sum word cap.
    instance = wl.construct(gc, "3sum", {"n": 64, "bound": 1000}, 0)
    workload = wl.Workload("", (), through_text=False, dense=False, direct=True)
    passes = run.Passes(gc, workload, [_case(wl.Spec("3sum", {}, (wl.QRAM,)), instance)]).run(0)
    assert passes.attempted == 1
    assert len(passes.failures) == 1 and "CapExceededError" in passes.failures[0]


def test_reference_gaps_match_the_program_oracle():
    for problem, params in [("ov", {"n": 8, "d": 4}), ("3sum", {"n": 6, "bound": 8}),
                            ("nwt", {"n": 6, "bound": 3})]:
        for seed in range(20):
            instance = wl.construct(gc, problem, params, seed)
            assert wl.reference(problem, instance)[0] == gc.oracle_counts(instance).gap


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=BENCH_DIR.parent, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    result = json.loads(out.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name}: {metric['value']} {metric['unit']}" in out.stdout
