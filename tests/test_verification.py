"""Oracles, the acceptance identity, and the gate-count accountant."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcircuits.builders import (
    MODE_EXPLICIT,
    MODE_QRAM,
    InstanceError,
    NwtInstance,
    OVInstance,
    ThreeSumInstance,
    build_circuit,
)
from gapcircuits.instancefile import generate, generate_nwt, generate_ov, generate_threesum
from gapcircuits.cli import SWEEP_CELLS
from gapcircuits.ir import CX, BitString, MCBitmask, Toffoli, X, Z, new_circuit
from gapcircuits.simulator import SimOutcome, simulate_pathsum
from gapcircuits.verification import (
    _MIN_RUN_BY_CLASS,
    _tally,
    dense_agrees,
    gate_accountant,
    oracle_counts,
    oracle_nwt,
    oracle_ov,
    oracle_threesum,
    predicted_pacc,
    render_report,
    step_gate_bounds,
    tally_gates,
    verify_built,
    verify_instance,
)
from reference_interpreter import (
    random_circuit, reference_oracle, reference_tally, step_label_lists,
)

OV_EXAMPLE = OVInstance(u=(BitString((1,)), BitString((0,))),
                        v=(BitString((1,)), BitString((0,))))
TRIANGLE = NwtInstance(n=3, weight_bound=1, edges=((1, 2, -1), (1, 3, -1), (2, 3, -1)))


def test_oracle_ov_frozen():
    counts = oracle_ov(OV_EXAMPLE)
    assert (counts.solutions, counts.total, counts.gap) == (3, 4, 2)


def test_oracle_threesum_frozen():
    # (-2, 1, 1) in each of three orders; sums run over ordered index triples
    counts = oracle_threesum(ThreeSumInstance(values=(-2, 1), bound=2))
    assert (counts.solutions, counts.total, counts.gap) == (3, 8, -2)
    counts = oracle_threesum(ThreeSumInstance(values=(0,), bound=1))
    assert (counts.solutions, counts.total, counts.gap) == (1, 1, 1)


def test_oracle_nwt_frozen():
    counts = oracle_nwt(TRIANGLE)
    assert (counts.solutions, counts.total, counts.gap) == (6, 27, -15)
    # flipping one weight to +2 makes the triangle non-negative
    counts = oracle_nwt(NwtInstance(n=3, weight_bound=2,
                                    edges=((1, 2, 2), (1, 3, -1), (2, 3, -1))))
    assert counts.solutions == 0


def _nwt_examples():
    for params in SWEEP_CELLS["nwt"]:
        for seed in range(20):
            yield generate_nwt(params["n"], params["bound"], seed=seed)
    rng = random.Random(7)  # the CI's nwt n=32 M=3 instance
    yield NwtInstance(n=32, weight_bound=3, edges=tuple(
        (i, j, rng.randrange(-3, 4)) for i in range(1, 33) for j in range(i + 1, 33)
        if rng.getrandbits(1)))
    yield NwtInstance(n=5, weight_bound=2, edges=())
    yield NwtInstance(n=6, weight_bound=2, edges=tuple(
        (i, j, (i * j) % 5 - 2) for i in range(1, 7) for j in range(i + 1, 7)))


def test_oracle_nwt_matches_reference():
    for instance in _nwt_examples():
        assert oracle_nwt(instance) == reference_oracle(instance), instance


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_oracle_ov_matches_reference(data):
    # a pool of at most three values, so vectors repeat; all-zero vectors and
    # n=1 are in range
    d = data.draw(st.integers(1, 4))
    pool = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=3))
    n = data.draw(st.integers(1, 12))
    vectors = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    u, v = (tuple(BitString(tuple((x >> j) & 1 for j in range(d))) for x in data.draw(vectors))
            for _ in range(2))
    instance = OVInstance(u=u, v=v)
    assert oracle_ov(instance) == reference_oracle(instance)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_oracle_threesum_matches_reference(data):
    # small bounds make triples that use one value twice or three times
    bound = data.draw(st.integers(1, 6))
    values = data.draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=2 * bound + 1,
                                unique=True))
    instance = ThreeSumInstance(values=tuple(values), bound=bound)
    assert oracle_threesum(instance) == reference_oracle(instance)


def test_predicted_pacc():
    assert predicted_pacc("ov", 1, 1, 2) == Fraction(4, 1 << 9)
    assert predicted_pacc("ov", 1, 1, 0) == 0
    assert predicted_pacc("nwt", 2, 2, -15) == Fraction(225, 1 << 32)


@pytest.mark.parametrize("mode", [MODE_QRAM, MODE_EXPLICIT])
def test_verify_frozen_examples(mode):
    for instance in (OV_EXAMPLE, ThreeSumInstance(values=(-2, 1), bound=2), TRIANGLE):
        result = verify_instance(instance, mode)
        assert result.ok, render_report(result)
        assert result.sign_flips  # observed S is always the negated gap here
        assert result.outcome.signed_sum == -result.oracle.gap


def test_verify_with_dense_cross_check():
    result = verify_instance(generate_ov(3, 2, seed=2), MODE_EXPLICIT, with_dense=True)
    assert result.dense_ok is True
    assert result.dense_value == result.outcome.p_acc
    assert result.ok


def test_gap_zero_instance_accepts_nothing():
    inst = OVInstance(u=(BitString((1,)), BitString((1,))),
                      v=(BitString((1,)), BitString((0,))))
    assert oracle_ov(inst).gap == 0
    result = verify_instance(inst, MODE_QRAM)
    assert result.outcome.p_acc == 0
    assert result.ok


def test_mutated_circuit_is_detected():
    built = build_circuit(OV_EXAMPLE, MODE_QRAM)
    assert isinstance(built.circuit.gates[-1], Z)
    built.circuit.gates.pop()
    result = verify_built(OV_EXAMPLE, built)
    assert not result.identity_ok
    assert not result.ok


def test_exact_range_check_tallies():
    # step 2 is two width-r >-comparators, so its bounds are met exactly
    for n, d in ((2, 1), (5, 3), (8, 4)):
        built = build_circuit(generate_ov(n, d, seed=n), MODE_QRAM)
        report = gate_accountant(built)
        r = built.r
        assert report.per_step["2"] == {"X": 4 * r + 6, "CX": 8 * r + 2, "CCX": 4 * r}
        assert report.per_step["2"] == report.bounds["2"]


@pytest.mark.parametrize("mode", [MODE_QRAM, MODE_EXPLICIT])
@pytest.mark.parametrize("make,args", [
    (generate_ov, (6, 3)), (generate_threesum, (5, 16)), (generate_nwt, (5, 2)),
])
def test_accountant_within_bounds(make, args, mode):
    built = build_circuit(make(*args, seed=13), mode)
    report = gate_accountant(built)
    assert report.ok
    for step, kinds in report.per_step.items():
        for kind, count in kinds.items():
            assert count <= report.bounds[step].get(kind, 0), (step, kind)


def test_qram_mode_counts_loads_not_gates():
    built = build_circuit(generate_threesum(4, 8, seed=1), MODE_QRAM)
    report = gate_accountant(built)
    assert report.per_step["3"].get("QRAM") == 3
    assert "CCX" not in report.per_step["3"]


def test_tally_buckets_mcbitmask_into_ccx():
    circ = new_circuit([("q", 7)])
    circ.begin_step("s")
    # popcount(mask)=2 controlled flips on 4 controls: 2 * 8(4-3) primitives
    circ.add(MCBitmask((0, 1, 2, 3), 0b11, (4, 5), ancilla=6))
    assert tally_gates(circ) == {"s": {"CCX": 16}}
    # 1-control masks are plain CXs but stay in the CCX bucket for bound checks
    circ.add(MCBitmask((0,), 1, (4,), ancilla=6))
    assert tally_gates(circ)["s"]["CCX"] == 17


def _tallies_like_reference(circuit):
    per_step, flag = _tally(circuit)
    expected, small_control = reference_tally(circuit)
    assert flag == small_control
    assert tally_gates(circuit) == per_step == expected
    # dict equality ignores order; the report's rows must keep it
    assert [(step, list(row.items())) for step, row in per_step.items()] == \
        [(step, list(row.items())) for step, row in expected.items()]
    return per_step


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tally_matches_reference(data):
    n_qubits, h = data.draw(st.integers(4, 7)), data.draw(st.integers(0, 3))
    circuit = random_circuit(data, n_qubits, h)
    circuit.add(MCBitmask((0,), 0, (1, 2), 3))  # charges 0
    _tallies_like_reference(circuit)  # one step label: a long run is counted by class
    # equal labels need not be one object, as when a circuit is read from text
    circuit = random_circuit(data, n_qubits, h, steps=step_label_lists(["s1", "s2", "s3"]))
    circuit.begin_step("zero")
    circuit.add(MCBitmask((0,), 0, (1, 2), 3))
    # a step whose gates all charge 0 keeps its row
    assert _tallies_like_reference(circuit)["zero"] == {}


@pytest.mark.parametrize("problem,params", [
    (problem, params) for problem, cells in SWEEP_CELLS.items() for params in cells])
def test_explicit_tally_matches_reference(problem, params):
    instance = generate(problem, 11, n=params["n"], d=params.get("d"), bound=params.get("bound"))
    _tallies_like_reference(build_circuit(instance, MODE_EXPLICIT).circuit)


@pytest.mark.parametrize("pad", [0, _MIN_RUN_BY_CLASS])
def test_tally_keeps_first_charge_order(pad):
    # a zero-mask flip charges nothing, so X is the row's first key, whether
    # the run is charged gate by gate or, padded, counted by class; a step
    # label written again may be an equal str held by another object
    label = "s1"
    again = label[:1] + label[1:]
    assert again == label and again is not label
    circ = new_circuit([("q", 6)])
    circ.begin_step(label)
    circ.extend([MCBitmask((0, 1), 0, (2,), 5), X(3), MCBitmask((0, 1), 1, (2,), 5),
                 Toffoli(0, 1, 4), *[X(3)] * pad])
    circ.begin_step("t1")
    circ.add(Z(0))
    circ.begin_step(again)
    circ.extend([CX(0, 3), MCBitmask((0, 1, 2), 1, (3,), 5), X(3), *[X(3)] * pad])
    per_step = _tallies_like_reference(circ)
    assert per_step == {"s1": {"X": 2 + 2 * pad, "CCX": 6, "CX": 1}, "t1": {"Z": 1}}


def test_tally_refuses_foreign_gates():
    circ = new_circuit([("q", 2)])
    circ.begin_step("s")
    circ.add(Z(0))
    circ.gates.append("Z 1")  # bypasses Circuit.add, joins the last step span
    with pytest.raises(InstanceError, match="unknown gate"):
        tally_gates(circ)


def test_step_bounds_table_spot_checks():
    bounds = step_gate_bounds("ov", MODE_QRAM, n=4, r=2, d=3)
    assert bounds["1"] == {"H": 4, "X": 2}
    assert bounds["3"] == {"QRAM": 2}
    assert bounds["6"] == {"Z": 1}
    explicit = step_gate_bounds("ov", MODE_EXPLICIT, n=4, r=2, d=3)
    assert explicit["3"] == {"X": 4 * 4 * 2, "CCX": 2 * 4 * 3 * 1}

    nwt = step_gate_bounds("nwt", MODE_EXPLICIT, n=4, r=2, d=3)
    assert nwt["3"] == {"X": 12 * 2 * 16, "CCX": 3 * 16 * 3 * 8}  # 4^r = 16, cost(2r) = 8


def test_report_serializes():
    result = verify_instance(OV_EXAMPLE, MODE_QRAM, with_dense=True)
    text = render_report(result)
    assert "identity: pass" in text
    assert "overall: pass" in text
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["ok"] is True
    assert payload["simulated"]["p_acc"] == "1/128"


def test_dense_agreement_is_scale_aware():
    # p_acc = 1/2^40 ~ 9.1e-13: an absolute 1e-9 bound alone accepts 0 or half of it
    outcome = SimOutcome(signed_sum=1, exponent=40, n_branches=2, n_accepted=1,
                         p_acc=Fraction(1, 1 << 40))
    assert dense_agrees(Fraction(1, 1 << 40), outcome)
    assert dense_agrees(2.0 ** -40, outcome)  # the same value as a float
    # agreement is exact: a relative error of 1e-9 fails
    assert not dense_agrees(Fraction(1, 1 << 40) * (1 + Fraction(1, 10 ** 9)), outcome)
    assert not dense_agrees(Fraction(1, 1 << 41), outcome)
    assert not dense_agrees(Fraction(0), outcome)
    # the absolute bound still applies when p_acc is large
    big = SimOutcome(signed_sum=1, exponent=0, n_branches=1, n_accepted=1, p_acc=Fraction(1))
    assert not dense_agrees(1.0 + 1e-8, big)
    # the scaled bound ties the value to signed_sum^2 / 2^exponent, even when it equals p_acc
    skewed = SimOutcome(signed_sum=2, exponent=40, n_branches=2, n_accepted=1,
                        p_acc=Fraction(1, 1 << 40))
    assert not dense_agrees(Fraction(1, 1 << 40), skewed)
