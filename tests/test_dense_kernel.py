"""Differential test of the dense backend's signed basis words.

Random circuits of at most 8 qubits run through `simulate_dense` and
through the per-branch interpreter of `reference_interpreter`: each
branch's word and sign must equal the interpreter's.  `dense_acceptance`
must equal the acceptance probability marginalized from the summed signs,
and the exact path-sum probability whenever the path-sum backend returns
one (it refuses circuits whose unmeasured qubits end in more than one
state over the accepted branches).  Every comparison is exact, and the
readout stays exact when all 2^h words add into one amplitude.  The dense
backend must not depend on the lowering that the path-sum backend uses.
"""

from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcircuits import simulator
from gapcircuits.builders import MODE_EXPLICIT, MODE_QRAM, build_circuit
from gapcircuits.dataload import DataTable
from gapcircuits.instancefile import generate_ov, generate_threesum
from gapcircuits.ir import CX, H, MCBitmask, QramLoad, Toffoli, X, Z, new_circuit
from gapcircuits.simulator import (
    SimulationError,
    dense_acceptance,
    simulate_dense,
    simulate_pathsum,
)
from reference_interpreter import random_circuit, reference_word


def _reference_words(circuit):
    """Per branch, the interpreter's (word, sign) after the Hadamard layer."""
    h_targets = [g.target for g in circuit.gates[:circuit.h_layer_size]]
    return [reference_word(circuit, sum(((branch >> t) & 1) << q for t, q in enumerate(h_targets)))
            for branch in range(1 << len(h_targets))]


def _reference_acceptance(circuit, branches):
    """Sum over unmeasured assignments of the squared amplitude onto |0>^z |+>^x.

    The amplitude of a basis word is its summed signs times 2^(-h/2).
    """
    plan = circuit.measurement
    projected = defaultdict(int)
    for word, sign in branches:
        if not any((word >> q) & 1 for q in plan.z_qubits):
            projected[tuple((word >> q) & 1 for q in plan.unmeasured)] += sign
    return Fraction(sum(c * c for c in projected.values()),
                    2 ** (circuit.h_layer_size + len(plan.x_qubits)))


def _check_against_reference(circuit):
    signed = simulate_dense(circuit)
    assert signed.dtype == np.int64 and signed.shape == (2, 1 << circuit.h_layer_size)
    branches = _reference_words(circuit)
    assert [tuple(column) for column in signed.T.tolist()] == branches
    before = signed.copy()
    p_acc = dense_acceptance(circuit, signed)
    assert np.array_equal(signed, before)  # the caller's words are left as they were
    assert type(p_acc) is Fraction
    assert p_acc == _reference_acceptance(circuit, branches)
    try:
        exact = simulate_pathsum(circuit).p_acc
    except SimulationError:
        return
    assert p_acc == exact


@pytest.mark.parametrize("h", [0, 1, 3, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dense_matches_reference_interpreter(h, data):
    circuit = random_circuit(data, data.draw(st.integers(max(h, 4), 8)), h)
    _check_against_reference(circuit)
    plan = circuit.measurement
    circuit.set_measurement(plan.z_qubits, plan.x_qubits + plan.unmeasured)
    _check_against_reference(circuit)


def test_dense_x_load_toffoli_z():
    circuit = new_circuit([("q", 5)])
    circuit.begin_step("body")
    circuit.add(H(0))
    circuit.add(X(4))
    table = circuit.add_table(DataTable("t", 2, 1, ((1, 1), (3, 1))))
    circuit.add(QramLoad((0, 1), (2,), table))
    circuit.add(Toffoli(0, 1, 3))
    circuit.add(CX(0, 1))
    circuit.add(Z(0))
    circuit.add(Toffoli(0, 1, 3))
    circuit.set_measurement((2,), (0,), (1, 3, 4))
    _check_against_reference(circuit)


@pytest.mark.parametrize("phase", [False, True])
def test_dense_readout_adds_every_word_into_one_amplitude(phase):
    # Every Hadamard target is X-measured, so all 2^12 words coincide once
    # their X bits are cleared: one amplitude of the largest magnitude, 2^h,
    # or 0 when a phase flip negates half of the words.
    circuit = new_circuit([("q", 14)])
    circuit.begin_step("body")
    for q in range(12):
        circuit.add(H(q))
    circuit.add(X(13))
    if phase:
        circuit.add(Z(0))
    circuit.set_measurement((12,), tuple(range(12)), (13,))
    signed = simulate_dense(circuit)
    assert np.unique(signed[0] & ~0xFFF).tolist() == [1 << 13]
    expected = 0 if phase else 1
    assert dense_acceptance(circuit, signed) == expected
    assert _reference_acceptance(circuit, _reference_words(circuit)) == expected
    signed[1] *= -1
    assert dense_acceptance(circuit, signed) == expected


def test_dense_zero_mask_and_missing_addresses():
    circuit = new_circuit([("q", 6)])
    circuit.begin_step("body")
    for q in (0, 1, 2):
        circuit.add(H(q))
    circuit.add(X(2))
    circuit.add(MCBitmask((0,), 0, (3, 4), 5))  # zero mask: identity
    table = circuit.add_table(DataTable("t", 2, 2, ((1, 3), (2, 0))))  # 0 and 3 missing
    circuit.add(QramLoad((0, 2), (3, 4), table))
    circuit.add(CX(3, 5))
    circuit.add(Z(5))
    circuit.set_measurement((4,), (0, 1, 2, 3, 5))
    _check_against_reference(circuit)


def test_backends_refuse_hadamard_after_flip():
    # add() refuses an H after another gate, so append directly: an H outside
    # the leading layer is not a basis-state permutation for either backend.
    circuit = new_circuit([("q", 2)])
    circuit.gates += [X(1), H(1)]
    circuit.set_measurement((0,), (1,))
    with pytest.raises(SimulationError, match="H is not a basis-state permutation"):
        simulate_dense(circuit)
    with pytest.raises(SimulationError, match="H is not a basis-state permutation"):
        simulate_pathsum(circuit)


@pytest.mark.parametrize("instance, mode", [
    (generate_ov(4, 2, seed=11), MODE_QRAM),
    (generate_threesum(2, 1, seed=11), MODE_EXPLICIT),
], ids=["ov-qram", "3sum-explicit"])
def test_dense_does_not_use_pathsum_lowering(monkeypatch, instance, mode):
    circuit = build_circuit(instance, mode).circuit
    outcome = simulate_pathsum(circuit)

    def refuse(*args, **kwargs):
        raise AssertionError("the dense backend called _compile_ops")

    monkeypatch.setattr(simulator, "_compile_ops", refuse)
    p_acc = dense_acceptance(circuit, simulate_dense(circuit))
    assert p_acc == outcome.p_acc
    assert p_acc * 2 ** outcome.exponent == outcome.signed_sum ** 2
