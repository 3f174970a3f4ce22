"""Differential test of the dense statevector kernel.

Random circuits of at most 8 qubits run through `simulate_dense` and
through the per-branch interpreter of `reference_interpreter`: the int8
count at each basis word must equal the sum of the signs of the Hadamard
branches that land on it.  `dense_acceptance` must equal the acceptance
probability marginalized from those counts, and the exact path-sum
probability whenever the path-sum backend returns one (it refuses circuits
whose unmeasured qubits end in more than one state over the accepted
branches).  Every comparison is exact, and the readout stays exact on
full-scale int8 states too, past the step where its counts widen.  The
dense backend must not depend on the lowering that the path-sum backend
uses.
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


def _reference_counts(circuit):
    """Per basis word, the signs summed over the branches that land on it.

    The amplitude there is this count times 2^(-h/2).
    """
    h_targets = [g.target for g in circuit.gates[:circuit.h_layer_size]]
    counts = [0] * (1 << circuit.n_qubits)
    for branch in range(1 << len(h_targets)):
        word = sum(((branch >> t) & 1) << q for t, q in enumerate(h_targets))
        word, sign = reference_word(circuit, word)
        counts[word] += sign
    return counts


def _reference_acceptance(circuit, counts):
    """Sum over unmeasured assignments of the squared amplitude onto |0>^z |+>^x."""
    plan = circuit.measurement
    projected = defaultdict(int)
    for word, count in enumerate(counts):
        if not any((word >> q) & 1 for q in plan.z_qubits):
            projected[tuple((word >> q) & 1 for q in plan.unmeasured)] += count
    return Fraction(sum(c * c for c in projected.values()),
                    2 ** (circuit.h_layer_size + len(plan.x_qubits)))


def _check_against_reference(circuit):
    state = simulate_dense(circuit)
    assert state.dtype == np.int8 and state.shape == (1 << circuit.n_qubits,)
    counts = _reference_counts(circuit)
    assert np.array_equal(state, counts)
    before = state.copy()
    p_acc = dense_acceptance(circuit, state)
    assert np.array_equal(state, before)  # the caller's state is left as it was
    assert type(p_acc) is Fraction
    assert p_acc == _reference_acceptance(circuit, counts)
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


@pytest.mark.parametrize("count", [127, -128])
def test_dense_readout_exact_on_full_scale_counts(count):
    # Nine X-measured qubits take every count through nine doublings, one
    # past what int16 holds: the readout must widen before the ninth.
    circuit = new_circuit([("q", 11)])
    circuit.begin_step("body")
    circuit.set_measurement((0,), tuple(range(1, 10)), (10,))
    state = np.full(1 << 11, count, dtype=np.int8)
    expected = _reference_acceptance(circuit, [count] * (1 << 11))
    assert expected == Fraction(2 * (count * 2 ** 9) ** 2, 2 ** 9)
    assert dense_acceptance(circuit, state) == expected


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
