"""Differential test of the bit-sliced path-sum kernel.

Random circuits over the whole permutation vocabulary run through
`simulate_pathsum` and `apply_gates`, and through the per-branch
interpreter of `reference_interpreter`, which shares no lowering with the
kernel.  Chunk sizes include ones below 64 branches and ones that are
neither powers of two nor multiples of 64.  A circuit whose unmeasured
qubits end in more than one state over the accepted branches must be
refused, within a chunk or across chunks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcircuits.ir import H, new_circuit
from gapcircuits.simulator import SimulationError, apply_gates, simulate_pathsum
from reference_interpreter import random_circuit, reference_word


def _reference_pathsum(circuit):
    """(signed_sum, n_accepted, varies) over every Hadamard branch, one at a time.

    `varies` tells whether the unmeasured qubits end in more than one state
    over the accepted branches.
    """
    plan = circuit.measurement
    h_targets = [g.target for g in circuit.gates[:circuit.h_layer_size]]
    signed_sum = n_accepted = 0
    unmeasured = set()
    for branch in range(1 << len(h_targets)):
        word = sum(((branch >> t) & 1) << q for t, q in enumerate(h_targets))
        word, sign = reference_word(circuit, word)
        if not any((word >> q) & 1 for q in plan.z_qubits):
            signed_sum += sign
            n_accepted += 1
            unmeasured.add(tuple((word >> q) & 1 for q in plan.unmeasured))
    return signed_sum, n_accepted, len(unmeasured) > 1


@pytest.mark.parametrize("h", [0, 1, 5, 7])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pathsum_matches_reference_interpreter(h, data):
    circuit = random_circuit(data, data.draw(st.integers(max(h, 4), h + 4)), h)
    signed_sum, n_accepted, varies = _reference_pathsum(circuit)
    for chunk_size in (1, 3, 7, 64, 100, 1 << 16):
        for jobs in (1, 2):
            if varies:
                with pytest.raises(SimulationError, match="unmeasured"):
                    simulate_pathsum(circuit, chunk_size=chunk_size, jobs=jobs)
                continue
            out = simulate_pathsum(circuit, chunk_size=chunk_size, jobs=jobs)
            assert (out.signed_sum, out.n_accepted, out.n_branches) == \
                (signed_sum, n_accepted, 1 << h), (chunk_size, jobs)
            assert out.p_acc * (1 << out.exponent) == signed_sum ** 2


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_apply_gates_matches_reference_interpreter(data):
    circuit = random_circuit(data, data.draw(st.integers(4, 10)), 0)
    words = data.draw(st.lists(st.integers(0, (1 << 62) - 1), max_size=150))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(words),
                               max_size=len(words)))
    expected = [reference_word(circuit, w) for w in words]
    out_words, out_signs = apply_gates(circuit, np.array(words, dtype=np.int64),
                                       np.array(signs, dtype=np.int64))
    assert out_words.tolist() == [w for w, _ in expected]
    assert out_signs.tolist() == [s * r for s, (_, r) in zip(signs, expected)]


def test_pathsum_refuses_varying_unmeasured_qubits():
    # A lone H leaves qubit 0 in |+>: dense gives p_acc 1, a plain path sum 2.
    circuit = new_circuit([("q", 4)])
    circuit.begin_step("1")
    circuit.add(H(0))
    circuit.set_measurement((), (), (0, 1, 2, 3))
    for chunk_size in (1, 2):  # across chunks, then within one
        with pytest.raises(SimulationError, match="unmeasured"):
            simulate_pathsum(circuit, chunk_size=chunk_size)
