"""Differential test of the bit-sliced path-sum kernel.

Random circuits over the whole permutation vocabulary run through
`simulate_pathsum` and `apply_gates`, and through a per-branch interpreter
that reads the IR gate fields directly and shares no lowering with the
kernel.  Chunk sizes include ones below 64 branches and ones that are
neither powers of two nor multiples of 64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcircuits.dataload import DataTable
from gapcircuits.ir import CX, BitString, H, MCBitmask, QramLoad, Toffoli, X, Z, new_circuit
from gapcircuits.simulator import apply_gates, simulate_pathsum

KINDS = ("X", "Z", "CX", "Toffoli", "MCBitmask", "QramLoad")


def _draw_gate(data, circuit, kind, index):
    """One gate of `kind` on distinct qubits drawn from the circuit."""
    n = circuit.n_qubits
    if kind in ("X", "Z"):
        return (X if kind == "X" else Z)(data.draw(st.integers(0, n - 1)))
    if kind == "CX":
        c, t = data.draw(st.permutations(range(n)))[:2]
        return CX(c, t)
    if kind == "Toffoli":
        c1, c2, t = data.draw(st.permutations(range(n)))[:3]
        return Toffoli(c1, c2, t)
    order = data.draw(st.permutations(range(n)))
    if kind == "MCBitmask":
        n_controls = data.draw(st.integers(1, n - 2))
        n_targets = data.draw(st.integers(1, n - 1 - n_controls))
        controls, targets = order[:n_controls], order[n_controls:n_controls + n_targets]
        mask = data.draw(st.lists(st.integers(0, 1), min_size=n_targets, max_size=n_targets))
        return MCBitmask(tuple(controls), BitString(tuple(mask)), tuple(targets), order[-1])
    width = data.draw(st.integers(1, min(3, n - 1)))
    data_width = data.draw(st.integers(1, min(3, n - width)))
    addresses = data.draw(st.sets(st.integers(0, (1 << width) - 1)))
    entries = tuple((a, data.draw(st.integers(0, (1 << data_width) - 1)))
                    for a in sorted(addresses))
    table = DataTable(f"t{index}", width, data_width, entries)
    circuit.add_table(table)
    return QramLoad(tuple(order[:width]), tuple(order[width:width + data_width]), table.table_id)


def _random_circuit(data, n_qubits, h):
    circuit = new_circuit([("q", n_qubits)])
    circuit.begin_step("body")
    for q in data.draw(st.permutations(range(n_qubits)))[:h]:
        circuit.add(H(q))
    kinds = data.draw(st.lists(st.sampled_from(KINDS), max_size=24))
    for index, kind in enumerate(kinds):
        circuit.add(_draw_gate(data, circuit, kind, index))
    order = data.draw(st.permutations(range(n_qubits)))
    n_z = data.draw(st.integers(0, n_qubits))
    n_x = data.draw(st.integers(0, n_qubits - n_z))
    circuit.set_measurement(tuple(order[:n_z]), tuple(order[n_z:n_z + n_x]),
                            tuple(order[n_z + n_x:]))
    return circuit


def _reference_word(circuit, word):
    """Interpret gates after the Hadamard layer on one basis word: (word, sign)."""
    sign = 1
    for gate in circuit.gates[circuit.h_layer_size:]:
        if isinstance(gate, X):
            word ^= 1 << gate.target
        elif isinstance(gate, Z):
            sign = -sign if (word >> gate.target) & 1 else sign
        elif isinstance(gate, CX):
            word ^= ((word >> gate.control) & 1) << gate.target
        elif isinstance(gate, Toffoli):
            word ^= ((word >> gate.control1) & (word >> gate.control2) & 1) << gate.target
        elif isinstance(gate, MCBitmask):
            if all((word >> c) & 1 for c in gate.controls):
                for bit, t in zip(gate.mask, gate.targets):
                    word ^= bit << t
        else:
            address = sum(((word >> q) & 1) << j for j, q in enumerate(gate.address))
            value = circuit.tables[gate.table_id].lookup(address)
            for j, q in enumerate(gate.data):
                word ^= ((value >> j) & 1) << q
    return word, sign


def _reference_pathsum(circuit):
    """(signed_sum, n_accepted) over every Hadamard branch, one branch at a time."""
    h_targets = [g.target for g in circuit.gates[:circuit.h_layer_size]]
    signed_sum = n_accepted = 0
    for branch in range(1 << len(h_targets)):
        word = sum(((branch >> t) & 1) << q for t, q in enumerate(h_targets))
        word, sign = _reference_word(circuit, word)
        if not any((word >> q) & 1 for q in circuit.measurement.z_qubits):
            signed_sum += sign
            n_accepted += 1
    return signed_sum, n_accepted


@pytest.mark.parametrize("h", [0, 1, 5, 7])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pathsum_matches_reference_interpreter(h, data):
    circuit = _random_circuit(data, data.draw(st.integers(max(h, 4), h + 4)), h)
    signed_sum, n_accepted = _reference_pathsum(circuit)
    for chunk_size in (1, 3, 7, 64, 100, 1 << 16):
        for jobs in (1, 2):
            out = simulate_pathsum(circuit, chunk_size=chunk_size, jobs=jobs)
            assert (out.signed_sum, out.n_accepted, out.n_branches) == \
                (signed_sum, n_accepted, 1 << h), (chunk_size, jobs)
            assert out.p_acc * (1 << out.exponent) == signed_sum ** 2


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_apply_gates_matches_reference_interpreter(data):
    circuit = _random_circuit(data, data.draw(st.integers(4, 10)), 0)
    words = data.draw(st.lists(st.integers(0, (1 << 62) - 1), max_size=150))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(words),
                               max_size=len(words)))
    expected = [_reference_word(circuit, w) for w in words]
    out_words, out_signs = apply_gates(circuit, np.array(words, dtype=np.int64),
                                       np.array(signs, dtype=np.int64))
    assert out_words.tolist() == [w for w, _ in expected]
    assert out_signs.tolist() == [s * r for s, (_, r) in zip(signs, expected)]
