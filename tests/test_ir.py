"""IR construction rules: registers, gate validation, measurement plans."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from gapcircuits.ir import (
    BitString,
    CX,
    CircuitError,
    H,
    MCBitmask,
    QramLoad,
    Toffoli,
    X,
    Z,
    mcx_toffoli_cost,
    new_circuit,
)
from gapcircuits.builders import InstanceError, OVInstance
from gapcircuits.dataload import DataTable
from gapcircuits.simulator import SimulationError, simulate_dense, simulate_pathsum
from gapcircuits.textio import circuit_from_text, circuit_to_text
from gapcircuits.verification import _tally, tally_gates
from reference_interpreter import random_circuit, reference_tally, step_label_lists


def test_bitstring_int_round_trip():
    bs = BitString((0, 1, 1, 0))
    assert bs.bits == (0, 1, 1, 0)
    assert bs.to_int() == 6
    assert bs.width == 4


@given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(min_value=16, max_value=20))
def test_bitstring_round_trip_property(value, width):
    bs = BitString(tuple((value >> j) & 1 for j in range(width)))
    assert (bs.to_int(), bs.width) == (value, width)


def test_bitstring_rejects_bad_bits():
    with pytest.raises(CircuitError):
        BitString((0, 2))


def test_ov_instance_refuses_bool_bits():
    # instance_to_text would write [[true, 0]], which instance_from_text refuses
    with pytest.raises(CircuitError):
        OVInstance(u=(BitString((True, 0)),), v=(BitString((0, 1)),))


def test_register_layout():
    circ = new_circuit([("a", 2), ("b", 3)])
    assert circ.n_qubits == 5
    assert circ.reg("a").qubits == (0, 1)
    assert circ.reg("b").qubits == (2, 3, 4)
    assert circ.reg("b")[0] == 2
    with pytest.raises(CircuitError):
        circ.reg("b")[3]
    with pytest.raises(CircuitError):
        circ.reg("missing")
    with pytest.raises(CircuitError):
        new_circuit([("a", 0)])
    with pytest.raises(CircuitError):
        new_circuit([("a", 1), ("a", 1)])


def test_h_only_in_leading_layer():
    circ = new_circuit([("q", 3)])
    circ.begin_step("1")
    circ.add(H(0))
    circ.add(H(1))
    assert circ.h_layer_size == 2
    circ.add(X(2))
    with pytest.raises(CircuitError):
        circ.add(H(2))


def test_extend_matches_add_per_gate():
    # extend checks each distinct gate object once; it must build what add builds
    x, toffoli = X(0), Toffoli(0, 1, 2)
    blocks = {"1": [H(0), H(1)], "2": [x, toffoli, x, CX(2, 3), toffoli, x]}
    by_add, by_extend = new_circuit([("q", 4)]), new_circuit([("q", 4)])
    for step, block in blocks.items():
        by_add.begin_step(step)
        for gate in block:
            by_add.add(gate)
        by_extend.begin_step(step)
        by_extend.extend(block)
    assert by_extend.h_layer_size == by_add.h_layer_size == 2
    assert (by_extend.gates, by_extend.step_starts) == (by_add.gates, by_add.step_starts)
    # a refused gate, listed once or again, keeps its whole block out
    for block in ([x, X(4), x], [x, CX(1, 1), x], [X(True), x], [H(3), x], [x, "X 1"]):
        with pytest.raises(CircuitError):
            by_extend.extend(block)
    assert (by_extend.gates, by_extend.step_starts) == (by_add.gates, by_add.step_starts)
    # a bad one-qubit wire after a good gate of equal value is refused as add refuses it
    for good, bad in ((X(1), X(True)), (X(2), Z(2.0)), (X(0), X(-1)), (X(0), X(4))):
        with pytest.raises(CircuitError) as by_add_err:
            by_add.add(bad)
        with pytest.raises(CircuitError) as by_extend_err:
            by_extend.extend([good, bad])
        assert str(by_extend_err.value) == str(by_add_err.value)
        assert (by_extend.gates, by_extend.step_starts) == (by_add.gates, by_add.step_starts)


def test_begin_step_required_and_validated():
    circ = new_circuit([("q", 1)])
    with pytest.raises(CircuitError):
        circ.add(X(0))
    with pytest.raises(CircuitError):
        circ.extend([X(0)])
    with pytest.raises(CircuitError):
        circ.begin_step("bad step")
    circ.begin_step("1")
    circ.add(X(0))
    assert circ.step_starts == [("1", 0)]


def test_refused_gates_open_no_span():
    circ = new_circuit([("q", 3)])
    circ.begin_step("a")
    circ.add(H(0))
    circ.add(X(1))
    circ.begin_step("b")
    for bad in (X(3), H(2), CX(1, 1)):
        with pytest.raises(CircuitError):
            circ.add(bad)
    for block in ([X(1), X(3)], [X(2), CX(0, 0), X(2)], [X(1), X(True)]):
        with pytest.raises(CircuitError):
            circ.extend(block)
    circ.extend([])
    assert circ.step_starts == [("a", 0)]
    assert len(circ.gates) == 2
    circ.extend([X(2), Z(2)])
    assert circ.step_starts == [("a", 0), ("b", 2)]


def test_step_runs_are_cut_at_the_gates():
    circ = new_circuit([("q", 2)])
    for label, block in (("a", [X(0), X(1)]), ("b", [Z(0)]), ("c", [Z(1)])):
        circ.begin_step(label)
        circ.extend(block)
    assert list(circ.step_runs()) == [("a", 0, 2), ("b", 2, 3), ("c", 3, 4)]
    del circ.gates[1:]  # bypasses the spans, as the sweep's mutation control does
    assert list(circ.step_runs()) == [("a", 0, 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_step_spans_follow_the_labels(data):
    # labels come per gate or block, one or two begun in turn, and may come
    # back (a, b, a) or be equal strs held by different objects
    circuit = random_circuit(data, data.draw(st.integers(4, 7)), data.draw(st.integers(0, 3)),
                             steps=step_label_lists(["a1", "b1", "c1"]))
    labels = [label for label, _ in circuit.step_starts]
    starts = [start for _, start in circuit.step_starts]
    assert starts == sorted(set(starts))  # no empty span before another
    assert not starts or (starts[0] == 0 and starts[-1] < len(circuit.gates))
    assert all(label != after for label, after in zip(labels, labels[1:]))
    assert circuit_from_text(circuit_to_text(circuit)) == circuit
    assert _tally(circuit) == reference_tally(circuit)


def test_gate_operand_validation():
    circ = new_circuit([("q", 5)])
    circ.begin_step("1")
    with pytest.raises(CircuitError):
        circ.add(X(5))
    with pytest.raises(CircuitError):  # a bool wire would be written as "True"
        circ.add(X(True))
    with pytest.raises(CircuitError):
        circ.add(CX(0, True))
    with pytest.raises(CircuitError):
        circ.add(CX(1, 1))
    with pytest.raises(CircuitError):
        circ.add(Toffoli(0, 0, 1))
    with pytest.raises(CircuitError):
        circ.add(MCBitmask((), 1, (1,), 2))
    with pytest.raises(CircuitError):  # no targets: text would write an empty mask
        circ.add(MCBitmask((0,), 0, (), 2))
    # the mask is a plain int below 2^len(targets); a bool would be written as "True"
    for mask in (4, -1, True):
        with pytest.raises(CircuitError):
            circ.add(MCBitmask((0,), mask, (1, 2), 3))
    with pytest.raises(CircuitError):  # control and target overlap
        circ.add(MCBitmask((0,), 1, (0,), 2))
    with pytest.raises(CircuitError):  # ancilla collides with a target
        circ.add(MCBitmask((0,), 1, (1,), 1))
    with pytest.raises(CircuitError):  # ancilla collides with a control
        circ.add(MCBitmask((0, 1), 3, (2, 3), 0))
    circ.add(MCBitmask((0, 1), 3, (2, 3), 4))
    circ.add(MCBitmask((0,), 0, (1,), 2))  # zero mask: identity
    circ.add(Z(0))
    assert len(circ.gates) == 3


def test_qram_gate_requires_registered_table():
    circ = new_circuit([("addr", 2), ("data", 2)])
    circ.begin_step("1")
    with pytest.raises(CircuitError):
        circ.add(QramLoad((0, 1), (2, 3), "t"))
    table = DataTable.from_values("t", [3], address_width=2, data_width=2)
    circ.add_table(table)
    circ.add(QramLoad((0, 1), (2, 3), "t"))
    with pytest.raises(CircuitError):  # width mismatch vs the registered table
        circ.add(QramLoad((0,), (2, 3), "t"))
    with pytest.raises(CircuitError):  # overlapping address and data wires
        circ.add(QramLoad((0, 1), (1, 3), "t"))
    # re-registering identical content is fine, different content is not
    circ.add_table(table)
    with pytest.raises(CircuitError):
        circ.add_table(DataTable.from_values("t", [1], address_width=2, data_width=2))


def test_measurement_plan_must_partition():
    circ = new_circuit([("q", 3)])
    circ.set_measurement((0,), (1,), (2,))
    assert circ.measurement.z_qubits == (0,)
    with pytest.raises(CircuitError):
        circ.set_measurement((0,), (1,), ())
    with pytest.raises(CircuitError):
        circ.set_measurement((0, 0), (1,), (2,))
    with pytest.raises(CircuitError):  # True would stand in for qubit 1
        circ.set_measurement((True,), (0,), (2,))


def test_mcx_toffoli_cost_schedule():
    assert [mcx_toffoli_cost(k) for k in (1, 2, 3, 4, 5, 10)] == [1, 1, 4, 8, 16, 56]
    with pytest.raises(CircuitError):
        mcx_toffoli_cost(0)


@dataclass(frozen=True, slots=True)
class Swap:
    """A gate outside the vocabulary."""

    a: int
    b: int


def test_foreign_gate_refused_everywhere():
    circ = new_circuit([("q", 2)])
    circ.begin_step("1")
    with pytest.raises(CircuitError, match="unknown gate"):
        circ.add(Swap(0, 1))
    circ.add(X(0))
    circ.set_measurement((0,), (1,))
    circ.gates.append(Swap(0, 1))  # joins the last step span
    with pytest.raises(CircuitError, match="Swap"):
        circuit_to_text(circ)
    with pytest.raises(InstanceError, match="Swap"):
        tally_gates(circ)
    with pytest.raises(SimulationError, match="Swap"):
        simulate_pathsum(circ)
    with pytest.raises(SimulationError, match="Swap"):
        simulate_dense(circ)
