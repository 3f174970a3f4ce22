"""Table semantics and QRAM-vs-explicit loader equivalence."""

import random

import numpy as np
import pytest

from gapcircuits.dataload import (
    DataTable,
    emit_equality_flag,
    emit_loader_unitary,
    emit_qram_load,
    qram_semantics,
)
from gapcircuits.ir import CircuitError, new_circuit
from gapcircuits.simulator import apply_gates


def test_table_basics():
    table = DataTable("t", address_width=2, data_width=3, entries=((2, 5), (0, 1)))
    assert table.entries == ((0, 1), (2, 5))  # stored sorted
    assert table.lookup(0) == 1
    assert table.lookup(1) == 0  # absent addresses read as zero
    assert qram_semantics(table, 2, 0b011) == 0b011 ^ 5
    assert DataTable.from_values("u", [3, 0, 7], 2, 3).entries == ((0, 3), (1, 0), (2, 7))


def test_table_validation():
    with pytest.raises(CircuitError):
        DataTable("t", 0, 1, ())
    with pytest.raises(CircuitError):
        DataTable("t", 1, 1, ((2, 0),))
    with pytest.raises(CircuitError):
        DataTable("t", 1, 1, ((0, 2),))
    with pytest.raises(CircuitError):
        DataTable("t", 1, 1, ((0, 0), (0, 1)))


def _loader_map(table, address_width, data_width, explicit):
    """Where each basis word of [addr | data | anc] ends up."""
    circ = new_circuit([("addr", address_width), ("data", data_width), ("anc", 1)])
    circ.begin_step("load")
    addr = circ.reg("addr").qubits
    data = circ.reg("data").qubits
    if explicit:
        emit_loader_unitary(circ, table, addr, data, ancilla=circ.reg("anc")[0])
    else:
        emit_qram_load(circ, table, addr, data)
    words = np.arange(1 << circ.n_qubits, dtype=np.int64)
    done, _ = apply_gates(circ, words)
    return done


@pytest.mark.parametrize("address_width,data_width", [(1, 1), (2, 3), (3, 2), (3, 3)])
def test_loader_matches_qram_exhaustive(address_width, data_width):
    rng = random.Random(address_width * 16 + data_width)
    n_entries = rng.randrange(1 << address_width) + 1
    table = DataTable("t", address_width, data_width, tuple(
        (a, rng.randrange(1 << data_width)) for a in range(n_entries)))

    via_qram = _loader_map(table, address_width, data_width, explicit=False)
    via_product = _loader_map(table, address_width, data_width, explicit=True)
    np.testing.assert_array_equal(via_qram, via_product)

    # both match the reference semantics on every address/data pair
    for word, dest in enumerate(via_qram):
        address = word & ((1 << address_width) - 1)
        data = (word >> address_width) & ((1 << data_width) - 1)
        expected = qram_semantics(table, address, data)
        assert (dest >> address_width) & ((1 << data_width) - 1) == expected
        assert dest & ((1 << address_width) - 1) == address  # address untouched
        assert dest >> (address_width + data_width) == word >> (address_width + data_width)


def test_loader_entry_order_is_irrelevant():
    fwd = DataTable("t", 2, 2, ((0, 1), (1, 2), (3, 3)))
    rev = DataTable("t", 2, 2, ((3, 3), (1, 2), (0, 1)))
    np.testing.assert_array_equal(_loader_map(fwd, 2, 2, True), _loader_map(rev, 2, 2, True))


def test_pair_loader_concatenates_addresses():
    # table keyed a + (b << 2) over two 2-bit registers, all 16 pairs stored
    entries = tuple((a + (b << 2), (a * b) % 4) for a in range(4) for b in range(4))
    table = DataTable("w", address_width=4, data_width=2, entries=entries)

    circ = new_circuit([("x", 2), ("y", 2), ("data", 2), ("anc", 1)])
    circ.begin_step("load")
    emit_loader_unitary(circ, table, circ.reg("x").qubits + circ.reg("y").qubits,
                        circ.reg("data").qubits, ancilla=circ.reg("anc")[0])
    words = np.arange(1 << circ.n_qubits, dtype=np.int64)
    done, _ = apply_gates(circ, words)
    for word, dest in enumerate(done):
        a, b = word & 3, (word >> 2) & 3
        got = (dest >> 4) & 3
        assert got == (((word >> 4) & 3) ^ ((a * b) % 4))

    with pytest.raises(CircuitError):
        emit_loader_unitary(circ, table, circ.reg("x").qubits + (0,),
                            circ.reg("data").qubits, ancilla=circ.reg("anc")[0])


def test_loader_wire_width_mismatch():
    table = DataTable("t", 2, 2, ((0, 1),))
    circ = new_circuit([("addr", 2), ("data", 2), ("anc", 1)])
    circ.begin_step("load")
    with pytest.raises(CircuitError):
        emit_loader_unitary(circ, table, (0,), (2, 3), ancilla=4)


@pytest.mark.parametrize("pattern_int,width", [(0, 3), (5, 3), (7, 3), (0, 1), (1, 1)])
def test_equality_flag_exhaustive(pattern_int, width):
    circ = new_circuit([("q", width), ("flag", 1), ("anc", 1)])
    circ.begin_step("eq")
    emit_equality_flag(circ, circ.reg("q").qubits, pattern_int, circ.reg("flag")[0],
                       ancilla=circ.reg("anc")[0])
    words = np.arange(1 << circ.n_qubits, dtype=np.int64)
    done, _ = apply_gates(circ, words.copy())
    value = words & ((1 << width) - 1)
    flag0 = (words >> width) & 1
    flag1 = (done >> width) & 1
    np.testing.assert_array_equal(done & ((1 << width) - 1), value)  # inputs framed back
    np.testing.assert_array_equal(flag1, flag0 ^ (value == pattern_int))


def test_equality_flag_width_mismatch():
    circ = new_circuit([("q", 2), ("flag", 1), ("anc", 1)])
    circ.begin_step("eq")
    for pattern in (4, -1):  # wider than the two qubits, or negative
        with pytest.raises(CircuitError):
            emit_equality_flag(circ, circ.reg("q").qubits, pattern, 2, 3)
    assert circ.gates == []
