"""Lookup tables and the two ways of wiring them into a circuit.

A table can be consulted through a single QramLoad gate (one lookup per
path-sum branch, counted as an oracle call), or spelled out as a product of
X-conjugated multi-controlled bitmask flips, one per stored address.  Both
XOR the addressed value into the data qubits, so they implement the same
basis-state map; the product terms commute, making the emission order
irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .ir import Circuit, CircuitError, MCBitmask, QramLoad, X


@dataclass(frozen=True)
class DataTable:
    """Partial map from address_width-bit addresses to data_width-bit values.

    Entries are sorted (address, value) pairs; addresses absent from the
    table read as zero.
    """

    table_id: str
    address_width: int
    data_width: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.address_width < 1 or self.data_width < 1:
            raise CircuitError("table widths must be positive")
        seen = set()
        for address, value in self.entries:
            self.check_entry(address, value)
            if address in seen:
                raise CircuitError(f"duplicate address {address}")
            seen.add(address)
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    def check_entry(self, address: int, value: int) -> None:
        """Refuse an entry whose address or value does not fit the widths."""
        if not 0 <= address < (1 << self.address_width):
            raise CircuitError(f"address {address} out of range for width {self.address_width}")
        if not 0 <= value < (1 << self.data_width):
            raise CircuitError(f"value {value} does not fit in {self.data_width} bits")

    @classmethod
    def from_values(cls, table_id: str, values, address_width: int, data_width: int) -> DataTable:
        """Table of consecutive addresses 0..len(values)-1."""
        entries = tuple((a, int(v)) for a, v in enumerate(values))
        return cls(table_id, address_width, data_width, entries)

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(self.entries)

    def lookup(self, address: int) -> int:
        return self._map.get(address, 0)


def qram_semantics(table: DataTable, address: int, data: int) -> int:
    """Reference semantics of one load: the stored value XORs into data."""
    return data ^ table.lookup(address)


def emit_qram_load(circuit: Circuit, table: DataTable, address_qubits, data_qubits) -> None:
    """Register the table on the circuit and append one lookup gate."""
    circuit.add_table(table)
    circuit.add(QramLoad(tuple(address_qubits), tuple(data_qubits), table.table_id))


def emit_loader_unitary(circuit: Circuit, table: DataTable, address_qubits, data_qubits,
                        ancilla: int) -> None:
    """Append the explicit product of per-address loads.

    Each stored address contributes an X-conjugated bitmask flip: X on the
    address qubits where the address bit is 0, a flip of the value's bits
    controlled on the whole address register, then the X frame undone.
    """
    address_qubits = tuple(address_qubits)
    data_qubits = tuple(data_qubits)
    if len(address_qubits) != table.address_width or len(data_qubits) != table.data_width:
        raise CircuitError(
            f"table {table.table_id!r} is {table.address_width}->{table.data_width} bits, "
            f"wires are {len(address_qubits)}->{len(data_qubits)}"
        )
    gates = []
    for address, value in table.entries:
        # The frame's gates are built once and replayed to undo it.
        frame = [X(q) for t, q in enumerate(address_qubits) if not (address >> t) & 1]
        gates += (*frame, MCBitmask(address_qubits, value, data_qubits, ancilla), *frame)
    circuit.extend(gates)


def emit_equality_flag(circuit: Circuit, qubits, pattern: int, flag: int,
                       ancilla: int) -> None:
    """XOR [qubits == pattern] into the flag qubit; qubits[j] holds bit j.

    X frames the qubits whose pattern bit is 0 so the all-ones control
    fires exactly on a match; the frame is undone afterwards.
    """
    qubits = tuple(qubits)
    if pattern >> len(qubits):  # refuses negative patterns too: they shift down to -1
        raise CircuitError(f"pattern {pattern} does not fit in {len(qubits)} qubits")
    frame = [X(q) for j, q in enumerate(qubits) if not (pattern >> j) & 1]
    circuit.extend([*frame, MCBitmask(qubits, 1, (flag,), ancilla), *frame])
