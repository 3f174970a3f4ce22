"""Gate-level IR for circuits made of one Hadamard layer plus reversible gates.

Everything after the initial Hadamard layer maps computational basis states
to computational basis states up to a sign, which is what makes exact
path-sum simulation cheap.  Qubit indices are global; registers are
contiguous index ranges.  All bit/integer conversions are little-endian:
bit 0 is the least significant.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class CircuitError(ValueError):
    """Malformed circuit, register layout, or gate operands."""


@dataclass(frozen=True, slots=True)
class BitString:
    """Immutable little-endian bit tuple; bits[0] is the least significant."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise CircuitError(f"bits must be 0 or 1, got {self.bits!r}")

    @classmethod
    def from_int(cls, value: int, width: int) -> BitString:
        if width < 0:
            raise CircuitError(f"negative width {width}")
        if value < 0 or value >> width:
            raise CircuitError(f"value {value} does not fit in {width} bits")
        return cls(tuple((value >> j) & 1 for j in range(width)))

    def to_int(self) -> int:
        return sum(b << j for j, b in enumerate(self.bits))

    @property
    def width(self) -> int:
        return len(self.bits)

    def popcount(self) -> int:
        return sum(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, j: int) -> int:
        return self.bits[j]


@dataclass(frozen=True)
class Register:
    """Named contiguous qubit range; reg[0] is the low (least significant) qubit."""

    name: str
    offset: int
    width: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(range(self.offset, self.offset + self.width))

    def __len__(self) -> int:
        return self.width

    def __iter__(self):
        return iter(self.qubits)

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.width:
            raise CircuitError(f"bit {j} out of range for register {self.name!r} of width {self.width}")
        return self.offset + j


# --- gate vocabulary ---------------------------------------------------------
#
# H is the only non-classical gate and may only appear in the leading layer.
# X, Z, CX, Toffoli, MCBitmask, and QramLoad all act as signed permutations
# of basis states: Z flips the sign when its qubit is 1, the rest move bits.


@dataclass(frozen=True, slots=True)
class H:
    target: int


@dataclass(frozen=True, slots=True)
class X:
    target: int


@dataclass(frozen=True, slots=True)
class Z:
    target: int


@dataclass(frozen=True, slots=True)
class CX:
    control: int
    target: int


@dataclass(frozen=True, slots=True)
class Toffoli:
    control1: int
    control2: int
    target: int


@dataclass(frozen=True, slots=True)
class MCBitmask:
    """If all controls are 1, flip targets[j] for every j with mask[j] == 1.

    `ancilla` names the borrowed work qubit charged by the cost model; the
    gate itself never changes it.  A zero mask is a valid identity gate.
    """

    controls: tuple[int, ...]
    mask: BitString
    targets: tuple[int, ...]
    ancilla: int


@dataclass(frozen=True, slots=True)
class QramLoad:
    """XOR the table value at the current address into the data qubits.

    Addresses missing from the table load zero.  Address and data qubit
    tuples are little-endian (first listed qubit is the low bit) and need
    not be contiguous.
    """

    address: tuple[int, ...]
    data: tuple[int, ...]
    table_id: str


Gate = H | X | Z | CX | Toffoli | MCBitmask | QramLoad


def mcx_toffoli_cost(controls: int) -> int:
    """Toffoli-equivalent primitives for one k-controlled X with a borrowed ancilla.

    k=1 is a plain CX and k=2 a plain Toffoli, each charged as one
    primitive; k=3 costs 4 and k>=4 costs 8(k-3).
    """
    if controls < 1:
        raise CircuitError(f"multi-controlled X needs at least one control, got {controls}")
    if controls <= 2:
        return 1
    if controls == 3:
        return 4
    return 8 * (controls - 3)


@dataclass(frozen=True)
class MeasurementPlan:
    """Partition of the circuit's qubits into Z-measured, X-measured, unmeasured."""

    z_qubits: tuple[int, ...]
    x_qubits: tuple[int, ...]
    unmeasured: tuple[int, ...]


@dataclass
class Circuit:
    """Mutable while being built; treat as immutable once construction ends.

    `steps` parallels `gates` and tags each gate with the builder step that
    emitted it, for the gate accountant.  `h_layer_size` is maintained by
    `add` and counts the leading Hadamards.
    """

    n_qubits: int
    registers: dict[str, Register]
    gates: list[Gate] = field(default_factory=list)
    steps: list[str] = field(default_factory=list)
    tables: dict[str, object] = field(default_factory=dict)
    measurement: MeasurementPlan | None = None
    h_layer_size: int = 0
    _step: str = field(default="", compare=False, repr=False)

    def begin_step(self, label: str) -> None:
        if not label or any(ch.isspace() for ch in label):
            raise CircuitError(f"step label must be non-empty and without whitespace: {label!r}")
        self._step = label

    def reg(self, name: str) -> Register:
        try:
            return self.registers[name]
        except KeyError:
            raise CircuitError(f"no register named {name!r}") from None

    def add_table(self, table) -> str:
        tid = table.table_id
        existing = self.tables.get(tid)
        if existing is not None and existing != table:
            raise CircuitError(f"table id {tid!r} already registered with different contents")
        self.tables[tid] = table
        return tid

    def _check_qubit(self, q: int) -> None:
        if not isinstance(q, int) or not 0 <= q < self.n_qubits:
            raise CircuitError(f"qubit index {q!r} out of range for {self.n_qubits}-qubit circuit")

    def add(self, gate: Gate) -> None:
        if not self._step:
            raise CircuitError("begin_step must be called before adding gates")
        if isinstance(gate, H):
            if len(self.gates) != self.h_layer_size:
                raise CircuitError("H gates are only allowed in the leading layer")
            self._check_qubit(gate.target)
            self.h_layer_size += 1
        elif isinstance(gate, (X, Z)):
            self._check_qubit(gate.target)
        elif isinstance(gate, CX):
            self._check_qubit(gate.control)
            self._check_qubit(gate.target)
            if gate.control == gate.target:
                raise CircuitError("CX control and target must differ")
        elif isinstance(gate, Toffoli):
            ops = (gate.control1, gate.control2, gate.target)
            for q in ops:
                self._check_qubit(q)
            if len(set(ops)) != 3:
                raise CircuitError("Toffoli operands must be three distinct qubits")
        elif isinstance(gate, MCBitmask):
            if not gate.controls:
                raise CircuitError("MCBitmask needs at least one control")
            if len(gate.mask) != len(gate.targets):
                raise CircuitError(
                    f"mask width {len(gate.mask)} does not match target count {len(gate.targets)}"
                )
            for q in (*gate.controls, *gate.targets, gate.ancilla):
                self._check_qubit(q)
            cset, tset = set(gate.controls), set(gate.targets)
            if len(cset) != len(gate.controls) or len(tset) != len(gate.targets):
                raise CircuitError("MCBitmask controls and targets must each be distinct")
            if cset & tset or gate.ancilla in cset or gate.ancilla in tset:
                raise CircuitError("MCBitmask controls, targets, and ancilla must be pairwise disjoint")
        elif isinstance(gate, QramLoad):
            if not gate.address or not gate.data:
                raise CircuitError("QramLoad needs address and data qubits")
            for q in (*gate.address, *gate.data):
                self._check_qubit(q)
            aset, dset = set(gate.address), set(gate.data)
            if len(aset) != len(gate.address) or len(dset) != len(gate.data) or aset & dset:
                raise CircuitError("QramLoad address and data qubits must be distinct and disjoint")
            table = self.tables.get(gate.table_id)
            if table is None:
                raise CircuitError(f"QramLoad references unregistered table {gate.table_id!r}")
            if table.address_width != len(gate.address) or table.data_width != len(gate.data):
                raise CircuitError(
                    f"table {gate.table_id!r} is {table.address_width}->{table.data_width} bits, "
                    f"gate wires are {len(gate.address)}->{len(gate.data)}"
                )
        else:
            raise CircuitError(f"unknown gate {gate!r}")
        self.gates.append(gate)
        self.steps.append(self._step)

    def set_measurement(
        self,
        z_qubits: tuple[int, ...],
        x_qubits: tuple[int, ...],
        unmeasured: tuple[int, ...] = (),
    ) -> None:
        plan = MeasurementPlan(tuple(z_qubits), tuple(x_qubits), tuple(unmeasured))
        seen = [*plan.z_qubits, *plan.x_qubits, *plan.unmeasured]
        for q in seen:
            self._check_qubit(q)
        if len(set(seen)) != len(seen) or len(seen) != self.n_qubits:
            raise CircuitError("measurement plan must partition the circuit's qubits")
        self.measurement = plan


def new_circuit(layout: list[tuple[str, int]] | tuple[tuple[str, int], ...]) -> Circuit:
    """Allocate registers contiguously in declaration order and return the circuit."""
    registers: dict[str, Register] = {}
    offset = 0
    for name, width in layout:
        if width <= 0:
            raise CircuitError(f"register {name!r} must have positive width, got {width}")
        if name in registers:
            raise CircuitError(f"duplicate register name {name!r}")
        registers[name] = Register(name, offset, width)
        offset += width
    return Circuit(n_qubits=offset, registers=registers)


def emit_mcbitmask(
    circuit: Circuit,
    controls,
    mask: BitString,
    targets,
    ancilla: int,
) -> None:
    """Append one multi-controlled bitmask flip; validation happens in add."""
    circuit.add(MCBitmask(tuple(controls), mask, tuple(targets), ancilla))
