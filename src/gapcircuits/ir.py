"""Gate-level IR for circuits made of one Hadamard layer plus reversible gates.

Everything after the initial Hadamard layer maps computational basis states
to computational basis states up to a sign, which is what makes exact
path-sum simulation cheap.  Qubit indices are global; registers are
contiguous index ranges.  All bit/integer conversions are little-endian:
bit 0 is the least significant.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import lshift
from typing import ClassVar


class CircuitError(ValueError):
    """Malformed circuit, register layout, or gate operands."""


@dataclass(frozen=True, slots=True)
class BitString:
    """Immutable little-endian bit tuple, an ov instance's vector type;
    bits[0] is the least significant."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        # type(b) is int refuses bools, which the instance file cannot read back.
        if any(type(b) is not int or b not in (0, 1) for b in self.bits):
            raise CircuitError(f"bits must be 0 or 1, got {self.bits!r}")

    def to_int(self) -> int:
        return sum(map(lshift, self.bits, range(len(self.bits))))

    @property
    def width(self) -> int:
        return len(self.bits)


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
# The gate classes below are the one table of the gate vocabulary, read by
# every other module.  Each declares its wires() (Circuit.add checks they
# are in range and distinct), any further check(circuit), its text KEYWORD
# (GATES maps it back) with text()/from_tokens() for its operands, its
# charge() for the accountant (row, amount, and the control count of the
# multi-controlled flip the amount expands, else 0) and its action() for
# both backends: ("flip", controls, targets) for X, CX, Toffoli and
# MCBitmask (masked targets only), ("z", q), ("h", q) or ("qram", address,
# data, table_id).  H may only lead (LEADING); the rest are signed
# permutations of basis states.

_ARITY = {1: "one qubit", 2: "two qubits", 3: "three qubits"}


def check_word(what: str, word: str) -> None:
    """Refuse a name that circuit text cannot hold as one token."""
    if word.split() != [word]:  # empty, or holds whitespace
        raise CircuitError(f"{what} must be non-empty and without whitespace: {word!r}")


def _int(token: str) -> int:
    """A non-negative int as `str` writes it: `0|[1-9][0-9]*` in ASCII."""
    if token.isdigit() and token.isascii() and (token[0] != "0" or token == "0"):
        try:
            return int(token)
        except ValueError:  # more digits than int() reads
            pass
    raise CircuitError(f"expected integer, got {token!r}")


class _Gate:
    """Defaults of the gate table: integer fields that are the wires in order."""

    __slots__ = ()
    KEYWORD: ClassVar[str]
    LEADING: ClassVar[bool] = False

    def check(self, circuit: Circuit) -> None:
        pass

    def text(self) -> str:
        return " ".join(map(str, self.wires()))

    @classmethod
    def from_tokens(cls, tokens: list[str]):
        arity = len(cls.__match_args__)
        if len(tokens) != arity:
            raise CircuitError(f"{cls.KEYWORD} takes {_ARITY[arity]}")
        return cls(*map(_int, tokens))

    def charge(self) -> tuple[str, int, int]:
        return self.KEYWORD, 1, 0


class _OneQubit(_Gate):
    __slots__ = ()

    def wires(self) -> tuple[int, ...]:
        return (self.target,)

    def text(self) -> str:  # X alone is most of an explicit-mode circuit's lines
        return str(self.target)


@dataclass(frozen=True, slots=True)
class H(_OneQubit):
    target: int
    KEYWORD: ClassVar[str] = "H"
    LEADING: ClassVar[bool] = True

    def action(self) -> tuple:
        return ("h", self.target)


@dataclass(frozen=True, slots=True)
class X(_OneQubit):
    target: int
    KEYWORD: ClassVar[str] = "X"

    def action(self) -> tuple:
        return ("flip", (), (self.target,))


@dataclass(frozen=True, slots=True)
class Z(_OneQubit):
    target: int
    KEYWORD: ClassVar[str] = "Z"

    def action(self) -> tuple:
        return ("z", self.target)


@dataclass(frozen=True, slots=True)
class CX(_Gate):
    control: int
    target: int
    KEYWORD: ClassVar[str] = "CX"

    def wires(self) -> tuple[int, ...]:
        return (self.control, self.target)

    def action(self) -> tuple:
        return ("flip", (self.control,), (self.target,))


@dataclass(frozen=True, slots=True)
class Toffoli(_Gate):
    control1: int
    control2: int
    target: int
    KEYWORD: ClassVar[str] = "CCX"

    def wires(self) -> tuple[int, ...]:
        return (self.control1, self.control2, self.target)

    def action(self) -> tuple:
        return ("flip", (self.control1, self.control2), (self.target,))


@dataclass(frozen=True, slots=True)
class MCBitmask(_Gate):
    """If all controls are 1, flip targets[j] for every j with bit j of mask set.

    `ancilla` names the borrowed work qubit charged by the cost model; the
    gate itself never changes it.  A zero mask over one or more targets is a
    valid identity gate.
    """

    controls: tuple[int, ...]
    mask: int
    targets: tuple[int, ...]
    ancilla: int
    KEYWORD: ClassVar[str] = "MCB"

    def wires(self) -> tuple[int, ...]:
        return (*self.controls, *self.targets, self.ancilla)

    def check(self, circuit: Circuit) -> None:
        if not self.controls:
            raise CircuitError("MCBitmask needs at least one control")
        if not self.targets:  # the text format has no spelling for an empty mask
            raise CircuitError("MCBitmask needs at least one target")
        self.check_mask()

    # A loader's flips share one wiring and differ in mask only, so
    # Circuit.extend and textio do the wire work once per wiring.
    def same_wiring(self, other: MCBitmask) -> bool:
        """Whether both hold the same wiring objects; equal ones do not
        count, as (1,) == (True,)."""
        return (self.controls is other.controls and self.targets is other.targets
                and self.ancilla is other.ancilla)

    def check_mask(self) -> None:
        # type() is int refuses bools, as Circuit.add does for wires; a
        # negative int shifts down to -1, never to 0, so the shift refuses it.
        if type(self.mask) is not int or self.mask >> len(self.targets):
            raise CircuitError(f"mask {self.mask!r} does not fit {len(self.targets)} targets")

    def action(self) -> tuple:
        mask = self.mask
        return ("flip", self.controls,
                tuple([t for j, t in enumerate(self.targets) if mask >> j & 1]))

    def wiring_text(self) -> tuple[str, str]:
        """The operand text before and after the maskbits."""
        wires = " ".join(map(str, (*self.controls, *self.targets)))
        return f"{self.ancilla} ", f" {len(self.controls)} {wires}"

    def text(self) -> str:
        head, tail = self.wiring_text()
        return head + maskbits(self.mask, len(self.targets)) + tail

    def with_maskbits(self, bits: str) -> MCBitmask:
        """This wiring with the mask that `bits`, 0/1 as long as the targets, spells."""
        return MCBitmask(self.controls, int(bits[::-1], 2), self.targets, self.ancilla)

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> MCBitmask:
        if len(tokens) < 3:
            raise CircuitError("malformed MCB gate")
        ancilla, bits = _int(tokens[0]), tokens[1]
        if not bits or bits.strip("01"):
            raise CircuitError("mask must be a 0/1 string")
        n_controls, wires = _int(tokens[2]), [_int(t) for t in tokens[3:]]
        if len(wires) != n_controls + len(bits):
            raise CircuitError("MCB wire count mismatch")
        return cls(tuple(wires[:n_controls]), int(bits[::-1], 2),
                   tuple(wires[n_controls:]), ancilla)

    def charge(self) -> tuple[str, int, int]:
        k = len(self.controls)
        return "CCX", self.mask.bit_count() * mcx_toffoli_cost(k), k


@dataclass(frozen=True, slots=True)
class QramLoad(_Gate):
    """XOR the table value at the current address into the data qubits.

    Addresses missing from the table load zero.  Address and data qubit
    tuples are little-endian (first listed qubit is the low bit) and need
    not be contiguous.
    """

    address: tuple[int, ...]
    data: tuple[int, ...]
    table_id: str
    KEYWORD: ClassVar[str] = "QRAM"

    def wires(self) -> tuple[int, ...]:
        return (*self.address, *self.data)

    def check(self, circuit: Circuit) -> None:
        if not self.address or not self.data:
            raise CircuitError("QramLoad needs address and data qubits")
        table = circuit.tables.get(self.table_id)
        if table is None:
            raise CircuitError(f"QramLoad references unregistered table {self.table_id!r}")
        if (table.address_width, table.data_width) != (len(self.address), len(self.data)):
            raise CircuitError(f"table {self.table_id!r} is {table.address_width}->"
                               f"{table.data_width} bits, gate wires are "
                               f"{len(self.address)}->{len(self.data)}")

    def action(self) -> tuple:
        return ("qram", self.address, self.data, self.table_id)

    def text(self) -> str:
        address, data = (" ".join(map(str, wires)) for wires in (self.address, self.data))
        return f"{self.table_id} {len(self.address)} {address} {len(self.data)} {data}"

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> QramLoad:
        if len(tokens) < 3:
            raise CircuitError("malformed QRAM gate")
        n_address, tail = _int(tokens[1]), [_int(t) for t in tokens[2:]]
        if len(tail) < n_address + 1 or len(tail[n_address + 1:]) != tail[n_address]:
            raise CircuitError("QRAM wire count mismatch")
        return cls(tuple(tail[:n_address]), tuple(tail[n_address + 1:]), tokens[0])


Gate = H | X | Z | CX | Toffoli | MCBitmask | QramLoad
GATES: dict[str, type] = {cls.KEYWORD: cls for cls in Gate.__args__}
VOCABULARY = frozenset(Gate.__args__)
# The classes with rules beyond their wires; Circuit calls check() on these only.
_CHECKED = frozenset(cls for cls in VOCABULARY if cls.check is not _Gate.check)
# The classes whose charge() reads the gate; every gate of any other class
# charges what _Gate.charge gives, so the accountant charges those by count.
_CHARGED = frozenset(cls for cls in VOCABULARY if cls.charge is not _Gate.charge)
# The gates whose one wire is their whole check (X and Z): Circuit.extend
# checks a block's such wires together.
_ONE_WIRE = frozenset(cls for cls in VOCABULARY
                      if issubclass(cls, _OneQubit) and not cls.LEADING and cls not in _CHECKED)
# The flips with an int `mask` over `targets` that may share a wiring (same_wiring).
_WIRED = frozenset(cls for cls in VOCABULARY if hasattr(cls, "same_wiring"))


def maskbits(mask: int, width: int) -> str:
    """A bitmask flip's mask as text: one 0/1 character per target, low bit first."""
    return format(mask, f"0{width}b")[::-1]


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

    `step_starts` holds the builder steps, for the gate accountant, as one
    `(label, index of its first gate)` span per run of gates under one
    label.  `add`, `extend` and `add_again` open a span only when the label
    differs by value from the last span's, so no span is empty and no two
    neighbours share a label.  `h_layer_size` is maintained by `add` and
    counts the leading Hadamards.
    """

    n_qubits: int
    registers: dict[str, Register]
    gates: list[Gate] = field(default_factory=list)
    step_starts: list[tuple[str, int]] = field(default_factory=list)
    tables: dict[str, object] = field(default_factory=dict)
    measurement: MeasurementPlan | None = None
    h_layer_size: int = 0
    _step: str = field(default="", compare=False, repr=False)

    def begin_step(self, label: str) -> None:
        check_word("step label", label)
        self._step = label

    def step_runs(self) -> Iterator[tuple[str, int, int]]:
        """`(label, start, stop)` of each span, cut at the gates there are."""
        spans, n = self.step_starts, len(self.gates)
        for (label, start), (_, stop) in zip(spans, [*spans[1:], ("", n)]):
            if start < n:
                yield label, start, min(stop, n)

    def _open_span(self, label: str) -> None:
        """Start a span at the next gate unless the last span has `label`."""
        spans = self.step_starts
        if not spans or spans[-1][0] != label:
            spans.append((label, len(self.gates)))

    def reg(self, name: str) -> Register:
        try:
            return self.registers[name]
        except KeyError:
            raise CircuitError(f"no register named {name!r}") from None

    def add_table(self, table) -> str:
        tid = table.table_id
        if self.tables.setdefault(tid, table) != table:
            raise CircuitError(f"table id {tid!r} already registered with different contents")
        return tid

    def _check_qubit(self, q: int) -> None:
        # type(q) is int refuses bools, which the text format cannot read back.
        if type(q) is not int or not 0 <= q < self.n_qubits:
            raise CircuitError(f"qubit index {q!r} out of range for {self.n_qubits}-qubit circuit")

    def _check_gate(self, gate: Gate) -> None:
        cls = type(gate)
        if cls not in VOCABULARY:
            raise CircuitError(f"unknown gate {gate!r}")
        wires = gate.wires()
        n = self.n_qubits
        for q in wires:
            if type(q) is not int or not 0 <= q < n:
                self._check_qubit(q)  # raises; tested inline since this runs per gate
        if len(wires) > 1 and len(set(wires)) != len(wires):
            raise CircuitError(f"{cls.__name__} wires {wires} must differ")
        if cls in _CHECKED:
            gate.check(self)

    def add(self, gate: Gate) -> None:
        if not self._step:
            raise CircuitError("begin_step must be called before adding gates")
        self._check_gate(gate)
        if gate.LEADING:
            if len(self.gates) != self.h_layer_size:
                raise CircuitError("H gates are only allowed in the leading layer")
            self.h_layer_size += 1
        self._open_span(self._step)
        self.gates.append(gate)

    def add_again(self, gate: Gate, label: str) -> None:
        """Make `label` the current step and append `gate`, which this circuit
        has accepted before and is not H, without checking it again."""
        self._step = label
        self._open_span(label)
        self.gates.append(gate)

    def extend(self, gates: list[Gate]) -> None:
        """add() each gate in order, in one pass over the block.

        Gates are immutable and, H aside, their checks do not depend on
        where they stand, so a gate object listed again needs no second
        check, and a block without H adds nothing when one of its gates is
        refused.  H must lead, so a block that holds H is added gate by
        gate.  The wires of the block's X and Z gates are checked together:
        all exact ints, then their least and greatest against the qubit
        range.  A bitmask flip that holds the very wiring objects of the
        last flip checked in full (same_wiring), as a loader's flips do,
        has only its mask checked.
        """
        if not self._step:
            raise CircuitError("begin_step must be called before adding gates")
        wires = []
        leading = False
        wired = None  # the block's last flip checked in full
        checked = set()  # ids of the other gates checked
        try:
            for gate in gates:
                cls = type(gate)
                if cls in _ONE_WIRE:
                    wires.append(gate.target)
                elif cls in _WIRED:
                    if wired is not None and gate.same_wiring(wired):
                        gate.check_mask()
                    else:
                        self._check_gate(gate)
                        wired = gate
                elif id(gate) not in checked:
                    checked.add(id(gate))
                    self._check_gate(gate)
                    leading |= gate.LEADING
            if wires and not ({*map(type, wires)} == {int}
                              and 0 <= min(wires) and max(wires) < self.n_qubits):
                raise CircuitError("a one-qubit wire is refused")
        except CircuitError:
            for gate in gates:  # raises what add() raises for the first refused gate
                self._check_gate(gate)
            raise
        if leading:
            for gate in gates:
                self.add(gate)
            return
        if gates:
            self._open_span(self._step)
            self.gates += gates

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
        check_word("register name", name)
        if width <= 0:
            raise CircuitError(f"register {name!r} must have positive width, got {width}")
        if name in registers:
            raise CircuitError(f"duplicate register name {name!r}")
        registers[name] = Register(name, offset, width)
        offset += width
    return Circuit(n_qubits=offset, registers=registers)

