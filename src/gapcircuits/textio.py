"""Line-oriented text format for circuits, lossless in both directions.

Grammar (one directive per line; `#` starts a comment; blank lines ignored):

    circuit <n_qubits>
    register <name> <offset> <width>          registers, ascending offsets
    measure z|x|none <qubit>*                 at most one line per group
    table <id> <address_width> <data_width>   starts a table
    row <address> <value>                     entry of the most recent table
    gate <step> H|X|Z <q>
    gate <step> CX <control> <target>
    gate <step> CCX <control1> <control2> <target>
    gate <step> MCB <ancilla> <maskbits> <n_controls> <controls...> <targets...>
    gate <step> QRAM <table_id> <n_address> <address...> <n_data> <data...>

`maskbits` is the gate's int mask as a 0/1 string, one character per
target, low bit first; qubit lists are little-endian (first qubit = low
bit); each gate class in `ir.py` reads and writes its own operands.  Gates
appear in execution order, each line tagged with its step span's label;
the reader gathers neighbouring lines of one label back into one span, so
parsing rebuilds an equal circuit.  The circuit, register, table and row
lines precede the first gate line, so one pass over the lines checks each
gate through `Circuit.add` as it reads it; every refusal caused by a line
starts with `line N:`.  Explicit-mode text repeats its lines, so a gate
line byte-identical to one already accepted appends that line's gate
object again under its step (`Circuit.add_again` where the step changes)
without a second parse or check, as `Circuit.extend` does for a repeated
gate; the layout is fixed by then, and H, whose check depends on its
position, is always parsed afresh.

A built circuit puts one `<key> <value>` line per row of `_HEADER` in front
of the same body; they are read only before the first other directive.
"""

from __future__ import annotations

from dataclasses import replace

from .builders import BuiltCircuit
from .dataload import DataTable
from .ir import GATES, VOCABULARY, Circuit, CircuitError, X, _int, new_circuit


def _optional_int(token: str) -> int | None:
    return None if token == "-" else _int(token)


# The built-circuit header in file order: key, BuiltCircuit field, value
# parser.  A bound of None is written `-`.
_HEADER = (("problem", "problem", str), ("mode", "mode", str), ("n", "n", _int),
           ("index_width", "r", _int), ("data_width", "d", _int),
           ("bound", "bound", _optional_int), ("exponent", "denom_exponent", _int))
_HEADER_KEYS = {key: (name, parse) for key, name, parse in _HEADER}


def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"circuit {circuit.n_qubits}"]
    for reg in sorted(circuit.registers.values(), key=lambda r: r.offset):
        lines.append(f"register {reg.name} {reg.offset} {reg.width}")
    plan = circuit.measurement
    if plan is not None:
        lines.append(" ".join(["measure", "z", *map(str, plan.z_qubits)]))
        lines.append(" ".join(["measure", "x", *map(str, plan.x_qubits)]))
        lines.append(" ".join(["measure", "none", *map(str, plan.unmeasured)]))
    for tid in sorted(circuit.tables):
        table = circuit.tables[tid]
        lines.append(f"table {tid} {table.address_width} {table.data_width}")
        for address, value in table.entries:
            lines.append(f"row {address} {value}")
    append = lines.append
    gates = circuit.gates
    for step, start, stop in circuit.step_runs():
        # X is most of an explicit circuit's lines, and its frames repeat
        # within a step.  A line is reused only for an exact-int target: an
        # X(True) equals X(1) as a key but is written "True".
        x_lines: dict[int, str] = {}  # X target -> its line in this span
        for gate in gates[start:stop]:
            if type(gate) is X and type(gate.target) is int:
                line = x_lines.get(gate.target)
                if line is None:
                    line = x_lines[gate.target] = f"gate {step} X {gate.target}"
                append(line)
            elif type(gate) not in VOCABULARY:
                raise CircuitError(f"cannot serialize gate {gate!r}")
            else:
                append(f"gate {step} {gate.KEYWORD} {gate.text()}")
    return "\n".join(lines) + "\n"


def _layout(n_qubits: int | None, layout: list[tuple[str, int]], offsets: list[int],
            tables: list[tuple[DataTable, dict[int, int]]]) -> Circuit:
    """The circuit that the circuit, register, table and row lines declare."""
    if n_qubits is None:
        raise CircuitError("missing circuit line")
    circuit = new_circuit(layout)
    if circuit.n_qubits != n_qubits:
        raise CircuitError(f"registers cover {circuit.n_qubits} qubits, header says {n_qubits}")
    for (name, _), offset in zip(layout, offsets):
        if circuit.registers[name].offset != offset:
            raise CircuitError(f"register {name!r} offset {offset} is not contiguous")
    for table, rows in tables:
        circuit.add_table(replace(table, entries=tuple(rows.items())))
    return circuit


def _parse(text: str, header: dict | None) -> Circuit:
    """Read circuit text in one pass over its lines.

    With a `header` dict, the built-circuit header lines that precede the
    first other directive are read into it, keyed by BuiltCircuit field.
    """
    keys = _HEADER_KEYS if header is not None else {}
    n_qubits = circuit = step = rows = None
    layout: list[tuple[str, int]] = []
    offsets: list[int] = []
    measure: dict[str, tuple[int, ...]] = {}
    tables: list[tuple[DataTable, dict[int, int]]] = []
    accepted: dict[str, tuple] = {}  # accepted gate line, H aside -> (gate, step)
    lineno = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            known = accepted.get(raw)
            if known is not None:
                gate, label = known
                if label is step:  # a gate of the current step joins its span
                    append_gate(gate)
                else:
                    circuit.add_again(gate, label)
                    step = label
                continue
            tokens = raw.split("#", 1)[0].split()
            if not tokens:  # blanks and comments never end the header block
                continue
            word = tokens[0]
            if keys:
                if word in keys:
                    name, parse = keys[word]
                    if len(tokens) != 2 or name in header:
                        raise CircuitError(f"malformed built-circuit header line {raw!r}")
                    header[name] = parse(tokens[1])
                    continue
                keys = {}
            if word == "gate":
                if len(tokens) < 4:
                    raise CircuitError("malformed gate line")
                if circuit is None:
                    circuit, rows = _layout(n_qubits, layout, offsets, tables), None
                    append_gate = circuit.gates.append
                cls = GATES.get(tokens[2])
                if cls is None:
                    raise CircuitError(f"unknown gate kind {tokens[2]!r}")
                if tokens[1] != step:
                    step = tokens[1]
                    circuit.begin_step(step)
                gate = cls.from_tokens(tokens[3:])
                circuit.add(gate)
                if not gate.LEADING:
                    accepted[raw] = (gate, step)
            elif circuit is not None and word in ("register", "table"):
                raise CircuitError(f"{word} line after the first gate line")
            elif word == "circuit":
                if n_qubits is not None or len(tokens) != 2:
                    raise CircuitError("malformed or repeated circuit line")
                n_qubits = _int(tokens[1])
            elif word == "register":
                if len(tokens) != 4:
                    raise CircuitError("register needs name, offset, width")
                layout.append((tokens[1], _int(tokens[3])))
                offsets.append(_int(tokens[2]))
            elif word == "measure":
                if len(tokens) < 2 or tokens[1] not in ("z", "x", "none"):
                    raise CircuitError("measure needs group z, x, or none")
                if tokens[1] in measure:
                    raise CircuitError(f"repeated measure group {tokens[1]!r}")
                measure[tokens[1]] = tuple(map(_int, tokens[2:]))
            elif word == "table":
                if len(tokens) != 4:
                    raise CircuitError("table needs id and two widths")
                table, rows = DataTable(tokens[1], _int(tokens[2]), _int(tokens[3]), ()), {}
                tables.append((table, rows))
            elif word == "row":
                if rows is None or len(tokens) != 3:
                    raise CircuitError("row outside a table or malformed")
                address, value = _int(tokens[1]), _int(tokens[2])
                table.check_entry(address, value)
                if address in rows:
                    raise CircuitError(f"duplicate address {address}")
                rows[address] = value
            else:
                raise CircuitError(f"unknown directive {word!r}")
    except CircuitError as err:
        raise CircuitError(f"line {lineno}: {err}") from None
    if circuit is None:
        circuit = _layout(n_qubits, layout, offsets, tables)
    if measure:
        circuit.set_measurement(measure.get("z", ()), measure.get("x", ()), measure.get("none", ()))
    return circuit


def circuit_from_text(text: str) -> Circuit:
    """Parse the format written by circuit_to_text; raises CircuitError on any deviation."""
    return _parse(text, None)


def built_to_text(built: BuiltCircuit) -> str:
    header = ""
    for key, name, _ in _HEADER:
        value = getattr(built, name)
        header += f"{key} {'-' if value is None else value}\n"
    return header + circuit_to_text(built.circuit)


def built_from_text(text: str) -> BuiltCircuit:
    header: dict = {}
    circuit = _parse(text, header)
    missing = [key for key, name, _ in _HEADER if name not in header]
    if missing:
        raise CircuitError(f"built-circuit header is missing {missing}")
    built = BuiltCircuit(circuit, **header)
    plan = circuit.measurement
    if plan is None or built.denom_exponent != circuit.h_layer_size + len(plan.x_qubits):
        raise CircuitError("built-circuit header is inconsistent with the circuit body")
    return built
