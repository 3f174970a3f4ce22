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

`maskbits` is a 0/1 string written low bit first; qubit lists are
little-endian (first qubit = low bit); each gate class in `ir.py` reads and
writes its own operands.  Gates appear in execution order and keep their
step tags, so parsing rebuilds an equal circuit.

A built circuit adds a parameter header in front of the same body:

    problem ov|3sum|nwt
    mode qram|explicit
    n / index_width / data_width / bound / exponent  (one `<key> <value>` each)
"""

from __future__ import annotations

from .builders import BuiltCircuit
from .dataload import DataTable
from .ir import GATES, VOCABULARY, Circuit, CircuitError, new_circuit


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
    for gate, step in zip(circuit.gates, circuit.steps):
        if type(gate) not in VOCABULARY:
            raise CircuitError(f"cannot serialize gate {gate!r}")
        lines.append(f"gate {step} {gate.KEYWORD} {gate.text()}")
    return "\n".join(lines) + "\n"


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise CircuitError(f"line {lineno}: expected integer, got {token!r}") from None


def circuit_from_text(text: str) -> Circuit:
    """Parse the format written by circuit_to_text; raises CircuitError on any deviation."""
    n_qubits: int | None = None
    layout: list[tuple[str, int]] = []
    offsets: list[int] = []
    measure: dict[str, tuple[int, ...]] = {}
    tables: list[DataTable] = []
    pending_rows: list[tuple[int, int]] = []
    pending_table: tuple[str, int, int] | None = None
    gate_lines: list[tuple[int, list[str]]] = []

    def flush_table() -> None:
        nonlocal pending_table, pending_rows
        if pending_table is not None:
            tid, aw, dw = pending_table
            tables.append(DataTable(tid, aw, dw, tuple(pending_rows)))
        pending_table, pending_rows = None, []

    for lineno, tokens in _tokenize(text):
        word = tokens[0]
        if word == "circuit":
            if n_qubits is not None or len(tokens) != 2:
                raise CircuitError(f"line {lineno}: malformed or repeated circuit line")
            n_qubits = _parse_int(tokens[1], lineno)
        elif word == "register":
            if len(tokens) != 4:
                raise CircuitError(f"line {lineno}: register needs name, offset, width")
            layout.append((tokens[1], _parse_int(tokens[3], lineno)))
            offsets.append(_parse_int(tokens[2], lineno))
        elif word == "measure":
            if len(tokens) < 2 or tokens[1] not in ("z", "x", "none"):
                raise CircuitError(f"line {lineno}: measure needs group z, x, or none")
            if tokens[1] in measure:
                raise CircuitError(f"line {lineno}: repeated measure group {tokens[1]!r}")
            measure[tokens[1]] = tuple(_parse_int(t, lineno) for t in tokens[2:])
        elif word == "table":
            flush_table()
            if len(tokens) != 4:
                raise CircuitError(f"line {lineno}: table needs id and two widths")
            pending_table = (tokens[1], _parse_int(tokens[2], lineno), _parse_int(tokens[3], lineno))
        elif word == "row":
            if pending_table is None or len(tokens) != 3:
                raise CircuitError(f"line {lineno}: row outside a table or malformed")
            pending_rows.append((_parse_int(tokens[1], lineno), _parse_int(tokens[2], lineno)))
        elif word == "gate":
            gate_lines.append((lineno, tokens))
        else:
            raise CircuitError(f"line {lineno}: unknown directive {word!r}")
    flush_table()

    if n_qubits is None:
        raise CircuitError("missing circuit line")
    circuit = new_circuit(layout)
    if circuit.n_qubits != n_qubits:
        raise CircuitError(f"registers cover {circuit.n_qubits} qubits, header says {n_qubits}")
    for (name, _), offset in zip(layout, offsets):
        if circuit.registers[name].offset != offset:
            raise CircuitError(f"register {name!r} offset {offset} is not contiguous")
    for table in tables:
        circuit.add_table(table)

    for lineno, tokens in gate_lines:
        if len(tokens) < 4:
            raise CircuitError(f"line {lineno}: malformed gate line")
        _, step, kind, *rest = tokens
        circuit.begin_step(step)
        cls = GATES.get(kind)
        if cls is None:
            raise CircuitError(f"line {lineno}: unknown gate kind {kind!r}")
        try:
            gate = cls.from_tokens(rest)
        except CircuitError as err:
            raise CircuitError(f"line {lineno}: {err}") from None
        circuit.add(gate)

    if measure:
        circuit.set_measurement(measure.get("z", ()), measure.get("x", ()), measure.get("none", ()))
    return circuit


_BUILT_KEYS = ("problem", "mode", "n", "index_width", "data_width", "bound", "exponent")


def built_to_text(built: BuiltCircuit) -> str:
    header = [
        f"problem {built.problem}",
        f"mode {built.mode}",
        f"n {built.n}",
        f"index_width {built.r}",
        f"data_width {built.d}",
        f"bound {'-' if built.bound is None else built.bound}",
        f"exponent {built.denom_exponent}",
    ]
    return "\n".join(header) + "\n" + circuit_to_text(built.circuit)


def built_from_text(text: str) -> BuiltCircuit:
    header: dict[str, str] = {}
    body_lines: list[str] = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        tokens = stripped.split()
        if not tokens:  # blanks and comments never end the header block
            if body_lines:
                body_lines.append(raw)
            continue
        if body_lines or tokens[0] not in _BUILT_KEYS:
            body_lines.append(raw)
            continue
        if len(tokens) != 2 or tokens[0] in header:
            raise CircuitError(f"malformed built-circuit header line {raw!r}")
        header[tokens[0]] = tokens[1]
    missing = [k for k in _BUILT_KEYS if k not in header]
    if missing:
        raise CircuitError(f"built-circuit header is missing {missing}")
    circuit = circuit_from_text("\n".join(body_lines))
    built = BuiltCircuit(
        circuit=circuit,
        problem=header["problem"],
        mode=header["mode"],
        n=int(header["n"]),
        r=int(header["index_width"]),
        d=int(header["data_width"]),
        bound=None if header["bound"] == "-" else int(header["bound"]),
        denom_exponent=int(header["exponent"]),
    )
    plan = circuit.measurement
    if plan is None or built.denom_exponent != circuit.h_layer_size + len(plan.x_qubits):
        raise CircuitError("built-circuit header is inconsistent with the circuit body")
    return built
