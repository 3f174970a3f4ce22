"""Line-oriented text format for circuits, lossless in both directions.

Grammar: the sections below in this order, one directive per line, tokens
separated by exactly one space, every integer spelled `0|[1-9][0-9]*` as
`str` writes a non-negative int.  Only empty lines and lines that start
with `#` are skipped.

    circuit <n_qubits>
    register <name> <offset> <width>          by offset, contiguous from 0
    measure z <qubit>*                        all three measure lines, in
    measure x <qubit>*                        this order, or none
    measure none <qubit>*
    table <id> <address_width> <data_width>   by ascending id, each followed
    row <address> <value>                     by its rows by ascending address
    gate <step> H|X|Z <q>
    gate <step> CX <control> <target>
    gate <step> CCX <control1> <control2> <target>
    gate <step> MCB <ancilla> <maskbits> <n_controls> <controls...> <targets...>
    gate <step> QRAM <table_id> <n_address> <address...> <n_data> <data...>

Names, step labels and table ids hold no whitespace.  `maskbits` is the
gate's int mask as a 0/1 string, one character per target, low bit first;
qubit lists are little-endian (first qubit = low bit); each gate class in
`ir.py` reads and writes its own operands.  Gates appear in execution
order, each line tagged with its step span's label; the reader gathers
neighbouring lines of one label back into one span.  So text that the
reader accepts is written back line for line, skipped lines aside.
Each register line, and each gate through `Circuit.add`, is checked as
it is read; every refusal starts with `line N:`.  Explicit-mode text
repeats its lines, so the reader parses a repeated gate line, H aside,
once, and reuses an accepted flip's wiring for a line that differs from
it only in maskbits.

A built circuit puts one `<key> <value>` line per row of `_HEADER` in front
of the same body; the reader refuses a header that no build writes with
that body (`builders.built_fault`): its header fields, its registers and
its step spans.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, repeat

from .builders import BuiltCircuit, built_fault
from .dataload import DataTable
from .ir import (GATES, VOCABULARY, _WIRED, Circuit, CircuitError, X, _int, maskbits,
                 new_circuit)


# The built-circuit header in file order: key, BuiltCircuit field, parser (bound None is `-`).
_HEADER = (("problem", "problem", str), ("mode", "mode", str), ("n", "n", _int),
           ("index_width", "r", _int), ("data_width", "d", _int),
           ("bound", "bound", lambda token: None if token == "-" else _int(token)),
           ("exponent", "denom_exponent", _int))
_GROUPS = ("z", "x", "none")  # the measure lines in file order


def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"circuit {circuit.n_qubits}"]
    for reg in sorted(circuit.registers.values(), key=lambda r: r.offset):
        lines.append(f"register {reg.name} {reg.offset} {reg.width}")
    plan = circuit.measurement
    if plan is not None:
        for group, qubits in zip(_GROUPS, (plan.z_qubits, plan.x_qubits, plan.unmeasured)):
            lines.append(" ".join(["measure", group, *map(str, qubits)]))
    for tid, table in sorted(circuit.tables.items()):  # ids differ, so tables are not compared
        lines.append(f"table {tid} {table.address_width} {table.data_width}")
        lines += [f"row {address} {value}" for address, value in table.entries]
    append = lines.append
    gates = circuit.gates
    masks: dict[tuple[int, int], str] = {}  # exact-int (mask, width) -> its maskbits
    for step, start, stop in circuit.step_runs():
        # X is most of an explicit circuit's lines, and its frames repeat
        # within a step.  A line is reused only for an exact-int target: an
        # X(True) equals X(1) as a key but is written "True".
        x_lines: dict[int, str] = {}  # X target -> its line in this span
        wired = None  # the span's last flip whose wiring text is head, tail
        for gate in gates[start:stop]:
            cls = type(gate)
            if cls is X and type(gate.target) is int:
                line = x_lines.get(gate.target)
                if line is None:
                    line = x_lines[gate.target] = f"gate {step} X {gate.target}"
                append(line)
            elif cls in _WIRED and type(gate.mask) is int:
                if wired is None or not gate.same_wiring(wired):
                    wired = gate
                    head, tail = gate.wiring_text()
                    head = f"gate {step} {cls.KEYWORD} {head}"
                key = gate.mask, len(gate.targets)
                bits = masks.get(key)
                if bits is None:
                    bits = masks[key] = maskbits(*key)
                append(head + bits + tail)
            elif cls not in VOCABULARY:
                raise CircuitError(f"cannot serialize gate {gate!r}")
            else:
                append(f"gate {step} {gate.KEYWORD} {gate.text()}")
    return "\n".join(lines) + "\n"


def _parse(text: str, built: bool) -> Circuit | BuiltCircuit:
    """Read circuit text section by section, in the writer's order; with
    `built`, the built-circuit header first."""
    lines = text.split("\n")
    numbered = enumerate(lines, start=1)
    # The lines before the first gate as tokens, skipped lines aside, then
    # an empty line after the last one for good; the gate loop reads on
    # from `numbered` itself.
    directives = chain(((lineno, raw.split(" ")) for lineno, raw in numbered
                        if raw and raw[0] != "#"), repeat((len(lines), [""])))
    # field -> value; field, "circuit", "register <name>" or "span <k>" -> its line number
    header, line_of = {}, {}
    lineno, words = next(directives)
    try:
        for key, name, parse in _HEADER if built else ():
            if words[0] != key or len(words) != 2:
                raise CircuitError(f"expected the built-circuit header line {key!r}")
            header[name], line_of[name] = parse(words[1]), lineno
            lineno, words = next(directives)
        if words[0] != "circuit" or len(words) != 2:
            raise CircuitError("expected the circuit line")
        n_qubits, line_of["circuit"] = _int(words[1]), lineno
        layout: dict[str, int] = {}  # name -> width, by offset
        covered = 0  # the widths so far, so the next register's offset
        for lineno, words in directives:
            if words[0] != "register":
                break
            if len(words) != 4:
                raise CircuitError("register needs name, offset, width")
            name, offset, width = words[1], _int(words[2]), _int(words[3])
            new_circuit([(name, width)])  # new_circuit's refusals of this name and width
            if name in layout:
                raise CircuitError(f"duplicate register name {name!r}")
            if offset != covered:
                raise CircuitError(f"register {name!r} must start at offset {covered}, got {offset}")
            layout[name] = width
            line_of[f"register {name}"] = lineno
            covered += width
        if covered != n_qubits:
            lineno = line_of["circuit"]
            raise CircuitError(f"registers cover {covered} qubits, header says {n_qubits}")
        circuit = new_circuit(list(layout.items()))
        if words[0] == "measure":  # all three groups, or none
            groups = []
            for group in _GROUPS:
                if words[:2] != ["measure", group]:
                    raise CircuitError(f"expected the measure {group} line")
                groups.append(tuple(map(_int, words[2:])))
                if group == "none":
                    circuit.set_measurement(*groups)
                lineno, words = next(directives)
        previous = ""  # the last table id; ids are non-empty and ascend
        while words[0] == "table":
            if len(words) != 4:
                raise CircuitError("table needs id and two widths")
            if words[1] <= previous:
                raise CircuitError(f"table {words[1]!r} does not follow table {previous!r}")
            table = DataTable(words[1], _int(words[2]), _int(words[3]), ())
            previous, entries, last = table.table_id, [], -1
            for lineno, words in directives:
                if words[0] != "row":
                    break
                if len(words) != 3:
                    raise CircuitError("row needs address and value")
                address, value = _int(words[1]), _int(words[2])
                if address <= last:  # addresses ascend, so none repeats
                    raise CircuitError(f"address {address} does not follow address {last}")
                table.check_entry(address, value)
                entries.append((address, value))
                last = address
            circuit.add_table(replace(table, entries=tuple(entries)))
        append_gate = circuit.gates.append
        step = None
        accepted: dict[str, tuple] = {}  # accepted gate line, H aside -> (gate, step)
        # An accepted flip line's space-split fields, its maskbits replaced by
        # their length -> (gate, step).
        wirings: dict[tuple, tuple] = {}
        for lineno, raw in chain(((lineno, " ".join(words)),), numbered):
            known = accepted.get(raw)
            if known is None:
                fields = raw.split(" ", 5)
                bits = fields[4] if len(fields) == 6 else ""
                if bits:
                    fields[4] = len(bits)
                    wiring = tuple(fields)
                    flip = wirings.get(wiring)
                    if flip is not None and not bits.strip("01"):
                        gate, label = flip  # that flip's wiring with these maskbits
                        known = accepted[raw] = gate.with_maskbits(bits), label
            if known is not None:
                gate, label = known
                if label is step:  # a gate of the current step joins its span
                    append_gate(gate)
                else:
                    if label != step:  # the gate opens the next span
                        line_of[f"span {len(circuit.step_starts) + 1}"] = lineno
                    circuit.add_again(gate, label)
                    step = label
                continue
            if not raw or raw[0] == "#":
                continue
            tokens = raw.split(" ")
            if tokens[0] != "gate" or len(tokens) < 4:
                raise CircuitError(f"expected a gate line, got {raw!r}")
            cls = GATES.get(tokens[2])
            if cls is None:
                raise CircuitError(f"unknown gate kind {tokens[2]!r}")
            if tokens[1] != step:
                step = tokens[1]
                circuit.begin_step(step)
                line_of[f"span {len(circuit.step_starts) + 1}"] = lineno
            gate = cls.from_tokens(tokens[3:])
            circuit.add(gate)
            if not gate.LEADING:
                accepted[raw] = (gate, step)
                if cls in _WIRED:  # its maskbits are tokens[4], so `wiring` is its own
                    wirings[wiring] = (gate, step)
        result = BuiltCircuit(circuit, **header) if built else circuit
        if built and (fault := built_fault(result)) is not None:
            # a missing step after the last span falls on the last line, skipped lines aside
            lineno = line_of.get(fault) or next(
                i for i in range(len(lines), 0, -1) if lines[i - 1][:1] not in ("", "#"))
            raise CircuitError(f"no build writes {lines[lineno - 1]!r} with this header and body")
        return result
    except CircuitError as err:
        raise CircuitError(f"line {lineno}: {err}") from None


def circuit_from_text(text: str) -> Circuit:
    """Parse the format written by circuit_to_text; raises CircuitError on any deviation."""
    return _parse(text, False)


def built_to_text(built: BuiltCircuit) -> str:
    header = ""
    for key, name, _ in _HEADER:
        value = getattr(built, name)
        header += f"{key} {'-' if value is None else value}\n"
    return header + circuit_to_text(built.circuit)


def built_from_text(text: str) -> BuiltCircuit:
    """Parse the format written by built_to_text, header checked by built_fault."""
    return _parse(text, True)
