"""Random circuits and a per-branch reference interpreter for kernel tests.

`random_circuit` draws circuits over the whole permutation vocabulary;
its draws can include zero-mask bitmask flips, tables with missing
addresses, and explicit loader blocks, whose X-framed bitmask flips the
path-sum lowering folds into runs.
`reference_word` runs one basis word through the gates after the
Hadamard layer, reading the IR gate fields directly, so it shares no
lowering with either simulation backend.
`step_labels` expands a circuit's step spans to one label per gate, and
`reference_tally` charges the gates to the accountant one at a time.
`reference_oracle` counts ov, 3sum and nwt solutions with the literal pair
and triple loops.
`reference_text` writes circuit text one gate line at a time.
"""

from hypothesis import strategies as st

from gapcircuits.builders import InstanceError, NwtInstance, OVInstance
from gapcircuits.dataload import DataTable, emit_loader_unitary
from gapcircuits.ir import (
    CX, VOCABULARY, H, MCBitmask, QramLoad, Toffoli, X, Z, new_circuit,
)
from gapcircuits.verification import OracleCounts

KINDS = ("X", "Z", "CX", "Toffoli", "MCBitmask", "QramLoad", "Loader")


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
        mask = data.draw(st.integers(0, (1 << n_targets) - 1))
        return MCBitmask(tuple(controls), mask, tuple(targets), order[-1])
    width = data.draw(st.integers(1, min(3, n - 1)))
    data_width = data.draw(st.integers(1, min(3, n - width)))
    addresses = data.draw(st.sets(st.integers(0, (1 << width) - 1)))
    entries = tuple((a, data.draw(st.integers(0, (1 << data_width) - 1)))
                    for a in sorted(addresses))
    table = DataTable(f"t{index}", width, data_width, entries)
    circuit.add_table(table)
    return QramLoad(tuple(order[:width]), tuple(order[width:width + data_width]), table.table_id)


def _draw_loader(data, circuit, index):
    """Append an explicit loader block on drawn address, data and ancilla qubits.

    The block is `emit_loader_unitary` on a random table, two such blocks
    back to back on the same wires (their addresses may repeat), two split
    by a Z or a CX, or a hand-built run of framed flips that repeats its
    first address, with the last frame undone or left standing.
    """
    n = circuit.n_qubits
    order = data.draw(st.permutations(range(n)))
    width = data.draw(st.integers(1, min(3, n - 2)))
    data_width = data.draw(st.integers(1, min(3, n - 1 - width)))
    address, wires = tuple(order[:width]), tuple(order[width:width + data_width])
    addresses, values = st.integers(0, (1 << width) - 1), st.integers(0, (1 << data_width) - 1)
    block = data.draw(st.sampled_from(("table", "twice", "broken", "repeat")))
    if block == "repeat":
        drawn = data.draw(st.lists(addresses, min_size=1, max_size=3))
        gates = []
        for a in (*drawn, drawn[0]):
            frame = [X(q) for j, q in enumerate(address) if not a >> j & 1]
            gates += (*frame, MCBitmask(address, data.draw(values), wires, order[-1]), *frame)
        if data.draw(st.booleans()):  # leave the last frame standing
            del gates[len(gates) - len(frame):]
        circuit.extend(gates)
        return
    for k in range(1 if block == "table" else 2):
        if k and block == "broken":
            circuit.add(_draw_gate(data, circuit, data.draw(st.sampled_from(("Z", "CX"))), index))
        table = DataTable(f"l{index}", width, data_width,
                          tuple(data.draw(st.dictionaries(addresses, values)).items()))
        emit_loader_unitary(circuit, table, address, wires, order[-1])


def step_label_lists(names):
    """Lists of one or two step labels drawn from `names`, to begin in turn.

    An equal label may be held by another str object, as the text reader
    makes them, and the first of two labels gets no gates.
    """
    label = st.sampled_from(names).flatmap(lambda s: st.sampled_from([s, s[:1] + s[1:]]))
    return st.lists(label, min_size=1, max_size=2)


def random_circuit(data, n_qubits, h, mirror=False, kinds=KINDS, steps=None):
    """H on h distinct qubits, up to 24 random permutation gates or loader blocks, a random plan.

    With `mirror`, the gates are followed by a drawn prefix of themselves in
    reverse, so the circuit undoes what that prefix computed.  With `steps`,
    a strategy of label lists such as `step_label_lists`, a list is drawn
    before each gate or block and its labels go to `begin_step` in turn;
    without it every gate is in step "body".
    """
    circuit = new_circuit([("q", n_qubits)])
    circuit.begin_step("body")

    def begin():
        if steps is not None:
            for label in data.draw(steps):
                circuit.begin_step(label)

    for q in data.draw(st.permutations(range(n_qubits)))[:h]:
        begin()
        circuit.add(H(q))
    for index, kind in enumerate(data.draw(st.lists(st.sampled_from(kinds), max_size=24))):
        begin()
        if kind == "Loader":
            _draw_loader(data, circuit, index)
        else:
            circuit.add(_draw_gate(data, circuit, kind, index))
    if mirror:
        body = circuit.gates[h:]
        begin()
        circuit.extend(body[:data.draw(st.integers(0, len(body)))][::-1])
    order = data.draw(st.permutations(range(n_qubits)))
    n_z = data.draw(st.integers(0, n_qubits))
    n_x = data.draw(st.integers(0, n_qubits - n_z))
    circuit.set_measurement(tuple(order[:n_z]), tuple(order[n_z:n_z + n_x]),
                            tuple(order[n_z + n_x:]))
    return circuit


def reference_word(circuit, word):
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
                for j, t in enumerate(gate.targets):
                    word ^= ((gate.mask >> j) & 1) << t
        else:
            address = sum(((word >> q) & 1) << j for j, q in enumerate(gate.address))
            value = circuit.tables[gate.table_id].lookup(address)
            for j, q in enumerate(gate.data):
                word ^= ((value >> j) & 1) << q
    return word, sign


def step_labels(circuit):
    """The step label of each gate, read from the spans one gate at a time."""
    starts = {start: label for label, start in circuit.step_starts}
    labels, label = [], None
    for index in range(len(circuit.gates)):
        label = starts.get(index, label)
        labels.append(label)
    return labels


def reference_tally(circuit):
    """Per-step accountant rows and the small-control flag, one gate at a time."""
    per_step = {}
    small_control = False
    for gate, step in zip(circuit.gates, step_labels(circuit)):
        if type(gate) not in VOCABULARY:
            raise InstanceError(f"unknown gate {gate!r}")
        row = per_step.setdefault(step, {})
        kind, amount, controls = gate.charge()
        if amount:
            row[kind] = row.get(kind, 0) + amount
            small_control |= 0 < controls <= 3
    return per_step, small_control


def reference_oracle(instance):
    """OracleCounts of an instance, one candidate pair or triple at a time."""
    if isinstance(instance, OVInstance):
        u = [bs.to_int() for bs in instance.u]
        v = [bs.to_int() for bs in instance.v]
        solutions = sum(1 for a in u for b in v if a & b == 0)
        return OracleCounts(solutions, instance.n ** 2)
    if isinstance(instance, NwtInstance):
        weight = {}
        for i, j, w in instance.edges:
            weight[(i, j)] = w
            weight[(j, i)] = w
        rng = range(1, instance.n + 1)
        solutions = 0
        for x in rng:
            for y in rng:
                if (x, y) not in weight:
                    continue
                for z in rng:
                    if (y, z) in weight and (x, z) in weight \
                            and weight[(x, y)] + weight[(y, z)] + weight[(x, z)] < 0:
                        solutions += 1
        return OracleCounts(solutions, instance.n ** 3)
    vals = instance.values
    solutions = sum(1 for a in vals for b in vals for c in vals if a + b + c == 0)
    return OracleCounts(solutions, instance.n ** 3)


def reference_text(circuit):
    """circuit_to_text's output, formatting every gate line afresh."""
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
    for gate, step in zip(circuit.gates, step_labels(circuit)):
        lines.append(f"gate {step} {gate.KEYWORD} {gate.text()}")
    return "\n".join(lines) + "\n"
