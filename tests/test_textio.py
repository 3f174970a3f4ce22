"""Text round-trips for circuits and built-circuit files."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcircuits.builders import MODE_EXPLICIT, MODE_QRAM, build_circuit
from gapcircuits.cli import SWEEP_CELLS
from gapcircuits.instancefile import generate, generate_nwt, generate_ov, generate_threesum
from gapcircuits.ir import CX, CircuitError, H, MCBitmask, X, Z, new_circuit
from gapcircuits.simulator import simulate_pathsum
from gapcircuits.textio import (
    built_from_text,
    built_to_text,
    circuit_from_text,
    circuit_to_text,
)
from gapcircuits.verification import render_report, verify_built
from reference_interpreter import random_circuit, reference_text, step_label_lists


@pytest.mark.parametrize("mode", [MODE_QRAM, MODE_EXPLICIT])
@pytest.mark.parametrize("make,args", [
    (generate_ov, (3, 2)), (generate_threesum, (3, 4)), (generate_nwt, (3, 1)),
])
def test_circuit_round_trip(make, args, mode):
    built = build_circuit(make(*args, seed=5), mode)
    text = circuit_to_text(built.circuit)
    back = circuit_from_text(text)
    assert back.n_qubits == built.circuit.n_qubits
    assert back.registers == built.circuit.registers
    assert back.gates == built.circuit.gates
    assert back.step_starts == built.circuit.step_starts
    assert back.tables == built.circuit.tables
    assert back.measurement == built.circuit.measurement
    assert back.h_layer_size == built.circuit.h_layer_size
    assert circuit_to_text(back) == text  # canonical form is a fixed point
    assert built_from_text(built_to_text(built)) == built


# First 16 hex digits of the sha256 of built_to_text, of render_report and
# of the sorted, indented JSON of to_dict, for each circuit of
# test_circuit_round_trip.
GOLDEN = {
    ("ov", MODE_QRAM): ("1e23d81dc13bd227", "09e3c872d6c07b54", "71eeefcc6c40c350"),
    ("ov", MODE_EXPLICIT): ("9d24056fffc273b7", "18f6820015f2f9c6", "827475dba8825284"),
    ("3sum", MODE_QRAM): ("9cb06bdee3bc82cb", "2ed8e298064f1ee9", "a07e5d7f0a471782"),
    ("3sum", MODE_EXPLICIT): ("11089714b0d7c572", "2f46c7a3d0819f90", "e8f6746d8097134d"),
    ("nwt", MODE_QRAM): ("9377a9268b486e1d", "fec65447963627bd", "7884ef71e205f4cb"),
    ("nwt", MODE_EXPLICIT): ("ce9f0971a5b55c10", "082f85fed90a6b9d", "303ad247a5162340"),
}


@pytest.mark.parametrize("mode", [MODE_QRAM, MODE_EXPLICIT])
@pytest.mark.parametrize("problem,make,args", [
    ("ov", generate_ov, (3, 2)), ("3sum", generate_threesum, (3, 4)),
    ("nwt", generate_nwt, (3, 1)),
])
def test_text_and_report_bytes_are_pinned(problem, make, args, mode):
    instance = make(*args, seed=5)
    built = build_circuit(instance, mode)
    result = verify_built(instance, built)
    texts = (built_to_text(built), render_report(result),
             json.dumps(result.to_dict(), sort_keys=True, indent=2))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()[:16] for text in texts)
    assert digests == GOLDEN[problem, mode]


@pytest.mark.parametrize("mode", [MODE_QRAM, MODE_EXPLICIT])
def test_built_round_trip_simulates_identically(mode):
    built = build_circuit(generate_threesum(4, 4, seed=9), mode)
    back = built_from_text(built_to_text(built))
    assert (back.problem, back.mode, back.n, back.r, back.d, back.bound,
            back.denom_exponent) == (built.problem, built.mode, built.n, built.r,
                                     built.d, built.bound, built.denom_exponent)
    assert simulate_pathsum(back.circuit) == simulate_pathsum(built.circuit)


def test_bound_header_dash_means_none():
    built = build_circuit(generate_ov(2, 2, seed=0), MODE_QRAM)
    text = built_to_text(built)
    assert "\nbound -\n" in text
    assert built_from_text(text).bound is None


@pytest.mark.parametrize("bad,fragment", [
    ("circuit zero", "expected integer"),
    ("circuit 2\nregister a 1 1\n", "registers cover"),
    ("circuit 1\nregister a 0 1\ngate 1 FROB 0\n", "unknown gate"),
    ("circuit 1\nregister a 0 1\ngate 1 X 0 0\n", "x takes one qubit"),
    ("circuit 2\nregister a 0 2\ngate 1 CX 0 0\n", "must differ"),
    ("circuit 2\nregister a 0 2\nmeasure z 0\nmeasure z 1\n", "repeated measure"),
    ("circuit 2\nregister a 0 2\ngate 1 QRAM t 1 0 1 1\n", "unregistered table"),
    # refusals from Circuit.add and from tables name their line too
    ("circuit 2\nregister a 0 2\ngate 1 X 9\n", "line 3: qubit index 9 out of range"),
    ("circuit 2\nregister a 0 2\ngate 1 X 0\ngate 1 H 1\n", "line 4: h gates are only allowed"),
    ("circuit 2\nregister a 0 2\ntable t 1 1\nrow 0 1\nrow 5 0\n", "line 5: address 5 out of range"),
    ("circuit 2\nregister a 0 2\ntable t 1 1\nrow 1 1\n\nrow 1 0\n", "line 6: duplicate address"),
    ("circuit 2\nregister a 0 2\ntable t 1 1\nrow 0 2\n", "line 4: value 2 does not fit in 1 bits"),
    ("circuit 2\nregister a 0 2\ntable t 1 1\nrow -1 0\n",
     "line 4: address -1 out of range for width 1"),
    ("circuit 2\nregister a 0 2\ntable t 0 1\n", "line 3: table widths must be positive"),
    ("circuit 2\nregister a 0 2\ngate 1 X 0\nregister b 2 1\n", "line 4: register line after"),
    # a late H is refused even when its line repeats an accepted leading one
    ("circuit 2\nregister a 0 2\ngate 1 H 0\ngate 1 X 1\ngate 1 H 0\n",
     "line 5: h gates are only allowed in the leading layer"),
])
def test_malformed_text_rejected(bad, fragment):
    with pytest.raises(CircuitError) as err:
        circuit_from_text(bad)
    assert fragment in str(err.value).lower()


@pytest.mark.parametrize("line,message", [
    # accepted once as MCBitmask((3,), 1, (4,), 5) and written back as "5 1 1 3 4"
    ("gate s MCB 5 100 -1 3 4", "MCB control count -1 is negative"),
    # accepted once with address (3, 4) and data (5,)
    ("gate s QRAM t -2 3 4 1 5", "QRAM address count -2 is negative"),
])
def test_negative_operand_counts_rejected(line, message):
    text = f"circuit 6\nregister q 0 6\ntable t 2 1\nrow 0 1\n{line}\n"
    with pytest.raises(CircuitError) as err:
        circuit_from_text(text)
    assert str(err.value) == f"line 5: {message}"


def test_built_header_required():
    built = build_circuit(generate_ov(2, 1, seed=1), MODE_QRAM)
    body_only = circuit_to_text(built.circuit)
    with pytest.raises(CircuitError):
        built_from_text(body_only)
    tampered = built_to_text(built).replace("exponent 9", "exponent 12")
    with pytest.raises(CircuitError):
        built_from_text(tampered)


def test_comments_and_blank_lines_ignored():
    built = build_circuit(generate_ov(2, 1, seed=3), MODE_QRAM)
    text = built_to_text(built)
    noisy = "# header comment\n\n" + text.replace("\nmode", "\n# note\nmode", 1)
    assert built_from_text(noisy).circuit.gates == built.circuit.gates


def test_built_header_values_name_their_line():
    text = built_to_text(build_circuit(generate_ov(2, 1, seed=1), MODE_QRAM))
    for bad in ("n abc", "bound x", "exponent 1.5"):
        lines = text.splitlines()
        index = next(i for i, line in enumerate(lines) if line.split()[0] == bad.split()[0])
        lines[index] = bad
        with pytest.raises(CircuitError) as err:
            built_from_text("\n".join(lines))
        assert str(err.value).startswith(f"line {index + 1}: expected integer")


def test_built_header_read_only_before_the_body():
    text = built_to_text(build_circuit(generate_ov(2, 1, seed=1), MODE_QRAM))
    header, body = text.split("circuit ", 1)
    moved = header.replace("mode qram\n", "") + "circuit " + body + "mode qram\n"
    with pytest.raises(CircuitError) as err:
        built_from_text(moved)
    assert "unknown directive 'mode'" in str(err.value)
    with pytest.raises(CircuitError) as err:
        built_from_text(text.replace("mode qram\n", "mode qram\nmode qram\n"))
    assert str(err.value).startswith("line 3: malformed built-circuit header line")


# --- a repeated gate line is parsed once --------------------------------------


def test_repeated_lines_keep_their_steps():
    circuit = new_circuit([("q", 6)])
    # a repeated line may sit between lines of another step, and the line
    # after it may share its step or not; masks are written low bit first
    high, low, zero = (MCBitmask((0,), mask, (1, 2, 3, 4), 5) for mask in (0b1000, 1, 0))
    for step, gate in (("s", H(0)), ("a", X(1)), ("b", CX(0, 2)), ("a", X(1)),
                       ("a", X(2)), ("b", CX(0, 2)), ("a", X(1)), ("b", X(1)),
                       ("c", high), ("c", low), ("a", high), ("c", zero)):
        circuit.begin_step(step)
        circuit.add(gate)
    text = circuit_to_text(circuit)
    back = circuit_from_text(text)
    assert back == circuit
    assert back.step_starts == [("s", 0), ("a", 1), ("b", 2), ("a", 3), ("b", 5), ("a", 6),
                                ("b", 7), ("c", 8), ("a", 10), ("c", 11)]
    assert [line.split()[4] for line in text.splitlines() if " MCB " in line] == [
        "0001", "1000", "0001", "0000"]
    assert circuit_to_text(back) == text


@pytest.mark.parametrize("make,args", [
    (generate_ov, (8, 3)), (generate_threesum, (5, 8)), (generate_nwt, (4, 2)),
])
def test_explicit_text_shares_one_gate_per_distinct_line(make, args):
    text = built_to_text(build_circuit(make(*args, seed=2), MODE_EXPLICIT))
    gates = built_from_text(text).circuit.gates
    gate_lines = [line for line in text.splitlines() if line.startswith("gate ")]
    assert len(gates) == len(gate_lines) > len(set(gate_lines))
    assert len({id(gate) for gate in gates}) <= len(set(gate_lines))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_with_repeated_gates(data):
    circuit = random_circuit(data, data.draw(st.integers(4, 7)), data.draw(st.integers(0, 3)))
    body = circuit.gates[circuit.h_layer_size:]
    if body:
        for index in data.draw(st.lists(st.integers(0, len(body) - 1), max_size=12)):
            circuit.begin_step(data.draw(st.sampled_from(("body", "again"))))
            circuit.add(body[index])
    assert circuit_from_text(circuit_to_text(circuit)) == circuit


# --- the writer against one formatted line per gate ---------------------------


def _writes_like_reference(circuit):
    text = circuit_to_text(circuit)
    assert text == reference_text(circuit)
    assert circuit_from_text(text) == circuit


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_text_matches_reference_on_random_circuits(data):
    # equal labels need not be one object, as when a circuit is read from text
    circuit = random_circuit(data, data.draw(st.integers(4, 7)), data.draw(st.integers(0, 3)),
                             steps=step_label_lists(["s1", "s2"]))
    _writes_like_reference(circuit)


@pytest.mark.parametrize("problem,params", [
    (problem, params) for problem, cells in SWEEP_CELLS.items() for params in cells])
def test_explicit_text_matches_reference(problem, params):
    instance = generate(problem, 11, n=params["n"], d=params.get("d"), bound=params.get("bound"))
    _writes_like_reference(build_circuit(instance, MODE_EXPLICIT).circuit)


def test_x_line_is_written_with_its_own_step():
    # X on qubit 1 ends step "a1" and starts step "b1"; a label written again
    # may be an equal str held by another object, as the parser produces it
    a, b = "a1", "b1"
    a_again, b_again = a[:1] + a[1:], b[:1] + b[1:]
    assert (a_again, b_again) == (a, b) and a_again is not a and b_again is not b
    circuit = new_circuit([("q", 3)])
    for step, gate in ((a, X(0)), (a, X(1)), (b, X(1)), (b, Z(1)), (b_again, X(1)),
                       (a_again, X(1)), (a_again, X(0))):
        circuit.begin_step(step)
        circuit.add(gate)
    _writes_like_reference(circuit)
    assert [line for line in circuit_to_text(circuit).splitlines() if " X " in line] == [
        "gate a1 X 0", "gate a1 X 1", "gate b1 X 1", "gate b1 X 1", "gate a1 X 1", "gate a1 X 0"]
    # X(True) equals X(1) but is written as it reads (Circuit.add refuses it)
    circuit.gates.append(X(True))  # joins the last step span, a1
    assert circuit_to_text(circuit) == reference_text(circuit)
    assert circuit_to_text(circuit).endswith("gate a1 X 1\ngate a1 X 0\ngate a1 X True\n")
