"""Text round-trips for circuits and built-circuit files."""

import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcircuits.builders import MODE_EXPLICIT, MODE_QRAM, build_circuit
from gapcircuits.cli import SWEEP_CELLS
from gapcircuits.dataload import DataTable
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
    # a register line is refused at its own line, the cover at the circuit line
    ("circuit 2\nregister a 1 1\n", "line 2: register 'a' must start at offset 0, got 1"),
    ("circuit 2\nregister a 0 1\n", "line 1: registers cover 1 qubits, header says 2"),
    ("circuit 1\nregister a 0 1\ngate 1 FROB 0\n", "unknown gate"),
    ("circuit 1\nregister a 0 1\ngate 1 X 0 0\n", "x takes one qubit"),
    ("circuit 2\nregister a 0 2\ngate 1 CX 0 0\n", "must differ"),
    # the measure lines are z, x, none in that order, so a repeat is out of place
    ("circuit 2\nregister a 0 2\nmeasure z 0\nmeasure z 1\n", "line 4: expected the measure x line"),
    ("circuit 2\nregister a 0 2\ngate 1 QRAM t 1 0 1 1\n", "unregistered table"),
    # refusals from Circuit.add and from tables name their line too
    ("circuit 2\nregister a 0 2\ngate 1 X 9\n", "line 3: qubit index 9 out of range"),
    ("circuit 2\nregister a 0 2\ngate 1 X 0\ngate 1 H 1\n", "line 4: h gates are only allowed"),
    ("circuit 2\nregister a 0 2\ntable t 1 1\nrow 0 1\nrow 5 0\n", "line 5: address 5 out of range"),
    # addresses ascend strictly, which rules out a repeated one
    ("circuit 2\nregister a 0 2\ntable t 1 1\nrow 1 1\n\nrow 1 0\n",
     "line 6: address 1 does not follow address 1"),
    ("circuit 2\nregister a 0 2\ntable t 1 1\nrow 0 2\n", "line 4: value 2 does not fit in 1 bits"),
    ("circuit 2\nregister a 0 2\ntable t 1 1\nrow -1 0\n", "line 4: expected integer, got '-1'"),
    ("circuit 2\nregister a 0 2\ntable t 0 1\n", "line 3: table widths must be positive"),
    ("circuit 2\nregister a 0 2\ngate 1 X 0\nregister b 2 1\n",
     "line 4: expected a gate line, got 'register b 2 1'"),
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
    ("gate s MCB 5 100 -1 3 4", "expected integer, got '-1'"),
    # accepted once with address (3, 4) and data (5,)
    ("gate s QRAM t -2 3 4 1 5", "expected integer, got '-2'"),
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
    assert str(err.value) == "line 2: expected the built-circuit header line 'mode'"
    with pytest.raises(CircuitError) as err:
        built_from_text(text.replace("mode qram\n", "mode qram\nmode qram\n"))
    assert str(err.value) == "line 3: expected the built-circuit header line 'n'"


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


@pytest.mark.parametrize("problem,params", [
    (problem, params) for problem, cells in SWEEP_CELLS.items() for params in cells])
def test_explicit_built_text_is_a_fixed_point(problem, params):
    instance = generate(problem, 6, n=params["n"], d=params.get("d"), bound=params.get("bound"))
    built = build_circuit(instance, MODE_EXPLICIT)
    text = built_to_text(built)
    back = built_from_text(text)
    assert back == built
    assert built_to_text(back) == text


def _flip_lines(*lines):
    return "circuit 6\nregister q 0 6\n" + "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("line,step,gate", [
    ("gate s MCB 5 10 2 0 1 2 3", "s", MCBitmask((0, 1), 1, (2, 3), 5)),
    ("gate t MCB 5 10 2 0 1 2 3", "t", MCBitmask((0, 1), 1, (2, 3), 5)),
    ("gate s MCB 4 10 2 0 1 2 3", "s", MCBitmask((0, 1), 1, (2, 3), 4)),
    ("gate s MCB 5 10 2 0 1 3 2", "s", MCBitmask((0, 1), 1, (3, 2), 5)),
    ("gate s MCB 5 101 1 0 1 2 3", "s", MCBitmask((0,), 5, (1, 2, 3), 5)),
])
def test_flip_line_reuses_wiring_only_when_just_its_maskbits_differ(line, step, gate):
    first = MCBitmask((0, 1), 2, (2, 3), 5)
    circuit = circuit_from_text(_flip_lines("gate s MCB 5 01 2 0 1 2 3", line))
    expected = new_circuit([("q", 6)])
    for label, flip in (("s", first), (step, gate)):
        expected.begin_step(label)
        expected.add(flip)
    assert circuit == expected
    reused = circuit.gates[1].controls is circuit.gates[0].controls
    assert reused == (line == "gate s MCB 5 10 2 0 1 2 3")


@pytest.mark.parametrize("first,line,message", [
    ("gate s MCB 5 01 2 0 1 2 3", "gate s MCB 5 011 2 0 1 2 3", "MCB wire count mismatch"),
    ("gate s MCB 5 01 2 0 1 2 3", "gate s MCB 5 1 2 0 1 2 3", "MCB wire count mismatch"),
    ("gate s MCB 5 01 2 0 1 2 3", "gate s MCB 5 0x 2 0 1 2 3", "mask must be a 0/1 string"),
    ("gate s MCB 5 01 2 0 1 2 3", "gate s MCB 5 1# 2 0 1 2 3", "mask must be a 0/1 string"),
    # an inline comment is no longer cut off
    ("gate s MCB 5 01 2 0 1 2 3", "gate s MCB 5 10 2 0 1 2 3 # note",
     "expected integer, got '#'"),
    # a tab is no separator, so 0\t1 is no maskbits
    ("gate s MCB 5 01 2 0 1 2 3", "gate s MCB 5 0\t1 3 4", "mask must be a 0/1 string"),
])
def test_flip_line_after_an_accepted_one_is_checked(first, line, message):
    assert circuit_from_text(_flip_lines(first)).gates
    with pytest.raises(CircuitError) as err:
        circuit_from_text(_flip_lines(first, line))
    assert str(err.value) == f"line 4: {message}"


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


def test_flip_wiring_is_written_with_its_own_step():
    # one wiring, and one flip object, under spans a, b and a again
    controls, targets = (0, 1), (2, 3)
    flip = MCBitmask(controls, 1, targets, 4)
    circuit = new_circuit([("q", 5)])
    for step, mask in (("a", 1), ("a", 2), ("b", 1), ("b", 3), ("a", 1), ("a", 2)):
        circuit.begin_step(step)
        circuit.add(flip if mask == 1 else MCBitmask(controls, mask, targets, 4))
    _writes_like_reference(circuit)
    assert [line.split()[1] for line in circuit_to_text(circuit).splitlines()
            if " MCB " in line] == ["a", "a", "b", "b", "a", "a"]
    # a wiring equal to the last one but holding a bool is written as it
    # reads (Circuit.add refuses it)
    circuit.gates += [MCBitmask((0, True), 2, targets, 4), MCBitmask(controls, 2, targets, True)]
    assert circuit_to_text(circuit) == reference_text(circuit)
    assert circuit_to_text(circuit).endswith(
        "gate a MCB 4 01 2 0 True 2 3\ngate a MCB True 01 2 0 1 2 3\n")
    # a float mask equal to a written int mask is not written from the cache
    circuit.gates.append(MCBitmask(controls, 2.0, targets, 4))
    for write in (circuit_to_text, reference_text):
        with pytest.raises(ValueError):
            write(circuit)


# --- the reader accepts only what the writer writes ----------------------------

_SMALL = ("circuit 3\nregister a 0 2\nregister b 2 1\nmeasure z 2\nmeasure x 0 1\nmeasure none\n"
          "table t 1 1\nrow 0 1\nrow 1 0\ngate 1 H 0\ngate 2 QRAM t 1 0 1 2\ngate 2 MCB 1 1 1 0 2\n")


def test_small_text_is_a_fixed_point():
    assert circuit_to_text(circuit_from_text(_SMALL)) == _SMALL


@pytest.mark.parametrize("old,new,message", [
    ("circuit 3", "circuit +3", "line 1: expected integer, got '+3'"),
    ("register b 2 1", "register b 02 1", "line 3: expected integer, got '02'"),
    ("circuit 3", "circuit 0_3", "line 1: expected integer, got '0_3'"),
    ("gate 1 H 0", "gate 1 H -0", "line 10: expected integer, got '-0'"),
    ("gate 1 H 0", "gate 1 H ０", "line 10: expected integer, got '０'"),
    ("register b 2 1", "register b ٢ 1", "line 3: expected integer, got '٢'"),
    ("gate 1 H 0", "gate 1 H\t0", "line 10: expected a gate line, got 'gate 1 H\\t0'"),
    ("gate 1 H 0", "gate 1 H  0", "line 10: H takes one qubit"),
    ("gate 1 H 0", "gate 1 H 0 # note", "line 10: H takes one qubit"),
    ("row 0 1", "row 0 1#", "line 8: expected integer, got '1#'"),
    ("gate 1 H 0", "gate  ０  H  0", "line 10: unknown gate kind '０'"),
    ("gate 1 H 0", "gate\t 1 H 0", "line 10: expected a gate line, got 'gate\\t 1 H 0'"),
    ("gate 1 H 0", "gate 1 H ٣", "line 10: expected integer, got '٣'"),
    pytest.param("circuit 3", "circuit " + "9" * 5000,
                 f"line 1: expected integer, got '{'9' * 5000}'", id="more-digits-than-int-reads"),
    ("gate 2 MCB 1 1 1 0 2", "gate 2 MCB 1 1 1 0\t2", "line 12: expected integer, got '0\\t2'"),
    ("gate 2 MCB 1 1 1 0 2", "gate 2 MCB 1  1 1 0 2", "line 12: mask must be a 0/1 string"),
    ("gate 1 H 0\n", "gate 1 H 0\n   \n", "line 11: expected a gate line, got '   '"),
    ("register b 2 1\n", "register b 2 1\n \n", "line 4: expected a gate line, got ' '"),
    ("gate 1 H 0", " gate 1 H 0", "line 10: expected a gate line, got ' gate 1 H 0'"),
    ("circuit 3\nregister a 0 2", "register a 0 2\ncircuit 3", "line 1: expected the circuit line"),
    ("\n", "\x85", "line 1: expected the circuit line"),
    # each register line is checked as it is read, and refused at its own line
    ("register a 0 2\nregister b 2 1", "register b 2 1\nregister a 0 2",
     "line 2: register 'b' must start at offset 0, got 2"),
    ("register b 2 1", "register b 3 1", "line 3: register 'b' must start at offset 2, got 3"),
    ("register b 2 1", "register b 2 0", "line 3: register 'b' must have positive width, got 0"),
    ("register b 2 1", "register a 2 1", "line 3: duplicate register name 'a'"),
    ("register b 2 1", "register b\t 2 1",
     "line 3: register name must be non-empty and without whitespace: 'b\\t'"),
    ("circuit 3", "circuit 4", "line 1: registers cover 3 qubits, header says 4"),
    ("measure z 2\nmeasure x 0 1", "measure x 0 1\nmeasure z 2",
     "line 4: expected the measure z line"),
    ("measure none\n", "", "line 6: expected the measure none line"),
    ("row 0 1\nrow 1 0", "row 1 0\nrow 0 1", "line 9: address 0 does not follow address 1"),
    ("row 1 0\n", "row 1 0\ntable t 1 1\n", "line 10: table 't' does not follow table 't'"),
    ("table t 1 1\n", "table u 1 1\ntable t 1 1\n", "line 8: table 't' does not follow table 'u'"),
    ("measure z 2\nmeasure x 0 1\nmeasure none\ntable t 1 1\nrow 0 1\nrow 1 0\n",
     "table t 1 1\nrow 0 1\nrow 1 0\nmeasure z 2\nmeasure x 0 1\nmeasure none\n",
     "line 7: expected a gate line, got 'measure z 2'"),
    ("gate 1 H 0\n", "gate 1 H 0\nrow 1 1\n", "line 11: expected a gate line, got 'row 1 1'"),
])
def test_refused_spellings(old, new, message):
    assert old in _SMALL
    with pytest.raises(CircuitError) as err:
        circuit_from_text(_SMALL.replace(old, new, 1))
    assert str(err.value) == message


_OV_TEXT = built_to_text(build_circuit(generate_ov(3, 2, seed=1), MODE_QRAM))


@pytest.mark.parametrize("read,text,message", [
    (circuit_from_text, _SMALL, "line 1: expected integer, got '3\\r'"),
    (built_from_text, _OV_TEXT, "line 3: expected integer, got '3\\r'"),
])
def test_crlf_line_ends_are_refused(read, text, message):
    with pytest.raises(CircuitError) as err:
        read(text.replace("\n", "\r\n"))
    assert str(err.value) == message


@pytest.mark.parametrize("old,new,message", [
    # the header lines come first, in _HEADER order, spelled as written
    ("problem ov\nmode qram\n", "mode qram\nproblem ov\n",
     "line 1: expected the built-circuit header line 'problem'"),
    ("n 3\n", "n 03\n", "line 3: expected integer, got '03'"),
    ("index_width 2\n", "index_width ٢\n", "line 4: expected integer, got '٢'"),
    ("bound -\n", "bound  -\n", "line 6: expected the built-circuit header line 'bound'"),
    # each value must be one that a build writes with the lines before it
    ("problem ov\n", "problem banana\n", "line 1: no build writes 'problem banana' with this "
     "header and body"),
    ("mode qram\n", "mode fast\n", "line 2: no build writes 'mode fast' with this header and "
     "body"),
    ("n 3\n", "n 0\n", "line 3: no build writes 'n 0' with this header and body"),
    # the mode must fit the body's tables, and n the X gates that load n-1 into nmax
    ("mode qram\n", "mode explicit\n", "line 2: no build writes 'mode explicit' with this "
     "header and body"),
    ("n 3\n", "n 4\n", "line 3: no build writes 'n 4' with this header and body"),
    ("n 3\n", "n 7\n", "line 4: no build writes 'index_width 2' with this header and body"),
    ("index_width 2\n", "index_width 9\n", "line 4: no build writes 'index_width 9' with this "
     "header and body"),
    ("data_width 2\n", "data_width 0\n", "line 6: no build writes 'bound -' with this header "
     "and body"),
    ("bound -\n", "bound 3\n", "line 6: no build writes 'bound 3' with this header and body"),
    ("exponent 17\n", "exponent 18\n", "line 7: no build writes 'exponent 18' with this header "
     "and body"),
    ("data_width 2\n", "data_width 3\n", "line 7: no build writes 'exponent 17' with this "
     "header and body"),
    # the body must have the closed forms' qubits, Hadamards and X-measured qubits
    ("gate 1 H 3\n", "", "line 8: no build writes 'circuit 16' with this header and body"),
    # and the family's registers and steps, one span per step
    ("register nmax 4 2\n", "register foo 4 2\n", "line 11: no build writes "
     "'register foo 4 2' with this header and body"),
    ("register i 0 2\nregister j 2 2\n", "register i 0 1\nregister j 1 3\n", "line 9: no "
     "build writes 'register i 0 1' with this header and body"),
    ("\ngate 2 ", "\ngate 9 ", "line 34: no build writes 'gate 9 X 15' with this header and "
     "body"),
    ("gate 6 Z 14\n", "gate 5 Z 14\n", "line 83: no build writes 'gate 5 Z 14' with this "
     "header and body"),
    # a step that comes back, its span opened by a line read before
    ("gate 3 QRAM u 2 0 1 2 8 9\n", "gate 3 QRAM u 2 0 1 2 8 9\ngate 2 X 0\n", "line 75: no "
     "build writes 'gate 2 X 0' with this header and body"),
])
def test_built_header_must_fit_its_body(old, new, message):
    assert old in _OV_TEXT
    with pytest.raises(CircuitError) as err:
        built_from_text(_OV_TEXT.replace(old, new))  # every occurrence
    assert str(err.value) == message


@pytest.mark.parametrize("problem,bad", [
    ("3sum", "bound 0"), ("3sum", "bound -"), ("3sum", "bound 9"), ("nwt", "bound -"),
    ("nwt", "bound 8"),
])
def test_built_header_data_width_must_fit_the_bound(problem, bad):
    instance = generate(problem, 1, n=3, bound=4 if problem == "3sum" else 1)
    lines = built_to_text(build_circuit(instance, MODE_QRAM)).split("\n")
    assert lines[5].startswith("bound ")
    lines[5] = bad
    with pytest.raises(CircuitError) as err:
        built_from_text("\n".join(lines))
    assert str(err.value) == f"line 6: no build writes {bad!r} with this header and body"


@pytest.mark.parametrize("name", ["a b", "", "a\tb", "a\n"])
def test_names_the_text_carries_must_be_writable(name):
    with pytest.raises(CircuitError, match="register name must be non-empty and without "
                                           "whitespace"):
        new_circuit([(name, 1)])
    with pytest.raises(CircuitError, match="table id must be non-empty and without whitespace"):
        DataTable(name, 1, 1, ())
    circuit = new_circuit([("q#1", 1)])  # any other name is written and read back
    circuit.add_table(DataTable("#t", 1, 1, ((0, 1),)))
    assert circuit_from_text(circuit_to_text(circuit)) == circuit


# A seeded mutation fuzzer: token edits, and line swaps, deletions and
# duplications, applied to the build text of every sweep shape in both modes.
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_TOKEN_EDITS = (
    lambda token: "+" + token, lambda token: "0" + token,
    lambda token: token[:1] + "_" + token[1:], lambda token: "-" + token,
    lambda token: token.translate(_FULLWIDTH), lambda token: token.translate(_ARABIC_INDIC),
    lambda token: "#" + token, lambda token: token + " # note",
)


_MUTANTS = 200  # per text


def _mutate(rng, lines):
    lines = list(lines)
    first_gate = next(i for i, line in enumerate(lines) if line.startswith("gate "))
    for _ in range(rng.choice((1, 1, 2))):
        # half the edits fall on the header and sections before the gates
        i = rng.randrange(first_gate + 1 if rng.random() < 0.5 else len(lines) - 1)
        kind = rng.randrange(len(_TOKEN_EDITS) + 5)
        if kind < len(_TOKEN_EDITS) + 2:  # a token edit, or a tab or two spaces before it
            tokens = lines[i].split(" ")
            j = rng.randrange(len(tokens))
            if kind < len(_TOKEN_EDITS):
                tokens[j] = _TOKEN_EDITS[kind](tokens[j])
                lines[i] = " ".join(tokens)
            else:
                separator = "\t" if kind == len(_TOKEN_EDITS) else "  "
                lines[i] = " ".join(tokens[:j]) + separator + " ".join(tokens[j:])
        elif kind == len(_TOKEN_EDITS) + 2:
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif kind == len(_TOKEN_EDITS) + 3:
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines)


def _kept(text):
    """The lines the reader does not skip."""
    return [line for line in text.split("\n") if line and not line.startswith("#")]


@pytest.mark.parametrize("mode", [MODE_QRAM, MODE_EXPLICIT])
@pytest.mark.parametrize("problem,params", [
    (problem, params) for problem, cells in SWEEP_CELLS.items() for params in cells])
def test_mutated_text_is_refused_or_read_back_the_same(problem, params, mode):
    instance = generate(problem, 3, n=params["n"], d=params.get("d"), bound=params.get("bound"))
    lines = built_to_text(build_circuit(instance, mode)).split("\n")
    rng = random.Random(f"{problem} {sorted(params.items())} {mode}")
    faults = []
    for _ in range(_MUTANTS):
        text = _mutate(rng, lines)
        try:
            back = built_to_text(built_from_text(text))
        except CircuitError as err:
            if not re.match(r"line \d+: ", str(err)):
                faults.append(f"refused without a line number: {err}")
        else:
            if _kept(back) != _kept(text):
                faults.append(f"accepted but not read back the same: {text[:60]!r}")
    assert not faults, f"{len(faults)} of {_MUTANTS} mutants: {faults[:3]}"
