"""Differential test of the bit-sliced path-sum kernel and the word loop.

Random circuits over the whole permutation vocabulary run through
`simulate_pathsum` and through the per-branch interpreter of
`reference_interpreter`, which shares no lowering with the kernel.  The
path sum runs in both of its regimes: the flat one, which is one chunk,
and the support regime forced on by setting `_FLAT_MAX_H` to 0, once with
every branch variable free and once with all but two fixed per chunk, so
that up to 32 chunks add up.  A circuit whose unmeasured qubits end in
more than one state over the accepted branches must be refused, within a
chunk or across chunks.  Half the circuits end by undoing a prefix of
their gates, which the support regime turns into copies of saved columns.

`apply_gates`, the dense backend's word loop, runs random words through
random circuits against the same interpreter.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcircuits import simulator
from gapcircuits.builders import MODE_EXPLICIT, MODE_QRAM, OVInstance, build_circuit
from gapcircuits.dataload import DataTable, emit_loader_unitary, emit_qram_load
from gapcircuits.ir import CX, BitString, H, MCBitmask, X, Z, new_circuit
from gapcircuits.simulator import SimulationError, apply_gates, simulate_pathsum
from reference_interpreter import random_circuit, reference_word


def _reference_pathsum(circuit):
    """(signed_sum, n_accepted, varies) over every Hadamard branch, one at a time.

    `varies` tells whether the unmeasured qubits end in more than one state
    over the accepted branches.
    """
    plan = circuit.measurement
    h_targets = [g.target for g in circuit.gates[:circuit.h_layer_size]]
    signed_sum = n_accepted = 0
    unmeasured = set()
    for branch in range(1 << len(h_targets)):
        word = sum(((branch >> t) & 1) << q for t, q in enumerate(h_targets))
        word, sign = reference_word(circuit, word)
        if not any((word >> q) & 1 for q in plan.z_qubits):
            signed_sum += sign
            n_accepted += 1
            unmeasured.add(tuple((word >> q) & 1 for q in plan.unmeasured))
    return signed_sum, n_accepted, len(unmeasured) > 1


def _check_against_reference(data, h):
    circuit = random_circuit(data, data.draw(st.integers(max(h, 4), h + 4)), h,
                             mirror=data.draw(st.booleans()))
    signed_sum, n_accepted, varies = _reference_pathsum(circuit)
    for jobs in (1, 2):
        if varies:
            with pytest.raises(SimulationError, match="unmeasured"):
                simulate_pathsum(circuit, jobs=jobs)
            continue
        out = simulate_pathsum(circuit, jobs=jobs)
        assert (out.signed_sum, out.n_accepted, out.n_branches) == \
            (signed_sum, n_accepted, 1 << h), jobs
        assert out.p_acc * (1 << out.exponent) == signed_sum ** 2


@pytest.mark.parametrize("h", [0, 1, 5, 7])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pathsum_matches_reference_interpreter(h, data):
    _check_against_reference(data, h)


@pytest.mark.parametrize("free", [20, 2])
@pytest.mark.parametrize("h", [0, 1, 5, 7])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pathsum_support_regime_matches_reference_interpreter(h, free, data):
    # The support regime forced on at every h; with free=2 a chunk fixes
    # all but the two lowest branch variables.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_FLAT_MAX_H", 0)
        patch.setattr(simulator, "_SUPPORT_FREE_VARS", free)
        _check_against_reference(data, h)


@pytest.mark.parametrize("free", [None, 20, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_loader_runs_match_reference_interpreter(free, data):
    # Mostly loader blocks, which lower to runs: in the flat regime, and in
    # the support regime with every branch variable free or two.
    h = data.draw(st.integers(0, 6))
    circuit = random_circuit(data, data.draw(st.integers(max(h, 4), h + 4)), h,
                             kinds=("Loader", "Loader", "X", "Z", "CX"))
    signed_sum, n_accepted, varies = _reference_pathsum(circuit)
    with pytest.MonkeyPatch.context() as patch:
        if free is not None:
            patch.setattr(simulator, "_FLAT_MAX_H", 0)
            patch.setattr(simulator, "_SUPPORT_FREE_VARS", free)
        if varies:
            with pytest.raises(SimulationError, match="unmeasured"):
                simulate_pathsum(circuit)
            return
        out = simulate_pathsum(circuit)
    assert (out.signed_sum, out.n_accepted) == (signed_sum, n_accepted)


def _near_undo(between):
    """CX(0, 2) widens qubit 2 to variable 0; `between` may break the undo
    by the second CX(0, 2).  Qubit 2 is then Z-measured."""
    circuit = new_circuit([("q", 4)])
    circuit.begin_step("1")
    circuit.extend([H(0), H(1), CX(0, 2), *between, CX(0, 2), CX(1, 3)])
    circuit.set_measurement((2,), (0, 1, 3))
    return circuit


@pytest.mark.parametrize("between, undone", [
    ((), True),
    ((CX(1, 3), Z(2)), True),  # reads only
    ((X(2),), False),  # the target changed
    ((X(2), X(2)), True),  # and changed back
    ((X(0),), False),  # the control changed
    ((CX(1, 2),), False),
])
def test_undo_pairs_need_unchanged_targets_and_controls(between, undone, monkeypatch):
    circuit = _near_undo(between)
    flips = [gate.action() for gate in circuit.gates[2:]]
    pairs = simulator._undo_pairs([("flip", (op[1],), (9,)) if op[0] == "z" else op
                                   for op in flips])
    assert (pairs.get(len(between) + 1) == 0) == undone
    signed_sum, n_accepted, _ = _reference_pathsum(circuit)
    monkeypatch.setattr(simulator, "_FLAT_MAX_H", 0)
    out = simulate_pathsum(circuit)
    assert (out.signed_sum, out.n_accepted) == (signed_sum, n_accepted)


@pytest.mark.parametrize("flat_max_h", [16, 0])
def test_run_merges_repeated_patterns_by_xor(flat_max_h, monkeypatch):
    # Under the X frames the four flips fire on patterns 2, 3, 2 and 1 of
    # qubits (0, 1); the two flips of pattern 2 cancel, so branch 2 is
    # accepted along with branch 0.
    flips = [MCBitmask((0, 1), mask, (2, 3), 4) for mask in (1, 3, 1, 2)]
    circuit = new_circuit([("q", 5)])
    circuit.begin_step("1")
    circuit.extend([H(0), H(1), X(0), flips[0], X(0), flips[1], X(0), flips[2], X(0), X(1),
                    flips[3], X(1)])
    circuit.set_measurement((2, 3), (0, 1), (4,))
    assert simulator._compile_ops(circuit, start=2) == [("run", (0, 1), ((1, (3,)), (3, (2, 3))))]
    monkeypatch.setattr(simulator, "_FLAT_MAX_H", flat_max_h)
    out = simulate_pathsum(circuit)
    assert (out.signed_sum, out.n_accepted) == _reference_pathsum(circuit)[:2] == (2, 2)


def test_flip_after_a_run_is_not_its_undo(monkeypatch):
    # The run flips qubit 1 on both values of qubit 0.  The CX after it has
    # the run's controls and targets, but restoring qubit 1's column from
    # before the run would be wrong.
    circuit = new_circuit([("q", 4)])
    circuit.begin_step("1")
    circuit.extend([H(0), X(0), MCBitmask((0,), 1, (1,), 3), X(0), MCBitmask((0,), 1, (1,), 3),
                    CX(0, 1)])
    circuit.set_measurement((1,), (0,), (2, 3))
    assert simulator._compile_ops(circuit, start=1)[0][0] == "run"
    monkeypatch.setattr(simulator, "_FLAT_MAX_H", 0)
    out = simulate_pathsum(circuit)
    assert (out.signed_sum, out.n_accepted) == _reference_pathsum(circuit)[:2] == (1, 1)


# Fixed examples, one per way the run lowering or kernel can go wrong, so a
# fault there fails a test without Hypothesis: each checks both regimes
# against the per-branch reference and against counts worked out by hand.

def _loader_circuit(n_address):
    """Hadamards on the address qubits 0..n_address-1, which are X-measured;
    the next two qubits are Z-measured data and the last is an ancilla."""
    circuit = new_circuit([("a", n_address), ("d", 2), ("anc", 1)])
    circuit.begin_step("1")
    circuit.extend([H(q) for q in range(n_address)])
    circuit.set_measurement((n_address, n_address + 1), tuple(range(n_address)),
                            (n_address + 2,))
    return circuit


def _check_regime(circuit, flat_max_h, monkeypatch, expected):
    monkeypatch.setattr(simulator, "_FLAT_MAX_H", flat_max_h)
    out = simulate_pathsum(circuit)
    assert (out.signed_sum, out.n_accepted) == _reference_pathsum(circuit)[:2] == expected


@pytest.mark.parametrize("flat_max_h", [16, 0])
def test_loader_with_a_repeated_address_cancels_it(flat_max_h, monkeypatch):
    # Two loaders back to back on the same wires both store 3 at address 1,
    # so one run holds pattern 1 twice and its masks cancel: the data reads
    # 1, 0, 2, 0 at addresses 0..3, and Z(0) negates addresses 1 and 3.
    circuit = _loader_circuit(2)
    emit_loader_unitary(circuit, DataTable("u", 2, 2, ((0, 1), (1, 3))), (0, 1), (2, 3), 4)
    emit_loader_unitary(circuit, DataTable("v", 2, 2, ((1, 3), (2, 2))), (0, 1), (2, 3), 4)
    circuit.add(Z(0))
    assert [op[0] for op in simulator._compile_ops(circuit, start=2)] == ["run", "z"]
    _check_regime(circuit, flat_max_h, monkeypatch, (-2, 2))


@pytest.mark.parametrize("flat_max_h", [16, 0])
def test_body_ending_on_a_pending_frame_emits_it(flat_max_h, monkeypatch):
    # Framed flips at addresses 0 and 2 of (0, 1), with only X(1) undone:
    # X(0) is still pending when the body ends, so address qubit 0, here
    # Z-measured, reads 1 - b0.  Accepted: b0 = 1 with data 0, that is
    # addresses 1 and 3; Z(1) before the frame negates address 3.
    flips = [MCBitmask((0, 1), 1, (2, 3), 4), MCBitmask((0, 1), 2, (2, 3), 4)]
    circuit = _loader_circuit(2)
    circuit.extend([Z(1), X(0), X(1), flips[0], X(1), flips[1]])
    circuit.set_measurement((0, 2, 3), (1,), (4,))
    assert simulator._compile_ops(circuit, start=2)[-1] == ("flip", (), (0,))
    _check_regime(circuit, flat_max_h, monkeypatch, (0, 2))


def _emit_table(circuit, emit, entries):
    """One loader of `entries` from all address qubits into the data qubits."""
    n = circuit.registers["a"].width
    table = DataTable("t", n, 2, entries)
    if emit is emit_qram_load:
        emit_qram_load(circuit, table, range(n), (n, n + 1))
    else:
        emit_loader_unitary(circuit, table, range(n), (n, n + 1), n + 2)


@pytest.mark.parametrize("flat_max_h", [16, 0])
@pytest.mark.parametrize("emit", [emit_qram_load, emit_loader_unitary])
def test_run_entry_reads_a_zero_address_bit(emit, flat_max_h, monkeypatch):
    # Addresses 1 and 2 each have a 0 bit and store 1; read as 1, that bit
    # would make both fire on address 3 instead.  Accepted: addresses 0 and
    # 3, and Z(1) negates address 3.
    circuit = _loader_circuit(2)
    _emit_table(circuit, emit, ((1, 1), (2, 1)))
    circuit.add(Z(1))
    assert [op[0] for op in simulator._compile_ops(circuit, start=2)] == ["run", "z"]
    _check_regime(circuit, flat_max_h, monkeypatch, (0, 2))


@pytest.mark.parametrize("flat_max_h", [16, 0])
@pytest.mark.parametrize("emit", [emit_qram_load, emit_loader_unitary])
def test_run_patterns_share_only_their_common_prefix(emit, flat_max_h, monkeypatch):
    # Patterns 4, 5 and 7 of (0, 1, 2): 4 and 5 share their top two bits, 5
    # and 7 only the top one.  The data reads 1 at address 4, 2 at 5 and 3
    # at 7, so addresses 0-3 and 6 are accepted; Z(0) negates 1 and 3.
    circuit = _loader_circuit(3)
    _emit_table(circuit, emit, ((4, 1), (5, 2), (7, 3)))
    circuit.add(Z(0))
    assert [op[0] for op in simulator._compile_ops(circuit, start=3)] == ["run", "z"]
    _check_regime(circuit, flat_max_h, monkeypatch, (1, 5))


def _literal_widen(column, have, want):
    """Bit i over `want` is the bit of `column` at i's assignment of `have`."""
    have_vars = [t for t in range(want.bit_length()) if have >> t & 1]
    want_vars = [t for t in range(want.bit_length()) if want >> t & 1]
    out = 0
    for i in range(1 << len(want_vars)):
        value = {t: i >> j & 1 for j, t in enumerate(want_vars)}
        source = sum(value[t] << j for j, t in enumerate(have_vars))
        out |= (column >> source & 1) << i
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_widen_matches_literal_broadcast(data):
    # Up to 12 variables: runs of new ones start below and above bit 3, so
    # blocks under a byte, whole bytes and whole-column repeats all occur.
    want = data.draw(st.integers(0, (1 << 12) - 1).filter(lambda w: w.bit_count() <= 11))
    have = want & data.draw(st.integers(0, (1 << 12) - 1))
    column = data.draw(st.integers(0, (1 << (1 << have.bit_count())) - 1))
    steps = simulator._widen_steps(have, want)
    assert simulator._widen(column, steps) == _literal_widen(column, have, want)


def _ov_instance(n, d, seed):
    rng = random.Random(seed)

    def vectors():
        return tuple(BitString(tuple(rng.getrandbits(1) for _ in range(d))) for _ in range(n))
    return OVInstance(u=vectors(), v=vectors())


@pytest.mark.parametrize("mode", [MODE_QRAM, MODE_EXPLICIT])
def test_support_regime_matches_flat_on_built_circuit(mode, monkeypatch):
    circuit = build_circuit(_ov_instance(512, 4, seed=5), mode).circuit
    assert circuit.h_layer_size == 18 > simulator._FLAT_MAX_H
    ops = simulator._compile_ops(circuit, start=18)
    assert any(op[0] == "widen" for op in ops)
    out = simulate_pathsum(circuit)
    monkeypatch.setattr(simulator, "_FLAT_MAX_H", 24)
    assert simulate_pathsum(circuit) == out


@pytest.mark.parametrize("mode", [MODE_QRAM, MODE_EXPLICIT])
def test_flat_regime_keeps_the_flat_ops(mode):
    # h = 16 fills one default chunk: no op is a widen, and each op outside
    # a run is its gate's action.  Each loader, a table load or an explicit
    # one, is one run with an entry per nonzero value in address order.  A
    # load reads the address register as it stands; an explicit loader's
    # pattern is its address XOR the X frame still pending on the address
    # register (the step-2 comparator's closing X gates on j are).  A loader
    # of all-zero values emits no op.  h = 18 is above it.
    instance = _ov_instance(256, 2, seed=1)
    flat = build_circuit(instance, mode).circuit
    wide = build_circuit(_ov_instance(512, 2, seed=1), mode).circuit
    ops = simulator._compile_ops(flat, start=16)
    actions = {gate.action() for gate in flat.gates[16:]}
    assert all(op in actions for op in ops if op[0] != "run")
    regs = flat.registers
    runs = [op[1:] for op in ops if op[0] == "run"]
    assert [controls for controls, _ in runs] == [regs["i"].qubits, regs["j"].qubits]
    frames = (0, 0) if mode == MODE_QRAM else (0, 255)
    for (_, entries), data, vectors, frame in zip(runs, ("ui", "vj"), (instance.u, instance.v),
                                                  frames):
        assert entries == tuple(sorted(
            (a ^ frame, tuple(q for j, q in enumerate(regs[data]) if v.to_int() >> j & 1))
            for a, v in enumerate(vectors) if v.to_int()))
    zeros = OVInstance(u=instance.u, v=tuple(BitString((0, 0)) for _ in instance.v))
    ops = simulator._compile_ops(build_circuit(zeros, mode).circuit, start=16)
    assert [op[1] for op in ops if op[0] == "run"] == [regs["i"].qubits]
    assert any(op[0] == "widen" for op in simulator._compile_ops(wide, start=18))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_apply_gates_matches_reference_interpreter(data):
    """The dense backend's word loop, run directly on random 62-bit words."""
    circuit = random_circuit(data, data.draw(st.integers(4, 10)), 0)
    words = data.draw(st.lists(st.integers(0, (1 << 62) - 1), max_size=150))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(words),
                               max_size=len(words)))
    expected = [reference_word(circuit, w) for w in words]
    out_words, out_signs = apply_gates(circuit, np.array(words, dtype=np.int64),
                                       np.array(signs, dtype=np.int64))
    assert out_words.tolist() == [w for w, _ in expected]
    assert out_signs.tolist() == [s * r for s, (_, r) in zip(signs, expected)]


def test_pathsum_refuses_varying_unmeasured_qubits():
    # A lone H leaves qubit 0 in |+>: dense gives p_acc 1, a plain path sum 2.
    circuit = new_circuit([("q", 4)])
    circuit.begin_step("1")
    circuit.add(H(0))
    circuit.set_measurement((), (), (0, 1, 2, 3))
    with pytest.raises(SimulationError, match="unmeasured"):
        simulate_pathsum(circuit)  # the flat regime: one chunk
    for free in (0, 1):  # the support regime: across chunks, then within one
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_FLAT_MAX_H", 0)
            patch.setattr(simulator, "_SUPPORT_FREE_VARS", free)
            with pytest.raises(SimulationError, match="unmeasured"):
                simulate_pathsum(circuit)
