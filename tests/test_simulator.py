"""Path-sum and dense backends on hand-checked micro circuits and built ones."""

from fractions import Fraction

import numpy as np
import pytest

from gapcircuits import simulator
from gapcircuits.builders import MODE_EXPLICIT, MODE_QRAM, build_circuit
from gapcircuits.instancefile import generate_nwt, generate_ov, generate_threesum
from gapcircuits.ir import CX, H, X, Z, new_circuit
from gapcircuits.simulator import (
    CapExceededError,
    SimulationError,
    apply_gates,
    dense_acceptance,
    simulate_dense,
    simulate_pathsum,
)


def _bell_like():
    # H(0); CX(0,1): accepting (q1=0, q0=+) keeps only the q0=0 branch.
    circ = new_circuit([("q", 2)])
    circ.begin_step("1")
    circ.add(H(0))
    circ.add(CX(0, 1))
    circ.set_measurement(z_qubits=(1,), x_qubits=(0,))
    return circ


def test_pathsum_micro_bell():
    out = simulate_pathsum(_bell_like())
    assert (out.signed_sum, out.exponent, out.n_branches, out.n_accepted) == (1, 2, 2, 1)
    assert out.p_acc == Fraction(1, 4)


def test_pathsum_micro_minus_state():
    # H then Z leaves |->; the + outcome has probability exactly 0.
    circ = new_circuit([("q", 1)])
    circ.begin_step("1")
    circ.add(H(0))
    circ.add(Z(0))
    circ.set_measurement(z_qubits=(), x_qubits=(0,))
    out = simulate_pathsum(circ)
    assert out.signed_sum == 0
    assert out.n_accepted == 2
    assert out.p_acc == 0
    assert dense_acceptance(circ, simulate_dense(circ)) == 0


def test_dense_micro_bell():
    circ = _bell_like()
    signed = simulate_dense(circ)
    assert signed.tolist() == [[0b00, 0b11], [1, 1]]
    assert dense_acceptance(circ, signed) == Fraction(1, 4)


def test_dense_norm_preserved_on_built_circuit():
    # Every body gate permutes basis words, so the 2^h words stay distinct
    # and each keeps a sign of +-1: the state's norm is unchanged.
    built = build_circuit(generate_ov(3, 2, seed=1), MODE_EXPLICIT)
    words, signs = simulate_dense(built.circuit)
    assert len(np.unique(words)) == len(words) == 2 ** built.circuit.h_layer_size
    assert set(signs.tolist()) <= {-1, 1}


@pytest.mark.parametrize("mode", [MODE_QRAM, MODE_EXPLICIT])
def test_backends_agree_on_small_instances(mode):
    cases = [
        build_circuit(generate_ov(4, 2, seed=7), mode),
        build_circuit(generate_threesum(2, 2, seed=7), mode),  # 21 qubits, fits dense
    ]
    for built in cases:
        pathsum = simulate_pathsum(built.circuit)
        dense = dense_acceptance(built.circuit, simulate_dense(built.circuit))
        assert dense == pathsum.p_acc


def test_chunking_and_jobs_do_not_change_the_outcome(monkeypatch):
    built = build_circuit(generate_nwt(5, 2, seed=3), MODE_EXPLICIT)  # 2^9 branches
    base = simulate_pathsum(built.circuit)  # flat: one chunk
    # The support regime with two free variables: 2^7 chunks.
    monkeypatch.setattr(simulator, "_FLAT_MAX_H", 0)
    monkeypatch.setattr(simulator, "_SUPPORT_FREE_VARS", 2)
    for jobs in (1, 2, 4):
        assert simulate_pathsum(built.circuit, jobs=jobs) == base


def _wide_cx(n, hadamard):
    """H(0) if asked, then CX(0, n - 1); qubit n - 1 is Z-measured."""
    circ = new_circuit([("q", n)])
    circ.begin_step("1")
    if hadamard:
        circ.add(H(0))
    circ.add(CX(0, n - 1))
    circ.set_measurement((n - 1,), (0,), tuple(range(1, n - 1)))
    return circ


def test_word_cap():
    # apply_gates holds a basis word in an int64; the path sum keeps its cap.
    words = np.array([1, 0], dtype=np.int64)
    assert apply_gates(_wide_cx(62, False), words)[0].tolist() == [1 | 1 << 61, 0]
    assert simulate_pathsum(_wide_cx(62, True)).n_accepted == 1
    with pytest.raises(CapExceededError, match="63 qubits exceed the 62-qubit word cap"):
        apply_gates(_wide_cx(63, False), words)
    with pytest.raises(CapExceededError, match="63 qubits exceed the 62-qubit word cap"):
        simulate_pathsum(_wide_cx(63, True))


def test_branch_cap():
    built = build_circuit(generate_ov(8, 1, seed=0), MODE_QRAM)  # h = 2r = 6
    with pytest.raises(CapExceededError):
        simulate_pathsum(built.circuit, branch_cap=5)


def test_dense_branch_and_word_caps():
    built = build_circuit(generate_ov(8, 4, seed=0), MODE_QRAM)  # 25 qubits, h = 6
    assert simulate_dense(built.circuit).shape == (2, 64)
    with pytest.raises(CapExceededError, match="2\\^6 branches exceed the 2\\^5 branch cap"):
        simulate_dense(built.circuit, branch_cap=5)
    with pytest.raises(CapExceededError, match="63 qubits exceed the 62-qubit word cap"):
        simulate_dense(_wide_cx(63, True))
    assert simulate_dense(_wide_cx(62, True)).tolist() == [[0, 1 | 1 << 61], [1, 1]]


def test_dense_acceptance_marginal_cap():
    # The exact readout never marginalizes, so 21 unmeasured qubits are read
    # like any other plan: with nothing measured the probability is 1.
    circ = new_circuit([("q", 21)])
    circ.begin_step("1")
    circ.add(H(0))
    circ.add(CX(0, 1))
    circ.set_measurement((), (), tuple(range(21)))
    assert dense_acceptance(circ, simulate_dense(circ)) == 1
    circ.set_measurement((1,), (), tuple(q for q in range(21) if q != 1))
    assert dense_acceptance(circ, simulate_dense(circ)) == Fraction(1, 2)


def test_dense_acceptance_rejects_mis_sized_state():
    circ = _bell_like()  # h = 1: two words
    # wrong word counts, words without signs, and float or int32 words
    for signed in (np.zeros((2, 1), dtype=np.int64), np.zeros((2, 4), dtype=np.int64),
                   np.zeros((1, 2), dtype=np.int64), np.zeros((2, 2)),
                   np.zeros((2, 2), dtype=np.int32), np.zeros(4, dtype=np.int64)):
        with pytest.raises(SimulationError) as raised:
            dense_acceptance(circ, signed)
        assert not isinstance(raised.value, CapExceededError)


def test_dense_acceptance_overflow_boundary():
    # The |amplitudes| add up to at most 2^h, so sum(amp^2) <= 2^(2h): 2^62
    # fits int64 at h = 31, and h = 32 is refused.  The cap is checked
    # before the words, so a mis-sized array is enough.
    circ = new_circuit([("q", 33)])
    circ.begin_step("1")
    for q in range(31):
        circ.add(H(q))
    circ.set_measurement((32,), tuple(range(32)))
    with pytest.raises(SimulationError) as raised:
        dense_acceptance(circ, np.zeros((2, 1), dtype=np.int64))
    assert not isinstance(raised.value, CapExceededError)
    circ.add(H(31))
    with pytest.raises(CapExceededError, match="2\\^64"):
        dense_acceptance(circ, np.zeros((2, 1), dtype=np.int64))


def test_missing_measurement_plan():
    circ = new_circuit([("q", 1)])
    circ.begin_step("1")
    circ.add(H(0))
    with pytest.raises(SimulationError):
        simulate_pathsum(circ)
    with pytest.raises(SimulationError):
        dense_acceptance(circ, simulate_dense(circ))


def test_apply_gates_rejects_hadamards():
    circ = new_circuit([("q", 1)])
    circ.begin_step("1")
    circ.add(H(0))
    with pytest.raises(SimulationError):
        apply_gates(circ, np.zeros(1, dtype=np.int64))


def test_malformed_h_layer_detected():
    # an H recorded outside the leading layer breaks the path-sum contract
    circ = new_circuit([("q", 2)])
    circ.begin_step("1")
    circ.add(X(0))
    circ.gates.insert(1, H(1))  # bypasses add() on purpose
    circ.steps.insert(1, "1")
    circ.set_measurement((0,), (1,))
    with pytest.raises(SimulationError):
        simulate_pathsum(circ)
