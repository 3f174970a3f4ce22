"""Path-sum and dense backends on hand-checked micro circuits and built ones."""

from fractions import Fraction

import numpy as np
import pytest

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


def _unscaled_norm(state):
    """sum(state^2) of int8 counts: 2^h times the squared norm of the amplitudes."""
    return int(np.square(state, dtype=np.int64).sum())


def test_dense_micro_bell():
    circ = _bell_like()
    state = simulate_dense(circ)
    assert _unscaled_norm(state) == 2 ** circ.h_layer_size
    assert dense_acceptance(circ, state) == Fraction(1, 4)


def test_dense_norm_preserved_on_built_circuit():
    built = build_circuit(generate_ov(3, 2, seed=1), MODE_EXPLICIT)
    state = simulate_dense(built.circuit)
    assert _unscaled_norm(state) == 2 ** built.circuit.h_layer_size


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


def test_chunking_and_jobs_do_not_change_the_outcome():
    built = build_circuit(generate_nwt(5, 2, seed=3), MODE_EXPLICIT)  # 2^9 branches
    base = simulate_pathsum(built.circuit)
    for kwargs in ({"chunk_size": 7}, {"chunk_size": 64, "jobs": 4}, {"jobs": 2}):
        assert simulate_pathsum(built.circuit, **kwargs) == base


def test_branch_cap():
    built = build_circuit(generate_ov(8, 1, seed=0), MODE_QRAM)  # h = 2r = 6
    with pytest.raises(CapExceededError):
        simulate_pathsum(built.circuit, branch_cap=5)


def test_dense_cap():
    built = build_circuit(generate_ov(8, 4, seed=0), MODE_QRAM)  # 25 qubits
    with pytest.raises(CapExceededError):
        simulate_dense(built.circuit, cap=22)


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
    circ = _bell_like()
    # wrong sizes, and float amplitudes in place of int8 counts
    for state in (np.zeros(2, dtype=np.int8), np.zeros(8, dtype=np.int8), np.zeros(4)):
        with pytest.raises(SimulationError) as raised:
            dense_acceptance(circ, state)
        assert not isinstance(raised.value, CapExceededError)


def test_dense_acceptance_overflow_boundary():
    # sum(kept^2) <= 2^(n - #z + #x): 2^62 fits int64, 2^63 is refused.  Both
    # plans are checked before the state, so a one-count state is enough.
    circ = new_circuit([("q", 32)])
    circ.set_measurement((0,), tuple(range(1, 32)))
    with pytest.raises(SimulationError) as raised:
        dense_acceptance(circ, np.zeros(1, dtype=np.int8))
    assert not isinstance(raised.value, CapExceededError)
    circ.set_measurement((), tuple(range(31)), (31,))
    with pytest.raises(CapExceededError, match="2\\^63"):
        dense_acceptance(circ, np.zeros(1, dtype=np.int8))


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
