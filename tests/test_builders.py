"""Instance validation, parameter derivation, layouts, and the W matrix."""

import math

import pytest

from gapcircuits.builders import (
    InstanceError,
    MODE_EXPLICIT,
    MODE_QRAM,
    NwtInstance,
    OVInstance,
    ThreeSumInstance,
    build_circuit,
    build_w_matrix,
    denom_exponent,
    derive_index_width,
    derive_sum_width,
    derive_weight_width,
    hadamard_count,
    hardness_time,
    qubit_formula,
    sentinel_value,
)
from gapcircuits.ir import BitString, QramLoad
from gapcircuits.verification import oracle_counts


def _ov(n, d, fill=0):
    vec = BitString(tuple((fill >> j) & 1 for j in range(d)))
    return OVInstance(u=(vec,) * n, v=(vec,) * n)


def test_derive_index_width():
    assert [derive_index_width(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [1, 1, 2, 2, 3, 3, 4]
    with pytest.raises(InstanceError):
        derive_index_width(0)


def test_derive_sum_and_weight_widths():
    assert [derive_sum_width(u) for u in (1, 2, 8, 64)] == [2, 3, 5, 8]
    assert [derive_weight_width(m) for m in (0, 1, 2, 3)] == [1, 2, 3, 3]
    assert sentinel_value(3) == 7
    with pytest.raises(InstanceError):
        derive_sum_width(0)


def test_instance_validation():
    with pytest.raises(InstanceError):
        OVInstance(u=(), v=())
    with pytest.raises(InstanceError):
        OVInstance(u=(BitString((1,)),), v=(BitString((1, 0)),))
    with pytest.raises(InstanceError):
        ThreeSumInstance(values=(1, 1), bound=2)
    with pytest.raises(InstanceError):
        ThreeSumInstance(values=(3,), bound=2)
    with pytest.raises(InstanceError):
        NwtInstance(n=3, weight_bound=1, edges=((2, 1, 0),))  # needs i < j
    with pytest.raises(InstanceError):
        NwtInstance(n=3, weight_bound=1, edges=((1, 2, 0), (1, 2, 1)))
    with pytest.raises(InstanceError):
        NwtInstance(n=3, weight_bound=1, edges=((1, 2, 5),))


def test_w_matrix_shape_and_sentinels():
    inst = NwtInstance(n=3, weight_bound=2, edges=((1, 2, -2), (2, 3, 1)))
    w = build_w_matrix(inst)
    assert len(w) == 4 and all(len(row) == 4 for row in w)  # 2^r with r=2
    s = sentinel_value(2)
    assert w[0][1] == w[1][0] == 0  # -2 shifted by the bound
    assert w[1][2] == w[2][1] == 3  # +1 shifted
    assert w[0][2] == s  # absent edge
    assert all(w[i][i] == s for i in range(4))  # diagonal
    assert all(w[3][j] == s and w[j][3] == s for j in range(4))  # index >= n


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (5, 3), (8, 4)])
def test_ov_qubits_and_exponent(n, d):
    r = derive_index_width(n)
    built = build_circuit(_ov(n, d), MODE_QRAM)
    assert built.circuit.n_qubits == 3 * r + 3 * d + 4 == qubit_formula("ov", r, d)
    assert built.denom_exponent == 5 * r + 3 * d + 1 == denom_exponent("ov", r, d)


@pytest.mark.parametrize("n,bound", [(1, 1), (3, 8), (6, 64)])
def test_threesum_qubits_and_exponent(n, bound):
    values = tuple(range(-(n // 2), n - n // 2))
    built = build_circuit(ThreeSumInstance(values=values, bound=bound), MODE_QRAM)
    r, d = derive_index_width(n), derive_sum_width(bound)
    assert built.circuit.n_qubits == 4 * r + 3 * d + 8 == qubit_formula("3sum", r, d)
    assert built.denom_exponent == 7 * r + 3 * d + 4 == denom_exponent("3sum", r, d)


@pytest.mark.parametrize("n,bound", [(2, 1), (4, 2), (6, 3)])
def test_nwt_qubits_and_exponent(n, bound):
    built = build_circuit(NwtInstance(n=n, weight_bound=bound, edges=()), MODE_QRAM)
    r, d = derive_index_width(n), derive_weight_width(bound)
    assert built.circuit.n_qubits == 4 * r + 4 * d + 14 == qubit_formula("nwt", r, d)
    assert built.denom_exponent == 7 * r + 4 * d + 10 == denom_exponent("nwt", r, d)


@pytest.mark.parametrize("mode", [MODE_QRAM, MODE_EXPLICIT])
@pytest.mark.parametrize("instance", [
    _ov(1, 1), _ov(5, 3), ThreeSumInstance(values=(0,), bound=1),
    ThreeSumInstance(values=(-3, 1, 2), bound=8), NwtInstance(n=2, weight_bound=0, edges=()),
    NwtInstance(n=5, weight_bound=3, edges=((1, 2, -3),)),
])
def test_instance_qubits_counts_without_building(instance, mode):
    built = build_circuit(instance, mode)
    assert qubit_formula(instance.PROBLEM, instance.r, instance.d) == built.circuit.n_qubits
    assert hadamard_count(instance) == built.circuit.h_layer_size
    assert (instance.r, instance.d) == (built.r, built.d)
    assert (instance.PROBLEM, instance.bound) == (built.problem, built.bound)


@pytest.mark.parametrize("lookup", [build_circuit, oracle_counts, hadamard_count])
def test_lookups_refuse_foreign_objects(lookup):
    with pytest.raises(InstanceError, match="unknown instance type"):
        lookup("ov")  # a problem name is not an instance


def test_measurement_plan_partition_and_h_layer():
    built = build_circuit(_ov(3, 2), MODE_QRAM)
    circ = built.circuit
    plan = circ.measurement
    allq = sorted((*plan.z_qubits, *plan.x_qubits, *plan.unmeasured))
    assert allq == list(range(circ.n_qubits))
    assert plan.z_qubits == circ.reg("flags").qubits
    assert plan.unmeasured == (circ.reg("anc")[0],)
    assert circ.h_layer_size == 2 * derive_index_width(3)
    assert built.denom_exponent == circ.h_layer_size + len(plan.x_qubits)


def test_modes_differ_only_in_loading():
    inst = _ov(3, 2, fill=1)
    qram = build_circuit(inst, MODE_QRAM)
    explicit = build_circuit(inst, MODE_EXPLICIT)
    assert any(isinstance(g, QramLoad) for g in qram.circuit.gates)
    assert not any(isinstance(g, QramLoad) for g in explicit.circuit.gates)
    assert qram.circuit.n_qubits == explicit.circuit.n_qubits
    assert qram.denom_exponent == explicit.denom_exponent


def test_step_labels_cover_build():
    # one span per builder step, in order
    built = build_circuit(ThreeSumInstance(values=(0, 1), bound=2), MODE_QRAM)
    assert [label for label, _ in built.circuit.step_starts] == list("1234567")
    built = build_circuit(_ov(2, 1), MODE_QRAM)
    assert [label for label, _ in built.circuit.step_starts] == list("123456")
    built = build_circuit(NwtInstance(n=2, weight_bound=1, edges=((1, 2, 0),)), MODE_QRAM)
    assert [label for label, _ in built.circuit.step_starts] == list("12345678")


def test_bad_mode_rejected():
    for instance in (_ov(2, 1), ThreeSumInstance(values=(0,), bound=1),
                     NwtInstance(n=2, weight_bound=0, edges=())):
        for mode in ("dense", "bogus"):
            with pytest.raises(InstanceError, match="mode must be one of"):
                build_circuit(instance, mode)


def test_hardness_time_values():
    assert hardness_time("ov", 10, 0.5, c=1.0) == pytest.approx(2 ** 0.75)
    assert hardness_time("3sum", 31, 0.5, eta=0.0) == pytest.approx(2 ** 1.5)
    expected = 2 ** (0.5 * (30 - 4 * math.log2(3) - 22))
    assert hardness_time("nwt", 30, 1.0, weight_bound=1) == pytest.approx(expected)
    with pytest.raises(InstanceError):
        hardness_time("ov", 10, 0.0)
    with pytest.raises(InstanceError):
        hardness_time("ov", 10, 2.5)
    with pytest.raises(InstanceError):
        hardness_time("nwt", 30, 1.0)  # missing weight bound
