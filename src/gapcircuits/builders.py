"""Builders for the three counting-gap circuit families.

Each circuit starts with a Hadamard layer over the index registers, range
checks the indices against n-1, loads per-index data (through a lookup gate
or an explicit loader product), evaluates the problem predicate reversibly,
and applies one Z on the predicate flag.  Measuring the range-check flags
in Z and everything else but the shared ancilla in X makes the all-zero
outcome probability exactly gap^2 / 2^k, where gap = 2*solutions - total
over the brute-force count and k is the fixed exponent below.

Problems:
  ov:    pairs (i, j) with u_i . v_j = 0 (bitwise products all zero)
  3sum:  ordered value triples summing to 0
  nwt:   ordered vertex triples forming a triangle of negative total weight
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arithmetic import ArithLayout, emit_adder, emit_comparator_ge, emit_comparator_gt
from .dataload import (
    DataTable,
    emit_equality_flag,
    emit_loader_unitary,
    emit_qram_load,
)
from .ir import BitString, Circuit, H, Toffoli, X, Z, new_circuit

PROBLEM_OV = "ov"
PROBLEM_3SUM = "3sum"
PROBLEM_NWT = "nwt"

MODE_QRAM = "qram"
MODE_EXPLICIT = "explicit"
MODES = (MODE_QRAM, MODE_EXPLICIT)


class InstanceError(ValueError):
    """Structurally invalid problem instance or instance description."""


@dataclass(frozen=True)
class OVInstance:
    """Two lists of n bit vectors of equal width d."""

    u: tuple[BitString, ...]
    v: tuple[BitString, ...]

    def __post_init__(self) -> None:
        if not self.u or len(self.u) != len(self.v):
            raise InstanceError("need two equally long, non-empty vector lists")
        widths = {bs.width for bs in self.u} | {bs.width for bs in self.v}
        if len(widths) != 1:
            raise InstanceError(f"all vectors must share one width, got {sorted(widths)}")
        if self.d < 1:
            raise InstanceError("vector width must be at least 1")

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def d(self) -> int:
        return self.u[0].width


@dataclass(frozen=True)
class ThreeSumInstance:
    """A set of n distinct integers, each within [-bound, bound]."""

    values: tuple[int, ...]
    bound: int

    def __post_init__(self) -> None:
        if not self.values:
            raise InstanceError("need at least one value")
        if self.bound < 1:
            raise InstanceError("bound must be at least 1")
        if len(set(self.values)) != len(self.values):
            raise InstanceError("values must be distinct")
        bad = [x for x in self.values if abs(x) > self.bound]
        if bad:
            raise InstanceError(f"values {bad} exceed bound {self.bound}")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class NwtInstance:
    """Undirected graph on vertices 1..n with integer edge weights in [-bound, bound]."""

    n: int
    weight_bound: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InstanceError("need at least one vertex")
        if self.weight_bound < 0:
            raise InstanceError("weight bound must be non-negative")
        seen = set()
        for i, j, w in self.edges:
            if not (1 <= i < j <= self.n):
                raise InstanceError(f"edge endpoints must satisfy 1 <= i < j <= n, got ({i}, {j})")
            if (i, j) in seen:
                raise InstanceError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            if abs(w) > self.weight_bound:
                raise InstanceError(f"edge weight {w} exceeds bound {self.weight_bound}")


Instance = OVInstance | ThreeSumInstance | NwtInstance


def derive_index_width(n: int) -> int:
    """Smallest r with n <= 2^r, floored at 1 so one-element inputs still index."""
    if n < 1:
        raise InstanceError(f"need n >= 1, got {n}")
    return max(1, (n - 1).bit_length())


def derive_sum_width(bound: int) -> int:
    """Smallest d with 2*bound <= 2^d - 1; shifted values then fit in d bits."""
    if bound < 1:
        raise InstanceError(f"need bound >= 1, got {bound}")
    return (2 * bound).bit_length()


def derive_weight_width(bound: int) -> int:
    """Smallest d with the sentinel 2*bound+1 < 2^d."""
    if bound < 0:
        raise InstanceError(f"need bound >= 0, got {bound}")
    return (2 * bound + 1).bit_length()


def sentinel_value(weight_bound: int) -> int:
    """Marker for absent edges, the diagonal, and out-of-range indices."""
    return 2 * weight_bound + 1


def build_w_matrix(instance: NwtInstance) -> tuple[tuple[int, ...], ...]:
    """Full 2^r x 2^r shifted-weight matrix over index space, sentinel elsewhere.

    Entry (i, j) is weight(i+1, j+1) + bound for an existing edge; the
    diagonal, missing edges, and indices >= n all hold the sentinel.
    """
    r = derive_index_width(instance.n)
    side = 1 << r
    sentinel = sentinel_value(instance.weight_bound)
    w = [[sentinel] * side for _ in range(side)]
    for i, j, weight in instance.edges:
        shifted = weight + instance.weight_bound
        w[i - 1][j - 1] = shifted
        w[j - 1][i - 1] = shifted
    return tuple(tuple(row) for row in w)


@dataclass(frozen=True)
class BuiltCircuit:
    """A constructed circuit plus the parameters that determine its identity."""

    circuit: Circuit
    problem: str
    mode: str
    n: int
    r: int
    d: int
    bound: int | None
    denom_exponent: int


def denom_exponent(problem: str, r: int, d: int) -> int:
    """Exponent k of the acceptance denominator 2^k."""
    if problem == PROBLEM_OV:
        return 5 * r + 3 * d + 1
    if problem == PROBLEM_3SUM:
        return 7 * r + 3 * d + 4
    if problem == PROBLEM_NWT:
        return 7 * r + 4 * d + 10
    raise InstanceError(f"unknown problem {problem!r}")


def qubit_formula(problem: str, r: int, d: int) -> int:
    """Total qubit count, shared ancilla included."""
    if problem == PROBLEM_OV:
        return 3 * r + 3 * d + 4
    if problem == PROBLEM_3SUM:
        return 4 * r + 3 * d + 8
    if problem == PROBLEM_NWT:
        return 4 * r + 4 * d + 14
    raise InstanceError(f"unknown problem {problem!r}")


def hadamard_count(instance: Instance) -> int:
    """Leading Hadamards of the instance's circuit in either mode, so log2 of
    its path-sum branches: r per index register, two registers for ov and
    three for 3sum and nwt."""
    if isinstance(instance, OVInstance):
        return 2 * derive_index_width(instance.n)
    if isinstance(instance, (ThreeSumInstance, NwtInstance)):
        return 3 * derive_index_width(instance.n)
    raise InstanceError(f"unknown instance type {type(instance).__name__}")


def instance_qubits(instance: Instance) -> int:
    """qubit_formula for the instance's circuit in either mode, without building it."""
    if isinstance(instance, OVInstance):
        return qubit_formula(PROBLEM_OV, derive_index_width(instance.n), instance.d)
    if isinstance(instance, ThreeSumInstance):
        return qubit_formula(PROBLEM_3SUM, derive_index_width(instance.n),
                             derive_sum_width(instance.bound))
    if isinstance(instance, NwtInstance):
        return qubit_formula(PROBLEM_NWT, derive_index_width(instance.n),
                             derive_weight_width(instance.weight_bound))
    raise InstanceError(f"unknown instance type {type(instance).__name__}")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InstanceError(f"mode must be one of {MODES}, got {mode!r}")


def _prepare_index_layer(circuit: Circuit, index_regs, nmax_reg, n: int) -> None:
    # Hadamards over every index register, then the constant n-1 onto nmax.
    circuit.begin_step("1")
    for reg in index_regs:
        for q in reg:
            circuit.add(H(q))
    for t, q in enumerate(nmax_reg):
        if (n - 1) >> t & 1:
            circuit.add(X(q))


def _emit_range_checks(circuit: Circuit, index_regs, nmax_reg, flags_reg, ancilla: int) -> None:
    # Flag bit m becomes [index_m > n-1]; valid branches keep all flags 0.
    circuit.begin_step("2")
    for m, reg in enumerate(index_regs):
        layout = ArithLayout(ancilla=ancilla, a=reg.qubits, b=nmax_reg.qubits, out=flags_reg[m])
        emit_comparator_gt(circuit, layout)


def _finish(instance: Instance, circuit: Circuit, built: BuiltCircuit) -> BuiltCircuit:
    plan = circuit.measurement
    assert plan is not None
    k = circuit.h_layer_size + len(plan.x_qubits)
    if k != built.denom_exponent:
        raise AssertionError(
            f"denominator exponent {built.denom_exponent} != Hadamards {circuit.h_layer_size} "
            f"+ X-measured {len(plan.x_qubits)}"
        )
    if circuit.n_qubits != qubit_formula(built.problem, built.r, built.d):
        raise AssertionError("qubit count does not match the closed formula")
    if circuit.h_layer_size != hadamard_count(instance):
        raise AssertionError("Hadamard count does not match the closed formula")
    return built


def _measure_flags_rest_x(circuit: Circuit, flags_reg, ancilla: int) -> None:
    z = flags_reg.qubits
    x = tuple(q for q in range(circuit.n_qubits) if q not in z and q != ancilla)
    circuit.set_measurement(z, x, (ancilla,))


def build_ov_circuit(instance: OVInstance, mode: str = MODE_QRAM) -> BuiltCircuit:
    """Circuit whose acceptance probability is gap^2 / 2^(5r+3d+1) for the
    orthogonal-pair count of the instance."""
    _check_mode(mode)
    n, d = instance.n, instance.d
    r = derive_index_width(n)
    circuit = new_circuit([
        ("i", r), ("j", r), ("nmax", r), ("flags", 2),
        ("ui", d), ("vj", d), ("dot", d), ("hit", 1), ("anc", 1),
    ])
    regs = circuit.registers
    anc = regs["anc"][0]
    _prepare_index_layer(circuit, (regs["i"], regs["j"]), regs["nmax"], n)
    _emit_range_checks(circuit, (regs["i"], regs["j"]), regs["nmax"], regs["flags"], anc)

    circuit.begin_step("3")
    table_u = DataTable.from_values("u", (bs.to_int() for bs in instance.u), r, d)
    table_v = DataTable.from_values("v", (bs.to_int() for bs in instance.v), r, d)
    if mode == MODE_QRAM:
        emit_qram_load(circuit, table_u, regs["i"].qubits, regs["ui"].qubits)
        emit_qram_load(circuit, table_v, regs["j"].qubits, regs["vj"].qubits)
    else:
        emit_loader_unitary(circuit, table_u, regs["i"].qubits, regs["ui"].qubits, anc)
        emit_loader_unitary(circuit, table_v, regs["j"].qubits, regs["vj"].qubits, anc)

    circuit.begin_step("4")
    for m in range(d):
        circuit.add(Toffoli(regs["ui"][m], regs["vj"][m], regs["dot"][m]))

    circuit.begin_step("5")
    emit_equality_flag(circuit, regs["dot"].qubits, BitString.from_int(0, d), regs["hit"][0], anc)

    circuit.begin_step("6")
    circuit.add(Z(regs["hit"][0]))

    _measure_flags_rest_x(circuit, regs["flags"], anc)
    return _finish(instance, circuit, BuiltCircuit(
        circuit, PROBLEM_OV, mode, n, r, d, None, denom_exponent(PROBLEM_OV, r, d)))


def build_threesum_circuit(instance: ThreeSumInstance, mode: str = MODE_QRAM) -> BuiltCircuit:
    """Circuit whose acceptance probability is gap^2 / 2^(7r+3d+4) for the
    zero-sum ordered-triple count of the instance."""
    _check_mode(mode)
    n, bound = instance.n, instance.bound
    r = derive_index_width(n)
    d = derive_sum_width(bound)
    circuit = new_circuit([
        ("i", r), ("j", r), ("k", r), ("nmax", r), ("flags", 3),
        ("e1", d), ("e2", d + 1), ("e3", d + 2), ("hit", 1), ("anc", 1),
    ])
    regs = circuit.registers
    anc = regs["anc"][0]
    index_regs = (regs["i"], regs["j"], regs["k"])
    _prepare_index_layer(circuit, index_regs, regs["nmax"], n)
    _emit_range_checks(circuit, index_regs, regs["nmax"], regs["flags"], anc)

    # Values are stored shifted by +bound so they are non-negative d-bit words;
    # a zero-sum triple is then exactly a shifted sum of 3*bound.
    circuit.begin_step("3")
    table = DataTable.from_values("e", (x + bound for x in instance.values), r, d)
    loads = (
        (regs["i"], regs["e1"].qubits),
        (regs["j"], regs["e2"].qubits[:d]),
        (regs["k"], regs["e3"].qubits[:d]),
    )
    for addr_reg, data_qubits in loads:
        if mode == MODE_QRAM:
            emit_qram_load(circuit, table, addr_reg.qubits, data_qubits)
        else:
            emit_loader_unitary(circuit, table, addr_reg.qubits, data_qubits, anc)

    circuit.begin_step("4")
    emit_adder(circuit, ArithLayout(
        ancilla=anc, a=regs["e1"].qubits, b=regs["e2"].qubits[:d], out=regs["e2"][d]))

    circuit.begin_step("5")
    emit_adder(circuit, ArithLayout(
        ancilla=anc, a=regs["e2"].qubits, b=regs["e3"].qubits[:d + 1], out=regs["e3"][d + 1]))

    circuit.begin_step("6")
    emit_equality_flag(circuit, regs["e3"].qubits, BitString.from_int(3 * bound, d + 2),
                       regs["hit"][0], anc)

    circuit.begin_step("7")
    circuit.add(Z(regs["hit"][0]))

    _measure_flags_rest_x(circuit, regs["flags"], anc)
    return _finish(instance, circuit, BuiltCircuit(
        circuit, PROBLEM_3SUM, mode, n, r, d, bound, denom_exponent(PROBLEM_3SUM, r, d)))


def build_nwt_circuit(instance: NwtInstance, mode: str = MODE_QRAM) -> BuiltCircuit:
    """Circuit whose acceptance probability is gap^2 / 2^(7r+4d+10) for the
    negative-triangle ordered-triple count of the instance."""
    _check_mode(mode)
    n, bound = instance.n, instance.weight_bound
    r = derive_index_width(n)
    d = derive_weight_width(bound)
    sentinel = sentinel_value(bound)
    circuit = new_circuit([
        ("x", r), ("y", r), ("z", r), ("nmax", r), ("flags", 3),
        ("wxy", d), ("wyz", d + 1), ("wxz", d + 2), ("eflags", 3),
        ("target", d + 2), ("cmp", 1), ("hit", 1), ("anc", 1),
    ])
    regs = circuit.registers
    anc = regs["anc"][0]
    index_regs = (regs["x"], regs["y"], regs["z"])
    _prepare_index_layer(circuit, index_regs, regs["nmax"], n)
    _emit_range_checks(circuit, index_regs, regs["nmax"], regs["flags"], anc)

    # One flat table serves all three pair loads: address (a, b) -> W[a][b],
    # keyed a + (b << r), every pair stored (sentinels included).
    circuit.begin_step("3")
    w = build_w_matrix(instance)
    side = 1 << r
    entries = tuple((a + (b << r), w[a][b]) for b in range(side) for a in range(side))
    table = DataTable("w", 2 * r, d, entries)
    x, y, z = regs["x"].qubits, regs["y"].qubits, regs["z"].qubits
    loads = (
        (x + y, regs["wxy"].qubits),
        (y + z, regs["wyz"].qubits[:d]),
        (x + z, regs["wxz"].qubits[:d]),
    )
    for address_qubits, data_qubits in loads:
        if mode == MODE_QRAM:
            emit_qram_load(circuit, table, address_qubits, data_qubits)
        else:
            emit_loader_unitary(circuit, table, address_qubits, data_qubits, anc)

    # Sentinel detection must precede the adders, which overwrite the sums.
    circuit.begin_step("4")
    pattern = BitString.from_int(sentinel, d)
    emit_equality_flag(circuit, regs["wxy"].qubits, pattern, regs["eflags"][0], anc)
    emit_equality_flag(circuit, regs["wyz"].qubits[:d], pattern, regs["eflags"][1], anc)
    emit_equality_flag(circuit, regs["wxz"].qubits[:d], pattern, regs["eflags"][2], anc)

    circuit.begin_step("5")
    emit_adder(circuit, ArithLayout(
        ancilla=anc, a=regs["wxy"].qubits, b=regs["wyz"].qubits[:d], out=regs["wyz"][d]))
    emit_adder(circuit, ArithLayout(
        ancilla=anc, a=regs["wyz"].qubits, b=regs["wxz"].qubits[:d + 1], out=regs["wxz"][d + 1]))

    # Shifted weights make "triangle weight < 0" the same as "sum < 3*bound".
    circuit.begin_step("6")
    for t, q in enumerate(regs["target"]):
        if (3 * bound) >> t & 1:
            circuit.add(X(q))
    emit_comparator_ge(circuit, ArithLayout(
        ancilla=anc, a=regs["wxz"].qubits, b=regs["target"].qubits, out=regs["cmp"][0]))

    circuit.begin_step("7")
    probe = regs["eflags"].qubits + regs["cmp"].qubits
    emit_equality_flag(circuit, probe, BitString.from_int(0, 4), regs["hit"][0], anc)

    circuit.begin_step("8")
    circuit.add(Z(regs["hit"][0]))

    _measure_flags_rest_x(circuit, regs["flags"], anc)
    return _finish(instance, circuit, BuiltCircuit(
        circuit, PROBLEM_NWT, mode, n, r, d, bound, denom_exponent(PROBLEM_NWT, r, d)))


def build_circuit(instance: Instance, mode: str = MODE_QRAM) -> BuiltCircuit:
    if isinstance(instance, OVInstance):
        return build_ov_circuit(instance, mode)
    if isinstance(instance, ThreeSumInstance):
        return build_threesum_circuit(instance, mode)
    if isinstance(instance, NwtInstance):
        return build_nwt_circuit(instance, mode)
    raise InstanceError(f"unknown instance type {type(instance).__name__}")


def hardness_time(problem: str, n_qubits: float, delta: float, *, c: float = 1.0,
                  eta: float = 0.0, weight_bound: int | None = None) -> float:
    """Classical time 2^e that simulating an N-qubit instance faster would beat.

    `c` scales the ov vector width (d = c*log n regime), `eta` the 3sum
    value range (n^(3+eta)), and `weight_bound` is the nwt weight bound.
    """
    if problem == PROBLEM_OV:
        if not 0 < delta <= 2:
            raise InstanceError(f"delta must be in (0, 2], got {delta}")
        exponent = (2 - delta) * (n_qubits - 7) / (3 * (c + 1))
    elif problem == PROBLEM_3SUM:
        if not 0 < delta <= 2:
            raise InstanceError(f"delta must be in (0, 2], got {delta}")
        exponent = (2 - delta) * (n_qubits - 18) / (13 + 3 * eta)
    elif problem == PROBLEM_NWT:
        if not 0 < delta <= 3:
            raise InstanceError(f"delta must be in (0, 3], got {delta}")
        if weight_bound is None or weight_bound < 1:
            raise InstanceError("nwt needs a positive weight_bound")
        exponent = ((3 - delta) / 4) * (
            n_qubits - 4 * math.log2(2 * weight_bound + 1) - 22)
    else:
        raise InstanceError(f"unknown problem {problem!r}")
    return 2.0 ** exponent
