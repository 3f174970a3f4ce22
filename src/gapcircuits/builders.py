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

Each instance class declares its problem name, its number of index
registers, its widths r and d, and the bound its circuit records.  The
steps every family shares are in `_begin` and `_finish`; each builder
holds only its own family's steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    PROBLEM = PROBLEM_OV
    INDEX_REGISTERS = 2
    bound = None

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

    @cached_property
    def r(self) -> int:
        return derive_index_width(self.n)

    @cached_property
    def d(self) -> int:
        return self.u[0].width


@dataclass(frozen=True)
class ThreeSumInstance:
    """A set of n distinct integers, each within [-bound, bound]."""

    PROBLEM = PROBLEM_3SUM
    INDEX_REGISTERS = 3

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

    @cached_property
    def r(self) -> int:
        return derive_index_width(self.n)

    @cached_property
    def d(self) -> int:
        return derive_sum_width(self.bound)


@dataclass(frozen=True)
class NwtInstance:
    """Undirected graph on vertices 1..n with integer edge weights in [-bound, bound]."""

    PROBLEM = PROBLEM_NWT
    INDEX_REGISTERS = 3

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

    @cached_property
    def r(self) -> int:
        return derive_index_width(self.n)

    @cached_property
    def d(self) -> int:
        return derive_weight_width(self.weight_bound)

    @property
    def bound(self) -> int:
        return self.weight_bound


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
    side = 1 << instance.r
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


def family_lookup(table: dict, instance: Instance):
    """The entry of a table keyed by instance class for this instance's family."""
    entry = table.get(type(instance))
    if entry is None:
        raise InstanceError(f"unknown instance type {type(instance).__name__}")
    return entry


def hadamard_count(instance: Instance) -> int:
    """Leading Hadamards of the instance's circuit in either mode, so log2 of
    its path-sum branches: r per index register."""
    family_lookup(_BUILDERS, instance)
    return instance.INDEX_REGISTERS * instance.r


def _begin(instance: Instance, mode: str, index_names: tuple[str, ...],
           data_layout: list[tuple[str, int]]):
    """Steps 1-2 of every family, and a `load(table, address, data)` that
    emits a lookup gate (qram) or the explicit loader product.

    Registers: the index registers, nmax, one flag per index, the family's
    data registers, hit and the shared ancilla.  Step 1 puts Hadamards on the
    indices and n-1 on nmax; step 2 sets flag m to [index_m > n-1], so valid
    branches keep all flags 0.
    """
    if mode not in MODES:
        raise InstanceError(f"mode must be one of {MODES}, got {mode!r}")
    r = instance.r
    circuit = new_circuit([
        *((name, r) for name in index_names), ("nmax", r), ("flags", len(index_names)),
        *data_layout, ("hit", 1), ("anc", 1),
    ])
    regs = circuit.registers
    anc = regs["anc"][0]
    nmax = regs["nmax"].qubits
    circuit.begin_step("1")
    for name in index_names:
        for q in regs[name]:
            circuit.add(H(q))
    last = instance.n - 1
    for t, q in enumerate(nmax):
        if last >> t & 1:
            circuit.add(X(q))
    circuit.begin_step("2")
    for m, name in enumerate(index_names):
        emit_comparator_gt(circuit, ArithLayout(
            ancilla=anc, a=regs[name].qubits, b=nmax, out=regs["flags"][m]))

    def load(table: DataTable, address: tuple[int, ...], data: tuple[int, ...]) -> None:
        if mode == MODE_QRAM:
            emit_qram_load(circuit, table, address, data)
        else:
            emit_loader_unitary(circuit, table, address, data, anc)

    return circuit, load


def _finish(instance: Instance, mode: str, circuit: Circuit, step: str) -> BuiltCircuit:
    """The last step's Z on hit, then flags measured in Z and all but the
    ancilla in X; checks the closed forms against the circuit."""
    regs = circuit.registers
    circuit.begin_step(step)
    circuit.add(Z(regs["hit"][0]))
    z, anc = regs["flags"].qubits, regs["anc"][0]
    x = tuple(q for q in range(circuit.n_qubits) if q not in z and q != anc)
    circuit.set_measurement(z, x, (anc,))
    built = BuiltCircuit(circuit, instance.PROBLEM, mode, instance.n, instance.r, instance.d,
                         instance.bound, denom_exponent(instance.PROBLEM, instance.r, instance.d))
    if (fault := built_fault(built)) is not None:
        raise AssertionError(f"the built circuit's {fault} disagrees with the closed forms")
    return built


def build_ov_circuit(instance: OVInstance, mode: str = MODE_QRAM) -> BuiltCircuit:
    """Circuit whose acceptance probability is gap^2 / 2^(5r+3d+1) for the
    orthogonal-pair count of the instance."""
    r, d = instance.r, instance.d
    circuit, load = _begin(instance, mode, ("i", "j"), [("ui", d), ("vj", d), ("dot", d)])
    regs = circuit.registers

    circuit.begin_step("3")
    load(DataTable.from_values("u", (bs.to_int() for bs in instance.u), r, d),
         regs["i"].qubits, regs["ui"].qubits)
    load(DataTable.from_values("v", (bs.to_int() for bs in instance.v), r, d),
         regs["j"].qubits, regs["vj"].qubits)

    circuit.begin_step("4")
    for m in range(d):
        circuit.add(Toffoli(regs["ui"][m], regs["vj"][m], regs["dot"][m]))

    circuit.begin_step("5")
    emit_equality_flag(circuit, regs["dot"].qubits, 0, regs["hit"][0], regs["anc"][0])
    return _finish(instance, mode, circuit, "6")


def build_threesum_circuit(instance: ThreeSumInstance, mode: str = MODE_QRAM) -> BuiltCircuit:
    """Circuit whose acceptance probability is gap^2 / 2^(7r+3d+4) for the
    zero-sum ordered-triple count of the instance."""
    r, d, bound = instance.r, instance.d, instance.bound
    circuit, load = _begin(instance, mode, ("i", "j", "k"),
                           [("e1", d), ("e2", d + 1), ("e3", d + 2)])
    regs = circuit.registers
    anc = regs["anc"][0]

    # Values are stored shifted by +bound so they are non-negative d-bit words;
    # a zero-sum triple is then exactly a shifted sum of 3*bound.
    circuit.begin_step("3")
    table = DataTable.from_values("e", (x + bound for x in instance.values), r, d)
    load(table, regs["i"].qubits, regs["e1"].qubits)
    load(table, regs["j"].qubits, regs["e2"].qubits[:d])
    load(table, regs["k"].qubits, regs["e3"].qubits[:d])

    circuit.begin_step("4")
    emit_adder(circuit, ArithLayout(
        ancilla=anc, a=regs["e1"].qubits, b=regs["e2"].qubits[:d], out=regs["e2"][d]))

    circuit.begin_step("5")
    emit_adder(circuit, ArithLayout(
        ancilla=anc, a=regs["e2"].qubits, b=regs["e3"].qubits[:d + 1], out=regs["e3"][d + 1]))

    circuit.begin_step("6")
    emit_equality_flag(circuit, regs["e3"].qubits, 3 * bound, regs["hit"][0], anc)
    return _finish(instance, mode, circuit, "7")


def build_nwt_circuit(instance: NwtInstance, mode: str = MODE_QRAM) -> BuiltCircuit:
    """Circuit whose acceptance probability is gap^2 / 2^(7r+4d+10) for the
    negative-triangle ordered-triple count of the instance."""
    r, d, bound = instance.r, instance.d, instance.bound
    circuit, load = _begin(instance, mode, ("x", "y", "z"), [
        ("wxy", d), ("wyz", d + 1), ("wxz", d + 2), ("eflags", 3), ("target", d + 2), ("cmp", 1),
    ])
    regs = circuit.registers
    anc = regs["anc"][0]

    # One flat table serves all three pair loads: address (a, b) -> W[a][b],
    # keyed a + (b << r), every pair stored (sentinels included).
    circuit.begin_step("3")
    w = build_w_matrix(instance)
    side = 1 << r
    entries = tuple((a + (b << r), w[a][b]) for b in range(side) for a in range(side))
    table = DataTable("w", 2 * r, d, entries)
    x, y, z = regs["x"].qubits, regs["y"].qubits, regs["z"].qubits
    load(table, x + y, regs["wxy"].qubits)
    load(table, y + z, regs["wyz"].qubits[:d])
    load(table, x + z, regs["wxz"].qubits[:d])

    # Sentinel detection must precede the adders, which overwrite the sums.
    circuit.begin_step("4")
    pattern = sentinel_value(bound)
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
    emit_equality_flag(circuit, probe, 0, regs["hit"][0], anc)
    return _finish(instance, mode, circuit, "8")


_BUILDERS = {
    OVInstance: build_ov_circuit,
    ThreeSumInstance: build_threesum_circuit,
    NwtInstance: build_nwt_circuit,
}


def build_circuit(instance: Instance, mode: str = MODE_QRAM) -> BuiltCircuit:
    return family_lookup(_BUILDERS, instance)(instance, mode)


def built_fault(built: BuiltCircuit) -> str | None:
    """The first field of `built`, in text order, that no build gives along
    with the fields before it, or None.  The mode is judged with the body's
    tables (qram loads register them, explicit loaders never do), n with
    the X gates that step 1 puts on nmax after the Hadamards, d with bound,
    which follows it, and the circuit last, against the closed forms."""
    problem, n, r, d, bound = built.problem, built.n, built.r, built.d, built.bound
    circuit = built.circuit
    cls = {family.PROBLEM: family for family in _BUILDERS}.get(problem)
    # the data width from the bound; ov has no bound, as its width is the vectors'
    width = {PROBLEM_3SUM: derive_sum_width, PROBLEM_NWT: derive_weight_width}.get(problem)
    if cls is None:
        return "problem"
    if built.mode not in MODES or (built.mode == MODE_QRAM) != bool(circuit.tables):
        return "mode"
    if n < 1 or r != derive_index_width(n):
        return "n" if n < 1 else "r"
    # step 1 ends with n-1 written into nmax, the r qubits after the h index qubits
    h = cls.INDEX_REGISTERS * r
    loads = [X(h + t) for t in range(r) if (n - 1) >> t & 1]
    first, starts = circuit.h_layer_size, circuit.step_starts
    stop = starts[1][1] if len(starts) > 1 else len(circuit.gates)
    if stop != first + len(loads) or circuit.gates[first:stop] != loads:
        return "n"
    try:
        if not ((bound is None and d >= 1) if width is None else (
                bound is not None and d == width(bound))):
            return "bound"
    except InstanceError:  # a bound its family refuses
        return "bound"
    if built.denom_exponent != denom_exponent(problem, r, d):
        return "denom_exponent"
    plan = circuit.measurement
    if plan is None or (circuit.n_qubits, circuit.h_layer_size, h + len(plan.x_qubits)) != (
            qubit_formula(problem, r, d), h, built.denom_exponent):
        return "circuit"
    return None


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
