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

Each instance class is its family's one declaration: problem name,
registers, widths, qubit count and exponent as literal (r, d, 1)
coefficients, loads and the budgets of its own steps; `FAMILIES` finds
it by problem name.  The steps every family shares are in `_begin` and
`_finish`; each builder holds only its own family's steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest

from .arithmetic import ArithLayout, emit_adder, emit_comparator_ge, emit_comparator_gt
from .dataload import (
    DataTable,
    emit_equality_flag,
    emit_loader_unitary,
    emit_qram_load,
)
from .ir import BitString, Circuit, H, Toffoli, X, Z, mcx_toffoli_cost, new_circuit

PROBLEM_OV = "ov"
PROBLEM_3SUM = "3sum"
PROBLEM_NWT = "nwt"

MODE_QRAM = "qram"
MODE_EXPLICIT = "explicit"
MODES = (MODE_QRAM, MODE_EXPLICIT)


class InstanceError(ValueError):
    """Structurally invalid problem instance or instance description."""


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


class _Family:
    """What every family derives alike from its declaration."""

    @cached_property
    def r(self) -> int:
        return derive_index_width(self.n)

    @cached_property
    def d(self) -> int:
        return self.WIDTH(self.bound)

    @classmethod
    def registers(cls, r: int, d: int) -> list[tuple[str, int]]:
        """(name, width) in order: the index registers, nmax, one flag per
        index, the family's data registers, hit and the shared ancilla."""
        return [*((name, r) for name in cls.INDEX), ("nmax", r), ("flags", len(cls.INDEX)),
                *cls.data_registers(d), ("hit", 1), ("anc", 1)]


@dataclass(frozen=True)
class OVInstance(_Family):
    """Two lists of n bit vectors of equal width d."""

    PROBLEM = PROBLEM_OV
    INDEX = ("i", "j")
    QUBITS = (3, 3, 4)  # N = 3r + 3d + 4
    EXPONENT = (5, 3, 1)  # k = 5r + 3d + 1
    WIDTH = None  # d is the vectors' width, so no bound derives it
    LOADS, PAIR_LOADS = 2, False  # u and v, each an n-row table on r address bits
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
    def d(self) -> int:
        return self.u[0].width

    @staticmethod
    def data_registers(d: int) -> tuple[tuple[str, int], ...]:
        return ("ui", d), ("vj", d), ("dot", d)

    @staticmethod
    def step_budgets(d: int) -> tuple[dict[str, int], ...]:
        """Steps 4-5: the bitwise products, then the test dot == 0."""
        return {"CCX": d}, {"X": 2 * d, "CCX": mcx_toffoli_cost(d)}


@dataclass(frozen=True)
class ThreeSumInstance(_Family):
    """A set of n distinct integers, each within [-bound, bound]."""

    PROBLEM = PROBLEM_3SUM
    INDEX = ("i", "j", "k")
    QUBITS = (4, 3, 8)  # N = 4r + 3d + 8
    EXPONENT = (7, 3, 4)  # k = 7r + 3d + 4
    WIDTH = staticmethod(derive_sum_width)
    LOADS, PAIR_LOADS = 3, False  # one n-row value table on r address bits, loaded thrice

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

    @staticmethod
    def data_registers(d: int) -> tuple[tuple[str, int], ...]:
        return ("e1", d), ("e2", d + 1), ("e3", d + 2)

    @staticmethod
    def step_budgets(d: int) -> tuple[dict[str, int], ...]:
        """Steps 4-6: the two adders, then the test sum == 3*bound."""
        return ({"CX": 4 * d + 1, "CCX": 2 * d}, {"CX": 4 * d + 5, "CCX": 2 * d + 2},
                {"X": 2 * d + 4, "CCX": mcx_toffoli_cost(d + 2)})


@dataclass(frozen=True)
class NwtInstance(_Family):
    """Undirected graph on vertices 1..n with integer edge weights in [-bound, bound]."""

    PROBLEM = PROBLEM_NWT
    INDEX = ("x", "y", "z")
    QUBITS = (4, 4, 14)  # N = 4r + 4d + 14
    EXPONENT = (7, 4, 10)  # k = 7r + 4d + 10
    WIDTH = staticmethod(derive_weight_width)
    LOADS, PAIR_LOADS = 3, True  # one table of every index pair, 4^r rows on 2r address bits

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

    @property
    def bound(self) -> int:
        return self.weight_bound

    @staticmethod
    def data_registers(d: int) -> tuple[tuple[str, int], ...]:
        return (("wxy", d), ("wyz", d + 1), ("wxz", d + 2), ("eflags", 3), ("target", d + 2),
                ("cmp", 1))

    @staticmethod
    def step_budgets(d: int) -> tuple[dict[str, int], ...]:
        """Steps 4-7: the sentinel flags, the two adders, the comparison
        with 3*bound, then the test that no flag is set."""
        cost = mcx_toffoli_cost
        return ({"X": 6 * d, "CCX": 3 * cost(d)}, {"CX": 8 * d + 6, "CCX": 4 * d + 2},
                {"X": 3 * d + 8, "CX": 4 * d + 9, "CCX": 2 * d + 4}, {"X": 8, "CCX": 10})


Instance = OVInstance | ThreeSumInstance | NwtInstance


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


class _Families(dict):
    """Problem name -> instance class; a name of no family is refused."""

    def __missing__(self, problem: str):
        raise InstanceError(f"unknown problem {problem!r}")


FAMILIES = _Families((cls.PROBLEM, cls) for cls in (OVInstance, ThreeSumInstance, NwtInstance))


def denom_exponent(problem: str, r: int, d: int) -> int:
    """Exponent k of the acceptance denominator 2^k."""
    a, b, c = FAMILIES[problem].EXPONENT
    return a * r + b * d + c


def qubit_formula(problem: str, r: int, d: int) -> int:
    """Total qubit count, shared ancilla included."""
    a, b, c = FAMILIES[problem].QUBITS
    return a * r + b * d + c


def step_gate_bounds(problem: str, mode: str, n: int, r: int, d: int) -> dict[str, dict[str, int]]:
    """Per-step budgets the builders must stay within, keys in gate-table order.

    Steps 1-3 and the final Z are every family's, as `_begin`, `load` and
    `_finish` emit them once; the steps between are the family's own
    `step_budgets`.  Multi-controlled flips are charged mcx_toffoli_cost,
    which is the asymptotic 8(k-3) for k >= 4 and the documented
    small-control costs below that.
    """
    family = FAMILIES[problem]
    m, loads, cost = len(family.INDEX), family.LOADS, mcx_toffoli_cost
    rows, width = (1 << 2 * r, 2 * r) if family.PAIR_LOADS else (n, r)
    steps = [
        {"H": m * r, "X": r},
        {"X": m * (2 * r + 3), "CX": m * (4 * r + 1), "CCX": 2 * m * r},
        {"QRAM": loads} if mode == MODE_QRAM else
        {"X": 2 * loads * rows * width, "CCX": loads * rows * d * cost(width)},
        *family.step_budgets(d),
        {"Z": 1},
    ]
    return {str(step): row for step, row in enumerate(steps, start=1)}


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
    return len(instance.INDEX) * instance.r


def _begin(instance: Instance, mode: str):
    """Steps 1-2 of every family on the family's `registers`, and a
    `load(table, address, data)` that emits a lookup gate (qram) or the
    explicit loader product.

    Step 1 puts Hadamards on the index registers and n-1 on nmax; step 2
    sets flag m to [index_m > n-1], so valid branches keep all flags 0.
    """
    if mode not in MODES:
        raise InstanceError(f"mode must be one of {MODES}, got {mode!r}")
    circuit = new_circuit(instance.registers(instance.r, instance.d))
    regs = circuit.registers
    anc = regs["anc"][0]
    nmax = regs["nmax"].qubits
    circuit.begin_step("1")
    for name in instance.INDEX:
        for q in regs[name]:
            circuit.add(H(q))
    last = instance.n - 1
    for t, q in enumerate(nmax):
        if last >> t & 1:
            circuit.add(X(q))
    circuit.begin_step("2")
    for m, name in enumerate(instance.INDEX):
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
    ancilla in X; checks the circuit against its family's declaration."""
    regs = circuit.registers
    circuit.begin_step(step)
    circuit.add(Z(regs["hit"][0]))
    z, anc = regs["flags"].qubits, regs["anc"][0]
    x = tuple(q for q in range(circuit.n_qubits) if q not in z and q != anc)
    circuit.set_measurement(z, x, (anc,))
    built = BuiltCircuit(circuit, instance.PROBLEM, mode, instance.n, instance.r, instance.d,
                         instance.bound, denom_exponent(instance.PROBLEM, instance.r, instance.d))
    if (fault := built_fault(built)) is not None:
        raise AssertionError(f"the built circuit's {fault} disagrees with its family's declaration")
    return built


def build_ov_circuit(instance: OVInstance, mode: str = MODE_QRAM) -> BuiltCircuit:
    """Circuit whose acceptance probability is gap^2 / 2^(5r+3d+1) for the
    orthogonal-pair count of the instance."""
    r, d = instance.r, instance.d
    circuit, load = _begin(instance, mode)
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
    circuit, load = _begin(instance, mode)
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
    circuit, load = _begin(instance, mode)
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
    which follows it, and the circuit against the closed forms.  Then each
    register (`register <name>`) must be the family's `registers`, and the
    step spans the steps of `step_gate_bounds`, in order, one span per
    step: `span <k>` names the k-th span, or the one past the last when a
    step is missing."""
    problem, n, r, d, bound = built.problem, built.n, built.r, built.d, built.bound
    circuit = built.circuit
    family = FAMILIES.get(problem)
    if family is None:
        return "problem"
    if built.mode not in MODES or (built.mode == MODE_QRAM) != bool(circuit.tables):
        return "mode"
    if n < 1 or r != derive_index_width(n):
        return "n" if n < 1 else "r"
    # step 1 ends with n-1 written into nmax, the r qubits after the h index qubits
    h = len(family.INDEX) * r
    loads = [X(h + t) for t in range(r) if (n - 1) >> t & 1]
    first, starts = circuit.h_layer_size, circuit.step_starts
    stop = starts[1][1] if len(starts) > 1 else len(circuit.gates)
    if stop != first + len(loads) or circuit.gates[first:stop] != loads:
        return "n"
    try:
        if not ((bound is None and d >= 1) if family.WIDTH is None else (
                bound is not None and d == family.WIDTH(bound))):
            return "bound"
    except InstanceError:  # a bound its family refuses
        return "bound"
    if built.denom_exponent != denom_exponent(problem, r, d):
        return "denom_exponent"
    plan = circuit.measurement
    if plan is None or (circuit.n_qubits, circuit.h_layer_size, h + len(plan.x_qubits)) != (
            qubit_formula(problem, r, d), h, built.denom_exponent):
        return "circuit"
    # both layouts cover the closed-form qubits, so they differ within the shorter
    for reg, expected in zip(circuit.registers.values(), family.registers(r, d)):
        if (reg.name, reg.width) != expected:
            return f"register {reg.name}"
    steps = step_gate_bounds(problem, built.mode, n, r, d)
    for k, (span, step) in enumerate(zip_longest(starts, steps), start=1):
        if span is None or span[0] != step:
            return f"span {k}"
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
