"""Brute-force oracles and exact verification of the acceptance identity.

For each problem the oracle counts solutions s among `total` candidates
exhaustively, from the instance alone and never from the circuit, giving
gap = 2s - total.  The ov and 3sum counts enumerate distinct values with
their multiplicities, and the nwt count tests only the common neighbours
of each edge; `tests/reference_interpreter.py` keeps the literal pair and
triple loops to test them against.  Verification simulates the
built circuit with the exact path-sum backend and demands

    p_acc == gap^2 / 2^k

as a rational-number equality, plus |signed_sum| == |gap|, the closed-form
qubit count, and per-step gate budgets.  The dense backend can be added as
an independent cross-check whose exact p_acc must equal the path sum's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import is_

from .builders import (
    BuiltCircuit,
    Instance,
    InstanceError,
    NwtInstance,
    OVInstance,
    ThreeSumInstance,
    build_circuit,
    denom_exponent,
    family_lookup,
    hadamard_count,
    qubit_formula,
    PROBLEM_3SUM,
    PROBLEM_NWT,
    PROBLEM_OV,
    MODE_QRAM,
)
from .ir import _CHARGED, VOCABULARY, BitString, mcx_toffoli_cost
from .simulator import (
    BRANCH_CAP_DEFAULT,
    SimOutcome,
    check_branch_cap,
    dense_acceptance,
    simulate_dense,
    simulate_pathsum,
)

# The dense p_acc is an exact Fraction that must equal the path sum's.  The
# two bounds are checked as well and reported: DENSE_TOLERANCE alone would
# accept almost anything far below it (nwt reaches 8e-11), while at the
# scale of the exact numerator, p * 2^k against signed_sum^2, the second
# also ties p_acc to the outcome's own signed_sum and exponent.
DENSE_TOLERANCE = 1e-9
DENSE_SCALED_TOLERANCE = 1e-6


@dataclass(frozen=True)
class OracleCounts:
    solutions: int
    total: int

    @property
    def gap(self) -> int:
        return 2 * self.solutions - self.total


def oracle_ov(instance: OVInstance) -> OracleCounts:
    """Count pairs (i, j) whose vectors have no common 1 bit.

    Every pair of distinct vector values is tested, weighted by how often
    each value occurs.
    """
    u = Counter(map(BitString.to_int, instance.u))
    v = Counter(map(BitString.to_int, instance.v))
    solutions = sum([m * k for a, m in u.items() for b, k in v.items() if a & b == 0])
    return OracleCounts(solutions, instance.n ** 2)


def oracle_threesum(instance: ThreeSumInstance) -> OracleCounts:
    """Count ordered triples (with repetition) of values summing to zero.

    Each ordered pair (a, b) completes to as many triples as there are
    values equal to -(a + b).
    """
    vals = instance.values
    count = Counter(vals)
    solutions = sum([count.get(-(a + b), 0) for a in vals for b in vals])
    return OracleCounts(solutions, instance.n ** 3)


def oracle_nwt(instance: NwtInstance) -> OracleCounts:
    """Count ordered vertex triples forming a triangle of negative total weight.

    Works straight off the edge list, not the circuit's matrix encoding:
    all three edges must exist (which rules out repeated vertices) and the
    plain weights must sum below zero.  So for each ordered edge (x, y)
    only the common neighbours z of x and y are tested.
    """
    weight = {}
    neighbours: dict[int, set[int]] = {}
    for i, j, w in instance.edges:
        weight[i, j] = weight[j, i] = w
        neighbours.setdefault(i, set()).add(j)
        neighbours.setdefault(j, set()).add(i)
    solutions = sum([1 for (x, y), w in weight.items() for z in neighbours[x] & neighbours[y]
                     if w + weight[y, z] + weight[x, z] < 0])
    return OracleCounts(solutions, instance.n ** 3)


_ORACLES = {OVInstance: oracle_ov, ThreeSumInstance: oracle_threesum, NwtInstance: oracle_nwt}


def oracle_counts(instance: Instance) -> OracleCounts:
    return family_lookup(_ORACLES, instance)(instance)


def dense_agrees(dense_value: Fraction, outcome: SimOutcome) -> bool:
    """Whether a dense p_acc matches the exact path-sum outcome.

    It must equal p_acc and pass |dense - p_acc| <= DENSE_TOLERANCE and
    |dense * 2^exponent - signed_sum^2| <= DENSE_SCALED_TOLERANCE.
    """
    scaled = dense_value * (1 << outcome.exponent) - outcome.signed_sum ** 2
    return (dense_value == outcome.p_acc
            and abs(dense_value - outcome.p_acc) <= DENSE_TOLERANCE
            and abs(scaled) <= DENSE_SCALED_TOLERANCE)


def predicted_pacc(problem: str, r: int, d: int, gap: int) -> Fraction:
    return Fraction(gap * gap, 1 << denom_exponent(problem, r, d))


# --- gate accounting ---------------------------------------------------------

_SMALL_CONTROL_NOTE = (
    "multi-controlled flips with <= 3 controls charged at the small-control "
    "costs (1 control -> 1, 2 -> 1, 3 -> 4 primitives)"
)


def tally_gates(circuit) -> dict[str, dict[str, int]]:
    """Per-step primitive counts with multi-controlled flips expanded.

    Rows and amounts come from each gate's `charge()`.  The CCX row counts
    Toffoli-equivalent primitives: literal Toffolis plus the expansion cost
    popcount(mask) * mcx_toffoli_cost(#controls) of each bitmask flip (a
    single-control expansion is really a CX but is charged here,
    consistently with the budgets).  QRAM counts lookup gates.
    """
    return _tally(circuit)[0]


# A step span of fewer gates is charged gate by gate: below this length,
# counting the span by class costs more than it saves.
_MIN_RUN_BY_CLASS = 16


def _tally(circuit) -> tuple[dict[str, dict[str, int]], bool]:
    """tally_gates, and whether any charged flip expands at most 3 controls.

    The gates of a step span, if they are not few, are counted by class:
    a class that keeps `_Gate.charge` charges all its gates alike, so one
    call stands for the span's count, and only the classes of `_CHARGED`
    are charged gate by gate.  A row's keys keep the order of their first
    nonzero charge, as a gate-by-gate tally gives them.
    """
    gates = circuit.gates
    if not VOCABULARY.issuperset(map(type, gates)):
        gate = next(g for g in gates if type(g) not in VOCABULARY)
        raise InstanceError(f"unknown gate {gate!r}")
    per_step: dict[str, dict[str, int]] = {}
    small_control = False
    for step, start, stop in circuit.step_runs():
        run_gates = gates[start:stop]
        row = per_step.setdefault(step, {})
        if len(run_gates) < _MIN_RUN_BY_CLASS:
            for gate in run_gates:
                kind, amount, controls = gate.charge()
                if amount:
                    row[kind] = row.get(kind, 0) + amount
                    small_control |= 0 < controls <= 3
            continue
        run_types = list(map(type, run_gates))
        first: dict[str, int] = {}  # kind -> run position of its first nonzero charge
        total: dict[str, int] = {}
        for cls in dict.fromkeys(run_types):
            if cls in _CHARGED:
                ordinal: dict[str, int] = {}  # kind -> which of cls's gates first charges it
                own = compress(run_gates, map(is_, run_types, repeat(cls)))
                for j, gate in enumerate(own):
                    kind, amount, controls = gate.charge()
                    if amount:
                        if kind not in ordinal:
                            ordinal[kind] = j
                        total[kind] = total.get(kind, 0) + amount
                        small_control |= 0 < controls <= 3
                for kind, j in ordinal.items():
                    position = _nth(run_types, cls, j)
                    if kind not in first or position < first[kind]:
                        first[kind] = position
            else:
                position = run_types.index(cls)
                kind, amount, controls = run_gates[position].charge()
                if amount:
                    total[kind] = total.get(kind, 0) + amount * run_types.count(cls)
                    small_control |= 0 < controls <= 3
                    if kind not in first or position < first[kind]:
                        first[kind] = position
        for kind in sorted(first, key=first.__getitem__):
            row[kind] = row.get(kind, 0) + total[kind]
    return per_step, small_control


def _nth(types: list, cls: type, j: int) -> int:
    """Position of the j-th (from 0) entry of `types` that is `cls`."""
    position = -1
    for _ in range(j + 1):
        position = types.index(cls, position + 1)
    return position


def step_gate_bounds(problem: str, mode: str, n: int, r: int, d: int) -> dict[str, dict[str, int]]:
    """Per-step budgets the builders must stay within.

    Rows driven by multi-controlled decompositions use mcx_toffoli_cost in
    place of the asymptotic 8(k-3) factor, which agrees with it for k >= 4
    and substitutes the documented small-control costs below that.
    """
    cost = mcx_toffoli_cost
    qram = mode == MODE_QRAM
    if problem == PROBLEM_OV:
        load = {"QRAM": 2} if qram else {"X": 4 * n * r, "CCX": 2 * n * d * cost(r)}
        return {
            "1": {"H": 2 * r, "X": r},
            "2": {"X": 4 * r + 6, "CX": 8 * r + 2, "CCX": 4 * r},
            "3": load,
            "4": {"CCX": d},
            "5": {"X": 2 * d, "CCX": cost(d)},
            "6": {"Z": 1},
        }
    if problem == PROBLEM_3SUM:
        load = {"QRAM": 3} if qram else {"X": 6 * n * r, "CCX": 3 * n * d * cost(r)}
        return {
            "1": {"H": 3 * r, "X": r},
            "2": {"X": 6 * r + 9, "CX": 12 * r + 3, "CCX": 6 * r},
            "3": load,
            "4": {"CX": 4 * d + 1, "CCX": 2 * d},
            "5": {"CX": 4 * d + 5, "CCX": 2 * d + 2},
            "6": {"X": 2 * d + 4, "CCX": cost(d + 2)},
            "7": {"Z": 1},
        }
    if problem == PROBLEM_NWT:
        pairs = 1 << (2 * r)
        load = {"QRAM": 3} if qram else {"X": 12 * r * pairs, "CCX": 3 * pairs * d * cost(2 * r)}
        return {
            "1": {"H": 3 * r, "X": r},
            "2": {"X": 6 * r + 9, "CX": 12 * r + 3, "CCX": 6 * r},
            "3": load,
            "4": {"X": 6 * d, "CCX": 3 * cost(d)},
            "5": {"CX": 8 * d + 6, "CCX": 4 * d + 2},
            "6": {"X": 3 * d + 8, "CX": 4 * d + 9, "CCX": 2 * d + 4},
            "7": {"X": 8, "CCX": 10},
            "8": {"Z": 1},
        }
    raise InstanceError(f"unknown problem {problem!r}")


@dataclass(frozen=True)
class GateCountReport:
    per_step: dict[str, dict[str, int]]
    bounds: dict[str, dict[str, int]]
    ok: bool
    notes: tuple[str, ...]


def gate_accountant(built: BuiltCircuit) -> GateCountReport:
    """Compare actual per-step counts against the budgets; all must be <=."""
    per_step, small_control = _tally(built.circuit)
    bounds = step_gate_bounds(built.problem, built.mode, built.n, built.r, built.d)
    ok = all(count <= bounds.get(step, {}).get(kind, 0)
             for step, row in per_step.items() for kind, count in row.items())
    notes = [_SMALL_CONTROL_NOTE] if small_control else []
    return GateCountReport(per_step, bounds, ok, tuple(notes))


# --- whole-instance verification ---------------------------------------------


@dataclass(frozen=True)
class VerifyResult:
    problem: str
    mode: str
    n: int
    r: int
    d: int
    bound: int | None
    oracle: OracleCounts
    outcome: SimOutcome
    predicted: Fraction
    identity_ok: bool
    magnitude_ok: bool
    sign_flips: bool
    n_qubits: int
    qubits_ok: bool
    gates: GateCountReport
    dense_value: Fraction | None
    dense_ok: bool | None

    @property
    def ok(self) -> bool:
        return (self.identity_ok and self.magnitude_ok and self.qubits_ok
                and self.gates.ok and self.dense_ok is not False)

    @cached_property
    def rows(self) -> tuple[tuple[str | None, str | None, object], ...]:
        """The report as (text label, dotted JSON path, value) rows, built once."""
        oracle, outcome, gates = self.oracle, self.outcome, self.gates
        rows = [
            ("problem", "problem", self.problem),
            ("mode", "mode", self.mode),
            ("n", "n", self.n),
            ("index_width", "r", self.r),
            ("data_width", "d", self.d),
            ("bound", "bound", self.bound),
            ("oracle.solutions", "oracle.solutions", oracle.solutions),
            ("oracle.total", "oracle.total", oracle.total),
            ("oracle.gap", "oracle.gap", oracle.gap),
            ("sim.signed_sum", "simulated.signed_sum", outcome.signed_sum),
            ("sim.exponent", "simulated.exponent", outcome.exponent),
            ("sim.branches", "simulated.branches", outcome.n_branches),
            ("sim.accepted", "simulated.accepted", outcome.n_accepted),
            ("sim.p_acc", "simulated.p_acc", str(outcome.p_acc)),
            (None, "simulated.p_acc_float", float(outcome.p_acc)),
            ("predicted.p_acc", "predicted.p_acc", str(self.predicted)),
            (None, "predicted.p_acc_float", float(self.predicted)),
            ("identity", "identity_ok", self.identity_ok),
            ("magnitude", "magnitude_ok", self.magnitude_ok),
            ("sign_flips", None, str(self.sign_flips)),
            (None, "sign_flips", self.sign_flips),
            ("qubits", None, f"{self.n_qubits} ({_text(self.qubits_ok)})"),
            (None, "n_qubits", self.n_qubits),
            (None, "qubits_ok", self.qubits_ok),
            ("gates", "gates.ok", gates.ok),
            (None, "gates.per_step", gates.per_step),
            (None, "gates.bounds", gates.bounds),
            (None, "gates.notes", list(gates.notes)),
            *(("gates.note", None, note) for note in gates.notes),
        ]
        if self.dense_value is None:
            rows.append((None, "dense", None))
        else:
            rows += [("dense.p_acc", "dense.p_acc", float(self.dense_value)),
                     (None, "dense.tolerance", DENSE_TOLERANCE),
                     ("dense.agree", "dense.ok", self.dense_ok)]
        rows.append(("overall", "ok", self.ok))
        return tuple(rows)

    def to_dict(self) -> dict:
        """The JSON form: the rows that have a path, nested at its one dot."""
        out: dict = {}
        for _, path, value in self.rows:
            if path is not None:
                head, dot, key = path.partition(".")
                if dot:
                    out.setdefault(head, {})[key] = value
                else:
                    out[head] = value
        return out


def verify_built(instance: Instance, built: BuiltCircuit, *, with_dense: bool = False,
                 branch_cap: int = BRANCH_CAP_DEFAULT) -> VerifyResult:
    """Check the acceptance identity of an already-built circuit."""
    counts = oracle_counts(instance)
    outcome = simulate_pathsum(built.circuit, branch_cap=branch_cap)
    predicted = predicted_pacc(built.problem, built.r, built.d, counts.gap)
    dense_value: Fraction | None = None
    dense_ok: bool | None = None
    if with_dense:
        signed = simulate_dense(built.circuit, branch_cap=branch_cap)
        dense_value = dense_acceptance(built.circuit, signed)
        dense_ok = dense_agrees(dense_value, outcome)
    return VerifyResult(
        problem=built.problem,
        mode=built.mode,
        n=built.n,
        r=built.r,
        d=built.d,
        bound=built.bound,
        oracle=counts,
        outcome=outcome,
        predicted=predicted,
        identity_ok=outcome.p_acc == predicted,
        magnitude_ok=abs(outcome.signed_sum) == abs(counts.gap),
        sign_flips=outcome.signed_sum == -counts.gap,
        n_qubits=built.circuit.n_qubits,
        qubits_ok=built.circuit.n_qubits == qubit_formula(built.problem, built.r, built.d),
        gates=gate_accountant(built),
        dense_value=dense_value,
        dense_ok=dense_ok,
    )


def verify_instance(instance: Instance, mode: str = MODE_QRAM, *, with_dense: bool = False,
                    branch_cap: int = BRANCH_CAP_DEFAULT) -> VerifyResult:
    """Build one mode of the instance's circuit and verify it.

    The branch cap, which bounds both backends, is checked before the
    build, from the closed-form Hadamard count: an nwt weight table alone
    has 4^r entries.
    """
    check_branch_cap(hadamard_count(instance), branch_cap)
    built = build_circuit(instance, mode)
    return verify_built(instance, built, with_dense=with_dense, branch_cap=branch_cap)


# --- reports -----------------------------------------------------------------
# A report is one ordered list of (text label, dotted JSON path, value) rows;
# the text form prints the rows that have a label and the JSON form nests the
# rows that have a path, so the two cannot drift apart.


def _text(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    return "-" if value is None else str(value)


def render_rows(rows) -> str:
    """Flat `label: value` text of the labelled rows: a bool reads pass/FAIL, None -."""
    return "\n".join([f"{label}: {_text(value)}" for label, _, value in rows if label is not None])


def report_rows(report: dict, prefix: str = "") -> list[tuple[str, str, object]]:
    """Rows of a nested dict, each labelled with its own dotted path."""
    rows = []
    for key, value in report.items():
        path = prefix + key
        if isinstance(value, dict):
            rows += report_rows(value, path + ".")
        else:
            rows.append((path, path, value))
    return rows


def render_report(result: VerifyResult) -> str:
    """Flat `key: value` text rendering of one verification result."""
    return render_rows(result.rows)
