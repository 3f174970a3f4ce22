"""Seeded instance sets of the three workloads, and the benchmark's own
correctness gate.

Every instance is drawn from `random.Random(seed)`: the run seed draws one
32-bit seed per instance, and that seed alone fixes the instance.  The gate
shares no code with the program's oracles or closed forms: it counts each
family's gap by brute force and takes the exponent k from the formulas in
the README, then demands

    signed_sum == -gap   and   p_acc == Fraction(gap**2, 2**k)

and, on `dense`, |dense - p_acc| <= DENSE_TOLERANCE.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

QRAM, EXPLICIT = "qram", "explicit"
BOTH = (QRAM, EXPLICIT)

# `gapcircuits sweep`'s cells (cli.SWEEP_CELLS when the benchmark was
# defined), copied so that the workload stays fixed if the CLI's grid moves.
SWEEP_CELLS = {
    "ov": [{"n": 2, "d": 1}, {"n": 3, "d": 2}, {"n": 5, "d": 3}, {"n": 8, "d": 4}],
    "3sum": [{"n": 2, "bound": 2}, {"n": 3, "bound": 4}, {"n": 4, "bound": 8}, {"n": 6, "bound": 64}],
    "nwt": [{"n": 2, "bound": 1}, {"n": 3, "bound": 1}, {"n": 4, "bound": 2}, {"n": 6, "bound": 3}],
}
GRID_TRIALS = 50


@dataclass(frozen=True)
class Spec:
    """`count` instances of one shape, each verified once per mode."""

    problem: str
    params: dict
    modes: tuple[str, ...]
    count: int = 1


@dataclass(frozen=True)
class Workload:
    why: str
    specs: tuple[Spec, ...]
    through_text: bool  # build -> circuit text -> parse -> verify_built
    dense: bool  # verify_instance(..., with_dense=True)
    direct: bool  # construct instances directly: generate refuses these sizes
    kernel: str = "python"  # the calibration kernel whose work is most like this one's


WORKLOADS = {
    "grid": Workload(
        "the sweep grid: thousands of tiny circuits, so building, validation "
        "and per-gate dispatch dominate",
        tuple(Spec(p, cell, BOTH, GRID_TRIALS) for p, cells in SWEEP_CELLS.items() for cell in cells),
        through_text=False, dense=False, direct=False),
    "wide": Workload(
        "a few above-budget circuits of 2^15-2^20 branches through the text "
        "round trip, so the path-sum kernel does most of the work",
        (Spec("ov", {"n": 512, "d": 8}, (EXPLICIT,)),
         Spec("nwt", {"n": 32, "bound": 3}, (EXPLICIT,)),
         Spec("ov", {"n": 1024, "d": 6}, (QRAM,)),
         # U <= 511 keeps 3sum n=64 at 62 qubits, inside the word cap.
         Spec("3sum", {"n": 64, "bound": 500}, (QRAM,))),
        through_text=True, dense=False, direct=True, kernel="numpy"),
    "dense": Workload(
        "ov and 3sum circuits of 18-19 qubits with the dense cross-check, so "
        "the statevector kernel does almost all of the work",
        (Spec("ov", {"n": 8, "d": 2}, BOTH),
         Spec("ov", {"n": 4, "d": 3}, (QRAM,)),
         Spec("3sum", {"n": 2, "bound": 1}, BOTH)),
        through_text=False, dense=True, direct=False, kernel="numpy"),
}


@dataclass(frozen=True)
class Case:
    """One verification: an instance, a build mode, and its expected answer."""

    problem: str
    params: dict
    mode: str
    seed: int
    instance: object
    gap: int
    k: int

    @property
    def p_acc(self) -> Fraction:
        return Fraction(self.gap * self.gap, 1 << self.k)


def construct(gc, problem: str, params: dict, seed: int):
    """Instance of any size, drawn the way the program's generators draw."""
    rng = random.Random(seed)
    n = params["n"]
    if problem == "ov":
        def vectors():
            return tuple(gc.BitString(tuple(rng.getrandbits(1) for _ in range(params["d"])))
                         for _ in range(n))
        return gc.OVInstance(u=vectors(), v=vectors())
    bound = params["bound"]
    if problem == "3sum":
        return gc.ThreeSumInstance(values=tuple(rng.sample(range(-bound, bound + 1), n)),
                                   bound=bound)
    edges = tuple((i, j, rng.randrange(-bound, bound + 1))
                  for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.getrandbits(1))
    return gc.NwtInstance(n=n, weight_bound=bound, edges=edges)


def make_instances(gc, workload: Workload, seed: int) -> list[tuple[Spec, int, object]]:
    """The workload's instances for this run seed: (spec, instance seed, instance)."""
    rng = random.Random(seed)
    out = []
    for spec in workload.specs:
        for _ in range(spec.count):
            inst_seed = rng.getrandbits(32)
            if workload.direct:
                instance = construct(gc, spec.problem, spec.params, inst_seed)
            else:
                instance = gc.generate(spec.problem, inst_seed, n=spec.params["n"],
                                       d=spec.params.get("d"), bound=spec.params.get("bound"))
            out.append((spec, inst_seed, instance))
    return out


# --- the independent gate ----------------------------------------------------


def _bits_to_int(bits) -> int:
    return sum(b << t for t, b in enumerate(bits))


def reference(problem: str, instance) -> tuple[int, int]:
    """(gap, k) by brute force and the README's closed forms."""
    n = len(instance.u) if problem == "ov" else len(instance.values) if problem == "3sum" \
        else instance.n
    r = max(1, (n - 1).bit_length())
    if problem == "ov":
        us = Counter(_bits_to_int(bs.bits) for bs in instance.u)
        vs = Counter(_bits_to_int(bs.bits) for bs in instance.v)
        solutions = sum(cu * cv for a, cu in us.items() for b, cv in vs.items() if a & b == 0)
        d = len(instance.u[0].bits)
        return 2 * solutions - n * n, 5 * r + 3 * d + 1
    if problem == "3sum":
        values = set(instance.values)
        solutions = sum(1 for a in values for b in values if -(a + b) in values)
        d = (2 * instance.bound).bit_length()
        return 2 * solutions - n ** 3, 7 * r + 3 * d + 4
    weight = {}
    for i, j, w in instance.edges:
        weight[i, j] = weight[j, i] = w
    solutions = sum(1 for (x, y), wxy in weight.items() for z in range(1, n + 1)
                    if (y, z) in weight and (x, z) in weight
                    and wxy + weight[y, z] + weight[x, z] < 0)
    d = (2 * instance.weight_bound + 1).bit_length()
    return 2 * solutions - n ** 3, 7 * r + 4 * d + 10


def make_cases(instances) -> list[Case]:
    cases = []
    for spec, inst_seed, instance in instances:
        gap, k = reference(spec.problem, instance)
        cases.extend(Case(spec.problem, spec.params, mode, inst_seed, instance, gap, k)
                     for mode in spec.modes)
    return cases


def check(case: Case, result, report: str, dense_tolerance: float | None) -> str | None:
    """Why the verification result is wrong, or None when it is right."""
    if not result.ok or not report.endswith("overall: pass"):
        return "the verifier reported a failure"
    if result.outcome.signed_sum != -case.gap:
        return f"signed_sum {result.outcome.signed_sum} != -gap {-case.gap}"
    if result.outcome.p_acc != case.p_acc:
        return f"p_acc {result.outcome.p_acc} != {case.p_acc}"
    if dense_tolerance is not None and (
            result.dense_value is None or abs(result.dense_value - case.p_acc) > dense_tolerance):
        return f"dense p_acc {result.dense_value!r} is not within {dense_tolerance} of {case.p_acc}"
    return None


def circuit_counts(circuit) -> dict:
    """Exact shape counts of one built circuit; they repeat on every run."""
    h = circuit.h_layer_size
    body = len(circuit.gates) - h
    return {"qubits": circuit.n_qubits, "hadamards": h, "gates": len(circuit.gates),
            "ops": dict(Counter(type(g).__name__ for g in circuit.gates[h:])),
            "branch_gates": (1 << h) * body}
