"""Acceptance suite: ten criteria, one test (and one pass/fail line) each.

Run with `pytest -v tests/test_acceptance.py`; the per-test result lines
are the criterion verdicts.  Each test prints a one-line summary that
shows up under -s or on failure.

Criterion map:
   1  ov identity, exact rationals, both modes, (n,d) in {1..8}x{1..4}
   2  3sum identity, n in {1..6}, bound in {1,8,64} (cells needing more
      distinct values than exist are impossible and noted, not tested)
   3  nwt identity, n in {2..6}, bound in {1,2,3}
   4  p_acc = 0 exactly iff the oracle gap is 0
   5  dense and path-sum p_acc equal as exact rationals, both modes, on
      every ov and nwt cell and the 3sum cells of bound 1..3, 5 instances
      each (100+), hence within 1e-9, and within 1e-6 once both are scaled
      by 2^k
   6  qubit-count formulas hold exactly
   7  per-step gate counts within the closed-form bounds; standalone
      arithmetic tallies exact
   8  adder and comparators exhaustive over all basis words up to width 6
   9  one-shot table loads match the explicit per-address products
  10  a circuit with one deleted gate is caught by the identity check
"""

from fractions import Fraction

import numpy as np

from gapcircuits.arithmetic import (
    ArithLayout,
    emit_adder,
    emit_comparator_ge,
    emit_comparator_gt,
)
from gapcircuits.builders import (
    MODE_EXPLICIT,
    MODE_QRAM,
    OVInstance,
    build_circuit,
    qubit_formula,
)
from gapcircuits.cli import main as cli_main
from gapcircuits.dataload import (
    DataTable,
    emit_loader_unitary,
    emit_qram_load,
)
from gapcircuits.instancefile import (
    generate_nwt,
    generate_ov,
    generate_threesum,
    stable_seed,
)
from gapcircuits.ir import BitString, Z, new_circuit
from gapcircuits.simulator import apply_gates, dense_acceptance, simulate_dense, simulate_pathsum
from gapcircuits.verification import gate_accountant, oracle_counts, verify_built

MODES = (MODE_QRAM, MODE_EXPLICIT)

OV_GRID = [(n, d) for n in range(1, 9) for d in range(1, 5)]
THREESUM_GRID = [(n, u) for n in range(1, 7) for u in (1, 8, 64)]
NWT_GRID = [(n, m) for n in range(2, 7) for m in (1, 2, 3)]


def _feasible_threesum():
    # n distinct values must fit in [-bound, bound]
    return [(n, u) for n, u in THREESUM_GRID if n <= 2 * u + 1]


def _identity_sweep(name, cells, gen, trials=50):
    """Exact p_acc == gap^2 / 2^k on seeded instances over a grid, both modes.

    The instance stream depends only on (name, cell, trial), so reruns see
    the identical population.  Returns (checks, instances with gap 0).
    """
    checked = zeros = 0
    for cell in cells:
        for trial in range(trials):
            inst = gen(*cell, seed=stable_seed("acceptance", name, *cell, trial))
            gap = oracle_counts(inst).gap
            zeros += gap == 0
            for mode in MODES:
                built = build_circuit(inst, mode)
                outcome = simulate_pathsum(built.circuit)
                expected = Fraction(gap * gap, 1 << built.denom_exponent)
                assert outcome.p_acc == expected, (name, cell, trial, mode)
                assert (outcome.p_acc == 0) == (gap == 0), (name, cell, trial, mode)
                checked += 1
    return checked, zeros


def test_criterion_01_ov_identity():
    checks, _ = _identity_sweep("ov", OV_GRID, generate_ov)
    print(f"criterion 1 (ov identity): pass -- {checks} exact checks over "
          f"{len(OV_GRID)} cells, both modes")


def test_criterion_02_threesum_identity():
    feasible = _feasible_threesum()
    impossible = sorted(set(THREESUM_GRID) - set(feasible))
    checks, _ = _identity_sweep("3sum", feasible, generate_threesum)
    print(f"criterion 2 (3sum identity): pass -- {checks} exact checks over "
          f"{len(feasible)} cells, both modes; cells {impossible} admit no instance "
          f"(need n distinct values from 2*bound+1)")


def test_criterion_03_nwt_identity():
    checks, _ = _identity_sweep("nwt", NWT_GRID, generate_nwt)
    print(f"criterion 3 (nwt identity): pass -- {checks} exact checks over "
          f"{len(NWT_GRID)} cells, both modes")


def test_criterion_04_gap_dichotomy():
    """p_acc = 0 exactly iff gap = 0, over the same streams criteria 1-3 use."""
    checks = zeros = 0
    for name, cells, gen in (("ov", OV_GRID, generate_ov),
                             ("3sum", _feasible_threesum(), generate_threesum),
                             ("nwt", NWT_GRID, generate_nwt)):
        c, z = _identity_sweep(name, cells, gen)
        checks += c
        zeros += z
    # hand-built gap-0 witness: 2 of 4 pairs orthogonal
    witness = OVInstance(u=(BitString((1,)), BitString((1,))),
                         v=(BitString((1,)), BitString((0,))))
    assert oracle_counts(witness).gap == 0
    for mode in MODES:
        assert simulate_pathsum(build_circuit(witness, mode).circuit).p_acc == 0
    assert zeros >= 1  # the random streams must also exercise the p = 0 branch
    print(f"criterion 4 (gap dichotomy): pass -- {checks} checks, {zeros} stream "
          "instances with gap 0, p_acc = 0 exactly on those and only those")


def _agreement_cells():
    """(builder, params) for every ov cell, the small 3sum cells and every nwt cell.

    Each cell runs 5 trials in both modes.
    """
    cells = [(generate_ov, cell) for cell in OV_GRID]
    for u in (1, 2, 3):
        for n in range(1, min(6, 2 * u + 1) + 1):
            cells.append((generate_threesum, (n, u)))
    return cells + [(generate_nwt, cell) for cell in NWT_GRID]


def test_criterion_05_backend_agreement():
    instances = circuits = 0
    worst = worst_scaled = 0.0
    for gen, params in _agreement_cells():
        for trial in range(5):
            inst = gen(*params, seed=stable_seed("agreement", gen.__name__, *params, trial))
            instances += 1
            for mode in MODES:
                built = build_circuit(inst, mode)
                outcome = simulate_pathsum(built.circuit)
                dense = dense_acceptance(built.circuit, simulate_dense(built.circuit))
                assert dense == outcome.p_acc, (params, mode, dense, outcome.p_acc)
                gap_err = abs(dense - outcome.p_acc)
                # p_acc * 2^k is the exact integer signed_sum^2
                scaled_err = abs(dense * 2 ** outcome.exponent - outcome.signed_sum ** 2)
                worst = max(worst, gap_err)
                worst_scaled = max(worst_scaled, scaled_err)
                assert gap_err <= 1e-9, (params, mode, gap_err)
                assert scaled_err <= 1e-6, (params, mode, outcome.exponent, scaled_err)
                circuits += 1
    assert instances >= 100
    print(f"criterion 5 (backend agreement): pass -- {instances} instances "
          f"({circuits} circuits) of ov, 3sum and nwt, dense == pathsum exactly, "
          f"worst |dense-pathsum| = {float(worst):.2e}, "
          f"worst |dense*2^k - signed_sum^2| = {float(worst_scaled):.2e}")


def _formula_grid():
    for n, d in [(1, 1), (2, 3), (5, 2), (8, 4)]:
        yield generate_ov(n, d, seed=stable_seed("formulas", "ov", n, d)), "ov"
    for n, u in [(1, 1), (3, 8), (6, 64)]:
        yield generate_threesum(n, u, seed=stable_seed("formulas", "3sum", n, u)), "3sum"
    for n, m in [(2, 1), (4, 2), (6, 3)]:
        yield generate_nwt(n, m, seed=stable_seed("formulas", "nwt", n, m)), "nwt"


def test_criterion_06_qubit_formulas():
    checked = 0
    for inst, problem in _formula_grid():
        for mode in MODES:
            built = build_circuit(inst, mode)
            assert built.problem == problem
            assert built.circuit.n_qubits == qubit_formula(problem, built.r, built.d)
            checked += 1
    print(f"criterion 6 (qubit formulas): pass -- {checked} circuits match "
          "3r+3d+4 / 4r+3d+8 / 4r+4d+14 exactly")


def test_criterion_07_gate_accounting():
    circuits = 0
    for inst, _ in _formula_grid():
        for mode in MODES:
            report = gate_accountant(build_circuit(inst, mode))
            assert report.ok, report
            for step, kinds in report.per_step.items():
                for kind, count in kinds.items():
                    assert count <= report.bounds[step].get(kind, 0)
            circuits += 1

    # standalone arithmetic blocks hit their closed-form tallies exactly
    for width in range(1, 9):
        for emitter, xs in ((emit_adder, 0), (emit_comparator_ge, 2 * width + 2),
                            (emit_comparator_gt, 2 * width + 3)):
            circ = new_circuit([("anc", 1), ("a", width), ("b", width), ("out", 1)])
            circ.begin_step("arith")
            emitter(circ, ArithLayout(ancilla=0, a=tuple(range(1, width + 1)),
                                      b=tuple(range(width + 1, 2 * width + 1)),
                                      out=2 * width + 1))
            tally = {}
            for gate in circ.gates:
                kind = type(gate).__name__
                tally[kind] = tally.get(kind, 0) + 1
            assert tally.get("X", 0) == xs
            assert tally["CX"] == 4 * width + 1
            assert tally["Toffoli"] == 2 * width
    print(f"criterion 7 (gate accounting): pass -- {circuits} circuits within "
          "per-step bounds; adder/comparator tallies exact for widths 1..8")


def test_criterion_08_arithmetic_exhaustive():
    words_checked = 0
    for width in range(1, 7):
        circ = new_circuit([("anc", 1), ("a", width), ("b", width), ("out", 1)])
        circ.begin_step("arith")
        layout = ArithLayout(ancilla=0, a=tuple(range(1, width + 1)),
                             b=tuple(range(width + 1, 2 * width + 1)), out=2 * width + 1)
        mask = (1 << width) - 1
        words = np.arange(1 << circ.n_qubits, dtype=np.int64)
        anc0, a0 = words & 1, (words >> 1) & mask
        b0, out0 = (words >> (width + 1)) & mask, (words >> (2 * width + 1)) & 1
        clean = anc0 == 0

        for emitter, reference in (
            (emit_adder, lambda: ((a0 + b0) & mask, out0 ^ ((a0 + b0) >> width))),
            (emit_comparator_ge, lambda: (b0, out0 ^ (a0 >= b0))),
            (emit_comparator_gt, lambda: (b0, out0 ^ (a0 > b0))),
        ):
            block = new_circuit([("anc", 1), ("a", width), ("b", width), ("out", 1)])
            block.begin_step("arith")
            emitter(block, layout)
            done, _ = apply_gates(block, words.copy())
            anc1, a1 = done & 1, (done >> 1) & mask
            b1, out1 = (done >> (width + 1)) & mask, (done >> (2 * width + 1)) & 1
            np.testing.assert_array_equal(anc1, anc0)  # ancilla restored always
            np.testing.assert_array_equal(a1, a0)  # first operand restored always
            want_b, want_out = reference()
            np.testing.assert_array_equal(b1[clean], want_b[clean])
            np.testing.assert_array_equal(out1[clean], want_out[clean])
            words_checked += len(words)
    print(f"criterion 8 (arithmetic exhaustive): pass -- {words_checked} basis words "
          "across widths 1..6, ancilla and operands restored in every case")


def test_criterion_09_loader_equivalence():
    import random

    maps_checked = 0
    for address_width in range(1, 5):
        for data_width in range(1, 5):
            rng = random.Random(address_width * 8 + data_width)
            full = tuple((a, rng.randrange(1 << data_width))
                         for a in range(1 << address_width))
            partial = full[: (1 << address_width) // 2 + 1]
            for entries in (full, partial):
                table = DataTable("t", address_width, data_width, entries)
                results = []
                for explicit in (False, True):
                    circ = new_circuit([("addr", address_width), ("data", data_width),
                                        ("anc", 1)])
                    circ.begin_step("load")
                    if explicit:
                        emit_loader_unitary(circ, table, circ.reg("addr").qubits,
                                            circ.reg("data").qubits, circ.reg("anc")[0])
                    else:
                        emit_qram_load(circ, table, circ.reg("addr").qubits,
                                       circ.reg("data").qubits)
                    words = np.arange(1 << circ.n_qubits, dtype=np.int64)
                    results.append(apply_gates(circ, words)[0])
                np.testing.assert_array_equal(results[0], results[1])
                maps_checked += 1

    # pair-addressed tables: address = (addr1, addr2) concatenated
    for half_width in (1, 2):
        for data_width in range(1, 5):
            rng = random.Random(100 + half_width * 8 + data_width)
            entries = tuple((a, rng.randrange(1 << data_width))
                            for a in range(1 << (2 * half_width)))
            table = DataTable("w", 2 * half_width, data_width, entries)
            results = []
            for explicit in (False, True):
                circ = new_circuit([("i", half_width), ("j", half_width),
                                    ("data", data_width), ("anc", 1)])
                circ.begin_step("load")
                if explicit:
                    emit_loader_unitary(circ, table,
                                        circ.reg("i").qubits + circ.reg("j").qubits,
                                        circ.reg("data").qubits, circ.reg("anc")[0])
                else:
                    emit_qram_load(circ, table,
                                   circ.reg("i").qubits + circ.reg("j").qubits,
                                   circ.reg("data").qubits)
                words = np.arange(1 << circ.n_qubits, dtype=np.int64)
                results.append(apply_gates(circ, words)[0])
            np.testing.assert_array_equal(results[0], results[1])
            maps_checked += 1
    print(f"criterion 9 (loader equivalence): pass -- {maps_checked} tables, "
          "identical basis maps, single and pair addressing, widths up to 4x4")


def test_criterion_10_mutation_detected(capsys):
    inst = OVInstance(u=(BitString((1,)), BitString((0,))),
                      v=(BitString((1,)), BitString((0,))))
    built = build_circuit(inst, MODE_QRAM)
    healthy = verify_built(inst, built)
    assert healthy.ok

    assert isinstance(built.circuit.gates[-1], Z)
    built.circuit.gates.pop()  # the single deleted gate
    built.circuit.steps.pop()
    mutated = verify_built(inst, built)
    assert not mutated.identity_ok
    assert not mutated.ok

    exit_code = cli_main(["sweep", "--problem", "ov", "--trials", "1",
                          "--mutation-control"])
    text = capsys.readouterr().out
    assert exit_code == 1
    assert "control: mutation detected" in text
    print("criterion 10 (mutation detected): pass -- deleted phase gate breaks the "
          "identity and the sweep control exits 1")
