"""Two independent simulation backends for Hadamard-layer-plus-reversible circuits.

Path-sum backend: after the leading Hadamard layer every gate maps a basis
state to a basis state with a sign, so the final state is a signed sum over
2^h branches.  A branch is accepted when every Z-measured qubit is 0; each
X-measured qubit contributes a factor 1/sqrt(2) to the accepted amplitude
regardless of its bit.  With S the signed count of accepted branches, the
acceptance probability is exactly S^2 / 2^(h + #x_measured), computed as an
exact rational.

The path-sum kernel is bit-sliced.  Within a chunk of branches lo..hi-1,
qubit q is one Python int column whose bit i holds qubit q of branch lo+i,
and one more column marks the branches whose sign is -1.  X, CX, Toffoli
and bitmask flips become XOR and AND of whole columns, a phase flip XORs a
column into the sign column, and a table lookup gathers from the table by
the unpacked address bits.  The accepted count and signed sum are popcounts
of the accepted-branch column, so they stay exact.

Dense backend: a literal statevector simulation that applies explicit
Hadamards to the X-measured qubits at the end and reads the all-zero
amplitudes.  It shares no acceptance math with the path-sum backend, which
is what makes the agreement check meaningful.

Lowered ops place bitmasks and table values as int64 masks over qubit
indices, and `apply_gates` takes int64 basis words, so circuits are capped
at 62 qubits; the dense backend has its own, much smaller, qubit cap.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ir import CX, Circuit, H, MCBitmask, QramLoad, Toffoli, X, Z

DENSE_CAP_DEFAULT = 22
BRANCH_CAP_DEFAULT = 24
# The column kernel itself has no qubit limit; the int64 placed masks and
# words do.  The cap stays explicit at 62 because the benchmark's self-test
# (perfbench/test_bench.py::test_raised_error_counts_as_failed) relies on
# 3sum n=64 U=1000, 65 qubits, being refused; lifting it means moving that
# test to another cap in the same change.
_WORD_QUBIT_CAP = 62
_SQRT_HALF = np.sqrt(0.5)


class SimulationError(RuntimeError):
    """Circuit cannot be simulated as given (structure or vocabulary)."""


class CapExceededError(SimulationError):
    """A resource cap (qubits, branches) would be exceeded; caps are explicit."""


@dataclass(frozen=True)
class SimOutcome:
    """Exact path-sum result: p_acc == signed_sum^2 / 2^exponent."""

    signed_sum: int
    exponent: int
    n_branches: int
    n_accepted: int
    p_acc: Fraction


def _placed_mask(mask_bits, targets: tuple[int, ...]) -> int:
    return sum(1 << targets[j] for j, b in enumerate(mask_bits) if b)


def _compile_ops(circuit: Circuit, *, start: int = 0) -> list[tuple]:
    """Lower gates[start:] to the ops shared by both backends."""
    if circuit.n_qubits > _WORD_QUBIT_CAP:
        raise CapExceededError(
            f"{circuit.n_qubits} qubits exceed the {_WORD_QUBIT_CAP}-qubit word cap")
    ops: list[tuple] = []
    for gate in circuit.gates[start:]:
        if isinstance(gate, H):
            ops.append(("h", gate.target))
        elif isinstance(gate, X):
            ops.append(("flip", 1 << gate.target))
        elif isinstance(gate, Z):
            ops.append(("z", gate.target))
        elif isinstance(gate, CX):
            ops.append(("cx", gate.control, gate.target))
        elif isinstance(gate, Toffoli):
            ops.append(("ccx", gate.control1, gate.control2, gate.target))
        elif isinstance(gate, MCBitmask):
            ops.append(("mcb", gate.controls, _placed_mask(gate.mask, gate.targets)))
        elif isinstance(gate, QramLoad):
            table = circuit.tables[gate.table_id]
            lut = np.zeros(1 << len(gate.address), dtype=np.int64)
            for address, value in table.entries:
                lut[address] = _placed_mask(
                    ((value >> j) & 1 for j in range(len(gate.data))), gate.data)
            ops.append(("qram", gate.address, lut))
        else:
            raise SimulationError(f"gate {type(gate).__name__} is outside the simulator vocabulary")
    return ops


def _gather_bits(words: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    value = (words >> qubits[0]) & 1
    for t, q in enumerate(qubits[1:], start=1):
        value = value | (((words >> q) & 1) << t)
    return value


def _qubits(placed: int) -> list[int]:
    qubits = []
    while placed:
        low = placed & -placed
        qubits.append(low.bit_length() - 1)
        placed ^= low
    return qubits


def _pack(bits: np.ndarray) -> list[int]:
    """Each row of a 0/1 uint8 matrix as an int column: element i at bit i."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack(columns: list[int], count: int) -> np.ndarray:
    """Inverse of _pack: one uint8 row of `count` elements per column."""
    width = (count + 7) // 8
    raw = b"".join(column.to_bytes(width, "little") for column in columns)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(columns), width)
    return np.unpackbits(rows, axis=1, count=count, bitorder="little")


def _slice_ops(ops: list[tuple]) -> list[tuple]:
    """Decode the placed masks of lowered ops into the qubits the column kernel indexes.

    A QramLoad keeps its address qubits and becomes a 0/1 table per data
    qubit, indexed by address.
    """
    sliced: list[tuple] = []
    for op in ops:
        kind = op[0]
        if kind == "flip":
            for q in _qubits(op[1]):
                sliced.append(("x", q))
        elif kind == "mcb":
            sliced.append(("mcb", op[1], _qubits(op[2])))
        elif kind == "qram":
            _, address, lut = op
            data = _qubits(int(np.bitwise_or.reduce(lut)))
            if data:
                shifts = np.array(data, dtype=np.int64)[:, None]
                sliced.append(("qram", address, data, ((lut >> shifts) & 1).astype(np.uint8)))
        elif kind in ("cx", "ccx", "z"):
            sliced.append(op)
        else:
            raise SimulationError(f"op {kind!r} is not a basis-state permutation")
    return sliced


def _apply_columns(ops: list[tuple], cols: list[int], full: int) -> int:
    """Run sliced ops over one chunk of branches; return its sign column.

    `cols[q]` holds qubit q of every branch in the chunk, branch i at bit i,
    and is updated in place; `full` has one bit set per branch.  A set bit
    of the returned sign column marks a branch whose phase ended at -1.
    """
    sign = 0
    for op in ops:
        kind = op[0]
        if kind == "x":
            cols[op[1]] ^= full
        elif kind == "mcb":
            _, controls, targets = op
            fire = full
            for c in controls:
                fire &= cols[c]
            if fire:
                for t in targets:
                    cols[t] ^= fire
        elif kind == "cx":
            cols[op[2]] ^= cols[op[1]]
        elif kind == "ccx":
            _, c1, c2, t = op
            cols[t] ^= cols[c1] & cols[c2]
        elif kind == "z":
            sign ^= cols[op[1]]
        else:
            _, address, data, tables = op
            bits = _unpack([cols[q] for q in address], full.bit_length())
            index = np.zeros(bits.shape[1], dtype=np.intp)
            for row in bits[::-1]:
                index <<= 1
                index |= row
            for q, loaded in zip(data, _pack(np.take(tables, index, axis=1))):
                cols[q] ^= loaded
    return sign


def apply_gates(circuit: Circuit, words: np.ndarray, signs: np.ndarray | None = None,
                *, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Propagate packed basis words (int64) through gates[start:], in place.

    Word bit q holds qubit q.  The words are transposed into columns, run
    through the path-sum kernel, and transposed back; each sign is negated
    once per phase flip its branch meets.  Only permutation gates are
    allowed in the slice; an H raises.  Returns the same arrays for
    convenience.
    """
    if signs is None:
        signs = np.ones(len(words), dtype=np.int64)
    ops = _slice_ops(_compile_ops(circuit, start=start))
    count, qubits = len(words), np.arange(circuit.n_qubits, dtype=np.int64)[:, None]
    cols = _pack(((words >> qubits) & 1).astype(np.uint8))
    flips = _apply_columns(ops, cols, (1 << count) - 1)
    words &= ~((1 << circuit.n_qubits) - 1)
    words |= (_unpack(cols, count).astype(np.int64) << qubits).sum(axis=0, dtype=np.int64)
    signs *= 1 - 2 * _unpack([flips], count)[0].astype(np.int64)
    return words, signs


def _branch_columns(lo: int, hi: int, h: int) -> list[int]:
    """Column t holds bit t of each branch index lo..hi-1 (hi <= 2^h).

    Bit t of the offsets 0..n-1 is a periodic pattern built by doubling;
    adding lo to every offset is a bit-sliced ripple-carry addition of a
    constant.
    """
    n = hi - lo
    full = (1 << n) - 1
    cols, carry = [], 0
    for t in range(h):
        half = 1 << t
        offsets = 0
        if half < n:
            offsets, period = ((1 << half) - 1) << half, 2 * half
            while period < n:
                offsets |= offsets << period
                period *= 2
            offsets &= full
        if (lo >> t) & 1:
            cols.append(full & ~(offsets ^ carry))
            carry |= offsets
        else:
            cols.append(offsets ^ carry)
            carry &= offsets
    return cols


def _h_prefix(circuit: Circuit) -> tuple[int, ...]:
    h = circuit.h_layer_size
    prefix = circuit.gates[:h]
    if len(prefix) != h or any(not isinstance(g, H) for g in prefix):
        raise SimulationError("Hadamard layer does not match h_layer_size")
    targets = tuple(g.target for g in prefix)
    if len(set(targets)) != len(targets):
        raise SimulationError("Hadamard layer targets must be distinct")
    return targets


def simulate_pathsum(circuit: Circuit, *, branch_cap: int = BRANCH_CAP_DEFAULT,
                     jobs: int = 1, chunk_size: int = 1 << 16) -> SimOutcome:
    """Exact acceptance statistics by enumerating all 2^h Hadamard branches.

    Branches are evaluated in fixed-size chunks whose partial sums combine
    by integer addition, so chunking and the thread count never change the
    result.
    """
    plan = circuit.measurement
    if plan is None:
        raise SimulationError("circuit has no measurement plan")
    h_targets = _h_prefix(circuit)
    h = len(h_targets)
    if h > branch_cap:
        raise CapExceededError(f"2^{h} branches exceed the 2^{branch_cap} branch cap")
    ops = _slice_ops(_compile_ops(circuit, start=h))

    def run_chunk(lo: int, hi: int) -> tuple[int, int]:
        full = (1 << (hi - lo)) - 1
        cols = [0] * circuit.n_qubits
        for q, column in zip(h_targets, _branch_columns(lo, hi, h)):
            cols[q] = column
        sign = _apply_columns(ops, cols, full)
        rejected = 0
        for q in plan.z_qubits:
            rejected |= cols[q]
        accepted = full & ~rejected
        n_accepted = accepted.bit_count()
        return n_accepted - 2 * (accepted & sign).bit_count(), n_accepted

    n_branches = 1 << h
    bounds = [(lo, min(lo + chunk_size, n_branches)) for lo in range(0, n_branches, chunk_size)]
    if jobs > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda b: run_chunk(*b), bounds))
    else:
        parts = [run_chunk(lo, hi) for lo, hi in bounds]
    signed_sum = sum(p[0] for p in parts)
    n_accepted = sum(p[1] for p in parts)
    exponent = h + len(plan.x_qubits)
    p_acc = Fraction(signed_sum * signed_sum, 1 << exponent)
    return SimOutcome(signed_sum, exponent, n_branches, n_accepted, p_acc)


def _dense_h(state: np.ndarray, idx: np.ndarray, q: int) -> np.ndarray:
    m = 1 << q
    lo = idx & ~m
    hi = idx | m
    phase = np.where((idx & m) != 0, -1.0, 1.0)
    return (state[lo] + phase * state[hi]) * _SQRT_HALF


def simulate_dense(circuit: Circuit, *, cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Full statevector after the circuit body, index bit q holding qubit q."""
    n = circuit.n_qubits
    if n > cap:
        raise CapExceededError(f"{n} qubits exceed the dense cap of {cap}")
    idx = np.arange(1 << n, dtype=np.int64)
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    for op in _compile_ops(circuit):
        kind = op[0]
        if kind == "h":
            state = _dense_h(state, idx, op[1])
        elif kind == "flip":
            state = state[idx ^ op[1]]
        elif kind == "cx":
            _, c, t = op
            state = state[idx ^ (((idx >> c) & 1) << t)]
        elif kind == "ccx":
            _, c1, c2, t = op
            state = state[idx ^ (((idx >> c1) & (idx >> c2) & 1) << t)]
        elif kind == "mcb":
            _, controls, placed = op
            fire = idx >> controls[0]
            for c in controls[1:]:
                fire = fire & (idx >> c)
            state = state[idx ^ ((fire & 1) * placed)]
        elif kind == "z":
            state = state * (1 - 2 * ((idx >> op[1]) & 1))
        elif kind == "qram":
            _, address, lut = op
            state = state[idx ^ lut[_gather_bits(idx, address)]]
    return state


def dense_acceptance(circuit: Circuit, state: np.ndarray) -> float:
    """Probability of the all-zero outcome on the measured qubits.

    Applies literal Hadamards to every X-measured qubit, then sums the
    squared magnitude over all assignments of the unmeasured qubits with
    every measured qubit at 0.
    """
    plan = circuit.measurement
    if plan is None:
        raise SimulationError("circuit has no measurement plan")
    if len(plan.unmeasured) > 20:
        raise CapExceededError("too many unmeasured qubits to marginalize")
    idx = np.arange(len(state), dtype=np.int64)
    state = state.copy()
    for q in plan.x_qubits:
        state = _dense_h(state, idx, q)
    total = 0.0
    for assignment in range(1 << len(plan.unmeasured)):
        pointer = 0
        for t, q in enumerate(plan.unmeasured):
            pointer |= ((assignment >> t) & 1) << q
        total += abs(state[pointer]) ** 2
    return float(total)


def acceptance_probability(circuit: Circuit, backend: str = "pathsum", *,
                           dense_cap: int = DENSE_CAP_DEFAULT,
                           branch_cap: int = BRANCH_CAP_DEFAULT,
                           jobs: int = 1) -> Fraction | float:
    """All-zero-outcome probability: exact Fraction (pathsum) or float (dense)."""
    if backend == "pathsum":
        return simulate_pathsum(circuit, branch_cap=branch_cap, jobs=jobs).p_acc
    if backend == "dense":
        return dense_acceptance(circuit, simulate_dense(circuit, cap=dense_cap))
    raise SimulationError(f"unknown backend {backend!r}")
