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

Dense backend: a literal statevector simulation, one axis per qubit, that
reads the IR gates directly.  It holds int8 signed counts, the amplitudes
times 2^(h/2), and reads the all-zero outcome's probability as an exact
rational.  It shares no lowering and no acceptance math with the path-sum
backend, which is what makes the exact agreement check meaningful.

Both backends read each body gate's action (a flip of targets under
controls, a phase flip or a table load) from the gate table in `ir.py`, and
the path-sum backend lowers it straight to qubit indices.  Only
`apply_gates`'s int64 basis words limit the path-sum width, and the backend
keeps an explicit 62-qubit cap; the dense backend has a much smaller one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ir import VOCABULARY, Circuit, H, QramLoad

DENSE_CAP_DEFAULT = 22
BRANCH_CAP_DEFAULT = 24
# The column kernel itself has no qubit limit; only `apply_gates`'s int64
# words do.  Every path-sum call keeps the explicit 62-qubit cap because
# the benchmark's self-test
# (perfbench/test_bench.py::test_raised_error_counts_as_failed) relies on
# 3sum n=64 U=1000, 65 qubits, being refused; lifting it means moving that
# test to another cap in the same change.
_WORD_QUBIT_CAP = 62
_VARYING = "unmeasured qubits vary over the accepted branches; the path sum cannot add them"


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


def _body_kinds(gates: list) -> set[type]:
    kinds = set(map(type, gates))
    if not VOCABULARY.issuperset(kinds):
        gate = next(g for g in gates if type(g) not in VOCABULARY)
        raise SimulationError(f"gate {type(gate).__name__} is outside the simulator vocabulary")
    if H in kinds:
        raise SimulationError("H is not a basis-state permutation")
    return kinds


def _compile_ops(circuit: Circuit, *, start: int = 0) -> list[tuple]:
    """Lower gates[start:] to the column kernel's ops, which are the gates' actions.

    A table load becomes ("qram", address, data, bits): one 0/1 row of
    `bits`, indexed by address, per data qubit that some entry sets.
    """
    if circuit.n_qubits > _WORD_QUBIT_CAP:
        raise CapExceededError(
            f"{circuit.n_qubits} qubits exceed the {_WORD_QUBIT_CAP}-qubit word cap")
    kinds = _body_kinds(gates := circuit.gates[start:])
    ops = [gate.action() for gate in gates]
    if QramLoad not in kinds:
        return ops
    lowered = []
    for op in ops:
        if op[0] == "qram":
            _, address, data, table_id = op
            entries = np.array(circuit.tables[table_id].entries, dtype=np.int64).reshape(-1, 2)
            bits = np.zeros((len(data), 1 << len(address)), dtype=np.uint8)
            bits[:, entries[:, 0]] = entries[:, 1] >> np.arange(len(data))[:, None] & 1
            kept = np.flatnonzero(bits.any(axis=1))
            if not len(kept):
                continue
            op = ("qram", address, [data[j] for j in kept], bits[kept])
        lowered.append(op)
    return lowered


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


def _apply_columns(ops: list[tuple], cols: list[int], full: int) -> int:
    """Run lowered ops over one chunk of branches; return its sign column.

    `cols[q]` holds qubit q of every branch in the chunk, branch i at bit i,
    and is updated in place; `full` has one bit set per branch.  A set bit
    of the returned sign column marks a branch whose phase ended at -1.
    """
    sign = 0
    for op in ops:
        kind = op[0]
        if kind == "flip":
            _, controls, targets = op
            if controls:
                fire = cols[controls[0]]
                for c in controls[1:]:
                    fire &= cols[c]
            else:
                fire = full
            if fire:
                for t in targets:
                    cols[t] ^= fire
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


def apply_gates(circuit: Circuit, words: np.ndarray,
                signs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Propagate packed basis words (int64) through the circuit's gates, in place.

    Word bit q holds qubit q.  The words are transposed into columns, run
    through the path-sum kernel, and transposed back; each sign is negated
    once per phase flip its branch meets.  Only permutation gates are
    allowed; an H raises.  Returns the same arrays for convenience.
    """
    if signs is None:
        signs = np.ones(len(words), dtype=np.int64)
    ops = _compile_ops(circuit)
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


def check_branch_cap(h: int, branch_cap: int) -> None:
    """Refuse 2^h branches above the 2^branch_cap cap."""
    if h > branch_cap:
        raise CapExceededError(f"2^{h} branches exceed the 2^{branch_cap} branch cap")


def check_dense_cap(n_qubits: int, cap: int) -> None:
    """Refuse a statevector of more than `cap` qubits."""
    if n_qubits > cap:
        raise CapExceededError(f"{n_qubits} qubits exceed the dense cap of {cap}")


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
    result.  Raises SimulationError unless every unmeasured qubit holds one
    value over all accepted branches.
    """
    plan = circuit.measurement
    if plan is None:
        raise SimulationError("circuit has no measurement plan")
    h_targets = _h_prefix(circuit)
    h = len(h_targets)
    check_branch_cap(h, branch_cap)
    ops = _compile_ops(circuit, start=h)

    def run_chunk(lo: int, hi: int) -> tuple[int, int, tuple[bool, ...] | None]:
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
        held = tuple(cols[q] & accepted for q in plan.unmeasured)
        if any(bits not in (0, accepted) for bits in held):
            raise SimulationError(_VARYING)
        return (n_accepted - 2 * (accepted & sign).bit_count(), n_accepted,
                tuple(bits == accepted for bits in held) if accepted else None)

    n_branches = 1 << h
    bounds = [(lo, min(lo + chunk_size, n_branches)) for lo in range(0, n_branches, chunk_size)]
    if jobs > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda b: run_chunk(*b), bounds))
    else:
        parts = [run_chunk(lo, hi) for lo, hi in bounds]
    if len({p[2] for p in parts} - {None}) > 1:
        raise SimulationError(_VARYING)
    signed_sum = sum(p[0] for p in parts)
    n_accepted = sum(p[1] for p in parts)
    exponent = h + len(plan.x_qubits)
    p_acc = Fraction(signed_sum * signed_sum, 1 << exponent)
    return SimOutcome(signed_sum, exponent, n_branches, n_accepted, p_acc)


def _pinned(psi: np.ndarray, pins, frame: int = 0) -> np.ndarray:
    """View with qubit q at bit b ^ (bit q of frame) for each (q, b); q keeps axis -1-q."""
    key = [slice(None)] * psi.ndim
    for q, b in pins:
        b ^= (frame >> q) & 1
        key[-1 - q] = slice(b, b + 1)
    return psi[tuple(key)]


def _flip(view: np.ndarray, targets) -> None:
    """X on every qubit in `targets`, in place on `view`."""
    axes = tuple(-1 - q for q in targets)
    if axes:
        view[...] = np.flip(view, axis=axes)


def simulate_dense(circuit: Circuit, *, cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Full state after the circuit body as int8 counts, the amplitudes times 2^(h/2).

    Shape (2,)*n, qubit q on axis n-1-q, returned flat.  The H layer is one
    store of 1 into the 2^h words whose other qubits are 0.  A body gate acts in
    place on the view pinning its controls; a flip with none toggles `frame`.
    """
    n = circuit.n_qubits
    check_dense_cap(n, cap)
    h_targets = _h_prefix(circuit)
    _body_kinds(body := circuit.gates[len(h_targets):])
    psi = np.zeros((2,) * n, dtype=np.int8)
    _pinned(psi, ((q, 0) for q in range(n) if q not in h_targets))[...] = 1
    frame = 0
    for gate in body:
        op = gate.action()
        if op[0] == "flip":
            _, controls, targets = op
            if controls:
                _flip(_pinned(psi, ((c, 1) for c in controls), frame), targets)
            else:
                frame ^= sum(1 << t for t in targets)
        elif op[0] == "z":
            _pinned(psi, ((op[1], 1),), frame)[...] *= -1
        else:
            _, address, data, table_id = op
            # Addresses missing from the table load 0: nothing to flip.
            for entry, value in circuit.tables[table_id].entries:
                pins = ((q, (entry >> j) & 1) for j, q in enumerate(address))
                flips = (q for j, q in enumerate(data) if (value >> j) & 1)
                _flip(_pinned(psi, pins, frame), flips)
    _flip(psi, (q for q in range(n) if (frame >> q) & 1))
    return psi.reshape(-1)


def dense_acceptance(circuit: Circuit, state: np.ndarray) -> Fraction:
    """Exact probability of the all-zero outcome: sum(kept^2) / 2^(h + #x).

    `kept` is an int64 copy of the Z-projected counts; each X-measured qubit's
    Hadamard, less its 1/sqrt(2), keeps the |0> half as a+b and so at most
    doubles `simulate_dense`'s 0/+-1 counts: the sum is at most 2^(n-#z+#x).
    """
    plan = circuit.measurement
    if plan is None:
        raise SimulationError("circuit has no measurement plan")
    if len(plan.unmeasured) > 20:
        raise CapExceededError("too many unmeasured qubits to marginalize")
    n = circuit.n_qubits
    if (bits := n - len(plan.z_qubits) + len(plan.x_qubits)) > 62:
        raise CapExceededError(f"a sum of up to 2^{bits} overflows int64")
    if state.dtype != np.int8 or state.size != 1 << n:
        raise SimulationError(f"{state.size} {state.dtype} values are not {n}-qubit int8 counts")
    kept = _pinned(state.reshape((2,) * n), ((q, 0) for q in plan.z_qubits)).astype(np.int64)
    for q in plan.x_qubits:
        kept = _pinned(kept, ((q, 0),)) + _pinned(kept, ((q, 1),))
    return Fraction(int(np.vdot(kept, kept)), 1 << (circuit.h_layer_size + len(plan.x_qubits)))
