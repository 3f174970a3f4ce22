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
the unpacked address bits.  An explicit loader's X-framed bitmask flips
lower to one run: its X gates fold into a pending frame, and the kernel
walks the run's sorted address patterns, computing each AND prefix they
share once, as in unary iteration (Babbush et al., PRX 8, 041015, 2018).
The accepted count and signed sum are popcounts of the accepted-branch
column, so they stay exact.

Above one default chunk of 2^16 branches (h > 16, the `_FLAT_MAX_H` rule),
each column keeps its support: the branch variables, that is Hadamard bits,
it may depend on.  A column over k variables is an int of 2^k bits, bit i
holding the value at the assignment i of those variables, lowest first.
Supports are fixed in the lowering: a flip's targets gain its controls'
supports, a load's or run's data its address's, and a phase flip adds to
the sign column's.  Where supports meet, the lowering inserts a "widen"
op, which broadcasts a column over new variables by repeating whole blocks
of its packed bits; a flip that undoes an earlier one copies saved columns
back, so a register restored by uncomputation narrows again.  A loader
over register i then works on 2^r bits, not 2^h, and an address is
widened into temporaries, so it keeps that support.  The readout widens the
Z-measured, unmeasured and sign columns to their common support, and each
of their bits stands for 2^(h - |support|) branches.  In this regime a
chunk fixes only the variables from `_SUPPORT_FREE_VARS` = 20 up, so no
column passes 2^20 bits (128 KB) and circuits of up to 2^20 branches run
as one chunk.  Circuits with h <= 16 keep the flat lowering: there, the
support bookkeeping costs more than it saves.

Dense backend: the full statevector as int8 signed counts, the amplitudes
times 2^(h/2), from which it reads the all-zero outcome's probability as an
exact rational.  The gates run on the 2^h basis words that the Hadamard
layer spreads over, held as one int64 array with a sign per word, and the
signed words are added into the state once at the end.  This is the
sum-over-paths view of H + Toffoli circuits (Dawson et al., QIC 5, 2005),
but it shares no lowering and no acceptance math with the path-sum
backend, which is what makes the exact agreement check meaningful.

Both backends read each body gate's action (a flip of targets under
controls, a phase flip or a table load) from the gate table in `ir.py`, and
the path-sum backend lowers it straight to qubit indices.  Only
`apply_gates`'s int64 basis words limit the path-sum width, and the backend
keeps an explicit 62-qubit cap; the dense backend has a much smaller one.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

import numpy as np

from .ir import VOCABULARY, Circuit, H, MCBitmask, QramLoad, X

DENSE_CAP_DEFAULT = 22
BRANCH_CAP_DEFAULT = 24
# The column kernel itself has no qubit limit; only `apply_gates`'s int64
# words do.  Every path-sum call keeps the explicit 62-qubit cap because
# the benchmark's self-test
# (perfbench/test_bench.py::test_raised_error_counts_as_failed) relies on
# 3sum n=64 U=1000, 65 qubits, being refused; lifting it means moving that
# test to another cap in the same change.
_WORD_QUBIT_CAP = 62
# Circuits whose branches fit in one default chunk (h <= 16) keep the flat
# lowering, which is cheaper there; above it columns track their supports.
_CHUNK_DEFAULT = 1 << 16
_FLAT_MAX_H = _CHUNK_DEFAULT.bit_length() - 1
# A support-regime chunk fixes only the branch variables from this one up.
_SUPPORT_FREE_VARS = 20
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

    When two consecutive bitmask flips share controls and targets, as in an
    explicit loader, the body is lowered by `_lower_runs` instead, which
    folds X gates and groups such flips into runs.  A table load becomes
    ("qram", address, data, bits): one 0/1 row of `bits`, indexed by
    address, per data qubit that some entry sets.  With `start` Hadamards
    of the support regime, the ops are then rewritten by `_track_supports`.
    """
    if circuit.n_qubits > _WORD_QUBIT_CAP:
        raise CapExceededError(
            f"{circuit.n_qubits} qubits exceed the {_WORD_QUBIT_CAP}-qubit word cap")
    kinds = _body_kinds(gates := circuit.gates[start:])
    previous = None
    for gate in gates:
        if type(gate) is MCBitmask:
            if (gate.controls, gate.targets) == previous:
                ops = lowered = _lower_runs(gates)
                break
            previous = gate.controls, gate.targets
    else:
        ops = lowered = [gate.action() for gate in gates]
    if QramLoad in kinds:
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
    return lowered if start <= _FLAT_MAX_H else _track_supports(lowered, circuit, start)


def _lower_runs(gates: list) -> list[tuple]:
    """Gate actions, with X gates folded into a frame and bitmask flips into runs.

    An X toggles its qubit's bit of the pending frame; before any other
    gate each pending bit is emitted as one single-qubit flip.  Bitmask
    flips with equal controls and targets and only X between them become
    ("run", controls, entries): sorted (pattern, targets) pairs, pattern
    bit j set where the flip fires on controls[j] = 1 in the columns as
    they stand, the frame not applied.  Flips of one pattern merge by XOR
    of their masks; a run left with one pattern is emitted as a framed flip.
    """
    ops, pending, controls, targets = [], 0, None, None
    append = ops.append

    def close(pending: int) -> int:
        live = sorted([item for item in entries.items() if item[1]])
        if len(live) != 1:
            if live:
                names = {m: tuple([t for j, t in enumerate(targets) if m >> j & 1])
                         for m in set(entries.values())}
                append(("run", controls, tuple([(p, names[m]) for p, m in live])))
            return pending
        (pattern, mask), = live
        frame = 0
        for j, c in enumerate(controls):
            if not pattern >> j & 1:
                frame |= 1 << c
                append(("flip", (), (c,)))
        append(("flip", controls, tuple([t for j, t in enumerate(targets) if mask >> j & 1])))
        return pending ^ frame

    for gate in gates:
        kind = type(gate)
        if kind is X:
            pending ^= 1 << gate.target
        elif kind is MCBitmask:
            if gate.controls != controls or gate.targets != targets:
                if controls:
                    pending = close(pending)
                controls, targets, entries = gate.controls, gate.targets, {}
                ones, low = (1 << len(controls)) - 1, controls[0]
                if controls != tuple(range(low, low + len(controls))):
                    low, bits = -1, [(c, 1 << j) for j, c in enumerate(controls)]
            pattern = ((pending >> low & ones) ^ ones if low >= 0
                       else sum([bit for c, bit in bits if not pending >> c & 1]))
            entries[pattern] = entries.get(pattern, 0) ^ gate.mask
        else:
            if controls:
                pending, controls = close(pending), None
            while pending:
                append(("flip", (), ((pending & -pending).bit_length() - 1,)))
                pending &= pending - 1
            append(gate.action())
    if controls:
        pending = close(pending)
    while pending:
        append(("flip", (), ((pending & -pending).bit_length() - 1,)))
        pending &= pending - 1
    return ops


def _slots(n_qubits: int) -> tuple[int, int, int]:
    """Support-regime column slots past the qubits: the sign column,
    all-ones columns of 0.._SUPPORT_FREE_VARS variables, and one operand
    temporary per qubit.  Saved columns follow, and the all-ones readout
    column, written by the last op, comes last."""
    ones = n_qubits + 1
    return n_qubits, ones, ones + _SUPPORT_FREE_VARS + 1


def _undo_pairs(flips: list[tuple]) -> dict[int, int]:
    """{i: j} for each controlled flip i that returns all its targets to their values before j.

    That holds when both flips have the same controls and targets, every
    target still holds what j wrote, and every control holds what it held
    at j.  Values are tracked as versions, so the pairing depends on no
    column's value: a write takes a fresh even version, a flip without
    controls toggles the low bit, and an undo restores the version before.
    Each qubit keeps its last 16 writes; an undo of an older one is missed,
    which costs width but never exactness.
    """
    version: dict[int, int] = {}
    written: dict[int, deque] = {}  # per qubit: (writer, control versions, before, after)
    fresh = count(2, 2)
    pairs = {}
    for i, (kind, controls, targets) in enumerate(flips):
        if not controls:
            for t in targets:
                version[t] = version.get(t, 0) ^ 1
            continue
        held = tuple([version.get(c, 0) for c in controls])
        if kind == "flip" and (stack := written.get(targets[0])):
            j = stack[-1][0]
            if flips[j] == flips[i]:
                for t in targets:
                    top = written[t][-1]
                    if top[0] != j or top[1] != held or top[3] != version[t]:
                        break
                else:
                    pairs[i] = j
                    for t in targets:
                        version[t] = written[t].pop()[2]
                    continue
        for t in targets:
            if t not in written:
                written[t] = deque(maxlen=16)
            after = next(fresh)
            written[t].append((i, held, version.get(t, 0), after))
            version[t] = after
    return pairs


def _track_supports(ops: list[tuple], circuit: Circuit, h: int) -> list[tuple]:
    """Rewrite flat ops so each column spans only the branch variables it depends on.

    Variable t is bit t of the branch index, the Hadamard on gates[t]'s
    target; those from _SUPPORT_FREE_VARS up are fixed per chunk.  Every
    operand of a flip, load or run is widened to the union of the op's
    supports: targets in place, and a flip's controls in place below full
    support.  Other controls go into temporaries, so no full-width copy
    outlives its op and an address register keeps its own support.  A run's
    targets are the union of its entries' targets.
    A flip without controls reads an all-ones column, and a phase flip is
    a flip of the sign column.  When a flip that widens a target is undone
    later (see `_undo_pairs`), its targets' columns are saved before it and
    the undo becomes copies back, so their supports shrink again.  The op
    list ends by widening the Z-measured, unmeasured and sign columns to
    their union and writing its all-ones column into the last slot.
    """
    n, free = circuit.n_qubits, min(h, _SUPPORT_FREE_VARS)
    sign, ones, temp = _slots(n)
    support = [0] * (temp + n)
    for t, gate in enumerate(circuit.gates[:free]):
        support[gate.target] = 1 << t
    full = (1 << free) - 1
    all_ones = {0: (ones,)}  # variable count -> the slot of its all-ones column
    negations = {}  # (variable count, targets) -> one shared op for every such X
    lowered = []

    def widen(q: int, w: int, dst: int) -> int:
        lowered.append(("widen", q, dst, _widen_steps(support[q], w)))
        support[dst] = w
        return dst

    ops = [op for op in ops if op[0] != "flip" or op[2]]
    flips = [("flip", (op[1],), (sign,)) if op[0] == "z"
             else ("run", op[1], tuple({t for entry in op[2] for t in entry[1]}))
             if op[0] == "run" else op[:3] for op in ops]
    pairs = _undo_pairs(flips)
    undone = set(pairs.values())
    saved, spare = {}, []
    for i, (kind, controls, targets) in enumerate(flips):
        if i in pairs and (restore := saved.pop(pairs[i], None)):
            for t, slot in restore:
                widen(slot, support[slot], t)
                spare.append(slot)
            continue
        w = 0
        for q in controls:
            w |= support[q]
        for q in targets:
            w |= support[q]
        for t in targets:
            if support[t] != w:
                if i in undone:
                    saved[i] = []
                    for q in targets:
                        if not spare:
                            support.append(0)
                            spare.append(len(support) - 1)
                        saved[i].append((q, widen(q, support[q], spare.pop())))
                for q in targets:
                    if support[q] != w:
                        widen(q, w, q)
                break
        op = flips[i]
        for c in controls:
            if support[c] != w:
                controls = tuple([q if support[q] == w
                                  else widen(q, w, q if kind == "flip" and w != full else temp + j)
                                  for j, q in enumerate(controls)])
                op = (kind, controls, targets)
                break
        if kind == "qram":
            lowered.append(("qram", controls, targets, ops[i][3], 1 << w.bit_count()))
        elif kind == "run":
            lowered.append(("run", controls, ops[i][2], 1 << w.bit_count()))
        elif controls:
            lowered.append(op)
        else:
            if (k := w.bit_count()) not in all_ones:
                all_ones[k] = (widen(ones, (1 << k) - 1, ones + k),)
            if (op := negations.get((k, targets))) is None:
                op = negations[k, targets] = ("flip", all_ones[k], targets)
            lowered.append(op)
    plan = circuit.measurement
    readout = (*plan.z_qubits, *plan.unmeasured, sign)
    w = 0
    for q in readout:
        w |= support[q]
    for q in readout:
        if support[q] != w:
            widen(q, w, q)
    support.append(0)
    widen(ones, w, len(support) - 1)
    return lowered


def _widen_steps(have: int, want: int) -> tuple[tuple[int, int, int], ...]:
    """How `_widen` takes a column over the variables `have` to `want` (a superset).

    Each step (k, p, m) inserts a run of m new variables at position p of a
    column of 2^k bits, so every block of 2^p bits repeats 2^m times.  Runs
    go up from the lowest, so p is also the run's position in `want`.
    """
    variables = [t for t in range(want.bit_length()) if want >> t & 1]
    steps, k, p = [], have.bit_count(), 0
    while p < len(variables):
        m = 0
        while p + m < len(variables) and not have >> variables[p + m] & 1:
            m += 1
        if m:
            steps.append((k, p, m))
            k += m
        p += m or 1
    return tuple(steps)


def _doubling_table(p: int) -> np.ndarray:
    """Byte b -> 16 bits: each block of 2^p bits of b written twice."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    doubled = np.repeat(bits.reshape(256, -1, 1 << p), 2, axis=1).reshape(256, 16)
    return np.packbits(doubled, axis=1, bitorder="little").view("<u2")[:, 0]


_DOUBLE = [_doubling_table(p) for p in range(3)]


def _widen(column: int, steps: tuple[tuple[int, int, int], ...]) -> int:
    """Broadcast a column over new variables by whole-block repeats (see `_widen_steps`).

    New top variables repeat the whole column by shifts, blocks of a byte
    or more repeat as byte rows, and smaller blocks double through _DOUBLE.
    """
    for k, p, m in steps:
        if p == k:
            for _ in range(m):
                column |= column << (1 << k)
                k += 1
            continue
        while p < 3 and m:
            raw = np.frombuffer(column.to_bytes((1 << k) + 7 >> 3, "little"), dtype=np.uint8)
            column = int.from_bytes(_DOUBLE[p][raw].tobytes(), "little")
            p, k, m = p + 1, k + 1, m - 1
        if m:
            raw = np.frombuffer(column.to_bytes(1 << (k - 3), "little"), dtype=np.uint8)
            column = int.from_bytes(
                np.repeat(raw.reshape(-1, 1 << (p - 3)), 1 << m, axis=0).tobytes(), "little")
    return column


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


def _apply_columns(ops: list[tuple], cols: list[int], full: int | None) -> int:
    """Run lowered ops over one chunk of branches; return its sign column.

    `cols[q]` holds qubit q of every branch in the chunk, branch i at bit i,
    and is updated in place; `full` has one bit set per branch.  A set bit
    of the returned sign column marks a branch whose phase ended at -1.
    A run (see `_lower_runs`) walks its sorted patterns; entries that share
    their top pattern bits share that AND prefix, and a 0 bit reads the
    complement `ones ^ column`, taken once per control (`~column` would
    cost far more).  Support-regime ops (see `_track_supports`) never read
    `full` or the returned sign: their flips all have controls, their loads
    and runs carry their column width, and their phase flips XOR into a
    sign slot of `cols`.
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
        elif kind == "widen":
            cols[op[2]] = _widen(cols[op[1]], op[3])
        elif kind == "run":
            controls, entries = op[1], op[2]
            ones = (1 << op[3]) - 1 if len(op) > 3 else full
            literals = [(ones ^ cols[c], cols[c]) for c in controls]
            k = len(controls)
            prefix = [ones] * (k + 1)  # prefix[d]: AND over controls k-1 .. k-d
            last = entries[0][0] ^ 1 << (k - 1)
            for pattern, targets in entries:
                fire = prefix[depth := k - (pattern ^ last).bit_length()]
                for j in range(k - 1 - depth, -1, -1):
                    fire &= literals[j][pattern >> j & 1]
                    prefix[k - j] = fire
                last = pattern
                for t in targets:
                    cols[t] ^= fire
        else:
            address, data, tables = op[1:4]
            bits = _unpack([cols[q] for q in address], op[4] if len(op) > 4 else full.bit_length())
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
                     jobs: int = 1, chunk_size: int = _CHUNK_DEFAULT) -> SimOutcome:
    """Exact acceptance statistics by enumerating all 2^h Hadamard branches.

    Branches are evaluated in chunks whose partial sums combine by integer
    addition, so chunking and the thread count never change the result.
    Below the support regime a chunk is `chunk_size` consecutive branches;
    in it, a chunk fixes the variables from _SUPPORT_FREE_VARS up and
    `chunk_size` is not used.  Raises SimulationError unless every
    unmeasured qubit holds one value over all accepted branches.
    """
    plan = circuit.measurement
    if plan is None:
        raise SimulationError("circuit has no measurement plan")
    h_targets = _h_prefix(circuit)
    h = len(h_targets)
    check_branch_cap(h, branch_cap)
    ops = _compile_ops(circuit, start=h)
    n_branches = 1 << h

    def tally(cols: list[int], full: int, sign: int, scale: int):
        """(signed sum, accepted count, unmeasured values or None); each bit
        of the columns stands for 2^scale branches."""
        rejected = 0
        for q in plan.z_qubits:
            rejected |= cols[q]
        accepted = full & ~rejected
        n_accepted = accepted.bit_count()
        held = tuple(cols[q] & accepted for q in plan.unmeasured)
        if any(bits not in (0, accepted) for bits in held):
            raise SimulationError(_VARYING)
        return ((n_accepted - 2 * (accepted & sign).bit_count()) << scale, n_accepted << scale,
                tuple(bits == accepted for bits in held) if accepted else None)

    if h <= _FLAT_MAX_H:
        def run_chunk(lo: int):
            hi = min(lo + chunk_size, n_branches)
            full = (1 << (hi - lo)) - 1
            cols = [0] * circuit.n_qubits
            for q, column in zip(h_targets, _branch_columns(lo, hi, h)):
                cols[q] = column
            return tally(cols, full, _apply_columns(ops, cols, full), 0)

        chunks = range(0, n_branches, chunk_size)
    else:
        free = min(h, _SUPPORT_FREE_VARS)
        sign, ones, _ = _slots(circuit.n_qubits)

        def run_chunk(chunk: int):
            # Free variable t starts as the column 0b10 over itself alone.
            cols = [0] * (ops[-1][2] + 1)
            cols[ones] = 1
            for t, q in enumerate(h_targets):
                cols[q] = 2 if t < free else chunk >> (t - free) & 1
            _apply_columns(ops, cols, None)
            full = cols[-1]
            return tally(cols, full, cols[sign], free - full.bit_length().bit_length() + 1)

        chunks = range(1 << (h - free))
    if jobs > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(run_chunk, chunks))
    else:
        parts = [run_chunk(chunk) for chunk in chunks]
    if len({p[2] for p in parts} - {None}) > 1:
        raise SimulationError(_VARYING)
    signed_sum = sum(p[0] for p in parts)
    n_accepted = sum(p[1] for p in parts)
    exponent = h + len(plan.x_qubits)
    p_acc = Fraction(signed_sum * signed_sum, 1 << exponent)
    return SimOutcome(signed_sum, exponent, n_branches, n_accepted, p_acc)


def _pinned(psi: np.ndarray, pins) -> np.ndarray:
    """View of a (2,)*n state with qubit q's axis n-1-q at bit b, for each (q, b)."""
    key = [slice(None)] * psi.ndim
    for q, b in pins:
        key[-1 - q] = slice(b, b + 1)
    return psi[tuple(key)]


def simulate_dense(circuit: Circuit, *, cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Full state after the circuit body as int8 counts, the amplitudes times 2^(h/2).

    Flat, index bit q holding qubit q.  The gates run on the 2^h basis
    words that the Hadamard layer spreads over (branch b sets the layer's
    t-th target to bit t of b) and on one sign per word, not on the state:
    a flip XORs its targets into the words whose controls are all 1, a
    phase flip toggles the signs of the words with its qubit set, and a
    load XORs in each word's data mask, looked up by its address bits
    (missing addresses load 0).  The signed words are then added into the
    state, so words that coincide add up.
    """
    n = circuit.n_qubits
    check_dense_cap(n, cap)
    state = np.zeros(1 << n, dtype=np.int8)
    h_targets = _h_prefix(circuit)
    _body_kinds(body := circuit.gates[len(h_targets):])
    branches = np.arange(1 << len(h_targets), dtype=np.int64)
    words = np.zeros_like(branches)
    for t, q in enumerate(h_targets):
        words |= (branches >> t & 1) << q
    negative = np.zeros(len(words), dtype=bool)
    for gate in body:
        op = gate.action()
        if op[0] == "flip":
            _, controls, targets = op
            tmask = sum([1 << t for t in targets])
            if controls:
                cmask = sum([1 << c for c in controls])
                words ^= (words & cmask == cmask) * tmask
            else:
                words ^= tmask
        elif op[0] == "z":
            negative ^= words >> op[1] & 1 == 1
        else:
            _, address, data, table_id = op
            entries = np.array(circuit.tables[table_id].entries, dtype=np.int64).reshape(-1, 2)
            masks = np.zeros(1 << len(address), dtype=np.int64)
            masks[entries[:, 0]] = (entries[:, 1:] >> np.arange(len(data)) & 1) @ (
                1 << np.array(data, dtype=np.int64))
            index = np.zeros_like(words)
            for j, q in enumerate(address):
                index |= (words >> q & 1) << j
            words ^= masks[index]
    np.add.at(state, words, np.where(negative, -1, 1).astype(np.int8))
    return state


def dense_acceptance(circuit: Circuit, state: np.ndarray) -> Fraction:
    """Exact probability of the all-zero outcome: sum(kept^2) / 2^(h + #x).

    `kept` starts as the view of the Z-projected counts.  Each X-measured
    qubit's Hadamard, less its 1/sqrt(2), keeps the |0> half as a+b, added
    from the two halves of `kept` into a new array, so the caller's state
    is never copied whole or changed.  An a+b at most doubles a magnitude,
    so the first eight sums are int16, which holds any int8 count doubled
    eight times (128 * 2^8 = 2^15), and later ones int64.  For
    `simulate_dense`'s 0/+-1 counts the sum of squares is at most
    2^(n-#z+#x).
    """
    plan = circuit.measurement
    if plan is None:
        raise SimulationError("circuit has no measurement plan")
    n = circuit.n_qubits
    if (bits := n - len(plan.z_qubits) + len(plan.x_qubits)) > 62:
        raise CapExceededError(f"a sum of up to 2^{bits} overflows int64")
    if state.dtype != np.int8 or state.size != 1 << n:
        raise SimulationError(f"{state.size} {state.dtype} values are not {n}-qubit int8 counts")
    kept = _pinned(state.reshape((2,) * n), ((q, 0) for q in plan.z_qubits))
    for i, q in enumerate(plan.x_qubits):
        kept = np.add(_pinned(kept, ((q, 0),)), _pinned(kept, ((q, 1),)),
                      dtype=np.int16 if i < 8 else np.int64)
    kept = kept.astype(np.int64, copy=False)
    return Fraction(int(np.vdot(kept, kept)), 1 << (circuit.h_layer_size + len(plan.x_qubits)))
