"""Two independent simulation backends for Hadamard-layer-plus-reversible circuits.

Path-sum backend: after the leading Hadamard layer every gate maps a basis
state to a basis state with a sign, so the final state is a signed sum over
2^h branches.  A branch is accepted when every Z-measured qubit is 0; each
X-measured qubit contributes a factor 1/sqrt(2) to the accepted amplitude
regardless of its bit.  With S the signed count of accepted branches, the
acceptance probability is exactly S^2 / 2^(h + #x_measured), computed as an
exact rational.

The path-sum kernel is bit-sliced.  Qubit q is one Python int column whose
bit i holds qubit q of branch i, and one more column marks the branches
whose sign is -1.  X, CX, Toffoli and bitmask flips become XOR and AND of
whole columns, and a phase flip XORs a column into the sign column.  A
table lookup and an explicit loader's X-framed bitmask flips lower to the
same op, one run: the loader's X gates fold into a pending frame, and the
kernel walks the run's sorted address patterns, computing each AND prefix
they share once, as in unary iteration (Babbush et al., PRX 8, 041015,
2018).  The accepted count and signed sum are popcounts of the
accepted-branch column, so they stay exact.

Above 2^16 branches (h > 16, the `_FLAT_MAX_H` rule), each column keeps its
support: the branch variables, that is Hadamard bits, it may depend on.  A
column over k variables is an int of 2^k bits, bit i holding the value at
the assignment i of those variables, lowest first.  Supports are fixed in
the lowering: a flip's targets gain its controls' supports, a run's data
its address's, and a phase flip adds to the sign column's.
Where supports meet, the lowering inserts a "widen" op, which broadcasts a
column over new variables by repeating whole blocks of its packed bits; a
flip that undoes an earlier one copies saved columns back, so a register
restored by uncomputation narrows again.  A loader over register i then
works on 2^r bits, not 2^h, and an address is widened into temporaries, so
it keeps that support.  The readout widens the Z-measured, unmeasured and
sign columns to their common support, and each of their bits stands for
2^(h - |support|) branches.  In this regime a chunk fixes only the
variables from `_SUPPORT_FREE_VARS` = 20 up, so no column passes 2^20 bits
(128 KB) and circuits of up to 2^20 branches run as one chunk.  Circuits
with h <= 16 keep the flat lowering: there, the support bookkeeping costs
more than it saves.

Dense backend: the 2^h signed basis words themselves.  The Hadamard layer
spreads the all-zero state over 2^h basis words, one per branch, and the
gates run through `apply_gates`'s word loop on them, held as one int64
array with a sign per word.  The readout drops the words with a Z-measured
bit set, clears the X-measured bits and adds up the signs of the words
that then coincide: each sum is one unmeasured assignment's amplitude
times 2^((h + #x)/2), so the acceptance probability is the sum of their
squares over 2^(h + #x), an exact rational.  This is the sum-over-paths
view of H + Toffoli circuits (Dawson et al., QIC 5, 2005), but it shares
no lowering and no acceptance math with the path-sum backend, which is
what makes the exact agreement check meaningful.

Both backends read each body gate's action (a flip of targets under
controls, a phase flip or a table load) from the gate table in `ir.py`,
and both check the branch cap.  The path sum lowers each action straight
to qubit indices and has no qubit limit of its own, but keeps the dense
words' 62-qubit cap for the benchmark's self-test.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

import numpy as np

from .ir import VOCABULARY, Circuit, H, MCBitmask, QramLoad, X

BRANCH_CAP_DEFAULT = 24
# `apply_gates` and `simulate_dense` hold each basis word in an int64, so
# they refuse wider circuits.  The column kernel has no qubit limit, but
# `simulate_pathsum` keeps the same cap because the benchmark's self-test
# (perfbench/test_bench.py::test_raised_error_counts_as_failed) relies on
# 3sum n=64 U=1000, 65 qubits, being refused; lifting it there means moving
# that test to another cap in the same change.
_WORD_QUBIT_CAP = 62
# Circuits of up to 2^16 branches keep the flat lowering and run as one
# chunk, which is cheaper there; above it columns track their supports.
_FLAT_MAX_H = 16
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


def _check_body(gates: list) -> None:
    kinds = set(map(type, gates))
    if not VOCABULARY.issuperset(kinds):
        gate = next(g for g in gates if type(g) not in VOCABULARY)
        raise SimulationError(f"gate {type(gate).__name__} is outside the simulator vocabulary")
    if H in kinds:
        raise SimulationError("H is not a basis-state permutation")


def _check_word_cap(circuit: Circuit) -> None:
    if circuit.n_qubits > _WORD_QUBIT_CAP:
        raise CapExceededError(
            f"{circuit.n_qubits} qubits exceed the {_WORD_QUBIT_CAP}-qubit word cap")


def _compile_ops(circuit: Circuit, *, start: int) -> list[tuple]:
    """Lower gates[start:] to the column kernel's ops with `_lower_runs`.

    With `start` Hadamards of the support regime, the ops are then
    rewritten by `_track_supports`.
    """
    _check_body(gates := circuit.gates[start:])
    ops = _lower_runs(gates, circuit.tables)
    return ops if start <= _FLAT_MAX_H else _track_supports(ops, circuit, start)


def _targets_of(targets: tuple[int, ...], masks) -> dict[int, tuple[int, ...]]:
    """{mask: the targets of its set bits}, one tuple per distinct mask."""
    return {m: tuple([t for j, t in enumerate(targets) if m >> j & 1]) for m in set(masks)}


def _lower_runs(gates: list, tables: dict) -> list[tuple]:
    """Gate actions, with X gates folded into a frame and loaders into runs.

    An X toggles its qubit's bit of the pending frame; before any other
    gate each pending bit is emitted as one single-qubit flip.  Bitmask
    flips with equal controls and targets and only X between them become
    ("run", controls, entries): sorted (pattern, targets) pairs, pattern
    bit j set where the flip fires on controls[j] = 1 in the columns as
    they stand, the frame not applied.  Flips of one pattern merge by XOR
    of their masks; a run left with one pattern is emitted as a framed flip.
    A table load becomes the run its explicit loader would: the table's
    nonzero rows in address order, each with the data qubits of its set
    bits, and no op for an all-zero table.
    """
    ops, pending, controls, targets = [], 0, None, None
    append = ops.append

    def close(pending: int) -> int:
        live = sorted([item for item in entries.items() if item[1]])
        if len(live) != 1:
            if live:
                names = _targets_of(targets, entries.values())
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
            if kind is not QramLoad:
                append(gate.action())
            elif rows := [row for row in tables[gate.table_id].entries if row[1]]:
                names = _targets_of(gate.data, [value for _, value in rows])
                append(("run", gate.address, tuple([(a, names[v]) for a, v in rows])))
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
    operand of a flip or run is widened to the union of the op's
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
        if kind == "run":
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


def _apply_columns(ops: list[tuple], cols: list[int], full: int | None) -> int:
    """Run lowered ops over one chunk of branches; return its sign column.

    `cols[q]` holds qubit q of every branch in the chunk, branch i at bit i,
    and is updated in place; `full` has one bit set per branch.  A set bit
    of the returned sign column marks a branch whose phase ended at -1.
    A run (see `_lower_runs`), which is how every table load and explicit
    loader reaches the kernel, walks its sorted patterns; entries that
    share their top pattern bits share that AND prefix, and a 0 bit reads
    the complement `ones ^ column`, taken once per control (`~column` would
    cost far more).  Support-regime ops (see `_track_supports`) never read
    `full` or the returned sign: their flips all have controls, their runs
    carry their column width, and their phase flips XOR into a sign slot of
    `cols`.
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
        else:
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
    return sign


def _apply_words(circuit: Circuit, gates: list, words: np.ndarray) -> np.ndarray:
    """Run permutation gates over int64 basis words in place; return where the sign flipped.

    Word bit q holds qubit q.  A flip XORs its targets into the words whose
    controls are all 1, a phase flip toggles the sign of the words with its
    qubit set, and a load XORs in each word's data mask, looked up by its
    address bits (missing addresses load 0).
    """
    negative = np.zeros(len(words), dtype=bool)
    for gate in gates:
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
    return negative


def apply_gates(circuit: Circuit, words: np.ndarray,
                signs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Propagate packed basis words (int64) through the circuit's gates, in place.

    This is the dense backend's word loop, `_apply_words`; it shares no
    lowering with the path sum.  Each sign is negated once per phase flip
    its word meets.  Only permutation gates are allowed; an H raises.
    Returns the same arrays for convenience.
    """
    _check_word_cap(circuit)
    _check_body(circuit.gates)
    if signs is None:
        signs = np.ones(len(words), dtype=np.int64)
    signs[_apply_words(circuit, circuit.gates, words)] *= -1
    return words, signs


def _branch_columns(h: int) -> list[int]:
    """Column t holds bit t of each branch index 0..2^h-1, built by doubling."""
    cols = []
    for t in range(h):
        half = 1 << t
        column, period = ((1 << half) - 1) << half, 2 * half
        while period < 1 << h:
            column |= column << period
            period *= 2
        cols.append(column)
    return cols


def check_branch_cap(h: int, branch_cap: int) -> None:
    """Refuse 2^h branches above the 2^branch_cap cap."""
    if h > branch_cap:
        raise CapExceededError(f"2^{h} branches exceed the 2^{branch_cap} branch cap")


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
                     jobs: int = 1) -> SimOutcome:
    """Exact acceptance statistics by enumerating all 2^h Hadamard branches.

    Up to _FLAT_MAX_H Hadamards, every branch runs in one chunk.  Above it,
    a chunk fixes the variables from _SUPPORT_FREE_VARS up, and the chunks'
    partial sums combine by integer addition, so `jobs` threads never change
    the result.  Raises SimulationError unless every unmeasured qubit holds
    one value over all accepted branches.
    """
    plan = circuit.measurement
    if plan is None:
        raise SimulationError("circuit has no measurement plan")
    h_targets = _h_prefix(circuit)
    h = len(h_targets)
    check_branch_cap(h, branch_cap)
    _check_word_cap(circuit)
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
        full = (1 << n_branches) - 1
        cols = [0] * circuit.n_qubits
        for q, column in zip(h_targets, _branch_columns(h)):
            cols[q] = column
        parts = [tally(cols, full, _apply_columns(ops, cols, full), 0)]
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


def simulate_dense(circuit: Circuit, *, branch_cap: int = BRANCH_CAP_DEFAULT) -> np.ndarray:
    """The 2^h signed basis words after the circuit body, as one (2, 2^h) int64 array.

    Row 0 holds the words, bit q holding qubit q, and row 1 their signs
    (+-1).  Branch b, column b, sets the Hadamard layer's t-th target to bit
    t of b, and the body runs through `apply_gates`'s word loop.  Words may
    coincide; `dense_acceptance` adds them up.
    """
    h_targets = _h_prefix(circuit)
    check_branch_cap(len(h_targets), branch_cap)
    _check_word_cap(circuit)
    _check_body(body := circuit.gates[len(h_targets):])
    signed = np.zeros((2, 1 << len(h_targets)), dtype=np.int64)
    words = signed[0]
    branches = np.arange(1 << len(h_targets), dtype=np.int64)
    for t, q in enumerate(h_targets):
        words |= (branches >> t & 1) << q
    signed[1] = np.where(_apply_words(circuit, body, words), -1, 1)
    return signed


def dense_acceptance(circuit: Circuit, signed: np.ndarray) -> Fraction:
    """Exact probability of the all-zero outcome from `simulate_dense`'s words.

    The words with a Z-measured bit set are dropped.  Each X-measured
    qubit's Hadamard, less its 1/sqrt(2), adds the words that differ only
    there, so those bits are cleared, the words sorted, and the signs of
    each run of equal words added: each sum `amp` is one unmeasured
    assignment's amplitude times 2^((h + #x)/2), and p = sum(amp^2) /
    2^(h + #x).  The |amp| add up to at most 2^h, so the int64 sum of
    squares holds up to h = 31.
    """
    plan = circuit.measurement
    if plan is None:
        raise SimulationError("circuit has no measurement plan")
    if (h := circuit.h_layer_size) > 31:
        raise CapExceededError(f"a sum of squares of up to 2^{2 * h} overflows int64")
    if signed.dtype != np.int64 or signed.shape != (2, 1 << h):
        raise SimulationError(f"a {signed.shape} {signed.dtype} array is not 2^{h} signed words")
    words, signs = signed
    kept = words & sum([1 << q for q in plan.z_qubits]) == 0
    merged = words[kept] & ~sum([1 << q for q in plan.x_qubits])
    order = np.argsort(merged)
    merged, kept_signs = merged[order], signs[kept][order]
    # A run of equal words starts where the word changes; words of at most
    # 62 qubits are >= 0, so the first run starts at the -1 prepended.
    amps = np.add.reduceat(kept_signs, np.flatnonzero(np.diff(merged, prepend=-1)))
    return Fraction(int(np.vdot(amps, amps)), 1 << (h + len(plan.x_qubits)))
