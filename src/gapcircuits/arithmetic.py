"""Reversible ripple-carry arithmetic: in-place addition and two's-complement
comparators built from X, CX, and Toffoli around a majority/unmajority chain.

All three emitters share the same carry chain.  The carry-in wire (the
layout's ancilla) must be 0 on entry and is always restored; operand
registers are restored by the comparators and the adder keeps its `a`
operand intact.  Results are XORed into the output qubit, so callers that
want the plain value must supply it zeroed.

Exact gate tallies for operand width w:
  adder:          4w+1 CX, 2w Toffoli
  >=-comparator:  2w+2 X, 4w+1 CX, 2w Toffoli
  >-comparator:   2w+3 X, 4w+1 CX, 2w Toffoli
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import CX, Circuit, CircuitError, Toffoli, X


@dataclass(frozen=True)
class ArithLayout:
    """Wire assignment: operand tuples a and b (equal width, bit 0 low),
    one carry-in ancilla, and one output qubit (carry-out or decision bit)."""

    ancilla: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    out: int

    def __post_init__(self) -> None:
        if not self.a or len(self.a) != len(self.b):
            raise CircuitError(
                f"operands must be non-empty and equally wide, got {len(self.a)} and {len(self.b)}"
            )
        wires = (self.ancilla, *self.a, *self.b, self.out)
        if len(set(wires)) != len(wires):
            raise CircuitError("arithmetic layout wires must be distinct")

    @property
    def width(self) -> int:
        return len(self.a)


def _majority(carry: int, b: int, a: int) -> tuple:
    # (carry, b, a) -> (carry^a, b^a, MAJ(a, b, carry)); the new carry rides on a.
    # Each gate is its own inverse, so the reversed gates undo it exactly.
    return CX(a, b), CX(a, carry), Toffoli(carry, b, a)


def _carry_chain(layout: ArithLayout, first: tuple[int, ...], second: tuple[int, ...]):
    # Stage m compares/adds first[m] into second[m]; carries ride the second wires.
    for m in range(layout.width):
        carry = layout.ancilla if m == 0 else second[m - 1]
        yield carry, first[m], second[m]


def emit_adder(circuit: Circuit, layout: ArithLayout) -> None:
    """In-place add: (a, b) -> (a, a+b), top sum bit XORed into layout.out.

    The ancilla is the carry-in and must be 0 for the sum to be a+b.
    """
    stages = [(carry, b_m, _majority(carry, b_m, a_m))
              for carry, b_m, a_m in _carry_chain(layout, layout.b, layout.a)]
    gates = [gate for _, _, majority in stages for gate in majority]
    gates.append(CX(layout.a[-1], layout.out))
    # Unmajority-add: undo the majority's Toffoli and carry CX, then write
    # the sum bit onto b.
    for carry, b_m, (_, to_carry, toffoli) in reversed(stages):
        gates += (toffoli, to_carry, CX(carry, b_m))
    circuit.extend(gates)


def _emit_ripple_compare(circuit: Circuit, layout: ArithLayout, complemented: tuple[int, ...],
                         kept: tuple[int, ...]) -> None:
    # Computes the carry out of kept + ~complemented + 1 (two's-complement
    # subtraction kept - complemented) into layout.out, then uncomputes.
    # Carry-out 1 means kept >= complemented.
    carry_in = X(layout.ancilla)
    frame = [X(q) for q in complemented]
    chain = [gate for carry, c_m, k_m in _carry_chain(layout, complemented, kept)
             for gate in _majority(carry, c_m, k_m)]
    circuit.extend([carry_in, *frame, *chain, CX(kept[-1], layout.out), *chain[::-1], *frame,
                    carry_in])


def emit_comparator_ge(circuit: Circuit, layout: ArithLayout) -> None:
    """XOR [a >= b] into layout.out; operands and ancilla are restored."""
    _emit_ripple_compare(circuit, layout, complemented=layout.b, kept=layout.a)


def emit_comparator_gt(circuit: Circuit, layout: ArithLayout) -> None:
    """XOR [a > b] into layout.out; operands and ancilla are restored.

    Built as the >=-comparator with operand roles swapped plus one X on the
    output, hence the one extra X gate in its tally.
    """
    _emit_ripple_compare(circuit, layout, complemented=layout.a, kept=layout.b)
    circuit.add(X(layout.out))
