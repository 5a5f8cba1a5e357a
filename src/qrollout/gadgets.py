"""Reversible arithmetic gadgets emitted through a circuit Builder.

All gadgets leave their scratch qubits clean and read operand registers as
controls only (operands are never modified unless the gadget's contract says
so).  Registers are tuples of qubit indices, LSB first.  The arithmetic
gadgets are memoized fragments (``Builder.call``): each is recorded once per
builder and argument shape and replayed by qubit remap.  ``copy_register``
and ``xor_constant`` emit fresh gates: one gate per bit gains nothing from a
replay.
"""
from __future__ import annotations

from typing import Sequence

from .circuit import Builder, CircuitError

Reg = Sequence[int]


def copy_register(b: Builder, src: Reg, dst: Reg) -> None:
    """dst ^= src, bit by bit.  len(src) <= len(dst)."""
    if len(src) > len(dst):
        raise CircuitError("copy source wider than destination")
    for s, d in zip(src, dst):
        b.cx(s, d)


def constant_targets(reg: Reg, value: int) -> list[int]:
    """The qubits of ``reg`` at the set bits of ``value``."""
    if value >> len(reg):
        raise CircuitError("constant overflows register")
    return [q for k, q in enumerate(reg) if (value >> k) & 1]


def xor_constant(b: Builder, reg: Reg, value: int, controls=()) -> None:
    """reg ^= value as a single multi-target controlled X (no gate if 0)."""
    targets = constant_targets(reg, value)
    if targets:
        b.gate(controls, targets)


def controlled_increment(b: Builder, reg: Reg, controls, scratch: Reg) -> None:
    """reg += 1 (mod 2^w) iff all controls are satisfied.

    Ripple scheme: carry chain computed into scratch ascending, then flips
    interleaved with carry uncomputation descending.  Needs w-1 clean
    scratch bits; costs 3w-2 gates.
    """
    w = len(reg)
    if w == 0:
        return
    if w > 1 and len(scratch) < w - 1:
        raise CircuitError("controlled_increment: need w-1 scratch bits")
    b.call(_increment, reg, controls, scratch[:w - 1])


def _increment(b: Builder, reg, controls, car) -> None:
    w = len(reg)
    controls = list(controls)
    if w == 1:
        b.gate(controls, (reg[0],))
        return
    b.gate(controls + [(reg[0], True)], (car[0],))
    for j in range(2, w):
        b.gate(((car[j - 2], True), (reg[j - 1], True)), (car[j - 1],))
    for j in range(w - 1, 0, -1):
        b.cx(car[j - 1], reg[j])
        if j >= 2:
            b.gate(((car[j - 2], True), (reg[j - 1], True)), (car[j - 1],))
        else:
            b.gate(controls + [(reg[0], True)], (car[0],))
    b.gate(controls, (reg[0],))


def controlled_decrement(b: Builder, reg: Reg, controls, scratch: Reg) -> None:
    """reg -= 1 (mod 2^w) iff controls satisfied."""
    b.emit_reversed(controlled_increment, reg, list(controls), scratch)


def add_register(b: Builder, acc: Reg, addend: Reg, scratch: Reg,
                 controls=()) -> None:
    """acc += addend (mod 2^len(acc)) iff controls satisfied.

    Carries are computed unconditionally into scratch and uncomputed in
    place; only the sum-bit updates carry the external controls, so the
    accumulator is untouched when the controls fail.  len(addend) may be
    shorter than len(acc); it is treated as zero-extended.
    """
    n = len(acc)
    m = len(addend)
    if m > n:
        raise CircuitError("addend wider than accumulator")
    if m == 0 or n == 0:
        return
    if n > 1 and len(scratch) < n - 1:
        raise CircuitError("add_register: need len(acc)-1 scratch bits")
    b.call(_add, acc, addend, scratch[:n - 1], controls)


def _add(b: Builder, acc, addend, car, controls) -> None:
    n = len(acc)
    m = len(addend)
    controls = list(controls)
    if n == 1:
        b.gate(controls + [(addend[0], True)], (acc[0],))
        return

    def emit_carry(j):
        # car[j-1] ^= MAJ(addend[j-1], acc[j-1], car[j-2]) with car[-1] = 0
        if j - 1 < m:
            a = addend[j - 1]
            if j == 1:
                b.gate(((a, True), (acc[0], True)), (car[0],))
            else:
                b.gate(((a, True), (acc[j - 1], True)), (car[j - 1],))
                b.gate(((a, True), (car[j - 2], True)), (car[j - 1],))
                b.gate(((acc[j - 1], True), (car[j - 2], True)), (car[j - 1],))
        else:
            if j == 1:
                return
            b.gate(((acc[j - 1], True), (car[j - 2], True)), (car[j - 1],))

    for j in range(1, n):
        emit_carry(j)
    for j in range(n - 1, 0, -1):
        if j < m:
            b.gate(controls + [(addend[j], True)], (acc[j],))
        b.gate(controls + [(car[j - 1], True)], (acc[j],))
        emit_carry(j)  # self-inverse: acc[j-1] is still pre-sum here
    b.gate(controls + [(addend[0], True)], (acc[0],))


def sub_register(b: Builder, acc: Reg, addend: Reg, scratch: Reg) -> None:
    """acc -= addend (mod 2^len(acc))."""
    b.emit_reversed(add_register, acc, addend, scratch)


def flag_less_than_const(b: Builder, reg: Reg, bound: int, flag: int) -> None:
    """flag ^= [reg < bound] for a constant bound.

    Emits one gate per set bit of the bound (disjoint prefix patterns); a
    bound above the register range is unconditionally true.
    """
    if bound > 0:
        b.call(_flag_less_than, reg, flag, bound=bound)


def _flag_less_than(b: Builder, reg, flag, *, bound: int) -> None:
    w = len(reg)
    if bound >= (1 << w):
        b.gate((), (flag,))
        return
    for k in reversed(range(w)):
        if (bound >> k) & 1:
            pattern = [(reg[j], bool((bound >> j) & 1)) for j in range(k + 1, w)]
            pattern.append((reg[k], False))
            b.gate(pattern, (flag,))


def and_ladder(b: Builder, inputs: Sequence[tuple[int, bool]], out: int,
               scratch: Reg) -> None:
    """out ^= AND of polarity-qualified inputs via a Toffoli chain.

    Needs len(inputs)-2 scratch bits; the caller uncomputes by re-emitting
    the same ladder reversed (``emit_inverse`` of a ``capture()``).
    """
    m = len(inputs)
    if m == 0:
        raise CircuitError("and_ladder: no inputs")
    if m > 1 and len(scratch) < m - 2:
        raise CircuitError("and_ladder: need m-2 scratch bits")
    b.call(_and_ladder, inputs, out, scratch[:max(m - 2, 0)])


def _and_ladder(b: Builder, inputs, out, scratch) -> None:
    m = len(inputs)
    if m == 1:
        b.gate((inputs[0],), (out,))
        return
    cur = inputs[0]
    for idx in range(1, m):
        tgt = out if idx == m - 1 else scratch[idx - 1]
        b.gate((cur, inputs[idx]), (tgt,))
        cur = (tgt, True)
