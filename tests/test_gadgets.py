"""Reversible arithmetic gadgets, checked exhaustively at small widths."""

import pytest
from hypothesis import given, settings, strategies as st

from qrollout.circuit import Builder, CircuitError
from qrollout import emulator as em
from qrollout.gadgets import (add_register, and_ladder, controlled_decrement,
                              controlled_increment, copy_register,
                              flag_less_than_const, sub_register,
                              xor_constant)


def _run(builder, assignments):
    c = builder.finish()
    st_ = em.BasisState.from_registers(c, assignments)
    return c, em.apply(c, st_)


def _fresh(*regs):
    b = Builder()
    handles = [b.add_register(name, width, "ancilla") for name, width in regs]
    return b, handles


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_controlled_increment_all_values(w):
    for ctrl in (0, 1):
        b, (reg, cbit, scr) = _fresh(("r", w), ("c", 1), ("s", max(1, w - 1)))
        controlled_increment(b, reg, [(cbit[0], True)], scr)
        c = b.finish()
        for v in range(1 << w):
            state = em.BasisState.from_registers(c, {"r": v, "c": ctrl})
            out = em.apply(c, state)
            expect = (v + ctrl) % (1 << w)
            assert out.register_value(c, "r") == expect
            assert out.register_value(c, "s") == 0


@pytest.mark.parametrize("w", [1, 2, 3])
def test_controlled_decrement_inverts_increment(w):
    b, (reg, cbit, scr) = _fresh(("r", w), ("c", 1), ("s", max(1, w - 1)))
    controlled_increment(b, reg, [(cbit[0], True)], scr)
    controlled_decrement(b, reg, [(cbit[0], True)], scr)
    c = b.finish()
    for v in range(1 << w):
        for ctrl in (0, 1):
            state = em.BasisState.from_registers(c, {"r": v, "c": ctrl})
            assert em.apply(c, state).value == state.value


def test_increment_no_controls_is_plain_increment():
    b, (reg, scr) = _fresh(("r", 3), ("s", 2))
    controlled_increment(b, reg, [], scr)
    c = b.finish()
    for v in range(8):
        out = em.apply(c, em.BasisState.from_registers(c, {"r": v}))
        assert out.register_value(c, "r") == (v + 1) % 8


@pytest.mark.parametrize("wa,wb", [(1, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
def test_add_and_sub_register_exhaustive(wa, wb):
    for controlled in (False, True):
        b, (acc, add, cbit, scr) = _fresh(("a", wa), ("b", wb), ("c", 1),
                                          ("s", max(1, wa - 1)))
        ctl = [(cbit[0], True)] if controlled else []
        add_register(b, acc, add, scr, controls=ctl)
        c = b.finish()
        for va in range(1 << wa):
            for vb in range(1 << wb):
                for cv in ((0, 1) if controlled else (1,)):
                    state = em.BasisState.from_registers(
                        c, {"a": va, "b": vb, "c": cv if controlled else 0})
                    out = em.apply(c, state)
                    expect = (va + vb) % (1 << wa) if (not controlled or cv) \
                        else va
                    assert out.register_value(c, "a") == expect, (va, vb, cv)
                    assert out.register_value(c, "b") == vb
                    assert out.register_value(c, "s") == 0


def test_sub_register_two_complement_sign():
    # diff = x - y on 4 bits: top bit set iff x < y for 3-bit operands
    b, (diff, y, scr) = _fresh(("d", 4), ("y", 3), ("s", 3))
    sub_register(b, diff, y, scr)
    c = b.finish()
    for x in range(8):
        for yv in range(8):
            state = em.BasisState.from_registers(c, {"d": x, "y": yv})
            out = em.apply(c, state)
            got = out.register_value(c, "d")
            assert got == (x - yv) % 16
            assert (got >> 3) == (1 if x < yv else 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_add_register_random_widths(wa, data):
    wb = data.draw(st.integers(1, wa))
    va = data.draw(st.integers(0, 2 ** wa - 1))
    vb = data.draw(st.integers(0, 2 ** wb - 1))
    b, (acc, add, scr) = _fresh(("a", wa), ("b", wb), ("s", wa - 1))
    add_register(b, acc, add, scr)
    c = b.finish()
    out = em.apply(c, em.BasisState.from_registers(c, {"a": va, "b": vb}))
    assert out.register_value(c, "a") == (va + vb) % (1 << wa)
    assert out.register_value(c, "s") == 0


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_flag_less_than_const_exhaustive(w):
    for bound in range(0, (1 << w) + 2):
        b, (reg, flag) = _fresh(("r", w), ("f", 1))
        flag_less_than_const(b, reg, bound, flag[0])
        c = b.finish()
        for v in range(1 << w):
            out = em.apply(c, em.BasisState.from_registers(c, {"r": v}))
            assert out.register_value(c, "f") == (1 if v < bound else 0), \
                (w, bound, v)
            assert out.register_value(c, "r") == v


def test_and_ladder_polarities():
    b, (inp, out, scr) = _fresh(("i", 3), ("o", 1), ("s", 2))
    inputs = [(inp[0], True), (inp[1], False), (inp[2], True)]
    b.begin_segment()
    and_ladder(b, inputs, out[0], scr)
    seg = b.end_segment()
    b.emit_inverse(seg)  # scratch must uncompute; net effect only on out
    # re-apply ladder once more so out keeps the AND value
    and_ladder(b, inputs, out[0], scr)
    c = b.finish()
    for v in range(8):
        st_ = em.BasisState.from_registers(c, {"i": v})
        res = em.apply(c, st_)
        want = 1 if (v & 1) and not (v & 2) and (v & 4) else 0
        assert res.register_value(c, "o") == want


def test_xor_constant_single_gate_and_overflow():
    b, (reg,) = _fresh(("r", 3))
    xor_constant(b, reg, 0b101)
    c = b.finish()
    assert len(c.gates) == 1
    out = em.apply(c, em.BasisState.from_registers(c, {"r": 0b010}))
    assert out.register_value(c, "r") == 0b111
    b, (reg,) = _fresh(("r", 2))
    with pytest.raises(CircuitError):
        xor_constant(b, reg, 4)


def test_copy_register_widths():
    b, (src, dst) = _fresh(("a", 2), ("b", 3))
    copy_register(b, src, dst)
    c = b.finish()
    out = em.apply(c, em.BasisState.from_registers(c, {"a": 3}))
    assert out.register_value(c, "b") == 3
    b, (src, dst) = _fresh(("a", 3), ("b", 2))
    with pytest.raises(CircuitError):
        copy_register(b, src, dst)


def test_emit_reversed_gives_exact_inverse():
    b, (acc, add, scr) = _fresh(("a", 4), ("b", 3), ("s", 3))
    add_register(b, acc, add, scr)
    b.emit_reversed(add_register, acc, add, scr)
    c = b.finish()
    for va in range(0, 16, 3):
        for vb in range(8):
            state = em.BasisState.from_registers(c, {"a": va, "b": vb})
            assert em.apply(c, state).value == state.value


def _self_inverting(b):
    # opens a segment and emits its inverse, as the Sway evaluation does
    b.begin_segment()
    b.x(0)
    b.cx(0, 1)
    seg = b.end_segment()
    b.gate([1], [2])
    b.emit_inverse(seg)


def test_emit_reversed_captures_the_emitters_own_segments():
    real, _ = _fresh(("q", 3))
    _self_inverting(real)
    forward = real.finish().gates
    for record in (True, False):
        b = Builder(record=record)
        b.add_register("q", 3, "ancilla")
        b.begin_segment()
        b.emit_reversed(_self_inverting)
        # an enclosing segment receives only the reversed gates: inverting
        # it alone gives the forward gates back
        probe, _ = _fresh(("q", 3))
        probe.emit_inverse(b.end_segment())
        assert probe.finish().gates == forward
        assert b.report() == real.report()
        if record:
            assert b.finish().gates == tuple(reversed(forward))
    # x(0) followed by its captured inverse is the identity
    def identity(b):
        b.begin_segment()
        b.x(0)
        b.emit_inverse(b.end_segment())
    b, _ = _fresh(("q", 1))
    b.emit_reversed(identity)
    c = b.finish()
    assert len(c.gates) == 2
    assert em.apply(c, em.BasisState(1, 0)).value == 0


def test_emit_reversed_nests():
    # reversing a subtraction, itself a reversed addition, is the addition
    b, (acc, add, scr) = _fresh(("a", 4), ("b", 3), ("s", 3))
    add_register(b, acc, add, scr)
    forward = b.finish().gates
    b, (acc, add, scr) = _fresh(("a", 4), ("b", 3), ("s", 3))
    b.emit_reversed(sub_register, acc, add, scr)
    assert b.finish().gates == forward
