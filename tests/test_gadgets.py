"""Reversible arithmetic gadgets, checked exhaustively at small widths."""

import pytest
from hypothesis import given, settings, strategies as st

from qrollout.circuit import Builder, CircuitError
from qrollout.gadgets import (add_register, and_ladder, controlled_decrement,
                              controlled_increment, copy_register,
                              flag_less_than_const, sub_register,
                              xor_constant)

from emulate import grid, run


def _fresh(*regs):
    b = Builder()
    handles = [b.add_register(name, width, "ancilla") for name, width in regs]
    return b, handles


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_controlled_increment_all_values(w):
    b, (reg, cbit, scr) = _fresh(("r", w), ("c", 1), ("s", max(1, w - 1)))
    controlled_increment(b, reg, [(cbit[0], True)], scr)
    c = b.finish()
    inputs = grid({"c": (0, 1), "r": range(1 << w)})
    out = run(c, inputs)
    assert out["r"] == [(v + ctrl) % (1 << w)
                        for v, ctrl in zip(inputs["r"], inputs["c"])]
    assert out["s"] == [0] * len(out["s"])


@pytest.mark.parametrize("w", [1, 2, 3])
def test_controlled_decrement_inverts_increment(w):
    b, (reg, cbit, scr) = _fresh(("r", w), ("c", 1), ("s", max(1, w - 1)))
    controlled_increment(b, reg, [(cbit[0], True)], scr)
    controlled_decrement(b, reg, [(cbit[0], True)], scr)
    c = b.finish()
    inputs = grid({"r": range(1 << w), "c": (0, 1)})
    assert run(c, inputs) == {**inputs, "s": [0] * len(inputs["r"])}


def test_increment_no_controls_is_plain_increment():
    b, (reg, scr) = _fresh(("r", 3), ("s", 2))
    controlled_increment(b, reg, [], scr)
    c = b.finish()
    assert run(c, {"r": range(8)})["r"] == [(v + 1) % 8 for v in range(8)]


@pytest.mark.parametrize("wa,wb", [(1, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
def test_add_and_sub_register_exhaustive(wa, wb):
    for controlled in (False, True):
        b, (acc, add, cbit, scr) = _fresh(("a", wa), ("b", wb), ("c", 1),
                                          ("s", max(1, wa - 1)))
        ctl = [(cbit[0], True)] if controlled else []
        add_register(b, acc, add, scr, controls=ctl)
        c = b.finish()
        inputs = grid({"a": range(1 << wa), "b": range(1 << wb),
                       "c": (0, 1) if controlled else (0,)})
        out = run(c, inputs)
        for va, vb, cv, got in zip(inputs["a"], inputs["b"], inputs["c"],
                                   out["a"]):
            expect = (va + vb) % (1 << wa) if (not controlled or cv) else va
            assert got == expect, (va, vb, cv)
        assert out["b"] == inputs["b"]
        assert out["s"] == [0] * len(out["s"])


def test_sub_register_two_complement_sign():
    # diff = x - y on 4 bits: top bit set iff x < y for 3-bit operands
    b, (diff, y, scr) = _fresh(("d", 4), ("y", 3), ("s", 3))
    sub_register(b, diff, y, scr)
    c = b.finish()
    inputs = grid({"d": range(8), "y": range(8)})
    for x, yv, got in zip(inputs["d"], inputs["y"], run(c, inputs)["d"]):
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
    out = run(b.finish(), {"a": va, "b": vb})
    assert out["a"] == [(va + vb) % (1 << wa)]
    assert out["s"] == [0]


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_flag_less_than_const_exhaustive(w):
    for bound in range(0, (1 << w) + 2):
        b, (reg, flag) = _fresh(("r", w), ("f", 1))
        flag_less_than_const(b, reg, bound, flag[0])
        out = run(b.finish(), {"r": range(1 << w)})
        assert out["f"] == [1 if v < bound else 0 for v in range(1 << w)], \
            (w, bound)
        assert out["r"] == list(range(1 << w))


def test_and_ladder_polarities():
    b, (inp, out, scr) = _fresh(("i", 3), ("o", 1), ("s", 2))
    inputs = [(inp[0], True), (inp[1], False), (inp[2], True)]
    with b.capture() as ops:
        and_ladder(b, inputs, out[0], scr)
    b.emit(ops)
    b.emit_inverse(ops)  # scratch must uncompute; net effect only on out
    # re-apply ladder once more so out keeps the AND value
    and_ladder(b, inputs, out[0], scr)
    want = [1 if (v & 1) and not (v & 2) and (v & 4) else 0 for v in range(8)]
    assert run(b.finish(), {"i": range(8)})["o"] == want


def test_xor_constant_single_gate_and_overflow():
    b, (reg,) = _fresh(("r", 3))
    xor_constant(b, reg, 0b101)
    c = b.finish()
    assert len(c.gates) == 1
    assert run(c, {"r": 0b010})["r"] == [0b111]
    b, (reg,) = _fresh(("r", 2))
    with pytest.raises(CircuitError):
        xor_constant(b, reg, 4)


def test_copy_register_widths():
    b, (src, dst) = _fresh(("a", 2), ("b", 3))
    copy_register(b, src, dst)
    assert run(b.finish(), {"a": 3})["b"] == [3]
    b, (src, dst) = _fresh(("a", 3), ("b", 2))
    with pytest.raises(CircuitError):
        copy_register(b, src, dst)


def test_emit_reversed_gives_exact_inverse():
    b, (acc, add, scr) = _fresh(("a", 4), ("b", 3), ("s", 3))
    add_register(b, acc, add, scr)
    b.emit_reversed(add_register, acc, add, scr)
    inputs = grid({"a": range(0, 16, 3), "b": range(8)})
    assert run(b.finish(), inputs) == {**inputs, "s": [0] * len(inputs["a"])}


def _self_inverting(b):
    # captures a block and plays it around a gate, as the Sway evaluation does
    with b.capture() as ops:
        b.gate((), (0,))
        b.cx(0, 1)
    b.emit(ops)
    b.gate([1], [2])
    b.emit_inverse(ops)


def test_emit_reversed_captures_the_emitters_own_captures():
    real, _ = _fresh(("q", 3))
    _self_inverting(real)
    forward = real.finish().gates
    for record in (True, False):
        b = Builder(record=record)
        b.add_register("q", 3, "ancilla")
        with b.capture() as ops:
            b.emit_reversed(_self_inverting)
        # the capture held every gate back, and an enclosing capture
        # receives only the reversed gates: inverting them alone gives the
        # forward gates back
        assert b.report().gate_count == 0 and not b._tape
        probe, _ = _fresh(("q", 3))
        probe.emit_inverse(ops)
        assert probe.finish().gates == forward
        b.emit(ops)
        assert b.report() == real.report()
        if record:
            assert b.finish().gates == forward.reversed()
    # x(0) followed by its captured inverse is the identity
    def identity(b):
        with b.capture() as ops:
            b.gate((), (0,))
        b.emit(ops)
        b.emit_inverse(ops)
    b, _ = _fresh(("q", 1))
    b.emit_reversed(identity)
    c = b.finish()
    assert len(c.gates) == 2
    assert run(c, {"q": 0}) == {"q": [0]}


def test_emit_reversed_nests():
    # reversing a subtraction, itself a reversed addition, is the addition
    b, (acc, add, scr) = _fresh(("a", 4), ("b", 3), ("s", 3))
    add_register(b, acc, add, scr)
    forward = b.finish().gates
    b, (acc, add, scr) = _fresh(("a", 4), ("b", 3), ("s", 3))
    b.emit_reversed(sub_register, acc, add, scr)
    assert b.finish().gates == forward
