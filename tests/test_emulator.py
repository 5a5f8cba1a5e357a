"""Emulator: gate semantics, bijectivity, cleanness, payoff estimates."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrollout.circuit import Builder, Gate, RegisterDecl, build_circuit, invert
from qrollout import emulator as em
from qrollout import rank_select as rs


def _simple(width, gates):
    return build_circuit([RegisterDecl("q", width, "ancilla")], gates)


def test_x_flips_bit_zero():
    c = _simple(3, [Gate((), (0,))])
    out = em.apply(c, em.BasisState(3, 0b000))
    assert out.value == 0b001


def test_cnot_control_unsatisfied():
    c = _simple(2, [Gate(((1, True),), (0,))])
    assert em.apply(c, em.BasisState(2, 0b00)).value == 0b00
    assert em.apply(c, em.BasisState(2, 0b10)).value == 0b11


def test_negative_polarity_control():
    c = _simple(2, [Gate(((1, False),), (0,))])
    assert em.apply(c, em.BasisState(2, 0b00)).value == 0b01
    assert em.apply(c, em.BasisState(2, 0b10)).value == 0b10


def test_width_mismatch_rejected():
    c = _simple(2, [])
    with pytest.raises(em.EmulationError):
        em.apply(c, em.BasisState(3, 0))


def test_scan_cell_writes_position_over_sentinel():
    # mask 0100 (position 1 valid), nth 0: cell 1 replaces sentinel by 1
    c = rs.build_scan(4)
    st = em.BasisState.from_registers(c, {"mask": 0b0010, "nth": 0})
    out = em.apply(c, st)
    assert out.register_value(c, "out") == 1
    # all-zero mask keeps the sentinel
    st = em.BasisState.from_registers(c, {"mask": 0, "nth": 0})
    assert em.apply(c, st).register_value(c, "out") == 4


def test_apply_batch_agrees_with_apply_int():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 8)
        gates = []
        for _ in range(rng.randrange(1, 30)):
            qs = rng.sample(range(n), min(n, rng.randrange(2, 4)))
            pol = [(q, rng.random() < 0.5) for q in qs[:-1]]
            gates.append(Gate(tuple(pol), (qs[-1],)))
        c = _simple(n, gates)
        bits = np.zeros((1 << n, n), dtype=np.uint8)
        em.write_register(bits, c, "q", np.arange(1 << n))
        outs = em.read_register(em.apply_bits(c, bits), c, "q")
        for x in range(1 << n):
            assert em.apply_int(c, x) == outs[x]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 63, 64, 125]), st.data())
def test_register_codec_round_trip(width, data):
    pad = data.draw(st.integers(1, 7))
    c = build_circuit([RegisterDecl("lo", pad, "ancilla"),
                       RegisterDecl("r", width, "dice"),
                       RegisterDecl("hi", 3, "ancilla")], [])
    values = data.draw(st.lists(st.integers(0, 2 ** width - 1),
                                min_size=1, max_size=8))
    bits = np.zeros((len(values), c.total_qubits), dtype=np.uint8)
    em.write_register(bits, c, "r", values)
    assert [int(v) for v in em.read_register(bits, c, "r")] == values
    for row, v in zip(bits, values):
        state = em.BasisState.from_registers(c, {"r": v})
        assert row.tolist() == state.bits()
        assert state.register_value(c, "r") == v
    # a scalar reaches every row and leaves the neighbouring registers alone
    scalar = data.draw(st.integers(0, 2 ** width - 1))
    em.write_register(bits, c, "r", scalar)
    assert [int(v) for v in em.read_register(bits, c, "r")] == \
        [scalar] * len(values)
    state = em.BasisState.from_registers(c, {"r": scalar})
    assert all(row.tolist() == state.bits() for row in bits)


def test_round_trip_with_invert_on_random_circuits():
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        n = rng.randrange(2, 9)
        gates = []
        for _ in range(rng.randrange(1, 40)):
            qs = rng.sample(range(n), min(n, rng.randrange(2, 4)))
            gates.append(Gate(tuple((q, True) for q in qs[:-1]), (qs[-1],)))
        c = _simple(n, gates)
        ci = invert(c)
        for _ in range(25):
            x = rng.getrandbits(n)
            assert em.apply_int(ci, em.apply_int(c, x)) == x
            checked += 1
    assert checked >= 1000


def test_bijective_identity_and_single_gate():
    assert em.check_bijective(_simple(3, [])).passed
    assert em.check_bijective(
        _simple(3, [Gate(((0, True), (1, False)), (2,))])).passed


def test_bijective_exhaustive_scan_n3():
    rep = em.check_bijective(rs.build_scan(3))
    assert rep.passed and rep.mode == "exhaustive"


def test_bijective_sampled_mode_on_wide_circuit():
    b = Builder()
    b.add_register("q", 40, "ancilla")
    for i in range(39):
        b.cx(i, i + 1)
    rep = em.check_bijective(b.finish(), samples=2000)
    assert rep.passed and rep.mode == "sampled"


def test_ancilla_clean_detects_violation():
    b = Builder()
    b.add_register("inp", 1, "mask")
    b.add_register("flag", 1, "ancilla")
    b.cx(0, 1)                      # leaves flag set when inp = 1
    c = b.finish()
    rep = em.check_ancilla_clean(c, em.InputDistribution(uniform={"inp": 2}))
    assert not rep.passed
    assert rep.dirty_register == "flag"
    assert rep.witness_input == {"inp": 1, "flag": 0}


def test_ancilla_clean_scan():
    c = rs.build_scan(5)
    dist = em.InputDistribution(uniform={"mask": 32, "nth": 8})
    assert em.check_ancilla_clean(c, dist).passed


def test_payoff_trivial_one_and_zero():
    b = Builder()
    b.add_register("pay", 1, "payoff")
    b.x(0)
    est = em.payoff_probability(b.finish(), em.InputDistribution())
    assert est.probability == 1.0
    b = Builder()
    b.add_register("pay", 1, "payoff")
    b.add_register("src", 2, "dice")
    c = b.finish()
    est = em.payoff_probability(c, em.InputDistribution(uniform={"src": 4}))
    assert est.probability == 0.0


def test_payoff_exact_counts_weighted_inputs():
    # payoff = AND of two uniform bits: probability 1/4
    b = Builder()
    b.add_register("pay", 1, "payoff")
    b.add_register("src", 2, "dice")
    b.gate([1, 2], [0])
    c = b.finish()
    est = em.payoff_probability(c, em.InputDistribution(uniform={"src": 4}))
    assert est.probability == 0.25
    # restricting faces to {0..2} removes the (1,1) input entirely
    est = em.payoff_probability(c, em.InputDistribution(uniform={"src": 3}))
    assert est.probability == 0.0


def test_uniform_face_guarantee():
    c = _simple(4, [])
    dist = em.InputDistribution(uniform={"q": 11})
    for bits in dist.enumerate_chunks(c):
        vals = em.read_register(bits, c, "q")
        assert vals.max() < 11
    sampled = dist.sample(c, 500, seed=9)
    assert em.read_register(sampled, c, "q").max() < 11


def test_exact_budget_enforced():
    c = _simple(30, [])
    dist = em.InputDistribution(uniform={"q": 2 ** 30})
    with pytest.raises(em.EmulationError):
        em.payoff_probability(c, dist, budget=1 << 10)


def test_exact_budget_env_override(monkeypatch):
    monkeypatch.setenv("QROLLOUT_EXACT_BUDGET", "16")
    assert em.exact_budget() == 16
    b = Builder()
    b.add_register("pay", 1, "payoff")
    b.add_register("src", 5, "dice")
    c = b.finish()
    with pytest.raises(em.EmulationError):
        em.payoff_probability(c, em.InputDistribution(uniform={"src": 32}))
    monkeypatch.delenv("QROLLOUT_EXACT_BUDGET")
    assert em.exact_budget() == em.DEFAULT_EXACT_BUDGET


def test_mc_matches_exact_within_three_sigma():
    # payoff = OR of two bits via negative controls: p = 3/4
    b = Builder()
    b.add_register("pay", 1, "payoff")
    b.add_register("src", 2, "dice")
    b.x(0)
    b.gate([(1, False), (2, False)], [0])
    c = b.finish()
    dist = em.InputDistribution(uniform={"src": 4})
    exact = em.payoff_probability(c, dist).probability
    assert exact == 0.75
    shots = 4000
    bound = 3 * math.sqrt(exact * (1 - exact) / shots)
    hits = 0
    seeds = range(40)
    for seed in seeds:
        est = em.payoff_probability(c, dist, mode="mc", shots=shots, seed=seed)
        if abs(est.probability - exact) <= bound:
            hits += 1
    assert hits >= 0.95 * len(seeds) - 1


def test_mc_deterministic_given_seed():
    b = Builder()
    b.add_register("pay", 1, "payoff")
    b.add_register("src", 3, "dice")
    b.cx(1, 0)
    c = b.finish()
    dist = em.InputDistribution(uniform={"src": 8})
    a = em.payoff_probability(c, dist, mode="mc", shots=1000, seed=5)
    b2 = em.payoff_probability(c, dist, mode="mc", shots=1000, seed=5)
    assert a.probability == b2.probability
