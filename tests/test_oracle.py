"""Oracle composition: branchwise agreement, cost formulas, invariants."""

import dataclasses
import random
import re
from math import sqrt

import numpy as np
import pytest

import classical_reference as ref
from qrollout import domains as dm
from qrollout import oracle as orc
from qrollout.circuit import TGT, invert
from qrollout import emulator as em

from emulate import run

CENTER3 = dm.parse_board("SSS\nSIS\nSSS", "sir")


def small_sir(h=1, m=2, t=1, rho=2):
    return dm.sir_spec(dm.SirConfig(m=m, horizon=h, threshold=t, rho=rho))


def small_sway(h=1, m=2):
    return dm.sway_spec(dm.SwayConfig(m=m, horizon=h))


def test_h0_oracle_is_eval_only():
    spec = small_sir(h=0)
    oc = orc.compose(spec)
    assert oc.prep_gates == 0 and oc.trans_gates == 0
    assert oc.report.gate_count == oc.eval_gates > 0
    # payoff of the initial configuration directly
    board = dm.set_cell(0, 0, dm.INFECTED)
    out = run(oc.circuit, {"config0": board})
    assert out["payoff"] == [ref.classical_eval(spec, board)]


def test_branchwise_sir_and_sway_small(monkeypatch):
    def no_flags(*args):
        raise AssertionError("a passing check flagged rows")

    # the output columns equal the expected ones: no row is flagged
    monkeypatch.setattr(orc, "flagged_rows", no_flags)
    rep = orc.branchwise_check(small_sir(h=2, m=2), 150,
                               dm.set_cell(0, 0, dm.INFECTED))
    assert rep.passed
    rep = orc.branchwise_check(small_sway(h=2, m=2), 150, 0)
    assert rep.passed


@pytest.mark.parametrize("m", [2, 3])
def test_white_first_sway_holds_in_compose_the_kernel_and_the_dp(m):
    # a placement order neither built-in spec uses: every reader of
    # placed_codes must follow it
    black_first = dm.sway_spec(dm.SwayConfig(m, 1))
    spec = dataclasses.replace(black_first, placed_codes=(dm.WHITE, dm.BLACK))
    assert orc.branchwise_check(spec, 200, 0).passed
    exact = dm.exact_value(spec, 0)
    assert abs(exact - ref.dict_exact_value(spec, 0)) <= 1e-12
    assert abs(exact - dm.exact_value(black_first, 0)) > 0.01
    shots = 20_000
    p, _ = dm.sample_payoff(spec, 0, shots, seed=29)
    assert abs(p - exact) <= 4 * sqrt(exact * (1 - exact) / shots)


@pytest.mark.parametrize("code", [0, 3, 4])
def test_placed_codes_must_be_one_bit_codes(code):
    with pytest.raises(orc.OracleError, match=f"placed code {code} is not"):
        dataclasses.replace(small_sway(), placed_codes=(dm.BLACK, code))


def test_branchwise_rejects_fewer_than_one_branch():
    for seeds in (0, -2, []):
        with pytest.raises(orc.OracleError,
                           match=rf"seeds must give at least one branch, "
                                 rf"got {re.escape(repr(seeds))}"):
            orc.branchwise_check(small_sway(h=1, m=2), seeds, 0)


def test_branchwise_3x3_instances():
    rep = orc.branchwise_check(dm.sway_spec(dm.SwayConfig(3, 2)), 50, 0)
    assert rep.passed
    rep = orc.branchwise_check(
        dm.sir_spec(dm.SirConfig(3, 2, threshold=2)), 50, CENTER3)
    assert rep.passed


def test_branchwise_detects_corrupted_transition():
    spec = small_sir(h=1, m=2)
    # corrupt the transition: skip the recovery update entirely
    fields = {f: getattr(spec, f) for f in spec.__dataclass_fields__}
    good_emit = fields["emit_transition"]

    def bad_emit(b, mid, nxt, dice, pool, scr):
        good_emit(b, mid, nxt, dice, pool, scr)
        b.gate((), (nxt[0],))                # flip one configuration bit

    fields["emit_transition"] = bad_emit
    bad_spec = orc.RolloutSpec(**fields)
    rep = orc.branchwise_check(bad_spec, 20, dm.set_cell(0, 0, dm.INFECTED))
    assert not rep.passed
    assert rep.register == "config1"
    assert rep.round_index == 1
    assert rep.seed is not None


def test_branchwise_localises_a_row_selective_corruption():
    # flip config1 bit 0 only on branches whose cell-0 die has bit 0 set, so
    # the first failing branch is not the first branch
    spec = small_sir(h=1, m=2)
    fields = {f: getattr(spec, f) for f in spec.__dataclass_fields__}
    good_emit = fields["emit_transition"]

    def bad_emit(b, mid, nxt, dice, pool, scr):
        good_emit(b, mid, nxt, dice, pool, scr)
        b.cx(dice[0], nxt[0])

    fields["emit_transition"] = bad_emit
    bad_spec = orc.RolloutSpec(**fields)
    board = dm.set_cell(0, 0, dm.INFECTED)
    c = orc.compose(bad_spec).circuit
    seeds = list(range(101, 141))
    streams = ref.law_streams(
        bad_spec, orc.input_law(bad_spec, board).draw_each(seeds))
    regs = {"config0": board, "dice_h1": [sum(
        f << (i * bad_spec.d) for i, f in enumerate(dice[0]))
        for _, dice in streams]}
    for j in range(len(bad_spec.placed_codes)):
        regs[f"sel_h1_p{j}"] = [sel[0][j] for sel, _ in streams]
    out = run(c, regs)

    def disagrees(row):
        boards, payoff = ref.classical_trace(bad_spec, board, *streams[row])
        return (out["config1"][row] != boards[1]
                or out["payoff"][row] != payoff)

    first = seeds[next(row for row in range(len(seeds)) if disagrees(row))]
    assert first != seeds[0]
    rep = orc.branchwise_check(bad_spec, seeds, board)
    assert not rep.passed
    assert rep.seed == first
    assert rep.register == "config1"
    assert rep.round_index == 1


def _corrupt_round(spec, round_index, flip):
    """The spec with ``flip(b, nxt, dice, hit)`` appended to every call of
    its transition hook; ``hit`` is true on the ``round_index``-th call."""
    fields = {f: getattr(spec, f) for f in spec.__dataclass_fields__}
    good_emit = fields["emit_transition"]
    calls = []

    def bad_emit(b, mid, nxt, dice, pool, scr):
        good_emit(b, mid, nxt, dice, pool, scr)
        calls.append(None)
        flip(b, nxt, dice, len(calls) == round_index)

    fields["emit_transition"] = bad_emit
    return orc.RolloutSpec(**fields)


def test_branchwise_localises_a_corruption_in_round_two():
    # two gates in every round keep the rounds' gate counts equal; they
    # cancel except in round 2, where config2 bit 0 flips iff bits 0 and
    # 1 of cell 0's round-2 die differ
    def flip(b, nxt, dice, hit):
        b.cx(dice[0], nxt[0])
        b.cx(dice[1] if hit else dice[0], nxt[0])

    bad_spec = _corrupt_round(small_sir(h=2, m=2), 2, flip)
    board = dm.set_cell(0, 0, dm.INFECTED)
    seeds = list(range(101, 141))
    streams = ref.law_streams(
        bad_spec, orc.input_law(bad_spec, board).draw_each(seeds))
    first = next(seed for seed, (_, dice) in zip(seeds, streams)
                 if (dice[1][0] ^ dice[1][0] >> 1) & 1)
    assert first == 105 != seeds[0]
    rep = orc.branchwise_check(bad_spec, seeds, board)
    assert not rep.passed
    assert (rep.seed, rep.round_index, rep.register) == (first, 2, "config2")


def test_branchwise_on_a_board_wider_than_63_config_bits():
    # Sway 6x6 has 72 config bits: the expected configs go through the
    # bit-array codec, and a corruption of bit 71 must be seen
    spec = small_sway(h=1, m=6)
    seeds = list(range(1, 21))
    rep = orc.branchwise_check(spec, seeds, 0)
    assert rep.passed and rep.n_branches == 20

    def flip(b, nxt, dice, hit):
        b.cx(dice[0], nxt[-1])           # cell 35's bit 1 iff die 0 is odd

    bad_spec = _corrupt_round(spec, 1, flip)
    streams = ref.law_streams(
        bad_spec, orc.input_law(bad_spec, 0).draw_each(seeds))
    first = next(seed for seed, (_, dice) in zip(seeds, streams)
                 if dice[0][0] & 1)
    assert first == 2
    rep = orc.branchwise_check(bad_spec, seeds, 0)
    assert (rep.seed, rep.round_index, rep.register) == (first, 1, "config1")


def test_hook_touching_foreign_registers_rejected():
    spec = small_sir(h=1, m=2)
    fields = {f: getattr(spec, f) for f in spec.__dataclass_fields__}
    good_emit = fields["emit_transition"]

    def leaky_emit(b, mid, nxt, dice, pool, scr):
        good_emit(b, mid, nxt, dice, pool, scr)
        b.gate((), (0,))                     # config0 belongs to round 0

    fields["emit_transition"] = leaky_emit
    with pytest.raises(orc.OracleError):
        orc.compose(orc.RolloutSpec(**fields))


def _flip(b, reg):
    b.gate((), (reg[0],))


def test_hook_touching_foreign_qubits_on_a_later_replay_rejected():
    # round 1 replays a fragment on the hook's own scratch, round 2 replays
    # the same fragment on config0: the check must see every replay
    spec = small_sir(h=2, m=2)
    fields = {f: getattr(spec, f) for f in spec.__dataclass_fields__}
    good_emit = fields["emit_transition"]
    rounds = []

    def late_leaky_emit(b, mid, nxt, dice, pool, scr):
        good_emit(b, mid, nxt, dice, pool, scr)
        rounds.append(len(rounds) + 1)
        b.call(_flip, scr[:1] if len(rounds) == 1 else (0,))

    fields["emit_transition"] = late_leaky_emit
    for record in (True, False):
        rounds.clear()
        with pytest.raises(orc.OracleError, match=r"foreign qubits \[0\]"):
            orc.compose(orc.RolloutSpec(**fields), record=record)
        assert rounds == [1, 2]


def test_sentinel_no_op_branch():
    # out-of-range selector: configuration after the index phase equals the
    # configuration before it (placements skipped, only dynamics act)
    spec = small_sway(h=1, m=2)
    oc = orc.compose(spec)
    sel_max = (1 << spec.w) - 1          # 7 >= popcount(4): sentinel
    out = run(oc.circuit, {"config0": 0, "sel_h1_p0": sel_max,
                           "sel_h1_p1": sel_max, "dice_h1": 0})
    assert out["config1"] == [0]         # empty board: no flips


def test_oracle_bijective_exhaustive_smallest():
    spec = dm.sir_spec(dm.SirConfig(m=1, horizon=1, threshold=0))
    oc = orc.compose(spec)
    assert oc.report.qubit_count <= 20
    rep = em.check_bijective(oc.circuit)
    assert rep.passed and rep.mode == "exhaustive"


def test_oracle_ancilla_clean_exhaustive():
    # smallest oracle, every (config, selector, dice) input: the staging
    # board, mask, scratch, and pool all return to zero
    spec = dm.sir_spec(dm.SirConfig(m=1, horizon=1, threshold=0))
    oc = orc.compose(spec)
    dist = em.InputDistribution(
        uniform={"config0": 4, "sel_h1_p0": 2, "dice_h1": 8})
    rep = em.check_ancilla_clean(oc.circuit, dist,
                                 roles=("ancilla", "mask"))
    assert rep.passed


def test_compose_invert_round_trip():
    spec = small_sir(h=2, m=2)
    oc = orc.compose(spec)
    c = oc.circuit
    rng = random.Random(5)
    xs = [rng.getrandbits(c.total_qubits) for _ in range(200)]
    # each random basis state, split into its register values
    inputs = {r.name: [(x >> c.register(r.name)[0]) & ((1 << r.width) - 1)
                       for x in xs] for r in c.registers}
    assert run(invert(c), run(c, inputs)) == inputs


def verify_read_only(c, roles=("selector", "dice", "arm")) -> bool:
    """Structurally confirm that no gate targets a register in ``roles``."""
    protected = np.zeros(c.total_qubits, dtype=bool)
    for reg in c.registers:
        if reg.role in roles:
            protected[list(c.register(reg.name))] = True
    return not protected[c.gates.qubit[c.gates.kind == TGT]].any()


def test_selectors_and_dice_read_only():
    for spec in (small_sir(h=2, m=2), small_sway(h=1, m=2)):
        oc = orc.compose(spec)
        assert verify_read_only(oc.circuit)


def test_gate_formula_exact_and_h_regression():
    for make in (small_sir, small_sway):
        oc1 = orc.compose(make(h=1), record=False)
        oc2 = orc.compose(make(h=2), record=False)
        oc3 = orc.compose(make(h=3), record=False)
        per_round = 2 * oc1.prep_gates + oc1.trans_gates
        assert oc2.report.gate_count - oc1.report.gate_count == per_round
        assert oc3.report.gate_count - oc2.report.gate_count == per_round
        for oc, spec in ((oc1, make(h=1)), (oc2, make(h=2)), (oc3, make(h=3))):
            predicted = orc.gate_cost_formula(spec, oc.g_index, oc.g_trans,
                                              oc.g_eval)
            assert round(predicted) == oc.report.gate_count


def test_qubit_formula_matches_built_registers():
    for spec in (small_sir(h=2, m=3, t=2), small_sway(h=2, m=3),
                 small_sir(h=0, m=2)):
        lay = orc.qubit_cost_formula(spec)
        oc = orc.compose(spec, record=False)
        assert oc.report.qubit_count == lay.total
        bd = lay.breakdown()
        assert bd["total"] == sum(v for k, v in bd.items()
                                  if k not in ("total", "q_anc"))


def test_qubit_formula_h0():
    spec = small_sir(h=0, m=2)
    lay = orc.qubit_cost_formula(spec)
    # H=0: N*s + q_anc + 1
    assert lay.total == 4 * 2 + lay.q_anc + 1
    assert lay.board_mid == 0 and lay.mask == 0


def test_max_live_ancilla_constant_in_h():
    peaks = []
    for h in range(1, 5):
        oc = orc.compose(small_sir(h=h, m=2), record=False)
        peaks.append(oc.report.max_live_ancilla)
    assert len(set(peaks)) == 1


def test_arm_register_compose_and_branchwise():
    spec = small_sir(h=2, m=2, t=1)
    board = dm.set_cell(0, 0, dm.INFECTED)
    moves = dm.default_first_moves(spec, board, 2)
    rng = random.Random(9)
    arm_values = [rng.randrange(2) for _ in range(120)]
    rep = orc.branchwise_check(spec, 120, board, arms=2, first_moves=moves,
                               arm_values=arm_values)
    assert rep.passed


def test_branchwise_rejects_bad_arm_values():
    spec = small_sir(h=1, m=2)
    board = dm.set_cell(0, 0, dm.INFECTED)
    moves = dm.default_first_moves(spec, board, 3)
    cases = (([0, 1, 2, 3], moves[:2], "arm value 2 is not in"),
             # a third first move that the circuit never places
             ([0, 2, 1, 0], moves, "arm value 2 is not in"),
             ([0, -1, 1, 0], moves[:2], "arm value -1 is not in"),
             ([0, 1], moves[:2], "2 arm values for 4 branches"),
             (None, moves[:2], "requires arm_values"))
    for values, first_moves, message in cases:
        with pytest.raises(orc.OracleError, match=message):
            orc.branchwise_check(spec, 4, board, arms=2,
                                 first_moves=first_moves, arm_values=values)


def _sway_with_two_arms():
    spec = small_sway(h=1)
    return spec, orc.compose(spec, arms=2, first_moves=[0, 3])


def test_branchwise_prebuilt_oracle_with_arms_needs_first_moves():
    spec, oc = _sway_with_two_arms()
    with pytest.raises(orc.OracleError, match="requires a first_moves table"):
        orc.branchwise_check(spec, 4, 0, arms=2, arm_values=[0, 1, 0, 1],
                             oracle=oc)


def test_branchwise_prebuilt_oracle_must_have_the_checked_arms():
    # no false FAIL at config1 from an arm register left at zero
    spec, oc = _sway_with_two_arms()
    with pytest.raises(orc.OracleError,
                       match="composed with arms=2, not arms=0"):
        orc.branchwise_check(spec, 4, 0, oracle=oc)


def test_branchwise_prebuilt_oracle_must_have_the_checked_first_moves():
    spec, oc = _sway_with_two_arms()
    with pytest.raises(orc.OracleError,
                       match=r"places first moves \[0, 3\], not \[1, 2\]"):
        orc.branchwise_check(spec, 4, 0, arms=2, first_moves=[1, 2],
                             arm_values=[0, 1, 0, 1], oracle=oc)


def test_branchwise_prebuilt_oracle_must_match_the_spec_layout():
    # no missing-register error from writing round 2's dice
    oc = orc.compose(small_sway(h=1))
    with pytest.raises(orc.OracleError,
                       match="layout differs from spec 'sway' in horizon, "
                             "config_qubits, selector_qubits, dice_qubits$"):
        orc.branchwise_check(small_sway(h=2), 4, 0, oracle=oc)


def test_branchwise_prebuilt_oracle_must_be_recorded():
    spec = small_sway(h=1)
    with pytest.raises(orc.OracleError, match="composed in tally mode"):
        orc.branchwise_check(spec, 4, 0,
                             oracle=orc.compose(spec, record=False))


def test_arm_layout_adds_register_keeps_selectors():
    spec = small_sir(h=1, m=2)
    base = orc.qubit_cost_formula(spec)
    armed = orc.qubit_cost_formula(spec, arms=2)
    assert armed.arm_qubits == 2           # ceil(log2(3))
    assert armed.selector_qubits == base.selector_qubits
    assert armed.total == base.total + 2


def test_table2_qubit_ratio_smoke():
    spec = dm.sir_spec(dm.SirConfig(m=5, horizon=5, threshold=2))
    assert orc.qubit_cost_formula(spec).total / 767 < 1.25


def test_reference_instance_qubit_totals_within_band():
    # external reference totals for the three correctness-table instances
    cases = (
        (dm.sway_spec(dm.SwayConfig(3, 2)), 169),
        (dm.sway_spec(dm.SwayConfig(5, 3)), 667),
        (dm.sir_spec(dm.SirConfig(3, 2, threshold=2)), 146),
    )
    for spec, ref in cases:
        total = orc.qubit_cost_formula(spec).total
        assert 0.75 <= total / ref <= 1.25, (spec.name, total, ref)


def test_branchwise_matches_classical_payoff_distribution():
    # aggregate check: the circuit MC through the emulator and the classical
    # sampler replay the same draws of one input law, so they agree exactly
    cases = ((small_sway(h=1, m=2), 0),
             (small_sir(h=1, m=2), dm.set_cell(0, 0, dm.INFECTED)),
             (small_sway(h=2, m=3), 0))
    for spec, board in cases:
        c = orc.compose(spec).circuit
        for seed in (0, 77):
            est = em.payoff_probability(c, orc.input_law(spec, board), "mc",
                                        shots=300, seed=seed)
            p, _ = dm.sample_payoff(spec, board, shots=300, seed=seed)
            assert est.probability == p, (spec.name, seed)


def test_first_move_must_be_valid_on_the_board():
    # the infected centre cannot be vaccinated: the reference dynamics
    # reject the move instead of returning a mean the oracle cannot realise
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=1, threshold=1))
    for bad in (4, 9, -1):
        with pytest.raises(orc.OracleError, match=f"first move {bad} "):
            dm.arm_means(spec, CENTER3, 2, first_moves=[bad, 0])
        with pytest.raises(orc.OracleError, match=f"first move {bad} "):
            ref.classical_trace(spec, CENTER3, [[0]], [[0] * 9],
                                first_move=bad)
        with pytest.raises(orc.OracleError, match=f"first move {bad} "):
            orc.branchwise_check(spec, 4, CENTER3, arms=2,
                                 first_moves=[bad, 0], arm_values=[0, 1, 0, 1])
    assert orc.place_first_move(spec, CENTER3, 0) == dm.set_cell(
        CENTER3, 0, dm.RECOVERED)
