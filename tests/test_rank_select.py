"""Rank-select: semantics, both constructions, canonical hard family."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrollout import emulator as em
from qrollout import rank_select as rs
from qrollout.circuit import TGT, GateTable, cost, light_cone, span_profile

from classical_reference import mask_from_string, select_semantics
from emulate import exhaustive_sweep, run
from gates import (Gate, circuit_of, crossing_count, from_gates,
                   register_local_span)


def mask_to_string(mask: int, n: int) -> str:
    """Left-to-right mask string, the inverse of ``mask_from_string``."""
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(n))


def canonical_mask(n_total: int, t: int, weight: int) -> int:
    """Hard-family mask: weight leftmost-packed ones in the length-t prefix,
    all-ones suffix.  At rank t-1 it selects position 2t - weight - 1."""
    if not 1 <= t <= n_total - 1:
        raise ValueError("cut position out of range")
    lo = max(0, 2 * t - n_total)
    if not lo <= weight <= t - 1:
        raise ValueError(f"weight {weight} outside S_t = [{lo}, {t - 1}]")
    prefix = (1 << weight) - 1
    suffix = ((1 << (n_total - t)) - 1) << t
    return prefix | suffix


def brute_select(mask: int, n: int, r: int) -> int:
    positions = [i for i in range(n) if (mask >> i) & 1]
    return positions[r] if r < len(positions) else n


def sweep(circuit):
    """Emulate every (mask, rank) pair; returns (out, mask', nth', clean)."""
    masks, ranks, outs, dirty = exhaustive_sweep(circuit)
    def read(reg):
        return em.read_register(outs, circuit, reg)
    return masks, ranks, read("out"), read("mask"), read("nth"), dirty == 0


def referee_check(c) -> rs.SweepCheck:
    """``exhaustive_check``'s counts, each row's output held to the scalar
    ``select_semantics`` referee."""
    n = len(c.register("mask"))
    masks, ranks, outs, dirty = exhaustive_sweep(c)
    want = [select_semantics(int(m), n, int(r)) for m, r in zip(masks, ranks)]
    got = em.read_register(outs, c, "out")
    return rs.SweepCheck(len(masks), int((got != want).sum()),
                         dirty.bit_count())


def _extended(c, extra):
    """``c`` with the ``(controls, targets)`` gates ``extra`` appended."""
    return circuit_of(c.registers,
                      GateTable.concat([c.gates, from_gates(extra)]))


def test_worked_example_positions():
    mask = mask_from_string("01101000")
    assert mask == 0b00010110
    assert select_semantics(mask, 8, 0) == 1
    assert select_semantics(mask, 8, 1) == 2
    assert select_semantics(mask, 8, 2) == 4
    for r in range(3, 16):
        assert select_semantics(mask, 8, r) == 8


def test_semantics_trivial_cases():
    assert select_semantics(0, 6, 0) == 6
    assert select_semantics(0, 6, 5) == 6
    full = (1 << 6) - 1
    for k in range(6):
        assert select_semantics(full, 6, k) == k


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.data())
def test_semantics_matches_bruteforce(n, data):
    mask = data.draw(st.integers(0, 2 ** n - 1))
    r = data.draw(st.integers(0, 2 ** rs.width_for(n) - 1))
    assert select_semantics(mask, n, r) == brute_select(mask, n, r)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_select_rows_matches_semantics(n, data):
    # array rank-select on a batch of masks, every rank up to 2^w - 1, so
    # the sentinel rows (rank at or above the popcount) are included
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                               max_size=8))
    ranks = np.arange(1 << rs.width_for(n))
    m = np.repeat(masks, ranks.size)
    r = np.tile(ranks, len(masks))
    valid = ((m >> np.arange(n)[:, None]) & 1).astype(bool)   # (n, rows)
    hit = rs.select_rows(valid, r)
    assert (hit.sum(axis=0) <= 1).all()
    got = np.where(hit.any(axis=0), hit.argmax(axis=0), n)
    want = [select_semantics(int(mv), n, int(rv)) for mv, rv in zip(m, r)]
    assert got.tolist() == want


def test_mask_string_roundtrip():
    s = "0110100011"
    assert mask_to_string(mask_from_string(s), len(s)) == s


@pytest.mark.parametrize("n", range(1, 7))
def test_scan_equals_semantics_exhaustive(n):
    c = rs.build_scan(n)
    masks, ranks, outs, m2, r2, clean = sweep(c)
    want = np.array([select_semantics(int(m), n, int(r))
                     for m, r in zip(masks, ranks)])
    assert np.array_equal(outs, want)
    assert np.array_equal(m2, masks)      # mask register unchanged
    assert np.array_equal(r2, ranks)      # nth register unchanged
    assert clean
    assert rs.exhaustive_check(c) == rs.SweepCheck(len(masks), 0, 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_blocked_equals_semantics_exhaustive(n):
    c = rs.build_blocked(n)
    masks, ranks, outs, m2, r2, clean = sweep(c)
    want = np.array([select_semantics(int(m), n, int(r))
                     for m, r in zip(masks, ranks)])
    assert np.array_equal(outs, want)
    assert np.array_equal(m2, masks)
    assert np.array_equal(r2, ranks)
    assert clean
    assert rs.exhaustive_check(c) == rs.SweepCheck(len(masks), 0, 0)


def test_exhaustive_sweep_flags_dirty_rows():
    # a trailing gate sets the rank register's top bit on odd masks with
    # rank 3, and one sets the match ancilla on every input with rank >= 2
    c = rs.build_scan(3)
    mask, nth = c.register("mask"), c.register("nth")
    extra = [Gate(((mask[0], True), (nth[0], True), (nth[1], True)),
                  (c.register("rank")[1],)),
             Gate(((nth[1], True),), c.register("match"))]
    dirty_c = _extended(c, extra)
    masks, ranks, outs, dirty = exhaustive_sweep(dirty_c)
    assert list(masks) == [r % 8 for r in range(32)]
    assert list(ranks) == [r // 8 for r in range(32)]
    assert [(dirty >> r) & 1 for r in range(32)] == \
        [int(rank >= 2) for rank in ranks]
    assert exhaustive_sweep(c)[3] == 0
    # without the match gate only the rank register is dirty
    masks, ranks, outs, dirty = exhaustive_sweep(
        _extended(c, extra[:1]))
    assert [(dirty >> r) & 1 for r in range(32)] == \
        [int(rank == 3 and m % 2 == 1) for m, rank in zip(masks, ranks)]


def _flip(c, controls, target):
    """A trailing gate that flips ``target`` when the named (register, bit)
    controls are all set."""
    return _extended(c, [Gate(tuple((c.register(r)[i], True)
                                    for r, i in controls),
                              (c.register(target[0])[target[1]],))])


MUTANTS = {
    # out[0] flips when mask[0] and nth[1] are set
    "scan4-out": lambda: _flip(rs.build_scan(4), [("mask", 0), ("nth", 1)],
                               ("out", 0)),
    "blocked5-out": lambda: _flip(rs.build_blocked(5),
                                  [("mask", 2), ("nth", 0)], ("out", 1)),
    # an ancilla left set: dirty rows, outputs right
    "scan3-match": lambda: _flip(rs.build_scan(3), [("nth", 1)],
                                 ("match", 0)),
}


@pytest.mark.parametrize("chunk", [7, 1 << 16])
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_exhaustive_check_counts_what_the_referee_counts(name, chunk,
                                                         monkeypatch):
    c = MUTANTS[name]()
    want = referee_check(c)
    assert not want.passed
    assert (want.mismatches > 0) == name.endswith("-out")
    assert (want.dirty > 0) == name.endswith("-match")
    monkeypatch.setattr(rs, "_CHECK_ROWS", chunk)
    assert rs.exhaustive_check(c) == want


def test_exhaustive_sweep_refuses_rows_over_the_budget(monkeypatch):
    def no_batch(c, qubits):
        raise AssertionError(f"batch of {len(qubits)} counting columns")

    monkeypatch.setattr(rs, "counting_batch", no_batch)
    # n = 20: 2^(20 + 5) rows, refused before any batch is made
    with pytest.raises(em.EmulationError,
                       match=r"exhaustive sweep of n=20: 33554432 "
                             r"\(mask,rank\) rows exceed the budget of "
                             r"16777216 rows"):
        exhaustive_sweep(rs.build_scan(20))
    # n = 19: 2^24 rows, the budget itself, go on to the batch
    with pytest.raises(AssertionError, match="batch of 24 counting columns"):
        exhaustive_sweep(rs.build_scan(19))


def test_blocked_worked_trace_n8():
    # mask 01101000, r=2: block 0 holds ranks {0,1}, block 1 fires with
    # local rank 0 at local index 0, so out = 1*4 + 0 = 4
    c = rs.build_blocked(8, 4)
    out = run(c, {"mask": mask_from_string("01101000"), "nth": 2})
    assert out["out"] == [4]


def test_blocked_out_of_range_keeps_sentinel():
    c = rs.build_blocked(8, 4)
    out = run(c, {"mask": mask_from_string("01101000"), "nth": 9})
    assert out["out"] == [8]


@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_blocked_nondefault_block_sizes(block):
    n = 7
    c = rs.build_blocked(n, block)
    masks, ranks, outs, _, _, clean = sweep(c)
    want = np.array([select_semantics(int(m), n, int(r))
                     for m, r in zip(masks, ranks)])
    assert np.array_equal(outs, want)
    assert clean


def test_scan_gate_count_closed_form():
    for n in (1, 2, 5, 16, 100, 512):
        b = rs.builder_scan(n, record=False)
        assert b.report().gate_count == rs.scan_gate_count(n)


def test_scan_gate_band():
    # N(10w-3)+1 stays within [N*w, 10*N*w]
    for e in range(2, 10):
        n = 1 << e
        g = rs.scan_gate_count(n)
        w = rs.width_for(n)
        assert n * w <= g <= 10 * n * w


def test_scan_bijective_exhaustive_n3():
    rep = em.check_bijective(rs.build_scan(3))
    assert rep.passed and rep.mode == "exhaustive"


def test_blocked_bijective_sampled_n4():
    # blocked at N=4 carries ~35 qubits; the permutation check falls back to
    # sampled mode: a seeded invert round trip
    rep = em.check_bijective(rs.build_blocked(4), samples=20_000)
    assert rep.passed and rep.mode == "sampled"


def test_light_cone_covers_all_mask_bits():
    for n in (4, 8):
        for make in (rs.build_scan, rs.build_blocked):
            c = make(n)
            cone = light_cone(c, set(c.register("out")))
            assert set(c.register("mask")) <= cone


def test_crossing_bound_mask_aligned_cuts():
    import math
    for n in (4, 8, 16):
        for make in (rs.build_scan, rs.build_blocked):
            c = make(n)
            kappa = cost(c).max_fan_in
            for t in range(1, n):
                lhs = crossing_count(c, t)
                rhs = math.ceil(math.log2(min(t, n - t))) / (2 * kappa) \
                    if min(t, n - t) > 1 else 0.0
                assert lhs >= rhs, (n, t)


def test_span_profile_scan_vs_blocked():
    # scan gates touch at most one mask qubit (documented constant 0 for the
    # mask-local span); the blocked construction pays its cost in long-range
    # gates spanning Omega(w) positions
    n = 16
    scan = rs.build_scan(n)
    blocked = rs.build_blocked(n)
    assert register_local_span(scan, "mask") == 0
    prof = span_profile(blocked)
    assert prof.max_span >= rs.width_for(n)
    # the long-range writes reach from the mask region to the out register
    out_pos = min(blocked.layout.index(q) for q in blocked.register("out"))
    assert prof.max_span >= out_pos - n


def test_canonical_mask_examples():
    # N=8, t=4, weight=3 -> 11101111, selects position 4 at rank 3
    m = canonical_mask(8, 4, 3)
    assert mask_to_string(m, 8) == "11101111"
    assert select_semantics(m, 8, 3) == 2 * 4 - 3 - 1 == 4
    m = canonical_mask(8, 4, 0)
    assert mask_to_string(m, 8) == "00001111"
    assert select_semantics(m, 8, 3) == 7


def test_canonical_mask_distinct_outputs():
    n, t = 10, 5
    outs = set()
    for w in range(max(0, 2 * t - n), t):
        m = canonical_mask(n, t, w)
        outs.add(select_semantics(m, n, t - 1))
    assert len(outs) == t - max(0, 2 * t - n)


def test_canonical_mask_rejects_bad_weight():
    with pytest.raises(ValueError):
        canonical_mask(8, 4, 4)
    with pytest.raises(ValueError):
        canonical_mask(8, 6, 2)   # needs weight >= 2t-N = 4


def _blocks(c):
    # every block sets and clears its take flag once
    take = c.register("take")[0]
    t = c.gates
    return int(((t.kind == TGT) & (t.qubit == take)).sum()) // 2


def test_layouts():
    c = rs.build_scan(8)
    assert (len(c.register("mask")), len(c.register("nth"))) == (8, 4)
    c = rs.build_blocked(8)
    assert c == rs.build_blocked(8, 4)       # default block = w = 4
    assert (len(c.register("ell")), _blocks(c)) == (3, 2)
    c = rs.build_blocked(10, 4)
    assert (len(c.register("ell")), _blocks(c)) == (3, 3)
    # a block wider than N is clamped to N
    gates = [rs.builder_blocked(8, block, record=False).report().gate_count
             for block in (100, 8)]
    assert gates[0] == gates[1]


@pytest.mark.parametrize("block", [0, -3])
def test_blocked_rejects_a_block_below_one(block):
    with pytest.raises(ValueError, match=f"block size must be >= 1, got "
                                         f"{block}"):
        rs.builder_blocked(8, block)
