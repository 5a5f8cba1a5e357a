"""Emulator: gate semantics, bijectivity, cleanness, payoff estimates."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrollout.circuit import (NEG, POS, TGT, Builder, GateTable,
                              RegisterDecl, invert)
from qrollout import circuit as cq
from qrollout import domains as dm
from qrollout import emulator as em
from qrollout import oracle as orc
from qrollout import rank_select as rs

from emulate import apply_flat, bijective_by_count, run
from gates import Gate, gate_list, make_circuit, unchecked_circuit
from test_builder import ORACLES, _build, _op


def _simple(width, gates):
    return make_circuit([RegisterDecl("q", width, "ancilla")], gates)


def apply_bits(c, bits):
    """Reference: the circuit on a (rows, total_qubits) uint8 bit matrix, in
    place, one numpy column operation per control and target."""
    rows, n = bits.shape
    if n != c.total_qubits:
        raise em.EmulationError("bit-matrix width mismatch")
    for g in gate_list(c.gates):
        if g.controls:
            q0, p0 = g.controls[0]
            sat = bits[:, q0] == 1 if p0 else bits[:, q0] == 0
            for q, pol in g.controls[1:]:
                sat &= (bits[:, q] == 1) if pol else (bits[:, q] == 0)
            for t in g.targets:
                bits[sat, t] ^= 1
        else:
            for t in g.targets:
                bits[:, t] ^= 1
    return bits


def _row_bits(batch):
    """The batch as a (rows, qubits) uint8 matrix, row r = basis state r."""
    return np.array([[(col >> r) & 1 for col in batch.cols]
                     for r in range(batch.rows)], dtype=np.uint8)


def _row_values(bits):
    """Each row of a (rows, qubits) bit matrix as one integer."""
    return [sum(int(b) << q for q, b in enumerate(row)) for row in bits]


def test_x_flips_bit_zero():
    c = _simple(3, [Gate((), (0,))])
    assert run(c, {"q": 0b000})["q"] == [0b001]


def test_cnot_control_unsatisfied():
    c = _simple(2, [Gate(((1, True),), (0,))])
    assert run(c, {"q": [0b00, 0b10]})["q"] == [0b00, 0b11]


def test_negative_polarity_control():
    c = _simple(2, [Gate(((1, False),), (0,))])
    assert run(c, {"q": [0b00, 0b10]})["q"] == [0b01, 0b10]


def test_width_mismatch_rejected():
    c = _simple(2, [])
    with pytest.raises(em.EmulationError):
        em.apply_batch(c, em.Batch(1, [0, 0, 0]))


def test_scan_cell_writes_position_over_sentinel():
    # mask 0100 (position 1 valid), nth 0: cell 1 replaces sentinel by 1;
    # an all-zero mask keeps the sentinel
    c = rs.build_scan(4)
    assert run(c, {"mask": [0b0010, 0], "nth": 0})["out"] == [1, 4]


def test_apply_batch_agrees_with_reference_on_all_inputs():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 8)
        gates = []
        for _ in range(rng.randrange(1, 30)):
            qs = rng.sample(range(n), min(n, rng.randrange(2, 4)))
            pol = [(q, rng.random() < 0.5) for q in qs[:-1]]
            gates.append(Gate(tuple(pol), (qs[-1],)))
        c = _simple(n, gates)
        batch = em.Batch.zeros(c, 1 << n)
        em.write_register(batch, c, "q", np.arange(1 << n))
        ref = apply_bits(c, _row_bits(batch))
        em.apply_batch(c, batch)
        assert np.array_equal(_row_bits(batch), ref)
        assert em.read_register(batch, c, "q").tolist() == _row_values(ref)


@st.composite
def _circuits(draw):
    """A random MCX circuit on one register: 0-3 controls of mixed polarity
    and 1-3 targets per gate, sometimes no gates at all."""
    n = draw(st.integers(1, 12))
    gates = []
    for _ in range(draw(st.integers(0, 25))):
        k = draw(st.integers(1, min(3, n)))
        qs = draw(st.permutations(range(n)))[:draw(st.integers(k, min(n, k + 3)))]
        controls = tuple((q, draw(st.booleans())) for q in qs[k:])
        gates.append(Gate(controls, tuple(qs[:k])))
    return _simple(n, gates)


@settings(max_examples=60, deadline=None)
@given(_circuits(), st.sampled_from([1, 63, 64, 65, 1000]), st.data())
def test_apply_batch_matches_reference(c, rows, data):
    n = c.total_qubits
    values = data.draw(st.lists(st.integers(0, 2 ** n - 1),
                                min_size=rows, max_size=rows))
    batch = em.Batch.zeros(c, rows)
    em.write_register(batch, c, "q", values)
    ref = apply_bits(c, _row_bits(batch))
    em.apply_batch(c, batch)
    assert np.array_equal(_row_bits(batch), ref)
    assert em.read_register(batch, c, "q").tolist() == _row_values(ref)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_apply_batch_on_a_70_qubit_register(data):
    # wider than one int64 limb, so the codec carries Python ints
    c = _simple(70, [Gate(((0, True), (69, False)), (35, 64)),
                     Gate(((64, True),), (1,)), Gate((), (69,))])
    rows = data.draw(st.sampled_from([1, 63, 64, 65, 1000]))
    values = data.draw(st.lists(st.integers(0, 2 ** 70 - 1),
                                min_size=rows, max_size=rows))
    batch = em.Batch.zeros(c, rows)
    em.write_register(batch, c, "q", values)
    ref = apply_bits(c, _row_bits(batch))
    em.apply_batch(c, batch)
    assert np.array_equal(_row_bits(batch), ref)
    assert [int(v) for v in em.read_register(batch, c, "q")] == \
        _row_values(ref)


def test_apply_batch_rejects_width_mismatch():
    with pytest.raises(em.EmulationError):
        em.apply_batch(_simple(2, []), em.Batch(4, [0, 0, 0]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 63, 64, 125]), st.data())
def test_register_codec_round_trip(width, data):
    pad = data.draw(st.integers(1, 7))
    c = make_circuit([RegisterDecl("lo", pad, "ancilla"),
                      RegisterDecl("r", width, "dice"),
                      RegisterDecl("hi", 3, "ancilla")], [])
    values = data.draw(st.lists(st.integers(0, 2 ** width - 1),
                                min_size=1, max_size=8))
    batch = em.Batch.zeros(c, len(values))
    em.write_register(batch, c, "r", values)
    assert [int(v) for v in em.read_register(batch, c, "r")] == values
    # each row holds its value at the register's offset and nothing else
    assert _row_values(_row_bits(batch)) == [v << pad for v in values]
    # a scalar reaches every row and leaves the neighbouring registers alone
    scalar = data.draw(st.integers(0, 2 ** width - 1))
    em.write_register(batch, c, "r", scalar)
    assert [int(v) for v in em.read_register(batch, c, "r")] == \
        [scalar] * len(values)
    assert _row_values(_row_bits(batch)) == [scalar << pad] * len(values)
    # the qubit-list pair on a non-contiguous, unordered list: bit k of a
    # row's value lands on qubits[k], and every other qubit keeps its bit
    order = data.draw(st.permutations(range(c.total_qubits)))
    qubits = order[:data.draw(st.integers(0, len(order)))]
    values = data.draw(st.lists(st.integers(0, 2 ** len(qubits) - 1),
                                min_size=batch.rows, max_size=batch.rows))
    want = _row_bits(batch)
    for k, q in enumerate(qubits):
        want[:, q] = [(v >> k) & 1 for v in values]
    em.write_qubits(batch, qubits, values)
    assert np.array_equal(_row_bits(batch), want)
    assert [int(v) for v in em.read_qubits(batch, qubits)] == values


def test_write_qubits_keeps_wide_ints_in_a_list_exact():
    # numpy reads [0, 2**63] as float64; the writer must not
    batch = em.Batch(3, [0] * 70)
    for width in (64, 70):
        values = [0, 2 ** 63, 2 ** width - 1]
        em.write_qubits(batch, range(width), values)
        assert [int(v) for v in em.read_qubits(batch, range(width))] == values


def test_write_register_rejects_values_that_do_not_fit():
    c = make_circuit([RegisterDecl("nth", 3, "rank"),
                      RegisterDecl("w63", 63, "dice"),
                      RegisterDecl("w70", 70, "dice")], [])
    batch = em.Batch.zeros(c, 3)
    bad = {"nth": ([1, 9, -1], 13, -1, [0, 0, 8]),
           "w63": ([2 ** 63, 0, 0], 2 ** 63, [0, -1, 0]),
           "w70": ([2 ** 70, 0, 0], 2 ** 70, -1, [0, 0, -(2 ** 65)])}
    for name, cases in bad.items():
        for values in cases:
            with pytest.raises(em.EmulationError,
                               match=f"register '{name}': value"):
                em.write_register(batch, c, name, values)
        # a value count other than the batch's rows
        for values in ([1], [1, 2, 3, 4]):
            with pytest.raises(em.EmulationError,
                               match=f"register '{name}': {len(values)} "
                                     "values for 3 rows"):
                em.write_register(batch, c, name, values)
    assert batch.cols == [0] * c.total_qubits
    # the largest values that fit are accepted
    for name, width in (("nth", 3), ("w63", 63), ("w70", 70)):
        em.write_register(batch, c, name, [0, 1, 2 ** width - 1])
        assert [int(v) for v in em.read_register(batch, c, name)] == \
            [0, 1, 2 ** width - 1]


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
        xs = [rng.getrandbits(n) for _ in range(25)]
        assert run(ci, run(c, {"q": xs})) == {"q": xs}
        checked += len(xs)
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


def test_ancilla_clean_witness_from_a_later_chunk():
    # flag is set only for inp = 6 (binary 110), which enumerates as row 2
    # of the second 4-row chunk; the fixed register rides along
    b = Builder()
    b.add_register("inp", 3, "mask")
    b.add_register("cfg", 2, "config")
    b.add_register("flag", 1, "ancilla")
    b.gate([(0, False), (1, True), (2, True)], [5])
    c = b.finish()
    dist = em.InputDistribution(fixed={"cfg": 2}, uniform={"inp": 8})
    rep = em.check_ancilla_clean(c, dist, chunk=4)
    assert not rep.passed
    assert rep.dirty_register == "flag"
    assert rep.witness_input == {"inp": 6, "cfg": 2, "flag": 0}


def test_validate_runs_once_per_call(monkeypatch):
    calls = []
    validate = em.InputDistribution.validate

    def counting(self, c):
        calls.append(1)
        return validate(self, c)

    monkeypatch.setattr(em.InputDistribution, "validate", counting)
    b = Builder()
    b.add_register("pay", 1, "payoff")
    b.add_register("src", 2, "dice")
    c = b.finish()
    dist = em.InputDistribution(uniform={"src": 4})
    assert sum(batch.rows for batch in dist.enumerate_chunks(c, chunk=3)) == 4
    assert len(calls) == 1
    calls.clear()
    em.payoff_probability(c, dist, mode="exact")
    assert len(calls) == 1


def test_ancilla_clean_scan():
    c = rs.build_scan(5)
    dist = em.InputDistribution(uniform={"mask": 32, "nth": 8})
    assert em.check_ancilla_clean(c, dist).passed


def test_payoff_trivial_one_and_zero():
    b = Builder()
    b.add_register("pay", 1, "payoff")
    b.gate((), (0,))
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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 14), st.data())
def test_counting_batch_holds_every_basis_state(n, data):
    c = _simple(n, [])
    k = data.draw(st.integers(0, min(n, 12)))
    qubits = data.draw(st.permutations(range(n)))[:k]
    batch = em.counting_batch(c, qubits)
    rows = np.arange(1 << len(qubits))
    assert batch.rows == rows.size
    want = [0] * n
    for k, q in enumerate(qubits):
        want[q] = em._pack(((rows >> k) & 1).astype(np.uint8))
    assert batch.cols == want


def _table(rng, n, invalid):
    """A random gate table on one ``n``-qubit register, built without
    validation: each gate lists 0-3 controls of mixed polarity, then 1-2
    targets.  With probability ``invalid`` a gate also takes one of its
    targets as a control, which makes it non-injective unless its controls
    contradict each other."""
    ptr, qubit, kind = [0], [], []
    for _ in range(rng.randrange(0, 12)):
        qs = rng.sample(range(n), n)
        k = rng.randint(1, min(2, n))
        controls = qs[k:rng.randint(k, min(n, k + 3))]
        if rng.random() < invalid:
            controls.insert(rng.randrange(len(controls) + 1),
                            rng.choice(qs[:k]))
        qubit += controls + qs[:k]
        kind += [rng.choice((POS, NEG)) for _ in controls] + [TGT] * k
        ptr.append(len(qubit))
    return unchecked_circuit([RegisterDecl("q", n, "ancilla")],
                             GateTable(ptr, qubit, kind))


def test_bijective_round_trip_matches_the_count_referee():
    # the round trip decides like decoding and counting every output, and
    # an exhaustive failure names the referee's pair
    rng = random.Random(15)
    verdicts = {True: 0, False: 0}
    sampled_failures = 0
    for case in range(2000):
        c = _table(rng, rng.randint(1, 10), (0.0, 0.1, 0.4)[case % 3])
        rep, want = em.check_bijective(c), bijective_by_count(c)
        assert rep == want, case
        verdicts[rep.passed] += 1
        if not rep.passed:
            a, b = rep.counterexample
            assert a != b
            out = run(c, {"q": [a, b]})["q"]
            assert out[0] == out[1]
        # sampled mode never fails a permutation, and it fails a
        # non-injective circuit wherever its sample holds a lost row
        sampled = em.check_bijective(c, samples=64, seed=case,
                                     exhaustive_limit=0)
        assert sampled.mode == "sampled"
        if rep.passed:
            assert sampled.passed
        sampled_failures += not sampled.passed
    assert min(verdicts.values()) >= 500, verdicts
    assert sampled_failures >= 0.9 * verdicts[False]


def _lossy(n, controls):
    """An ``n``-qubit circuit whose one gate clears qubit 0 where qubits
    ``0..controls-1`` are all set: not injective."""
    return unchecked_circuit([RegisterDecl("q", n, "ancilla")],
                             GateTable([0, controls + 1],
                                       [*range(controls), 0],
                                       [POS] * controls + [TGT]))


def test_bijective_sampled_mode_names_a_row_that_does_not_come_back():
    c = _lossy(24, 3)
    rep = em.check_bijective(c, samples=500, seed=11)
    assert not rep.passed and rep.mode == "sampled"
    a, b = rep.counterexample
    assert a == b
    # the sampled inputs, drawn as check_bijective draws them: column q is
    # the q-th draw of ceil(500 / 8) bytes; rows up to a decide alone
    rng = np.random.Generator(np.random.Philox(key=11))
    cols = [int.from_bytes(rng.bytes(63), "little") for _ in range(24)]
    xs = em.read_qubits(em.Batch(500, cols), range(24))[:a + 1].tolist()
    back = run(invert(c), run(c, {"q": xs}))["q"]
    assert back[:a] == xs[:a] and back[a] != xs[a]


def test_bijective_sampled_mode_with_more_samples_than_states():
    # 2^5 and 2^4 states in 300 rows: states repeat, and the round trip
    # needs no deduplication
    rep = em.check_bijective(rs.build_scan(1), samples=300,
                             exhaustive_limit=0)
    assert rep.passed and rep.mode == "sampled"
    c = _lossy(4, 2)
    rep = em.check_bijective(c, samples=300, seed=5, exhaustive_limit=0)
    assert not rep.passed and rep.mode == "sampled"
    a, b = rep.counterexample
    assert a == b < 300
    rng = np.random.Generator(np.random.Philox(key=5))
    cols = [int.from_bytes(rng.bytes(38), "little") for _ in range(4)]
    xs = em.read_qubits(em.Batch(300, cols), range(4))
    # the first row where the lossy gate fires and qubit 0 is lost
    assert a == np.flatnonzero(xs & 3 == 3)[0]


def test_flagged_rows_ors_the_columns_or_their_differences():
    batch = em.Batch(5, [0b00010, 0b01000, 0b00011])
    assert em.flagged_rows(batch, []) == 0
    assert em.flagged_rows(batch, [0, 1]) == 0b01010
    assert em.flagged_rows(batch, range(3)) == 0b01011
    want = em.Batch(5, [0b00010, 0b11000, 0b00001])
    assert em.flagged_rows(batch, [0], want) == 0
    assert em.flagged_rows(batch, [0, 1], want) == 0b10000
    assert em.flagged_rows(batch, range(3), want) == 0b10010
    assert em.flagged_rows(batch, range(3), batch.copy()) == 0


def test_bijective_pass_decodes_no_rows(monkeypatch):
    def no_decode(*args):
        raise AssertionError("a passing check decoded rows")

    monkeypatch.setattr(em, "read_qubits", no_decode)
    rep = em.check_bijective(rs.build_scan(3))
    assert rep.passed and rep.mode == "exhaustive"
    rep = em.check_bijective(rs.build_scan(3), samples=300, exhaustive_limit=0)
    assert rep.passed and rep.mode == "sampled"


def test_bijective_seed_is_reduced_mod_2_64():
    c = _lossy(24, 6)
    for low, high in ((-1, 2**64 - 1), (3, 2**64 + 3)):
        rep = em.check_bijective(c, samples=1000, seed=low)
        assert not rep.passed
        assert rep == em.check_bijective(c, samples=1000, seed=high)


def test_bijective_rejects_counts_below_one_and_oversized_sweeps(monkeypatch):
    for samples in (0, -5):
        with pytest.raises(em.EmulationError,
                           match=f"samples must be >= 1, got {samples}"):
            em.check_bijective(_simple(21, []), samples=samples)

    def no_alloc(*args):
        raise AssertionError("columns allocated past the budget")

    monkeypatch.setattr(em, "counting_batch", no_alloc)
    with pytest.raises(em.EmulationError, match="exceeds budget"):
        em.check_bijective(_simple(25, []), exhaustive_limit=25)


@st.composite
def _laws(draw, max_faces=1 << 63):
    """A circuit of dice registers, declared out of name order, and an
    input law on them: per-field registers and whole-register fields."""
    decls, uniform, widths = [], {}, {}
    for name in draw(st.permutations("dcba"))[:draw(st.integers(0, 4))]:
        if draw(st.booleans()):
            width, count = draw(st.integers(1, 5)), draw(st.integers(1, 4))
            uniform[name] = (draw(st.integers(1, min(1 << width, max_faces))),
                             width)
            widths[name] = width * count
            decls.append(RegisterDecl(name, width * count, "dice"))
        else:
            width = draw(st.integers(1, 70))
            uniform[name] = draw(st.integers(1, min(1 << width, max_faces)))
            decls.append(RegisterDecl(name, width, "dice"))
    law = em.InputDistribution(fixed={"cfg": 5}, uniform=uniform,
                               widths=widths)
    return make_circuit([RegisterDecl("cfg", 3, "config"), *decls], []), law


def _read_faces(c, law, batch):
    """The face array that a batch's registers hold, field by field."""
    cols = []
    for name, _, lo, width in law.fields:
        vals = em.read_register(batch, c, name)
        cols.append([int(v) if width is None
                     else (int(v) >> lo) & ((1 << width) - 1) for v in vals])
    return [list(row) for row in zip(*cols)] if cols else [[]] * batch.rows


def test_law_faces_exact_where_the_low_half_carries():
    # (u * D) >> 64 from the 32-bit halves of u: the low half's product can
    # carry into the high half, e.g. u = 0x55555555_FFFFFFFF, D = 3 gives 1
    law = em.InputDistribution(uniform={"a": 3, "b": 7, "c": 1 << 32})
    ds = [d for _, d, _, _ in law.fields]
    rows = [[(hi << 32) | lo for d in ds]
            for hi in (0, 1, (1 << 32) - 1, 0x55555555, 0x24924924)
            for lo in (0, 1 << 31, (1 << 32) - 1)]
    rows += [[(((1 << 32) - 1) // d << 32) | ((1 << 32) - 1) for d in ds]]
    faces = law.faces(np.array(rows, dtype=np.uint64))
    assert faces.tolist() == [[(u * d) >> 64 for u, d in zip(row, ds)]
                              for row in rows]


@settings(max_examples=60, deadline=None)
@given(_laws(), st.integers(0, 40), st.integers(0, 40),
       st.integers(0, 2**64 - 1))
def test_law_draw_is_per_shot_prefix_stable(cl, k, n, seed):
    _, law = cl
    k, n = min(k, n), max(k, n)
    full = law.draw(n, seed)
    assert full.shape == (n, len(law.fields)) and full.dtype == np.int64
    assert (law.draw(k, seed) == full[:k]).all()
    chunks = list(law.draw_chunks(n, seed, chunk=7))
    assert all(len(x) <= 7 for x in chunks)
    assert np.array_equal(np.concatenate(chunks or [full]), full)
    if n:
        seeds = [seed, seed ^ 1]
        each = law.draw_each(seeds)
        assert (each[0] == full[0]).all()
        assert (each[1] == law.draw(1, seed ^ 1)[0]).all()


@settings(max_examples=60, deadline=None)
@given(_laws(), st.lists(
    st.one_of(st.sampled_from([0, 2**64 - 1, -1, 2**64]),
              st.integers(-2**70, 2**70)), max_size=12))
def test_law_draw_each_is_one_draw_per_seed(cl, seeds):
    _, law = cl
    each = law.draw_each(seeds)
    assert each.shape == (len(seeds), len(law.fields))
    for r, seed in enumerate(seeds):
        assert (each[r] == law.draw(1, seed)[0]).all()


@settings(max_examples=60, deadline=None)
@given(_laws(), st.integers(0, 2**64 - 1))
def test_law_faces_below_d_and_exact(cl, seed):
    _, law = cl
    faces = law.draw(50, seed)
    words = np.random.Philox(key=seed).random_raw(faces.size)
    want = [(int(u) * law.fields[f % len(law.fields)][1]) >> 64
            for f, u in enumerate(words.tolist())]
    assert faces.ravel().tolist() == want
    for f, (_, d, _, _) in enumerate(law.fields):
        assert ((0 <= faces[:, f]) & (faces[:, f] < d)).all()


@settings(max_examples=60, deadline=None)
@given(_laws(), st.integers(1, 30), st.integers(0, 2**64 - 1))
def test_law_registers_decode_to_faces(cl, shots, seed):
    c, law = cl
    faces = law.draw(shots, seed)
    batch = law.sample(c, shots, seed)
    assert _read_faces(c, law, batch) == faces.tolist()
    assert (em.read_register(batch, c, "cfg") == 5).all()


@settings(max_examples=40, deadline=None)
@given(_laws(max_faces=3), st.integers(1, 9))
def test_law_enumeration_visits_each_face_tuple_once(cl, chunk):
    c, law = cl
    total = law.support_size(c)
    if total > 4096:
        return
    seen = [tuple(row) for batch in law.enumerate_chunks(c, chunk=chunk)
            for row in _read_faces(c, law, batch)]
    assert len(seen) == total
    assert sorted(seen) == sorted(itertools.product(
        *(range(d) for _, d, _, _ in law.fields)))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 30), st.integers(0, 2**64 - 1))
def test_law_writes_only_the_qubits_a_face_needs(fields, shots, seed):
    # a face below D = 3 fits the low 2 qubits of its 4-qubit field; the
    # high 2 stay 0, so each field decodes back to its drawn face
    c = make_circuit([RegisterDecl("pad", 2, "ancilla"),
                      RegisterDecl("dice", 4 * fields, "dice")], [])
    law = em.InputDistribution(uniform={"dice": (3, 4)},
                               widths={"dice": 4 * fields})
    faces = law.draw(shots, seed)
    batch = law.sample(c, shots, seed)
    dice = c.register("dice")
    for f in range(fields):
        field = dice[4 * f:4 * f + 4]
        assert em.read_qubits(batch, field).tolist() == faces[:, f].tolist()
        assert batch.cols[field[2]] == batch.cols[field[3]] == 0
    assert em.read_register(batch, c, "pad").tolist() == [0] * shots


def test_law_whole_register_enumeration_order_unchanged():
    # whole-register fields enumerate the first register (by name) fastest,
    # the order exact payoffs and ancilla witnesses are reported in
    c = make_circuit([RegisterDecl("b", 2, "dice"),
                      RegisterDecl("a", 2, "dice")], [])
    law = em.InputDistribution(uniform={"b": 2, "a": 3})
    [batch] = law.enumerate_chunks(c)
    assert em.read_register(batch, c, "a").tolist() == [0, 1, 2] * 2
    assert em.read_register(batch, c, "b").tolist() == [0] * 3 + [1] * 3


def test_law_rejects_untiled_fields():
    for widths in ({}, {"a": 7}):
        with pytest.raises(em.EmulationError, match="tile"):
            em.InputDistribution(uniform={"a": (3, 2)}, widths=widths)
    c = make_circuit([RegisterDecl("a", 6, "dice")], [])
    law = em.InputDistribution(uniform={"a": (3, 2)}, widths={"a": 4})
    with pytest.raises(em.EmulationError, match="width 6"):
        law.sample(c, 3, seed=1)
    with pytest.raises(em.EmulationError, match="exceeds"):
        em.InputDistribution(uniform={"a": (5, 2)}, widths={"a": 6})


def test_exact_budget_enforced():
    c = _simple(30, [])
    dist = em.InputDistribution(uniform={"q": 2 ** 30})
    with pytest.raises(em.EmulationError):
        em.payoff_probability(c, dist, budget=1 << 10)
    # without a budget the default applies: one input too many is rejected
    b = Builder()
    b.add_register("pay", 1, "payoff")
    b.add_register("src", 25, "dice")
    c = b.finish()
    dist = em.InputDistribution(uniform={"src": em.DEFAULT_EXACT_BUDGET + 1})
    with pytest.raises(em.EmulationError, match="exceeds budget"):
        em.payoff_probability(c, dist)


def test_mc_matches_exact_within_three_sigma():
    # payoff = OR of two bits via negative controls: p = 3/4
    b = Builder()
    b.add_register("pay", 1, "payoff")
    b.add_register("src", 2, "dice")
    b.gate((), (0,))
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


def test_mc_rejects_shots_below_one():
    b = Builder()
    b.add_register("pay", 1, "payoff")
    c = b.finish()
    for shots in (0, -3):
        with pytest.raises(em.EmulationError,
                           match=f"shots must be >= 1, got {shots}"):
            em.payoff_probability(c, em.InputDistribution(), mode="mc",
                                  shots=shots)


# ---------------------------------------------------------------------------
# the tape kernel of apply_batch against the flat per-entry referee

def _random_columns(c, rows, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(rows) for _ in range(c.total_qubits)]


def _assert_kernels_agree(make, rows=70, seed=0):
    """``apply_batch`` equals ``apply_flat`` on random columns, for circuits
    from ``make()`` emulated before and after their flat table is read.
    Each circuit's inverse and ``loads(dumps(c))`` (the same tape, read
    back) agree too, and the inverse undoes the circuit."""
    fresh, flattened = make(), make()
    flattened.gates
    for c in (fresh, flattened):
        for d in (c, invert(c), cq.loads(cq.dumps(c))):
            cols = _random_columns(d, rows, seed)
            got = em.apply_batch(d, em.Batch(rows, list(cols))).cols
            assert got == apply_flat(d, em.Batch(rows, list(cols))).cols
        cols = _random_columns(c, rows, seed)
        back = em.apply_batch(invert(c),
                              em.apply_batch(c, em.Batch(rows, list(cols))))
        assert back.cols == cols


@settings(max_examples=150, deadline=None)
@given(st.lists(_op(2), min_size=1, max_size=6), st.integers(1, 130),
       st.integers(0, 2 ** 32))
def test_tape_kernel_matches_the_flat_referee_on_builder_programs(ops, rows,
                                                                  seed):
    # nested, reversed and aliased replays, captures and emit_inverse
    _assert_kernels_agree(lambda: _build(Builder, True, ops).finish(), rows,
                          seed)


# the composes of test_builder's pinned dumps and reports
_PINNED_ORACLES = dict(ORACLES,
                       sway2x2h1=(dm.sway_spec(dm.SwayConfig(2, 1)), {}),
                       sir2x2h1t1=(dm.sir_spec(dm.SirConfig(2, 1, 1)), {}))


@pytest.mark.parametrize("name", sorted(_PINNED_ORACLES))
def test_tape_kernel_matches_the_flat_referee_on_pinned_oracles(name):
    spec, kw = _PINNED_ORACLES[name]
    _assert_kernels_agree(lambda: orc.compose(spec, **kw).circuit, rows=200)


@pytest.mark.parametrize("make", [rs.build_scan, rs.build_blocked])
def test_tape_kernel_matches_the_flat_referee_on_rank_select(make):
    for n in list(range(1, 13)) + [20, 33, 40]:
        _assert_kernels_agree(lambda: make(n), seed=n)


def _fragments(tape, seen=None) -> dict:
    """Every distinct fragment that an op tape plays, nested ones too."""
    seen = {} if seen is None else seen
    for frag, qmap, _ in tape:
        if id(frag) not in seen:
            seen[id(frag)] = frag
            if qmap is not None:
                _fragments(frag._tape, seen)
    return seen


def test_a_loaded_oracle_keeps_its_tape():
    # the fragments, ops, cost, light cone and emulation of a loaded SIR
    # 6x6 H=3 oracle are the composed one's: a chunk played twice is one
    # fragment, read once
    c = orc.compose(dm.sir_spec(dm.SirConfig(6, 3, 2))).circuit
    back = cq.loads(cq.dumps(c))
    assert len(_fragments(back._tape)) == len(_fragments(c._tape)) == 61
    assert len(back._tape) == len(c._tape) == 211
    assert cq.cost(back) == cq.cost(c)
    payoff = c.register("payoff")
    assert cq.light_cone(back, payoff) == cq.light_cone(c, payoff)
    cols = _random_columns(c, 64, 11)
    assert (em.apply_batch(back, em.Batch(64, list(cols))).cols
            == em.apply_batch(c, em.Batch(64, list(cols))).cols)


@st.composite
def _raw_tables(draw):
    """Tables that skip validation: gates, controls before targets, that
    may have no target, repeat a qubit or take a target as a control."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = rng.randint(1, 9)
    ptr, qubit, kind = [0], [], []
    for _ in range(rng.randint(0, 20)):
        ks = sorted((rng.choice((NEG, POS, POS, TGT, TGT))
                     for _ in range(rng.randint(1, 5))),
                    key=lambda k: k == TGT)
        qubit += [rng.randrange(n) for _ in ks]
        kind += ks
        ptr.append(len(qubit))
    return unchecked_circuit([RegisterDecl("q", n, "ancilla")],
                             GateTable(ptr, qubit, kind))


@settings(max_examples=100, deadline=None)
@given(_raw_tables(), st.sampled_from([1, 64, 65, 300]))
def test_tape_kernel_reads_unchecked_tables_like_the_referee(c, rows):
    cols = _random_columns(c, rows, rows)
    got = em.apply_batch(c, em.Batch(rows, list(cols))).cols
    assert got == apply_flat(c, em.Batch(rows, list(cols))).cols


def test_apply_batch_rejects_bits_outside_the_rows():
    c = _simple(2, [Gate(((0, True),), (1,))])
    for cols in ([4, 0], [0, -1]):
        with pytest.raises(em.EmulationError, match="outside the batch's 2"):
            em.apply_batch(c, em.Batch(2, cols))
