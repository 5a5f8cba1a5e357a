"""Circuit IR: construction, inversion, cost, light cone, cuts, dumps."""

import json
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import qrollout.circuit as cq
from qrollout.circuit import (POS, Builder, Circuit, CircuitError,
                              RegisterDecl, cost, dumps, invert, light_cone,
                              loads, span_profile)
from qrollout.rank_select import build_scan

from gates import (Gate, circuit_of, crossing_count, from_gates, loads_json,
                   make_circuit, reference_light_cone, register_local_span)


def _reg(name, width, role="ancilla"):
    return RegisterDecl(name, width, role)


def _gate(controls, targets):
    return Gate(tuple((q, True) if isinstance(q, int) else q for q in controls),
                tuple(targets))


def test_single_x_gate():
    c = make_circuit([_reg("q", 1)], [_gate([], [0])])
    rep = cost(c)
    assert rep.gate_count == 1
    assert rep.depth == 1


def test_empty_circuit_is_identity():
    c = make_circuit([_reg("q", 3)], [])
    rep = cost(c)
    assert rep.gate_count == 0
    assert rep.depth == 0


def test_control_target_overlap_rejected():
    with pytest.raises(CircuitError):
        make_circuit([_reg("q", 2)], [_gate([0], [0])])


@pytest.mark.parametrize("gates,first,match", [
    # gate 1 holds both faults: qubit 2's control and target sort first
    (from_gates([((), (0,)), (((7, True), (2, False), (7, False)), (7, 2)),
                 ((), (1, 1))]),
     0, "gate 1: controls and targets overlap on qubit 2$"),
    # equal (gate, qubit) entries keep their order: two controls, then the
    # target, so the first pair is the duplicate
    (from_gates([((), (0,)), (((5, True), (5, False)), (5, 9)),
                 (((0, True),), (0,))]),
     10, "gate 11: duplicate qubit within gate on qubit 5$"),
    (from_gates([((), (4,)), ((), (6,)), (((8, True),), (3, 8, 3)),
                 (((2, True),), (2, 2))]),
     0, "gate 2: duplicate qubit within gate on qubit 3$"),
    # gate 0's control after a target comes before gate 1's duplicate
    (cq.GateTable([0, 2, 4], [0, 1, 2, 2], [cq.TGT, POS, cq.TGT, cq.TGT]),
     3, "^gate 3: control on qubit 1 after a target$"),
    # a late control after gate 0's duplicate is named second
    (cq.GateTable([0, 2, 4], [3, 3, 0, 1], [cq.TGT, cq.TGT, cq.TGT, cq.NEG]),
     0, "^gate 0: duplicate qubit within gate on qubit 3$"),
    # in one gate, the overlap is named before the late control
    (cq.GateTable([0, 3], [4, 1, 4], [cq.TGT, POS, POS]),
     0, "^gate 0: controls and targets overlap on qubit 4$"),
])
def test_validate_names_the_first_fault_in_gate_and_qubit_order(gates, first,
                                                                match):
    with pytest.raises(CircuitError, match=match):
        gates.validate(10, first)


def test_validate_rejects_a_control_after_a_target():
    # dumps writes a gate's controls, then its targets, so such a table
    # would not survive a round trip
    table = cq.GateTable([0, 2, 5], [0, 1, 2, 3, 1],
                         [POS, cq.TGT, POS, cq.TGT, cq.NEG])
    with pytest.raises(CircuitError,
                       match="^gate 4: control on qubit 1 after a target$"):
        table.validate(4, first=3)
    with pytest.raises(CircuitError, match="after a target"):
        circuit_of([_reg("q", 4)], table)


def test_gates_are_one_table():
    pairs = [_gate([0], [1]), _gate([], [0])]
    c = make_circuit([_reg("q", 2)], pairs)
    assert c.gates == from_gates(pairs)
    assert c.gates != from_gates(pairs[:1])
    assert c.gates != from_gates([_gate([(0, False)], [1]), pairs[1]])
    assert c.gates != from_gates([_gate([1], [0]), pairs[1]])
    assert c.gates != pairs
    assert not hasattr(c, "table")


def test_duplicate_register_name_rejected():
    with pytest.raises(CircuitError):
        make_circuit([_reg("a", 1), _reg("a", 2)], [])


def test_index_out_of_range_rejected():
    with pytest.raises(CircuitError):
        make_circuit([_reg("q", 2)], [_gate([1], [5])])


def test_zero_width_register_rejected():
    with pytest.raises(CircuitError):
        RegisterDecl("q", 0, "ancilla")


def test_unknown_role_rejected():
    with pytest.raises(CircuitError):
        RegisterDecl("q", 1, "bogus")


def test_invert_identity_and_involution():
    c = make_circuit([_reg("q", 2)], [])
    assert invert(c) == c
    c2 = make_circuit([_reg("q", 3)],
                      [_gate([0], [1]), _gate([1, 2], [0]), _gate([], [2])])
    assert invert(invert(c2)) == c2
    assert cost(invert(c2)) == cost(c2)


def test_depth_parallel_and_sequential_cnots():
    # two disjoint CNOTs share no qubits: depth 1
    c = make_circuit([_reg("q", 4)], [_gate([0], [1]), _gate([2], [3])])
    assert cost(c).depth == 1
    assert cost(c).gate_count == 2
    # two CNOTs sharing a qubit: depth 2
    c = make_circuit([_reg("q", 3)], [_gate([0], [1]), _gate([1], [2])])
    assert cost(c).depth == 2


def test_depth_equals_count_for_overlapping_chain():
    gates = [_gate([0], [1]) for _ in range(7)]
    c = make_circuit([_reg("q", 2)], gates)
    assert cost(c).depth == 7 == cost(c).gate_count


def test_light_cone_identity_and_cnot():
    c = make_circuit([_reg("q", 2)], [])
    assert light_cone(c, {0}) == {0}
    c = make_circuit([_reg("q", 2)], [_gate([0], [1])])
    assert light_cone(c, {1}) == {0, 1}
    assert light_cone(c, {0}) == {0}


def test_light_cone_bound_on_random_circuits():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randrange(3, 9)
        gates = []
        for _ in range(rng.randrange(1, 25)):
            qs = rng.sample(range(n), rng.randrange(2, min(4, n) + 1))
            gates.append(_gate(qs[:-1], qs[-1:]))
        c = make_circuit([_reg("q", n)], gates)
        outs = set(rng.sample(range(n), rng.randrange(1, n + 1)))
        cone = light_cone(c, outs)
        rep = cost(c)
        assert outs <= cone
        assert len(cone) <= len(outs) + rep.max_fan_in * rep.gate_count


def test_crossing_counts_and_span_identity():
    c = make_circuit([_reg("q", 4)], [])
    for t in range(1, 4):
        assert crossing_count(c, t) == 0
    c = make_circuit([_reg("q", 4)], [_gate([1], [2])])
    assert crossing_count(c, 2) == 1
    assert crossing_count(c, 1) == 0
    assert crossing_count(c, 3) == 0
    # total prefix-span identity: sum over cuts == sum of per-gate spans
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(3, 10)
        gates = []
        for _ in range(rng.randrange(1, 30)):
            qs = rng.sample(range(n), rng.randrange(2, min(4, n) + 1))
            gates.append(_gate(qs[:-1], qs[-1:]))
        c = make_circuit([_reg("q", n)], gates)
        prof = span_profile(c)
        assert prof.total_prefix_span == sum(
            crossing_count(c, t) for t in range(1, n))


def test_layout_permutation_changes_cuts():
    # gate on qubits {0, 3}; with reversed layout it still spans 3 positions
    c = make_circuit([_reg("q", 4)], [_gate([0], [3])],
                     layout=[3, 2, 1, 0])
    assert span_profile(c).spans == (3,)
    with pytest.raises(CircuitError):
        make_circuit([_reg("q", 3)], [], layout=[0, 0, 1])


def test_span_examples():
    c = make_circuit([_reg("q", 2)], [_gate([0], [1])])
    assert span_profile(c).spans == (1,)
    c = make_circuit([_reg("q", 10)], [_gate([0], [9])])
    assert span_profile(c).spans == (9,)


def test_register_local_span():
    regs = [_reg("m", 4, "mask"), _reg("o", 2, "output")]
    # touches two mask qubits at distance 2 plus an output qubit
    c = make_circuit(regs, [_gate([0, 2], [4]), _gate([1], [5])])
    assert register_local_span(c, "m") == 2


def test_dump_roundtrip():
    regs = [_reg("a", 2, "mask"), _reg("b", 2, "output")]
    gates = [Gate(((0, True), (1, False)), (2,)), Gate((), (3, 2))]
    c = make_circuit(regs, gates, max_live_ancilla=3)
    c2 = loads(dumps(c))
    assert c2 == c
    assert c2.max_live_ancilla == 3
    assert dumps(c2) == dumps(c)


def test_circuits_differing_only_in_peak_ancilla_are_not_equal():
    c = build_scan(4)
    assert c.max_live_ancilla > 0
    d = Circuit(c.registers, c._tape, c.layout, 0)
    assert d.gates == c.gates and d.layout == c.layout
    assert dumps(d) != dumps(c) and cost(d) != cost(c)
    assert d != c and c != d
    assert c == Circuit(c.registers, c._tape, c.layout, c.max_live_ancilla)


def reference_dumps(c) -> str:
    """Reference: the per-gate dict encoder that ``dumps`` replaced."""
    qubit = c.gates.qubit.tolist()
    pairs = [[q, k == POS] for q, k in zip(qubit, c.gates.kind.tolist())]
    ptr, tgt = c.gates.bounds()
    doc = {
        "registers": [{"name": r.name, "width": r.width, "role": r.role}
                      for r in c.registers],
        "gates": [{"controls": pairs[a:m], "targets": qubit[m:z]}
                  for a, m, z in zip(ptr, tgt, ptr[1:])],
        "layout": list(c.layout),
        "max_live_ancilla": c.max_live_ancilla,
    }
    return json.dumps(doc, separators=(",", ":"))


@st.composite
def _io_circuits(draw):
    """Random circuits over 1-4 registers: gates with 0-3 controls of mixed
    polarity and 1-3 targets, a shuffled or identity layout."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    regs = [_reg(f"r{i}", w, draw(st.sampled_from(["ancilla", "mask",
                                                   "dice", "payoff"])))
            for i, w in enumerate(widths)]
    n = sum(widths)
    gates = []
    for _ in range(draw(st.integers(0, 20))):
        qs = draw(st.permutations(range(n)))
        k = draw(st.integers(1, min(3, n)))
        controls = qs[k:k + draw(st.integers(0, min(3, n - k)))]
        gates.append(Gate(tuple((q, draw(st.booleans())) for q in controls),
                          tuple(qs[:k])))
    layout = draw(st.permutations(range(n)))
    return make_circuit(regs, gates, layout=layout,
                        max_live_ancilla=draw(st.integers(0, 9)))


def _wide_circuit():
    """A circuit on 1,200 qubits, most of them with 4-digit names."""
    rng = random.Random(8)
    gates = []
    for _ in range(40):
        qs = rng.sample(range(1200), 4)
        gates.append(Gate(((qs[0], True), (qs[1], False)), tuple(qs[2:])))
    return make_circuit([_reg("a", 1000), _reg("b", 200, "mask")], gates)


@settings(max_examples=200, deadline=None)
@given(_io_circuits())
@example(make_circuit([_reg("q", 3)], []))
@example(_wide_circuit())
def test_dumps_matches_reference_encoder(c):
    text = dumps(c)
    assert text == reference_dumps(c)
    assert loads(text) == c
    assert loads(text).max_live_ancilla == c.max_live_ancilla


@settings(max_examples=200, deadline=None)
@given(_io_circuits(), st.data())
@example(make_circuit([_reg("q", 3)], []), None)
def test_light_cone_matches_the_set_referee(c, data):
    n = c.total_qubits
    outs = ([0, n - 1, 0] if data is None      # duplicates
            else data.draw(st.lists(st.integers(0, n - 1), max_size=6)))
    want = reference_light_cone(c, outs)
    assert light_cone(c, outs) == want
    assert light_cone(c, (q for q in outs)) == want
    for bad in (-1, n):
        with pytest.raises(CircuitError, match=f"output qubit {bad} out of"):
            light_cone(c, outs + [bad])


def _variants(c) -> list[str]:
    """Texts of ``c`` other than ``dumps``' own that JSON reads as its
    document: indented, default separators, top-level keys reordered, and
    a gate with a key the referee ignores (whose digits the array parse
    would take for a qubit out of range)."""
    doc = json.loads(dumps(c))
    keys = ("gates", "layout", "registers", "max_live_ancilla")
    texts = [json.dumps(doc, indent=1), json.dumps(doc),
             json.dumps({k: doc[k] for k in keys}, separators=(",", ":"))]
    if doc["gates"]:
        doc["gates"][0]["qubit99"] = 0
        texts.append(json.dumps(doc, separators=(",", ":")))
    return texts


@settings(max_examples=200, deadline=None)
@given(_io_circuits())
@example(make_circuit([_reg("q", 2)], [], max_live_ancilla=1))
def test_loads_paths_agree(c):
    # loads reads dumps' own text as the json.loads referee does, and
    # refuses every other text of the same document
    text = dumps(c)
    fast, slow = loads(text), loads_json(text)
    assert fast == slow == c
    assert fast.max_live_ancilla == slow.max_live_ancilla
    assert dumps(fast) == text
    for variant in _variants(c):
        assert loads_json(variant) == c
        with pytest.raises(CircuitError):
            loads(variant)


def test_loads_declines_leading_zeros():
    # the array parse reads 007 as 7, but 7 re-dumps as 7
    c = make_circuit([_reg("q", 8)], [_gate([0], [7])])
    text = dumps(c).replace('"targets":[7]', '"targets":[007]')
    at = text.index("[007]") + 1
    with pytest.raises(CircuitError, match=f"^byte {at}, gate 0: the text "
                       "differs from dumps' text"):
        loads(text)
    with pytest.raises(json.JSONDecodeError):
        loads_json(text)


def test_loads_non_ascii_register_name():
    c = make_circuit([_reg("\u00e9", 2)], [_gate([0], [1])])
    text = dumps(c)
    assert text.isascii() and loads(text) == c
    raw = json.dumps(json.loads(text), ensure_ascii=False,
                     separators=(",", ":"))
    assert loads_json(raw) == c
    at = raw.index("\u00e9")
    with pytest.raises(CircuitError, match=f"^byte {at}: a non-ASCII"):
        loads(raw)


def test_loads_rejects_tampered_gates():
    c = make_circuit([_reg("q", 3)], [_gate([0], [1]), _gate([1, 2], [0])])
    cases = [("targets", [7], r"gate 1: qubit index 7 out of range \(n=3\)"),
             ("controls", [[0, True], [2, True]],        # control is a target
              "gate 1: controls and targets overlap on qubit 0")]
    for key, value, match in cases:
        doc = json.loads(dumps(c))
        doc["gates"][1][key] = value
        # the tampered text re-dumps byte for byte (or, out of range,
        # cannot be re-dumped), so validate names the fault; the referee
        # finds the same one with any separators
        compact = json.dumps(doc, separators=(",", ":"))
        with pytest.raises(CircuitError, match=f"^{match}"):
            loads(compact)
        for separators in (None, (",", ":")):
            with pytest.raises(CircuitError, match=f"^{match}"):
                loads_json(json.dumps(doc, separators=separators))


def test_loads_rejects_a_nine_digit_qubit_without_naming_every_qubit(
        monkeypatch):
    # a re-dump would name qubits up to the tampered index, a billion
    # strings, so the range check runs first and dumps is never called
    c = make_circuit([_reg("q", 3)], [_gate([0], [1])])
    text = dumps(c).replace('"targets":[1]', '"targets":[999999999]')

    def redump(c):
        raise AssertionError("loads re-dumped a qubit out of range")
    monkeypatch.setattr(cq, "dumps", redump)
    with pytest.raises(CircuitError, match="^gate 0: qubit index 999999999 "
                       r"out of range \(n=3\)$"):
        loads(text)


def test_loads_rejects_a_wide_register_before_naming_its_qubits():
    # a short text may declare a million qubits; the layout's length
    # refuses it before any per-qubit object is built
    c = make_circuit([_reg("q", 3)], [_gate([0], [1])])
    text = dumps(c).replace('"width":3', '"width":1000000')
    tracemalloc.start()
    try:
        with pytest.raises(CircuitError, match="^layout must be a "
                           "permutation of all qubits$"):
            loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _drop(key):
    return lambda doc: doc["gates"][1].pop(key)


def _set(key, value):
    return lambda doc: doc["gates"][1].__setitem__(key, value)


@pytest.mark.parametrize("tamper, match", [
    (lambda doc: doc.pop("gates"), "missing field 'gates'"),
    (_drop("controls"), "gate 1: missing field 'controls'"),
    (_drop("targets"), "gate 1: missing field 'targets'"),
    (_set("controls", [[0]]), r"gate 1: field 'controls': \[0\] is not an"),
    (_set("controls", [[0, 1]]), r"gate 1: field 'controls': \[0, 1\] is"),
    (_set("controls", [[True, True]]), "gate 1: field 'controls': .True"),
    (_set("controls", 0), "gate 1: field 'controls' is not a list"),
    (_set("targets", [1.5]), "gate 1: field 'targets': qubit 1.5 is not"),
    (_set("targets", ["0"]), "gate 1: field 'targets': qubit '0' is not"),
    (_set("targets", [True]), "gate 1: field 'targets': qubit True is not"),
])
def test_loads_rejects_malformed_gates(tamper, match):
    # the referee names the field (``match``); loads names gate 1, with
    # the first byte where the text differs from the re-dump of what it
    # parsed or a qubit out of range (1.5 parses as qubits 1 and 5), or
    # the missing gate list
    c = make_circuit([_reg("q", 3)], [_gate([0], [1]), _gate([1, 2], [0])])
    doc = json.loads(dumps(c))
    tamper(doc)
    text = json.dumps(doc, separators=(",", ":"))
    with pytest.raises(CircuitError, match=match):
        loads_json(text)
    want = r"^(byte \d+, )?gate 1: " if "gate 1" in match else "^no gate list"
    with pytest.raises(CircuitError, match=want):
        loads(text)


def _case(name, edit, match):
    return pytest.param(edit, match, id=name)


def _schema_field(field, value):
    return ("^registers, layout or max_live_ancilla not in dumps' schema "
            rf"\(field '{field}': {re.escape(value)}\)$")


@pytest.mark.parametrize("edit, match", [
    # a JSON syntax error names its byte in the text, not the spliced one
    _case("json-before-gates",
          lambda t: t.replace('"width":3', '"width":3,'),
          lambda t: f"^byte {t.index(',,') + 1}: invalid JSON: Expecting"),
    _case("json-after-gates",
          lambda t: t.replace('"layout":[0,1,2]', '"layout":[0,1,2,]'),
          lambda t: f"^byte {t.index(',]') + 1}: invalid JSON: Expecting "
          "value$"),
    _case("json-leading-zero",
          lambda t: t.replace('ancilla":0', 'ancilla":00'),
          lambda t: f"^byte {t.index(':00') + 2}: invalid JSON"),
    _case("no-gates-key", lambda t: t.replace('"gates"', '"gate"'),
          lambda t: "^no gate list"),
    _case("no-layout-key", lambda t: t.replace('"layout"', '"lay"'),
          lambda t: "^no gate list"),
    _case("number-before-first-gate",
          lambda t: t.replace('"gates":[', '"gates":[5,'),
          lambda t: f"^byte {t.index('[5,') + 1}: a number before the first "
          "gate$"),
    _case("gate-without-qubits",
          lambda t: t.replace('{"controls":[],"targets":[2]}', "{}"),
          lambda t: f"^byte {t.index('{}')}, gate 1: a gate without "
          "qubits$"),
    _case("ten-digit-qubit",
          lambda t: t.replace('"targets":[2]', '"targets":[1234567890]'),
          lambda t: f"^byte {t.index('123')}, gate 1: a qubit of 10 "
          "digits$"),
    _case("qubit-out-of-range",
          lambda t: t.replace('"targets":[2]', '"targets":[3]'),
          lambda t: r"^gate 1: qubit index 3 out of range \(n=3\)$"),
    # 1e0 reads as 1.0, which re-dumps as 1.0, outside every gate
    _case("differs-after-gates",
          lambda t: t.replace('ancilla":0', 'ancilla":1e0'),
          lambda t: f"^byte {t.index('1e0') + 1}: the text differs"),
    _case("missing-field",
          lambda t: t.replace(',"max_live_ancilla":0', ""),
          lambda t: "^registers, layout or max_live_ancilla not in dumps' "
          "schema .KeyError..max_live_ancilla"),
    _case("not-an-object", lambda t: "[" + t + "]",
          lambda t: "^registers, layout or max_live_ancilla not in "),
    _case("layout-not-a-permutation",
          lambda t: t.replace('"layout":[0,1,2]', '"layout":[0,1,1]'),
          lambda t: "^layout must be a permutation"),
    # values that json.loads reads and dumps writes back as read
    _case("negative-peak-ancilla",
          lambda t: t.replace('ancilla":0', 'ancilla":-3'),
          lambda t: _schema_field("max_live_ancilla", "-3")),
    _case("fractional-peak-ancilla",
          lambda t: t.replace('ancilla":0', 'ancilla":1.5'),
          lambda t: _schema_field("max_live_ancilla", "1.5")),
    _case("name-not-a-string",
          lambda t: t.replace('"name":"q"', '"name":7'),
          lambda t: _schema_field("name", "7")),
    # a second register keeps every qubit of the gates and the layout
    _case("width-not-an-int",
          lambda t: t.replace('"width":3,"role":"ancilla"}',
                              '"width":true,"role":"ancilla"},'
                              '{"name":"r","width":2,"role":"ancilla"}'),
          lambda t: _schema_field("width", "True")),
    _case("layout-not-an-int",
          lambda t: t.replace('"layout":[0,1,2]', '"layout":[0,1.0,2]'),
          lambda t: _schema_field("layout", "1.0")),
])
def test_loads_names_where_a_text_is_not_dumps_own(edit, match):
    c = make_circuit([_reg("q", 3)], [_gate([0], [1]), _gate([], [2])])
    text = dumps(c)
    bad = edit(text)
    assert bad != text
    with pytest.raises(CircuitError, match=match(bad)) as info:
        loads(bad)
    if "invalid JSON" in str(info.value):
        assert isinstance(info.value.__cause__, json.JSONDecodeError)


def test_builder_tally_matches_materialized_cost():
    rng = random.Random(9)
    bt = Builder(record=False)
    bm = Builder(record=True)
    for b in (bt, bm):
        b.add_register("q", 8, "ancilla")
    for _ in range(200):
        qs = rng.sample(range(8), 3)
        for b in (bt, bm):
            b.gate(qs[:2], qs[2:])
    c = bm.finish()
    assert bt.report() == bm.report()
    assert cost(c).gate_count == bt.report().gate_count
    assert cost(c).depth == bt.report().depth
    assert cost(c).max_fan_in == bt.report().max_fan_in


def test_builder_ancilla_liveness_peak():
    b = Builder()
    b.add_register("q", 4, "ancilla")
    b.acquire(2)
    b.gate([0], [1])
    b.acquire(1)
    b.release(3)
    b.acquire(1)
    b.gate([2], [3])
    c = b.finish()
    assert c.max_live_ancilla == 3
    assert invert(c).max_live_ancilla == 3


def test_inverted_depth_equals_forward_depth():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randrange(2, 8)
        gates = []
        for _ in range(rng.randrange(1, 40)):
            qs = rng.sample(range(n), min(n, rng.randrange(2, 4)))
            gates.append(_gate(qs[:-1], qs[-1:]))
        c = make_circuit([_reg("q", n)], gates)
        rep = cost(c)
        assert cost(invert(c)).depth == rep.depth
        assert rep.depth <= rep.gate_count
