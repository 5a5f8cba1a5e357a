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

from gates import (Gate, circuit_of, crossing_count, flat_dumps, from_gates,
                   loads_json, make_circuit, reference_light_cone,
                   register_local_span)


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
    """Reference: the per-gate dict encoder that the flat writer
    (``flat_dumps``) replaced."""
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
    # the circuit and its loaded tape have the dict encoder's flat text
    text = dumps(c)
    back = loads(text)
    assert flat_dumps(back) == flat_dumps(c) == reference_dumps(c)
    assert back == c and dumps(back) == text
    assert back.max_live_ancilla == c.max_live_ancilla


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
    a fragment with a key the referee ignores."""
    doc = json.loads(dumps(c))
    keys = ("fragments", "ops", "layout", "registers", "max_live_ancilla")
    texts = [json.dumps(doc, indent=1), json.dumps(doc),
             json.dumps({k: doc[k] for k in keys}, separators=(",", ":"))]
    if doc["fragments"]:
        doc["fragments"][0]["qubit99"] = 0
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
    # JSON has no 007, and json.loads names the byte after its first 0
    c = make_circuit([_reg("q", 8)], [_gate([0], [7])])
    text = dumps(c).replace('"qubit":[0,7]', '"qubit":[0,007]')
    assert text != dumps(c)
    at = text.index("007") + 1
    with pytest.raises(CircuitError, match=f"^byte {at}: invalid JSON"):
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
    # one chunk: ptr [0, 2, 5], qubit [0, 1, 1, 2, 0], kind [1, 2, 1, 1, 2]
    c = make_circuit([_reg("q", 3)], [_gate([0], [1]), _gate([1, 2], [0])])
    cases = [([0, 1, 1, 2, 7], r"gate 1: qubit index 7 out of range \(n=3\)"),
             ([0, 1, 0, 2, 0],                            # control is a target
              "gate 1: controls and targets overlap on qubit 0")]
    for qubit, match in cases:
        doc = json.loads(dumps(c))
        doc["fragments"][0]["qubit"] = qubit
        # the op that plays the chunk checks its gates, and validate names
        # the fault; the referee finds the same one with any separators
        compact = json.dumps(doc, separators=(",", ":"))
        with pytest.raises(CircuitError, match=f"^op 0, {match}$"):
            loads(compact)
        for separators in (None, (",", ":")):
            with pytest.raises(CircuitError, match=f"^{match}"):
                loads_json(json.dumps(doc, separators=separators))


def test_loads_rejects_a_nine_digit_qubit_without_naming_every_qubit(
        monkeypatch):
    # the op that plays the chunk checks its qubits before any re-dump
    c = make_circuit([_reg("q", 3)], [_gate([0], [1])])
    text = dumps(c).replace('"qubit":[0,1]', '"qubit":[0,999999999]')

    def redump(c):
        raise AssertionError("loads re-dumped a qubit out of range")
    monkeypatch.setattr(cq, "dumps", redump)
    with pytest.raises(CircuitError, match="^op 0, gate 0: qubit index "
                       r"999999999 out of range \(n=3\)$"):
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
    # a flat gate list (the text dumps wrote before the op tape) with a
    # malformed gate: the referee names the field (``match``), and loads
    # refuses it as it refuses every flat text, for its missing fragments
    c = make_circuit([_reg("q", 3)], [_gate([0], [1]), _gate([1, 2], [0])])
    doc = json.loads(flat_dumps(c))
    tamper(doc)
    text = json.dumps(doc, separators=(",", ":"))
    with pytest.raises(CircuitError, match=match):
        loads_json(text)
    with pytest.raises(CircuitError, match=r"^not in dumps' schema "
                       r"\(KeyError\('fragments'\)\)$"):
        loads(text)


def _case(name, edit, match):
    return pytest.param(edit, match, id=name)


def _schema_field(field, value, where=""):
    return (rf"^not in dumps' schema \({where}field '{field}': "
            rf"{re.escape(value)}\)$")


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
    # the fragments hold the gates: one chunk, ptr [0, 2, 3], qubit
    # [0, 1, 2], kind [1, 2, 2]
    _case("no-gates-key", lambda t: t.replace('"fragments"', '"fragment"'),
          lambda t: r"^not in dumps' schema \(KeyError\('fragments'\)\)$"),
    _case("no-layout-key", lambda t: t.replace('"layout"', '"lay"'),
          lambda t: r"^not in dumps' schema \(KeyError\('layout'\)\)$"),
    _case("number-before-first-gate",
          lambda t: t.replace('"ptr":[0,', '"ptr":[5,0,'),
          lambda t: "^fragment 0: ptr, qubit and kind are not one gate "
          "table$"),
    _case("gate-without-qubits",
          lambda t: t.replace('"ptr":[0,2,3]', '"ptr":[0,2,2,3]'),
          lambda t: "^op 0, gate 1: gate must have at least one target$"),
    _case("ten-digit-qubit",
          lambda t: t.replace('"qubit":[0,1,2]', '"qubit":[0,1,1234567890]'),
          lambda t: r"^op 0, gate 1: qubit index 1234567890 out of range "
          r"\(n=3\)$"),
    _case("qubit-out-of-range",
          lambda t: t.replace('"qubit":[0,1,2]', '"qubit":[0,1,3]'),
          lambda t: r"^op 0, gate 1: qubit index 3 out of range \(n=3\)$"),
    # -0 reads as 0, which re-dumps as 0, after every gate
    _case("differs-after-gates",
          lambda t: t.replace('ancilla":0', 'ancilla":-0'),
          lambda t: f"^byte {t.index('-0')}: the text differs"),
    _case("missing-field",
          lambda t: t.replace(',"max_live_ancilla":0', ""),
          lambda t: "^not in dumps' schema .KeyError..max_live_ancilla"),
    _case("not-an-object", lambda t: "[" + t + "]",
          lambda t: r"^not in dumps' schema \(TypeError"),
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


# dumps' text of a tape on 3 qubits: fragment 0 is a chunk of one gate
# (positive 0, negative 1, target 2), fragment 1 replays it on k=3 local
# qubits, fragment 2 is an X on qubit 1; the top level replays fragment 1
# forwards and backwards around fragment 2
_TAPE = ('{"registers":[{"name":"q","width":3,"role":"ancilla"}],'
         '"fragments":[{"ptr":[0,3],"qubit":[0,1,2],"kind":[1,0,2]},'
         '{"k":3,"ops":[[0,null,false]]},'
         '{"ptr":[0,1],"qubit":[1],"kind":[2]}],'
         '"ops":[[1,[0,1,2],false],[2,null,false],[1,[2,1,0],true]],'
         '"layout":[0,1,2],"max_live_ancilla":0}')


def test_loads_reads_a_tape_of_replays_back_to_its_text():
    c = loads(_TAPE)
    assert dumps(c) == _TAPE and c == loads(_TAPE)
    assert [qmap for _, qmap, _ in c._tape] == [[0, 1, 2], None, [2, 1, 0]]
    assert c._tape[0][0] is c._tape[2][0]
    want = [Gate(((0, True), (1, False)), (2,)), Gate((), (1,)),
            Gate(((2, True), (1, False)), (0,))]
    assert loads_json(_TAPE).gates == c.gates == from_gates(want)


@pytest.mark.parametrize("edit, match", [
    _case("later-fragment",
          lambda t: t.replace('"ops":[[0,null,false]]',
                              '"ops":[[1,null,false]]'),
          lambda t: "^fragment 1, op 0: fragment 1 is not listed before it$"),
    _case("missing-fragment",
          lambda t: t.replace("[2,null,false]", "[3,null,false]"),
          lambda t: "^op 1: fragment 3 is not listed before it$"),
    _case("map-of-the-wrong-length",
          lambda t: t.replace("[1,[0,1,2],false]", "[1,[0,1],false]"),
          lambda t: r"^op 0: map \[0, 1\] of fragment 1 is not k=3 distinct "
          "qubits below n=3$"),
    _case("map-repeats-a-qubit",
          lambda t: t.replace("[1,[2,1,0],true]", "[1,[2,1,2],true]"),
          lambda t: r"^op 2: map \[2, 1, 2\] of fragment 1 is not k=3 "
          "distinct qubits below n=3$"),
    _case("map-out-of-range",
          lambda t: t.replace("[1,[2,1,0],true]", "[1,[2,1,3],true]"),
          lambda t: r"^op 2: map \[2, 1, 3\] of fragment 1 is not k=3 "
          "distinct qubits below n=3$"),
    _case("chunk-with-a-map",
          lambda t: t.replace("[2,null,false]", "[2,[1],false]"),
          lambda t: "^op 1: a chunk takes no qubit map$"),
    _case("replay-without-a-map",
          lambda t: t.replace("[1,[0,1,2],false]", "[1,null,false]"),
          lambda t: r"^not in dumps' schema \(TypeError"),
    _case("chunk-outside-its-replays-k",
          lambda t: t.replace('"k":3', '"k":2'),
          lambda t: r"^fragment 1, op 0, gate 0: qubit index 2 out of range "
          r"\(n=2\)$"),
    _case("control-after-a-target",
          lambda t: t.replace('"kind":[1,0,2]', '"kind":[2,0,2]'),
          lambda t: "^fragment 1, op 0, gate 0: control on qubit 1 after a "
          "target$"),
    _case("kind-out-of-range",
          lambda t: t.replace('"kind":[2]', '"kind":[3]'),
          lambda t: "^fragment 2: ptr, qubit and kind are not one gate "
          "table$"),
    _case("ptr-past-the-entries",
          lambda t: t.replace('"ptr":[0,1]', '"ptr":[0,2]'),
          lambda t: "^fragment 2: ptr, qubit and kind are not one gate "
          "table$"),
    _case("qubit-not-an-int",
          lambda t: t.replace('"qubit":[1]', '"qubit":[true]'),
          lambda t: _schema_field("qubit", "True", "fragment 2, ")),
    _case("k-not-an-int", lambda t: t.replace('"k":3', '"k":3.0'),
          lambda t: _schema_field("k", "3.0", "fragment 1, ")),
    _case("map-qubit-not-an-int",
          lambda t: t.replace("[1,[0,1,2],false]", "[1,[0,1.0,2],false]"),
          lambda t: _schema_field("map", "1.0", "op 0, ")),
    _case("direction-not-a-bool",
          lambda t: t.replace("[2,null,false]", "[2,null,0]"),
          lambda t: _schema_field("reverse", "0", "op 1, ")),
    # a fragment that no op plays is not in the re-dump
    _case("fragment-no-op-plays",
          lambda t: t.replace('"kind":[2]}]', '"kind":[2]},{"k":0,"ops":[]}]'),
          lambda t: f"^byte {t.index(',{' + chr(34) + 'k' + chr(34) + ':0')}: "
          "the text differs"),
])
def test_loads_names_where_a_tape_is_not_dumps_own(edit, match):
    bad = edit(_TAPE)
    assert bad != _TAPE
    with pytest.raises(CircuitError, match=match(bad)):
        loads(bad)


def _chunk_plays(chunk: str, k: int, ops: str) -> str:
    """dumps' text on 3 qubits of one chunk, fragment 0, played by
    fragment 1 on 3 local qubits, by fragment 2 on ``k``, and by the
    top-level ``ops``."""
    return ('{"registers":[{"name":"q","width":3,"role":"ancilla"}],'
            f'"fragments":[{chunk},{{"k":3,"ops":[[0,null,false]]}},'
            f'{{"k":{k},"ops":[[0,null,false]]}}],"ops":{ops},'
            '"layout":[0,1,2],"max_live_ancilla":0}')


def test_loads_checks_a_chunk_once_per_qubit_count(monkeypatch):
    good = '{"ptr":[0,2],"qubit":[0,2],"kind":[1,2]}'
    checks = []
    monkeypatch.setattr(cq, "_chunk_is_valid",
                        lambda *a: checks.append(a[-1]) or True)
    text = _chunk_plays(good, 3, "[[0,null,false],[0,null,true],"
                        "[1,[2,0,1],false],[2,[0,1,2],true]]")
    assert dumps(loads(text)) == text
    assert checks == [3]
    monkeypatch.undo()
    # valid on 3 qubits, the chunk is still checked on fragment 2's 2
    with pytest.raises(CircuitError, match=r"^fragment 2, op 0, gate 0: "
                       r"qubit index 2 out of range \(n=2\)$"):
        loads(_chunk_plays(good, 2, "[[1,[0,1,2],false]]"))
    # a bad chunk that two top-level ops play is named at the first
    bad = '{"ptr":[0,3],"qubit":[0,1,2],"kind":[2,0,2]}'
    with pytest.raises(CircuitError, match="^fragment 1, op 0, gate 0: "
                       "control on qubit 1 after a target$"):
        loads(_chunk_plays(bad, 3, "[[0,null,false],[0,null,true]]"))
    top = ('{"registers":[{"name":"q","width":3,"role":"ancilla"}],'
           f'"fragments":[{bad}],"ops":[[0,null,true],[0,null,false]],'
           '"layout":[0,1,2],"max_live_ancilla":0}')
    with pytest.raises(CircuitError, match="^op 0, gate 0: control on "
                       "qubit 1 after a target$"):
        loads(top)


def _nested(levels: int) -> str:
    """dumps' text of an X gate in ``levels`` fragments, each replaying the
    one before it once."""
    frags = ['{"ptr":[0,1],"qubit":[0],"kind":[2]}',
             '{"k":1,"ops":[[0,null,false]]}'] + [
        f'{{"k":1,"ops":[[{i},[0],false]]}}' for i in range(1, levels - 1)]
    return ('{"registers":[{"name":"q","width":1,"role":"ancilla"}],'
            f'"fragments":[{",".join(frags)}],'
            f'"ops":[[{levels - 1},[0],false]],'
            '"layout":[0],"max_live_ancilla":0}')


def test_loads_refuses_fragments_nested_past_max_nesting():
    # the fragment walks recurse once per level, so a deeper text would end
    # in a RecursionError, not a CircuitError
    deepest = loads(_nested(cq._MAX_NESTING))
    assert dumps(deepest) == _nested(cq._MAX_NESTING)
    assert cost(deepest).depth == 1 and light_cone(deepest, [0]) == {0}
    assert len(deepest.gates) == 1
    over = cq._MAX_NESTING + 1
    with pytest.raises(CircuitError, match=f"^fragment {over - 1}: nested "
                       f"{over} deep, more than {cq._MAX_NESTING}$"):
        loads(_nested(over))
    with pytest.raises(CircuitError, match="nested"):
        loads(_nested(1200))


def _doubling(b, q, level):
    if level:
        b.call(_doubling, q, level=level - 1)
        b.call(_doubling, q, level=level - 1)
    else:
        b.gate((), (q,))


def test_loads_and_the_builder_refuse_a_fragment_of_chain_gate_limit_gates():
    # fragment i > 0 plays fragment i - 1 twice (the chunk of one gate,
    # then replays), so fragment 29 holds 2^29 gates: a text of about a
    # kilobyte reaches the limit, as the recording of _doubling does
    limit = cq._CHAIN_GATE_LIMIT
    assert limit == 2 ** 29
    frags = ['{"ptr":[0,1],"qubit":[0],"kind":[2]}'] + [
        f'{{"k":1,"ops":[[{i},{m},false],[{i},{m},false]]}}'
        for i, m in [(0, "null")] + [(i, "[0]") for i in range(1, 29)]]
    text = ('{"registers":[{"name":"q","width":1,"role":"ancilla"}],'
            f'"fragments":[{",".join(frags)}],"ops":[[29,[0],false]],'
            '"layout":[0],"max_live_ancilla":0}')
    assert len(text) < 1500
    at_most = (f"a memoized fragment holds at most {limit - 1} gates, not "
               f"{limit}$")
    with pytest.raises(CircuitError, match=f"^fragment 29: {at_most}"):
        loads(text)
    # one level less loads, and re-dumps as read
    below = text.replace("," + frags[-1], "").replace("[[29,", "[[28,")
    assert cost(loads(below)).gate_count == limit // 2
    assert dumps(loads(below)) == below
    b = Builder()
    q = b.add_register("q", 1, "ancilla")
    with pytest.raises(CircuitError, match=f"^_doubling: {at_most}"):
        b.call(_doubling, q[0], level=29)


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
