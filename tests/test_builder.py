"""Builder: memoized fragment replay, op tape and depth, differentially
against the per-gate reference builder, plus pinned outputs."""

import hashlib
import weakref
from contextlib import contextmanager
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrollout import circuit as cq
from qrollout import domains as dm
from qrollout import oracle as orc
from qrollout import rank_select as rs
from qrollout.circuit import Circuit, CircuitError, CostReport, RegisterDecl
from qrollout.emulator import check_bijective

from gates import (Gate, flat_dumps, from_gates, gate_list, loads_json,
                   make_circuit, qubit_lists, reference_layer,
                   reference_light_cone)


# ---------------------------------------------------------------------------
# reference: the per-gate builder and depth loop that the flat gate table
# with fragment replay replaced, its gates kept as (controls, targets) pairs

def _normalize_controls(controls) -> tuple[tuple[int, bool], ...]:
    out = []
    for c in controls:
        if isinstance(c, tuple):
            q, pol = c
            out.append((int(q), bool(pol)))
        else:
            out.append((int(c), True))
    return tuple(out)


def _support(gate: Gate) -> tuple[int, ...]:
    return tuple(q for q, _ in gate.controls) + gate.targets


def _check_gate(gate: Gate, n_qubits: int) -> None:
    cq = [q for q, _ in gate.controls]
    if not gate.targets:
        raise CircuitError("gate must have at least one target")
    for q in cq + list(gate.targets):
        if not 0 <= q < n_qubits:
            raise CircuitError(f"qubit index {q} out of range (n={n_qubits})")
    if len(set(cq)) != len(cq) or len(set(gate.targets)) != len(gate.targets):
        raise CircuitError("duplicate qubit within gate")
    if set(cq) & set(gate.targets):
        raise CircuitError("controls and targets overlap")


def reference_cost(c) -> CostReport:
    """Gate count, greedy-layered depth, qubits, fan-in, peak live ancilla.

    Depth convention: a gate enters the earliest layer in which none of its
    qubits are occupied (per-qubit occupancy layering).
    """
    layers = [0] * c.total_qubits
    depth = 0
    max_fan = 0
    for g in gate_list(c.gates):
        sup = _support(g)
        lay = 1 + max(layers[q] for q in sup)
        for q in sup:
            layers[q] = lay
        if lay > depth:
            depth = lay
        if len(sup) > max_fan:
            max_fan = len(sup)
    return CostReport(gate_count=len(c.gates), depth=depth,
                      qubit_count=c.total_qubits, max_fan_in=max_fan,
                      max_live_ancilla=c.max_live_ancilla)


class Builder:
    """Incremental circuit constructor with cost tallying.

    With ``record=False`` the builder keeps only running tallies (gate count,
    depth layers, fan-in, ancilla liveness) and never materializes the gate
    list; ``finish()`` is then unavailable but ``report()`` works.  In either
    mode ``with b.capture() as ops:`` checks the block's gates and holds them
    in ``ops`` instead of emitting them; ``emit`` and ``emit_inverse`` play
    them forwards or backwards.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._registers: list[RegisterDecl] = []
        self._n = 0
        self._gates: list[Gate] = []
        self._held: list[list[Gate]] = []
        self._layers: list[int] = []
        self._depth = 0
        self._gate_count = 0
        self._max_fan_in = 0
        self._live_anc = 0
        self._peak_anc = 0

    # -- registers ---------------------------------------------------------
    def add_register(self, name: str, width: int, role: str) -> tuple[int, ...]:
        decl = RegisterDecl(name, width, role)
        if any(r.name == name for r in self._registers):
            raise CircuitError(f"duplicate register name {name!r}")
        self._registers.append(decl)
        qubits = tuple(range(self._n, self._n + width))
        self._n += width
        self._layers.extend([0] * width)
        return qubits

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def gate_count(self) -> int:
        return self._gate_count

    # -- ancilla liveness markers -------------------------------------------
    def acquire(self, n: int) -> None:
        self._live_anc += n
        if self._live_anc > self._peak_anc:
            self._peak_anc = self._live_anc

    def release(self, n: int) -> None:
        self._live_anc -= n

    # -- gate emission -------------------------------------------------------
    def gate(self, controls, targets) -> None:
        g = Gate(_normalize_controls(controls), tuple(int(t) for t in targets))
        _check_gate(g, self._n)
        self._emit(g)

    def _emit(self, g: Gate) -> None:
        if self._held:
            self._held[-1].append(g)
            return
        self._gate_count += 1
        layers = self._layers
        sup = _support(g)
        if len(sup) > self._max_fan_in:
            self._max_fan_in = len(sup)
        lay = 1 + max(layers[q] for q in sup)
        for q in sup:
            layers[q] = lay
        if lay > self._depth:
            self._depth = lay
        if self.record:
            self._gates.append(g)

    def x(self, target: int) -> None:
        self.gate((), (target,))

    def cx(self, control, target: int) -> None:
        self.gate((control,), (target,))

    # -- capture / inversion ------------------------------------------------
    @contextmanager
    def capture(self):
        ops: list[Gate] = []
        self._held.append(ops)
        try:
            yield ops
        finally:
            self._held.pop()

    def emit(self, ops: Sequence[Gate]) -> None:
        for g in ops:
            self._emit(g)

    def emit_inverse(self, ops: Sequence[Gate]) -> None:
        for g in reversed(ops):
            self._emit(g)

    def emit_reversed(self, emitter, *args, **kwargs) -> None:
        with self.capture() as ops:
            emitter(self, *args, **kwargs)
        self.emit_inverse(ops)

    @staticmethod
    def support(ops: Sequence[Gate]) -> np.ndarray:
        return np.array(sorted({q for g in ops for q in _support(g)}),
                        dtype=np.int64)

    # -- results --------------------------------------------------------------
    def finish(self) -> Circuit:
        if not self.record:
            raise CircuitError("builder is in tally-only mode")
        return make_circuit(self._registers, self._gates,
                            max_live_ancilla=self._peak_anc)

    def report(self) -> CostReport:
        return CostReport(gate_count=self._gate_count, depth=self._depth,
                          qubit_count=self._n, max_fan_in=self._max_fan_in,
                          max_live_ancilla=self._peak_anc)


class ReferenceBuilder(Builder):
    """The reference with ``call``: the emitter runs on global qubits."""

    def call(self, emitter, *regs, **consts):
        emitter(self, *regs, **consts)


# ---------------------------------------------------------------------------
# pinned outputs (captured before the gate table replaced per-gate emission)

PINNED_REPORTS = {
    "scan1024": CostReport(109569, 89088, 1068, 12, 22),
    "blocked1024": CostReport(130879, 100575, 1122, 12, 76),
    "sway6x6h3": CostReport(70003, 57507, 998, 8, 133),
    "sir6x6h3t2": CostReport(37526, 30390, 757, 7, 126),
}
PINNED_DUMPS = {
    "scan16": "07b8717d6a21a2e36f3baec696d162a394ae60a3a2089a065d13d0d98b41fe4f",
    "blocked16": "583cd9bc277c242dc9b75e0fe01c6d372693b33196a33f20346e5fc4bf16a8c3",
    "sway2x2h1": "45b8ef0b6986535e82c009637b211211bc39414fa26111e6c12abf216c3088ec",
    "sir2x2h1t1": "7cf43d4e71604978f4a5c8ff95d245f6b3459b80d2d6658e51b1e5a3d2c76ddd",
    "scan1": "9233dc311f426e9c56b12581ee11033e8d7c8214a82ba7b01e941bf21367137a",
    "scan12": "8a26c6b38ab98f0883a030658e071a10fa0623814e459d452ad2e0dea7dfccab",
    "sway3x3h2": "b6ad78ace183e1b13ebb8aab2e57f6d8883ba2fdbf2c8ce2f42ff903dd1442f3",
    "sway2x2h2arms": "dbd416d02337644eeb1f32535079f93dc3bfc3ea6d1170624579a362398726ca",
}


def test_pinned_reports():
    assert (rs.builder_scan(1024, record=False).report()
            == PINNED_REPORTS["scan1024"])
    assert (rs.builder_blocked(1024, record=False).report()
            == PINNED_REPORTS["blocked1024"])
    sway = orc.compose(dm.sway_spec(dm.SwayConfig(6, 3)))
    sir = orc.compose(dm.sir_spec(dm.SirConfig(6, 3, 2)))
    assert sway.report == PINNED_REPORTS["sway6x6h3"]
    assert sir.report == PINNED_REPORTS["sir6x6h3t2"]
    # the record-mode circuits carry the builder's depth; the depth walk
    # of their loaded tapes agrees
    for oc in (sway, sir):
        assert cq.cost(cq.loads(cq.dumps(oc.circuit))) == oc.report


def _pinned_circuits() -> dict:
    return {
        "scan16": rs.build_scan(16),
        "blocked16": rs.build_blocked(16),
        "sway2x2h1": orc.compose(dm.sway_spec(dm.SwayConfig(2, 1))).circuit,
        "sir2x2h1t1": orc.compose(dm.sir_spec(dm.SirConfig(2, 1, 1))).circuit,
        "scan1": rs.build_scan(1),                 # w = 1: no scratch
        "scan12": rs.build_scan(12),               # N a multiple of w
        "sway3x3h2": orc.compose(dm.sway_spec(dm.SwayConfig(3, 2))).circuit,
        # a bypassed pass next to memoized ones
        "sway2x2h2arms": orc.compose(dm.sway_spec(dm.SwayConfig(2, 2)),
                                     arms=2, first_moves=[0, 3]).circuit,
    }


def test_pinned_dumps():
    for name, c in _pinned_circuits().items():
        digest = hashlib.sha256(cq.dumps(c).encode()).hexdigest()
        assert digest == PINNED_DUMPS[name], name


def test_a_loaded_tape_lists_the_flat_texts_gates():
    # the tape text against the flat gate list it replaced: a loaded tape
    # flattens to the circuit's table, and the referee reads both texts
    circuits = _pinned_circuits()
    circuits["sway3x3h2 inverted"] = cq.invert(circuits["sway3x3h2"])
    for name, c in circuits.items():
        back = cq.loads(cq.dumps(c))
        assert back.gates == c.gates, name
        assert flat_dumps(back) == flat_dumps(c), name
        assert loads_json(cq.dumps(c)).gates == c.gates, name
        assert loads_json(flat_dumps(c)).gates == c.gates, name


# ---------------------------------------------------------------------------
# the real emitters on the per-gate reference: every memoized call runs
# inline on global qubits there

@pytest.mark.parametrize("make", ["builder_scan", "builder_blocked"])
def test_rank_select_emitters_match_reference(make, monkeypatch):
    # 64 and 100 end in a full and in a partial run of scan cells
    sizes = list(range(1, 21)) + [33, 64, 100]
    built = {n: getattr(rs, make)(n) for n in sizes}
    tallies = {n: getattr(rs, make)(n, record=False).report() for n in sizes}
    monkeypatch.setattr(rs, "Builder", ReferenceBuilder)
    for n in sizes:
        ref = getattr(rs, make)(n)
        want = ref.finish()
        c = built[n].finish()
        assert c.gates == want.gates, n
        assert built[n].report() == tallies[n] == ref.report(), n


ORACLES = {
    "sway3x3h2": (dm.sway_spec(dm.SwayConfig(3, 2)), {}),
    "sway2x2h2arms": (dm.sway_spec(dm.SwayConfig(2, 2)),
                      {"arms": 2, "first_moves": [0, 3]}),
    "sir2x2h2": (dm.sir_spec(dm.SirConfig(2, 2, 1)), {}),
}


def _counts(oc):
    return oc.report, oc.prep_gates, oc.trans_gates, oc.eval_gates


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_compose_matches_reference(name, monkeypatch):
    spec, kw = ORACLES[name]
    got = orc.compose(spec, **kw)
    tally = orc.compose(spec, record=False, **kw)
    monkeypatch.setattr(orc, "Builder", ReferenceBuilder)
    ref = orc.compose(spec, **kw)
    assert got.circuit.gates == ref.circuit.gates
    assert _counts(got) == _counts(tally) == _counts(ref)


# ---------------------------------------------------------------------------
# structure: the op count follows the repeated structure, not N

def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_compose_records_one_selector_pass(monkeypatch):
    calls = _counting(monkeypatch, orc, "scan_fragment")
    oc = orc.compose(dm.sway_spec(dm.SwayConfig(3, 2)), record=False)
    assert oc.passes * oc.layout.horizon == 4
    assert len(calls) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12, 20, 33, 100])
def test_scan_records_at_most_two_clear_runs(n, monkeypatch):
    calls = _counting(monkeypatch, rs, "_clear_run")
    rs.builder_scan(n, record=False)
    w = rs.width_for(n)
    assert len(calls) == (1 if n % w == 0 or n < w else 2)


def test_scan_replays_aligned_runs(monkeypatch):
    top = []
    real = cq.Builder._apply

    def counting(self, frag, qmap, reverse):
        if not self._fragment:
            top.append(frag)
        return real(self, frag, qmap, reverse)

    monkeypatch.setattr(cq.Builder, "_apply", counting)
    cells = _counting(monkeypatch, rs, "_scan_cell")
    n = 1024
    b = rs.builder_scan(n, record=False)
    w = rs.width_for(n)
    run = 1 << (w.bit_length() - 1)
    assert run == 8
    # the runs, the clear runs and the sentinel preload
    assert len(top) <= -(-n // run) + -(-n // w) + 2
    assert len(cells) <= w + 1
    assert b.report() == PINNED_REPORTS["scan1024"]


def test_tally_builds_never_flatten_a_table(monkeypatch):
    def concat(tables):
        raise AssertionError("a tally-mode build flattened a table")

    monkeypatch.setattr(cq.GateTable, "concat", staticmethod(concat))
    rs.builder_scan(100, record=False).report()
    rs.builder_blocked(100, record=False).report()
    orc.compose(dm.sway_spec(dm.SwayConfig(3, 2)), record=False)
    orc.compose(dm.sir_spec(dm.SirConfig(2, 2, 1)), record=False)


def test_compose_and_branchwise_check_never_flatten(monkeypatch):
    calls = []
    real = cq._flatten

    def counting(tape):
        calls.append(len(tape))
        return real(tape)

    monkeypatch.setattr(cq, "_flatten", counting)
    for spec, board in ((dm.sway_spec(dm.SwayConfig(3, 2)), 0),
                        (dm.sir_spec(dm.SirConfig(3, 2, 2)),
                         dm.parse_board("SSS\nSIS\nSSS", "sir"))):
        oc = orc.compose(spec)
        assert orc.branchwise_check(spec, 50, board, oracle=oc).passed
        assert check_bijective(oc.circuit, samples=64).passed
    assert calls == []
    # the flat table is built on first read, and then kept
    table = oc.circuit.gates
    flattened = len(calls)
    assert flattened and oc.circuit.gates is table
    assert len(calls) == flattened


_layer_value = st.one_of(st.just(cq._NO_CHAIN), st.integers(0, 6))


@st.composite
def _table_and_layers(draw):
    n = draw(st.integers(1, 6))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        qs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                           unique=True))
        nt = draw(st.integers(1, len(qs)))
        gates.append(([(q, draw(st.booleans())) for q in qs[nt:]], qs[:nt]))
    k = draw(st.integers(2, 5))
    values = draw(st.lists(_layer_value, min_size=n * k, max_size=n * k))
    return (from_gates(gates),
            np.array(values, dtype=np.int32).reshape(n, k))


@settings(max_examples=200, deadline=None)
@given(_table_and_layers())
def test_layer_columns_are_independent_runs(case):
    table, layers = case
    gates = qubit_lists(table)
    start = layers.copy()
    want = np.hstack([np.stack(cq.layer(gates, list(layers[:, [j]])))
                      for j in range(layers.shape[1])])
    # the rows are views of one array, which no gate writes in place
    np.testing.assert_array_equal(np.stack(cq.layer(gates, list(layers))),
                                  want)
    np.testing.assert_array_equal(layers, start)
    # the scalar sweep of a list column agrees with the numpy rows
    for j in range(layers.shape[1]):
        assert cq.layer(gates, layers[:, j].tolist()) == want[:, j].tolist()
    # and the 2-D float form agrees, entries below 0 reading as -inf
    floats = np.where(start < 0, -np.inf, start.astype(float))
    np.testing.assert_array_equal(reference_layer(gates, floats),
                                  np.where(want < 0, -np.inf, want))


# ---------------------------------------------------------------------------
# the builder's chunk check against GateTable.validate

@st.composite
def _chunks(draw):
    """A first gate number, a qubit count and a chunk of gates in the
    builder's form (controls before targets): valid ones, and ones with any
    mix of gates without targets, qubits out of range, duplicate qubits and
    controls that are also targets."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        qubit = st.integers(-1, n)
        gates = draw(st.lists(st.tuples(
            st.lists(st.tuples(qubit, st.booleans()), max_size=3),
            st.lists(qubit, max_size=3)), min_size=1, max_size=6))
    else:
        gates = []
        for _ in range(draw(st.integers(1, 6))):
            qs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                               unique=True))
            nt = draw(st.integers(1, len(qs)))
            gates.append(([(q, draw(st.booleans())) for q in qs[nt:]],
                          qs[:nt]))
    return draw(st.integers(0, 20)), n, gates


def _error(f):
    try:
        f()
    except CircuitError as err:
        return str(err)
    return None


@settings(max_examples=400, deadline=None)
@given(_chunks())
def test_chunk_check_matches_validate(case):
    first, n, gates = case
    table = from_gates(gates)
    want = _error(lambda: table.validate(n, first))
    lists = table.ptr.tolist(), table.qubit.tolist(), table.kind.tolist()
    assert cq._chunk_is_valid(*lists, n) == (want is None)
    # through the builder: the chunk flushed after `first` valid gates
    b = cq.Builder(record=False)
    b.add_register("q", n, "ancilla")
    for _ in range(first):
        b.gate((), (0,))
    assert b.gate_count == first
    for controls, targets in gates:
        b.gate(controls, targets)
    assert _error(b.report) == want


# ---------------------------------------------------------------------------
# differential: random programs on both builders

N_QUBITS = 8


def _ladder(b, a, c):
    for x, y in zip(a, a[1:]):
        b.cx(x, y)
    for x, y in zip(a, c):
        if x != y:
            b.gate([(x, False)], (y,))


def _guarded(b, a, c, ctrl, *, play):
    # nested replays, a capture played forwards (play bit 0) and backwards
    # (bit 1) around the guarded gates, a reversed emitter
    with b.capture() as ops:
        b.call(_ladder, a, c)
    if play & 1:
        b.emit(ops)
    held = {q for q, _ in ctrl}
    for y in c:
        if y not in held:
            b.gate(list(ctrl), (y,))
    if play & 2:
        b.emit_inverse(ops)
    b.emit_reversed(_ladder, c, a)
    b.call(_ladder, c, a)


def _constant(b, a, *, k):
    for i, x in enumerate(a):
        if (k >> i) & 1:
            b.gate((), (x,))
        elif x != a[0]:
            b.cx(a[0], x)


EMITTERS = {"ladder": (_ladder, 2), "guarded": (_guarded, 3),
            "constant": (_constant, 1)}

_reg = st.lists(st.integers(0, N_QUBITS - 1), min_size=1, max_size=4,
                unique=True)


@st.composite
def _controls(draw):
    qs = draw(st.lists(st.integers(0, N_QUBITS - 1), max_size=3, unique=True))
    return [(q, draw(st.booleans())) for q in qs]


@st.composite
def _op(draw, depth):
    kinds = ["gate", "call"] + (["capture", "reversed"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "gate":
        qs = draw(st.lists(st.integers(0, N_QUBITS - 1), min_size=1,
                           max_size=4, unique=True))
        nt = draw(st.integers(1, len(qs)))
        return ("gate", [(q, draw(st.booleans())) for q in qs[nt:]], qs[:nt])
    if kind == "call":
        name = draw(st.sampled_from(sorted(EMITTERS)))
        nregs = EMITTERS[name][1]
        args = [draw(_reg) for _ in range(nregs)]
        if name == "guarded":
            args[2] = draw(_controls())
        consts = ({"k": draw(st.integers(0, 15))} if name == "constant"
                  else {"play": draw(st.integers(0, 3))} if name == "guarded"
                  else {})
        # replays: the same argument shape under qubit relabellings
        perms = [draw(st.permutations(range(N_QUBITS)))
                 for _ in range(draw(st.integers(0, 2)))]
        return ("call", name, args, consts, perms)
    body = draw(st.lists(_op(depth - 1), max_size=4))
    if kind == "capture":
        # played forwards, backwards, both or neither
        return ("capture", body, draw(st.booleans()), draw(st.booleans()))
    return ("reversed", body)


def _relabel(arg, perm):
    return [(perm[c[0]], c[1]) if isinstance(c, tuple) else perm[c]
            for c in arg]


def _run(b, ops):
    for op in ops:
        if op[0] == "gate":
            b.gate(op[1], op[2])
        elif op[0] == "call":
            _, name, args, consts, perms = op
            emitter = EMITTERS[name][0]
            b.call(emitter, *args, **consts)
            for perm in perms:
                b.call(emitter, *[_relabel(a, perm) for a in args], **consts)
        elif op[0] == "capture":
            with b.capture() as ops:
                _run(b, op[1])
            if op[2]:
                b.emit(ops)
            if op[3]:
                b.emit_inverse(ops)
        else:
            b.emit_reversed(_run, op[1])


def _build(cls, record, ops):
    b = cls(record=record)
    b.add_register("q", N_QUBITS, "ancilla")
    _run(b, ops)
    return b


@settings(max_examples=300, deadline=None)
@given(st.lists(_op(2), min_size=1, max_size=6))
def test_builder_matches_reference(ops):
    ref = _build(ReferenceBuilder, True, ops)
    want = ref.finish()
    for record in (True, False):
        b = _build(cq.Builder, record, ops)
        assert b.report() == ref.report()
        if record:
            c = b.finish()
            assert c.gates == want.gates
            assert cq.cost(c) == reference_cost(want) == ref.report()
            assert cq.cost(cq.loads(cq.dumps(c))) == ref.report()


# ---------------------------------------------------------------------------
# depth on first read: a builder hands out deferred depths, walked from its
# op tape when one is first read

@settings(max_examples=150, deadline=None)
@given(st.lists(_op(2), max_size=4), st.lists(_op(2), min_size=1, max_size=4),
       st.booleans())
def test_a_mid_build_report_keeps_its_depth(first, then, early_first):
    ref = _build(ReferenceBuilder, True, first)
    want_early = ref.report()
    _run(ref, then)
    want_late = ref.report()
    got = {}
    for record in (True, False):
        b = _build(cq.Builder, record, first)
        early = b.report()
        mid = b.finish() if record else None
        _run(b, then)
        late = b.report()
        # either read first; the other is still right afterwards
        if early_first:
            assert early.depth == want_early.depth
        assert late == want_late
        assert early == want_early
        if record:
            assert cq.cost(mid).depth == want_early.depth
            assert cq.cost(b.finish()) == want_late
        got[record] = (early, late)
    assert got[True] == got[False]


def _top_level_walks(monkeypatch) -> list:
    """The lengths of the walks of an op tape's top level (one column of int
    layers), not of a fragment's chains."""
    walks = []
    real = cq._walk

    def counting(tape, length, layers):
        if layers and not isinstance(layers[0], np.ndarray):
            walks.append(length)
        return real(tape, length, layers)

    monkeypatch.setattr(cq, "_walk", counting)
    return walks


def test_one_tape_walk_serves_report_finish_and_cost(monkeypatch):
    walks = _top_level_walks(monkeypatch)
    oc = orc.compose(dm.sir_spec(dm.SirConfig(3, 2, 1)))
    assert walks == []
    depth = oc.report.depth
    assert len(walks) == 1
    assert cq.cost(oc.circuit).depth == cq.cost(cq.invert(oc.circuit)).depth
    assert len(walks) == 1
    assert depth == reference_cost(oc.circuit).depth
    # finish, then report: the same tape, walked once
    b = rs.builder_scan(40)
    c = b.finish()
    assert cq.cost(c).depth == b.report().depth == reference_cost(c).depth
    assert len(walks) == 2


@pytest.mark.parametrize("early_first", [True, False])
def test_reports_at_two_tape_lengths_each_walk_their_own(monkeypatch,
                                                         early_first):
    walks = _top_level_walks(monkeypatch)
    b = cq.Builder(record=False)
    q = b.add_register("q", 3, "ancilla")
    b.cx(q[0], q[1])
    early = b.report()
    b.cx(q[1], q[2])
    late = b.report()
    if early_first:
        assert (early.depth, late.depth) == (1, 2)
        assert walks == [1, 2]
    else:
        assert (late.depth, early.depth) == (2, 1)
        assert walks == [2, 1]
    assert (early.depth, late.depth) == (1, 2) and len(walks) == 2


def test_a_loaded_circuits_depth_is_one_walk_on_first_read(monkeypatch):
    oc = orc.compose(dm.sir_spec(dm.SirConfig(3, 2, 1)))
    want = reference_cost(oc.circuit).depth
    walks = _top_level_walks(monkeypatch)
    c = cq.loads(cq.dumps(oc.circuit))
    rep = cq.cost(c)
    inverse = cq.cost(cq.invert(c))
    assert walks == []
    # the loaded tape is the built one, op for op
    ops = len(oc.circuit._tape)
    assert len(c._tape) == ops
    assert rep.depth == want and walks == [ops]
    assert inverse.depth == cq.cost(c).depth == want and walks == [ops]


def test_a_build_whose_depth_is_never_read_builds_no_chains(monkeypatch):
    def chains(frag):
        raise AssertionError("a fragment built its chain matrix")

    monkeypatch.setattr(cq._Fragment, "chains", property(chains))
    for record in (False, True):
        for n in (40, 100):
            b = rs.builder_scan(n, record=record)
            rep = rs.builder_blocked(n, record=record).report()
            assert rep.gate_count > 0 and b.report().qubit_count > n
        for spec in (dm.sway_spec(dm.SwayConfig(3, 2)),
                     dm.sir_spec(dm.SirConfig(3, 2, 1))):
            oc = orc.compose(spec, record=record)
            assert oc.report.gate_count > 0
            if record:
                cq.dumps(oc.circuit)
    with pytest.raises(AssertionError, match="chain matrix"):
        oc.report.depth


@pytest.mark.parametrize("read_first", [True, False])
def test_inverted_depth_before_or_after_the_original_is_read(read_first):
    oc = orc.compose(dm.sway_spec(dm.SwayConfig(2, 2)), arms=2,
                     first_moves=[0, 3])
    want = reference_cost(oc.circuit).depth
    if read_first:
        assert cq.cost(oc.circuit).depth == want
    inverse = cq.invert(oc.circuit)
    assert cq.cost(inverse).depth == want
    assert reference_cost(inverse).depth == want
    assert oc.report.depth == cq.cost(oc.circuit).depth == want


@settings(max_examples=150, deadline=None)
@given(st.lists(_op(2), min_size=1, max_size=6))
def test_a_fragments_support_is_its_tables_qubits(ops):
    # aliased arguments and nested replays come from the programs' calls
    b = _build(cq.Builder, False, ops)
    for frag in b._memo.values():
        support = frag.support()
        np.testing.assert_array_equal(
            support, cq._distinct(frag.table(False).qubit))


_FORMS = {"forwards": lambda f: f.table(False),
          "backwards": lambda f: f.table(True),
          "ops": lambda f: f.gate_ops(),
          "chains": lambda f: f.chains,
          "cone forwards": lambda f: f.cone(False),
          "cone backwards": lambda f: f.cone(True),
          "support": lambda f: f.support()}


def _same_form(a, b) -> bool:
    if isinstance(a, tuple):                # the chains, both directions
        return all(np.array_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@settings(max_examples=150, deadline=None)
@given(st.lists(_op(2), min_size=1, max_size=6),
       st.permutations(sorted(_FORMS)), st.booleans())
def test_a_fragments_forms_agree_whatever_order_they_are_read_in(
        ops, order, inner_first):
    # a fragment keeps its source, and derives and keeps every other form
    want = {key: {form: read(frag) for form, read in _FORMS.items()}
            for key, frag in _build(cq.Builder, False, ops)._memo.items()}
    memo = _build(cq.Builder, False, ops)._memo
    for key in (list(memo) if inner_first else list(memo)[::-1]):
        frag = memo[key]
        for form in order:
            got = _FORMS[form](frag)
            assert _FORMS[form](frag) is got
            assert _same_form(got, want[key][form]), form
    for frag in memo.values():
        assert frag._tape is not None
        assert all(sub._lists is not None
                   for sub, qmap, _ in frag._tape if qmap is None)


def test_cost_report_is_a_frozen_value():
    rep = CostReport(5, 3, 4, 2, 1)
    assert ((rep.gate_count, rep.depth, rep.qubit_count, rep.max_fan_in,
             rep.max_live_ancilla) == (5, 3, 4, 2, 1))
    assert rep == CostReport(5, 3, 4, 2, 1)
    assert hash(rep) == hash(CostReport(5, 3, 4, 2, 1))
    assert rep != CostReport(5, 4, 4, 2, 1) and rep != (5, 3, 4, 2, 1)
    assert repr(rep) == ("CostReport(gate_count=5, depth=3, qubit_count=4, "
                         "max_fan_in=2, max_live_ancilla=1)")
    # a builder's report, its depth deferred, is the same value
    b = cq.Builder(record=False)
    q = b.add_register("q", 4, "ancilla")
    b.acquire(1)
    b.gate((), (q[0],))
    b.cx(q[0], q[1])
    b.gate([q[1]], (q[2], q[3]))
    built = b.report()
    assert hash(built) == hash(CostReport(3, 3, 4, 3, 1))
    assert built == CostReport(3, 3, 4, 3, 1)
    assert repr(built) == ("CostReport(gate_count=3, depth=3, qubit_count=4, "
                           "max_fan_in=3, max_live_ancilla=1)")
    for r in (rep, built):
        for name in ("gate_count", "depth", "qubit_count", "max_fan_in",
                     "max_live_ancilla", "other"):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
        with pytest.raises(AttributeError):
            del r.depth
    assert built.depth == 3


class _Watched(cq._Fragment):
    """A fragment that takes weak references (``_Fragment`` has slots)."""


def test_reading_the_depth_lets_the_tape_go(monkeypatch):
    chunks = []
    real = cq._Fragment.chunk.__func__

    def chunk(ptr, qubit, kind):
        frag = real(_Watched, ptr, qubit, kind)
        chunks.append(weakref.ref(frag))
        return frag

    monkeypatch.setattr(cq._Fragment, "chunk", staticmethod(chunk))
    for record in (False, True):
        chunks.clear()
        oc = orc.compose(dm.sway_spec(dm.SwayConfig(3, 2)), record=record)
        # the deferred depth holds the tape until it is read
        assert any(ref() is not None for ref in chunks)
        oc.report.depth
        if record:
            # a built circuit is its tape: it holds every chunk until it
            # goes
            assert all(ref() is not None for ref in chunks)
            oc = None
        assert all(ref() is None for ref in chunks)
    chunks.clear()
    rep = rs.builder_blocked(30, record=False).report()
    assert any(ref() is not None for ref in chunks)
    rep.depth
    assert all(ref() is None for ref in chunks)


def _wide(b, a):
    # replays, forwards and reversed, across every column of a recording
    for i in range(len(a) - 3):
        b.call(_ladder, a[i:i + 2], a[i + 2:i + 4])
    with b.capture() as ops:
        for i in range(0, len(a) - 9, 5):
            b.call(_ladder, a[i + 9:i + 6:-1], a[i:i + 3])
    b.emit_inverse(ops)
    _ladder(b, a[::7], a[1::7])


def test_recorded_chains_match_layering_the_fragments_gates():
    k = 150                       # wider than one max-plus column slice
    b = cq.Builder()
    q = b.add_register("q", k, "ancilla")
    b.call(_wide, q)
    (frag,) = [f for key, f in b._memo.items() if key[0] is _wide]
    identity = np.full((k, k), cq._NO_CHAIN, dtype=np.int32)
    np.fill_diagonal(identity, 0)
    want = np.stack(cq.layer(qubit_lists(frag.table(False)),
                             list(identity))).T
    assert frag.chains[0].dtype == np.int32
    np.testing.assert_array_equal(frag.chains[0],
                                  np.where(want < 0, cq._NO_CHAIN, want))
    np.testing.assert_array_equal(frag.support(), np.arange(k))


def _xs(b, a, *, count):
    for _ in range(count):
        b.gate((), (a,))


def test_a_recording_past_the_chain_gate_limit_is_refused(monkeypatch):
    # the int32 chains are exact only below the limit
    monkeypatch.setattr(cq, "_CHAIN_GATE_LIMIT", 5)
    b = cq.Builder()
    q = b.add_register("q", 1, "ancilla")
    b.call(_xs, q[0], count=4)
    with pytest.raises(CircuitError, match="_xs: a memoized fragment holds "
                                           "at most 4 gates, not 5"):
        b.call(_xs, q[0], count=5)


def _program(b, *qs, ops):
    # fresh gates and replays of _ladder, forwards and reversed, on the
    # local qubits named by ``ops``
    for kind, a, c in ops:
        if kind == "gate":
            b.gate([(qs[x], x % 2 == 0) for x in c], [qs[x] for x in a])
        elif kind == "call":
            b.call(_ladder, [qs[x] for x in a], [qs[x] for x in c])
        else:
            b.emit_reversed(_ladder, [qs[x] for x in a], [qs[x] for x in c])


@st.composite
def _programs(draw):
    k = draw(st.one_of(st.integers(0, 8), st.sampled_from([65, 130])))
    ops = []
    for _ in range(draw(st.integers(0, 12)) if k else 0):
        qs = draw(st.lists(st.integers(0, k - 1), min_size=1,
                           max_size=min(k, 6), unique=True))
        cut = draw(st.integers(1, len(qs)))
        kind = draw(st.sampled_from(["gate", "call", "reversed"]))
        ops.append((kind, tuple(qs[:cut]), tuple(qs[cut:])))
    return k, tuple(ops)


@settings(max_examples=100, deadline=None)
@given(_programs())
def test_recorded_chains_equal_per_column_scalar_sweeps(case):
    k, ops = case
    b = cq.Builder()
    q = b.add_register("q", k + 1, "ancilla")
    b.call(_program, *q[:k], ops=ops)
    (frag,) = [f for key, f in b._memo.items() if key[0] is _program]
    assert frag.chains[0].dtype == np.int32
    assert frag.chains[0].shape == (k, k)
    gates = qubit_lists(frag.table(False))
    for i in range(k):
        sweep = cq.layer(gates, [0.0 if j == i else -np.inf
                                 for j in range(k)])
        got = frag.chains[0][i]
        np.testing.assert_array_equal(np.where(got < 0, -np.inf, got), sweep)
        assert (got[got < 0] == cq._NO_CHAIN).all()
    # the reversed chains read the same gates backwards
    for j in range(k):
        sweep = cq.layer(gates[::-1], [0.0 if i == j else -np.inf
                                       for i in range(k)])
        got = frag.chains[True][j]
        np.testing.assert_array_equal(np.where(got < 0, -np.inf, got), sweep)


# ---------------------------------------------------------------------------
# light cones walk the op tape: a replay through its fragment's cone
# summary, referred to the set walk over the flat table

def _gate_cone(table: cq.GateTable, k: int) -> list[int]:
    """Referee: the cone summary of ``k`` local qubits, gate by gate."""
    rows = [{q} for q in range(k)]
    for controls, targets in gate_list(table):
        dep = set().union(*[rows[q] for q, _ in controls])
        for t in targets:
            rows[t] = rows[t] | dep
    return [sum(1 << i for i in row) for row in rows]


@settings(max_examples=100, deadline=None)
@given(_programs())
def test_cone_summaries_equal_the_gate_by_gate_walk(case):
    k, ops = case
    b = cq.Builder()
    q = b.add_register("q", k + 1, "ancilla")
    b.call(_program, *q[:k], ops=ops)
    for frag in b._memo.values():
        for reverse in (False, True):
            want = _gate_cone(frag.table(reverse), frag.k)
            assert frag.cone(reverse) == want
            assert frag.cone_bits(reverse) == [
                [i for i in range(frag.k) if row >> i & 1] for row in want]


def _one_cx(b, a, t):
    b.cx(a, t)


def _cx_chain(b, a, t, u):
    b.cx(a, t)
    b.cx(t, u)


def test_a_reversed_summary_is_a_walk_of_the_reversed_gates():
    b = cq.Builder()
    q = b.add_register("q", 3, "ancilla")
    b.call(_one_cx, q[0], q[1])
    b.call(_cx_chain, *q)
    one, chain = b._memo.values()
    # a lone CX a -> b: b's exit depends on a's entry either way, so the
    # reversed summary is not the transpose ([0b11, 0b10])
    assert one.cone(False) == one.cone(True) == [0b01, 0b11]
    # a -> t, then t -> u: u depends on a forwards only
    assert chain.cone(False) == [0b001, 0b011, 0b111]
    assert chain.cone(True) == [0b001, 0b011, 0b110]
    # the circuit a -> t, a -> t, t -> u and its inverse
    c = b.finish()
    assert cq.light_cone(c, [2]) == {0, 1, 2}
    assert cq.light_cone(cq.invert(c), [2]) == {1, 2}
    assert cq.light_cone(cq.invert(c), [1]) == {0, 1}


def _assert_cones_match(c):
    """``light_cone`` against the set referee, with every register's
    qubits as the outputs."""
    for r in c.registers:
        outputs = c.register(r.name)
        assert cq.light_cone(c, outputs) == reference_light_cone(c, outputs), \
            r.name


_CONE_SPECS = {"sway": lambda m, h: dm.sway_spec(dm.SwayConfig(m, h)),
               "sir": lambda m, h: dm.sir_spec(dm.SirConfig(m, h, 1))}


@pytest.mark.parametrize("domain,m,h,arms", [
    *[(domain, m, h, 0) for domain in _CONE_SPECS for m in (2, 3)
      for h in (1, 2)],
    ("sway", 2, 2, 2)])
def test_light_cone_of_an_oracle_matches_the_set_referee(domain, m, h, arms):
    c = orc.compose(_CONE_SPECS[domain](m, h), arms=arms,
                    first_moves=[0, 3] if arms else None).circuit
    for variant in (c, cq.invert(c), cq.loads(cq.dumps(c))):
        _assert_cones_match(variant)


@pytest.mark.parametrize("n", [4, 9, 24, 40, 100])
def test_light_cone_of_rank_select_matches_the_set_referee(n):
    # the scan's runs and clear runs replay nested cell, ladder and
    # increment fragments
    for make in (rs.build_scan, rs.build_blocked):
        c = make(n)
        _assert_cones_match(c)
        _assert_cones_match(cq.invert(c))


@settings(max_examples=150, deadline=None)
@given(st.lists(_op(2), min_size=1, max_size=6))
def test_light_cone_of_a_builder_program_matches_the_set_referee(ops):
    c = _build(cq.Builder, True, ops).finish()
    for variant in (c, cq.invert(c)):
        for q in range(N_QUBITS):
            assert (cq.light_cone(variant, [q])
                    == reference_light_cone(variant, [q]))
        _assert_cones_match(variant)


def test_light_cone_of_a_composed_oracle_never_flattens(monkeypatch):
    def flatten(tape):
        raise AssertionError("light_cone flattened a table")

    monkeypatch.setattr(cq, "_flatten", flatten)
    cones = []
    for spec in (dm.sway_spec(dm.SwayConfig(3, 2)),
                 dm.sir_spec(dm.SirConfig(3, 2, 2))):
        c = orc.compose(spec).circuit
        for variant in (c, cq.invert(c)):
            outputs = c.register("payoff")
            cones.append((variant, outputs, cq.light_cone(variant, outputs)))
            assert variant._gates is None
        assert set(c.register("config0")) <= cones[-2][2]
    monkeypatch.undo()
    for variant, outputs, cone in cones:
        assert cone == reference_light_cone(variant, outputs)


def test_replays_reuse_one_fragment():
    b = cq.Builder(record=False)
    q = b.add_register("q", 6, "ancilla")
    for shift in range(3):
        b.call(_ladder, q[shift:shift + 2], q[shift + 2:shift + 4])
    b.call(_ladder, q[:2], q[1:3])          # aliased: its own fragment
    assert len(b._memo) == 2


@pytest.mark.parametrize("record", [True, False])
def test_capture_left_by_an_exception_drops_its_pending_gates(record):
    b = cq.Builder(record=record)
    b.add_register("q", 3, "ancilla")
    b.gate((), (0,))
    with pytest.raises(RuntimeError):
        with b.capture():
            b.cx(0, 1)
            raise RuntimeError("abandoned block")
    b.gate((), (2,))
    assert b.report().gate_count == 2
    if record:
        assert b.finish().gates == from_gates([((), (0,)), ((), (2,))])


def test_memoized_emitter_must_not_touch_liveness():
    def leaky(b, a):
        b.acquire(1)
        b.gate((), (a[0],))

    b = cq.Builder()
    q = b.add_register("q", 2, "ancilla")
    with pytest.raises(CircuitError, match="acquire"):
        b.call(leaky, q)


def test_validation_names_the_gate_and_the_qubit():
    b = cq.Builder()
    b.add_register("q", 3, "ancilla")
    b.gate((), (0,))
    b.gate([(1, True)], (1,))
    with pytest.raises(CircuitError, match="gate 1: controls and targets "
                                           "overlap on qubit 1"):
        b.finish()
    with pytest.raises(CircuitError, match="gate 2: qubit index 7 out of "
                                           "range"):
        make_circuit([RegisterDecl("q", 3, "ancilla")],
                     [Gate((), (0,)), Gate((), (1,)), Gate(((7, True),), (2,))])
    # a replay is checked against the builder's qubits
    b = cq.Builder()
    b.add_register("q", 2, "ancilla")
    with pytest.raises(CircuitError, match=r"_ladder: qubit out of range"):
        b.call(_ladder, (0, 5), ())
    # a gate flushed inside a capture is numbered as if the open captures'
    # ops had been emitted where they opened: 5 gates, then x(0), a 2-gate
    # replay, x(1) and the bad gate 9
    def overlap(b):
        b.gate((), (1,))
        b.gate([(2, True)], (2,))

    def body(b):
        b.gate((), (0,))
        b.call(_ladder, (0, 1, 2), ())
        overlap(b)

    def captured(b):
        with b.capture():
            body(b)

    def nested(b):
        with b.capture():
            b.gate((), (0,))
            with b.capture() as ops:
                b.call(_ladder, (0, 1, 2), ())
            b.emit(ops)                 # held once, by the outer capture
            with b.capture():
                overlap(b)

    for run in (captured, nested, lambda b: b.emit_reversed(body)):
        b = cq.Builder()
        b.add_register("q", 3, "ancilla")
        for _ in range(5):
            b.gate((), (0,))
        with pytest.raises(CircuitError, match="gate 9: controls and targets "
                                               "overlap on qubit 2"):
            run(b)
    # a bad gate inside a fragment names the emitter
    b = cq.Builder()
    q = b.add_register("q", 2, "ancilla")
    with pytest.raises(CircuitError, match=r"_ladder \(local qubits\): "
                       "gate 0: controls and targets overlap on qubit 0"):
        b.call(_ladder, (q[1], q[1]), ())
