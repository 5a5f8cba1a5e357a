"""Test helper: gates as ``(controls, targets)`` pairs, the form that tests
write circuits in and read a circuit's gate table back as, circuits of one
table (validated or not), the referee loops that circuit analyses
replaced, the flat gate-list text that ``dumps`` wrote before it wrote the
op tape, a ``json.loads`` reader of the tape text, and the layout measures
that only the lower-bound tests read (cut crossings, register-local
span)."""

import json
from typing import NamedTuple

import numpy as np

from qrollout.circuit import (NEG, POS, TGT, Circuit, CircuitError,
                              GateTable, RegisterDecl)
from qrollout.circuit import _Fragment, _gate_positions


class Gate(NamedTuple):
    """A multi-controlled X: ``controls`` are ``(qubit, polarity)`` pairs."""

    controls: tuple
    targets: tuple


def from_gates(gates) -> GateTable:
    """The table of ``(controls, targets)`` pairs, a control being a
    ``(qubit, polarity)`` pair."""
    ptr, qubit, kind = [0], [], []
    for controls, targets in gates:
        for q, pol in controls:
            qubit.append(q)
            kind.append(POS if pol else NEG)
        qubit.extend(targets)
        kind.extend([TGT] * len(targets))
        ptr.append(len(qubit))
    return GateTable(ptr, qubit, kind)


def qubit_lists(table: GateTable) -> list[list[int]]:
    """Each gate's qubits as a Python list, in gate order."""
    qubit, ptr = table.qubit.tolist(), table.ptr.tolist()
    return [qubit[a:z] for a, z in zip(ptr, ptr[1:])]


def _chunk_tape(table: GateTable) -> list:
    """The op tape of one chunk, made from a table (no op for no gates)."""
    if not len(table):
        return []
    return [(_Fragment.chunk(table.ptr.tolist(), table.qubit.tolist(),
                             table.kind.tolist()), None, False)]


def circuit_of(registers, table: GateTable, layout=None,
               max_live_ancilla=0) -> Circuit:
    """The circuit of one chunk, ``table``, validated (vectorised) on the
    registers' qubits."""
    registers = list(registers)
    table.validate(sum(r.width for r in registers))
    return Circuit(registers, _chunk_tape(table), layout, max_live_ancilla)


def make_circuit(registers, gates, layout=None, max_live_ancilla=0):
    """A validated circuit of ``(controls, targets)`` pairs."""
    return circuit_of(registers, from_gates(gates), layout, max_live_ancilla)


def unchecked_circuit(registers, table: GateTable) -> Circuit:
    """A circuit of one chunk, ``table``, that is not validated: a test's
    way to build one whose gate takes a target as a control."""
    return Circuit(registers, _chunk_tape(table))


# the JSON text before each table entry, by code: inside a gate, after a
# NEG or POS control (0, 1; +2 before the first target) or a target (4); at
# a gate start, after the previous gate (5) or at the first gate (7), +1 for
# a gate without controls
_SEPS = (
    ",false],[", ",true],[", ',false]],"targets":[', ',true]],"targets":[',
    ",", ']},{"controls":[[', ']},{"controls":[],"targets":[',
    '{"controls":[[', '{"controls":[],"targets":[')


def flat_dumps(c: Circuit) -> str:
    """The flat text that ``dumps`` wrote before it wrote the op tape:
    registers, every gate of ``c.gates`` with its polarities, layout.  The
    gate list is joined once from pre-joined (separator, qubit) strings,
    one gathered per table entry."""
    t = c.gates
    gates = "[]"
    if len(t):
        n = c.total_qubits
        target = t.kind == TGT
        code = np.empty(len(t.kind), dtype=np.int64)
        code[1:] = np.where(target[:-1], 4, t.kind[:-1] + 2 * target[1:])
        code[t.ptr[:-1]] = 5 + target[t.ptr[:-1]]
        code[0] += 2
        names = [str(q) for q in range(n)]
        pieces = np.array([sep + q for sep in _SEPS for q in names],
                          dtype=object)
        code *= n
        code += t.qubit
        gates = "[" + "".join(pieces[code].tolist()) + "]}]"
    registers = json.dumps([{"name": r.name, "width": r.width, "role": r.role}
                            for r in c.registers], separators=(",", ":"))
    return (f'{{"registers":{registers},"gates":{gates},'
            f'"layout":[{",".join(map(str, c.layout))}],'
            f'"max_live_ancilla":{c.max_live_ancilla}}}')


def _field(doc, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise CircuitError(f"{where}missing field {key!r}")
    return doc[key]


def _json_gates(gates):
    """``(controls, targets)`` of each gate of a flat JSON gate list,
    rejecting a missing field, a qubit that is not an int, and a control
    that is not a ``[qubit, polarity]`` pair."""
    if not isinstance(gates, list):
        raise CircuitError("field 'gates' is not a list")
    for g, gate in enumerate(gates):
        controls = _field(gate, "controls", f"gate {g}: ")
        targets = _field(gate, "targets", f"gate {g}: ")
        for name, value in (("controls", controls), ("targets", targets)):
            if not isinstance(value, list):
                raise CircuitError(f"gate {g}: field {name!r} is not a list")
        for pair in controls:
            if not (isinstance(pair, list) and len(pair) == 2
                    and type(pair[0]) is int and type(pair[1]) is bool):
                raise CircuitError(f"gate {g}: field 'controls': {pair!r} is "
                                   "not an [int, bool] pair")
        for q in targets:
            if type(q) is not int:
                raise CircuitError(f"gate {g}: field 'targets': qubit {q!r} "
                                   "is not an int")
        yield controls, targets


def _tape_gates(fragments, ops, limit: int) -> list:
    """The gates of an op list of a tape text, in the order they are
    applied, each replay's gates renamed through its map; an op may name
    only one of the first ``limit`` fragments."""
    gates = []
    for i, qmap, reverse in ops:
        if not 0 <= i < limit:
            raise CircuitError(f"fragment {i} is not listed before its op")
        entry = fragments[i]
        if "k" in entry:
            sub = [Gate(tuple((qmap[q], p) for q, p in g.controls),
                        tuple(qmap[q] for q in g.targets))
                   for g in _tape_gates(fragments, entry["ops"], i)]
        else:
            sub = gate_list(GateTable(entry["ptr"], entry["qubit"],
                                      entry["kind"]))
        gates += sub[::-1] if reverse else sub
    return gates


def loads_json(text: str) -> Circuit:
    """Referee: any JSON text of the schema of ``dumps`` or of
    :func:`flat_dumps`, read by ``json.loads`` (whitespace, key order and
    escapes are free), its gates (an op tape's flattened gate by gate)
    one table, which is validated."""
    doc = json.loads(text)
    regs = [RegisterDecl(r["name"], r["width"], r["role"])
            for r in _field(doc, "registers", "")]
    if "fragments" in doc:
        fragments = doc["fragments"]
        gates = _tape_gates(fragments, doc["ops"], len(fragments))
    else:
        gates = _json_gates(_field(doc, "gates", ""))
    return circuit_of(regs, from_gates(gates), doc.get("layout"),
                      doc.get("max_live_ancilla", 0))


def gate_list(table: GateTable) -> list[Gate]:
    """The table's gates in order, each as a :class:`Gate`."""
    qubit, kind = table.qubit.tolist(), table.kind.tolist()
    ptr, tgt = table.bounds()
    return [Gate(tuple((qubit[e], kind[e] == POS) for e in range(a, m)),
                 tuple(qubit[m:z]))
            for a, m, z in zip(ptr, tgt, ptr[1:])]


def reference_light_cone(c: Circuit, outputs) -> set[int]:
    """Referee: the set-based backward walk that ``light_cone`` replaced."""
    cone = set(outputs)
    for q in cone:
        if not 0 <= q < c.total_qubits:
            raise CircuitError(f"output qubit {q} out of range")
    qubit = c.gates.qubit.tolist()
    ptr, tgt = c.gates.bounds()
    for g in range(len(c.gates) - 1, -1, -1):
        if not cone.isdisjoint(qubit[tgt[g]:ptr[g + 1]]):
            cone.update(qubit[ptr[g]:tgt[g]])
    return cone


def crossing_count(c: Circuit, t: int) -> int:
    """Number of gates with support on both sides of cut position ``t``.

    The cut separates layout positions [0, t) from [t, n).
    """
    if not 1 <= t <= c.total_qubits - 1:
        raise CircuitError(f"cut position {t} out of range")
    lo, hi = _gate_positions(c)
    return int(((lo < t) & (t <= hi)).sum())


def register_local_span(c: Circuit, register: str) -> int:
    """Largest per-gate span restricted to one register's qubits.

    Gates touching fewer than two qubits of the register contribute 0.
    """
    inside = set(c.register(register))
    pos_of = {q: i for i, q in enumerate(c.layout)}
    span = 0
    for controls, targets in gate_list(c.gates):
        pos = [pos_of[q] for q in [q for q, _ in controls] + list(targets)
               if q in inside]
        if pos:
            span = max(span, max(pos) - min(pos))
    return span


def reference_layer(gates, layers: np.ndarray) -> np.ndarray:
    """Referee: the 2-D float form of ``layer`` that its int32 rows
    replaced.  ``layers`` has one column per origin (-inf without a chain),
    and each gate updates its rows, in place, with one ``max(axis=0) + 1``.
    """
    for s in gates:
        layers[s] = layers[s].max(axis=0) + 1
    return layers
