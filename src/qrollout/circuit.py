"""Reversible-circuit intermediate representation and its analyses.

A circuit is an ordered sequence of multi-controlled multi-target X gates
over named registers.  Controls carry a polarity (positive fires on |1>,
negative on |0>); a gate flips every target iff all controls are satisfied.
Every gate is self-inverse, so reversing the gate order inverts the circuit.

A circuit is its op tape: chunks of fresh gates and replays of memoized
fragments, each a fragment, a qubit map (``None`` for a chunk) and a
direction.  A circuit from ``Builder.finish`` holds its builder's tape, and
a circuit from ``loads`` the tape its text lists.  ``dumps`` writes that
tape as compact JSON, each distinct fragment once, and ``loads`` reads back
exactly that text and refuses any other (see :func:`loads`).  A circuit
keeps its text once made, and ``==`` compares texts.  The gate count,
fan-in and depth of :func:`cost`, the backward light cone, the span
profile, inversion and emulation walk the tape.  ``Circuit.gates`` is the
flat :class:`GateTable` of the tape (struct-of-arrays CSR arrays, never
mutated once built), built the first time it is read and then kept.

Each fragment keeps one source form, the one it was made in: a chunk its
entry lists ``(ptr, qubit, kind)``, a memoized fragment its recorded (or
read) op tape.  Every other form (its gate table either way, the gate ops
the emulator runs, its support, a memoized fragment's gate chains and cone
summaries) is derived from the source on first use and kept, so a build
that is only emulated or light-coned never flattens a table, and a build
whose depth is never read builds no chains.

The :class:`Builder` emits chunks, checked in Python when flushed, and
replays (``Builder.call``) of fragments recorded once on local qubits.  It
tallies gate counts and fan-in as ops are emitted.  Every depth is one
deferred walk of an op tape, taken when it is first read; a replay's depth
effect is the int32 max-plus matrix of its fragment's gate chains.  A
memoized emitter must be a pure function of its registers and constants,
and must not call ``acquire`` or ``release``.  A ``Builder.capture()``
block holds its ops back, and ``emit``/``emit_inverse`` play them forwards
or backwards: compute, use, uncompute.
"""
from __future__ import annotations

import json
import re
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable

import numpy as np

ROLES = (
    "config", "selector", "dice", "ancilla", "payoff",
    "arm", "mask", "rank", "output",
)

# table entry kinds
NEG, POS, TGT = 0, 1, 2

# gate op kinds, as :meth:`_Fragment.gate_ops` compiles them: one positive
# control, two positive controls, a positive and a negative control (each
# with one target), and any other gate
OP_CX, OP_CCX, OP_PNX, OP_MCX = 0, 1, 2, 3


class CircuitError(ValueError):
    """Raised on malformed registers, gates, or analysis arguments."""


@dataclass(frozen=True)
class RegisterDecl:
    name: str
    width: int
    role: str

    def __post_init__(self):
        if self.width < 1:
            raise CircuitError(f"register {self.name!r}: width must be >= 1")
        if self.role not in ROLES:
            raise CircuitError(f"register {self.name!r}: unknown role {self.role!r}")


class CostReport:
    """Gate count, depth, qubit count, fan-in and peak live ancilla;
    immutable.  A report from a builder or :func:`cost` holds a deferred
    depth, which the first read of ``depth`` resolves and keeps; equality,
    hash and repr see the resolved value."""

    __slots__ = ("gate_count", "_depth", "qubit_count", "max_fan_in",
                 "max_live_ancilla")

    def __init__(self, gate_count: int, depth, qubit_count: int,
                 max_fan_in: int, max_live_ancilla: int):
        for name, value in zip(self.__slots__, (gate_count, depth, qubit_count,
                                                max_fan_in, max_live_ancilla)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def depth(self) -> int:
        if isinstance(self._depth, _Depth):
            object.__setattr__(self, "_depth", self._depth.resolve())
        return self._depth

    def _fields(self) -> tuple:
        return (self.gate_count, self.depth, self.qubit_count,
                self.max_fan_in, self.max_live_ancilla)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return ("CostReport(gate_count={!r}, depth={!r}, qubit_count={!r}, "
                "max_fan_in={!r}, max_live_ancilla={!r})".format(
                    *self._fields()))


# ---------------------------------------------------------------------------
# gate table

class GateTable:
    """Gates as CSR arrays: gate ``g`` owns entries ``ptr[g]:ptr[g+1]`` of
    ``qubit`` (int32) and ``kind`` (int8: NEG or POS control, TGT target),
    its controls first, then its targets, each in gate order.  Tables are
    never mutated once built."""

    __slots__ = ("ptr", "qubit", "kind", "_bounds")

    def __init__(self, ptr, qubit, kind):
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.qubit = np.asarray(qubit, dtype=np.int32)
        self.kind = np.asarray(kind, dtype=np.int8)
        self._bounds = None

    @staticmethod
    def concat(tables: Sequence["GateTable"]) -> "GateTable":
        if not tables:
            return GateTable([0], [], [])
        if len(tables) == 1:
            return tables[0]
        lens = np.concatenate([t.lens() for t in tables])
        ptr = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=ptr[1:])
        return GateTable(ptr, np.concatenate([t.qubit for t in tables]),
                         np.concatenate([t.kind for t in tables]))

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def lens(self) -> np.ndarray:
        """Entries per gate."""
        return self.ptr[1:] - self.ptr[:-1]

    def remap(self, qmap: np.ndarray) -> "GateTable":
        """The same gates with qubit ``q`` renamed ``qmap[q]``."""
        return GateTable(self.ptr, qmap[self.qubit], self.kind)

    def reversed(self) -> "GateTable":
        """The gates in reverse order, each gate's entries unchanged."""
        lens = self.lens()[::-1]
        ptr = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=ptr[1:])
        idx = (np.repeat(self.ptr[:-1][::-1] - ptr[:-1], lens)
               + np.arange(ptr[-1]))
        return GateTable(ptr, self.qubit[idx], self.kind[idx])

    def __eq__(self, other):
        return (isinstance(other, GateTable)
                and np.array_equal(self.ptr, other.ptr)
                and np.array_equal(self.qubit, other.qubit)
                and np.array_equal(self.kind, other.kind))

    def bounds(self) -> tuple[list[int], list[int]]:
        """Per gate, as Python lists: entry start offsets (plus the end) and
        the offset where the gate's targets start."""
        if self._bounds is None:
            starts = self.ptr[:-1]
            ncontrols = (np.add.reduceat((self.kind != TGT).astype(np.int64),
                                         starts)
                         if len(self) else starts)
            self._bounds = (self.ptr.tolist(), (starts + ncontrols).tolist())
        return self._bounds

    def validate(self, n_qubits: int, first: int = 0) -> None:
        """Reject a gate without targets, a qubit out of range, a qubit twice
        in one gate, a control that is also a target, or a control after a
        target.  The error names the gate (numbered from ``first``) and the
        qubit of the first fault in gate order."""
        count = len(self)
        lens = self.lens()
        gate_of = np.repeat(np.arange(count), lens)
        targets = np.bincount(gate_of[self.kind == TGT], minlength=count)
        if count and targets.min() == 0:
            g = int(np.argmin(targets))
            raise CircuitError(f"gate {first + g}: gate must have at least "
                               "one target")
        bad = (self.qubit < 0) | (self.qubit >= n_qubits)
        if bad.any():
            e = int(np.argmax(bad))
            raise CircuitError(f"gate {first + int(gate_of[e])}: qubit index "
                               f"{int(self.qubit[e])} out of range "
                               f"(n={n_qubits})")
        # every gate has an entry, so ptr[g] - 1 is the last of gate g - 1
        late = (self.kind[1:] != TGT) & (self.kind[:-1] == TGT)
        late[self.ptr[1:-1] - 1] = False
        faults = []
        if late.any():
            e = int(np.argmax(late)) + 1
            faults.append((int(gate_of[e]), int(self.qubit[e]),
                           "control on qubit {} after a target"))
        # the qubits are in range, so gate * n + qubit orders by (gate,
        # qubit); the key is built in gate_of's buffer
        key = gate_of
        key *= n_qubits
        key += self.qubit
        order = np.argsort(key, kind="stable")
        key = key[order]
        twice = key[1:] == key[:-1]
        if twice.any():
            e = int(np.argmax(twice))
            k1, k2 = self.kind[order[e]], self.kind[order[e + 1]]
            what = ("controls and targets overlap"
                    if (k1 == TGT) != (k2 == TGT)
                    else "duplicate qubit within gate")
            # in one gate, an overlap or duplicate is named before a late
            # control
            faults.insert(0, (*divmod(int(key[e]), n_qubits),
                              what + " on qubit {}"))
        if faults:
            g, q, what = min(faults, key=lambda f: f[0])
            raise CircuitError(f"gate {first + g}: " + what.format(q))


def _distinct(qubits: np.ndarray) -> np.ndarray:
    """Sorted distinct qubit indices.  (``np.unique`` on integers imports
    ``numpy.ma`` on first use, about 15 ms in every fresh process.)"""
    return np.flatnonzero(np.bincount(qubits))


def layer(gates: Iterable[list[int]], layers: list) -> list:
    """Greedy layering, the one depth rule: each gate, in order, enters the
    layer after the latest one among its qubits.

    ``gates`` gives each gate's qubits as a list.  ``layers[q]`` is qubit
    ``q``'s latest layer and is updated in place, in one of two forms.  A
    list of ints (one column: a top-level depth walk, :class:`_Depth`) is
    swept as Python scalars, with no numpy call.  A list of int32 rows
    has one column per origin (a memoized fragment's chain walk, one per
    local qubit): a gate's new row is the elementwise max of its qubits'
    rows plus one, assigned to each of them, so starting from the max-plus
    identity (0 on the diagonal, ``_NO_CHAIN`` elsewhere) row ``j`` ends as
    the longest gate chain from each qubit's entry to ``j``'s exit, below 0
    without one.  Rows may alias one array; none is written in place.  Each column
    ends as a list sweep of that column would.
    """
    if not layers or not isinstance(layers[0], np.ndarray):
        for s in gates:
            latest = max([layers[q] for q in s]) + 1
            for q in s:
                layers[q] = latest
    else:
        for s in gates:
            m = layers[s[0]]
            for q in s[1:]:
                m = np.maximum(m, layers[q])
            m = m + 1
            for q in s:
                layers[q] = m
    return layers


class Circuit:
    """Immutable reversible circuit over named registers, its op tape.

    ``tape``'s gates are not checked here: the builder checks its chunks
    (and memoized fragments, recorded from pure emitters, stay valid under
    an injective qubit remap), and ``loads`` checks every op it reads.
    ``layout[pos]`` is the qubit at position ``pos`` of the linear order
    that cut analyses use (default: declaration order).  ``depth`` is a
    deferred :class:`_Depth` that walks another tape (a builder's, or the
    inverted circuit's), by default one of ``tape``.  ``gates``, the flat
    table, is built from the tape on first read and kept, and so is the
    text of :func:`dumps`.
    """

    __slots__ = ("registers", "total_qubits", "layout", "max_live_ancilla",
                 "_offsets", "_depth", "_tape", "_gates", "_text")

    def __init__(self, registers, tape: list, layout=None,
                 max_live_ancilla=0, depth=None):
        registers = tuple(registers)
        names = [r.name for r in registers]
        if len(set(names)) != len(names):
            raise CircuitError("duplicate register name")
        total = sum(r.width for r in registers)
        if layout is None:
            layout = tuple(range(total))
        else:
            layout = tuple(layout)
            # the length first, so a declared width costs nothing until
            # the layout lists that many qubits
            if len(layout) != total or sorted(layout) != list(range(total)):
                raise CircuitError("layout must be a permutation of all qubits")
        self.registers = registers
        self.total_qubits = total
        self.layout = layout
        self.max_live_ancilla = max_live_ancilla
        offsets = {}
        at = 0
        for r in registers:
            offsets[r.name] = tuple(range(at, at + r.width))
            at += r.width
        self._offsets = offsets
        self._depth = _Depth(tape, len(tape), total) if depth is None else depth
        self._tape = tape
        self._gates = self._text = None

    @property
    def gates(self) -> GateTable:
        """The flat gate table, built from the tape on first read."""
        if self._gates is None:
            self._gates = _flatten(self._tape)
        return self._gates

    def register(self, name: str) -> tuple[int, ...]:
        """Qubit indices of a register, in declaration order (LSB first)."""
        try:
            return self._offsets[name]
        except KeyError:
            raise CircuitError(f"no register named {name!r}") from None

    def registers_with_role(self, role: str) -> list[str]:
        return [r.name for r in self.registers if r.role == role]

    def __eq__(self, other):
        """Equal iff the same bytes: iff :func:`dumps` writes one text (so
        one tape, fragment for fragment) for both."""
        return isinstance(other, Circuit) and dumps(self) == dumps(other)

    def __hash__(self):
        return hash((self.registers, _tallies(self._tape)))


def invert(c: Circuit) -> Circuit:
    """The circuit with its tape reversed, each op's direction flipped: the
    inverse, with an identical cost report (the longest gate chain is the
    same read backwards), so it shares the circuit's deferred depth."""
    tape = [(frag, qmap, not reverse) for frag, qmap, reverse in
            reversed(c._tape)]
    return Circuit(c.registers, tape, c.layout, c.max_live_ancilla, c._depth)


def _tallies(tape) -> tuple[int, int]:
    """An op tape's gate count and largest fan-in, from its fragments'."""
    return (sum([frag.gates for frag, _, _ in tape]),
            max([frag.fan_in for frag, _, _ in tape], default=0))


def cost(c: Circuit) -> CostReport:
    """The gate count, greedy-layered depth, qubits, fan-in and peak live
    ancilla.

    Depth convention: a gate enters the earliest layer in which none of its
    qubits are occupied (per-qubit occupancy layering, :func:`layer`).  The
    gate count and fan-in are the tape's tallies.  The report holds the
    circuit's deferred depth, one walk of its op tape (its builder's, or
    one chunk of its table) on the first read of ``depth``, shared with
    every other report of that tape and length.
    """
    gates, fan_in = _tallies(c._tape)
    return CostReport(gate_count=gates, depth=c._depth,
                      qubit_count=c.total_qubits, max_fan_in=fan_in,
                      max_live_ancilla=c.max_live_ancilla)


def light_cone(c: Circuit, outputs: Iterable[int]) -> set[int]:
    """Input qubits reachable backwards from ``outputs`` through the gates.

    A gate propagates dependence from any of its targets to all of its
    controls (targets are flipped by a function of the controls).  The op
    tape is walked backwards over one live flag per qubit, without the flat
    table: a chunk gate by gate, and a replay through its fragment's cone
    summary (:meth:`_Fragment.cone`), whose rows for the live exit qubits
    mark their entry qubits live.  Flags are never cleared, so the summary
    composes to exactly the gate-by-gate result.
    """
    n = c.total_qubits
    live = [False] * n
    for q in set(outputs):
        if not 0 <= q < n:
            raise CircuitError(f"output qubit {q} out of range")
        live[q] = True
    # one shared int object per qubit, not one per table entry
    names = np.arange(n).astype(object)
    for frag, qmap, reverse in reversed(c._tape):
        if not frag.gates:
            continue
        if qmap is not None:
            dep = 0
            for q, row in zip(qmap, frag.cone(reverse)):
                if live[q]:
                    dep |= row
            for i in _bits(dep):
                live[qmap[i]] = True
            continue
        t = frag.table(False)
        qubit = names[t.qubit].tolist()
        ptr, tgt = t.bounds()
        # backwards through the tape: a reversed chunk's gates in table order
        for g in (range(len(t)) if reverse else range(len(t) - 1, -1, -1)):
            m, z = tgt[g], ptr[g + 1]
            if (live[qubit[m]] if z - m == 1
                    else any([live[q] for q in qubit[m:z]])):
                for q in qubit[ptr[g]:m]:
                    live[q] = True
    return {q for q, v in enumerate(live) if v}


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    return [i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def _gate_positions(c: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """Per gate, the lowest and highest layout position of its support,
    op by op: the fragment table's qubits gathered through the layout (a
    replay's map first), then a ``reduceat``."""
    # a permutation's argsort is its inverse: each qubit's position
    pos = np.argsort(c.layout)
    lo, hi = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for frag, qmap, reverse in c._tape:
        if frag.gates:
            t = frag.table(False)
            at = (pos if qmap is None else pos[qmap])[t.qubit]
            step = -1 if reverse else 1
            lo.append(np.minimum.reduceat(at, t.ptr[:-1])[::step])
            hi.append(np.maximum.reduceat(at, t.ptr[:-1])[::step])
    return np.concatenate(lo), np.concatenate(hi)


@dataclass(frozen=True)
class SpanProfile:
    spans: tuple[int, ...]       # per-gate (max - min) layout position
    total_prefix_span: int       # == sum over cuts t of gates crossing t

    @property
    def max_span(self) -> int:
        return max(self.spans) if self.spans else 0


def span_profile(c: Circuit) -> SpanProfile:
    """Per-gate spans and the total prefix-span (sum of all cut crossings),
    from a walk of the op tape (the flat table is not built)."""
    lo, hi = _gate_positions(c)
    spans = hi - lo
    return SpanProfile(spans=tuple(spans.tolist()),
                       total_prefix_span=int(spans.sum()))


# ---------------------------------------------------------------------------
# serialization

def dumps(c: Circuit) -> str:
    """Lossless compact JSON of the op tape, made once and kept: the
    registers; each distinct fragment once, in first-use post-order (a
    chunk's lists ``ptr``, ``qubit`` and ``kind``, or a memoized
    fragment's local qubit count ``k`` and ``ops``); the top-level
    ``ops``, each ``[fragment, qubit map or null, reversed]``; the layout;
    the peak ancilla."""
    if c._text is None:
        index, entries = {}, []

        def ops(tape) -> list:
            out = []
            for frag, qmap, reverse in tape:
                i = index.get(frag)
                if i is None:
                    entries.append(
                        dict(zip(("ptr", "qubit", "kind"), frag._lists))
                        if frag._tape is None
                        else {"k": frag.k, "ops": ops(frag._tape)})
                    i = index[frag] = len(entries) - 1
                out.append([i, qmap, reverse])
            return out

        c._text = json.dumps(
            {"registers": [{"name": r.name, "width": r.width, "role": r.role}
                           for r in c.registers],
             "fragments": entries, "ops": ops(c._tape), "layout": c.layout,
             "max_live_ancilla": c.max_live_ancilla}, separators=(",", ":"))
    return c._text


_SCHEMA = "not in dumps' schema"

# the deepest fragment nesting (a chunk's is 1) loads reads; each level
# costs the recursive fragment walks a few frames, and builds nest 5 deep
_MAX_NESTING = 100


def loads(text: str) -> Circuit:
    """The circuit that ``dumps`` wrote as ``text``, and only that, its op
    tape rebuilt.  In order: ``json.loads`` reads the text; a chunk is
    checked as the builder does, once per qubit count that plays it
    (``GateTable.validate`` names a fault); a replay must name an earlier
    fragment, with a map of its ``k`` distinct qubits in range; a
    memoized fragment must hold fewer than ``_CHAIN_GATE_LIMIT`` gates and
    nest at most ``_MAX_NESTING`` deep; each value must have its schema
    type; the circuit must re-dump to the text byte for byte.  Any other
    text, even JSON of the same document, raises a CircuitError naming the
    byte, or the fragment, op and gate, or the field."""
    if not text.isascii():
        at = re.search(r"[^\x00-\x7f]", text).start()
        raise CircuitError(f"byte {at}: a non-ASCII character, which dumps "
                           "escapes")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitError(f"byte {exc.pos}: invalid JSON: {exc.msg}") from exc
    typed = []      # (where, field, values, type): each re-dumps as read
    try:
        registers = [RegisterDecl(r["name"], r["width"], r["role"])
                     for r in doc["registers"]]
        frags, nest, seen = [], {}, set()
        for i, entry in enumerate(doc["fragments"]):
            frag = _read_fragment(entry, frags, f"fragment {i}", typed, seen)
            nest[frag] = 1 + max([nest[f] for f, _, _ in frag._tape or ()],
                                 default=0)
            if nest[frag] > _MAX_NESTING:
                raise CircuitError(f"fragment {i}: nested {nest[frag]} deep, "
                                   f"more than {_MAX_NESTING}")
            frags.append(frag)
        tape = _read_ops(doc["ops"], frags, sum(r.width for r in registers),
                         "op", typed, seen)
        c = Circuit(registers, tape, doc["layout"], doc["max_live_ancilla"])
    except CircuitError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CircuitError(f"{_SCHEMA} ({exc!r})") from exc
    typed += [("", "name", [r.name for r in registers], str),
              ("", "width", [r.width for r in registers], int),
              ("", "layout", c.layout, int),
              ("", "max_live_ancilla", [c.max_live_ancilla], int)]
    for where, field, values, kind in typed:
        if not set(map(type, values)) <= {kind}:
            bad = next(v for v in values if type(v) is not kind)
            raise CircuitError(f"{_SCHEMA} ({where}field {field!r}: {bad!r})")
    if c.max_live_ancilla < 0:
        raise CircuitError(f"{_SCHEMA} (field 'max_live_ancilla': "
                           f"{c.max_live_ancilla})")
    own = dumps(c)
    if own != text:
        m = min(len(own), len(text))
        at = next((i for i in range(m) if own[i] != text[i]), m)
        raise CircuitError(f"byte {at}: the text differs from dumps' text of "
                           "the circuit it reads as")
    c._text = text
    return c


def _read_fragment(entry, frags, where, typed, seen) -> "_Fragment":
    """One fragment of a ``dumps`` text: a chunk, its lists one gate table,
    or a memoized fragment, its ops read on ``k`` local qubits."""
    if "k" not in entry:
        ptr, qubit, kind = lists = entry["ptr"], entry["qubit"], entry["kind"]
        typed += [(where + ", ", f, v, int)
                  for f, v in zip(("ptr", "qubit", "kind"), lists)]
        if not (len(ptr) > 1 and ptr[0] == 0 and ptr == sorted(ptr)
                and ptr[-1] == len(qubit) == len(kind)
                and set(kind) <= {NEG, POS, TGT}):
            raise CircuitError(f"{where}: ptr, qubit and kind are not one "
                               "gate table")
        return _Fragment.chunk(ptr, qubit, kind)
    typed.append((where + ", ", "k", [entry["k"]], int))
    tape = _read_ops(entry["ops"], frags, entry["k"], where + ", op", typed,
                     seen)
    return _Fragment.memoized(*_tallies(tape), entry["k"], tape, where)


def _read_ops(ops, frags, n: int, where, typed, seen) -> list:
    """The op tape of an op list of a ``dumps`` text, on ``n`` qubits:
    each op names one of ``frags``, the fragments listed before it.  A
    chunk is checked at its first op on n qubits (``seen``: those done)."""
    tape = []
    for j, (i, qmap, reverse) in enumerate(ops):
        at = f"{where} {j}"
        if not 0 <= i < len(frags):
            raise CircuitError(f"{at}: fragment {i} is not listed before it")
        frag = frags[i]
        if frag.k is None:
            ptr, qubit, kind = frag._lists
            if qmap is not None:
                raise CircuitError(f"{at}: a chunk takes no qubit map")
            if (i, n) not in seen and not (
                    _chunk_is_valid(ptr, qubit, kind, n)
                    and _controls_first(ptr, kind)):
                try:
                    GateTable(ptr, qubit, kind).validate(n)
                except CircuitError as err:
                    raise CircuitError(f"{at}, {err}") from None
            seen.add((i, n))
        else:
            typed.append((at + ", ", "map", qmap, int))
            if not (len(qmap) == len(set(qmap)) == frag.k
                    and (not qmap or 0 <= min(qmap) and max(qmap) < n)):
                raise CircuitError(f"{at}: map {qmap} of fragment {i} is not "
                                   f"k={frag.k} distinct qubits below n={n}")
        typed.append((at + ", ", "reverse", [reverse], bool))
        tape.append((frag, qmap, reverse))
    return tape


# ---------------------------------------------------------------------------
# builder

def _chunk_is_valid(ptr, qubit, kind, n_qubits: int) -> bool:
    """Whether ``GateTable(ptr, qubit, kind).validate(n_qubits)`` passes, on
    the Python lists of a chunk whose gates list their controls before
    their targets (as ``Builder.gate`` does, and :func:`_controls_first`
    checks for a read text): every gate ends with a target and holds each
    qubit once, and every qubit is in range."""
    if qubit and not (0 <= min(qubit) and max(qubit) < n_qubits):
        return False
    for a, z in zip(ptr, ptr[1:]):
        if z - a < 2:
            if a == z or kind[a] != TGT:
                return False
        elif kind[z - 1] != TGT or len(set(qubit[a:z])) < z - a:
            return False
    return True


def _controls_first(ptr, kind) -> bool:
    """Whether no gate of a chunk lists a control after a target."""
    late = {e for e in range(1, len(kind)) if kind[e - 1] == TGT != kind[e]}
    return late <= set(ptr)


# the widest column slice of one max-plus product in a fragment's chain walk
_MAXPLUS_COLUMNS = 64

# "no chain" in a fragment's chain walk, its int32 rows.  Every entry
# starts at 0 or _NO_CHAIN, never falls (a gate sets a max plus one, and a
# replay's max-plus product is at least the row's own entry, a fragment's
# diagonal being at least 0) and rises by at most one per gate, so while a
# fragment holds fewer than _CHAIN_GATE_LIMIT gates a "no chain" entry
# stays below 0, a chain stays below 2^29 and no sum of two entries leaves
# int32.  A top-level replay adds the chains to int64 layers, exact while
# the circuit has fewer than 2^30 gates.
_NO_CHAIN = -2 ** 30
_CHAIN_GATE_LIMIT = 2 ** 29


class _Fragment:
    """Gates with their tallies (``gates``, ``fan_in``) and one source
    form, the one they were made in.  A chunk of fresh gates is on the
    qubits of the tape that plays it, and its source is its entry lists
    ``(ptr, qubit, kind)``.  A memoized fragment is on ``k`` local qubit
    indices, and its source is its recorded (or read) op tape.

    Every other form is derived from the source on first use and kept: the
    gate table in either direction, the gate ops, the support (the union of
    the ops' supports for a memoized fragment) and a memoized fragment's
    ``chains``: the int32 max-plus matrix whose entry ``[i, j]`` is the
    longest gate chain from local qubit ``i``'s entry to ``j``'s exit
    (``_NO_CHAIN`` without one), and that matrix transposed (a reversed
    replay); and beside them its cone summary in each direction
    (:meth:`cone`), which local entry qubits each exit depends on.
    """

    __slots__ = ("gates", "fan_in", "k", "_lists", "_tape", "_tables",
                 "_ops", "_chains", "_cones", "_cone_bits", "_support")

    def __init__(self, gates: int, fan_in: int, k=None, lists=None,
                 tape=None):
        self.gates = gates
        self.fan_in = fan_in
        self.k = k
        self._lists = lists
        self._tape = tape
        self._tables = [None, None]             # forwards, backwards
        self._cones = [None, None]              # forwards, backwards
        self._cone_bits = [None, None]
        self._ops = self._chains = self._support = None

    @classmethod
    def chunk(cls, ptr, qubit, kind) -> "_Fragment":
        return cls(len(ptr) - 1, max([z - a for a, z in zip(ptr, ptr[1:])]),
                   lists=(ptr, qubit, kind))

    @classmethod
    def memoized(cls, gates: int, fan_in: int, k: int, tape: list,
                 name: str) -> "_Fragment":
        """The fragment of an op tape on ``k`` local qubits, with its
        tallies, which must hold fewer than ``_CHAIN_GATE_LIMIT`` gates."""
        if gates >= _CHAIN_GATE_LIMIT:
            raise CircuitError(f"{name}: a memoized fragment holds at most "
                               f"{_CHAIN_GATE_LIMIT - 1} gates, not {gates}")
        return cls(gates, fan_in, k=k, tape=tape)

    def table(self, reverse: bool) -> GateTable:
        tables = self._tables
        if tables[0] is None:
            tables[0] = (GateTable(*self._lists) if self._tape is None
                         else _flatten(self._tape))
        if reverse and tables[1] is None:
            tables[1] = tables[0].reversed()
        return tables[reverse]

    @property
    def chains(self) -> tuple[np.ndarray, np.ndarray]:
        if self._chains is None:
            # row j of the walked rows holds the chains into j's exit
            k = self.k
            identity = np.full((k, k), _NO_CHAIN, dtype=np.int32)
            np.fill_diagonal(identity, 0)
            rows = _walk(self._tape, len(self._tape), list(identity))
            depth = np.array(rows, dtype=np.int32).reshape(k, k)
            depth[depth < 0] = _NO_CHAIN
            self._chains = (depth.T.copy(), depth)
        return self._chains

    def cone(self, reverse: bool) -> list[int]:
        """A memoized fragment's cone summary, its gates played forwards or
        (``reverse``) backwards: per local exit qubit ``j``, a bitmask of
        the local entry qubits that ``j``'s exit depends on (always ``j``
        itself).  It is one forward walk of the tape in that direction: a
        gate's targets take in the dependences of its controls, and a
        nested replay composes the replayed fragment's summary.  Reading a
        fragment backwards does not transpose it: a lone CX ``a -> b``
        makes ``b`` depend on ``a`` either way."""
        if self._cones[reverse] is None:
            rows = [1 << q for q in range(self.k)]
            for frag, qmap, rev in (reversed(self._tape) if reverse
                                    else self._tape):
                rev = rev != reverse
                if qmap is not None:
                    before = [rows[q] for q in qmap]
                    for q, entries in zip(qmap, frag.cone_bits(rev)):
                        dep = 0
                        for i in entries:
                            dep |= before[i]
                        rows[q] = dep
                    continue
                qubit = frag._lists[1]
                ptr, tgt = frag.table(False).bounds()
                for g in (range(frag.gates - 1, -1, -1) if rev
                          else range(frag.gates)):
                    dep = 0
                    for q in qubit[ptr[g]:tgt[g]]:
                        dep |= rows[q]
                    if dep:
                        for q in qubit[tgt[g]:ptr[g + 1]]:
                            rows[q] |= dep
            self._cones[reverse] = rows
        return self._cones[reverse]

    def cone_bits(self, reverse: bool) -> list[list[int]]:
        """:meth:`cone` with each row as the list of its set bits, the form
        that a replay in an enclosing fragment's summary composes."""
        if self._cone_bits[reverse] is None:
            self._cone_bits[reverse] = [_bits(row)
                                        for row in self.cone(reverse)]
        return self._cone_bits[reverse]

    def gate_qubits(self, reverse: bool) -> list[list[int]]:
        """A chunk's per-gate qubit lists, in the order they are applied."""
        ptr, qubit, _ = self._lists
        gates = [qubit[a:z] for a, z in zip(ptr, ptr[1:])]
        return gates[::-1] if reverse else gates

    def gate_ops(self) -> list[tuple]:
        """The gates as ops ``(kind, a, b, t)``: an ``OP_CX`` flips qubit
        ``t`` where ``a`` is set (``b`` is ``a``), an ``OP_CCX`` where ``a``
        and ``b`` are set, an ``OP_PNX`` where ``a`` is set and ``b`` is
        clear, and an ``OP_MCX`` flips every qubit of the tuple ``t`` where
        every qubit of the tuple ``a`` is set and every one of ``b`` is
        clear.  A chunk is compiled from its lists; a memoized fragment from
        its tape, each nested replay being the replayed fragment's ops
        renamed (and reversed for an inverse replay)."""
        if self._ops is None:
            if self._tape is None:
                self._ops = _gate_ops(*self._lists)
            else:
                ops = []
                for frag, qmap, reverse in self._tape:
                    sub = frag.gate_ops()
                    if qmap is not None:
                        sub = _remap_ops(sub, qmap)
                    ops += reversed(sub) if reverse else sub
                self._ops = ops
        return self._ops

    def support(self) -> np.ndarray:
        if self._support is None:
            self._support = (_distinct(np.asarray(self._lists[1]))
                             if self._tape is None
                             else Builder.support(self._tape))
        return self._support


def _gate_ops(ptr, qubit, kind) -> list[tuple]:
    """The gate ops of a table given as Python lists (see
    :meth:`_Fragment.gate_ops`)."""
    ops = []
    append = ops.append
    for e, z in zip(ptr, ptr[1:]):
        if z - e == 2 and kind[e] == POS and kind[e + 1] == TGT:
            append((OP_CX, qubit[e], qubit[e], qubit[e + 1]))
        elif (z - e == 3 and kind[e] != TGT and kind[e + 1] != TGT
              and kind[e + 2] == TGT and POS in (kind[e], kind[e + 1])):
            a, b, t = qubit[e], qubit[e + 1], qubit[e + 2]
            if kind[e] == NEG:
                a, b = b, a
            append((OP_CCX if kind[e] == kind[e + 1] else OP_PNX, a, b, t))
        else:
            append((OP_MCX, *[tuple([qubit[i] for i in range(e, z)
                                     if kind[i] == k])
                              for k in (POS, NEG, TGT)]))
    return ops


def _remap_ops(ops, qmap) -> list[tuple]:
    """Gate ops with local qubit ``q`` renamed ``qmap[q]``."""
    return [(k, qmap[a], qmap[b], qmap[t]) if k != OP_MCX
            else (k, tuple([qmap[q] for q in a]), tuple([qmap[q] for q in b]),
                  tuple([qmap[q] for q in t]))
            for k, a, b, t in ops]


def _flatten(tape) -> GateTable:
    """One table of an op tape's gates, each replay's table remapped."""
    return GateTable.concat([
        frag.table(reverse) if qmap is None
        else frag.table(reverse).remap(np.array(qmap))
        for frag, qmap, reverse in tape])


def _walk(tape, length: int, layers: list) -> list:
    """``layers`` (in either form of :func:`layer`) carried over the first
    ``length`` ops of an op tape: a chunk is layered gate by gate, and a
    replay by a max-plus product with the fragment's chains."""
    for i in range(length):
        frag, qmap, reverse = tape[i]
        if not frag.gates:
            continue
        if qmap is None:
            layer(frag.gate_qubits(reverse), layers)
            continue
        # exit j's layer: max over entries i of (i's layer + chain[i, j])
        chain = frag.chains[reverse]
        if not isinstance(layers[0], np.ndarray):
            before = np.array([layers[q] for q in qmap])
            after = np.maximum.reduce(before[:, None] + chain).tolist()
        else:
            before = np.stack([layers[q] for q in qmap])
            after = np.empty_like(before)
            for a in range(0, before.shape[1], _MAXPLUS_COLUMNS):
                cols = slice(a, a + _MAXPLUS_COLUMNS)
                np.maximum.reduce(before[:, None, cols] + chain[:, :, None],
                                  out=after[:, cols])
            # rows copied out, so the product is freed with this replay
            after = [v.copy() for v in after]
        for q, v in zip(qmap, after):
            layers[q] = v
    return layers


class _Depth:
    """The depth of the first ``length`` ops of an op tape on ``n`` qubits,
    the one depth routine: on first use, ``resolve()`` walks them on one
    column of per-qubit layers (a chunk by the scalar sweep of
    :func:`layer`, a replay by a 1-D max-plus update), then keeps the value
    and drops the tape."""

    __slots__ = ("tape", "length", "n", "value")

    def __init__(self, tape: list, length: int, n: int):
        self.tape, self.length, self.n = tape, length, n
        self.value = None

    def resolve(self) -> int:
        if self.tape is not None:
            self.value = max(_walk(self.tape, self.length, [0] * self.n),
                             default=0)
            self.tape = None
        return self.value


def _local_args(shape, index) -> list:
    """A memoized emitter's arguments on local qubits: ``index`` gives the
    local qubit of each flattened argument qubit, in argument order."""
    args, at = [], 0
    for s in shape:
        if s is None:
            args.append(index[at])
            at += 1
        elif isinstance(s, tuple):
            args.append(list(zip(index[at:at + len(s)], s)))
            at += len(s)
        else:
            args.append(tuple(index[at:at + s]))
            at += s
    return args


class Builder:
    """Incremental circuit constructor with cost tallying.

    Gates go onto an op tape: chunks of fresh gates (``gate``, ``x``,
    ``cx``) and replays of memoized fragments (``call``).  A chunk stays
    Python lists: it is checked once when flushed (a failing chunk gets
    ``GateTable.validate``'s error).  Each op tallies the gate count and
    fan-in as it is emitted; the depth is not tallied.  ``report()`` and
    ``finish()`` hand out a deferred depth of the tape as it stands, a
    :class:`_Depth` that one walk of the tape resolves on first read; the
    builder hands out one per tape length and qubit count, so a
    ``finish()`` and a ``report()`` of the same tape share it.
    With ``record=False`` the builder keeps its tape and tallies (gate
    count, fan-in, ancilla liveness) but builds no gate table;
    ``finish()`` is then unavailable but ``report()`` works.  In either
    mode, ``with b.capture() as ops:`` checks the block's ops and holds
    them in ``ops`` instead of emitting them; ``emit(ops)`` plays them
    forwards and ``emit_inverse(ops)`` backwards, each op with its
    direction flipped, so no gate is revisited.  A gate is numbered in
    errors as if every open capture had been emitted where it opened.

    ``call(emitter, *regs, **consts)`` runs ``emitter(b, *regs, **consts)``
    once per builder for each memo key and replays the recorded fragment on
    later calls.  A positional argument is a qubit (int), a register (a
    sequence of qubits) or a control list (a sequence of ``(qubit,
    polarity)`` pairs); keyword arguments are hashable constants.  The key
    is the emitter, the argument shapes with their aliasing pattern and
    control polarities, and the constants.  A memoized emitter must be a
    pure function of its registers and constants: it may compare qubits for
    equality but must not depend on their numeric values, and must not call
    ``acquire`` or ``release``.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._start(0, {}, fragment=False)

    def _start(self, n, memo, fragment) -> None:
        self._registers: list[RegisterDecl] = []
        self._n = n
        self._memo = memo
        self._fragment = fragment      # recording a memoized fragment
        self._tape: list = []          # ops: (fragment, qmap or None, reverse)
        self._handed = None            # the last depth handed out
        self._held: list[list] = []    # the ops of each open capture
        self._held_gates = 0           # and their gates
        self._pq: list[int] = []       # pending fresh gates: qubits,
        self._pk: list[int] = []       # kinds,
        self._pp: list[int] = [0]      # and entry offsets
        self._gate_count = 0
        self._max_fan_in = 0
        self._live_anc = 0
        self._peak_anc = 0

    # -- registers ---------------------------------------------------------
    def add_register(self, name: str, width: int, role: str) -> tuple[int, ...]:
        if self._fragment:
            raise CircuitError("a memoized emitter cannot add registers")
        decl = RegisterDecl(name, width, role)
        if any(r.name == name for r in self._registers):
            raise CircuitError(f"duplicate register name {name!r}")
        self._registers.append(decl)
        qubits = tuple(range(self._n, self._n + width))
        self._n += width
        return qubits

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def gate_count(self) -> int:
        self._flush()
        return self._gate_count

    # -- ancilla liveness markers -------------------------------------------
    def acquire(self, n: int) -> None:
        if self._fragment:
            raise CircuitError("a memoized emitter must not call acquire")
        self._live_anc += n
        if self._live_anc > self._peak_anc:
            self._peak_anc = self._live_anc

    def release(self, n: int) -> None:
        if self._fragment:
            raise CircuitError("a memoized emitter must not call release")
        self._live_anc -= n

    # -- gate emission -------------------------------------------------------
    def gate(self, controls, targets) -> None:
        """Multi-controlled X: a control is a qubit (positive) or a
        ``(qubit, polarity)`` pair.  Validated when its chunk is flushed."""
        qs, ks = self._pq, self._pk
        for c in controls:
            if isinstance(c, tuple):
                qs.append(int(c[0]))
                ks.append(POS if c[1] else NEG)
            else:
                qs.append(int(c))
                ks.append(POS)
        for t in targets:
            qs.append(int(t))
            ks.append(TGT)
        self._pp.append(len(qs))

    def cx(self, control, target: int) -> None:
        self.gate((control,), (target,))

    def _drop_pending(self) -> None:
        self._pq, self._pk, self._pp = [], [], [0]

    def _flush(self) -> None:
        """Turn the pending fresh gates into one checked chunk op.  A chunk
        that fails the Python check is handed to ``GateTable.validate``,
        which raises the error that names its first fault."""
        ptr, qubit, kind = self._pp, self._pq, self._pk
        if len(ptr) == 1:
            return
        self._drop_pending()
        if not _chunk_is_valid(ptr, qubit, kind, self._n):
            GateTable(ptr, qubit, kind).validate(
                self._n, first=self._gate_count + self._held_gates)
        self._apply(_Fragment.chunk(ptr, qubit, kind), None, False)

    def _apply(self, frag: _Fragment, qmap, reverse: bool) -> None:
        if self._held:
            self._held[-1].append((frag, qmap, reverse))
            self._held_gates += frag.gates
            return
        self._tape.append((frag, qmap, reverse))
        self._gate_count += frag.gates
        if frag.fan_in > self._max_fan_in:
            self._max_fan_in = frag.fan_in

    # -- memoized fragments --------------------------------------------------
    def call(self, emitter, *regs, **consts) -> None:
        """Emit ``emitter(self, *regs, **consts)`` by replaying its memoized
        fragment (recorded on the first call with the same memo key)."""
        self._flush()
        flat: list = []
        shape = []      # per argument: None (qubit), width, or polarities
        for r in regs:
            if isinstance(r, (int, np.integer)):
                flat.append(int(r))
                shape.append(None)
            elif tuple in map(type, r):
                flat.extend(int(c[0]) if isinstance(c, tuple) else int(c)
                            for c in r)
                shape.append(tuple(bool(c[1]) if isinstance(c, tuple)
                                   else True for c in r))
            else:
                flat.extend(r)
                shape.append(len(r))
        if flat and not 0 <= min(flat) <= max(flat) < self._n:
            raise CircuitError(f"{getattr(emitter, '__qualname__', emitter)}: "
                               f"qubit out of range (n={self._n}) in {flat}")
        distinct = dict.fromkeys(flat)
        if len(distinct) == len(flat):
            index, alias = range(len(flat)), None
        else:
            at = {q: i for i, q in enumerate(distinct)}
            index = alias = tuple([at[q] for q in flat])
        key = (emitter, tuple(shape), alias, tuple(sorted(consts.items())))
        frag = self._memo.get(key)
        if frag is None:
            frag = self._memo[key] = self._record(
                emitter, len(distinct), _local_args(shape, index), consts)
        self._apply(frag, list(distinct), False)

    def _record(self, emitter, k: int, args, consts) -> _Fragment:
        sub = Builder.__new__(Builder)
        sub._start(k, self._memo, fragment=True)
        name = getattr(emitter, "__qualname__", repr(emitter))
        try:
            emitter(sub, *args, **consts)
            sub._flush()
        except CircuitError as err:
            raise CircuitError(f"{name} (local qubits): {err}") from None
        return _Fragment.memoized(sub._gate_count, sub._max_fan_in, k,
                                  sub._tape, name)

    # -- capture / inversion ------------------------------------------------
    @contextmanager
    def capture(self):
        """``with b.capture() as ops:`` holds the block's ops in ``ops``
        instead of emitting them: no tally, gate list or enclosing capture
        sees them until ``emit`` or ``emit_inverse`` plays them.  A block
        that exits by an exception drops its pending fresh gates."""
        self._flush()
        ops, held = [], self._held_gates
        self._held.append(ops)
        try:
            yield ops
            self._flush()
        except BaseException:
            self._drop_pending()
            raise
        finally:
            self._held.pop()
            self._held_gates = held

    def emit(self, ops) -> None:
        self._flush()
        for op in ops:
            self._apply(*op)

    def emit_inverse(self, ops) -> None:
        self._flush()
        for frag, qmap, reverse in reversed(ops):
            self._apply(frag, qmap, not reverse)

    def emit_reversed(self, emitter, *args, **kwargs) -> None:
        """Emit the inverse of ``emitter(self, *args, **kwargs)``."""
        with self.capture() as ops:
            emitter(self, *args, **kwargs)
        self.emit_inverse(ops)

    @staticmethod
    def support(ops) -> np.ndarray:
        """Sorted qubits touched by the gates of captured ops."""
        parts = [frag.support() if qmap is None
                 else np.array(qmap)[frag.support()]
                 for frag, qmap, _ in ops]
        return (_distinct(np.concatenate(parts)) if parts
                else np.zeros(0, np.int64))

    # -- results --------------------------------------------------------------
    def _depth(self) -> _Depth:
        d = self._handed
        if d is None or (d.length, d.n) != (len(self._tape), self._n):
            d = self._handed = _Depth(self._tape, len(self._tape), self._n)
        return d

    def finish(self) -> Circuit:
        """The circuit of the tape as it stands: it holds the tape, and its
        flat ``gates`` table is built on first read."""
        if not self.record:
            raise CircuitError("builder is in tally-only mode")
        self._flush()
        return Circuit(self._registers, self._tape[:], None, self._peak_anc,
                       self._depth())

    def report(self) -> CostReport:
        self._flush()
        return CostReport(gate_count=self._gate_count, depth=self._depth(),
                          qubit_count=self._n, max_fan_in=self._max_fan_in,
                          max_live_ancilla=self._peak_anc)
