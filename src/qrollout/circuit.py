"""Gate-level reversible-circuit intermediate representation and analyses.

A circuit is an ordered list of multi-controlled multi-target X gates over
named registers.  Controls carry a polarity (positive fires on |1>, negative
on |0>); a gate flips every target iff all controls are satisfied.  Every
gate is self-inverse, so reversing the gate list inverts the circuit.

Structural analyses (cost report, backward light cone, cut-crossing counts,
span profile) are pure functions of the immutable circuit and require no
emulation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

ROLES = (
    "config", "selector", "dice", "ancilla", "payoff",
    "arm", "mask", "rank", "output",
)


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


@dataclass(frozen=True)
class Gate:
    """Multi-controlled multi-target X.  controls: ((qubit, polarity), ...)."""

    controls: tuple[tuple[int, bool], ...]
    targets: tuple[int, ...]

    @property
    def fan_in(self) -> int:
        return len(self.controls) + len(self.targets)

    def support(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.controls) + self.targets


@dataclass(frozen=True)
class CostReport:
    gate_count: int
    depth: int
    qubit_count: int
    max_fan_in: int
    max_live_ancilla: int


def _normalize_controls(controls) -> tuple[tuple[int, bool], ...]:
    out = []
    for c in controls:
        if isinstance(c, tuple):
            q, pol = c
            out.append((int(q), bool(pol)))
        else:
            out.append((int(c), True))
    return tuple(out)


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


class Circuit:
    """Immutable reversible circuit over named registers.

    ``layout`` is a permutation of qubit indices giving the linear order used
    by cut analyses: ``layout[pos]`` is the qubit at position ``pos``.  It
    defaults to declaration order.
    """

    __slots__ = ("registers", "gates", "total_qubits", "layout",
                 "max_live_ancilla", "_offsets", "_pos_of", "_cache")

    def __init__(self, registers, gates, layout=None, max_live_ancilla=0):
        registers = tuple(registers)
        names = [r.name for r in registers]
        if len(set(names)) != len(names):
            raise CircuitError("duplicate register name")
        total = sum(r.width for r in registers)
        gates = tuple(gates)
        for g in gates:
            _check_gate(g, total)
        if layout is None:
            layout = tuple(range(total))
        else:
            layout = tuple(layout)
            if sorted(layout) != list(range(total)):
                raise CircuitError("layout must be a permutation of all qubits")
        self.registers = registers
        self.gates = gates
        self.total_qubits = total
        self.layout = layout
        self.max_live_ancilla = max_live_ancilla
        offsets = {}
        at = 0
        for r in registers:
            offsets[r.name] = tuple(range(at, at + r.width))
            at += r.width
        self._offsets = offsets
        pos_of = [0] * total
        for pos, q in enumerate(layout):
            pos_of[q] = pos
        self._pos_of = tuple(pos_of)
        self._cache = {}

    def register(self, name: str) -> tuple[int, ...]:
        """Qubit indices of a register, in declaration order (LSB first)."""
        try:
            return self._offsets[name]
        except KeyError:
            raise CircuitError(f"no register named {name!r}") from None

    def register_decl(self, name: str) -> RegisterDecl:
        for r in self.registers:
            if r.name == name:
                return r
        raise CircuitError(f"no register named {name!r}")

    def registers_with_role(self, role: str) -> list[str]:
        return [r.name for r in self.registers if r.role == role]

    def position_of(self, qubit: int) -> int:
        return self._pos_of[qubit]

    def __eq__(self, other):
        return (isinstance(other, Circuit)
                and self.registers == other.registers
                and self.gates == other.gates
                and self.layout == other.layout)

    def __hash__(self):
        return hash((self.registers, len(self.gates)))


def build_circuit(registers, gates, layout=None, max_live_ancilla=0) -> Circuit:
    """Validate and freeze a circuit.  Raises CircuitError on bad input."""
    return Circuit(registers, gates, layout=layout,
                   max_live_ancilla=max_live_ancilla)


def invert(c: Circuit) -> Circuit:
    """Gate-reversed circuit: the inverse, with an identical cost report."""
    return Circuit(c.registers, tuple(reversed(c.gates)), layout=c.layout,
                   max_live_ancilla=c.max_live_ancilla)


def cost(c: Circuit) -> CostReport:
    """Gate count, greedy-layered depth, qubits, fan-in, peak live ancilla.

    Depth convention: a gate enters the earliest layer in which none of its
    qubits are occupied (per-qubit occupancy layering).
    """
    layers = [0] * c.total_qubits
    depth = 0
    max_fan = 0
    for g in c.gates:
        sup = g.support()
        lay = 1 + max(layers[q] for q in sup)
        for q in sup:
            layers[q] = lay
        if lay > depth:
            depth = lay
        if g.fan_in > max_fan:
            max_fan = g.fan_in
    return CostReport(gate_count=len(c.gates), depth=depth,
                      qubit_count=c.total_qubits, max_fan_in=max_fan,
                      max_live_ancilla=c.max_live_ancilla)


def light_cone(c: Circuit, outputs: Iterable[int]) -> set[int]:
    """Input qubits reachable backwards from ``outputs`` through the gates.

    A gate propagates dependence from any of its targets to all of its
    controls (targets are flipped by a function of the controls).
    """
    cone = set(outputs)
    for q in cone:
        if not 0 <= q < c.total_qubits:
            raise CircuitError(f"output qubit {q} out of range")
    for g in reversed(c.gates):
        if any(t in cone for t in g.targets):
            cone.update(q for q, _ in g.controls)
    return cone


def crossing_count(c: Circuit, t: int) -> int:
    """Number of gates with support on both sides of cut position ``t``.

    The cut separates layout positions [0, t) from [t, n).
    """
    if not 1 <= t <= c.total_qubits - 1:
        raise CircuitError(f"cut position {t} out of range")
    pos = c._pos_of
    n = 0
    for g in c.gates:
        lo = hi = pos[g.targets[0]]
        for q in g.support():
            p = pos[q]
            if p < lo:
                lo = p
            elif p > hi:
                hi = p
        if lo < t <= hi:
            n += 1
    return n


@dataclass(frozen=True)
class SpanProfile:
    spans: tuple[int, ...]       # per-gate (max - min) layout position
    total_prefix_span: int       # == sum over cuts t of crossing_count(t)

    @property
    def max_span(self) -> int:
        return max(self.spans) if self.spans else 0


def span_profile(c: Circuit) -> SpanProfile:
    """Per-gate spans and the total prefix-span (sum of all cut crossings)."""
    pos = c._pos_of
    spans = []
    for g in c.gates:
        ps = [pos[q] for q in g.support()]
        spans.append(max(ps) - min(ps))
    return SpanProfile(spans=tuple(spans), total_prefix_span=sum(spans))


def register_local_span(c: Circuit, register: str) -> int:
    """Largest per-gate span restricted to one register's qubits.

    Gates touching fewer than two qubits of the register contribute 0.
    """
    qubits = set(c.register(register))
    pos = c._pos_of
    best = 0
    for g in c.gates:
        ps = [pos[q] for q in g.support() if q in qubits]
        if len(ps) >= 2:
            s = max(ps) - min(ps)
            if s > best:
                best = s
    return best


# ---------------------------------------------------------------------------
# serialization

def dumps(c: Circuit) -> str:
    """Lossless JSON dump: registers, gates with polarities, layout."""
    doc = {
        "registers": [{"name": r.name, "width": r.width, "role": r.role}
                      for r in c.registers],
        "gates": [{"controls": [[q, bool(p)] for q, p in g.controls],
                   "targets": list(g.targets)} for g in c.gates],
        "layout": list(c.layout),
        "max_live_ancilla": c.max_live_ancilla,
    }
    return json.dumps(doc, separators=(",", ":"))


def loads(text: str) -> Circuit:
    doc = json.loads(text)
    regs = [RegisterDecl(r["name"], r["width"], r["role"])
            for r in doc["registers"]]
    gates = [Gate(tuple((int(q), bool(p)) for q, p in g["controls"]),
                  tuple(int(t) for t in g["targets"]))
             for g in doc["gates"]]
    return build_circuit(regs, gates, layout=doc.get("layout"),
                         max_live_ancilla=doc.get("max_live_ancilla", 0))


# ---------------------------------------------------------------------------
# builder

class Builder:
    """Incremental circuit constructor with cost tallying.

    With ``record=False`` the builder keeps only running tallies (gate count,
    depth layers, fan-in, ancilla liveness) and never materializes the gate
    list; ``finish()`` is then unavailable but ``report()`` works.  Segments
    (``begin_segment``/``end_segment``) collect emitted gates so gadgets can
    re-emit their own inverse even in tally mode.  ``emit_reversed`` runs an
    emitter under capture and emits only its gates in reverse, which is the
    emitter's inverse.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._registers: list[RegisterDecl] = []
        self._n = 0
        self._gates: list[Gate] = []
        self._segments: list[list[Gate]] = []
        self._capturing = False
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
        for seg in self._segments:
            seg.append(g)
        if self._capturing:
            return
        self._gate_count += 1
        if g.fan_in > self._max_fan_in:
            self._max_fan_in = g.fan_in
        layers = self._layers
        sup = g.support()
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

    # -- segment capture / inversion ----------------------------------------
    def begin_segment(self) -> None:
        self._segments.append([])

    def end_segment(self) -> list[Gate]:
        return self._segments.pop()

    def emit_inverse(self, segment: Sequence[Gate]) -> None:
        for g in reversed(segment):
            self._emit(g)

    def emit_reversed(self, emitter, *args, **kwargs) -> None:
        """Emit the inverse of ``emitter(self, *args, **kwargs)``.

        The emitter's gates are validated as usual but captured instead of
        emitted: they reach only segments the emitter opens itself, and no
        tally, gate list or enclosing segment sees them.  Their reverse is
        then emitted for real.
        """
        outer, capturing = self._segments, self._capturing
        self._segments, self._capturing = [[]], True
        try:
            emitter(self, *args, **kwargs)
            captured = self._segments[0]
        finally:
            self._segments, self._capturing = outer, capturing
        self.emit_inverse(captured)

    # -- results --------------------------------------------------------------
    def finish(self, layout=None) -> Circuit:
        if not self.record:
            raise CircuitError("builder is in tally-only mode")
        return build_circuit(self._registers, self._gates, layout=layout,
                             max_live_ancilla=self._peak_anc)

    def report(self) -> CostReport:
        return CostReport(gate_count=self._gate_count, depth=self._depth,
                          qubit_count=self._n, max_fan_in=self._max_fan_in,
                          max_live_ancilla=self._peak_anc)
