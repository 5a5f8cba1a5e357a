"""Test helper: gates as ``(controls, targets)`` pairs, the form that tests
write circuits in and read a circuit's gate table back as, the referee
loops that circuit analyses replaced, and the layout measures that only
the lower-bound tests read (cut crossings, register-local span)."""

from typing import NamedTuple

import numpy as np

from qrollout.circuit import POS, Circuit, CircuitError, GateTable
from qrollout.circuit import _gate_positions


class Gate(NamedTuple):
    """A multi-controlled X: ``controls`` are ``(qubit, polarity)`` pairs."""

    controls: tuple
    targets: tuple


def make_circuit(registers, gates, layout=None, max_live_ancilla=0):
    """A validated circuit of ``(controls, targets)`` pairs."""
    return Circuit(registers, GateTable.from_gates(gates), layout=layout,
                   max_live_ancilla=max_live_ancilla)


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
