"""Test helper: gates as ``(controls, targets)`` pairs, the form that tests
write circuits in and read a circuit's gate table back as."""

from typing import NamedTuple

from qrollout.circuit import POS, Circuit, GateTable


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
