"""Test helper: emulate a circuit on register inputs, one batch per sweep,
and the per-entry loop over the flat gate table that the tape kernel of
``apply_batch`` replaced, as its referee."""

import itertools

import numpy as np

from qrollout import emulator as em
from qrollout.circuit import NEG, POS, TGT
from qrollout.rank_select import _sweep_batch


def grid(ranges: dict) -> dict:
    """Every combination of the given register values, one per row; the
    first register varies slowest.  Maps each name to its row values."""
    rows = list(itertools.product(*ranges.values()))
    return {name: [row[i] for row in rows] for i, name in enumerate(ranges)}


# a gate's first table entry carries its kind plus _START
_START = 3


def apply_flat(c, batch: em.Batch) -> em.Batch:
    """Referee for ``apply_batch``: one step per entry of the flat table
    ``c.gates``, in place.  A gate's first entry starts its control mask
    ``s`` (every row for a gate without controls), each control narrows
    it, and each target is flipped on it."""
    if len(batch.cols) != c.total_qubits:
        raise em.EmulationError("batch width does not match circuit")
    cols = batch.cols
    full = s = (1 << batch.rows) - 1
    code = c.gates.kind.astype(np.int64)
    code[c.gates.ptr[:-1]] += _START
    for q, k in zip(c.gates.qubit.tolist(), code.tolist()):
        if k == TGT:
            cols[q] ^= s
        elif k == POS + _START:
            s = full & cols[q]
        elif k == POS:
            s &= cols[q]
        elif k == NEG:
            s &= ~cols[q]
        elif k == NEG + _START:
            s = full & ~cols[q]
        else:                         # a gate without controls
            s = full
            cols[q] ^= s
    return batch


def run(c, inputs: dict) -> dict:
    """Apply ``c`` to one batch through the register codec.

    ``inputs`` maps register names to one value per row, or to a scalar
    for every row (a single state is a one-row batch of scalars); other
    registers start at 0.  Returns every register's output values, by
    name, as lists of ints.
    """
    rows = max((len(v) for v in inputs.values() if np.ndim(v)), default=1)
    batch = em.Batch.zeros(c, rows)
    for name, values in inputs.items():
        em.write_register(batch, c, name, values)
    em.apply_batch(c, batch)
    return {r.name: [int(v) for v in em.read_register(batch, c, r.name)]
            for r in c.registers}


def bijective_by_count(c) -> em.BijectiveReport:
    """Referee for exhaustive ``check_bijective``: decode the circuit's
    output on every basis state and count each output.  A failure names
    the least output that two inputs reach and its first two inputs."""
    qubits = range(c.total_qubits)
    # row i is basis state i
    rows = 1 << len(qubits)
    batch = em.Batch.zeros(c, rows)
    em.write_qubits(batch, qubits, np.arange(rows))
    outs = em.read_qubits(em.apply_batch(c, batch), qubits)
    counts = np.bincount(outs, minlength=rows)
    if counts.max() <= 1:
        return em.BijectiveReport(True, "exhaustive")
    dup = int(np.argmax(counts > 1))
    pre = np.nonzero(outs == dup)[0][:2]
    return em.BijectiveReport(False, "exhaustive", (int(pre[0]), int(pre[1])))


def exhaustive_sweep(c) -> tuple[np.ndarray, np.ndarray, em.Batch, int]:
    """Emulate a rank-select circuit on every (mask, rank) input at once,
    under ``rank_select.exhaustive_check``'s row budget.

    Returns the masks and ranks (row ``r`` holds mask ``r mod 2^N`` and rank
    ``r div 2^N``), the output batch, and the OR of the ancilla and rank
    columns, whose set bits flag the rows that leave scratch dirty.
    """
    batch, dirty = _sweep_batch(c)
    n = len(c.register("mask"))
    rows = np.arange(batch.rows, dtype=np.int64)
    return rows % (1 << n), rows // (1 << n), batch, dirty
