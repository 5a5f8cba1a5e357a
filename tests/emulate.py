"""Test helper: emulate a circuit on register inputs, one batch per sweep.
Also the referees of code that ``qrollout.emulator`` replaced: the
per-entry loop over the flat gate table (for ``apply_batch``'s tape
kernel), the per-qubit register codec (for the bit transpose of
``write_qubits``/``read_qubits``), one Philox bit generator reset per seed
(for ``draw_each``) and repeated byte strings (for ``counting_batch``)."""

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


# ---------------------------------------------------------------------------
# referees of the input builders

def draw(law: em.InputDistribution, shots: int, seed: int) -> np.ndarray:
    """A law's seeded faces in one ``(shots, fields)`` array: word
    ``shot * fields + f`` of the Philox stream keyed by ``seed`` mod 2^64
    decides field ``f`` of that shot, as ``draw_chunks`` defines."""
    n = len(law.fields)
    words = np.random.Philox(key=int(seed) & (2**64 - 1)).random_raw(
        shots * n)
    return law.faces(words.reshape(shots, n))


def pack(bits) -> int:
    """One column from a uint8 0/1 value per row."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


def unpack(col: int, rows: int) -> np.ndarray:
    """A column's uint8 0/1 value per row."""
    raw = np.frombuffer(col.to_bytes((rows + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=rows, bitorder="little")


def write_per_qubit(batch: em.Batch, qubits, values) -> None:
    """Referee for ``write_qubits`` on one field: one column per qubit,
    from bit ``k`` of every row's value; a scalar fills or clears each."""
    if np.ndim(values) == 0:
        value, full = int(values), (1 << batch.rows) - 1
        for k, q in enumerate(qubits):
            batch.cols[q] = full if (value >> k) & 1 else 0
        return
    values = np.array(values, dtype=object)
    for k, q in enumerate(qubits):
        batch.cols[q] = pack(((values >> k) & 1).astype(np.uint8))


def read_per_qubit(batch: em.Batch, qubits) -> list[int]:
    """Referee for ``read_qubits``: each row's value ORed together one
    qubit at a time, as Python ints."""
    out = [0] * batch.rows
    for k, q in enumerate(qubits):
        for r, bit in enumerate(unpack(batch.cols[q], batch.rows).tolist()):
            out[r] |= bit << k
    return out


def philox_words_by_reset(seeds, n: int) -> np.ndarray:
    """Referee for ``emulator._philox_words``: one bit generator whose key
    and counter are reset through ``state`` for each seed."""
    bits = np.random.Philox(key=0)
    state = bits.state
    zero = state["state"]["counter"]
    words = np.empty((len(seeds), n), dtype=np.uint64)
    for r, s in enumerate(seeds):
        state["state"] = {"counter": zero,
                          "key": np.array([int(s) & (2**64 - 1), 0],
                                          dtype=np.uint64)}
        bits.state = state
        words[r] = bits.random_raw(n)
    return words


# byte ``q`` holds bit ``q`` of each of its eight row indices
_LOW_COUNTS = (0xAA, 0xCC, 0xF0)


def counting_by_bytes(c, qubits) -> em.Batch:
    """Referee for ``counting_batch``: each column is one
    ``int.from_bytes`` of its repeated ``2^(q+1)``-row byte pattern."""
    rows = 1 << len(qubits)
    batch = em.Batch.zeros(c, rows)
    size = (rows + 7) // 8
    for q, qubit in enumerate(qubits):
        if q < 3:
            unit = bytes([_LOW_COUNTS[q]])
        else:
            unit = bytes(1 << q - 3) + b"\xff" * (1 << q - 3)
        col = int.from_bytes(unit * (size // len(unit)), "little")
        batch.cols[qubit] = col & (1 << rows) - 1 if rows < 8 else col
    return batch
