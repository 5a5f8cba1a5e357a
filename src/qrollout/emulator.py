"""Bit-level emulation of permutation circuits on computational basis states.

A basis state assigns one bit per circuit qubit.  States run bit-sliced on a
:class:`Batch`: one Python int per qubit holds that qubit's bit for every
input row, so one AND per control and one XOR per target apply a gate to all
rows at once (Biham, "A fast new DES implementation in software", FSE 1997).
A single state is a one-row batch.  Circuits of any width emulate exactly.
:func:`apply_batch` walks the circuit's op tape, never its flat gate table:
each distinct fragment is compiled once into gate ops (a CX, a CCX, a gate
with one positive and one negative control, or any other gate), and one
loop runs them gate by gate, on the columns for a chunk and on the gathered
columns of a replay's qubit map.
Values meet columns in one pair, :func:`write_qubits` and
:func:`read_qubits`: bit ``k`` of a row's value is the ``k``-th qubit of a
qubit list, and a register is the list of its qubits.
Every basis state of ``k`` qubits is one batch of counting columns
(:func:`counting_batch`), built without encoding a row.

Bijectivity is checked by a round trip: apply the circuit, then its
inverse, and demand that every input column comes back.  That is exact, not
a sample: the round trip restores every input only if the circuit is
injective on them.  Conversely, every gate of a table whose controls precede
its targets is either an involution or not injective (a target that is also
a control), so on all ``2^n`` inputs the round trip fails only if the
circuit is not a permutation.  Rows are decoded only to name a colliding
pair once the round trip has failed.

Seeded inputs have one definition, :class:`InputDistribution`: the classical
sampler, branchwise checks and the circuit MC all draw from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt

import numpy as np

from .circuit import OP_CCX, OP_CX, OP_PNX, Circuit, invert

DEFAULT_EXACT_BUDGET = 1 << 24


class EmulationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# bit-sliced batches

@dataclass
class Batch:
    """Basis states of ``rows`` inputs, bit-sliced: bit ``r`` of ``cols[q]``
    is qubit ``q`` of row ``r``, and a column has no bit at or above
    ``rows``."""

    rows: int
    cols: list[int]

    @classmethod
    def zeros(cls, c: Circuit, rows: int) -> "Batch":
        return cls(rows, [0] * c.total_qubits)

    def copy(self) -> "Batch":
        return Batch(self.rows, list(self.cols))

    def row(self, r: int) -> "Batch":
        """The one-row batch holding row ``r``."""
        return Batch(1, [(col >> r) & 1 for col in self.cols])


def apply_batch(c: Circuit, batch: Batch) -> Batch:
    """Apply the circuit to every row of a batch, in place, walking its op
    tape: a chunk runs its gate ops on the columns, and a replay gathers
    the columns of its qubit map, runs the fragment's gate ops on them
    (reversed for an inverse replay) and scatters them back.  A column
    with a bit at or above ``batch.rows`` raises :class:`EmulationError`."""
    cols = batch.cols
    if len(cols) != c.total_qubits:
        raise EmulationError("batch width does not match circuit")
    full = (1 << batch.rows) - 1
    if cols and not 0 <= min(cols) <= max(cols) <= full:
        raise EmulationError(f"a column holds bits outside the batch's "
                             f"{batch.rows} rows")
    for frag, qmap, reverse in c._tape:
        ops = frag.gate_ops()
        if reverse:
            ops = reversed(ops)
        if qmap is None:
            _run(ops, cols, full)
        else:
            local = [cols[q] for q in qmap]
            _run(ops, local, full)
            for q, col in zip(qmap, local):
                cols[q] = col
    return batch


def _run(ops, cols: list[int], full: int) -> None:
    """The one emulation loop: gate ops (see ``_Fragment.gate_ops``) on
    columns that hold no bit above ``full``, in place; the kinds are
    tested most frequent first.  A clear control is read as ``full ^ col``:
    ``~col`` is negative, and a wide negative int costs several times more
    in an AND."""
    for k, a, b, t in ops:
        if k == OP_CX:
            cols[t] ^= cols[a]
        elif k == OP_CCX:
            cols[t] ^= cols[a] & cols[b]
        elif k == OP_PNX:
            cols[t] ^= cols[a] & (full ^ cols[b])
        else:
            s = full
            for q in a:
                s &= cols[q]
            for q in b:
                s &= full ^ cols[q]
            for q in t:
                cols[q] ^= s


# ---------------------------------------------------------------------------
# register codec: values meet columns only in write_qubits and read_qubits

def _pack(bits: np.ndarray) -> int:
    """One column from a uint8 0/1 value per row."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


def _unpack(col: int, rows: int) -> np.ndarray:
    """A column's uint8 0/1 value per row."""
    raw = np.frombuffer(col.to_bytes((rows + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=rows, bitorder="little")


def write_qubits(batch: Batch, qubits, values) -> None:
    """Write a value into ``qubits`` of every row, in place: bit ``k`` of a
    row's value goes to ``qubits[k]``.  ``values`` is one value per row, or
    a scalar written to every row, each in ``[0, 2^len(qubits))``; unlike
    :func:`write_register`, nothing is checked."""
    if np.ndim(values) == 0:
        value, full = int(values), (1 << batch.rows) - 1
        for k, q in enumerate(qubits):
            batch.cols[q] = full if (value >> k) & 1 else 0
        return
    # the narrowest unsigned type keeps the low bits and makes each
    # per-bit pass touch fewer bytes.  Python ints carry 64 bits and more:
    # numpy reads a list mixing ints above and below 2^63 as float64.
    width = len(qubits)
    values = (np.asarray(values).astype(np.min_scalar_type((1 << width) - 1))
              if width < 64 else np.array(values, dtype=object))
    for k, q in enumerate(qubits):
        batch.cols[q] = _pack(((values >> k) & 1).astype(np.uint8,
                                                         copy=False))


def read_qubits(batch: Batch, qubits) -> np.ndarray:
    """The value of ``qubits`` in every row, bit ``k`` from ``qubits[k]``:
    an int64 array up to 63 qubits, an object array of Python ints
    above."""
    width = len(qubits)
    dtype = np.min_scalar_type((1 << width) - 1) if width < 64 else object
    out = np.zeros(batch.rows, dtype=dtype)
    for k, q in enumerate(qubits):
        out |= _unpack(batch.cols[q], batch.rows).astype(dtype) << k
    return out.astype(np.int64) if width < 64 else out


# byte ``q`` holds bit ``q`` of each of its eight row indices
_LOW_COUNTS = (0xAA, 0xCC, 0xF0)


def counting_batch(c: Circuit, qubits) -> Batch:
    """Every basis state of ``qubits`` once, in index order: ``2^k`` rows
    for ``k`` qubits, where bit ``r`` of the column of ``qubits[q]`` is bit
    ``q`` of ``r``; the other qubits are 0.  Column ``q`` repeats a
    ``2^(q+1)``-row pattern, so each is one ``int.from_bytes`` of a
    repeated byte string."""
    rows = 1 << len(qubits)
    batch = Batch.zeros(c, rows)
    size = (rows + 7) // 8
    for q, qubit in enumerate(qubits):
        if q < 3:
            unit = bytes([_LOW_COUNTS[q]])
        else:
            unit = bytes(1 << q - 3) + b"\xff" * (1 << q - 3)
        col = int.from_bytes(unit * (size // len(unit)), "little")
        batch.cols[qubit] = col & (1 << rows) - 1 if rows < 8 else col
    return batch


def write_register(batch: Batch, c: Circuit, name: str, values) -> None:
    """Write a register's value into every row of a batch, in place.

    ``values`` is one non-negative value per row, or a scalar written to
    every row; each value must fit the register width.  Registers up to 63
    bits take int64 values; wider ones take Python ints.  A value that does
    not fit, or a value count other than ``batch.rows``, raises
    :class:`EmulationError`.
    """
    qubits = c.register(name)
    width = len(qubits)
    try:
        values = np.asarray(values, dtype=np.int64 if width < 64 else object)
    except OverflowError:
        raise EmulationError(f"register {name!r}: value does not fit "
                             f"{width} bits") from None
    if values.ndim and values.shape != (batch.rows,):
        raise EmulationError(f"register {name!r}: {values.size} values for "
                             f"{batch.rows} rows")
    if values.size:
        low, high = values.min(), values.max()
        if low < 0 or high >> width:
            raise EmulationError(f"register {name!r}: value "
                                 f"{low if low < 0 else high} does not fit "
                                 f"{width} bits")
    write_qubits(batch, qubits, values)


def read_register(batch: Batch, c: Circuit, name: str) -> np.ndarray:
    """A register's value in every row of a batch: an int64 array for
    registers up to 63 bits, an object array of Python ints above."""
    return read_qubits(batch, c.register(name))


# ---------------------------------------------------------------------------
# input distributions

class InputDistribution:
    """The seeded input law: fixed registers plus uniform fields.

    A ``uniform`` value is either ``D``, the whole register being one field
    uniform on the faces {0..D-1}, or ``(D, width)``: consecutive
    ``width``-bit fields, low field first, each uniform on D faces.  A
    per-field register needs its total width in ``widths``, so that the
    field count is known without a circuit.  Registers not mentioned are
    fixed at 0, and no field ever receives a value at or above its D
    (valid-face guarantee).

    Fields are ordered by register name, then low field first; every draw
    and enumeration uses that order.
    """

    def __init__(self, fixed: dict[str, int] | None = None,
                 uniform: dict[str, int | tuple[int, int]] | None = None,
                 widths: dict[str, int] | None = None):
        self.fixed = dict(fixed or {})
        self.uniform = dict(uniform or {})
        self.widths = dict(widths or {})
        overlap = set(self.fixed) & set(self.uniform)
        if overlap:
            raise EmulationError(f"registers both fixed and uniform: {overlap}")
        # (register, faces, low bit, field width or None for the whole)
        self.fields: list[tuple[str, int, int, int | None]] = []
        for name, law in sorted(self.uniform.items()):
            d, width = law if isinstance(law, tuple) else (law, None)
            if d < 1:
                raise EmulationError(f"uniform register {name!r}: D must be >= 1")
            if d > 1 << 63:
                raise EmulationError(f"uniform register {name!r}: D must be "
                                     f"at most 2^63")
            if width is None:
                self.fields.append((name, d, 0, None))
                continue
            total = self.widths.get(name)
            if width < 1 or total is None or total % width:
                raise EmulationError(f"uniform register {name!r}: {width}-bit "
                                     f"fields need a register width in "
                                     f"widths that they tile")
            if d > 1 << width:
                raise EmulationError(f"D={d} exceeds 2^width for {name!r}")
            self.fields += [(name, d, lo, width)
                            for lo in range(0, total, width)]

    def validate(self, c: Circuit) -> None:
        for name, val in self.fixed.items():
            w = len(c.register(name))
            if not 0 <= val < (1 << w):
                raise EmulationError(f"fixed value for {name!r} overflows width {w}")
        for name, d, _, width in self.fields:
            w = len(c.register(name))
            if width is None and d > 1 << w:
                raise EmulationError(f"D={d} exceeds 2^width for {name!r}")
            if width is not None and self.widths[name] != w:
                raise EmulationError(f"register {name!r} has width {w}, the "
                                     f"law says {self.widths[name]}")

    def support_size(self, c: Circuit) -> int:
        self.validate(c)
        return prod(d for _, d, _, _ in self.fields)

    def batch(self, c: Circuit, faces: np.ndarray) -> Batch:
        """The inputs that a ``(rows, fields)`` face array stands for: the
        fixed values, and each face written into its field.  The circuit
        is not validated against the law."""
        batch = Batch.zeros(c, faces.shape[0])
        for name, val in self.fixed.items():
            write_register(batch, c, name, val)
        for f, (name, d, lo, _) in enumerate(self.fields):
            # a face is below D, so the field's higher qubits stay 0
            qubits = c.register(name)[lo:lo + (d - 1).bit_length()]
            write_qubits(batch, qubits, faces[:, f])
        return batch

    def enumerate_chunks(self, c: Circuit, chunk: int = 1 << 16):
        """Batches covering the whole support, in index order."""
        return self._chunks(c, self.support_size(c), chunk)

    def _chunks(self, c: Circuit, total: int, chunk: int):
        # mixed radix: the first field varies fastest
        for start in range(0, total, chunk):
            rem = np.arange(start, min(start + chunk, total), dtype=np.int64)
            faces = np.empty((rem.size, len(self.fields)), dtype=np.int64)
            for f, (_, d, _, _) in enumerate(self.fields):
                rem, faces[:, f] = np.divmod(rem, d)
            yield self.batch(c, faces)

    def faces(self, words: np.ndarray) -> np.ndarray:
        """Map ``(rows, fields)`` uint64 words to faces, ``(u * D) >> 64``
        per field, exactly."""
        d = [d for _, d, _, _ in self.fields]
        if max(d, default=1) > 1 << 32:
            return np.array([[(u * x) >> 64 for u, x in zip(row, d)]
                             for row in words.tolist()],
                            dtype=np.int64).reshape(words.shape)
        # u*D from the 32-bit halves of u: each partial product fits uint64.
        # In place, so a call holds two arrays beside ``words``; a face
        # below D <= 2^32 reads the same as int64.
        dd, half = np.array(d, dtype=np.uint64), np.uint64(32)
        low = words & np.uint64(0xFFFFFFFF)
        low *= dd
        low >>= half
        out = words >> half
        out *= dd
        out += low
        out >>= half
        return out.view(np.int64)

    def _draw(self, bits: np.random.Philox, rows: int) -> np.ndarray:
        n = len(self.fields)
        return self.faces(bits.random_raw(rows * n).reshape(rows, n))

    def draw(self, shots: int, seed: int) -> np.ndarray:
        """Seeded faces, one row per shot: a ``(shots, fields)`` int64 array.

        Word ``shot * fields + f`` of the Philox stream keyed by ``seed``
        decides field ``f`` of that shot, so ``draw(k, s)`` equals the
        first ``k`` rows of ``draw(n, s)``.
        """
        return self._draw(_philox(seed), shots)

    def draw_chunks(self, shots: int, seed: int, chunk: int = 4096):
        """``draw(shots, seed)`` as consecutive arrays of at most ``chunk``
        rows, so a sampler's memory is bounded by one chunk."""
        bits = _philox(seed)
        for start in range(0, shots, chunk):
            yield self._draw(bits, min(chunk, shots - start))

    def draw_each(self, seeds) -> np.ndarray:
        """One row per seed: row ``r`` equals ``draw(1, seeds[r])[0]``; the
        words of all seeds map to faces in one pass.  One bit generator
        serves every seed: its key and counter are reset through ``state``,
        which skips the entropy draw of a new ``Philox``."""
        n = len(self.fields)
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
        return self.faces(words)

    def sample(self, c: Circuit, shots: int, seed: int) -> Batch:
        """Seeded sample of ``shots`` inputs as a batch: the inputs of
        ``draw(shots, seed)``, so equal arguments give equal batches and a
        smaller sample is a prefix of a larger one."""
        self.validate(c)
        return self.batch(c, self.draw(shots, seed))


def _philox(seed: int) -> np.random.Philox:
    return np.random.Philox(key=int(seed) & (2**64 - 1))


# ---------------------------------------------------------------------------
# checks

@dataclass(frozen=True)
class BijectiveReport:
    passed: bool
    mode: str
    counterexample: tuple[int, int] | None = None  # two inputs, same output

    def __bool__(self):
        return self.passed


def first_row(col: int) -> int:
    """The first row a nonzero column flags: its lowest set bit."""
    return (col & -col).bit_length() - 1


def flagged_rows(batch: Batch, qubits, want: Batch | None = None) -> int:
    """The rows of a batch that have a 1 on any of ``qubits`` or, given
    ``want``, differ from ``want`` there: bit ``r`` is set iff row ``r`` is
    flagged."""
    flags = 0
    for q in qubits:
        flags |= batch.cols[q] if want is None else batch.cols[q] ^ want.cols[q]
    return flags


def _round_trip(c: Circuit, batch: Batch) -> int:
    """Apply ``c`` and then ``invert(c)`` to a batch, in place: the rows
    that did not come back, as :func:`flagged_rows` flags them."""
    inputs = batch.copy()
    apply_batch(invert(c), apply_batch(c, batch))
    return flagged_rows(batch, range(c.total_qubits), inputs)


def check_bijective(c: Circuit, samples: int = 100_000, seed: int = 7,
                    exhaustive_limit: int = 20) -> BijectiveReport:
    """Whether the circuit permutes its basis states, by a round trip.

    Circuits of at most ``exhaustive_limit`` qubits run on all ``2^n``
    basis states (``exhaustive``), wider ones on ``samples`` seeded random
    states (``sampled``: column ``q`` is the ``q``-th draw of
    ``ceil(samples / 8)`` bytes from the Philox stream of ``seed``, cut to
    ``samples`` rows).  Both apply ``c`` and then ``invert(c)`` and pass
    iff every input column comes back.  On all inputs that is exact (see
    the module docstring): a restored round trip makes the circuit
    injective, and a failed one is decided by decoding and counting the
    outputs, which names the least output that two inputs reach and the
    first two inputs that reach it.  A sampled failure names the first row
    that did not come back, in draw order, as ``(row, row)``.

    Two applies replace one apply and a decode of ``n`` columns of ``2^n``
    rows, so the round trip costs more than the decode only for circuits
    of about 50 gates per qubit or more (random three-qubit gates of mixed
    polarity at ``2^20`` rows).  The circuits of at most 20 qubits that
    this package builds have at most 10 (``build_scan(7)``, 19 qubits).

    ``samples`` below 1, and an exhaustive run of more than
    ``DEFAULT_EXACT_BUDGET`` rows, raise :class:`EmulationError` before
    anything is allocated.
    """
    n = c.total_qubits
    if samples < 1:
        raise EmulationError(f"samples must be >= 1, got {samples}")
    if n <= exhaustive_limit:
        if 1 << n > DEFAULT_EXACT_BUDGET:
            raise EmulationError(
                f"exhaustive check of 2^{n} inputs exceeds budget "
                f"{DEFAULT_EXACT_BUDGET}; lower exhaustive_limit")
        qubits = range(n)
        if not _round_trip(c, counting_batch(c, qubits)):
            return BijectiveReport(True, "exhaustive")
        # row i is basis state i
        outs = read_qubits(apply_batch(c, counting_batch(c, qubits)), qubits)
        counts = np.bincount(outs, minlength=1 << n)
        if counts.max() <= 1:
            return BijectiveReport(True, "exhaustive")
        dup = int(np.argmax(counts > 1))
        pre = np.nonzero(outs == dup)[0][:2]
        return BijectiveReport(False, "exhaustive", (int(pre[0]), int(pre[1])))
    rng = np.random.Generator(_philox(seed))
    size, rows = (samples + 7) // 8, (1 << samples) - 1
    bad = _round_trip(c, Batch(samples, [
        int.from_bytes(rng.bytes(size), "little") & rows for _ in range(n)]))
    if bad:
        row = first_row(bad)
        return BijectiveReport(False, "sampled", (row, row))
    return BijectiveReport(True, "sampled")


@dataclass(frozen=True)
class CleanReport:
    passed: bool
    witness_input: dict[str, int] | None = None
    dirty_register: str | None = None

    def __bool__(self):
        return self.passed


def check_ancilla_clean(c: Circuit, dist: InputDistribution,
                        roles: tuple[str, ...] = ("ancilla", "rank"),
                        chunk: int = 1 << 16) -> CleanReport:
    """Every enumerated input must leave all ``roles`` registers at zero."""
    watch = [name for r in roles for name in c.registers_with_role(r)]
    for name in watch:
        if dist.fixed.get(name, 0) != 0 or name in dist.uniform:
            raise EmulationError(f"ancilla register {name!r} must be fixed to 0")
    for batch in dist.enumerate_chunks(c, chunk=chunk):
        inputs = batch.copy()
        apply_batch(c, batch)
        for name in watch:
            dirty = flagged_rows(batch, c.register(name))
            if dirty:
                row = inputs.row(first_row(dirty))
                witness = {r.name: int(read_register(row, c, r.name)[0])
                           for r in c.registers}
                return CleanReport(False, witness, name)
    return CleanReport(True)


# ---------------------------------------------------------------------------
# payoff probability

@dataclass(frozen=True)
class PayoffEstimate:
    probability: float
    mode: str
    shots: int = 0
    ci_low: float = 0.0
    ci_high: float = 0.0


def _payoff_qubit(c: Circuit) -> int:
    names = c.registers_with_role("payoff")
    if len(names) != 1 or len(c.register(names[0])) != 1:
        raise EmulationError("circuit must carry exactly one payoff qubit")
    return c.register(names[0])[0]


def payoff_probability(c: Circuit, dist: InputDistribution, mode: str = "exact",
                       shots: int = 10_000, seed: int = 0,
                       budget: int | None = None) -> PayoffEstimate:
    """|1>-fraction of the payoff qubit under the input distribution.

    ``exact`` enumerates the full support, which must not exceed ``budget``
    inputs (``DEFAULT_EXACT_BUDGET`` when not given); ``mc`` uses
    a seeded deterministic sampler and reports a 95% normal-approximation CI.
    """
    pq = _payoff_qubit(c)
    if mode == "exact":
        limit = DEFAULT_EXACT_BUDGET if budget is None else budget
        total = dist.support_size(c)
        if total > limit:
            raise EmulationError(
                f"exact enumeration of {total} inputs exceeds budget {limit}")
        ones = sum(apply_batch(c, batch).cols[pq].bit_count()
                   for batch in dist._chunks(c, total, 1 << 16))
        return PayoffEstimate(probability=ones / total, mode="exact")
    if mode == "mc":
        if shots < 1:
            raise EmulationError(f"shots must be >= 1, got {shots}")
        ones = apply_batch(c, dist.sample(c, shots, seed)).cols[pq].bit_count()
        p = ones / shots
        half = 1.96 * sqrt(p * (1.0 - p) / shots)
        return PayoffEstimate(probability=p, mode="mc", shots=shots,
                              ci_low=p - half, ci_high=p + half)
    raise EmulationError(f"unknown mode {mode!r}")
