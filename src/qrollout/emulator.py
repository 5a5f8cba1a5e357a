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
qubit list, and a register is the list of its qubits.  Both are one bit
transpose, in blocks of rows: values become uint8 bit planes that pack
into columns, and columns unpack into planes that pack into values, at
any width; :func:`write_qubits` takes many fields in one call.
Every basis state of ``k`` qubits is one batch of counting columns
(:func:`counting_batch`), each built by doubling, without encoding a row.

Bijectivity is checked by a round trip: apply the circuit, then its
inverse, and demand that every input column comes back.  That is exact, not
a sample: the round trip restores every input only if the circuit is
injective on them.  Conversely, every gate of a table whose controls precede
its targets is either an involution or not injective (a target that is also
a control), so on all ``2^n`` inputs the round trip fails only if the
circuit is not a permutation.  Rows are decoded only to name a colliding
pair once the round trip has failed.

Seeded inputs have one definition, :class:`InputDistribution`: the classical
sampler, branchwise checks and the circuit MC all draw from it.  Its
Philox4x64-10 words are a pure function of key and counter, so the words
of many seeds are computed at once (:meth:`InputDistribution.draw_each`).
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

# bytes of bit planes that one block of rows of a transpose holds at most
_PLANE_BYTES = 1 << 22


def _block_rows(planes: int) -> int:
    """Rows per block of a transpose of ``planes`` bit planes: a multiple
    of 8, so that the packed bytes of consecutive blocks abut."""
    return max(8, _PLANE_BYTES // max(planes, 1) & -8)


def _transpose(batch: Batch, fields, blocks) -> None:
    """Write ``(rows, fields)`` value blocks into the fields' qubits, in
    place: bit ``k`` of column ``f`` goes to ``fields[f][k]``.  The blocks
    hold consecutive rows, each a multiple of 8 rows but the last.

    Fields of one width share one pass: their values, narrowed and
    transposed, become ``(fields, width, rows)`` uint8 planes that are
    nonzero where the bit is set (an AND with ``1 << k`` up to 8 bits, a
    shift and an AND above).  Each block's ``(qubits, rows)`` plane matrix
    is packed in one call, and each column is one ``int.from_bytes`` of
    its packed row."""
    groups: dict[int, list[int]] = {}
    for f, qubits in enumerate(fields):
        if len(qubits):
            groups.setdefault(len(qubits), []).append(f)
    order = [q for fs in groups.values() for f in fs for q in fields[f]]
    # (fields, as a slice where they are consecutive, width, narrow dtype)
    plan = [(slice(fs[0], fs[-1] + 1) if fs[-1] - fs[0] == len(fs) - 1
             else fs, width, np.min_scalar_type((1 << width) - 1))
            for width, fs in groups.items()]
    packed = np.empty((len(order), (batch.rows + 7) // 8), dtype=np.uint8)
    start = 0
    for values in blocks:
        rows = len(values)
        planes = np.empty((len(order), rows), dtype=np.uint8)
        top = 0
        for fs, width, dtype in plan:
            narrow = values[:, fs].T.astype(dtype, order="C")
            g = len(narrow)
            out = planes[top:top + g * width].reshape(g, width, rows)
            bits = np.arange(width, dtype=dtype)[:, None]
            if width <= 8:
                np.bitwise_and(narrow[:, None], 1 << bits, out=out)
            else:
                np.right_shift(narrow[:, None], bits, out=out,
                               casting="unsafe")
                out &= 1
            top += g * width
        packed[:, start // 8:(start + rows + 7) // 8] = np.packbits(
            planes, axis=1, bitorder="little")
        start += rows
    for q, col in zip(order, packed):
        batch.cols[q] = int.from_bytes(col, "little")


def write_qubits(batch: Batch, qubits, values) -> None:
    """Write values into qubits of every row, in place, as one bit
    transpose.  ``qubits`` is a qubit list and ``values`` one value per
    row, or a scalar written to every row: bit ``k`` of a row's value goes
    to ``qubits[k]``.  Or ``qubits`` is a list of such fields and
    ``values`` a ``(rows, fields)`` integer array, column ``f`` going to
    field ``f``, each narrower than 64 qubits.  Values must fit their
    fields; unlike :func:`write_register`, nothing is checked.

    The transpose runs in blocks of rows whose bit planes hold at most
    ``_PLANE_BYTES``.  A field of 64 qubits or more takes Python ints,
    written as 64-qubit fields of their 64-bit limbs."""
    if np.ndim(values) == 0:
        value, full = int(values), (1 << batch.rows) - 1
        for k, q in enumerate(qubits):
            batch.cols[q] = full if (value >> k) & 1 else 0
        return
    if np.ndim(values) == 2:
        fields = qubits
    elif len(qubits) < 64:
        fields, values = [qubits], np.asarray(values)[:, None]
    else:
        limbs = (len(qubits) + 63) // 64
        raw = b"".join(int(v).to_bytes(8 * limbs, "little") for v in values)
        fields = [qubits[64 * j:64 * j + 64] for j in range(limbs)]
        values = np.frombuffer(raw, dtype="<u8").reshape(-1, limbs)
    step = _block_rows(sum(map(len, fields)))
    _transpose(batch, fields, (values[s:s + step]
                               for s in range(0, len(values), step)))


def read_qubits(batch: Batch, qubits) -> np.ndarray:
    """The value of ``qubits`` in every row, bit ``k`` from ``qubits[k]``:
    an int64 array up to 63 qubits, an object array of Python ints
    above.  The inverse transpose of :func:`write_qubits`: the columns'
    bytes unpack to bit planes, and packing the planes down the qubit axis
    gives each row's value, a byte per 8 qubits."""
    width, rows = len(qubits), batch.rows
    size = (rows + 7) // 8
    raw = np.frombuffer(b"".join(batch.cols[q].to_bytes(size, "little")
                                 for q in qubits),
                        dtype=np.uint8).reshape(width, size)
    # byte j of each row's value, one row per 8 qubits, padded to a limb
    limbs = max(1, (width + 63) // 64)
    value = np.zeros((rows, 8 * limbs), dtype=np.uint8)
    step = _block_rows(width)
    for s in range(0, rows, step):
        planes = np.unpackbits(raw[:, s // 8:(s + step) // 8], axis=1,
                               count=min(step, rows - s), bitorder="little")
        value[s:s + step, :(width + 7) // 8] = np.packbits(
            planes, axis=0, bitorder="little").T
    if width < 64:
        return value.view("<u8")[:, 0].astype(np.int64)
    out = np.empty(rows, dtype=object)
    out[:] = [int.from_bytes(v, "little") for v in value]
    return out


def counting_batch(c: Circuit, qubits) -> Batch:
    """Every basis state of ``qubits`` once, in index order: ``2^k`` rows
    for ``k`` qubits, where bit ``r`` of the column of ``qubits[q]`` is bit
    ``q`` of ``r``; the other qubits are 0.  Column ``q`` repeats a
    ``2^(q+1)``-row period, ``2^q`` zeros and then ``2^q`` ones, so it is
    built by doubling: each shift-or appends a copy of what is there."""
    rows = 1 << len(qubits)
    batch = Batch.zeros(c, rows)
    for q, qubit in enumerate(qubits):
        span = 2 << q
        col = ((1 << (1 << q)) - 1) << (1 << q)
        while span < rows:
            col |= col << span
            span <<= 1
        batch.cols[qubit] = col
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
        # the D of every field, for faces()
        self._d = np.array([d for _, d, _, _ in self.fields],
                           dtype=np.uint64)

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
        fixed values, and each face written into its field, all fields in
        one :func:`write_qubits`.  The circuit is not validated against the
        law."""
        batch = self._fixed(c, faces.shape[0])
        write_qubits(batch, self._qubits(c), faces)
        return batch

    def _fixed(self, c: Circuit, rows: int) -> Batch:
        batch = Batch.zeros(c, rows)
        for name, val in self.fixed.items():
            write_register(batch, c, name, val)
        return batch

    def _qubits(self, c: Circuit) -> list:
        # a face is below D, so the field's higher qubits stay 0
        return [c.register(name)[lo:lo + (d - 1).bit_length()]
                for name, d, lo, _ in self.fields]

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
        dd, half = self._d, np.uint64(32)
        if dd.size and dd.max() > 1 << 32:
            d = dd.tolist()
            return np.array([[(u * x) >> 64 for u, x in zip(row, d)]
                             for row in words.tolist()],
                            dtype=np.int64).reshape(words.shape)
        # u*D from the 32-bit halves of u: each partial product fits uint64.
        # In place, so a call holds two arrays beside ``words``; a face
        # below D <= 2^32 reads the same as int64.
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

    def draw_chunks(self, shots: int, seed: int, chunk: int = 4096):
        """Seeded faces, one row per shot, as consecutive ``(rows,
        fields)`` int64 arrays of at most ``chunk`` rows, so a sampler's
        memory is bounded by one chunk.

        Word ``shot * fields + f`` of the Philox stream keyed by ``seed``
        decides field ``f`` of that shot, so the first ``k`` shots of a
        draw are the same for any ``shots`` and ``chunk``.
        """
        bits = _philox(seed)
        for start in range(0, shots, chunk):
            yield self._draw(bits, min(chunk, shots - start))

    def draw_each(self, seeds) -> np.ndarray:
        """One row per seed: row ``r`` is shot 0 of the draw at
        ``seeds[r]`` (see :meth:`draw_chunks`).  The Philox words of all
        seeds are computed at once (:func:`_philox_words`) and map to faces
        in one pass."""
        return self.faces(_philox_words(seeds, len(self.fields)))

    def sample(self, c: Circuit, shots: int, seed: int) -> Batch:
        """Seeded sample of ``shots`` inputs as a batch: the inputs of
        ``draw_chunks(shots, seed)``, so equal arguments give equal batches
        and a smaller sample is a prefix of a larger one.  The faces are
        drawn and written in blocks of rows (see :func:`write_qubits`), so
        no ``(shots, fields)`` array is held."""
        self.validate(c)
        batch = self._fixed(c, shots)
        fields = self._qubits(c)
        # a block's words, faces and the one temporary of faces() take
        # 8 bytes a field each
        step = _block_rows(max(24 * len(fields), sum(map(len, fields))))
        _transpose(batch, fields, self.draw_chunks(shots, seed, chunk=step))
        return batch


def _philox(seed: int) -> np.random.Philox:
    return np.random.Philox(key=int(seed) & (2**64 - 1))


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): the round multipliers and the key bumps, as numpy's Philox
_M32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_MUL = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                 dtype=np.uint64).reshape(2, 1, 1)


def _mulhilo(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of each 128-bit product ``x * m``, from the
    32-bit halves; ``x`` is overwritten."""
    mlo, mhi = m & _M32, m >> _S32
    xh = x >> _S32
    lo = x * m
    x &= _M32
    t = x * mlo
    t >>= _S32
    u = xh * mlo
    u += t                         # xh*mlo + carry: below 2^64
    x *= mhi
    np.bitwise_and(u, _M32, out=t)
    x += t                         # xl*mhi + low half of u: below 2^64
    xh *= mhi
    u >>= _S32
    xh += u
    x >>= _S32
    xh += x
    return xh, lo


def _philox_words(seeds, n: int) -> np.ndarray:
    """The first ``n`` words of the Philox stream of every seed, a
    ``(seeds, n)`` uint64 array whose row ``r`` equals
    ``np.random.Philox(key=seeds[r] mod 2^64).random_raw(n)``: block ``b``
    (counter ``(b, 0, 0, 0)``, ``b`` from 1, key ``(seed, 0)``) gives words
    ``4(b-1)`` to ``4b-1``.  Each word is a pure function of key and
    counter, so every seed runs at once.  Round 1 depends on the block
    alone, and round 2 on the seed's key and the block apart, so the
    ``(seeds, blocks)`` arrays start at round 3.  The key bumps stay in
    arrays, where uint64 wraps without a warning."""
    k = np.array([int(s) & (2**64 - 1) for s in seeds], dtype=np.uint64)
    key = np.zeros((2, k.size, 1), dtype=np.uint64)
    key[0, :, 0] = k
    blocks = np.arange(1, (n + 3) // 4 + 1, dtype=np.uint64)
    # round 1 on counter (b, 0, 0, 0), key (k, 0): (k, 0, hi, lo) of M0*b
    hi0, lo0 = _mulhilo(blocks, _MUL[:1])
    # round 2: M0 * k per seed, M1 * hi0 per block
    hi_k, lo_k = _mulhilo(k, _MUL[:1])
    hi_b, lo_b = _mulhilo(hi0, _MUL[1:])
    key += _BUMP
    # the state as two (2, seeds, blocks) arrays: words 0 and 2, 1 and 3
    x = np.empty((2, k.size, blocks.size), dtype=np.uint64)
    y = np.empty_like(x)
    np.bitwise_xor(hi_b, key[0], out=x[0])
    np.bitwise_xor(hi_k[:, None], lo0, out=x[1])
    x[1] ^= key[1]
    y[0] = lo_b
    y[1] = lo_k[:, None]
    mul = _MUL.reshape(2, 1, 1)
    for _ in range(8):
        key += _BUMP
        hi, lo = _mulhilo(x, mul)
        y ^= hi[::-1]
        y ^= key
        x, y = y, lo[::-1]
    out = np.stack([x[0], y[0], x[1], y[1]], axis=-1)
    return out.reshape(k.size, 4 * blocks.size)[:, :n]


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
    that did not come back, as :func:`flagged_rows` flags them.  Equal
    column lists are compared first, so rows are flagged only after a
    mismatch."""
    inputs = batch.copy()
    apply_batch(invert(c), apply_batch(c, batch))
    if batch.cols == inputs.cols:
        return 0
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
