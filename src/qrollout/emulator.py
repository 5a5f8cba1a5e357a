"""Bit-level emulation of permutation circuits on computational basis states.

A basis state assigns one bit per circuit qubit.  Single states are carried
as arbitrary-precision integers (bit i = qubit i), so circuits of any width
emulate exactly.  Sweeps (bijectivity, ancilla cleanness, payoff estimation)
run on a numpy bit matrix with one row per input, which keeps exhaustive
checks at 2^20 states in the seconds range.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .circuit import Circuit, invert

DEFAULT_EXACT_BUDGET = 1 << 24


class EmulationError(ValueError):
    pass


def _compiled(c: Circuit):
    """Per-gate (positive mask, negative mask, target mask) integers."""
    tag = "masks"
    if tag not in c._cache:
        triples = []
        for g in c.gates:
            pos = neg = tgt = 0
            for q, pol in g.controls:
                if pol:
                    pos |= 1 << q
                else:
                    neg |= 1 << q
            for t in g.targets:
                tgt |= 1 << t
            triples.append((pos, neg, tgt))
        c._cache[tag] = triples
    return c._cache[tag]


def apply_int(c: Circuit, x: int) -> int:
    """Apply the circuit to a basis state packed as an integer."""
    for pos, neg, tgt in _compiled(c):
        if (x & pos) == pos and (x & neg) == 0:
            x ^= tgt
    return x


def apply_bits(c: Circuit, bits: np.ndarray) -> np.ndarray:
    """Apply the circuit to a (rows, total_qubits) uint8 bit matrix in place."""
    rows, n = bits.shape
    if n != c.total_qubits:
        raise EmulationError("bit-matrix width mismatch")
    for g in c.gates:
        if g.controls:
            q0, p0 = g.controls[0]
            sat = bits[:, q0] == 1 if p0 else bits[:, q0] == 0
            for q, pol in g.controls[1:]:
                sat &= (bits[:, q] == 1) if pol else (bits[:, q] == 0)
            for t in g.targets:
                bits[sat, t] ^= 1
        else:
            for t in g.targets:
                bits[:, t] ^= 1
    return bits


@dataclass(frozen=True)
class BasisState:
    """A full bit assignment to all circuit qubits, packed LSB-first."""

    width: int
    value: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.width):
            raise EmulationError("state value does not fit width")

    @classmethod
    def from_registers(cls, c: Circuit, values: dict[str, int]) -> "BasisState":
        v = 0
        for name, val in values.items():
            qubits = c.register(name)
            if not 0 <= val < (1 << len(qubits)):
                raise EmulationError(f"value {val} too wide for register {name!r}")
            v |= val << qubits[0]
        return cls(c.total_qubits, v)

    def register_value(self, c: Circuit, name: str) -> int:
        qubits = c.register(name)
        return (self.value >> qubits[0]) & ((1 << len(qubits)) - 1)

    def bits(self) -> list[int]:
        return [(self.value >> i) & 1 for i in range(self.width)]


def apply(c: Circuit, b: BasisState) -> BasisState:
    if b.width != c.total_qubits:
        raise EmulationError("basis state width does not match circuit")
    return BasisState(b.width, apply_int(c, b.value))


# ---------------------------------------------------------------------------
# register codec: a register is a contiguous column range of a bit matrix

_LIMB = 63      # widest register that fits one int64 value


def _columns(bits: np.ndarray, c: Circuit, name: str) -> np.ndarray:
    qubits = c.register(name)
    return bits[:, qubits[0]:qubits[0] + len(qubits)]


def _write_int64(cols: np.ndarray, values: np.ndarray) -> None:
    for k in range(cols.shape[1]):
        cols[:, k] = (values >> k) & 1


def _read_int64(cols: np.ndarray) -> np.ndarray:
    out = np.zeros(cols.shape[0], dtype=np.int64)
    for k in range(cols.shape[1]):
        out |= cols[:, k].astype(np.int64) << k
    return out


def write_register(bits: np.ndarray, c: Circuit, name: str, values) -> None:
    """Write a register's value into every row of a (rows, total_qubits) bit
    matrix, in place.

    ``values`` is one non-negative value per row, or a scalar written to
    every row; each value must fit the register width.  Registers up to 63
    bits take int64 values; wider ones take Python ints.
    """
    cols = _columns(bits, c, name)
    width = cols.shape[1]
    if width <= _LIMB:
        _write_int64(cols, np.asarray(values, dtype=np.int64))
        return
    values = np.asarray(values, dtype=object)
    for lo in range(0, width, _LIMB):
        limb = (values >> lo) & ((1 << _LIMB) - 1)
        _write_int64(cols[:, lo:lo + _LIMB], np.asarray(limb, dtype=np.int64))


def read_register(bits: np.ndarray, c: Circuit, name: str) -> np.ndarray:
    """A register's value in every row of a bit matrix: an int64 array for
    registers up to 63 bits, an object array of Python ints above."""
    cols = _columns(bits, c, name)
    width = cols.shape[1]
    if width <= _LIMB:
        return _read_int64(cols)
    out = np.zeros(cols.shape[0], dtype=object)
    for lo in range(0, width, _LIMB):
        out |= _read_int64(cols[:, lo:lo + _LIMB]).astype(object) << lo
    return out


# ---------------------------------------------------------------------------
# input distributions

class InputDistribution:
    """Per-register input spec: fixed value or uniform over faces {0..D-1}.

    Registers not mentioned default to fixed 0.  A uniform register with
    D < 2^width never receives an input at or above D (valid-face guarantee).
    """

    def __init__(self, fixed: dict[str, int] | None = None,
                 uniform: dict[str, int] | None = None):
        self.fixed = dict(fixed or {})
        self.uniform = dict(uniform or {})
        overlap = set(self.fixed) & set(self.uniform)
        if overlap:
            raise EmulationError(f"registers both fixed and uniform: {overlap}")
        for name, d in self.uniform.items():
            if d < 1:
                raise EmulationError(f"uniform register {name!r}: D must be >= 1")

    def validate(self, c: Circuit) -> None:
        for name, val in self.fixed.items():
            w = len(c.register(name))
            if not 0 <= val < (1 << w):
                raise EmulationError(f"fixed value for {name!r} overflows width {w}")
        for name, d in self.uniform.items():
            w = len(c.register(name))
            if d > (1 << w):
                raise EmulationError(f"D={d} exceeds 2^width for {name!r}")

    def support_size(self, c: Circuit) -> int:
        self.validate(c)
        total = 1
        for _, d in self.uniform.items():
            total *= d
        return total

    def _base_bits(self, c: Circuit, rows: int) -> np.ndarray:
        bits = np.zeros((rows, c.total_qubits), dtype=np.uint8)
        for name, val in self.fixed.items():
            write_register(bits, c, name, val)
        return bits

    def enumerate_chunks(self, c: Circuit, chunk: int = 1 << 16):
        """Yield bit matrices covering the whole support, in index order."""
        self.validate(c)
        total = self.support_size(c)
        start = 0
        while start < total:
            rows = min(chunk, total - start)
            bits = self._base_bits(c, rows)
            rem = np.arange(start, start + rows, dtype=np.int64)
            for name, d in sorted(self.uniform.items()):
                rem, vals = np.divmod(rem, d)
                write_register(bits, c, name, vals)
            yield bits
            start += rows

    def sample(self, c: Circuit, shots: int, seed: int) -> np.ndarray:
        """Seeded sample of ``shots`` inputs as a bit matrix.

        One Philox generator keyed by ``seed`` draws all shots of each
        uniform register in turn (registers in name order), so equal
        arguments give equal matrices.  The draws are not per shot: with two
        or more uniform registers, the first ``k`` rows of a larger sample
        differ from a sample of ``k`` shots.
        """
        self.validate(c)
        bits = self._base_bits(c, shots)
        rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))
        for name, d in sorted(self.uniform.items()):
            write_register(bits, c, name,
                           rng.integers(0, d, size=shots, dtype=np.int64))
        return bits


# ---------------------------------------------------------------------------
# checks

@dataclass(frozen=True)
class BijectiveReport:
    passed: bool
    mode: str
    counterexample: tuple[int, int] | None = None  # two inputs, same output

    def __bool__(self):
        return self.passed


def check_bijective(c: Circuit, samples: int = 100_000, seed: int = 7,
                    exhaustive_limit: int = 20) -> BijectiveReport:
    """Exhaustive permutation check (<= exhaustive_limit qubits) or sampled
    injectivity plus invert round-trip."""
    n = c.total_qubits
    if n <= exhaustive_limit:
        # row i is basis state i: each register holds its slice of i
        rows = 1 << n
        bits = np.empty((rows, n), dtype=np.uint8)
        for reg in c.registers:
            lo = c.register(reg.name)[0]
            write_register(bits, c, reg.name,
                           (np.arange(rows, dtype=np.int64) >> lo)
                           & ((1 << reg.width) - 1))
        apply_bits(c, bits)
        outs = np.zeros(rows, dtype=np.int64)
        for reg in c.registers:
            outs |= read_register(bits, c, reg.name) << c.register(reg.name)[0]
        counts = np.bincount(outs, minlength=rows)
        if counts.max() <= 1:
            return BijectiveReport(True, "exhaustive")
        dup = int(np.argmax(counts > 1))
        pre = np.nonzero(outs == dup)[0][:2]
        return BijectiveReport(False, "exhaustive", (int(pre[0]), int(pre[1])))
    # sampled mode: distinct random inputs must map to distinct outputs,
    # and invert() must round-trip every sampled input.
    rng = np.random.Generator(np.random.Philox(key=seed))
    bits = rng.integers(0, 2, size=(samples, n), dtype=np.uint8)
    bits = np.unique(bits, axis=0)
    inputs = bits.copy()
    outs = apply_bits(c, bits)
    uniq = np.unique(outs, axis=0)
    if uniq.shape[0] != outs.shape[0]:
        return BijectiveReport(False, "sampled", None)
    back = apply_bits(invert(c), outs)
    if not np.array_equal(back, inputs):
        bad = int(np.nonzero((back != inputs).any(axis=1))[0][0])
        return BijectiveReport(False, "sampled", (bad, bad))
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
    cols = {name: list(c.register(name)) for name in watch}
    for bits in dist.enumerate_chunks(c, chunk=chunk):
        inputs = bits.copy()
        outs = apply_bits(c, bits)
        for name, qs in cols.items():
            dirty = outs[:, qs].any(axis=1)
            if dirty.any():
                row = int(np.nonzero(dirty)[0][0])
                witness = {r.name: int(read_register(
                               inputs[row:row + 1], c, r.name)[0])
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

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0


def _payoff_qubit(c: Circuit) -> int:
    names = c.registers_with_role("payoff")
    if len(names) != 1 or len(c.register(names[0])) != 1:
        raise EmulationError("circuit must carry exactly one payoff qubit")
    return c.register(names[0])[0]


def exact_budget() -> int:
    env = os.environ.get("QROLLOUT_EXACT_BUDGET")
    return int(env) if env else DEFAULT_EXACT_BUDGET


def payoff_probability(c: Circuit, dist: InputDistribution, mode: str = "exact",
                       shots: int = 10_000, seed: int = 0,
                       budget: int | None = None) -> PayoffEstimate:
    """|1>-fraction of the payoff qubit under the input distribution.

    ``exact`` enumerates the full support (must fit the budget); ``mc`` uses
    a seeded deterministic sampler and reports a 95% normal-approximation CI.
    """
    pq = _payoff_qubit(c)
    if mode == "exact":
        limit = budget if budget is not None else exact_budget()
        total = dist.support_size(c)
        if total > limit:
            raise EmulationError(
                f"exact enumeration of {total} inputs exceeds budget {limit}")
        ones = 0
        for bits in dist.enumerate_chunks(c):
            outs = apply_bits(c, bits)
            ones += int(outs[:, pq].sum())
        return PayoffEstimate(probability=ones / total, mode="exact")
    if mode == "mc":
        bits = dist.sample(c, shots, seed)
        outs = apply_bits(c, bits)
        ones = int(outs[:, pq].sum())
        p = ones / shots
        half = 1.96 * sqrt(p * (1.0 - p) / shots)
        return PayoffEstimate(probability=p, mode="mc", shots=shots,
                              ci_low=p - half, ci_high=p + half)
    raise EmulationError(f"unknown mode {mode!r}")
