"""Coherent rank-select: the selection rule, scan and blocked circuit builders.

Rank-select maps an N-bit validity mask and a rank r to the position of the
r-th set bit (0-indexed), or to the sentinel N when r is out of range.  Masks
are integers with bit i = position i.

Two constructions are provided:

* ``build_scan``     -- sequential compare-and-increment scan, Theta(N*w)
                        gates, w-1 shared scratch bits.
* ``build_blocked``  -- block-popcount construction with long-range writes,
                        Theta(N*log w) gates for blocks of size B ~ w.

Both leave mask and rank inputs unchanged, return every ancilla to zero, and
write position XOR sentinel into a sentinel-preloaded output register;
``exhaustive_check`` emulates either on every (mask, rank) input and holds
its outputs to ``select_rows``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Builder, Circuit
from .emulator import (DEFAULT_EXACT_BUDGET, Batch, EmulationError,
                       apply_batch, counting_batch, flagged_rows,
                       read_register)
from .gadgets import (add_register, and_ladder, constant_targets,
                      controlled_decrement, controlled_increment,
                      copy_register, sub_register, xor_constant)


def width_for(n: int) -> int:
    """Selector/output width w = ceil(log2(N+1))."""
    if n < 1:
        raise ValueError("N must be >= 1")
    return n.bit_length()


# ---------------------------------------------------------------------------
# the selection rule

# rows per chunk of exhaustive_check's expected outputs
_CHECK_ROWS = 1 << 16


def select_rows(valid: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Rank-select down every column of an ``(n, rows)`` bool array of valid
    cells by a cumulative sum: column ``r`` marks the ``ranks[r]``-th
    (0-indexed) set cell, or none (the sentinel n) when the rank reaches the
    column's count.  ``ranks``' dtype must hold n (``ranks + 1`` may wrap)."""
    count = np.cumsum(valid, axis=0,
                      dtype=np.min_scalar_type(valid.shape[0]))
    return valid & (count == ranks + 1)


def _sweep_batch(c: Circuit) -> tuple[Batch, int]:
    """The output batch of every (mask, rank) input, and the rows that
    leave an ancilla or rank qubit set, as :func:`flagged_rows` flags them.
    The inputs are the counting columns of :func:`emulator.counting_batch`
    over the mask qubits and then the rank qubits, so no row is encoded."""
    inputs = c.register("mask") + c.register("nth")
    if 1 << len(inputs) > DEFAULT_EXACT_BUDGET:
        raise EmulationError(
            f"exhaustive sweep of n={len(c.register('mask'))}: "
            f"{1 << len(inputs)} (mask,rank) rows exceed the budget of "
            f"{DEFAULT_EXACT_BUDGET} rows")
    batch = apply_batch(c, counting_batch(c, inputs))
    scratch = [q for reg in c.registers if reg.role in ("ancilla", "rank")
               for q in c.register(reg.name)]
    return batch, flagged_rows(batch, scratch)


@dataclass(frozen=True)
class SweepCheck:
    pairs: int          # (mask, rank) rows swept
    mismatches: int     # rows whose output is not select_rows' position
    dirty: int          # rows that leave an ancilla or the counter set

    @property
    def passed(self) -> bool:
        return self.mismatches == 0 and self.dirty == 0


def exhaustive_check(c: Circuit) -> SweepCheck:
    """Emulate a rank-select circuit on every (mask, rank) input, row ``r``
    holding mask ``r mod 2^N`` and rank ``r div 2^N``, and hold each row's
    output to the position that :func:`select_rows` marks (N when it marks
    none).  Above ``DEFAULT_EXACT_BUDGET`` rows (N >= 20) it raises
    :class:`EmulationError` before anything is allocated.  The expected
    positions are computed in chunks of 2^16 rows, each chunk's masks and
    ranks from its row numbers, so no array of the whole sweep but the
    read output is held."""
    n = len(c.register("mask"))
    batch, dirty = _sweep_batch(c)
    got = read_register(batch, c, "out")
    bits = np.arange(n)
    mismatches = 0
    for a in range(0, batch.rows, _CHECK_ROWS):
        rows = np.arange(a, min(a + _CHECK_ROWS, batch.rows))
        hit = select_rows((rows >> bits[:, None]) & 1 == 1, rows >> n)
        want = np.where(hit.any(axis=0), hit.argmax(axis=0), n)
        mismatches += int(np.count_nonzero(got[a:a + _CHECK_ROWS] != want))
    return SweepCheck(batch.rows, mismatches, dirty.bit_count())


# ---------------------------------------------------------------------------
# scan construction

def _scan_cell(b: Builder, mbit, nth_bits, rank_bits, match_bit, scr_bits,
               write) -> None:
    """One cell: match = [mask bit set and rank == nth], ``write`` (the
    output qubits of the cell's code) flipped on a match, match uncomputed,
    then rank += mask bit.

    The comparison XORs nth into the rank counter in place and tests for
    all-zero with negative-polarity controls, then restores; the ladder and
    its scratch are uncomputed around the conditional write.
    """
    with b.capture() as compare:
        for n_bit, r_bit in zip(nth_bits, rank_bits):
            b.cx(n_bit, r_bit)
        and_ladder(b, [(mbit, True)] + [(r, False) for r in rank_bits],
                   match_bit, scr_bits)
    b.emit(compare)
    if write:
        b.gate(((match_bit, True),), write)
    b.emit_inverse(compare)
    controlled_increment(b, rank_bits, [(mbit, True)], scr_bits)


def _scan_run(b: Builder, mask_bits, nth_bits, rank_bits, match_bit,
              scr_bits, low_out, high_write, *, low) -> None:
    """An aligned run of 2^r cells, r = ``len(low_out)``: cell ``j`` writes
    the code whose low r bits are ``j ^ low`` into ``low_out`` and whose
    high bits are the run's, already set out as the qubits ``high_write``.
    """
    for j, mbit in enumerate(mask_bits):
        b.call(_scan_cell, mbit, nth_bits, rank_bits, match_bit, scr_bits,
               constant_targets(low_out, j ^ low) + list(high_write))


def scan_cells(b: Builder, mask_bits, nth_bits, rank_bits, match_bit,
               scr_bits, out_bits) -> None:
    """Per-position compare/write/increment cells (no counter clear pass)
    into an output preloaded with the sentinel N = ``len(mask_bits)``.

    Cell ``i`` writes the code ``i ^ N``.  The cells go in aligned runs of
    2^r cells, 2^r the largest power of two up to w = ``len(rank_bits)``
    (8 at w = 11): in a run the low r code bits take every value and the
    high ones are fixed, so each run is one memoized ``_scan_run`` keyed by
    the popcount of its high code bits.  The cells after the last full run
    are replayed one by one.  Each cell is one memoized ``_scan_cell``,
    keyed by the popcount of its code, so at most w + 1 cells are recorded.
    """
    sentinel = len(mask_bits)
    r = len(rank_bits).bit_length() - 1
    run = 1 << r
    full = sentinel - sentinel % run
    for a in range(0, full, run):
        b.call(_scan_run, mask_bits[a:a + run], nth_bits, rank_bits,
               match_bit, scr_bits, out_bits[:r],
               constant_targets(out_bits[r:], (a ^ sentinel) >> r),
               low=sentinel % run)
    for i in range(full, sentinel):
        b.call(_scan_cell, mask_bits[i], nth_bits, rank_bits, match_bit,
               scr_bits, constant_targets(out_bits, i ^ sentinel))


def _clear_run(b: Builder, mask_bits, rank_bits, scr_bits) -> None:
    """rank -= popcount(mask_bits): one decrement per bit, top bit first."""
    for mbit in reversed(mask_bits):
        controlled_decrement(b, rank_bits, [(mbit, True)], scr_bits)


def scan_fragment(b: Builder, mask_bits, nth_bits, rank_bits, match_bit,
                  scr_bits, out_bits) -> None:
    """Full self-cleaning scan: preload sentinel, cells, counter clear pass.

    The cells are replayed in aligned runs of 2^r <= w cells
    (:func:`scan_cells`).  The clear pass decrements the counter once per
    mask bit, top bit first, in runs of w = ``len(rank_bits)`` bits: one
    memoized ``_clear_run`` per run, from the top run down, so it records
    at most two runs (a full one and a shorter top one).
    """
    xor_constant(b, out_bits, len(mask_bits))
    scan_cells(b, mask_bits, nth_bits, rank_bits, match_bit, scr_bits,
               out_bits)
    w = len(rank_bits)
    for a in reversed(range(0, len(mask_bits), w)):
        b.call(_clear_run, mask_bits[a:a + w], rank_bits, scr_bits)


def build_scan(n: int) -> Circuit:
    """Sequential-scan rank-select circuit over an n-bit mask.

    Registers (declaration order = cut layout): mask, nth, rank counter,
    match flag, shared scratch, output (sentinel-preloaded).  Exact gate
    count N*(10w - 3) + 1.
    """
    return builder_scan(n).finish()


def builder_scan(n: int, record: bool = True) -> Builder:
    w = width_for(n)
    b = Builder(record=record)
    mask = b.add_register("mask", n, "mask")
    nth = b.add_register("nth", w, "selector")
    rank = b.add_register("rank", w, "rank")
    match = b.add_register("match", 1, "ancilla")
    scr = b.add_register("scr", w - 1, "ancilla") if w > 1 else ()
    out = b.add_register("out", w, "output")
    b.acquire(w + 1 + len(scr))
    scan_fragment(b, mask, nth, rank, match[0], scr, out)
    b.release(w + 1 + len(scr))
    return b


def scan_gate_count(n: int) -> int:
    """Closed form for build_scan's gate count: N*(10w - 3) + 1."""
    return n * (10 * width_for(n) - 3) + 1


# ---------------------------------------------------------------------------
# blocked construction

def _tree_pool_width(block: int) -> int:
    # node width tracks the largest count it can hold, so the root ends at
    # exactly ceil(log2(block+1)) bits
    maxima = [1] * block
    total = 0
    while len(maxima) > 1:
        nxt = []
        for i in range(0, len(maxima) - 1, 2):
            mv = maxima[i] + maxima[i + 1]
            total += mv.bit_length()
            nxt.append(mv)
        if len(maxima) % 2:
            nxt.append(maxima[-1])
        maxima = nxt
    return total


def _popcount_root(leaves, tpool) -> tuple[int, ...]:
    """The register ``_popcount_tree`` leaves the popcount in: the lone leaf,
    or the last node it allocates from the pool."""
    if len(leaves) == 1:
        return tuple(leaves)
    end = _tree_pool_width(len(leaves))
    return tuple(tpool[end - len(leaves).bit_length():end])


def _popcount_tree(b: Builder, leaves, tpool, scr) -> None:
    """Left-leaning balanced add-tree over single-bit leaves; the popcount
    ends in ``_popcount_root(leaves, tpool)``."""
    nodes = [((q,), 1) for q in leaves]
    cursor = 0
    while len(nodes) > 1:
        nxt = []
        for i in range(0, len(nodes) - 1, 2):
            (a, amax), (c2, cmax) = nodes[i], nodes[i + 1]
            mv = amax + cmax
            wd = mv.bit_length()
            reg = tuple(tpool[cursor:cursor + wd])
            cursor += wd
            copy_register(b, a, reg)
            add_register(b, reg, c2, scr)
            nxt.append((reg, mv))
        if len(nodes) % 2:
            nxt.append(nodes[-1])
        nodes = nxt


def _block_compare(b: Builder, nth, p, root, diff, diff2, scr) -> None:
    """diff = r - p (sign at its top bit), diff2 = low bits of diff - c_q."""
    copy_register(b, nth, diff)
    sub_register(b, diff, p, scr)
    copy_register(b, diff[:len(diff2) - 1], diff2)
    sub_register(b, diff2, root, scr)


def _take_controls(diff, diff2):
    """take = [p <= r < p + c_q]: diff's high bits clear, diff2 negative."""
    w_in = len(diff2) - 2
    return [(q, False) for q in diff[w_in:]] + [(diff2[-1], True)]


def _block_inner(b: Builder, leaves, nth, irank, imatch, scr, ell) -> None:
    """ell = in-block position of the selected bit (sentinel len(leaves))."""
    xor_constant(b, ell, len(leaves))
    scan_cells(b, leaves, nth, irank, imatch, scr, ell)


def _block_open(b: Builder, leaves, nth, p, tpool, diff, diff2, take, irank,
                imatch, ell, scr) -> None:
    """Block popcount, take flag, and inner scan at the local rank."""
    _popcount_tree(b, leaves, tpool, scr)
    _block_compare(b, nth, p, _popcount_root(leaves, tpool), diff, diff2, scr)
    b.gate(_take_controls(diff, diff2), (take,))
    _block_inner(b, leaves, diff[:len(ell)], irank, imatch, scr, ell)


def _block_close(b: Builder, leaves, nth, p, tpool, diff, diff2, take, irank,
                 imatch, ell, scr, out) -> None:
    """Add the in-block position into out on take, unwind ``_block_open``,
    and add the block popcount into the running prefix count p."""
    root = _popcount_root(leaves, tpool)
    add_register(b, out, ell, scr, controls=[(take, True)])
    b.emit_reversed(_block_inner, leaves, diff[:len(ell)], irank, imatch,
                    scr, ell)
    b.gate(_take_controls(diff, diff2), (take,))
    b.emit_reversed(_block_compare, nth, p, root, diff, diff2, scr)
    add_register(b, p, root, scr)
    b.emit_reversed(_popcount_tree, leaves, tpool, scr)


def _block_unaccumulate(b: Builder, leaves, p, tpool, scr) -> None:
    """p -= popcount(leaves), with the tree uncomputed."""
    _popcount_tree(b, leaves, tpool, scr)
    sub_register(b, p, _popcount_root(leaves, tpool), scr)
    b.emit_reversed(_popcount_tree, leaves, tpool, scr)


def builder_blocked(n: int, block: int | None = None,
                    record: bool = True) -> Builder:
    w = width_for(n)
    if block is not None and block < 1:
        raise ValueError(f"block size must be >= 1, got {block}")
    bsz = min(w if block is None else block, n)
    nblocks = -(-n // bsz)
    w_in = bsz.bit_length()

    b = Builder(record=record)
    mask = b.add_register("mask", n, "mask")
    nth = b.add_register("nth", w, "selector")
    p = b.add_register("p", w, "rank")
    tp_w = _tree_pool_width(bsz)
    tpool = b.add_register("tpool", tp_w, "ancilla") if tp_w else ()
    diff = b.add_register("diff", w + 1, "ancilla")
    diff2 = b.add_register("diff2", w_in + 2, "ancilla")
    take = b.add_register("take", 1, "ancilla")
    irank = b.add_register("irank", w_in, "ancilla")
    imatch = b.add_register("imatch", 1, "ancilla")
    ell = b.add_register("ell", w_in, "ancilla")
    scr = b.add_register("scr", max(w, w_in + 1), "ancilla")
    out = b.add_register("out", w, "output")
    anc = tp_w + (w + 1) + (w_in + 2) + 1 + w_in + 1 + w_in + len(scr) + w
    b.acquire(anc)

    # per block: one memoized open and close around the long-range write
    xor_constant(b, out, n)
    for q in range(nblocks):
        leaves = mask[q * bsz: min((q + 1) * bsz, n)]
        regs = (leaves, nth, p, tpool, diff, diff2, take[0], irank,
                imatch[0], ell, scr)
        b.call(_block_open, *regs)
        xor_constant(b, out, n ^ (q * bsz), controls=[(take[0], True)])
        b.call(_block_close, *regs, out)

    for q in reversed(range(nblocks)):
        b.call(_block_unaccumulate, mask[q * bsz: min((q + 1) * bsz, n)], p,
               tpool, scr)

    b.release(anc)
    return b


def build_blocked(n: int, block: int | None = None) -> Circuit:
    """Blocked rank-select: per block, popcount via a balanced add-tree, a
    take flag [p <= r < p + c_q], an inner scan at the local rank, one
    long-range conditional write, then full cleanup; a reverse accumulation
    pass clears the running prefix count."""
    return builder_blocked(n, block).finish()
