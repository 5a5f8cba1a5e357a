"""Three-phase rollout-oracle composition from a domain RolloutSpec.

Round structure (h = 1..H):  a staging board is fan-out copied from the
round-(h-1) configuration; the validity mask is computed on it; each selector
pass runs rank-select and decodes the selected position into a placement on
the staging board (updating the mask between passes); rank-select and mask
are unwound; the stochastic transition then reads the staging board and dice
and writes the round-h configuration out of place; finally the whole prep
phase is emitted in reverse, returning every ancilla (including the staging
board) to zero.  Terminal evaluation writes the single payoff qubit from the
round-H configuration.

Selector and dice registers are controls only, so the composed circuit is a
permutation that leaves them unchanged on every branch, and inverting it
returns every register to its input value.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .circuit import Builder, Circuit, CostReport
from .emulator import (InputDistribution, apply_batch, first_row,
                       flagged_rows, write_qubits, write_register)
from .gadgets import copy_register
from .rank_select import scan_fragment, width_for


class OracleError(ValueError):
    pass


CELL_BITS = 2   # configuration bits per cell: codes 0..3
_ONE_BIT_CODES = tuple(1 << k for k in range(CELL_BITS))


@dataclass(frozen=True)
class RolloutSpec:
    """A domain's circuit hooks, dice law, placement codes and payoff.

    Circuit hooks emit gate fragments through a Builder; the array hook
    states the same dice law on code arrays for the rollout kernel (which
    branchwise validation, the sampler and the influence MC replay) and the
    exact dynamic program.  A cell's code is its ``CELL_BITS``
    configuration bits.  A cell is a valid placement iff its code is 0; a
    round runs one selector pass per entry of ``placed_codes``, and pass
    ``p`` writes the one-bit code ``placed_codes[p]`` there.  Each die is
    ``d`` bits wide, uniform on ``faces`` faces.  The payoff is stated
    once, as count weights and a win rule, which ``array_eval`` and the
    DP's terminal count convolution read.
    """

    name: str
    n_cells: int
    horizon: int
    faces: int                   # dice faces per cell per round
    placed_codes: tuple          # the code each selector pass writes: 1 or 2
    # circuit hooks
    emit_transition: Callable    # (b, mid_bits, next_bits, dice_bits, pool, scr)
    emit_eval: Callable          # (b, config_bits, payoff_qubit, pool, scr)
    # pool demands (closed form, documented in the layout breakdown)
    trans_pool_width: int
    eval_pool_width: int
    domain_scr_width: int
    # array hook on (N, rows) int8 code arrays, one column per board
    flip_law: Callable    # codes -> (threshold, alt): a cell takes alt iff
                          # its die is below threshold
    # the selector law, flip_law and the payoff commute with the m x m
    # grid's symmetries: the exact DP keeps one board per class of them
    # the payoff, stated once: 1 iff win(sum of count_weights[code] over
    # the cells) on the final board
    count_weights: tuple  # one int per code 0..3
    win: Callable         # count (int or int array) -> bool
    payoff_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if min(self.n_cells, self.horizon + 1, len(self.placed_codes)) < 1:
            raise OracleError("all counts must be positive")
        if self.faces < 2:
            raise OracleError("faces must be at least 2")
        for code in self.placed_codes:
            # a wider code would decode into the next cell's bits
            if code not in _ONE_BIT_CODES:
                raise OracleError(f"placed code {code!r} is not one of the "
                                  f"one-bit codes {_ONE_BIT_CODES}")

    @property
    def w(self) -> int:
        return width_for(self.n_cells)

    @property
    def d(self) -> int:
        """Dice bits per cell per round: the fewest that hold every face."""
        return (self.faces - 1).bit_length()

    def count(self, codes: np.ndarray) -> np.ndarray:
        """The payoff count of each column of an (N, rows) code array, the
        sum of ``count_weights[code]`` over its cells, as int64: one int32
        cell count per code with a nonzero weight, and no per-cell weight
        array."""
        total = np.zeros(codes.shape[1:], dtype=np.int64)
        for code, weight in enumerate(self.count_weights):
            if weight:
                total += weight * (codes == code).sum(axis=0, dtype=np.int32)
        return total

    def array_eval(self, codes: np.ndarray) -> np.ndarray:
        """The payoff of each column of an (N, rows) code array, as int64."""
        return self.win(self.count(codes)).astype(np.int64)


@dataclass(frozen=True)
class OracleLayout:
    """Closed-form register plan; ``total`` is the exact built qubit count."""

    n_cells: int
    horizon: int
    w: int
    config_qubits: int        # (H+1) * N * CELL_BITS
    selector_qubits: int      # P * H * w
    dice_qubits: int          # H * N * d
    arm_qubits: int
    payoff_qubits: int        # 1
    board_mid: int
    mask: int
    scr: int
    pool: int

    @property
    def q_anc(self) -> int:
        return self.board_mid + self.mask + self.scr + self.pool

    @property
    def total(self) -> int:
        return (self.config_qubits + self.selector_qubits + self.dice_qubits
                + self.arm_qubits + self.payoff_qubits + self.q_anc)

    def breakdown(self) -> dict[str, int]:
        return {
            "config": self.config_qubits, "selector": self.selector_qubits,
            "dice": self.dice_qubits, "arm": self.arm_qubits,
            "payoff": self.payoff_qubits, "board_mid": self.board_mid,
            "mask": self.mask, "scr": self.scr, "pool": self.pool,
            "q_anc": self.q_anc, "total": self.total,
        }


def qubit_cost_formula(spec: RolloutSpec, arms: int = 0) -> OracleLayout:
    """Predicted qubit count: (H+1)*N*CELL_BITS + P*H*w + H*N*d + q_anc + 1
    (+ arm), with P = len(placed_codes) selector passes per round."""
    n, h, w, p = spec.n_cells, spec.horizon, spec.w, len(spec.placed_codes)
    rs_pool = w + 1 + p * w if h > 0 else 0
    pool = max(rs_pool, spec.trans_pool_width if h > 0 else 0,
               spec.eval_pool_width)
    scr = max(w - 1 if h > 0 else 0, spec.domain_scr_width)
    return OracleLayout(
        n_cells=n, horizon=h, w=w,
        config_qubits=(h + 1) * n * CELL_BITS,
        selector_qubits=p * h * w,
        dice_qubits=h * n * spec.d,
        arm_qubits=(arms + 1).bit_length() if arms else 0,
        payoff_qubits=1,
        board_mid=n * CELL_BITS if h > 0 else 0,
        mask=n if h > 0 else 0,
        scr=scr,
        pool=pool,
    )


def gate_cost_formula(spec: RolloutSpec, g_index: float, g_trans: float,
                      g_eval: float) -> float:
    """Predicted per-call gate count H*(P*G_index + G_trans) + G_eval."""
    return (spec.horizon
            * (len(spec.placed_codes) * g_index + g_trans) + g_eval)


@dataclass
class ComposedOracle:
    circuit: Circuit | None
    report: CostReport
    layout: OracleLayout
    prep_gates: int           # one prep emission per round (index phase is 2x)
    trans_gates: int          # per round
    eval_gates: int
    passes: int = 1           # selector passes per round
    arms: int = 0
    first_moves: tuple = ()   # the cell each arm places in round 1

    @property
    def g_index(self) -> float:
        """Per-selector-pass index cost (prep + unprep amortized)."""
        if self.layout.horizon == 0:
            return 0.0
        return 2.0 * self.prep_gates / max(1, self.passes)

    @property
    def g_trans(self) -> float:
        return float(self.trans_gates)

    @property
    def g_eval(self) -> float:
        return float(self.eval_gates)


def _pattern(bits: Sequence[int], value: int):
    return [(bits[k], bool((value >> k) & 1)) for k in range(len(bits))]


def _decode(b: Builder, out, cells, clear) -> None:
    """cells[j] (and clear[j], if given) ^= [out == j] for every cell j."""
    for j, q in enumerate(cells):
        b.gate(_pattern(out, j), (q, clear[j]) if clear else (q,))


def _checked_fragment(b: Builder, allowed: set[int], emit, *args) -> None:
    """Run a domain hook and reject it if its gates touch a qubit outside
    ``allowed``; the hook's whole support is checked at once."""
    with b.capture() as ops:
        emit(b, *args)
    used = b.support(ops)
    inside = np.zeros(b.n_qubits, dtype=bool)
    inside[list(allowed)] = True
    bad = used[~inside[used]]
    if bad.size:
        raise OracleError(
            f"hook emitted a gate touching foreign qubits {bad.tolist()}")
    b.emit(ops)


def _check_first_moves(spec: RolloutSpec, arms: int, first_moves) -> None:
    if arms and (first_moves is None or len(first_moves) < arms):
        raise OracleError("arms > 0 requires a first_moves table")
    for move in (first_moves or ())[:arms]:
        if not 0 <= move < spec.n_cells:
            raise OracleError(f"first move {move} is not a cell of the board")


def compose(spec: RolloutSpec, record: bool = True, arms: int = 0,
            first_moves: Sequence[int] | None = None) -> ComposedOracle:
    """Build the full rollout oracle circuit (or its tally when record=False).

    With ``arms`` > 0 a dedicated first-move register replaces the round-1
    pass-0 selector: the arm index decodes to a deterministic placement at
    ``first_moves[a]``.  The bypassed selector register is still allocated so
    the qubit formula holds verbatim.

    Every selector pass is one ``Builder.call`` of ``scan_fragment`` with
    one memo key, so the pass is recorded once per builder and then its
    forward emission, its unwind and the inverted prep phase each replay it
    as a single op.  The round's other phases (copy, mask, decode,
    transition, unprep) stay top-level ops.
    """
    n, h, w, p = spec.n_cells, spec.horizon, spec.w, len(spec.placed_codes)
    s = CELL_BITS
    _check_first_moves(spec, arms, first_moves)
    lay = qubit_cost_formula(spec, arms)
    b = Builder(record=record)

    configs = [b.add_register(f"config{i}", n * s, "config")
               for i in range(h + 1)]
    sels = [[b.add_register(f"sel_h{i + 1}_p{j}", w, "selector")
             for j in range(p)] for i in range(h)]
    dice = [b.add_register(f"dice_h{i + 1}", n * spec.d, "dice")
            for i in range(h)]
    arm_bits = (b.add_register("arm", lay.arm_qubits, "arm")
                if arms else ())
    payoff = b.add_register("payoff", 1, "payoff")
    board_mid = (b.add_register("board_mid", lay.board_mid, "ancilla")
                 if lay.board_mid else ())
    vmask = b.add_register("vmask", lay.mask, "mask") if lay.mask else ()
    scr = b.add_register("scr", lay.scr, "ancilla") if lay.scr else ()
    pool = b.add_register("pool", lay.pool, "ancilla") if lay.pool else ()

    rank = pool[:w]
    match = pool[w] if lay.pool > w else None
    outs = [pool[w + 1 + j * w: w + 1 + (j + 1) * w] for j in range(p)]
    anc_count = lay.q_anc
    prep_gates = trans_gates = -1

    def emit_mask(board):
        # vmask[i] ^= [cell i is a valid placement: all its bits clear]
        for i, q in enumerate(vmask):
            b.gate(_pattern(board[i * s:(i + 1) * s], 0), (q,))

    for hh in range(h):
        g0 = b.gate_count
        b.acquire(anc_count)
        with b.capture() as prep:
            copy_register(b, configs[hh], board_mid)
            emit_mask(board_mid)
            # per pass: its scan ops, the register it decodes, the cells
            # that register picks among (the arm picks its first moves)
            passes = []
            for pj, code in enumerate(spec.placed_codes):
                if hh == 0 and pj == 0 and arms:
                    scan, src, pick = [], arm_bits, first_moves[:arms]
                else:
                    with b.capture() as scan:
                        b.call(scan_fragment, vmask, sels[hh][pj], rank,
                               match, scr, outs[pj])
                    b.emit(scan)
                    src, pick = outs[pj], range(n)
                passes.append((scan, src, pick))
                cells = [board_mid[j * s + code.bit_length() - 1]
                         for j in pick]
                clear = [vmask[j] for j in pick] if pj < p - 1 else ()
                _decode(b, src, cells, clear)
            for pj in range(p - 1, -1, -1):
                b.emit_inverse(passes[pj][0])
                if pj > 0:
                    # restore the mask bits cleared by pass pj-1's decode
                    _, src, pick = passes[pj - 1]
                    _decode(b, src, [vmask[j] for j in pick], ())
            emit_mask(configs[hh])             # clears: same values as staging
        b.emit(prep)
        g1 = b.gate_count

        allow = (set(board_mid) | set(configs[hh + 1]) | set(dice[hh])
                 | set(pool) | set(scr))
        _checked_fragment(b, allow, spec.emit_transition, board_mid,
                          configs[hh + 1], dice[hh], pool, scr)
        g2 = b.gate_count
        b.emit_inverse(prep)
        b.release(anc_count)
        g3 = b.gate_count
        round_prep, round_trans = g1 - g0, g2 - g1
        if arms == 0:
            if prep_gates < 0:
                prep_gates, trans_gates = round_prep, round_trans
            elif (prep_gates, trans_gates) != (round_prep, round_trans):
                raise OracleError("rounds emitted unequal gate counts")
        else:
            prep_gates, trans_gates = round_prep, round_trans
        assert g3 - g2 == round_prep

    g_eval0 = b.gate_count
    b.acquire(lay.pool + lay.scr)
    allow = set(configs[h]) | {payoff[0]} | set(pool) | set(scr)
    _checked_fragment(b, allow, spec.emit_eval, configs[h], payoff[0],
                      pool, scr)
    b.release(lay.pool + lay.scr)
    eval_gates = b.gate_count - g_eval0

    circuit = b.finish() if record else None
    report = b.report()
    if report.qubit_count != lay.total:
        raise OracleError("layout prediction disagrees with built registers")
    return ComposedOracle(circuit=circuit, report=report, layout=lay,
                          prep_gates=max(prep_gates, 0),
                          trans_gates=max(trans_gates, 0),
                          eval_gates=eval_gates, passes=p, arms=arms,
                          first_moves=tuple((first_moves or ())[:arms]))


# ---------------------------------------------------------------------------
# branchwise validation

@dataclass(frozen=True)
class BranchwiseReport:
    passed: bool
    n_branches: int
    seed: int | None = None          # first failing seed
    round_index: int | None = None   # 1-based round of first divergence
    register: str | None = None

    def __bool__(self):
        return self.passed


def input_law(spec: RolloutSpec, board0: int) -> InputDistribution:
    """The oracle's seeded input law: ``config0`` holds ``board0``, each
    selector register is uniform over all 2^w strings, and each dice
    register holds one d-bit field per cell, uniform on the D faces.  The
    round-1 pass-0 selector is drawn even when an arm bypasses it."""
    h, p = spec.horizon, len(spec.placed_codes)
    uniform = {f"sel_h{i + 1}_p{j}": 1 << spec.w
               for i in range(h) for j in range(p)}
    uniform.update({f"dice_h{i + 1}": (spec.faces, spec.d) for i in range(h)})
    return InputDistribution(
        fixed={"config0": board0}, uniform=uniform,
        widths={f"dice_h{i + 1}": spec.n_cells * spec.d for i in range(h)})


def law_columns(spec: RolloutSpec) -> tuple[np.ndarray, np.ndarray]:
    """The face-array columns of :func:`input_law`: ``sel[h, p]`` holds
    selector ``p`` of round ``h + 1`` and ``dice[h, i]`` the die of cell
    ``i`` in that round.  Fields sort by register name, so ``dice_h10``
    comes before ``dice_h2``."""
    h, p, n = spec.horizon, len(spec.placed_codes), spec.n_cells
    column = {(name, lo): f for f, (name, _, lo, _)
              in enumerate(input_law(spec, 0).fields)}
    sel = [column[f"sel_h{i + 1}_p{j}", 0] for i in range(h) for j in range(p)]
    dice = [column[f"dice_h{i + 1}", k * spec.d]
            for i in range(h) for k in range(n)]
    return (np.array(sel, dtype=np.intp).reshape(h, p),
            np.array(dice, dtype=np.intp).reshape(h, n))


def place_first_move(spec: RolloutSpec, board: int, move: int) -> int:
    """The round-1 pass-0 placement of an arm's first move on a packed
    board; the move must be a valid (code 0) cell of ``board``."""
    cell = (1 << CELL_BITS) - 1
    if not (0 <= move < spec.n_cells
            and not (board >> CELL_BITS * move) & cell):
        raise OracleError(f"first move {move} is not a valid position on "
                          f"the initial board")
    return board | spec.placed_codes[0] << CELL_BITS * move


def _arm_rows(arms: int, arm_values, rows: int) -> np.ndarray:
    """The checked arm value of every branch."""
    if arm_values is None:
        raise OracleError("arms > 0 requires arm_values")
    values = list(arm_values)
    if len(values) != rows:
        raise OracleError(f"{len(values)} arm values for {rows} branches")
    for value in values:
        if not (isinstance(value, (int, np.integer)) and 0 <= value < arms):
            raise OracleError(f"arm value {value!r} is not in [0, {arms})")
    return np.array(values, dtype=np.int64)


def branchwise_check(spec: RolloutSpec, seeds: Sequence[int] | int,
                     board0: int, arms: int = 0,
                     first_moves: Sequence[int] | None = None,
                     arm_values: Sequence[int] | None = None,
                     oracle: ComposedOracle | None = None) -> BranchwiseReport:
    """Fix selector/dice registers branch by branch and demand bit-exact
    agreement with the classical rollout: every per-round configuration, the
    payoff bit, read-only inputs, and cleanness of every ancilla register.
    Branch ``r`` takes the one-shot draw of :func:`input_law` at
    ``seeds[r]``, and an int ``seeds`` stands for ``range(seeds)``; fewer
    than one branch raises :class:`OracleError`.  With ``arms``,
    ``arm_values[r]`` in ``[0, arms)`` is its arm, and ``first_moves``
    is required.  A prebuilt ``oracle`` must be a recorded composition of
    ``spec`` with the same ``arms`` and first moves, else
    :class:`OracleError` names the mismatch.

    The expected configurations of all branches come from the array
    rollout kernel, one call per arm; bit ``CELL_BITS*i + b`` of register
    ``config<h>`` is bit ``b`` of cell ``i``'s code after round ``h``, and
    the cells of every round are written in one :func:`write_qubits`.  The
    output columns are compared at once against the expected batch, and
    rows are flagged only after a mismatch: the first failing branch then
    names its first differing register, in the order configs (by round),
    payoff, read-only inputs, ancillae."""
    from .domains import rollout_codes  # local import: domains builds on us

    rows = seeds if isinstance(seeds, int) else len(seeds)
    if rows < 1:
        raise OracleError(f"seeds must give at least one branch, got "
                          f"{seeds!r}")
    if isinstance(seeds, int):
        seeds = list(range(seeds))
    arm = _arm_rows(arms, arm_values, rows) if arms else np.zeros(rows, int)
    _check_first_moves(spec, arms, first_moves)
    if oracle is None:
        oracle = compose(spec, arms=arms, first_moves=first_moves)
    elif oracle.arms != arms:
        raise OracleError(f"the oracle was composed with arms={oracle.arms}, "
                          f"not arms={arms}")
    elif oracle.first_moves != tuple((first_moves or ())[:arms]):
        raise OracleError(f"the oracle places first moves "
                          f"{list(oracle.first_moves)}, not "
                          f"{list(first_moves[:arms])}")
    elif oracle.circuit is None:
        raise OracleError("the oracle was composed in tally mode")
    else:
        want = qubit_cost_formula(spec, arms)
        differ = [f.name for f in fields(want)
                  if getattr(oracle.layout, f.name) != getattr(want, f.name)]
        if differ:
            raise OracleError(f"the oracle's layout differs from spec "
                              f"{spec.name!r} in {', '.join(differ)}")
    c = oracle.circuit
    h, n, s = spec.horizon, spec.n_cells, CELL_BITS
    law = input_law(spec, board0)
    faces = law.draw_each(seeds)
    batch = law.batch(c, faces)
    if arms:
        write_register(batch, c, "arm", arm)
    # expected: inputs unchanged, ancillae clean, configs and payoff replayed
    codes = np.empty((h + 1, n, rows), dtype=np.int8)
    for a, move in enumerate(first_moves[:arms] if arms else [None]):
        mine = arm == a
        for hh, [board] in enumerate(rollout_codes(spec, [board0],
                                                   faces[mine], move)):
            codes[hh][:, mine] = board
    expected = batch.copy()
    cells = [c.register(f"config{hh}")[i * s:(i + 1) * s]
             for hh in range(1, h + 1) for i in range(n)]
    write_qubits(expected, cells, codes[1:].reshape(h * n, rows).T)
    write_register(expected, c, "payoff", spec.array_eval(codes[h]))
    outs = apply_batch(c, batch)
    if outs.cols == expected.cols:
        return BranchwiseReport(True, rows)
    r = first_row(flagged_rows(outs, range(c.total_qubits), expected))
    got, want = outs.row(r), expected.row(r)
    rounds = {f"config{hh}": hh for hh in range(h + 1)}
    rounds["payoff"] = h
    order = (list(rounds)
             + [reg.name for reg in c.registers
                if reg.role in ("selector", "dice", "arm")]
             + [reg.name for reg in c.registers
                if reg.role in ("ancilla", "mask")])
    name = next(reg for reg in order
                if flagged_rows(got, c.register(reg), want))
    return BranchwiseReport(False, rows, seeds[r], rounds.get(name), name)
