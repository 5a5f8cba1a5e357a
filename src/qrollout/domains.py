"""Sway and SIR-epidemic instantiations of the rollout-oracle template.

Boards live on an m x m four-neighbor grid and are packed into integers with
``CELL_BITS`` = 2 bits per cell (bit 0, bit 1):

    code 0 = (0,0) = empty / susceptible
    code 1 = (1,0) = black / infected
    code 2 = (0,1) = white / recovered        (code 3 unreachable)

Both domains provide circuit fragments (stochastic transition, terminal
evaluation; the validity mask is the template's) and the same rules on
(N, rows) int8 code arrays, one row per cell, one board per column: a cell
is a valid placement iff its code is 0, selector pass ``p`` writes the
spec's ``placed_codes[p]`` (Sway (BLACK, WHITE), SIR (RECOVERED,)), and
each spec's ``flip_law`` states the dice law once: a cell takes ``alt``
iff its die is below ``threshold``, with neighbour counts from
shifted-slice adds over whole rows.  The rollout kernel
(``rollout_codes``, rank-select as a cumulative sum down the empty cells)
gives every round's boards; branchwise validation, the sampler and the
influence MC replay it, and the exact distribution dynamic program reads
``flip_law`` too.  The payoff is stated once per spec, as per-code count
weights and a win rule on their sum.

The DP is the payoff oracle at 3x3 scale.  The selector's uniform mix over
the empty cells, both flip laws and both payoffs commute with the square's
8 symmetries (``square_symmetries``), so the chain lumps exactly onto their
classes, whatever the initial board (``exact_value`` keeps one board per
class).  Sway 3x3 H=4 from the empty board holds at most 2,754 boards (the
last round's pre-boards) and splits at most 70,045 outcome rows (round 3);
on all boards and with the last round split too, it held 19,153 pre-boards
and split 1.68 M outcome rows.

Sway (two-player placement game): black then white place on empty cells each
round (white's validity excludes black's fresh placement), then every
occupied cell flips color with probability (4-k)/20, where k counts
same-color orthogonal neighbors on the pre-flip board; payoff 1 iff black
strictly outnumbers white at the horizon.

SIR: the selector vaccinates one susceptible cell (sentinel = no-op), then
simultaneously each susceptible cell with c infected neighbors becomes
infected iff its 8-sided die is below c, and each infected cell recovers iff
its die is below the recovery threshold rho (default 2); payoff 1 iff the
final infected count is at most the threshold T.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, sqrt

import numpy as np

from .circuit import Builder
from .gadgets import (add_register, controlled_increment, copy_register,
                      flag_less_than_const, sub_register)
from .oracle import (CELL_BITS, OracleError, RolloutSpec, input_law,
                     law_columns, place_first_move)
from .rank_select import select_rows, width_for

EMPTY = SUSCEPTIBLE = 0
BLACK = INFECTED = 1
WHITE = RECOVERED = 2

SWAY_FACES = 20
SIR_FACES = 8
# each spec's RolloutSpec.d: the fewest bits that hold every face
SWAY_DICE_BITS = (SWAY_FACES - 1).bit_length()
SIR_DICE_BITS = (SIR_FACES - 1).bit_length()

DP_STATE_BUDGET = 3 ** 9


class BudgetError(ValueError):
    pass


@dataclass(frozen=True)
class SwayConfig:
    m: int
    horizon: int

    def __post_init__(self):
        if self.m < 1 or self.horizon < 0:
            raise ValueError("m >= 1 and horizon >= 0 required")


@dataclass(frozen=True)
class SirConfig:
    m: int
    horizon: int
    threshold: int
    rho: int = 2

    def __post_init__(self):
        if self.m < 1 or self.horizon < 0 or self.threshold < 0:
            raise ValueError("m >= 1, horizon >= 0, threshold >= 0 required")
        if not 0 <= self.rho <= SIR_FACES:
            raise ValueError("rho must lie in [0, 8]")


# ---------------------------------------------------------------------------
# boards and grids

def set_cell(board: int, i: int, code: int) -> int:
    """The board with cell ``i`` (bits ``CELL_BITS*i`` on) set to ``code``,
    packed by shift; a cell below 0 or a code outside 0..3 raises
    ValueError."""
    top = (1 << CELL_BITS) - 1
    if i < 0 or not 0 <= code <= top:
        raise ValueError(f"cell {i}, code {code}: a cell is at least 0 and "
                         f"a code is 0..{top}")
    return board & ~(top << CELL_BITS * i) | code << CELL_BITS * i


def neighbors(m: int) -> list[list[int]]:
    out = []
    for r in range(m):
        for c in range(m):
            adj = []
            if r > 0:
                adj.append((r - 1) * m + c)
            if r < m - 1:
                adj.append((r + 1) * m + c)
            if c > 0:
                adj.append(r * m + c - 1)
            if c < m - 1:
                adj.append(r * m + c + 1)
            out.append(adj)
    return out


def neighbour_counts(mask: np.ndarray, m: int) -> np.ndarray:
    """Per board (column) of an ``(m*m, rows)`` bool array, how many of each
    cell's four grid neighbours are set, as int8: one slice add per side of
    the ``(m, m, rows)`` grid view, each over whole rows of boards."""
    x = mask.view(np.int8).reshape((m, m) + mask.shape[1:])
    out = np.zeros_like(x)
    out[1:] += x[:-1]
    out[:-1] += x[1:]
    out[:, 1:] += x[:, :-1]
    out[:, :-1] += x[:, 1:]
    return out.reshape(mask.shape)


@lru_cache(maxsize=None)
def square_symmetries(m: int) -> np.ndarray:
    """The symmetries of the m x m grid (rotations and reflections) as
    distinct cell permutations, one per row, identity first: an ``(N,
    rows)`` code array's image under row ``g`` is ``codes[g]``.  They map
    neighbours to neighbours and keep the grid's edge, so the non-wrapping
    four-neighbour laws commute with them.  The array is shared and
    read-only."""
    grid = np.arange(m * m).reshape(m, m)
    images = {tuple(np.rot90(t, k).ravel().tolist())
              for t in (grid, grid.T) for k in range(4)}
    perms = np.array(sorted(images), dtype=np.int64)
    perms.flags.writeable = False
    return perms


_SYMBOLS = {"sway": ".BW", "sir": "SIR"}


def parse_board(text: str, domain: str) -> int:
    """Plain-text grid of cell symbols (., B, W / S, I, R), row per line.
    A symbol outside the domain's three raises ``ValueError``."""
    symbols = _SYMBOLS[domain]
    cells = "".join(text.split())
    for ch in cells:
        if ch not in symbols:
            raise ValueError(f"cell symbol {ch!r} is not one of {symbols!r}")
    return board_pack([symbols.index(ch) for ch in cells])


# ---------------------------------------------------------------------------
# dice laws on code arrays

def _sway_flip_law(m: int):
    def law(codes):
        # 4 - same-colour neighbours, 0 on empty cells (products with masks
        # run several times as fast as np.where on int8)
        black, white = codes == BLACK, codes == WHITE
        threshold = ((4 - neighbour_counts(black, m)) * black
                     + (4 - neighbour_counts(white, m)) * white)
        return threshold, 3 - codes            # black <-> white
    return law


def _sir_flip_law(m: int, rho: int):
    def law(codes):
        # S -> I, I -> R; recovered cells get threshold 0 and never change
        infected = codes == INFECTED
        threshold = (neighbour_counts(infected, m) * (codes == SUSCEPTIBLE)
                     + np.int8(rho) * infected)
        return threshold, codes + 1
    return law


# ---------------------------------------------------------------------------
# circuit fragments

def _cell_bits(bits, i: int, width: int = CELL_BITS):
    return bits[width * i:width * (i + 1)]


def _sway_cell(b: Builder, cell, nbrs, nxt, die, k_reg, sum_reg, flag,
               scr) -> None:
    """One Sway cell: copy it to the next board, then flip its colour iff
    die + (same-colour neighbours) < 4.  ``nbrs`` holds each neighbour's
    two bits in turn."""
    b.cx(cell[0], nxt[0])
    b.cx(cell[1], nxt[1])
    with b.capture() as count:
        for j in range(0, len(nbrs), 2):
            controlled_increment(b, k_reg,
                                 [(cell[0], True), (nbrs[j], True)], scr)
            controlled_increment(b, k_reg,
                                 [(cell[1], True), (nbrs[j + 1], True)], scr)
        copy_register(b, die, sum_reg)
        add_register(b, sum_reg, k_reg, scr)
        flag_less_than_const(b, sum_reg, 4, flag)
    b.emit(count)
    b.gate(((flag, True), (cell[0], True)), nxt)
    b.gate(((flag, True), (cell[1], True)), nxt)
    b.emit_inverse(count)


def _emit_sway_dynamics(m: int):
    nbrs = neighbors(m)
    kw = max(len(a) for a in nbrs).bit_length()
    d = SWAY_DICE_BITS

    def emit(b: Builder, mid, nxt, dice, pool, scr):
        for i, adj in enumerate(nbrs):
            b.call(_sway_cell, _cell_bits(mid, i),
                   [q for j in adj for q in _cell_bits(mid, j)],
                   _cell_bits(nxt, i), _cell_bits(dice, i, d),
                   pool[:kw], pool[kw:kw + d], pool[kw + d], scr)

    return emit, kw + d + 1


def _emit_sway_eval(n: int):
    wc = width_for(n)

    def emit(b: Builder, cfg, payoff, pool, scr):
        black = pool[:wc]
        white = pool[wc:2 * wc]
        diff = pool[2 * wc:3 * wc + 1]
        with b.capture() as count:
            for bit0, bit1 in zip(cfg[::CELL_BITS], cfg[1::CELL_BITS]):
                controlled_increment(b, black, [(bit0, True)], scr)
                controlled_increment(b, white, [(bit1, True)], scr)
            copy_register(b, black, diff)
            sub_register(b, diff, white, scr)
            b.emit_reversed(controlled_increment, diff, [], scr)  # diff -= 1
        b.emit(count)
        b.gate(((diff[wc], False),), (payoff,))   # black - white - 1 >= 0
        b.emit_inverse(count)

    return emit, 3 * wc + 1


def _sir_cell(b: Builder, cell, nbrs, nxt, die, c_reg, t_reg, rflag, scr,
              *, rho: int) -> None:
    """One SIR cell: copy it to the next board; a susceptible cell becomes
    infected iff die < (infected neighbours), an infected one recovers iff
    die < rho.  ``nbrs`` holds each neighbour's infected bit."""
    b.cx(cell[0], nxt[0])
    b.cx(cell[1], nxt[1])
    if nbrs:
        with b.capture() as infect:
            for q in nbrs:
                controlled_increment(b, c_reg, [(q, True)], scr)
            copy_register(b, die, t_reg)
            sub_register(b, t_reg, c_reg, scr)   # sign <=> die < c
        b.emit(infect)
        b.gate(((t_reg[-1], True), (cell[0], False), (cell[1], False)),
               (nxt[0],))
        b.emit_inverse(infect)
    with b.capture() as recover:
        flag_less_than_const(b, die, rho, rflag)
    b.emit(recover)
    b.gate(((rflag, True), (cell[0], True)), nxt)
    b.emit_inverse(recover)


def _emit_sir_dynamics(m: int, rho: int):
    nbrs = neighbors(m)
    max_deg = max(len(a) for a in nbrs)
    cw = max_deg.bit_length() if max_deg else 0
    d = SIR_DICE_BITS
    tw = d + 1

    def emit(b: Builder, mid, nxt, dice, pool, scr):
        for i, adj in enumerate(nbrs):
            b.call(_sir_cell, _cell_bits(mid, i),
                   [mid[CELL_BITS * j] for j in adj], _cell_bits(nxt, i),
                   _cell_bits(dice, i, d), pool[:cw], pool[cw:cw + tw],
                   pool[cw + tw], scr, rho=rho)

    return emit, cw + tw + 1


def _emit_sir_eval(n: int, threshold: int):
    wc = width_for(n)

    def emit(b: Builder, cfg, payoff, pool, scr):
        cnt = pool[:wc]
        with b.capture() as count:
            for infected in cfg[::CELL_BITS]:
                controlled_increment(b, cnt, [(infected, True)], scr)
        b.emit(count)
        flag_less_than_const(b, cnt, threshold + 1, payoff)
        b.emit_inverse(count)

    return emit, wc


# ---------------------------------------------------------------------------
# RolloutSpec factories

def sway_spec(cfg: SwayConfig) -> RolloutSpec:
    n = cfg.m * cfg.m
    wc = width_for(n)
    emit_trans, trans_pool = _emit_sway_dynamics(cfg.m)
    emit_eval, eval_pool = _emit_sway_eval(n)
    return RolloutSpec(
        name="sway", n_cells=n, horizon=cfg.horizon, faces=SWAY_FACES,
        placed_codes=(BLACK, WHITE),
        emit_transition=emit_trans,
        emit_eval=emit_eval,
        trans_pool_width=trans_pool,
        eval_pool_width=eval_pool,
        domain_scr_width=max(SWAY_DICE_BITS - 1, wc),
        flip_law=_sway_flip_law(cfg.m),
        count_weights=(0, 1, -1, 0),          # black - white
        win=lambda count: count > 0,
        payoff_params={"m": cfg.m},
    )


def sir_spec(cfg: SirConfig) -> RolloutSpec:
    n = cfg.m * cfg.m
    wc = width_for(n)
    emit_trans, trans_pool = _emit_sir_dynamics(cfg.m, cfg.rho)
    emit_eval, eval_pool = _emit_sir_eval(n, cfg.threshold)
    return RolloutSpec(
        name="sir", n_cells=n, horizon=cfg.horizon, faces=SIR_FACES,
        placed_codes=(RECOVERED,),              # vaccination: S -> R
        emit_transition=emit_trans,
        emit_eval=emit_eval,
        trans_pool_width=trans_pool,
        eval_pool_width=eval_pool,
        domain_scr_width=max(SIR_DICE_BITS, wc - 1),
        flip_law=_sir_flip_law(cfg.m, cfg.rho),
        count_weights=(0, 1, 0, 0),           # infected cells
        win=lambda count: count <= cfg.threshold,
        payoff_params={"m": cfg.m, "threshold": cfg.threshold, "rho": cfg.rho},
    )


# ---------------------------------------------------------------------------
# array rollouts: one row per cell, one column per branch

def board_codes(boards, n: int) -> np.ndarray:
    """Packed boards as int8 codes, cell ``i`` from bits ``CELL_BITS*i``
    on: a Python int of any width gives an (n,) array, an int64 array of
    boards an (n, rows) array, one row per cell."""
    if np.ndim(boards) == 0:
        # an object scalar: a board in [2^63, 2^64) would become uint64
        boards = np.array(int(boards), dtype=object)
    shifts = CELL_BITS * np.arange(n).reshape((n,) + (1,) * boards.ndim)
    return ((boards >> shifts) & (1 << CELL_BITS) - 1).astype(np.int8)


def board_pack(codes) -> int:
    """The inverse of :func:`board_codes` on one board: an (n,) code vector
    gives the board as a Python int of any width."""
    # cell i is the board's base-2^CELL_BITS digit i
    return int("".join(map(str, np.asarray(codes, dtype=np.int64)[::-1]
                            .tolist())) or "0", 1 << CELL_BITS)


def rollout_codes(spec: RolloutSpec, boards0, faces: np.ndarray,
                  first_move: int | None = None):
    """Every round's boards of one rollout per face row, from each initial
    board.

    ``faces``, a ``(rows, fields)`` face array of :func:`input_law`, is
    transposed once into the narrowest integer dtype that holds every
    field's largest face.  Yields rounds 0..H in turn, each as one list
    with one ``(N, rows)`` code array per initial board: column ``r`` after
    round ``h`` is what the oracle writes into ``config<h>`` on the branch
    of row ``r``'s faces.  The next round updates that list and its arrays
    in place, so a caller copies what it keeps.  Every board reads the same
    faces.  With ``first_move``, round 1's first pass places there instead
    of reading its selector.  The first board decides each placement, and
    the others place at the same cell when it is valid on them.
    """
    rows, n = faces.shape[0], spec.n_cells
    sel, dice = law_columns(spec)
    top = max((1 << spec.w) - 1, spec.faces - 1)
    faces = np.ascontiguousarray(faces.T, dtype=np.min_scalar_type(top))
    skip = first_move is not None and spec.horizon > 0
    if skip:
        for board in boards0:                # reject an invalid first move
            place_first_move(spec, board, first_move)
    boards = [np.tile(board_codes(b, n)[:, None], rows) for b in boards0]
    yield boards
    for h in range(spec.horizon):
        for pj, code in enumerate(spec.placed_codes):
            if skip and h == pj == 0:
                for board in boards:
                    board[first_move] = code
                continue
            hit = select_rows(boards[0] == EMPTY, faces[sel[h, pj]])
            boards[0][hit] = code
            for board in boards[1:]:
                board[hit & (board == EMPTY)] = code
        roll = faces[dice[h]]
        for board in boards:
            threshold, alt = spec.flip_law(board)
            np.copyto(board, alt, where=roll < threshold)
        yield boards


def final_codes(spec: RolloutSpec, boards0, faces: np.ndarray,
                first_move: int | None = None) -> list[np.ndarray]:
    """The last round of :func:`rollout_codes`; no earlier round is kept."""
    for boards in rollout_codes(spec, boards0, faces, first_move):
        pass
    return boards


def sample_payoff(spec: RolloutSpec, board0: int, shots: int, seed: int,
                  first_move: int | None = None):
    """Seeded Monte Carlo payoff estimate with a 95% CI (classical sampler).

    Shot ``r`` plays row ``r`` of ``input_law(spec, board0).draw(shots,
    seed)``, the inputs that the circuit MC at the same seed emulates."""
    if shots < 1:
        raise OracleError(f"shots must be >= 1, got {shots}")
    wins = 0
    for faces in input_law(spec, board0).draw_chunks(shots, seed):
        [board] = final_codes(spec, [board0], faces, first_move)
        wins += int(spec.array_eval(board).sum())
    p = wins / shots
    half = 1.96 * sqrt(p * (1 - p) / shots)
    return p, half


# ---------------------------------------------------------------------------
# exact value by distribution dynamic programming

_SPLIT_ROWS = 1 << 18   # outcome rows per block: bounds the split's memory
_CANON_ROWS = 1 << 14   # boards per block of images: bounds their memory


def _merge(states: np.ndarray, probs: np.ndarray):
    """Sum the mass of equal boards: sorted distinct boards and their mass."""
    order = np.argsort(states, kind="stable")
    states, probs = states[order], probs[order]
    first = np.flatnonzero(np.concatenate(([True], states[1:] != states[:-1])))
    return states[first], np.add.reduceat(probs, first)


def _canonical(states: np.ndarray, perms) -> np.ndarray:
    """Each int64 packed board's least packed image under the cell
    permutations ``perms`` (``None``: the boards as they are).  Image ``g``
    packs cell ``j``'s code at the place ``g`` moves it to, so all images
    of a block of boards are one product of codes and place values."""
    if perms is None:
        return states
    n = perms.shape[1]
    place = (1 << CELL_BITS * np.arange(n))[np.argsort(perms, axis=1)]
    least = np.empty_like(states)
    for lo in range(0, states.size, _CANON_ROWS):
        codes = board_codes(states[lo:lo + _CANON_ROWS], n)
        least[lo:lo + _CANON_ROWS] = (place @ codes).min(axis=0)
    return least


def _select_pass(states, probs, n: int, strings: int, code: int,
                 perms=None):
    """Mix each ``n``-cell board uniformly over the selector's strings:
    1/strings of its mass to each valid placement, the rest stays (sentinel
    no-op).  Placed boards are canonicalised before the one merge."""
    valid = board_codes(states, n) == EMPTY
    row, pos = np.nonzero(valid.T)       # board by board, as merged
    inv = 1.0 / strings
    stay = (strings - valid.sum(axis=0)) * inv
    placed = _canonical(states[row] + (code << CELL_BITS * pos), perms)
    return _merge(np.concatenate((states, placed)),
                  np.concatenate((probs * stay, probs[row] * inv)))


def transition_distribution(spec: RolloutSpec, states: np.ndarray,
                            probs: np.ndarray, perms=None):
    """Push a distribution over int64 packed boards through one transition;
    returns the sorted distinct boards (canonicalised under ``perms``) and
    their mass.  Every pre-board reads ``flip_law`` once, then splits cell
    by cell into its outcome rows, each row carrying its pre-board's
    index."""
    codes = board_codes(states, spec.n_cells)
    threshold, alt = spec.flip_law(codes)
    flip = threshold / spec.faces
    shift = CELL_BITS * np.arange(spec.n_cells)[:, None]
    step = (alt.astype(np.int64) - codes) << shift    # a flip's packed change
    fan = np.cumsum(1 << (flip > 0).sum(axis=0))      # outcome rows so far
    cuts = np.flatnonzero(np.diff(fan // _SPLIT_ROWS)) + 1
    parts = []
    for idx in np.split(np.arange(states.size), cuts):
        acc, weight = states[idx], np.ones(idx.size)
        for i in range(spec.n_cells):
            pf = flip[i, idx]
            split = np.flatnonzero(pf)
            if split.size:
                pre, pf = idx[split], pf[split]
                idx = np.concatenate((idx, pre))
                acc = np.concatenate((acc, acc[split] + step[i, pre]))
                weight = np.concatenate((weight, weight[split] * pf))
                weight[split] *= 1.0 - pf
        parts.append(_merge(_canonical(acc, perms), probs[idx] * weight))
    return _merge(*(np.concatenate(part) for part in zip(*parts)))


def _terminal_value(spec: RolloutSpec, states: np.ndarray,
                    probs: np.ndarray) -> float:
    """The payoff probability after one more transition, by a count
    convolution: given its pre-board every cell flips independently, so
    each board's final count is a sum of independent per-cell steps.  The
    count distributions of all boards, mass included, are one ``(span,
    boards)`` array, convolved cell by cell; no outcome board is formed."""
    n = spec.n_cells
    weight = np.asarray(spec.count_weights, dtype=np.int64)
    codes = board_codes(states, n)
    threshold, alt = spec.flip_law(codes)
    step = weight[alt] - weight[codes]            # a flip's count change
    flip = np.where(step != 0, threshold / spec.faces, 0.0)
    low = n * int(weight.min())
    counts = np.arange(low, n * int(weight.max()) + 1)
    dist = np.zeros((counts.size, states.size))
    dist[spec.count(codes) - low, np.arange(states.size)] = probs
    steps = sorted(set(step[flip > 0].tolist()))
    moves = [np.where(step == d, flip, 0.0) for d in steps]
    for i in np.flatnonzero(flip.any(axis=1)):
        out = dist * (1.0 - flip[i])
        for d, move in zip(steps, moves):
            moved = dist * move[i]
            if d > 0:
                out[d:] += moved[:-d]
            else:
                out[:d] += moved[-d:]
        dist = out
    return float(dist[spec.win(counts)].sum())


def exact_value(spec: RolloutSpec, board0: int, first_move: int | None = None,
                budget: int = DP_STATE_BUDGET) -> float:
    """Exact payoff probability by full distribution dynamic programming.

    The support is a sorted int64 array of packed boards with a float64
    mass each, one board per class of the square's symmetries
    (``square_symmetries``): every law and the payoff commute with them,
    so a class's mass moves as its least packed member's does.  Selectors
    mix uniformly over all 2^w values (out-of-range mass on the sentinel
    no-op); each transition but the last splits each board cell by cell
    under ``spec.flip_law``; the last transition and the payoff are one
    count convolution per pre-board.
    Requires 3^N within the state budget (m <= 3 by default).
    """
    n = spec.n_cells
    if 3 ** n > budget:
        raise BudgetError(f"state space 3^{n} exceeds budget {budget}")
    if CELL_BITS * n > 63:
        raise BudgetError(f"{n} cells do not pack into an int64 board")
    skip = first_move is not None and spec.horizon > 0
    if skip:
        board0 = place_first_move(spec, board0, first_move)
    if spec.horizon == 0:
        return float(spec.array_eval(board_codes(board0, n)))
    perms = square_symmetries(isqrt(n))
    states, probs = np.array([board0], dtype=np.int64), np.ones(1)
    for h in range(spec.horizon):
        for pj, code in enumerate(spec.placed_codes):
            if not (skip and h == pj == 0):
                states, probs = _select_pass(states, probs, n, 1 << spec.w,
                                             code, perms)
        if h < spec.horizon - 1:
            states, probs = transition_distribution(spec, states, probs,
                                                    perms)
    return _terminal_value(spec, states, probs)


def default_first_moves(spec: RolloutSpec, board0: int, k: int) -> list[int]:
    """firstMove decoder: the first k valid positions of the initial board."""
    positions = np.flatnonzero(board_codes(board0, spec.n_cells) == EMPTY)
    if len(positions) < k:
        raise OracleError(f"initial board has only {len(positions)} valid cells")
    return positions[:k].tolist()


def arm_means(spec: RolloutSpec, board0: int, k: int,
              first_moves=None) -> list[float]:
    """mu_j = exact payoff probability given first move j (deterministic
    round-1 placement that bypasses the round-1 selector)."""
    if first_moves is None:
        first_moves = default_first_moves(spec, board0, k)
    return [exact_value(spec, board0, first_move=fm)
            for fm in first_moves[:k]]
