"""Test helper: the classical references that faster paths are held to.

These are the single-branch dynamics on packed int boards
(``classical_trace`` replays one branch, one cell at a time), the
dict-based distribution DP and the per-row loops over ``classical_trace``
that the code-array kernels in ``qrollout.domains``, ``qrollout.oracle``
and ``qrollout.bounds`` replaced, and the array DP that ``exact_value`` was
before it kept symmetry classes and convolved the last round's count, and
``select_semantics``, the scalar rank-select rule that
``rank_select.select_rows`` states on arrays (``mask_from_string`` reads
its masks from left-to-right strings), and the row-major rollout kernel
(``row_rollout_codes`` with ``row_select``, ``row_neighbour_counts`` and
``row_flip_law``, one row per board) that the cell-major
``domains.rollout_codes`` replaced; the differential tests hold the array
paths to them.  The packed-int transitions and ``_cell_branches`` state
the dice law in their own terms, apart from the specs' ``flip_law`` hooks.
"""

from collections import defaultdict
from functools import lru_cache

import numpy as np

from qrollout import domains as dm
from qrollout.oracle import OracleError, input_law, law_columns


# ---------------------------------------------------------------------------
# the selection rule, one scalar at a time

def select_semantics(mask: int, n: int, r: int) -> int:
    """Position of the r-th set bit of an n-bit mask, else sentinel n."""
    if r < 0:
        raise ValueError("rank must be non-negative")
    seen = 0
    for i in range(n):
        if (mask >> i) & 1:
            if seen == r:
                return i
            seen += 1
    return n


def mask_from_string(s: str) -> int:
    """Left-to-right mask string: character i is position i."""
    m = 0
    for i, ch in enumerate(s):
        if ch == "1":
            m |= 1 << i
        elif ch != "0":
            raise ValueError(f"bad mask character {ch!r}")
    return m


# ---------------------------------------------------------------------------
# single-branch dynamics on packed int boards

def cell(board: int, i: int) -> int:
    """The code of cell ``i`` of a packed board."""
    return (board >> (2 * i)) & 3


def _sway_transition(board: int, dice, nbrs) -> int:
    out = board
    for i, adj in enumerate(nbrs):
        code = cell(board, i)
        if code == dm.EMPTY:
            continue
        k = sum(1 for j in adj if cell(board, j) == code)
        if dice[i] < 4 - k:
            out = dm.set_cell(out, i, dm.BLACK if code == dm.WHITE
                              else dm.WHITE)
    return out


def _sir_transition(board: int, dice, nbrs, rho: int) -> int:
    out = board
    for i, adj in enumerate(nbrs):
        code = cell(board, i)
        if code == dm.SUSCEPTIBLE:
            c = sum(1 for j in adj if cell(board, j) == dm.INFECTED)
            if dice[i] < c:
                out = dm.set_cell(out, i, dm.INFECTED)
        elif code == dm.INFECTED:
            if dice[i] < rho:
                out = dm.set_cell(out, i, dm.RECOVERED)
    return out


@lru_cache(maxsize=None)
def _neighbors(m: int):
    return dm.neighbors(m)


def classical_validity(spec, board: int) -> int:
    """The valid placements of a board as a mask int: its empty cells."""
    mask = 0
    for i in range(spec.n_cells):
        if cell(board, i) == 0:
            mask |= 1 << i
    return mask


def classical_place(spec, board: int, pos: int, pass_index: int) -> int:
    """The board with pass ``pass_index``'s code placed at ``pos``."""
    return dm.set_cell(board, pos, spec.placed_codes[pass_index])


def classical_transition(spec, board: int, dice) -> int:
    nbrs = _neighbors(spec.payoff_params["m"])
    if spec.name == "sway":
        return _sway_transition(board, dice, nbrs)
    return _sir_transition(board, dice, nbrs, spec.payoff_params["rho"])


def classical_eval(spec, board: int) -> int:
    """The payoff of one packed board."""
    count = sum(spec.count_weights[(board >> (2 * i)) & 3]
                for i in range(spec.n_cells))
    return int(spec.win(count))


def place_first_move(spec, board: int, move: int) -> int:
    """The round-1 pass-0 placement of an arm's first move, which must be a
    valid position of ``board``."""
    if not (0 <= move < spec.n_cells
            and (classical_validity(spec, board) >> move) & 1):
        raise OracleError(f"first move {move} is not a valid position on "
                          f"the initial board")
    return classical_place(spec, board, move, 0)


def classical_trace(spec, board0: int, selectors, dice,
                    first_move: int | None = None):
    """Replay a branch; returns ([board after round 0..H], payoff bit)."""
    n = spec.n_cells
    if len(selectors) != spec.horizon or len(dice) != spec.horizon:
        raise OracleError("stream length does not match horizon")
    boards = [board0]
    board = board0
    for h in range(spec.horizon):
        if len(selectors[h]) != len(spec.placed_codes):
            raise OracleError("selector stream width mismatch")
        for pj in range(len(spec.placed_codes)):
            if h == 0 and pj == 0 and first_move is not None:
                board = place_first_move(spec, board, first_move)
                continue
            j = select_semantics(classical_validity(spec, board), n,
                                 selectors[h][pj])
            if j < n:
                board = classical_place(spec, board, j, pj)
        board = classical_transition(spec, board, dice[h])
        boards.append(board)
    return boards, classical_eval(spec, board)


def law_streams(spec, faces) -> list[tuple[list, list]]:
    """Each face row of ``input_law`` as its ``(selectors, dice)``
    streams: ``selectors[h][p]`` and ``dice[h][i]``, rounds in order."""
    h, p, n = spec.horizon, len(spec.placed_codes), spec.n_cells
    sel, dice = law_columns(spec)
    order = np.concatenate((sel.ravel(), dice.ravel()))
    dice0 = h * p
    return [([row[i * p:(i + 1) * p] for i in range(h)],
             [row[dice0 + i * n:dice0 + (i + 1) * n] for i in range(h)])
            for row in faces[:, order].tolist()]


# ---------------------------------------------------------------------------
# distribution DPs and loops


class KernelCache:
    """Per-spec memo of the per-cell-independent transition expansion."""

    def __init__(self, spec):
        self.spec = spec
        self.memo = {}
        self.nbrs = dm.neighbors(spec.payoff_params["m"])

    def expand(self, board: int):
        hit = self.memo.get(board)
        if hit is not None:
            return hit
        outcomes = [(0, 1.0)]
        for i, adj in enumerate(self.nbrs):
            branches = self._cell_branches(board, i, adj)
            if len(branches) == 1 and branches[0][1] == 1.0:
                code = branches[0][0]
                outcomes = [(acc | (code << (2 * i)), pr)
                            for acc, pr in outcomes]
            else:
                outcomes = [(acc | (code << (2 * i)), pr * cp)
                            for acc, pr in outcomes
                            for code, cp in branches]
        result = tuple(outcomes)
        self.memo[board] = result
        return result

    def _cell_branches(self, board: int, i: int, adj):
        spec = self.spec
        code = cell(board, i)
        if spec.name == "sway":
            if code == dm.EMPTY:
                return ((dm.EMPTY, 1.0),)
            k = sum(1 for j in adj if cell(board, j) == code)
            pf = (4 - k) / dm.SWAY_FACES
            if pf == 0.0:
                return ((code, 1.0),)
            other = dm.BLACK if code == dm.WHITE else dm.WHITE
            return ((code, 1.0 - pf), (other, pf))
        if code == dm.SUSCEPTIBLE:
            c = sum(1 for j in adj if cell(board, j) == dm.INFECTED)
            if c == 0:
                return ((dm.SUSCEPTIBLE, 1.0),)
            pi = c / dm.SIR_FACES
            return ((dm.SUSCEPTIBLE, 1.0 - pi), (dm.INFECTED, pi))
        if code == dm.INFECTED:
            rho = spec.payoff_params["rho"]
            if rho == 0:
                return ((dm.INFECTED, 1.0),)
            pr = rho / dm.SIR_FACES
            return ((dm.INFECTED, 1.0 - pr), (dm.RECOVERED, pr))
        return ((dm.RECOVERED, 1.0),)


def _mix_pass(spec, dist: dict, pass_index: int) -> dict:
    n, w = spec.n_cells, spec.w
    inv = 1.0 / (1 << w)
    out = defaultdict(float)
    for board, pr in dist.items():
        mask = classical_validity(spec, board)
        positions = [i for i in range(n) if (mask >> i) & 1]
        sentinel = ((1 << w) - len(positions)) * inv
        if sentinel:
            out[board] += pr * sentinel
        for j in positions:
            out[classical_place(spec, board, j, pass_index)] += pr * inv
    return dict(out)


def dict_exact_value(spec, board0: int, first_move=None, cache=None) -> float:
    """Exact payoff probability by a dict of boards and their mass."""
    cache = cache if cache is not None else KernelCache(spec)
    dist = {board0: 1.0}
    for h in range(spec.horizon):
        for pj in range(len(spec.placed_codes)):
            if h == 0 and pj == 0 and first_move is not None:
                dist = {place_first_move(spec, b, first_move): p
                        for b, p in dist.items()}
            else:
                dist = _mix_pass(spec, dist, pj)
        nxt = defaultdict(float)
        for board, pr in dist.items():
            for nb, p in cache.expand(board):
                nxt[nb] += pr * p
        dist = dict(nxt)
    return sum(pr for b, pr in dist.items() if classical_eval(spec, b) == 1)


def array_exact_value(spec, board0: int, first_move=None) -> float:
    """Exact payoff probability by the array DP on every board: each
    transition, the last one included, splits each board into its outcome
    rows, and ``array_eval`` reads the final boards."""
    skip = first_move is not None and spec.horizon > 0
    if skip:
        board0 = place_first_move(spec, board0, first_move)
    states, probs = np.array([board0], dtype=np.int64), np.ones(1)
    for h in range(spec.horizon):
        for pj, code in enumerate(spec.placed_codes):
            if not (skip and h == pj == 0):
                states, probs = dm._select_pass(states, probs, spec.n_cells,
                                                1 << spec.w, code)
        states, probs = dm.transition_distribution(spec, states, probs)
    final = dm.board_codes(states, spec.n_cells)
    return float(probs[spec.array_eval(final) == 1].sum())


def loop_sample_payoff(spec, board0: int, shots: int, seed: int,
                       first_move=None) -> int:
    """Wins over ``shots`` rows of the input law, one ``classical_trace``
    per row."""
    wins = 0
    for faces in input_law(spec, board0).draw_chunks(shots, seed):
        for selectors, dice in law_streams(spec, faces):
            wins += classical_trace(spec, board0, selectors, dice,
                                    first_move=first_move)[1]
    return wins


def coupled_pair(spec, board_a: int, board_b: int, selectors, dice,
                 first_move):
    """Position coupling: board b places at a's decoded position when that
    cell is valid on b."""
    n = spec.n_cells
    a, b = board_a, board_b
    for h in range(spec.horizon):
        for pj in range(len(spec.placed_codes)):
            if h == 0 and pj == 0 and first_move is not None:
                a = place_first_move(spec, a, first_move)
                b = place_first_move(spec, b, first_move)
                continue
            j = select_semantics(classical_validity(spec, a), n,
                                 selectors[h][pj])
            if j < n:
                a = classical_place(spec, a, j, pj)
                if (classical_validity(spec, b) >> j) & 1:
                    b = classical_place(spec, b, j, pj)
        a = classical_transition(spec, a, dice[h])
        b = classical_transition(spec, b, dice[h])
    return classical_eval(spec, a), classical_eval(spec, b)


def loop_influence_sums(spec, board_a: int, board_b: int, trials: int,
                        seed: int, first_move=None, coupling="position"):
    """The integer sums of the coupled payoff differences and of their
    squares, one pair of traces per row.  ``position`` coupling is
    :func:`coupled_pair`, what ``bounds.empirical_influence`` runs;
    ``rank`` coupling shares the raw selector ranks, two independent
    traces."""
    diffs_sum = diffs_sq = 0
    for faces in input_law(spec, board_a).draw_chunks(trials, seed):
        for selectors, dice in law_streams(spec, faces):
            if coupling == "rank":
                pa = classical_trace(spec, board_a, selectors, dice,
                                     first_move)[1]
                pb = classical_trace(spec, board_b, selectors, dice,
                                     first_move)[1]
            else:
                pa, pb = coupled_pair(spec, board_a, board_b, selectors,
                                      dice, first_move)
            diffs_sum += pa - pb
            diffs_sq += (pa - pb) ** 2
    return diffs_sum, diffs_sq


# ---------------------------------------------------------------------------
# the row-major rollout kernel: one row per board, one column per cell

def row_select(valid, ranks):
    """Rank-select on every row of a ``(rows, n)`` bool array: row ``r``
    marks the ``ranks[r]``-th set cell of ``valid[r]``, or none."""
    count = np.cumsum(valid, axis=1,
                      dtype=np.min_scalar_type(valid.shape[1]))
    return valid & (count == ranks[:, None] + 1)


def row_neighbour_counts(mask, m: int):
    """Per cell of each row of a ``(rows, m*m)`` bool array, how many of its
    four grid neighbours are set, as int8, by shifted-slice adds along each
    row."""
    x = mask.view(np.int8)
    out = np.zeros_like(x)
    out[:, m:] += x[:, :-m]
    out[:, :-m] += x[:, m:]
    out[:, 1:] += x[:, :-1]
    out[:, :-1] += x[:, 1:]
    # the two shifts by one also wrap from a grid row's end to the next
    # row's start; take those back
    out[:, m::m] -= x[:, m - 1:-1:m]
    out[:, m - 1:-1:m] -= x[:, m::m]
    return out


def row_flip_law(spec):
    """The spec's dice law on ``(rows, N)`` int8 code arrays: codes ->
    (threshold, alt)."""
    m = spec.payoff_params["m"]
    if spec.name == "sway":
        def law(codes):
            black = row_neighbour_counts(codes == dm.BLACK, m)
            white = row_neighbour_counts(codes == dm.WHITE, m)
            same = np.where(codes == dm.BLACK, black, white)
            return np.where(codes == dm.EMPTY, 0, 4 - same), 3 - codes
        return law
    rho = spec.payoff_params["rho"]

    def law(codes):
        c = row_neighbour_counts(codes == dm.INFECTED, m)
        threshold = np.where(codes == dm.SUSCEPTIBLE, c,
                             np.where(codes == dm.INFECTED, rho, 0))
        return threshold, codes + 1
    return law


def row_rollout_codes(spec, boards0, faces, first_move=None):
    """``domains.rollout_codes`` on ``(rows, N)`` code arrays, one row per
    branch, reading the ``(rows, fields)`` int64 faces as they are."""
    rows, n = faces.shape[0], spec.n_cells
    sel, dice = law_columns(spec)
    law = row_flip_law(spec)
    skip = first_move is not None and spec.horizon > 0
    if skip:
        for board in boards0:                # reject an invalid first move
            place_first_move(spec, board, first_move)
    boards = [np.tile(dm.board_codes(b, n), (rows, 1)) for b in boards0]
    yield boards
    for h in range(spec.horizon):
        for pj, code in enumerate(spec.placed_codes):
            if skip and h == pj == 0:
                for board in boards:
                    board[:, first_move] = code
                continue
            hit = row_select(boards[0] == dm.EMPTY, faces[:, sel[h, pj]])
            boards[0][hit] = code
            for board in boards[1:]:
                board[hit & (board == dm.EMPTY)] = code
        roll = faces[:, dice[h]]
        for k, board in enumerate(boards):
            threshold, alt = law(board)
            boards[k] = np.where(roll < threshold, alt, board)
        yield boards
