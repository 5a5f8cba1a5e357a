"""Test helper: the classical references that faster paths are held to.

These are the dict-based distribution DP and the per-row loops over
``classical_trace`` that the code-array kernels in ``qrollout.domains`` and
``qrollout.bounds`` replaced, and the array DP that ``exact_value`` was
before it kept symmetry classes and convolved the last round's count; the
differential tests hold the array paths to them.  ``_cell_branches``
states the dice law in its own terms, apart from the specs' ``flip_law``
hooks.
"""

from collections import defaultdict

import numpy as np

from qrollout import domains as dm
from qrollout.oracle import input_law, law_streams, place_first_move
from qrollout.rank_select import select_semantics


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
        code = dm.cell(board, i)
        if spec.name == "sway":
            if code == dm.EMPTY:
                return ((dm.EMPTY, 1.0),)
            k = sum(1 for j in adj if dm.cell(board, j) == code)
            pf = (4 - k) / dm.SWAY_FACES
            if pf == 0.0:
                return ((code, 1.0),)
            other = dm.BLACK if code == dm.WHITE else dm.WHITE
            return ((code, 1.0 - pf), (other, pf))
        if code == dm.SUSCEPTIBLE:
            c = sum(1 for j in adj if dm.cell(board, j) == dm.INFECTED)
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
        mask = spec.classical_validity(board)
        positions = [i for i in range(n) if (mask >> i) & 1]
        sentinel = ((1 << w) - len(positions)) * inv
        if sentinel:
            out[board] += pr * sentinel
        for j in positions:
            out[spec.classical_place(board, j, pass_index)] += pr * inv
    return dict(out)


def dict_exact_value(spec, board0: int, first_move=None, cache=None) -> float:
    """Exact payoff probability by a dict of boards and their mass."""
    cache = cache if cache is not None else KernelCache(spec)
    dist = {board0: 1.0}
    for h in range(spec.horizon):
        for pj in range(spec.selectors_per_round):
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
    return sum(pr for b, pr in dist.items() if spec.classical_eval(b) == 1)


def array_exact_value(spec, board0: int, first_move=None) -> float:
    """Exact payoff probability by the array DP on every board: each
    transition, the last one included, splits each board into its outcome
    rows, and ``array_eval`` reads the final boards."""
    shift = 2 * np.arange(spec.n_cells, dtype=np.int64)
    codes = dm._placement_codes(spec)
    skip = first_move is not None and spec.horizon > 0
    if skip:
        board0 = place_first_move(spec, board0, first_move)
    states, probs = np.array([board0], dtype=np.int64), np.ones(1)
    for h in range(spec.horizon):
        for pj in range(spec.selectors_per_round):
            if not (skip and h == pj == 0):
                states, probs = dm._select_pass(states, probs, shift,
                                                1 << spec.w, codes[pj])
        states, probs = dm.transition_distribution(spec, states, probs)
    final = dm._unpack(states, shift)
    return float(probs[spec.array_eval(final) == 1].sum())


def loop_sample_payoff(spec, board0: int, shots: int, seed: int,
                       first_move=None) -> int:
    """Wins over ``shots`` rows of the input law, one ``classical_trace``
    per row."""
    wins = 0
    for faces in input_law(spec, board0).draw_chunks(shots, seed):
        for selectors, dice in law_streams(spec, faces):
            wins += dm.classical_trace(spec, board0, selectors, dice,
                                       first_move=first_move)[1]
    return wins


def coupled_pair(spec, board_a: int, board_b: int, selectors, dice,
                 first_move):
    """Position coupling: board b places at a's decoded position when that
    cell is valid on b."""
    n = spec.n_cells
    a, b = board_a, board_b
    for h in range(spec.horizon):
        for pj in range(spec.selectors_per_round):
            if h == 0 and pj == 0 and first_move is not None:
                a = place_first_move(spec, a, first_move)
                b = place_first_move(spec, b, first_move)
                continue
            j = select_semantics(spec.classical_validity(a), n,
                                 selectors[h][pj])
            if j < n:
                a = spec.classical_place(a, j, pj)
                if (spec.classical_validity(b) >> j) & 1:
                    b = spec.classical_place(b, j, pj)
        a = spec.classical_transition(a, dice[h])
        b = spec.classical_transition(b, dice[h])
    return spec.classical_eval(a), spec.classical_eval(b)


def loop_influence_sums(spec, board_a: int, board_b: int, trials: int,
                        seed: int, first_move=None, coupling="position"):
    """The integer sums of the coupled payoff differences and of their
    squares, one pair of traces per row."""
    diffs_sum = diffs_sq = 0
    for faces in input_law(spec, board_a).draw_chunks(trials, seed):
        for selectors, dice in law_streams(spec, faces):
            if coupling == "rank":
                pa = dm.classical_trace(spec, board_a, selectors, dice,
                                        first_move)[1]
                pb = dm.classical_trace(spec, board_b, selectors, dice,
                                        first_move)[1]
            else:
                pa, pb = coupled_pair(spec, board_a, board_b, selectors,
                                      dice, first_move)
            diffs_sum += pa - pb
            diffs_sq += (pa - pb) ** 2
    return diffs_sum, diffs_sq
