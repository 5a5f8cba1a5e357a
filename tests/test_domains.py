"""Sway / SIR rules, classical rollouts, exact DP, arm means."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import classical_reference as ref
from classical_reference import cell
from emulate import draw
from qrollout import domains as dm
from qrollout import oracle as orc


def format_board(board: int, m: int, domain: str) -> str:
    """Row-per-line grid of cell symbols, the inverse of ``parse_board``."""
    symbols = {"sway": ".BW", "sir": "SIR"}[domain]
    return "\n".join("".join(symbols[cell(board, r * m + c)]
                              for c in range(m)) for r in range(m))


CENTER3 = dm.parse_board("SSS\nSIS\nSSS", "sir")


def test_board_text_roundtrip():
    text = ".BW\nWB.\n..B"
    board = dm.parse_board(text, "sway")
    assert format_board(board, 3, "sway") == text
    text = "SIR\nRIS\nSSS"
    board = dm.parse_board(text, "sir")
    assert format_board(board, 3, "sir") == text


def test_neighbors_grid():
    nb = dm.neighbors(3)
    assert sorted(nb[4]) == [1, 3, 5, 7]     # center
    assert sorted(nb[0]) == [1, 3]           # corner
    assert dm.neighbors(1) == [[]]


def _one_round(spec, board, selectors, dice):
    """Board after round 1 of an H=1 trace."""
    boards, _ = ref.classical_trace(spec, board, [selectors], [dice])
    return boards[1]


def test_sway_places_then_flips():
    spec = dm.sway_spec(dm.SwayConfig(m=2, horizon=1))
    # empty board, black selector 0 places at position 0; dice high: no flips
    board = _one_round(spec, 0, [0, 0], [19, 19, 19, 19])
    assert cell(board, 0) == dm.BLACK
    assert cell(board, 1) == dm.WHITE     # white sees mask without cell 0
    # full board: both placements are sentinel no-ops
    full = 0
    for i in range(4):
        full = dm.set_cell(full, i, dm.BLACK)
    out = _one_round(spec, full, [0, 0], [19, 19, 19, 19])
    for i in range(4):
        assert cell(out, i) in (dm.BLACK, dm.WHITE)


def test_sway_isolated_flip_probability():
    # isolated black piece (k=0) flips iff die in {0,1,2,3}
    cfg = dm.SwayConfig(m=3, horizon=1)
    board = dm.set_cell(0, 4, dm.BLACK)
    spec = dm.sway_spec(cfg)
    for die in range(20):
        out = ref.classical_transition(spec, board,
                                       [19] * 4 + [die] + [19] * 4)
        expected = dm.WHITE if die < 4 else dm.BLACK
        assert cell(out, 4) == expected


def test_sway_flip_uses_preflip_neighbors():
    # two adjacent blacks: each has k=1, flip prob (4-1)/20; flipping one
    # must not change the other's threshold within the same round
    cfg = dm.SwayConfig(m=2, horizon=1)
    board = dm.set_cell(dm.set_cell(0, 0, dm.BLACK), 1, dm.BLACK)
    spec = dm.sway_spec(cfg)
    out = ref.classical_transition(spec, board, [2, 2, 0, 0])
    # both dice = 2 < 3: both flip simultaneously
    assert cell(out, 0) == dm.WHITE and cell(out, 1) == dm.WHITE


def test_sway_flip_frequency_matches_table():
    # measured flip frequency per same-color neighbor count k vs (4-k)/20
    rng = random.Random(17)
    cfg = dm.SwayConfig(m=2, horizon=1)
    spec = dm.sway_spec(cfg)
    # board: two blacks adjacent (cells 0,1) -> k=1 for each
    board = dm.set_cell(dm.set_cell(0, 0, dm.BLACK), 1, dm.BLACK)
    trials = 20000
    flips = 0
    for _ in range(trials):
        dice = [rng.randrange(20) for _ in range(4)]
        out = ref.classical_transition(spec, board, dice)
        flips += cell(out, 0) == dm.WHITE
    p = 3 / 20
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(flips / trials - p) <= 3 * sigma


def test_sir_single_round_examples():
    cfg = dm.SirConfig(m=3, horizon=1, threshold=2, rho=2)
    spec = dm.sir_spec(cfg)
    # no infected cells: spread is identity, only vaccination acts
    board = 0
    out = _one_round(spec, board, [0], [7] * 9)
    assert cell(out, 0) == dm.RECOVERED
    assert all(cell(out, i) == dm.SUSCEPTIBLE for i in range(1, 9))
    # susceptible with c=4 infected neighbors, die=3 -> infected (3 < 4)
    board = 0
    for j in (1, 3, 5, 7):
        board = dm.set_cell(board, j, dm.INFECTED)
    dice = [7] * 9
    dice[4] = 3
    out = ref.classical_transition(spec, board, dice)
    assert cell(out, 4) == dm.INFECTED
    # infected cell with rho=2 and die=5 stays infected
    board = dm.set_cell(0, 4, dm.INFECTED)
    dice = [7] * 9
    dice[4] = 5
    out = ref.classical_transition(spec, board, dice)
    assert cell(out, 4) == dm.INFECTED
    dice[4] = 1
    out = ref.classical_transition(spec, board, dice)
    assert cell(out, 4) == dm.RECOVERED


def test_sir_vaccination_precedes_spread():
    # vaccinating the only susceptible neighbor of an infected cell blocks
    # infection in the same round
    spec = dm.sir_spec(dm.SirConfig(m=2, horizon=1, threshold=4, rho=0))
    board = dm.set_cell(0, 0, dm.INFECTED)
    # selector 1 -> second susceptible cell (positions 1,2,3; rank 1 -> 2);
    # cell 2 is adjacent to the infected corner but was vaccinated first
    out = _one_round(spec, board, [1], [0, 0, 0, 0])
    assert cell(out, 2) == dm.RECOVERED
    assert cell(out, 1) == dm.INFECTED    # die 0 < c=1
    assert cell(out, 3) == dm.SUSCEPTIBLE  # diagonal: no infected neighbor


def test_classical_trace_h0_and_drift():
    spec = dm.sir_spec(dm.SirConfig(m=2, horizon=0, threshold=0))
    board = dm.set_cell(0, 1, dm.INFECTED)
    boards, pay = ref.classical_trace(spec, board, [], [])
    assert boards == [board]
    assert pay == 0
    # all-sentinel selectors, max dice: pure drift on a 2x2 sway board
    spec = dm.sway_spec(dm.SwayConfig(m=2, horizon=2))
    board = dm.set_cell(0, 0, dm.BLACK)
    sel = [[15, 15], [15, 15]]   # w=3 for n=4 -> 8..15 all out of range
    dice = [[19] * 4, [19] * 4]
    boards, _ = ref.classical_trace(spec, board, sel, dice)
    assert boards[-1] == board   # k=0 flip needs die < 4; 19 never flips


def test_stream_length_validation():
    spec = dm.sway_spec(dm.SwayConfig(m=2, horizon=2))
    with pytest.raises(Exception):
        ref.classical_trace(spec, 0, [[0, 0]], [[0] * 4])


def test_exact_value_h0_trivial():
    spec = dm.sir_spec(dm.SirConfig(m=2, horizon=0, threshold=0))
    assert dm.exact_value(spec, 0) == 1.0
    board = dm.set_cell(0, 0, dm.INFECTED)
    assert dm.exact_value(spec, board) == 0.0


def test_exact_value_budget():
    spec = dm.sway_spec(dm.SwayConfig(m=4, horizon=1))
    with pytest.raises(dm.BudgetError):
        dm.exact_value(spec, 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7])
def test_neighbour_counts_match_the_neighbour_lists(m):
    # one row per cell, one column per board
    mask = np.random.default_rng(m).random((m * m, 64)) < 0.5
    want = [[sum(board[j] for j in adj) for adj in dm.neighbors(m)]
            for board in mask.T.tolist()]
    got = dm.neighbour_counts(mask, m)
    assert got.dtype == np.int8 and got.T.tolist() == want
    assert (got.T == ref.row_neighbour_counts(mask.T, m)).all()


def _array_step(spec, board):
    """The array kernel's one-step transition distribution of one board."""
    states, probs = dm.transition_distribution(
        spec, np.array([board], dtype=np.int64), np.ones(1))
    return dict(zip(states.tolist(), probs.tolist()))


def _array_transition(spec, board, dice):
    """The sampler's transition of one board under one row of dice."""
    codes = dm.board_codes(board, spec.n_cells)[:, None]
    threshold, alt = spec.flip_law(codes)
    out = np.where(np.array(dice)[:, None] < threshold, alt, codes)
    return _pack(out[:, 0])


def _pack(codes) -> int:
    return sum(int(c) << (2 * i) for i, c in enumerate(codes))


def test_board_codes_unpacks_ints_of_any_width_and_int64_arrays():
    rng = random.Random(19)
    for n in (1, 9, 31, 32, 36):
        codes = [[rng.randrange(3) for _ in range(n)] for _ in range(5)]
        # the last cell at code 2: at n = 32 a board in [2^63, 2^64)
        codes.append([0] * (n - 1) + [2])
        for row in codes:
            got = dm.board_codes(_pack(row), n)
            assert got.dtype == np.int8 and got.tolist() == row
        if n <= 31:
            boards = np.array([_pack(row) for row in codes], dtype=np.int64)
            got = dm.board_codes(boards, n)       # one row per cell
            assert got.dtype == np.int8 and got.T.tolist() == codes


def test_board_pack_inverts_board_codes():
    rng = random.Random(23)
    assert dm.board_pack([]) == 0
    for n in (1, 9, 31, 32, 36):
        boards = [rng.getrandbits(2 * n) for _ in range(6)]
        boards.append(_pack([0] * (n - 1) + [2]))
        for b in boards:
            got = dm.board_pack(dm.board_codes(b, n))
            assert type(got) is int and got == b


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 39).flatmap(lambda n: st.tuples(
    st.integers(0, 4 ** n - 1), st.integers(0, n - 1), st.integers(0, 3),
    st.just(n))))
def test_set_cell_equals_unpack_set_pack(case):
    board, i, code, n = case
    codes = dm.board_codes(board, n)
    codes[i] = code
    assert dm.set_cell(board, i, code) == dm.board_pack(codes)


@pytest.mark.parametrize("i, code", [(0, 4), (0, -1), (2, 200), (-1, 1)])
def test_set_cell_rejects_a_negative_cell_or_a_code_past_3(i, code):
    with pytest.raises(ValueError, match="a code is 0..3"):
        dm.set_cell(5, i, code)


def test_kernel_against_bruteforce_dice_2x2():
    # the array transition distribution must equal brute-force enumeration
    # of all dice on a 2x2 SIR grid
    cfg = dm.SirConfig(m=2, horizon=1, threshold=1, rho=2)
    spec = dm.sir_spec(cfg)
    board = dm.set_cell(0, 0, dm.INFECTED)
    got = _array_step(spec, board)
    brute = {}
    for dice in itertools.product(range(8), repeat=4):
        nb = ref.classical_transition(spec, board, list(dice))
        assert _array_transition(spec, board, dice) == nb
        brute[nb] = brute.get(nb, 0) + 1
    total = 8 ** 4
    assert set(got) == set(brute)
    for nb, count in brute.items():
        assert abs(got[nb] - count / total) < 1e-12


def test_kernel_against_bruteforce_dice_2x2_sway():
    cfg = dm.SwayConfig(m=2, horizon=1)
    spec = dm.sway_spec(cfg)
    board = dm.set_cell(dm.set_cell(0, 0, dm.BLACK), 3, dm.WHITE)
    got = _array_step(spec, board)
    brute = {}
    for d0 in range(20):
        for d3 in range(20):
            nb = ref.classical_transition(spec, board, [d0, 0, 0, d3])
            assert _array_transition(spec, board, [d0, 0, 0, d3]) == nb
            brute[nb] = brute.get(nb, 0) + 1
    total = 20 ** 2
    assert set(got) == set(brute)
    for nb, count in brute.items():
        assert abs(got[nb] - count / total) < 1e-12


def _trace_rows(spec, board, faces, first_move=None):
    return [ref.classical_trace(spec, board, sel, dice, first_move=first_move)
            for sel, dice in ref.law_streams(spec, faces)]


@pytest.mark.parametrize("spec,board,first_move", [
    (dm.sway_spec(dm.SwayConfig(3, 0)), 0, None),
    (dm.sir_spec(dm.SirConfig(3, 0, threshold=0)), CENTER3, None),
    # 11 rounds: dice_h10 and dice_h11 sort before dice_h2 in the law
    (dm.sway_spec(dm.SwayConfig(2, 11)), 0, None),
    (dm.sway_spec(dm.SwayConfig(2, 11)), 0, 3),
    (dm.sway_spec(dm.SwayConfig(3, 2)), dm.set_cell(0, 4, dm.WHITE), 0),
    (dm.sir_spec(dm.SirConfig(3, 3, threshold=2)), CENTER3, None),
    (dm.sir_spec(dm.SirConfig(3, 2, threshold=2, rho=5)), CENTER3, 7),
    # selectors past int8 (w = 8, up to 255) and past uint8 (w = 9, up to
    # 511): faces narrowed to a dtype that does not hold them decode some
    # ranks to the wrong cell
    pytest.param(dm.sway_spec(dm.SwayConfig(12, 2)), 0, None, id="sway12"),
    pytest.param(dm.sir_spec(dm.SirConfig(12, 2, threshold=3)),
                 dm.set_cell(0, 6 * 12 + 6, dm.INFECTED), None, id="sir12"),
    pytest.param(dm.sway_spec(dm.SwayConfig(16, 2)), 0, None, id="sway16"),
    pytest.param(dm.sir_spec(dm.SirConfig(16, 2, threshold=3)),
                 dm.set_cell(0, 8 * 16 + 8, dm.INFECTED), None, id="sir16"),
])
def test_array_rollouts_match_classical_trace_row_by_row(spec, board,
                                                         first_move):
    # every round's boards, the ones branchwise validation writes into the
    # config registers, not just the final ones
    faces = draw(orc.input_law(spec, board), 400, 31)
    rounds = [codes.copy() for [codes] in dm.rollout_codes(spec, [board],
                                                           faces, first_move)]
    assert len(rounds) == spec.horizon + 1
    payoff = spec.array_eval(rounds[-1])
    for r, (boards, bit) in enumerate(_trace_rows(spec, board, faces,
                                                  first_move)):
        assert [_pack(codes[:, r]) for codes in rounds] == boards, r
        assert payoff[r] == bit, r


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cell_major_kernel_equals_the_row_major_referee(data):
    m, horizon = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        spec = dm.sway_spec(dm.SwayConfig(m, horizon))
    else:
        spec = dm.sir_spec(dm.SirConfig(m, horizon,
                                        threshold=data.draw(st.integers(0, 3)),
                                        rho=data.draw(st.integers(0, 8))))
    n = spec.n_cells
    boards = data.draw(st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n).map(_pack),
        min_size=1, max_size=2))
    empty = [i for i in range(n) if all(cell(b, i) == dm.EMPTY
                                        for b in boards)]
    first_move = data.draw(st.sampled_from([None] + empty))
    rows = data.draw(st.sampled_from((0, 1)) | st.integers(2, 60))
    faces = draw(orc.input_law(spec, boards[0]), rows,
                 data.draw(st.integers(0, 99)))
    got = dm.rollout_codes(spec, boards, faces, first_move)
    want = ref.row_rollout_codes(spec, boards, faces, first_move)
    for h, (cell_major, row_major) in enumerate(zip(got, want)):
        assert len(cell_major) == len(boards)
        for a, b in zip(cell_major, row_major):
            assert a.dtype == np.int8 and np.array_equal(a, b.T), h
    assert h == spec.horizon


@pytest.mark.parametrize("spec,board,other", [
    (dm.sir_spec(dm.SirConfig(3, 2, threshold=2)), CENTER3,
     dm.set_cell(CENTER3, 1, dm.RECOVERED)),
    # a cell empty on the first board and black on the second: following a
    # placement there would overwrite the second board's piece
    (dm.sway_spec(dm.SwayConfig(3, 2)), 0, dm.set_cell(0, 4, dm.BLACK)),
])
def test_coupled_array_rollouts_match_the_pair_loop(spec, board, other):
    # position coupling: the second board follows the first board's
    # placements where they are valid on it; rank coupling: independent
    # rollouts, one board per call
    faces = draw(orc.input_law(spec, board), 300, 8)
    streams = ref.law_streams(spec, faces)
    for first_move in (None, 6):
        a, b = dm.final_codes(spec, [board, other], faces, first_move)
        for r, (sel, dice) in enumerate(streams):
            want = ref.coupled_pair(spec, board, other, sel, dice,
                                    first_move)
            assert (spec.array_eval(a)[r], spec.array_eval(b)[r]) == want
        [a] = dm.final_codes(spec, [board], faces, first_move)
        [b] = dm.final_codes(spec, [other], faces, first_move)
        rows = zip(_trace_rows(spec, board, faces, first_move),
                   _trace_rows(spec, other, faces, first_move))
        for r, ((ta, _), (tb, _)) in enumerate(rows):
            assert (_pack(a[:, r]), _pack(b[:, r])) == (ta[-1], tb[-1])


@pytest.mark.parametrize("spec,board,first_moves", [
    (dm.sway_spec(dm.SwayConfig(3, 2)), 0, (None, 0, 4)),
    (dm.sway_spec(dm.SwayConfig(5, 2)), 0, (None, 12)),
    (dm.sir_spec(dm.SirConfig(3, 2, threshold=2)), CENTER3, (None, 1)),
    (dm.sway_spec(dm.SwayConfig(2, 11)), 0, (None, 2)),
])
def test_sample_payoff_equals_the_trace_loop(spec, board, first_moves):
    for seed in (1, 2, 3):
        for fm in first_moves:
            p, _ = dm.sample_payoff(spec, board, 700, seed, first_move=fm)
            assert p == ref.loop_sample_payoff(spec, board, 700, seed,
                                               first_move=fm) / 700


def _dp_instances():
    for t in range(5):
        yield dm.sir_spec(dm.SirConfig(3, 2, threshold=t)), CENTER3
    for rho in range(9):
        yield dm.sir_spec(dm.SirConfig(3, 2, threshold=2, rho=rho)), CENTER3
    yield dm.sir_spec(dm.SirConfig(3, 1, threshold=1)), CENTER3
    yield dm.sway_spec(dm.SwayConfig(3, 2)), 0
    yield dm.sway_spec(dm.SwayConfig(3, 1)), 0
    yield dm.sway_spec(dm.SwayConfig(2, 3)), dm.set_cell(0, 1, dm.WHITE)


def test_exact_value_matches_the_dict_dp():
    for spec, board in _dp_instances():
        cache = ref.KernelCache(spec)
        for fm in (None, 0, 2, 3):
            got = dm.exact_value(spec, board, first_move=fm)
            want = ref.dict_exact_value(spec, board, first_move=fm,
                                        cache=cache)
            assert abs(got - want) <= 1e-12, (spec.payoff_params, fm)


ASYMMETRIC3 = dm.parse_board("B..\n..W\n...", "sway")   # no symmetry fixes it


def _differential_instances():
    for m in (2, 3):
        for h in range(3):
            yield dm.sway_spec(dm.SwayConfig(m, h)), 0, None
            board = dm.set_cell(0, (m * m) // 2, dm.INFECTED)
            yield dm.sir_spec(dm.SirConfig(m, h, threshold=1)), board, None
    yield dm.sway_spec(dm.SwayConfig(3, 4)), 0, None
    for rho in range(9):
        yield (dm.sir_spec(dm.SirConfig(3, 2, threshold=2, rho=rho)),
               CENTER3, None)
    for fm in range(4):
        yield dm.sway_spec(dm.SwayConfig(3, 2)), 0, fm
        yield dm.sir_spec(dm.SirConfig(3, 2, threshold=2)), CENTER3, fm
    yield dm.sway_spec(dm.SwayConfig(3, 2)), ASYMMETRIC3, None
    yield dm.sway_spec(dm.SwayConfig(3, 2)), ASYMMETRIC3, 8
    yield (dm.sir_spec(dm.SirConfig(3, 2, threshold=1)),
           dm.parse_board("ISS\nSSS\nSRS", "sir"), None)


@pytest.mark.parametrize("spec,board,first_move", _differential_instances())
def test_exact_value_matches_the_array_and_dict_dps(spec, board, first_move):
    # symmetry classes and the terminal count convolution against the
    # array DP on every board and the dict DP
    got = dm.exact_value(spec, board, first_move=first_move)
    assert abs(got - ref.array_exact_value(spec, board, first_move)) <= 1e-12
    assert abs(got - ref.dict_exact_value(spec, board, first_move)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_square_symmetries_are_the_grid_automorphisms(m):
    perms = dm.square_symmetries(m)
    assert len(perms) == (1 if m == 1 else 8)
    assert perms[0].tolist() == list(range(m * m))
    nbrs = [set(adj) for adj in dm.neighbors(m)]
    for g in perms.tolist():
        assert sorted(g) == list(range(m * m))
        # the gather convention: cell i of the image is cell g[i]
        assert all({g[j] for j in nbrs[i]} == nbrs[g[i]]
                   for i in range(m * m))


@pytest.mark.parametrize("spec", [
    dm.sway_spec(dm.SwayConfig(3, 1)), dm.sway_spec(dm.SwayConfig(4, 1)),
    dm.sway_spec(dm.SwayConfig(5, 1)),
    dm.sir_spec(dm.SirConfig(3, 1, threshold=2, rho=3)),
    dm.sir_spec(dm.SirConfig(4, 1, threshold=5)),
])
def test_laws_and_payoff_commute_with_the_square_symmetries(spec):
    rng = np.random.default_rng(spec.n_cells)
    codes = rng.integers(0, 3, size=(spec.n_cells, 500)).astype(np.int8)
    threshold, alt = spec.flip_law(codes)
    payoff = spec.array_eval(codes)
    for g in dm.square_symmetries(math.isqrt(spec.n_cells)):
        image = codes[g]
        got_threshold, got_alt = spec.flip_law(image)
        assert (got_threshold == threshold[g]).all()
        assert (got_alt == alt[g]).all()
        assert (spec.array_eval(image) == payoff).all()


def _image(board: int, g) -> int:
    return _pack(dm.board_codes(board, len(g))[g])


@pytest.mark.parametrize("spec", [
    dm.sway_spec(dm.SwayConfig(3, 2)),
    dm.sir_spec(dm.SirConfig(3, 2, threshold=2)),
])
def test_exact_value_is_equal_on_every_image_of_a_board(spec):
    rng = np.random.default_rng(5)
    codes = rng.choice(3, size=9, p=[0.6, 0.2, 0.2])
    board = _pack(codes)
    images = {_image(board, g) for g in dm.square_symmetries(3)}
    assert len(images) == 8                 # no symmetry fixes the board
    values = [dm.exact_value(spec, image) for image in images]
    assert max(values) - min(values) <= 1e-12


def _old_array_eval(spec, codes):
    """The payoff as each domain stated it before the count hook, on an
    ``(N, rows)`` code array."""
    if spec.name == "sway":
        win = (codes == dm.BLACK).sum(axis=0) > (codes == dm.WHITE).sum(axis=0)
    else:
        win = ((codes == dm.INFECTED).sum(axis=0)
               <= spec.payoff_params["threshold"])
    return win.astype(np.int64)


@pytest.mark.parametrize("spec", [dm.sway_spec(dm.SwayConfig(20, 1)),
                                  dm.sir_spec(dm.SirConfig(20, 1, 200))],
                         ids=["sway", "sir"])
def test_per_code_counts_match_the_weight_gather_at_400_cells(spec):
    # 400 cells of one code overflow an int8 count; the counts must not
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 4, size=(400, 300)).astype(np.int8)
    for code in range(4):
        codes[:, code] = code
    weight = np.asarray(spec.count_weights, dtype=np.int64)
    want = weight[codes].sum(axis=0)
    assert want[:4].tolist() == [400 * w for w in spec.count_weights]
    got = spec.count(codes)
    assert got.dtype == np.int64 and (got == want).all()
    assert (spec.array_eval(codes) == spec.win(want).astype(np.int64)).all()
    assert spec.count(codes[:, 1]) == want[1]


def _outcomes(spec, board, every_die):
    """Each outcome of one transition of ``board`` with its probability,
    one column per outcome: with ``every_die`` one per dice tuple,
    otherwise one per set of cells whose die falls below its threshold."""
    codes = dm.board_codes(board, spec.n_cells)[:, None]
    threshold, alt = spec.flip_law(codes)
    n = spec.n_cells
    if every_die:
        dice = np.array(list(itertools.product(range(spec.faces),
                                               repeat=n))).T
        return (np.where(dice < threshold, alt, codes),
                np.full(dice.shape[1], spec.faces ** -n))
    flips = np.array(list(itertools.product((False, True), repeat=n))).T
    pf = threshold / spec.faces
    return (np.where(flips, alt, codes),
            np.where(flips, pf, 1 - pf).prod(axis=0))


@pytest.mark.parametrize("spec,board,every_die", [
    (dm.sway_spec(dm.SwayConfig(2, 1)),
     dm.parse_board("BW\nB.", "sway"), True),
    (dm.sway_spec(dm.SwayConfig(2, 1)),
     dm.parse_board("BB\nWW", "sway"), True),
    (dm.sir_spec(dm.SirConfig(2, 1, threshold=1, rho=3)),
     dm.parse_board("IS\nRS", "sir"), True),
    (dm.sir_spec(dm.SirConfig(2, 1, threshold=0)),
     dm.parse_board("II\nSS", "sir"), True),
    (dm.sway_spec(dm.SwayConfig(3, 1)),
     dm.parse_board("BW.\nWBB\n.WB", "sway"), False),
    (dm.sir_spec(dm.SirConfig(3, 1, threshold=3)),
     dm.parse_board("ISS\nSIR\nSSI", "sir"), False),
])
def test_count_hook_gives_the_old_payoff_on_every_outcome(spec, board,
                                                          every_die):
    final, prob = _outcomes(spec, board, every_die)
    want = _old_array_eval(spec, final)
    assert (spec.array_eval(final) == want).all()
    assert [ref.classical_eval(spec, _pack(board))
            for board in final.T[::97]] == want[::97].tolist()
    # the terminal count convolution is the outcomes' mean payoff
    got = dm._terminal_value(spec, np.array([board], dtype=np.int64),
                             np.ones(1))
    assert abs(got - float(prob @ want)) <= 1e-12


def test_rho_sweep_is_monotone_without_tolerance():
    values = [dm.exact_value(dm.sir_spec(dm.SirConfig(3, 2, threshold=2,
                                                      rho=rho)), CENTER3)
              for rho in range(9)]
    assert all(0.0 <= a <= b <= 1.0 for a, b in zip(values, values[1:]))


def test_exact_vs_mc_three_sigma():
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=2, threshold=2, rho=2))
    exact = dm.exact_value(spec, CENTER3)
    shots = 20000
    p, _ = dm.sample_payoff(spec, CENTER3, shots=shots, seed=404)
    assert abs(p - exact) <= 3 * math.sqrt(exact * (1 - exact) / shots)


def test_sample_payoff_rejects_shots_below_one():
    spec = dm.sway_spec(dm.SwayConfig(2, 1))
    for shots in (0, -4):
        with pytest.raises(orc.OracleError,
                           match=f"shots must be >= 1, got {shots}"):
            dm.sample_payoff(spec, 0, shots, 1)


def test_sir_monotone_in_threshold_and_rho():
    values_t = []
    for t in range(0, 5):
        spec = dm.sir_spec(dm.SirConfig(m=3, horizon=2, threshold=t, rho=2))
        values_t.append(dm.exact_value(spec, CENTER3))
    assert all(a <= b + 1e-12 for a, b in zip(values_t, values_t[1:]))
    values_r = []
    for rho in range(0, 9):
        spec = dm.sir_spec(dm.SirConfig(m=3, horizon=2, threshold=2, rho=rho))
        values_r.append(dm.exact_value(spec, CENTER3))
    assert all(a <= b + 1e-12 for a, b in zip(values_r, values_r[1:]))


def test_arm_means_symmetry_and_geometry():
    # symmetric initial config: symmetric arms have equal means
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=1, threshold=1, rho=2))
    moves = [0, 2, 6, 8]       # the four corners of the 3x3 grid
    means = dm.arm_means(spec, CENTER3, 4, first_moves=moves)
    assert max(means) - min(means) < 1e-12
    # vaccinating a neighbor of the center beats a far corner
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=2, threshold=2, rho=2))
    means = dm.arm_means(spec, CENTER3, 2, first_moves=[1, 0])
    assert means[0] >= means[1]


def test_arm_means_mc_within_ci():
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=1, threshold=1, rho=2))
    moves = dm.default_first_moves(spec, CENTER3, 3)
    means = dm.arm_means(spec, CENTER3, 3, first_moves=moves)
    for j, mu in enumerate(means):
        shots = 20000
        p, half = dm.sample_payoff(spec, CENTER3, shots=shots, seed=32 + j,
                                   first_move=moves[j])
        assert abs(p - mu) <= max(half, 3 * math.sqrt(mu * (1 - mu) / shots))


def test_default_first_moves():
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=1, threshold=1))
    moves = dm.default_first_moves(spec, CENTER3, 4)
    assert moves == [0, 1, 2, 3]       # first four susceptible positions
    with pytest.raises(Exception):
        dm.default_first_moves(spec, CENTER3, 9)   # only 8 susceptible


def test_law_streams_shapes_and_ranges():
    spec = dm.sway_spec(dm.SwayConfig(m=3, horizon=2))
    faces = draw(orc.input_law(spec, 0), 1, 1)
    [(selectors, dice)] = ref.law_streams(spec, faces)
    assert len(selectors) == 2 and all(len(s) == 2 for s in selectors)
    assert len(dice) == 2 and all(len(d) == 9 for d in dice)
    assert all(0 <= v < 16 for row in selectors for v in row)
    assert all(0 <= v < 20 for row in dice for v in row)
