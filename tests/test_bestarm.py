"""KL machinery, lower bound, successive elimination, quantum accounting."""

import math

import numpy as np
import pytest

from qrollout import bestarm as ba

import bestarm_reference as ref


def _classical(inst, eps, seed):
    """One trial of successive elimination under ``generator(seed)``: the
    chosen arm and the per-arm pulls."""
    led = ba.successive_elimination(inst, eps, 1, ref.generator(seed))
    return int(led.chosen[0]), led.per_arm[0].tolist()


def _quantum(inst, eps, seed):
    """One trial of the threshold walk under ``generator(seed)``: the chosen
    arm, the per-arm AE runs and the oracle calls."""
    led = ba.threshold_walk(inst, eps, 1, ref.generator(seed))
    return (int(led.chosen[0]), led.per_arm[0].tolist(),
            float(led.oracle_calls[0]))


def test_kl_zero_on_diagonal():
    for p in (0.0, 0.2, 0.5, 1.0):
        assert ref.kl(p, p) == 0.0


def test_kl_closed_form_value():
    assert abs(ref.kl(1 / 3, 2 / 3) - math.log(2) / 3) < 1e-12


def test_kl_divergent_sentinel():
    assert ref.kl(0.5, 0.0) == math.inf
    assert ref.kl(0.5, 1.0) == math.inf
    assert ref.kl(0.0, 0.0) == 0.0
    assert ref.kl(1.0, 1.0) == 0.0


def test_kl_asymmetry_and_nonnegativity():
    assert ref.kl(0.2, 0.7) != ref.kl(0.7, 0.2)
    for p in (0.1, 0.4, 0.9):
        for q in (0.2, 0.5, 0.8):
            v = ref.kl(p, q)
            assert v >= 0.0
            assert (v == 0.0) == (p == q)


def test_kl_quadratic_upper_bound():
    # kl(1/2, 1/2 + 6 eps) <= 96 eps^2 over the hard-family range
    eps = 0.0005
    while eps <= 0.05:
        assert ref.kl(0.5, 0.5 + 6 * eps) <= 96 * eps * eps
        eps += 0.0005


def test_lower_bound_values():
    want = 9 * math.log(2) / (288 * 0.01)
    assert abs(ba.classical_lower_bound(10, 0.1) - want) < 1e-9
    assert abs(want - 2.166085) < 1e-6
    want = math.log(2) / (288 * 0.0025)
    assert abs(ba.classical_lower_bound(2, 0.05) - want) < 1e-9
    assert abs(want - 0.962704) < 1e-6


def test_lower_bound_monotonicity():
    assert ba.classical_lower_bound(20, 0.05) > ba.classical_lower_bound(10, 0.05)
    assert ba.classical_lower_bound(10, 0.02) > ba.classical_lower_bound(10, 0.05)


def test_lower_bound_domain():
    with pytest.raises(ba.BestArmError):
        ba.classical_lower_bound(1, 0.05)
    with pytest.raises(ba.BestArmError):
        ba.classical_lower_bound(4, 0.0)


def test_hard_instances():
    inst = ba.BanditInstance.hard_base(5, 0.05)
    assert inst.means == (0.7, 0.5, 0.5, 0.5, 0.5)
    assert inst.optimal_set() == {0}
    alt = ref.hard_alternative(5, 0.05, 2)
    assert alt.means[2] == 0.8 and alt.means[0] == 0.7
    with pytest.raises(ba.BestArmError):
        ba.BanditInstance.hard_base(4, 0.2)          # mean would exceed 1
    with pytest.raises(ba.BestArmError):
        ref.hard_alternative(4, 0.1, 1)  # needs eps <= 1/12
    # no arms: refused here, not as a numpy error inside a kernel
    with pytest.raises(ba.BestArmError, match="^k must be >= 1, got 0$"):
        ba.BanditInstance(k=0, means=(), eps=0.1)


def test_single_arm_edge_cases():
    # one arm: no pulls, and one AE run charged, on one trial and on every
    # trial of many
    inst = ba.BanditInstance(k=1, means=(0.6,), eps=0.05)
    arm, pulls = _classical(inst, 0.05, 1)
    assert arm == 0 and sum(pulls) == 0
    arm, runs, calls = _quantum(inst, 0.05, 1)
    assert arm == 0 and runs == [1]
    assert abs(calls - ba.AE_CALL_CONSTANT / 0.05) < 1e-9
    cl = ba.successive_elimination(inst, 0.05, 7, ref.generator(1))
    assert (cl.chosen == 0).all() and (cl.per_arm == 0).all()
    qa = ba.threshold_walk(inst, 0.05, 7, ref.generator(1))
    assert (qa.chosen == 0).all() and (qa.per_arm == 1).all()
    assert (qa.oracle_calls == ba.AE_CALL_CONSTANT / 0.05).all()


_EXACT_INSTANCES = [
    pytest.param(ba.BanditInstance.hard_base(2, 0.08), id="base"),
    pytest.param(ba.BanditInstance.hard_base(9, 0.03), id="base"),
    pytest.param(ref.hard_alternative(5, 0.05, 3), id="alternative(3)"),
    # equal means: ties at the horizon go to the lowest surviving index
    pytest.param(ba.BanditInstance(k=3, means=(0.5, 0.5, 0.5), eps=0.1),
                 id="base"),
    pytest.param(ba.BanditInstance(k=6, means=(0.1, 0.9, 0.45, 0.5, 0.9, 0.3),
                                   eps=0.05), id="base"),
]


@pytest.mark.parametrize("inst", _EXACT_INSTANCES)
def test_kernels_at_one_trial_equal_the_scalar_loops(inst):
    eps = inst.eps
    for seed in range(40):
        cl = ba.successive_elimination(inst, eps, 1, ref.generator(seed))
        arm, per_arm = ref.elimination_loop(inst, eps, ref.generator(seed),
                                            ref.binomial_sums)
        assert (cl.chosen[0], cl.per_arm[0].tolist()) == (arm, per_arm)
        assert _classical(inst, eps, seed) == (arm, per_arm)
        qa = ba.threshold_walk(inst, eps, 1, ref.generator(seed))
        arm, calls, per_arm = ref.walk_loop(
            inst, eps, ref.numpy_walk_draws(ref.generator(seed)))
        assert (qa.chosen[0], qa.oracle_calls[0],
                qa.per_arm[0].tolist()) == (arm, calls, per_arm)
        assert _quantum(inst, eps, seed) == (arm, per_arm, calls)


_REFEREE_INSTANCES = _EXACT_INSTANCES + [
    pytest.param(ba.BanditInstance(k=1, means=(0.6,), eps=0.05), id="one-arm"),
    pytest.param(ba.BanditInstance.hard_base(64, 0.01), id="base"),
    # arm 0 leaves at once and arms 1 and 2 tie until the horizon
    pytest.param(ba.BanditInstance(k=3, means=(0.0, 1.0, 1.0), eps=0.1),
                 id="tie-at-the-horizon"),
    # t_stop = 89 rounds < 2 * SE_CHECK_CHUNKS, so every chunk is one round
    pytest.param(ba.BanditInstance(k=4, means=(0.6, 0.5, 0.5, 0.45), eps=0.3),
                 id="one-round-chunks"),
]


@pytest.mark.parametrize("inst", _REFEREE_INSTANCES)
def test_flat_elimination_equals_the_dense_referee(inst):
    for trials in (0, 1, 2, 7, 50):
        for seed in range(40):
            got = ba.successive_elimination(inst, inst.eps, trials,
                                            ref.generator(seed))
            want = ref.dense_elimination(inst, inst.eps, trials,
                                         ref.generator(seed))
            for field in ("chosen", "per_arm", "oracle_calls"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.shape == b.shape, field
                assert (a == b).all(), (field, trials, seed)


def test_ties_at_the_horizon_go_to_the_lowest_index():
    inst = ba.BanditInstance(k=3, means=(0.0, 1.0, 1.0), eps=0.1)
    led = ba.successive_elimination(inst, 0.1, 5, ref.generator(0))
    t_stop = math.ceil(4 * ba.SE_RADIUS_CONSTANT / 0.1 ** 2)
    assert (led.chosen == 1).all()
    assert (led.per_arm[:, 1:] == t_stop).all()
    assert (led.per_arm[:, 0] < t_stop).all()


@pytest.mark.parametrize("seed", range(5))
def test_separation_report_equals_one_built_from_the_referee(seed,
                                                             monkeypatch):
    # perfbench's grid: every field, rows and slopes, compares exactly
    grid = ([4, 8, 16, 32, 64], [0.08, 0.04, 0.02, 0.01], 50, seed)
    got = ba.separation_report(*grid)
    monkeypatch.setattr(ba, "successive_elimination", ref.dense_elimination)
    assert ba.separation_report(*grid) == got


@pytest.mark.parametrize("kernel", [ba.successive_elimination,
                                    ba.threshold_walk])
@pytest.mark.parametrize("eps, trials, match", [
    (-0.1, 3, r"eps must lie in \(0, 1\), got -0.1"),
    (0.0, 3, r"eps must lie in \(0, 1\), got 0.0"),
    (1.0, 3, r"eps must lie in \(0, 1\), got 1.0"),
    (math.nan, 3, r"eps must lie in \(0, 1\), got nan"),
    (0.05, -1, "trials must be >= 0, got -1"),
])
def test_kernels_refuse_eps_outside_the_unit_interval_and_negative_trials(
        kernel, eps, trials, match):
    inst = ba.BanditInstance.hard_base(4, 0.05)
    with pytest.raises(ba.BestArmError, match=f"^{match}$"):
        kernel(inst, eps, trials, ref.generator(0))


@pytest.mark.parametrize("kernel", [ba.successive_elimination,
                                    ba.threshold_walk])
def test_kernels_at_zero_trials_return_empty_ledgers(kernel):
    led = kernel(ba.BanditInstance.hard_base(4, 0.05), 0.05, 0,
                 ref.generator(0))
    assert led.chosen.shape == led.oracle_calls.shape == (0,)
    assert led.per_arm.shape == (0, 4)


def _within_4_sigma(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    sigma = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return abs(a.mean() - b.mean()) <= 4 * sigma


@pytest.mark.parametrize("k,eps", [(4, 0.08), (16, 0.04), (8, 0.02)])
def test_kernels_match_the_old_per_trial_law(k, eps):
    # binomial chunk sums and the numpy walk against the Bernoulli-sum loop
    # and the random.Random walk they replaced: means within 4 sigma
    inst = ba.BanditInstance.hard_base(k, eps)
    trials = 300
    good = np.isin(np.arange(k), list(inst.optimal_set()))
    cl = ba.successive_elimination(inst, eps, trials, ref.generator(k))
    qa = ba.threshold_walk(inst, eps, trials, ref.generator(k + 1))
    old_c = [ref.old_classical(inst, eps, 5000 + t) for t in range(trials)]
    old_q = [ref.old_quantum(inst, eps, 5000 + t) for t in range(trials)]
    assert _within_4_sigma(cl.per_arm.sum(axis=1),
                           [sum(per_arm) for _, per_arm in old_c])
    assert _within_4_sigma(good[cl.chosen], [good[a] for a, _ in old_c])
    assert _within_4_sigma(qa.oracle_calls, [calls for _, calls, _ in old_q])
    assert _within_4_sigma(good[qa.chosen], [good[a] for a, _, _ in old_q])


def test_stopped_trials_are_not_charged():
    # two arms 0.05 apart stop at different chunks: a trial keeps its own
    # stop time, and both of its arms were pulled up to it
    inst = ba.BanditInstance(k=2, means=(0.55, 0.5), eps=0.01)
    cl = ba.successive_elimination(inst, 0.01, 50, ref.generator(2))
    t_stop = math.ceil(4 * ba.SE_RADIUS_CONSTANT / 0.01 ** 2)
    stops = cl.per_arm.max(axis=1)
    assert len(set(stops.tolist())) > 1 and (stops < t_stop).all()
    assert (cl.per_arm[:, 0] == cl.per_arm[:, 1]).all()


def test_baseline_correct_and_above_bound():
    eps = 0.05
    inst = ba.BanditInstance.hard_base(8, eps)
    bound = ba.classical_lower_bound(8, eps)
    wins = 0
    pulls = 0.0
    trials = 80
    for t in range(trials):
        arm, per_arm = _classical(inst, eps, 1000 + t)
        wins += arm == 0
        pulls += sum(per_arm)
    assert wins / trials >= 2 / 3
    assert pulls / trials >= bound


def test_baseline_base_instance_eps_tenth():
    # base instance is valid at eps = 0.1 (mean 0.9); success >= 2/3
    inst = ba.BanditInstance.hard_base(10, 0.1)
    wins = 0
    for t in range(60):
        arm, _ = _classical(inst, 0.1, t)
        wins += arm == 0
    assert wins / 60 >= 2 / 3


def test_ledgers_deterministic():
    inst = ba.BanditInstance.hard_base(6, 0.04)
    a1, p1 = _classical(inst, 0.04, 77)
    a2, p2 = _classical(inst, 0.04, 77)
    assert (a1, p1, sum(p1)) == (a2, p2, sum(p2))
    q1 = _quantum(inst, 0.04, 77)
    q2 = _quantum(inst, 0.04, 77)
    assert q1[0] == q2[0]
    assert q1[2] == q2[2]


def test_quantum_correct_and_sublinear():
    eps = 0.05
    k = 16
    inst = ba.BanditInstance.hard_base(k, eps)
    wins = 0
    for t in range(60):
        arm, _, _ = _quantum(inst, eps, t)
        wins += arm in inst.optimal_set()
    assert wins / 60 >= 2 / 3
    # expected calls over the estimate ranks: from a state with m arms
    # estimated above the current one, cost(m) = DH sqrt(k/m) AE plus the
    # mean cost of the m states above; cost(0) is the exhaustion check
    ae = ba.AE_CALL_CONSTANT / eps
    cost = [ba.DH_BATCH_CONSTANT * math.sqrt(k) * ae]
    for m in range(1, k):
        cost.append(ba.DH_BATCH_CONSTANT * math.sqrt(k / m) * ae
                    + sum(cost) / m)
    expected = ae + sum(cost) / k
    # below the k/eps^2 scale at k=16
    assert expected < k / (eps * eps) / 4
    calls = ba.threshold_walk(inst, eps, 4000, ref.generator(16)).oracle_calls
    assert abs(calls.mean() - expected) <= 4 * calls.std() / math.sqrt(4000)


def test_transportation_ratio_floor():
    eps = 0.05
    inst = ba.BanditInstance.hard_base(6, eps)
    ratio = ref.transportation_ratio(eps)
    per_arm = [0.0] * 6
    trials = 40
    for t in range(trials):
        _, pulls = _classical(inst, eps, t)
        for j in range(6):
            per_arm[j] += pulls[j]
    for j in range(1, 6):
        assert per_arm[j] / trials >= ratio


def test_separation_report_needs_two_points_per_slope():
    # a log-log slope fitted to one point is meaningless
    with pytest.raises(ba.BestArmError, match="two distinct"):
        ba.separation_report([4], [0.08, 0.04], trials=2, seed=1)
    with pytest.raises(ba.BestArmError, match="two distinct"):
        ba.separation_report([4, 8], [0.08, 0.08], trials=2, seed=1)


@pytest.mark.parametrize("trials", [0, -1])
def test_separation_report_needs_a_trial(trials):
    with pytest.raises(ba.BestArmError,
                       match=f"trials must be >= 1, got {trials}"):
        ba.separation_report([4, 8], [0.08, 0.04], trials=trials, seed=1)


def test_separation_report_smoke():
    rep = ba.separation_report([4, 16], [0.08, 0.04], trials=25, seed=3)
    assert len(rep.rows) == 4
    for row in rep.rows:
        assert row.classical_pulls >= row.lower_bound
        assert row.classical_success >= 2 / 3
        assert row.quantum_success >= 2 / 3
        assert 0 < row.classical_pulls_se < row.classical_pulls
        assert 0 < row.quantum_calls_se < row.quantum_calls
    assert 0.2 <= rep.slope_quantum_k <= 0.9
    assert 1.5 <= rep.slope_classical_eps <= 2.5


def test_separation_slope_errors_follow_the_delta_method():
    # with two points the slope is a difference quotient of logs, so its
    # delta-method error is sqrt((se1/y1)^2 + (se2/y2)^2) / |log x2/x1|
    rep = ba.separation_report([4, 16], [0.08, 0.04], trials=25, seed=3)
    cells = {(r.k, r.eps): r for r in rep.rows}

    def se(rows, attr):
        rel = [getattr(r, attr + "_se") / getattr(r, attr) for r in rows]
        return math.hypot(*rel)

    by_k = [cells[(4, 0.04)], cells[(16, 0.04)]]
    by_eps = [cells[(16, 0.08)], cells[(16, 0.04)]]
    assert rep.slope_classical_k_se == pytest.approx(
        se(by_k, "classical_pulls") / math.log(4))
    assert rep.slope_quantum_k_se == pytest.approx(
        se(by_k, "quantum_calls") / math.log(4))
    assert rep.slope_classical_eps_se == pytest.approx(
        se(by_eps, "classical_pulls") / math.log(2))
    assert rep.slope_quantum_eps_se == pytest.approx(
        se(by_eps, "quantum_calls") / math.log(2))


def test_separation_report_cells_have_their_own_streams():
    # a cell's rows depend on (seed, k, eps) only, not on the rest of the grid
    small = ba.separation_report([4, 8], [0.08, 0.04], trials=10, seed=5)
    big = ba.separation_report([4, 8, 16], [0.08, 0.04, 0.02], trials=10,
                               seed=5)
    assert set(small.rows) <= set(big.rows)


def test_instance_from_domain_arm_means():
    # the oracle-defined bandit instance: arm j's mean is the exact payoff
    # probability conditioned on first move j
    from qrollout import domains as dm
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=1, threshold=1, rho=2))
    board = dm.parse_board("SSS\nSIS\nSSS", "sir")
    means = dm.arm_means(spec, board, 4)
    inst = ba.BanditInstance(k=4, means=tuple(means), eps=0.02)
    arm, _, calls = _quantum(inst, 0.02, 3)
    assert 0 <= arm < 4
    assert calls > 0
    arm2, pulls = _classical(inst, 0.02, 3)
    assert 0 <= arm2 < 4 and sum(pulls) > 0


def test_quantum_cheaper_beyond_crossover():
    eps = 0.05
    for k in (16, 32, 64):
        inst = ba.BanditInstance.hard_base(k, eps)
        cp = qc = 0.0
        for t in range(30):
            cp += sum(_classical(inst, eps, t)[1])
            qc += _quantum(inst, eps, t)[2]
        assert qc < cp, k
