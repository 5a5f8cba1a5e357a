"""KL machinery, lower bound, successive elimination, quantum accounting."""

import math

import pytest

from qrollout import bestarm as ba


def test_kl_zero_on_diagonal():
    for p in (0.0, 0.2, 0.5, 1.0):
        assert ba.kl(p, p) == 0.0


def test_kl_closed_form_value():
    assert abs(ba.kl(1 / 3, 2 / 3) - math.log(2) / 3) < 1e-12


def test_kl_divergent_sentinel():
    assert ba.kl(0.5, 0.0) == math.inf
    assert ba.kl(0.5, 1.0) == math.inf
    assert ba.kl(0.0, 0.0) == 0.0
    assert ba.kl(1.0, 1.0) == 0.0


def test_kl_asymmetry_and_nonnegativity():
    assert ba.kl(0.2, 0.7) != ba.kl(0.7, 0.2)
    for p in (0.1, 0.4, 0.9):
        for q in (0.2, 0.5, 0.8):
            v = ba.kl(p, q)
            assert v >= 0.0
            assert (v == 0.0) == (p == q)


def test_kl_quadratic_upper_bound():
    # kl(1/2, 1/2 + 6 eps) <= 96 eps^2 over the hard-family range
    eps = 0.0005
    while eps <= 0.05:
        assert ba.kl(0.5, 0.5 + 6 * eps) <= 96 * eps * eps
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
    alt = ba.BanditInstance.hard_alternative(5, 0.05, 2)
    assert alt.means[2] == 0.8 and alt.means[0] == 0.7
    with pytest.raises(ba.BestArmError):
        ba.BanditInstance.hard_base(4, 0.2)          # mean would exceed 1
    with pytest.raises(ba.BestArmError):
        ba.BanditInstance.hard_alternative(4, 0.1, 1)  # needs eps <= 1/12


def test_single_arm_edge_cases():
    inst = ba.BanditInstance(k=1, means=(0.6,), eps=0.05)
    arm, led = ba.classical_baseline(inst, 0.05, seed=1)
    assert arm == 0 and led.total_pulls == 0
    arm, led = ba.quantum_accounting(inst, 0.05, seed=1)
    assert arm == 0
    assert abs(led.oracle_calls - ba.AE_CALL_CONSTANT / 0.05) < 1e-9


def test_baseline_correct_and_above_bound():
    eps = 0.05
    inst = ba.BanditInstance.hard_base(8, eps)
    bound = ba.classical_lower_bound(8, eps)
    wins = 0
    pulls = 0.0
    trials = 80
    for t in range(trials):
        arm, led = ba.classical_baseline(inst, eps, seed=1000 + t)
        wins += arm == 0
        pulls += led.total_pulls
    assert wins / trials >= 2 / 3
    assert pulls / trials >= bound


def test_baseline_base_instance_eps_tenth():
    # base instance is valid at eps = 0.1 (mean 0.9); success >= 2/3
    inst = ba.BanditInstance.hard_base(10, 0.1)
    wins = 0
    for t in range(60):
        arm, _ = ba.classical_baseline(inst, 0.1, seed=t)
        wins += arm == 0
    assert wins / 60 >= 2 / 3


def test_ledgers_deterministic():
    inst = ba.BanditInstance.hard_base(6, 0.04)
    a1, l1 = ba.classical_baseline(inst, 0.04, seed=77)
    a2, l2 = ba.classical_baseline(inst, 0.04, seed=77)
    assert (a1, l1.per_arm, l1.total_pulls) == (a2, l2.per_arm, l2.total_pulls)
    q1 = ba.quantum_accounting(inst, 0.04, seed=77)
    q2 = ba.quantum_accounting(inst, 0.04, seed=77)
    assert q1[0] == q2[0]
    assert q1[1].oracle_calls == q2[1].oracle_calls


def test_quantum_correct_and_sublinear():
    eps = 0.05
    inst = ba.BanditInstance.hard_base(16, eps)
    wins = 0
    calls = 0.0
    for t in range(60):
        arm, led = ba.quantum_accounting(inst, eps, seed=t)
        wins += arm in inst.optimal_set()
        calls += led.oracle_calls
    assert wins / 60 >= 2 / 3
    # well below the k/eps^2 scale at k=16
    assert calls / 60 < 16 / (eps * eps) / 4


def test_transportation_ratio_floor():
    eps = 0.05
    inst = ba.BanditInstance.hard_base(6, eps)
    ratio = ba.transportation_ratio(eps)
    per_arm = [0.0] * 6
    trials = 40
    for t in range(trials):
        _, led = ba.classical_baseline(inst, eps, seed=t)
        for j in range(6):
            per_arm[j] += led.per_arm[j]
    for j in range(1, 6):
        assert per_arm[j] / trials >= ratio


def test_separation_report_needs_two_points_per_slope():
    # a log-log slope fitted to one point is meaningless
    with pytest.raises(ba.BestArmError, match="two distinct"):
        ba.separation_report([4], [0.08, 0.04], trials=2, seed=1)
    with pytest.raises(ba.BestArmError, match="two distinct"):
        ba.separation_report([4, 8], [0.08, 0.08], trials=2, seed=1)


def test_separation_report_smoke():
    rep = ba.separation_report([4, 16], [0.08, 0.04], trials=25, seed=3)
    assert len(rep.rows) == 4
    for row in rep.rows:
        assert row.classical_pulls >= row.lower_bound
        assert row.classical_success >= 2 / 3
        assert row.quantum_success >= 2 / 3
    assert 0.2 <= rep.slope_quantum_k <= 0.9
    assert 1.5 <= rep.slope_classical_eps <= 2.5


def test_instance_from_domain_arm_means():
    # the oracle-defined bandit instance: arm j's mean is the exact payoff
    # probability conditioned on first move j
    from qrollout import domains as dm
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=1, threshold=1, rho=2))
    board = dm.parse_board("SSS\nSIS\nSSS", "sir")
    means = dm.arm_means(spec, board, 4)
    inst = ba.BanditInstance(k=4, means=tuple(means), eps=0.02)
    arm, led = ba.quantum_accounting(inst, 0.02, seed=3)
    assert 0 <= arm < 4
    assert led.oracle_calls > 0
    arm2, led2 = ba.classical_baseline(inst, 0.02, seed=3)
    assert 0 <= arm2 < 4 and led2.total_pulls > 0


def test_quantum_cheaper_beyond_crossover():
    eps = 0.05
    for k in (16, 32, 64):
        inst = ba.BanditInstance.hard_base(k, eps)
        cp = qc = 0.0
        for t in range(30):
            _, led = ba.classical_baseline(inst, eps, seed=t)
            cp += led.total_pulls
            _, led = ba.quantum_accounting(inst, eps, seed=t)
            qc += led.oracle_calls
        assert qc < cp, k
