"""Decay bounds, peripheral sets, lifting checks, coupled influence."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import classical_reference as ref
from classical_reference import cell
from qrollout import bounds as bd
from qrollout import domains as dm

CENTER3 = dm.parse_board("SSS\nSIS\nSSS", "sir")


def exact_cumulative(kappa, p_frac, h, d):
    """Independent oracle: exact Fraction evaluation of the binomial sum."""
    if d > h:
        return Fraction(0)
    total = Fraction(0)
    for ell in range(d, h + 1):
        total += (kappa * (kappa - 1) ** (ell - 1)
                  * math.comb(h, ell) * p_frac ** ell)
    return min(Fraction(1), total)


def test_per_round_exact_values():
    m = bd.InfluenceModel(kappa=4, p=0.125, horizon=5)
    assert bd.decay_per_round(m, 1) == 0.5
    assert bd.decay_per_round(m, 2) == 0.1875
    assert bd.decay_per_round(m, 0) == 1.0


def test_per_round_zero_probability():
    m = bd.InfluenceModel(kappa=4, p=0.0, horizon=3)
    for d in range(1, 6):
        assert bd.decay_per_round(m, d) == 0.0


def test_cumulative_zero_beyond_horizon():
    for h in range(0, 21):
        m = bd.InfluenceModel(kappa=4, p=0.125, horizon=h)
        for d in range(h + 1, h + 4):
            assert bd.decay_cumulative(m, d) == 0.0


def test_cumulative_single_term_at_d_equals_h():
    m = bd.InfluenceModel(kappa=4, p=0.125, horizon=3)
    want = min(1.0, 4 * 3 ** 2 * (0.125 ** 3))
    assert abs(bd.decay_cumulative(m, 3) - want) < 1e-15


def test_cumulative_example_h5_d3():
    m = bd.InfluenceModel(kappa=4, p=0.125, horizon=5)
    want = exact_cumulative(4, Fraction(1, 8), 5, 3)
    assert bd.decay_cumulative(m, 3) == float(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 12), st.integers(1, 14),
       st.integers(0, 100))
def test_cumulative_matches_fraction_oracle(kappa, h, d, pnum):
    p = pnum / 400.0
    m = bd.InfluenceModel(kappa=kappa, p=p, horizon=h)
    want = exact_cumulative(kappa, Fraction(p), h, d)
    assert bd.decay_cumulative(m, d) == pytest.approx(float(want), abs=1e-15)


def test_monotone_nonincreasing_and_bounded():
    m = bd.InfluenceModel(kappa=4, p=0.125, horizon=8)
    prev_r, prev_c = 1.0, 1.0
    for d in range(1, 12):
        r = bd.decay_per_round(m, d)
        c = bd.decay_cumulative(m, d)
        assert 0.0 <= r <= 1.0 and 0.0 <= c <= 1.0
        assert r <= prev_r + 1e-15 and c <= prev_c + 1e-15
        prev_r, prev_c = r, c


def test_subcritical_geometric_ratio():
    m = bd.InfluenceModel(kappa=4, p=0.125, horizon=5)
    assert m.kappa * m.p < 1
    ratio = (m.kappa - 1) * m.p
    for d in range(3, 10):
        a, b = bd.decay_per_round(m, d), bd.decay_per_round(m, d + 1)
        assert b == pytest.approx(a * ratio, rel=1e-12)


def test_sway_subcriticality_parameters():
    m = bd.InfluenceModel(kappa=4, p=1 / 20, horizon=5)
    assert m.kappa * m.p < 1
    assert bd.decay_per_round(m, 1) == pytest.approx(4 / 3 * 3 / 20)


def test_peripheral_set_geometry():
    ps = bd.peripheral_set(3, 2)
    assert ps.radius == 3 and ps.cells == () and not ps.nonempty_predicted
    ps = bd.peripheral_set(10, 2)
    assert ps.radius == 3 and ps.nonempty and ps.nonempty_predicted
    assert 10 * 10 > 2 * 9 + 6 + 1


def test_peripheral_inequality_implies_nonempty():
    for m in range(1, 51):
        for h in range(0, 21):
            ps = bd.peripheral_set(m, h)
            if ps.nonempty_predicted:
                assert ps.nonempty, (m, h)


def test_peripheral_converse_fails_on_clipped_ball():
    # the inequality is sufficient, not necessary: m=4, H=2 has a corner
    # beyond radius 3 although 16 <= 25
    ps = bd.peripheral_set(4, 2)
    assert ps.nonempty and not ps.nonempty_predicted


def test_peripheral_cells_have_zero_cumulative_bound():
    ps = bd.peripheral_set(8, 2)
    m = bd.InfluenceModel(kappa=4, p=0.125, horizon=2)
    anchor = (4, 4)
    for c in ps.cells:
        dist = abs(c // 8 - anchor[0]) + abs(c % 8 - anchor[1])
        assert dist > m.horizon
        assert bd.decay_cumulative(m, dist) == 0.0


def _toy_oracle(base_values, sensitive=()):
    """Synthetic value oracle: arm j's value shifts only with factors in
    sensitive[j] (dict factor -> weight)."""
    def oracle(config):
        vals = []
        for j, base in enumerate(base_values):
            shift = sum(w * config[p] for p, w in
                        (sensitive[j].items() if j < len(sensitive) else ()))
            vals.append(base + shift)
        return vals
    return oracle


def test_lifting_trivial_empty_peripheral():
    w = bd.LiftingWitness(
        n_factors=4, alphabet=(0, 1, 2), base_config=(0, 0, 0, 0),
        best_arm=0, eps=0.05, deltas={}, peripheral=frozenset(),
        arm_supports=(frozenset({0}), frozenset({1})))
    rep = bd.check_lifting(w, 10, _toy_oracle([0.7, 0.5]))
    assert rep.passed
    assert rep.family_size == 1


def test_lifting_modular_family_exhaustive():
    # peripheral factors {2, 3} never move any arm value: exact equality holds
    w = bd.LiftingWitness(
        n_factors=4, alphabet=(0, 1, 2), base_config=(0, 0, 0, 0),
        best_arm=0, eps=0.05, deltas={2: 0.0, 3: 0.0},
        peripheral=frozenset({2, 3}),
        arm_supports=(frozenset({0}), frozenset({1})))
    rep = bd.check_lifting(w, 9, _toy_oracle([0.7, 0.5]))
    assert rep.passed
    assert rep.family_size == 9
    assert rep.members_checked == 9
    assert rep.modular_equality_failures == 0


def test_lifting_structural_negatives():
    base = dict(n_factors=4, alphabet=(0, 1), base_config=(0, 0, 0, 0),
                best_arm=0, eps=0.05)
    # overlapping arm supports
    w = bd.LiftingWitness(**base, deltas={}, peripheral=frozenset(),
                          arm_supports=(frozenset({0, 1}), frozenset({1})))
    rep = bd.check_lifting(w, 5, _toy_oracle([0.7, 0.5]))
    assert not rep.structural_ok and "overlap" in rep.failure_reason
    # peripheral set meets a support
    w = bd.LiftingWitness(**base, deltas={0: 0.0}, peripheral=frozenset({0}),
                          arm_supports=(frozenset({0}), frozenset({1})))
    rep = bd.check_lifting(w, 5, _toy_oracle([0.7, 0.5]))
    assert not rep.structural_ok
    # stability budget exceeded
    w = bd.LiftingWitness(**base, deltas={2: 0.04, 3: 0.04},
                          peripheral=frozenset({2, 3}),
                          arm_supports=(frozenset({0}), frozenset({1})))
    rep = bd.check_lifting(w, 5, _toy_oracle([0.7, 0.5]))
    assert not rep.structural_ok and "stability" in rep.failure_reason
    # a failed witness still reports its family: 2 symbols on 2 factors
    assert rep.family_size == 4


def test_lifting_gap_violation_detected():
    w = bd.LiftingWitness(
        n_factors=2, alphabet=(0, 1), base_config=(0, 0), best_arm=0,
        eps=0.05, deltas={}, peripheral=frozenset(),
        arm_supports=(frozenset({0}), frozenset({1})))
    rep = bd.check_lifting(w, 5, _toy_oracle([0.55, 0.5]))  # gap 0.05 < 3 eps
    assert not rep.passed and not rep.gap_ok


def test_lifting_optimality_failure_detected():
    # arm 1 gains 0.2 whenever factor 2 is set: eps-optimality breaks
    w = bd.LiftingWitness(
        n_factors=3, alphabet=(0, 1), base_config=(0, 0, 0), best_arm=0,
        eps=0.05, deltas={2: 0.0}, peripheral=frozenset({2}),
        arm_supports=(frozenset({0}), frozenset({1})))
    oracle = _toy_oracle([0.7, 0.5], sensitive=({}, {2: 0.3}))
    rep = bd.check_lifting(w, 4, oracle)
    assert rep.optimality_failures > 0 and not rep.passed


def test_lifting_samples_a_family_larger_than_sample_count():
    # 27 members, 9 checked: a prefix in enumeration order never sets the
    # last peripheral factor, where arm 1 gains 0.3; corners and seeded
    # uniform members do
    w = bd.LiftingWitness(
        n_factors=5, alphabet=(0, 1, 2), base_config=(0,) * 5, best_arm=0,
        eps=0.05, deltas={2: 0.0, 3: 0.0, 4: 0.0},
        peripheral=frozenset({2, 3, 4}),
        arm_supports=(frozenset({0}), frozenset({1})))
    oracle = _toy_oracle([0.7, 0.5], sensitive=({}, {4: 0.3}))
    rep = bd.check_lifting(w, 9, oracle, seed=0)
    assert rep.family_size == 27 and rep.members_checked == 9
    assert rep.optimality_failures > 0 and not rep.passed
    # a sample_count that covers the family checks every member once
    rep = bd.check_lifting(w, 27, oracle)
    assert rep.members_checked == 27
    assert rep.optimality_failures == 18


@pytest.mark.parametrize("sample_count", [0, -5])
def test_lifting_needs_a_sample(sample_count):
    w = bd.LiftingWitness(
        n_factors=2, alphabet=(0, 1), base_config=(0, 0), best_arm=0,
        eps=0.05, deltas={}, peripheral=frozenset(),
        arm_supports=(frozenset({0}), frozenset({1})))
    with pytest.raises(bd.BoundsError, match="sample_count must be >= 1, "
                                             f"got {sample_count}"):
        bd.check_lifting(w, sample_count, _toy_oracle([0.7, 0.5]))


def test_lifting_sir_3x3_trivial_family():
    # r* = H+1 = 2 leaves no 3x3 cell beyond radius 2: family == {C*}
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=1, threshold=1, rho=2))
    moves = dm.default_first_moves(spec, CENTER3, 2)
    means = dm.arm_means(spec, CENTER3, 2, first_moves=[1, 0])
    gap = means[0] - means[1]
    assert gap > 0
    ps = bd.peripheral_set(3, 1)
    cfg = tuple(cell(CENTER3, i) for i in range(9))
    w = bd.LiftingWitness(
        n_factors=9, alphabet=(0, 1, 2), base_config=cfg, best_arm=0,
        eps=gap / 3 * 0.99, deltas={p: 0.0 for p in ps.cells},
        peripheral=frozenset(ps.cells),
        arm_supports=(frozenset({1}), frozenset({0})))

    def oracle(config):
        b = 0
        for i, code in enumerate(config):
            b |= code << (2 * i)
        return dm.arm_means(spec, b, 2, first_moves=[1, 0])

    rep = bd.check_lifting(w, 50, oracle)
    assert rep.passed
    assert rep.family_size == 1


def test_empirical_influence_far_site_exact_zero():
    # site at distance > H from the infection source: S<->R toggle cannot
    # alter the infected count on any coupled branch
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=1, threshold=2, rho=2))
    far = dm.set_cell(CENTER3, 0, dm.RECOVERED)   # corner, distance 2 > H=1
    est = bd.empirical_influence(spec, CENTER3, far, trials=4000, seed=3)
    assert est.delta == 0.0


def test_empirical_influence_p_zero_dynamics():
    # no infected cells anywhere: dynamics never propagate, delta = 0
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=3, threshold=0, rho=2))
    a = 0
    b = dm.set_cell(0, 8, dm.RECOVERED)
    est = bd.empirical_influence(spec, a, b, trials=2000, seed=4)
    assert est.delta == 0.0


@pytest.mark.parametrize("trials", [0, -3])
def test_empirical_influence_needs_a_trial(trials):
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=1, threshold=2, rho=2))
    with pytest.raises(bd.BoundsError,
                       match=f"trials must be >= 1, got {trials}"):
        bd.empirical_influence(spec, CENTER3, 0, trials=trials, seed=3)


def test_rank_coupling_exposes_policy_shift():
    # sharing raw selector ranks (the referee's rank coupling) lets a far
    # site move later vaccination positions through the global popcount,
    # so single rollouts disagree; the position coupling of
    # empirical_influence removes it
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=1, threshold=2, rho=2))
    far = dm.set_cell(CENTER3, 0, dm.RECOVERED)
    pos = bd.empirical_influence(spec, CENTER3, far, trials=6000, seed=3)
    assert pos.delta == 0.0 and pos.sigma == 0.0
    _, squares = ref.loop_influence_sums(spec, CENTER3, far, 6000, 3,
                                         coupling="rank")
    assert squares > 0


def test_empirical_influence_within_cumulative_bound():
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=2, threshold=2, rho=2))
    model = bd.InfluenceModel(kappa=4, p=1 / 8, horizon=2)
    for site, dist in ((1, 1), (0, 2)):
        other = dm.set_cell(CENTER3, site, dm.RECOVERED)
        est = bd.empirical_influence(spec, CENTER3, other, trials=20000,
                                     seed=6)
        bound = bd.decay_cumulative(model, dist)
        assert est.delta <= bound + 3 * est.sigma, (site, dist)


@pytest.mark.parametrize("site,first_move", [(1, None), (1, 6), (0, None),
                                             (3, 2)])
def test_empirical_influence_equals_the_trace_loop(site, first_move):
    # the array MC and the per-row loop sum the same integer differences,
    # so both return the same floats
    spec = dm.sir_spec(dm.SirConfig(m=3, horizon=2, threshold=2, rho=2))
    other = dm.set_cell(CENTER3, site, dm.RECOVERED)
    trials = 1500
    est = bd.empirical_influence(spec, CENTER3, other, trials, seed=9 + site,
                                 first_move=first_move)
    # the referee's coupling that empirical_influence runs
    total, squares = ref.loop_influence_sums(spec, CENTER3, other, trials,
                                             9 + site, first_move, "position")
    mean = total / trials
    var = max(0.0, squares / trials - mean * mean)
    assert est.delta == abs(mean)
    assert est.sigma == math.sqrt(var / trials)
