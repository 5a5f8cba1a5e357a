"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summaries and timings.
"""

import math
import time

import numpy as np
import pytest

from qrollout import bestarm as ba
from qrollout import bounds as bd
from qrollout import domains as dm
from qrollout import emulator as em
from qrollout import oracle as orc
from qrollout import rank_select as rs
from qrollout.circuit import cost, light_cone

from bestarm_reference import generator, transportation_ratio
from classical_reference import select_semantics
from emulate import exhaustive_sweep
from gates import crossing_count

CENTER3 = dm.parse_board("SSS\nSIS\nSSS", "sir")

SCALING_GRID = ((5, 5), (7, 5), (10, 5), (10, 10), (20, 10))
REFERENCE_QUBITS = {
    ("sway", 5, 5): 916, ("sway", 7, 5): 1708, ("sway", 10, 5): 3363,
    ("sway", 10, 10): 6503, ("sway", 20, 10): 25189,
    ("epi", 5, 5): 767, ("epi", 7, 5): 1452, ("epi", 10, 5): 2893,
    ("epi", 10, 10): 5463, ("epi", 20, 10): 21409,
}
REFERENCE_GATES = {
    ("sway", 5, 5): 76720, ("sway", 7, 5): 180615, ("sway", 10, 5): 481201,
    ("sway", 10, 10): 793901, ("sway", 20, 10): 6072641,
    ("epi", 5, 5): 56602, ("epi", 7, 5): 124735, ("epi", 10, 5): 280230,
    ("epi", 10, 10): 558995, ("epi", 20, 10): 2592183,
}


class _Timer:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False

    def check(self):
        assert self.elapsed < self.budget, \
            f"runtime {self.elapsed:.1f}s exceeded budget {self.budget}s"


def test_criterion_01_rank_select_exhaustive_equivalence():
    """All (mask, rank) pairs for N in 1..8: scan == blocked == semantics."""
    with _Timer(120) as t:
        total = 0
        for n in range(1, 9):
            semantics = None
            for make in (rs.build_scan, rs.build_blocked):
                c = make(n)
                masks, ranks, outs, dirty = exhaustive_sweep(c)
                got = em.read_register(outs, c, "out")
                if semantics is None:
                    semantics = np.array(
                        [select_semantics(int(m), n, int(r))
                         for m, r in zip(masks, ranks)], dtype=np.int64)
                assert np.array_equal(got, semantics), (n, make.__name__)
                assert dirty == 0, (n, make.__name__)
                total += len(masks)
    t.check()
    print(f"\n[criterion 1] PASS: {total} (mask,rank,variant) cases bit-exact "
          f"with clean ancillae in {t.elapsed:.1f}s")


def test_criterion_02_bijectivity():
    """Exhaustive permutation checks at small scale, sampled above 20 qubits."""
    with _Timer(300) as t:
        modes = []
        for n in range(1, 5):
            rep = em.check_bijective(rs.build_scan(n))
            assert rep.passed and rep.mode == "exhaustive", n
            modes.append(f"scan{n}:exhaustive")
        for n in range(1, 5):
            c = rs.build_blocked(n)
            rep = em.check_bijective(c, samples=100_000)
            assert rep.passed, n
            modes.append(f"blocked{n}:{rep.mode}")
        spec = dm.sir_spec(dm.SirConfig(m=1, horizon=1, threshold=0))
        oc = orc.compose(spec)
        assert oc.report.qubit_count <= 20
        rep = em.check_bijective(oc.circuit)
        assert rep.passed and rep.mode == "exhaustive"
        modes.append(f"oracle[{oc.report.qubit_count}q]:exhaustive")
    t.check()
    print(f"\n[criterion 2] PASS: {'; '.join(modes)} in {t.elapsed:.1f}s "
          f"(blocked > 20 qubits uses sampled round trips per the "
          f"check_bijective contract)")


def test_criterion_03_branchwise_agreement():
    """10^3 seeded branches bit-exact for Sway 3x3 H2 and Epi 3x3 H2."""
    with _Timer(300) as t:
        sway = dm.sway_spec(dm.SwayConfig(3, 2))
        rep = orc.branchwise_check(sway, 1000, 0)
        assert rep.passed, rep
        epi = dm.sir_spec(dm.SirConfig(3, 2, threshold=2))
        rep2 = orc.branchwise_check(epi, 1000, CENTER3)
        assert rep2.passed, rep2
    t.check()
    print(f"\n[criterion 3] PASS: 1000 Sway + 1000 Epi branches bit-exact "
          f"(configs, payoff, read-only inputs, clean ancillae) in "
          f"{t.elapsed:.1f}s")


def test_criterion_04_cost_formula_regression():
    """Measured = predicted exactly; qubits within +-25% of reference."""
    with _Timer(600) as t:
        worst = 0.0
        for (m, h) in SCALING_GRID:
            for name in ("sway", "epi"):
                spec = (dm.sway_spec(dm.SwayConfig(m, h)) if name == "sway"
                        else dm.sir_spec(dm.SirConfig(m, h, threshold=2)))
                oc = orc.compose(spec, record=False)
                lay = orc.qubit_cost_formula(spec)
                assert oc.report.qubit_count == lay.total
                predicted = spec.horizon * (2 * oc.prep_gates
                                            + oc.trans_gates) + oc.eval_gates
                assert predicted == oc.report.gate_count
                assert abs(orc.gate_cost_formula(
                    spec, oc.g_index, oc.g_trans, oc.g_eval)
                    - oc.report.gate_count) < 1e-6
                ratio = oc.report.qubit_count / REFERENCE_QUBITS[(name, m, h)]
                worst = max(worst, abs(ratio - 1.0))
                assert 0.75 <= ratio <= 1.25, (name, m, h, ratio)
                gr = oc.report.gate_count / REFERENCE_GATES[(name, m, h)]
                assert 0.1 <= gr <= 10.0, (name, m, h, gr)
    t.check()
    print(f"\n[criterion 4] PASS: exact gate/qubit formula regression on all 10 grid "
          f"points; worst qubit deviation {worst * 100:.1f}% (< 25%); gates "
          f"within an order of magnitude; {t.elapsed:.1f}s")


def test_criterion_05_table1_payoff_analogue():
    """MC (1e4 shots) inside its own 95% CI of the DP-exact value."""
    with _Timer(600) as t:
        lines = []
        # classical-sampler MC vs reference value for the three instances
        instances = [
            ("sway3", dm.sway_spec(dm.SwayConfig(3, 2)), 0, 0.271),
            ("sway5", dm.sway_spec(dm.SwayConfig(5, 3)), 0, 0.325),
            ("epi3", dm.sir_spec(dm.SirConfig(3, 2, threshold=2)), CENTER3,
             0.891),
        ]
        for name, spec, board, ref_ext in instances:
            p, half = dm.sample_payoff(spec, board, shots=10_000, seed=606)
            try:
                ref = dm.exact_value(spec, board)
                prov = "dp-exact"
            except dm.BudgetError:
                ref, _ = dm.sample_payoff(spec, board, shots=200_000,
                                          seed=607)
                prov = "mc-ref"
            assert abs(p - ref) <= half, (name, p, half, ref)
            lines.append(f"{name}: mc {p:.3f}+-{half:.3f} ref {ref:.3f} "
                         f"({prov}) ext {ref_ext}")
        # circuit-level MC through the emulator for both 3x3 oracles
        for name, spec, board in (("sway3", instances[0][1], 0),
                                  ("epi3", instances[2][1], CENTER3)):
            oc = orc.compose(spec)
            est = em.payoff_probability(oc.circuit, orc.input_law(spec, board),
                                        "mc", shots=10_000,
                                        seed=909).probability
            exact = dm.exact_value(spec, board)
            assert abs(est - exact) <= 1.96 * math.sqrt(
                max(est * (1 - est), 1e-9) / 10_000) + 1e-9, (name, est,
                                                              exact)
            lines.append(f"{name}-circuit-mc: {est:.3f} vs dp {exact:.3f}")
        # rho sweep documentation
        sweep = []
        for rho in range(0, 9):
            spec = dm.sir_spec(dm.SirConfig(3, 2, threshold=2, rho=rho))
            sweep.append(f"{rho}:{dm.exact_value(spec, CENTER3):.3f}")
    t.check()
    print("\n[criterion 5] PASS: " + "; ".join(lines)
          + f"; rho sweep {{{', '.join(sweep)}}} (ext 0.891); "
          f"{t.elapsed:.1f}s")


def test_criterion_06_scaling_bands_and_crossover():
    """Gate bands for both variants up to N = 2^14 and the crossover."""
    with _Timer(120) as t:
        scan_ratios = {}
        blocked_ratios = {}
        gates = {}
        for e in range(2, 15):
            n = 1 << e
            w = rs.width_for(n)
            gs = rs.builder_scan(n, record=False).report().gate_count
            gb = rs.builder_blocked(n, record=False).report().gate_count
            gates[n] = (gs, gb)
            scan_ratios[n] = gs / (n * w)
            blocked_ratios[n] = gb / (n * math.log2(max(w, 2)))
        # documented bands: scan in [7, 10] (closed form 10 - 3/w), blocked
        # within a bounded constant band
        assert all(7.0 <= r <= 10.0 for r in scan_ratios.values())
        bmin, bmax = min(blocked_ratios.values()), max(blocked_ratios.values())
        assert bmax / bmin < 2.5
        assert 20.0 <= bmin and bmax <= 70.0
        crossover = next(n for n in sorted(gates) if gates[n][1] < gates[n][0])
        assert crossover <= 1 << 14
        for n in sorted(gates):
            if n >= crossover:
                assert gates[n][1] < gates[n][0]
    t.check()
    print(f"\n[criterion 6] PASS: scan/(Nw) in [{min(scan_ratios.values()):.2f}, "
          f"{max(scan_ratios.values()):.2f}] (band [7,10]); "
          f"blocked/(N log2 w) in [{bmin:.1f}, {bmax:.1f}]; "
          f"blocked < scan from N = {crossover}; {t.elapsed:.1f}s")


@pytest.fixture(scope="module")
def separation():
    t0 = time.monotonic()
    rep = ba.separation_report([4, 8, 16, 32, 64], [0.08, 0.04, 0.02, 0.01],
                               trials=200, seed=20250808)
    return rep, time.monotonic() - t0


def test_criterion_07_lower_bound_conformance(separation):
    """Closed-form bound value, bound respected at every grid point, transportation."""
    separation, sep_elapsed = separation
    with _Timer(600) as t:
        want = 9 * math.log(2) / (288 * 0.01)
        assert abs(ba.classical_lower_bound(10, 0.1) - want) < 1e-6
        for row in separation.rows:
            assert row.classical_pulls >= row.lower_bound, row
            assert row.classical_success >= 2 / 3 - 3 * math.sqrt(
                (2 / 3) * (1 / 3) / 200), row
        # per-arm transportation floor at eps = 0.05 on the hard base family
        eps = 0.05
        inst = ba.BanditInstance.hard_base(10, eps)
        ratio = transportation_ratio(eps)
        led = ba.successive_elimination(inst, eps, 200, generator(31_000))
        floor = led.per_arm[:, 1:].mean(axis=0).min()
        assert floor >= ratio
    t.check()
    print(f"\n[criterion 7] PASS: bound(10, 0.1) = "
          f"{ba.classical_lower_bound(10, 0.1):.6f}; classical mean pulls >= "
          f"bound at all {len(separation.rows)} grid points; per-arm floor "
          f"{floor:.0f} >= transportation ratio {ratio:.2f}; "
          f"{t.elapsed + sep_elapsed:.1f}s")


def test_criterion_08_separation_exponents(separation):
    """Fitted log-log slopes land in the stated windows."""
    separation, sep_elapsed = separation
    with _Timer(900) as t:
        assert 0.85 <= separation.slope_classical_k <= 1.15
        assert 0.35 <= separation.slope_quantum_k <= 0.65
        assert 1.8 <= separation.slope_classical_eps <= 2.2
        assert 0.85 <= separation.slope_quantum_eps <= 1.15
        for row in separation.rows:
            assert row.quantum_success >= 2 / 3
    t.check()
    rep = separation
    print(f"\n[criterion 8] PASS: slopes (delta-method se) classical-k "
          f"{rep.slope_classical_k:.3f} ({rep.slope_classical_k_se:.3f}) "
          f"in [0.85,1.15], quantum-k {rep.slope_quantum_k:.3f} "
          f"({rep.slope_quantum_k_se:.3f}) in [0.35,0.65], classical-eps "
          f"{rep.slope_classical_eps:.3f} ({rep.slope_classical_eps_se:.3f}) "
          f"in [1.8,2.2], quantum-eps {rep.slope_quantum_eps:.3f} "
          f"({rep.slope_quantum_eps_se:.3f}) in [0.85,1.15]; "
          f"{sep_elapsed:.1f}s (200 trials)")


def test_criterion_09_decay_suite():
    """Decay values, zero beyond horizon, coupled MC, peripheral agreement."""
    with _Timer(300) as t:
        m5 = bd.InfluenceModel(kappa=4, p=0.125, horizon=5)
        assert bd.decay_per_round(m5, 1) == 0.5
        for h in range(0, 21):
            model = bd.InfluenceModel(kappa=4, p=0.125, horizon=h)
            for d in range(h + 1, h + 4):
                assert bd.decay_cumulative(model, d) == 0.0
        spec = dm.sir_spec(dm.SirConfig(3, 2, threshold=2, rho=2))
        model = bd.InfluenceModel(kappa=4, p=0.125, horizon=2)
        measured = []
        for site, dist in ((1, 1), (0, 2)):
            other = dm.set_cell(CENTER3, site, dm.RECOVERED)
            est = bd.empirical_influence(spec, CENTER3, other, trials=100_000,
                                         seed=515)
            bound = bd.decay_cumulative(model, dist)
            assert est.delta <= bound + 3 * est.sigma, (dist, est, bound)
            measured.append(f"d={dist}: {est.delta:.4f} <= {bound:.4f}"
                            f"+3x{est.sigma:.4f}")
        implied = 0
        for m in range(1, 51):
            for h in range(0, 21):
                ps = bd.peripheral_set(m, h)
                if ps.nonempty_predicted:
                    assert ps.nonempty, (m, h)
                    implied += 1
    t.check()
    print(f"\n[criterion 9] PASS: per-round(4, 1/8, 1) = 0.5 exactly; "
          f"cumulative = 0 beyond H for H <= 20; coupled MC {measured}; "
          f"peripheral inequality implies nonemptiness at {implied} (m, H) "
          f"points; {t.elapsed:.1f}s")


def test_criterion_10_lower_bound_structure_on_circuits():
    """Light-cone coverage and the cut-crossing inequality, N in 4..32."""
    with _Timer(120) as t:
        for n in (4, 8, 16, 32):
            for make in (rs.build_scan, rs.build_blocked):
                c = make(n)
                cone = light_cone(c, set(c.register("out")))
                assert set(c.register("mask")) <= cone, (n, make.__name__)
                kappa = cost(c).max_fan_in
                for cut in range(1, n):
                    lo = min(cut, n - cut)
                    rhs = (math.ceil(math.log2(lo)) / (2 * kappa)
                           if lo > 1 else 0.0)
                    assert crossing_count(c, cut) >= rhs, (n, cut)
    t.check()
    print(f"\n[criterion 10] PASS: light cone covers all mask bits and every "
          f"mask-aligned cut satisfies the crossing inequality for N in "
          f"{{4, 8, 16, 32}}, both variants; {t.elapsed:.1f}s")
