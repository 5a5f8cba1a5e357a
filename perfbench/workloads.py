"""The benchmark's three workloads: fixed job lists with independent checks.

Each workload is a closed loop: one client runs its job list back to back on
one thread.  A job calls public entry points of ``qrollout`` inside spans
named after the layer, stores the work counts of each call in the span, and
checks every result against a reference that does not come from the function
under test: a closed form, a second implementation, an exact value, a
symmetry, or a pinned high-precision estimate.

Jobs receive a harness ``h`` with two methods:

* ``h.span(name)``: context manager around one call into a layer; it yields
  the dict that takes the call's counts;
* ``h.check(ok, what)``: record one correctness check.

``smoke=True`` keeps every job and check but shrinks the sizes, for the
untimed warm-up pass and for the benchmark's self-tests.
"""
from __future__ import annotations

import math
import random

from qrollout import (bestarm, bounds, circuit, domains, emulator, oracle,
                     rank_select)

SIR_CENTER3 = domains.parse_board("SSS\nSIS\nSSS", "sir")
SIR_SI_SS = domains.parse_board("SI\nSS", "sir")
SIR_I = domains.parse_board("I", "sir")

# Sway 5x5 H=3 has 3^25 board states, beyond the exact dynamic program, so
# its sampler is checked against this pinned estimate from
# domains.sample_payoff(sway_spec(SwayConfig(5, 3)), 0, 400_000, seed=20261017).
SWAY5_REFERENCE = 0.4084875
SWAY5_REFERENCE_SHOTS = 400_000

# Criterion-08 windows for the fitted separation exponents.
SLOPE_WINDOWS = {
    "slope_classical_k": (0.85, 1.15),
    "slope_quantum_k": (0.35, 0.65),
    "slope_classical_eps": (1.8, 2.2),
    "slope_quantum_eps": (0.85, 1.15),
}


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit seed for one job, derived from the workload seed."""
    return random.Random(f"{seed}:{label}").getrandbits(32)


def mc_sigma(p: float, shots: int) -> float:
    return math.sqrt(p * (1.0 - p) / shots)


def check_compose(h, job: str, spec, oc) -> None:
    """Qubit count against the closed-form layout, and the gate count
    against the per-round identity H*(2*prep + trans) + eval."""
    want_q = oracle.qubit_cost_formula(spec).total
    h.check(oc.report.qubit_count == want_q,
            f"{job}: {oc.report.qubit_count} qubits, formula says {want_q}")
    want_g = spec.horizon * (2 * oc.prep_gates + oc.trans_gates) + oc.eval_gates
    h.check(oc.report.gate_count == want_g,
            f"{job}: {oc.report.gate_count} gates, identity says {want_g}")


def compose_record(h, job: str, spec):
    with h.span("oracle.compose_record") as n:
        oc = oracle.compose(spec, record=True)
    n["oracle.compose_record.gates"] = oc.report.gate_count
    check_compose(h, job, spec, oc)
    return oc


def uniform_inputs(c, board: int) -> emulator.InputDistribution:
    """The oracle's input law for SIR: a fixed initial board, and selector
    and dice registers uniform over all their values.  SIR dice have
    8 = 2^3 faces, so a uniform dice register is exactly uniform per cell."""
    return emulator.InputDistribution(
        fixed={"config0": board},
        uniform={r.name: 1 << r.width for r in c.registers
                 if r.role in ("selector", "dice")})


def sway(m: int, horizon: int):
    return domains.sway_spec(domains.SwayConfig(m, horizon))


def sir(m: int, horizon: int, threshold: int, rho: int = 2):
    return domains.sir_spec(domains.SirConfig(m, horizon, threshold, rho))


def label(spec) -> str:
    m = spec.payoff_params["m"]
    return f"{spec.name}{m}x{m}h{spec.horizon}"


class Synth:
    """Synthesis at scaling-table size, in tally and record mode."""

    name = "synth"
    seeded = False        # no job draws random inputs

    def __init__(self, seed: int, smoke: bool = False):
        self.n = 64 if smoke else 1024
        m, horizon = (3, 2) if smoke else (6, 3)
        self.sway = sway(m, horizon)
        self.sir = sir(m, horizon, threshold=2)

    def jobs(self):
        return [("scan_tally", self.scan_tally),
                ("blocked_tally", self.blocked_tally),
                ("compose_tally_sway", lambda h: self.compose_tally(h, self.sway)),
                ("compose_tally_sir", lambda h: self.compose_tally(h, self.sir)),
                ("compose_record_sir", self.compose_record_sir)]

    def scan_tally(self, h):
        with h.span("rank_select.build") as n:
            rep = rank_select.builder_scan(self.n, record=False).report()
        n["rank_select.gates"] = rep.gate_count
        want = rank_select.scan_gate_count(self.n)
        h.check(rep.gate_count == want,
                f"scan_tally: {rep.gate_count} gates, closed form says {want}")

    def blocked_tally(self, h):
        with h.span("rank_select.build") as n:
            rep = rank_select.builder_blocked(self.n, record=False).report()
        n["rank_select.gates"] = rep.gate_count
        # criterion-06 band for blocked gates / (N log2 w)
        ratio = rep.gate_count / (self.n * math.log2(rank_select.width_for(self.n)))
        h.check(20.0 <= ratio <= 70.0,
                f"blocked_tally: gates/(N log2 w) = {ratio:.2f} outside [20, 70]")

    def compose_tally(self, h, spec):
        with h.span("oracle.compose_tally") as n:
            oc = oracle.compose(spec, record=False)
        n["oracle.compose_tally.gates"] = oc.report.gate_count
        check_compose(h, f"compose_tally_{spec.name}", spec, oc)

    def compose_record_sir(self, h):
        job = "compose_record_sir"
        oc = compose_record(h, job, self.sir)
        c = oc.circuit
        gates = oc.report.gate_count
        with h.span("circuit.cost") as n:
            rep = circuit.cost(c)
        n["circuit.gates"] = gates
        h.check(rep == oc.report, f"{job}: cost {rep} != builder {oc.report}")
        with h.span("circuit.dumps") as n:
            text = circuit.dumps(c)
        n["circuit.gates"] = gates
        with h.span("circuit.loads") as n:
            back = circuit.loads(text)
        n["circuit.gates"] = gates
        h.check(back == c, f"{job}: loads(dumps(c)) != c")
        with h.span("circuit.analysis") as n:
            prof = circuit.span_profile(c)
            cone = circuit.light_cone(c, c.register("payoff"))
        n["circuit.gates"] = 2 * gates
        h.check(len(prof.spans) == gates
                and prof.total_prefix_span == sum(prof.spans)
                and 0 <= prof.max_span < c.total_qubits,
                f"{job}: span profile inconsistent with {gates} gates")
        # rank-select reads the whole validity mask, so the payoff depends
        # on every bit of the initial board
        h.check(set(c.register("config0")) <= cone <= set(range(c.total_qubits)),
                f"{job}: payoff light cone misses config0 bits")


class Verify:
    """Emulation of checks: wide oracles on few rows, narrow circuits on
    2^14-2^20 rows."""

    name = "verify"
    seeded = True

    def __init__(self, seed: int, smoke: bool = False):
        if smoke:
            branches = ((sway(2, 1), 0, 20), (sir(2, 1, 1), SIR_SI_SS, 20),
                        (sway(3, 1), 0, 10))
            self.rank_n = 4
            self.bijective_spec = sir(1, 0, 0)
            self.mc = (sir(2, 1, 1), SIR_SI_SS, 500)
            self.exact = (sir(1, 1, 0), SIR_I)
        else:
            branches = ((sway(3, 2), 0, 400), (sir(3, 2, 2), SIR_CENTER3, 400),
                        (sway(5, 3), 0, 200))
            self.rank_n = 10                             # 2^14 rows
            self.bijective_spec = sir(1, 1, 0)           # 20 qubits
            self.mc = (sir(3, 2, 2), SIR_CENTER3, 4000)
            self.exact = (sir(2, 1, 1), SIR_SI_SS)
        self.branches = []
        for spec, board, count in branches:
            rng = random.Random(f"{seed}:branchwise_{label(spec)}")
            self.branches.append(
                (spec, board, [rng.getrandbits(32) for _ in range(count)]))
        self.mc_seed = derive_seed(seed, "payoff_mc")

    def jobs(self):
        return ([(f"branchwise_{label(job[0])}",
                  lambda h, job=job: self.branchwise(h, *job))
                 for job in self.branches]
                + [("ancilla_clean_scan",
                    lambda h: self.ancilla_clean(h, rank_select.build_scan)),
                   ("ancilla_clean_blocked",
                    lambda h: self.ancilla_clean(h, rank_select.build_blocked)),
                   (f"bijective_{label(self.bijective_spec)}", self.bijective),
                   (f"payoff_mc_{label(self.mc[0])}", self.payoff_mc),
                   (f"payoff_exact_{label(self.exact[0])}", self.payoff_exact)])

    def branchwise(self, h, spec, board, seeds):
        job = f"branchwise_{label(spec)}"
        oc = compose_record(h, job, spec)
        with h.span("oracle.branchwise_check") as n:
            rep = oracle.branchwise_check(spec, seeds, board, oracle=oc)
        n["oracle.branchwise_check.branches"] = len(seeds)
        n["oracle.branchwise_check.gate_rows"] = oc.report.gate_count * len(seeds)
        h.check(rep.passed, f"{job}: {rep}")

    def ancilla_clean(self, h, build):
        job = f"ancilla_clean_{build.__name__}"
        with h.span("rank_select.build") as n:
            c = build(self.rank_n)
        n["rank_select.gates"] = len(c.gates)
        if build is rank_select.build_scan:
            want = rank_select.scan_gate_count(self.rank_n)
            h.check(len(c.gates) == want,
                    f"{job}: {len(c.gates)} gates, closed form says {want}")
        dist = emulator.InputDistribution(uniform={
            "mask": 1 << self.rank_n,
            "nth": 1 << rank_select.width_for(self.rank_n)})
        with h.span("emulator.check_ancilla_clean") as n:
            rep = emulator.check_ancilla_clean(c, dist)
        n["emulator.gate_rows"] = len(c.gates) * dist.support_size(c)
        h.check(rep.passed, f"{job}: {rep}")

    def bijective(self, h):
        job = f"bijective_{label(self.bijective_spec)}"
        c = compose_record(h, job, self.bijective_spec).circuit
        with h.span("emulator.check_bijective") as n:
            rep = emulator.check_bijective(c)
        n["emulator.gate_rows"] = len(c.gates) << c.total_qubits
        h.check(rep.passed and rep.mode == "exhaustive", f"{job}: {rep}")

    def payoff_mc(self, h):
        spec, board, shots = self.mc
        job = f"payoff_mc_{label(spec)}"
        c = compose_record(h, job, spec).circuit
        dist = uniform_inputs(c, board)
        with h.span("emulator.payoff_probability") as n:
            est = emulator.payoff_probability(c, dist, mode="mc", shots=shots,
                                              seed=self.mc_seed)
        n["emulator.gate_rows"] = len(c.gates) * shots
        with h.span("domains.exact_value") as n:
            exact = domains.exact_value(spec, board)
        n["domains.exact_value.calls"] = 1
        tol = 4 * mc_sigma(exact, shots)
        h.check(abs(est.probability - exact) <= tol,
                f"{job}: circuit MC {est.probability} vs exact {exact} (4 sigma {tol:.4g})")

    def payoff_exact(self, h):
        spec, board = self.exact
        job = f"payoff_exact_{label(spec)}"
        c = compose_record(h, job, spec).circuit
        dist = uniform_inputs(c, board)
        with h.span("emulator.payoff_probability") as n:
            est = emulator.payoff_probability(c, dist, mode="exact")
        n["emulator.gate_rows"] = len(c.gates) * dist.support_size(c)
        with h.span("domains.exact_value") as n:
            exact = domains.exact_value(spec, board)
        n["domains.exact_value.calls"] = 1
        h.check(abs(est.probability - exact) <= 1e-12,
                f"{job}: circuit {est.probability} != exact {exact}")


class Estimate:
    """The classical reference and query accounting; no circuit work."""

    name = "estimate"
    seeded = True

    def __init__(self, seed: int, smoke: bool = False):
        if smoke:
            self.pairs = ((sway(2, 1), 0), (sir(2, 1, 1), SIR_SI_SS))
            self.arm_spec = sway(2, 1)
            self.shots, self.sep_trials, self.influence_trials = 300, 20, 500
        else:
            self.pairs = ((sway(3, 2), 0), (sir(3, 2, 2), SIR_CENTER3))
            self.arm_spec = sway(3, 2)
            self.shots, self.sep_trials, self.influence_trials = 2000, 50, 4000
        rho_spec, self.rho_board = self.pairs[1]
        cfg = rho_spec.payoff_params
        self.rho_specs = [sir(cfg["m"], rho_spec.horizon, cfg["threshold"], rho)
                          for rho in range(9)]
        self.sway5 = sway(5, 3)
        self.influence_spec = sir(3, 2, 2)
        self.seeds = {name: derive_seed(seed, name)
                      for name in ("sample_0", "sample_1", "sample_sway5",
                                   "separation", "influence")}

    def jobs(self):
        return ([(f"sample_{label(spec)}",
                  lambda h, i=i: self.sample_vs_exact(h, i))
                 for i, (spec, _) in enumerate(self.pairs)]
                + [("sample_sway5x5h3", self.sample_sway5),
                   (f"exact_rho_sweep_{label(self.rho_specs[0])}", self.rho_sweep),
                   (f"arm_means_{label(self.arm_spec)}", self.arm_means),
                   ("separation", self.separation),
                   ("influence", self.influence)])

    def sample(self, h, spec, board, seed):
        with h.span("domains.sample_payoff") as n:
            p, _ = domains.sample_payoff(spec, board, self.shots, seed)
        n["domains.rollouts"] = self.shots
        return p

    def sample_vs_exact(self, h, i):
        spec, board = self.pairs[i]
        p = self.sample(h, spec, board, self.seeds[f"sample_{i}"])
        with h.span("domains.exact_value") as n:
            exact = domains.exact_value(spec, board)
        n["domains.exact_value.calls"] = 1
        tol = 4 * mc_sigma(exact, self.shots)
        h.check(abs(p - exact) <= tol,
                f"sample_{label(spec)}: MC {p} vs exact {exact} (4 sigma {tol:.4g})")

    def sample_sway5(self, h):
        p = self.sample(h, self.sway5, 0, self.seeds["sample_sway5"])
        tol = 4 * math.sqrt(mc_sigma(SWAY5_REFERENCE, self.shots) ** 2
                            + mc_sigma(SWAY5_REFERENCE, SWAY5_REFERENCE_SHOTS) ** 2)
        h.check(abs(p - SWAY5_REFERENCE) <= tol,
                f"sample_sway5x5h3: MC {p} vs reference {SWAY5_REFERENCE} "
                f"(4 sigma {tol:.4g})")

    def rho_sweep(self, h):
        values = []
        for spec in self.rho_specs:
            with h.span("domains.exact_value") as n:
                values.append(domains.exact_value(spec, self.rho_board))
            n["domains.exact_value.calls"] = 1
        # a higher recovery threshold can only remove infections under the
        # shared-die coupling, so the payoff is monotone in rho
        h.check(all(0.0 <= a <= b <= 1.0 for a, b in zip(values, values[1:])),
                f"exact_rho_sweep: not monotone in rho: {values}")

    def arm_means(self, h):
        with h.span("domains.arm_means"):
            mu = domains.arm_means(self.arm_spec, 0, 4)
        # first moves 0..3 on an empty board: cells 0 and 2 are exchanged by
        # the left-right mirror, cells 1 and 3 by the diagonal mirror
        h.check(abs(mu[0] - mu[2]) <= 1e-12 and abs(mu[1] - mu[3]) <= 1e-12
                and all(0.0 <= m <= 1.0 for m in mu),
                f"arm_means: means break the board symmetry: {mu}")

    def separation(self, h):
        ks, epss = [4, 8, 16, 32, 64], [0.08, 0.04, 0.02, 0.01]
        with h.span("bestarm.separation_report") as n:
            rep = bestarm.separation_report(ks, epss, self.sep_trials,
                                            self.seeds["separation"])
        n["bestarm.trials"] = len(ks) * len(epss) * self.sep_trials
        for attr, (lo, hi) in SLOPE_WINDOWS.items():
            got = getattr(rep, attr)
            h.check(lo <= got <= hi,
                    f"separation: {attr} {got:.3f} outside [{lo}, {hi}]")
        worst = min(row.quantum_success for row in rep.rows)
        h.check(worst >= 2 / 3, f"separation: quantum success {worst} < 2/3")

    def influence(self, h):
        model = bounds.InfluenceModel(kappa=4, p=0.125, horizon=2)
        for site, dist in ((1, 1), (0, 2)):
            other = domains.set_cell(SIR_CENTER3, site, domains.RECOVERED)
            with h.span("bounds.empirical_influence") as n:
                est = bounds.empirical_influence(
                    self.influence_spec, SIR_CENTER3, other,
                    self.influence_trials, self.seeds["influence"] + site)
            n["bounds.coupled_rollouts"] = self.influence_trials
            bound = bounds.decay_cumulative(model, dist)
            h.check(est.delta <= bound + 3 * est.sigma,
                    f"influence: d={dist} delta {est.delta} > bound {bound} + 3 sigma")


WORKLOADS = {w.name: w for w in (Synth, Verify, Estimate)}
