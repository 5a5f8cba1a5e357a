"""Best-arm identification: hard instances, KL lower bound, classical
successive elimination, and quantum query accounting.

The quantum side charges oracle calls at the published complexities of its
cited primitives (maximum finding over k arms, amplitude estimation at
additive error eps) rather than simulating amplitudes: each threshold
comparison costs one amplitude-estimation run of AE_CALL_CONSTANT / eps
oracle calls returning the exact mean perturbed by a seeded error below
eps/2, and the outer maximum-finding loop performs its expected
O(sqrt(k)) comparisons.  Ledgers are deterministic given (instance, eps,
seed).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

AE_CALL_CONSTANT = 4.0     # oracle calls per amplitude estimation = C_ae/eps
DH_BATCH_CONSTANT = 2.0    # comparisons charged per Grover find = C_dh*sqrt(k/m)
SE_RADIUS_CONSTANT = 2.0   # elimination radius sqrt(a/t); tuned for 2/3 success
SE_CHECK_CHUNKS = 64       # elimination checks per stopping horizon


class BestArmError(ValueError):
    pass


def kl(p: float, q: float) -> float:
    """Bernoulli KL divergence kl(p || q) in nats; divergent cases -> inf."""
    if not 0.0 <= p <= 1.0:
        raise BestArmError("p must lie in [0, 1]")
    if not 0.0 <= q <= 1.0:
        raise BestArmError("q must lie in [0, 1]")
    if p == q:
        return 0.0
    if q in (0.0, 1.0):
        return math.inf
    terms = 0.0
    if p > 0.0:
        terms += p * math.log(p / q)
    if p < 1.0:
        terms += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return terms


def classical_lower_bound(k: int, eps: float) -> float:
    """(k-1) ln2 / (288 eps^2): expected-rollout floor on the hard family.

    The formula evaluates for any eps in (0, 1); the hard family itself is
    constructible only for eps <= 1/12 (see BanditInstance).
    """
    if k < 2:
        raise BestArmError("k must be >= 2")
    if not 0.0 < eps < 1.0:
        raise BestArmError("eps must lie in (0, 1)")
    return (k - 1) * math.log(2.0) / (288.0 * eps * eps)


def transportation_ratio(eps: float) -> float:
    """kl(1/3, 2/3) / kl(1/2, 1/2 + 6 eps): per-arm pull floor."""
    return kl(1.0 / 3.0, 2.0 / 3.0) / kl(0.5, 0.5 + 6.0 * eps)


@dataclass(frozen=True)
class BanditInstance:
    k: int
    means: tuple[float, ...]
    eps: float
    kind: str = "base"          # "base" | "alternative"

    def __post_init__(self):
        if self.k != len(self.means):
            raise BestArmError("k must match number of means")
        if any(not 0.0 <= mu <= 1.0 for mu in self.means):
            raise BestArmError("means must lie in [0, 1]")

    @classmethod
    def hard_base(cls, k: int, eps: float) -> "BanditInstance":
        if not 0.0 < eps <= 0.125:
            raise BestArmError("base instance requires eps <= 1/8")
        means = (0.5 + 4.0 * eps,) + (0.5,) * (k - 1)
        return cls(k=k, means=means, eps=eps, kind="base")

    @classmethod
    def hard_alternative(cls, k: int, eps: float, j: int) -> "BanditInstance":
        if not 0.0 < eps <= 1.0 / 12.0:
            raise BestArmError("alternative instance requires eps <= 1/12")
        if not 1 <= j < k:
            raise BestArmError("alternative arm must differ from arm 0")
        means = [0.5] * k
        means[0] = 0.5 + 4.0 * eps
        means[j] = 0.5 + 6.0 * eps
        return cls(k=k, means=tuple(means), eps=eps, kind=f"alternative({j})")

    def optimal_set(self) -> set[int]:
        best = max(self.means)
        return {i for i, mu in enumerate(self.means)
                if mu >= best - self.eps}


@dataclass
class QueryLedger:
    oracle_calls: float = 0.0
    per_arm: list[int] = field(default_factory=list)
    chosen: int = -1

    @property
    def total_pulls(self) -> int:
        return sum(self.per_arm)


# ---------------------------------------------------------------------------
# classical baseline: successive elimination

def classical_baseline(instance: BanditInstance, eps: float,
                       seed: int) -> tuple[int, QueryLedger]:
    """Successive elimination with constant Hoeffding radii sqrt(a/t).

    Arms whose empirical mean trails the leader by more than twice the
    radius are dropped; the run stops when one arm remains or the radius
    falls below eps/2.  Elimination is checked in chunks of rounds, which
    only delays drop times.  Every pull is ledgered.
    """
    k = instance.k
    ledger = QueryLedger(per_arm=[0] * k)
    if k == 1:
        ledger.chosen = 0
        return 0, ledger
    rng = np.random.Generator(np.random.Philox(key=seed & (2 ** 64 - 1)))
    means = np.asarray(instance.means)
    a = SE_RADIUS_CONSTANT
    t_stop = int(math.ceil(4.0 * a / (eps * eps)))
    chunk = max(1, t_stop // SE_CHECK_CHUNKS)
    active = np.arange(k)
    sums = np.zeros(k)
    t = 0
    while t < t_stop and active.size > 1:
        rounds = min(chunk, t_stop - t)
        draws = rng.random((rounds, active.size)) < means[active]
        sums[active] += draws.sum(axis=0)
        for i in active:
            ledger.per_arm[i] += rounds
        t += rounds
        radius = math.sqrt(a / t)
        emp = sums[active] / t
        keep = emp >= emp.max() - 2.0 * radius
        active = active[keep]
    if active.size == 1:
        ledger.chosen = int(active[0])
    else:
        emp = sums[active] / t
        ledger.chosen = int(active[int(np.argmax(emp))])
    return ledger.chosen, ledger


# ---------------------------------------------------------------------------
# quantum accounting

def quantum_accounting(instance: BanditInstance, eps: float,
                       seed: int) -> tuple[int, QueryLedger]:
    """Maximum-finding over amplitude-estimated arm values, charged at query
    level: each comparison costs one AE run of AE_CALL_CONSTANT/eps calls;
    a Grover find against m marked arms charges DH_BATCH_CONSTANT*sqrt(k/m)
    comparisons, plus a final sqrt(k) exhaustion check."""
    k = instance.k
    rng = random.Random(seed)
    ae_calls = AE_CALL_CONSTANT / eps
    ledger = QueryLedger(per_arm=[0] * k)
    estimates = [mu + (rng.random() - 0.5) * eps
                 for mu in instance.means]       # |error| < eps/2, seeded
    if k == 1:
        ledger.oracle_calls += ae_calls
        ledger.per_arm[0] += 1
        ledger.chosen = 0
        return 0, ledger
    current = rng.randrange(k)
    ledger.oracle_calls += ae_calls
    ledger.per_arm[current] += 1
    while True:
        marked = [j for j in range(k) if estimates[j] > estimates[current]]
        if not marked:
            ledger.oracle_calls += (DH_BATCH_CONSTANT * math.sqrt(k)
                                    * ae_calls)
            break
        find_cost = DH_BATCH_CONSTANT * math.sqrt(k / len(marked))
        ledger.oracle_calls += find_cost * ae_calls
        current = marked[rng.randrange(len(marked))]
        ledger.per_arm[current] += 1
    ledger.chosen = current
    return current, ledger


# ---------------------------------------------------------------------------
# separation report

@dataclass(frozen=True)
class SeparationRow:
    k: int
    eps: float
    classical_pulls: float
    classical_success: float
    quantum_calls: float
    quantum_success: float
    lower_bound: float


@dataclass(frozen=True)
class SeparationReport:
    rows: tuple[SeparationRow, ...]
    slope_classical_k: float
    slope_quantum_k: float
    slope_classical_eps: float
    slope_quantum_eps: float


def _loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def separation_report(k_values, eps_values, trials: int,
                      seed: int) -> SeparationReport:
    """Mean pulls/calls and success rates on hard base instances over a
    (k, eps) grid, with fitted log-log exponents.

    The k-slopes are fitted at the smallest eps in the grid; the eps-slopes
    (versus 1/eps) at the largest k.
    """
    k_values = sorted(set(k_values))
    eps_values = sorted(set(eps_values), reverse=True)
    if len(k_values) < 2 or len(eps_values) < 2:
        raise BestArmError("slopes need two distinct k and two distinct eps "
                           "values")
    rows = []
    table: dict[tuple[int, float], SeparationRow] = {}
    for k in k_values:
        for eps in eps_values:
            inst = BanditInstance.hard_base(k, eps)
            cp = cs = qc = qs = 0.0
            good = inst.optimal_set()
            for t in range(trials):
                s = (seed * 1_000_003 + 7919 * t) ^ (k << 20) ^ int(eps * 1e9)
                arm, led = classical_baseline(inst, eps, s)
                cp += led.total_pulls
                cs += arm in good
                arm, led = quantum_accounting(inst, eps, s)
                qc += led.oracle_calls
                qs += arm in good
            row = SeparationRow(
                k=k, eps=eps,
                classical_pulls=cp / trials, classical_success=cs / trials,
                quantum_calls=qc / trials, quantum_success=qs / trials,
                lower_bound=classical_lower_bound(k, eps))
            rows.append(row)
            table[(k, eps)] = row
    eps_ref = eps_values[-1]
    k_ref = k_values[-1]
    ks = [k for k in k_values]
    sck = _loglog_slope(ks, [table[(k, eps_ref)].classical_pulls for k in ks])
    sqk = _loglog_slope(ks, [table[(k, eps_ref)].quantum_calls for k in ks])
    inv = [1.0 / e for e in eps_values]
    sce = _loglog_slope(inv, [table[(k_ref, e)].classical_pulls
                              for e in eps_values])
    sqe = _loglog_slope(inv, [table[(k_ref, e)].quantum_calls
                              for e in eps_values])
    return SeparationReport(rows=tuple(rows), slope_classical_k=sck,
                            slope_quantum_k=sqk, slope_classical_eps=sce,
                            slope_quantum_eps=sqe)
