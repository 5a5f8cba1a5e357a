"""Best-arm identification: hard instances, the classical lower bound,
classical successive elimination, and quantum query accounting.

The quantum side charges oracle calls at the published complexities of its
cited primitives (maximum finding over k arms, amplitude estimation at
additive error eps) rather than simulating amplitudes: each threshold
comparison costs one amplitude-estimation run of AE_CALL_CONSTANT / eps
oracle calls returning the exact mean perturbed by a seeded error below
eps/2, and the outer maximum-finding walk performs its expected
O(sqrt(k)) comparisons.

Both sides are kernels that play every trial of one instance at once.
``threshold_walk`` works on (trials, k) arrays; ``successive_elimination``
holds only the live (trial, arm) entries of running trials, flat in
row-major order, so a chunk costs its binomial draws plus a few passes
over those entries.  Ledgers are deterministic given (instance, eps, seed,
trials).
``separation_report`` gives each (k, eps) cell of its grid its own seeded
streams, one per side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rank_select import select_rows

AE_CALL_CONSTANT = 4.0     # oracle calls per amplitude estimation = C_ae/eps
DH_BATCH_CONSTANT = 2.0    # comparisons charged per Grover find = C_dh*sqrt(k/m)
SE_RADIUS_CONSTANT = 2.0   # elimination radius sqrt(a/t); tuned for 2/3 success
SE_CHECK_CHUNKS = 64       # elimination checks per stopping horizon


class BestArmError(ValueError):
    pass


def _check_args(eps: float, trials: int = 0) -> None:
    """Raise unless eps lies in (0, 1) (NaN does not) and trials >= 0."""
    if not 0.0 < eps < 1.0:
        raise BestArmError(f"eps must lie in (0, 1), got {eps}")
    if trials < 0:
        raise BestArmError(f"trials must be >= 0, got {trials}")


def classical_lower_bound(k: int, eps: float) -> float:
    """(k-1) ln2 / (288 eps^2): expected-rollout floor on the hard family.

    The formula evaluates for any eps in (0, 1); the hard family itself is
    constructible only for eps <= 1/12 (see BanditInstance).
    """
    if k < 2:
        raise BestArmError("k must be >= 2")
    _check_args(eps)
    return (k - 1) * math.log(2.0) / (288.0 * eps * eps)


@dataclass(frozen=True)
class BanditInstance:
    k: int
    means: tuple[float, ...]
    eps: float

    def __post_init__(self):
        if self.k < 1:
            raise BestArmError(f"k must be >= 1, got {self.k}")
        if self.k != len(self.means):
            raise BestArmError("k must match number of means")
        if any(not 0.0 <= mu <= 1.0 for mu in self.means):
            raise BestArmError("means must lie in [0, 1]")

    @classmethod
    def hard_base(cls, k: int, eps: float) -> "BanditInstance":
        if not 0.0 < eps <= 0.125:
            raise BestArmError("base instance requires eps <= 1/8")
        means = (0.5 + 4.0 * eps,) + (0.5,) * (k - 1)
        return cls(k=k, means=means, eps=eps)

    def optimal_set(self) -> set[int]:
        best = max(self.means)
        return {i for i, mu in enumerate(self.means)
                if mu >= best - self.eps}


# ---------------------------------------------------------------------------
# kernels: every trial of one instance at once

@dataclass(frozen=True)
class TrialLedgers:
    """The ledgers of ``trials`` independent runs on one instance, one row
    per trial: the chosen arm, the per-arm count (pulls classically, AE
    runs on the quantum side) and the coherent oracle calls (zero
    classically)."""
    chosen: np.ndarray         # (trials,) int64
    per_arm: np.ndarray        # (trials, k) int64
    oracle_calls: np.ndarray   # (trials,) float64


def _uniform_below(rng: np.random.Generator, m: np.ndarray) -> np.ndarray:
    """One uniform integer in [0, m) per entry of ``m``: floor(u * m) for a
    53-bit uniform u, so each value's probability is within 2^-53 of 1/m."""
    return (rng.random(m.size) * m).astype(np.int64)


def successive_elimination(instance: BanditInstance, eps: float, trials: int,
                           rng: np.random.Generator) -> TrialLedgers:
    """Successive elimination with constant Hoeffding radii sqrt(a/t), all
    trials at once.

    Arms whose empirical mean trails the leader by more than twice the
    radius are dropped; a trial stops when one arm remains or the radius
    falls below eps/2, and a stopped trial is charged no more pulls.
    Elimination is checked in chunks of rounds, which only delays drop
    times.  A chunk adds one ``rng.binomial(rounds, mean)`` per live (trial,
    arm) entry, in row-major order: a sum of ``rounds`` Bernoulli pulls.
    Ties among the arms left at the horizon go to the lowest index.

    Only the live entries of running trials are held, flat in that
    row-major order, each trial one segment: a chunk draws on them as
    they lie, takes each segment's leader with one ``reduceat``, and
    compacts them only when an entry leaves.  An entry's pull count is the
    t at which it left (dropped, its trial stopped, or the horizon).
    """
    _check_args(eps, trials)
    k = instance.k
    a = SE_RADIUS_CONSTANT
    t_stop = int(math.ceil(4.0 * a / (eps * eps)))
    chunk = max(1, t_stop // SE_CHECK_CHUNKS)
    pulls = np.zeros(trials * k, dtype=np.int64)
    live = np.arange(trials * k if k > 1 else 0)     # flat (trial, arm)
    mu = np.resize(instance.means, live.size)
    sums = np.zeros(live.size, dtype=np.int64)
    counts = np.full(live.size // k, k)              # live arms per trial
    starts = np.arange(0, live.size, k)
    won = []                                         # the chosen entries
    t = 0
    while t < t_stop and live.size:
        rounds = min(chunk, t_stop - t)
        sums += rng.binomial(rounds, mu)
        t += rounds
        emp = sums / t
        top = np.maximum.reduceat(emp, starts)
        keep = emp >= (top - 2.0 * math.sqrt(a / t)).repeat(counts)
        if np.count_nonzero(keep) == keep.size:
            continue
        left = np.add.reduceat(keep, starts, dtype=np.int64)
        run = left > 1
        stay = keep & run.repeat(counts)
        won.append(live[keep > stay])
        pulls[live] = t           # final for the leavers; stayers rise again
        live, mu, sums = live[stay], mu[stay], sums[stay]
        counts = left[run]
        starts = counts.cumsum() - counts
    if live.size:
        pulls[live] = t
        emp = sums / t
        top = np.maximum.reduceat(emp, starts).repeat(counts)
        won.append(live[np.minimum.reduceat(
            np.where(emp == top, np.arange(live.size), live.size), starts)])
    chosen = np.zeros(trials, dtype=np.int64)
    if won:
        won = np.concatenate(won)
        chosen[won // k] = won % k
    return TrialLedgers(chosen=chosen, per_arm=pulls.reshape(trials, k),
                        oracle_calls=np.zeros(trials))


def threshold_walk(instance: BanditInstance, eps: float, trials: int,
                   rng: np.random.Generator) -> TrialLedgers:
    """Maximum finding over amplitude-estimated arm values, all trials at
    once, charged at query level.

    Each arm's estimate is its mean plus a seeded uniform error in
    [-eps/2, eps/2).  A walk starts at a uniform arm (one AE run of
    AE_CALL_CONSTANT/eps calls); each step against m > 0 marked arms (those
    estimated above the current one) charges DH_BATCH_CONSTANT*sqrt(k/m)
    AE runs and moves to a uniform marked arm, and a walk ends on a final
    sqrt(k)-run exhaustion check where m = 0.  A single arm costs one AE
    run.
    """
    _check_args(eps, trials)
    k = instance.k
    ae_calls = AE_CALL_CONSTANT / eps
    rows = np.arange(trials)
    per_arm = np.zeros((trials, k), dtype=np.int64)
    calls = np.full(trials, ae_calls)
    if k == 1:
        per_arm[:, 0] = 1
        return TrialLedgers(chosen=np.zeros(trials, dtype=np.int64),
                            per_arm=per_arm, oracle_calls=calls)
    est = np.asarray(instance.means) + (rng.random((trials, k)) - 0.5) * eps
    cur = _uniform_below(rng, np.full(trials, k))
    per_arm[rows, cur] = 1
    run = rows
    while run.size:
        marked = est[run] > est[run, cur[run]][:, None]
        m = marked.sum(axis=1)
        done = m == 0
        calls[run[done]] += DH_BATCH_CONSTANT * math.sqrt(k) * ae_calls
        run, marked, m = run[~done], marked[~done], m[~done]
        calls[run] += DH_BATCH_CONSTANT * np.sqrt(k / m) * ae_calls
        cur[run] = select_rows(marked.T, _uniform_below(rng, m)).argmax(0)
        per_arm[run, cur[run]] += 1
    return TrialLedgers(chosen=cur, per_arm=per_arm, oracle_calls=calls)


# ---------------------------------------------------------------------------
# separation report

@dataclass(frozen=True)
class SeparationRow:
    k: int
    eps: float
    classical_pulls: float
    classical_pulls_se: float     # standard error of the mean over trials
    classical_success: float
    quantum_calls: float
    quantum_calls_se: float
    quantum_success: float
    lower_bound: float


@dataclass(frozen=True)
class SeparationReport:
    rows: tuple[SeparationRow, ...]
    slope_classical_k: float
    slope_quantum_k: float
    slope_classical_eps: float
    slope_quantum_eps: float
    slope_classical_k_se: float   # delta-method standard errors
    slope_quantum_k_se: float
    slope_classical_eps_se: float
    slope_quantum_eps_se: float


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Mean of per-trial values and its standard error (nan for one trial)."""
    se = x.std(ddof=1) / math.sqrt(x.size) if x.size > 1 else math.nan
    return float(x.mean()), float(se)


def _loglog_slope(xs, ys, ses) -> tuple[float, float]:
    """Least-squares slope of log y on log x, ``sum_i w_i log y_i``, and its
    delta-method standard error: the cells are independent, and log y_i
    has error se_i / y_i."""
    lx = np.log(xs)
    d = lx - lx.mean()
    w = d / (d @ d)
    ys = np.asarray(ys)
    return (float(w @ np.log(ys)),
            float(np.sqrt(((w * np.asarray(ses) / ys) ** 2).sum())))


def separation_report(k_values, eps_values, trials: int,
                      seed: int) -> SeparationReport:
    """Mean pulls/calls (with standard errors) and success rates on hard base
    instances over a (k, eps) grid, with fitted log-log exponents.

    Each (k, eps) cell draws from its own stream,
    ``SeedSequence([seed, k, round(eps * 1e9)])``, spawned into a classical
    and a quantum child, so either side can change without moving the
    other's draws.  The k-slopes are fitted at the smallest eps in the
    grid; the eps-slopes (versus 1/eps) at the largest k.
    """
    k_values = sorted(set(k_values))
    eps_values = sorted(set(eps_values), reverse=True)
    if len(k_values) < 2 or len(eps_values) < 2:
        raise BestArmError("slopes need two distinct k and two distinct eps "
                           "values")
    if trials < 1:
        raise BestArmError(f"trials must be >= 1, got {trials}")
    rows = []
    table: dict[tuple[int, float], SeparationRow] = {}
    for k in k_values:
        for eps in eps_values:
            inst = BanditInstance.hard_base(k, eps)
            good = np.zeros(k, dtype=bool)
            good[list(inst.optimal_set())] = True
            cell = np.random.SeedSequence(
                [seed & (2 ** 64 - 1), k, round(eps * 1e9)])
            c_rng, q_rng = (np.random.Generator(np.random.Philox(child))
                            for child in cell.spawn(2))
            cl = successive_elimination(inst, eps, trials, c_rng)
            qa = threshold_walk(inst, eps, trials, q_rng)
            cp, cp_se = _mean_se(cl.per_arm.sum(axis=1))
            qc, qc_se = _mean_se(qa.oracle_calls)
            row = SeparationRow(
                k=k, eps=eps, classical_pulls=cp, classical_pulls_se=cp_se,
                classical_success=float(good[cl.chosen].mean()),
                quantum_calls=qc, quantum_calls_se=qc_se,
                quantum_success=float(good[qa.chosen].mean()),
                lower_bound=classical_lower_bound(k, eps))
            rows.append(row)
            table[(k, eps)] = row
    eps_ref = eps_values[-1]
    k_ref = k_values[-1]
    by_k = [table[(k, eps_ref)] for k in k_values]
    by_eps = [table[(k_ref, e)] for e in eps_values]
    inv = [1.0 / e for e in eps_values]
    sck = _loglog_slope(k_values, [r.classical_pulls for r in by_k],
                        [r.classical_pulls_se for r in by_k])
    sqk = _loglog_slope(k_values, [r.quantum_calls for r in by_k],
                        [r.quantum_calls_se for r in by_k])
    sce = _loglog_slope(inv, [r.classical_pulls for r in by_eps],
                        [r.classical_pulls_se for r in by_eps])
    sqe = _loglog_slope(inv, [r.quantum_calls for r in by_eps],
                        [r.quantum_calls_se for r in by_eps])
    return SeparationReport(
        rows=tuple(rows), slope_classical_k=sck[0], slope_quantum_k=sqk[0],
        slope_classical_eps=sce[0], slope_quantum_eps=sqe[0],
        slope_classical_k_se=sck[1], slope_quantum_k_se=sqk[1],
        slope_classical_eps_se=sce[1], slope_quantum_eps_se=sqe[1])
