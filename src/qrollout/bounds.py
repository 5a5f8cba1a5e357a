"""Bounded-influence lifting checks and subcritical spatial-decay bounds.

The decay calculators evaluate the path-counting bounds for local dynamics
whose per-edge per-round disagreement probability is at most p on a graph of
maximum degree kappa: a single-site change influences the value through
length-d propagation paths with weight at most (kappa/(kappa-1))
((kappa-1) p)^d per round, and the cumulative influence over H rounds is the
exact binomial sum, which is identically zero beyond distance H.  Sums are
evaluated in exact rational arithmetic before capping at 1.

The lifting checker verifies the structural clauses of a stability/
modularity witness (per-factor budgets summing below the gap, pairwise
disjoint arm supports, a peripheral set disjoint from all of them, and the
base-configuration gap), then samples the induced configuration family and
confirms the designated arm stays eps-optimal at every sampled member.

The empirical influence runs coupled rollouts from two boards under one
face array, position-coupled: the first board decides each placement and
the second places at the same cell when it is valid there.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .domains import final_codes
from .oracle import RolloutSpec, input_law


class BoundsError(ValueError):
    pass


@dataclass(frozen=True)
class InfluenceModel:
    kappa: int                  # max degree >= 2
    p: float                    # per-edge per-round disagreement probability
    horizon: int

    def __post_init__(self):
        if self.kappa < 2:
            raise BoundsError("kappa must be >= 2")
        if not 0.0 <= self.p <= 1.0:
            raise BoundsError("p must lie in [0, 1]")
        if self.horizon < 0:
            raise BoundsError("horizon must be >= 0")


def decay_per_round(model: InfluenceModel, d: int) -> float:
    """min{1, kappa/(kappa-1) * ((kappa-1) p)^d}; d = 0 gives 1."""
    if d < 0:
        raise BoundsError("distance must be >= 0")
    if d == 0:
        return 1.0
    k = model.kappa
    p = Fraction(model.p)
    val = Fraction(k, k - 1) * ((k - 1) * p) ** d
    return float(min(Fraction(1), val))


def decay_cumulative(model: InfluenceModel, d: int) -> float:
    """min{1, sum_{l=d}^{H} kappa (kappa-1)^(l-1) C(H,l) p^l}; 0 for d > H.

    Binomials are exact big integers; the sum is exact rational arithmetic
    on the binary expansion of p.
    """
    if d < 1:
        raise BoundsError("distance must be >= 1")
    h = model.horizon
    if d > h:
        return 0.0
    k = model.kappa
    p = Fraction(model.p)
    total = Fraction(0)
    for ell in range(d, h + 1):
        total += k * (k - 1) ** (ell - 1) * math.comb(h, ell) * p ** ell
    return float(min(Fraction(1), total))


# ---------------------------------------------------------------------------
# peripheral set (Appendix-style construction, grid center anchored)

@dataclass(frozen=True)
class PeripheralSet:
    radius: int                     # r* = H + 1
    cells: tuple[int, ...]          # Manhattan distance > r* from the anchor
    nonempty_predicted: bool        # m^2 > 2 r*^2 + 2 r* + 1

    @property
    def nonempty(self) -> bool:
        return bool(self.cells)


def peripheral_set(m: int, horizon: int) -> PeripheralSet:
    """Cells beyond radius H+1 of the grid center, plus the sufficient
    nonemptiness inequality m^2 > 2 r*^2 + 2 r* + 1.

    The inequality implies nonemptiness; the converse can fail when the
    radius-r* ball is clipped by the grid boundary.
    """
    if m < 1 or horizon < 0:
        raise BoundsError("m >= 1 and horizon >= 0 required")
    r = horizon + 1
    anchor = (m // 2, m // 2)
    cells = []
    for row in range(m):
        for col in range(m):
            if abs(row - anchor[0]) + abs(col - anchor[1]) > r:
                cells.append(row * m + col)
    predicted = m * m > 2 * r * r + 2 * r + 1
    return PeripheralSet(radius=r, cells=tuple(cells),
                         nonempty_predicted=predicted)


# ---------------------------------------------------------------------------
# lifting witness and checker

@dataclass(frozen=True)
class LiftingWitness:
    n_factors: int
    alphabet: tuple[int, ...]
    base_config: tuple[int, ...]
    best_arm: int
    eps: float
    deltas: dict[int, float]            # per-factor influence budgets
    peripheral: frozenset[int]
    arm_supports: tuple[frozenset[int], ...]


@dataclass
class LiftingReport:
    structural_ok: bool
    gap_ok: bool
    family_size: int
    members_checked: int
    optimality_failures: int
    modular_equality_failures: int
    failure_reason: str | None = None

    @property
    def passed(self) -> bool:
        return (self.structural_ok and self.gap_ok
                and self.optimality_failures == 0
                and self.modular_equality_failures == 0)

    def __bool__(self):
        return self.passed


def check_lifting(witness: LiftingWitness, sample_count: int,
                  value_oracle: Callable[[tuple[int, ...]], Sequence[float]],
                  seed: int = 0) -> LiftingReport:
    """Verify the witness clauses, then sample the peripheral family and check
    eps-optimality of the designated arm at every sampled configuration.
    A family of at most ``sample_count`` members is checked whole;
    otherwise ``sample_count`` members are checked: the corners (every
    peripheral factor set to one symbol), then seeded uniform members.

    ``value_oracle`` maps a configuration to all arm values, exactly; in the
    fully modular case (all peripheral budgets zero) arm values must match
    the base configuration's to within 1e-12.
    """
    if sample_count < 1:
        raise BoundsError(f"sample_count must be >= 1, got {sample_count}")
    w = witness
    q = sorted(w.peripheral)
    sigma = list(w.alphabet)
    family_size = len(sigma) ** len(q)
    report = LiftingReport(structural_ok=True, gap_ok=True,
                           family_size=family_size, members_checked=0,
                           optimality_failures=0,
                           modular_equality_failures=0)

    def fail(reason: str) -> LiftingReport:
        report.structural_ok = False
        report.failure_reason = reason
        return report

    if len(w.base_config) != w.n_factors:
        return fail("base configuration has wrong factor count")
    if any(c not in w.alphabet for c in w.base_config):
        return fail("base configuration leaves the alphabet")
    budget = sum(w.deltas.get(p, 0.0) for p in w.peripheral)
    if budget > w.eps + 1e-12:
        return fail(f"stability violated: sum of peripheral budgets "
                    f"{budget:.6g} exceeds eps {w.eps:.6g}")
    seen: set[int] = set()
    for sup in w.arm_supports:
        if seen & sup:
            return fail("modularity violated: arm supports overlap")
        seen |= sup
    if w.peripheral & seen:
        return fail("modularity violated: peripheral set meets arm supports")

    base_values = list(value_oracle(w.base_config))
    if w.best_arm >= len(base_values):
        return fail("best arm index out of range")
    margin = 3.0 * w.eps
    for j, v in enumerate(base_values):
        if j != w.best_arm and base_values[w.best_arm] < v + margin:
            report.gap_ok = False
            report.failure_reason = (
                f"base gap violated at arm {j}: "
                f"{base_values[w.best_arm]:.6g} < {v:.6g} + 3 eps")
            return report

    modular = all(w.deltas.get(p, 0.0) == 0.0 for p in w.peripheral)

    if family_size <= sample_count:
        # every member, the first peripheral factor varying fastest
        picks = [p[::-1] for p in itertools.product(sigma, repeat=len(q))]
    else:
        rng = random.Random(seed)
        picks = [[sym] * len(q) for sym in sigma]       # the corners
        while len(picks) < sample_count:
            picks.append([sigma[rng.randrange(len(sigma))] for _ in q])

    tol = 1e-12
    for pick in picks[:sample_count]:
        member = list(w.base_config)
        for pos, sym in zip(q, pick):
            member[pos] = sym
        values = list(value_oracle(tuple(member)))
        report.members_checked += 1
        for v in values:
            if values[w.best_arm] < v - w.eps - tol:
                report.optimality_failures += 1
        if modular:
            for j, v in enumerate(values):
                if abs(v - base_values[j]) > tol:
                    report.modular_equality_failures += 1
    return report


# ---------------------------------------------------------------------------
# coupled-rollout empirical influence

@dataclass(frozen=True)
class InfluenceEstimate:
    delta: float                # |mean coupled payoff difference|
    sigma: float                # standard error of the mean difference
    trials: int


def empirical_influence(spec: RolloutSpec, board_a: int, board_b: int,
                        trials: int, seed: int,
                        first_move: int | None = None) -> InfluenceEstimate:
    """Coupled rollouts from two initial boards under shared streams; returns
    the measured payoff-probability difference with its Monte Carlo error.
    Trial ``r`` feeds row ``r`` of ``input_law(spec, board_a).draw(trials,
    seed)`` to both boards.

    The boards share the decoded action positions (``board_b`` skips a
    position that is not valid on it), so the measured difference isolates
    the dynamical propagation that the path-counting decay bound models.
    Sharing the raw selector ranks instead would let a single-site change
    shift every later rank-select decode through the global popcount, a
    policy effect outside that model.
    """
    if trials < 1:
        raise BoundsError(f"trials must be >= 1, got {trials}")
    diffs_sum = 0
    diffs_sq = 0
    for faces in input_law(spec, board_a).draw_chunks(trials, seed):
        a, b = final_codes(spec, [board_a, board_b], faces, first_move)
        d = spec.array_eval(a) - spec.array_eval(b)
        diffs_sum += int(d.sum())
        diffs_sq += int((d * d).sum())
    mean = diffs_sum / trials
    var = max(0.0, diffs_sq / trials - mean * mean)
    sigma = math.sqrt(var / trials)
    return InfluenceEstimate(delta=abs(mean), sigma=sigma, trials=trials)
