"""Test helper: one-trial loops for the best-arm kernels of
``qrollout.bestarm``.

Each loop plays one trial in plain Python, with its draws passed in, so one
loop states two laws:

* under ``binomial_sums`` / ``numpy_walk_draws`` it makes the same ``rng``
  calls in the same order as ``successive_elimination`` and
  ``threshold_walk`` at ``trials=1``, and must agree with them exactly;
* under ``bernoulli_sums`` / ``python_walk_draws`` it is the per-trial law
  the kernels replaced (a matrix of Bernoulli pulls per chunk, and a
  ``random.Random`` walk), which the kernels must match in distribution.

``dense_elimination`` is the elimination kernel that the flat one in
``qrollout.bestarm`` replaced: it plays every trial on full (trials, k)
arrays, and the flat kernel must agree with it exactly.

It also holds the Bernoulli ``kl`` behind the transportation ratio of the
hard family, and ``generator``, the Philox stream that the kernel tests
seed.
"""

import math
import random

import numpy as np

from qrollout import bestarm as ba


def kl(p: float, q: float) -> float:
    """Bernoulli KL divergence kl(p || q) in nats; divergent cases -> inf."""
    if not 0.0 <= p <= 1.0:
        raise ba.BestArmError("p must lie in [0, 1]")
    if not 0.0 <= q <= 1.0:
        raise ba.BestArmError("q must lie in [0, 1]")
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


def generator(seed: int) -> np.random.Generator:
    """The Philox generator keyed by ``seed`` mod 2^64."""
    return np.random.Generator(np.random.Philox(key=seed & (2 ** 64 - 1)))


def transportation_ratio(eps: float) -> float:
    """kl(1/3, 2/3) / kl(1/2, 1/2 + 6 eps): per-arm pull floor."""
    return kl(1.0 / 3.0, 2.0 / 3.0) / kl(0.5, 0.5 + 6.0 * eps)


def hard_alternative(k: int, eps: float, j: int) -> ba.BanditInstance:
    """The hard base family with arm ``j`` raised above arm 0."""
    if not 0.0 < eps <= 1.0 / 12.0:
        raise ba.BestArmError("alternative instance requires eps <= 1/12")
    if not 1 <= j < k:
        raise ba.BestArmError("alternative arm must differ from arm 0")
    means = [0.5] * k
    means[0] = 0.5 + 4.0 * eps
    means[j] = 0.5 + 6.0 * eps
    return ba.BanditInstance(k=k, means=tuple(means), eps=eps)


def bernoulli_sums(rng, rounds, p):
    return (rng.random((rounds, p.size)) < p).sum(axis=0)


def binomial_sums(rng, rounds, p):
    return rng.binomial(rounds, p)


def elimination_loop(instance, eps, rng, sums_of):
    """Successive elimination on one trial: ``(chosen, per-arm pulls)``."""
    k = instance.k
    per_arm = [0] * k
    if k == 1:
        return 0, per_arm
    means = np.asarray(instance.means)
    a = ba.SE_RADIUS_CONSTANT
    t_stop = int(math.ceil(4.0 * a / (eps * eps)))
    chunk = max(1, t_stop // ba.SE_CHECK_CHUNKS)
    active = np.arange(k)
    sums = np.zeros(k)
    t = 0
    while t < t_stop and active.size > 1:
        rounds = min(chunk, t_stop - t)
        sums[active] += sums_of(rng, rounds, means[active])
        for i in active:
            per_arm[i] += rounds
        t += rounds
        radius = math.sqrt(a / t)
        emp = sums[active] / t
        keep = emp >= emp.max() - 2.0 * radius
        active = active[keep]
    if active.size == 1:
        return int(active[0]), per_arm
    emp = sums[active] / t
    return int(active[int(np.argmax(emp))]), per_arm


def dense_elimination(instance, eps, trials, rng):
    """Successive elimination on (trials, k) arrays: every chunk draws the
    live entries of running trials through a boolean mask, adds each
    draw's rounds to its pull count, and takes each row's leader over
    the live arms; ties at the horizon go to the lowest index."""
    means = np.asarray(instance.means)
    a = ba.SE_RADIUS_CONSTANT
    t_stop = int(math.ceil(4.0 * a / (eps * eps)))
    chunk = max(1, t_stop // ba.SE_CHECK_CHUNKS)
    live = np.ones((trials, instance.k), dtype=bool)
    sums = np.zeros(live.shape, dtype=np.int64)
    pulls = np.zeros(live.shape, dtype=np.int64)
    running = live.sum(axis=1) > 1
    emp = np.zeros(live.shape)
    t = 0
    while t < t_stop and running.any():
        rounds = min(chunk, t_stop - t)
        draw = live & running[:, None]
        sums[draw] += rng.binomial(rounds, means[np.nonzero(draw)[1]])
        pulls[draw] += rounds
        t += rounds
        emp = np.where(live, sums / t, -np.inf)
        keep = emp >= emp.max(axis=1, keepdims=True) - 2.0 * math.sqrt(a / t)
        live &= keep
        running &= live.sum(axis=1) > 1
    chosen = np.argmax(np.where(live, emp, -np.inf), axis=1)
    return ba.TrialLedgers(chosen=chosen, per_arm=pulls,
                           oracle_calls=np.zeros(trials))


def numpy_walk_draws(rng):
    """(k uniforms, uniform integer below n) as ``threshold_walk`` draws."""
    return rng.random, lambda n: int(rng.random() * n)


def python_walk_draws(seed):
    rng = random.Random(seed)
    return (lambda k: [rng.random() for _ in range(k)]), rng.randrange


def walk_loop(instance, eps, draws):
    """The threshold walk on one trial: ``(chosen, calls, per-arm runs)``."""
    uniforms, below = draws
    k = instance.k
    ae_calls = ba.AE_CALL_CONSTANT / eps
    per_arm = [0] * k
    if k == 1:
        per_arm[0] = 1
        return 0, ae_calls, per_arm
    estimates = [mu + (u - 0.5) * eps
                 for mu, u in zip(instance.means, uniforms(k))]
    current = below(k)
    calls = ae_calls
    per_arm[current] += 1
    while True:
        marked = [j for j in range(k) if estimates[j] > estimates[current]]
        if not marked:
            calls += ba.DH_BATCH_CONSTANT * math.sqrt(k) * ae_calls
            return current, calls, per_arm
        calls += ba.DH_BATCH_CONSTANT * math.sqrt(k / len(marked)) * ae_calls
        current = marked[below(len(marked))]
        per_arm[current] += 1


def old_classical(instance, eps, seed):
    """The per-trial classical law before the kernels: Bernoulli sums."""
    return elimination_loop(instance, eps, generator(seed), bernoulli_sums)


def old_quantum(instance, eps, seed):
    """The per-trial quantum law before the kernels: a ``random.Random``
    walk."""
    return walk_loop(instance, eps, python_walk_draws(seed))
