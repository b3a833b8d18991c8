"""Paired significance tests for system comparisons.

McNemar's test (continuity-corrected chi-square on discordant pairs) for
contrastive accuracy; approximate randomization for scalar metrics such
as BLEU or mean attention entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import stream


class StatsError(ValueError):
    pass


def chi2_tail_1dof(statistic: float) -> float:
    """P(X >= statistic) for a chi-square with one degree of freedom."""
    if statistic < 0:
        raise StatsError(f"chi-square statistic must be nonnegative, got {statistic}")
    return math.erfc(math.sqrt(statistic / 2.0))


@dataclass(frozen=True)
class McNemarResult:
    b: int  # first system right, second wrong
    c: int  # first system wrong, second right
    statistic: float
    p_value: float


def mcnemar(correct_a: Sequence, correct_b: Sequence) -> McNemarResult:
    """Continuity-corrected McNemar's test on paired correctness arrays."""
    if len(correct_a) != len(correct_b):
        raise StatsError(f"paired arrays differ in length: {len(correct_a)} vs {len(correct_b)}")
    a = np.asarray(correct_a, dtype=bool)
    bb = np.asarray(correct_b, dtype=bool)
    b = int(np.sum(a & ~bb))
    c = int(np.sum(~a & bb))
    if b + c == 0:
        return McNemarResult(b=b, c=c, statistic=0.0, p_value=1.0)
    statistic = (abs(b - c) - 1) ** 2 / (b + c)
    return McNemarResult(b=b, c=c, statistic=statistic, p_value=chi2_tail_1dof(statistic))


_FLIPS_PER_CHUNK = 1 << 20  # bounds the memory of the drawn flips


def _randomization_p(n: int, permutations: int, seed: int, label: str, statistics) -> float:
    """p = (#{permuted >= observed} + 1) / (permutations + 1), where each permutation
    swaps each of ``n`` pairs with probability 1/2, and ``statistics`` maps
    (permutations, n) swap masks to their statistics; the observed one is that of
    no swap. The masks are drawn row-major, as one draw of ``n`` per permutation."""
    if permutations < 1:
        raise StatsError(f"need >= 1 permutations, got {permutations}")
    observed = statistics(np.zeros((1, n), dtype=bool))[0]
    rng = stream(seed, label)
    chunk = max(1, _FLIPS_PER_CHUNK // n)
    count = 0
    for lo in range(0, permutations, chunk):
        flip = rng.random((min(chunk, permutations - lo), n)) < 0.5
        count += int(np.count_nonzero(statistics(flip) >= observed))
    return (count + 1) / (permutations + 1)


def approx_randomization(scores_a: Sequence, scores_b: Sequence, permutations: int,
                         seed: int) -> float:
    """Paired approximate randomization test on |difference of the means|."""
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise StatsError(f"score arrays must be equal-length vectors, got {a.shape} vs {b.shape}")
    if a.size == 0:
        raise StatsError("empty score arrays")
    bad = int(np.count_nonzero(~np.isfinite(a)) + np.count_nonzero(~np.isfinite(b)))
    if bad:
        raise StatsError(f"{bad} non-finite scores")
    return _randomization_p(
        a.size, permutations, seed, "approx-randomization",
        lambda flip: np.abs(np.where(flip, b, a).mean(axis=1) - np.where(flip, a, b).mean(axis=1)))


def paired_bleu_randomization(stats_a, stats_b, permutations: int, seed: int) -> float:
    """Approximate randomization where the aggregate statistic is corpus BLEU.

    ``stats_a``/``stats_b`` are aligned per-sentence ``bleu_stats``, and each
    permutation swaps whole sentences; its corpus sums are formed in
    integers from the summed statistics and the sentences it swaps."""
    from .evaluation import bleu_from_row

    if len(stats_a) != len(stats_b):
        raise StatsError("per-sentence statistics must be aligned")
    if not stats_a:
        raise StatsError("empty corpus")
    a, b = np.array(stats_a, dtype=np.int64), np.array(stats_b, dtype=np.int64)
    sum_a, sum_b, swap = a.sum(axis=0), b.sum(axis=0), b - a

    def statistics(flip):
        moved = flip.astype(np.int64) @ swap
        return np.array([abs(bleu_from_row(pa) - bleu_from_row(pb)) for pa, pb in
                         zip((sum_a + moved).tolist(), (sum_b - moved).tolist())])

    return _randomization_p(len(stats_a), permutations, seed, "approx-randomization-bleu",
                            statistics)
