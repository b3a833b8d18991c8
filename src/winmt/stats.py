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


def approx_randomization(scores_a: Sequence, scores_b: Sequence, permutations: int,
                         seed: int) -> float:
    """Paired approximate randomization test on the difference of means.

    Each permutation swaps every item pair independently with probability
    1/2 and recomputes |difference of the means|;
    p = (#{permuted >= observed} + 1) / (permutations + 1).
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise StatsError(f"score arrays must be equal-length vectors, got {a.shape} vs {b.shape}")
    if a.size == 0:
        raise StatsError("empty score arrays")
    if permutations < 1:
        raise StatsError(f"need >= 1 permutations, got {permutations}")
    observed = abs(float(np.mean(a)) - float(np.mean(b)))
    rng = stream(seed, "approx-randomization")
    count = 0
    for _ in range(permutations):
        flip = rng.random(a.size) < 0.5
        pa = np.where(flip, b, a)
        pb = np.where(flip, a, b)
        if abs(float(np.mean(pa)) - float(np.mean(pb))) >= observed:
            count += 1
    return (count + 1) / (permutations + 1)


_FLIPS_PER_CHUNK = 1 << 20  # bounds the memory of the drawn flips


def paired_bleu_randomization(stats_a, stats_b, permutations: int, seed: int) -> float:
    """Approximate randomization where the aggregate statistic is corpus BLEU.

    ``stats_a``/``stats_b`` are aligned per-sentence BleuStats; each
    permutation swaps whole sentences between the two systems. Each
    permutation's corpus sums are formed in integers from the summed
    statistics and the sentences it swaps.
    """
    from .evaluation import MAX_N, bleu_from_stats, bleu_from_sums

    if len(stats_a) != len(stats_b):
        raise StatsError("per-sentence statistics must be aligned")
    if not stats_a:
        raise StatsError("empty corpus")
    if permutations < 1:
        raise StatsError(f"need >= 1 permutations, got {permutations}")
    observed = abs(bleu_from_stats(stats_a) - bleu_from_stats(stats_b))
    def table(stats):
        # one row per sentence: matches, totals, hypothesis and reference length
        return np.array([s.matches[:MAX_N] + s.totals[:MAX_N] + (s.hyp_len, s.ref_len)
                         for s in stats], dtype=np.int64)

    def score(row):
        return bleu_from_sums(row[:MAX_N], row[MAX_N:2 * MAX_N], row[-2], row[-1])

    a, b = table(stats_a), table(stats_b)
    sum_a, sum_b, swap = a.sum(axis=0), b.sum(axis=0), b - a
    rng = stream(seed, "approx-randomization-bleu")
    n = len(stats_a)
    chunk = max(1, _FLIPS_PER_CHUNK // n)
    count = 0
    for lo in range(0, permutations, chunk):
        # row-major draws: the same stream values, in the same order, as one
        # rng.random(n) per permutation
        flip = rng.random((min(chunk, permutations - lo), n)) < 0.5
        moved = flip.astype(np.int64) @ swap
        for pa, pb in zip((sum_a + moved).tolist(), (sum_b - moved).tolist()):
            if abs(score(pa) - score(pb)) >= observed:
                count += 1
    return (count + 1) / (permutations + 1)
