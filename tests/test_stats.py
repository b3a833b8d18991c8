import numpy as np
import pytest
import scipy.stats

from winmt import stats as S
from winmt.evaluation import BleuStats, bleu_from_stats, bleu_stats
from winmt.rng import stream


class TestMcNemar:
    def test_identical_systems_p_one(self):
        a = [True, False, True, True]
        res = S.mcnemar(a, a)
        assert res.p_value == 1.0
        assert res.b == res.c == 0

    def test_b15_c5_matches_chi2_oracle(self):
        # 15 pairs where only A is right, 5 where only B is right
        a = [True] * 15 + [False] * 5 + [True] * 30
        b = [False] * 15 + [True] * 5 + [True] * 30
        res = S.mcnemar(a, b)
        assert res.statistic == pytest.approx(81 / 20)
        oracle = scipy.stats.chi2.sf(res.statistic, df=1)
        assert res.p_value == pytest.approx(oracle, abs=1e-12)
        assert res.p_value == pytest.approx(0.044, abs=0.005)

    def test_symmetric_b10_c10(self):
        a = [True] * 10 + [False] * 10
        b = [False] * 10 + [True] * 10
        res = S.mcnemar(a, b)
        assert res.statistic == pytest.approx(1 / 20)
        assert res.p_value == pytest.approx(scipy.stats.chi2.sf(1 / 20, df=1), abs=1e-12)
        assert res.p_value == pytest.approx(0.82, abs=0.005)

    def test_length_mismatch_rejected(self):
        with pytest.raises(S.StatsError, match="length"):
            S.mcnemar([True], [True, False])

    def test_p_in_unit_interval(self):
        rng = stream(0, "mcn")
        for _ in range(20):
            a = rng.random(50) < 0.6
            b = rng.random(50) < 0.5
            p = S.mcnemar(a, b).p_value
            assert 0.0 < p <= 1.0


class TestApproxRandomization:
    def test_identical_inputs_exactly_one(self):
        a = [1.0, 2.0, 3.0]
        assert S.approx_randomization(a, a, permutations=200, seed=0) == 1.0

    def test_large_shift_is_significant(self):
        rng = stream(1, "ar")
        a = rng.normal(0, 1, 100)
        b = a + 10.0
        p = S.approx_randomization(a, b, permutations=1000, seed=3)
        assert p <= 0.01

    def test_null_p_is_roughly_uniform(self):
        rng = stream(2, "ar-null")
        a = rng.normal(0, 1, 40)
        b = rng.normal(0, 1, 40)
        p = S.approx_randomization(a, b, permutations=500, seed=4)
        assert 0.0 < p <= 1.0

    def test_deterministic_given_seed(self):
        rng = stream(3, "ar-det")
        a = rng.normal(0, 1, 30)
        b = rng.normal(0.3, 1, 30)
        p1 = S.approx_randomization(a, b, permutations=300, seed=9)
        p2 = S.approx_randomization(a, b, permutations=300, seed=9)
        assert p1 == p2

    def test_empty_rejected(self):
        with pytest.raises(S.StatsError):
            S.approx_randomization([], [], permutations=10, seed=0)

    def test_non_finite_scores_rejected_with_their_count(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(S.StatsError, match="3 non-finite"):
            S.approx_randomization([1.0, nan, 2.0], [inf, 0.5, -inf], 1000, 1)


def reference_approx_randomization(scores_a, scores_b, permutations, seed):
    """One swap mask and one pair of means per permutation."""
    a, b = np.asarray(scores_a, dtype=np.float64), np.asarray(scores_b, dtype=np.float64)
    observed = abs(float(np.mean(a)) - float(np.mean(b)))
    rng = stream(seed, "approx-randomization")
    count = 0
    for _ in range(permutations):
        flip = rng.random(a.size) < 0.5
        pa, pb = np.where(flip, b, a), np.where(flip, a, b)
        if abs(float(np.mean(pa)) - float(np.mean(pb))) >= observed:
            count += 1
    return (count + 1) / (permutations + 1)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ties", ["none", "identical", "rounded"])
@pytest.mark.parametrize("chunked", [False, True])
def test_approx_randomization_equals_reference_loop(seed, ties, chunked, monkeypatch):
    if chunked:  # permutations drawn over several chunks, 7 per chunk
        monkeypatch.setattr(S, "_FLIPS_PER_CHUNK", 7 * 40)
    rng = stream(seed, "ar-scores")
    a = rng.normal(0, 1, 40)
    if ties == "rounded":  # many swaps whose means tie with the observed ones but for rounding
        a = np.round(a, 1)
        b = np.round(a + rng.choice([-0.1, 0.0, 0.1], 40), 1)
    else:
        b = a if ties == "identical" else a + rng.normal(0.1 * seed, 1, 40)
    got = S.approx_randomization(a, b, 200, seed)
    assert got == reference_approx_randomization(a, b, 200, seed)


class TestPairedBleuRandomization:
    def test_identical_systems_p_one(self):
        refs = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
        stats = [bleu_stats(r, r) for r in refs]
        assert S.paired_bleu_randomization(stats, stats, 100, 0) == 1.0

    def test_clearly_better_system_significant(self):
        rng = stream(5, "bleu-ar")
        refs, ha, hb = [], [], []
        for i in range(60):
            sent = [f"w{rng.integers(0, 20)}" for _ in range(8)]
            refs.append(sent)
            ha.append(list(sent))  # perfect
            hb.append([f"x{j}" for j in range(8)])  # disjoint
        sa = [bleu_stats(h, r) for h, r in zip(ha, refs)]
        sb = [bleu_stats(h, r) for h, r in zip(hb, refs)]
        assert bleu_from_stats(sa) > bleu_from_stats(sb)
        p = S.paired_bleu_randomization(sa, sb, 500, seed=1)
        assert p <= 0.01


def reference_paired_bleu_randomization(stats_a, stats_b, permutations, seed):
    """One BleuStats list per system and permutation, scored by bleu_from_stats."""
    observed = abs(bleu_from_stats(stats_a) - bleu_from_stats(stats_b))
    rng = stream(seed, "approx-randomization-bleu")
    count = 0
    for _ in range(permutations):
        flip = rng.random(len(stats_a)) < 0.5
        pa = [b if f else a for a, b, f in zip(stats_a, stats_b, flip)]
        pb = [a if f else b for a, b, f in zip(stats_a, stats_b, flip)]
        if abs(bleu_from_stats(pa) - bleu_from_stats(pb)) >= observed:
            count += 1
    return (count + 1) / (permutations + 1)


def random_bleu_stats(rng, n, skill):
    out = []
    for _ in range(n):
        hyp_len, ref_len = int(rng.integers(0, 12)), int(rng.integers(1, 12))
        totals = tuple(max(0, hyp_len - k) for k in range(4))
        matches = tuple(int(rng.binomial(t, skill)) for t in totals)
        out.append(BleuStats(matches, totals, hyp_len, ref_len))
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("chunked", [False, True])
def test_paired_bleu_randomization_equals_reference_loop(seed, chunked, monkeypatch):
    if chunked:  # permutations drawn over several chunks, 7 per chunk
        monkeypatch.setattr(S, "_FLIPS_PER_CHUNK", 7 * 50)
    rng = stream(seed, "bleu-stats")
    stats_a = random_bleu_stats(rng, 50, 0.5)
    stats_b = random_bleu_stats(rng, 50, 0.5 + 0.05 * seed)
    got = S.paired_bleu_randomization(stats_a, stats_b, 200, seed)
    assert got == reference_paired_bleu_randomization(stats_a, stats_b, 200, seed)


def test_chi2_tail_matches_scipy():
    for stat in [0.0, 0.05, 1.0, 3.84, 4.05, 10.0]:
        assert S.chi2_tail_1dof(stat) == pytest.approx(
            scipy.stats.chi2.sf(stat, df=1), abs=1e-12)
