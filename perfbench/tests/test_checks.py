"""Tests of the benchmark's own checkers.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from winmt import corpus, evaluation, synth  # noqa: E402
from winmt.cli import _load_run  # noqa: E402
from winmt.rng import stream  # noqa: E402
from winmt.trainer import pack_batches  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# BLEU


@pytest.mark.parametrize("hyp, ref, expected", [
    # every order matches
    ("a b c d e", "a b c d e", 100.0),
    # precisions 4/5, 3/4, 2/3, 1/2 -> (1/5) ** (1/4); equal lengths, no penalty
    ("a b c d e", "a b c d f", 100.0 * 0.2 ** 0.25),
    # all precisions 1; 4 hypothesis vs 6 reference tokens -> exp(1 - 6/4)
    ("a b c d", "a b c d e f", 100.0 * math.exp(-0.5)),
    # no 4-gram matches and no smoothing
    ("the cat sat on the mat", "the cat is on the mat", 0.0),
    # clipping: "the" counts once, and no bigram matches
    ("the the the the", "the cat", 0.0),
    # two-token sentences have no 3- or 4-gram slots; those orders are left out
    ("a b", "a b", 100.0),
    # one 3-gram slot without a match is enough for 0
    ("a b x", "a b c d", 0.0),
])
def test_bleu_hand_worked(hyp, ref, expected):
    assert checks.corpus_bleu([hyp.split()], [ref.split()]) == pytest.approx(expected, abs=1e-9)


def test_bleu_pools_counts_over_the_corpus():
    # 1-grams 6/7, 2-grams 3/3; no sentence has a 3-gram slot
    hyps = [["a", "b"], ["c", "d"], ["e", "f"], ["g"]]
    refs = [["a", "b"], ["c", "d"], ["e", "f"], ["h"]]
    # 7 vs 7 tokens, so no brevity penalty
    assert checks.corpus_bleu(hyps, refs) == pytest.approx(
        100.0 * math.sqrt(6 / 7 * 3 / 3), abs=1e-9)


def test_bleu_matches_the_program_on_random_corpora():
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(5)]
    for _ in range(200):
        n = int(rng.integers(1, 6))
        refs = [list(rng.choice(words, int(rng.integers(1, 9)))) for _ in range(n)]
        hyps = [list(rng.choice(words, int(rng.integers(0, 9)))) for _ in range(n)]
        assert checks.corpus_bleu(hyps, refs) == pytest.approx(
            evaluation.bleu(hyps, refs), abs=1e-9)


# ---------------------------------------------------------------------------
# greedy decoding is the argmax of teacher forcing on its own output


@pytest.fixture(scope="module")
def fixture_model():
    model, vocab, _ = _load_run(run.FIXTURE, None, None)
    docs, _ = synth.gen_synthetic(11, n_docs=4)
    windows = [w for d in docs for w in corpus.make_windows(d, 2, vocab)]
    return model, windows


def _greedy(model, windows, decoded):
    return checks.greedy_mismatches(model, windows, decoded, corpus.SEP_ID,
                                    corpus.EOS_ID, corpus.PAD_ID)


def _well_formed(windows, decoded):
    return [i for i, (w, ids) in enumerate(zip(windows, decoded))
            if ids[-1] == corpus.EOS_ID and ids.count(corpus.SEP_ID) == w.size - 1]


def test_greedy_check_accepts_greedy_output(fixture_model):
    model, windows = fixture_model
    decoded = model.decode(windows, beam=1)
    formed = _well_formed(windows, decoded)
    bad, checked = _greedy(model, windows, decoded)
    assert len(formed) >= 4
    assert bad == [] and checked == len(formed)


def test_greedy_check_rejects_a_perturbed_token(fixture_model):
    model, windows = fixture_model
    decoded = [list(ids) for ids in model.decode(windows, beam=1)]
    formed = _well_formed(windows, decoded)
    i = formed[1]
    pos = next(t for t, tok in enumerate(decoded[i]) if tok > corpus.EOS_ID)
    decoded[i][pos] = corpus.EOS_ID + 1 + (decoded[i][pos] - corpus.EOS_ID) % 10
    bad, checked = _greedy(model, windows, decoded)
    assert bad == [i] and checked == len(formed)


def test_greedy_check_skips_malformed_output(fixture_model):
    model, windows = fixture_model
    decoded = [list(ids) for ids in model.decode(windows, beam=1)]
    formed = _well_formed(windows, decoded)
    decoded[formed[0]] = decoded[formed[0]][:-1]  # no <E>
    bad, checked = _greedy(model, windows, decoded)
    assert bad == [] and checked == len(formed) - 1


# ---------------------------------------------------------------------------
# contrastive margins and recounts


def test_margin_check_accepts_equal_margins_and_rejects_a_perturbed_one():
    full = {"a": [-10.0, -12.5], "b": [-8.0, -7.0, -9.0]}
    current = {"a": [-2.0, -4.5], "b": [-1.0, 0.0, -2.0]}
    assert checks.margin_mismatches(full, current, 1e-6) == ([], 0.0)
    current["b"][2] += 1e-3
    bad, worst = checks.margin_mismatches(full, current, 1e-6)
    assert bad == ["b"] and worst == pytest.approx(1e-3)
    assert checks.margin_mismatches(full, {"a": current["a"]}, 1e-6)[0] == ["b"]
    current["b"][2] = float("nan")
    assert checks.margin_mismatches(full, current, 1e-6)[0] == ["b"]


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["example_id", "chosen", "correct", "phenomenon", "distance", "scores"])
        for ex_id, chosen, distance, scores in rows:
            w.writerow([ex_id, chosen, int(chosen == 0), "p", distance,
                        ";".join(repr(s) for s in scores)])


def test_recount_checks_chosen_and_categories(tmp_path):
    rows = [("a", 0, 1, [-1.0, -2.0]), ("b", 1, 1, [-2.0, -2.0]), ("c", 0, 0, [-1.0, -3.0])]
    _write_rows(tmp_path / "ex.csv", rows)
    (tmp_path / "cat.csv").write_text("category,accuracy,n\n0,100.0,1\n1,50.0,2\n")
    parsed = checks.read_example_rows(tmp_path / "ex.csv")
    assert checks.recount_problems(parsed, tmp_path / "cat.csv") == []
    (tmp_path / "cat.csv").write_text("category,accuracy,n\n0,100.0,1\n1,100.0,2\n")
    assert checks.recount_problems(parsed, tmp_path / "cat.csv")
    # a tie must go to the distractor
    rows[1] = ("b", 0, 1, [-2.0, -2.0])
    _write_rows(tmp_path / "ex.csv", rows)
    parsed = checks.read_example_rows(tmp_path / "ex.csv")
    assert checks.recount_problems(parsed, tmp_path / "cat.csv")


# ---------------------------------------------------------------------------
# training tokens


def test_trained_tokens_matches_the_trainer_batches(tmp_path):
    docs, _ = synth.gen_synthetic(4, n_docs=40)
    corpus.write_corpus(tmp_path / "train.txt", docs)
    docs = corpus.read_corpus(tmp_path / "train.txt")
    vocab = corpus.Vocab.from_documents(docs)
    windows = [w for d in docs for w in corpus.make_windows(d, 2, vocab)]
    seed, budget = 9, 200
    epochs = [pack_batches(windows, budget,
                           stream(seed, "shuffle", epoch).permutation(len(windows)))
              for epoch in range(3)]
    batches = [b for epoch in epochs for b in epoch]
    for steps in (1, 5, len(epochs[0]), len(epochs[0]) + 4):
        expected = sum(len(w.tgt_ids) for b in batches[:steps] for w in b)
        assert checks.trained_tokens(tmp_path / "train.txt", 2, seed, budget, steps) == expected


def test_train_log_check(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("epoch,step,current_loss,context_loss,ratio,cd\n"
                   "0,10,4.5,4.6,1.0,0.01\n0,20,4.0,4.6,1.0,0.01\n")
    assert checks.check_train_log(log, 64, [10, 20]) == []
    assert checks.check_train_log(log, 64, [10, 20, 30])
    assert checks.check_train_log(log, 50, [10, 20])  # log(50) < 4.0
    log.write_text(log.read_text().replace("4.0,", "nan,"))
    assert checks.check_train_log(log, 64, [10, 20])


# ---------------------------------------------------------------------------
# metric names


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
