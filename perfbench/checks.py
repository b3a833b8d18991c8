"""Correctness checks for the benchmark's workloads.

Each check recomputes a result without the program's own code for it, or
tests a property the method must have, and returns the problems or the
failing items it finds: empty means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# corpus files, read without the program's parser


def read_documents(path) -> list[list[tuple[list[str], list[str]]]]:
    """Documents of a `source ||| target` corpus file; blank lines separate them."""
    docs, cur = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            if cur:
                docs.append(cur)
                cur = []
            continue
        src, tgt = line.split(" ||| ", 1)
        cur.append((src.split(), tgt.split()))
    if cur:
        docs.append(cur)
    return docs


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# training: tokens trained on


def _shuffle_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """The trainer's epoch order: a Philox stream addressed by (seed, "shuffle", epoch)."""
    tag = int.from_bytes(hashlib.blake2b(b"shuffle", digest_size=8).digest(), "little")
    mask = (1 << 64) - 1
    seq = np.random.SeedSequence((seed & mask, tag, epoch & mask))
    return np.random.Generator(np.random.Philox(seq)).permutation(n)


def window_target_lengths(docs, k: int) -> list[int]:
    """Target length of every sliding window: sentences, one <S> between, one <E>."""
    lengths = []
    for doc in docs:
        for j in range(len(doc)):
            chunk = doc[max(0, j - k + 1):j + 1]
            lengths.append(sum(len(t) for _, t in chunk) + len(chunk))
    return lengths


def trained_tokens(train_path, k: int, seed: int, batch_tokens: int, steps: int) -> int:
    """Real target tokens in the first ``steps`` training batches.

    Windows are taken in each epoch's shuffled order and packed greedily
    until the next window would exceed ``batch_tokens`` target tokens.
    """
    lengths = window_target_lengths(read_documents(train_path), k)
    total, done, epoch = 0, 0, 0
    while done < steps:
        used = 0
        for i in _shuffle_order(seed, epoch, len(lengths)):
            n = lengths[int(i)]
            if used and used + n > batch_tokens:
                done += 1
                if done == steps:
                    return total
                used = 0
            used += n
            total += n
        done += 1  # the epoch's last, partly filled batch
        epoch += 1
    return total


def check_train_log(log_path, vocab_size: int, expected_steps: list[int]) -> list[str]:
    """Dev current-loss falls, ends finite and below a uniform predictor's loss."""
    with open(log_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    steps = [int(r["step"]) for r in rows]
    if steps != expected_steps:
        problems.append(f"validation steps {steps} != {expected_steps}")
    if len(rows) < 2:
        return problems + ["fewer than two validations in log.csv"]
    first, last = float(rows[0]["current_loss"]), float(rows[-1]["current_loss"])
    # label smoothing mixes -log p[target] with the vocab mean of -log p;
    # for a uniform predictor both terms are log V
    uniform = math.log(vocab_size)
    if not math.isfinite(last):
        problems.append(f"last dev current-loss {last} is not finite")
    elif not last < first:
        problems.append(f"last dev current-loss {last} is not below the first {first}")
    elif not last < uniform:
        problems.append(f"last dev current-loss {last} is not below uniform {uniform:.4f}")
    return problems


# ---------------------------------------------------------------------------
# BLEU, written apart from the program's implementation


def corpus_bleu(hyps: list[list[str]], refs: list[list[str]], max_n: int = 4) -> float:
    """Corpus BLEU in percent: clipped n-gram precisions, no smoothing, brevity penalty.

    An order with no n-gram slots in the whole corpus carries no evidence
    and is left out of the geometric mean; an order with slots but no
    match makes the score 0.
    """
    if len(hyps) != len(refs) or not hyps:
        raise ValueError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    hit = [0] * max_n
    slots = [0] * max_n
    for h, r in zip(hyps, refs):
        for n in range(1, max_n + 1):
            ref_grams = Counter(zip(*(r[i:] for i in range(n))))
            hyp_grams = Counter(zip(*(h[i:] for i in range(n))))
            hit[n - 1] += sum(min(c, ref_grams.get(g, 0)) for g, c in hyp_grams.items())
            slots[n - 1] += max(0, len(h) - n + 1)
    c = sum(len(h) for h in hyps)
    r = sum(len(x) for x in refs)
    used = [(m, t) for m, t in zip(hit, slots) if t > 0]
    if c == 0 or not used or any(m == 0 for m, _ in used):
        return 0.0
    log_mean = sum(math.log(m) - math.log(t) for m, t in used) / len(used)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_mean)


def read_token_lines(path) -> list[list[str]]:
    return [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()]


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# decoding: greedy output is the argmax of teacher forcing on itself


def greedy_mismatches(model, windows, decoded, sep_id: int, eos_id: int,
                      pad_id: int) -> tuple[list[int], int]:
    """Windows whose greedy output is not the per-position argmax of a
    teacher-forced forward pass over that same output.

    Only well-formed outputs (ending in <E>, one <S> per context sentence)
    are checked. Returns (indices that fail, number checked).
    """
    from winmt.corpus import Window
    from winmt.model import build_batch

    targets, checked = [], []
    for i, (w, ids) in enumerate(zip(windows, decoded)):
        ids = list(ids)
        if not ids or ids[-1] != eos_id or ids.count(sep_id) != w.size - 1:
            continue
        seg, s = [], 0
        for tok in ids:
            seg.append(s)
            if tok == sep_id:
                s += 1
        start = seg.index(w.size - 1)
        targets.append(Window(doc_id=w.doc_id, j=w.j, size=w.size, src_ids=w.src_ids,
                              tgt_ids=tuple(ids), src_seg=w.src_seg, tgt_seg=tuple(seg),
                              current_span=(start, len(ids))))
        checked.append(i)
    if not targets:
        return [], 0
    batch = build_batch(targets, model.config)
    log_probs = model.forward(batch)[0].data.copy()
    log_probs[..., pad_id] = -np.inf  # the decoder never emits padding
    best = log_probs.argmax(axis=-1)
    bad = [i for row, (i, t) in enumerate(zip(checked, targets))
           if not np.array_equal(best[row, :len(t.tgt_ids)], t.tgt_ids)]
    return bad, len(targets)


# ---------------------------------------------------------------------------
# contrastive scoring


def read_example_rows(path) -> dict[str, dict]:
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["example_id"]] = {
                "chosen": int(row["chosen"]), "correct": int(row["correct"]),
                "distance": row["distance"],
                "scores": [float(s) for s in row["scores"].split(";")]}
    return rows


def margin_mismatches(full: dict[str, list[float]], current: dict[str, list[float]],
                      tol: float) -> tuple[list[str], float]:
    """Examples whose reference-minus-distractor margins differ between modes.

    Candidates share every context token and a causal decoder reads
    context first, so context log-probs cancel in the full-mode margin.
    Returns (ids that differ by more than ``tol``, largest difference).
    """
    if set(full) != set(current):
        return sorted(set(full) ^ set(current)), float("inf")
    bad, worst = [], 0.0
    for ex_id, f in full.items():
        c = current[ex_id]
        if len(f) != len(c):
            bad.append(ex_id)
            continue
        gaps = [abs((f[0] - a) - (c[0] - b)) for a, b in zip(f[1:], c[1:])]
        if not all(g <= tol for g in gaps):  # NaN fails too
            bad.append(ex_id)
        for g in gaps:
            if not g <= worst:
                worst = g
    return bad, worst


def recount_problems(rows: dict[str, dict], categories_path) -> list[str]:
    """Recount chosen/correct per example and accuracy per distance category."""
    problems = []
    per_cat: dict[str, list[int]] = {}
    for ex_id, row in rows.items():
        scores = row["scores"]
        best = max(scores)
        chosen = max(i for i, s in enumerate(scores) if s == best)  # ties go high
        if chosen != row["chosen"] or int(chosen == 0) != row["correct"]:
            problems.append(f"{ex_id}: chosen/correct {row['chosen']}/{row['correct']} "
                            f"but scores give {chosen}")
        per_cat.setdefault(row["distance"], []).append(int(chosen == 0))
    reported = {}
    with open(categories_path, newline="") as fh:
        for row in csv.DictReader(fh):
            reported[row["category"]] = (float(row["accuracy"]), int(row["n"]))
    for cat, hits in per_cat.items():
        acc, n = reported.get(cat, (None, None))
        if n != len(hits) or acc is None or not close(acc, 100.0 * sum(hits) / len(hits)):
            problems.append(f"category {cat}: reported ({acc}, {n}) vs recount "
                            f"({100.0 * sum(hits) / len(hits)}, {len(hits)})")
    if set(reported) - set(per_cat):
        problems.append(f"categories {sorted(set(reported) - set(per_cat))} have no examples")
    return problems


def batched_vs_single(model, examples, vocab, rows: dict[str, dict], mode: str) -> float:
    """Largest gap between a batched score and the same window scored alone (NaN wins)."""
    worst = 0.0
    for ex in examples:
        for cand, batched in zip(ex.candidate_windows(vocab), rows[ex.example_id]["scores"]):
            gap = abs(float(model.score_windows([cand], mode=mode)[0]) - batched)
            if not gap <= worst:
                worst = gap
    return worst


def attention_problems(entropies_path, summary_path, n_windows: int) -> list[str]:
    problems = []
    ent = np.array([float(x) for x in Path(entropies_path).read_text().split()])
    if ent.size == 0 or not np.all(ent >= 0.0):
        problems.append(f"attention entropies: {int((ent < 0).sum())} negative of {ent.size}")
    summary = json.loads(Path(summary_path).read_text())
    mass = summary["attention_mass"]
    if not 0.0 <= mass <= 1.0:
        problems.append(f"attention mass {mass} outside [0, 1]")
    if summary["n_windows"] != n_windows:
        problems.append(f"diagnose saw {summary['n_windows']} windows, asked {n_windows}")
    return problems
