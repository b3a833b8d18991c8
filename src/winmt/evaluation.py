"""Contrastive scoring, accuracy aggregation, BLEU and attention diagnostics."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import (EOS_ID, PAD, SEP_ID, ContrastiveExample, Document,
                     Vocab, Window, make_windows, rebuild_examples)
from .model import AttentionRecord, TransformerModel
from .parallel import map_ordered


MAX_N = 4  # BLEU's highest n-gram order
BATCH_CANDIDATES = 64  # candidate windows scored together by evaluate_contrastive
BATCH_WINDOWS = 32  # windows decoded together by decode_current_sentences


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# contrastive scoring


@dataclass(frozen=True)
class ContrastiveResult:
    example_id: str
    chosen: int
    correct: bool
    phenomenon: str
    distance: int
    scores: tuple[float, ...]


def _check_candidates(example: ContrastiveExample) -> None:
    for cand in example.candidates:
        for sent in cand:
            if PAD in sent:
                raise EvalError(f"example {example.example_id!r}: candidate contains {PAD}")


def _score_batch(model, examples, vocab, mode) -> list[ContrastiveResult]:
    windows: list[Window] = []
    spans: list[tuple[int, int]] = []
    for ex in examples:
        _check_candidates(ex)
        cands = ex.candidate_windows(vocab)
        windows.extend(cands)
        spans.append((len(windows) - len(cands), len(windows)))
    scores = model.score_windows(windows, mode=mode)
    results = []
    for ex, (lo, hi) in zip(examples, spans):
        ex_scores = scores[lo:hi]
        best = float(ex_scores.max())
        chosen = max(i for i, s in enumerate(ex_scores) if s == best)
        results.append(ContrastiveResult(
            example_id=ex.example_id, chosen=chosen, correct=chosen == 0,
            phenomenon=ex.phenomenon, distance=ex.distance,
            scores=tuple(float(s) for s in ex_scores)))
    return results


def evaluate_contrastive(model: TransformerModel, examples: Sequence[ContrastiveExample],
                         vocab: Vocab, mode: str = "full") -> list[ContrastiveResult]:
    """Score each example; ties go to the highest-index tied candidate.

    Candidates are ranked by teacher-forced log-probability of the full
    target window ("full") or of the current span only ("current"). The
    pessimistic tie-break means a model that cannot separate reference
    from distractor scores 0, not 50%. Examples are scored together in
    chunks of about ``BATCH_CANDIDATES`` candidate windows, spread over the
    CPUs by ``parallel.map_ordered``.
    """
    chunks: list[list[ContrastiveExample]] = []
    pending = 0
    for ex in examples:
        if not chunks or pending >= BATCH_CANDIDATES:
            chunks.append([])
            pending = 0
        chunks[-1].append(ex)
        pending += len(ex.candidates)
    scored = map_ordered(lambda chunk: _score_batch(model, chunk, vocab, mode), chunks)
    return [r for results in scored for r in results]


def overall_accuracy(results: Sequence[ContrastiveResult]) -> float:
    """Percentage of examples whose reference candidate scored best."""
    return 100.0 * sum(r.correct for r in results) / len(results)


# ---------------------------------------------------------------------------
# accuracy aggregation


@dataclass
class AccuracyReport:
    """Per-category accuracies in percent, plus weighted and unweighted means.

    ``disc`` weights context-requiring categories by sample size;
    ``disc_avg`` is their unweighted mean; ``disc_all_d`` additionally
    includes the d=0 category when aggregating by distance.
    """

    per_category: dict[str, tuple[float, int]]
    disc: float
    disc_avg: float
    disc_all_d: float | None
    excluded: list[str] = field(default_factory=list)


def weighted_accuracy(accuracies: Sequence[float], sizes: Sequence[int]) -> float:
    if len(accuracies) != len(sizes) or not accuracies:
        raise EvalError("need one sample size per category accuracy")
    total = sum(sizes)
    if total == 0:
        raise EvalError("zero total sample size")
    return sum(a * n for a, n in zip(accuracies, sizes)) / total


def aggregate_from_stats(categories: dict[str, tuple[float, int]],
                         context_requiring: Sequence[str] | None = None) -> AccuracyReport:
    """Aggregate pre-computed per-category (accuracy, size) pairs."""
    excluded = [label for label, (_, n) in categories.items() if n == 0]
    kept = {label: v for label, v in categories.items() if v[1] > 0}
    if not kept:
        raise EvalError("all categories have zero samples")
    if context_requiring is None:
        context_requiring = [label for label in kept if label != "0"]
    ctx = [label for label in context_requiring if label in kept]
    if not ctx:
        raise EvalError("no context-requiring category has samples")
    accs = [kept[label][0] for label in ctx]
    sizes = [kept[label][1] for label in ctx]
    disc = weighted_accuracy(accs, sizes)
    disc_avg = sum(accs) / len(accs)
    disc_all_d = None
    if set(ctx) != set(kept):
        disc_all_d = weighted_accuracy([kept[l][0] for l in kept],
                                       [kept[l][1] for l in kept])
    return AccuracyReport(per_category=dict(kept), disc=disc, disc_avg=disc_avg,
                          disc_all_d=disc_all_d, excluded=excluded)


def aggregate(results: Sequence[ContrastiveResult], by: str = "distance") -> AccuracyReport:
    """Aggregate per-example results into per-category accuracies.

    by="distance" groups on antecedent distance (category "0" is
    intra-sentential and excluded from disc); by="phenomenon" groups on
    the phenomenon label and every category counts towards disc.
    """
    if not results:
        raise EvalError("no results to aggregate")
    if by not in ("distance", "phenomenon"):
        raise EvalError(f"unknown aggregation key {by!r}")
    buckets: dict[str, list[bool]] = defaultdict(list)
    for r in results:
        label = str(r.distance) if by == "distance" else r.phenomenon
        buckets[label].append(r.correct)
    cats = {label: (100.0 * sum(v) / len(v), len(v)) for label, v in sorted(buckets.items())}
    ctx = None
    if by == "distance":
        ctx = [label for label in cats if label != "0"]
    return aggregate_from_stats(cats, context_requiring=ctx)


# ---------------------------------------------------------------------------
# BLEU


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


@dataclass(frozen=True)
class BleuStats:
    """Sufficient statistics of one sentence pair for corpus BLEU."""

    matches: tuple[int, ...]
    totals: tuple[int, ...]
    hyp_len: int
    ref_len: int


def _as_tokens(x) -> list[str]:
    return x.split() if isinstance(x, str) else list(x)


def bleu_stats(hypothesis, reference) -> BleuStats:
    hyp, ref = _as_tokens(hypothesis), _as_tokens(reference)
    if not ref:
        raise EvalError("empty reference sentence")
    matches, totals = [], []
    for n in range(1, MAX_N + 1):
        hyp_counts = _ngrams(hyp, n)
        ref_counts = _ngrams(ref, n)
        matches.append(sum(min(c, ref_counts[g]) for g, c in hyp_counts.items()))
        totals.append(max(0, len(hyp) - n + 1))
    return BleuStats(tuple(matches), tuple(totals), len(hyp), len(ref))


def bleu_from_stats(stats: Sequence[BleuStats]) -> float:
    if not stats:
        raise EvalError("empty corpus")
    return bleu_from_sums([sum(s.matches[n] for s in stats) for n in range(MAX_N)],
                          [sum(s.totals[n] for s in stats) for n in range(MAX_N)],
                          sum(s.hyp_len for s in stats), sum(s.ref_len for s in stats))


def bleu_from_sums(matches: Sequence[int], totals: Sequence[int], hyp_len: int,
                   ref_len: int) -> float:
    """Corpus BLEU from corpus-summed n-gram matches and totals and lengths."""
    if hyp_len == 0:
        return 0.0
    # orders with no n-gram slots at all carry no evidence and are skipped,
    # so identical corpora score 100 even when every sentence is short;
    # a zero precision over nonzero slots still annihilates the mean
    logs = []
    for m, t in zip(matches, totals):
        if t == 0:
            continue
        if m == 0:
            return 0.0
        logs.append(math.log(m / t))
    if not logs:
        return 0.0
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(sum(logs) / len(logs))


def bleu(hypotheses: Sequence, references: Sequence) -> float:
    """Corpus BLEU: geometric mean of modified n-gram precisions times the
    brevity penalty. No smoothing; case-sensitive."""
    if len(hypotheses) != len(references):
        raise EvalError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise EvalError("empty corpus")
    return bleu_from_stats([bleu_stats(h, r) for h, r in zip(hypotheses, references)])


# ---------------------------------------------------------------------------
# attention diagnostics


def _validate_rows(weights: np.ndarray) -> None:
    sums = weights.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-4):
        raise EvalError(f"attention row sums deviate from 1 by {np.abs(sums - 1).max():.2e}")
    if weights.min() < 0:
        raise EvalError("negative attention weight")


def attention_entropy_rows(records: Iterable[AttentionRecord]) -> np.ndarray:
    """Per-query entropies over all records, in deterministic record order.

    Records with the same number of keys are stacked and reduced together;
    each row is still summed over exactly its own keys.
    """
    weights = [rec.weights for rec in records]
    if not weights:
        raise EvalError("no attention records")
    # the key count of every row, in record order
    row_keys = np.repeat([w.shape[-1] for w in weights], [w.shape[0] for w in weights])
    groups = []
    for keys in np.unique(row_keys):
        w = np.concatenate([x for x in weights if x.shape[-1] == keys])
        _validate_rows(w)
        groups.append(-np.sum(np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0),
                              axis=-1))
    # the groups hold the rows in order of key count, then of record
    grouped = np.concatenate(groups)
    rows = np.empty_like(grouped)
    rows[np.argsort(row_keys, kind="stable")] = grouped
    return rows


def attention_entropy(records: Iterable[AttentionRecord]) -> float:
    """Mean entropy of attention rows over all queries, heads, layers and kinds."""
    return float(attention_entropy_rows(records).mean())


def current_attention_mass(records: Iterable[AttentionRecord]) -> float:
    """Mean fraction of self-attention from current-sentence queries that
    lands on current-sentence keys (encoder-self and decoder-self)."""
    masses = []
    for rec in records:
        if rec.kind not in ("enc-self", "dec-self"):
            continue
        query_rows = rec.query_seg == rec.current_seg
        if not query_rows.any():
            continue
        key_cols = rec.key_seg == rec.current_seg
        masses.append(rec.weights[query_rows][:, key_cols].sum(axis=-1))
    if not masses:
        raise EvalError("no current-sentence queries in the given records")
    return float(np.concatenate(masses).mean())


# ---------------------------------------------------------------------------
# decoding evaluation


def extract_current(ids: Sequence[int], expected_seps: int) -> tuple[list[int], bool]:
    """Tokens after the last <S> and before <E> of a decoded window.

    Returns (tokens, well_formed); with fewer or more separators than
    expected the final segment is still used but flagged malformed.
    """
    toks = list(ids)
    if toks and toks[-1] == EOS_ID:
        toks = toks[:-1]
    seps = sum(1 for t in toks if t == SEP_ID)
    last = -1
    for i, t in enumerate(toks):
        if t == SEP_ID:
            last = i
    return toks[last + 1:], seps == expected_seps


ROBUSTNESS_COLUMNS = ("size", "bleu", "accuracy", "malformed", "n_windows")


@dataclass
class RobustnessRow:
    size: int
    bleu: float
    accuracy: float | None
    malformed: int
    n_windows: int
    # the decoded current sentences the BLEU was computed from, one per sentence
    hyps: list[list[str]] = field(repr=False)
    refs: list[list[str]] = field(repr=False)


def decode_current_sentences(model: TransformerModel, docs: Sequence[Document],
                             vocab: Vocab, k: int, beam: int = 4,
                             alpha: float = 0.6) -> tuple[list[list[str]], list[list[str]], int]:
    """Decode documents at window size k and keep only current sentences.

    Windows are decoded in chunks of ``BATCH_WINDOWS``, spread over the
    CPUs by ``parallel.map_ordered``.

    Returns (hypothesis sentences, reference sentences, malformed count).
    """
    windows = [w for d in docs for w in make_windows(d, k, vocab)]
    refs = []
    for d in docs:
        refs.extend([list(t) for _, t in d.sentences])
    decoded = map_ordered(lambda chunk: model.decode(chunk, beam=beam, alpha=alpha),
                          [windows[lo:lo + BATCH_WINDOWS]
                           for lo in range(0, len(windows), BATCH_WINDOWS)])
    hyps: list[list[str]] = []
    malformed = 0
    for w, ids in zip(windows, (ids for chunk in decoded for ids in chunk)):
        current, ok = extract_current(ids, expected_seps=w.size - 1)
        if not ok:
            malformed += 1
        hyps.append(vocab.decode(current))
    return hyps, refs, malformed


def robustness_eval(model: TransformerModel, docs: Sequence[Document], vocab: Vocab,
                    sizes: Sequence[int],
                    examples: Sequence[ContrastiveExample] | None = None,
                    beam: int = 4, alpha: float = 0.6) -> list[RobustnessRow]:
    """BLEU (and contrastive accuracy) re-evaluated at each window size.

    Windows are rebuilt at every size; only the current sentence of each
    decoded window is scored, the context translation is discarded. Each
    row keeps the hypotheses and references its BLEU was computed from.
    """
    if min(sizes) < 1:
        raise EvalError(f"window sizes must be >= 1, got {sizes}")
    longest = max(len(s) for d in docs for s, _ in d.sentences)
    if max(sizes) * (longest + 1) + 1 > model.config.max_len:
        raise EvalError(f"window size {max(sizes)} may exceed model max length "
                        f"{model.config.max_len}")
    docs_by_id = {d.doc_id: d for d in docs}
    rows = []
    for size in sizes:
        hyps, refs, malformed = decode_current_sentences(model, docs, vocab, size,
                                                         beam=beam, alpha=alpha)
        score = bleu(hyps, refs)
        accuracy = None
        if examples:
            rebuilt = rebuild_examples(examples, docs_by_id, size)
            accuracy = overall_accuracy(evaluate_contrastive(model, rebuilt, vocab))
        rows.append(RobustnessRow(size=size, bleu=score, accuracy=accuracy,
                                  malformed=malformed, n_windows=len(hyps),
                                  hyps=hyps, refs=refs))
    return rows
