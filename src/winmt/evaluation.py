"""The teacher-forced pass, contrastive scoring, accuracy, BLEU and attention diagnostics."""

from __future__ import annotations

import math
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import (EOS_ID, SEP_ID, ContrastiveExample, Document, Vocab, Window,
                     make_windows, rebuild_examples, window_pairs)
from .model import AttentionRecord, TransformerModel, build_batch
from .objective import smoothed_nll
from .parallel import map_ordered


MAX_N = 4  # BLEU's highest n-gram order
BATCH_CANDIDATES = 64  # candidate windows scored together by evaluate_contrastive
BATCH_WINDOWS = 32  # windows of one size decoded together by decode_current_sentences


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the teacher-forced pass and contrastive scoring


PassRows = namedtuple("PassRows", ["full", "current", "context", "contexts", "current_tokens",
                                   "context_tokens", "entropies", "masses"])


def teacher_forced(model: TransformerModel, batches: Sequence, windows_of: Callable,
                   eps: float, capture: bool = False) -> PassRows:
    """The rows of every batch's windows, joined in batch order: per window,
    the ``objective.smoothed_nll`` sums at ``eps`` over the whole target, the
    current span and the context, and the context sentence count; the
    current and context token counts; and with ``capture`` (else None) the
    per-query attention entropies and current masses. The process of
    ``parallel.map_ordered`` that computes a batch makes its windows with
    ``windows_of(batch)``, builds and forwards them once; only rows leave it."""
    def rows(item) -> tuple:
        windows = windows_of(item)
        batch = build_batch(windows, model.config)
        log_probs, records = model.forward(batch, capture=capture)
        per_tok = smoothed_nll(log_probs, batch.tgt_out, eps, batch.tgt_valid).data
        cur, ctx = batch.current_mask, batch.context_mask
        out = tuple((per_tok * m).sum(axis=1).tolist() for m in (batch.tgt_valid, cur, ctx))
        out += ([w.size - 1 for w in windows], int(cur.sum()), int(ctx.sum()))
        if capture:
            out += (attention_entropy_rows(records), current_attention_mass_rows(records))
        return out

    per_batch = map_ordered(rows, batches)
    return PassRows(*([v for r in per_batch for v in r[i]] for i in range(4)),
                    *(sum(r[i] for r in per_batch) for i in (4, 5)),
                    *(np.concatenate([r[i] for r in per_batch]) if capture else None
                      for i in (6, 7)))


@dataclass(frozen=True)
class ContrastiveResult:
    example_id: str
    chosen: int
    correct: bool
    phenomenon: str
    distance: int
    scores: tuple[float, ...]


def evaluate_contrastive(model: TransformerModel, examples: Sequence[ContrastiveExample],
                         vocab: Vocab, mode: str = "full") -> list[ContrastiveResult]:
    """Score each example; ties go to the highest-index tied candidate.

    Candidates are ranked by teacher-forced log-probability of the full
    target window ("full") or of the current span only ("current"): the
    negated loss sum of ``teacher_forced`` at epsilon 0. The pessimistic
    tie-break means a model that cannot separate reference from
    distractor scores 0, not 50%. Examples are scored together in chunks
    of about ``BATCH_CANDIDATES`` candidate windows, one batch each.
    """
    if mode not in ("full", "current"):
        raise EvalError(f"unknown scoring mode {mode!r}")
    chunks: list[list[ContrastiveExample]] = []
    pending = 0
    for ex in examples:
        if not chunks or pending >= BATCH_CANDIDATES:
            chunks.append([])
            pending = 0
        chunks[-1].append(ex)
        pending += len(ex.candidates)
    scores = -np.array(getattr(teacher_forced(
        model, chunks, lambda chunk: [w for ex in chunk for w in ex.candidate_windows(vocab)],
        0.0), mode))
    ends = np.cumsum([len(ex.candidates) for ex in examples], dtype=np.int64)
    results = []
    for ex, ex_scores in zip(examples, np.split(scores, ends[:-1])):
        best = float(ex_scores.max())
        chosen = max(i for i, s in enumerate(ex_scores) if s == best)
        results.append(ContrastiveResult(
            example_id=ex.example_id, chosen=chosen, correct=chosen == 0,
            phenomenon=ex.phenomenon, distance=ex.distance,
            scores=tuple(float(s) for s in ex_scores)))
    return results


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
    return aggregate_from_stats(cats)


# ---------------------------------------------------------------------------
# BLEU


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _as_tokens(x) -> list[str]:
    return x.split() if isinstance(x, str) else list(x)


def bleu_stats(hypothesis, reference) -> tuple[int, ...]:
    """Sufficient statistics of one sentence pair for corpus BLEU: MAX_N n-gram
    matches, MAX_N n-gram totals, hypothesis and reference length."""
    hyp, ref = _as_tokens(hypothesis), _as_tokens(reference)
    if not ref:
        raise EvalError("empty reference sentence")
    matches, totals = [], []
    for n in range(1, MAX_N + 1):
        hyp_counts = _ngrams(hyp, n)
        ref_counts = _ngrams(ref, n)
        matches.append(sum(min(c, ref_counts[g]) for g, c in hyp_counts.items()))
        totals.append(max(0, len(hyp) - n + 1))
    return (*matches, *totals, len(hyp), len(ref))


def bleu_from_stats(stats: Sequence[tuple[int, ...]]) -> float:
    if not stats:
        raise EvalError("empty corpus")
    return bleu_from_row(np.array(stats, dtype=np.int64).sum(axis=0).tolist())


def bleu_from_row(row: Sequence[int]) -> float:
    """Corpus BLEU from corpus sums in the layout of ``bleu_stats``."""
    matches, totals, hyp_len, ref_len = row[:MAX_N], row[MAX_N:2 * MAX_N], row[-2], row[-1]
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
    """Per-query entropies over all records, in record order, then by head
    and query; each row is summed over exactly its own keys."""
    rows = []
    for rec in records:
        w = rec.weights
        _validate_rows(w)
        rows.append(-np.sum(np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0),
                            axis=-1).ravel())
    if not rows:
        raise EvalError("no attention records")
    return np.concatenate(rows)


def attention_entropy(records: Iterable[AttentionRecord]) -> float:
    """Mean entropy of attention rows over all queries, heads, layers and kinds."""
    return float(attention_entropy_rows(records).mean())


def current_attention_mass_rows(records: Iterable[AttentionRecord]) -> np.ndarray:
    """Per current-sentence query of self-attention (encoder-self and
    decoder-self), the fraction of its attention on current-sentence keys;
    in record order, then by head and query. Empty when there is none."""
    masses = []
    for rec in records:
        if rec.kind not in ("enc-self", "dec-self"):
            continue
        key_cols = rec.key_seg == rec.current_seg
        queries = rec.weights[:, rec.query_seg == rec.current_seg]
        masses.append(queries[:, :, key_cols].sum(axis=-1).ravel())
    return np.concatenate(masses) if masses else np.empty(0)


def current_attention_mass(records: Iterable[AttentionRecord]) -> float:
    """Mean of ``current_attention_mass_rows``."""
    masses = current_attention_mass_rows(records)
    if not masses.size:
        raise EvalError("no current-sentence queries in the given records")
    return float(masses.mean())


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


TARGET_CONTEXTS = ("own", "free")


def decode_current_sentences(model: TransformerModel, docs: Sequence[Document],
                             vocab: Vocab, sizes: Sequence[int], beam: int = 4,
                             alpha: float = 0.6, target_context: str = "own",
                             ) -> list[tuple[list[list[str]], list[list[str]], int]]:
    """Decode documents at each window size in ``sizes`` and keep only
    current sentences.

    With ``target_context`` "free", each window is decoded whole and its
    last segment kept; a window with the wrong number of <S> is malformed.
    With "own" (chained decoding), each window generates its current
    sentence only, after a forced target prefix: the model's own
    current-sentence outputs for its context sentences at the same size,
    each followed by <S> (``TransformerModel.decode`` with ``prefixes``).
    Sentence positions are decoded in order, each position batched across
    documents and sizes; no window is malformed.

    Each distinct window is decoded once over all sizes: window j holds
    ``min(k-1, j)`` context sentences, so a window truncated at the
    document start is the same window at every larger size, with the same
    own prefix. With n sentences per document and sizes 2, 3, 4 that saves
    5 of 3n decodes per document (42 % at n = 4, 1.7 % at n = 100). The
    windows of one size that no earlier size holds are cut into chunks of
    ``BATCH_WINDOWS``, and the chunks of one pass are spread over the CPUs
    by one ``parallel.map_ordered``: one pass over every window in "free",
    one pass per sentence position in "own".

    Returns one (hypothesis sentences, reference sentences, malformed
    count) per size, in ``sizes`` order.
    """
    if target_context not in TARGET_CONTEXTS:
        raise EvalError(f"unknown target context {target_context!r}")
    refs = [list(t) for d in docs for _, t in d.sentences]
    per_size = [[make_windows(d, k, vocab) for d in docs] for k in sizes]  # by document
    flat = [[w for wins in per_doc for w in wins] for per_doc in per_size]
    if target_context == "free":
        found = _decode_pass(model, flat, beam, alpha)
        decoded = {w: extract_current(ids, expected_seps=w.size - 1) for w, ids in found.items()}
    else:
        decoded = {}
        for j in range(max((len(d.sentences) for d in docs), default=0)):
            position = [[wins[j] for wins in per_doc if j < len(wins)] for per_doc in per_size]
            prefix = {wins[j]: tuple(tok for ctx in wins[j + 1 - wins[j].size:j]
                                     for tok in (*decoded[ctx][0], SEP_ID))
                      for per_doc in per_size for wins in per_doc if j < len(wins)}
            found = _decode_pass(model, position, beam, alpha, prefix.get)
            decoded.update((w, extract_current(ids, expected_seps=0)) for w, ids in found.items())
    return [([vocab.decode(decoded[w][0]) for w in windows], refs,
             sum(not decoded[w][1] for w in windows)) for windows in flat]


def _decode_pass(model, per_size, beam, alpha, prefix_of=None) -> dict[Window, list[int]]:
    """The decoded ids of each distinct window of ``per_size``, in one
    ``map_ordered`` over chunks of ``BATCH_WINDOWS`` windows of one size;
    ``prefix_of(window)`` is the window's forced prefix, and without it
    each window is decoded whole."""
    seen: set[Window] = set()
    chunks: list[list[Window]] = []
    for windows in per_size:
        new = [w for w in windows if w not in seen]
        seen.update(windows)
        chunks.extend(new[lo:lo + BATCH_WINDOWS] for lo in range(0, len(new), BATCH_WINDOWS))

    def run(chunk):
        prefixes = None if prefix_of is None else [prefix_of(w) for w in chunk]
        return model.decode(chunk, beam=beam, alpha=alpha, prefixes=prefixes)

    return {w: ids for chunk, out in zip(chunks, map_ordered(run, chunks))
            for w, ids in zip(chunk, out)}


def check_example_windows(examples: Iterable[ContrastiveExample],
                          docs: dict[str, Document]) -> None:
    """Raise ``EvalError`` unless each example names a document of ``docs``
    and its source window and reference target window are that document's
    ``corpus.window_pairs`` at ``j`` and the example's size, the window that
    ``rebuild_examples`` re-windows. A window that the document start cuts
    short, or a ``j`` past the document's end, does not match."""
    for ex in examples:
        if ex.doc_id not in docs:
            raise EvalError(f"example {ex.example_id!r} names document {ex.doc_id!r}, "
                            f"which the split does not hold")
        size = len(ex.src_sentences)
        pairs = window_pairs(docs[ex.doc_id], ex.j, size)
        if (tuple(s for s, _ in pairs) != ex.src_sentences
                or tuple(t for _, t in pairs) != ex.candidates[0]):
            raise EvalError(f"example {ex.example_id!r}: its windows are not the {size} "
                            f"sentences of document {ex.doc_id!r} that end at "
                            f"sentence {ex.j}")


def robustness_eval(model: TransformerModel, docs: Sequence[Document], vocab: Vocab,
                    sizes: Sequence[int],
                    examples: Sequence[ContrastiveExample] | None = None,
                    beam: int = 4, alpha: float = 0.6,
                    target_context: str = "own") -> list[RobustnessRow]:
    """BLEU (and contrastive accuracy) re-evaluated at each window size.

    Windows are rebuilt at every size; only the current sentence of each
    window is scored, decoded after the ``target_context`` of
    ``decode_current_sentences``. Each row keeps the hypotheses and
    references its BLEU was computed from.
    A window or rebuilt contrastive example that an earlier size already
    holds is decoded or scored once and its result reused (see
    ``decode_current_sentences``). The examples' windows must be their
    documents' sentences ending at ``j`` (``check_example_windows``).
    """
    if min(sizes) < 1:
        raise EvalError(f"window sizes must be >= 1, got {sizes}")
    longest = max(len(s) for d in docs for s, _ in d.sentences)
    if max(sizes) * (longest + 1) + 1 > model.config.max_len:
        raise EvalError(f"window size {max(sizes)} may exceed model max length "
                        f"{model.config.max_len}")
    docs_by_id = {d.doc_id: d for d in docs}
    decoded = decode_current_sentences(model, docs, vocab, sizes, beam=beam, alpha=alpha,
                                       target_context=target_context)
    scored: dict[ContrastiveExample, ContrastiveResult] = {}
    rows = []
    for size, (hyps, refs, malformed) in zip(sizes, decoded):
        accuracy = None
        if examples:
            rebuilt = rebuild_examples(examples, docs_by_id, size)
            new = [ex for ex in rebuilt if ex not in scored]
            scored.update(zip(new, evaluate_contrastive(model, new, vocab)))
            accuracy = overall_accuracy([scored[ex] for ex in rebuilt])
        rows.append(RobustnessRow(size=size, bleu=bleu(hyps, refs), accuracy=accuracy,
                                  malformed=malformed, n_windows=len(hyps),
                                  hyps=hyps, refs=refs))
    return rows
