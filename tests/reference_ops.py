"""Reference computations that the tests check winmt against.

Each one is independent of the code it checks: ``concat_loss`` reads only
a window's target length, never its current span; ``shifted_positions``
validates one sequence's segment indices before shifting;
``contrastive_scores`` sums the log-probabilities of a plain forward,
never the pass's losses; ``finite_diff_check`` compares analytic
gradients with central finite differences, the gradient oracle of the
tensor and model tests; ``beam_reference`` searches one window by a full
re-forward of every hypothesis each step, the oracle of beam search, and
``chained_reference`` decodes documents sentence by sentence with it,
each window after its own earlier outputs. ``window_from_sentences`` is
the tests' builder of a window over chosen sentences.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from winmt import corpus as C
from winmt.corpus import Window
from winmt.model import Batch, build_batch
from winmt.positions import PositionError, shift_positions
from winmt.tensor import Graph, Tensor, backward, mul_const, record, reduce_sum


def concat_loss(per_token: Tensor, window: Window) -> Tensor:
    """Plain concatenation loss: the sum over the window's target positions.

    It reads only the target length, never the current span, so it stays an
    independent reference for the discounted loss at cd = 1.
    """
    mask = np.zeros(per_token.shape[-1], dtype=per_token.data.dtype)
    mask[:len(window.tgt_ids)] = 1.0
    return reduce_sum(mul_const(per_token, mask))


def window_from_sentences(src_sentences: Sequence[Sequence[str]],
                          tgt_sentences: Sequence[Sequence[str]],
                          vocab: C.Vocab, doc_id: str = "", j: int = 0) -> Window:
    """A window over explicit, already-aligned sentence lists, laid out as
    ``corpus`` lays out every window."""
    C._check_aligned(src_sentences, tgt_sentences)
    return C._window([vocab.encode(s) for s in src_sentences],
                     [vocab.encode(t) for t in tgt_sentences], doc_id, j)


def contrastive_scores(model, chunks, vocab: C.Vocab, mode: str) -> list[float]:
    """Each candidate's teacher-forced log-probability, over its whole target
    window (mode "full") or its current span ("current"), in order.

    Each chunk of examples is one batch and one plain ``model.forward``;
    the log-probability of each target token is picked with
    ``np.take_along_axis`` and summed under the mode's mask.
    """
    scores = []
    for chunk in chunks:
        batch = build_batch([w for ex in chunk for w in ex.candidate_windows(vocab)],
                            model.config)
        log_probs, _ = model.forward(batch)
        token_lp = np.take_along_axis(log_probs.data, batch.tgt_out[..., None], -1)[..., 0]
        mask = batch.current_mask if mode == "current" else batch.tgt_valid
        scores.extend((token_lp * mask).sum(axis=-1).tolist())
    return scores


def shifted_positions(seg, shift: int) -> np.ndarray:
    """Effective positions t'_i = i + seg_i * shift for one token sequence."""
    if shift < 0:
        raise PositionError(f"shift must be nonnegative, got {shift}")
    seg = np.asarray(seg, dtype=np.int64)
    if seg.ndim != 1:
        raise PositionError(f"seg must be 1-D, got shape {seg.shape}")
    steps = np.diff(seg)
    if seg.size and (steps.min(initial=0) < 0 or steps.max(initial=0) > 1):
        raise PositionError("segment indices must be non-decreasing with steps of at most 1")
    return shift_positions(np.arange(seg.size, dtype=np.int64), seg, shift)


def finite_diff_check(f: Callable[[Tensor], Tensor], point, h: float,
                      coords: Sequence[int] | None = None) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must be deterministic and return a scalar. Returns the max over
    (selected) coordinates of |analytic - numeric| / max(1e-12, |analytic| +
    |numeric|). ``coords`` restricts the check to the given flat indices of
    ``point``; by default every coordinate is checked.
    """
    if h <= 0:
        raise ValueError(f"step size h must be positive, got {h}")
    base = np.array(point.data if isinstance(point, Tensor) else point, dtype=np.float64)

    x = Tensor(base.copy())
    with record(Graph()):
        y = f(x)
    backward(y)
    if x.grad is None:
        raise ValueError("f does not depend on the given point")
    analytic = x.grad.ravel()
    if not np.all(np.isfinite(analytic)) or not np.isfinite(y.item()):
        raise ValueError("non-finite values in f or its gradient")

    flat = base.ravel()
    indices = range(flat.size) if coords is None else coords
    max_err = 0.0
    for i in indices:
        saved = flat[i]
        flat[i] = saved + h
        fp = f(Tensor(base)).item()
        flat[i] = saved - h
        fm = f(Tensor(base)).item()
        flat[i] = saved
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite f value at coordinate {i}")
        numeric = (fp - fm) / (2.0 * h)
        a = analytic[i]
        err = abs(a - numeric) / max(1e-12, abs(a) + abs(numeric))
        max_err = max(max_err, err)
    return max_err


def full_prefix_logits(model, window, tokens, segs):
    """Log-probs for the next token after decoder inputs ``tokens`` with
    segments ``segs``, by one plain forward of the whole input."""
    batch = build_batch([window], model.config)
    t = len(tokens)
    seg_arr = np.array(segs, dtype=np.int64)[None, :]
    hacked = Batch(
        windows=batch.windows,
        src=batch.src, src_seg=batch.src_seg, src_pos=batch.src_pos,
        src_valid=batch.src_valid,
        tgt_in=np.array(tokens, dtype=np.int64)[None, :], tgt_in_seg=seg_arr,
        tgt_in_pos=np.arange(t)[None, :] + seg_arr * batch.shifts[:, None],
        tgt_out=np.zeros((1, t), dtype=np.int64),
        tgt_valid=np.ones((1, t)),
        current_mask=np.zeros((1, t)), context_mask=np.zeros((1, t)),
        shifts=batch.shifts)
    lp, _ = model.forward(hacked)
    return lp.data[0, -1]


def beam_reference(model, window, beam, alpha, max_len, prefix=None, finished_by_step=None):
    """Beam search for one window by a full re-forward of every hypothesis
    each step; oracle for ``decode``. Candidates rank best first, ties by
    (row, token); <E> finishes from the first ``beam`` ranks only while fewer
    than ``beam`` hypotheses have finished; the others fill the rows in rank
    order. The window stops at ``beam`` finished ones, or at its length cap
    after finishing its live rows. The best normalized score wins, the
    earliest finished on ties, and ``[<E>]`` when none finished.

    With ``prefix``, the decoder reads <E> and the forced ``prefix`` before
    anything is generated; only the generated tokens are scored and
    returned, <S> is never generated, and the cap is 2 * c + 8 tokens for
    the c source tokens after the last <S>, at most the model's max_len less
    the prefix length. ``finished_by_step``, a list, gets the count of
    finished hypotheses after each step.
    """
    cfg = model.config
    if prefix is None:
        cap = min(cfg.max_len, 2 * len(window.src_ids) + 8)
        banned, start = [C.PAD_ID], []
    else:
        current = len(window.src_ids) - 1 - max(
            (i for i, tok in enumerate(window.src_ids) if tok == C.SEP_ID), default=-1)
        cap = min(cfg.max_len - len(prefix), 2 * current + 8)
        banned, start = [C.PAD_ID, C.SEP_ID], list(prefix)
    cap = min(cap, max_len or np.inf)
    inputs, segs = [C.EOS_ID] + start, [0]
    for prev in inputs[:-1]:  # a token after <S> opens the next sentence
        segs.append(segs[-1] + (1 if prev == C.SEP_ID else 0))
    rows = [(0.0, inputs, segs)]  # (cumulative log-prob, inputs, segments)
    finished = []
    for t in range(cap):
        lp = ((5.0 + (t + 1)) / 6.0) ** alpha
        cands = []
        for cum, tokens, segs in rows:
            logp = full_prefix_logits(model, window, tokens, segs)
            logp[banned] = -np.inf
            cands += [(cum + logp[tok], tokens, segs, tok) for tok in range(len(logp))]
        cands.sort(key=lambda c: -c[0])  # stable: equal scores keep (row, token) order
        rows = []
        for rank, (score, tokens, segs, tok) in enumerate(cands[:2 * beam]):
            if score == -np.inf:
                break
            if tok == C.EOS_ID:
                if rank < beam and len(finished) < beam:
                    finished.append((score / lp, tokens[1 + len(start):] + [tok]))
            elif len(rows) < beam:
                seg = segs[-1] + (1 if tokens[-1] == C.SEP_ID else 0)
                rows.append((score, tokens + [tok], segs + [seg]))
        if t + 1 == cap and len(finished) < beam:
            finished += [(score / lp, tokens[1 + len(start):]) for score, tokens, _ in rows]
        if finished_by_step is not None:
            finished_by_step.append(len(finished))
        if len(finished) >= beam or not rows:
            break
    return max(finished, key=lambda h: h[0])[1] if finished else [C.EOS_ID]


def chained_reference(model, docs, vocab: C.Vocab, sizes, beam, alpha) -> list[list[list[str]]]:
    """Per size in ``sizes``, the current sentence decoded for every sentence
    of ``docs``, in order: each document's sentences one after another, each
    searched by ``beam_reference`` after the forced prefix of the outputs
    of its context sentences at that size, each followed by <S>."""
    out = []
    for k in sizes:
        hyps = []
        for doc in docs:
            outputs = []
            for j, w in enumerate(C.make_windows(doc, k, vocab)):
                prefix = [tok for ids in outputs[j - w.size + 1:j] for tok in ids + [C.SEP_ID]]
                ids = beam_reference(model, w, beam, alpha, None, prefix=prefix)
                outputs.append(ids[:-1] if ids[-1] == C.EOS_ID else ids)
            hyps += [vocab.decode(ids) for ids in outputs]
        out.append(hyps)
    return out
