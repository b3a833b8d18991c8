"""Reference computations that the tests check winmt against.

Each one is independent of the code it checks: ``concat_loss`` reads only
a window's target length, never its current span; ``shifted_positions``
validates one sequence's segment indices before shifting;
``contrastive_scores`` sums the log-probabilities of a plain forward,
never the pass's losses; and ``finite_diff_check`` compares analytic
gradients with central finite differences, the gradient oracle of the
tensor and model tests. ``window_from_sentences`` is the tests' builder
of a window over chosen sentences.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from winmt import corpus as C
from winmt.corpus import Window
from winmt.model import build_batch
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
