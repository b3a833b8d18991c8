"""Training objectives over concatenated windows.

The concatenation loss sums per-token losses over the whole target
window. The context-discounted variant splits a batch's target positions
with ``partition_masks``: the current sentence (its tokens plus <E>) and
everything earlier (context sentences plus their <S> separators) become
two 0/1 masks of shape (windows, length), built for every window of the
batch at once, with padding in neither. ``masked_discounted_loss`` then
weighs the context part by a discount cd in [0, 1]; cd = 1 recovers the
plain concatenation loss exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Window
from .tensor import Tensor, add, gather_last, mul_const, reduce_sum


class ObjectiveError(ValueError):
    pass


def smoothed_nll(log_probs: Tensor, targets: np.ndarray, epsilon: float,
                 pad_mask: np.ndarray | None = None) -> Tensor:
    """Label-smoothed negative log-likelihood per token.

    loss = (1 - eps) * (-log p[target]) + eps * mean over the vocab of
    (-log p); positions where ``pad_mask`` is 0 contribute exactly 0.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ObjectiveError(f"label smoothing epsilon must be in [0, 1), got {epsilon}")
    targets = np.asarray(targets)
    vocab = log_probs.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ObjectiveError(f"target id out of vocab of size {vocab}")
    nll = mul_const(gather_last(log_probs, targets), -1.0)
    if epsilon > 0.0:
        uniform = mul_const(reduce_sum(log_probs, axis=-1), -1.0 / vocab)
        loss = add(mul_const(nll, 1.0 - epsilon), mul_const(uniform, epsilon))
    else:
        loss = nll
    if pad_mask is not None:
        if pad_mask.shape != loss.shape:
            raise ObjectiveError(f"pad mask shape {pad_mask.shape} != losses {loss.shape}")
        loss = mul_const(loss, pad_mask.astype(log_probs.data.dtype))
    return loss


@dataclass
class LossBreakdown:
    """Current/context decomposition; discounted_total = cd*context + current."""

    current_loss: Tensor
    context_loss: Tensor
    discounted_total: Tensor


def partition_masks(windows: Sequence[Window]) -> tuple[np.ndarray, np.ndarray]:
    """(current, context) 0/1 masks of shape (windows, longest target).

    Positions past a window's own target are padding and in neither mask.
    """
    n = np.array([len(w.tgt_ids) for w in windows], dtype=np.int64)[:, None]
    spans = np.array([w.current_span for w in windows], dtype=np.int64).reshape(-1, 2)
    start, end = spans[:, :1], spans[:, 1:]
    bad = np.flatnonzero(~((0 <= start) & (start < end) & (end <= n)))
    if bad.size:
        w = windows[int(bad[0])]
        raise ObjectiveError(f"current span {w.current_span} inconsistent with target "
                             f"length {len(w.tgt_ids)}")
    pos = np.arange(n.max(initial=0))
    return ((start <= pos) & (pos < end)).astype(np.float64), (pos < start).astype(np.float64)


def masked_discounted_loss(per_token: Tensor, current_mask: np.ndarray,
                           context_mask: np.ndarray, cd: float) -> LossBreakdown:
    """Batched form of the discounted loss; masks select target positions."""
    if not 0.0 <= cd <= 1.0:
        raise ObjectiveError(f"context discount must be in [0, 1], got {cd}")
    if current_mask.shape != per_token.shape or context_mask.shape != per_token.shape:
        raise ObjectiveError("partition masks must match the per-token loss shape")
    current_mask = current_mask.astype(per_token.data.dtype)
    context_mask = context_mask.astype(per_token.data.dtype)
    current = reduce_sum(mul_const(per_token, current_mask))
    context = reduce_sum(mul_const(per_token, context_mask))
    total = add(mul_const(context, cd), current)
    return LossBreakdown(current_loss=current, context_loss=context, discounted_total=total)


def normalized_training_loss(breakdown: LossBreakdown, current_tokens: int) -> Tensor:
    """Discounted total divided by the current token count.

    Normalizing by current tokens (not all tokens) keeps the effective
    step size on the current-sentence task independent of cd and of how
    much context a batch happens to contain. ``current_tokens`` is the
    whole batch's count, also when ``breakdown`` covers one shard of it,
    so that the shards' losses and gradients add up to the batch's.
    """
    if current_tokens == 0:
        raise ObjectiveError("no current tokens to normalize by")
    return mul_const(breakdown.discounted_total, 1.0 / current_tokens)


def loss_ratio(current: Sequence[float], context: Sequence[float],
               context_sentence_counts: Sequence[int]) -> float:
    """Mean per-sentence current loss over mean per-sentence context loss.

    ``current`` and ``context`` hold each window's summed losses. Each window
    contributes its current-sentence loss; windows with c >= 1 context
    sentences contribute context / c to the context mean. The ratio is NaN
    where it is undefined: no windows, no window with a context sentence, or
    a context mean of zero.
    """
    if not len(current) == len(context) == len(context_sentence_counts):
        raise ObjectiveError("one current loss, context loss and context-sentence count "
                             "per window required")
    context_vals = [loss / c for loss, c in zip(context, context_sentence_counts) if c >= 1]
    if not context_vals or sum(context_vals) == 0:
        return math.nan
    return (sum(current) / len(current)) / (sum(context_vals) / len(context_vals))
