"""Position encodings: sinusoidal, segment-shifted, segment embeddings.

Segment shifting maps raw position t with sentence index k to
t' = t + k * shift, so the positional gap across each sentence boundary
grows from 1 to 1 + shift while intra-sentence distances are untouched.
The first sentence of a window (k = 0) is never shifted. Everything is
closed-form, so arbitrarily large shifted positions need no table.
"""

from __future__ import annotations

import numpy as np

SCHEMES = ("plain", "shifted")
SEGMENT_VARIANTS = ("none", "sin", "learned")


class PositionError(ValueError):
    pass


def sinusoidal_pe(positions, dim: int, dtype=np.float64) -> np.ndarray:
    """Interleaved sine/cosine encoding; accepts a scalar or array of positions."""
    if dim % 2 != 0 or dim <= 0:
        raise PositionError(f"encoding dim must be even and positive, got {dim}")
    pos = np.asarray(positions, dtype=dtype)
    if pos.size and pos.min() < 0:
        raise PositionError("positions must be nonnegative")
    freqs = np.power(10000.0, -np.arange(0, dim, 2, dtype=dtype) / dim)
    angles = pos[..., None] * freqs
    out = np.empty(pos.shape + (dim,), dtype=dtype)
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


def shift_positions(index, seg, shift):
    """Effective positions t' = t + seg * shift, broadcast over arrays of raw
    positions ``index``, segment indices ``seg`` and shifts ``shift``."""
    return index + seg * shift


def init_segment_table(max_window: int, dim: int, rng: np.random.Generator,
                       dtype=np.float32) -> np.ndarray:
    """Trainable table of shape (max window size, dim), small Gaussian init."""
    return rng.normal(0.0, 0.02, size=(max_window, dim)).astype(dtype)
