"""Encoder-decoder transformer over concatenated sentence windows.

Pre-norm residual blocks at small-scale default dimensions. The decoder
input is the target shifted right with <E> doubling as the start token.
Position encodings are closed-form sinusoids over effective positions,
optionally segment-shifted; segment embeddings (sinusoidal or learned)
can be added on top. Attention weights can be captured for diagnostics,
one record per (layer, kind, window) with a heads axis.

Hidden states hold the real tokens of a batch only, one row each. The
position-wise layers (linears, layer norms, FFNs, residuals, dropout) run
on those rows; attention scatters them into the zero-padded
(windows, length) grid, where the key masks apply, and takes them back.

A token whose state is provably a copy of one in an earlier window of the
batch has no row of its own. Windows with the same source inputs share
every source token and every target token before the first position
where their decoder inputs differ; contrastive candidates are such
windows. The grid cells of those tokens are filled from their owner's
cell, and their gradients flow back into the owner's row. Under training
dropout, shared tokens therefore share their owner's dropout masks.
"""

from __future__ import annotations

import math
from functools import partial
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import checkpoint as ckpt
from .corpus import EOS_ID, PAD_ID, SEP_ID, Window, compute_shift
from .objective import partition_masks
from .positions import (SCHEMES, SEGMENT_VARIANTS, init_segment_table, shift_positions,
                        sinusoidal_pe)
from .rng import stream
from .tensor import (Tensor, add, add_const, attention, dropout, embedding, layer_norm,
                     linear, log_softmax, mul_const, relu, reshape, scatter_rows, take_rows)

NEG_INF = -np.inf
DTYPES = ("float32", "float64")
CACHE_STEPS = 8  # first step capacity of decode's self-attention caches per row; doubles when full


class ModelError(ValueError):
    pass


def check_model_settings(cfg) -> None:
    """Raise ModelError naming the first invalid model setting of ``cfg``, a
    ModelConfig or any object with its ``heads``, ``hidden``, ``dropout``,
    ``position_scheme``, ``shift_strategy``, ``segment_variant`` and ``dtype``."""
    if cfg.heads < 1 or cfg.hidden % cfg.heads:
        raise ModelError(f"hidden {cfg.hidden} not divisible by heads {cfg.heads}")
    if cfg.hidden < 2 or cfg.hidden % 2:
        raise ModelError(f"hidden must be even and positive for the sinusoidal encodings, "
                         f"got {cfg.hidden}")
    if not 0.0 <= cfg.dropout < 1.0:
        raise ModelError(f"dropout must be in [0, 1), got {cfg.dropout}")
    for key, allowed in (("position_scheme", SCHEMES), ("segment_variant", SEGMENT_VARIANTS),
                         ("dtype", DTYPES)):
        if getattr(cfg, key) not in allowed:
            raise ModelError(f"{key} must be one of {', '.join(allowed)}, "
                             f"got {getattr(cfg, key)!r}")
    if cfg.shift_strategy not in ("avg-corpus", "avg-sequence"):
        try:
            compute_shift(cfg.shift_strategy)
        except ValueError as exc:  # CorpusError, or a non-integer fixed shift
            raise ModelError(f"shift_strategy must be fixed:<n> with n >= 0, avg-corpus or "
                             f"avg-sequence, got {cfg.shift_strategy!r}") from exc


@dataclass
class ModelConfig:
    vocab_size: int
    layers: int = 2
    heads: int = 4
    hidden: int = 128
    ffn: int = 256
    dropout: float = 0.3
    max_window: int = 4
    max_len: int = 512
    window_size: int = 2  # K the model was trained at
    position_scheme: str = "plain"  # plain | shifted
    shift_strategy: str = "fixed:0"  # fixed:<n> | avg-corpus | avg-sequence
    shift_value: int | None = None  # resolved for fixed / avg-corpus
    segment_variant: str = "none"  # none | sin | learned
    dtype: str = "float32"  # float32 for training, float64 for test/oracle mode
    vocab_digest: str = ""

    def __post_init__(self):
        check_model_settings(self)

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


@dataclass
class AttentionRecord:
    """One window's attention weights in one layer and kind, for every head.

    Rows are probability distributions over unpadded keys; masked keys
    carry exactly zero weight.
    """

    layer: int
    kind: str  # enc-self | dec-self | cross
    weights: np.ndarray  # (heads, queries, keys)
    query_seg: np.ndarray
    key_seg: np.ndarray
    current_seg: int


@dataclass
class Batch:
    """The padded (windows, length) arrays of a list of windows, and each
    side's ``Grid``, computed once when the batch is made."""

    windows: list[Window]
    src: np.ndarray
    src_seg: np.ndarray
    src_pos: np.ndarray
    src_valid: np.ndarray  # 1.0 at real tokens
    tgt_in: np.ndarray
    tgt_in_seg: np.ndarray
    tgt_in_pos: np.ndarray
    tgt_out: np.ndarray
    tgt_valid: np.ndarray
    current_mask: np.ndarray
    context_mask: np.ndarray
    shifts: np.ndarray  # resolved shift per window
    # where the state rows of the source and the target tokens sit in the
    # padded grids (see ``_shared_cells``)
    src_grid: Grid = field(init=False)
    tgt_grid: Grid = field(init=False)

    def __post_init__(self):
        self.src_grid, self.tgt_grid = _shared_cells(self)

    @property
    def size(self) -> int:
        return len(self.windows)


class Grid(NamedTuple):
    """Where the state rows of one side of a batch sit in its padded grid:
    the real tokens that own a state row, and the real tokens that copy one."""

    rows: np.ndarray  # flat cell of each state row
    copies: np.ndarray  # (2, n): duplicate cells and the owner cells they copy
    shape: tuple[int, int]  # (windows, length)


def _shared_cells(batch: Batch) -> tuple[Grid, Grid]:
    """The source and the target grid of ``batch``.

    A window owns its tokens unless an earlier window has the same source
    inputs (ids, segments, positions, padding); the first such window then
    owns them. Every source token of the later window is a copy, and so is
    each target token before the first position where its decoder inputs
    differ from the owner's, because a decoder state depends on the source
    and on the decoder inputs up to its own position only.
    """
    sources = np.concatenate([batch.src, batch.src_seg, batch.src_pos,
                              batch.src_valid > 0], axis=1, dtype=np.int64)
    first: dict[bytes, int] = {}
    owner = np.array([first.setdefault(row.tobytes(), i) for i, row in enumerate(sources)])
    dup = np.flatnonzero(owner != np.arange(len(owner)))
    src_copy = batch.src_valid[dup] > 0
    same = (batch.tgt_valid[dup] > 0) & (batch.tgt_valid[owner[dup]] > 0)
    for a in (batch.tgt_in, batch.tgt_in_seg, batch.tgt_in_pos):
        same &= a[dup] == a[owner[dup]]
    tgt_copy = np.logical_and.accumulate(same, axis=1)
    return (_grid(batch.src_valid, dup, owner[dup], src_copy),
            _grid(batch.tgt_valid, dup, owner[dup], tgt_copy))


def _grid(valid, dup, owner, copy) -> Grid:
    """The grid of the real tokens in ``valid``, where ``copy`` marks the
    copied tokens of windows ``dup`` whose owners are windows ``owner``."""
    length = valid.shape[1]
    win, pos = np.nonzero(copy)
    copies = np.stack([dup[win] * length + pos, owner[win] * length + pos])
    real = valid.reshape(-1) > 0
    real[copies[0]] = False
    return Grid(np.flatnonzero(real), copies, valid.shape)


def resolve_window_shift(config: ModelConfig, window: Window) -> int:
    if config.position_scheme != "shifted":
        return 0
    if config.shift_strategy == "avg-sequence":
        return compute_shift("avg-sequence", window=window)
    if config.shift_value is None:
        raise ModelError("shifted scheme needs a resolved shift value")
    return config.shift_value


def build_batch(windows: Sequence[Window], config: ModelConfig) -> Batch:
    if not windows:
        raise ModelError("empty batch")
    s_max = max(len(w.src_ids) for w in windows)
    t_max = max(len(w.tgt_ids) for w in windows)
    if s_max > config.max_len or t_max > config.max_len:
        raise ModelError(
            f"sequence length {max(s_max, t_max)} exceeds configured max {config.max_len}")
    b = len(windows)
    src = np.full((b, s_max), PAD_ID, dtype=np.int64)
    src_seg = np.zeros((b, s_max), dtype=np.int64)
    src_valid = np.zeros((b, s_max))
    tgt_in = np.full((b, t_max), PAD_ID, dtype=np.int64)
    tgt_in_seg = np.zeros((b, t_max), dtype=np.int64)
    tgt_out = np.full((b, t_max), PAD_ID, dtype=np.int64)
    tgt_valid = np.zeros((b, t_max))
    shifts = np.zeros(b, dtype=np.int64)
    for i, w in enumerate(windows):
        ns, nt = len(w.src_ids), len(w.tgt_ids)
        src[i, :ns] = w.src_ids
        src_seg[i, :ns] = w.src_seg
        src_valid[i, :ns] = 1.0
        tgt_in[i, 0] = EOS_ID
        tgt_in[i, 1:nt] = w.tgt_ids[:-1]
        tgt_in_seg[i, 1:nt] = w.tgt_seg[:-1]
        tgt_out[i, :nt] = w.tgt_ids
        tgt_valid[i, :nt] = 1.0
        shifts[i] = resolve_window_shift(config, w)
    current, context = partition_masks(windows)
    src_pos = shift_positions(np.arange(s_max)[None, :], src_seg, shifts[:, None])
    tgt_in_pos = shift_positions(np.arange(t_max)[None, :], tgt_in_seg, shifts[:, None])
    return Batch(windows=list(windows), src=src, src_seg=src_seg, src_pos=src_pos,
                 src_valid=src_valid, tgt_in=tgt_in, tgt_in_seg=tgt_in_seg,
                 tgt_in_pos=tgt_in_pos, tgt_out=tgt_out, tgt_valid=tgt_valid,
                 current_mask=current, context_mask=context, shifts=shifts)


class ForwardPass(NamedTuple):
    """What one forward pass reads besides its inputs: the dropout rate (0
    outside training), drawn per site from a stream of ``seed`` at ``step``
    and ``shard`` (the training step's shard), and the list that captures
    attention of ``batch`` (None: no capture)."""

    rate: float = 0.0
    step: int = 0
    seed: int = 0
    shard: int = 0
    records: list[AttentionRecord] | None = None
    batch: Batch | None = None

    def drop(self, site: str) -> tuple[float, np.random.Generator | None]:
        """Dropout rate and stream of ``site``; (0.0, None) when nothing drops."""
        if self.rate:
            return self.rate, stream(self.seed, f"drop/{site}", self.step, self.shard)
        return 0.0, None


EVAL = ForwardPass()  # no dropout, no capture


def _to_grid(x: Tensor, grid: Grid | None) -> Tensor:
    """State rows -> the zero-padded (windows, length, ...) grid, with each
    duplicate cell filled from its owner. None stands for decode's step
    rows, which hold no padding and stay as they are.
    """
    if grid is None:
        return x
    b, t = grid.shape
    x = scatter_rows(x, grid.rows, b * t, grid.copies)
    return reshape(x, (b, t) + x.shape[1:])


def _key_mask(valid: np.ndarray, dtype) -> np.ndarray:
    """Additive mask (..., keys): 0 at real tokens, -inf at padding."""
    return np.where(valid > 0, 0.0, NEG_INF).astype(dtype)


class _WindowCaches:
    """Decode's self-attention keys and values, one group per window: a
    (windows, lead + beam * capacity, hidden) array per layer and kind,
    made with np.empty. The first ``lead`` slots hold the window's forced
    inputs, <E> and its prefix (right-aligned, from
    ``TransformerModel._force``), which its `beam` rows share; each
    generated step then adds one slot per row. A row attends to the forced
    inputs and to its own slots only (``mask``), and the window's rows
    attend together. The generated capacity starts at ``CACHE_STEPS``
    steps (at most ``limit``) and doubles when reached."""

    def __init__(self, forced: dict, used: np.ndarray, beam: int, limit: int, dtype):
        """``forced``: each layer's (keys, values) of the forced inputs,
        emptied as it is copied; ``used``: the slots each window's forced
        inputs fill."""
        b, lead, hidden = next(iter(forced.values()))[0].shape
        self.beam, self.lead, self.limit = beam, lead, limit
        steps = min(limit, CACHE_STEPS)
        self.arrays = {}
        for name in list(forced):
            self.arrays[name] = [np.empty((b, lead + beam * steps, hidden), dtype) for _ in "kv"]
            for cache, part in zip(self.arrays[name], forced.pop(name)):
                cache[:, :lead] = part
        # row r of a window reads its forced inputs after their padding and
        # slot r of each step
        own = np.where(np.eye(beam, dtype=bool), 0.0, NEG_INF)
        self._mask = np.concatenate(
            [np.repeat(_key_mask(np.arange(lead) >= lead - used[:, None], dtype)[:, None],
                       beam, axis=1),
             np.broadcast_to(np.tile(own, limit).astype(dtype), (b, beam, beam * limit))],
            axis=2)[:, None]

    def attend(self, name, new, t):
        """Write step ``t``'s (keys, values) rows ``new``, window by window;
        the keys and values to attend to, one group per window."""
        n = len(new[0]) // self.beam
        lo = self.lead + (t - 1) * self.beam
        for cache, rows in zip(self.arrays[name], new):
            cache[:n, lo:lo + self.beam] = rows.reshape(n, self.beam, -1)
        return tuple(Tensor(cache[:n, :lo + self.beam]) for cache in self.arrays[name])

    def mask(self, t):
        return self._mask[..., :self.lead + t * self.beam]

    def keep(self, rows, t) -> None:
        """Keep the rows ``rows`` after step ``t``, in that order: whole
        windows, each row taking the slots of the row it continues."""
        beam, lead = self.beam, self.lead
        win = rows[::beam] // beam
        if not np.array_equal(win, np.arange(len(self._mask))):
            self._mask = self._mask[win]
        # the slot that each filled slot of a kept window is taken from
        steps = lead + np.arange(t)[:, None] * beam + (rows % beam).reshape(-1, 1, beam)
        take = np.concatenate([np.broadcast_to(np.arange(lead), (len(win), lead)),
                               steps.reshape(len(win), -1)], axis=1)
        filled = take.shape[1]
        moved = (win != np.arange(len(win))).any() or (take != np.arange(filled)).any()
        for pair in self.arrays.values():
            for i, cache in enumerate(pair):
                if moved:
                    cache[:len(win), :filled] = cache[win[:, None], take]
                if filled + beam > cache.shape[1]:
                    grown = lead + beam * min(2 * t, self.limit)
                    pair[i] = np.empty((len(win), grown) + cache.shape[2:], cache.dtype)
                    pair[i][:, :filled] = cache[:len(win), :filled]


def _top_candidates(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` largest entries in each row of ``scores``,
    best first; among equal entries the lower index comes first. The same as
    ``np.argsort(-scores, axis=1, kind="stable")[:, :k]`` without sorting
    whole rows."""
    kth = np.partition(scores, -k, axis=1)[:, -k, None]
    pick = scores >= kth
    over = pick.sum(axis=1) > k
    if over.any():
        # ties at the k-th value: keep only the lowest-indexed ones needed
        tie = scores[over] == kth[over]
        need = k - (pick[over] & ~tie).sum(axis=1, keepdims=True)
        pick[over] &= ~tie | (np.cumsum(tie, axis=1) <= need)
    idx = np.nonzero(pick)[1].reshape(-1, k)
    best = np.argsort(-np.take_along_axis(scores, idx, axis=1), axis=1, kind="stable")
    return np.take_along_axis(idx, best, axis=1)


class TransformerModel:
    def __init__(self, config: ModelConfig, params: dict[str, Tensor] | None = None,
                 seed: int = 0):
        self.config = config
        self.params = params if params is not None else self._init_params(seed)

    # ------------------------------------------------------------------
    # parameters

    def _init_params(self, seed: int) -> dict[str, Tensor]:
        cfg = self.config
        dt = cfg.np_dtype
        params: dict[str, Tensor] = {}

        def glorot(name, fan_in, fan_out, bias=True):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            rng = stream(seed, "init/" + name)
            params[name] = Tensor(rng.uniform(-bound, bound, (fan_in, fan_out)).astype(dt))
            if bias:
                params[name + "&bias"] = Tensor(np.zeros(fan_out, dtype=dt))

        def norm(name, dim):
            params[name + ".g"] = Tensor(np.ones(dim, dtype=dt))
            params[name + ".b"] = Tensor(np.zeros(dim, dtype=dt))

        d, f = cfg.hidden, cfg.ffn
        for side in ("src_emb", "tgt_emb"):
            rng = stream(seed, "init/" + side)
            params[side] = Tensor((rng.normal(0.0, d ** -0.5, (cfg.vocab_size, d))).astype(dt))
        glorot("out", d, cfg.vocab_size)
        if cfg.segment_variant == "learned":
            params["seg_table"] = Tensor(
                init_segment_table(cfg.max_window, d, stream(seed, "init/seg_table"), dt))
        for i in range(cfg.layers):
            for blk, names in ((f"enc{i}", ("self",)), (f"dec{i}", ("self", "cross"))):
                for kind in names:
                    for proj in ("q", "k", "v", "o"):
                        # a key bias shifts every score in a row equally and
                        # cancels in the softmax, so it stays out
                        glorot(f"{blk}.{kind}.{proj}", d, d, bias=proj != "k")
                norm(f"{blk}.ln1", d)
                norm(f"{blk}.ln2", d)
                if blk.startswith("dec"):
                    norm(f"{blk}.ln3", d)
                glorot(f"{blk}.ffn.w1", d, f)
                glorot(f"{blk}.ffn.w2", f, d)
        norm("enc_ln", d)
        norm("dec_ln", d)
        return params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # ------------------------------------------------------------------
    # forward

    def _embed(self, ids, seg, pos, site, fp, rows=None):
        """Table ``site``'s embeddings of the tokens at flat grid indices ``rows``,
        as (rows, hidden); with ``rows`` None, of every token in ``ids``."""
        cfg = self.config
        if rows is not None:
            ids, seg, pos = (a.reshape(-1)[rows] for a in (ids, seg, pos))
        x = embedding(self.params[site], ids)
        x = mul_const(x, math.sqrt(cfg.hidden))
        pe = sinusoidal_pe(pos, cfg.hidden, cfg.np_dtype)
        x = add_const(x, pe)
        if cfg.segment_variant == "sin":
            x = add_const(x, sinusoidal_pe(seg, cfg.hidden, cfg.np_dtype))
        elif cfg.segment_variant == "learned":
            capped = np.minimum(seg, cfg.max_window - 1)
            x = add(x, embedding(self.params["seg_table"], capped))
        return dropout(x, *fp.drop(site))

    def _kv(self, name: str, x: Tensor, grid: Grid | None = None) -> tuple[Tensor, Tensor]:
        """Keys and values of attention ``name`` over the rows ``x``, placed in
        ``grid`` (see ``_to_grid``)."""
        p = self.params
        return (_to_grid(linear(x, p[f"{name}.k"]), grid),
                _to_grid(linear(x, p[f"{name}.v"], p[f"{name}.v&bias"]), grid))

    def _attention(self, name, q_in, kv, mask_add, grid, fp, layer, kind):
        """Attention of ``q_in`` over the keys and values that ``kv(name, q_in)`` gives.

        ``kv`` runs after the query projection, so a tape records q, k, v in
        that order. The projected queries are placed in the padded ``grid``,
        and the owner rows of the result are taken back before the output
        projection. In decoding, the query rows split evenly over the keys'
        groups: the `beam` hypothesis rows of a window attend to its one set
        of encoder states at once.
        """
        cfg = self.config
        p = self.params
        q = linear(q_in, p[f"{name}.q"], p[f"{name}.q&bias"])
        k, v = kv(name, q_in)
        out, probs = attention(_to_grid(q, grid), k, v, cfg.heads, mask_add,
                               *fp.drop(f"{name}.attn"))
        if fp.records is not None:
            self._capture(fp, probs, layer, kind)
        if grid is not None:
            out = take_rows(reshape(out, (-1, cfg.hidden)), grid.rows)
        return linear(out, p[f"{name}.o"], p[f"{name}.o&bias"])

    def _capture(self, fp, attn, layer, kind):
        for i, w in enumerate(fp.batch.windows):
            src_seg = np.asarray(w.src_seg)
            tgt_seg = fp.batch.tgt_in_seg[i, :len(w.tgt_ids)]
            q_seg = src_seg if kind == "enc-self" else tgt_seg
            k_seg = tgt_seg if kind == "dec-self" else src_seg
            fp.records.append(AttentionRecord(
                layer=layer, kind=kind, weights=attn[i, :, :len(q_seg), :len(k_seg)].copy(),
                query_seg=q_seg, key_seg=k_seg, current_seg=w.current_index))

    def _ffn(self, name, x):
        p = self.params
        h = relu(linear(x, p[f"{name}.w1"], p[f"{name}.w1&bias"]))
        return linear(h, p[f"{name}.w2"], p[f"{name}.w2&bias"])

    def encode(self, batch: Batch, fp=EVAL) -> Tensor:
        """Encoder states of the source tokens that own a row, (rows, hidden)."""
        cfg = self.config
        p = self.params
        grid = batch.src_grid
        key_mask = _key_mask(batch.src_valid[:, None, None, :], cfg.np_dtype)
        x = self._embed(batch.src, batch.src_seg, batch.src_pos, "src_emb", fp,
                        rows=grid.rows)
        for i in range(cfg.layers):
            blk = f"enc{i}"
            h = layer_norm(x, p[f"{blk}.ln1.g"], p[f"{blk}.ln1.b"])
            a = self._attention(f"{blk}.self", h, partial(self._kv, grid=grid), key_mask,
                                grid, fp, i, "enc-self")
            x = add(x, dropout(a, *fp.drop(f"{blk}.self")))
            h = layer_norm(x, p[f"{blk}.ln2.g"], p[f"{blk}.ln2.b"])
            x = add(x, dropout(self._ffn(f"{blk}.ffn", h), *fp.drop(f"{blk}.ffn")))
        return layer_norm(x, p["enc_ln.g"], p["enc_ln.b"])

    def forward(self, batch: Batch, *, train: bool = False, step: int = 0, seed: int = 0,
                shard: int = 0, capture: bool = False) -> tuple[Tensor, list[AttentionRecord]]:
        """Teacher-forced forward pass: per-position log-probabilities over the vocab.

        The result covers the padded (windows, length) grid; every row,
        padding included, is a distribution.
        """
        cfg = self.config
        records: list[AttentionRecord] = []
        fp = ForwardPass(cfg.dropout if train else 0.0, step, seed, shard,
                         records if capture else None, batch)
        enc = self.encode(batch, fp)
        t = batch.tgt_in.shape[1]
        causal = _key_mask(np.tril(np.ones((t, t))), cfg.np_dtype)[None, None, :, :]
        self_mask = causal + _key_mask(batch.tgt_valid[:, None, None, :], cfg.np_dtype)
        cross_mask = _key_mask(batch.src_valid[:, None, None, :], cfg.np_dtype)
        tgt = batch.tgt_grid
        x = self._embed(batch.tgt_in, batch.tgt_in_seg, batch.tgt_in_pos, "tgt_emb", fp,
                        rows=tgt.rows)
        log_probs = self._decoder(x, partial(self._kv, grid=tgt),
                                  lambda name, _: self._kv(name, enc, batch.src_grid),
                                  self_mask, cross_mask, tgt, fp)
        return log_probs, records

    def _decoder(self, x, self_kv, cross_kv, self_mask, cross_mask, grid=None, fp=EVAL) -> Tensor:
        """Decoder layers, final norm and output log-softmax over embedded targets ``x``.

        ``forward`` runs them over the state rows of whole teacher-forced
        targets, placed in ``grid``; the logits are put in that grid before
        the log-softmax. ``decode`` runs them on one step per
        hypothesis row, with key/value providers that read its caches.
        """
        p = self.params
        for i in range(self.config.layers):
            blk = f"dec{i}"
            h = layer_norm(x, p[f"{blk}.ln1.g"], p[f"{blk}.ln1.b"])
            a = self._attention(f"{blk}.self", h, self_kv, self_mask, grid, fp, i, "dec-self")
            x = add(x, dropout(a, *fp.drop(f"{blk}.self")))
            h = layer_norm(x, p[f"{blk}.ln2.g"], p[f"{blk}.ln2.b"])
            a = self._attention(f"{blk}.cross", h, cross_kv, cross_mask, grid, fp, i, "cross")
            x = add(x, dropout(a, *fp.drop(f"{blk}.cross")))
            h = layer_norm(x, p[f"{blk}.ln3.g"], p[f"{blk}.ln3.b"])
            x = add(x, dropout(self._ffn(f"{blk}.ffn", h), *fp.drop(f"{blk}.ffn")))
        x = layer_norm(x, p["dec_ln.g"], p["dec_ln.b"])
        return log_softmax(_to_grid(linear(x, p["out"], p["out&bias"]), grid), axis=-1)

    # ------------------------------------------------------------------
    # scoring and decoding

    def score_windows(self, windows: Sequence[Window], mode: str = "full") -> np.ndarray:
        """Teacher-forced total log-probability per window over the whole target
        ("full") or the current span only ("current"), the windows forming one
        batch: the negated loss sums of ``evaluation.teacher_forced`` at epsilon 0."""
        from .evaluation import teacher_forced  # evaluation imports this module
        if mode not in ("full", "current"):
            raise ModelError(f"unknown scoring mode {mode!r}")
        return -np.array(getattr(teacher_forced(self, [windows], list, 0.0), mode))

    def decode(self, windows: Sequence[Window], beam: int = 4, alpha: float = 0.6,
               max_len: int | None = None,
               prefixes: Sequence[Sequence[int]] | None = None) -> list[list[int]]:
        """Batched beam search; returns generated token ids (with <E> when emitted).

        Hypotheses are ranked by the log-prob of their n generated tokens over
        lp(n) = ((5+n)/6)^alpha. Generation stops at <E> or at the window's
        length cap: 2 * len(src_ids) + 8 tokens, at most ``max_len`` and the
        model's ``max_len``.

        With ``prefixes``, window i's target starts with the forced tokens
        ``prefixes[i]`` (its context translations, each followed by <S>), and
        only its current sentence is generated: <S> is masked like <pad>, and
        the cap is 2 * c + 8 tokens, c the current source sentence's token
        count with its <E>, at most ``max_len``, and at most the model's
        ``max_len`` less the prefix length, which must leave one token.
        Without, every prefix is empty.

        <E> and the prefixes run through the decoder once, one row per
        window (``_force``); the last position gives the first step's
        log-probs, their self-attention keys and values are kept once per
        window, which its `beam` rows share (``_WindowCaches``), and the
        search goes on from the positions and segments that follow the
        prefix.

        A window keeps a count of its finished hypotheses and the best of
        them (the earliest on ties). It leaves the batch once it holds
        `beam` finished hypotheses, reaches its length cap, or none of its
        live rows can beat its best. A row's log-prob only falls as it
        grows, so after step t no later finish of a live row scores above
        max(cum) / max(lp(t+2), lp(cap)); at or below the best, the result
        is settled. Every step runs on the rows of windows still searching
        only.
        """
        if beam < 1:
            raise ModelError(f"beam must be >= 1, got {beam}")
        if not math.isfinite(alpha):
            raise ModelError(f"alpha must be finite, got {alpha}")
        cfg = self.config
        b = len(windows)
        banned = [PAD_ID]  # padding is never a valid continuation
        if prefixes is None:
            # a whole window is searched after an empty prefix
            prefixes = [()] * b
            caps = np.array([min(cfg.max_len, 2 * len(w.src_ids) + 8) for w in windows])
        else:
            banned.append(SEP_ID)  # only the current sentence is generated
            caps = np.array([min(cfg.max_len - len(p), 2 * w.src_seg.count(w.current_index) + 8)
                             for w, p in zip(windows, prefixes)])
            if caps.min() < 1:
                raise ModelError(f"a forced prefix of {max(map(len, prefixes))} tokens leaves "
                                 f"no room under max length {cfg.max_len}")
        starts = np.array([len(p) for p in prefixes], dtype=np.int64)
        if max_len is not None:
            if max_len < 1:
                raise ModelError(f"max-len must be >= 1, got {max_len}")
            caps = np.minimum(caps, max_len)
        t_cap = int(caps.max())

        batch = build_batch(windows, cfg)
        enc = self.encode(batch)

        # every per-row array holds `beam` rows per window still searching;
        # the cross keys/values and the source mask hold one row per window
        cross = {f"dec{i}.cross": self._kv(f"dec{i}.cross", enc, batch.src_grid)
                 for i in range(cfg.layers)}
        cross_mask = _key_mask(batch.src_valid[:, None, None, :], cfg.np_dtype)
        shifts = np.repeat(batch.shifts, beam)
        tokens = np.full((b * beam, t_cap + 1), PAD_ID, dtype=np.int64)
        # a prefix's last token (<E>, the start token, before an empty one)
        # is the first input of the search
        tokens[:, 0] = np.repeat([p[-1] if len(p) else EOS_ID for p in prefixes], beam)
        segs = np.repeat([list(p[:-1]).count(SEP_ID) for p in prefixes], beam)
        first, forced = self._force(prefixes, batch, cross, cross_mask)
        caches = _WindowCaches(forced, starts + 1, beam, t_cap, cfg.np_dtype)
        starts = np.repeat(starts, beam)

        def self_kv(name, h):
            # this step's keys/values go into the cache; attend to what it holds
            return caches.attend(name, [a.data[:, 0] for a in self._kv(name, h)], t)

        live = np.arange(b)  # the window behind each group of `beam` rows
        cum = np.full(b * beam, NEG_INF)  # -inf marks a dead row
        cum[::beam] = 0.0
        # per window: how many hypotheses finished, and the best one's
        # normalized score and ids (padded; later hypotheses are longer)
        n_done = np.zeros(b, dtype=np.int64)
        best = np.full(b, NEG_INF)
        best_ids = np.full((b, t_cap), PAD_ID, dtype=np.int64)
        lp = lambda n: ((5.0 + n) / 6.0) ** alpha

        for t in range(t_cap):
            n = live.size
            if t == 0:
                logp = np.repeat(first, beam, axis=0)  # each window's one live row
            else:
                seg_col = segs[:, None]
                pos = shift_positions((starts + t)[:, None], seg_col, shifts[:, None])
                x = self._embed(tokens[:, t:t + 1], seg_col, pos, "tgt_emb", EVAL)
                logp = self._decoder(x, self_kv, lambda name, _: cross[name], caches.mask(t),
                                     cross_mask).data[:, 0]
            logp[:, banned] = NEG_INF
            cand = (cum[:, None] + logp).reshape(n, beam * cfg.vocab_size)

            # the (n, 2·beam) ranked candidates; the first -inf one ends a list
            top = _top_candidates(cand, 2 * beam)
            score = np.take_along_axis(cand, top, axis=1)
            src, tok = np.divmod(top, cfg.vocab_size)
            src += np.arange(n)[:, None] * beam
            ranked = score > NEG_INF
            # <E> finishes a hypothesis only from the first `beam` ranks (this
            # keeps beam=1 exactly equal to greedy decoding) and only while the
            # window holds fewer than `beam` finished ones
            eos = ranked & (tok == EOS_ID) & (np.arange(2 * beam) < beam)
            eos &= n_done[live, None] + np.cumsum(eos, axis=1) <= beam
            n_done[live] += eos.sum(axis=1)
            # the other candidates fill the window's rows in rank order
            cont = ranked & (tok != EOS_ID)
            cont &= np.cumsum(cont, axis=1) <= beam
            filled = (np.arange(beam) < cont.sum(axis=1, keepdims=True)).reshape(-1)
            reorder = np.arange(n * beam)
            reorder[filled] = src[cont]
            cum = np.full(n * beam, NEG_INF)
            cum[filled] = score[cont]
            # a window stops at `beam` finished hypotheses; at its length cap
            # it finishes its live rows and stops
            stop = n_done[live] >= beam
            capped = (t + 1 >= caps[live]) & ~stop
            stop |= capped

            # <E> finishes, then cap finishes, each in rank order: the first
            # best of this step replaces the window's best if strictly better
            norm = score / lp(t + 1)
            fin = np.stack([eos, cont & capped[:, None]], axis=1)
            fin = np.where(fin, norm[:, None], NEG_INF).reshape(n, -1)
            row = np.flatnonzero(fin.max(axis=1) > best[live])
            pick = fin[row].argmax(axis=1) % (2 * beam)
            w = live[row]
            best[w] = norm[row, pick]
            best_ids[w, :t] = tokens[src[row, pick], 1:t + 1]
            best_ids[w, t] = tok[row, pick]
            # a window whose live rows cannot beat its best stops as well
            bound = cum.reshape(n, beam).max(axis=1) / np.maximum(lp(t + 2), lp(caps[live]))
            stop |= bound <= best[live]

            tokens = tokens[reorder]
            tokens[filled, t + 1] = tok[cont]
            segs = np.where(filled, segs[reorder] + (tokens[:, t] == SEP_ID), 0)

            # finished windows leave the batch; the self-attention caches of
            # the rest follow the beam reorder
            keep = cont.any(axis=1) & ~stop
            if not keep.any():
                break
            gather = reorder
            if not keep.all():
                kept = np.flatnonzero(np.repeat(keep, beam))
                live = live[keep]
                tokens, segs, cum = tokens[kept], segs[kept], cum[kept]
                shifts, starts = shifts[kept], starts[kept]
                cross_mask = cross_mask[keep]
                cross = {name: (Tensor(k.data[keep]), Tensor(v.data[keep]))
                         for name, (k, v) in cross.items()}
                gather = reorder[kept]
            caches.keep(gather, t)

        return [ids[ids != PAD_ID].tolist() or [EOS_ID] for ids in best_ids]

    def _force(self, prefixes, batch, cross, cross_mask):
        """One teacher-forced pass over the decoder inputs <E>, p_0, ..., p_{n-1}
        of each forced prefix p (<E> alone when p is empty), one row per
        window, with the segments and shifted positions that a window target
        gives them.

        Returns the log-probs of each window's first generated token,
        (windows, vocab), and each decoder layer's self-attention keys and
        values, (windows, width, hidden) each for the most inputs of a
        window, right-aligned: a window's inputs fill its last slots, and
        the slots before them hold zeros.
        """
        cfg = self.config
        b = len(prefixes)
        n = np.array([len(p) for p in prefixes]) + 1  # each window's inputs
        width = int(n.max())
        ids = np.full((b, width), PAD_ID, dtype=np.int64)
        seg = np.zeros((b, width), dtype=np.int64)
        for i, p in enumerate(prefixes):
            ids[i, :n[i]] = (EOS_ID, *p)
            seg[i, 1:n[i]] = np.cumsum(ids[i, :n[i] - 1] == SEP_ID)
        valid = np.arange(width) < n[:, None]
        pos = shift_positions(np.arange(width), seg, batch.shifts[:, None])
        grid = Grid(np.flatnonzero(valid), np.empty((2, 0), np.int64), valid.shape)
        win, col = np.divmod(grid.rows, width)
        right = (win, width - n[win] + col)  # each input's slot, right-aligned
        forced = {}

        def self_kv(name, h):
            k, v = self._kv(name, h)
            forced[name] = [np.zeros((b, width, cfg.hidden), cfg.np_dtype) for _ in "kv"]
            for part, new in zip(forced[name], (k, v)):
                part[right] = new.data
            return _to_grid(k, grid), _to_grid(v, grid)

        causal = _key_mask(np.tril(np.ones((width, width))), cfg.np_dtype)
        self_mask = causal[None, None] + _key_mask(valid[:, None, None, :], cfg.np_dtype)
        x = self._embed(ids, seg, pos, "tgt_emb", EVAL, rows=grid.rows)
        log_probs = self._decoder(x, self_kv, lambda name, _: cross[name], self_mask,
                                  cross_mask, grid)
        return log_probs.data[np.arange(b), n - 1], forced

    # ------------------------------------------------------------------
    # persistence

    @staticmethod
    def load(path, expect_vocab_digest: str | None = None) -> "TransformerModel":
        params, config_dict = ckpt.load_checkpoint(path, optimizer=False)
        config = ModelConfig(**config_dict)
        if expect_vocab_digest is not None and config.vocab_digest != expect_vocab_digest:
            raise ModelError(
                "vocab digest mismatch between checkpoint and data: "
                f"{config.vocab_digest[:12]} vs {expect_vocab_digest[:12]}")
        return TransformerModel(config, {k: Tensor(v) for k, v in params.items()})
