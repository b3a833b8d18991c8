"""Training loop: warmup LR schedule, early stopping, checkpoint averaging.

One run trains a single model into a run directory containing the
resolved config, vocab, a CSV validation log, rolling checkpoints and an
averaged checkpoint of the validation checkpoints closest to the best.
Runs are bitwise reproducible for a given seed and config in
single-threaded mode, and can be resumed from the last checkpoint.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import checkpoint as ckpt
from .corpus import (Document, Vocab, Window, compute_shift, make_windows,
                     read_contrastive, read_corpus)
from .evaluation import (attention_entropy_rows, current_attention_mass,
                         evaluate_contrastive, overall_accuracy)
from .model import ModelConfig, ModelError, TransformerModel, build_batch, check_model_settings
from .objective import (loss_ratio, masked_discounted_loss, normalized_training_loss,
                        smoothed_nll)
from .parallel import map_ordered
from .rng import stream
from .tensor import Graph, Tensor, backward, record

LOG_COLUMNS = ("epoch", "step", "current_loss", "context_loss", "ratio", "cd")
_LOG_TYPES = (int, int, float, float, float, float)


def read_log(path) -> list[dict]:
    """A run's ``log.csv`` rows as dicts from ``LOG_COLUMNS`` to int or float values."""
    lines = Path(path).read_text().strip().splitlines()[1:]
    return [{name: cast(value) for name, cast, value
             in zip(LOG_COLUMNS, _LOG_TYPES, line.split(","), strict=True)} for line in lines]


class ConfigError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """A non-finite loss or gradient; raised before the update is applied."""

    def __init__(self, step: int, lr: float, grad_norm: float, loss: float,
                 param: str | None):
        where = f"; first non-finite gradient: {param}" if param else ""
        super().__init__(f"training diverged at step {step} (loss={loss!r}, lr={lr:.3e}, "
                         f"grad_norm={grad_norm:.3e}){where}")
        self.step = step
        self.lr = lr
        self.grad_norm = grad_norm
        self.loss = loss
        self.param = param


@dataclass
class TrainConfig:
    data_dir: str = ""
    out_dir: str = ""
    seed: int = 1
    k: int = 2
    cd: float = 1.0
    label_smoothing: float = 0.1
    layers: int = 2
    heads: int = 4
    hidden: int = 128
    ffn: int = 256
    dropout: float = 0.3
    max_window: int = 4
    max_len: int = 512
    position_scheme: str = "plain"
    shift_strategy: str = "avg-corpus"
    segment_variant: str = "none"
    peak_lr: float = 1e-3  # the learning rate at step ``warmup``, where the schedule peaks
    warmup: int = 400
    batch_tokens: int = 1024
    max_epochs: int = 20
    max_steps: int = 0  # 0 = no cap
    patience: int = 12
    val_interval: int = 200
    ckpt_avg: int = 5
    dtype: str = "float32"

    def __post_init__(self):
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.warmup < 1:
            raise ConfigError(f"warmup must be >= 1, got {self.warmup}")
        if self.batch_tokens < 1:
            raise ConfigError(f"batch_tokens must be >= 1, got {self.batch_tokens}")
        if not 0.0 <= self.cd <= 1.0:
            raise ConfigError(f"cd must be in [0, 1], got {self.cd}")
        try:
            check_model_settings(self)
        except ModelError as exc:
            raise ConfigError(str(exc)) from None

    def scale(self) -> float:
        return self.peak_lr * math.sqrt(self.hidden) * math.sqrt(self.warmup)


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def config_from_sources(file_values: dict | None = None,
                        overrides: dict | None = None) -> TrainConfig:
    """Build a TrainConfig from flat string maps; overrides beat file values."""
    merged: dict = {}
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if key not in _FIELD_TYPES:
                valid = ", ".join(sorted(_FIELD_TYPES))
                raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")
            merged[key] = value
    coerced = {}
    for key, value in merged.items():
        ftype = _FIELD_TYPES[key]  # a string: annotations are postponed
        if isinstance(value, str) and ftype in ("int", "float"):
            try:
                value = int(value) if ftype == "int" else float(value)
            except ValueError:
                raise ConfigError(f"config key {key!r} expects {ftype}, got {value!r}") from None
        coerced[key] = value
    return TrainConfig(**coerced)


def config_to_text(config: TrainConfig) -> str:
    return "".join(f"{k} = {v}\n" for k, v in asdict(config).items())


def lr_at(step: int, hidden: int, warmup: int, scale: float = 1.0) -> float:
    """Inverse-square-root schedule with linear warmup; peaks at step == warmup."""
    if step < 1:
        raise ConfigError(f"schedule is defined for steps >= 1, got {step}")
    return scale * hidden ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


class Adam:
    """Adaptive moment estimation, beta = (0.9, 0.98), eps = 1e-9."""

    beta1, beta2, eps = 0.9, 0.98, 1e-9

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def grad_norm(self) -> float:
        """Global gradient norm; inf or nan when a gradient is not finite."""
        sq_sum = 0.0
        for p in self.params.values():
            if p.grad is not None:
                g = p.grad.astype(p.data.dtype, copy=False)
                sq_sum += float((g.astype(np.float64) ** 2).sum())
        return math.sqrt(sq_sum)

    def step(self, lr: float) -> None:
        """Apply one update."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            g = g.astype(p.data.dtype, copy=False)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_tensors(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state(self, tensors: dict[str, np.ndarray], t: int) -> None:
        self.t = t
        for name in self.params:
            self.m[name] = tensors[f"opt.m.{name}"].copy()
            self.v[name] = tensors[f"opt.v.{name}"].copy()


def pack_batches(windows: Sequence, batch_tokens: int,
                 order: np.ndarray | None = None) -> list[list]:
    """Greedy packing by target-token budget; at least one window per batch."""
    idx = np.arange(len(windows)) if order is None else order
    batches: list[list] = []
    cur: list = []
    used = 0
    for i in idx:
        w = windows[int(i)]
        n = len(w.tgt_ids)
        if cur and used + n > batch_tokens:
            batches.append(cur)
            cur, used = [], 0
        cur.append(w)
        used += n
    if cur:
        batches.append(cur)
    return batches


@dataclass
class TrainResult:
    run_dir: Path
    best_step: int
    best_checkpoint: Path
    averaged_checkpoint: Path
    log_path: Path
    stopped_early: bool


def window_losses(model: TransformerModel, batches: Sequence[Sequence[Window]], eps: float,
                  records: list | None = None):
    """Label-smoothed loss sums over each window's current and context spans.

    Returns the lists (current, context, current tokens, context tokens),
    one entry per window in the order of ``batches``. Given a ``records``
    list, the forward passes also capture their attention weights into it.
    The batches are spread over the CPUs by ``parallel.map_ordered``.
    """
    def batch_losses(windows):
        batch = build_batch(windows, model.config)
        log_probs, recs = model.forward(batch, capture=records is not None)
        per_tok = smoothed_nll(log_probs, batch.tgt_out, eps, batch.tgt_valid).data
        cur_mask, ctx_mask = batch.current_mask, batch.context_mask
        return ((per_tok * cur_mask).sum(axis=1).tolist(),
                (per_tok * ctx_mask).sum(axis=1).tolist(),
                cur_mask.sum(axis=1).astype(int).tolist(),
                ctx_mask.sum(axis=1).astype(int).tolist(), recs)

    current, context, current_tokens, context_tokens = [], [], [], []
    for cur, ctx, cur_tok, ctx_tok, recs in map_ordered(batch_losses, batches):
        current.extend(cur)
        context.extend(ctx)
        current_tokens.extend(cur_tok)
        context_tokens.extend(ctx_tok)
        if records is not None:
            records.extend(recs)
    return current, context, current_tokens, context_tokens


def loss_summary(model: TransformerModel, batches: Sequence[Sequence[Window]], eps: float,
                 records: list | None = None) -> tuple[float, float, float]:
    """Per-token current loss, per-token context loss and ``objective.loss_ratio``
    of the windows in ``batches``; ``records`` as in ``window_losses``. The
    context loss is NaN when no window has a context token.
    """
    cur, ctx, cur_tok, ctx_tok = window_losses(model, batches, eps, records)
    return (sum(cur) / max(1, sum(cur_tok)),
            sum(ctx) / sum(ctx_tok) if sum(ctx_tok) else math.nan,
            loss_ratio(cur, ctx, [w.size - 1 for ws in batches for w in ws]))


class Diagnosis(NamedTuple):
    n_windows: int
    current_loss: float
    context_loss: float
    ratio: float
    attention_mass: float
    attention_entropy: float
    entropy_rows: np.ndarray


def diagnose(model: TransformerModel, docs: Sequence[Document], vocab: Vocab, k: int,
             eps: float, limit: int | None) -> Diagnosis:
    """Losses and attention diagnostics of the first ``limit`` windows (all
    when None or 0) of ``docs`` at window size ``k``, forwarded in chunks of
    32: ``loss_summary``, the mean current-sentence attention mass and the
    per-query attention entropies with their mean.
    """
    # windows are made document by document, only up to the limit
    windows = list(itertools.islice((w for d in docs for w in make_windows(d, k, vocab)),
                                    limit or None))
    records: list = []
    losses = loss_summary(model, [windows[lo:lo + 32] for lo in range(0, len(windows), 32)],
                          eps, records)
    rows = attention_entropy_rows(records)
    return Diagnosis(len(windows), *losses, current_attention_mass(records),
                     float(rows.mean()), rows)


def _float_repr(x: float) -> str:
    return repr(float(x))


@dataclass
class Progress:
    """Where a run stands; ``trainer_state.json`` holds exactly these fields."""

    step: int = 0
    epoch: int = 0
    batch_idx: int = 0  # batches of ``epoch`` already trained on
    best: float = math.inf  # lowest dev current loss so far
    best_step: int = -1
    bad: int = 0  # validations since the best one
    saved: list[int] = field(default_factory=list)  # steps with a kept checkpoint
    stopped: bool = False  # early-stopped: ``bad`` reached the patience

    def save(self, path: Path) -> None:
        ckpt.write_atomic(path, json.dumps(asdict(self), indent=0, sort_keys=True).encode())


class Trainer:
    def __init__(self, config: TrainConfig):
        self.cfg = config
        self.run_dir = Path(config.out_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "checkpoints").mkdir(exist_ok=True)

        data = Path(config.data_dir)
        self.train_docs = read_corpus(data / "train.txt")
        self.dev_docs = read_corpus(data / "dev.txt")
        self.vocab = Vocab.from_documents(self.train_docs)
        self.train_windows = [w for d in self.train_docs
                              for w in make_windows(d, config.k, self.vocab)]
        self.dev_windows = [w for d in self.dev_docs
                            for w in make_windows(d, config.k, self.vocab)]

        shift_value = None
        if config.position_scheme == "shifted" and config.shift_strategy != "avg-sequence":
            shift_value = compute_shift(config.shift_strategy, corpus=self.train_docs)
        shared = {f.name: getattr(config, f.name) for f in fields(ModelConfig)
                  if f.name in _FIELD_TYPES}
        self.model_config = ModelConfig(**(shared | dict(
            vocab_size=len(self.vocab), window_size=config.k,
            max_window=max(config.max_window, config.k), vocab_digest=self.vocab.digest,
            shift_value=shift_value)))
        self.model = TransformerModel(self.model_config, seed=config.seed)
        self.opt = Adam(self.model.params)
        self.dev_batches = pack_batches(self.dev_windows, config.batch_tokens)

    # ------------------------------------------------------------------

    def _epoch_batches(self, epoch: int) -> list[list]:
        order = stream(self.cfg.seed, "shuffle", epoch).permutation(len(self.train_windows))
        return pack_batches(self.train_windows, self.cfg.batch_tokens, order)

    def _train_step(self, batch_windows: list, step: int) -> float:
        cfg = self.cfg
        batch = build_batch(batch_windows, self.model_config)
        self.model.zero_grad()
        with record(Graph()):
            log_probs, _ = self.model.forward(batch, train=True, step=step, seed=cfg.seed)
            per_tok = smoothed_nll(log_probs, batch.tgt_out, cfg.label_smoothing,
                                   batch.tgt_valid)
            bd = masked_discounted_loss(per_tok, batch.current_mask, batch.context_mask,
                                        cfg.cd)
            loss = normalized_training_loss(bd)
        loss_val = loss.item()
        backward(loss)
        lr = lr_at(step, cfg.hidden, cfg.warmup, self.cfg.scale())
        grad_norm = self.opt.grad_norm()
        if not (math.isfinite(loss_val) and math.isfinite(grad_norm)):
            # checked before the update, so parameters and optimizer state
            # stay those of the last good step
            bad = next((name for name, p in self.model.params.items()
                        if p.grad is not None and not np.isfinite(p.grad).all()), None)
            raise TrainingDiverged(step=step, lr=lr, grad_norm=grad_norm, loss=loss_val,
                                   param=bad)
        self.opt.step(lr)
        return loss_val

    def _validate(self) -> tuple[float, float, float]:
        """Dev per-token current loss, per-token context loss, per-sentence ratio."""
        return loss_summary(self.model, self.dev_batches, self.cfg.label_smoothing)

    def _checkpoint_path(self, step: int) -> Path:
        return self.run_dir / "checkpoints" / f"ckpt_{step:07d}.bin"

    def _save_checkpoint(self, step: int) -> Path:
        path = self._checkpoint_path(step)
        params = {k: v.data for k, v in self.model.params.items()}
        params.update(self.opt.state_tensors())
        ckpt.save_checkpoint(path, params, asdict(self.model_config))
        return path

    def _prune_checkpoints(self, saved: list[int], best_step: int) -> list[int]:
        cfg = self.cfg
        keep_last = cfg.patience + cfg.ckpt_avg
        margin = cfg.ckpt_avg * cfg.val_interval
        kept = []
        for s in saved:
            recent = s in saved[-keep_last:]
            near_best = abs(s - best_step) <= margin
            if recent or near_best:
                kept.append(s)
            else:
                self._checkpoint_path(s).unlink(missing_ok=True)
        return kept

    def train(self, resume: bool = False) -> TrainResult:
        cfg = self.cfg
        log_path = self.run_dir / "log.csv"
        state_path = self.run_dir / "trainer_state.json"
        rec = Progress()
        if resume and state_path.exists():
            state = json.loads(state_path.read_text())
            # the run's record stays as it is unless this is the same model
            params, stored = ckpt.load_checkpoint(self._checkpoint_path(state["step"]))
            built = asdict(self.model_config)
            differ = [f"{k} ({stored.get(k)!r} saved, {built.get(k)!r} now)"
                      for k in sorted(stored.keys() | built.keys())
                      if stored.get(k) != built.get(k)]
            if differ:
                raise ConfigError(f"cannot resume {self.run_dir}: its model config differs "
                                  f"in {', '.join(differ)}")
            rec = Progress(**state)
            for name, p in self.model.params.items():
                p.data = params[name].copy()
            self.opt.load_state(params, t=rec.step)
        else:
            ckpt.write_atomic(log_path, (",".join(LOG_COLUMNS) + "\n").encode())
        self.vocab.save(self.run_dir / "vocab.json")
        ckpt.write_atomic(self.run_dir / "config.txt", config_to_text(cfg).encode())

        def validate() -> None:
            """Validate, log, checkpoint, track the best dev current loss and save ``rec``."""
            cur, ctx, ratio = self._validate()
            line = ",".join([str(rec.epoch), str(rec.step), _float_repr(cur), _float_repr(ctx),
                             _float_repr(ratio), _float_repr(cfg.cd)]) + "\n"
            ckpt.write_atomic(log_path, log_path.read_bytes() + line.encode())
            self._save_checkpoint(rec.step)
            rec.saved.append(rec.step)
            if cur < rec.best:
                rec.best, rec.best_step, rec.bad = cur, rec.step, 0
            else:
                rec.bad += 1
            rec.saved = self._prune_checkpoints(rec.saved, rec.best_step)
            rec.stopped = rec.bad >= cfg.patience
            rec.save(state_path)

        hit_cap = False
        while not (rec.stopped or hit_cap) and rec.epoch < cfg.max_epochs:
            for batch in self._epoch_batches(rec.epoch)[rec.batch_idx:]:
                rec.step += 1
                rec.batch_idx += 1
                self._train_step(batch, rec.step)
                if rec.step % cfg.val_interval == 0:
                    validate()
                hit_cap = bool(cfg.max_steps) and rec.step >= cfg.max_steps
                if rec.stopped or hit_cap:
                    break
            else:
                rec.epoch += 1
                rec.batch_idx = 0

        if rec.best_step < 0:
            validate()  # no validation happened: the final state is the best
        rec.save(state_path)

        by_distance = sorted(rec.saved, key=lambda s: (abs(s - rec.best_step), s))
        to_average = sorted(by_distance[:max(1, cfg.ckpt_avg)])
        avg_path = self.run_dir / "ckpt_avg.bin"
        ckpt.average_checkpoints([self._checkpoint_path(s) for s in to_average], avg_path)
        return TrainResult(run_dir=self.run_dir, best_step=rec.best_step,
                           best_checkpoint=self._checkpoint_path(rec.best_step),
                           averaged_checkpoint=avg_path, log_path=log_path,
                           stopped_early=rec.stopped)


def train(config: TrainConfig, resume: bool = False) -> TrainResult:
    return Trainer(config).train(resume=resume)


DEFAULT_SWEEP = (1.0, 0.9, 0.7, 0.5, 0.3, 0.1, 0.01, 0.0)
DIAG_WINDOWS = 200  # dev windows each sweep run's attention diagnostics cover


def cd_sweep(base: TrainConfig, cd_values: Sequence[float]) -> list[dict]:
    """Train one model per context discount with shared seed and data.

    Emits, per cd: best dev current-loss, overall dev contrastive accuracy
    and mean attention mass on the current sentence over the first
    ``DIAG_WINDOWS`` dev windows. Failures are recorded per run and the
    sweep continues.
    """
    base_out = Path(base.out_dir)
    data = Path(base.data_dir)
    rows: list[dict] = []
    for cd in cd_values:
        row: dict = {"cd": cd}
        try:
            cfg = config_from_sources(
                {k: v for k, v in asdict(base).items()},
                {"cd": cd, "out_dir": str(base_out / f"cd_{cd:g}")})
            result = train(cfg)
            model = TransformerModel.load(result.averaged_checkpoint)
            vocab = Vocab.load(result.run_dir / "vocab.json")
            dev_examples = read_contrastive(data / "contrastive_dev.jsonl")
            results = evaluate_contrastive(model, dev_examples, vocab)
            diag = diagnose(model, read_corpus(data / "dev.txt"), vocab, cfg.k,
                            cfg.label_smoothing, DIAG_WINDOWS)
            row.update({
                "best_dev_current_loss": min(r["current_loss"] for r in read_log(result.log_path)),
                "contrastive_accuracy": overall_accuracy(results),
                "attention_mass": diag.attention_mass,
                "attention_entropy": diag.attention_entropy,
                "run_dir": str(result.run_dir),
            })
        except Exception as exc:  # keep sweeping remaining values
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows
