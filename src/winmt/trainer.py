"""Training loop: warmup LR schedule, early stopping, checkpoint averaging.

One run trains a single model into a run directory containing the
resolved config, vocab, a CSV validation log, rolling checkpoints and an
averaged checkpoint of the validation checkpoints closest to the best.
Runs are bitwise reproducible for a given seed and config in
single-threaded mode, and can be resumed from the last checkpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import checkpoint as ckpt
from .corpus import EncodedCorpus, Vocab, Window, compute_shift, read_contrastive
from .evaluation import EvalError, evaluate_contrastive, overall_accuracy, teacher_forced
from .model import (Batch, ModelConfig, ModelError, TransformerModel, build_batch,
                    check_model_settings)
from .objective import (loss_ratio, masked_discounted_loss, normalized_training_loss,
                        smoothed_nll)
from .parallel import serve, shared_arrays
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
        """Take the moments in ``tensors`` as they are, to update in place."""
        self.t = t
        for name in self.params:
            self.m[name] = tensors[f"opt.m.{name}"]
            self.v[name] = tensors[f"opt.v.{name}"]


def pack_batches(items: Sequence, batch_tokens: int, order: np.ndarray | None = None,
                 lengths: Sequence[int] | None = None) -> list[list]:
    """Greedy packing by target-token budget; at least one item per batch.

    ``items`` are taken in ``order`` (their own by default), and a batch is
    closed when the next item's target tokens would exceed ``batch_tokens``.
    Item i has ``lengths[i]`` target tokens, ``len(items[i].tgt_ids)`` when
    ``lengths`` is None.
    """
    if lengths is None:
        lengths = [len(w.tgt_ids) for w in items]
    batches: list[list] = []
    cur: list = []
    used = 0
    for i in range(len(items)) if order is None else order.tolist():
        n = lengths[i]
        if cur and used + n > batch_tokens:
            batches.append(cur)
            cur, used = [], 0
        cur.append(items[i])
        used += n
    if cur:
        batches.append(cur)
    return batches


def by_length(lengths: Sequence[int]) -> np.ndarray:
    """Indices of ``lengths`` ordered by (length, index)."""
    return np.argsort(lengths, kind="stable")


def split_shards(windows: Sequence[Window]) -> list[list[Window]]:
    """The two shards of a training batch: its windows ordered by (target
    length, position in the batch), cut after the window at which the
    running target-token count first reaches half the batch's. The second
    shard is empty when that window is the last, as in a one-window batch."""
    ordered = [windows[i] for i in by_length([len(w.tgt_ids) for w in windows]).tolist()]
    running = np.cumsum([len(w.tgt_ids) for w in ordered])
    total = int(running[-1]) if len(ordered) else 0
    cut = int(np.searchsorted(2 * running, total)) + 1
    return [ordered[:cut], ordered[cut:]]


@dataclass
class TrainResult:
    run_dir: Path
    best_step: int
    best_checkpoint: Path
    averaged_checkpoint: Path
    log_path: Path
    stopped_early: bool


def span_losses(model: TransformerModel, corpus: EncodedCorpus, k: int,
                batches: Sequence[Sequence[int]], eps: float, capture: bool = False
                ) -> tuple[tuple[float, float, float], tuple[np.ndarray, np.ndarray] | None]:
    """Label-smoothed losses of the size-``k`` windows of ``corpus`` whose
    indices ``batches`` hold, from ``evaluation.teacher_forced``: the
    per-token current loss, the per-token context loss (NaN when no window
    has a context token) and ``objective.loss_ratio``; and, with
    ``capture``, the attention entropy rows and current-mass rows (else None).
    """
    rows = teacher_forced(model, batches, lambda idx: corpus.windows(idx, k), eps, capture)
    losses = (sum(rows.current) / max(1, rows.current_tokens),
              sum(rows.context) / rows.context_tokens if rows.context_tokens else math.nan,
              loss_ratio(rows.current, rows.context, rows.contexts))
    return losses, (rows.entropies, rows.masses) if capture else None


class Diagnosis(NamedTuple):
    n_windows: int
    current_loss: float
    context_loss: float
    ratio: float
    attention_mass: float
    attention_entropy: float
    entropy_rows: np.ndarray


def diagnose(model: TransformerModel, corpus: EncodedCorpus, k: int, eps: float,
             limit: int | None) -> Diagnosis:
    """Losses and attention diagnostics of the first ``limit`` windows (all
    when None or 0) of ``corpus`` at window size ``k``, forwarded in chunks
    of 32: ``span_losses``, the mean current-sentence attention mass and
    the per-query attention entropies with their mean.
    """
    n = min(limit, len(corpus)) if limit else len(corpus)
    if not n:
        raise EvalError("no windows to diagnose")
    batches = [range(lo, min(lo + 32, n)) for lo in range(0, n, 32)]
    losses, (rows, masses) = span_losses(model, corpus, k, batches, eps, capture=True)
    return Diagnosis(n, *losses, float(masses.mean()), float(rows.mean()), rows)


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

        # the splits stay token ids; each batch's windows are built when it runs
        data = Path(config.data_dir)
        self.vocab = Vocab.from_corpus_file(data / "train.txt")
        self.train_corpus = EncodedCorpus.read(data / "train.txt", self.vocab)
        self.dev_corpus = EncodedCorpus.read(data / "dev.txt", self.vocab)
        self._train_lengths = self.train_corpus.target_lengths(config.k)

        shift_value = None
        if config.position_scheme == "shifted" and config.shift_strategy != "avg-sequence":
            shift_value = compute_shift(config.shift_strategy,
                                        lengths=self.train_corpus.source_lengths())
        shared = {f.name: getattr(config, f.name) for f in fields(ModelConfig)
                  if f.name in _FIELD_TYPES}
        self.model_config = ModelConfig(**(shared | dict(
            vocab_size=len(self.vocab), window_size=config.k,
            max_window=max(config.max_window, config.k), vocab_digest=self.vocab.digest,
            shift_value=shift_value)))
        self.model = TransformerModel(self.model_config, seed=config.seed)
        self.opt = Adam(self.model.params)
        # the dev windows' indices, length-sorted so a dev batch holds little padding
        dev_lengths = self.dev_corpus.target_lengths(config.k)
        self.dev_batches = pack_batches(range(len(self.dev_corpus)), config.batch_tokens,
                                        by_length(dev_lengths), dev_lengths)
        self._shard_worker = None  # computes shard 1 of each step while ``train`` runs
        self._shard_grads = None  # shard 1's gradients, which the worker writes

    # ------------------------------------------------------------------

    def _epoch_batches(self, epoch: int) -> list[list[int]]:
        """The training windows' indices of each batch of ``epoch``, in its shuffled order."""
        n = len(self.train_corpus)
        order = stream(self.cfg.seed, "shuffle", epoch).permutation(n)
        return pack_batches(range(n), self.cfg.batch_tokens, order, self._train_lengths)

    def _shard_backward(self, batch: Batch, step: int, shard: int,
                        current_tokens: int) -> float:
        """Forward and backward of shard ``shard`` of a training batch with
        ``current_tokens`` current-sentence tokens, into gradients zeroed
        first; the shard's share of the batch's loss."""
        cfg = self.cfg
        self.model.zero_grad()
        with record(Graph()):
            log_probs, _ = self.model.forward(batch, train=True, step=step, seed=cfg.seed,
                                              shard=shard)
            per_tok = smoothed_nll(log_probs, batch.tgt_out, cfg.label_smoothing,
                                   batch.tgt_valid)
            bd = masked_discounted_loss(per_tok, batch.current_mask, batch.context_mask,
                                        cfg.cd)
            loss = normalized_training_loss(bd, current_tokens)
        loss_val = loss.item()
        backward(loss)
        return loss_val

    def _grads(self) -> dict[str, np.ndarray]:
        return {name: p.grad for name, p in self.model.params.items()}

    def _start_shard_worker(self) -> None:
        """Move every parameter into memory shared with the worker that runs
        shard 1 of each step, then fork that worker after the buffers for
        its gradients; no worker where ``parallel.serve`` forks none. The
        parameters stay in the shared memory, where Adam updates them in
        place, so the worker reads each step's parameters without a copy."""
        params = self.model.params
        shared = shared_arrays({name: p.data for name, p in params.items()})
        for name, p in params.items():
            np.copyto(shared[name], p.data)
            p.data = shared[name]
        self._shard_grads = shared_arrays(shared)
        self._shard_worker = serve(self._serve_shard)

    def _stop_shard_worker(self) -> None:
        if self._shard_worker is not None:
            self._shard_worker.close()
        self._shard_worker = self._shard_grads = None

    def _serve_shard(self, step: int, batch: Batch, current_tokens: int) -> float:
        """In the shard worker: the loss of shard 1 ``batch`` of ``step``, with
        the gradient of every parameter written to the shared buffer. The
        parameters are the parent's own arrays, in the memory they share."""
        loss_val = self._shard_backward(batch, step, 1, current_tokens)
        for name, p in self.model.params.items():
            np.copyto(self._shard_grads[name], p.grad, casting="no")
        self.model.zero_grad()
        return loss_val

    def _train_step(self, batch: list[int], step: int) -> float:
        """One update from the summed gradients of the two shards of the
        training windows ``batch``.

        Every parameter gets a gradient from every non-empty shard, so each
        gradient is shard 0's plus shard 1's, or shard 0's alone when shard
        1 is empty. Shard 1 runs in the shard worker while this process runs
        shard 0, or here after shard 0 when there is no worker; either way
        the sums are the same bytes.
        """
        cfg = self.cfg
        windows = self.train_corpus.windows(batch, cfg.k)
        shards = [build_batch(ws, self.model_config) for ws in split_shards(windows) if ws]
        current_tokens = sum(int(b.current_mask.sum()) for b in shards)
        worker = self._shard_worker if len(shards) > 1 else None
        if worker is not None:
            worker.send(step, shards[1], current_tokens)
        loss_val = self._shard_backward(shards[0], step, 0, current_tokens)
        if len(shards) > 1:
            grads = self._grads()
            if worker is not None:
                loss_val += worker.result()
                more = self._shard_grads
            else:
                loss_val += self._shard_backward(shards[1], step, 1, current_tokens)
                more = self._grads()
            for name, p in self.model.params.items():
                # a shared buffer belongs to its parameter alone, unlike a
                # gradient that backward may hand to several leaves
                p.grad = np.add(grads[name], more[name],
                                out=more[name] if worker is not None else None)
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
        return span_losses(self.model, self.dev_corpus, self.cfg.k, self.dev_batches,
                           self.cfg.label_smoothing)[0]

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
        """Train to the step cap, the epoch limit or an early stop.

        Every ``val_interval`` steps the loop writes a checkpoint and computes
        the dev losses over every CPU before the next step. For the duration
        of the loop a served worker computes shard 1 of every step. Every
        worker is stopped and reaped before this returns or raises.
        """
        cfg = self.cfg
        log_path = self.run_dir / "log.csv"
        state_path = self.run_dir / "trainer_state.json"
        rec = Progress()  # as of the last validation, whose checkpoint exists
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
                p.data = params[name]
            self.opt.load_state(params, t=rec.step)
            del params  # the model and the optimizer own the loaded arrays
        else:
            ckpt.write_atomic(log_path, (",".join(LOG_COLUMNS) + "\n").encode())
        self.vocab.save(self.run_dir / "vocab.json")
        ckpt.write_atomic(self.run_dir / "config.txt", config_to_text(cfg).encode())

        def apply(at: tuple[int, int, int], losses: tuple[float, float, float]) -> None:
            """Log the dev losses of the validation at ``at`` = (epoch, step,
            batch_idx), whose checkpoint is written, track the best dev current
            loss and save ``rec`` at that position."""
            rec.epoch, rec.step, rec.batch_idx = at
            cur, ctx, ratio = losses
            line = ",".join([str(rec.epoch), str(rec.step), _float_repr(cur), _float_repr(ctx),
                             _float_repr(ratio), _float_repr(cfg.cd)]) + "\n"
            ckpt.write_atomic(log_path, log_path.read_bytes() + line.encode())
            rec.saved.append(rec.step)
            if cur < rec.best:
                rec.best, rec.best_step, rec.bad = cur, rec.step, 0
            else:
                rec.bad += 1
            rec.saved = self._prune_checkpoints(rec.saved, rec.best_step)
            rec.stopped = rec.bad >= cfg.patience
            rec.save(state_path)

        epoch, step, batch_idx = rec.epoch, rec.step, rec.batch_idx
        hit_cap = bool(cfg.max_steps) and step >= cfg.max_steps  # a resumed run may be done
        try:
            self._start_shard_worker()
            while not (rec.stopped or hit_cap) and epoch < cfg.max_epochs:
                batches = self._epoch_batches(epoch)
                for batch in batches[batch_idx:]:
                    step += 1
                    batch_idx += 1
                    self._train_step(batch, step)
                    hit_cap = bool(cfg.max_steps) and step >= cfg.max_steps
                    if step % cfg.val_interval == 0:
                        self._save_checkpoint(step)
                        apply((epoch, step, batch_idx), self._validate())
                    if rec.stopped or hit_cap:
                        break
                else:
                    epoch += 1
                    batch_idx = 0
        finally:
            self._stop_shard_worker()

        if rec.best_step < 0:  # no validation happened: the final state is the best
            self._save_checkpoint(step)
            apply((epoch, step, batch_idx), self._validate())

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
    ``DIAG_WINDOWS`` dev windows. ``contrastive_dev.jsonl`` is read before
    any training, so a missing or bad file raises at once. A run that
    fails is recorded with its error and the sweep continues.
    """
    base_out = Path(base.out_dir)
    data = Path(base.data_dir)
    dev_examples = read_contrastive(data / "contrastive_dev.jsonl")
    rows: list[dict] = []
    for cd in cd_values:
        row: dict = {"cd": cd}
        try:
            cfg = replace(base, cd=cd, out_dir=str(base_out / f"cd_{cd:g}"))
            result = train(cfg)
            model = TransformerModel.load(result.averaged_checkpoint)
            vocab = Vocab.load(result.run_dir / "vocab.json")
            results = evaluate_contrastive(model, dev_examples, vocab)
            diag = diagnose(model, EncodedCorpus.read(data / "dev.txt", vocab), cfg.k,
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
