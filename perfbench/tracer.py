"""Per-layer tracing of winmt from outside the program.

``Tracer.install`` replaces each traced function with a timing wrapper in
every winmt module that holds it (``model.py`` and ``objective.py`` import
the tensor primitives by name) and on the classes that own traced
methods. Spans nest; each span's self time is its duration minus the
time of the traced spans it encloses. A tensor primitive recorded on a
tape also gets its node's backward function wrapped, reached through the
public ``Tensor.graph.nodes[Tensor.node_id]``, so backward time is split
by op. Garbage-collector pauses come from ``gc.callbacks``.

Only the traced run imports this module; untraced runs install nothing.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
import time

TENSOR_OPS = ("matmul", "add", "sub", "mul", "add_const", "mul_const", "reshape",
              "transpose", "relu", "softmax", "log_softmax", "layer_norm", "embedding",
              "dropout", "reduce_sum", "gather_last")

# (module, attribute path, span label); several functions may share a label
SPANS = [
    ("winmt.rng", "stream", "rng.stream"),
    ("winmt.model", "build_batch", "model.build_batch"),
    ("winmt.model", "TransformerModel.forward", None),  # forward_train / forward_eval
    ("winmt.model", "TransformerModel.score_windows", "model.score_windows"),
    ("winmt.model", "TransformerModel.decode", "model.decode"),
    ("winmt.objective", "smoothed_nll", "objective.smoothed_nll"),
    ("winmt.objective", "masked_discounted_loss", "objective.masked_discounted_loss"),
    ("winmt.trainer", "Trainer._train_step", "trainer.step"),
    ("winmt.trainer", "Adam.step", "trainer.adam"),
    ("winmt.trainer", "pack_batches", "trainer.pack_batches"),
    ("winmt.trainer", "Trainer._validate", "trainer.validate"),
    ("winmt.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("winmt.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("winmt.checkpoint", "average_checkpoints", "checkpoint.average"),
    ("winmt.corpus", "read_corpus", "corpus.read"),
    ("winmt.corpus", "read_contrastive", "corpus.read"),
    ("winmt.corpus", "make_windows", "corpus.make_windows"),
    ("winmt.corpus", "ContrastiveExample.candidate_windows", "corpus.candidate_windows"),
    ("winmt.corpus", "rebuild_examples", "corpus.rebuild_examples"),
    ("winmt.evaluation", "decode_current_sentences", "evaluation.decode_current_sentences"),
    ("winmt.evaluation", "bleu", "evaluation.bleu"),
    ("winmt.evaluation", "bleu_stats", "evaluation.bleu"),
    ("winmt.evaluation", "bleu_from_stats", "evaluation.bleu"),
    ("winmt.evaluation", "evaluate_contrastive", "evaluation.evaluate_contrastive"),
    ("winmt.evaluation", "attention_entropy_rows", "evaluation.attention"),
    ("winmt.evaluation", "attention_entropy", "evaluation.attention"),
    ("winmt.evaluation", "current_attention_mass", "evaluation.attention"),
    ("winmt.stats", "paired_bleu_randomization", "stats.paired_bleu_randomization"),
]

# per-layer metric -> (unit, better); every traced run reports all of them
METRICS: dict[str, tuple[str, str]] = {}
for _op in TENSOR_OPS:
    METRICS[f"tensor.{_op}.fwd_s"] = ("s", "lower")
    METRICS[f"tensor.{_op}.bwd_s"] = ("s", "lower")
    METRICS[f"tensor.{_op}.calls"] = ("count", "lower")
METRICS.update({
    "tensor.backward_s": ("s", "lower"),
    "tensor.tape_nodes_per_step": ("count", "lower"),
    "tensor.gc_pause_s": ("s", "lower"),
    "tensor.gc_gen2_collections": ("count", "lower"),
    "rng.stream_s": ("s", "lower"),
    "rng.stream.calls": ("count", "lower"),
    "model.build_batch_s": ("s", "lower"),
    "model.build_batch.calls": ("count", "lower"),
    "model.tgt_pad_frac": ("fraction", "lower"),
    "model.forward_train_s": ("s", "lower"),
    "model.forward_eval_s": ("s", "lower"),
    "model.score_windows_s": ("s", "lower"),
    "model.decode_s": ("s", "lower"),
    "model.decode.calls": ("count", "lower"),
    "model.decode.tokens": ("count", "lower"),
    "objective.smoothed_nll_s": ("s", "lower"),
    "objective.masked_discounted_loss_s": ("s", "lower"),
    "trainer.step_p50_s": ("s", "lower"),
    "trainer.step_p90_s": ("s", "lower"),
    "trainer.steps": ("count", "higher"),
    "trainer.adam_s": ("s", "lower"),
    "trainer.pack_batches_s": ("s", "lower"),
    "trainer.validate_s": ("s", "lower"),
    "trainer.validate.calls": ("count", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.save_bytes": ("bytes", "lower"),
    "checkpoint.average_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "corpus.read_s": ("s", "lower"),
    "corpus.make_windows_s": ("s", "lower"),
    "corpus.candidate_windows_s": ("s", "lower"),
    "corpus.rebuild_examples_s": ("s", "lower"),
    "evaluation.decode_current_sentences_s": ("s", "lower"),
    "evaluation.decode_current_sentences.calls": ("count", "lower"),
    "evaluation.bleu_s": ("s", "lower"),
    "evaluation.evaluate_contrastive_s": ("s", "lower"),
    "evaluation.attention_s": ("s", "lower"),
    "stats.paired_bleu_randomization_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Self time and calls per span label, plus the counts the metrics need."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.stack: list[list] = []  # [label, time spent in child spans]
        self.step_s: list[float] = []
        self.tape_nodes = 0
        self.backwards = 0
        self.tgt_real = 0
        self.tgt_slots = 0
        self.step_tokens = 0  # real target tokens in batches built by training steps
        self.decode_tokens = 0
        self.save_bytes = 0
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = None

    # ------------------------------------------------------------------
    # spans

    def _enter(self, label: str) -> float:
        self.stack.append([label, 0.0])
        return time.perf_counter()

    def _leave(self, label: str, start: float) -> float:
        elapsed = time.perf_counter() - start
        _, child = self.stack.pop()
        self.self_s[label] = self.self_s.get(label, 0.0) + elapsed - child
        self.calls[label] = self.calls.get(label, 0) + 1
        if self.stack:
            self.stack[-1][1] += elapsed
        return elapsed

    def _span(self, label, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            start = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = tracer._leave(name, start)
            if after is not None:
                after(args, kwargs, out, elapsed)
            return out

        return wrapper

    def _op(self, op: str, fn):
        """A tensor primitive: forward span, plus a span on its tape node's backward."""
        tracer = self
        fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"

        def timed_backward(backward_fn):
            def run(g):
                start = tracer._enter(bwd)
                try:
                    return backward_fn(g)
                finally:
                    tracer._leave(bwd, start)
            return run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = tracer._enter(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(fwd, start)
            # dropout at rate 0 returns its input, whose node is already wrapped
            if out.graph is not None and not any(out is a for a in args):
                node = out.graph.nodes[out.node_id]
                node.backward_fn = timed_backward(node.backward_fn)
            return out

        return wrapper

    # ------------------------------------------------------------------
    # observers of particular results

    def _after_build_batch(self, args, kwargs, batch, elapsed):
        real = int(batch.tgt_valid.sum())
        self.tgt_real += real
        self.tgt_slots += int(batch.tgt_valid.size)
        if any(label == "trainer.step" for label, _ in self.stack):
            self.step_tokens += real

    def _after_step(self, args, kwargs, out, elapsed):
        self.step_s.append(elapsed)

    def _after_decode(self, args, kwargs, out, elapsed):
        self.decode_tokens += sum(len(ids) for ids in out)

    def _after_save(self, args, kwargs, out, elapsed):
        path = args[0] if args else kwargs["path"]
        self.save_bytes += os.path.getsize(path)

    def _backward(self, fn):
        span = self._span("tensor.backward", fn)

        @functools.wraps(fn)
        def wrapper(loss):
            if loss.graph is not None:
                self.tape_nodes += len(loss.graph.nodes)
                self.backwards += 1
            return span(loss)

        return wrapper

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; call once, before any command runs."""
        import winmt.cli  # noqa: F401  (loads every module the commands use)

        modules = [m for name, m in sys.modules.items()
                   if name == "winmt" or name.startswith("winmt.")]

        def replace_everywhere(original, wrapped):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

        tensor = sys.modules["winmt.tensor"]
        for op in TENSOR_OPS:
            original = getattr(tensor, op)
            replace_everywhere(original, self._op(op, original))
        replace_everywhere(tensor.backward, self._backward(tensor.backward))

        afters = {"model.build_batch": self._after_build_batch,
                  "trainer.step": self._after_step,
                  "model.decode": self._after_decode,
                  "checkpoint.save": self._after_save}
        for module_name, path, label in SPANS:
            owner = sys.modules[module_name]
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            if label is None:  # TransformerModel.forward, split by its train flag
                label = lambda a, k: ("model.forward_train" if k.get("train")
                                      else "model.forward_eval")
            wrapped = self._span(label, original, afters.get(label))
            if outer:
                setattr(owner, name, wrapped)
            else:
                replace_everywhere(original, wrapped)
        gc.callbacks.append(self._gc)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``, which needs an untraced run."""
        s = lambda label: self.self_s.get(label, 0.0)
        n = lambda label: self.calls.get(label, 0)
        out: dict[str, float] = {}
        for op in TENSOR_OPS:
            out[f"tensor.{op}.fwd_s"] = s(f"tensor.{op}.fwd")
            out[f"tensor.{op}.bwd_s"] = s(f"tensor.{op}.bwd")
            out[f"tensor.{op}.calls"] = n(f"tensor.{op}.fwd")
        out.update({
            "tensor.backward_s": s("tensor.backward"),
            "tensor.tape_nodes_per_step": self.tape_nodes / max(1, self.backwards),
            "tensor.gc_pause_s": self.gc_pause_s,
            "tensor.gc_gen2_collections": self.gc_gen2,
            "rng.stream_s": s("rng.stream"),
            "rng.stream.calls": n("rng.stream"),
            "model.build_batch_s": s("model.build_batch"),
            "model.build_batch.calls": n("model.build_batch"),
            "model.tgt_pad_frac": 1.0 - self.tgt_real / max(1, self.tgt_slots),
            "model.forward_train_s": s("model.forward_train"),
            "model.forward_eval_s": s("model.forward_eval"),
            "model.score_windows_s": s("model.score_windows"),
            "model.decode_s": s("model.decode"),
            "model.decode.calls": n("model.decode"),
            "model.decode.tokens": self.decode_tokens,
            "objective.smoothed_nll_s": s("objective.smoothed_nll"),
            "objective.masked_discounted_loss_s": s("objective.masked_discounted_loss"),
            "trainer.step_p50_s": _percentile(self.step_s, 50),
            "trainer.step_p90_s": _percentile(self.step_s, 90),
            "trainer.steps": len(self.step_s),
            "trainer.adam_s": s("trainer.adam"),
            "trainer.pack_batches_s": s("trainer.pack_batches"),
            "trainer.validate_s": s("trainer.validate"),
            "trainer.validate.calls": n("trainer.validate"),
            "checkpoint.save_s": s("checkpoint.save"),
            "checkpoint.save_bytes": self.save_bytes,
            "checkpoint.average_s": s("checkpoint.average"),
            "checkpoint.load_s": s("checkpoint.load"),
            "corpus.read_s": s("corpus.read"),
            "corpus.make_windows_s": s("corpus.make_windows"),
            "corpus.candidate_windows_s": s("corpus.candidate_windows"),
            "corpus.rebuild_examples_s": s("corpus.rebuild_examples"),
            "evaluation.decode_current_sentences_s": s("evaluation.decode_current_sentences"),
            "evaluation.decode_current_sentences.calls": n("evaluation.decode_current_sentences"),
            "evaluation.bleu_s": s("evaluation.bleu"),
            "evaluation.evaluate_contrastive_s": s("evaluation.evaluate_contrastive"),
            "evaluation.attention_s": s("evaluation.attention"),
            "stats.paired_bleu_randomization_s": s("stats.paired_bleu_randomization"),
        })
        assert set(out) | {"trace.overhead_s"} == set(METRICS)
        return out
