"""Acceptance suite.

One test per criterion; each prints a [PASS]/[FAIL] line. The module
holds criteria 1-4, 8 and 9: contrastive aggregation, the loss
identities, full-model gradients against finite differences (of single
windows and of a training step's two shards), positional properties, the
significance tests and bitwise training determinism.
Criterion 3's gradient oracle takes most of its time, about half a
minute of CPU on a desktop, spread over every CPU. No test trains a
model to convergence, so the trained-model criteria 5-7 are not here.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from winmt import corpus as C
from winmt import synth
from winmt import tensor as T
from winmt.evaluation import (aggregate_from_stats, attention_entropy,
                              attention_entropy_rows, bleu,
                              current_attention_mass, decode_current_sentences,
                              evaluate_contrastive)
from winmt.model import ModelConfig, TransformerModel, build_batch
from winmt.objective import masked_discounted_loss, partition_masks, smoothed_nll
from winmt.parallel import map_ordered
from winmt.positions import sinusoidal_pe
from winmt.rng import stream
from winmt.stats import approx_randomization, mcnemar
from winmt.trainer import TrainConfig, Trainer, split_shards, train

from reference_ops import concat_loss, finite_diff_check, shifted_positions


def report(criterion: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" — {detail}" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: aggregation reproduction (exact)


def test_criterion_1_aggregation_reproduction():
    by_distance = {"1": (32.89, 7075), "2": (43.97, 1510), "3": (47.99, 573),
                   ">3": (70.58, 442)}
    rep = aggregate_from_stats(by_distance)
    ok_disc = abs(rep.disc - 37.27) <= 0.005
    ok_avg = abs(rep.disc_avg - 48.86) <= 0.005
    by_phenomenon = {"deixis": (50.00, 2500), "lex": (45.87, 1500),
                     "ell_infl": (51.80, 500), "ell_vp": (27.00, 500)}
    rep2 = aggregate_from_stats(by_phenomenon, context_requiring=list(by_phenomenon))
    ok_ru = abs(rep2.disc - 46.64) <= 0.005
    report("criterion 1: aggregation reproduction",
           ok_disc and ok_avg and ok_ru,
           f"disc={rep.disc:.4f} disc_avg={rep.disc_avg:.4f} disc_ru={rep2.disc:.4f}")


# ---------------------------------------------------------------------------
# criterion 2: loss identities (exact)


def test_criterion_2_loss_identities():
    docs, _ = synth.gen_synthetic(7, n_docs=260, vocab_size=32)
    vocab = C.Vocab.from_documents(docs)
    windows = [w for d in docs for w in C.make_windows(d, 2, vocab)]
    assert len(windows) >= 1000
    windows = windows[:1000]
    rng = stream(0, "acc2")
    max_rel_total = max_rel_split = 0.0
    current, context = partition_masks(windows)
    for w, cur, ctx in zip(windows, current, context):
        # padding holds a loss that neither side may count
        losses = np.full(len(cur), 7.0)
        losses[:len(w.tgt_ids)] = rng.uniform(0.01, 3.0, len(w.tgt_ids))
        losses = T.Tensor(losses)
        bd = masked_discounted_loss(losses, cur, ctx, cd=1.0)
        eq1 = concat_loss(losses, w).item()
        max_rel_total = max(max_rel_total, abs(bd.discounted_total.item() - eq1) / abs(eq1))
        max_rel_split = max(max_rel_split, abs(
            (bd.current_loss.item() + bd.context_loss.item()) - eq1) / abs(eq1))
    ok_ident = max_rel_total < 1e-9 and max_rel_split < 1e-9

    # context-position logit gradients scale linearly with cd
    max_rel_grad = 0.0
    with_context = [w for w in windows if w.size >= 2][:50]
    for w in with_context:
        n = len(w.tgt_ids)
        logits = rng.normal(0, 2, (1, n, len(vocab)))
        targets = np.array(w.tgt_ids)[None, :]
        cur, ctx = partition_masks([w])
        grads = {}
        for cd in (1.0, 0.01):
            x = T.Tensor(logits.copy())
            with T.record(T.Graph()):
                lp = T.log_softmax(x, axis=-1)
                per_tok = smoothed_nll(lp, targets, 0.1)
                bd = masked_discounted_loss(per_tok, cur, ctx, cd)
            T.backward(bd.discounted_total)
            grads[cd] = x.grad[0]
        ctx_rows = ctx[0] > 0
        a = grads[1.0][ctx_rows] * 0.01
        b = grads[0.01][ctx_rows]
        denom = np.maximum(np.abs(a), 1e-300)
        max_rel_grad = max(max_rel_grad, float(np.max(np.abs(a - b) / denom)))
    ok_grad = max_rel_grad < 1e-7
    report("criterion 2: loss identities", ok_ident and ok_grad,
           f"total_rel={max_rel_total:.1e} split_rel={max_rel_split:.1e} "
           f"grad_rel={max_rel_grad:.1e} over 1000 windows")


# ---------------------------------------------------------------------------
# criterion 3: gradient correctness (full model vs finite differences)


def test_criterion_3_full_model_gradients():
    docs, _ = synth.gen_synthetic(11, n_docs=12, vocab_size=24)
    vocab = C.Vocab.from_documents(docs)
    windows = [w for d in docs for w in C.make_windows(d, 2, vocab)]
    config = ModelConfig(vocab_size=len(vocab), layers=2, heads=2, hidden=32,
                         ffn=64, dropout=0.0, dtype="float64")
    model = TransformerModel(config, seed=13)
    rng = stream(0, "acc3")
    # every coordinate is drawn first, window by window as the checks go,
    # so that the windows can be checked on every CPU
    checks = [(w, {name: rng.choice(p.data.size, size=min(3, p.data.size),
                                    replace=False).tolist()
                   for name, p in model.params.items()}) for w in windows[:20]]

    def window_error(check) -> float:
        w, coords = check
        batch = build_batch([w], config)

        def loss_with(name, x):
            saved = model.params[name]
            model.params[name] = x
            try:
                lp, _ = model.forward(batch)
                per_tok = smoothed_nll(lp, batch.tgt_out, 0.1, batch.tgt_valid)
                bd = masked_discounted_loss(per_tok, batch.current_mask,
                                            batch.context_mask, 0.3)
                return T.mul_const(bd.discounted_total, 1.0 / int(batch.current_mask.sum()))
            finally:
                model.params[name] = saved

        return max(finite_diff_check(lambda x, _n=name: loss_with(_n, x),
                                     model.params[name], h=1e-5, coords=coords[name])
                   for name in model.params)

    worst = max(map_ordered(window_error, checks))
    checked = sum(len(c) for _, coords in checks for c in coords.values())
    report("criterion 3: full-model gradient check", worst < 1e-4,
           f"max rel err {worst:.2e} over {checked} coordinates, 20 windows")


def test_criterion_3_sharded_step_gradients(tmp_path):
    # a training step sums the gradients of its two shards; at float64 with
    # no dropout that sum is the gradient of the whole batch's normalised loss
    docs, _ = synth.gen_synthetic(11, n_docs=12, vocab_size=24)
    C.write_corpus(tmp_path / "train.txt", docs[:10])
    C.write_corpus(tmp_path / "dev.txt", docs[10:])
    trainer = Trainer(TrainConfig(data_dir=str(tmp_path), out_dir=str(tmp_path / "run"),
                                  layers=2, heads=2, hidden=32, ffn=64, dropout=0.0,
                                  dtype="float64", cd=0.3))
    windows = trainer.train_corpus.windows(range(6), trainer.cfg.k)
    first, second = split_shards(windows)
    assert first and second
    trainer.opt.step = lambda lr: None  # keep the parameters the gradients are taken at
    trainer._train_step(list(range(6)), 1)
    batch = build_batch(windows, trainer.model_config)
    params = trainer.model.params

    def whole_batch_loss():
        lp, _ = trainer.model.forward(batch)
        per_tok = smoothed_nll(lp, batch.tgt_out, 0.1, batch.tgt_valid)
        bd = masked_discounted_loss(per_tok, batch.current_mask, batch.context_mask, 0.3)
        return T.mul_const(bd.discounted_total, 1.0 / int(batch.current_mask.sum())).item()

    rng = stream(0, "acc3-shards")
    worst, checked, h = 0.0, 0, 1e-5
    for name, p in params.items():
        flat = p.data.reshape(-1)
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            saved = flat[i]
            flat[i] = saved + h
            fp = whole_batch_loss()
            flat[i] = saved - h
            fm = whole_batch_loss()
            flat[i] = saved
            numeric = (fp - fm) / (2.0 * h)
            analytic = p.grad.reshape(-1)[i]
            worst = max(worst, abs(analytic - numeric)
                        / max(1e-12, abs(analytic) + abs(numeric)))
            checked += 1
    report("criterion 3: sharded step gradient check", worst < 1e-4,
           f"max rel err {worst:.2e} over {checked} coordinates, shards of "
           f"{len(first)} and {len(second)} windows")


# ---------------------------------------------------------------------------
# criterion 4: positional properties (exact)


def test_criterion_4_positional_properties():
    rng = stream(0, "acc4")
    ok_gap = ok_intra = True
    for _ in range(200):
        n_sent = int(rng.integers(1, 5))
        lens = rng.integers(1, 7, n_sent)
        seg = np.repeat(np.arange(n_sent), lens)
        shift = int(rng.integers(0, 120))
        eff = shifted_positions(seg, shift)
        for i in range(len(seg) - 1):
            gap = eff[i + 1] - eff[i]
            if seg[i + 1] != seg[i]:
                ok_gap &= gap == 1 + shift
            else:
                ok_intra &= gap == 1
        raw = np.arange(len(seg))
        for k in range(n_sent):
            idx = seg == k
            ok_intra &= bool(np.array_equal(np.diff(eff[idx]), np.diff(raw[idx])))

    dim = 32
    ok_dot = True
    for _ in range(200):
        t1, t2 = (int(x) for x in rng.integers(0, 10000, 2))
        d = int(rng.integers(0, 500))
        dot1 = float(sinusoidal_pe(t1, dim) @ sinusoidal_pe(t1 + d, dim))
        dot2 = float(sinusoidal_pe(t2, dim) @ sinusoidal_pe(t2 + d, dim))
        ok_dot &= abs(dot1 - dot2) <= 1e-9
    report("criterion 4: positional properties", ok_gap and ok_intra and ok_dot,
           "boundary gap, intra-sentence invariance, dot-product translation invariance")


# ---------------------------------------------------------------------------
# criterion 8: statistical tests


def test_criterion_8_statistical_tests():
    a = [True] * 15 + [False] * 5 + [True] * 20
    b = [False] * 15 + [True] * 5 + [True] * 20
    res = mcnemar(a, b)
    oracle = float(scipy.stats.chi2.sf((abs(15 - 5) - 1) ** 2 / 20, df=1))
    ok_mc = abs(res.p_value - oracle) <= 0.005 and abs(oracle - 0.044) < 0.001
    scores = list(stream(0, "acc8").normal(0, 1, 64))
    p_same = approx_randomization(scores, scores, permutations=1000, seed=3)
    ok_ar = p_same == 1.0
    report("criterion 8: statistical tests", ok_mc and ok_ar,
           f"mcnemar p={res.p_value:.4f} (oracle {oracle:.4f}), self-AR p={p_same}")


# ---------------------------------------------------------------------------
# criterion 9: determinism


def test_criterion_9_training_determinism(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    docs, examples = synth.gen_synthetic(5, n_docs=80, vocab_size=32)
    tr, dev, te = C.split_documents(docs, (80, 10, 10))
    C.write_corpus(data / "train.txt", tr)
    C.write_corpus(data / "dev.txt", dev)
    C.write_corpus(data / "test.txt", te)

    def run(out):
        cfg = TrainConfig(data_dir=str(data), out_dir=str(out), seed=11, k=2,
                          layers=1, heads=2, hidden=16, ffn=32, dropout=0.2,
                          warmup=10, batch_tokens=256, max_steps=14,
                          val_interval=7, max_epochs=5)
        return train(cfg)

    r1 = run(tmp_path / "a")
    r2 = run(tmp_path / "b")
    same_log = r1.log_path.read_bytes() == r2.log_path.read_bytes()
    same_avg = r1.averaged_checkpoint.read_bytes() == r2.averaged_checkpoint.read_bytes()
    same_best = r1.best_checkpoint.read_bytes() == r2.best_checkpoint.read_bytes()
    report("criterion 9: bitwise training determinism",
           same_log and same_avg and same_best,
           f"log={same_log} averaged={same_avg} best={same_best}")
