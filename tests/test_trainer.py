import gc
import json
import math
import types
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from winmt import checkpoint as ckpt
from winmt import corpus as C
from winmt import synth
from winmt import trainer as TR
from winmt.checkpoint import load_checkpoint
from winmt.model import TransformerModel, build_batch
from winmt.rng import stream
from winmt.tensor import Tensor


def write_data(tmp_path, n_docs=60, seed=0):
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    docs, examples = synth.gen_synthetic(seed, n_docs=n_docs, vocab_size=32)
    train, dev, test = C.split_documents(docs, (80, 10, 10))
    C.write_corpus(data / "train.txt", train)
    C.write_corpus(data / "dev.txt", dev)
    C.write_corpus(data / "test.txt", test)
    C.write_contrastive(data / "contrastive_dev.jsonl", synth.split_examples(dev, examples))
    C.write_contrastive(data / "contrastive_test.jsonl", synth.split_examples(test, examples))
    return data


def tiny_config(data, out, **kw):
    defaults = dict(data_dir=str(data), out_dir=str(out), seed=3, k=2, cd=1.0,
                    layers=1, heads=2, hidden=16, ffn=32, dropout=0.1,
                    warmup=20, peak_lr=1e-3, batch_tokens=256, max_epochs=2,
                    val_interval=5, patience=12, ckpt_avg=3)
    defaults.update(kw)
    return TR.TrainConfig(**defaults)


class TestLrSchedule:
    def test_peak_at_warmup(self):
        w, h = 400, 64
        # both min-branches meet at step == warmup
        assert TR.lr_at(w, h, w) == pytest.approx(w ** -0.5 * h ** -0.5)

    def test_step_4w_is_half_peak(self):
        w, h = 100, 64
        assert TR.lr_at(4 * w, h, w) == pytest.approx(TR.lr_at(w, h, w) / 2)

    def test_monotone_up_then_down(self):
        w, h = 50, 32
        values = [TR.lr_at(s, h, w) for s in range(1, 200)]
        peak = w - 1  # 0-indexed position of step == warmup
        assert all(a < b for a, b in zip(values[:peak], values[1:peak + 1]))
        assert all(a > b for a, b in zip(values[peak:], values[peak + 1:]))

    def test_step_zero_rejected(self):
        with pytest.raises(TR.ConfigError):
            TR.lr_at(0, 64, 100)

    def test_peak_lr_scaling(self):
        cfg = TR.TrainConfig(peak_lr=3e-3, warmup=100, hidden=64)
        assert TR.lr_at(100, 64, 100, cfg.scale()) == pytest.approx(3e-3)


class TestAdam:
    def test_converges_on_quadratic(self):
        x = Tensor(np.array([5.0, -3.0], dtype=np.float32))
        opt = TR.Adam({"x": x})
        for _ in range(500):
            x.grad = 2 * x.data
            opt.step(0.05)
            x.grad = None
        np.testing.assert_allclose(x.data, 0.0, atol=1e-2)

    def test_state_round_trip(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        opt = TR.Adam({"x": x})
        x.grad = np.ones(3, dtype=np.float32)
        opt.step(0.1)
        state = {k: v.copy() for k, v in opt.state_tensors().items()}
        opt2 = TR.Adam({"x": x})
        opt2.load_state(state, t=opt.t)
        assert opt2.t == 1
        np.testing.assert_array_equal(opt2.m["x"], opt.m["x"])


class TestConfig:
    def test_parse_and_coerce(self):
        text = "cd = 0.01\nk = 3\n# comment\nposition_scheme = shifted\n"
        cfg = TR.config_from_sources(TR.parse_config_text(text))
        assert cfg.cd == 0.01 and cfg.k == 3 and cfg.position_scheme == "shifted"

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(TR.ConfigError, match="valid keys.*batch_tokens"):
            TR.config_from_sources({"sponge": "yes"})

    def test_overrides_beat_file(self):
        cfg = TR.config_from_sources({"cd": "0.5"}, {"cd": 0.25})
        assert cfg.cd == 0.25

    def test_invariants_enforced(self):
        with pytest.raises(TR.ConfigError):
            TR.TrainConfig(patience=0)
        with pytest.raises(TR.ConfigError):
            TR.TrainConfig(warmup=0)
        with pytest.raises(TR.ConfigError):
            TR.TrainConfig(cd=1.5)

    def test_round_trip_text(self):
        cfg = TR.TrainConfig(cd=0.01, k=3)
        again = TR.config_from_sources(TR.parse_config_text(TR.config_to_text(cfg)))
        assert again == cfg


def test_pack_batches_respects_budget():
    class W:
        def __init__(self, n):
            self.tgt_ids = tuple(range(n))

    windows = [W(5) for _ in range(10)]
    batches = TR.pack_batches(windows, 12)
    assert all(sum(len(w.tgt_ids) for w in b) <= 12 for b in batches)
    assert sum(len(b) for b in batches) == 10


@pytest.mark.parametrize("settings", [
    {},
    dict(position_scheme="shifted", segment_variant="learned", cd=0.0),
    dict(position_scheme="shifted", shift_strategy="avg-sequence", segment_variant="sin",
         k=3, layers=1),
], ids=["default", "learned-segments-cd0", "sin-segments-avg-sequence-k3"])
def test_every_shard_gives_every_parameter_a_gradient(tmp_path, settings):
    """``Trainer._train_step`` sums the two shards' gradients parameter by
    parameter, with no case for a parameter that a shard leaves without one."""
    data = write_data(tmp_path)
    trainer = TR.Trainer(TR.TrainConfig(data_dir=str(data), out_dir=str(tmp_path / "run"),
                                        batch_tokens=256, **settings))
    batches = trainer._epoch_batches(0)[:4] + [[0]]
    shards = [(step, [ws for ws in TR.split_shards(trainer.train_corpus.windows(b, trainer.cfg.k))
                      if ws])
              for step, b in enumerate(batches, 1)]
    assert sum(len(ws) == 1 for _, step_shards in shards for ws in step_shards) >= 1
    for step, step_shards in shards:
        built = [build_batch(ws, trainer.model_config) for ws in step_shards]
        tokens = sum(int(b.current_mask.sum()) for b in built)
        for shard, batch in enumerate(built):
            trainer._shard_backward(batch, step, shard, tokens)
            assert [name for name, p in trainer.model.params.items() if p.grad is None] == []


def encoded(tmp_path, docs, vocab):
    """``docs`` written to a corpus file and read back as an ``EncodedCorpus``."""
    path = tmp_path / "corpus.txt"
    C.write_corpus(path, docs)
    return C.EncodedCorpus.read(path, vocab)


def test_window_losses_match_per_window_loop(tmp_path):
    # the reference sums each window's row on its own, as a per-window loop
    from winmt.model import ModelConfig, build_batch
    from winmt.objective import loss_ratio, smoothed_nll
    docs, _ = synth.gen_synthetic(0, n_docs=8, vocab_size=32)
    vocab = C.Vocab.from_documents(docs)
    corpus = encoded(tmp_path, docs, vocab)
    model = TransformerModel(ModelConfig(vocab_size=len(vocab), layers=1, heads=2,
                                         hidden=16, ffn=32), seed=4)
    batches = TR.pack_batches(range(len(corpus)), 200, lengths=corpus.target_lengths(3))
    assert len(batches) > 1
    got = TR.span_losses(model, corpus, 3, batches, 0.1)
    cur, ctx, cur_tok, ctx_tok, contexts = [], [], [], [], []
    for indices in batches:
        ws = corpus.windows(indices, 3)
        batch = build_batch(ws, model.config)
        lp, _ = model.forward(batch)
        per_tok = smoothed_nll(lp, batch.tgt_out, 0.1, batch.tgt_valid).data
        for i, w in enumerate(ws):
            cur.append(float((per_tok[i] * batch.current_mask[i]).sum()))
            ctx.append(float((per_tok[i] * batch.context_mask[i]).sum()))
            cur_tok.append(int(batch.current_mask[i].sum()))
            ctx_tok.append(int(batch.context_mask[i].sum()))
            contexts.append(w.size - 1)
    want = (sum(cur) / sum(cur_tok), sum(ctx) / sum(ctx_tok), loss_ratio(cur, ctx, contexts))
    assert got[1] is None
    assert [x.hex() for x in got[0]] == [x.hex() for x in want]


def test_diagnose_forwards_the_first_limit_windows(tmp_path, monkeypatch):
    from winmt import evaluation as E
    from winmt import parallel
    from winmt.model import ModelConfig
    docs, _ = synth.gen_synthetic(0, n_docs=8, vocab_size=32)
    vocab = C.Vocab.from_documents(docs)
    corpus = encoded(tmp_path, docs, vocab)
    model = TransformerModel(ModelConfig(vocab_size=len(vocab), layers=1, heads=2,
                                         hidden=16, ffn=32), seed=4)
    limit = len(docs[0].sentences) + 3  # ends inside the second document
    got = TR.diagnose(model, corpus, 2, 0.1, limit)
    want = TR.span_losses(model, corpus, 2, [range(limit)], 0.1)[0]
    assert got.n_windows == limit and got[1:4] == want
    # every batch in this process, so that each forwarded window is seen
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    forwarded = []

    def spy(windows, config):
        forwarded.extend((w.doc_id, w.j) for w in windows)
        return build_batch(windows, config)

    monkeypatch.setattr(E, "build_batch", spy)
    every = [(w.doc_id, w.j) for w in corpus.windows(range(len(corpus)), 2)]
    for everything in (0, None, len(corpus), len(corpus) + 40):
        forwarded.clear()
        assert TR.diagnose(model, corpus, 2, 0.1, everything).n_windows == len(corpus)
        assert forwarded == every


def test_span_losses_and_diagnose_build_and_forward_each_batch_once(tmp_path, one_worker,
                                                                   counted_passes):
    from winmt.model import ModelConfig
    docs, _ = synth.gen_synthetic(0, n_docs=20, vocab_size=32)
    vocab = C.Vocab.from_documents(docs)
    corpus = encoded(tmp_path, docs, vocab)
    n = len(corpus)
    assert n > 2 * 32 and n % 32
    model = TransformerModel(ModelConfig(vocab_size=len(vocab), layers=1, heads=2,
                                         hidden=16, ffn=32), seed=4)
    built, forwarded = counted_passes
    batches = [range(lo, min(lo + 10, n)) for lo in range(0, n, 10)]
    for capture in (False, True):
        built.clear()
        forwarded.clear()
        TR.span_losses(model, corpus, 2, batches, 0.1, capture=capture)
        assert [len(b.windows) for b in built] == [len(b) for b in batches]
        assert [id(b) for b in forwarded] == [id(b) for b in built]
    built.clear()
    forwarded.clear()
    TR.diagnose(model, corpus, 2, 0.1, 0)
    assert [len(b.windows) for b in built] == [min(32, n - lo) for lo in range(0, n, 32)]
    assert [id(b) for b in forwarded] == [id(b) for b in built]


def test_diagnose_reduces_like_the_records_of_every_chunk_at_once(tmp_path):
    # each chunk reduces its own records; the result is that of all records at once
    from winmt import evaluation as E
    from winmt.model import ModelConfig, build_batch
    docs, _ = synth.gen_synthetic(0, n_docs=20, vocab_size=32)
    vocab = C.Vocab.from_documents(docs)
    corpus = encoded(tmp_path, docs, vocab)
    windows = corpus.windows(range(len(corpus)), 3)
    assert len(windows) > 2 * 32
    model = TransformerModel(ModelConfig(vocab_size=len(vocab), layers=2, heads=2,
                                         hidden=16, ffn=32), seed=4)
    records = []
    for lo in range(0, len(windows), 32):
        records += model.forward(build_batch(windows[lo:lo + 32], model.config),
                                 capture=True)[1]
    assert {r.kind for r in records} == {"enc-self", "dec-self", "cross"}
    got = TR.diagnose(model, corpus, 3, 0.1, 0)
    assert got.entropy_rows.tobytes() == E.attention_entropy_rows(records).tobytes()
    assert got.attention_entropy == E.attention_entropy(records)
    assert got.attention_mass == E.current_attention_mass(records)
    no_sentences = C.EncodedCorpus(np.zeros(0, np.int32), np.zeros(0, np.int32),
                                   *(np.zeros(1, np.int64) for _ in range(3)))
    assert len(no_sentences) == 0
    with pytest.raises(E.EvalError, match="no windows"):
        TR.diagnose(model, no_sentences, 3, 0.1, 0)


class TestTrainingSplits:
    """The trainer keeps each split as token ids and builds a batch's windows
    when the batch runs, the windows ``make_windows`` builds."""

    def test_batches_are_the_window_batches_of_every_epoch(self, tmp_path):
        data = write_data(tmp_path)
        cfg = tiny_config(data, tmp_path / "run", k=3)
        trainer = TR.Trainer(cfg)
        vocab = C.Vocab.from_documents(C.read_corpus(data / "train.txt"))
        train, dev = ([w for d in C.read_corpus(data / f"{split}.txt")
                       for w in C.make_windows(d, 3, vocab)] for split in ("train", "dev"))
        for epoch in range(3):
            order = stream(cfg.seed, "shuffle", epoch).permutation(len(train))
            assert [trainer.train_corpus.windows(b, 3) for b in trainer._epoch_batches(epoch)] \
                == TR.pack_batches(train, cfg.batch_tokens, order)
        dev_order = TR.by_length([len(w.tgt_ids) for w in dev])
        assert [trainer.dev_corpus.windows(b, 3) for b in trainer.dev_batches] \
            == TR.pack_batches(dev, cfg.batch_tokens, dev_order)

    def test_no_document_or_window_outlives_init(self, tmp_path):
        trainer = TR.Trainer(tiny_config(write_data(tmp_path), tmp_path / "run"))
        seen, todo, found = set(), [trainer], []
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
                continue
            seen.add(id(obj))
            if isinstance(obj, (C.Document, C.Window)):
                found.append(obj)
            todo.extend(gc.get_referents(obj))
        assert len(seen) > 100 and found == []

    @pytest.mark.parametrize("split", ["train", "dev"])
    @pytest.mark.parametrize("line", ["no separator", "a <E> ||| b"], ids=["format", "reserved"])
    def test_a_bad_split_raises_the_error_of_read_corpus(self, tmp_path, split, line):
        data = write_data(tmp_path)
        path = data / f"{split}.txt"
        path.write_text(path.read_text() + f"\n{line}\n")
        with pytest.raises(C.CorpusError) as want:
            C.read_corpus(path)
        with pytest.raises(C.CorpusError) as got:
            TR.Trainer(tiny_config(data, tmp_path / "run"))
        assert str(got.value) == str(want.value)

    def test_resume_across_an_epoch_reproduces_uninterrupted_run(self, tmp_path):
        data = write_data(tmp_path)
        cfg = tiny_config(data, tmp_path / "full", k=3, val_interval=4, max_epochs=3)
        per_epoch = len(TR.Trainer(cfg)._epoch_batches(0))
        cap = per_epoch + 6
        cfg.max_steps = cap
        full = TR.train(cfg)
        TR.train(replace(cfg, out_dir=str(tmp_path / "half"), max_steps=per_epoch - 3))
        resumed = TR.train(replace(cfg, out_dir=str(tmp_path / "half")), resume=True)
        state = json.loads((tmp_path / "half" / "trainer_state.json").read_text())
        assert state["epoch"] == 1 and state["step"] == cap - cap % 4
        assert resumed.log_path.read_bytes() == full.log_path.read_bytes()
        assert resumed.averaged_checkpoint.read_bytes() == \
            full.averaged_checkpoint.read_bytes()


class TestTraining:
    def test_determinism_bitwise(self, tmp_path):
        data = write_data(tmp_path)
        r1 = TR.train(tiny_config(data, tmp_path / "run1", max_steps=12))
        r2 = TR.train(tiny_config(data, tmp_path / "run2", max_steps=12))
        assert r1.log_path.read_bytes() == r2.log_path.read_bytes()
        assert r1.averaged_checkpoint.read_bytes() == r2.averaged_checkpoint.read_bytes()
        assert r1.best_checkpoint.read_bytes() == r2.best_checkpoint.read_bytes()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        data = write_data(tmp_path)
        full = TR.train(tiny_config(data, tmp_path / "full", max_steps=20))
        half_cfg = tiny_config(data, tmp_path / "half", max_steps=10)
        TR.train(half_cfg)
        resumed = TR.train(tiny_config(data, tmp_path / "half", max_steps=20),
                           resume=True)
        assert resumed.log_path.read_bytes() == full.log_path.read_bytes()
        assert resumed.averaged_checkpoint.read_bytes() == \
            full.averaged_checkpoint.read_bytes()

    def test_resume_keeps_no_second_copy_of_its_checkpoint(self, tmp_path, monkeypatch):
        data = write_data(tmp_path)
        TR.train(tiny_config(data, tmp_path / "run", max_steps=5))
        loaded = []
        load, train_step = ckpt.load_checkpoint, TR.Trainer._train_step

        def noting(*args, **kwargs):
            params, config = load(*args, **kwargs)
            loaded.extend(weakref.ref(a) for a in params.values())
            return params, config

        held = []

        def first_step(self, batch, step):
            if not held:
                owned = [p.data for p in self.model.params.values()]
                owned += [*self.opt.m.values(), *self.opt.v.values()]
                alive = [a for a in (ref() for ref in loaded) if a is not None]
                held.append([a for a in alive if not any(a is o for o in owned)])
                # the Adam moments are the loaded arrays themselves
                assert sum(any(a is m for a in alive) for m in self.opt.m.values()) \
                    == len(self.opt.m)
            return train_step(self, batch, step)

        monkeypatch.setattr(ckpt, "load_checkpoint", noting)
        monkeypatch.setattr(TR.Trainer, "_train_step", first_step)
        TR.train(tiny_config(data, tmp_path / "run", max_steps=7), resume=True)
        assert loaded and held == [[]]

    @pytest.mark.parametrize("data_seed,change,key", [(0, {"hidden": 32}, "hidden"),
                                                      (1, {}, "vocab_digest")])
    def test_resume_into_another_model_leaves_the_run_untouched(self, tmp_path, data_seed,
                                                                change, key):
        run = tmp_path / "run"
        TR.train(tiny_config(write_data(tmp_path), run, max_steps=5))
        before = {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}
        (tmp_path / "other").mkdir()
        data = write_data(tmp_path / "other", seed=data_seed)
        with pytest.raises(TR.ConfigError, match=f"differs in .*{key} "):
            TR.train(tiny_config(data, run, max_steps=10, **change), resume=True)
        assert {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()} == before

    def test_patience_one_stops_at_first_non_improvement(self, tmp_path):
        data = write_data(tmp_path)
        # zero learning rate: dev loss is exactly constant, so the second
        # validation is the first non-improvement (ties do not improve)
        cfg = tiny_config(data, tmp_path / "run", patience=1, max_epochs=50,
                          val_interval=2, peak_lr=0.0)
        result = TR.train(cfg)
        log = result.log_path.read_text().strip().splitlines()[1:]
        losses = [float(line.split(",")[2]) for line in log]
        assert len(losses) == 2
        assert losses[0] == losses[1]
        assert result.stopped_early
        # equal dev loss: the earlier step stays best
        assert result.best_step == 2

    def test_never_stops_before_patience_times_interval(self, tmp_path):
        data = write_data(tmp_path)
        cfg = tiny_config(data, tmp_path / "run", patience=3, val_interval=4,
                          max_epochs=50, peak_lr=0.0)
        result = TR.train(cfg)
        assert result.stopped_early
        state = json.loads((result.run_dir / "trainer_state.json").read_text())
        assert state["step"] >= 3 * 4

    def test_log_has_fixed_columns(self, tmp_path):
        data = write_data(tmp_path)
        result = TR.train(tiny_config(data, tmp_path / "run", max_steps=6))
        header = result.log_path.read_text().splitlines()[0]
        assert header == "epoch,step,current_loss,context_loss,ratio,cd"

    def test_read_log_types_rows_by_column(self, tmp_path):
        path = tmp_path / "log.csv"
        header = ",".join(TR.LOG_COLUMNS) + "\n"
        path.write_text(header + "0,5,1.5,nan,0.25,0.01\n1,10,1.25,2.0,0.5,0.01\n")
        first, second = TR.read_log(path)
        assert second == {"epoch": 1, "step": 10, "current_loss": 1.25, "context_loss": 2.0,
                          "ratio": 0.5, "cd": 0.01}
        assert type(first["step"]) is int and math.isnan(first["context_loss"])
        path.write_text(header + "0,5,1.5\n")
        with pytest.raises(ValueError):
            TR.read_log(path)

    def test_divergence_aborts_with_diagnostics(self, tmp_path):
        data = write_data(tmp_path)
        cfg = tiny_config(data, tmp_path / "run", peak_lr=1e9, warmup=1)
        with np.errstate(all="ignore"), pytest.raises(TR.TrainingDiverged) as err:
            TR.train(cfg)
        assert err.value.step >= 1
        assert err.value.lr > 0
        assert math.isnan(err.value.grad_norm) or err.value.grad_norm >= 0

    @pytest.mark.parametrize("where", ["gradient", "loss"])
    def test_divergence_raises_before_the_update(self, tmp_path, monkeypatch, where):
        data = write_data(tmp_path)
        trainer = TR.Trainer(tiny_config(data, tmp_path / "run"))
        batches = trainer._epoch_batches(0)
        trainer._train_step(batches[0], 1)
        params, opt = trainer.model.params, trainer.opt
        if where == "gradient":
            real_backward = TR.backward

            def poisoned(loss):
                real_backward(loss)
                params["dec0.ffn.w1"].grad[0, 1] = np.nan

            monkeypatch.setattr(TR, "backward", poisoned)
            expected = "dec0.ffn.w1"
        else:
            # the loss turns NaN, and so does every gradient: the first is named
            params["dec_ln.b"].data[3] = np.inf
            expected = next(iter(params))

        def snapshot():
            return ({k: p.data.tobytes() for k, p in params.items()}, opt.t,
                    {k: a.tobytes() for k, a in opt.m.items()},
                    {k: a.tobytes() for k, a in opt.v.items()})

        before = snapshot()
        with np.errstate(all="ignore"), pytest.raises(TR.TrainingDiverged) as err:
            trainer._train_step(batches[1], 2)
        assert snapshot() == before
        assert err.value.step == 2 and err.value.param == expected
        assert expected in str(err.value)

    def test_failed_state_write_keeps_old_state(self, tmp_path, monkeypatch):
        data = write_data(tmp_path)
        run = tmp_path / "run"
        TR.train(tiny_config(data, run, max_steps=5))
        state = (run / "trainer_state.json").read_bytes()
        real_replace = ckpt.os.replace

        def failing(src, dst):
            if Path(dst).name == "trainer_state.json":
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(ckpt.os, "replace", failing)
        with pytest.raises(OSError, match="disk full"):
            TR.train(tiny_config(data, run, max_steps=10), resume=True)
        assert (run / "trainer_state.json").read_bytes() == state
        assert not list(run.rglob("*.tmp"))

    def test_averaged_checkpoint_is_mean_of_neighbors(self, tmp_path):
        data = write_data(tmp_path)
        cfg = tiny_config(data, tmp_path / "run", max_steps=20, val_interval=4,
                          ckpt_avg=3)
        result = TR.train(cfg)
        state = json.loads((result.run_dir / "trainer_state.json").read_text())
        saved = state["saved"]
        best = state["best_step"]
        closest = sorted(sorted(saved, key=lambda s: (abs(s - best), s))[:3])
        avg, _ = load_checkpoint(result.averaged_checkpoint)
        partials = [load_checkpoint(result.run_dir / "checkpoints" / f"ckpt_{s:07d}.bin")[0]
                    for s in closest]
        for name in avg:
            expected = np.mean([p[name].astype(np.float64) for p in partials], axis=0)
            np.testing.assert_allclose(avg[name], expected.astype(avg[name].dtype),
                                       atol=1e-7)

    def test_loss_decreases_on_learnable_corpus(self, tmp_path):
        data = write_data(tmp_path, n_docs=120)
        cfg = tiny_config(data, tmp_path / "run", max_epochs=6, val_interval=10,
                          max_steps=120, hidden=32, ffn=64, dropout=0.0,
                          warmup=40, peak_lr=3e-3)
        result = TR.train(cfg)
        log = result.log_path.read_text().strip().splitlines()[1:]
        losses = [float(line.split(",")[2]) for line in log]
        assert losses[-1] < losses[0]

    def test_shift_resolved_and_stored(self, tmp_path):
        data = write_data(tmp_path)
        cfg = tiny_config(data, tmp_path / "run", max_steps=4,
                          position_scheme="shifted", shift_strategy="avg-corpus")
        result = TR.train(cfg)
        model = TransformerModel.load(result.averaged_checkpoint)
        lengths = [len(src) for d in C.read_corpus(data / "train.txt") for src, _ in d.sentences]
        assert model.config.shift_value == C.compute_shift("avg-corpus", lengths=lengths)


def test_cd_sweep_degenerate_single_value(tmp_path):
    data = write_data(tmp_path)
    base = tiny_config(data, tmp_path / "sweep", max_steps=8, val_interval=4)
    rows = TR.cd_sweep(base, [1.0])
    assert len(rows) == 1
    row = rows[0]
    assert row["cd"] == 1.0 and "error" not in row
    assert 0 <= row["contrastive_accuracy"] <= 100
    assert 0 <= row["attention_mass"] <= 1
    # identical to plain training with the same seed/config
    plain = TR.train(tiny_config(data, tmp_path / "plain", max_steps=8, val_interval=4,
                                 cd=1.0))
    sweep_ckpt = Path(row["run_dir"]) / "ckpt_avg.bin"
    assert sweep_ckpt.read_bytes() == plain.averaged_checkpoint.read_bytes()


def test_cd_sweep_continues_after_failure(tmp_path):
    data = write_data(tmp_path)
    base = tiny_config(data, tmp_path / "sweep2", max_steps=4, val_interval=2,
                       peak_lr=1e9, warmup=1)  # diverges
    with np.errstate(all="ignore"):
        rows = TR.cd_sweep(base, [1.0, 0.5])
    assert all("error" in row for row in rows)
    assert len(rows) == 2
