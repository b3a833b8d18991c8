import copy
import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from winmt import checkpoint as ckpt
from winmt import corpus as C
from winmt import model as M
from winmt import synth
from winmt.rng import stream
from winmt.tensor import Graph, Tensor, backward, record

from reference_ops import (beam_reference, finite_diff_check, full_prefix_logits,
                           window_from_sentences)


@pytest.fixture(scope="module")
def setup():
    docs, _ = synth.gen_synthetic(0, n_docs=30, vocab_size=32)
    vocab = C.Vocab.from_documents(docs)
    windows = [w for d in docs for w in C.make_windows(d, 2, vocab)]
    config = M.ModelConfig(vocab_size=len(vocab), layers=2, heads=2, hidden=32,
                           ffn=64, dropout=0.0, dtype="float64")
    return docs, vocab, windows, M.TransformerModel(config, seed=1)


@pytest.mark.parametrize("change, named", [
    (dict(hidden=30, heads=4), "divisible"),
    (dict(hidden=9, heads=3), "even"),
    (dict(dropout=1.0), "dropout"),
    (dict(position_scheme="spiral"), "spiral"),
    (dict(segment_variant="cos"), "cos"),
    (dict(dtype="float16"), "float16"),
    (dict(shift_strategy="fixed:x"), "fixed:x"),
    (dict(shift_strategy="avg"), "avg"),
    (dict(layers=-1), "layers must be >= 1, got -1"),
    (dict(ffn=0), "ffn must be >= 1, got 0"),
])
def test_bad_model_settings_rejected(change, named):
    with pytest.raises(M.ModelError, match=named):
        M.ModelConfig(vocab_size=8, **change)


def test_pickled_batch_round_trips_to_equal_windows(setup):
    # the shard worker receives each training shard's Batch pickled
    _, _, windows, model = setup
    batch = M.build_batch(windows[:6], model.config)
    back = pickle.loads(pickle.dumps(batch))
    assert back.windows == batch.windows
    assert [hash(w) for w in back.windows] == [hash(w) for w in batch.windows]
    assert np.array_equal(back.tgt_in_seg, batch.tgt_in_seg)


def test_log_prob_rows_sum_to_one(setup):
    _, _, windows, model = setup
    batch = M.build_batch(windows[:6], model.config)
    log_probs, _ = model.forward(batch)
    sums = np.exp(log_probs.data).sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_batch_permutation_equivariance(setup):
    _, _, windows, model = setup
    subset = windows[:5]
    perm = [3, 0, 4, 1, 2]
    lp1, _ = model.forward(M.build_batch(subset, model.config))
    lp2, _ = model.forward(M.build_batch([subset[i] for i in perm], model.config))
    for out_pos, in_pos in enumerate(perm):
        n = len(subset[in_pos].tgt_ids)
        np.testing.assert_allclose(lp2.data[out_pos, :n], lp1.data[in_pos, :n],
                                   atol=1e-12)


def test_causality_100_random_windows(setup):
    _, vocab, windows, model = setup
    rng = stream(0, "causality")
    checked = 0
    for w in windows:
        if len(w.tgt_ids) < 4:
            continue
        t = int(rng.integers(1, len(w.tgt_ids) - 1))
        batch = M.build_batch([w], model.config)
        lp_ref, _ = model.forward(batch)
        # perturb target tokens strictly after position t
        mutated = batch.tgt_in.copy()
        mutated[0, t + 1:] = rng.integers(4, model.config.vocab_size,
                                          mutated.shape[1] - t - 1)
        batch.tgt_in[:] = mutated
        lp_mut, _ = model.forward(batch)
        np.testing.assert_allclose(lp_mut.data[0, :t + 1], lp_ref.data[0, :t + 1],
                                   atol=1e-12)
        checked += 1
        if checked == 100:
            break
    assert checked == 100


def test_forward_deterministic_with_dropout_seeded(setup):
    _, _, windows, _ = setup
    config = M.ModelConfig(vocab_size=32, layers=1, heads=2, hidden=16, ffn=32,
                           dropout=0.3, dtype="float64")
    model = M.TransformerModel(config, seed=3)
    batch = M.build_batch(windows[:3], config)
    lp1, _ = model.forward(batch, train=True, step=5, seed=11)
    lp2, _ = model.forward(batch, train=True, step=5, seed=11)
    assert np.array_equal(lp1.data, lp2.data)
    lp3, _ = model.forward(batch, train=True, step=6, seed=11)
    assert not np.array_equal(lp1.data, lp3.data)


def test_training_forward_draws_one_stream_per_dropout_site(setup, monkeypatch):
    # the training bytes rest on these addresses: each dropout site draws
    # stream(seed, "drop/<site>", step, shard), and an eval forward draws nothing
    _, _, windows, _ = setup
    config = M.ModelConfig(vocab_size=32, layers=1, heads=2, hidden=16, ffn=32,
                           dropout=0.3, dtype="float64")
    model = M.TransformerModel(config, seed=3)
    batch = M.build_batch(windows[:3], config)
    calls = []

    def recording(seed, name, *counters):
        calls.append((seed, name, counters))
        return stream(seed, name, *counters)

    monkeypatch.setattr(M, "stream", recording)
    model.forward(batch, train=True, step=5, seed=11)
    sites = ["src_emb", "tgt_emb", "enc0.self", "enc0.self.attn", "enc0.ffn", "dec0.self",
             "dec0.self.attn", "dec0.cross", "dec0.cross.attn", "dec0.ffn"]
    assert sorted(calls) == sorted((11, f"drop/{site}", (5, 0)) for site in sites)
    calls.clear()
    model.forward(batch, train=True, step=5, seed=11, shard=1)
    assert sorted(calls) == sorted((11, f"drop/{site}", (5, 1)) for site in sites)
    calls.clear()
    model.forward(batch, capture=True)
    model.decode(windows[:2], beam=2, max_len=3)
    assert calls == []


def test_padding_gets_exactly_zero_attention(setup):
    _, _, windows, model = setup
    lengths = sorted({len(w.src_ids) for w in windows[:10]})
    assert len(lengths) > 1, "need ragged batch"
    subset = windows[:10]
    batch = M.build_batch(subset, model.config)
    _, records = model.forward(batch, capture=True)
    assert records
    # captured rows are sliced to real lengths and sum to one
    for rec in records:
        np.testing.assert_allclose(rec.weights.sum(axis=-1), 1.0, atol=1e-9)
    # check the full unsliced attention: pad keys must carry zero weight
    # (re-run capture through a window pair with different lengths)
    short, long_ = min(subset, key=lambda w: len(w.src_ids)), max(subset, key=lambda w: len(w.src_ids))
    b2 = M.build_batch([short, long_], model.config)
    lp, recs = model.forward(b2, capture=True)
    ns = len(short.src_ids)
    enc_recs = [r for r in recs if r.kind == "enc-self"]
    assert enc_recs[0].weights.shape == (model.config.heads, ns, ns)


def ragged_windows(windows, n=3):
    """``n`` windows whose source and target lengths all differ."""
    picked = []
    for w in windows:
        if all(len(w.src_ids) != len(p.src_ids) and len(w.tgt_ids) != len(p.tgt_ids)
               for p in picked):
            picked.append(w)
        if len(picked) == n:
            return picked
    raise AssertionError("corpus too uniform for a ragged batch")


def test_padding_does_not_reach_real_positions(setup):
    _, _, windows, model = setup
    batch = M.build_batch(ragged_windows(windows), model.config)
    lp, _ = model.forward(batch)
    real = batch.tgt_valid > 0
    assert not real.all() and not (batch.src_valid > 0).all()
    # real token ids at every padded position
    batch.src[batch.src_valid == 0] = 5
    batch.tgt_in[batch.tgt_valid == 0] = 7
    lp2, _ = model.forward(batch)
    np.testing.assert_array_equal(lp2.data[real], lp.data[real])


def assert_gradients_match_finite_differences(model, batch, seed_label):
    from winmt import objective as O
    assert model.config.dropout == 0.0 and model.config.dtype == "float64"
    rng = stream(0, seed_label)

    def loss_with(name, x):
        saved = model.params[name]
        model.params[name] = x
        try:
            lp, _ = model.forward(batch)
            per_tok = O.smoothed_nll(lp, batch.tgt_out, 0.1, batch.tgt_valid)
            bd = O.masked_discounted_loss(per_tok, batch.current_mask, batch.context_mask, 0.3)
            return O.normalized_training_loss(bd, int(batch.current_mask.sum()))
        finally:
            model.params[name] = saved

    worst = {}
    for name, p in model.params.items():
        coords = rng.choice(p.data.size, size=min(3, p.data.size), replace=False)
        worst[name] = finite_diff_check(lambda x, _n=name: loss_with(_n, x), p, h=1e-5,
                                        coords=[int(c) for c in coords])
    bad = {name: err for name, err in worst.items() if not err < 1e-4}
    assert not bad, bad


def test_padded_batch_gradients_match_finite_differences(setup):
    _, _, windows, model = setup
    batch = M.build_batch(ragged_windows(windows), model.config)
    assert_gradients_match_finite_differences(model, batch, "padded-gradcheck")


def candidate_windows(doc, vocab, k, j, variants):
    """Windows of sentence ``j`` of ``doc`` at size ``k`` that share the source
    and the target context and differ in the current target sentence:
    variant 0 is the reference, 1 drops its last token (shorter), 2 repeats
    its first token at the end (longer, the whole reference as prefix) and 3
    swaps its first two tokens (same length)."""
    chunk = doc.sentences[max(0, j - k + 1):j + 1]
    src, tgt = [s for s, _ in chunk], [t for _, t in chunk]
    cur = tgt[-1]
    forms = [cur, cur[:-1], cur + cur[:1], cur[1:2] + cur[:1] + cur[2:]]
    return [window_from_sentences(src, tgt[:-1] + [forms[v]], vocab, doc.doc_id, j)
            for v in variants]


def unshared(batch):
    """``batch`` with every real token its own state row."""
    plain = copy.copy(batch)
    none = np.zeros((2, 0), dtype=np.int64)
    plain.src_grid = M.Grid(np.flatnonzero(batch.src_valid.reshape(-1)), none, batch.src.shape)
    plain.tgt_grid = M.Grid(np.flatnonzero(batch.tgt_valid.reshape(-1)), none,
                            batch.tgt_in.shape)
    return plain


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("scheme,strategy,variant,dtype", [
    ("plain", "fixed:0", "none", "float32"),
    ("shifted", "avg-sequence", "learned", "float64"),
    ("shifted", "fixed:3", "sin", "float32"),
])
def test_shared_rows_are_bitwise_equal_to_own_rows(setup, k, scheme, strategy, variant, dtype):
    docs, vocab, _, _ = setup
    config = M.ModelConfig(vocab_size=len(vocab), layers=2, heads=2, hidden=16, ffn=32,
                           dropout=0.0, dtype=dtype, position_scheme=scheme,
                           shift_strategy=strategy,
                           shift_value=3 if strategy.startswith("fixed") else None,
                           segment_variant=variant)
    model = M.TransformerModel(config, seed=4)
    # examples of 2 and 3 candidates, interleaved with unrelated windows
    sets = [[0, 1], [0, 2, 3], [2, 0], [3, 1, 0]]
    windows = []
    for n, (doc, variants) in enumerate(zip(docs[2:], sets)):
        j = len(doc.sentences) - 1 - n
        windows += candidate_windows(doc, vocab, k, j, variants)
        windows += C.make_windows(docs[10 + n], k, vocab)[-1:]
    batch = M.build_batch(windows, config)
    dups = len(windows) - len({w.src_ids for w in windows})
    assert len(batch.src_grid.rows) < (batch.src_valid > 0).sum() and dups == 6
    assert batch.tgt_grid.copies.shape[1] > 0
    lp, recs = model.forward(batch, capture=True)
    lp_ref, recs_ref = model.forward(unshared(batch), capture=True)
    np.testing.assert_array_equal(lp.data, lp_ref.data)
    assert len(recs) == len(recs_ref)
    for r, r_ref in zip(recs, recs_ref):
        np.testing.assert_array_equal(r.weights, r_ref.weights)


def test_shared_rows_gradients_match_finite_differences(setup):
    docs, vocab, windows, model = setup
    doc = docs[3]
    pair = candidate_windows(doc, vocab, 2, len(doc.sentences) - 1, [3, 1])
    other = next(w for w in windows if len(w.src_ids) != len(pair[0].src_ids))
    batch = M.build_batch([pair[0], other, pair[1]], model.config)
    assert batch.src_grid.copies.shape[1] == len(pair[0].src_ids)
    assert 0 < batch.tgt_grid.copies.shape[1] < len(pair[1].tgt_ids)
    assert_gradients_match_finite_differences(model, batch, "shared-gradcheck")


def test_two_candidate_examples_share_source_and_target_prefix(setup):
    _, vocab, _, model = setup
    _, examples = synth.gen_synthetic(0, n_docs=30, vocab_size=32)
    examples = [ex for ex in examples if len(ex.candidates) == 2][:12]
    assert len(examples) == 12
    windows = [w for ex in examples for w in ex.candidate_windows(vocab)]
    batch = M.build_batch(windows, model.config)
    real_src = int(batch.src_valid.sum())
    assert len(batch.src_grid.rows) * 2 == real_src
    shared = 0
    for ref, alt in zip(windows[::2], windows[1::2]):
        # decoder inputs are <E> + target[:-1]: they agree up to and
        # including the first position where the targets differ
        first = next(i for i, (a, b) in enumerate(zip(ref.tgt_ids, alt.tgt_ids)) if a != b)
        shared += first + 1
    assert len(batch.tgt_grid.rows) == int(batch.tgt_valid.sum()) - shared
    tgt = batch.tgt_grid
    np.testing.assert_array_equal(np.sort(np.concatenate([tgt.rows, tgt.copies[0]])),
                                  np.flatnonzero(batch.tgt_valid.reshape(-1)))


def test_max_length_exceeded_rejected(setup):
    _, _, windows, _ = setup
    config = M.ModelConfig(vocab_size=32, layers=1, heads=2, hidden=16, ffn=32,
                           dropout=0.0, max_len=4)
    with pytest.raises(M.ModelError, match="max"):
        M.build_batch(windows[:3], config)


def _save(model, path):
    """Write ``model`` as the trainer writes its checkpoints."""
    ckpt.save_checkpoint(path, {k: v.data for k, v in model.params.items()},
                         dataclasses.asdict(model.config))


def test_checkpoint_round_trip_bitwise_log_probs(setup, tmp_path):
    _, _, windows, model = setup
    path = tmp_path / "model.bin"
    _save(model, path)
    loaded = M.TransformerModel.load(path)
    batch = M.build_batch(windows[:4], model.config)
    lp1, _ = model.forward(batch)
    lp2, _ = loaded.forward(batch)
    assert np.array_equal(lp1.data, lp2.data)


def test_vocab_digest_validated_on_load(setup, tmp_path):
    _, _, _, model = setup
    path = tmp_path / "model.bin"
    _save(model, path)
    with pytest.raises(M.ModelError, match="digest"):
        M.TransformerModel.load(path, expect_vocab_digest="deadbeef")


def test_gradients_reach_all_parameters(setup):
    _, _, windows, model = setup
    from winmt import objective as O
    from winmt import tensor as T
    batch = M.build_batch(windows[:2], model.config)
    model.zero_grad()
    with record(Graph()):
        lp, _ = model.forward(batch)
        per_tok = O.smoothed_nll(lp, batch.tgt_out, 0.1, batch.tgt_valid)
        bd = O.masked_discounted_loss(per_tok, batch.current_mask, batch.context_mask, 0.5)
        loss = O.normalized_training_loss(bd, int(batch.current_mask.sum()))
    backward(loss)
    missing = [name for name, p in model.params.items() if p.grad is None]
    assert not missing, f"no gradient for {missing}"


def test_training_step_records_each_attention_as_one_node(setup):
    """The head split and merge are views inside ``tensor.attention``, so a
    default-config training step records no transpose node."""
    from winmt import objective as O
    _, vocab, windows, _ = setup
    model = M.TransformerModel(M.ModelConfig(vocab_size=len(vocab)), seed=1)
    batch = M.build_batch(windows[:4], model.config)
    graph = Graph()
    with record(graph):
        lp, _ = model.forward(batch, train=True, step=1, seed=1)
        per_tok = O.smoothed_nll(lp, batch.tgt_out, 0.1, batch.tgt_valid)
        bd = O.masked_discounted_loss(per_tok, batch.current_mask, batch.context_mask, 0.5)
        O.normalized_training_loss(bd, int(batch.current_mask.sum()))
    ops = [node.backward_fn.__qualname__.split(".")[0] for node in graph.nodes]
    assert len(ops) <= 149
    assert "transpose" not in ops
    assert ops.count("attention") == 6


def test_training_tape_keeps_only_the_tensors_the_caller_holds(setup):
    from winmt import objective as O
    _, vocab, windows, _ = setup
    model = M.TransformerModel(M.ModelConfig(vocab_size=len(vocab)), seed=1)
    batch = M.build_batch(windows[:4], model.config)
    graph = Graph()
    with record(graph):
        lp, _ = model.forward(batch, train=True, step=1, seed=1)
        per_tok = O.smoothed_nll(lp, batch.tgt_out, 0.1, batch.tgt_valid)
        loss = O.normalized_training_loss(
            O.masked_discounted_loss(per_tok, batch.current_mask, batch.context_mask, 0.5),
            int(batch.current_mask.sum()))
    assert len(graph.nodes) == 149
    alive = {id(t) for t in (node.out() for node in graph.nodes) if t is not None}
    assert alive == {id(lp), id(per_tok), id(loss)}
    leaves = {id(p) for node in graph.nodes for p in node.parents if not isinstance(p, int)}
    assert leaves == {id(p) for p in model.params.values()}


# (model variant, beam) of the beam_reference comparisons
REFERENCE_CASES = [("setup", 1), ("setup", 2), ("setup", 4), ("eos-biased", 2),
                   ("eos-biased", 4), ("two-word", 5)]


class TestBeamSearch:
    def test_length_penalty_value(self):
        # lp(7) with alpha 0.6 is (12/6)^0.6
        assert ((5 + 7) / 6) ** 0.6 == pytest.approx(1.5157, abs=1e-4)

    def test_beam_one_equals_greedy(self, setup):
        _, _, windows, model = setup
        subset = windows[10:16]
        got = model.decode(subset, beam=1, alpha=0.0)
        # greedy reference: repeatedly take argmax via full re-forward
        for w, hyp in zip(subset, got):
            ref = greedy_reference(model, w)
            assert hyp == ref

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_top_candidates_equal_a_stable_full_sort(self, k):
        # integer scores in a narrow range tie heavily, also at the k-th place
        for seed in range(50):
            rng = stream(seed, "top-candidates")
            scores = rng.integers(-4, 2, (7, 24)).astype(np.float64)
            scores[scores == -4] = -np.inf
            scores[seed % 7] = -np.inf  # a row with no finite score
            expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(M._top_candidates(scores, k), expected)

    def test_alpha_zero_scores_are_raw_logprobs(self, setup):
        _, _, windows, model = setup
        w = windows[0]
        hyp = model.decode([w], beam=2, alpha=0.0)[0]
        assert isinstance(hyp, list) and len(hyp) >= 1

    def test_stepwise_scores_match_teacher_forcing(self, setup):
        _, vocab, windows, model = setup
        w = windows[7]
        hyp = model.decode([w], beam=1, alpha=0.0)[0]
        # score the hypothesis (greedy path) teacher-forced; must equal the
        # sum of the stepwise log-probs collected during decoding
        logp = teacher_forced_logprob(model, w, hyp)
        greedy_sum = greedy_reference_score(model, w)
        assert logp == pytest.approx(greedy_sum, abs=1e-8)

    def test_max_len_truncates(self, setup):
        _, _, windows, model = setup
        hyp = model.decode([windows[0]], beam=2, alpha=0.6, max_len=3)[0]
        assert len(hyp) <= 3

    def test_bad_args_rejected(self, setup):
        _, _, windows, model = setup
        with pytest.raises(M.ModelError):
            model.decode([windows[0]], beam=0)
        with pytest.raises(M.ModelError):
            model.decode([windows[0]], beam=1, max_len=0)

    def test_batched_decode_matches_single(self, setup):
        _, _, windows, model = setup
        subset = windows[20:26]
        together = model.decode(subset, beam=3, alpha=0.6)
        separate = [model.decode([w], beam=3, alpha=0.6)[0] for w in subset]
        assert together == separate

    @pytest.mark.parametrize("max_len", [None, 3])
    def test_batched_decode_matches_single_as_windows_finish(self, setup, max_len):
        # windows of sizes 1 and 4 have different length caps, and a bias
        # towards <E> makes some finish early, so windows leave the beam
        # batch at different steps while the others keep searching
        docs, vocab, _, base = setup
        model = eos_biased(base)
        short = C.make_windows(docs[0], 1, vocab)
        long = C.make_windows(docs[1], 4, vocab)
        subset = [short[0], long[-1], short[1], long[-2], short[2], long[-3]]
        together = model.decode(subset, beam=4, alpha=0.6, max_len=max_len)
        separate = [model.decode([w], beam=4, alpha=0.6, max_len=max_len)[0]
                    for w in subset]
        assert together == separate
        caps = [min(2 * len(w.src_ids) + 8, max_len or base.config.max_len) for w in subset]
        ended = [h[-1] == C.EOS_ID for h in together]
        assert any(ended) and not all(ended)
        assert all(len(h) == cap for h, cap, e in zip(together, caps, ended) if not e)

    @pytest.mark.parametrize("variant,beam", REFERENCE_CASES)
    @pytest.mark.parametrize("max_len", [None, 3])
    def test_decode_equals_beam_reference(self, setup, variant, beam, max_len):
        docs, vocab, windows, model = setup
        model, subset = reference_case(model, variant, [
            windows[3], C.make_windows(docs[1], 1, vocab)[1], C.make_windows(docs[1], 2, vocab)[2]])
        # a strong length reward lets longer hypotheses beat earlier ones, so
        # the stop at `beam` finished ones and the cap rule show in the result
        got = model.decode(subset, beam=beam, alpha=1.5, max_len=max_len)
        assert got == [beam_reference(model, w, beam, 1.5, max_len) for w in subset]

    @pytest.mark.parametrize("variant,beam", REFERENCE_CASES)
    @pytest.mark.parametrize("max_len", [None, 3])
    def test_gold_prefix_decode_equals_beam_reference(self, setup, variant, beam, max_len):
        # windows of sizes 1 to 4 in one batch, each after its reference
        # context translation: forced prefixes of different lengths, and none
        docs, vocab, _, model = setup
        model, subset = reference_case(model, variant, [
            C.make_windows(docs[2], k, vocab)[j] for k, j in ((3, 3), (1, 1), (4, 3), (2, 1))])
        prefixes = [w.tgt_ids[:w.current_span[0]] for w in subset]
        assert min(map(len, prefixes)) == 0 and len(set(map(len, prefixes))) == 4
        got = model.decode(subset, beam=beam, alpha=1.5, max_len=max_len, prefixes=prefixes)
        assert got == [beam_reference(model, w, beam, 1.5, max_len, prefix=p)
                       for w, p in zip(subset, prefixes)]

    @pytest.mark.parametrize("beam", [1, 4])
    @pytest.mark.parametrize("gold", [False, True])
    def test_duplicate_windows_decode_as_each_alone(self, setup, monkeypatch, beam, gold):
        # a window that comes twice in one batch copies its forced target
        # rows from its first copy, and each decodes as it does alone
        docs, vocab, _, model = setup
        w0, w1, w2 = (C.make_windows(docs[2], k, vocab)[j] for k, j in ((3, 3), (2, 1), (1, 2)))
        subset = [w0, w1, w0, w2, w1]
        prefixes = [w.tgt_ids[:w.current_span[0]] for w in subset] if gold else None
        batches = []
        build = M.build_batch
        monkeypatch.setattr(M, "build_batch",
                            lambda ws, cfg: batches.append(build(ws, cfg)) or batches[-1])
        got = model.decode(subset, beam=beam, alpha=0.6, prefixes=prefixes)
        assert batches[0].tgt_grid.copies.size
        assert got == [model.decode([w], beam=beam, alpha=0.6,
                                    prefixes=prefixes and [prefixes[i]])[0]
                       for i, w in enumerate(subset)]

    def test_cache_growth_keeps_decode_equal_to_its_references(self, setup, monkeypatch):
        # from a capacity of one step the self-attention caches double at
        # steps 1, 2, 4, ... up to the length cap, also while windows leave
        # the batch and after forced prefixes
        monkeypatch.setattr(M, "CACHE_STEPS", 1)
        for max_len in (None, 3):
            self.test_batched_decode_matches_single_as_windows_finish(setup, max_len)
            for variant, beam in REFERENCE_CASES:
                self.test_decode_equals_beam_reference(setup, variant, beam, max_len)
                self.test_gold_prefix_decode_equals_beam_reference(setup, variant, beam,
                                                                   max_len)

    def test_window_stops_once_no_live_row_can_beat_its_best(self, setup, monkeypatch):
        # with a bias towards <E>, a short hypothesis can finish with a score
        # that no live row can reach any more: the search of its window ends
        # before `beam` hypotheses finish, and still gives the reference's result
        _, _, windows, base = setup
        model = eos_biased(base)
        steps = []
        top = M._top_candidates  # called once per search step
        monkeypatch.setattr(M, "_top_candidates",
                            lambda scores, k: steps.append(len(scores)) or top(scores, k))
        early = 0
        for w in windows[:10]:
            steps.clear()
            finished = []
            assert model.decode([w], beam=4, alpha=0.6)[0] == beam_reference(
                model, w, 4, 0.6, None, finished_by_step=finished)
            if len(steps) < len(finished):
                assert finished[len(steps) - 1] < 4 and len(steps) < 2 * len(w.src_ids) + 8
                early += 1
        assert early >= 3

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, setup, alpha):
        _, _, windows, model = setup
        with pytest.raises(M.ModelError, match="alpha"):
            model.decode([windows[0]], beam=2, alpha=alpha)


def reference_case(model, variant, windows):
    """The model and windows of a ``REFERENCE_CASES`` variant."""
    if variant == "eos-biased":
        return eos_biased(model), windows
    if variant == "two-word":
        # ids 4 and 5 are the only words: the first step ranks 5 finite
        # candidates (all but <pad>) in 10 places and fills at most 4 rows
        model = M.TransformerModel(M.ModelConfig(
            vocab_size=6, layers=2, heads=2, hidden=32, ffn=64, dropout=0.0,
            dtype="float64"), seed=2)
        two = lambda ids: tuple(i if i < 4 else 4 + i % 2 for i in ids)
        windows = [dataclasses.replace(w, src_ids=two(w.src_ids), tgt_ids=two(w.tgt_ids))
                   for w in windows]
    return model, windows


def eos_biased(model):
    """A copy of ``model`` whose output bias favours <E>."""
    params = {k: Tensor(v.data.copy()) for k, v in model.params.items()}
    params["out&bias"].data[C.EOS_ID] += 1.0
    return M.TransformerModel(model.config, params)


def greedy_reference(model, window):
    """Argmax decoding by full re-forward each step; oracle for beam=1."""
    cfg = model.config
    shift = M.resolve_window_shift(cfg, window)
    tokens = [C.EOS_ID]
    segs = [0]
    cap = min(cfg.max_len, 2 * len(window.src_ids) + 8)
    out = []
    for t in range(cap):
        logp = full_prefix_logits(model, window, tokens, segs)
        logp[C.PAD_ID] = -np.inf
        tok = int(np.argmax(logp))
        out.append(tok)
        if tok == C.EOS_ID:
            break
        segs.append(segs[-1] + (1 if tokens[-1] == C.SEP_ID else 0))
        tokens.append(tok)
    return out


def greedy_reference_score(model, window):
    cfg = model.config
    tokens = [C.EOS_ID]
    segs = [0]
    cap = min(cfg.max_len, 2 * len(window.src_ids) + 8)
    total = 0.0
    for t in range(cap):
        logp = full_prefix_logits(model, window, tokens, segs)
        logp[C.PAD_ID] = -np.inf
        tok = int(np.argmax(logp))
        total += logp[tok]
        if tok == C.EOS_ID:
            break
        segs.append(segs[-1] + (1 if tokens[-1] == C.SEP_ID else 0))
        tokens.append(tok)
    return total


def teacher_forced_logprob(model, src_window, hyp_ids):
    """Total log-prob of hyp_ids as the target of src_window."""
    cfg = model.config
    batch = M.build_batch([src_window], cfg)
    t = len(hyp_ids)
    tgt_in = np.array([C.EOS_ID] + hyp_ids[:-1], dtype=np.int64)[None, :]
    seg = np.zeros((1, t), dtype=np.int64)
    for i in range(1, t):
        seg[0, i] = seg[0, i - 1] + (1 if tgt_in[0, i - 1] == C.SEP_ID else 0)
    hacked = M.Batch(
        windows=batch.windows,
        src=batch.src, src_seg=batch.src_seg, src_pos=batch.src_pos,
        src_valid=batch.src_valid,
        tgt_in=tgt_in, tgt_in_seg=seg,
        tgt_in_pos=np.arange(t)[None, :] + seg * batch.shifts[:, None],
        tgt_out=np.array(hyp_ids, dtype=np.int64)[None, :],
        tgt_valid=np.ones((1, t)),
        current_mask=np.zeros((1, t)), context_mask=np.zeros((1, t)),
        shifts=batch.shifts)
    lp, _ = model.forward(hacked)
    token_lp = np.take_along_axis(lp.data, hacked.tgt_out[..., None], axis=-1)[..., 0]
    return float(token_lp.sum())


def test_shifted_and_segment_variants_forward(setup):
    docs, vocab, windows, _ = setup
    subset = windows[:3]
    for scheme, strategy, variant in [
        ("shifted", "fixed:10", "none"),
        ("shifted", "avg-sequence", "none"),
        ("plain", "fixed:0", "sin"),
        ("plain", "fixed:0", "learned"),
        ("shifted", "fixed:10", "learned"),
    ]:
        config = M.ModelConfig(vocab_size=len(vocab), layers=1, heads=2, hidden=16,
                               ffn=32, dropout=0.0, dtype="float64",
                               position_scheme=scheme, shift_strategy=strategy,
                               shift_value=10 if strategy.startswith("fixed") else None,
                               segment_variant=variant)
        model = M.TransformerModel(config, seed=2)
        # a bias towards <S> makes hypotheses cross sentence boundaries, so
        # decoding has to track segments and shifted positions
        model.params["out&bias"].data[C.SEP_ID] += 1.0
        batch = M.build_batch(subset, config)
        lp, _ = model.forward(batch)
        np.testing.assert_allclose(np.exp(lp.data).sum(-1), 1.0, atol=1e-6)
        hyp = model.decode([windows[0]], beam=2, alpha=0.6)
        assert hyp and isinstance(hyp[0], list)
        greedy = model.decode(subset, beam=1, alpha=0.0)
        assert greedy == [greedy_reference(model, w) for w in subset]
        assert any(C.SEP_ID in h[:-1] for h in greedy)


FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"


def test_forcing_free_greedy_context_gives_its_current_sentence():
    # the benchmark's trained model on windows that free greedy decoding
    # translates well formed: greedy decoding after its own context
    # translation, forced, gives the same current sentence, as the prefix
    # fills the caches, positions and segments that free decoding reaches
    vocab = C.Vocab.load(FIXTURE / "vocab.json")
    model = M.TransformerModel.load(FIXTURE / "ckpt_avg.bin", vocab.digest)
    docs, _ = synth.gen_synthetic(1013, n_docs=12)
    windows = [w for d in docs for k in (2, 3) for w in C.make_windows(d, k, vocab)[1:]]
    free = model.decode(windows, beam=1, alpha=0.0)
    well = [(w, ids) for w, ids in zip(windows, free)
            if ids[-1] == C.EOS_ID and ids.count(C.SEP_ID) == w.size - 1]
    assert len(well) >= 15
    prefixes = [ids[:len(ids) - ids[::-1].index(C.SEP_ID)] for _, ids in well]
    got = model.decode([w for w, _ in well], beam=1, alpha=0.0, prefixes=prefixes)
    assert got == [ids[len(p):] for (_, ids), p in zip(well, prefixes)]


@pytest.mark.parametrize("scheme, strategy, variant", [
    ("shifted", "fixed:10", "learned"),
    ("shifted", "avg-sequence", "sin"),
])
def test_gold_prefix_decode_with_shifts_and_segments_equals_beam_reference(
        setup, scheme, strategy, variant):
    docs, vocab, _, _ = setup
    config = M.ModelConfig(vocab_size=len(vocab), layers=1, heads=2, hidden=16, ffn=32,
                           dropout=0.0, dtype="float64", position_scheme=scheme,
                           shift_strategy=strategy,
                           shift_value=10 if strategy.startswith("fixed") else None,
                           segment_variant=variant)
    model = M.TransformerModel(config, seed=2)
    model.params["out&bias"].data[C.EOS_ID] += 1.0
    windows = [C.make_windows(docs[3], k, vocab)[j] for k, j in ((4, 3), (2, 2), (3, 2))]
    prefixes = [w.tgt_ids[:w.current_span[0]] for w in windows]
    got = model.decode(windows, beam=2, alpha=0.6, prefixes=prefixes)
    assert got == [beam_reference(model, w, 2, 0.6, None, prefix=p)
                   for w, p in zip(windows, prefixes)]


@pytest.mark.parametrize("variant", ["none", "sin", "learned"])
def test_embedding_is_the_closed_form_sum(variant):
    # hidden 4: sin and cos at frequencies 1 and 10000 ** (-2 / 4) = 1 / 100, interleaved
    def sin_cos(positions):
        return np.array([[math.sin(t), math.cos(t), math.sin(t / 100), math.cos(t / 100)]
                         for t in positions])

    config = M.ModelConfig(vocab_size=8, layers=1, heads=2, hidden=4, ffn=8, dropout=0.0,
                           max_window=3, segment_variant=variant, dtype="float64")
    model = M.TransformerModel(config, seed=5)
    ids = np.array([[5, 6, 7, 4, 5, 6]])
    seg = np.array([[0, 1, 2, 3, 4, 4]])  # more sentences than max_window
    pos = np.array([[0, 1, 2, 3, 7, 12]])
    got = model._embed(ids, seg, pos, "src_emb", M.EVAL).data.reshape(6, 4)
    want = model.params["src_emb"].data[ids[0]] * 2.0 + sin_cos(pos[0])  # sqrt(hidden) = 2
    if variant == "sin":
        want += sin_cos(seg[0])
    elif variant == "learned":  # segments past the table share its last row
        want += model.params["seg_table"].data[[0, 1, 2, 2, 2, 2]]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _norm(p, name, rows):
    centered = rows - rows.mean(axis=-1, keepdims=True)
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + 1e-5) * p[f"{name}.g"] + p[f"{name}.b"]


def _attend(p, heads, name, queries, keys, causal):
    # one head at a time at scale 1/sqrt(dh), over every key given
    dh = queries.shape[1] // heads
    q = queries @ p[f"{name}.q"] + p[f"{name}.q&bias"]
    k = keys @ p[f"{name}.k"]
    v = keys @ p[f"{name}.v"] + p[f"{name}.v&bias"]
    out = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
        if causal:
            scores[np.triu_indices_from(scores, 1)] = -np.inf
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out.append(weights / weights.sum(axis=-1, keepdims=True) @ v[:, cols])
    return np.concatenate(out, axis=1) @ p[f"{name}.o"] + p[f"{name}.o&bias"]


def _ffn(p, name, rows):
    inner = np.maximum(rows @ p[f"{name}.w1"] + p[f"{name}.w1&bias"], 0.0)
    return inner @ p[f"{name}.w2"] + p[f"{name}.w2&bias"]


def _written_out_model(vocab, heads, norms, seed, site):
    """A float64, one-layer, dropout-0 model and its parameter arrays, with
    the layer norms ``norms`` all made different from a stream of ``site``."""
    config = M.ModelConfig(vocab_size=len(vocab), layers=1, heads=heads, hidden=16, ffn=32,
                           dropout=0.0, dtype="float64")
    model = M.TransformerModel(config, seed=seed)
    p = {name: t.data for name, t in model.params.items()}
    rng = stream(0, site)
    for norm_name in norms:
        p[f"{norm_name}.g"][:] = rng.uniform(0.5, 1.5, config.hidden)
        p[f"{norm_name}.b"][:] = rng.normal(0.0, 0.5, config.hidden)
    return model, p


def test_encoder_is_the_pre_norm_layer_written_out(setup):
    # one encoder layer in plain numpy, window by window: self-attention
    # over the window's own tokens and FFN, each read through its own layer
    # norm and added back; then the final norm
    docs, vocab, _, _ = setup
    heads = 2
    model, p = _written_out_model(vocab, heads, ("enc0.ln1", "enc0.ln2", "enc_ln"), seed=4,
                                  site="encoder-wiring")
    windows = [C.make_windows(docs[0], 2, vocab)[1], C.make_windows(docs[1], 3, vocab)[2]]
    assert len(windows[0].src_ids) != len(windows[1].src_ids)
    batch = M.build_batch(windows, model.config)
    # the embedding sum that test_embedding_is_the_closed_form_sum pins
    embedded = model._embed(batch.src, batch.src_seg, batch.src_pos, "src_emb", M.EVAL).data
    want = []
    for i, w in enumerate(windows):
        x = embedded[i, :len(w.src_ids)]
        h = _norm(p, "enc0.ln1", x)
        x = x + _attend(p, heads, "enc0.self", h, h, causal=False)
        x = x + _ffn(p, "enc0.ffn", _norm(p, "enc0.ln2", x))
        want.append(_norm(p, "enc_ln", x))
    np.testing.assert_allclose(model.encode(batch).data, np.concatenate(want), rtol=1e-10,
                               atol=0)


def test_decoder_is_the_pre_norm_layer_written_out(setup):
    # one decoder layer in plain numpy over the encoder's rows: causal
    # self-attention, cross-attention and FFN, each read through its own
    # layer norm and added back; then the final norm, the output projection
    # and the log-softmax
    docs, vocab, _, _ = setup
    heads = 2
    model, p = _written_out_model(vocab, heads, ("dec0.ln1", "dec0.ln2", "dec0.ln3"), seed=3,
                                  site="decoder-wiring")
    window = C.make_windows(docs[0], 2, vocab)[1]
    assert window.size == 2
    batch = M.build_batch([window], model.config)
    memory = model.encode(batch).data  # one row per source token
    x = model._embed(batch.tgt_in, batch.tgt_in_seg, batch.tgt_in_pos, "tgt_emb",
                     M.EVAL).data[0]
    h = _norm(p, "dec0.ln1", x)
    x = x + _attend(p, heads, "dec0.self", h, h, causal=True)
    x = x + _attend(p, heads, "dec0.cross", _norm(p, "dec0.ln2", x), memory, causal=False)
    x = x + _ffn(p, "dec0.ffn", _norm(p, "dec0.ln3", x))
    logits = _norm(p, "dec_ln", x) @ p["out"] + p["out&bias"]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    want = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    got, _ = model.forward(batch)
    np.testing.assert_allclose(got.data[0], want, rtol=1e-10, atol=0)


def test_shift_changes_positions_in_batch(setup):
    _, vocab, windows, _ = setup
    w = next(w for w in windows if w.size == 2)
    config = M.ModelConfig(vocab_size=len(vocab), position_scheme="shifted",
                           shift_strategy="fixed:10", shift_value=10)
    batch = M.build_batch([w], config)
    boundary = list(w.src_seg).index(1)
    assert batch.src_pos[0, boundary] - batch.src_pos[0, boundary - 1] == 11


def test_plain_positions_are_identity(setup):
    # a plain model ignores any shift value: positions count tokens
    _, vocab, windows, _ = setup
    config = M.ModelConfig(vocab_size=len(vocab), shift_value=50)
    batch = M.build_batch(windows[:4], config)
    for i, w in enumerate(batch.windows):
        np.testing.assert_array_equal(batch.src_pos[i, :len(w.src_ids)],
                                      np.arange(len(w.src_ids)))
        np.testing.assert_array_equal(batch.tgt_in_pos[i, :len(w.tgt_ids)],
                                      np.arange(len(w.tgt_ids)))


def test_shifted_positions_strictly_increasing(setup):
    _, vocab, windows, _ = setup
    config = M.ModelConfig(vocab_size=len(vocab), position_scheme="shifted",
                           shift_strategy="fixed:4", shift_value=4)
    batch = M.build_batch(windows[:4], config)
    for i, w in enumerate(batch.windows):
        assert np.all(np.diff(batch.src_pos[i, :len(w.src_ids)]) > 0)
        assert np.all(np.diff(batch.tgt_in_pos[i, :len(w.tgt_ids)]) > 0)


def test_unknown_scheme_rejected():
    with pytest.raises(M.ModelError):
        M.ModelConfig(vocab_size=8, position_scheme="spiral")
