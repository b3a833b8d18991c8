import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from winmt import corpus as C
from winmt import evaluation as E
from winmt import model as M
from winmt import parallel
from winmt import synth
from winmt.rng import stream
from winmt.tensor import Tensor

import reference_ops as R


@pytest.fixture(scope="module")
def setup():
    docs, examples = synth.gen_synthetic(1, n_docs=40, vocab_size=32)
    vocab = C.Vocab.from_documents(docs)
    config = M.ModelConfig(vocab_size=len(vocab), layers=1, heads=2, hidden=16,
                           ffn=32, dropout=0.0, dtype="float64")
    model = M.TransformerModel(config, seed=5)
    return docs, examples, vocab, model


class TestScoreContrastive:
    def test_identical_candidates_tie_counts_incorrect(self, setup):
        _, _, vocab, model = setup
        ex = C.ContrastiveExample(
            example_id="t", doc_id="d", j=0,
            src_sentences=(("w00", "w01"),),
            candidates=((("w00", "w01"),), (("w00", "w01"),)),
            phenomenon="p", distance=0)
        [res] = E.evaluate_contrastive(model, [ex], vocab)
        assert res.chosen == 1 and not res.correct

    def test_random_model_near_chance(self, setup):
        # untrained model over balanced 2-candidate examples: accuracy ~= 50%
        docs, examples, vocab, model = setup
        _, big = synth.gen_synthetic(3, n_docs=900, vocab_size=32)
        big = big[:2000]
        results = E.evaluate_contrastive(model, big, vocab)
        acc = sum(r.correct for r in results) / len(results)
        assert abs(acc - 0.5) < 0.03

    def test_scoring_deterministic(self, setup):
        _, examples, vocab, model = setup
        r1 = E.evaluate_contrastive(model, examples[:10], vocab)
        r2 = E.evaluate_contrastive(model, examples[:10], vocab)
        assert r1 == r2

    def test_current_mode_differs_from_full(self, setup):
        _, examples, vocab, model = setup
        full = E.evaluate_contrastive(model, examples[:10], vocab, mode="full")
        cur = E.evaluate_contrastive(model, examples[:10], vocab, mode="current")
        assert all(f.example_id == c.example_id for f, c in zip(full, cur))
        # scores must differ (context positions included vs not)
        assert any(f.scores != c.scores for f, c in zip(full, cur))

    def test_batched_scoring_matches_single(self, setup, monkeypatch):
        _, examples, vocab, model = setup
        monkeypatch.setattr(E, "BATCH_CANDIDATES", 6)
        batched = E.evaluate_contrastive(model, examples[:7], vocab)
        single = [E.evaluate_contrastive(model, [ex], vocab)[0] for ex in examples[:7]]
        for a, b in zip(batched, single):
            assert a.chosen == b.chosen
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-9)


def chunked(examples, size):
    """``examples`` in the chunks that ``evaluate_contrastive`` scores as one
    batch each when ``BATCH_CANDIDATES`` is ``size``: a chunk takes examples
    until it holds at least ``size`` candidates."""
    chunks = []
    for ex in examples:
        if not chunks or sum(len(e.candidates) for e in chunks[-1]) >= size:
            chunks.append([])
        chunks[-1].append(ex)
    return chunks


class TestTeacherForcedScores:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("mode", ["full", "current"])
    def test_scores_equal_a_plain_forward_bitwise(self, setup, monkeypatch, mode, dtype):
        _, examples, vocab, model = setup
        model = M.TransformerModel(dataclasses.replace(model.config, dtype=dtype), seed=5)
        monkeypatch.setattr(E, "BATCH_CANDIDATES", 9)
        examples = examples[:40]
        chunks = chunked(examples, 9)
        batches = [M.build_batch([w for ex in c for w in ex.candidate_windows(vocab)],
                                 model.config) for c in chunks]
        # padded targets, and candidates sharing source and target rows
        assert len(chunks) > 3
        assert all((b.tgt_valid == 0).any() for b in batches)
        assert all(b.src_grid.copies.size and b.tgt_grid.copies.size for b in batches)
        want = [float.hex(s) for s in R.contrastive_scores(model, chunks, vocab, mode)]
        got = E.evaluate_contrastive(model, examples, vocab, mode)
        assert [float.hex(s) for r in got for s in r.scores] == want
        assert len(want) == sum(len(ex.candidates) for ex in examples)
        # score_windows scores its windows as one batch
        windows = [w for ex in chunks[1] for w in ex.candidate_windows(vocab)]
        lo = sum(len(ex.candidates) for ex in chunks[0])
        assert [float.hex(s) for s in model.score_windows(windows, mode)] == \
            want[lo:lo + len(windows)]

    def test_one_build_and_one_forward_per_chunk(self, setup, one_worker, counted_passes):
        _, examples, vocab, model = setup
        chunks = chunked(examples, E.BATCH_CANDIDATES)
        assert len(chunks) > 1
        built, forwarded = counted_passes
        for mode in ("full", "current"):
            built.clear()
            forwarded.clear()
            E.evaluate_contrastive(model, examples, vocab, mode)
            assert [b.size for b in built] == [sum(len(ex.candidates) for ex in c)
                                               for c in chunks]
            assert [id(b) for b in forwarded] == [id(b) for b in built]

    def test_unknown_mode_is_rejected(self, setup):
        _, examples, vocab, model = setup
        with pytest.raises(E.EvalError, match="unknown scoring mode 'context'"):
            E.evaluate_contrastive(model, examples[:2], vocab, mode="context")
        with pytest.raises(M.ModelError, match="unknown scoring mode 'context'"):
            model.score_windows(examples[0].candidate_windows(vocab), mode="context")


class TestAggregate:
    def test_en_de_base_row(self):
        # accuracy by antecedent distance with the published sample sizes
        cats = {"1": (32.89, 7075), "2": (43.97, 1510), "3": (47.99, 573),
                ">3": (70.58, 442)}
        report = E.aggregate_from_stats(cats)
        assert report.disc == pytest.approx(37.27, abs=0.005)
        assert report.disc_avg == pytest.approx(48.86, abs=0.005)

    def test_en_ru_base_row(self):
        cats = {"deixis": (50.00, 2500), "lexcoh": (45.87, 1500),
                "ell_infl": (51.80, 500), "ell_vp": (27.00, 500)}
        report = E.aggregate_from_stats(cats, context_requiring=list(cats))
        assert report.disc == pytest.approx(46.64, abs=0.005)

    def test_all_d_includes_distance_zero(self):
        cats = {"0": (80.0, 100), "1": (40.0, 100)}
        report = E.aggregate_from_stats(cats)
        assert report.disc == pytest.approx(40.0)
        assert report.disc_all_d == pytest.approx(60.0)

    def test_zero_sample_category_excluded_and_flagged(self):
        cats = {"1": (50.0, 10), "2": (70.0, 0)}
        report = E.aggregate_from_stats(cats)
        assert report.excluded == ["2"]
        assert "2" not in report.per_category

    def test_from_results(self):
        results = [
            E.ContrastiveResult("a", 0, True, "p", 1, (0.0, -1.0)),
            E.ContrastiveResult("b", 1, False, "p", 1, (0.0, 1.0)),
            E.ContrastiveResult("c", 0, True, "p", 0, (0.0, -1.0)),
        ]
        report = E.aggregate(results, by="distance")
        assert report.per_category["1"] == (50.0, 2)
        assert report.disc == pytest.approx(50.0)
        assert report.disc_all_d == pytest.approx(100 * 2 / 3)

    def test_disc_equals_disc_avg_with_equal_sizes(self):
        cats = {"1": (30.0, 50), "2": (60.0, 50)}
        report = E.aggregate_from_stats(cats)
        assert report.disc == pytest.approx(report.disc_avg)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3)), min_size=2, max_size=50))
    def test_permutation_invariance_and_bounds(self, items):
        if not any(d > 0 for _, d in items):
            items.append((True, 1))
        results = [E.ContrastiveResult(f"e{i}", 0 if ok else 1, ok, "p", d, (0.0, 0.0))
                   for i, (ok, d) in enumerate(items)]
        rep1 = E.aggregate(results)
        rng = stream(0, "perm")
        shuffled = [results[i] for i in rng.permutation(len(results))]
        rep2 = E.aggregate(shuffled)
        assert rep1.disc == pytest.approx(rep2.disc)
        accs = [a for a, _ in rep1.per_category.values()]
        ctx_accs = [a for lbl, (a, _) in rep1.per_category.items() if lbl != "0"]
        assert min(ctx_accs) - 1e-9 <= rep1.disc <= max(ctx_accs) + 1e-9


class TestBleu:
    def test_perfect_match_is_100(self):
        hyps = [["a", "b", "c"], ["d", "e"]]
        assert E.bleu(hyps, hyps) == pytest.approx(100.0)

    def test_zero_fourgram_matches_gives_zero(self):
        hyps = [["a", "b", "c", "x"]]
        refs = [["a", "b", "c", "d"]]
        # trigram "a b c" matches but no 4-gram does -> hard zero
        assert E.bleu(hyps, refs) == 0.0

    def test_hand_worked_micro_corpus_matches_brute_force(self):
        hyps = [["the", "cat", "sat", "on", "the", "mat"],
                ["a", "dog", "barked", "loudly", "today"]]
        refs = [["the", "cat", "sat", "on", "a", "mat"],
                ["the", "dog", "barked", "loudly", "today"]]

        # independent n-gram counting oracle
        def oracle(hyps, refs):
            logs = []
            for n in range(1, 5):
                match = total = 0
                for h, r in zip(hyps, refs):
                    hc = Counter(tuple(h[i:i + n]) for i in range(len(h) - n + 1))
                    rc = Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
                    match += sum(min(c, rc[g]) for g, c in hc.items())
                    total += max(0, len(h) - n + 1)
                if match == 0:
                    return 0.0
                logs.append(math.log(match / total))
            c = sum(len(h) for h in hyps)
            r = sum(len(r_) for r_ in refs)
            bp = 1.0 if c > r else math.exp(1 - r / c)
            return 100.0 * bp * math.exp(sum(logs) / 4)

        assert E.bleu(hyps, refs) == pytest.approx(oracle(hyps, refs), rel=1e-12)

    def test_brevity_penalty_applied(self):
        hyps = [["a", "b", "c", "d"]]
        refs = [["a", "b", "c", "d", "e", "f", "g", "h"]]
        # all n-grams match; score is purely the brevity penalty
        assert E.bleu(hyps, refs) == pytest.approx(100.0 * math.exp(1 - 8 / 4))

    def test_corpus_permutation_invariance(self):
        hyps = [["a", "b", "c", "d"], ["e", "f", "g", "h"], ["i", "j", "k", "l"]]
        refs = [["a", "b", "x", "d"], ["e", "f", "g", "h"], ["i", "y", "k", "l"]]
        perm = [2, 0, 1]
        assert E.bleu(hyps, refs) == pytest.approx(
            E.bleu([hyps[i] for i in perm], [refs[i] for i in perm]))

    def test_empty_reference_rejected(self):
        with pytest.raises(E.EvalError, match="empty reference"):
            E.bleu([["a"]], [[]])

    def test_count_mismatch_rejected(self):
        with pytest.raises(E.EvalError):
            E.bleu([["a"]], [["a"], ["b"]])

    def test_string_input(self):
        assert E.bleu(["a b c d"], ["a b c d"]) == pytest.approx(100.0)


class TestAttentionDiagnostics:
    @staticmethod
    def record(weights, q_seg, k_seg, current, kind="enc-self"):
        # one head; ``weights`` is its (queries, keys) matrix
        return M.AttentionRecord(layer=0, kind=kind,
                                 weights=np.asarray(weights, dtype=float)[None],
                                 query_seg=np.asarray(q_seg),
                                 key_seg=np.asarray(k_seg), current_seg=current)

    def test_uniform_row_entropy_is_log_n(self):
        n = 8
        rec = self.record(np.full((3, n), 1.0 / n), [0] * 3, [0] * n, 0)
        assert E.attention_entropy([rec]) == pytest.approx(math.log(n))

    def test_one_hot_row_entropy_is_zero(self):
        rec = self.record(np.eye(4), [0] * 4, [0] * 4, 0)
        assert E.attention_entropy([rec]) == 0.0

    def test_invalid_rows_rejected(self):
        rec = self.record([[0.5, 0.4]], [0], [0, 0], 0)
        with pytest.raises(E.EvalError, match="row sums"):
            E.attention_entropy([rec])

    def test_entropy_bounded_by_log_keys(self, setup):
        docs, _, vocab, model = setup
        windows = [w for d in docs[:10] for w in C.make_windows(d, 2, vocab)]
        batch = M.build_batch(windows, model.config)
        _, records = model.forward(batch, capture=True)
        ent = E.attention_entropy(records)
        max_keys = max(r.weights.shape[-1] for r in records)
        assert 0.0 <= ent <= math.log(max_keys)

    def test_entropy_rows_equal_the_per_record_formula_bitwise(self, setup):
        docs, _, vocab, model = setup
        windows = [w for d in docs[:10] for w in C.make_windows(d, 3, vocab)]
        _, records = model.forward(M.build_batch(windows, model.config), capture=True)
        assert len({r.weights.shape[-1] for r in records}) > 1
        assert {r.weights.shape[0] for r in records} == {model.config.heads}
        want = np.concatenate([
            -np.sum(np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0), axis=-1).ravel()
            for w in (r.weights for r in records)])
        assert E.attention_entropy_rows(records).tobytes() == want.tobytes()

    def test_mass_rows_equal_the_per_head_formula_bitwise(self, setup):
        docs, _, vocab, model = setup
        windows = [w for d in docs[:10] for w in C.make_windows(d, 3, vocab)]
        _, records = model.forward(M.build_batch(windows, model.config), capture=True)
        want = [r.weights[h][r.query_seg == r.current_seg][:, r.key_seg == r.current_seg]
                .sum(axis=-1) for r in records if r.kind != "cross"
                for h in range(model.config.heads)]
        got = E.current_attention_mass_rows(records)
        assert got.tobytes() == np.concatenate(want).tobytes()
        assert E.current_attention_mass(records) == float(got.mean())

    def test_mass_k1_window_is_one(self):
        rec = self.record(np.full((3, 3), 1 / 3), [0] * 3, [0] * 3, 0)
        assert E.current_attention_mass([rec]) == pytest.approx(1.0)

    def test_mass_uniform_two_equal_sentences_is_half(self):
        # s2to2 window, equal lengths, uniform attention -> mass 0.5
        n = 4
        q_seg = [0, 0, 1, 1]
        rec = self.record(np.full((n, n), 1.0 / n), q_seg, q_seg, 1)
        assert E.current_attention_mass([rec]) == pytest.approx(0.5)

    def test_mass_ignores_cross_attention(self):
        cross = self.record(np.full((2, 2), 0.5), [1, 1], [0, 0], 1, kind="cross")
        with pytest.raises(E.EvalError, match="no current-sentence"):
            E.current_attention_mass([cross])

    def test_mass_skews_with_weights(self):
        w = np.array([[0.9, 0.1], [0.2, 0.8]])
        # only row 1 is a current-sentence query (seg 1); key 1 is current
        rec = self.record(w, [0, 1], [0, 1], 1)
        assert E.current_attention_mass([rec]) == pytest.approx(0.8)


class TestExtraction:
    def test_current_is_after_last_sep(self):
        ids = [5, 6, C.SEP_ID, 7, 8, C.EOS_ID]
        cur, ok = E.extract_current(ids, expected_seps=1)
        assert cur == [7, 8] and ok

    def test_missing_sep_flags_malformed(self):
        ids = [5, 6, C.EOS_ID]
        cur, ok = E.extract_current(ids, expected_seps=1)
        assert cur == [5, 6] and not ok

    def test_extra_sep_takes_final_segment(self):
        ids = [5, C.SEP_ID, 6, C.SEP_ID, 7, C.EOS_ID]
        cur, ok = E.extract_current(ids, expected_seps=1)
        assert cur == [7] and not ok


@pytest.fixture(scope="module")
def chained(setup):
    """A copy of the ``setup`` model biased towards <E>, so that windows
    finish at different steps, five documents, window sizes, and the
    ``reference_ops.chained_reference`` hypotheses per size at beams 1 and 3."""
    docs, _, vocab, base = setup
    params = {k: Tensor(v.data.copy()) for k, v in base.params.items()}
    params["out&bias"].data[C.EOS_ID] += 1.0
    model = M.TransformerModel(base.config, params)
    docs, sizes = docs[:5], [1, 2, 3]
    return model, docs, vocab, sizes, {beam: R.chained_reference(model, docs, vocab, sizes,
                                                                 beam, 0.6) for beam in (1, 3)}


class TestRobustnessEval:
    def test_size_equal_training_k_matches_standard_eval(self, setup):
        docs, examples, vocab, model = setup
        subset = docs[:4]
        rows = E.robustness_eval(model, subset, vocab, [2], beam=2)
        [(hyps, refs, _)] = E.decode_current_sentences(model, subset, vocab, [2], beam=2)
        assert rows[0].bleu == pytest.approx(E.bleu(hyps, refs))
        assert rows[0].n_windows == sum(len(d.sentences) for d in subset)

    def test_accuracy_at_rebuilt_sizes(self, setup):
        docs, examples, vocab, model = setup
        sub_docs = docs[:10]
        ids = {d.doc_id for d in sub_docs}
        sub_examples = [e for e in examples if e.doc_id in ids]
        rows = E.robustness_eval(model, sub_docs, vocab, [1, 3], examples=sub_examples,
                                 beam=1)
        assert all(r.accuracy is not None for r in rows)

    def test_shared_windows_give_what_a_decode_per_size_gives(self, setup):
        docs, examples, vocab, model = setup
        sub_docs = docs[:12]  # 48 windows per size, two decode chunks
        ids = {d.doc_id for d in sub_docs}
        sub_examples = [e for e in examples if e.doc_id in ids]
        sizes = [1, 2, 3, 4]
        rows = E.robustness_eval(model, sub_docs, vocab, sizes, examples=sub_examples,
                                 beam=2, target_context="free")
        refs = [list(t) for d in sub_docs for _, t in d.sentences]
        by_id = {d.doc_id: d for d in sub_docs}
        for size, row in zip(sizes, rows):
            windows = [w for d in sub_docs for w in C.make_windows(d, size, vocab)]
            decoded = [out for lo in range(0, len(windows), E.BATCH_WINDOWS)
                       for out in model.decode(windows[lo:lo + E.BATCH_WINDOWS], beam=2)]
            current = [E.extract_current(out, w.size - 1) for w, out in zip(windows, decoded)]
            hyps = [vocab.decode(toks) for toks, _ in current]
            results = E.evaluate_contrastive(
                model, C.rebuild_examples(sub_examples, by_id, size), vocab)
            assert (row.size, row.hyps, row.refs, row.n_windows) == (size, hyps, refs, 48)
            assert row.malformed == sum(not ok for _, ok in current)
            assert row.bleu == E.bleu(hyps, refs)
            assert row.accuracy == E.overall_accuracy(results)

    @pytest.mark.parametrize("beam", [1, 3])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_own_context_equals_the_chained_reference(self, chained, monkeypatch, beam, cpus):
        model, docs, vocab, sizes, want = chained
        # chunks of 3 windows mix prefix lengths
        monkeypatch.setattr(E, "BATCH_WINDOWS", 3)
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        rows = E.robustness_eval(model, docs, vocab, sizes, beam=beam)
        assert [r.hyps for r in rows] == want[beam]
        assert [r.malformed for r in rows] == [0] * len(sizes)
        assert [r.bleu for r in rows] == [E.bleu(h, rows[0].refs) for h in want[beam]]

    def test_unknown_target_context_rejected(self, setup):
        docs, _, vocab, model = setup
        with pytest.raises(E.EvalError, match="gold"):
            E.decode_current_sentences(model, docs[:1], vocab, [2], target_context="gold")

    def test_oversized_window_rejected(self, setup):
        docs, _, vocab, _ = setup
        config = M.ModelConfig(vocab_size=32, layers=1, heads=2, hidden=16, ffn=32,
                               dropout=0.0, max_len=12)
        tiny = M.TransformerModel(config, seed=0)
        with pytest.raises(E.EvalError, match="max length"):
            E.robustness_eval(tiny, docs[:2], vocab, [4])
