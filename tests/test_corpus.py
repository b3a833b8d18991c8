import gc
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from winmt import corpus as C
from winmt import evaluation as E
from winmt import synth
from winmt.rng import stream

import reference_ops as R


@pytest.fixture
def vocab():
    return C.Vocab([f"t{i}" for i in range(10)])


def doc_of(token_rows):
    return C.Document.from_pairs("doc", [(row, row) for row in token_rows])


class TestVocab:
    def test_reserved_ids_fixed(self, vocab):
        assert vocab.decode(range(4)) == ["<PAD>", "<UNK>", "<S>", "<E>"]

    def test_round_trip(self, vocab):
        sent = ["t3", "t1", "t3"]
        assert vocab.decode(vocab.encode(sent)) == sent

    def test_oov_maps_to_unk(self, vocab):
        assert vocab.encode(["nope"]) == [C.UNK_ID]

    def test_reserved_tokens_rejected(self):
        with pytest.raises(C.CorpusError, match="^vocab contains reserved token '<S>'$"):
            C.Vocab(["a", "<S>"])

    def test_bijection(self, vocab):
        ids = vocab.encode(vocab.decode(range(len(vocab))))
        assert ids == list(range(len(vocab)))

    def test_save_load_round_trip(self, vocab, tmp_path):
        vocab.save(tmp_path / "vocab.json")
        loaded = C.Vocab.load(tmp_path / "vocab.json")
        assert len(loaded) == len(vocab)
        assert loaded.decode(range(len(vocab))) == vocab.decode(range(len(vocab)))

    @pytest.mark.parametrize("text", ['["t0", "t1"', '{"t0": 1}'])
    def test_truncated_or_foreign_file_names_itself(self, tmp_path, text):
        path = tmp_path / "vocab.json"
        path.write_text(text)
        with pytest.raises(C.CorpusError,
                           match=rf"^{re.escape(str(path))}: not a vocabulary file"):
            C.Vocab.load(path)

    def test_failed_save_keeps_old_file(self, vocab, tmp_path, monkeypatch):
        from winmt import checkpoint
        path = tmp_path / "vocab.json"
        vocab.save(path)
        old = path.read_bytes()

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            C.Vocab(["x", "y"]).save(path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.json"]


class TestDocument:
    def test_empty_document_rejected(self):
        with pytest.raises(C.CorpusError, match="no sentences"):
            C.Document("d", ())

    def test_reserved_token_rejected(self):
        with pytest.raises(C.CorpusError, match="reserved"):
            doc_of([["a", "<E>"]])


class TestMakeWindows:
    def test_full_window_mid_document(self, vocab):
        doc = doc_of([[f"t{i}"] * 2 for i in range(6)])
        w = C.make_windows(doc, 4, vocab)[5]
        # sentences 2..5 joined by <S>, ending <E>
        toks = vocab.decode(w.src_ids)
        assert toks == ["t2", "t2", "<S>", "t3", "t3", "<S>", "t4", "t4", "<S>",
                        "t5", "t5", "<E>"]
        assert w.size == 4
        assert w.src_seg == (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3)

    def test_document_start_truncates(self, vocab):
        doc = doc_of([["t1"], ["t2"]])
        w = C.make_windows(doc, 4, vocab)[0]
        assert vocab.decode(w.src_ids) == ["t1", "<E>"]
        assert w.size == 1
        assert w.src_ids.count(C.SEP_ID) == 0

    def test_k1_windows_are_single_sentences(self, vocab):
        doc = doc_of([["t1", "t2"], ["t3"]])
        for w in C.make_windows(doc, 1, vocab):
            assert w.size == 1
            assert C.SEP_ID not in w.src_ids

    def test_current_span_covers_max_segment(self, vocab):
        doc = doc_of([["t1", "t2"], ["t3", "t4", "t5"]])
        w = C.make_windows(doc, 2, vocab)[1]
        start, end = w.current_span
        span_segs = set(w.tgt_seg[start:end])
        assert span_segs == {w.size - 1}
        assert all(s < w.size - 1 for s in w.tgt_seg[:start])
        # <E> belongs to the current sentence
        assert w.tgt_ids[end - 1] == C.EOS_ID

    def test_window_count_and_verbatim_current(self, vocab):
        doc = doc_of([[f"t{i}", "t0"] for i in range(5)])
        windows = C.make_windows(doc, 3, vocab)
        assert len(windows) == len(doc.sentences)
        for j, w in enumerate(windows):
            start, end = w.current_span
            current = vocab.decode(w.tgt_ids[start:end - 1])  # strip <E>
            assert current == list(doc.sentences[j][1])

    def test_bad_window_size(self, vocab):
        with pytest.raises(C.CorpusError):
            C.make_windows(doc_of([["t1"]]), 0, vocab)


class TestWindowSharing:
    def test_window_has_no_instance_dict(self, vocab):
        w = C.make_windows(doc_of([["t1"], ["t2"]]), 2, vocab)[1]
        assert not hasattr(w, "__dict__")

    def test_same_lengths_share_segments_and_span(self, vocab):
        a = C.make_windows(doc_of([["t1", "t2"], ["t3"]]), 2, vocab)[1]
        b = R.window_from_sentences([["t4", "t5"], ["t6"]], [["t7", "t8"], ["t9"]], vocab)
        assert a.src_ids != b.src_ids
        assert a.src_seg is b.src_seg and a.tgt_seg is b.tgt_seg
        assert a.current_span is b.current_span

    def test_equals_and_hashes_like_window_from_fresh_tuples(self, vocab):
        for w in C.make_windows(doc_of([["t1", "t2"], ["t3"], ["t4", "t5", "t6"]]), 2, vocab):
            # as a caller outside winmt builds one, field by field from new tuples
            new = lambda t: tuple(list(t))
            fresh = C.Window(doc_id=w.doc_id, j=w.j, size=w.size, src_ids=new(w.src_ids),
                             tgt_ids=new(w.tgt_ids), src_seg=new(w.src_seg),
                             tgt_seg=new(w.tgt_seg), current_span=new(w.current_span))
            assert fresh.tgt_seg is not w.tgt_seg
            assert fresh == w and hash(fresh) == hash(w)

    def test_traced_bytes_per_window(self):
        # seed-7 synthetic documents at K=2: 469 bytes a window measured, the
        # _layout cache filled from empty included; bounded with a margin of
        # about 20 %. Per-window segment tuples held 755.
        docs, _ = synth.gen_synthetic(7, n_docs=500)
        vocab = C.Vocab.from_documents(docs)
        C._layout.cache_clear()
        gc.collect()  # empties the tuple free lists, whose reuse tracemalloc does not see
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            windows = [w for d in docs for w in C.make_windows(d, 2, vocab)]
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(windows) == 2000
        assert held / len(windows) < 560


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_window_invariants_property(data):
    vocab = C.Vocab([f"t{i}" for i in range(10)])
    n_sent = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 5))
    rows = [[f"t{data.draw(st.integers(0, 9))}" for _ in range(data.draw(st.integers(1, 5)))]
            for _ in range(n_sent)]
    doc = C.Document.from_pairs("d", [(r, r) for r in rows])
    windows = C.make_windows(doc, k, vocab)
    assert len(windows) == n_sent
    for w in windows:
        for ids, seg in ((w.src_ids, w.src_seg), (w.tgt_ids, w.tgt_seg)):
            assert ids.count(C.SEP_ID) == w.size - 1
            assert ids.count(C.EOS_ID) == 1 and ids[-1] == C.EOS_ID
            # seg is non-decreasing and increments exactly after each <S>
            for a, b, tok in zip(seg, seg[1:], ids):
                assert b - a == (1 if tok == C.SEP_ID else 0)
            assert seg[0] == 0
        start, end = w.current_span
        assert end > start
        assert (start, end) == (w.tgt_seg.index(w.size - 1), len(w.tgt_ids))


class TestComputeShift:
    def test_fixed(self):
        assert C.compute_shift("fixed:100") == 100

    def test_avg_corpus(self):
        assert C.compute_shift("avg-corpus", lengths=[6, 10]) == 8

    def test_avg_sequence(self):
        vocab = C.Vocab(["a"])
        sents = [["a"] * 3, ["a"] * 5, ["a"] * 4, ["a"] * 4]
        w = R.window_from_sentences(sents, sents, vocab)
        # mean length 4.0 -> 4
        assert C.compute_shift("avg-sequence", window=w) == 4

    def test_separators_not_counted(self):
        vocab = C.Vocab(["a"])
        sents = [["a", "a"], ["a", "a"]]
        w = R.window_from_sentences(sents, sents, vocab)
        assert C.compute_shift("avg-sequence", window=w) == 2

    def test_empty_corpus_rejected(self):
        with pytest.raises(C.CorpusError):
            C.compute_shift("avg-corpus", lengths=[])

    def test_negative_fixed_rejected(self):
        with pytest.raises(C.CorpusError):
            C.compute_shift("fixed:-1")


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        docs = [doc_of([["a", "b"], ["c"]]), doc_of([["d"]])]
        path = tmp_path / "corpus.txt"
        C.write_corpus(path, docs)
        loaded = read = C.read_corpus(path)
        assert len(loaded) == 2
        assert loaded[0].sentences == docs[0].sentences
        assert loaded[1].sentences == docs[1].sentences

    def test_equal_tokens_are_one_object(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("the-cat sat.down ||| sat.down the-cat\n\nthe-cat ||| sat.down\n")
        first, second = C.read_corpus(path)
        (src, tgt), = first.sentences
        (src2, tgt2), = second.sentences
        assert src[0] is tgt[1] is src2[0]
        assert src[1] is tgt[0] is tgt2[0]

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("no separator here\n")
        with pytest.raises(C.CorpusError, match="expected"):
            C.read_corpus(path)

    @pytest.mark.parametrize("line", ["a <PAD> ||| a b", "a b ||| <PAD> b"],
                             ids=["source", "target"])
    def test_reserved_token_names_its_line(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"a ||| b\n\nc ||| d\n{line}\n")
        with pytest.raises(C.CorpusError) as err:
            C.read_corpus(path)
        assert str(err.value) == f"{path}:4: document 'd00001' contains reserved token '<PAD>'"

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes("a ||| b\n\nc \u00e9 ||| d\n".encode() + b"e \xff ||| f\n")
        with pytest.raises(C.CorpusError, match=rf"^{re.escape(str(path))}:4: invalid UTF-8"):
            C.read_corpus(path)

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(C.CorpusError, match="empty"):
            C.read_corpus(path)


class TestEncodedCorpus:
    @pytest.fixture
    def corpus_file(self, tmp_path):
        """Documents of 1 to 5 sentences, so that some are shorter than each K."""
        docs, _ = synth.gen_synthetic(3, n_docs=12, vocab_size=24)
        docs = [C.Document.from_pairs(d.doc_id, d.sentences[:1 + i % 5])
                for i, d in enumerate(docs)]
        path = tmp_path / "train.txt"
        C.write_corpus(path, docs)
        return path

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_windows_are_make_windows_windows(self, corpus_file, k):
        docs = C.read_corpus(corpus_file)
        vocab = C.Vocab.from_documents(docs[:6])  # tokens of later documents map to <UNK>
        encoded = C.EncodedCorpus.read(corpus_file, vocab)
        want = [w for d in docs for w in C.make_windows(d, k, vocab)]
        assert len(encoded) == len(want)
        assert encoded.windows(range(len(encoded)), k) == want
        assert encoded.target_lengths(k) == [len(w.tgt_ids) for w in want]
        picked = [5, 0, len(want) - 1, 5]
        assert encoded.windows(picked, k) == [want[i] for i in picked]
        assert encoded.src.dtype == encoded.tgt.dtype == np.int32
        for bad_size in (encoded.target_lengths, lambda k: encoded.windows([0], k)):
            with pytest.raises(C.CorpusError, match="window size must be >= 1, got 0"):
                bad_size(0)

    def test_source_lengths_and_vocab_are_those_of_the_documents(self, corpus_file):
        docs = C.read_corpus(corpus_file)
        vocab = C.Vocab.from_corpus_file(corpus_file)
        assert vocab.digest == C.Vocab.from_documents(docs).digest
        assert C.EncodedCorpus.read(corpus_file, vocab).source_lengths() == [
            len(src) for d in docs for src, _ in d.sentences]

    @pytest.mark.parametrize("text", [
        b"a ||| b\n\nno separator\n", b"a ||| b\n\nc ||| d\na <PAD> ||| b\n",
        b"a ||| b\n\nc \xff ||| d\n", b"\n\n"], ids=["format", "reserved", "utf8", "empty"])
    def test_a_bad_file_raises_the_error_of_read_corpus(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text)
        with pytest.raises(C.CorpusError) as want:
            C.read_corpus(path)
        for read in (C.Vocab.from_corpus_file, lambda p: C.EncodedCorpus.read(p, C.Vocab([]))):
            with pytest.raises(C.CorpusError) as got:
                read(path)
            assert str(got.value) == str(want.value)


class TestContrastiveIO:
    def example(self):
        return C.ContrastiveExample(
            example_id="d0:1", doc_id="d0", j=1,
            src_sentences=(("a", "b"), ("c", "amb")),
            candidates=((("a", "b"), ("c", "amb_a")), (("a", "b"), ("c", "amb_b"))),
            phenomenon="agreement", distance=1)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "contrastive.jsonl"
        ex = self.example()
        C.write_contrastive(path, [ex])
        loaded = C.read_contrastive(path)
        assert loaded == [ex]

    def test_equal_tokens_are_one_object(self, tmp_path):
        path = tmp_path / "contrastive.jsonl"
        C.write_contrastive(path, [self.example(), replace(self.example(), example_id="d0:2")])
        first, second = C.read_contrastive(path)
        assert first.src_sentences[1][1] is second.src_sentences[1][1]
        assert first.candidates[0][1][1] is second.candidates[0][1][1]

    @pytest.mark.parametrize("change,message", [
        ({"distance": None}, "missing key 'distance'"),
        ({"distance": "two"}, "'distance' must be an integer >= 0, got 'two'"),
        ({"distance": -1}, "'distance' must be an integer >= 0"),
        ({"j": True}, "'j' must be an integer >= 0, got True"),
        ({"phenomenon": 3}, "'phenomenon' must be a string"),
        ({"candidates": ["a b <S> c amb_a"] * 3}, "expected exactly 2 candidates"),
        ({"candidates": ["a b <S> c amb_a", 5]}, "candidates must be strings"),
        ({"candidates": ["a b <S> c amb_a", "z <S> c amb_b"]}, "outside the current"),
        ({}, "example id 'd0:1' repeats line 1"),  # a valid record, but the same id
    ])
    def test_record_that_breaks_the_schema_names_its_line(self, tmp_path, change, message):
        path = tmp_path / "contrastive.jsonl"
        C.write_contrastive(path, [self.example()] * 2)
        first, second = path.read_text().splitlines()
        rec = json.loads(second)
        rec.update(change)
        rec = {k: v for k, v in rec.items() if v is not None}
        path.write_text(f"{first}\n\n{json.dumps(rec)}\n")
        with pytest.raises(C.CorpusError) as err:
            C.read_contrastive(path)
        assert str(err.value).startswith(f"{path}:3: ") and message in str(err.value)

    @pytest.mark.parametrize("token", [C.PAD, C.UNK, C.EOS])
    @pytest.mark.parametrize("where", ["source", "candidate"])
    def test_reserved_token_names_its_line(self, tmp_path, where, token):
        path = tmp_path / "contrastive.jsonl"
        C.write_contrastive(path, [self.example()] * 2)
        first, second = path.read_text().splitlines()
        rec = json.loads(second)
        if where == "source":
            rec["src"] = f"{token} {rec['src']}"
        else:
            rec["candidates"] = [f"{c} {token}" for c in rec["candidates"]]
        path.write_text(f"{first}\n{json.dumps(rec)}\n")
        with pytest.raises(C.CorpusError) as err:
            C.read_contrastive(path)
        assert str(err.value) == f"{path}:2: example 'd0:1' contains reserved token {token!r}"

    def test_line_that_is_not_json_or_utf8_names_itself(self, tmp_path):
        path = tmp_path / "contrastive.jsonl"
        C.write_contrastive(path, [self.example()])
        valid = path.read_bytes()
        path.write_bytes(valid + valid[:20] + b"\n")
        with pytest.raises(C.CorpusError, match=rf"^{re.escape(str(path))}:2: "):
            C.read_contrastive(path)
        path.write_bytes(valid + b'{"id": "\xff"}\n')
        with pytest.raises(C.CorpusError, match=rf"^{re.escape(str(path))}:2: invalid UTF-8"):
            C.read_contrastive(path)

    def test_candidates_must_match_outside_current(self):
        with pytest.raises(C.CorpusError, match="outside"):
            C.ContrastiveExample(
                example_id="x", doc_id="d", j=1,
                src_sentences=(("a",), ("b",)),
                candidates=((("a",), ("b",)), (("z",), ("b",))),
                phenomenon="p", distance=0)

    def test_needs_two_candidates(self):
        with pytest.raises(C.CorpusError, match="candidates"):
            C.ContrastiveExample(example_id="x", doc_id="d", j=0,
                                 src_sentences=(("a",),),
                                 candidates=((("a",),),),
                                 phenomenon="p", distance=0)

    def test_rebuild_at_other_window_size(self):
        doc = C.Document.from_pairs("d0", [
            (["x1"], ["x1"]), (["a", "b"], ["a", "b"]), (["c", "amb"], ["c", "amb_a"])])
        ex = C.ContrastiveExample(
            example_id="d0:2", doc_id="d0", j=2,
            src_sentences=(("a", "b"), ("c", "amb")),
            candidates=((("a", "b"), ("c", "amb_a")), (("a", "b"), ("c", "amb_b"))),
            phenomenon="agreement", distance=1)
        rebuilt = C.rebuild_examples([ex], {"d0": doc}, 3)[0]
        assert rebuilt.src_sentences == (("x1",), ("a", "b"), ("c", "amb"))
        assert rebuilt.candidates[0][-1] == ("c", "amb_a")
        assert rebuilt.candidates[1][-1] == ("c", "amb_b")
        assert rebuilt.candidates[1][:-1] == rebuilt.candidates[0][:-1]
        # a distractor whose current sentence has another length keeps it whole
        doc = C.Document.from_pairs("d1", [(["x1"], ["x1"]), (["a"], ["A"]), (["b"], ["B"]),
                                           (["c", "amb", "d"], ["C", "amb_a", "D"])])
        context = (("A",), ("B",))
        distractors = (("C", "x"), ("C", "amb_b", "D", "E"))
        ex = C.ContrastiveExample(
            example_id="d1:3", doc_id="d1", j=3, src_sentences=(("a",), ("b",), ("c", "amb", "d")),
            candidates=tuple(context + (cur,) for cur in (("C", "amb_a", "D"), *distractors)),
            phenomenon="agreement", distance=1)
        E.check_example_windows([ex], {"d1": doc})
        for k, context in ((3, context), (4, (("x1",), *context))):
            rebuilt = C.rebuild_examples([ex], {"d1": doc}, k)[0]
            assert rebuilt.candidates == tuple(context + (cur,) for cur in (
                ("C", "amb_a", "D"), *distractors))

    @pytest.mark.parametrize("sentences", [1, 2, 4])
    def test_candidate_windows_are_those_of_window_from_sentences(self, sentences):
        vocab = C.Vocab(["a", "b", "c", "amb_a", "amb_b"])  # "amb", "amb_c" unknown
        context = tuple(("a", "b", "c")[:i + 1] for i in range(sentences - 1))
        ex = C.ContrastiveExample(
            example_id="d0:3", doc_id="d0", j=3,
            src_sentences=context + (("c", "amb"),),
            candidates=tuple(context + ((tok, "b"),) for tok in ("amb_a", "amb_b", "amb_c")),
            phenomenon="agreement", distance=1)
        assert ex.candidate_windows(vocab) == [
            R.window_from_sentences(ex.src_sentences, cand, vocab, doc_id="d0", j=3)
            for cand in ex.candidates]

    def test_candidate_windows_keep_the_sentence_count_error(self, vocab):
        ex = C.ContrastiveExample(
            example_id="x", doc_id="d", j=1, src_sentences=(("t1",),),
            candidates=((("t1",), ("t2",)), (("t1",), ("t3",))), phenomenon="p", distance=0)
        with pytest.raises(C.CorpusError) as want:
            R.window_from_sentences(ex.src_sentences, ex.candidates[0], vocab)
        with pytest.raises(C.CorpusError) as got:
            ex.candidate_windows(vocab)
        assert str(got.value) == str(want.value)


def test_split_documents():
    docs = [doc_of([[f"t{i}"]]) for i in range(100)]
    train, dev, test = C.split_documents(docs, (80, 10, 10))
    assert (len(train), len(dev), len(test)) == (80, 10, 10)
    assert train[0] is docs[0] and test[-1] is docs[-1]
