import dataclasses
import json
import os
import signal
import time

import numpy as np
import pytest

from winmt import corpus as C
from winmt import evaluation as E
from winmt import model as M
from winmt import parallel
from winmt import synth
from winmt import trainer as TR
from winmt.cli import main

# one process, two and three processes, and more CPUs than items
WORKERS = (1, 2, 3, 64)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def setup():
    docs, examples = synth.gen_synthetic(2, n_docs=100, vocab_size=32)
    vocab = C.Vocab.from_documents(docs)
    config = M.ModelConfig(vocab_size=len(vocab), layers=1, heads=2, hidden=16,
                           ffn=32, dropout=0.0)
    # the 26 documents make 104 windows, 4 chunks of decoding
    return docs[:26], examples, vocab, M.TransformerModel(config, seed=4)


def bits(x):
    """``x`` with every float and array replaced by its exact bytes, so that
    equal values mean equal bits."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    assert isinstance(x, (int, str)), type(x)
    return x


def per_worker_count(monkeypatch, run):
    """``bits(run())`` with each count in ``WORKERS``."""
    out = []
    for n in WORKERS:
        monkeypatch.setattr(parallel, "available_cpus", lambda n=n: n)
        out.append(bits(run()))
    return out


def test_map_keeps_item_order_and_deals_round_robin(monkeypatch):
    for n in WORKERS:
        monkeypatch.setattr(parallel, "available_cpus", lambda n=n: n)
        assert parallel.map_ordered(lambda x: x * x, range(11)) == [x * x for x in range(11)]
        assert parallel.map_ordered(lambda x: x, []) == []
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    pids = parallel.map_ordered(lambda x: os.getpid(), range(7))
    assert pids[0::3] == [os.getpid()] * 3 and len(set(pids)) == 3
    assert pids[1::3] == [pids[1]] * 2 and pids[2::3] == [pids[2]] * 2


@pytest.mark.parametrize("mode", ["full", "current"])
def test_contrastive_scores_are_the_same_for_any_worker_count(setup, monkeypatch, mode):
    _, examples, vocab, model = setup
    assert sum(len(ex.candidates) for ex in examples) > 3 * E.BATCH_CANDIDATES
    runs = per_worker_count(monkeypatch,
                            lambda: E.evaluate_contrastive(model, examples, vocab, mode))
    assert len(set(runs)) == 1


def test_decoded_sentences_are_the_same_for_any_worker_count(setup, monkeypatch):
    docs, _, vocab, model = setup
    assert sum(len(d.sentences) for d in docs) > 3 * E.BATCH_WINDOWS
    runs = per_worker_count(monkeypatch,
                            lambda: E.decode_current_sentences(model, docs, vocab, 2, beam=2))
    assert len(set(runs)) == 1


def test_window_losses_and_diagnosis_are_the_same_for_any_worker_count(setup, monkeypatch):
    docs, _, vocab, model = setup
    windows = [w for d in docs for w in C.make_windows(d, 2, vocab)]
    batches = [windows[lo:lo + 16] for lo in range(0, len(windows), 16)]
    runs = per_worker_count(monkeypatch, lambda: TR.window_losses(model, batches, 0.1))
    assert len(set(runs)) == 1 and len(runs[0][0]) == len(windows)
    # diagnose maps 4 chunks of 32 windows; its entropy rows, masses and losses
    runs = per_worker_count(monkeypatch, lambda: TR.diagnose(model, docs, vocab, 2, 0.1, 0))
    assert len(set(runs)) == 1
    # one row per (head, query) of the one layer's three kinds of attention
    queries = sum(len(w.src_ids) + 2 * len(w.tgt_ids) for w in windows)
    assert runs[0][0] == len(windows) and runs[0][-1][1] == (model.config.heads * queries,)


def leaves(x):
    """Every value in ``x`` that is not a list or tuple."""
    if isinstance(x, (list, tuple)):
        for v in x:
            yield from leaves(v)
    else:
        yield x


def test_no_attention_record_leaves_a_mapped_batch(setup, monkeypatch):
    docs, _, vocab, model = setup
    results = []

    def spy(fn, items):
        out = parallel.map_ordered(fn, items)
        results.extend(out)
        return out

    monkeypatch.setattr(TR, "map_ordered", spy)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    TR.diagnose(model, docs, vocab, 2, 0.1, 0)
    assert len(results) == 4
    values = list(leaves(results))
    assert not any(isinstance(v, M.AttentionRecord) for v in values)
    assert all(isinstance(v, (int, float, np.ndarray)) for v in values)


def with_pad_in_last_chunk(examples):
    bad = examples[-1]
    pad = bad.candidates[1][:-1] + ((C.PAD,),)
    return examples[:-1] + [dataclasses.replace(bad, candidates=(bad.candidates[0], pad))]


def test_worker_error_is_raised_again_in_the_parent(setup, monkeypatch, tmp_path):
    _, examples, vocab, model = setup
    examples = with_pad_in_last_chunk(examples)
    check = E._check_candidates

    def noting_pid(example):
        try:
            check(example)
        except E.EvalError:
            (tmp_path / "raised_in").write_text(str(os.getpid()))
            raise

    monkeypatch.setattr(E, "_check_candidates", noting_pid)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 64)  # one chunk per process
    with pytest.raises(E.EvalError, match=rf"{examples[-1].example_id!r}: candidate contains"):
        E.evaluate_contrastive(model, examples, vocab)
    assert int((tmp_path / "raised_in").read_text()) != os.getpid()


def test_contrastive_command_error_is_the_same_for_any_worker_count(monkeypatch, tmp_path,
                                                                    capsys):
    assert main(["gen-data", "--out", str(tmp_path / "train"), "--seed", "5", "--docs", "30",
                 "--vocab-size", "32"]) == 0
    assert main(["train", "--data", str(tmp_path / "train"), "--out", str(tmp_path / "run"),
                 "--hidden", "16", "--ffn", "32", "--heads", "2", "--layers", "1",
                 "--max-steps", "2", "--val-interval", "2"]) == 0
    # a test split of several scoring chunks, in the run's vocabulary
    assert main(["gen-data", "--out", str(tmp_path / "data"), "--seed", "6", "--docs", "100",
                 "--vocab-size", "32", "--split", "0/0/100"]) == 0
    path = tmp_path / "data" / "contrastive_test.jsonl"
    examples = C.read_contrastive(path)
    assert len(examples) * 2 > E.BATCH_CANDIDATES  # more than one chunk
    C.write_contrastive(path, with_pad_in_last_chunk(examples))
    capsys.readouterr()
    errors = []
    for n in (1, 64):
        monkeypatch.setattr(parallel, "available_cpus", lambda n=n: n)
        assert main(["contrastive", "--run", str(tmp_path / "run"), "--data",
                     str(tmp_path / "data"), "--report-dir", str(tmp_path / f"r{n}")]) == 2
        errors.append(json.loads(capsys.readouterr().err.strip().splitlines()[-1]))
    assert errors[0] == errors[1]
    assert errors[0]["error"] == "EvalError" and C.PAD in errors[0]["message"]


def test_first_failing_item_wins_as_in_the_loop(monkeypatch):
    def fail(x):
        if x in (3, 4):  # item 3 runs in a child, item 4 in this process
            raise KeyError(f"item {x}")
        return x

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    with pytest.raises(KeyError, match="item 3"):
        parallel.map_ordered(fail, range(8))


def test_unpicklable_worker_error_keeps_its_type_and_message(monkeypatch):
    class Custom(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a} and {b}")

    def fail(x):
        if x == 1:
            raise Custom("one", "two")
        return x

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="Custom: one and two"):
        parallel.map_ordered(fail, range(2))


def test_killed_worker_raises_a_named_error(monkeypatch):
    parent = os.getpid()

    def die_in_child(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    with pytest.raises(parallel.WorkerError, match="killed by signal SIGKILL"):
        parallel.map_ordered(die_in_child, range(6))


def test_worker_that_exits_names_its_status(monkeypatch):
    parent = os.getpid()

    def exit_in_child(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    with pytest.raises(parallel.WorkerError, match="exit status 3"):
        parallel.map_ordered(exit_in_child, range(2))


def test_failing_parent_kills_and_reaps_its_workers(monkeypatch):
    parent = os.getpid()

    def interrupt_parent(x):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a worker that the parent must not wait for

    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel.map_ordered(interrupt_parent, range(3))
    assert time.monotonic() - start < 30


def test_workers_flush_no_inherited_buffer(monkeypatch, tmp_path):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    with open(tmp_path / "log.txt", "w") as fh:
        fh.write("written once")  # still in this process's buffer at the fork
        assert parallel.map_ordered(lambda x: x, range(3)) == [0, 1, 2]
    assert (tmp_path / "log.txt").read_text() == "written once"
