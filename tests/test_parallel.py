import ast
import contextlib
import dataclasses
import io
import json
import math
import mmap
import os
import pickle
import shutil
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from winmt import corpus as C
from winmt import evaluation as E
from winmt import model as M
from winmt import objective as O
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


@pytest.mark.parametrize("target_context", E.TARGET_CONTEXTS)
def test_decoded_sentences_are_the_same_for_any_worker_count(setup, monkeypatch,
                                                            target_context):
    docs, _, vocab, model = setup
    assert sum(len(d.sentences) for d in docs) > 3 * E.BATCH_WINDOWS
    # sizes 3 and 4 decode only the windows that no smaller size holds
    runs = per_worker_count(monkeypatch, lambda: E.decode_current_sentences(
        model, docs, vocab, (2, 3, 4), beam=2, target_context=target_context))
    assert len(set(runs)) == 1 and len(runs[0]) == 3


@pytest.fixture(scope="module")
def dev_corpus(setup, tmp_path_factory):
    """The documents of ``setup`` written and read back as an ``EncodedCorpus``."""
    docs, _, vocab, _ = setup
    path = tmp_path_factory.mktemp("corpus") / "dev.txt"
    C.write_corpus(path, docs)
    return C.EncodedCorpus.read(path, vocab)


def test_window_losses_and_diagnosis_are_the_same_for_any_worker_count(setup, dev_corpus,
                                                                       monkeypatch):
    _, _, _, model = setup
    n = len(dev_corpus)
    batches = [range(lo, min(lo + 16, n)) for lo in range(0, n, 16)]
    runs = per_worker_count(monkeypatch, lambda: TR.span_losses(model, dev_corpus, 2, batches,
                                                                0.1, capture=True))
    assert len(set(runs)) == 1
    # diagnose maps 4 chunks of 32 windows; its entropy rows, masses and losses
    runs = per_worker_count(monkeypatch, lambda: TR.diagnose(model, dev_corpus, 2, 0.1, 0))
    assert len(set(runs)) == 1
    # one row per (head, query) of the one layer's three kinds of attention
    windows = dev_corpus.windows(range(n), 2)
    queries = sum(len(w.src_ids) + 2 * len(w.tgt_ids) for w in windows)
    assert runs[0][0] == len(windows) and runs[0][-1][1] == (model.config.heads * queries,)


def leaves(x):
    """Every value in ``x`` that is not a list or tuple."""
    if isinstance(x, (list, tuple)):
        for v in x:
            yield from leaves(v)
    else:
        yield x


def test_no_attention_record_leaves_a_mapped_batch(setup, dev_corpus, monkeypatch):
    model = setup[3]
    results = []

    def spy(fn, items):
        out = parallel.map_ordered(fn, items)
        results.extend(out)
        return out

    monkeypatch.setattr(E, "map_ordered", spy)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    TR.diagnose(model, dev_corpus, 2, 0.1, 0)
    assert len(results) == 4
    values = list(leaves(results))
    assert not any(isinstance(v, M.AttentionRecord) for v in values)
    assert all(isinstance(v, (int, float, np.ndarray)) for v in values)


def with_overlong_candidate_last(examples, max_len):
    """``examples`` with the last one's distractor made longer than
    ``max_len`` tokens, which ``model.build_batch`` rejects when the last
    chunk is scored; and the length of that distractor's target window."""
    bad = examples[-1]
    ref = bad.candidates[0]
    overlong = ref[:-1] + (ref[-1] * (max_len // len(ref[-1]) + 1),)
    examples = examples[:-1] + [dataclasses.replace(bad, candidates=(ref, overlong))]
    length = sum(map(len, overlong)) + len(overlong)  # a <S> after each context sentence, <E>
    assert length > max_len
    return examples, length


def test_worker_error_is_raised_again_in_the_parent(setup, monkeypatch, tmp_path):
    _, examples, vocab, model = setup
    examples, length = with_overlong_candidate_last(examples, model.config.max_len)
    build = M.build_batch

    def noting_pid(windows, config):
        try:
            return build(windows, config)
        except M.ModelError:
            (tmp_path / "raised_in").write_text(str(os.getpid()))
            raise

    monkeypatch.setattr(E, "build_batch", noting_pid)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 64)  # one chunk per process
    with pytest.raises(M.ModelError, match=f"sequence length {length} exceeds configured max "
                                           f"{model.config.max_len}$"):
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
    max_len = TR.TrainConfig.max_len  # the run's
    examples, length = with_overlong_candidate_last(examples, max_len)
    C.write_contrastive(path, examples)
    capsys.readouterr()
    errors = []
    for n in (1, 64):
        monkeypatch.setattr(parallel, "available_cpus", lambda n=n: n)
        assert main(["contrastive", "--run", str(tmp_path / "run"), "--data",
                     str(tmp_path / "data"), "--report-dir", str(tmp_path / f"r{n}")]) == 2
        errors.append(json.loads(capsys.readouterr().err.strip().splitlines()[-1]))
    assert errors[0] == errors[1]
    assert errors[0] == {"error": "ModelError", "message": f"sequence length {length} "
                                                           f"exceeds configured max {max_len}"}


def test_first_failing_item_wins_as_in_the_loop(monkeypatch):
    def fail(x):
        if x in (3, 4):  # item 3 runs in a child, item 4 in this process
            raise KeyError(f"item {x}")
        return x

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    with pytest.raises(KeyError, match="item 3"):
        parallel.map_ordered(fail, range(8))


def test_unpicklable_result_fails_its_shards_first_item(monkeypatch):
    def item(x):
        if x == 0 and fail_first:
            raise KeyError("item 0")
        return (lambda: 0) if x == 3 else x  # item 3 runs in the child

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    fail_first = False
    with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
        parallel.map_ordered(item, range(4))
    fail_first = True  # an earlier failing item wins, as in the loop
    with pytest.raises(KeyError, match="item 0"):
        parallel.map_ordered(item, range(4))


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


def test_interrupted_wait_kills_and_reaps_the_worker(monkeypatch):
    parent = os.getpid()

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    def sleep_in_child(x):
        if os.getpid() != parent:
            time.sleep(60)  # a worker the parent must not wait for
        return x

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(KeyboardInterrupt):
            parallel.map_ordered(sleep_in_child, range(2))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def served_once(fn):
    """``fn()`` computed by a served worker, which is closed after it."""
    server = parallel.serve(fn)
    try:
        server.send()
        return server.result()
    finally:
        server.close()


def test_work_inside_a_worker_runs_in_the_worker(monkeypatch):
    def inner():
        server = parallel.serve(abs)
        if server is not None:  # in the calling process only
            server.close()
        return (os.getpid(), parallel.map_ordered(lambda x: (x * x, os.getpid()), range(5)),
                server is None)

    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    pid, mapped, served_nothing = served_once(inner)
    assert pid != os.getpid()
    assert mapped == [(x * x, pid) for x in range(5)] and served_nothing
    # the same in the workers of a map
    outer = parallel.map_ordered(lambda _: inner(), range(3))
    assert outer[0][0] == os.getpid() and len({pid for pid, _, _ in outer}) == 3
    assert not outer[0][2]
    for pid, mapped, served_nothing in outer[1:]:
        assert mapped == [(x * x, pid) for x in range(5)] and served_nothing


def test_served_requests_run_in_one_worker_in_order(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    shared = parallel.shared_arrays({"x": np.zeros(3), "n": np.zeros((), dtype=np.int64)})

    def add(k):
        shared["x"] += k  # the caller sees the worker's writes
        shared["n"] += 1
        return os.getpid(), k * k

    server = parallel.serve(add)
    try:
        outcomes = []
        for k in range(1, 4):
            server.send(k)
            outcomes.append(server.result())
    finally:
        server.close()
    assert len({pid for pid, _ in outcomes}) == 1 and outcomes[0][0] != os.getpid()
    assert [sq for _, sq in outcomes] == [1, 4, 9]
    assert shared["x"].tolist() == [6.0] * 3 and int(shared["n"]) == 3


def test_serve_on_one_cpu_or_in_a_worker_forks_nothing(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    assert parallel.serve(abs) is None
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    assert served_once(lambda: parallel.serve(abs) is None)


def test_served_error_keeps_its_type_and_the_worker_serves_on(monkeypatch):
    class Custom(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a} and {b}")

    def fail(kind):
        if kind == "key":
            raise KeyError("in the worker")
        if kind == "custom":
            raise Custom("one", "two")
        return (lambda: 0) if kind == "unpicklable" else "served"

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    server = parallel.serve(fail)
    try:
        server.send("key")
        with pytest.raises(KeyError, match="in the worker"):
            server.result()
        server.send("custom")
        with pytest.raises(RuntimeError, match="Custom: one and two"):
            server.result()
        server.send("unpicklable")
        with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
            server.result()
        with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
            server.send(lambda: 0)  # an unpicklable request is never sent
        server.send("none")
        assert server.result() == "served"
    finally:
        server.close()


def test_killed_served_worker_raises_a_named_error(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    server = parallel.serve(lambda sig: os.kill(os.getpid(), sig))
    try:
        server.send(signal.SIGKILL)
        with pytest.raises(parallel.WorkerError, match="killed by signal SIGKILL"):
            server.result()  # waits for the worker to end
        with pytest.raises(parallel.WorkerError, match="has ended"):
            server.send(signal.SIGKILL)
    finally:
        server.close()


def test_served_worker_stops_at_the_end_of_its_requests(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    server = parallel.serve(abs)
    os.close(server._requests)  # as when every process holding the write end has ended
    server._requests = None
    assert os.waitstatus_to_exitcode(os.waitpid(server._pid, 0)[1]) == 0
    server._pid = None
    server.close()


def test_closing_a_busy_served_worker_kills_it(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    server = parallel.serve(time.sleep)
    start = time.monotonic()
    server.send(60)  # a request the caller must not wait for
    server.close()
    assert time.monotonic() - start < 30


def fork_sites(node, where):
    """The enclosing (module, class, function) names of each ``os.fork`` in ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = where + (child.name,)
        elif isinstance(child, ast.Attribute) and child.attr == "fork" and (
                isinstance(child.value, ast.Name) and child.value.id == "os"):
            yield where
        elif isinstance(child, ast.ImportFrom) and any("fork" in a.name for a in child.names):
            yield where
        yield from fork_sites(child, inner)


def test_serve_holds_the_only_fork():
    sources = sorted(Path(parallel.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    sites = [site for path in sources
             for site in fork_sites(ast.parse(path.read_text()), (path.stem,))]
    assert sites == [("parallel", "serve")]


# ---------------------------------------------------------------------------
# training: each interval's validation runs over every CPU before the next step


@pytest.fixture(scope="module")
def train_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("train") / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--out", str(data), "--seed", "5", "--docs", "40",
                     "--vocab-size", "32"]) == 0
    return data


def train_config(data, run, **kw):
    return TR.TrainConfig(**dict(dict(
        data_dir=str(data), out_dir=str(run), seed=3, layers=1, heads=2, hidden=16, ffn=32,
        warmup=20, batch_tokens=256, val_interval=5), **kw))


@pytest.fixture
def trained_steps(monkeypatch):
    """The steps this process trains."""
    steps, train_step = [], TR.Trainer._train_step

    def noting(self, batch, step):
        steps.append(step)
        return train_step(self, batch, step)

    monkeypatch.setattr(TR.Trainer, "_train_step", noting)
    return steps


def run_files(run):
    return {p.relative_to(run).as_posix(): p.read_bytes()
            for p in sorted(run.rglob("*")) if p.is_file()}


def train_per_worker_count(monkeypatch, trained_steps, run, *configs):
    """For each count in ``WORKERS``, train from ``configs`` in turn (each
    after the first resumes) into a new ``run``. Checks that the run's files
    and the final parameters and optimizer state are the same for every
    count; returns the files and, per count, the last step this process
    trained."""
    out = []
    for n in WORKERS:
        monkeypatch.setattr(parallel, "available_cpus", lambda n=n: n)
        shutil.rmtree(run, ignore_errors=True)
        trained_steps.clear()
        for i, config in enumerate(configs):
            trainer = TR.Trainer(config)
            trainer.train(resume=i > 0)
        opt = trainer.opt
        out.append((run_files(run), bits([p.data for p in trainer.model.params.values()]),
                    bits([opt.t, list(opt.m.values()), list(opt.v.values())]),
                    max(trained_steps)))
    assert all(o[:3] == out[0][:3] for o in out[1:])
    return out[0][0], [o[3] for o in out]


def state(files):
    return json.loads(files["trainer_state.json"])


def test_capped_run_is_the_same_for_any_worker_count(train_data, monkeypatch, trained_steps,
                                                    tmp_path):
    files, last = train_per_worker_count(monkeypatch, trained_steps, tmp_path / "run",
                                         train_config(train_data, tmp_path / "run",
                                                      max_steps=13, val_interval=4))
    assert last == [13] * len(WORKERS)
    # the state names the last validation, whose checkpoint exists
    assert state(files)["step"] == 12 and "checkpoints/ckpt_0000012.bin" in files
    assert [line.split(b",")[1] for line in files["log.csv"].splitlines()[1:]] == [
        b"4", b"8", b"12"]


def test_early_stop_trains_no_step_past_it(train_data, monkeypatch, trained_steps, tmp_path):
    # with no learning every validation after the first is worse: a stop at step 6
    config = train_config(train_data, tmp_path / "run", patience=1, peak_lr=0.0,
                          val_interval=3, max_steps=40)
    files, last = train_per_worker_count(monkeypatch, trained_steps, tmp_path / "run",
                                         config)
    assert state(files)["stopped"] and state(files)["step"] == 6
    assert last == [6] * len(WORKERS)


def test_stop_at_an_epochs_last_batch_keeps_its_position(train_data, monkeypatch,
                                                         trained_steps, tmp_path):
    config = train_config(train_data, tmp_path / "run", patience=1, peak_lr=0.0,
                          batch_tokens=512, max_epochs=3)
    per_epoch = len(TR.Trainer(config)._epoch_batches(0))
    assert per_epoch % 2 == 0  # the second validation is at the epoch's last batch
    config.val_interval = per_epoch // 2
    files, last = train_per_worker_count(monkeypatch, trained_steps, tmp_path / "run",
                                         config)
    assert {k: state(files)[k] for k in ("stopped", "epoch", "batch_idx", "step")} == {
        "stopped": True, "epoch": 0, "batch_idx": per_epoch, "step": per_epoch}
    assert last == [per_epoch] * len(WORKERS)


@pytest.mark.parametrize("stops", [True, False])
def test_divergence_past_a_pending_validation(train_data, monkeypatch, trained_steps,
                                             tmp_path, stops):
    # the validation at step 6 stops the run; the one at step 3 does not
    diverge_at = 7 if stops else 4
    train_step = TR.Trainer._train_step

    def diverging(self, batch, step):
        if step == diverge_at:
            trained_steps.append(step)
            raise TR.TrainingDiverged(step=step, lr=1.0, grad_norm=math.inf, loss=math.nan,
                                      param=None)
        return train_step(self, batch, step)

    monkeypatch.setattr(TR.Trainer, "_train_step", diverging)
    config = train_config(train_data, tmp_path / "run", patience=1, peak_lr=0.0,
                          val_interval=3, max_steps=40)
    if stops:  # the stop at step 6 comes first: step 7 never trains
        files, last = train_per_worker_count(monkeypatch, trained_steps, tmp_path / "run",
                                             config)
        assert state(files)["stopped"] and state(files)["step"] == 6
        assert last == [6] * len(WORKERS)
        return
    logs = []
    for n in WORKERS:
        monkeypatch.setattr(parallel, "available_cpus", lambda n=n: n)
        shutil.rmtree(tmp_path / "run", ignore_errors=True)
        with pytest.raises(TR.TrainingDiverged, match="at step 4"):
            TR.Trainer(config).train()
        logs.append(run_files(tmp_path / "run"))
    assert all(log == logs[0] for log in logs)
    assert state(logs[0])["step"] == 3


def test_resume_after_a_cap_between_validations(train_data, monkeypatch, trained_steps,
                                                tmp_path):
    run = tmp_path / "run"
    whole, _ = train_per_worker_count(monkeypatch, trained_steps, run,
                                      train_config(train_data, run, max_steps=12))
    resumed, _ = train_per_worker_count(monkeypatch, trained_steps, run,
                                        train_config(train_data, run, max_steps=7),
                                        train_config(train_data, run, max_steps=12))
    assert resumed == whole
    assert state(whole)["step"] == 10
    # resumed again, the run trains the steps after its last validation once more
    trained_steps.clear()
    TR.Trainer(train_config(train_data, run, max_steps=12)).train(resume=True)
    assert run_files(run) == whole and trained_steps == [11, 12]
    # and none when that validation is at the cap
    trained_steps.clear()
    TR.Trainer(train_config(train_data, run, max_steps=10)).train(resume=True)
    assert trained_steps == [] and state(run_files(run)) == state(whole)


def test_interrupted_training_leaves_no_worker(train_data, monkeypatch, trained_steps,
                                               tmp_path):
    train_step = TR.Trainer._train_step

    def interrupted(self, batch, step):
        if step == 6:  # right after the validation of step 5
            raise KeyboardInterrupt
        return train_step(self, batch, step)

    monkeypatch.setattr(TR.Trainer, "_train_step", interrupted)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    with pytest.raises(KeyboardInterrupt):
        TR.Trainer(train_config(train_data, tmp_path / "run", max_steps=20)).train()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# training: shard 1 of every step runs in a persistent worker


@pytest.fixture
def shard_worker_fails(monkeypatch):
    """Make shard 1, computed in the shard worker, fail in the way the test
    names: "raise" raises an ObjectiveError, "die" kills the worker."""
    parent, shard_backward = os.getpid(), TR.Trainer._shard_backward
    how = {}

    def failing(self, batch, step, shard, current_tokens):
        if os.getpid() != parent and step == 3:
            if how["mode"] == "raise":
                raise O.ObjectiveError("shard 1 of step 3 failed")
            os.kill(os.getpid(), signal.SIGKILL)
        return shard_backward(self, batch, step, shard, current_tokens)

    monkeypatch.setattr(TR.Trainer, "_shard_backward", failing)
    return how


@pytest.mark.parametrize("mode,error,message", [
    ("raise", O.ObjectiveError, "shard 1 of step 3 failed"),
    ("die", parallel.WorkerError, "killed by signal SIGKILL")])
def test_shard_worker_failure_is_raised_in_the_parent(train_data, monkeypatch, tmp_path,
                                                      shard_worker_fails, mode, error,
                                                      message):
    shard_worker_fails["mode"] = mode
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    with pytest.raises(error, match=message):
        TR.Trainer(train_config(train_data, tmp_path / "run", max_steps=6)).train()
    with pytest.raises(ChildProcessError):  # the worker is reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("ends", ["returns", "diverges"])
def test_training_leaves_no_shard_worker(train_data, monkeypatch, tmp_path, ends):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    served = []
    serve = parallel.serve

    def noting(fn):
        served.append((fn, serve(fn)))
        return served[-1][1]

    monkeypatch.setattr(TR, "serve", noting)
    config = train_config(train_data, tmp_path / "run", max_steps=6)
    if ends == "returns":
        TR.Trainer(config).train()
    else:
        config.peak_lr, config.warmup = 1e9, 1
        with np.errstate(all="ignore"), pytest.raises(TR.TrainingDiverged):
            TR.Trainer(config).train()
    # the shard worker is the only one the loop serves; each validation's map
    # serves its own through parallel.serve
    (fn, server), = served
    assert fn.__func__ is TR.Trainer._serve_shard and server is not None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_window_batch_sends_no_request(train_data, monkeypatch, tmp_path):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    sent = []
    monkeypatch.setattr(parallel.Server, "send", lambda self, *args: sent.append(args))
    trainer = TR.Trainer(train_config(train_data, tmp_path / "run"))
    window, = trainer.train_corpus.windows([0], trainer.cfg.k)
    assert TR.split_shards([window]) == [[window], []]
    trainer.opt.step = lambda lr: None  # keep the gradients to compare
    trainer._start_shard_worker()
    try:
        trainer._train_step([0], 1)
    finally:
        trainer._stop_shard_worker()
    assert sent == []
    summed = {name: p.grad for name, p in trainer.model.params.items()}
    batch = M.build_batch([window], trainer.model_config)
    trainer._shard_backward(batch, 1, 0, int(batch.current_mask.sum()))
    assert all(np.array_equal(summed[name], p.grad)
               for name, p in trainer.model.params.items())


def test_served_shard_returns_its_loss_and_writes_every_gradient(train_data, tmp_path):
    trainer = TR.Trainer(train_config(train_data, tmp_path / "run"))
    trainer._shard_grads = parallel.shared_arrays(
        {name: p.data for name, p in trainer.model.params.items()})
    _, second = TR.split_shards(trainer.train_corpus.windows(trainer._epoch_batches(0)[0],
                                                            trainer.cfg.k))
    batch = M.build_batch(second, trainer.model_config)
    loss = trainer._serve_shard(1, batch, 100)
    assert loss == trainer._shard_backward(batch, 1, 1, 100)
    assert all(np.array_equal(trainer._shard_grads[name], p.grad)
               for name, p in trainer.model.params.items())


def _mapping(a: np.ndarray):
    """The buffer at the end of ``a``'s chain of bases."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_parameters_are_the_shared_mapping(train_data, monkeypatch, tmp_path):
    """The parent trains the parameters in the memory the shard worker reads,
    kept there once: a step copies no parameter and moves none out of it."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    trainer = TR.Trainer(train_config(train_data, tmp_path / "run"))
    before = {name: p.data.copy() for name, p in trainer.model.params.items()}
    parent, copies = os.getpid(), []
    copyto = np.copyto

    def noting(dst, *args, **kwargs):
        if os.getpid() == parent:
            copies.append(dst)
        return copyto(dst, *args, **kwargs)

    trainer._start_shard_worker()
    try:
        arrays = {name: p.data for name, p in trainer.model.params.items()}
        mapping = _mapping(next(iter(arrays.values())))
        assert isinstance(mapping, mmap.mmap)
        assert all(_mapping(a) is mapping for a in arrays.values())
        assert all(_mapping(g) is not mapping for g in trainer._shard_grads.values())
        assert all(np.array_equal(a, before[name]) for name, a in arrays.items())
        with monkeypatch.context() as patch:
            patch.setattr(np, "copyto", noting)
            for step, batch in enumerate(trainer._epoch_batches(0)[:2], 1):
                trainer._train_step(batch, step)
                assert all(p.data is arrays[name]
                           for name, p in trainer.model.params.items())
        assert copies == []
        assert not all(np.array_equal(a, before[name]) for name, a in arrays.items())
    finally:
        trainer._stop_shard_worker()
