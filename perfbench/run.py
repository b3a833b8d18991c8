"""winmt benchmark: three workloads, each run through the `winmt` command line.

Usage:
    python3 perfbench/run.py --workload {train,evaluate,contrastive} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/``; the
benchmark generates its inputs from ``--seed``, runs the workload's
``winmt`` commands in a fresh single-threaded process, checks the outputs
and prints one JSON object as its last line. ``--seconds`` sizes the
work: a run does the work a reference 2-core machine does in about that
many CPU seconds, so the same arguments always mean the same work.

With ``--trace 0`` the metrics are the end-to-end ones (set-up CPU time,
units of work per CPU second, wall time and peak RSS). With ``--trace 1``
the workload runs once untraced and once with the per-layer tracer, and
the metrics are the per-layer ones plus the tracing overhead.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# single-threaded BLAS in this process and in every process it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
FIXTURE = HERE / "fixture"

# the paper's focused configuration: context discount plus segment-shifted
# positions with the corpus-average shift, at window size 2
TRAIN_FLAGS = ["--k", "2", "--cd", "0.01", "--position-scheme", "shifted",
               "--shift-strategy", "avg-corpus"]
TRAIN_CORPUS_SEED = 7
BATCH_TOKENS = 1024  # the trainer's default target-token budget per batch
VALIDATIONS = 5  # enough for pruning with patience 2 and averaging over 2
# by 60 steps the dev loss is clearly below a uniform predictor's, so the
# loss check has something to check even at short run lengths
MIN_TRAIN_STEPS = 60

SETUP_PROBES = 6  # extra processes that stop at the mark; set-up is their median with the run
EVAL_DATA_SEED = 1000  # evaluation corpora use seed 1000 + --seed, never the training seed 7
EVAL_SIZES = (2, 3, 4)
EVAL_BEAM = 4
PERMUTATIONS = 1000
GREEDY_SAMPLE = 128  # windows decoded greedily; at least a quarter come out well formed
SINGLE_SAMPLE = 40  # contrastive examples rescored one window at a time
BLEU_FLOOR_K2 = 25.0  # measured 35-47 on 90-document slices; a broken decoder scores near 0
MARGIN_TOL = 1e-4  # float32 log-probs summed over about 20 tokens
SINGLE_TOL = 1e-4  # measured gaps stay below 1e-5
CHILD_TIMEOUT_S = 170  # a whole run must end within 180 s

# work per requested second, calibrated on the reference machine
TRAIN_STEPS_PER_S = 3.0
EVAL_DOCS_PER_S = 4.5
CONTRASTIVE_DOCS_PER_S = 200.0
DIAGNOSE_WINDOWS_PER_S = 25.0


class BenchError(RuntimeError):
    pass


def _winmt():
    if not (SRC / "winmt" / "cli.py").is_file():
        raise BenchError(f"{SRC / 'winmt'} not found; run from a winmt checkout")
    sys.path.insert(0, str(SRC))
    from winmt import cli
    return cli


def _gen_data(cli, out: Path, seed: int, docs: int | None = None) -> Path:
    argv = ["gen-data", "--out", str(out), "--seed", str(seed)]
    if docs is not None:  # evaluation inputs: every document in the test split
        argv += ["--docs", str(docs), "--split", "0/0/100"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise BenchError(f"winmt {' '.join(argv)} exited {code}")
    return out


def _child(run: Path, tag: str, commands, mark, probe=False, trace=False) -> dict:
    """Run workload.py in a fresh process; return its timing record."""
    spec = {"commands": commands, "mark": mark, "probe": probe, "trace": trace,
            "timing": str(run / f"{tag}.json")}
    spec_path = run / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(run / f"{tag}.stderr", "w") as err:
        proc = subprocess.run([sys.executable, str(HERE / "workload.py"), str(spec_path)],
                              cwd=ROOT, env=env, stdout=err, stderr=err,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"workload process {tag} exited {proc.returncode}; "
                         f"see {run / (tag + '.stderr')}")
    record = json.loads((run / f"{tag}.json").read_text())
    if "setup_cpu_s" not in record:
        raise BenchError(f"workload process {tag} never reached its first timed operation")
    record["outputs"] = [run / f"{tag}.json.{i}.out" for i in range(len(commands))]
    return record


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """One workload's prepared inputs and what to do with them.

    ``finish(out_dir, record)`` checks a run's outputs and returns
    (units of work, operations attempted, operations failed, problems).
    """

    commands: Callable[[Path], list[list[str]]]
    mark: tuple[str, str]  # the first timed operation: module, attribute path
    finish: Callable[[Path, dict], tuple[int, int, int, list[str]]]
    inputs: dict[str, Path]  # generated and fixed inputs, reported by sha256
    same_outputs: list[str]  # files a traced run must write byte for byte as untraced
    info: dict = field(default_factory=dict)  # check figures, printed for explanation


def train_workload(cli, checks, run: Path, seed: int, seconds: int) -> Workload:
    data = _gen_data(cli, run / "data", TRAIN_CORPUS_SEED)
    steps = VALIDATIONS * round(max(MIN_TRAIN_STEPS, seconds * TRAIN_STEPS_PER_S) / VALIDATIONS)
    interval = steps // VALIDATIONS
    units = checks.trained_tokens(data / "train.txt", 2, seed, BATCH_TOKENS, steps)

    def commands(out: Path):
        return [["train", "--data", str(data), "--out", str(out), "--seed", str(seed),
                 *TRAIN_FLAGS, "--max-steps", str(steps), "--val-interval", str(interval),
                 "--patience", "2", "--ckpt-avg", "2", "--batch-tokens", str(BATCH_TOKENS)]]

    def finish(out: Path, record: dict):
        problems = []
        state_path = out / "trainer_state.json"
        done = json.loads(state_path.read_text())["step"] if state_path.exists() else 0
        if record["codes"] != [0]:
            problems.append(f"winmt train exited {record['codes'][0]}")
        if done != steps:
            problems.append(f"{done} of {steps} steps completed")
        if done:
            vocab_size = len(json.loads((out / "vocab.json").read_text())) + 4
            problems += checks.check_train_log(out / "log.csv", vocab_size,
                                               list(range(interval, steps + 1, interval)))
        if "step_tokens" in record and record["step_tokens"] != units:
            problems.append(f"traced batches held {record['step_tokens']} target tokens, "
                            f"the benchmark counts {units}")
        work.info.update(steps=steps, target_tokens=units)
        return units, steps, steps - done, problems

    work = Workload(commands, ("winmt.trainer", "Trainer.train"), finish,
                    {f"data/{n}": data / n for n in ("train.txt", "dev.txt")},
                    ["log.csv", "ckpt_avg.bin"])
    return work


def evaluate_workload(cli, checks, run: Path, seed: int, seconds: int) -> Workload:
    data = _gen_data(cli, run / "data", EVAL_DATA_SEED + seed,
                     max(1, round(seconds * EVAL_DOCS_PER_S)))
    n_sent = sum(len(d) for d in checks.read_documents(data / "test.txt"))
    units = n_sent * len(EVAL_SIZES)

    def commands(out: Path):
        return [["evaluate", "--run", str(FIXTURE), "--data", str(data), "--split", "test",
                 "--window-sizes", ",".join(map(str, EVAL_SIZES)), "--beam", str(EVAL_BEAM),
                 "--report-dir", str(out)],
                ["stats", "--test", "ar-bleu", "--a", str(out / "hyps_test_k2.txt"),
                 "--b", str(out / "hyps_test_k3.txt"), "--refs", str(out / "refs_test.txt"),
                 "--permutations", str(PERMUTATIONS), "--seed", str(seed)]]

    def finish(out: Path, record: dict):
        codes = record["codes"]
        failed = (units if codes[0] else 0) + (1 if codes[1] else 0)
        if failed:
            return units, units + 1, failed, [f"winmt commands exited {codes}"]
        problems = []
        refs = checks.read_token_lines(out / "refs_test.txt")
        ours = {}
        with open(out / "robustness_test.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["size"]) for r in rows] != list(EVAL_SIZES):
            problems.append(f"robustness table sizes {[r['size'] for r in rows]}")
        for r in rows:
            size = int(r["size"])
            hyps = checks.read_token_lines(out / f"hyps_test_k{size}.txt")
            ours[size] = checks.corpus_bleu(hyps, refs)
            if not checks.close(ours[size], float(r["bleu"])):
                problems.append(f"K={size}: reported BLEU {r['bleu']}, recomputed {ours[size]}")
            if int(r["n_windows"]) != n_sent or len(hyps) != n_sent:
                problems.append(f"K={size}: {r['n_windows']} windows, {len(hyps)} hypotheses "
                                f"for {n_sent} sentences")
        if ours.get(2, 0.0) < BLEU_FLOOR_K2:
            problems.append(f"BLEU at K=2 is {ours.get(2)}, below the floor {BLEU_FLOOR_K2}")
        stats = json.loads(record["outputs"][1].read_text().strip().splitlines()[-1])
        if not 1.0 / (PERMUTATIONS + 1) <= stats["p_value"] <= 1.0:
            problems.append(f"ar-bleu p-value {stats['p_value']} outside [1/(P+1), 1]")
        for key, size in (("bleu_a", 2), ("bleu_b", 3)):
            if not checks.close(stats[key], ours.get(size, -1.0)):
                problems.append(f"ar-bleu {key} {stats[key]} != recomputed {ours.get(size)}")

        from winmt import corpus
        model, vocab, _ = cli._load_run(FIXTURE, None, data)
        windows = [w for d in corpus.read_corpus(data / "test.txt")
                   for w in corpus.make_windows(d, 2, vocab)][:GREEDY_SAMPLE]
        bad, checked = checks.greedy_mismatches(model, windows, model.decode(windows, beam=1),
                                                corpus.SEP_ID, corpus.EOS_ID, corpus.PAD_ID)
        if bad or checked < len(windows) // 4:
            problems.append(f"greedy decode: {len(bad)} of {checked} well-formed windows are "
                            f"not the argmax of teacher forcing ({len(windows)} decoded)")
        work.info.update(sentences=n_sent, bleu={k: round(v, 4) for k, v in ours.items()},
                         malformed={r["size"]: int(r["malformed"]) for r in rows},
                         ar_bleu_p=stats["p_value"],
                         greedy_checked=f"{checked - len(bad)}/{checked} of {len(windows)}")
        return units, units + 1, 0, problems

    inputs = {f"data/{n}": data / n for n in ("test.txt", "contrastive_test.jsonl")}
    inputs["fixture/ckpt_avg.bin"] = FIXTURE / "ckpt_avg.bin"
    work = Workload(commands, ("winmt.evaluation", "robustness_eval"), finish, inputs,
                    ["robustness_test.csv"] + [f"hyps_test_k{k}.txt" for k in EVAL_SIZES])
    return work


def contrastive_workload(cli, checks, run: Path, seed: int, seconds: int) -> Workload:
    data = _gen_data(cli, run / "data", EVAL_DATA_SEED + seed,
                     max(1, round(seconds * CONTRASTIVE_DOCS_PER_S)))
    examples_path = data / "contrastive_test.jsonl"
    n_cand = sum(len(json.loads(line)["candidates"])
                 for line in examples_path.read_text().splitlines())
    n_windows = sum(len(d) for d in checks.read_documents(data / "test.txt"))
    n_diag = min(n_windows, max(1, round(seconds * DIAGNOSE_WINDOWS_PER_S)))
    units = 2 * n_cand + n_diag

    def commands(out: Path):
        common = ["--run", str(FIXTURE), "--data", str(data), "--split", "test"]
        return [["contrastive", *common, "--mode", "full", "--report-dir", str(out / "full")],
                ["contrastive", *common, "--mode", "current",
                 "--report-dir", str(out / "current")],
                ["diagnose", *common, "--limit", str(n_diag), "--report-dir", str(out / "diag")]]

    def finish(out: Path, record: dict):
        codes = record["codes"]
        failed = sum(n for n, c in zip((n_cand, n_cand, n_diag), codes) if c)
        if failed:
            return units, units, failed, [f"winmt commands exited {codes}"]
        problems = []
        rows = {mode: checks.read_example_rows(out / mode / "contrastive_test_examples.csv")
                for mode in ("full", "current")}
        for mode, mode_rows in rows.items():
            problems += [f"{mode}: {p}" for p in checks.recount_problems(
                mode_rows, out / mode / "contrastive_test_categories.csv")]
        if sum(len(r["scores"]) for r in rows["full"].values()) != n_cand:
            problems.append("full mode did not score every candidate")
        bad, margin_gap = checks.margin_mismatches(
            {k: r["scores"] for k, r in rows["full"].items()},
            {k: r["scores"] for k, r in rows["current"].items()}, MARGIN_TOL)
        if bad:
            problems.append(f"{len(bad)} examples have different margins in full and "
                            f"current mode, e.g. {bad[:3]}")
        problems += checks.attention_problems(out / "diag" / "entropies_test.csv",
                                              out / "diag" / "diagnose_test.json", n_diag)
        from winmt import corpus
        model, vocab, _ = cli._load_run(FIXTURE, None, data)
        sample = corpus.read_contrastive(examples_path)[:SINGLE_SAMPLE]
        gaps = {mode: checks.batched_vs_single(model, sample, vocab, rows[mode], mode)
                for mode in ("full", "current")}
        for mode, gap in gaps.items():
            if not gap <= SINGLE_TOL:
                problems.append(f"{mode}: batched and single-window scores differ by {gap:.3g}")
        work.info.update(examples=len(rows["full"]), candidates=n_cand, diagnose_windows=n_diag,
                         margin_gap=margin_gap, single_window_gap=gaps)
        return units, units, 0, problems

    inputs = {f"data/{n}": data / n for n in ("test.txt", "contrastive_test.jsonl")}
    inputs["fixture/ckpt_avg.bin"] = FIXTURE / "ckpt_avg.bin"
    work = Workload(commands, ("winmt.evaluation", "evaluate_contrastive"), finish, inputs,
                    [f"{m}/contrastive_test_examples.csv" for m in ("full", "current")]
                    + ["diag/entropies_test.csv"])
    return work


WORKLOADS = {"train": train_workload, "evaluate": evaluate_workload,
             "contrastive": contrastive_workload}
END_TO_END_UNITS = {"setup_s": "s", "work_per_cpu_s": "1/s", "wall_s": "s",
                    "peak_rss_mib": "MiB"}


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cli = _winmt()
    sys.path.insert(0, str(HERE))
    import checks
    import tracer

    run = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir(parents=True)
    work = WORKLOADS[workload](cli, checks, run, seed, seconds)
    print(json.dumps({"inputs": {k: checks.sha256_file(p) for k, p in work.inputs.items()}}))

    main = _child(run, "main", work.commands(run / "main"), work.mark)
    units, attempted, failed, problems = work.finish(run / "main", main)
    if trace:
        traced = _child(run, "traced", work.commands(run / "traced"), work.mark, trace=True)
        problems += [f"traced run: {p}" for p in work.finish(run / "traced", traced)[3]]
        for name in work.same_outputs:
            if checks.sha256_file(run / "main" / name) != checks.sha256_file(
                    run / "traced" / name):
                problems.append(f"traced run wrote a different {name}")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["timed_wall_s"] - main["timed_wall_s"]
        units_of = {k: v[0] for k, v in tracer.METRICS.items()}
    else:
        setups = [main["setup_cpu_s"]]
        for i in range(SETUP_PROBES):
            setups.append(_child(run, f"probe{i}", work.commands(run / f"probe{i}"), work.mark,
                                 probe=True)["setup_cpu_s"])
        metrics = {"setup_s": statistics.median(setups),
                   "work_per_cpu_s": units / main["timed_cpu_s"],
                   "wall_s": main["timed_wall_s"],
                   "peak_rss_mib": main["peak_rss_mib"]}
        units_of = END_TO_END_UNITS
        work.info.update(units=units, timed_cpu_s=main["timed_cpu_s"], setup_cpu_s=setups,
                         command_cpu_s=main["command_cpu_s"])
    print(json.dumps({"checks": work.info}))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if problems:
        print(f"outputs kept in {run}", file=sys.stderr)
    else:
        shutil.rmtree(run, ignore_errors=True)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
