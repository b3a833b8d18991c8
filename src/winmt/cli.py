"""Command-line entry point.

Subcommands: gen-data, train, sweep, evaluate, contrastive, diagnose,
stats. Every run directory gets a manifest recording the command, the
resolved configuration, the seed and input digests, so identical inputs
reproduce identical outputs. Exit codes: 0 success, 1 usage error, 2
runtime failure; errors go to stderr as one JSON object per line.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import checkpoint as ckpt
from . import corpus as corpus_mod
from . import evaluation as evl
from . import stats as stats_mod
from . import synth
from .model import TransformerModel
from .trainer import (DEFAULT_SWEEP, ConfigError, TrainConfig, cd_sweep,
                      config_from_sources, diagnose, parse_config_text, read_log, train)

SUMMARY_JSON = "summary.json"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json_text(payload, indent: int | None = None) -> str:
    """Strict JSON: a NaN or infinity raises instead of writing a token that is not JSON."""
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)


def _write_json(path: Path, payload) -> None:
    ckpt.write_atomic(path, _json_text(payload, indent=2).encode())


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    ckpt.write_atomic(path, buf.getvalue().encode())


def _write_lines(path: Path, lines) -> None:
    ckpt.write_atomic(path, "".join(line + "\n" for line in lines).encode())


def _blas() -> dict | None:
    """Name and version of the BLAS library numpy was built with; None where
    numpy does not report them (``show_config`` has no ``mode`` before 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _environment(kept_freed_memory: bool) -> dict:
    """What a run's speed depends on outside its inputs: the allocator policy,
    the numpy and Python versions, the BLAS library and its thread settings."""
    return {"keep_freed_memory": kept_freed_memory,
            "numpy": np.__version__,
            "blas": _blas(),
            "python": platform.python_version(),
            **{name: os.environ.get(name)
               for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def _write_manifest(out_dir: Path, command: str, config: dict, seed,
                    inputs: list[Path], outputs: list[Path], environment: dict) -> None:
    _write_json(out_dir / "manifest.json", {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _digest(p) for p in inputs if p.exists()},
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "environment": environment,
    })


def _require_empty(out_dir: Path, force: bool) -> None:
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise UsageError(f"output directory {out_dir} is not empty; use --force to overwrite")


def _parse_list(flag: str, text: str, cast, sep: str = ",") -> list:
    """The values of a ``sep``-separated flag; a value that does not parse, or
    no value at all, is a usage error."""
    try:
        values = [cast(part) for part in text.split(sep) if part]
    except ValueError:
        values = []
    if not values:
        raise UsageError(f"bad {flag} {text!r}; expected {sep}-separated {cast.__name__} values")
    return values


def _load_run(run_dir: Path, checkpoint: str | None, data_dir: Path):
    vocab = corpus_mod.Vocab.load(run_dir / "vocab.json")
    ckpt_path = Path(checkpoint) if checkpoint else run_dir / "ckpt_avg.bin"
    model = TransformerModel.load(ckpt_path, expect_vocab_digest=vocab.digest)
    return model, vocab, ckpt_path


def _open_run(args):
    """The model, vocab and checkpoint of ``--run``, and the report directory."""
    model, vocab, ckpt_path = _load_run(Path(args.run), args.checkpoint, Path(args.data))
    return model, vocab, ckpt_path, Path(args.report_dir or args.run)


def _or_null(x: float) -> float | None:
    return None if math.isnan(x) else x


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    ratios = tuple(_parse_list("--split", args.split, int, sep="/"))
    if len(ratios) != 3:
        raise UsageError(f"bad --split {args.split!r}; expected like 80/10/10")
    out_dir = Path(args.out)
    _require_empty(out_dir, args.force)
    docs, examples = synth.gen_synthetic(
        args.seed, n_docs=args.docs, sentences_per_doc=args.sentences,
        vocab_size=args.vocab_size, inter_sentential_rate=args.rate,
        window_size=args.window_size, amb_rate=args.amb_rate,
        noun_rate=args.noun_rate)
    try:
        train_docs, dev_docs, test_docs = corpus_mod.split_documents(docs, ratios)
    except corpus_mod.CorpusError as exc:
        raise UsageError(f"bad --split {args.split!r}: {exc}") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    dev_ids = {d.doc_id for d in dev_docs}
    test_ids = {d.doc_id for d in test_docs}
    dev_examples = [e for e in examples if e.doc_id in dev_ids]
    test_examples = [e for e in examples if e.doc_id in test_ids]

    outputs = []
    for name, payload in (("train.txt", train_docs), ("dev.txt", dev_docs),
                          ("test.txt", test_docs)):
        corpus_mod.write_corpus(out_dir / name, payload)
        outputs.append(out_dir / name)
    for name, payload in (("contrastive_dev.jsonl", dev_examples),
                          ("contrastive_test.jsonl", test_examples)):
        corpus_mod.write_contrastive(out_dir / name, payload)
        outputs.append(out_dir / name)
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "environment")}
    _write_manifest(out_dir, "gen-data", flags, args.seed, [], outputs, args.environment)
    print(f"documents: train={len(train_docs)} dev={len(dev_docs)} test={len(test_docs)}")
    print(f"contrastive examples: dev={len(dev_examples)} test={len(test_examples)}")
    inter = sum(1 for e in examples if e.distance >= 1)
    print(f"inter-sentential fraction: {inter / max(1, len(examples)):.3f}")
    return 0


def _train_config_from_args(args) -> TrainConfig:
    file_values = parse_config_text(Path(args.config).read_text()) if args.config else {}
    overrides = {f.name: getattr(args, f.name) for f in fields(TrainConfig)
                 if getattr(args, f.name, None) is not None}
    config = config_from_sources(file_values, overrides)
    if not config.data_dir or not config.out_dir:
        raise UsageError("data_dir and out_dir are required (flags or config file)")
    return config


def _keep_freed_memory() -> bool:
    """Keep freed heap memory in the process rather than handing it back;
    True when glibc took both settings.

    By default glibc serves each array above an adaptive size threshold
    from a fresh mapping and returns the free top of the heap to the
    kernel, so every array a loop frees is faulted in again by the next
    pass. Fixed thresholds keep arrays of up to 32 MiB on the heap and up
    to 256 MiB of freed heap mapped. Over 60 steps of the default model
    that cut system time from 2.2-2.5 s to 0.2 s (2-vCPU Xeon guest); on
    the 90-document seed-1013 evaluation slice, with decode's caches made
    by ``np.empty`` at the size the search uses, minor faults fell from
    about 200 k to 16 k and peak memory from 67 to 53 MiB. Without glibc
    this does nothing and returns False.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc: macOS, Windows
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    kept = mallopt(-3, 32 << 20) == 1  # M_MMAP_THRESHOLD
    return mallopt(-1, 256 << 20) == 1 and kept  # M_TRIM_THRESHOLD


def cmd_train(args) -> int:
    config = _train_config_from_args(args)
    out_dir = Path(config.out_dir)
    if not args.resume:
        _require_empty(out_dir, args.force)
    result = train(config, resume=args.resume)
    data = Path(config.data_dir)
    _write_manifest(out_dir, "train", asdict(config), config.seed,
                    [data / "train.txt", data / "dev.txt"],
                    [result.averaged_checkpoint, result.best_checkpoint, result.log_path],
                    args.environment)
    model = TransformerModel.load(result.averaged_checkpoint)
    if model.config.position_scheme == "shifted" and model.config.shift_value is not None:
        print(f"segment shift: {model.config.shift_value} "
              f"({model.config.shift_strategy})")
    print(f"run dir: {result.run_dir}")
    print(f"best step: {result.best_step} (stopped_early={result.stopped_early})")
    print(f"averaged checkpoint: {result.averaged_checkpoint}")
    return 0


def cmd_sweep(args) -> int:
    config = _train_config_from_args(args)
    values = (_parse_list("--cd-values", args.cd_values, float) if args.cd_values
              else list(DEFAULT_SWEEP))
    out_dir = Path(config.out_dir)
    _require_empty(out_dir, args.force)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = cd_sweep(config, values)
    table = out_dir / "sweep.csv"
    cols = ["cd", "best_dev_current_loss", "contrastive_accuracy", "attention_mass",
            "attention_entropy", "run_dir", "error"]
    _write_csv(table, cols, [[row.get(k, "") for k in cols] for row in rows])
    _write_manifest(out_dir, "sweep", asdict(config), config.seed, [], [table], args.environment)
    for row in rows:
        print(row)
    print(f"sweep table: {table}")
    return 0


def cmd_evaluate(args) -> int:
    sizes = _parse_list("--window-sizes", args.window_sizes, int) if args.window_sizes else None
    model, vocab, ckpt_path, report_dir = _open_run(args)
    data = Path(args.data)
    docs = corpus_mod.read_corpus(data / f"{args.split}.txt")
    if args.limit:
        docs = docs[:args.limit]
    examples = None
    contrastive_path = data / f"contrastive_{args.split}.jsonl"
    if contrastive_path.exists():
        examples = corpus_mod.read_contrastive(contrastive_path)
        doc_ids = {d.doc_id for d in docs}
        examples = [e for e in examples if e.doc_id in doc_ids]
    rows = evl.robustness_eval(model, docs, vocab, sizes or [model.config.window_size],
                               examples=examples, beam=args.beam, alpha=args.alpha)

    report_dir.mkdir(parents=True, exist_ok=True)
    table = report_dir / f"robustness_{args.split}.csv"
    _write_csv(table, evl.ROBUSTNESS_COLUMNS,
               [[r.size, repr(r.bleu), "" if r.accuracy is None else repr(r.accuracy),
                 r.malformed, r.n_windows] for r in rows])
    # per-sentence hypotheses for significance testing, from the decode
    # that the table's BLEU was computed from
    for r in rows:
        _write_lines(report_dir / f"hyps_{args.split}_k{r.size}.txt", map(" ".join, r.hyps))
    _write_lines(report_dir / f"refs_{args.split}.txt", map(" ".join, rows[0].refs))
    _write_json(report_dir / f"evaluate_{args.split}.json", {
        "checkpoint": str(ckpt_path),
        "split": args.split,
        "beam": args.beam,
        "alpha": args.alpha,
        "rows": [{k: getattr(r, k) for k in evl.ROBUSTNESS_COLUMNS} for r in rows],
    })
    for r in rows:
        acc = "" if r.accuracy is None else f" accuracy={r.accuracy:.2f}"
        print(f"size={r.size} bleu={r.bleu:.2f}{acc} malformed={r.malformed}/{r.n_windows}")
    print(f"robustness table: {table}")
    return 0


def cmd_contrastive(args) -> int:
    model, vocab, ckpt_path, report_dir = _open_run(args)
    examples = corpus_mod.read_contrastive(Path(args.data) / f"contrastive_{args.split}.jsonl")
    if args.limit:
        examples = examples[:args.limit]
    results = evl.evaluate_contrastive(model, examples, vocab, mode=args.mode)
    results = sorted(results, key=lambda r: r.example_id)
    report = evl.aggregate(results, by=args.by)

    report_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(report_dir / f"contrastive_{args.split}_examples.csv",
               ["example_id", "chosen", "correct", "phenomenon", "distance", "scores"],
               [[r.example_id, r.chosen, int(r.correct), r.phenomenon, r.distance,
                 ";".join(repr(s) for s in r.scores)] for r in results])
    _write_csv(report_dir / f"contrastive_{args.split}_categories.csv",
               ["category", "accuracy", "n"],
               [[label, repr(acc), n] for label, (acc, n) in report.per_category.items()])
    overall = evl.overall_accuracy(results)
    _write_json(report_dir / f"contrastive_{args.split}.json", {
        "checkpoint": str(ckpt_path),
        "split": args.split,
        "mode": args.mode,
        "by": args.by,
        "overall_accuracy": overall,
        "disc": report.disc,
        "disc_avg": report.disc_avg,
        "disc_all_d": report.disc_all_d,
        "per_category": {k: {"accuracy": a, "n": n}
                         for k, (a, n) in report.per_category.items()},
        "excluded": report.excluded,
    })
    print(f"overall accuracy: {overall:.2f} over {len(results)} examples")
    print(f"disc: {report.disc:.2f} disc_avg: {report.disc_avg:.2f} "
          f"disc_all_d: {report.disc_all_d if report.disc_all_d is None else round(report.disc_all_d, 2)}")
    for label, (acc, n) in report.per_category.items():
        print(f"  category {label}: {acc:.2f} (n={n})")
    return 0


def cmd_diagnose(args) -> int:
    model, vocab, ckpt_path, report_dir = _open_run(args)
    run_dir = Path(args.run)
    docs = corpus_mod.read_corpus(Path(args.data) / f"{args.split}.txt")
    k = args.k if args.k else model.config.window_size
    # score with the run's own label smoothing, so the losses compare with
    # log.csv; no other key of config.txt is read, so the runs of versions
    # with other keys diagnose too
    config_path = run_dir / "config.txt"
    run_config = parse_config_text(config_path.read_text()) if config_path.exists() else {}
    smoothing = float(run_config.get("label_smoothing", TrainConfig.label_smoothing))
    diag = diagnose(model, docs, vocab, k, smoothing, args.limit)

    log_path = run_dir / "log.csv"
    series = read_log(log_path) if log_path.exists() else []
    series = [{name: _or_null(value) for name, value in row.items()} for row in series]

    report_dir.mkdir(parents=True, exist_ok=True)
    ent_path = report_dir / f"entropies_{args.split}.csv"
    _write_lines(ent_path, map(repr, diag.entropy_rows.tolist()))
    _write_json(report_dir / f"diagnose_{args.split}.json", {
        "checkpoint": str(ckpt_path),
        "split": args.split,
        "attention_entropy": diag.attention_entropy,
        "attention_mass": diag.attention_mass,
        "dev_current_loss": diag.current_loss,
        "dev_context_loss": _or_null(diag.context_loss),
        "loss_ratio": _or_null(diag.ratio),
        "n_windows": diag.n_windows,
        "series": series,
    })
    print(f"attention entropy: {diag.attention_entropy:.4f}")
    print(f"attention mass on current sentence: {diag.attention_mass:.4f}")
    print(f"current loss: {diag.current_loss:.4f} ratio: {diag.ratio:.4f}")
    print(f"per-query entropies: {ent_path}")
    return 0


def _read_correct_column(path: Path) -> dict[str, bool]:
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["example_id"]] = bool(int(row["correct"]))
    return out


def _read_scores(path: Path) -> list[float]:
    values = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            values.append(float(line))
    return values


def cmd_stats(args) -> int:
    if args.permutations is not None and args.permutations < 1:
        raise UsageError(f"--permutations must be at least 1, got {args.permutations}")
    if args.test == "mcnemar":
        a = _read_correct_column(Path(args.a))
        b = _read_correct_column(Path(args.b))
        if set(a) != set(b):
            raise UsageError("result files cover different example ids")
        ids = sorted(a)
        res = stats_mod.mcnemar([a[i] for i in ids], [b[i] for i in ids])
        payload = {"test": "mcnemar", "n": len(ids), "b": res.b, "c": res.c,
                   "statistic": res.statistic, "p_value": res.p_value}
    elif args.test == "ar":
        scores_a = _read_scores(Path(args.a))
        scores_b = _read_scores(Path(args.b))
        if len(scores_a) != len(scores_b):
            raise UsageError(f"line counts differ: --a has {len(scores_a)}, "
                             f"--b has {len(scores_b)}")
        perms = 1000 if args.permutations is None else args.permutations
        p = stats_mod.approx_randomization(scores_a, scores_b, perms, args.seed)
        payload = {"test": "ar", "n": len(scores_a), "permutations": perms,
                   "p_value": p, "mean_a": float(np.mean(scores_a)),
                   "mean_b": float(np.mean(scores_b))}
    elif args.test == "ar-bleu":
        if not args.refs:
            raise UsageError("ar-bleu needs --refs")
        refs = [line.split() for line in Path(args.refs).read_text().splitlines()]
        hyps_a = [line.split() for line in Path(args.a).read_text().splitlines()]
        hyps_b = [line.split() for line in Path(args.b).read_text().splitlines()]
        if not len(hyps_a) == len(hyps_b) == len(refs):
            raise UsageError(f"line counts differ: --a has {len(hyps_a)}, --b has "
                             f"{len(hyps_b)}, --refs has {len(refs)}")
        stats_a = [evl.bleu_stats(h, r) for h, r in zip(hyps_a, refs)]
        stats_b = [evl.bleu_stats(h, r) for h, r in zip(hyps_b, refs)]
        perms = 10000 if args.permutations is None else args.permutations
        p = stats_mod.paired_bleu_randomization(stats_a, stats_b, perms, args.seed)
        payload = {"test": "ar-bleu", "n": len(refs), "permutations": perms,
                   "p_value": p, "bleu_a": evl.bleu_from_stats(stats_a),
                   "bleu_b": evl.bleu_from_stats(stats_b)}
    else:
        raise UsageError(f"unknown test {args.test!r}")
    print(_json_text(payload))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_config_flags(parser, exclude=()) -> None:
    """--config, --data, --out, --force and one flag per other TrainConfig field."""
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--data", dest="data_dir")
    parser.add_argument("--out", dest="out_dir")
    parser.add_argument("--force", action="store_true")
    types = {"int": int, "float": float, "str": str}
    for f in fields(TrainConfig):
        if f.name not in ("data_dir", "out_dir", *exclude):
            parser.add_argument("--" + f.name.replace("_", "-"), type=types[f.type],
                                default=None, dest=f.name)


def _limit(text: str) -> int:
    """A ``--limit`` value: a count of at least 0, where 0 means no cap."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0 (0 for no cap), got {text!r}")
    return value


def _add_run_flags(parser, split: str, limit: int | None, help: str) -> None:
    """The flags of the commands that read a trained run and write reports."""
    parser.add_argument("--run", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--checkpoint")
    parser.add_argument("--split", choices=["dev", "test"], default=split)
    parser.add_argument("--limit", type=_limit, default=limit, help=help)
    parser.add_argument("--report-dir")


def build_parser() -> _Parser:
    parser = _Parser(prog="winmt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate the synthetic discourse corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--docs", type=int, default=synth.DEFAULT_DOCS)
    g.add_argument("--sentences", type=int, default=synth.DEFAULT_SENTENCES)
    g.add_argument("--vocab-size", type=int, default=synth.DEFAULT_VOCAB)
    g.add_argument("--rate", type=float, default=synth.DEFAULT_RATE)
    g.add_argument("--window-size", type=int, default=2)
    g.add_argument("--amb-rate", type=float, default=0.4)
    g.add_argument("--noun-rate", type=float, default=0.55)
    g.add_argument("--split", default="80/10/10")
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train one model into a run directory")
    _add_config_flags(t)
    t.add_argument("--resume", action="store_true")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sweep", help="train one model per context discount")
    _add_config_flags(s, exclude=("cd",))
    s.add_argument("--cd-values", help="comma-separated discounts; default full sweep")
    s.set_defaults(func=cmd_sweep)

    e = sub.add_parser("evaluate", help="BLEU and window-size robustness")
    _add_run_flags(e, "test", None, "cap the number of documents")
    e.add_argument("--window-sizes", help="comma-separated, e.g. 2,3,4")
    e.add_argument("--beam", type=int, default=4)
    e.add_argument("--alpha", type=float, default=0.6)
    e.set_defaults(func=cmd_evaluate)

    c = sub.add_parser("contrastive", help="accuracy on a contrastive set")
    _add_run_flags(c, "test", None, "cap the number of examples")
    c.add_argument("--mode", choices=["full", "current"], default="full")
    c.add_argument("--by", choices=["distance", "phenomenon"], default="distance")
    c.set_defaults(func=cmd_contrastive)

    d = sub.add_parser("diagnose", help="attention entropy, mass and loss ratio")
    _add_run_flags(d, "dev", 200, "cap the number of windows")
    d.add_argument("--k", type=int, help="window size; defaults to the training size")
    d.set_defaults(func=cmd_diagnose)

    st = sub.add_parser("stats", help="significance tests between two result files")
    st.add_argument("--test", choices=["mcnemar", "ar", "ar-bleu"], required=True)
    st.add_argument("--a", required=True)
    st.add_argument("--b", required=True)
    st.add_argument("--refs", help="reference file for ar-bleu")
    st.add_argument("--permutations", type=int)
    st.add_argument("--seed", type=int, default=1)
    st.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.environment = _environment(_keep_freed_memory())
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
