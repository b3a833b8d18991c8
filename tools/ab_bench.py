"""Alternating A/B runs of the benchmark: a git revision against this tree.

Usage: python3 tools/ab_bench.py REV --workload W --pairs N --seed-base S
                                 --out BENCH_<label>.json

Exports REV with ``git archive`` into a temporary directory, then runs
``perfbench/run.py --workload W --seed S+p-1 --seconds T`` in that export
and in this tree, once each for pair p = 1 .. N, where ``T`` is
``run_seconds`` of ``BENCHMARK.json``. Odd pairs run REV first, even pairs
this tree first, so that a drift of the machine during the runs favours
neither side.

The workload's entry in ``--out`` holds every run's record and, for each
end-to-end metric, each side's values, median and quartiles (linear
interpolation between order statistics) and the number of pairs in which
this tree is better, in the direction ``BENCHMARK.json`` gives. Entries of
other workloads already in the file are kept. A run that exits non-zero,
prints no result, fails its checks or has failed operations is recorded
like the others and never dropped: a side with a run that has no value
of a metric has no median or quartiles of it, and the tool exits 1 after
writing the file. REV = HEAD gives A/A runs of the committed tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_bytes import export  # noqa: E402

SIDES = ("rev", "tree")


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its exit status and result."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    return {"exit": done.returncode, "result": parse_result(done.stdout),
            "stderr_tail": done.stderr.splitlines()[-5:]}


def parse_result(stdout: str) -> dict | None:
    """The result object ``perfbench/run.py`` prints as its last line, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def is_bad(run: dict) -> bool:
    """True when a run exited non-zero, gave no result, failed its checks or
    had failed operations."""
    result = run["result"]
    return (run["exit"] != 0 or result is None or result.get("correct") is not True
            or bool(result.get("failed")))


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values``, interpolated linearly between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _value(run: dict, metric: str) -> float | None:
    result = run["result"]
    entry = (result or {}).get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: each side's values in pair order, their median
    and quartiles (None where a run has no value), and the pairs in which
    this tree is strictly better."""
    summary = {}
    for metric, direction in better.items():
        entry = {"better": direction}
        values = {}
        for side in SIDES:
            values[side] = [_value(r, metric) for r in runs if r["side"] == side]
            complete = values[side] and None not in values[side]
            entry[side] = {"values": values[side],
                           "median": statistics.median(values[side]) if complete else None,
                           "q1": quantile(values[side], 0.25) if complete else None,
                           "q3": quantile(values[side], 0.75) if complete else None}
        sign = -1 if direction == "lower" else 1
        entry["tree_better_pairs"] = sum(
            a is not None and b is not None and sign * (b - a) > 0
            for a, b in zip(values["rev"], values["tree"]))
        summary[metric] = entry
    return summary


def directions() -> dict[str, str]:
    """Each end-to-end metric of ``BENCHMARK.json`` and its better direction."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_pairs(rev_tree: Path, workload: str, pairs: int, seed_base: int,
              seconds: int) -> list[dict]:
    """Both runs of every pair, REV first in odd pairs; one record per run."""
    runs = []
    for pair in range(1, pairs + 1):
        seed = seed_base + pair - 1
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            run = run_bench(rev_tree if side == "rev" else ROOT, workload, seed, seconds)
            runs.append({"pair": pair, "side": side, "seed": seed, **run})
            print(f"pair {pair} {side}: exit {run['exit']}"
                  + ("" if run["result"] is None else f", {json.dumps(run['result'])}"),
                  file=sys.stderr)
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        rev_tree = Path(tmp) / "rev"
        export(args.rev, rev_tree)
        runs = run_pairs(rev_tree, args.workload, args.pairs, args.seed_base, seconds)
    bad = [f"pair {r['pair']} {r['side']}" for r in runs if is_bad(r)]
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                             f"{args.rev}^{{commit}}"], capture_output=True, text=True)
    entry = {"rev": args.rev, "rev_commit": commit.stdout.strip() or None,
             "seconds": seconds, "pairs": args.pairs,
             "seed_base": args.seed_base, "bad_runs": bad,
             "metrics": summarize(runs, directions()), "runs": runs}
    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    report["workloads"][args.workload] = entry
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for metric, figures in entry["metrics"].items():
        print(f"{args.workload} {metric}: median {figures['rev']['median']} -> "
              f"{figures['tree']['median']}, tree better in "
              f"{figures['tree_better_pairs']} of {args.pairs} pairs")
    if bad:
        print(f"runs that failed or were incorrect: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
