"""Check that the working tree writes the same bytes as a git revision.

Usage: python3 tools/same_bytes.py REV

Exports REV with ``git archive`` into a temporary directory, then runs one
fixed list of ``winmt`` commands (``COMMANDS``) in that tree and in this
one, each tree importing its own ``src/``, with single-threaded BLAS. It
compares the sha256 of every file the commands write, and of each
command's standard output, after replacing each tree's own paths (its
checkout and its output directory) with placeholders. It prints one line
per file and exits 1 on any difference, 0 when every file matches.
Both trees run on one machine, so the BLAS build cannot tell them apart.

It then runs this tree's commands once more pinned to one CPU, where
``winmt.parallel.map_ordered`` computes every batch in one process, and
compares that output with the all-CPU output in the same way: outputs
must not depend on the number of worker processes. Only the command
processes are pinned (``os.sched_setaffinity``, Linux).
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# {out} is the tree's output directory and {fixture} its perfbench/fixture;
# the first word names the file the command's standard output goes to
COMMANDS = [
    ("gen-data", "gen-data --out {out}/data --seed 7"),
    ("train-default", "train --data {out}/data --out {out}/train-default "
                      "--max-steps 30 --val-interval 10"),
    ("train-shifted", "train --data {out}/data --out {out}/train-shifted --cd 0.01 "
                      "--position-scheme shifted --shift-strategy avg-corpus "
                      "--max-steps 30 --val-interval 10 --patience 2 --ckpt-avg 2"),
    ("train-learned", "train --data {out}/data --out {out}/train-learned --cd 0.01 "
                      "--position-scheme shifted --shift-strategy avg-corpus "
                      "--segment-variant learned --layers 1 --max-steps 30 --val-interval 10"),
    ("gen-slice", "gen-data --out {out}/slice --seed 1001 --docs 30 --split 0/0/100"),
    ("evaluate", "evaluate --run {fixture} --data {out}/slice --split test --limit 9 "
                 "--window-sizes 2,3 --report-dir {out}/evaluate"),
    ("contrastive-full", "contrastive --run {fixture} --data {out}/slice --split test "
                         "--mode full --report-dir {out}/contrastive-full"),
    ("contrastive-current", "contrastive --run {fixture} --data {out}/slice --split test "
                            "--mode current --report-dir {out}/contrastive-current"),
    ("diagnose", "diagnose --run {fixture} --data {out}/slice --split test --limit 100 "
                 "--report-dir {out}/diagnose"),
]


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_commands(tree: Path, out: Path, one_cpu: bool = False) -> None:
    """Run ``COMMANDS`` with ``tree``'s winmt, writing under ``out``; with
    ``one_cpu``, each command process may run on one CPU only."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    stdout = out / "stdout"
    stdout.mkdir(parents=True)
    for name, command in COMMANDS:
        argv = command.format(out=out, fixture=tree / "perfbench" / "fixture").split()
        done = subprocess.run([sys.executable, "-m", "winmt.cli", *argv], env=env,
                              capture_output=True, text=True,
                              preexec_fn=_pin_to_one_cpu if one_cpu else None)
        if done.returncode:
            sys.exit(f"{tree}: winmt {' '.join(argv)} exited {done.returncode}\n{done.stderr}")
        (stdout / f"{name}.txt").write_text(done.stdout)


def digests(out: Path, roots: dict[Path, str]) -> dict[str, str]:
    """sha256 of every file under ``out`` by its relative path, taken after
    each path in ``roots`` is replaced by its placeholder."""
    # the longest path first, so no shorter one takes part of it
    replace = sorted(((str(p).encode(), mark.encode()) for p, mark in roots.items()),
                     key=lambda pair: -len(pair[0]))
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        for old, new in replace:
            data = data.replace(old, new)
        found[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return found


def compare(rev_out: Path, rev_roots: dict[Path, str],
            tree_out: Path, tree_roots: dict[Path, str]) -> int:
    """Print one line per file of either output directory; 1 if any differs."""
    rev, tree = digests(rev_out, rev_roots), digests(tree_out, tree_roots)
    differ = 0
    for name in sorted(rev.keys() | tree.keys()):
        if name not in tree:
            status = "only in REV"
        elif name not in rev:
            status = "only in tree"
        else:
            status = "same" if rev[name] == tree[name] else "DIFFERS"
        differ |= status != "same"
        print(f"{status:12} {name}")
    return int(differ)


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tmp = Path(tmp)
        rev_tree, rev_out, tree_out = tmp / "rev", tmp / "out-rev", tmp / "out-tree"
        one_out = tmp / "out-one-cpu"
        export(argv[0], rev_tree)
        run_commands(rev_tree, rev_out)
        run_commands(ROOT, tree_out)
        run_commands(ROOT, one_out, one_cpu=True)
        print(f"{argv[0]} against this tree:")
        differ = compare(rev_out, {rev_tree: "<tree>", rev_out: "<out>"},
                         tree_out, {ROOT: "<tree>", tree_out: "<out>"})
        print("this tree on all CPUs against one CPU:")
        return differ | compare(tree_out, {ROOT: "<tree>", tree_out: "<out>"},
                                one_out, {ROOT: "<tree>", one_out: "<out>"})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
