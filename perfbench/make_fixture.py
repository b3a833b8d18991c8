"""Remake the fixed trained run that the evaluate and contrastive workloads read.

Usage (from the repository root): python3 perfbench/make_fixture.py

Generates the seed-7 synthetic corpus, trains the benchmark's train
configuration with seed 1 for FIXTURE_STEPS steps in a single-threaded
process, copies ``ckpt_avg.bin``, ``vocab.json`` and ``log.csv`` into
perfbench/fixture/ and prints their sha256. Single-threaded training is
bitwise reproducible on one numpy/BLAS build, so the digests recorded in
perfbench/README.md identify the fixture; another build may differ in the
last bits. The benchmark reads the committed files and never retrains,
so a change to training code cannot change what evaluate and contrastive
measure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

from run import (FIXTURE, SRC, TRAIN_CORPUS_SEED, TRAIN_FLAGS, WORK, _gen_data, _winmt)
from checks import sha256_file

FIXTURE_SEED = 1
FIXTURE_STEPS = 2000
FIXTURE_VAL_INTERVAL = 200
FILES = ("ckpt_avg.bin", "vocab.json", "log.csv")


def main() -> int:
    cli = _winmt()
    work = WORK / "fixture"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = _gen_data(cli, work / "data", TRAIN_CORPUS_SEED)
    subprocess.run([sys.executable, "-m", "winmt.cli", "train", "--data", str(data),
                    "--out", str(work / "run"), "--seed", str(FIXTURE_SEED), *TRAIN_FLAGS,
                    "--max-steps", str(FIXTURE_STEPS),
                    "--val-interval", str(FIXTURE_VAL_INTERVAL)],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    FIXTURE.mkdir(exist_ok=True)
    for name in FILES:
        shutil.copyfile(work / "run" / name, FIXTURE / name)
        print(f"{sha256_file(FIXTURE / name)}  {name}")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
