"""Run one workload's winmt commands in this process and time them.

Usage: python3 perfbench/workload.py SPEC.json

SPEC holds the ``winmt`` argument lists to run through ``winmt.cli.main``,
the function whose first call is the workload's first timed operation
(``mark``: module and attribute path), where to write the timings, and
two flags: ``probe`` stops the process at the mark, once set-up is
measured; ``trace`` installs the per-layer tracer first. Set-up is the
process CPU time from its start, imports included, to the mark; the
timed phase runs from the mark to the end of the last command. Each
command's standard output goes to ``<timing file>.<i>.out``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    """User + system CPU seconds of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    out_path = spec["timing"]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # this file's directory is first on sys.path
        tracer = Tracer()
        tracer.install()

    from winmt import cli

    module_name, attr_path = spec["mark"]
    owner = importlib.import_module(module_name)
    *outer, name = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    mark: dict = {}

    def marked(*args, **kwargs):
        setattr(owner, name, original)  # one call: the marker costs nothing after
        mark["setup_cpu_s"] = _cpu_s()
        mark["wall"] = time.perf_counter()
        if spec["probe"]:
            _write(out_path, {"setup_cpu_s": mark["setup_cpu_s"]})
            os._exit(0)
        return original(*args, **kwargs)

    setattr(owner, name, marked)

    codes, ends = [], []
    for i, argv in enumerate(spec["commands"]):
        with open(f"{out_path}.{i}.out", "w") as fh, contextlib.redirect_stdout(fh):
            codes.append(cli.main(argv))
        ends.append((_cpu_s(), time.perf_counter()))
    result = {"codes": codes,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if mark:
        starts = [(mark["setup_cpu_s"], mark["wall"])] + ends[:-1]
        result.update(setup_cpu_s=mark["setup_cpu_s"],
                      timed_cpu_s=ends[-1][0] - mark["setup_cpu_s"],
                      timed_wall_s=ends[-1][1] - mark["wall"],
                      command_cpu_s=[e[0] - s[0] for s, e in zip(starts, ends)])
    if tracer is not None:
        result.update(layers=tracer.metrics(), step_tokens=tracer.step_tokens)
    _write(out_path, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
