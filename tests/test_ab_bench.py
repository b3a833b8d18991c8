import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _path)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def _result(rss, wall, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"peak_rss_mib": {"value": rss, "unit": "MiB"},
                        "wall_s": {"value": wall, "unit": "s"}}}


def _stdout(result):
    """What ``perfbench/run.py`` prints: JSON lines, the result last."""
    return "\n".join([json.dumps({"inputs": {}}), json.dumps({"checks": {}}),
                      json.dumps(result)]) + "\n"


# (rev, tree) per pair: peak RSS and wall time
PAIRS = [((80.0, 7.0), (72.0, 7.2)), ((79.0, 7.1), (73.0, 7.0)),
         ((81.0, 6.9), (72.5, 6.9)), ((80.5, 7.3), (81.0, 7.1))]


def _fake_bench(results):
    """A ``run_bench`` that returns the queued (exit, stdout) records in call order."""
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        code, stdout = results.pop(0)
        return {"exit": code, "result": ab_bench.parse_result(stdout), "stderr_tail": []}

    return run, calls


def _queued(pairs=PAIRS):
    """The records in the order the runs happen: odd pairs REV first."""
    out = []
    for n, (rev, tree) in enumerate(pairs, 1):
        sides = [rev, tree] if n % 2 else [tree, rev]
        out += [(0, _stdout(_result(*values))) for values in sides]
    return out


def _main(tmp_path, monkeypatch, results, pairs=len(PAIRS)):
    run, calls = _fake_bench(results)
    monkeypatch.setattr(ab_bench, "run_bench", run)
    monkeypatch.setattr(ab_bench, "export", lambda rev, dest: dest.mkdir(parents=True))
    out = tmp_path / "BENCH_t.json"
    code = ab_bench.main(["HEAD", "--workload", "train", "--pairs", str(pairs),
                          "--seed-base", "600", "--out", str(out)])
    return code, json.loads(out.read_text()), calls


def test_summary_figures_are_exact(tmp_path, monkeypatch):
    code, report, calls = _main(tmp_path, monkeypatch, _queued())
    assert code == 0
    assert [(Path(tree) == ab_bench.ROOT, seed) for tree, _, seed, _ in calls] == [
        (False, 600), (True, 600), (True, 601), (False, 601),
        (False, 602), (True, 602), (True, 603), (False, 603)]
    # every run lasts the benchmark's own run length
    run_seconds = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert {seconds for *_, seconds in calls} == {run_seconds}
    assert report["workloads"]["train"]["seconds"] == run_seconds
    entry = report["workloads"]["train"]
    assert entry["bad_runs"] == [] and len(entry["runs"]) == 8
    rss = entry["metrics"]["peak_rss_mib"]
    assert rss["rev"] == {"values": [80.0, 79.0, 81.0, 80.5], "median": 80.25,
                          "q1": 79.75, "q3": 80.625}
    assert rss["tree"] == {"values": [72.0, 73.0, 72.5, 81.0], "median": 72.75,
                           "q1": 72.375, "q3": 75.0}
    assert rss["tree_better_pairs"] == 3 and rss["better"] == "lower"
    # equal values win no pair
    assert entry["metrics"]["wall_s"]["tree_better_pairs"] == 2
    # metrics that no run reports have no figures
    assert entry["metrics"]["work_per_cpu_s"]["tree"]["median"] is None


def test_other_workloads_in_the_file_are_kept(tmp_path, monkeypatch):
    (tmp_path / "BENCH_t.json").write_text(json.dumps({"workloads": {"evaluate": {"x": 1}}}))
    _, report, _ = _main(tmp_path, monkeypatch, _queued())
    assert sorted(report["workloads"]) == ["evaluate", "train"]
    assert report["workloads"]["evaluate"] == {"x": 1}


@pytest.mark.parametrize("bad", [
    (0, _stdout(_result(70.0, 7.0, correct=False))),
    (0, _stdout(_result(70.0, 7.0, failed=1))),
], ids=["incorrect", "failed-operations"])
def test_a_bad_run_with_metrics_stays_in_the_medians_and_fails_the_tool(
        tmp_path, monkeypatch, bad):
    results = _queued()
    results[1] = bad  # pair 1's tree run
    code, report, _ = _main(tmp_path, monkeypatch, results)
    entry = report["workloads"]["train"]
    assert code == 1 and entry["bad_runs"] == ["pair 1 tree"]
    assert entry["metrics"]["peak_rss_mib"]["tree"]["values"] == [70.0, 73.0, 72.5, 81.0]
    assert entry["metrics"]["peak_rss_mib"]["tree"]["median"] == 72.75


@pytest.mark.parametrize("bad", [(2, "benchmark failed\n"), (0, "not json\n"), (0, "")],
                         ids=["exit-2", "no-json", "no-output"])
def test_a_failed_run_is_recorded_and_leaves_its_side_without_a_median(
        tmp_path, monkeypatch, bad):
    results = _queued()
    results[2] = bad  # pair 2's tree run, which goes first
    code, report, _ = _main(tmp_path, monkeypatch, results)
    entry = report["workloads"]["train"]
    assert code == 1 and entry["bad_runs"] == ["pair 2 tree"]
    run = entry["runs"][2]
    assert (run["pair"], run["side"], run["exit"], run["result"]) == (2, "tree", bad[0], None)
    rss = entry["metrics"]["peak_rss_mib"]
    assert rss["tree"]["values"] == [72.0, None, 72.5, 81.0]
    assert rss["tree"]["median"] is rss["tree"]["q1"] is rss["tree"]["q3"] is None
    assert rss["rev"]["median"] == 80.25
    assert rss["tree_better_pairs"] == 2  # pair 2 has no tree value
