import csv
import json
import math
import os
import platform
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from winmt import checkpoint as ckpt
from winmt import cli
from winmt.cli import main
from winmt.corpus import Vocab, read_corpus
from winmt.evaluation import bleu, extract_current
from winmt.model import TransformerModel
from winmt.trainer import TrainConfig, read_log


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run_cli("gen-data", "--out", out, "--seed", "7", "--docs", "60",
                   "--vocab-size", "32")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("runs") / "r1"
    code = run_cli("train", "--data", data_dir, "--out", out, "--seed", "3",
                   "--hidden", "16", "--ffn", "32", "--heads", "2", "--layers", "1",
                   "--warmup", "10", "--max-steps", "10", "--val-interval", "5",
                   "--batch-tokens", "256", "--dropout", "0.1")
    assert code == 0
    return out


class TestGenData:
    def test_outputs_and_manifest(self, data_dir):
        names = {p.name for p in data_dir.iterdir()}
        assert {"train.txt", "dev.txt", "test.txt", "contrastive_dev.jsonl",
                "contrastive_test.jsonl", "manifest.json"} <= names
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 7
        threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = {key: blas[key] for key in ("name", "version")}
        except TypeError:  # numpy before 1.26 does not report it
            blas = None
        assert manifest["environment"] == {
            "keep_freed_memory": platform.libc_ver()[0] == "glibc",
            "numpy": np.__version__, "python": platform.python_version(),
            "blas": blas,
            **{name: os.environ.get(name) for name in threads}}

    def test_same_seed_identical_files(self, data_dir, tmp_path):
        other = tmp_path / "again"
        assert run_cli("gen-data", "--out", other, "--seed", "7", "--docs", "60",
                       "--vocab-size", "32") == 0
        for name in ("train.txt", "dev.txt", "test.txt", "contrastive_dev.jsonl",
                     "contrastive_test.jsonl"):
            assert (other / name).read_bytes() == (data_dir / name).read_bytes()

    def test_split_ratios(self, tmp_path):
        out = tmp_path / "splits"
        assert run_cli("gen-data", "--out", out, "--seed", "1", "--docs", "100",
                       "--vocab-size", "32", "--split", "80/10/10") == 0
        count = lambda p: sum(1 for block in p.read_text().split("\n\n") if block.strip())
        assert count(out / "train.txt") == 80
        assert count(out / "dev.txt") == 10
        assert count(out / "test.txt") == 10

    def test_refuses_nonempty_without_force(self, data_dir):
        assert run_cli("gen-data", "--out", data_dir, "--seed", "7") == 1

    def test_force_overwrites(self, tmp_path):
        out = tmp_path / "f"
        assert run_cli("gen-data", "--out", out, "--seed", "1", "--docs", "10",
                       "--vocab-size", "32") == 0
        assert run_cli("gen-data", "--out", out, "--seed", "1", "--docs", "10",
                       "--vocab-size", "32", "--force") == 0


class TestTrain:
    def test_run_dir_contents(self, data_dir, run_dir):
        names = {p.name for p in run_dir.iterdir()}
        assert {"manifest.json", "config.txt", "vocab.json", "log.csv",
                "ckpt_avg.bin", "trainer_state.json", "checkpoints"} <= names
        environment = [json.loads((d / "manifest.json").read_text())["environment"]
                       for d in (data_dir, run_dir)]
        assert environment[0] == environment[1]

    def test_invalid_config_key_lists_valid(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sponge = 42\n")
        code = run_cli("train", "--config", cfg, "--data", data_dir,
                       "--out", tmp_path / "x")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "valid keys" in err["message"]

    def test_config_key_of_no_field_is_rejected_before_writing(self, data_dir, tmp_path,
                                                                capsys):
        # every config.txt written while lr_scale was a key holds this line
        cfg = tmp_path / "old.cfg"
        cfg.write_text("hidden = 16\nlr_scale = 0.0\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--data", data_dir, "--out", out) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and "'lr_scale'" in err["message"]
        assert not out.exists()

    def test_config_file_with_flag_override(self, data_dir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("hidden = 16\nffn = 32\nheads = 2\nlayers = 1\n"
                       "max_steps = 4\nval_interval = 2\nwarmup = 5\n"
                       "batch_tokens = 256\ndropout = 0.0\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--data", data_dir, "--out", out,
                       "--seed", "5") == 0
        text = (out / "config.txt").read_text()
        assert "seed = 5" in text and "hidden = 16" in text

    def test_shifted_scheme_logs_shift(self, data_dir, tmp_path, capsys):
        out = tmp_path / "shifted"
        code = run_cli("train", "--data", data_dir, "--out", out, "--seed", "2",
                       "--hidden", "16", "--ffn", "32", "--heads", "2", "--layers", "1",
                       "--max-steps", "2", "--val-interval", "2", "--warmup", "5",
                       "--batch-tokens", "256",
                       "--position-scheme", "shifted", "--shift-strategy", "avg-corpus")
        assert code == 0
        assert "segment shift:" in capsys.readouterr().out

    def test_missing_dirs_is_usage_error(self):
        assert run_cli("train", "--seed", "1") == 1


class TestEvaluate:
    def test_robustness_table(self, data_dir, run_dir):
        code = run_cli("evaluate", "--run", run_dir, "--data", data_dir,
                       "--split", "test", "--window-sizes", "2,3", "--beam", "2",
                       "--limit", "3")
        assert code == 0
        table = run_dir / "robustness_test.csv"
        rows = list(csv.DictReader(table.open()))
        assert [r["size"] for r in rows] == ["2", "3"]
        assert (run_dir / "hyps_test_k2.txt").exists()
        assert (run_dir / "refs_test.txt").exists()

    def test_one_decode_per_size(self, run_dir, tmp_path, monkeypatch, one_worker):
        calls = []
        original = TransformerModel.decode

        def counting(self, windows, *args, **kwargs):
            decoded = original(self, windows, *args, **kwargs)
            calls.append((windows, decoded))
            return decoded

        # a test split of more than one decode batch, in the run's vocabulary
        data = tmp_path / "data"
        assert run_cli("gen-data", "--out", data, "--seed", "8", "--docs", "12",
                       "--vocab-size", "32", "--split", "0/0/100") == 0
        monkeypatch.setattr(TransformerModel, "decode", counting)
        report = tmp_path / "report"
        code = run_cli("evaluate", "--run", run_dir, "--data", data,
                       "--split", "test", "--window-sizes", "2,3", "--beam", "2",
                       "--report-dir", report)
        assert code == 0
        n_windows = sum(len(d.sentences) for d in read_corpus(data / "test.txt"))
        assert n_windows > 32  # more than one decode batch per size
        per_size = math.ceil(n_windows / 32)
        assert len(calls) == 2 * per_size
        vocab = Vocab.load(run_dir / "vocab.json")
        refs = [line.split() for line in (report / "refs_test.txt").read_text().splitlines()]
        rows = list(csv.DictReader((report / "robustness_test.csv").open()))
        assert [r["size"] for r in rows] == ["2", "3"]
        for i, r in enumerate(rows):
            hyps = [line.split() for line in
                    (report / f"hyps_test_k{r['size']}.txt").read_text().splitlines()]
            assert len(hyps) == len(refs) == int(r["n_windows"]) == n_windows
            assert float(r["bleu"]) == bleu(hyps, refs)
            # the written hypotheses are the current sentences of that one decode
            decoded = [vocab.decode(extract_current(ids, w.size - 1)[0])
                       for windows, out in calls[i * per_size:(i + 1) * per_size]
                       for w, ids in zip(windows, out)]
            assert hyps == decoded

    def test_vocab_digest_mismatch_rejected(self, data_dir, run_dir, tmp_path, capsys):
        # a checkpoint trained on different data has a different vocab digest
        other_data = tmp_path / "otherdata"
        assert run_cli("gen-data", "--out", other_data, "--seed", "50", "--docs", "40",
                       "--vocab-size", "24") == 0
        other_run = tmp_path / "otherrun"
        assert run_cli("train", "--data", other_data, "--out", other_run, "--seed", "1",
                       "--hidden", "16", "--ffn", "32", "--heads", "2", "--layers", "1",
                       "--max-steps", "2", "--val-interval", "2", "--warmup", "5",
                       "--batch-tokens", "256") == 0
        code = run_cli("evaluate", "--run", run_dir, "--data", data_dir,
                       "--checkpoint", other_run / "ckpt_avg.bin", "--limit", "2")
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "digest" in err["message"]


class TestContrastive:
    def test_report_internally_consistent(self, data_dir, run_dir):
        code = run_cli("contrastive", "--run", run_dir, "--data", data_dir,
                       "--split", "test")
        assert code == 0
        summary = json.loads((run_dir / "contrastive_test.json").read_text())
        rows = list(csv.DictReader((run_dir / "contrastive_test_categories.csv").open()))
        # disc recomputable from the per-category CSV
        ctx = [(float(r["accuracy"]), int(r["n"])) for r in rows if r["category"] != "0"]
        disc = sum(a * n for a, n in ctx) / sum(n for _, n in ctx)
        assert summary["disc"] == pytest.approx(disc, abs=1e-9)
        per_example = list(csv.DictReader(
            (run_dir / "contrastive_test_examples.csv").open()))
        overall = 100.0 * sum(int(r["correct"]) for r in per_example) / len(per_example)
        assert summary["overall_accuracy"] == pytest.approx(overall, abs=1e-9)


class TestDiagnose:
    def test_diagnostics_emitted(self, data_dir, run_dir):
        code = run_cli("diagnose", "--run", run_dir, "--data", data_dir,
                       "--split", "dev", "--limit", "20")
        assert code == 0
        summary = json.loads((run_dir / "diagnose_dev.json").read_text())
        assert 0 <= summary["attention_mass"] <= 1
        assert summary["attention_entropy"] > 0
        assert len(summary["series"]) >= 1
        assert (run_dir / "entropies_dev.csv").exists()

    def test_loss_ratio_is_objective_loss_ratio(self, data_dir, run_dir, tmp_path):
        from winmt.corpus import make_windows
        from winmt.objective import loss_ratio
        from winmt.trainer import window_losses
        assert run_cli("diagnose", "--run", run_dir, "--data", data_dir, "--split", "dev",
                       "--limit", "40", "--report-dir", tmp_path) == 0
        summary = json.loads((tmp_path / "diagnose_dev.json").read_text())
        model = TransformerModel.load(run_dir / "ckpt_avg.bin")
        vocab = Vocab.load(run_dir / "vocab.json")
        windows = [w for d in read_corpus(data_dir / "dev.txt")
                   for w in make_windows(d, model.config.window_size, vocab)][:40]
        batches = [windows[lo:lo + 32] for lo in range(0, len(windows), 32)]
        cur, ctx, _, _ = window_losses(model, batches, 0.1)
        assert summary["loss_ratio"] == loss_ratio(cur, ctx, [w.size - 1 for w in windows])
        # at K=1 no window has context, so the ratio is undefined
        assert run_cli("diagnose", "--run", run_dir, "--data", data_dir, "--split", "dev",
                       "--limit", "10", "--k", "1", "--report-dir", tmp_path) == 0
        assert json.loads((tmp_path / "diagnose_dev.json").read_text())["loss_ratio"] is None

    def test_current_loss_uses_the_runs_label_smoothing(self, data_dir, tmp_path):
        out = tmp_path / "ls0"
        assert run_cli("train", "--data", data_dir, "--out", out, "--seed", "3",
                       "--hidden", "16", "--ffn", "32", "--heads", "2", "--layers", "1",
                       "--warmup", "10", "--max-steps", "10", "--val-interval", "10",
                       "--batch-tokens", "256", "--label-smoothing", "0.0",
                       "--ckpt-avg", "1") == 0
        assert run_cli("diagnose", "--run", out, "--data", data_dir, "--split", "dev") == 0
        summary = json.loads((out / "diagnose_dev.json").read_text())
        last = (out / "log.csv").read_text().strip().splitlines()[-1].split(",")
        assert summary["dev_current_loss"] == pytest.approx(float(last[2]), abs=1e-6)


    def test_reads_only_label_smoothing_from_the_runs_config(self, data_dir, run_dir,
                                                              tmp_path):
        from winmt.trainer import diagnose
        # a run written by a version with other config keys: lr_scale was
        # one until it was removed, and no version has had a schedule key
        old = tmp_path / "old_run"
        old.mkdir()
        for name in ("ckpt_avg.bin", "vocab.json", "log.csv"):
            shutil.copy(run_dir / name, old / name)
        text = (run_dir / "config.txt").read_text().replace("label_smoothing = 0.1",
                                                            "label_smoothing = 0.2")
        assert "label_smoothing = 0.2" in text
        (old / "config.txt").write_text(text + "lr_scale = 0.0\nschedule = inverse-sqrt\n")
        assert run_cli("diagnose", "--run", old, "--data", data_dir, "--split", "dev",
                       "--limit", "40") == 0
        summary = json.loads((old / "diagnose_dev.json").read_text())
        model = TransformerModel.load(old / "ckpt_avg.bin")
        vocab = Vocab.load(old / "vocab.json")
        docs = read_corpus(data_dir / "dev.txt")
        diag = diagnose(model, docs, vocab, model.config.window_size, 0.2, 40)
        assert (summary["dev_current_loss"], summary["dev_context_loss"],
                summary["loss_ratio"]) == (diag.current_loss, diag.context_loss, diag.ratio)
        default = diagnose(model, docs, vocab, model.config.window_size, 0.1, 40)
        assert summary["dev_current_loss"] != default.current_loss


class TestStats:
    def test_mcnemar_self_comparison_p_one(self, data_dir, run_dir, capsys):
        assert run_cli("contrastive", "--run", run_dir, "--data", data_dir,
                       "--split", "test") == 0
        capsys.readouterr()
        examples_csv = run_dir / "contrastive_test_examples.csv"
        code = run_cli("stats", "--test", "mcnemar", "--a", examples_csv,
                       "--b", examples_csv)
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["p_value"] == 1.0

    def test_ar_self_comparison_p_one(self, data_dir, run_dir, capsys):
        assert run_cli("diagnose", "--run", run_dir, "--data", data_dir,
                       "--split", "dev", "--limit", "10") == 0
        capsys.readouterr()
        ent = run_dir / "entropies_dev.csv"
        code = run_cli("stats", "--test", "ar", "--a", ent, "--b", ent,
                       "--permutations", "50")
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["p_value"] == 1.0
        assert payload["permutations"] == 50

    def test_ar_bleu_defaults_to_10000_perms(self, run_dir, capsys, tmp_path):
        hyps = tmp_path / "h.txt"
        refs = tmp_path / "r.txt"
        hyps.write_text("a b c d\n" * 3)
        refs.write_text("a b c d\n" * 3)
        code = run_cli("stats", "--test", "ar-bleu", "--a", hyps, "--b", hyps,
                       "--refs", refs)
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["permutations"] == 10000
        assert payload["p_value"] == 1.0

    def test_ar_bleu_rejects_line_count_mismatch(self, capsys, tmp_path):
        hyps = tmp_path / "h.txt"
        refs = tmp_path / "r.txt"
        hyps.write_text("a b c d\n" * 2)
        refs.write_text("a b c d\n" * 3)
        code = run_cli("stats", "--test", "ar-bleu", "--a", hyps, "--b", hyps,
                       "--refs", refs)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UsageError"
        assert "line counts differ" in err["message"]

    def test_ar_rejects_line_count_mismatch(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1.0\n2.0\n3.0\n")
        b.write_text("1.0\n2.0\n")
        assert run_cli("stats", "--test", "ar", "--a", a, "--b", b) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UsageError"
        assert "line counts differ" in err["message"]

    @pytest.mark.parametrize("test", ["ar", "ar-bleu"])
    @pytest.mark.parametrize("permutations", ["0", "-5"])
    def test_permutations_below_one_is_usage_error(self, test, permutations, tmp_path,
                                                   capsys):
        lines = tmp_path / "lines.txt"
        lines.write_text("1.0\n2.0\n3.0\n")
        code = run_cli("stats", "--test", test, "--a", lines, "--b", lines, "--refs", lines,
                       "--permutations", permutations)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "UsageError" and "--permutations" in err["message"]

    def test_ar_defaults_to_1000_perms(self, tmp_path, capsys):
        scores = tmp_path / "s.txt"
        scores.write_text("1.0\n2.0\n3.0\n")
        assert run_cli("stats", "--test", "ar", "--a", scores, "--b", scores) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["permutations"] == 1000


class TestSweep:
    def test_degenerate_sweep(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--data", data_dir, "--out", out,
                       "--cd-values", "1.0", "--seed", "2", "--hidden", "16",
                       "--layers", "1", "--heads", "2", "--ffn", "32",
                       "--max-steps", "4", "--val-interval", "2", "--warmup", "5",
                       "--batch-tokens", "256")
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert len(rows) == 1 and rows[0]["cd"] == "1.0"
        assert rows[0]["error"] == ""

    def test_sweep_trains_shifted_run(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--data", data_dir, "--out", out,
                       "--cd-values", "0.5", "--seed", "2", "--hidden", "16",
                       "--layers", "1", "--heads", "2", "--ffn", "32",
                       "--max-steps", "2", "--val-interval", "2", "--warmup", "5",
                       "--batch-tokens", "256", "--position-scheme", "shifted",
                       "--shift-strategy", "fixed:7")
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert rows[0]["error"] == ""
        model = TransformerModel.load(Path(rows[0]["run_dir"]) / "ckpt_avg.bin")
        assert model.config.position_scheme == "shifted"
        assert model.config.shift_value == 7


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_unknown_position_scheme_is_config_error(command, data_dir, tmp_path, capsys):
    # every bad model setting fails before the output directory is touched
    unparsable = tmp_path / "unparsable.cfg"
    unparsable.write_text("hidden = abc\n")
    for flags, named in ((["--position-scheme", "spiral"], "spiral"),
                         (["--config", unparsable], "'hidden' expects int"),
                         (["--shift-strategy", "bogus"], "bogus"),
                         (["--position-scheme", "shifted", "--shift-strategy", "bogus"], "bogus"),
                         (["--shift-strategy", "fixed:-1"], "fixed:-1"),
                         (["--hidden", "9", "--heads", "3"], "even"),
                         (["--hidden", "130", "--heads", "4"], "divisible")):
        out = tmp_path / "x"
        code = run_cli(command, "--data", data_dir, "--out", out, *flags)
        assert code == 1, flags
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert named in err["message"]
        assert not out.exists(), flags


@pytest.mark.parametrize("command, flags", [
    ("evaluate", ["--window-sizes", ","]),
    ("gen-data", ["--split", "a/b/c"]),
    ("sweep", ["--cd-values", "1,x"]),
    ("gen-data", ["--split", "0/0/0"]),
    ("contrastive", ["--limit", "-3"]),
    ("evaluate", ["--limit", "-28"]),
    ("diagnose", ["--limit", "-3"]),
])
def test_unparsable_flag_value_is_usage_error(command, flags, data_dir, run_dir, tmp_path,
                                              capsys):
    out = tmp_path / "out"
    reads_run = ["--run", run_dir, "--data", data_dir, "--report-dir", out]
    where = {"evaluate": reads_run, "contrastive": reads_run, "diagnose": reads_run,
             "gen-data": ["--out", out, "--docs", "10"],
             "sweep": ["--data", data_dir, "--out", out]}[command]
    assert run_cli(command, *where, *flags) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "UsageError" and flags[0] in err["message"]
    assert not out.exists()


def test_readme_and_train_help_list_every_config_key(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("The keys:", 1)[1].split("```")[1]
    keys = re.findall(r"[a-z_]+", re.sub(r"\([^)]*\)", "", block))
    names = [f.name for f in fields(TrainConfig)]
    assert sorted(keys) == sorted(names)
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE))
    flags = {"--" + name.replace("_", "-") for name in names
             if name not in ("data_dir", "out_dir")}
    assert listed == flags | {"--config", "--data", "--out", "--force", "--resume"}


def strict_json(text: str):
    """Parse JSON, failing on the NaN and Infinity tokens that Python accepts."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_every_json_output_is_strict(data_dir, run_dir, tmp_path, capsys):
    reports = tmp_path / "reports"
    assert run_cli("evaluate", "--run", run_dir, "--data", data_dir, "--limit", "2",
                   "--beam", "2", "--report-dir", reports / "ev") == 0
    assert run_cli("contrastive", "--run", run_dir, "--data", data_dir,
                   "--report-dir", reports / "con") == 0
    assert run_cli("diagnose", "--run", run_dir, "--data", data_dir, "--limit", "10",
                   "--report-dir", reports / "diag") == 0
    # at K=1 no window has context: the undefined figures are null
    assert run_cli("diagnose", "--run", run_dir, "--data", data_dir, "--limit", "10",
                   "--k", "1", "--report-dir", reports / "diag1") == 0
    k1 = strict_json((reports / "diag1" / "diagnose_dev.json").read_text())
    assert k1["loss_ratio"] is None and k1["dev_context_loss"] is None
    examples = reports / "con" / "contrastive_test_examples.csv"
    capsys.readouterr()
    assert run_cli("stats", "--test", "mcnemar", "--a", examples, "--b", examples) == 0
    strict_json(capsys.readouterr().out)
    # a run too short for an interval validation: its final validation is its best
    short = tmp_path / "short"
    assert run_cli("train", "--data", data_dir, "--out", short, "--seed", "3", "--k", "1",
                   "--hidden", "16", "--ffn", "32", "--heads", "2", "--layers", "1",
                   "--warmup", "10", "--max-steps", "3", "--batch-tokens", "256") == 0
    state = strict_json((short / "trainer_state.json").read_text())
    (logged,) = read_log(short / "log.csv")
    assert state["best"] == logged["current_loss"] and state["best_step"] == 3
    # at K=1 the logged context loss and ratio are NaN; the diagnose series holds null
    assert math.isnan(logged["ratio"])
    assert run_cli("diagnose", "--run", short, "--data", data_dir, "--limit", "10",
                   "--report-dir", reports / "diag_short") == 0
    (row,) = strict_json((reports / "diag_short" / "diagnose_dev.json").read_text())["series"]
    assert row["ratio"] is None and row["current_loss"] == logged["current_loss"]
    written = [*reports.rglob("*.json"), *data_dir.glob("*.json"), *run_dir.glob("*.json"),
               *short.glob("*.json")]
    assert len(written) >= 9
    for path in written:
        strict_json(path.read_text())


def test_failed_report_write_keeps_earlier_report(data_dir, run_dir, tmp_path, monkeypatch,
                                                  capsys):
    report = tmp_path / "report"
    assert run_cli("contrastive", "--run", run_dir, "--data", data_dir,
                   "--report-dir", report) == 0
    before = {p.name: p.read_bytes() for p in report.iterdir()}

    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(ckpt.os, "replace", failing)
    assert run_cli("contrastive", "--run", run_dir, "--data", data_dir, "--mode", "current",
                   "--report-dir", report) == 2
    assert "disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in report.iterdir()} == before


def test_every_command_sets_the_allocator_policy_once(run_dir, tmp_path, monkeypatch):
    # a command that skipped it would run on glibc's faulting default; the
    # manifest records what the call returned
    calls = []

    def refused():
        calls.append(1)
        return False

    monkeypatch.setattr(cli, "_keep_freed_memory", refused)
    data, reports = tmp_path / "data", tmp_path / "reports"
    hyps = reports / "hyps_test_k2.txt"
    for argv in (["gen-data", "--out", data, "--seed", "7", "--docs", "20", "--vocab-size", "32"],
                 ["evaluate", "--run", run_dir, "--data", data, "--limit", "2", "--beam", "2",
                  "--report-dir", reports],
                 ["stats", "--test", "ar-bleu", "--a", hyps, "--b", hyps,
                  "--refs", reports / "refs_test.txt", "--permutations", "10"]):
        calls.clear()
        assert run_cli(*argv) == 0, argv[0]
        assert len(calls) == 1, argv[0]
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["environment"]["keep_freed_memory"] is False


def test_usage_error_exit_code():
    assert main(["definitely-not-a-command"]) == 1


def test_usage_error_is_machine_readable(capsys):
    main(["definitely-not-a-command"])
    err = capsys.readouterr().err.strip()
    payload = json.loads(err.splitlines()[-1])
    assert "error" in payload and "message" in payload
