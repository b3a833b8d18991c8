import importlib.util
import json
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", _path)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def _manifest(out: Path, tree: Path) -> None:
    run = out / "train"
    run.mkdir(parents=True)
    (run / "manifest.json").write_text(json.dumps({
        "inputs": {f"{out}/data/train.txt": "ab12"},
        "outputs": [f"{run}/ckpt_avg.bin"],
        "fixture": f"{tree}/perfbench/fixture",
    }))
    (run / "ckpt_avg.bin").write_bytes(bytes(range(256)))


def _compare(tmp_path):
    return same_bytes.compare(tmp_path / "out-a", {tmp_path / "a": "<tree>",
                                                   tmp_path / "out-a": "<out>"},
                              tmp_path / "out-b", {tmp_path / "b": "<tree>",
                                                   tmp_path / "out-b": "<out>"})


def test_paths_of_each_tree_compare_equal(tmp_path, capsys):
    _manifest(tmp_path / "out-a", tmp_path / "a")
    _manifest(tmp_path / "out-b", tmp_path / "b")
    assert _compare(tmp_path) == 0
    assert capsys.readouterr().out.split() == ["same", "train/ckpt_avg.bin",
                                               "same", "train/manifest.json"]


def test_one_byte_of_difference_fails_and_names_the_file(tmp_path, capsys):
    _manifest(tmp_path / "out-a", tmp_path / "a")
    _manifest(tmp_path / "out-b", tmp_path / "b")
    ckpt = tmp_path / "out-b" / "train" / "ckpt_avg.bin"
    data = bytearray(ckpt.read_bytes())
    data[100] ^= 1
    ckpt.write_bytes(bytes(data))
    (tmp_path / "out-b" / "extra.txt").write_text("")
    assert _compare(tmp_path) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["only", "in", "tree", "extra.txt"],
                                                ["DIFFERS", "train/ckpt_avg.bin"],
                                                ["same", "train/manifest.json"]]
