import ast
import hashlib
import json
import struct
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from winmt import checkpoint as ckpt
from winmt.rng import stream


@pytest.fixture
def params():
    rng = stream(0, "ckpt")
    return {
        "emb": rng.normal(0, 1, (7, 4)).astype(np.float32),
        "w": rng.normal(0, 1, (4, 4)).astype(np.float32),
        "b64": rng.normal(0, 1, 4),  # float64
    }


def test_round_trip_is_bitwise_lossless(tmp_path, params):
    config = {"hidden": 4, "vocab_size": 7}
    path = tmp_path / "m.bin"
    ckpt.save_checkpoint(path, params, config)
    loaded, cfg = ckpt.load_checkpoint(path)
    assert cfg == config
    # the stored digest follows the magic and the version
    assert path.read_bytes()[12:44] == hashlib.sha256(ckpt.canonical_config(config)).digest()
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].dtype == params[name].dtype
        assert np.array_equal(loaded[name], params[name])
        assert loaded[name].tobytes() == params[name].tobytes()


def test_corrupted_file_rejected(tmp_path, params):
    path = tmp_path / "m.bin"
    ckpt.save_checkpoint(path, params, {"a": 1})
    blob = bytearray(path.read_bytes())
    blob[50] ^= 0xFF  # flip a bit inside the config section
    path.write_bytes(bytes(blob))
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_checkpoint(path)


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"something else entirely")
    with pytest.raises(ckpt.CheckpointError, match="not a checkpoint"):
        ckpt.load_checkpoint(path)


def test_every_truncation_rejected(tmp_path, params):
    # cuts inside the header, inside a record header and inside parameter data
    path = tmp_path / "m.bin"
    ckpt.save_checkpoint(path, params, {"a": 1})
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path, params):
    path = tmp_path / "m.bin"
    ckpt.save_checkpoint(path, params, {"a": 1})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ckpt.CheckpointError, match="1 bytes after the last record"):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize("at,value,message", [(0, 0xFF, "name is not utf-8"),
                                               (3, 7, "unknown dtype code 7")])
def test_bad_record_header_rejected(tmp_path, params, at, value, message):
    path = tmp_path / "m.bin"
    ckpt.save_checkpoint(path, params, {"a": 1})
    blob = bytearray(path.read_bytes())
    # magic, version, digest, config length, config, count and name length
    # come before the first record's name "emb" and its dtype code (float32)
    name_at = 8 + 4 + 32 + 4 + len(ckpt.canonical_config({"a": 1})) + 4 + 2
    assert blob[name_at:name_at + 4] == b"emb\x01"
    blob[name_at + at] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(ckpt.CheckpointError, match=message):
        ckpt.load_checkpoint(path)


def test_average_of_identical_checkpoints_is_identity(tmp_path, params):
    paths = []
    for i in range(5):
        p = tmp_path / f"c{i}.bin"
        ckpt.save_checkpoint(p, params, {"v": 1})
        paths.append(p)
    out = tmp_path / "avg.bin"
    ckpt.average_checkpoints(paths, out)
    avg, _ = ckpt.load_checkpoint(out)
    for name in params:
        assert np.array_equal(avg[name], params[name])


def test_average_is_parameter_wise_mean(tmp_path):
    a = {"w": np.array([1.0, 2.0], dtype=np.float32)}
    b = {"w": np.array([3.0, 6.0], dtype=np.float32)}
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    ckpt.save_checkpoint(pa, a, {})
    ckpt.save_checkpoint(pb, b, {})
    out = tmp_path / "avg.bin"
    ckpt.average_checkpoints([pa, pb], out)
    avg, _ = ckpt.load_checkpoint(out)
    np.testing.assert_allclose(avg["w"], [2.0, 4.0])


def test_average_drops_optimizer_state(tmp_path):
    p = tmp_path / "c.bin"
    ckpt.save_checkpoint(p, {"w": np.ones(2, dtype=np.float32),
                             "opt.m.w": np.ones(2, dtype=np.float32)}, {})
    out = tmp_path / "avg.bin"
    ckpt.average_checkpoints([p], out)
    avg, _ = ckpt.load_checkpoint(out)
    assert set(avg) == {"w"}


def test_saved_bytes_follow_the_documented_layout(tmp_path, params):
    config = {"hidden": 4, "vocab_size": 7}
    path = tmp_path / "m.bin"
    ckpt.save_checkpoint(path, params, config)
    cfg = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    want = b"WMTCKPT\0" + struct.pack("<I", 1) + hashlib.sha256(cfg).digest()
    want += struct.pack("<I", len(cfg)) + cfg + struct.pack("<I", len(params))
    for name, arr in params.items():
        code = {np.dtype("float32"): 1, np.dtype("float64"): 2}[arr.dtype]
        want += struct.pack("<H", len(name)) + name.encode("utf-8")
        want += struct.pack("<BB", code, arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        want += arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    assert path.read_bytes() == want


def test_unsupported_dtype_in_last_record_keeps_old_file(tmp_path, params):
    path = tmp_path / "m.bin"
    ckpt.save_checkpoint(path, params, {"v": 1})
    old = path.read_bytes()
    bad = {**{k: v + 1 for k, v in params.items()}, "steps": np.arange(3)}
    with pytest.raises(ckpt.CheckpointError, match="unsupported dtype int64 for parameter 'steps'"):
        ckpt.save_checkpoint(path, bad, {"v": 2})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]


def test_repeated_record_name_rejected(tmp_path, params):
    path = tmp_path / "m.bin"
    ckpt.save_checkpoint(path, {"w": params["w"]}, {})
    blob = path.read_bytes()
    header = 8 + 4 + 32 + 4 + len(ckpt.canonical_config({}))
    # the count says two records, and the one record follows twice
    path.write_bytes(blob[:header] + struct.pack("<I", 2) + blob[header + 4:] * 2)
    with pytest.raises(ckpt.CheckpointError, match="parameter 'w' appears twice"):
        ckpt.load_checkpoint(path)


def test_file_shorter_than_its_stat_rejected(tmp_path, params, monkeypatch):
    # a file cut after its size was read: the last array comes up short
    path = tmp_path / "m.bin"
    ckpt.save_checkpoint(path, params, {})
    path.write_bytes(path.read_bytes()[:-4])
    fstat = ckpt.os.fstat
    monkeypatch.setattr(ckpt.os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=fstat(fd).st_size + 4))
    with pytest.raises(ckpt.CheckpointError, match="changed while it was read"):
        ckpt.load_checkpoint(path)


def test_load_without_optimizer_skips_opt_records(tmp_path, params):
    path = tmp_path / "m.bin"
    ckpt.save_checkpoint(path, {**params, "opt.m.w": params["w"] + 1}, {"v": 1})
    loaded, cfg = ckpt.load_checkpoint(path, optimizer=False)
    assert cfg == {"v": 1} and set(loaded) == set(params)
    for name in params:
        assert loaded[name].tobytes() == params[name].tobytes()


def traced_peak(fn) -> int:
    """Bytes ``fn()`` allocates at its peak above what was live when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_save_and_model_only_load_copy_no_payload(tmp_path):
    path = tmp_path / "m.bin"
    params = {"w": np.ones(4, dtype=np.float32), "opt.m.w": np.ones(1 << 20, dtype=np.float32)}
    # a 4 MiB record: a copy of it, or of the file, would show
    assert traced_peak(lambda: ckpt.save_checkpoint(path, params, {})) < 2 ** 20
    assert traced_peak(lambda: ckpt.load_checkpoint(path, optimizer=False)) < 2 ** 20


def test_average_of_optimizer_records_is_average_without_them(tmp_path, params):
    with_opt, without = [], []
    for i in range(3):
        model = {k: v * (i + 1) for k, v in params.items()}
        opt = {f"opt.{m}.{k}": v - i for m in ("m", "v") for k, v in params.items()}
        with_opt.append(tmp_path / f"o{i}.bin")
        ckpt.save_checkpoint(with_opt[-1], {**model, **opt}, {"v": 1})
        without.append(tmp_path / f"n{i}.bin")
        ckpt.save_checkpoint(without[-1], model, {"v": 1})
    ckpt.average_checkpoints(with_opt, tmp_path / "avg_o.bin")
    ckpt.average_checkpoints(without, tmp_path / "avg_n.bin")
    assert (tmp_path / "avg_o.bin").read_bytes() == (tmp_path / "avg_n.bin").read_bytes()


def test_average_rejects_truncated_optimizer_record(tmp_path, params):
    paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
    for path in paths:
        ckpt.save_checkpoint(path, {**params, "opt.m.w": params["w"]}, {"v": 1})
    paths[1].write_bytes(paths[1].read_bytes()[:-4])  # a float32 short
    with pytest.raises(ckpt.CheckpointError, match="b.bin: truncated"):
        ckpt.average_checkpoints(paths, tmp_path / "avg.bin")
    assert not (tmp_path / "avg.bin").exists()


@pytest.mark.parametrize("second, config, differs", [
    ({"w": np.ones(2, dtype=np.float32)}, {"v": 2}, "config"),
    ({"w": np.ones(2, dtype=np.float32)}, {"v": 1}, "model records"),
    ({"w": np.ones(3, dtype=np.float32), "b": np.ones(2, dtype=np.float32)}, {"v": 1},
     "model records"),
    ({"w": np.ones(2), "b": np.ones(2, dtype=np.float32)}, {"v": 1}, "model records"),
])
def test_average_rejects_checkpoints_unlike_the_first(tmp_path, second, config, differs):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    ckpt.save_checkpoint(a, {"w": np.ones(2, dtype=np.float32),
                             "b": np.ones(2, dtype=np.float32)}, {"v": 1})
    ckpt.save_checkpoint(b, second, config)
    with pytest.raises(ckpt.CheckpointError, match=f"b.bin: its {differs} differ"):
        ckpt.average_checkpoints([a, b], tmp_path / "avg.bin")
    assert not (tmp_path / "avg.bin").exists()


def test_config_digest_is_order_insensitive():
    assert ckpt.canonical_config({"a": 1, "b": 2}) == ckpt.canonical_config({"b": 2, "a": 1})


@pytest.mark.parametrize("target", ["checkpoint", "average"])
def test_failed_write_keeps_old_file(tmp_path, params, monkeypatch, target):
    path = tmp_path / ("ckpt_avg.bin" if target == "average" else "m.bin")
    ckpt.save_checkpoint(path, params, {"v": 1})
    old = path.read_bytes()
    other = tmp_path / "other.bin"  # averageable with ``path``: the same config
    ckpt.save_checkpoint(other, {k: v + 1 for k, v in params.items()}, {"v": 1})

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(ckpt.os, "replace", boom)
    with pytest.raises(OSError, match="disk full"):
        if target == "average":
            ckpt.average_checkpoints([path, other], path)
        else:
            ckpt.save_checkpoint(path, {k: v + 1 for k, v in params.items()}, {"v": 2})
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, other.name])


def file_writes(tree: ast.AST):
    """(enclosing function, line) of each call in ``tree`` that writes a file:
    ``open`` or ``.open`` with a mode other than a read-only constant,
    ``.write_text``, ``.write_bytes`` and ``json.dump``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "open":
                # builtin open(file, mode), method path.open(mode)
                pos = 1 if isinstance(f, ast.Name) else 0
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            node.args[pos] if len(node.args) > pos else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                    found.append((function, node.lineno))
            elif name in ("write_text", "write_bytes") or (
                    name == "dump" and isinstance(f.value, ast.Name) and f.value.id == "json"):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_write_atomic_writes_files():
    src = Path(ckpt.__file__).parent
    writes = {f"{path.name}:{function}:{line}"
              for path in sorted(src.glob("*.py"))
              for function, line in file_writes(ast.parse(path.read_text()))}
    atomic = {w for w in writes if w.startswith("checkpoint.py:write_atomic:")}
    assert len(atomic) == 1  # the one open(tmp, "wb") behind every file winmt writes
    assert writes == atomic


def test_file_write_finder_sees_each_kind():
    tree = ast.parse("def f(p, q, d):\n"
                     "    open(p, 'w'); open(p, mode='ab'); p.open('w'); open(p, q)\n"
                     "    p.write_text('x'); p.write_bytes(b'x'); json.dump(d, p)\n"
                     "    open(p); open(p, 'rb'); p.open(); p.read_text(); json.dumps(d)\n")
    assert [line for _, line in file_writes(tree)] == [2] * 4 + [3] * 3
