"""Binary parameter checkpoints.

Layout (all integers little-endian):

    magic     8 bytes   b"WMTCKPT\\0"
    version   u32       currently 1
    digest    32 bytes  sha256 of the canonical config JSON
    cfg_len   u32       length of config JSON in bytes
    config    cfg_len   canonical JSON (sorted keys, compact separators)
    n_params  u32
    then per parameter record:
    name_len  u16
    name      name_len  utf-8
    dtype     u8        1 = float32, 2 = float64
    ndim      u8
    dims      ndim*u32
    data      raw little-endian values, row-major

Round-trips are lossless: values are written byte-for-byte. Files are
written to a temporary file in the same directory and then renamed over
the target, so a failed or interrupted write leaves the old file whole.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

MAGIC = b"WMTCKPT\x00"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


class CheckpointError(ValueError):
    pass


def canonical_config(config: Mapping) -> bytes:
    return json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one rename; on failure the old file
    stays as it was and the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, params: Mapping[str, np.ndarray], config: Mapping) -> None:
    cfg = canonical_config(config)
    chunks = [MAGIC, struct.pack("<I", VERSION), hashlib.sha256(cfg).digest(),
              struct.pack("<I", len(cfg)), cfg, struct.pack("<I", len(params))]
    for name, value in params.items():
        arr = np.ascontiguousarray(getattr(value, "data", value))
        dtype = arr.dtype.newbyteorder("<")
        if dtype not in _DTYPE_CODES:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for parameter {name!r}")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", _DTYPE_CODES[dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype(dtype, copy=False).tobytes())
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Return (params, config). Validates magic, version and config
    digest, the bounds and dtype code of every record, and the exact file
    length; a file that fails any of these raises ``CheckpointError``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    view = memoryview(blob)
    off = len(MAGIC)

    def take(n: int) -> memoryview:
        """The next n bytes, as a view into the file's bytes rather than a copy."""
        nonlocal off
        if n > len(blob) - off:
            raise CheckpointError(f"{path}: truncated, {n} bytes needed at byte {off} "
                                  f"of {len(blob)}")
        off += n
        return view[off - n:off]

    def unpack(fmt: str) -> tuple:
        return struct.unpack("<" + fmt, take(struct.calcsize("<" + fmt)))

    (version,) = unpack("I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    digest = bytes(take(32))
    (cfg_len,) = unpack("I")
    cfg_bytes = bytes(take(cfg_len))
    if hashlib.sha256(cfg_bytes).digest() != digest:
        raise CheckpointError(f"{path}: config digest mismatch, file corrupted")
    config = json.loads(cfg_bytes.decode("utf-8"))
    (n_params,) = unpack("I")
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = unpack("H")
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: a parameter name is not utf-8") from exc
        code, ndim = unpack("BB")
        dims = unpack(f"{ndim}I")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: parameter {name!r} has unknown dtype code {code}")
        dtype = _CODE_DTYPES[code]
        data = take(math.prod(dims) * dtype.itemsize)
        params[name] = np.frombuffer(data, dtype=dtype).reshape(dims).copy()
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} bytes after the last record")
    return params, config


def average_checkpoints(paths: Iterable, out_path) -> None:
    """Parameter-wise arithmetic mean of model parameters across checkpoints.

    Optimizer-state records (names prefixed "opt.") are dropped; the config
    header is taken from the first checkpoint. Accumulation runs in float64
    so averaging k identical checkpoints reproduces them exactly.
    """
    paths = list(paths)
    if not paths:
        raise CheckpointError("no checkpoints to average")
    acc: dict[str, np.ndarray] = {}
    dtypes: dict[str, np.dtype] = {}
    config = None
    for path in paths:
        params, cfg = load_checkpoint(path)
        if config is None:
            config = cfg
        for name, arr in params.items():
            if name.startswith("opt."):
                continue
            if name not in acc:
                acc[name] = arr.astype(np.float64)
                dtypes[name] = arr.dtype
            else:
                if acc[name].shape != arr.shape:
                    raise CheckpointError(f"shape mismatch for {name!r} across checkpoints")
                acc[name] += arr.astype(np.float64)
    averaged = {name: (total / len(paths)).astype(dtypes[name]) for name, total in acc.items()}
    save_checkpoint(out_path, averaged, config)
