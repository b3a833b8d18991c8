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

Round-trips are lossless: values are written byte-for-byte, each array
from its own buffer, and read straight into the arrays loading returns.
Files are written to a temporary file in the same directory and then
renamed over the target, so a failed or interrupted write leaves the old
file whole.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

MAGIC = b"WMTCKPT\x00"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


class CheckpointError(ValueError):
    pass


def canonical_config(config: Mapping) -> bytes:
    return json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_atomic(path, data: bytes | Iterable) -> None:
    """Replace ``path`` with ``data`` in one rename. ``data`` is bytes or an
    iterable of bytes-like chunks, written in order. On failure, including
    one the iterable raises, the old file stays as it was and the temporary
    file is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in (data,) if isinstance(data, bytes) else data:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _chunks(params: Mapping[str, np.ndarray], config: Mapping) -> Iterator[bytes | np.ndarray]:
    """The checkpoint of ``params`` and ``config`` in order: the file header,
    then per record its header and the array itself, not a copy of it."""
    cfg = canonical_config(config)
    yield (MAGIC + struct.pack("<I", VERSION) + hashlib.sha256(cfg).digest()
           + struct.pack("<I", len(cfg)) + cfg + struct.pack("<I", len(params)))
    for name, value in params.items():
        arr = np.ascontiguousarray(getattr(value, "data", value))
        dtype = arr.dtype.newbyteorder("<")
        if dtype not in _DTYPE_CODES:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for parameter {name!r}")
        encoded = name.encode("utf-8")
        yield (struct.pack("<H", len(encoded)) + encoded
               + struct.pack(f"<BB{arr.ndim}I", _DTYPE_CODES[dtype], arr.ndim, *arr.shape))
        yield arr.astype(dtype, copy=False)


def save_checkpoint(path, params: Mapping[str, np.ndarray], config: Mapping) -> None:
    """Write ``params`` and ``config`` to ``path`` through ``write_atomic``,
    streamed record by record; a record that cannot be written raises
    ``CheckpointError`` and leaves the old file whole."""
    write_atomic(path, _chunks(params, config))


def load_checkpoint(path, *, optimizer: bool = True) -> tuple[dict[str, np.ndarray], dict]:
    """Return (params, config), without the ``opt.`` records when not
    ``optimizer``. Validates magic, version and config digest, the bounds
    and dtype code of every record, skipped ones included, that no name
    repeats, and the exact file length; a file that fails any of these
    raises ``CheckpointError``. Arrays are read straight from the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        off = len(MAGIC)

        def advance(n: int) -> None:
            """Claim the next n bytes, which the file must hold."""
            nonlocal off
            if n > size - off:
                raise CheckpointError(f"{path}: truncated, {n} bytes needed at byte {off} "
                                      f"of {size}")
            off += n

        def take(n: int) -> bytes:
            advance(n)
            return fh.read(n)

        def unpack(fmt: str) -> tuple:
            return struct.unpack("<" + fmt, take(struct.calcsize("<" + fmt)))

        (version,) = unpack("I")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        digest = take(32)
        (cfg_len,) = unpack("I")
        cfg_bytes = take(cfg_len)
        if hashlib.sha256(cfg_bytes).digest() != digest:
            raise CheckpointError(f"{path}: config digest mismatch, file corrupted")
        config = json.loads(cfg_bytes.decode("utf-8"))
        (n_params,) = unpack("I")
        params: dict[str, np.ndarray] = {}
        names: set[str] = set()
        for _ in range(n_params):
            (name_len,) = unpack("H")
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: a parameter name is not utf-8") from exc
            code, ndim = unpack("BB")
            dims = unpack(f"{ndim}I")
            if code not in _CODE_DTYPES:
                raise CheckpointError(f"{path}: parameter {name!r} has unknown dtype code {code}")
            if name in names:
                raise CheckpointError(f"{path}: parameter {name!r} appears twice")
            names.add(name)
            dtype = _CODE_DTYPES[code]
            nbytes = math.prod(dims) * dtype.itemsize
            advance(nbytes)
            if optimizer or not name.startswith("opt."):
                params[name] = np.empty(dims, dtype=dtype)
                if fh.readinto(params[name]) != nbytes:
                    raise CheckpointError(f"{path}: changed while it was read")
            else:
                fh.seek(nbytes, os.SEEK_CUR)
    if off != size:
        raise CheckpointError(f"{path}: {size - off} bytes after the last record")
    return params, config


def average_checkpoints(paths: Iterable, out_path) -> None:
    """Parameter-wise arithmetic mean of model parameters across checkpoints.

    Optimizer-state records (names prefixed "opt.") are checked but not
    read. Every checkpoint must hold the first one's config and the same
    model-record names, shapes and dtypes; one that does not raises
    ``CheckpointError`` naming it. Accumulation runs in float64 so
    averaging k identical checkpoints reproduces them exactly.
    """
    paths = list(paths)
    if not paths:
        raise CheckpointError("no checkpoints to average")
    params, config = load_checkpoint(paths[0], optimizer=False)
    layout = {name: (arr.shape, arr.dtype) for name, arr in params.items()}
    acc = {name: arr.astype(np.float64) for name, arr in params.items()}
    for path in paths[1:]:
        params, cfg = load_checkpoint(path, optimizer=False)
        if cfg != config:
            raise CheckpointError(f"{path}: its config differs from that of {paths[0]}")
        if {name: (arr.shape, arr.dtype) for name, arr in params.items()} != layout:
            raise CheckpointError(f"{path}: its model records differ in name, shape or dtype "
                                  f"from those of {paths[0]}")
        for name, arr in params.items():
            acc[name] += arr
    del params
    averaged = {name: (total / len(paths)).astype(layout[name][1])
                for name, total in acc.items()}
    save_checkpoint(out_path, averaged, config)
