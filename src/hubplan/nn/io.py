"""Checksummed binary artifacts, and the parameter files built on them.

Every binary artifact is a body closed by the sha256 digest of the body;
`write_checksummed` writes one and `read_checksummed` verifies it before any
of the body is used. Parameter files lay their body out as magic ``HBNP``,
u32 version, length-prefixed model-kind tag, u32 tensor count, then per
tensor: u16 name length + utf8 name, u8 rank, u32 dims, raw little-endian
float64 payload.

`load_params` copies each tensor to a 64-byte boundary (`aligned_copy`,
which `init_weight` uses too). numpy aligns its own allocations to 16
bytes only, and where a weight starts decides how fast BLAS multiplies by
it. On a two-core x86-64 host with one OpenBLAS thread, a policy step's
(1, 622) @ (622, 128) product took 11.5-11.8 us with the weight at 0 mod
64 against 17.0-18.2 us at 16, 32 or 48, and the learned encoder's
(130, 1, 590) @ (590, 128) stack 1.0 ms against 1.8-1.9 ms; the results
are bit-identical at every offset (`tests/test_nn_core.py::TestStackedNumpyFacts`).

`json_artifact` reads the JSON files beside them (a dataset's manifest, a
policy bank's index) and names the stage to rerun when one is malformed.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"HBNP"
VERSION = 1
DIGEST_SIZE = 32
ALIGN = 64  # bytes

__all__ = ["ArtifactError", "aligned_copy", "save_params", "load_params",
           "write_checksummed", "read_checksummed", "json_artifact"]


class ArtifactError(RuntimeError):
    """Corrupt, truncated, or wrong-version artifact file."""


@contextmanager
def json_artifact(path, stage: str):
    """The parsed JSON file `path`, to be read inside this block: a file that
    does not parse, a missing key or a value of the wrong shape raises
    `ArtifactError` naming the file and `stage`, the stage that writes it."""
    try:
        yield json.loads(Path(path).read_text())
    except KeyError as e:
        raise ArtifactError(f"{path}: no {e.args[0]!r} key; run stage {stage} again") from None
    except (TypeError, ValueError) as e:
        raise ArtifactError(f"{path}: malformed ({e}); run stage {stage} again") from None


def aligned_copy(data) -> np.ndarray:
    """A writable, C-contiguous float64 copy of `data` that starts at a
    64-byte boundary; it is a view into a buffer of its own, 64 bytes longer."""
    src = np.asarray(data, dtype=np.float64)
    buf = np.empty(src.size + ALIGN // 8)
    start = -buf.ctypes.data % ALIGN // 8
    out = buf[start:start + src.size].reshape(src.shape)
    out[...] = src
    return out


def write_checksummed(path, parts: Iterable) -> None:
    """Write the bytes-like `parts` in order, then the sha256 of all of them."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
            digest.update(part)
        fh.write(digest.digest())


def read_checksummed(path) -> memoryview:
    """The body of a file written by `write_checksummed`, once its digest
    matches; a read-only view of the bytes read, copying nothing."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < DIGEST_SIZE:
        raise ArtifactError(f"{path}: truncated file")
    body = memoryview(blob)[:-DIGEST_SIZE]
    if hashlib.sha256(body).digest() != blob[-DIGEST_SIZE:]:
        raise ArtifactError(f"{path}: checksum mismatch")
    return body


def _param_parts(kind: str, tensors: dict[str, np.ndarray]):
    kb = kind.encode("utf-8")
    yield MAGIC + struct.pack("<IH", VERSION, len(kb)) + kb + struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        a = np.ascontiguousarray(arr, dtype="<f8")     # no copy if already so
        nb = name.encode("utf-8")
        yield struct.pack(f"<H{len(nb)}sB{a.ndim}I", len(nb), nb, a.ndim, *a.shape)
        yield a


def save_params(path, kind: str, tensors: dict[str, np.ndarray]) -> None:
    write_checksummed(path, _param_parts(kind, tensors))


def load_params(path, expect_kind: str | None = None) -> tuple[str, dict[str, np.ndarray]]:
    body = read_checksummed(path)
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(body):
            raise ArtifactError(f"{path}: truncated record")
        chunk = body[off:off + n]
        off += n
        return chunk

    if take(4) != MAGIC:
        raise ArtifactError(f"{path}: bad magic")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise ArtifactError(f"{path}: unsupported version {version}")
    (klen,) = struct.unpack("<H", take(2))
    kind = str(take(klen), "utf-8")
    if expect_kind is not None and kind != expect_kind:
        raise ArtifactError(f"{path}: model kind {kind!r}, expected {expect_kind!r}")
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = str(take(nlen), "utf-8")
        (rank,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        size = int(np.prod(dims)) if dims else 1
        # the one copy: each tensor gets writable memory of its own, aligned
        tensors[name] = aligned_copy(np.frombuffer(take(8 * size), dtype="<f8").reshape(dims))
    if off != len(body):
        raise ArtifactError(f"{path}: trailing bytes")
    return kind, tensors
