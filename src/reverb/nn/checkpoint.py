"""Single-file checkpoints: a text manifest plus one raw blob.

Byte-exact layout (all text lines ASCII, LF-terminated):

    REVERB-CKPT 1
    meta <key> <value>          # zero or more, sorted by key
    tensor <name> <dtype> <d0,d1,...> <byte-offset>
                                # one per array, sorted by name
    blob <total-bytes>
    <raw little-endian data, C order, in manifest order>

``save`` writes every tensor as float64, the dtype of the training
state, so a save and a load give back the same bits.  ``load`` reads
the dtype of each tensor line from :data:`DTYPES`; files written by
earlier versions, which stored float32, still load.  Writes go to a
temporary file in the target directory followed by an atomic rename
(:func:`atomic_write`, which every file writer in the package uses).
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from ..errors import ParseError

MAGIC = "REVERB-CKPT 1"
DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}


def atomic_write(path, data):
    """Write ``data`` via ``<path>.tmp.<pid>`` and a rename, so ``path`` is
    old or new, never partial.  ``data`` is str (written as UTF-8), bytes,
    or an iterable of str and bytes-like pieces (a contiguous array
    writes its raw bytes) streamed into the temporary file.
    The file is fsynced before the rename and its directory after it.  On
    failure, also one raised while the pieces are produced, the temporary
    file is removed and ``path`` is left as it was; an ``OSError`` names ``path``."""
    if isinstance(data, (str, bytes)):
        data = [data]
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            for piece in data:
                f.write(piece.encode("utf-8") if isinstance(piece, str) else piece)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise OSError(f"cannot write {path}: {e.strerror or e}") from e
        raise
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save(path, arrays: dict, meta: dict | None = None):
    meta = dict(meta or {})
    names = sorted(arrays)
    lines = [MAGIC]
    for key in sorted(meta):
        value = str(meta[key])
        if "\n" in value or " " in str(key):
            raise ValueError(f"invalid meta entry {key!r}")
        lines.append(f"meta {key} {value}")
    blobs = []
    offset = 0
    for name in names:
        if " " in name:
            raise ValueError(f"tensor names must not contain spaces: {name!r}")
        if np.ndim(arrays[name]) == 0:
            raise ValueError(f"scalar {name!r} belongs in meta, not the blob")
        a = np.ascontiguousarray(arrays[name], dtype=DTYPES["float64"])
        dims = ",".join(str(d) for d in a.shape)
        lines.append(f"tensor {name} float64 {dims} {offset}")
        blobs.append(a)
        offset += a.nbytes
    lines.append(f"blob {offset}")
    # Streamed piece by piece: one joined copy of the blob would add its
    # whole size to the peak memory of a training run.
    atomic_write(path, [("\n".join(lines) + "\n").encode("ascii"), *blobs])


def load(path):
    """Read a checkpoint; returns (arrays: name -> float64 ndarray, meta)."""
    entries = []
    meta = {}
    with open(path, "rb") as f:
        first = f.readline().decode("ascii", errors="replace").rstrip("\n")
        if first != MAGIC:
            raise ParseError(f"not a checkpoint (bad magic {first!r})", path=path, line=1)
        line_no = 1
        blob_size = None
        while True:
            line = f.readline()
            line_no += 1
            if not line:
                raise ParseError("truncated manifest", path=path, line=line_no)
            text = line.decode("ascii", errors="replace").rstrip("\n")
            if text.startswith("meta "):
                parts = text.split(" ", 2)
                if len(parts) != 3:
                    raise ParseError(f"bad meta line {text!r}", path=path, line=line_no)
                meta[parts[1]] = parts[2]
            elif text.startswith("tensor "):
                parts = text.split(" ")
                if len(parts) != 5 or parts[2] not in DTYPES:
                    raise ParseError(f"bad tensor line {text!r}", path=path, line=line_no)
                shape = tuple(_count(d, "shape", path, line_no) for d in parts[3].split(","))
                entries.append((parts[1], DTYPES[parts[2]], shape,
                                _count(parts[4], "offset", path, line_no)))
            elif text.startswith("blob "):
                blob_size = _count(text[len("blob "):], "blob size", path, line_no)
                break
            else:
                raise ParseError(f"unexpected line {text!r}", path=path, line=line_no)
        blob = f.read()
    if blob_size is None or len(blob) != blob_size:
        raise ParseError(
            f"blob size mismatch: manifest {blob_size}, file {len(blob)}", path=path
        )
    arrays = {}
    for name, dtype, shape, offset in entries:
        count = math.prod(shape)  # exact, unlike np.prod: a huge shape overruns the blob
        if offset + dtype.itemsize * count > blob_size:
            raise ParseError(f"tensor {name!r} overruns the blob", path=path)
        flat = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        arrays[name] = flat.reshape(shape).astype(np.float64)
    return arrays, meta


def _count(token: str, what: str, path, line_no: int) -> int:
    """A non-negative integer manifest field, or ParseError."""
    if not token.isdigit():
        raise ParseError(f"{what} field {token!r} is not a non-negative integer",
                         path=path, line=line_no)
    return int(token)
