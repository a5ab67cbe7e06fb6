"""Shared helpers: seed derivation, stable serialization, atomic file writes."""

import hashlib
import json
import os
import tempfile

import numpy as np

# rows per piece of a table written by write_csv
_PIECE_ROWS = 1 << 14


def derive_seed(*parts):
    """Derive a reproducible 63-bit seed from a base seed and labels.

    Sub-seeds for independent random streams (per-k re-embeds, negative
    sampling, ...) all flow from one user-facing seed through this hash,
    so results are stable across runs and platforms.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def json_dumps_stable(obj):
    """Serialize with sorted keys and a trailing newline (byte-reproducible)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_atomic(path, pieces):
    """Write via a temp file + rename so readers never see partial output.

    ``pieces`` is one str or bytes, or an iterable of them written in order
    (str as UTF-8), so a large file need not be one string in memory.
    """
    path = os.fspath(path)
    if isinstance(pieces, (str, bytes)):
        pieces = (pieces,)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for piece in pieces:
                fh.write(piece.encode() if isinstance(piece, str) else piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fmt_float(x):
    """Shortest round-trip decimal form; keeps CSV output byte-reproducible."""
    return repr(float(x))


def write_csv(path, header, columns):
    """Write a table atomically: a header line, then one comma-joined line
    per row.

    ``columns`` are equal-length numpy arrays, lists or ranges, one per header
    name.  A float cell is written by ``fmt_float`` and any other cell by
    ``str``.  Rows go out in pieces of ``_PIECE_ROWS``, so a large table is
    never one string in memory.
    """
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != n for c in columns):
        raise ValueError(f"{len(header)} header names need as many "
                         "equal-length columns")

    def pieces():
        yield ",".join(header) + "\n"
        for lo in range(0, n, _PIECE_ROWS):
            cells = []
            for col in columns:
                block = col[lo:lo + _PIECE_ROWS]
                if isinstance(block, np.ndarray):
                    block = block.tolist()
                cells.append([fmt_float(x) if isinstance(x, float) else str(x)
                              for x in block])
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    write_atomic(path, pieces())
