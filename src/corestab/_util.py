"""Shared helpers: seed derivation, stable serialization, atomic file writes."""

import hashlib
import json
import os
import tempfile

import numpy as np

# rows per piece of a float column written by write_atomic
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


def float_column(header, values):
    """A one-column CSV (header, then one ``fmt_float`` per line) as pieces
    of at most ``_PIECE_ROWS`` lines each, for ``write_atomic``."""
    values = np.asarray(values, dtype=np.float64)
    yield header + "\n"
    for lo in range(0, len(values), _PIECE_ROWS):
        yield "".join(fmt_float(x) + "\n"
                      for x in values[lo:lo + _PIECE_ROWS].tolist())
