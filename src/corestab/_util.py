"""Shared helpers: seed derivation, the sigmoid, stable serialization, JSON
field checks, atomic file writes.

``write_csv`` turns float64 columns into text with a numpy kernel whose
output is byte for byte ``repr`` of each value.  It scales x by
10**(16 - e), for x's decimal exponent e, as a double-double (Dekker's
exact product against a power of ten held as two floats), which gives the
17-digit integer N and the fraction f, accurate to about 1e-14.  The
shortest p is the smallest whose nearest p-digit decimal lies strictly
inside x's half-gap; Python's shortest round-trip ``repr`` prints the same
digits.  A value whose decision falls within ``_MARGIN`` of a boundary (a
tie between two candidates, the edge of the half-gap), a power of two (its
gap below is half the gap above), ±0, NaN, ±inf and |x| outside
[1e-280, 1e280] are printed by ``repr`` itself.
"""

import hashlib
import json
import os
import tempfile

import numpy as np

# rows per piece of a table written by write_csv
_PIECE_ROWS = 1 << 14

_MARGIN = 2.0 ** -20  # decisions closer than this to a boundary go to repr
_SPLIT = 134217729.0  # 2**27 + 1, splits a float into two 26-bit halves
_WIDTH = 24  # bytes of the longest repr, -2.2250738585072014e-308
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _pow10_table(lo_k=-266, hi_k=298):
    """10**k for k in [lo_k, hi_k] as float pairs hi + lo, each rounded
    from exact integers, with hi split in two halves for Dekker's product."""
    hi, lo = [], []
    for k in range(lo_k, hi_k + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den  # int division rounds correctly
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (b * den))
    hi, lo = np.array(hi), np.array(lo)
    t = _SPLIT * hi
    hh = t - (t - hi)
    return -lo_k, hi, lo, hh, hi - hh


_P_OFF, _P_HI, _P_LO, _P_HH, _P_HL = _pow10_table()
# ASCII of 0000..9999 as one uint32 each, and 17-digit masks that keep p digits
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                              indexing="ij"), axis=-1).view(np.uint32).ravel()
_KEEP = np.where(np.arange(17) < np.arange(18)[:, None], 255, 0).astype(np.uint8)
# the bytes that make write_csv quote a text cell: comma, '"', CR and LF
_QUOTED = np.isin(np.arange(256), list(b',"\r\n'))


def derive_seed(*parts):
    """Derive a reproducible 63-bit seed from a base seed and labels.

    Sub-seeds for independent random streams (per-k re-embeds, negative
    sampling, ...) all flow from one user-facing seed through this hash,
    so results are stable across runs and platforms.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) elementwise, into ``out`` if given (``x`` itself
    too), which allocates nothing.  Unclipped: x < -709 overflows exp and
    gives 0, +inf and -inf give 1 and 0, and NaN stays NaN."""
    if out is None:
        out = np.empty(np.shape(x))
    with np.errstate(over="ignore"):
        np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


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


_JSON_KINDS = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list: "an array"}


def _json_mismatch(value, typ):
    """None if ``value`` suits a field of type ``typ``, else what it should
    be."""
    args = getattr(typ, "__args__", ())
    if type(None) in args:  # Optional[X]
        want = _json_mismatch(value, args[0])
        return None if value is None or want is None else want + " or null"
    if isinstance(value, bool):  # JSON true and false are no numbers
        ok = typ is bool
    elif typ is float:
        ok = isinstance(value, int) or (isinstance(value, float)
                                        and np.isfinite(value))
    else:
        ok = isinstance(value, typ)
    return None if ok else _JSON_KINDS.get(typ, typ.__name__)


def json_fields(cls, d, strict=True):
    """Keyword arguments for the dataclass ``cls`` from the JSON object ``d``.

    Each value must suit its field's type: an int field takes an integer, a
    float field a finite number (true and false are neither), a str field a
    string, and an ``Optional`` field also null.  A wrong type, a missing
    field without a default, or, if ``strict``, a key that names no field
    raises ValueError naming the key.
    """
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    known = cls.__dataclass_fields__
    unknown = sorted(set(d) - set(known))
    if strict and unknown:
        raise ValueError(f"unknown keys: {unknown}")
    for name, f in known.items():
        if name not in d:
            # dataclasses mark "no default" and "no factory" by one MISSING
            if f.default is f.default_factory:
                raise ValueError(f"missing key {name!r}")
            continue
        want = _json_mismatch(d[name], f.type)
        if want:
            raise ValueError(f"key {name!r} must be {want}, got {d[name]!r}")
    return {name: d[name] for name in known if name in d}


def read_text(path):
    """The text of ``path`` as UTF-8 with universal newlines."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _scaled(ax, e):
    """x * 10**(16 - e) for x = ``ax`` > 0 as (integer part, fraction)."""
    k = _P_OFF + 16 - e
    hi = ax * _P_HI[k]
    t = _SPLIT * ax
    xh = t - (t - ax)
    xl = ax - xh
    phh, phl = _P_HH[k], _P_HL[k]
    lo = ((((xh * phh - hi) + xh * phl) + xl * phh) + xl * phl
          + ax * _P_LO[k])
    # hi is an integer above 2**53; adding lo there would lose it
    fl = np.floor(lo)
    return hi.astype(np.int64) + fl.astype(np.int64), lo - fl


def _shortest(ax):
    """Shortest round-trip digits of each ``ax`` > 0, as (c, p, e, ok):
    c holds p digits padded with zeros to 17, the first at 10**e; ``ok``
    is False where a decision fell within the margin."""
    n = len(ax)
    e = np.floor(np.log10(ax)).astype(np.int64)
    big, frac = _scaled(ax, e)
    # log10 may miss the decade near a power of ten: rescale once
    off = (big < 10 ** 16).astype(np.int64) - (big >= 10 ** 17)
    miss = np.flatnonzero(off)
    ok = np.ones(n, dtype=bool)
    if len(miss):
        e[miss] -= off[miss]
        big[miss], frac[miss] = _scaled(ax[miss], e[miss])
        ok[miss] = (big[miss] >= 10 ** 16) & (big[miss] < 10 ** 17)
    half_gap = np.spacing(ax) * 0.5 * _P_HI[_P_OFF + 16 - e]
    # 17 digits: the nearest integer, inside a half-gap that is above 0.55
    u = 2.0 * frac - 1.0
    ok &= np.abs(u) >= 2 * _MARGIN
    c = big + (u > 0)
    p = np.full(n, 17, dtype=np.int64)
    # scan down: a row that fails at p digits fails at every shorter length
    live = np.flatnonzero(ok)
    for digits in range(16, 0, -1):
        if not len(live):
            break
        s = _POW10[17 - digits]
        b, f, h = big[live], frac[live], half_gap[live]
        q, r = np.divmod(b, s)
        u = (2 * r - s).astype(np.float64) + 2.0 * f  # > 0: round up
        up = u > 0
        dist = np.where(up, (s - r).astype(np.float64) - f, r + f)
        unsure = (((np.abs(u) < 2 * _MARGIN) & (s / 2 < h + _MARGIN))
                  | (np.abs(dist - h) <= _MARGIN))
        ok[live[unsure]] = False
        inside = (dist < h) & ~unsure
        live = live[inside]
        c[live] = (q[inside] + up[inside]) * s
        p[live] = digits
    carry = c == 10 ** 17  # rounded up to 10**p
    c[carry] = 10 ** 16
    e[carry] += 1
    return c, p, e, ok


def _digit_chars(c):
    """ASCII of the 17 digits of each ``c`` < 10**17, as an (n, 17) view."""
    a, b = np.divmod(c, 10 ** 8)
    a1, a2 = np.divmod(a, 10 ** 4)
    b1, b2 = np.divmod(b, 10 ** 4)
    quads = np.empty((len(c), 5), dtype=np.uint32)
    for j, chunk in enumerate((a1 // 10 ** 4, a1 % 10 ** 4, a2, b1, b2)):
        quads[:, j] = _QUADS[chunk]
    return quads.view(np.uint8)[:, 3:]


def _layout(sign, dig, cut, p, e, form):
    """Cells of one decimal exponent ``form`` (or None: the exponent form)
    in a zero-padded (n, _WIDTH) uint8 matrix; zero bytes are padding."""
    out = np.zeros((len(sign), _WIDTH), dtype=np.uint8)
    out[:, 0] = sign
    if form is None:  # d[.ddd]e±XX[X]
        out[:, 1] = dig[:, 0]
        out[:, 2] = np.where(p > 1, ord("."), 0)
        out[:, 3:19] = cut[:, 1:]
        out[:, 19] = ord("e")
        out[:, 20] = np.where(e < 0, ord("-"), ord("+"))
        ae = np.abs(e)
        out[:, 21] = np.where(ae >= 100, ae // 100 + ord("0"), 0)
        out[:, 22] = ae // 10 % 10 + ord("0")
        out[:, 23] = ae % 10 + ord("0")
    elif form < 0:  # 0.000ddd
        out[:, 1:2 - form] = ord("0")
        out[:, 2] = ord(".")
        out[:, 2 - form:19 - form] = cut
    else:  # ddd.d[dd], a zero after the point if it ends there
        out[:, 1:form + 2] = dig[:, :form + 1]
        out[:, form + 2] = ord(".")
        out[:, form + 3] = dig[:, form + 1]
        out[:, form + 4:19] = cut[:, form + 2:]
    return out


def _float_cells(x):
    """``repr`` of each float64 in ``x`` as a zero-padded (n, _WIDTH)
    uint8 matrix: drop the zero bytes of a row to get its text."""
    ax = np.abs(x)
    fast = ((ax >= 1e-280) & (ax <= 1e280)
            & (x.view(np.uint64) & np.uint64((1 << 52) - 1) != 0))
    c, p, e, ok = _shortest(np.where(fast, ax, 3.0))
    fast &= ok
    dig = _digit_chars(c)
    cut = dig & _KEEP[p]
    sign = np.where(np.signbit(x), ord("-"), 0)
    # repr's positional form covers decimal exponents -4 to 15
    form = np.where((e >= -4) & (e < 16), e + 4, 20)
    out = np.empty((len(x), _WIDTH), dtype=np.uint8)
    for g in np.flatnonzero(np.bincount(form, minlength=21)):
        rows = np.flatnonzero(form == g)
        out[rows] = _layout(sign[rows], dig[rows], cut[rows], p[rows],
                            e[rows], None if g == 20 else int(g) - 4)
    slow = np.flatnonzero(~fast)
    if len(slow):
        out[slow] = np.array([repr(v).encode() for v in x[slow].tolist()],
                             dtype=f"S{_WIDTH}").view(np.uint8).reshape(
                                 -1, _WIDTH)
    return out


def _cells(block, name):
    """The cells of column ``name`` as a zero-padded uint8 matrix, one row
    per cell.  A text cell that holds a comma, a double quote, CR or LF is
    quoted as RFC 4180 asks, its quotes doubled; a NUL byte is refused."""
    if isinstance(block, np.ndarray) and block.dtype == np.float64:
        return _float_cells(block)
    if isinstance(block, np.ndarray):
        block = block.tolist()
    raw = [str(v).encode() for v in block]
    # the matrix pads with zero bytes, so a NUL in a cell would vanish
    if b"\0" in b"".join(raw):
        raise ValueError(f"column {name!r}: a cell holds a NUL byte")
    text = np.array(raw, dtype="S")
    hit = _QUOTED.take(text.view(np.uint8)).reshape(len(raw), -1)
    if hit.any():
        for i in np.flatnonzero(hit.any(axis=1)).tolist():
            raw[i] = b'"' + raw[i].replace(b'"', b'""') + b'"'
        text = np.array(raw, dtype="S")
    return text.view(np.uint8).reshape(len(raw), -1)


def write_csv(path, header, columns):
    """Write a table atomically: a header line, then one comma-joined line
    per row.

    ``columns`` are equal-length numpy arrays, lists or ranges, one per
    header name.  Every cell is written as ``str`` writes it, which gives a
    float, Python or numpy, as ``repr``: its shortest round-trip form.  A
    float64 array goes through ``_float_cells``, byte-identical to ``repr``;
    anything else is written cell by cell, quoted as RFC 4180 asks where it
    holds a comma, a double quote, CR or LF.  Rows go out in pieces of
    ``_PIECE_ROWS``: each column becomes a zero-padded byte matrix, the
    matrices are joined with comma and newline columns, and one mask drops
    the padding, so a cell that holds a NUL byte raises ValueError naming
    its column.  A large table is never one string in memory.
    """
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != n for c in columns):
        raise ValueError(f"{len(header)} header names need as many "
                         "equal-length columns")

    def pieces():
        yield ",".join(header) + "\n"
        for lo in range(0, n, _PIECE_ROWS):
            hi = min(lo + _PIECE_ROWS, n)
            sep = np.full((hi - lo, 1), ord(","), dtype=np.uint8)
            parts = []
            for name, col in zip(header, columns):
                parts += [_cells(col[lo:hi], name), sep]
            parts[-1] = np.full_like(sep, ord("\n"))
            table = np.concatenate(parts, axis=1)
            yield table[table != 0].tobytes()

    write_atomic(path, pieces())
