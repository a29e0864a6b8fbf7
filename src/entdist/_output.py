"""CSV/JSON table output with atomic file writes.

A table is a mapping from column name to column; a column is a numpy
array or a list of str/int/float/None, and all columns have one length.
CSV is the primary format (header row, full double precision); JSON
mirrors the same table as ``{"columns": [...], "rows": [[...]]}``, with
non-finite floats as the strings of their CSV cells.  Files
are written to a temporary sibling, CSV one block of rows at a time, and
renamed into place so a failed run never leaves a partial file behind.
The command line streams the same pieces (:func:`_pieces`) to stdout, so
both sinks get the same bytes, UTF-8 whatever the locale; a JSON table is
still one piece, built whole.

A CSV float cell is exactly ``format(x, ".17g")``.  For a float array it
is built by integer arithmetic when ``1e-4 <= |x| < 1e17`` (fixed
notation: the 17 significant digits come from the exact product of the
mantissa and a power of five) and by ``%`` one cell at a time elsewhere.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from pathlib import Path

import numpy as np

__all__ = ["format_cell", "render", "write_table"]

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
_BLOCK = 4096  # CSV rows per formatting block

# the type of every operand of the 128-bit arithmetic: under numpy 1.24's
# value-based promotion, uint64 with int64 silently becomes float64
_U = np.uint64
_POW5 = _U(5) ** np.arange(21, dtype=np.uint64)  # 5^q for q = 16 - exp, decimal exponent exp = -4..16
# the text "0000".."9999", each four digit bytes read as one uint32
_QUADS = np.ascontiguousarray(np.moveaxis(np.indices((10,) * 4, dtype=np.uint8) + np.uint8(ord("0")), 0, -1))
_QUADS = _QUADS.view(np.uint32).ravel()
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)  # the text before the digits when exp < 0


def format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _jsonable(v):
    """A cell as a JSON value: a non-finite float becomes the text of its
    CSV cell ("inf", "-inf", "nan"), which RFC 8259 JSON can hold."""
    if isinstance(v, float):
        return v if math.isfinite(v) else format_cell(v)
    return v if v is None or isinstance(v, (int, str, bool)) else str(v)


def _values(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else column


def _csv_cells(column, lone: bool) -> list[bytes]:
    """A column's cells through :func:`format_cell`, quoted as ``csv.writer``
    does (CR too), which also quotes a ``lone`` field when it is empty."""
    cells = list(map(format_cell, _values(column)))
    if _NEEDS_QUOTES.search("".join(cells)):
        cells = ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]
    return [c.encode() or b'""' for c in cells] if lone else [c.encode() for c in cells]


def _digits17(bits, exp):
    """For positive doubles with IEEE bits ``bits`` and a guess ``exp`` of
    their decimal exponent: the integer part of x 10^(16 - exp), and whether
    rounding x 10^(16 - exp) half to even raises it.  With x = m 2^e, that is
    m 5^q shifted by e + q for q = 16 - exp <= 20; m 5^q < 2^100 is exact in
    two uint64 limbs built from 32-bit partial products."""
    m = (bits & _U(2**52 - 1)) | _U(2**52)
    p = _POW5[16 - exp]
    m_lo, m_hi, p_lo, p_hi = m & _U(2**32 - 1), m >> _U(32), p & _U(2**32 - 1), p >> _U(32)
    low = m_lo * p_lo
    mid = m_lo * p_hi + m_hi * p_lo  # < 2^54
    lo = low + (mid << _U(32))
    hi = m_hi * p_hi + (mid >> _U(32)) + (lo < low)
    # shift by e + q: right by r = -(e + q) < 64, as the result has at most 60
    # bits, or left by -r when r <= 0
    r = exp - (bits >> _U(52)).astype(np.intp) + (1075 - 16)
    right = np.maximum(r, 0).astype(_U)
    n = ((hi << (_U(63) - right) << _U(1)) | (lo >> right)) << np.maximum(-r, 0).astype(_U)
    twice_rest = (lo & ((_U(1) << right) - _U(1))) << _U(1)
    # above half, or exactly half (then twice_rest is even) with n odd
    return n, (twice_rest | (n & _U(1))) > (_U(1) << right)


def _fixed17(x):
    """``format(v, ".17g")`` for each value of the float64 array ``x``, all
    with ``1e-4 <= |v| < 1e17``, as an ``S23`` array: the 17 significant
    digits of |v|, rounded half to even as ``dtoa`` does, in fixed notation."""
    a = np.abs(x)
    bits = a.view(np.uint64)
    exp = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    n, up = _digits17(bits, exp)
    off = np.flatnonzero((n < _U(10**16)) | (n >= _U(10**17)))  # log10 rounded across a power of ten
    if off.size:
        exp[off] += np.where(n[off] >= _U(10**17), 1, -1)
        n[off], up[off] = _digits17(bits[off], exp[off])
    # rounding never carries n to 10^17: the largest double below each power
    # of ten from 1e-3 to 1e17 keeps 17 significant digits
    n += up
    # group the cells by exponent and sign, so that each group is laid out by slices
    key = 2 * (exp + 4) + np.signbit(x)
    order = np.argsort(key.astype(np.int8), kind="stable")  # a radix sort
    n = n[order]
    lead = n // _U(10**16)
    rest = n - lead * _U(10**16)  # the other 16 digits, split into four groups of four
    quads = np.empty((n.size, 4), dtype=np.uint64)
    quads[:, 0] = rest // _U(10**8)
    quads[:, 2] = rest - quads[:, 0] * _U(10**8)
    quads[:, 1::2] = quads[:, 0::2] - (quads[:, 0::2] // _U(10**4)) * _U(10**4)
    quads[:, 0::2] //= _U(10**4)
    digits = np.empty((n.size, 17), dtype=np.uint8)
    digits[:, 0] = lead + _U(ord("0"))
    digits[:, 1:] = _QUADS.take(quads.astype(np.intp)).view(np.uint8)
    text = np.zeros((n.size, 23), dtype=np.uint8)  # "-0.000" and 17 digits
    counts = np.bincount(key, minlength=42)
    ends = np.cumsum(counts)
    for k in np.flatnonzero(counts):
        rows = slice(ends[k] - counts[k], ends[k])
        e, sign = k // 2 - 4, k % 2
        cell = text[rows, sign:]
        if sign:
            text[rows, 0] = ord("-")
        if e < 0:
            cell[:, : 1 - e] = _LEAD[: 1 - e]
            cell[:, 1 - e : 18 - e] = digits[rows]
        else:  # a point even after the last digit, so that rstrip("0") keeps the integer
            cell[:, : e + 1] = digits[rows, : e + 1]
            cell[:, e + 1] = ord(".")
            cell[:, e + 2 : 18] = digits[rows, e + 1 :]
    cells = np.empty(n.size, dtype="S23")
    cells[order] = text.view("S23")[:, 0]
    return np.char.rstrip(np.char.rstrip(cells, b"0"), b".")


def _float_cells(column) -> list[bytes]:
    """``format(v, ".17g")`` for each value of a float array, as bytes: by
    :func:`_fixed17` for ``1e-4 <= |v| < 1e17`` and by ``%`` one cell at a
    time for the rest (zero, non-finite, tiny or huge values)."""
    with np.errstate(invalid="ignore"):  # a signalling float32 NaN is still NaN
        x = np.asarray(column, dtype=np.float64)  # widened exactly, as by float()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    cells = np.empty(x.size, dtype="S24")  # "-4.9406564584124654e-324"
    cells[fixed] = _fixed17(x[fixed])
    cells[~fixed] = [b"%.17g" % v for v in x[~fixed].tolist()]
    return cells.tolist()


def _csv_block(columns) -> bytes:
    """CSV rows of one block of at most :data:`_BLOCK` equal-length columns,
    formatted in one ``%`` by one row template: ``%d`` per int array and
    ``%s`` per other column, whose cells come from :func:`_float_cells` for
    a float array and from :func:`_csv_cells` otherwise.  Float and int text
    never needs quotes."""
    lone = len(columns) == 1
    kinds = [c.dtype.kind if isinstance(c, np.ndarray) else None for c in columns]
    fields = [b"%d" if k in ("i", "u") else b"%s" for k in kinds]
    values = [
        c.tolist() if k in ("i", "u") else _float_cells(c) if k == "f" else _csv_cells(c, lone)
        for c, k in zip(columns, kinds)
    ]
    rows = len(values[0]) if values else 1  # no columns: one empty header row
    return ((b",".join(fields) + b"\n") * rows) % tuple(itertools.chain.from_iterable(zip(*values)))


def _pieces(table, fmt: str):
    """The text of :func:`render` in pieces, CSV as the header and blocks of
    :data:`_BLOCK` rows; checks the column lengths before making any."""
    lengths = {name: len(column) for name, column in table.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")
    if fmt == "csv":
        starts = range(0, max(lengths.values(), default=0), _BLOCK)
        blocks = ([column[lo : lo + _BLOCK] for column in table.values()] for lo in starts)
        return map(_csv_block, itertools.chain([[[name] for name in table]], blocks))
    if fmt == "json":
        values = [[_jsonable(v) for v in _values(column)] for column in table.values()]
        payload = {"columns": list(table), "rows": [list(row) for row in zip(*values)]}
        return [(json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()]
    raise ValueError(f"unknown format {fmt!r}")


def render(table, fmt: str = "csv") -> str:
    """The table (column name -> column) as CSV or JSON text; raises
    ``ValueError`` on columns of unequal length."""
    return b"".join(_pieces(table, fmt)).decode()


def _write_atomic(path, pieces) -> None:
    """Write the byte strings ``pieces`` one by one into a new temp sibling
    of ``path``, made with the mode a plain ``open()`` gives a new file, and
    rename it into place; on failure no file is left."""
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"output directory {path.parent} does not exist")
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_table(path, table, fmt: str = "csv") -> None:
    """Write atomically: the pieces :func:`render` joins go one by one into a
    temp file in the target directory, which is then renamed into place."""
    _write_atomic(path, _pieces(table, fmt))
