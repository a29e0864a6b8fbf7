"""CSV/JSON table output with atomic file writes.

A table is a mapping from column name to column; a column is a numpy
array or a list of str/int/float/None, and all columns have one length.
CSV is the primary format (header row, full double precision); JSON
mirrors the same table as ``{"columns": [...], "rows": [[...]]}``, with
non-finite floats as the strings of their CSV cells.  Files
are written to a temporary sibling, CSV one block of rows at a time, and
renamed into place so a failed run never leaves a partial file behind.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["format_cell", "render", "write_table"]

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
_BLOCK = 4096  # CSV rows per formatting block
_FIELDS = {"f": "%.17g", "i": "%d", "u": "%d"}  # row-template field per array kind


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


def _csv_cells(column, lone: bool) -> list[str]:
    """A column's cells through :func:`format_cell`, quoted as ``csv.writer``
    does (CR too), which also quotes a ``lone`` field when it is empty."""
    cells = list(map(format_cell, _values(column)))
    if _NEEDS_QUOTES.search("".join(cells)):
        cells = ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]
    return [c or '""' for c in cells] if lone else cells


def _csv_block(columns) -> str:
    """CSV rows of one block of equal-length columns, formatted in one ``%``
    by one row template: ``%.17g`` per float array and ``%d`` per int array,
    whose text never needs quotes, and ``%s`` per other column."""
    fields = [_FIELDS.get(c.dtype.kind, "%s") if isinstance(c, np.ndarray) else "%s" for c in columns]
    lone = len(columns) == 1
    values = [_values(c) if f != "%s" else _csv_cells(c, lone) for f, c in zip(fields, columns)]
    rows = len(values[0]) if values else 1  # no columns: one empty header row
    return ((",".join(fields) + "\n") * rows) % tuple(itertools.chain.from_iterable(zip(*values)))


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
        return [json.dumps(payload, indent=2, allow_nan=False) + "\n"]
    raise ValueError(f"unknown format {fmt!r}")


def render(table, fmt: str = "csv") -> str:
    """The table (column name -> column) as CSV or JSON text; raises
    ``ValueError`` on columns of unequal length."""
    return "".join(_pieces(table, fmt))


def write_table(path, table, fmt: str = "csv") -> None:
    """Write atomically: the pieces :func:`render` joins go one by one into a
    temp file in the target directory, which is then renamed into place."""
    path = Path(path)
    pieces = _pieces(table, fmt)
    directory = path.parent
    if not directory.is_dir():
        raise FileNotFoundError(f"output directory {directory} does not exist")
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(pieces)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
