"""CSV/JSON table output with atomic file writes.

A table is a mapping from column name to column; a column is a numpy
array or a list of str/int/float/None, and all columns have one length.
CSV is the primary format (header row, full double precision); JSON
mirrors the same table as ``{"columns": [...], "rows": [[...]]}``, with
non-finite floats as the strings of their CSV cells.  Files
are written to a temporary sibling and renamed into place so a failed run
never leaves a partial file behind.
"""

from __future__ import annotations

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


def _csv_cells(column) -> list[str]:
    """A column as CSV fields.  A float array is formatted in one pass (its
    digits never need quotes); other cells go through :func:`format_cell`
    and are quoted as ``csv.writer`` does, with CR quoted as well."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map("{:.17g}".format, column.tolist()))
    cells = list(map(format_cell, _values(column)))
    if _NEEDS_QUOTES.search("".join(cells)):
        cells = ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]
    return cells


def render(table, fmt: str = "csv") -> str:
    """The table (column name -> column) as CSV or JSON text; raises
    ``ValueError`` on columns of unequal length."""
    lengths = {name: len(column) for name, column in table.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")
    if fmt == "csv":
        starts = range(0, max(lengths.values(), default=0), _BLOCK)
        blocks = [[[name] for name in table]]  # the header row, then blocks of rows
        blocks += ([column[lo : lo + _BLOCK] for column in table.values()] for lo in starts)
        # formatted one block at a time, which bounds the cells held at once
        lines = (",".join(row) for block in blocks for row in zip(*map(_csv_cells, block)))
        if len(table) == 1:  # csv.writer quotes a lone empty field
            lines = (line or '""' for line in lines)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        values = [[_jsonable(v) for v in _values(column)] for column in table.values()]
        payload = {"columns": list(table), "rows": [list(row) for row in zip(*values)]}
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def write_table(path, table, fmt: str = "csv") -> None:
    """Write atomically: temp file in the target directory, then rename."""
    path = Path(path)
    text = render(table, fmt)
    directory = path.parent
    if not directory.is_dir():
        raise FileNotFoundError(f"output directory {directory} does not exist")
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
