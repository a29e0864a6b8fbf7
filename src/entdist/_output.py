"""CSV/JSON table output with atomic file writes.

CSV is the primary format (header row, full double precision); JSON
mirrors the same table as ``{"columns": [...], "rows": [[...]]}``.  Files
are written to a temporary sibling and renamed into place so a failed run
never leaves a partial file behind.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

__all__ = ["format_cell", "render", "write_table", "emit"]


def format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _jsonable(v):
    return v if v is None or isinstance(v, (int, float, str, bool)) else str(v)


def render(columns, rows, fmt: str = "csv") -> str:
    """The table as CSV or JSON text."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
        return buffer.getvalue()
    if fmt == "json":
        payload = {
            "columns": list(columns),
            "rows": [[_jsonable(v) for v in row] for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def write_table(path, columns, rows, fmt: str = "csv") -> None:
    """Write atomically: temp file in the target directory, then rename."""
    path = Path(path)
    text = render(columns, rows, fmt)
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


def emit(columns, rows, path=None, fmt: str = "csv") -> None:
    """Write a table to a file when a path is given, else to stdout."""
    if path is not None:
        write_table(path, columns, rows, fmt)
    else:
        sys.stdout.write(render(columns, rows, fmt))
