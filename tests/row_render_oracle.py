"""Row-wise table renderer for the columnar one in ``entdist._output``.

It takes the column names and a list of rows, formats every cell on its
own and writes CSV through ``csv.writer``, as the package did before its
renderer took columns.  It shares no code with the package, so the output
tests use it as an independent second path.
"""

import csv
import io
import json


def format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _jsonable(v):
    # a non-finite float is written as the text of its CSV cell
    if isinstance(v, float) and (v != v or abs(v) == float("inf")):
        return format_cell(v)
    return v if v is None or isinstance(v, (int, float, str, bool)) else str(v)


def render(columns, rows, fmt="csv"):
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
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
