import csv
import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, strategies as st

import row_render_oracle as oracle
from entdist import _output, hybrid
from entdist._output import format_cell, render, write_table
from entdist.cli import main

# a code file whose name and failed-check detail both need CSV quoting
ODD_CODE = 'name=a,"b\nn=2\nk=0\nd=1\nH:\nXI\nZI\n'
# run with hybrid.MAX_ROUNDS = 3, so that some i_match cells are empty
SHORT_TRACE = ["hybrid", "--grid", "0.75:0.999:100"]

SUBCOMMANDS = [
    ["codes", "list"],
    ["codes", "validate", "513"],
    ["codes", "validate", "{odd}", "913"],
    ["map", "qec", "--code", "913", "--grid", "0:1:33"],
    ["map", "qec", "--code", "513", "--counts"],
    ["map", "chain", "--repeaters", "3", "--rounds", "513,skip,713", "--grid", "0:1:17"],
    ["efficiency", "--repeaters", "3", "--grid", "0.86:0.999:300"],
    ["efficiency", "--protocols", "P1", "--grid", "0.9:0.99:5"],
    ["purify", "--protocol", "dejmps", "--rounds", "3", "--grid", "0:1:11"],
    ["purify", "--protocol", "bbpssw", "--rounds", "2", "--input-dist", "0.7,0.1,0.1,0.1"],
    SHORT_TRACE,
    ["hybrid", "--code", "913", "--grid", "0.9:0.99:20"],
    ["converge", "--protocol", "dejmps", "--start", "0.6,0.1333,0.1333,0.1334", "--n", "20"],
]


def oracle_rows(table):
    """The table's rows, as the subcommands built them for the row renderer."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in table.values()]
    return [list(row) for row in zip(*columns)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_subcommand_tables_match_row_renderer(argv, fmt, tmp_path, capsys, monkeypatch):
    odd = tmp_path / 'a,"b'
    odd.write_text(ODD_CODE)
    rendered = []

    def spy(table, fmt):
        rendered.append((table, fmt, b"".join(real(table, fmt)).decode()))
        return real(table, fmt)

    real = _output._pieces
    monkeypatch.setattr(_output, "_pieces", spy)
    if argv is SHORT_TRACE:
        monkeypatch.setattr(hybrid, "MAX_ROUNDS", 3)
    code = main([a.format(odd=odd) for a in argv] + ["--format", fmt])
    assert code == (1 if "{odd}" in argv else 0)
    out, err = capsys.readouterr()
    texts = [text for _, _, text in rendered]
    if argv[0] == "converge":  # its check table goes to stderr, after the trace
        assert texts.pop() == err
    assert texts and "\n".join(texts) == out
    for table, used, text in rendered:
        assert used == fmt
        assert text == oracle.render(list(table), oracle_rows(table), fmt)
    if argv is SHORT_TRACE:
        assert None in rendered[0][0]["i_match"]


def test_hybrid_json_integers_stay_integers(capsys, monkeypatch):
    # the row renderer sees the same table as render, so an i_match cell
    # turned np.int64 (written as the string "3") shows only in the JSON
    monkeypatch.setattr(hybrid, "MAX_ROUNDS", 3)
    assert main(SHORT_TRACE + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = [dict(zip(payload["columns"], row)) for row in payload["rows"]]
    assert len(rows) == 100
    assert all(type(row["i_pre"]) is int for row in rows)
    assert all(row["i_match"] is None or type(row["i_match"]) is int for row in rows)
    assert sum(row["i_match"] is None for row in rows) == 28


# CR is left out here: csv.writer (Python 3.11) leaves it unquoted when the
# line terminator is "\n", so a reader splits the record there; render quotes it
TEXT = st.text(st.sampled_from('ab ,"\n\té'), max_size=4)
CELLS = st.one_of(
    st.none(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    TEXT,
)


def column_kinds(text=TEXT):
    """(cell strategy, array dtype or None for a list) for every kind of
    column a table may hold: the float and int arrays take the row
    template's %.17g and %d, the others format_cell."""
    return [
        (st.floats(), float),
        (st.integers(-(2**63), 2**63 - 1), np.int64),
        (st.integers(0, 255), np.uint8),
        (st.booleans(), bool),
        (text, str),
        (st.one_of(st.none(), st.integers(-(10**20), 10**20)), object),
        (CELLS, None),
    ]


@st.composite
def tables(draw, text=TEXT):
    # zero to four columns of zero to five rows
    names = draw(st.lists(text, min_size=0, max_size=4, unique=True))
    length = draw(st.integers(0, 5))
    table = {}
    for name in names:
        cells, dtype = draw(st.sampled_from(column_kinds(text)))
        values = draw(st.lists(cells, min_size=length, max_size=length))
        table[name] = values if dtype is None else np.array(values, dtype=dtype)
    return table


@given(tables())
def test_render_matches_row_renderer(table):
    for fmt in ("csv", "json"):
        assert render(table, fmt) == oracle.render(list(table), oracle_rows(table), fmt)


@given(tables(text=st.text(st.sampled_from('a,"\r\n'), max_size=4)))
def test_csv_round_trips_through_csv_reader(table):
    rows = list(csv.reader(io.StringIO(render(table, "csv"), newline="")))
    assert rows == [list(table)] + [[format_cell(v) for v in row] for row in oracle_rows(table)]


@pytest.mark.parametrize("names", [["x", "i", "n", "s"], ["s"], ["n"]])
def test_render_spans_row_blocks(names):
    rows = 2 * _output._BLOCK + 3
    columns = {
        "x": np.linspace(0.0, 1.0, rows),
        "i": range(rows),
        "n": np.arange(rows),
        "s": [None if i % 7 == 0 else f"r{i}," for i in range(rows)],
    }
    table = {name: columns[name] for name in names}
    for fmt in ("csv", "json"):
        assert render(table, fmt) == oracle.render(names, oracle_rows(table), fmt)


@pytest.mark.parametrize("rows", [0, 2])
@pytest.mark.parametrize(
    "column",
    [
        np.array([0.5, -1.0]),
        np.array([-(2**63), 2**63 - 1]),
        np.array([0, 255], dtype=np.uint8),
        np.array([True, False]),
        np.array(["", 'a,"b']),
        np.array([None, 7], dtype=object),
        [None, ""],
    ],
    ids=["float", "int64", "uint8", "bool", "str", "object", "list"],
)
def test_one_column_tables_match_row_renderer(column, rows):
    # a lone empty cell (and a lone empty name) is written '""'
    for name in ("", "c"):
        table = {name: column[:rows]}
        for fmt in ("csv", "json"):
            assert render(table, fmt) == oracle.render([name], oracle_rows(table), fmt)


def test_write_table_failing_after_first_block_leaves_no_file(tmp_path):
    seen = []

    class Unprintable:
        def __str__(self):
            seen.extend(p.name for p in tmp_path.iterdir())
            raise RuntimeError("unprintable cell")

    cells = np.array([0] * _output._BLOCK + [Unprintable()], dtype=object)
    with pytest.raises(RuntimeError, match="unprintable"):
        write_table(tmp_path / "t.csv", {"x": np.zeros(cells.size), "bad": cells})
    # the cell fails while the temp file exists: blocks are streamed into it
    assert len(seen) == 1 and seen[0].startswith(".t.csv.") and seen[0].endswith(".tmp")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)], ids=["022", "002", "077"]
)
def test_written_table_gets_the_mode_of_a_plain_open(tmp_path, umask, mode):
    # the rename keeps the temp file's mode, so it is created as open() creates a file
    old = os.umask(umask)
    try:
        write_table(tmp_path / "t.csv", {"x": [1]})
        (tmp_path / "probe").write_bytes(b"")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "t.csv").stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "probe").stat().st_mode) == mode


def test_write_table_never_reads_the_umask(tmp_path, monkeypatch):
    # reading it means setting it: a window in which every thread's files
    # get a umask of 0
    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    write_table(tmp_path / "t.csv", {"x": [1]})
    assert (tmp_path / "t.csv").read_bytes() == b"x\n1\n"


def test_float_columns_keep_17_digits():
    values = [0.1, 1 / 3, -0.0, 5e-324, math.inf, -math.inf, math.nan]
    text = render({"x": np.array(values), "y": values})
    rows = text.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [
        "0.10000000000000001", "0.33333333333333331", "-0", "4.9406564584124654e-324",
        "inf", "-inf", "nan",
    ]
    assert all(r.split(",")[0] == r.split(",")[1] for r in rows)
    assert [float(r.split(",")[0]) for r in rows[:-1]] == values[:-1]


def doubles(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def float_cases():
    """(name, float array) pairs whose CSV cells must be format(v, ".17g")."""
    rng = np.random.default_rng(17)
    # any 64 bits: subnormals, NaN payloads and the specials among them
    specials = [0, 2**63, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF8 << 48 | 1, 0x7FF0 << 48 | 5, 1, 2**52 - 1]
    bit_patterns = doubles(np.concatenate([rng.integers(0, 2**64, 10**5, dtype=np.uint64), specials]))
    # sign, exponent from 2^-17 to 2^60 and any mantissa: mostly inside [1e-4, 1e17)
    exponents = rng.integers(1023 - 17, 1023 + 61, 10**5).astype(np.uint64)
    window = doubles(
        rng.integers(0, 2, 10**5, dtype=np.uint64) << np.uint64(63)
        | exponents << np.uint64(52)
        | rng.integers(0, 2**52, 10**5, dtype=np.uint64)
    )
    # exact halves at the 17th digit: round half to even
    k = np.arange(4096)
    ties = np.concatenate([(2.0**52 + k) / 4, -(2.0**50 + k) / 8])
    powers = np.array([float(f"1e{p}") for p in range(-12, 18)] + [1e-4, 1e17])
    powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers])
    float32 = rng.integers(0, 2**32, 20000, dtype=np.uint32).view(np.float32)
    # a column of more than one block, in and out of the window
    mixed = np.concatenate([window[: 2 * _output._BLOCK], bit_patterns[:2000], [0.0, -0.0, math.inf, math.nan]])
    return [
        ("bit_patterns", bit_patterns),
        ("window", window),
        ("ties", ties),
        ("powers_of_ten", powers),
        ("float32", np.concatenate([float32, window[:20000].astype(np.float32)])),
        ("float16", np.arange(2**16, dtype=np.uint16).view(np.float16)),  # every float16
        ("mixed_blocks", rng.permutation(mixed)),
    ]


@pytest.mark.parametrize("values", [pytest.param(values, id=name) for name, values in float_cases()])
def test_float_cells_are_format_17g(values):
    # the array's own precision widened exactly to a double, as % does
    text = render({"x": values, "y": values[::-1]})
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [r[0] for r in rows] == [format(v, ".17g") for v in values.tolist()]
    assert [r[1] for r in rows] == [format(v, ".17g") for v in values[::-1].tolist()]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unequal_columns_raise(fmt, tmp_path):
    table = {"a": [1, 2], "b": np.zeros(3)}
    with pytest.raises(ValueError, match="unequal length"):
        render(table, fmt)
    with pytest.raises(ValueError, match="unequal length"):
        write_table(tmp_path / "t.csv", table, fmt)
    assert list(tmp_path.iterdir()) == []


def test_unknown_format_raises():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        render({"a": [1]}, "xml")
