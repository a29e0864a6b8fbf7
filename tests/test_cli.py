import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from entdist import cli, codes
from entdist._output import format_cell
from entdist.cli import _write, main
from entdist.codes import load_code
from entdist.purify import PauliDistribution, run_rounds

GOLDEN_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "golden" / "repro_sha256.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_codes_list(capsys):
    code, out, _ = run_cli(capsys, "codes", "list")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["name", "n", "k", "d", "stabilizers"]
    assert ["913", "9", "1", "3", "8"] in rows
    assert ["933", "9", "3", "3", "6"] in rows


def test_codes_validate_all(capsys):
    code, out, _ = run_cli(capsys, "codes", "validate")
    assert code == 0
    _, rows = csv_rows(out)
    assert all(row[2] == "pass" for row in rows)


FIVE_QUBIT_FILE = """name=five
n=5
k=1
d={d}
H:
XZZXI
IXZZX
XIXZZ
ZXIXZ
X:
XXXXX
Z:
ZZZZZ
"""


def test_codes_validate_code_file(capsys, tmp_path):
    path = tmp_path / "five.txt"
    path.write_text(FIVE_QUBIT_FILE.format(d=3))
    code, out, _ = run_cli(capsys, "codes", "validate", str(path))
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[-1][:3] == ["five", "distance", "pass"]
    assert all(row[2] == "pass" for row in rows)
    # a wrong stored distance is a failed check (exit 1), named in its row
    path.write_text(FIVE_QUBIT_FILE.format(d=4))
    code, out, _ = run_cli(capsys, "codes", "validate", str(path))
    assert code == 1
    assert out.splitlines()[-1] == 'five,distance,fail,"computed d=3, stored d=4"'
    # a file without its name line is bad input (exit 2)
    path.write_text(FIVE_QUBIT_FILE.format(d=3).replace("name=five\n", ""))
    code, _, err = run_cli(capsys, "codes", "validate", str(path))
    assert code == 2 and "missing header lines: name" in err


def test_codes_validate_a_stabilizer_state_file(capsys, tmp_path):
    # k = 0 is a valid code: its distance is a check like any other
    path = tmp_path / "bell.txt"
    path.write_text("name=bell\nn=2\nk=0\nd=2\nH:\nXX\nZZ\n")
    code, out, _ = run_cli(capsys, "codes", "validate", str(path))
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[-1] == ["bell", "distance", "pass", ""]
    assert all(row[2] == "pass" for row in rows)


LEAF_COMMANDS = {
    ("codes", "list"): cli._cmd_codes_list,
    ("codes", "validate"): cli._cmd_codes_validate,
    ("map", "qec"): cli._cmd_map_qec,
    ("map", "chain"): cli._cmd_map_chain,
    ("efficiency",): cli._cmd_efficiency,
    ("purify",): cli._cmd_purify,
    ("hybrid",): cli._cmd_hybrid,
    ("converge",): cli._cmd_converge,
}


def command_parsers(parser, path=()):
    """Every parser of the command tree that has no subcommands, by path."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: parser}
    return {
        leaf: p
        for name, child in subs[0].choices.items()
        for leaf, p in command_parsers(child, path + (name,)).items()
    }


def format_option(parser):
    (fmt,) = [a for a in parser._actions if a.dest == "format"]
    return fmt.option_strings, fmt.choices, fmt.default


def test_every_leaf_command_takes_output_and_format():
    parsers = command_parsers(cli.build_parser())
    assert parsers.keys() == LEAF_COMMANDS.keys() | {("repro",)}
    for path, func in LEAF_COMMANDS.items():
        parser = parsers[path]
        (output,) = [a for a in parser._actions if a.dest == "output"]
        assert output.option_strings == ["--output", "-o"] and output.default is None
        assert format_option(parser) == (["--format"], ("csv", "json"), "csv")
        assert parser.get_default("func") is func
    # repro writes a directory of files, in the same formats
    repro = parsers[("repro",)]
    assert format_option(repro) == (["--format"], ("csv", "json"), "csv")
    assert repro.get_default("func") is cli._cmd_repro


def test_codes_validate_refuses_more_than_10_qubits(capsys, tmp_path):
    # a structurally valid 11-qubit repetition code: its distance cannot be
    # checked, so it is bad input (exit 2), refused before the 4^11 tables
    n = 11
    stabilizers = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
    path = tmp_path / "rep11.txt"
    path.write_text(
        f"name=rep11\nn={n}\nk=1\nd=1\nH:\n" + "\n".join(stabilizers)
        + "\nX:\n" + "X" * n + "\nZ:\nZ" + "I" * (n - 1) + "\n"
    )
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "codes", "validate", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "exhaustive decoding supports n <= 10 qubits, got n=11" in err
    assert peak < 4**n // 4  # a 4^11-entry uint8 table alone takes 4 MiB


C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def run_validate(tmp_path, locale_env, *extra):
    """``codes validate`` on a five-qubit code file named ``fivé``, in a
    subprocess under ``locale_env``."""
    path = tmp_path / "five.txt"
    path.write_bytes(FIVE_QUBIT_FILE.format(d=3).replace("name=five", "name=fivé").encode())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **locale_env, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "entdist.cli", "codes", "validate", str(path), *extra],
        env=env, capture_output=True, timeout=120,
    )


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # a code name outside ASCII, read and written under the C locale with
    # neither UTF-8 mode nor locale coercion: the same bytes as in UTF-8 mode
    written = []
    for locale_env in ({"PYTHONUTF8": "1"}, C_LOCALE):
        out = tmp_path / f"checks{len(written)}.csv"
        proc = run_validate(tmp_path, locale_env, "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert written[0].splitlines()[1] == "fivé,shape,pass,".encode()


def test_stdout_is_utf8_whatever_the_locale(tmp_path):
    # stdout and --output get the same bytes, under the C locale too
    out = tmp_path / "checks.csv"
    assert run_validate(tmp_path, C_LOCALE, "--output", str(out)).returncode == 0
    proc = run_validate(tmp_path, C_LOCALE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()
    assert proc.stdout.splitlines()[1] == "fivé,shape,pass,".encode()


def test_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures loads logging; only a blocked kernel call needs it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, entdist.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_map_qec_single_point(capsys):
    code, out, _ = run_cli(capsys, "map", "qec", "--code", "913", "--grid", "1:1:1")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["f_in", "f_out"]
    assert rows == [["1", "1"]]


def test_map_qec_counts(capsys):
    code, out, _ = run_cli(capsys, "map", "qec", "--code", "513", "--counts")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0] == ["0", "1"] and rows[1] == ["1", "15"]


def test_map_chain_with_skip(capsys):
    code, out, _ = run_cli(
        capsys, "map", "chain", "--repeaters", "3",
        "--rounds", "513,skip,skip", "--grid", "0.9:1:3",
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 3
    assert float(rows[-1][1]) == 1.0


def test_purify_reference_row(capsys):
    code, out, _ = run_cli(
        capsys, "purify", "--protocol", "dejmps", "--no-twirl",
        "--rounds", "2", "--grid", "0.5:0.7:3",
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header[:2] == ["f_in", "round"]
    row = next(r for r in rows if r[0].startswith("0.59") and r[1] == "2")
    assert abs(float(row[2]) - 0.688616) < 1e-4
    assert abs(float(row[7]) - 0.65661) < 1e-4


def test_purify_default_twirl_convention(capsys):
    # bbpssw twirls by default: X/Y/Z components equal after each round
    code, out, _ = run_cli(
        capsys, "purify", "--protocol", "bbpssw", "--rounds", "2", "--grid", "0.6:0.6:1"
    )
    assert code == 0
    _, rows = csv_rows(out)
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[4]), abs=1e-15)
        assert float(row[4]) == pytest.approx(float(row[5]), abs=1e-15)


def test_purify_explicit_distribution(capsys):
    code, out, _ = run_cli(
        capsys, "purify", "--protocol", "dejmps", "--rounds", "1",
        "--input-dist", "0.8,0.1,0.06,0.04",
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 1
    kept = 0.6436 + 0.0116 + 0.008 + 0.096
    assert abs(float(rows[0][2]) - 0.6436 / kept) < 1e-12


@pytest.mark.parametrize("protocol", ["bbpssw", "dejmps"])
@pytest.mark.parametrize("twirl", ["--twirl", "--no-twirl"])
def test_purify_sweep_matches_run_rounds(capsys, protocol, twirl):
    code, out, _ = run_cli(
        capsys, "purify", "--protocol", protocol, twirl, "--rounds", "6",
        "--grid", "0:1:41",
    )
    assert code == 0
    _, rows = csv_rows(out)
    expected = []
    for f in np.linspace(0.0, 1.0, 41).tolist():
        trace = run_rounds(protocol, 6, f_in=f, twirled=twirl == "--twirl")
        for n, rec in enumerate(trace.rounds, start=1):
            expected.append(
                [f, n, *rec.dist.as_tuple(), rec.p_discard, rec.p_total_discard, rec.rate]
            )
    assert rows == [[format_cell(v) for v in row] for row in expected]


def test_purify_allocation_peak(tmp_path):
    # one (7, N, rounds) float64 table, 2.8 MB at 10,000 points and 5
    # rounds, filled round by round and never copied
    out = str(tmp_path / "purify.csv")
    argv = ["purify", "--protocol", "dejmps", "--rounds", "5", "--output", out]
    assert main(argv + ["--grid", "0:1:10"]) == 0  # the parser and the writer warm
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


def test_stdout_allocation_peak(tmp_path):
    # 200,001 rows, 8.4 MB of CSV: stdout gets one 4,096-row block at a
    # time, as --output does, never the whole text
    argv = ["map", "chain", "--grid", "0:1:200001"]
    with open(tmp_path / "chain.csv", "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        assert main(argv[:-1] + ["0:1:10"]) == 0  # the parser, the pool and the writer warm
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 9e6


def test_purify_explicit_distribution_matches_run_rounds(capsys):
    dist = PauliDistribution(0.7, 0.05, 0.2, 0.05)
    code, out, _ = run_cli(
        capsys, "purify", "--protocol", "dejmps", "--rounds", "4",
        "--input-dist", ",".join(map(str, dist.as_tuple())),
    )
    assert code == 0
    _, rows = csv_rows(out)
    trace = run_rounds("dejmps", 4, dist=dist)
    assert rows == [
        [format_cell(v) for v in (0.7, n, *r.dist.as_tuple(), r.p_discard, r.p_total_discard, r.rate)]
        for n, r in enumerate(trace.rounds, start=1)
    ]


@pytest.fixture(scope="module")
def repro_run(tmp_path_factory):
    """One full ``repro`` into a relative ``--outdir``, under junk values of
    the environment variables that once set grid sizes and output paths and
    with ``os.umask`` refused, as no file write may read it by setting it:
    (exit code, stderr, the directory written)."""
    cwd = tmp_path_factory.mktemp("repro")
    err = io.StringIO()

    def refuse(mask):
        raise AssertionError("os.umask called")

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setenv("ENTDIST_GRID_POINTS", "x")
        mp.setenv("ENTDIST_OUTDIR", "junk")
        mp.setattr(os, "umask", refuse)
        mp.chdir(cwd)
        code = main(["repro", "--outdir", "out"])
    return code, err.getvalue(), cwd / "out"


def test_repro_matches_golden_digests(repro_run):
    code, _, outdir = repro_run
    assert code == 0
    digests = json.loads(GOLDEN_DIGESTS.read_text())
    drifted = [
        name for name, digest in digests.items()
        if hashlib.sha256((outdir / name).read_bytes()).hexdigest() != digest
    ]
    assert drifted == []


def test_repro_tables_have_the_manifest_mode(repro_run):
    # the manifest shares the tables' writer: both get the mode of a plain open
    _, _, outdir = repro_run
    modes = {p.name: p.stat().st_mode for p in outdir.iterdir()}
    probe = outdir / "probe"
    try:
        with open(probe, "wb"):
            pass
        assert len(modes) == 31
        assert set(modes.values()) == {probe.stat().st_mode}
    finally:
        probe.unlink(missing_ok=True)


def test_repro_failing_manifest_rename_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    replace = os.replace

    def refuse_manifest(src, dst):
        if Path(dst).name == "manifest.json":
            raise OSError("manifest rename refused")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_manifest)
    code, _, err = run_cli(capsys, "repro", "--outdir", str(tmp_path))
    assert code == 2 and "manifest rename refused" in err
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 30 and "manifest.json" not in names
    assert not [name for name in names if name.endswith(".tmp")]


def test_efficiency_switchpoints(capsys):
    code, out, _ = run_cli(capsys, "efficiency", "--repeaters", "1")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    header, rows = csv_rows(blocks[1])
    assert header[0] == "n_repeaters"
    values = [float(v) for v in rows[0][1:]]
    for got, expected in zip(values, (0.9343, 0.9356, 0.9655)):
        assert abs(got - expected) < 3e-3


def test_efficiency_envelope_columns(capsys):
    code, out, _ = run_cli(capsys, "efficiency", "--repeaters", "1", "--grid", "0.9:0.99:10")
    assert code == 0
    header, rows = csv_rows(out.split("\n\n")[0])
    assert header == ["f_in", "E_P1", "E_P2", "E_P3", "E_P4", "E_envelope", "active_plan"]
    assert rows[0][-1] == "P1" and rows[-1][-1] == "P4"


@pytest.mark.parametrize(
    "grid, message",
    [("0:1:100", "fidelity must lie in (0, 1]"), ("0.5:1:100", "at or below the hashing threshold")],
    ids=["F = 0", "below threshold"],
)
def test_efficiency_refuses_a_grid_outside_the_yield_domain(capsys, grid, message):
    code, out, err = run_cli(capsys, "efficiency", "--grid", grid)
    assert code == 2 and out == "" and message in err


def test_converge_trace(capsys):
    code, out, err = run_cli(
        capsys, "converge", "--protocol", "bbpssw",
        "--start", "0.6,0.1333,0.1333,0.1334", "--n", "50",
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "a", "b", "c", "d", "u", "r", "q"]
    assert len(rows) == 51
    assert abs(float(rows[-1][1]) - 0.5) < 1e-6
    header, checks = csv_rows(err)
    assert header == ["check", "result", "detail"]
    assert [row[:2] for row in checks] == [["u_doubling", "pass"], ["q_squaring", "pass"]]


def strict_json(text):
    """Parse as RFC 8259 JSON: the bare tokens NaN and Infinity are refused."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_converge_names_the_failed_check(capsys, fmt):
    code, _, err = run_cli(
        capsys, "converge", "--protocol", "dejmps",
        "--start", "0.6,0.1333,0.1333,0.1334", "--n", "3", "--format", fmt,
    )
    assert code == 1
    if fmt == "json":
        payload = strict_json(err)
        assert payload["columns"] == ["check", "result", "detail"]
        rows = payload["rows"]
    else:
        rows = csv_rows(err)[1]
    assert rows == [
        ["eventual_increase", "pass", "smallest lag m = 2 with u_(n+m) > u_n throughout"],
        ["u_diverges", "fail", "u_final = 4.72555 is not above 1e6"],
    ]
    assert "Report(" not in err and "np." not in err


def test_converge_u0_overflow_writes_checks_and_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "converge", "--protocol", "bbpssw",
        "--start", "0.9999999,5e-324,5e-324,0.0000001", "--n", "5",
    )
    assert code == 1
    assert len(csv_rows(out)[1]) == 6
    assert csv_rows(err)[1][0] == ["u_doubling", "fail", "u_0 is not finite: 0 steps checked"]


def test_converge_json_is_strict_json(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--protocol", "dejmps",
        "--start", "0.6,0.1333,0.1333,0.1334", "--n", "50", "--format", "json",
    )
    assert code == 0
    payload = strict_json(out)
    u = [row[payload["columns"].index("u")] for row in payload["rows"]]
    assert "inf" in u  # u overflows; the cell holds the CSV text
    assert all(v == "inf" or isinstance(v, float) for v in u)


def test_converge_past_1023_steps(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--protocol", "dejmps",
        "--start", "0.6,0.1333,0.1333,0.1334", "--n", "2000",
    )
    assert code == 0
    assert len(csv_rows(out)[1]) == 2001


def test_deterministic_output(capsys):
    argv = ["map", "chain", "--repeaters", "1", "--rounds", "913,923,933", "--grid", "0.9:1:50"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_output_files_and_json(tmp_path, capsys):
    out_csv = tmp_path / "maps.csv"
    code, _, _ = run_cli(
        capsys, "map", "qec", "--code", "933", "--grid", "0.9:1:5",
        "--output", str(out_csv),
    )
    assert code == 0 and out_csv.exists()
    out_json = tmp_path / "maps.json"
    code, _, _ = run_cli(
        capsys, "map", "qec", "--code", "933", "--grid", "0.9:1:5",
        "--output", str(out_json), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["columns"] == ["f_in", "f_out"]
    assert len(payload["rows"]) == 5


def test_switchpoint_sibling_file(tmp_path, capsys):
    out = tmp_path / "eff.csv"
    code, _, _ = run_cli(
        capsys, "efficiency", "--repeaters", "1",
        "--grid", "0.9:0.99:200", "--output", str(out),
    )
    assert code == 0
    assert out.exists()
    assert (tmp_path / "eff_switchpoints.csv").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_is_the_output_files_one_blank_line_apart(fmt, tmp_path, capsysbinary):
    argv = ["efficiency", "--repeaters", "1", "--format", fmt]
    assert main(argv + ["--output", str(tmp_path / f"eff.{fmt}")]) == 0
    assert main(argv) == 0
    files = [(tmp_path / f"eff{key}.{fmt}").read_bytes() for key in ("", "_switchpoints")]
    assert capsysbinary.readouterr().out == files[0] + b"\n" + files[1]


def test_stdout_is_the_output_file_across_blocks(tmp_path, capsysbinary):
    # 5,000 rows: a full 4,096-row block and a tail
    argv = ["map", "chain", "--grid", "0:1:5000"]
    assert main(argv + ["--output", str(tmp_path / "chain.csv")]) == 0
    assert main(argv) == 0
    out = capsysbinary.readouterr().out
    assert out.count(b"\n") == 5001
    assert out == (tmp_path / "chain.csv").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_gets_nothing_when_a_later_table_is_ragged(fmt, capsysbinary):
    tables = {"": {"x": [1.0, 2.0]}, "_bad": {"x": [1.0, 2.0], "y": [3.0]}}
    with pytest.raises(ValueError, match="unequal length"):
        _write(argparse.Namespace(output=None, format=fmt), tables)
    assert capsysbinary.readouterr().out == b""


def test_missing_output_directory_fails_cleanly(tmp_path, capsys):
    target = tmp_path / "nope" / "x.csv"
    code, _, err = run_cli(
        capsys, "map", "qec", "--code", "913", "--grid", "0.9:1:3",
        "--output", str(target),
    )
    assert code == 2
    assert "error:" in err
    assert not target.exists()


def test_bad_inputs_exit_nonzero(capsys, tmp_path):
    assert run_cli(capsys, "map", "chain", "--repeaters", "2", "--rounds", "913,923,933")[0] == 2
    assert run_cli(capsys, "map", "chain", "--rounds", "913,923")[0] == 2
    assert run_cli(capsys, "map", "qec", "--code", "999")[0] == 2
    with pytest.raises(SystemExit):
        main(["map", "qec", "--grid", "nonsense"])
    with pytest.raises(SystemExit):
        main(["purify", "--protocol", "unknown"])
    assert run_cli(capsys, "purify", "--protocol", "dejmps", "--rounds", "0")[0] == 2
    assert run_cli(capsys, "purify", "--protocol", "dejmps", "--grid", "0.5:1.5:3")[0] == 2
    with pytest.raises(SystemExit) as exc:  # one start: a grid or a distribution
        main(["purify", "--protocol", "dejmps", "--grid", "0.6:0.9:3", "--input-dist", "1,0,0,0"])
    assert exc.value.code == 2
    # fixed constants of the hybrid strategy, flags of the other map target,
    # a grid for the weight counts, and names or a flag for the code list,
    # none of which take them
    for argv in (
        ["hybrid", "--max-rounds", "3"], ["hybrid", "--baseline-d", "0.2"],
        ["map", "chain", "--counts"], ["map", "qec", "--repeaters", "3", "--rounds", "913,skip,skip"],
        ["map", "qec", "--counts", "--grid", "0:1:5"],
        ["codes", "list", "913"], ["codes", "list", "--distance"], ["codes", "list", "913", "--distance"],
        ["efficiency", "--envelope"], ["efficiency", "--switchpoints"], ["codes", "validate", "--distance"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # a start of 3 numbers is refused by the parser, which names the flag
    for argv in (
        ["converge", "--protocol", "dejmps", "--start", "0.6,0.2,0.1", "--n", "3"],
        ["purify", "--protocol", "dejmps", "--input-dist", "0.6,0.2,0.2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[3]}: expected 4 comma-separated numbers" in capsys.readouterr().err
    # OS errors are bad input too, not a failed check (exit 1) or a traceback
    code, _, err = run_cli(capsys, "codes", "validate", str(tmp_path))
    assert code == 2 and err.startswith("error: ")
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    code, _, err = run_cli(capsys, "repro", "--outdir", str(occupied))
    assert code == 2 and err.startswith("error: ")
    # one column per protocol: a repeated label, in any case, is refused
    for protocols in ("P1,P1", "P1,p1"):
        code, _, err = run_cli(capsys, "efficiency", "--protocols", protocols)
        assert code == 2 and "repeated protocol label P1" in err


@pytest.mark.parametrize("spec", ["nan:1:3", "0:nan:3", "-inf:1:3", "0:inf:3"])
def test_non_finite_grid_exits_2(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["map", "qec", f"--grid={spec}"])
    assert exc.value.code == 2
    assert "bad grid range" in capsys.readouterr().err


@pytest.mark.parametrize("dist", ["nan,0,0,1", "1,nan,0,0", "inf,0,0,-inf"])
def test_non_finite_input_dist_exits_2(capsys, dist):
    code, out, err = run_cli(capsys, "purify", "--protocol", "dejmps", "--input-dist", dist)
    assert code == 2
    assert out == "" and "error:" in err


def test_repro_writes_manifest(repro_run):
    code, err, outdir = repro_run
    assert code == 0
    assert f"wrote 30 tables to {outdir.resolve()}" in err
    manifest = json.loads((outdir / "manifest.json").read_text())
    written = {p.name for p in outdir.iterdir()} - {"manifest.json"}
    assert {entry["file"] for entry in manifest} == written
    assert len(manifest) == len(written) == 30
    assert all(entry["argv"] for entry in manifest)


def test_code_file_with_a_byte_order_mark_validates(capsys, tmp_path):
    # editors on Windows start UTF-8 files with U+FEFF
    plain, bom = tmp_path / "five.txt", tmp_path / "bom.txt"
    plain.write_text(FIVE_QUBIT_FILE.format(d=3), encoding="utf-8")
    bom.write_text(FIVE_QUBIT_FILE.format(d=3), encoding="utf-8-sig")
    assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load_code(bom) == load_code(plain)
    expected = run_cli(capsys, "codes", "validate", str(plain))
    assert expected[0] == 0
    assert run_cli(capsys, "codes", "validate", str(bom)) == expected


def test_malformed_grid_points_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["map", "qec", "--grid", "0:1:x"])
    assert exc.value.code == 2
    assert "malformed grid '0:1:x'" in capsys.readouterr().err


def test_repro_names_the_failing_step(tmp_path, monkeypatch, capsys):
    def refuse(code, check_distance=False):
        raise ValueError("validation refused")

    monkeypatch.setattr(codes, "validate_code", refuse)
    with pytest.raises(SystemExit, match="repro step codes_validation failed with exit code 2"):
        main(["repro", "--outdir", str(tmp_path)])
    assert "error: validation refused" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
