"""Command-line front end emitting plot-ready CSV/JSON.

Every subcommand is deterministic: identical invocations produce
byte-identical output, whatever the environment.  Grids are given as
``min:max:points``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import _output, chain, codes, convergence, decoder, efficiency, hybrid, purify
from .werner import _check_count, _in_range

__all__ = ["main", "build_parser"]


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be 'min:max:points', got {spec!r}"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed grid {spec!r}") from None
    if points < 1 or not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise argparse.ArgumentTypeError(f"bad grid range {spec!r}")
    return np.linspace(lo, hi, points)


def _table_path(output, key: str) -> Path:
    """Where the table under ``key`` goes: ``""`` at ``output`` itself, any
    other key at the sibling whose stem gains the key."""
    path = Path(output)
    return path.with_name(path.stem + key + path.suffix) if key else path


def _write(args, tables: dict) -> None:
    """Write a subcommand's tables (file-name key -> table) to the paths
    :func:`_table_path` gives for ``--output``; without ``--output``, to
    stdout one blank line apart, block by block once every table's columns
    check out, as UTF-8 bytes whatever the locale."""
    if args.output is None:
        blocks = [_output._pieces(t, args.format) for t in tables.values()]
        sys.stdout.flush()  # what the text layer holds goes first
        for i, pieces in enumerate(blocks):
            if i:
                sys.stdout.buffer.write(b"\n")
            sys.stdout.buffer.writelines(pieces)
        sys.stdout.buffer.flush()  # a closed stdout raises here, not at exit
        return
    for key, table in tables.items():
        _output.write_table(_table_path(args.output, key), table, args.format)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _check_columns(checks) -> dict:
    """Named checks (:class:`codes.CheckResult`) as check/result/detail columns."""
    return {
        "check": [c.name for c in checks],
        "result": ["pass" if c.passed else "fail" for c in checks],
        "detail": [c.detail for c in checks],
    }


def _cmd_codes_list(args) -> int:
    found = [codes.builtin_code(name) for name in codes.builtin_names()]
    table = {field: [getattr(c, field) for c in found] for field in ("name", "n", "k", "d")}
    table["stabilizers"] = [len(c.stabilizers) for c in found]
    _write(args, {"": table})
    return 0


def _cmd_codes_validate(args) -> int:
    names = args.names or list(codes.builtin_names())
    checked = []  # (code name, check result)
    for name in names:
        code = codes.load_code(name) if os.path.exists(name) else codes.builtin_code(name)
        checked += [(code.name, c) for c in codes.validate_code(code, check_distance=True)]
    table = {"code": [name for name, _ in checked], **_check_columns([c for _, c in checked])}
    _write(args, {"": table})
    return 0 if all(check.passed for _, check in checked) else 1


def _cmd_map_qec(args) -> int:
    poly = decoder.builtin_polynomial(args.code)
    if args.counts:
        table = {"weight": range(len(poly.counts)), "count": list(poly.counts)}
    else:
        table = {"f_in": args.grid, "f_out": decoder.eval_qec_map(poly, args.grid)}
    _write(args, {"": table})
    return 0


def _cmd_map_chain(args) -> int:
    plan = chain.ChainPlan(args.repeaters, chain.parse_rounds(args.rounds))
    _write(args, {"": {"f_in": args.grid, "f_out": chain.run_chain(plan, args.grid)}})
    return 0


def _cmd_efficiency(args) -> int:
    labels = [lab.strip() for lab in args.protocols.split(",")]
    curves = efficiency.protocol_curves(args.repeaters, args.grid, labels)
    table = {"f_in": curves[0].grid, **{f"E_{c.label}": c.values for c in curves}}
    table["E_envelope"], table["active_plan"] = efficiency.optimal_envelope(curves)
    by_pair = {(p.from_plan, p.to_plan): p.fidelity for p in efficiency.switching_points(curves)}
    sp_table = {"n_repeaters": [args.repeaters]}
    for cur, nxt in zip(curves, curves[1:]):
        sp_table[f"f_sw_{cur.label}_to_{nxt.label}"] = [by_pair.get((cur.label, nxt.label))]
    _write(args, {"": table, "_switchpoints": sp_table})
    return 0


def _cmd_purify(args) -> int:
    twirled = args.twirl
    if twirled is None:
        # protocol convention: BBPSSW twirls between rounds, DEJMPS does not
        twirled = args.protocol == "bbpssw"
    if args.input_dist is not None:
        dist = purify.PauliDistribution(*args.input_dist).validate()
        start = tuple(np.array([v]) for v in dist)
    else:
        start = purify._depolarized(_in_range(args.grid))
    _check_count(args.rounds, "rounds", least=1)
    # one array recurrence over every start column; rows run round-minor
    recurrence = purify._recurrence(args.protocol, start, args.rounds, twirled)
    values = np.empty((7, start[0].size, args.rounds))  # (value, column, round)
    for r, (d, comps, total, rate) in enumerate(recurrence):
        values[..., r] = (*comps, d, total, rate)
    values = values.reshape(7, -1)  # a view: (value, column * round)
    table = {
        "f_in": np.repeat(start[0], args.rounds),
        "round": np.tile(np.arange(1, args.rounds + 1), start[0].size),
    }
    table.update(zip(["p_i", "p_x", "p_y", "p_z", "p_discard", "p_total_discard", "rate"], values))
    _write(args, {"": table})
    return 0


def _cmd_hybrid(args) -> int:
    scan = hybrid.checkpoint_scan(args.code, args.grid)
    table = {name.replace("eff_", "E_"): scan[name] for name in scan.dtype.names}
    _write(args, {"": table})
    return 0


def _cmd_converge(args) -> int:
    trace = convergence.iterate(args.protocol, args.start, args.n)
    table = {"n": range(len(trace)), **{name: getattr(trace, name) for name in "abcdurq"}}
    _write(args, {"": table})
    checks = convergence.check_identities(trace)
    sys.stderr.write(_output.render(_check_columns(checks), args.format))
    return 0 if all(c.passed for c in checks) else 1


def _cmd_repro(args) -> int:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    outdir = Path(args.outdir or f"entdist_repro_{stamp}")
    outdir.mkdir(parents=True, exist_ok=True)
    fmt = args.format  # the file extension too
    manifest = []

    def run(name, argv):
        path = outdir / f"{name}.{fmt}"
        code = main(argv + ["--output", str(path), "--format", fmt])
        if code != 0:
            raise SystemExit(f"repro step {name} failed with exit code {code}")
        keys = ["", "_switchpoints"] if argv[0] == "efficiency" else [""]
        manifest.extend({"file": _table_path(path, key).name, "argv": argv} for key in keys)

    run("codes_validation", ["codes", "validate"])
    for code_name in codes.builtin_names():
        run(f"qec_map_{code_name}", ["map", "qec", "--code", code_name])
        run(f"qec_counts_{code_name}", ["map", "qec", "--code", code_name, "--counts"])
    for cfg, rounds in [
        ("CXX", "513,skip,skip"), ("CCX", "513,713,skip"),
        ("CXC", "513,skip,713"), ("CCC", "513,713,713"),
    ]:
        run(f"rounds_study_{cfg}", ["map", "chain", "--repeaters", "3", "--rounds", rounds])
    for lab, rounds in efficiency.PROTOCOL_SEQUENCES.items():
        run(f"chain_1R_{lab}", ["map", "chain", "--repeaters", "1", "--rounds", ",".join(rounds)])
    for reps in ("1", "3", "5"):
        run(f"efficiency_{reps}R", ["efficiency", "--repeaters", reps])
    run("purify_dejmps", ["purify", "--protocol", "dejmps", "--rounds", "5"])
    run("purify_bbpssw", ["purify", "--protocol", "bbpssw", "--rounds", "5"])
    run("hybrid_933", ["hybrid", "--code", "933"])
    run("converge_bbpssw", ["converge", "--protocol", "bbpssw", "--start", "0.6,0.1333,0.1333,0.1334", "--n", "50"])
    run("converge_dejmps", ["converge", "--protocol", "dejmps", "--start", "0.6,0.1333,0.1333,0.1334", "--n", "50"])

    _output._write_atomic(outdir / "manifest.json", [(json.dumps(manifest, indent=2) + "\n").encode()])
    sys.stderr.write(f"wrote {len(manifest)} tables to {outdir.resolve()}\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _four_floats(spec: str):
    try:
        a, b, c, d = map(float, spec.split(","))
    except ValueError:  # a part that is no number, or not 4 parts
        raise argparse.ArgumentTypeError(f"expected 4 comma-separated numbers, got {spec!r}") from None
    return a, b, c, d


def _leaf(sub, func):
    """Finish a leaf command's parser, after its own arguments: the common
    ``--output`` and ``--format``, and ``func`` to run it."""
    sub.add_argument("--output", "-o", help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(func=func)


@functools.lru_cache(maxsize=None)  # one parser per process: repro calls main once per step
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="Exact simulator for adaptive entanglement distillation in repeater chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codes", help="list or validate the stabilizer code registry")
    actions = p.add_subparsers(dest="action", required=True)
    _leaf(actions.add_parser("list", help="the builtin codes' parameters"), _cmd_codes_list)
    validate = actions.add_parser("validate", help="check codes' structural invariants and distance")
    validate.add_argument("names", nargs="*", help="code names or code files (default: all builtin)")
    _leaf(validate, _cmd_codes_validate)

    p = sub.add_parser("map", help="single-code or full-chain fidelity maps")
    maps = p.add_subparsers(dest="target", required=True)
    qec = maps.add_parser("qec", help="one QEC round's fidelity map")
    qec.add_argument("--code", default="933")
    group = qec.add_mutually_exclusive_group()  # the counts take no grid
    group.add_argument("--counts", action="store_true", help="emit (weight, count) rows instead of the map")
    full_chain = maps.add_parser("chain", help="a whole repeater chain's fidelity map")
    full_chain.add_argument("--repeaters", type=int, default=1)
    full_chain.add_argument("--rounds", default="913,923,933", help="3 comma-separated code names or 'skip'")
    for p, grid_owner, func in ((qec, group, _cmd_map_qec), (full_chain, full_chain, _cmd_map_chain)):
        grid_owner.add_argument("--grid", type=_parse_grid, default="0:1:1000", help="fidelity grid min:max:points")
        _leaf(p, func)

    p = sub.add_parser("efficiency", help="protocol efficiency curves, envelope, switching points")
    p.add_argument("--repeaters", type=int, default=1)
    p.add_argument("--protocols", default="P1,P2,P3,P4")
    p.add_argument("--grid", type=_parse_grid)
    _leaf(p, _cmd_efficiency)

    p = sub.add_parser("purify", help="recurrence purification sweeps")
    p.add_argument("--protocol", choices=purify.PROTOCOLS, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--twirl", dest="twirl", action="store_true", default=None)
    group.add_argument("--no-twirl", dest="twirl", action="store_false")
    p.add_argument("--rounds", type=int, default=3)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--grid", type=_parse_grid, default="0:1:10000", help="fidelity grid min:max:points")
    group.add_argument("--input-dist", type=_four_floats, metavar="PI,PX,PY,PZ",
                       help="explicit start distribution instead of a fidelity grid")
    _leaf(p, _cmd_purify)

    p = sub.add_parser("hybrid", help="purify-then-encode scan and refined efficiency")
    p.add_argument("--code", default="933")
    p.add_argument("--grid", type=_parse_grid)
    _leaf(p, _cmd_hybrid)

    p = sub.add_parser("converge", help="no-twirl recursion traces and identity checks")
    p.add_argument("--protocol", choices=purify.PROTOCOLS, required=True)
    p.add_argument("--start", type=_four_floats, required=True, metavar="A,B,C,D")
    p.add_argument("--n", type=int, default=50)
    _leaf(p, _cmd_converge)

    p = sub.add_parser("repro", help="write the full reproduction suite to a directory")
    p.add_argument("--outdir", help="target directory (default: timestamped)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader is gone, which is not bad input
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit-time flush cannot fail
        return 141  # a shell's status for a writer stopped by SIGPIPE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
