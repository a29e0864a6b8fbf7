"""Golden sha256 digests of the ``entdist repro`` tables.

``golden/repro_sha256.json`` maps every CSV file the suite writes (the 27
manifest steps; the three ``efficiency_*R`` steps also write a
``_switchpoints`` table, so 30 files) to its sha256.  The manifest itself
is not pinned: it is provenance, not a result.

To re-pin after a change whose stated purpose is numerical, write a fresh
suite and record it:

    PYTHONPATH=src python3 -m entdist.cli repro --outdir OUT
    python3 bench/golden.py OUT

which also refreshes ``golden/codes.json`` (the A_w counts the exact
reference uses) from the ``qec_counts_*`` tables.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "repro_sha256.json"

# (n, k) of the builtin codes; the counts come from the repro tables.
CODE_SIZES = {"913": (9, 1), "923": (9, 2), "933": (9, 3), "513": (5, 1), "713": (7, 1)}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests(path: Path = DIGESTS) -> dict[str, str]:
    return json.loads(path.read_text())


def check_tables(outdir: Path, digests: dict[str, str]) -> list[str]:
    """One message per missing or mismatching table (empty when all match)."""
    problems = []
    for name, expected in sorted(digests.items()):
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif sha256_file(path) != expected:
            problems.append(f"{name}: sha256 mismatch")
    return problems


def count_rows(outdir: Path, digests: dict[str, str]) -> int:
    """Data rows (lines after the header) over the pinned tables."""
    rows = 0
    for name in digests:
        path = outdir / name
        if path.is_file():
            rows += max(path.read_bytes().count(b"\n") - 1, 0)
    return rows


def write_golden(outdir: Path) -> None:
    tables = sorted(p for p in outdir.iterdir() if p.suffix == ".csv")
    DIGESTS.write_text(json.dumps({p.name: sha256_file(p) for p in tables}, indent=2) + "\n")
    codes = {}
    for name, (n, k) in CODE_SIZES.items():
        lines = (outdir / f"qec_counts_{name}.csv").read_text().splitlines()[1:]
        codes[name] = {"n": n, "k": k, "counts": [int(line.split(",")[1]) for line in lines]}
    body = ",\n".join(f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in codes.items())
    (GOLDEN / "codes.json").write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    write_golden(Path(sys.argv[1]))
