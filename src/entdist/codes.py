"""Registry and validation of the stabilizer codes used by the simulator.

Builtin codes: the three 9-qubit codes (``913``, ``923``, ``933``) plus the
five-qubit code (``513``) and the Steane code (``713``) used in the
round-skipping study.  Codes can also be loaded from a small text format,
so sequences beyond the builtin ones can be plugged into the same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .pauli import PauliString, commutes_with

__all__ = [
    "StabilizerCode",
    "CheckResult",
    "builtin_code",
    "builtin_names",
    "validate_code",
    "parse_code_text",
    "load_code",
]


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k, d]] stabilizer code given by generators and logicals.

    ``d`` is stored metadata; :func:`validate_code` can re-derive it
    exhaustively for n <= 10.
    """

    name: str
    n: int
    k: int
    d: int
    stabilizers: tuple[PauliString, ...]
    logical_x: tuple[PauliString, ...]
    logical_z: tuple[PauliString, ...]


def _make_code(name, n, k, d, h_rows, x_rows, z_rows) -> StabilizerCode:
    parse = PauliString.from_string
    return StabilizerCode(
        name=name,
        n=n,
        k=k,
        d=d,
        stabilizers=tuple(parse(r) for r in h_rows),
        logical_x=tuple(parse(r) for r in x_rows),
        logical_z=tuple(parse(r) for r in z_rows),
    )


# The three 9-qubit codes are stored with + signs throughout: the source
# table lists unsigned letter strings and decoding uses unsigned syndromes.
_BUILTINS = {
    "913": dict(
        n=9, k=1, d=3,
        h_rows=(
            "YIZIIIIXY",
            "ZYZIIIIIX",
            "ZZYIIIIXI",
            "IIIXIIIII",
            "IIIIXIIII",
            "IIIIIXIII",
            "IIIIIIXII",
            "IZZIIIIZZ",
        ),
        x_rows=("ZIIIIIIXX",),
        z_rows=("ZZIIIIIIZ",),
    ),
    "923": dict(
        n=9, k=2, d=3,
        h_rows=(
            "YZZZIIXII",
            "ZYZIZIXYY",
            "ZIYZIIXYX",
            "ZIIXIIIIY",
            "IIZIYIIXI",
            "IIIIIXIII",
            "ZZZZZIZZZ",
        ),
        x_rows=("IZZIIIXXI", "IZIZIIXIX"),
        z_rows=("IZZIZIIZI", "IZZZIIIIZ"),
    ),
    "933": dict(
        n=9, k=3, d=3,
        h_rows=(
            "YZIZIIYXX",
            "IXZZIXYIY",
            "ZIYZIXIYX",
            "IZIYIXXYZ",
            "IIIIXIIII",
            "ZZZZIZZZZ",
        ),
        x_rows=("ZZIIIXXII", "IIZZIXIXI", "IZIZIXIIX"),
        z_rows=("ZZIZIIZII", "ZIZZIIIZI", "ZZZIIIIIZ"),
    ),
    # Cyclic five-qubit code, the standard generator set.
    "513": dict(
        n=5, k=1, d=3,
        h_rows=("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"),
        x_rows=("XXXXX",),
        z_rows=("ZZZZZ",),
    ),
    # Steane code in CSS form.
    "713": dict(
        n=7, k=1, d=3,
        h_rows=(
            "IIIXXXX",
            "IXXIIXX",
            "XIXIXIX",
            "IIIZZZZ",
            "IZZIIZZ",
            "ZIZIZIZ",
        ),
        x_rows=("XXXXXXX",),
        z_rows=("ZZZZZZZ",),
    ),
}

_CACHE: dict[str, StabilizerCode] = {}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin_code(name) -> StabilizerCode:
    """Return a builtin code by name (``"913"``, ``"923"``, ``"933"``,
    ``"513"`` or ``"713"``; integers are accepted)."""
    key = str(name)
    if key not in _BUILTINS:
        raise ValueError(
            f"unknown code {name!r}; builtin codes are {', '.join(_BUILTINS)}"
        )
    if key not in _CACHE:
        _CACHE[key] = _make_code(key, **_BUILTINS[key])
    return _CACHE[key]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _gf2_rank(rows: list[int]) -> int:
    basis: dict[int, int] = {}  # leading bit (bit_length) -> the basis row with it
    for v in rows:
        while v.bit_length() in basis:  # 0 has bit_length 0, which is never a key
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


def _anticommuting(rows, cols) -> list[tuple[int, int]]:
    """The row-major (i, j) pairs whose rows[i] and cols[j] anticommute."""
    return [(i, j) for i, a in enumerate(rows) for j, b in enumerate(cols) if not commutes_with(a, b)]


def validate_code(code: StabilizerCode, check_distance: bool = False) -> tuple[CheckResult, ...]:
    """The structural invariants of a code, one named :class:`CheckResult` each.

    Checks: operator sizes and counts, mutual commutation of stabilizers,
    generator independence (symplectic rank n-k), logicals commuting with
    the stabilizers, and the logical X/Z anticommutation pattern.  With
    ``check_distance`` the stored d is verified by exhaustive enumeration,
    which :mod:`entdist.decoder` refuses above n = 10.
    """
    checks: list[CheckResult] = []
    n, k = code.n, code.k
    ops = code.stabilizers + code.logical_x + code.logical_z

    def check(name, ok, detail):
        checks.append(CheckResult(name, ok, "" if ok else detail))

    sizes_ok = all(p.n == n for p in ops)
    counts_ok = (
        len(code.stabilizers) == n - k
        and len(code.logical_x) == k
        and len(code.logical_z) == k
    )
    check("shape", sizes_ok and counts_ok,
          f"expected {n - k} stabilizers and {k}+{k} logicals on {n} qubits")
    if not sizes_ok:
        return tuple(checks)

    bad = [(i, j) for i, j in _anticommuting(code.stabilizers, code.stabilizers) if i < j]
    check("stabilizers_commute", not bad, f"anticommuting generator pairs: {bad}")

    rows = [(p.x << n) | p.z for p in code.stabilizers]
    rank = _gf2_rank(rows)
    check("generator_independence", rank == n - k, f"symplectic rank {rank}, expected {n - k}")

    bad = _anticommuting(code.logical_x + code.logical_z, code.stabilizers)
    check("logicals_commute_with_stabilizers", not bad,
          f"anticommuting (logical, stabilizer) pairs: {bad}")

    # logical X_i must anticommute with Z_i and commute with every other Z_j
    diagonal = {(i, i) for i in range(min(len(code.logical_x), len(code.logical_z)))}
    bad = sorted(set(_anticommuting(code.logical_x, code.logical_z)) ^ diagonal)
    check("logical_pairing", not bad, f"wrong X/Z pairing at indices: {bad}")

    if check_distance and all(c.passed for c in checks):
        from .decoder import code_distance  # deferred: decoder builds on codes

        d_actual = code_distance(code)
        check("distance", d_actual == code.d, f"computed d={d_actual}, stored d={code.d}")

    return tuple(checks)


# ---------------------------------------------------------------------------
# Text format: `name=`, `n=`, `k=`, `d=` header lines, then sections headed
# `H:`, `X:`, `Z:` with one Pauli letter string per line.
# ---------------------------------------------------------------------------

def parse_code_text(text: str) -> StabilizerCode:
    header: dict[str, str] = {}
    sections: dict[str, list[str]] = {"H": [], "X": [], "Z": []}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.rstrip(":") in sections and line.endswith(":"):
            current = line.rstrip(":")
            continue
        if "=" in line and current is None:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
            continue
        if current is None:
            raise ValueError(f"line {lineno}: unexpected content outside a section: {raw!r}")
        sections[current].append(line)
    missing = [key for key in ("name", "n", "k", "d") if key not in header]
    if missing:
        raise ValueError(f"missing header lines: {', '.join(missing)}")
    if not sections["H"]:
        raise ValueError("no stabilizer rows in section H")
    return _make_code(
        header["name"],
        int(header["n"]),
        int(header["k"]),
        int(header["d"]),
        sections["H"],
        sections["X"],
        sections["Z"],
    )


def load_code(path) -> StabilizerCode:
    return parse_code_text(Path(path).read_text(encoding="utf-8-sig"))
