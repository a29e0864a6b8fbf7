"""Minimum-weight lookup-table decoder and exact logical-fidelity maps.

The decoder enumerates all 4^n unsigned Pauli errors in canonical order
(weight ascending, deterministic tie-break) and keeps the first error per
syndrome as the stored correction: the maximum-likelihood coset leader for
the depolarizing channel.  Classifying every error against its correction
yields weight-indexed counts A_w of decoder-correctable errors, from which
the single-round fidelity map

    F_out = sum_w A_w * F^(n-w) * ((1-F)/3)^w

is evaluated exactly, with no sampling and no grid interpolation.  For
k > 1 the hard lower-bound convention is used: a block counts as corrected
only if every logical qubit is error free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .codes import StabilizerCode, builtin_code, validate_code
from .pauli import PauliString, commutes_with, multiply
from .werner import _in_range, _scalar

__all__ = [
    "LookupTable",
    "ErrorOutcome",
    "LogicalFidelityPolynomial",
    "build_lookup_table",
    "syndrome_of",
    "classify_error",
    "logical_fidelity_polynomial",
    "eval_qec_map",
    "code_distance",
    "builtin_polynomial",
    "polynomial_rows",
    "map_rows",
]


@lru_cache(maxsize=8)
def _pauli_enumeration(n: int):
    """All 4^n unsigned Paulis as bit matrices, in canonical order.

    Index m encodes x bits in the high n bits and z bits in the low n bits,
    qubit 0 most significant, so ascending m is exactly the canonical
    lexicographic tie-break; a stable sort by weight then gives the full
    canonical order.  Refused above 10 qubits, before anything is
    allocated: the cached tables take 4^n * (2n + 24) bytes, about 46 MB
    at n = 10.
    """
    if n > 10:
        raise ValueError(f"exhaustive decoding supports n <= 10 qubits, got n={n}")
    m = np.arange(4**n, dtype=np.int64)
    xb = np.empty((4**n, n), dtype=np.uint8)
    zb = np.empty((4**n, n), dtype=np.uint8)
    for j in range(n):
        xb[:, j] = (m >> (2 * n - 1 - j)) & 1
        zb[:, j] = (m >> (n - 1 - j)) & 1
    w = (xb | zb).sum(axis=1).astype(np.int64)
    order = np.argsort(w, kind="stable")
    for arr in (xb, zb, w, order):
        arr.setflags(write=False)
    return xb, zb, w, order


def _bit_matrix(ops: tuple[PauliString, ...], n: int):
    X = np.zeros((len(ops), n), dtype=np.int64)
    Z = np.zeros((len(ops), n), dtype=np.int64)
    for i, p in enumerate(ops):
        for j in range(n):
            X[i, j] = (p.x >> j) & 1
            Z[i, j] = (p.z >> j) & 1
    return X, Z


def _anticommutes(xb, zb, op_x, op_z):
    """Symplectic product table: entry (e, o) is 1 iff error row e
    anticommutes with operator row o."""
    return (xb.astype(np.int64) @ op_z.T + zb.astype(np.int64) @ op_x.T) % 2


def _syndrome_ids(xb, zb, stab_x, stab_z):
    """Packed syndrome integers, stabilizer 0 at the most significant bit."""
    syn = _anticommutes(xb, zb, stab_x, stab_z)
    m_s = stab_x.shape[0]
    pack = (1 << np.arange(m_s - 1, -1, -1)).astype(np.int64)
    return syn @ pack


@dataclass(eq=False)
class LookupTable:
    """Complete syndrome -> minimum-weight-correction table for one code."""

    code: StabilizerCode
    entries: dict[tuple[int, ...], PauliString]
    _leader_x: np.ndarray = field(repr=False)
    _leader_z: np.ndarray = field(repr=False)
    _syn_ids: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    def correction_for(self, syndrome: tuple[int, ...]) -> PauliString:
        return self.entries[tuple(syndrome)]


def build_lookup_table(code: StabilizerCode) -> LookupTable:
    """Enumerate all 4^n errors and store the first per syndrome.

    The code is validated first; full stabilizer rank guarantees every one
    of the 2^(n-k) syndromes is reached.
    """
    report = validate_code(code)
    if not report.passed:
        failed = ", ".join(c.name for c in report.failures())
        raise ValueError(f"code {code.name!r} failed validation: {failed}")
    n, k = code.n, code.k
    m_s = n - k
    xb, zb, w, order = _pauli_enumeration(n)
    stab_x, stab_z = _bit_matrix(code.stabilizers, n)
    syn_ids = _syndrome_ids(xb, zb, stab_x, stab_z)

    sorted_ids = syn_ids[order]
    unique_ids, first_pos = np.unique(sorted_ids, return_index=True)
    if len(unique_ids) != 2**m_s:
        raise AssertionError("incomplete syndrome coverage despite full rank")
    leaders = order[first_pos]
    by_syndrome = np.empty(2**m_s, dtype=np.int64)
    by_syndrome[unique_ids] = leaders

    leader_x = xb[by_syndrome].copy()
    leader_z = zb[by_syndrome].copy()

    entries: dict[tuple[int, ...], PauliString] = {}
    for sid in range(2**m_s):
        bits = tuple((sid >> (m_s - 1 - i)) & 1 for i in range(m_s))
        x = int(sum(int(leader_x[sid, j]) << j for j in range(n)))
        z = int(sum(int(leader_z[sid, j]) << j for j in range(n)))
        entries[bits] = PauliString(n, x, z).unsigned()
    return LookupTable(code, entries, leader_x, leader_z, syn_ids)


def syndrome_of(code: StabilizerCode, error: PauliString) -> tuple[int, ...]:
    """Syndrome bits of an error, bit i = 1 iff it anticommutes with
    stabilizer i."""
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} qubits, code has {code.n}")
    return tuple(0 if commutes_with(error, s) else 1 for s in code.stabilizers)


@dataclass(frozen=True)
class ErrorOutcome:
    """Result of decoding one error: corrected, or which logicals flipped.

    ``x_anticommutes[i]``/``z_anticommutes[i]`` flag the logical X_i / Z_i
    operators that anticommute with the residual error after correction.
    """

    corrected: bool
    x_anticommutes: tuple[int, ...]
    z_anticommutes: tuple[int, ...]


def classify_error(code: StabilizerCode, lut: LookupTable, error: PauliString) -> ErrorOutcome:
    """Apply the stored correction and test the residual against the
    logical operators.  The residual commutes with every stabilizer by
    construction, so it is corrected iff it lies in the stabilizer group.
    """
    correction = lut.correction_for(syndrome_of(code, error))
    residual = multiply(error, correction)
    ax = tuple(0 if commutes_with(residual, p) else 1 for p in code.logical_x)
    az = tuple(0 if commutes_with(residual, p) else 1 for p in code.logical_z)
    return ErrorOutcome(not any(ax) and not any(az), ax, az)


@dataclass(frozen=True)
class LogicalFidelityPolynomial:
    """Weight-indexed counts A_w of errors the decoder fully corrects.

    Evaluating sum_w A_w F^(n-w) ((1-F)/3)^w gives the exact probability
    that all k logical pairs survive one round at input fidelity F.
    """

    code_name: str
    n: int
    k: int
    counts: tuple[int, ...]

    def __call__(self, f_in):
        return eval_qec_map(self, f_in)


def logical_fidelity_polynomial(code: StabilizerCode, lut: LookupTable | None = None) -> LogicalFidelityPolynomial:
    """Classify all 4^n errors against the lookup table and count the
    corrected ones by weight."""
    if lut is None:
        lut = build_lookup_table(code)
    elif lut.code != code:
        raise ValueError(f"lookup table was built for {lut.code.name!r}, not {code.name!r}")
    n = code.n
    xb, zb, w, _ = _pauli_enumeration(n)
    # lut._syn_ids is aligned with the same enumeration
    res_x = xb ^ lut._leader_x[lut._syn_ids]
    res_z = zb ^ lut._leader_z[lut._syn_ids]
    gx, gz = _bit_matrix(code.logical_x + code.logical_z, n)
    corrected = ~_anticommutes(res_x, res_z, gx, gz).any(axis=1)
    counts = np.bincount(w[corrected], minlength=n + 1)
    return LogicalFidelityPolynomial(code.name, n, code.k, tuple(int(c) for c in counts))


def eval_qec_map(poly: LogicalFidelityPolynomial, f_in):
    """Exact F_in -> F_out map of one distillation round.

    Accepts a scalar or an array; raises if any input leaves [0, 1].
    """
    f = _in_range(f_in, what="input fidelity")
    e = (1.0 - f) / 3.0
    out = np.zeros_like(f)
    for w, a in enumerate(poly.counts):
        if a:
            out = out + a * f ** (poly.n - w) * e**w
    return _scalar(out)


def code_distance(code: StabilizerCode) -> int:
    """Minimum weight over operators that commute with every stabilizer
    but act nontrivially on some logical qubit (exhaustive; n <= 9)."""
    n = code.n
    xb, zb, w, _ = _pauli_enumeration(n)
    stab_x, stab_z = _bit_matrix(code.stabilizers, n)
    in_centralizer = ~_anticommutes(xb, zb, stab_x, stab_z).any(axis=1)
    gx, gz = _bit_matrix(code.logical_x + code.logical_z, n)
    candidates = in_centralizer & _anticommutes(xb, zb, gx, gz).any(axis=1)
    if not candidates.any():
        raise ValueError("code has no logical operators (k = 0?)")
    return int(w[candidates].min())


@lru_cache(maxsize=None)
def builtin_polynomial(name: str) -> LogicalFidelityPolynomial:
    """Cached fidelity polynomial for a builtin code."""
    code = builtin_code(name)
    return logical_fidelity_polynomial(code, build_lookup_table(code))


def polynomial_rows(poly: LogicalFidelityPolynomial) -> list[tuple[int, int]]:
    return [(w, a) for w, a in enumerate(poly.counts)]


def map_rows(poly: LogicalFidelityPolynomial, grid=None) -> list[tuple[float, float]]:
    """(F_in, F_out) pairs on a uniform grid (default 1000 points on [0, 1]),
    the plot/export format; evaluation itself never interpolates."""
    if grid is None:
        grid = np.linspace(0.0, 1.0, 1000)
    out = eval_qec_map(poly, grid)
    return list(zip((float(x) for x in grid), (float(y) for y in out)))
