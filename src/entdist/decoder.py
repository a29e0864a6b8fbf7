"""Minimum-weight lookup-table decoder and exact logical-fidelity maps.

The decoder enumerates all 4^n unsigned Pauli errors in canonical order
and keeps the first error per syndrome as the stored correction: the
least-weight error, ties broken by enumeration index.  That is the
coset-ML choice under depolarizing noise for 913, 933, 513 and 713, not
for 923, whose counts depend on qubit order.  Canonical order is weight
ascending, then, within a weight, the 2n-bit string of the x block above
the z block read as an unsigned integer, qubit 0 the most significant bit
of each block; it makes the tables reproducible bit for bit.  Classifying
every error against its correction yields weight-indexed counts A_w of
decoder-correctable errors, from which the single-round fidelity map

    F_out = sum_w A_w * F^(n-w) * ((1-F)/3)^w

is evaluated exactly, with no sampling and no grid interpolation.  For
k > 1 the hard lower-bound convention is used: a block counts as corrected
only if every logical qubit is error free.

The exhaustive passes work on packed integers.  Error number m of the
enumeration is the pair of n-bit masks mx = m >> n (x bits) and
mz = m & (2^n - 1) (z bits), qubit 0 at the most significant bit of each;
a stabilizer or logical operator is an (ox, oz) pair of masks in the same
bit order.  The error anticommutes with the operator iff
parity(mx & oz) ^ parity(mz & ox) is 1: syndromes are linear, so the
syndrome table of all 4^n errors is the (2^n, 2^n) outer XOR of one
2^n-entry table per half.  The leader of a syndrome is its error of
least key (w << 2n) | m: least weight w, then least index, the first in
canonical order.  An error is corrected iff its logical syndrome equals
its leader's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .codes import StabilizerCode, builtin_code, validate_code
from .pauli import PauliString
from .werner import _blocked, _in_range, _scalar

__all__ = [
    "LookupTable",
    "LogicalFidelityPolynomial",
    "build_lookup_table",
    "logical_fidelity_polynomial",
    "eval_qec_map",
    "code_distance",
    "builtin_polynomial",
]


@lru_cache(maxsize=8)
def _popcount(n: int) -> np.ndarray:
    """Set-bit count of every n-bit mask, as uint8."""
    table = np.zeros(2**n, dtype=np.uint8)
    for b in range(n):
        table[1 << b : 2 << b] = table[: 1 << b] + 1
    return table


@lru_cache(maxsize=8)
def _weights(n: int) -> np.ndarray:
    """Weight of every error index m as uint8, popcount(mx | mz).  Refused
    above 10 qubits, before anything is allocated: the cached array takes
    4^n bytes, 1 MB at n = 10, and each syndrome table four times that."""
    if n > 10:
        raise ValueError(f"exhaustive decoding supports n <= 10 qubits, got n={n}")
    v = np.arange(2**n, dtype=np.uint16)
    w = _popcount(n)[np.bitwise_or.outer(v, v)].ravel()
    w.setflags(write=False)
    return w


def _mask(bits: int, n: int) -> int:
    """Reverse an n-bit mask: ``PauliString`` keeps qubit j at bit j, the
    packed layout at bit n - 1 - j.  The map is its own inverse."""
    return int(f"{bits:0{n}b}"[::-1], 2)


def _syndromes(ops: tuple[PauliString, ...], n: int) -> np.ndarray:
    """Packed syndrome of every error index m against ``ops`` as int32,
    operator 0 at the most significant bit: bit set iff the error
    anticommutes.  One outer XOR of the x-half and z-half tables."""
    if len(ops) > 31:
        raise ValueError(f"at most 31 operators fit a packed syndrome, got {len(ops)}")
    parity = _popcount(n) & 1
    v = np.arange(2**n, dtype=np.uint16)
    sx = np.zeros(2**n, dtype=np.int32)
    sz = np.zeros(2**n, dtype=np.int32)
    for p in ops:
        sx = (sx << 1) | parity[v & _mask(p.z, n)]
        sz = (sz << 1) | parity[v & _mask(p.x, n)]
    return np.bitwise_xor.outer(sx, sz).ravel()


@dataclass(eq=False)
class LookupTable:
    """Complete syndrome -> minimum-weight-correction table for one code.

    ``leaders[s]`` is the enumeration index m of the stored correction for
    packed syndrome s; ``syndromes[m]`` is the packed syndrome of error m.
    """

    code: StabilizerCode
    leaders: np.ndarray = field(repr=False)
    syndromes: np.ndarray = field(repr=False)


def build_lookup_table(code: StabilizerCode) -> LookupTable:
    """Enumerate all 4^n errors and store the least-key one per syndrome.

    The code is validated first; full stabilizer rank guarantees every one
    of the 2^(n-k) syndromes is reached.
    """
    failed = ", ".join(c.name for c in validate_code(code) if not c.passed)
    if failed:
        raise ValueError(f"code {code.name!r} failed validation: {failed}")
    n, m_s = code.n, code.n - code.k
    w = _weights(n)
    syn_ids = _syndromes(code.stabilizers, n)
    # weight (at most 10, 4 bits) above the 2n-bit index: at most 24 bits
    keys = (w.astype(np.uint32) << 2 * n) | np.arange(4**n, dtype=np.uint32)
    best = np.full(2**m_s, np.iinfo(np.uint32).max, dtype=np.uint32)
    np.minimum.at(best, syn_ids, keys)
    if (best == np.iinfo(np.uint32).max).any():
        raise AssertionError("incomplete syndrome coverage despite full rank")
    leaders = (best & (4**n - 1)).astype(np.intp)  # index m of each syndrome's leader
    return LookupTable(code, leaders, syn_ids)


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


def logical_fidelity_polynomial(code: StabilizerCode) -> LogicalFidelityPolynomial:
    """Classify all 4^n errors against the code's lookup table and count
    the corrected ones by weight."""
    lut = build_lookup_table(code)
    n = code.n
    logical = _syndromes(code.logical_x + code.logical_z, n)
    # syndromes are linear: error ^ leader is logically trivial iff the two
    # logical syndromes agree (lut.syndromes is aligned with the enumeration)
    corrected = logical == logical[lut.leaders][lut.syndromes]
    counts = np.bincount(_weights(n)[corrected], minlength=n + 1)
    return LogicalFidelityPolynomial(code.name, n, code.k, tuple(int(c) for c in counts))


@_blocked
def eval_qec_map(poly: LogicalFidelityPolynomial, f_in):
    """Exact F_in -> F_out map of one distillation round.

    Accepts a scalar or an array; raises if any input leaves [0, 1].
    """
    f = _in_range(f_in, what="input fidelity")
    e = (1.0 - f) / 3.0
    # in place on arrays; a 0-d f gives numpy scalars (the C library's pow)
    out = np.zeros_like(f)[()]
    for w, a in enumerate(poly.counts):
        if a:
            term = f ** (poly.n - w)  # a new array: f may be the caller's
            term *= a
            term *= e**w
            out += term
    return _scalar(out)


def code_distance(code: StabilizerCode) -> int:
    """Minimum weight over the nontrivial operators that commute with every
    stabilizer: for k >= 1, those acting on some logical qubit; for k = 0 (a
    stabilizer state, whose commuting operators are its stabilizer group),
    those other than the identity.  Exhaustive; n <= 10."""
    n = code.n
    w = _weights(n)
    in_centralizer = _syndromes(code.stabilizers, n) == 0
    nontrivial = (_syndromes(code.logical_x + code.logical_z, n) != 0) if code.k else (w > 0)
    return int(w[in_centralizer & nontrivial].min())


@lru_cache(maxsize=None)
def builtin_polynomial(name: str) -> LogicalFidelityPolynomial:
    """Cached fidelity polynomial for a builtin code."""
    return logical_fidelity_polynomial(builtin_code(name))

