"""Exact references for the benchmark's correctness checks.

Everything here is independent of ``entdist``: fidelity maps are rebuilt
from the committed A_w counts (``golden/codes.json``, themselves pinned by
the ``qec_counts_*`` repro digests), swaps from the Werner product rule,
and purification from the BBPSSW/DEJMPS quadratic maps.  Rational values
are exact; quantities that involve logarithms (distillable entanglement,
efficiency) are evaluated with ``decimal`` at 50 significant digits from
exact inputs.  A program value agrees when it lies within ``TOL`` of the
reference.

Chain values are kept as integer pairs (numerator, denominator) without
reducing them: a 5-repeater chain reaches ~240,000-bit integers, where
``Fraction``'s gcd on every operation would cost seconds per point.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

TOL = Fraction(1, 10**12)
_DIGITS = 50

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_codes(path: Path = GOLDEN / "codes.json") -> dict:
    """Code name -> {"n", "k", "counts"} from the committed table."""
    return json.loads(path.read_text())


def counts_csv(counts) -> bytes:
    """The ``entdist map qec --counts`` CSV for a count vector, so the
    committed counts can be checked against the repro digests."""
    lines = ["weight,count"] + [f"{w},{a}" for w, a in enumerate(counts)]
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def agrees(num: int, den: int, value: float, tol: Fraction = TOL) -> bool:
    """|num/den - value| <= tol, decided in integers (den > 0)."""
    if not math.isfinite(value):
        return False
    v = Fraction(value)
    lhs = abs(num * v.denominator - v.numerator * den) * tol.denominator
    return lhs <= tol.numerator * den * v.denominator


def agrees_frac(exact: Fraction, value: float, tol: Fraction = TOL) -> bool:
    return agrees(exact.numerator, exact.denominator, value, tol)


def agrees_dec(exact: Decimal, value: float) -> bool:
    if not math.isfinite(value):
        return False
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        return abs(exact - Decimal(value)) <= Decimal(1) / Decimal(10**12)


def to_decimal(num: int, den: int) -> Decimal:
    scale = 10**_DIGITS
    with localcontext() as ctx:
        ctx.prec = _DIGITS + 10
        return Decimal((num * scale) // den) / Decimal(scale)


# ---------------------------------------------------------------------------
# code maps, swaps, chains
# ---------------------------------------------------------------------------

def qec_map(code: dict, num: int, den: int) -> tuple[int, int]:
    """F_out = sum_w A_w F^(n-w) ((1-F)/3)^w at F = num/den, as a pair."""
    n, counts = code["n"], code["counts"]
    rest = den - num
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * num)
    out = 0
    rest_w = 1
    for w, a in enumerate(counts):
        if a:
            out += a * powers[n - w] * rest_w * 3 ** (n - w)
        rest_w *= rest
    return out, 3**n * den**n


def swap_uniform(num: int, den: int, n_swaps: int) -> tuple[int, int]:
    """n_swaps swaps of n_swaps+1 equal Werner links:
    1/4 + 3/4 ((4F-1)/3)^(n_swaps+1)."""
    if n_swaps == 0:
        return num, den
    k = n_swaps + 1
    return (3 * den) ** k + 3 * (4 * num - den) ** k, 4 * (3 * den) ** k


def swap_counts(n_repeaters: int) -> tuple[int, int, int]:
    """Swaps inside each surviving segment after rounds 1, 2 and 3."""
    s1 = n_repeaters + 1
    s2 = s1 // 2 if s1 > 1 else 1
    return (1 if s1 > 1 else 0, s2 - 1, 0)


def chain(codes: dict, n_repeaters: int, rounds, f_in: float) -> tuple[int, int]:
    """End-to-end fidelity of a three-round plan (``None`` = skip)."""
    x = Fraction(f_in)
    num, den = x.numerator, x.denominator
    for name, n_swaps in zip(rounds, swap_counts(n_repeaters)):
        if name is not None:
            num, den = qec_map(codes[name], num, den)
        num, den = swap_uniform(num, den, n_swaps)
    return num, den


def chain_rate(codes: dict, n_repeaters: int, rounds) -> Fraction:
    """k_out/n_in of a three-round plan: round 1 eats n_repeaters+1
    blocks, and each later round replicates the experiment up to
    lcm(pairs produced, next block size)."""
    (n1, k1), (n2, k2), (n3, k3) = ((codes[r]["n"], codes[r]["k"]) for r in rounds)
    l1 = math.lcm(k1, n2)
    k_out2 = (l1 // n2) * k2
    l2 = math.lcm(k_out2, n3)
    n_in3 = (l2 // k_out2) * (l1 // k1) * (n_repeaters + 1) * n1
    return Fraction((l2 // n3) * k3, n_in3)


# ---------------------------------------------------------------------------
# hashing bound and efficiency
# ---------------------------------------------------------------------------

def distillable(f: Decimal) -> Decimal:
    """D_H(F) = 1 + F log2 F + (1-F) log2((1-F)/3), for 0 < F <= 1."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        ln2 = Decimal(2).ln()
        g = 1 - f
        value = 1 + f * f.ln() / ln2
        if g > 0:
            value += g * (g / 3).ln() / ln2
        return value


def efficiency(rate: Fraction, f_in: Decimal, f_out: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        return Decimal(rate.numerator) / Decimal(rate.denominator) * distillable(f_out) / distillable(f_in)


# ---------------------------------------------------------------------------
# recurrence purification
# ---------------------------------------------------------------------------

def purify_step(protocol: str, dist):
    """One BBPSSW/DEJMPS round on exact components (I, X, Y, Z):
    returns (renormalized components, discard probability)."""
    i, x, y, z = dist
    if protocol == "bbpssw":
        raw = (i * i + z * z, x * x + y * y, 2 * x * y, 2 * i * z)
    else:
        raw = (i * i + y * y, x * x + z * z, 2 * x * z, 2 * i * y)
    kept = sum(raw)
    return tuple(v / kept for v in raw), 1 - kept


def depolarized(f: Fraction):
    e = (1 - f) / 3
    return (f, e, e, e)


def run_rounds(protocol: str, rounds: int, f_in: float, twirled: bool):
    """Per round: (components, p_discard, p_total_discard, rate)."""
    dist = depolarized(Fraction(f_in))
    p_total = Fraction(0)
    records = []
    for i in range(1, rounds + 1):
        dist, p_discard = purify_step(protocol, dist)
        if twirled:
            dist = depolarized(dist[0])
        p_total = p_total + (1 - p_total) * p_discard
        records.append((dist, p_discard, p_total, (1 - p_total) / 2**i))
    return records


def dejmps_trace(f_in: float, rounds: int):
    """Fidelities and cumulative discard of untwirled DEJMPS, index = rounds done."""
    dist = depolarized(Fraction(f_in))
    fids, discards = [dist[0]], [Fraction(0)]
    for _ in range(rounds):
        dist, p_discard = purify_step("dejmps", dist)
        fids.append(dist[0])
        discards.append(discards[-1] + (1 - discards[-1]) * p_discard)
    return fids, discards


def iterate(protocol: str, start, steps: int):
    """Untwirled component recursion from ``start``; index 0 = start."""
    dist = tuple(Fraction(v) for v in start)
    rows = [dist]
    for _ in range(steps):
        dist, _ = purify_step(protocol, dist)
        rows.append(dist)
    return rows
