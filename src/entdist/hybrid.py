"""Hybrid purify-then-encode strategy and the refined efficiency metric.

Below a code's pseudo-threshold a single QEC round lowers fidelity, so the
hybrid strategy runs DEJMPS (no twirl) until the fidelity reaches the
threshold, Werner-twirls the biased output so the depolarizing decoder
assumption holds, and applies one QEC round.  The matching pure-DEJMPS
strategy instead keeps purifying until it meets or beats the hybrid's
output fidelity.

Rates:  pure 1G  (1/2^i)(1 - P_total_discard);  pure 2G  k/n;  hybrid
k/(2^i n)(1 - P_total_discard).

The refined efficiency replaces the raw input distillable entanglement in
the denominator with the value after the minimum number of DEJMPS rounds
needed to lift it to at least 0.12 (no rounds if already above), folds in
the survival factor, and clamps negatives to zero:

    E = max( (n_out/n_in) * D(F_out) / D_baseline * (1 - P_total), 0 ).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decoder import LogicalFidelityPolynomial, builtin_polynomial, eval_qec_map
from .purify import _depolarized, _recurrence
from .werner import _check_count, _root, distillable_entanglement

__all__ = [
    "BASELINE_D",
    "MAX_ROUNDS",
    "HybridResult",
    "pseudo_threshold",
    "builtin_threshold",
    "min_rounds_to_fidelity",
    "hybrid_run",
    "checkpoint_scan",
    "default_scan_grid",
]

BASELINE_D = 0.12
MAX_ROUNDS = 40  # every round search stops here; from F >= 0.501 DEJMPS hits 1.0 by round 25


def pseudo_threshold(poly: LogicalFidelityPolynomial) -> float:
    """Largest fixed point below 1 of the code's fidelity map inside
    [0.8, 0.9999], by bisection on eval(F) - F to 1e-9.  Above it one QEC
    round improves fidelity; below, it degrades."""
    grid = np.linspace(0.8, 0.9999, 400)
    return _root(lambda f: eval_qec_map(poly, f) - f, grid, 1e-9, "fidelity fixed point")


@lru_cache(maxsize=None)
def builtin_threshold(code_name: str) -> float:
    return pseudo_threshold(builtin_polynomial(code_name))


def _dejmps(f_in):
    """Fidelity and cumulative discard of DEJMPS (no twirl) from a
    depolarizing start at a float or array ``f_in``, lazily, after 0, 1,
    ..., ``MAX_ROUNDS`` rounds: the one round walk of this module and of
    ``tests/strategy_oracle.py``."""
    yield f_in, f_in * 0.0  # a zero discard shaped like the input
    for _, comps, p_total, _ in _recurrence("dejmps", _depolarized(f_in), MAX_ROUNDS):
        yield comps[0], p_total


def _dejmps_table(grid: np.ndarray):
    """:func:`_dejmps` on a 1-D grid, bit for bit: (MAX_ROUNDS + 1, N)
    float64 tables of fidelity and cumulative discard, row i = after i
    rounds, one column per grid point.  Each round is written into its row
    as it is made, so no round outlives the next."""
    fids = np.empty((MAX_ROUNDS + 1, grid.size))
    discards = np.empty_like(fids)
    for i, (fid, discard) in enumerate(_dejmps(grid)):
        fids[i], discards[i] = fid, discard
    return fids, discards


def _first_true(table: np.ndarray):
    """Per column of a boolean table, the first true row (0 if none) and
    whether there is one."""
    return table.argmax(axis=0), table.any(axis=0)


def _first_at_least(values, bar) -> int | None:
    """Index of the first value that reaches ``bar``; None if none does."""
    return next((i for i, v in enumerate(values) if v >= bar), None)


def _unreachable(what: str, f) -> ValueError:
    return ValueError(f"{what} not reachable from F={f} in {MAX_ROUNDS} rounds")


def _refined(output_ratio, f_out, d_base, p_total_discard):
    """The refined efficiency of the module docstring, on floats or arrays."""
    value = output_ratio * distillable_entanglement(f_out) / d_base * (1.0 - p_total_discard)
    return np.maximum(value, 0.0)


def min_rounds_to_fidelity(f_in: float, target: float) -> int | None:
    """Smallest number of DEJMPS (no twirl) rounds from a depolarizing
    start whose fidelity reaches the target; None if not reached within
    ``MAX_ROUNDS`` (F_in <= 0.5 is pinned at the 0.5 fixed point)."""
    if not 0.0 < f_in <= 1.0:
        raise ValueError("input fidelity must lie in (0, 1]")
    if not 0.5 < target < 1.0:
        raise ValueError("target fidelity must lie in (0.5, 1)")
    if f_in <= 0.5:
        return None
    return _first_at_least((f for f, _ in _dejmps(f_in)), target)  # lazy; row 0 is f_in itself


@dataclass(frozen=True)
class HybridResult:
    """One hybrid evaluation: DEJMPS rounds to threshold, the fidelity
    handed to the code, the post-QEC fidelity, the combined rate, and the
    pure-DEJMPS round count that matches or beats the hybrid output."""

    f_in: float
    code_name: str
    i_pre: int
    f_at_threshold: float
    f_out: float
    rate: float
    p_total_discard: float
    i_match: int | None


def hybrid_run(f_in: float, code_name: str = "933") -> HybridResult:
    """DEJMPS to the code's pseudo-threshold, Werner twirl, one QEC round."""
    if not 0.0 <= f_in <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    poly = builtin_polynomial(code_name)
    threshold = builtin_threshold(code_name)
    # each search rescans the pairs seen so far and walks on only as far as it needs
    seen = []
    walk = (seen.append(pair) or pair for pair in _dejmps(f_in))
    i_pre = _first_at_least((f for f, _ in itertools.chain(seen, walk)), threshold)
    if i_pre is None:
        raise _unreachable(f"threshold {threshold:.6f}", f_in)
    f_at_threshold, p_total = seen[i_pre]
    # the Werner twirl keeps the fidelity, which is all the QEC map reads
    f_out = eval_qec_map(poly, f_at_threshold)
    rate = poly.k / (2.0**i_pre * poly.n) * (1.0 - p_total)
    i_match = _first_at_least((f for f, _ in itertools.chain(seen, walk)), f_out)
    return HybridResult(f_in, poly.code_name, i_pre, f_at_threshold, f_out, rate, p_total, i_match)


def default_scan_grid(points: int = 10000) -> np.ndarray:
    """10,000 uniform points on [0.501, 1).  The right endpoint is
    excluded: at F = 1 exactly, both strategies are no-ops and the
    round-count comparison degenerates."""
    return np.linspace(0.501, 1.0, _check_count(points, "grid points", least=1), endpoint=False)


def checkpoint_scan(code_name: str = "933", grid=None) -> np.recarray:
    """Evaluate hybrid vs matching pure DEJMPS across a 1-D input grid, as
    array ops on the :func:`_dejmps_table` tables: i_pre, i_match and the
    baseline round are first rows meeting a bar.  ``i_pre``, ``i_match``
    and ``rate_hybrid`` equal :func:`hybrid_run`'s, ``f_out_hybrid`` to 1
    ulp (array against scalar ``**``); a scalar test oracle checks ``eff_*``.

    Returns a record array with one record per grid point and the fields
    ``f_in, i_pre, i_match, f_out_dejmps, f_out_hybrid, rate_dejmps,
    rate_hybrid, eff_dejmps, eff_hybrid, winner``: ``scan["f_in"]`` is a
    column, ``scan[i].i_pre`` a cell.  ``i_match`` is an object column of
    ints, None where no round within ``MAX_ROUNDS`` matches the hybrid.

    Jumps in i_pre / i_match across the grid are the checkpoints; they
    crowd together near F = 0.5 where each round gains little.
    """
    if grid is None:
        grid = default_scan_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"scan grid must be 1-D, got shape {grid.shape}")
    inside = (grid > 0.501 - 1e-12) & (grid < 1.0)  # False for NaN
    if not inside.all():
        raise ValueError(f"scan grid must lie inside [0.501, 1), got {grid[~inside][0]}")
    poly = builtin_polynomial(code_name)
    threshold = builtin_threshold(code_name)
    fids, discards = _dejmps_table(grid)
    cols = np.arange(grid.size)

    i_pre, reached = _first_true(fids >= threshold)
    if not reached.all():
        raise _unreachable(f"threshold {threshold:.6f}", grid[~reached][0])
    # D row by row, each point keeping the first value that reaches the bar
    d_base = distillable_entanglement(fids[0])
    low = d_base < BASELINE_D
    for row in fids[1:]:
        if not low.any():
            break
        d = distillable_entanglement(row)
        np.copyto(d_base, d, where=low)
        low &= d < BASELINE_D
    if low.any():
        raise _unreachable(f"distillable entanglement {BASELINE_D}", grid[low][0])

    f_hybrid = eval_qec_map(poly, fids[i_pre, cols])
    ratio_hybrid = poly.k / (2.0**i_pre * poly.n)
    p_hybrid = discards[i_pre, cols]
    rate_hybrid = ratio_hybrid * (1.0 - p_hybrid)
    eff_hybrid = _refined(ratio_hybrid, f_hybrid, d_base, p_hybrid)

    i_match, matched = _first_true(fids >= f_hybrid)
    # unmatched points report the last round and score zero
    i_dejmps = np.where(matched, i_match, len(fids) - 1)
    f_dejmps = fids[i_dejmps, cols]
    p_dejmps = discards[i_dejmps, cols]
    rate_dejmps = (1.0 - p_dejmps) / 2.0**i_dejmps
    eff_dejmps = np.where(matched, _refined(1.0 / 2.0**i_dejmps, f_dejmps, d_base, p_dejmps), 0.0)
    winner = np.where(eff_hybrid > eff_dejmps, "hybrid", "dejmps")
    return np.rec.fromarrays(
        [grid, i_pre, np.where(matched, i_match, None), f_dejmps, f_hybrid,
         rate_dejmps, rate_hybrid, eff_dejmps, eff_hybrid, winner],
        names="f_in,i_pre,i_match,f_out_dejmps,f_out_hybrid,"
        "rate_dejmps,rate_hybrid,eff_dejmps,eff_hybrid,winner",
    )
