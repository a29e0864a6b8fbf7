"""Efficiency curves, the optimal-protocol envelope, and switching points.

The efficiency of a protocol at input fidelity F is the rate-weighted
ratio of output to input distillable entanglement,

    E(F) = R_out * D(F_out(F)) / D(F),

defined where D(F) > 0.  Comparing the four code-sequence protocols
P1..P4 pointwise gives an optimal envelope; the fidelities where the next
protocol overtakes the current one are its switching points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import ChainPlan, rate_accounting, run_chain
from .werner import _check_count, _crossings, distillable_entanglement

__all__ = [
    "PROTOCOL_SEQUENCES",
    "EfficiencyCurve",
    "SwitchPoint",
    "protocol_plan",
    "efficiency_value",
    "efficiency_curve",
    "protocol_curves",
    "switching_points",
    "optimal_envelope",
    "default_grid",
]

PROTOCOL_SEQUENCES: dict[str, tuple[str, str, str]] = {
    "P1": ("913", "913", "913"),
    "P2": ("913", "923", "923"),
    "P3": ("913", "923", "933"),
    "P4": ("923", "923", "923"),
}


def protocol_plan(label: str, n_repeaters: int) -> ChainPlan:
    try:
        rounds = PROTOCOL_SEQUENCES[label.upper()]
    except KeyError:
        raise ValueError(
            f"unknown protocol {label!r}; expected one of {', '.join(PROTOCOL_SEQUENCES)}"
        ) from None
    return ChainPlan(n_repeaters, rounds)


def default_grid(points: int = 2000) -> np.ndarray:
    """Grid for switching-point work: all crossings sit well above 0.93,
    so [0.85, 1] at 2000 points resolves them to the 1e-4 level."""
    return np.linspace(0.85, 1.0, _check_count(points, "grid points", least=2))


@dataclass(frozen=True)
class EfficiencyCurve:
    label: str
    grid: np.ndarray
    values: np.ndarray
    rate: Fraction
    f_out: np.ndarray


@dataclass(frozen=True)
class SwitchPoint:
    from_plan: str
    to_plan: str
    fidelity: float


def efficiency_value(rate, f_in, f_out):
    """E = rate * D(f_out) / D(f_in); requires a rate in [0, 1] and
    D(f_in) > 0."""
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:  # negated, so that NaN fails it too
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    d_in = distillable_entanglement(f_in)
    # negated, so that NaN fails it too; a float takes one comparison
    if not (d_in > 0.0 if isinstance(d_in, float) else (d_in > 0.0).all()):
        raise ValueError(
            "efficiency is undefined at or below the hashing threshold (D(F_in) <= 0)"
        )
    return rate * distillable_entanglement(f_out) / d_in


def efficiency_curve(plan: ChainPlan, grid=None, label: str | None = None) -> EfficiencyCurve:
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be 1-D and strictly increasing with at least 2 points")
    rate = rate_accounting(plan).rate
    f_out = run_chain(plan, grid)
    values = efficiency_value(rate, grid, f_out)
    return EfficiencyCurve(label or plan.label, grid, values, rate, f_out)


def protocol_curves(n_repeaters: int, grid=None, labels=None) -> list[EfficiencyCurve]:
    """Curves for the standard protocols, in envelope order; a label may
    appear once, whatever its case."""
    labels = [lab.upper() for lab in labels] if labels is not None else list(PROTOCOL_SEQUENCES)
    plans = [protocol_plan(lab, n_repeaters) for lab in labels]  # an unknown label first
    repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
    if repeated:
        raise ValueError(f"repeated protocol label {', '.join(repeated)}")
    return [efficiency_curve(plan, grid, label=lab) for plan, lab in zip(plans, labels)]


def _common_grid(curves) -> np.ndarray:
    if not curves:
        raise ValueError("no curves given")
    grid = curves[0].grid
    for c in curves[1:]:
        if len(c.grid) != len(grid) or not np.array_equal(c.grid, grid):
            raise ValueError("curves must share one grid")
    return grid


def switching_points(curves) -> list[SwitchPoint]:
    """Crossings between adjacent curves in the given (envelope) order.

    For each pair, find the first grid cell where the later curve
    overtakes the earlier one and place the crossing by linear
    interpolation.  Pairs that never cross inside the grid are omitted.
    """
    grid = _common_grid(curves)
    points: list[SwitchPoint] = []
    for cur, nxt in zip(curves, curves[1:]):
        diff = nxt.values - cur.values
        ups = _crossings(diff)
        if ups.size:
            i = ups[0] + 1
            frac = -diff[i - 1] / (diff[i] - diff[i - 1])
            f_sw = grid[i - 1] + frac * (grid[i] - grid[i - 1])
            points.append(SwitchPoint(cur.label, nxt.label, float(f_sw)))
    return points


def optimal_envelope(curves) -> tuple[np.ndarray, list[str]]:
    """Pointwise best efficiency and the active plan per grid point.

    Exact ties go to the later plan in the given order (the sequence with
    the larger k in play), keeping k as stable as possible across a switch.
    """
    _common_grid(curves)
    stacked = np.vstack([c.values for c in curves])
    # reversed argmax so that ties resolve to the later curve
    rev_best = np.argmax(stacked[::-1], axis=0)
    best = len(curves) - 1 - rev_best
    values = stacked[best, np.arange(stacked.shape[1])]
    names = [c.label for c in curves]
    labels = [names[i] for i in best.tolist()]
    return values, labels
