"""Closed-form Werner-state algebra.

Fidelity F and Werner parameter W are related by F = (3W+1)/4.  Entanglement
swaps multiply Werner parameters, and the one-way-hashing distillable
entanglement D_H(F) = 1 + F log2 F + (1-F) log2((1-F)/3) is the quality
measure everything downstream is scored in.  D_H is returned unclamped
(it is negative below the hashing threshold); callers that need a floor
clamp it themselves.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "fidelity_to_werner",
    "werner_to_fidelity",
    "distillable_entanglement",
    "swap_fidelity",
    "swap_fidelity_uniform",
    "hashing_threshold",
]


def _scalar_or_array(value, out):
    return float(out) if out.ndim == 0 else out


def fidelity_to_werner(f):
    f = np.asarray(f, dtype=float)
    if np.any(f < 0.0) or np.any(f > 1.0):
        raise ValueError("fidelity must lie in [0, 1]")
    return _scalar_or_array(f, (4.0 * f - 1.0) / 3.0)


def werner_to_fidelity(w):
    w = np.asarray(w, dtype=float)
    if np.any(w < -1.0 / 3.0) or np.any(w > 1.0):
        raise ValueError("Werner parameter must lie in [-1/3, 1]")
    return _scalar_or_array(w, (3.0 * w + 1.0) / 4.0)


def distillable_entanglement(f):
    """Hashing-bound yield D_H in ebits per pair; may be negative.

    Defined for 0 < F <= 1, with the F log F terms taken by continuity at
    the endpoints of the open interval.
    """
    f = np.asarray(f, dtype=float)
    if not ((f > 0.0) & (f <= 1.0)).all():  # negated, so that NaN fails it too
        raise ValueError("fidelity must lie in (0, 1]")
    g = 1.0 - f
    with np.errstate(divide="ignore", invalid="ignore"):
        term_f = np.where(f > 0.0, f * np.log2(np.where(f > 0.0, f, 1.0)), 0.0)
        term_g = np.where(g > 0.0, g * np.log2(np.where(g > 0.0, g / 3.0, 1.0)), 0.0)
    return _scalar_or_array(f, 1.0 + term_f + term_g)


def swap_fidelity(fidelities) -> float:
    """End-to-end fidelity after swapping a list of Werner links:
    Werner parameters multiply."""
    fids = [float(f) for f in fidelities]
    if not fids:
        raise ValueError("need at least one fidelity")
    w = 1.0
    for f in fids:
        if not 0.0 <= f <= 1.0:
            raise ValueError("fidelity must lie in [0, 1]")
        w *= (4.0 * f - 1.0) / 3.0
    return 0.25 + 0.75 * w


def swap_fidelity_uniform(f, n_swaps: int):
    """Uniform-fidelity form: n_swaps swaps join n_swaps+1 equal links,
    F_eff = 1/4 + 3/4 * ((4F-1)/3)^(n_swaps+1).  n_swaps = 0 is the
    identity."""
    if n_swaps < 0:
        raise ValueError("swap count must be nonnegative")
    f = np.asarray(f, dtype=float)
    if np.any(f < 0.0) or np.any(f > 1.0):
        raise ValueError("fidelity must lie in [0, 1]")
    w = (4.0 * f - 1.0) / 3.0
    return _scalar_or_array(f, 0.25 + 0.75 * w ** (n_swaps + 1))


@lru_cache(maxsize=1)
def hashing_threshold(tol: float = 1e-12) -> float:
    """Fidelity at which D_H crosses zero (about 0.8107), by bisection."""
    lo, hi = 0.75, 0.9
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if distillable_entanglement(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
