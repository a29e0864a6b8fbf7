"""Closed forms for the Werner-state special cases of ``entdist``.

The twirled BBPSSW round has a closed-form fidelity recurrence, and a swap
of unequal Werner links multiplies their Werner parameters.  The package
evaluates neither form (it runs the general recurrence and the uniform
swap), so the tests use them as independent second paths.
"""

from entdist.werner import _in_range


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


def bbpssw_closed_form(f: float) -> tuple[float, float]:
    """Werner-fidelity recurrence for one twirled round and its discard.

    Returns (F_out, P_discard) with
    F_out = (F^2 + (1-F)^2/9) / (F^2 + 2F(1-F)/3 + 5(1-F)^2/9); the
    denominator is the keep probability.
    """
    _in_range(f)
    g = 1.0 - f
    num = f * f + g * g / 9.0
    den = f * f + 2.0 * f * g / 3.0 + 5.0 * g * g / 9.0
    return num / den, 1.0 - den
