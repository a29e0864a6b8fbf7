"""Scalar strategy oracle for the array scan in ``entdist.hybrid``.

``checkpoint_scan`` scores every grid point at once, from DEJMPS tables
and first-row searches.  These functions score one point at a time, from
the float DEJMPS trace and a linear search, so the hybrid tests compare
each scan column with them bit for bit.  They read the trace, the search
and ``MAX_ROUNDS`` through ``entdist.hybrid``, so a test that patches
``hybrid.MAX_ROUNDS`` shortens both paths.
"""

from entdist.hybrid import BASELINE_D, _dejmps, _first_at_least, _refined, _unreachable
from entdist.werner import _in_range, distillable_entanglement


def baseline_distillable(f_in: float) -> tuple[float, int]:
    """Denominator for the refined efficiency: D after the minimum number
    of DEJMPS rounds lifting it to at least ``BASELINE_D`` (zero rounds
    when already there).  Returns (D, rounds used)."""
    d0 = distillable_entanglement(f_in)
    if d0 >= BASELINE_D:
        return d0, 0
    ds = distillable_entanglement([f for f, _ in _dejmps(f_in)]).tolist()
    i = _first_at_least(ds, BASELINE_D)
    if i is None:
        raise _unreachable(f"distillable entanglement {BASELINE_D}", f_in)
    return ds[i], i


def refined_efficiency(
    f_in: float, f_out: float, output_ratio: float, p_total_discard: float
) -> float:
    """E of a strategy taking fidelity ``f_in`` to ``f_out`` with n_out/n_in
    = ``output_ratio`` and total discard probability ``p_total_discard``."""
    _in_range(output_ratio, what="output_ratio")
    _in_range(p_total_discard, what="p_total_discard")
    d_base, _ = baseline_distillable(f_in)
    return float(_refined(output_ratio, f_out, d_base, p_total_discard))
