"""Scalar strategy oracle for ``entdist.hybrid``.

``checkpoint_scan`` scores every grid point at once, from array walks of
DEJMPS and first-round searches.  These functions score one point at a
time, from the float DEJMPS trace and a linear search, so the hybrid
tests compare each scan column with them bit for bit.
``whole_walk_hybrid_run`` is ``hybrid_run`` taking the whole trace before
it searches, the reference for the package's walk that stops at its
answer.  They read the trace, the search and ``MAX_ROUNDS`` through
``entdist.hybrid``, so a test that patches ``hybrid.MAX_ROUNDS`` shortens
every path.
"""

from entdist.codes import builtin_code
from entdist.decoder import builtin_polynomial, eval_qec_map
from entdist.hybrid import (
    BASELINE_D,
    HybridResult,
    _dejmps,
    _first_at_least,
    _refined,
    _unreachable,
    builtin_threshold,
)
from entdist.werner import _in_range, distillable_entanglement


def whole_walk_hybrid_run(f_in: float, code_name: str = "933") -> HybridResult:
    """``hybrid_run`` over all ``MAX_ROUNDS`` + 1 pairs of the DEJMPS walk,
    taken before either search."""
    if not 0.0 <= f_in <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    code = builtin_code(code_name)
    poly = builtin_polynomial(code_name)
    threshold = builtin_threshold(code_name)
    fids, discards = zip(*_dejmps(f_in))
    i_pre = _first_at_least(fids, threshold)
    if i_pre is None:
        raise _unreachable(f"threshold {threshold:.6f}", f_in)
    # the Werner twirl keeps the fidelity, which is all the QEC map reads
    f_out = eval_qec_map(poly, fids[i_pre])
    p_total = discards[i_pre]
    rate = code.k / (2.0**i_pre * code.n) * (1.0 - p_total)
    i_match = _first_at_least(fids, f_out)
    return HybridResult(f_in, code.name, i_pre, fids[i_pre], f_out, rate, p_total, i_match)


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
