"""The array kernels as whole expressions, one new array per operation.

``decoder.eval_qec_map`` and ``werner.swap_fidelity_uniform`` accumulate
their terms in place to keep few temporaries alive.  These are the same
sums written out as single expressions, in the same operation order, so
the tests can hold the in-place kernels to the same bits.  Nothing here
checks its input range; the callers pass values in [0, 1].

``distillable_entanglement`` is D_H with both F log F terms guarded by
continuity: the reference for any rewrite of
``werner.distillable_entanglement`` that drops a guard its (0, 1] range
check makes dead.
"""

import numpy as np

from entdist.chain import SKIP
from entdist.werner import _scalar


def eval_qec_map(poly, f_in):
    """F_out = sum_w A_w F^(n-w) ((1-F)/3)^w, accumulated term by term
    from zero."""
    f = np.asarray(f_in, dtype=float)
    e = (1.0 - f) / 3.0
    out = np.zeros_like(f)
    for w, a in enumerate(poly.counts):
        if a:
            out = out + a * f ** (poly.n - w) * e**w
    return _scalar(out)


def distillable_entanglement(f):
    """D_H = 1 + F log2 F + (1-F) log2((1-F)/3), each term 0 where its
    factor is 0."""
    f = np.asarray(f, dtype=float)
    g = 1.0 - f
    with np.errstate(divide="ignore", invalid="ignore"):
        term_f = np.where(f > 0.0, f * np.log2(np.where(f > 0.0, f, 1.0)), 0.0)
        term_g = np.where(g > 0.0, g * np.log2(np.where(g > 0.0, g / 3.0, 1.0)), 0.0)
    return _scalar(1.0 + term_f + term_g)


def swap_fidelity_uniform(f, n_swaps):
    """F_eff = 1/4 + 3/4 w^k, w = (4F-1)/3 and k = n_swaps + 1; from k = 3
    on, w^k is |w|^k with the sign of w put back for odd k."""
    w = (4.0 * np.asarray(f, dtype=float) - 1.0) / 3.0
    k = n_swaps + 1
    if k < 3:
        power = w**k
    elif k % 2:
        power = np.copysign(np.abs(w) ** k, w)
    else:
        power = np.abs(w) ** k
    return _scalar(0.25 + 0.75 * power)


def run_chain(plan, f, polynomial):
    """The chain on the whole input at once: each round's map, then its
    swaps; ``polynomial(name)`` gives a round's code polynomial."""
    for code_name, n_qs in zip(plan.rounds, plan.swap_counts):
        if code_name is not SKIP:
            f = eval_qec_map(polynomial(code_name), f)
        f = swap_fidelity_uniform(f, n_qs)
    return f
