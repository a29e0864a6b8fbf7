"""The array kernels as whole expressions, one new array per operation.

``decoder.eval_qec_map`` and ``werner.swap_fidelity_uniform`` accumulate
their terms in place to keep few temporaries alive.  These are the same
sums written out as single expressions, in the same operation order, so
the tests can hold the in-place kernels to the same bits.  Nothing here
checks its input range; the callers pass values in [0, 1].
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


def swap_fidelity_uniform(f, n_swaps):
    """F_eff = 1/4 + 3/4 ((4F-1)/3)^(n_swaps+1)."""
    w = (4.0 * np.asarray(f, dtype=float) - 1.0) / 3.0
    return _scalar(0.25 + 0.75 * w ** (n_swaps + 1))


def run_chain(plan, f, polynomial):
    """The chain on the whole input at once: each round's map, then its
    swaps; ``polynomial(name)`` gives a round's code polynomial."""
    for code_name, n_qs in zip(plan.rounds, plan.swap_counts):
        if code_name is not SKIP:
            f = eval_qec_map(polynomial(code_name), f)
        f = swap_fidelity_uniform(f, n_qs)
    return f
