"""Closed-form Werner-state algebra.

Fidelity F and Werner parameter W are related by F = (3W+1)/4.  Entanglement
swaps multiply Werner parameters, and the one-way-hashing distillable
entanglement D_H(F) = 1 + F log2 F + (1-F) log2((1-F)/3) is the quality
measure everything downstream is scored in.  D_H is returned unclamped
(it is negative below the hashing threshold); callers that need a floor
clamp it themselves.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache, wraps

import numpy as np

__all__ = [
    "distillable_entanglement",
    "swap_fidelity_uniform",
    "hashing_threshold",
]


def _in_range(x, what="fidelity"):
    """``x`` as a float array; raises unless every entry lies in [0, 1].
    The test is negated, so that NaN fails it too."""
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValueError(f"{what} must lie in [0, 1]")
    return x


def _check_count(n, what, least=0):
    """Raises unless ``n`` is a whole number >= ``least``.  The test is
    negated, so that NaN fails it too; inf fails it before ``int`` sees it.
    Returns ``int(n)``, so that 3.0 counts as 3."""
    if not (least <= n < math.inf and n == int(n)):
        raise ValueError(f"{what} must be >= {least} and whole, got {n}")
    return int(n)


def _scalar(out):
    """A 0-d result as a float; arrays pass through."""
    return float(out) if out.ndim == 0 else out


# Points per block of a _blocked kernel: the five float64 arrays a term
# keeps alive take 1.25 MiB, which fits a 2 MiB L2.  Each exceeds glibc's
# default 128 KiB mmap threshold, which glibc raises at the first free.
_BLOCK = 32768


# Threads in a _blocked kernel's pool: one per CPU in the process's affinity
# mask, read once at import.  With one CPU one worker runs the blocks serially.
try:
    _THREADS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity masks on this platform
    _THREADS = os.cpu_count() or 1


def _blocked(kernel):
    """``kernel(arg, f)`` over an array ``f`` of more than ``_BLOCK`` points,
    evaluated in ``_BLOCK``-point blocks on a pool of ``_THREADS`` threads,
    each free thread taking the next block: numpy's loops release the GIL.
    A block spreads numpy's per-call cost over many points while its
    temporaries stay in L2.  Exact, because the kernels are elementwise and
    block ``i`` writes ``out[i : i + _BLOCK]`` on whatever thread; scalars,
    lists and small arrays go straight through.  Results are read in block
    order, so the first failing block's error is raised, as the serial loop
    would raise it, once every thread has joined."""

    @wraps(kernel)
    def blocked(arg, f):
        if not isinstance(f, np.ndarray) or f.size <= _BLOCK:
            return kernel(arg, f)
        from concurrent.futures import ThreadPoolExecutor  # lazily: it loads logging (~6 ms)

        flat = f.astype(float, copy=False).ravel()
        out = np.empty_like(flat)
        # A new thread starts from numpy's default error state (numpy >= 2
        # keeps it in a context variable, older numpy per thread), so each
        # block runs under the caller's.
        err, call = np.geterr(), np.geterrcall()

        def block(i):
            with np.errstate(call=call, **err):
                out[i : i + _BLOCK] = kernel(arg, flat[i : i + _BLOCK])

        with ThreadPoolExecutor(_THREADS) as pool:
            list(pool.map(block, range(0, flat.size, _BLOCK)))
        return out.reshape(f.shape)

    return blocked


def _crossings(g):
    """Indices i of the cells [i, i + 1] of a sampled ``g`` where it goes
    from <= 0 to > 0."""
    return np.flatnonzero((g[:-1] <= 0.0) & (g[1:] > 0.0))


def _root(g, grid, tol, what):
    """Root of ``g`` in the last cell of ``grid`` where ``g`` goes from <= 0
    to > 0: the midpoint of that cell shrunk below ``tol`` by bisection,
    ``g(mid) < 0`` moving its left end and anything else its right."""
    grid = np.asarray(grid, dtype=float)
    ups = _crossings(g(grid))
    if not ups.size:
        raise ValueError(f"no {what} inside [{grid[0]}, {grid[-1]}]")
    lo, hi = float(grid[ups[-1]]), float(grid[ups[-1] + 1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def distillable_entanglement(f):
    """Hashing-bound yield D_H in ebits per pair; may be negative.

    Defined for 0 < F <= 1.  The (1-F) term is 0 at F = 1; elsewhere
    1 - F >= 2^-53, so no log sees 0 and (1-F)/3 never underflows.  A float
    runs the array's steps in Python floats, 0-d ``np.log2`` and all: its bits.
    """
    if isinstance(f, float) and 0.0 < f <= 1.0:  # out of range, the array path raises
        f = float(f)  # a numpy float64 too
        g = 1.0 - f
        return 1.0 + f * float(np.log2(f)) + g * float(np.log2(g / 3.0 if g > 0.0 else 1.0))
    f = np.asarray(f, dtype=float)
    if not ((f > 0.0) & (f <= 1.0)).all():  # negated, so that NaN fails it too
        raise ValueError("fidelity must lie in (0, 1]")
    g = 1.0 - f
    return _scalar(1.0 + f * np.log2(f) + g * np.log2(np.where(g > 0.0, g / 3.0, 1.0)))


def swap_fidelity_uniform(f, n_swaps: int):
    """Uniform-fidelity form: n_swaps swaps join n_swaps+1 equal links,
    F_eff = 1/4 + 3/4 * w^(n_swaps+1), with Werner parameter
    w = (4F-1)/3.  n_swaps = 0 is the identity.

    From the cube on, the power is taken of |w| and the sign put back for
    odd exponents: numpy's SIMD power loop sends every negative base to a
    scalar fallback about ten times slower.  Against plain ``w ** k`` this
    differs only on array lanes with w < 0 (F < 1/4), in about 5% of them
    and by 1 ulp of the power.  A scalar runs the C library's ``pow``,
    which already takes |w|, so its bits are those of ``w ** k``.  On
    w < 0 lanes a scalar power therefore differs from the array's about
    as often as on w > 0 lanes (about 5% of points).  Identity and square
    run without ``pow``, so they stay ``w ** k``."""
    k = _check_count(n_swaps, "swap count") + 1
    w = 4.0 * _in_range(f)  # a new array or scalar, so in place from here
    w -= 1.0
    w /= 3.0
    if k < 3:
        w = w**k
    else:
        p = np.abs(w) ** k
        w = np.copysign(p, w) if k % 2 else p
    w *= 0.75
    w += 0.25
    return _scalar(w)


@lru_cache(maxsize=1)
def hashing_threshold() -> float:
    """Fidelity at which D_H crosses zero (about 0.8107), by bisection
    to 1e-12."""
    return _root(distillable_entanglement, [0.75, 0.9], 1e-12, "zero of D_H")
