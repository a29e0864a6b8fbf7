"""Numerical verification of the no-twirl purification limits.

Iterates the BBPSSW / DEJMPS component recursions from a start satisfying
a_0 > 1/2, b_0, c_0, d_0 > 0, sum 1, and tracks the auxiliary sequences
used in the convergence analysis:

    BBPSSW:  s = a + d, t = b + c        DEJMPS:  s = a + c, t = b + d
    u = s/t,  r = d/a,  q = (1 - r)/(1 + r)

Both are s = a + z, t = b + y after the Y/Z relabeling of the purify map,
which for DEJMPS swaps c and d.

For BBPSSW (a, d) -> (1/2, 1/2); for DEJMPS u need not improve every step
but eventually grows without bound and (a, d) -> (1, 0).
:func:`check_identities` returns these as named checks
(:class:`~entdist.codes.CheckResult`), each on the finite prefix of the
sequence it reads:

    bbpssw  u_doubling         u_n = u_0^(2^n) in log rate:
                               |log(u_n)/2^n - log(u_0)| <= 1e-13;
                               fails when u_0 itself is not finite
            q_squaring         |q_{n+1} - q_n^2| <= 1e-12, over the finite
                               prefix of q (not of u)
    dejmps  eventual_increase  some lag m <= 10 with u_{n+m} > u_n throughout
            u_diverges         the last u (finite or not) is above 1e6

The eventual growth for DEJMPS is observed numerically, not proven, so a
failed ``eventual_increase`` marks a counterexample candidate instead of
an impossibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CheckResult
from .purify import _check_protocol, _recurrence
from .werner import _check_count

__all__ = ["ConvergenceTrace", "iterate", "check_identities"]


@dataclass(frozen=True)
class ConvergenceTrace:
    """Component and auxiliary sequences, index 0 = the start."""

    protocol: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    s: np.ndarray
    t: np.ndarray
    u: np.ndarray
    r: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return len(self.a)


def iterate(protocol: str, start, n_max: int) -> ConvergenceTrace:
    """Run the no-twirl recursion for ``n_max`` steps.

    ``start`` is (a_0, b_0, c_0, d_0); the convergence hypotheses are enforced:
    a_0 > 1/2, the rest strictly positive, components summing to 1.
    """
    protocol = _check_protocol(protocol)
    a0, b0, c0, d0 = (float(v) for v in start)
    if a0 <= 0.5:
        raise ValueError(f"hypothesis violated: a_0 = {a0} must exceed 1/2")
    if min(b0, c0, d0) <= 0.0:
        raise ValueError("hypothesis violated: b_0, c_0, d_0 must be strictly positive")
    total = a0 + b0 + c0 + d0
    if not abs(total - 1.0) <= 1e-9:  # negated, so that NaN fails it too
        raise ValueError(f"hypothesis violated: components sum to {total}, expected 1")
    n_max = _check_count(n_max, "n_max", least=1)

    start = (a0, b0, c0, d0)
    rows = np.array([start] + [comps for _, comps, _, _ in _recurrence(protocol, start, n_max)])
    a, b, c, d = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    y, z = (d, c) if protocol == "dejmps" else (c, d)
    s, t = a + z, b + y
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.where(t > 0.0, s / np.where(t > 0.0, t, 1.0), np.inf)
        r = np.where(a > 0.0, d / np.where(a > 0.0, a, 1.0), np.inf)
    q = (1.0 - r) / (1.0 + r)
    return ConvergenceTrace(protocol, a, b, c, d, s, t, u, r, q)


def check_identities(trace: ConvergenceTrace) -> tuple[CheckResult, ...]:
    """The protocol's two identity checks, each stating in its detail what
    it measured (see the module docstring)."""
    u = trace.u[np.logical_and.accumulate(np.isfinite(trace.u))]
    if trace.protocol == "bbpssw":
        if len(u):
            # dividing by 2^n undoes the 2^n growth of a rounding error in u_0,
            # which a relative test against u_0^(2^n) reads as a failure
            max_err = np.abs(np.log(u) * 0.5 ** np.arange(len(u)) - math.log(u[0])).max()
            doubling = CheckResult("u_doubling", bool(max_err <= 1e-13),
                                   f"max |log(u_n)/2^n - log(u_0)| = {max_err:.2g} "
                                   f"over {len(u) - 1} steps")
        else:
            doubling = CheckResult("u_doubling", False, "u_0 is not finite: 0 steps checked")
        q = trace.q[np.logical_and.accumulate(np.isfinite(trace.q))]
        res = np.abs(q[1:] - q[:-1] ** 2)
        max_res = res.max(initial=0.0)
        return (
            doubling,
            CheckResult("q_squaring", bool(max_res <= 1e-12),
                        f"max |q_(n+1) - q_n^2| = {max_res:.2g} over {res.size} steps"),
        )
    m = next((m for m in range(1, 11) if len(u) > m and (u[m:] > u[:-m]).all()), None)
    u_final = float(trace.u[-1])
    diverged = not u_final <= 1e6  # negated, so that NaN counts as diverged, as inf does
    return (
        CheckResult("eventual_increase", m is not None,
                    f"smallest lag m = {m} with u_(n+m) > u_n throughout" if m
                    else "no lag m <= 10 with u_(n+m) > u_n throughout"),
        CheckResult("u_diverges", diverged,
                    f"u_final = {u_final:g} is {'' if diverged else 'not '}above 1e6"),
    )
