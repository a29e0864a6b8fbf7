"""Numerical verification of the no-twirl purification limits.

Iterates the BBPSSW / DEJMPS component recursions from a start satisfying
a_0 > 1/2, b_0, c_0, d_0 > 0, sum 1, and tracks the auxiliary sequences
used in the convergence analysis:

    BBPSSW:  s = a + d, t = b + c        DEJMPS:  s = a + c, t = b + d
    u = s/t,  r = d/a,  q = (1 - r)/(1 + r)

For BBPSSW u and q square each step (u_n = u_0^(2^n), q_{n+1} = q_n^2) and
(a, d) -> (1/2, 1/2); for DEJMPS u need not improve every step but
eventually grows without bound and (a, d) -> (1, 0).  The eventual-growth
behavior for DEJMPS is observed numerically, not proven, so the checker
reports a counterexample candidate instead of asserting impossibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .purify import _check_protocol, _recurrence

__all__ = ["ConvergenceTrace", "IdentityReport", "iterate", "check_identities"]

_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)


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
    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    start = (a0, b0, c0, d0)
    rows = np.array([start] + [comps for _, _, comps, _, _ in _recurrence(protocol, start, n_max)])
    a, b, c, d = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    if protocol == "bbpssw":
        s, t = a + d, b + c
    else:
        s, t = a + c, b + d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.where(t > 0.0, s / np.where(t > 0.0, t, 1.0), np.inf)
        r = np.where(a > 0.0, d / np.where(a > 0.0, a, 1.0), np.inf)
    q = (1.0 - r) / (1.0 + r)
    return ConvergenceTrace(protocol, a, b, c, d, s, t, u, r, q)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the per-protocol sequence identities on one trace.

    BBPSSW fields: ``u_doubling_*`` compares u_n against u_0^(2^n) while
    that target is representable (and in log space past that point),
    ``q_squaring_max_abs`` is the worst |q_{n+1} - q_n^2|.  DEJMPS fields:
    ``eventual_increase_m`` is the smallest lag m <= 10 with
    u_{n+m} > u_n throughout (None = counterexample candidate), and
    ``bc_final`` is the last b + c.
    """

    protocol: str
    ok: bool
    u_doubling_ok: bool | None = None
    u_doubling_max_rel: float | None = None
    u_doubling_checked: int | None = None
    u_log_max_rel: float | None = None
    q_squaring_ok: bool | None = None
    q_squaring_max_abs: float | None = None
    eventual_increase_m: int | None = None
    u_final: float | None = None
    bc_final: float | None = None


def check_identities(trace: ConvergenceTrace) -> IdentityReport:
    """BBPSSW: u_n = u_0^(2^n) to 1e-10 relative (1e-8 in log space past
    the float range) and q_{n+1} = q_n^2 to 1e-12 absolute.  DEJMPS: some
    lag m <= 10 with u_{n+m} > u_n throughout, and u_final above 1e6."""
    if trace.protocol == "bbpssw":
        return _check_bbpssw(trace)
    return _check_dejmps(trace)


def _finite_prefix(u: np.ndarray) -> np.ndarray:
    finite = np.isfinite(u)
    stop = len(u) if finite.all() else int(np.argmin(finite))
    return u[:stop]


def _check_bbpssw(trace) -> IdentityReport:
    # Python floats throughout, so the report holds plain bool and float
    u = _finite_prefix(trace.u).tolist()
    log_u0 = math.log(u[0])
    max_rel = 0.0
    checked = 0
    max_log_rel = 0.0
    for n in range(len(u)):
        target_log = (2**n) * log_u0
        if target_log <= _LOG_MAX_DOUBLE:
            rel = abs(u[n] / math.exp(target_log) - 1.0)
            max_rel = max(max_rel, rel)
            checked += 1
        elif u[n] > 0.0:
            # past representability, compare in log space
            max_log_rel = max(max_log_rel, abs(math.log(u[n]) - target_log) / target_log)
    q = trace.q[: len(u)].tolist()
    q_res = 0.0
    for n in range(len(q) - 1):
        if math.isfinite(q[n]) and math.isfinite(q[n + 1]):
            q_res = max(q_res, abs(q[n + 1] - q[n] * q[n]))
    u_ok = max_rel <= 1e-10
    log_ok = max_log_rel <= 1e-8
    q_ok = q_res <= 1e-12
    return IdentityReport(
        protocol="bbpssw",
        ok=u_ok and log_ok and q_ok,
        u_doubling_ok=u_ok,
        u_doubling_max_rel=max_rel,
        u_doubling_checked=checked,
        u_log_max_rel=max_log_rel,
        q_squaring_ok=q_ok,
        q_squaring_max_abs=q_res,
    )


def _check_dejmps(trace) -> IdentityReport:
    u = _finite_prefix(trace.u)
    m_found = None
    for m in range(1, 11):
        if len(u) > m and all(u[i + m] > u[i] for i in range(len(u) - m)):
            m_found = m
            break
    u_final = float(trace.u[-1])
    bc_final = float(trace.b[-1] + trace.c[-1])
    diverged = (not math.isfinite(u_final)) or u_final > 1e6
    return IdentityReport(
        protocol="dejmps",
        ok=m_found is not None and diverged,
        eventual_increase_m=m_found,
        u_final=u_final,
        bc_final=bc_final,
    )
