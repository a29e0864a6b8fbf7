"""Loop-based identity checks for the array ones in ``entdist.convergence``.

They walk the trace one step at a time in Python floats and return one
report with every measured number, as the package did before its checks
became named results.  They share no code with the package (they read
only the trace), so the convergence tests use them as an independent
second path.  Past the float range the BBPSSW u-doubling is compared in
log space, a branch the package dropped.
"""

import math
from dataclasses import dataclass

import numpy as np

_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class IdentityReport:
    """BBPSSW fields: ``u_doubling_*`` compares u_n against u_0^(2^n) while
    that target is representable (and in log space past that point),
    ``q_squaring_max_abs`` is the worst |q_{n+1} - q_n^2|.  DEJMPS fields:
    ``eventual_increase_m`` is the smallest lag m <= 10 with
    u_{n+m} > u_n throughout (None = counterexample candidate), and
    ``bc_final`` is the last b + c."""

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


def check_identities(trace) -> IdentityReport:
    if trace.protocol == "bbpssw":
        return _check_bbpssw(trace)
    return _check_dejmps(trace)


def _finite_prefix(u):
    finite = np.isfinite(u)
    stop = len(u) if finite.all() else int(np.argmin(finite))
    return u[:stop]


def _check_bbpssw(trace) -> IdentityReport:
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
            max_log_rel = max(max_log_rel, abs(math.log(u[n]) - target_log) / target_log)
    q = _finite_prefix(trace.q).tolist()
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
