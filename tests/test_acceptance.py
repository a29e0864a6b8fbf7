"""End-to-end acceptance checks, one per headline result.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failure reads as the missing criterion.  Tolerances are fixed
here and nowhere else.
"""

import math
import random
import time

import numpy as np
import pytest

import identity_oracle
from circuit_oracle import circuit_oracle
from closed_form_oracle import bbpssw_closed_form
from entdist.convergence import check_identities, iterate
from entdist.decoder import builtin_polynomial, eval_qec_map
from entdist.efficiency import protocol_curves, switching_points
from entdist.hybrid import builtin_threshold, checkpoint_scan, pseudo_threshold
from entdist.purify import (
    PROTOCOLS,
    PauliDistribution,
    purify_step,
    run_rounds,
)
from entdist.werner import distillable_entanglement
from entdist.chain import ChainPlan, rate_accounting

REFERENCE_SWITCH_POINTS = {
    1: (0.9343, 0.9356, 0.9655),
    3: (0.9465, 0.9474, 0.9717),
    5: (0.9524, 0.9532, 0.9747),
}


def report(criterion, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"PASS  criterion {criterion}{suffix}")


def test_criterion_01_switching_points_match_table():
    start = time.monotonic()
    worst = 0.0
    for n_rep, expected in REFERENCE_SWITCH_POINTS.items():
        points = switching_points(protocol_curves(n_rep))
        assert len(points) == 3, f"missing crossings for {n_rep} repeaters"
        for point, ref in zip(points, expected):
            worst = max(worst, abs(point.fidelity - ref))
            assert abs(point.fidelity - ref) <= 3e-3, (n_rep, point, ref)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(1, f"nine switch points within {worst:.2e} of reference, {elapsed:.1f}s")


def test_criterion_02_pseudo_threshold_933():
    thr = pseudo_threshold(builtin_polynomial("933"))
    assert 0.9543 <= thr <= 0.9583
    report(2, f"fixed point at {thr:.6f}")


def test_criterion_03_hashing_threshold_location():
    f0 = 0.81071
    assert distillable_entanglement(f0 - 1e-4) < 0.0 < distillable_entanglement(f0 + 1e-4)
    lo, hi = 0.75, 0.9
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if distillable_entanglement(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - f0) < 1e-4
    report(3, f"sign change at {0.5 * (lo + hi):.6f}")


def test_criterion_04_reference_trace_numbers():
    cases = [
        ("dejmps", False, 2, 0.688616, 0.65661),
        ("dejmps", False, 3, 0.77193, 0.78774),
        ("bbpssw", True, 2, 0.644639, 0.621285),
        ("bbpssw", True, 3, 0.67288, 0.758215),
    ]
    for protocol, twirled, i, f_ref, discard_ref in cases:
        trace = run_rounds(protocol, i, f_in=0.6, twirled=twirled)
        assert abs(trace.fidelity_after(i) - f_ref) < 1e-4, (protocol, i)
        assert abs(trace.rounds[-1].p_total_discard - discard_ref) < 1e-4, (protocol, i)
    report(4, "all four fidelity/discard pairs within 1e-4")


def test_criterion_05_closed_form_on_grid():
    worst = 0.0
    for f in np.linspace(0.01, 1.0, 100):
        step = purify_step("bbpssw", PauliDistribution.from_fidelity(float(f)))
        ref, _ = bbpssw_closed_form(float(f))
        worst = max(worst, abs(step.dist.fidelity - ref))
    assert worst < 1e-12
    report(5, f"max deviation {worst:.2e} over 100 points")


def test_criterion_06_oracle_equivalence():
    rng = random.Random(424242)
    worst = 0.0
    for _ in range(200):
        values = [rng.random() for _ in range(4)]
        total = sum(values)
        dist = PauliDistribution(*(v / total for v in values))
        for protocol in PROTOCOLS:
            a = purify_step(protocol, dist)
            b = circuit_oracle(protocol, dist)
            worst = max(
                worst,
                abs(a.p_discard - b.p_discard),
                max(abs(x - y) for x, y in zip(a.raw, b.raw)),
            )
    assert worst < 1e-12
    report(6, f"200 random distributions, max deviation {worst:.2e}")


def test_criterion_07_protocol_fidelity_ordering():
    grid = np.linspace(0.505, 0.995, 50)
    violations = 0
    for f in grid:
        f = float(f)
        fids = {
            (p, tw): run_rounds(p, 5, f_in=f, twirled=tw).fidelities
            for p in PROTOCOLS
            for tw in (False, True)
        }
        for i in range(2, 6):
            dn = fids[("dejmps", False)][i]
            dt = fids[("dejmps", True)][i]
            bt = fids[("bbpssw", True)][i]
            bn = fids[("bbpssw", False)][i]
            ordered = dn >= dt >= f >= bn and abs(dt - bt) < 1e-12
            violations += 0 if ordered else 1
    assert violations == 0
    report(7, "0 violations over 50 points x rounds 2-5")


def test_criterion_08_convergence_limits():
    rng = random.Random(20240603)
    starts = []
    while len(starts) < 10:
        a = rng.uniform(0.55, 0.95)
        cuts = sorted((rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
        rest = 1.0 - a
        start = (a, rest * cuts[0], rest * (cuts[1] - cuts[0]), rest * (1.0 - cuts[1]))
        if min(start) > 0.0:
            starts.append(start)
    for start in starts:
        tb = iterate("bbpssw", start, 60)
        td = iterate("dejmps", start, 60)
        assert abs(tb.a[-1] - 0.5) < 1e-6, start
        assert abs(td.a[-1] - 1.0) < 1e-6, start
    trace = iterate("bbpssw", (0.6, 0.4 / 3, 0.4 / 3, 0.4 / 3), 40)
    checks = {c.name: c for c in check_identities(trace)}
    assert checks["u_doubling"].passed and checks["q_squaring"].passed
    ref = identity_oracle.check_identities(trace)
    assert ref.u_doubling_max_rel <= 1e-10 and ref.u_doubling_checked >= 9
    steps = len(identity_oracle._finite_prefix(trace.u)) - 1
    assert checks["u_doubling"].detail.endswith(f" over {steps} steps")
    report(8, f"10 starts converged; u-doubling {checks['u_doubling'].detail}")


def test_criterion_09_rate_accounting_exact():
    from fractions import Fraction

    p1 = rate_accounting(ChainPlan(1, ("913",) * 3))
    p4 = rate_accounting(ChainPlan(1, ("923",) * 3))
    assert p1.rate == Fraction(1, 1458)
    assert p4.rate == Fraction(8, 1458)
    report(9, "P1 = 1/1458 and P4 = 8/1458 in exact integers")


def test_criterion_10_probability_conservation():
    from entdist.decoder import _weights

    worst_qec = 0.0
    for name in ("913", "923", "933"):
        w = _weights(9)
        for f in (0.3, 0.7, 0.95):
            total = float(np.sum(f ** (9 - w) * ((1.0 - f) / 3.0) ** w))
            worst_qec = max(worst_qec, abs(total - 1.0))
    assert worst_qec < 1e-12
    worst_1g = 0.0
    rng = random.Random(5)
    for _ in range(100):
        values = [rng.random() for _ in range(4)]
        total = sum(values)
        dist = PauliDistribution(*(v / total for v in values))
        for protocol in PROTOCOLS:
            step = purify_step(protocol, dist)
            worst_1g = max(worst_1g, abs(sum(step.raw) + step.p_discard - 1.0))
    assert worst_1g < 1e-15
    report(10, f"QEC sums off by {worst_qec:.1e}; 1G rounds off by {worst_1g:.1e}")


def test_criterion_11_hybrid_round_gap():
    scan = checkpoint_scan("933")
    assert len(scan) == 10000
    gaps = [p.i_match - p.i_pre for p in scan if p.i_match is not None]
    assert len(gaps) == len(scan)  # defined everywhere on the scan grid
    counts = {g: gaps.count(g) for g in set(gaps)}
    assert set(counts) <= {1, 2}, counts
    assert counts.get(1, 0) > len(gaps) / 2
    report(11, f"gap histogram {counts}")
