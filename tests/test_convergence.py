import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import identity_oracle as oracle
from entdist.convergence import check_identities, iterate
from entdist.purify import PauliDistribution, run_rounds


def random_start(rng):
    a = rng.uniform(0.55, 0.95)
    cuts = sorted((rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
    rest = 1.0 - a
    return (a, rest * cuts[0], rest * (cuts[1] - cuts[0]), rest * (1.0 - cuts[1]))


STARTS = [random_start(random.Random(seed)) for seed in range(10)]


def test_hypothesis_validation():
    with pytest.raises(ValueError, match="a_0"):
        iterate("bbpssw", (0.5, 0.2, 0.2, 0.1), 5)
    with pytest.raises(ValueError, match="strictly positive"):
        iterate("bbpssw", (0.7, 0.0, 0.2, 0.1), 5)
    with pytest.raises(ValueError, match="sum"):
        iterate("bbpssw", (0.7, 0.2, 0.2, 0.2), 5)
    with pytest.raises(ValueError, match="protocol"):
        iterate("nope", (0.6, 0.2, 0.1, 0.1), 5)
    with pytest.raises(ValueError, match="n_max"):
        iterate("bbpssw", (0.6, 0.2, 0.1, 0.1), 0)
    with pytest.raises(ValueError, match="sum"):
        iterate("bbpssw", (math.nan, 0.2, 0.1, 0.1), 5)


def test_normalization_preserved():
    for protocol in ("bbpssw", "dejmps"):
        trace = iterate(protocol, (0.6, 0.4 / 3, 0.4 / 3, 0.4 / 3), 40)
        total = trace.a + trace.b + trace.c + trace.d
        assert np.max(np.abs(total - 1.0)) < 1e-14
        assert np.min([trace.a, trace.b, trace.c, trace.d]) >= 0.0


def test_bbpssw_limit_half_half():
    for start in STARTS:
        trace = iterate("bbpssw", start, 60)
        assert abs(trace.a[-1] - 0.5) < 1e-6
        assert abs(trace.d[-1] - 0.5) < 1e-6
        assert trace.b[-1] < 1e-6 and trace.c[-1] < 1e-6


def test_dejmps_limit_one_zero():
    for start in STARTS:
        trace = iterate("dejmps", start, 60)
        assert abs(trace.a[-1] - 1.0) < 1e-6
        assert trace.d[-1] < 1e-6


def test_perfect_start_is_fixed_point_of_map():
    # (1,0,0,0) violates the iterate() hypotheses but is the map's fixed
    # point; check through the purification module which allows it
    for protocol in ("bbpssw", "dejmps"):
        trace = run_rounds(protocol, 5, dist=PauliDistribution(1.0, 0.0, 0.0, 0.0))
        assert trace.fidelities == (1.0,) * 6


def checks_by_name(trace):
    checks = check_identities(trace)
    assert all(type(c.passed) is bool and type(c.detail) is str for c in checks)
    return {c.name: c for c in checks}


def test_bbpssw_u_doubling_identity():
    trace = iterate("bbpssw", (0.6, 0.4 / 3, 0.4 / 3, 0.4 / 3), 40)
    checks = checks_by_name(trace)
    assert list(checks) == ["u_doubling", "q_squaring"]
    assert checks["u_doubling"].passed and checks["q_squaring"].passed
    ref = oracle.check_identities(trace)
    assert ref.u_doubling_max_rel <= 1e-10 and ref.q_squaring_max_abs <= 1e-12
    assert ref.u_doubling_checked >= 9  # representable through n = 9 here
    steps = len(oracle._finite_prefix(trace.u)) - 1
    assert checks["u_doubling"].detail.endswith(f" over {steps} steps")


def test_bbpssw_u_doubling_near_one():
    # u_0 = 1 + 8e-6: u_0^(2^n) amplifies the rounding of u_0 by 2^n, which
    # a relative test against it reads as a failure; the log rate does not
    trace = iterate("bbpssw", (0.500001, 0.249999, 0.249999, 0.000001), 50)
    checks = checks_by_name(trace)
    assert checks["u_doubling"].passed, checks["u_doubling"].detail
    assert not oracle.check_identities(trace).u_doubling_ok  # the relative test fails here


def test_bbpssw_u_doubling_fails_on_perturbed_trace():
    for start in [(0.6, 0.4 / 3, 0.4 / 3, 0.4 / 3), (0.500001, 0.249999, 0.249999, 0.000001)]:
        trace = iterate("bbpssw", start, 50)
        u = trace.u.copy()
        u[5] *= 1.0 + 1e-6
        assert not checks_by_name(dataclasses.replace(trace, u=u))["u_doubling"].passed


def test_bbpssw_u_doubling_fails_when_u0_overflows():
    # b_0 = c_0 = 5e-324 meet the hypotheses, but u_0 = s/t overflows to inf,
    # so the finite prefix of u is empty
    trace = iterate("bbpssw", (0.9999999, 5e-324, 5e-324, 1e-7), 5)
    assert math.isinf(trace.u[0])
    doubling = checks_by_name(trace)["u_doubling"]
    assert not doubling.passed
    assert doubling.detail == "u_0 is not finite: 0 steps checked"


def test_bbpssw_q_squaring_reads_past_the_finite_prefix_of_u():
    # q stays finite where u overflows, so q_squaring checks every step of q:
    # all 5 when u_0 is inf, and a bad q_20 long after u overflowed
    trace = iterate("bbpssw", (0.9999999, 5e-324, 5e-324, 1e-7), 5)
    squaring = checks_by_name(trace)["q_squaring"]
    assert squaring.passed and squaring.detail.endswith(" over 5 steps")
    trace = iterate("bbpssw", (0.6, 0.4 / 3, 0.4 / 3, 0.4 / 3), 50)
    assert not np.isfinite(trace.u[20])
    q = trace.q.copy()
    q[20] += 1e-9
    assert not checks_by_name(dataclasses.replace(trace, q=q))["q_squaring"].passed


def test_bbpssw_q_monotone_to_zero():
    for start in STARTS[:5]:
        trace = iterate("bbpssw", start, 40)
        q = trace.q[np.isfinite(trace.q)]
        assert np.all(np.diff(q) <= 1e-15)
        assert q[-1] < 1e-8


def test_bbpssw_t_decreases_below_1e8_by_30():
    for start in STARTS:
        trace = iterate("bbpssw", start, 30)
        # strictly decreasing until it underflows to exactly zero
        positive = trace.t > 0.0
        assert np.all(np.diff(trace.t[positive]) < 0.0)
        assert np.all(trace.t[~positive] == 0.0)
        assert trace.t[-1] < 1e-8


def test_dejmps_first_round_keeps_majority():
    rng = random.Random(7)
    for _ in range(100):
        start = random_start(rng)
        trace = iterate("dejmps", start, 1)
        assert trace.a[1] > 0.5


def test_dejmps_case_three_example():
    # u_1 can fall below u_0^2 (third case), yet the sequence still diverges
    trace = iterate("dejmps", (0.7, 0.1, 0.1, 0.1), 25)
    assert trace.u[1] < trace.u[0] ** 2
    checks = checks_by_name(trace)
    assert list(checks) == ["eventual_increase", "u_diverges"]
    assert checks["eventual_increase"].passed and checks["u_diverges"].passed
    m = oracle.check_identities(trace).eventual_increase_m
    assert m is not None and m <= 10
    assert checks["eventual_increase"].detail.startswith(f"smallest lag m = {m} ")
    assert trace.b[-1] + trace.c[-1] < 1e-8
    assert not math.isfinite(trace.u[-1]) or trace.u[-1] > 1e6


def test_dejmps_identities_on_random_starts():
    for start in STARTS:
        checks = check_identities(iterate("dejmps", start, 40))
        assert all(c.passed for c in checks), (start, checks)


@st.composite
def starts(draw):
    """(a, b, c, d) with a > 1/2, the rest strictly positive, sum 1."""
    a = draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    weights = [draw(st.floats(1e-3, 1.0)) for _ in range(3)]
    rest = 1.0 - a
    return (a, *(rest * w / sum(weights) for w in weights))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["bbpssw", "dejmps"]), starts(), st.integers(1, 200))
def test_checks_agree_with_loop_oracle(protocol, start, n):
    trace = iterate(protocol, start, n)
    checks = checks_by_name(trace)
    ref = oracle.check_identities(trace)
    if ref.ok:
        assert all(c.passed for c in checks.values())
    if protocol == "bbpssw":
        # every drawn trace is correct; the oracle's relative u test may
        # still fail it near u_0 = 1, the log-rate check may not
        assert checks["u_doubling"].passed, checks["u_doubling"].detail
        steps = len(oracle._finite_prefix(trace.u)) - 1
        assert checks["u_doubling"].detail.endswith(f" over {steps} steps")
        assert checks["q_squaring"].passed == ref.q_squaring_ok
    else:
        assert all(c.passed for c in checks.values()) == ref.ok
        assert checks["eventual_increase"].passed == (ref.eventual_increase_m is not None)


def test_trace_matches_purification_module():
    for protocol in ("bbpssw", "dejmps"):
        for start in STARTS[:5]:
            trace = iterate(protocol, start, 25)
            ref = run_rounds(protocol, 25, dist=PauliDistribution(*start))
            for i, record in enumerate(ref.rounds, start=1):
                got = (trace.a[i], trace.b[i], trace.c[i], trace.d[i])
                assert max(
                    abs(x - y) for x, y in zip(got, record.dist.as_tuple())
                ) < 1e-15


def test_whole_float_step_count_runs():
    start = (0.7, 0.1, 0.1, 0.1)
    trace, ref = iterate("dejmps", start, 2.0), iterate("dejmps", start, 2)
    assert len(trace.a) == 3
    for field in dataclasses.fields(trace):
        assert np.array_equal(getattr(trace, field.name), getattr(ref, field.name))


def test_sequence_definitions():
    trace_b = iterate("bbpssw", (0.6, 0.1, 0.15, 0.15), 5)
    assert np.allclose(trace_b.s, trace_b.a + trace_b.d)
    assert np.allclose(trace_b.t, trace_b.b + trace_b.c)
    trace_d = iterate("dejmps", (0.6, 0.1, 0.15, 0.15), 5)
    assert np.allclose(trace_d.s, trace_d.a + trace_d.c)
    assert np.allclose(trace_d.t, trace_d.b + trace_d.d)
    for trace in (trace_b, trace_d):
        assert np.allclose(trace.u[:3], trace.s[:3] / trace.t[:3])
        assert np.allclose(trace.r[:3], trace.d[:3] / trace.a[:3])
        assert np.allclose(trace.q[:3], (1 - trace.r[:3]) / (1 + trace.r[:3]))
