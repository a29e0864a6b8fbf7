import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circuit_oracle import circuit_oracle
from closed_form_oracle import bbpssw_closed_form
from entdist.purify import PROTOCOLS, PauliDistribution, RoundRecord, _recurrence, _step, run_rounds


def random_distribution(rng):
    values = [rng.random() for _ in range(4)]
    total = sum(values)
    return PauliDistribution(*(v / total for v in values))


def one_round(protocol, dist):
    """The package's round on ``dist``, shaped like the circuit oracle's:
    survivors before renormalization, discard probability, and the
    renormalized distribution."""
    record = run_rounds(protocol, 1, dist=dist).rounds[0]
    return _step(protocol, *dist.as_tuple())[0], record.p_discard, record.dist


def test_perfect_input_is_fixed():
    for protocol in PROTOCOLS:
        record = run_rounds(protocol, 1, dist=PauliDistribution(1.0, 0.0, 0.0, 0.0)).rounds[0]
        assert record.p_discard == 0.0
        assert record.dist == PauliDistribution(1.0, 0.0, 0.0, 0.0)


def test_first_round_values_at_f06():
    for protocol in PROTOCOLS:
        record = run_rounds(protocol, 1, f_in=0.6).rounds[0]
        assert abs(record.dist.fidelity - 0.620438) < 1e-6
        assert abs(record.p_discard - 0.391111) < 1e-6


def test_half_fidelity_is_a_fixed_point():
    for protocol in PROTOCOLS:
        for record in run_rounds(protocol, 5, f_in=0.5).rounds:
            assert abs(record.dist.fidelity - 0.5) < 1e-12


def test_twirled_rounds_are_depolarized():
    # the twirl keeps each round's P_I and spreads the rest equally
    biased = PauliDistribution(0.7, 0.2, 0.05, 0.05)
    for protocol in PROTOCOLS:
        trace = run_rounds(protocol, 3, dist=biased, twirled=True)
        assert trace.fidelity_after(1) == run_rounds(protocol, 1, dist=biased).fidelity_after(1)
        for record in trace.rounds:
            d = record.dist
            assert d == PauliDistribution.from_fidelity(d.fidelity)


def test_twirled_traces_identical_across_protocols():
    for f in (0.55, 0.7, 0.9):
        tb = run_rounds("bbpssw", 4, f_in=f, twirled=True)
        td = run_rounds("dejmps", 4, f_in=f, twirled=True)
        for i in range(1, 5):
            assert abs(tb.fidelity_after(i) - td.fidelity_after(i)) < 1e-14
            assert abs(
                tb.rounds[i - 1].p_total_discard - td.rounds[i - 1].p_total_discard
            ) < 1e-14


def test_multi_round_reference_points():
    # DEJMPS without twirling from F = 0.6
    trace = run_rounds("dejmps", 3, f_in=0.6)
    assert abs(trace.fidelity_after(2) - 0.688616) < 1e-4
    assert abs(trace.rounds[1].p_total_discard - 0.65661) < 1e-4
    assert abs(trace.fidelity_after(3) - 0.77193) < 1e-4
    assert abs(trace.rounds[2].p_total_discard - 0.78774) < 1e-4
    # BBPSSW with twirling from F = 0.6
    trace = run_rounds("bbpssw", 3, f_in=0.6, twirled=True)
    assert abs(trace.fidelity_after(2) - 0.644639) < 1e-4
    assert abs(trace.rounds[1].p_total_discard - 0.621285) < 1e-4
    assert abs(trace.fidelity_after(3) - 0.67288) < 1e-4
    assert abs(trace.rounds[2].p_total_discard - 0.758215) < 1e-4


def test_closed_form_matches_twirled_round():
    for f in np.linspace(0.01, 1.0, 100):
        f = float(f)
        record = run_rounds("bbpssw", 1, f_in=f).rounds[0]
        f_ref, discard_ref = bbpssw_closed_form(f)
        assert abs(record.dist.fidelity - f_ref) < 1e-12
        assert abs(record.p_discard - discard_ref) < 1e-12


def test_first_round_identical_across_variants():
    for f in (0.51, 0.6, 0.77, 0.95):
        outs = set()
        for protocol in PROTOCOLS:
            for twirled in (False, True):
                trace = run_rounds(protocol, 1, f_in=f, twirled=twirled)
                outs.add(round(trace.fidelity_after(1), 13))
        assert len(outs) == 1


def test_fidelity_ordering_rounds_two_to_five():
    grid = np.linspace(0.505, 0.995, 50)
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
            assert dn >= dt >= f >= bn
            assert abs(dt - bt) < 1e-12


def test_bias_on_z_after_round_two():
    # from a depolarizing start, round 2 of DEJMPS has P_Z == P_X exactly
    # (both 4 e^2 (F^2 + e^2) / T^2); the strict Z dominance holds from
    # round 3 on, and for BBPSSW already from round 2
    for f in (0.55, 0.6, 0.75, 0.9):
        for protocol in PROTOCOLS:
            trace = run_rounds(protocol, 5, f_in=f)
            second = trace.rounds[1].dist
            assert second.p_z >= second.p_x - 1e-12
            assert second.p_z > second.p_y
            for record in trace.rounds[2:]:
                d = record.dist
                assert d.p_z > d.p_x
                assert d.p_z > d.p_y


def test_probability_conservation_per_round():
    rng = random.Random(13)
    for _ in range(50):
        dist = random_distribution(rng)
        for protocol in PROTOCOLS:
            raw, _, p_discard = _step(protocol, *dist.as_tuple())
            assert abs(sum(raw) + p_discard - 1.0) < 1e-15


def test_discard_recurrence_equals_survival_product():
    # the accumulation P <- P + (1-P) p equals 1 - prod(1 - p_i)
    trace = run_rounds("dejmps", 6, f_in=0.62)
    survival = 1.0
    for i, record in enumerate(trace.rounds, start=1):
        survival *= 1.0 - record.p_discard
        assert abs((1.0 - record.p_total_discard) - survival) < 1e-15
        assert record.rate == (1.0 - record.p_total_discard) / 2.0**i


def test_trace_bookkeeping():
    trace = run_rounds("bbpssw", 3, f_in=0.8, twirled=True)
    assert trace.protocol == "bbpssw" and trace.twirled
    assert len(trace.rounds) == 3
    assert trace.fidelity_after(0) == 0.8
    assert trace.fidelity_after(3) == trace.fidelities[-1]
    with pytest.raises(ValueError, match="round index"):
        trace.fidelity_after(-1)  # not round 2, nor round 3 counted from the end
    assert trace.fidelities == (0.8,) + tuple(r.dist.fidelity for r in trace.rounds)
    assert all(
        a.p_total_discard <= b.p_total_discard
        for a, b in zip(trace.rounds, trace.rounds[1:])
    )


def test_records_are_immutable_hashable_and_keep_their_repr():
    dist = PauliDistribution(0.7, 0.1, 0.15, 0.05)
    record = RoundRecord(dist, 0.25, 0.5, 0.125)
    for value, field in ((dist, "p_i"), (record, "p_discard"), (record, "dist")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
    twin = RoundRecord(PauliDistribution(*dist), 0.25, 0.5, 0.125)
    assert hash(twin.dist) == hash(dist) and hash(twin) == hash(record)
    assert repr(record) == (
        "RoundRecord(dist=PauliDistribution(p_i=0.7, p_x=0.1, p_y=0.15, p_z=0.05), "
        "p_discard=0.25, p_total_discard=0.5, rate=0.125)"
    )


@pytest.mark.parametrize("twirled", [False, True])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_scalar_rounds_equal_one_point_array_lanes(protocol, twirled):
    # a scalar trace runs the recurrence on floats; a one-point array runs
    # it on numpy lanes: the same operations, so the same bits
    rng = np.random.default_rng(31)
    for _ in range(200):
        raw = rng.random(4)
        dist = PauliDistribution(*(raw / raw.sum()).tolist()).validate()
        trace = run_rounds(protocol, 5, dist=dist, twirled=twirled)
        lanes = _recurrence(protocol, tuple(np.array([v]) for v in dist), 5, twirled)
        for record, (p_discard, comps, p_total, rate) in zip(trace.rounds, lanes, strict=True):
            got = (*record.dist, record.p_discard, record.p_total_discard, record.rate)
            want = (*comps, p_discard, p_total, rate)
            assert all(type(g) is float for g in got)
            assert [g.hex() for g in got] == [float(w[0]).hex() for w in want]


def test_rate_underflows_past_1023_rounds():
    # the float 2.0**n overflows from n = 1024; the rate goes to 0.0 instead
    assert run_rounds("dejmps", 1100, f_in=0.9).rounds[-1].rate == 0.0


def test_whole_float_round_count_runs():
    trace = run_rounds("dejmps", 2.0, f_in=0.8)
    assert trace == run_rounds("dejmps", 2, f_in=0.8)
    assert len(trace.rounds) == 2


def test_run_rounds_argument_validation():
    with pytest.raises(ValueError):
        run_rounds("dejmps", 0, f_in=0.6)
    with pytest.raises(ValueError):
        run_rounds("nope", 1, f_in=0.6)
    with pytest.raises(ValueError):
        run_rounds("dejmps", 1)
    with pytest.raises(ValueError):
        run_rounds("dejmps", 1, f_in=0.6, dist=PauliDistribution.from_fidelity(0.6))
    with pytest.raises(ValueError):
        run_rounds("dejmps", 1, dist=PauliDistribution(0.9, 0.3, 0.0, 0.0))


def test_from_fidelity_validation():
    with pytest.raises(ValueError):
        PauliDistribution.from_fidelity(1.5)


@pytest.mark.parametrize("values", [(math.nan, 0.0, 0.0, 1.0), (1.0, 0.0, math.nan, 0.0)])
def test_validate_rejects_nan(values):
    with pytest.raises(ValueError):
        PauliDistribution(*values).validate()
    with pytest.raises(ValueError):
        run_rounds("dejmps", 1, dist=PauliDistribution(*values))


@pytest.mark.parametrize("f", [math.nan, math.inf, -0.1, 2.0])
def test_closed_form_rejects_bad_fidelity(f):
    with pytest.raises(ValueError):
        bbpssw_closed_form(f)


# --- independent circuit oracle ------------------------------------------

def test_oracle_equals_recurrence_on_random_inputs():
    rng = random.Random(20240602)
    for _ in range(200):
        dist = random_distribution(rng)
        for protocol in PROTOCOLS:
            raw, p_discard, out = one_round(protocol, dist)
            raw_ref, p_discard_ref, out_ref = circuit_oracle(protocol, dist)
            assert max(abs(x - y) for x, y in zip(raw, raw_ref)) < 1e-12
            assert abs(p_discard - p_discard_ref) < 1e-12
            assert max(
                abs(x - y) for x, y in zip(out.as_tuple(), out_ref.as_tuple())
            ) < 1e-12


def test_oracle_on_specific_asymmetric_input():
    dist = PauliDistribution(0.8, 0.1, 0.06, 0.04)
    raw = _step("dejmps", *dist.as_tuple())[0]
    raw_ref = circuit_oracle("dejmps", dist)[0]
    assert raw == pytest.approx(raw_ref, abs=1e-15)
    # closed-form components for this input
    assert raw[0] == pytest.approx(0.8**2 + 0.06**2, abs=1e-15)
    assert raw[3] == pytest.approx(2 * 0.8 * 0.06, abs=1e-15)


def test_oracle_perfect_input_never_discards():
    for protocol in PROTOCOLS:
        _, p_discard, _ = circuit_oracle(protocol, PauliDistribution(1.0, 0.0, 0.0, 0.0))
        assert p_discard == 0.0


@given(
    st.tuples(
        st.floats(0.01, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
)
def test_step_outputs_stay_normalized(raw):
    total = sum(raw)
    dist = PauliDistribution(*(v / total for v in raw))
    for protocol in PROTOCOLS:
        record = run_rounds(protocol, 1, dist=dist).rounds[0]
        assert 0.0 <= record.p_discard <= 1.0
        assert math.isclose(sum(record.dist.as_tuple()), 1.0, abs_tol=1e-12)
        assert min(record.dist.as_tuple()) >= 0.0


# Components of exactly 0 or at least 1e-100 keep every product clear of
# the subnormal range, where 2*x*z and x*z + z*x round differently.
_COMPONENT = st.one_of(st.just(0.0), st.floats(1e-100, 1.0))


@given(st.tuples(st.floats(0.01, 1.0), _COMPONENT, _COMPONENT, _COMPONENT))
def test_kernel_equals_oracle_exactly(raw):
    # the oracle sums the discarded branches, where the kernel takes
    # 1 - kept, so only the discard probability may differ by rounding
    total = sum(raw)
    dist = PauliDistribution(*(v / total for v in raw))
    for protocol in PROTOCOLS:
        raw, p_discard, out = one_round(protocol, dist)
        raw_ref, p_discard_ref, out_ref = circuit_oracle(protocol, dist)
        assert raw == raw_ref
        assert out == out_ref
        assert p_discard == pytest.approx(p_discard_ref, abs=1e-15)


def test_dejmps_step_is_bbpssw_with_y_and_z_swapped():
    def bits(protocol, comps, key):
        raw, kept, p_discard = _step(protocol, *comps)
        return [key(v) for v in (*raw, kept, p_discard)]

    rng = np.random.default_rng(33)
    for lanes in rng.dirichlet(np.ones(4), size=(50, 7)):
        swapped = lanes[:, [0, 1, 3, 2]]
        assert bits("dejmps", lanes.T, np.ndarray.tobytes) == bits("bbpssw", swapped.T, np.ndarray.tobytes)
        for point, swap in zip(lanes.tolist(), swapped.tolist()):
            assert bits("dejmps", point, float.hex) == bits("bbpssw", swap, float.hex)
