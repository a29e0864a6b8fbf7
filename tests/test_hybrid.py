import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from entdist import hybrid
from entdist.codes import builtin_code, builtin_names
from entdist.decoder import LogicalFidelityPolynomial, builtin_polynomial, eval_qec_map
from entdist.hybrid import (
    builtin_threshold,
    checkpoint_scan,
    default_scan_grid,
    hybrid_run,
    min_rounds_to_fidelity,
    pseudo_threshold,
)
from entdist.purify import run_rounds
from entdist.werner import distillable_entanglement, hashing_threshold
from strategy_oracle import baseline_distillable, refined_efficiency, whole_walk_hybrid_run


@pytest.fixture(scope="module")
def scan():
    return checkpoint_scan("933", default_scan_grid(2000))


def test_threshold_933_in_reference_window():
    assert 0.9543 <= builtin_threshold("933") <= 0.9583


def test_thresholds_bit_for_bit():
    assert repr(hashing_threshold()) == "0.8107103750849092"
    assert repr(builtin_threshold("933")) == "0.9563232785941963"
    assert hashing_threshold().hex() == "0x1.9f156e2709000p-1"
    pinned = {
        "913": "0x1.b988e142e0b26p-1",
        "513": "0x1.b988e142e0b26p-1",
        "923": "0x1.e469a8fbf125ep-1",
        "933": "0x1.e9a3346bee5f3p-1",
        "713": "0x1.d67c6f06eeb21p-1",
    }
    assert {name: pseudo_threshold(builtin_polynomial(name)).hex() for name in pinned} == pinned


def test_pseudo_threshold_needs_a_crossing_in_the_bracket():
    identity = LogicalFidelityPolynomial("id", 1, 1, (1, 0))  # F_out = F
    with pytest.raises(ValueError, match="no fidelity fixed point"):
        pseudo_threshold(identity)


@pytest.mark.parametrize("name", ["913", "923", "933"])
def test_pseudo_threshold_is_the_builtin_threshold(name):
    assert pseudo_threshold(builtin_polynomial(name)) == builtin_threshold(name)


def test_threshold_characterization_all_codes():
    for name in ("913", "923", "933"):
        poly = builtin_polynomial(name)
        thr = pseudo_threshold(poly)
        for delta in (1e-4, 1e-3, 1e-2):
            assert eval_qec_map(poly, thr + delta) > thr + delta
            assert eval_qec_map(poly, thr - delta) < thr - delta
        assert eval_qec_map(poly, 0.999) > 0.999


def test_threshold_ordering_by_rate():
    # higher-rate codes demand higher input fidelity
    assert builtin_threshold("913") < builtin_threshold("923") < builtin_threshold("933")


def test_min_rounds_basics(monkeypatch):
    thr = builtin_threshold("933")
    assert min_rounds_to_fidelity(0.97, thr) == 0
    assert min_rounds_to_fidelity(0.5, 0.9) is None
    assert min_rounds_to_fidelity(0.45, 0.9) is None
    assert min_rounds_to_fidelity(0.85, 0.9563) == 2
    with pytest.raises(ValueError):
        min_rounds_to_fidelity(0.0, 0.9)
    with pytest.raises(ValueError):
        min_rounds_to_fidelity(0.9, 0.4)
    assert min_rounds_to_fidelity(0.505, 0.999) is not None
    monkeypatch.setattr(hybrid, "MAX_ROUNDS", 3)
    assert min_rounds_to_fidelity(0.505, 0.999) is None


@pytest.fixture
def consumed(monkeypatch):
    """The DEJMPS rounds ``hybrid`` takes from ``purify._recurrence``, one
    entry per round, in the order taken."""
    rounds = []
    recurrence = hybrid._recurrence

    def counting(*args):
        for r in recurrence(*args):
            rounds.append(r)
            yield r

    monkeypatch.setattr(hybrid, "_recurrence", counting)
    return rounds


def test_min_rounds_stops_at_its_round(consumed):
    target = 0.9563
    assert min_rounds_to_fidelity(0.85, target) == 2
    assert len(consumed) == 2
    # from the target up the answer is row 0, f_in itself: no round is taken
    consumed.clear()
    for f_in in (target, 1.0, math.nextafter(target, 1.0)):
        assert min_rounds_to_fidelity(f_in, target) == 0
    assert consumed == []
    # one ulp below the target it walks
    assert min_rounds_to_fidelity(math.nextafter(target, 0.0), target) == 1
    assert len(consumed) == 1


def test_hybrid_run_stops_at_its_match(consumed, monkeypatch):
    res = hybrid_run(0.8, "933")
    assert res.i_match is not None and len(consumed) == res.i_match
    # with no matching round the walk goes to its end, and no further
    consumed.clear()
    monkeypatch.setattr(hybrid, "MAX_ROUNDS", 3)
    res = hybrid_run(0.75, "933")
    assert (res.i_pre, res.i_match) == (3, None)
    assert len(consumed) == 3


def _outcome(run, f, name):
    """Every field of a hybrid result, floats by ``hex``, or the error text."""
    try:
        res = run(f, name)
    except ValueError as err:
        return str(err)
    return [v.hex() if isinstance(v, float) else v for v in astuple(res)]


@pytest.mark.parametrize("max_rounds", [3, 40])
@pytest.mark.parametrize("name", builtin_names())
def test_hybrid_run_equals_the_whole_walk(name, max_rounds, monkeypatch):
    monkeypatch.setattr(hybrid, "MAX_ROUNDS", max_rounds)
    rng = np.random.default_rng(30)
    half = np.nextafter(0.5, 1.0)
    points = np.concatenate([
        [0.0, 0.5, half, 1.0],
        half + rng.uniform(0, 1e-15, 20),  # within 1e-15 above 0.5
        0.5 + 10.0 ** -rng.uniform(1, 15, 50),
        rng.random(150),
        0.7 + 0.3 * rng.random(150),  # where the threshold is reached
    ]).tolist()
    outcomes = [(_outcome(hybrid_run, f, name), _outcome(whole_walk_hybrid_run, f, name))
                for f in points]
    for f, (got, want) in zip(points, outcomes):
        assert got == want, f
    kinds = {type(got) if isinstance(got, str) else got[-1] is None for got, _ in outcomes}
    assert {str, False, max_rounds == 3} <= kinds  # refused, matched, and unmatched in 3


@pytest.mark.parametrize("max_rounds", [0, 3, 40])
def test_min_rounds_is_the_first_trace_round(max_rounds, monkeypatch):
    monkeypatch.setattr(hybrid, "MAX_ROUNDS", max_rounds)
    rng = np.random.default_rng(24)
    n = 1000
    f = np.concatenate([
        0.5 + rng.random(n) / 2,
        np.nextafter(0.5, 1.0) + 10.0 ** -rng.uniform(1, 15, n),  # just above 0.5
        [np.nextafter(0.5, 1.0), 1.0],
    ])
    target = np.concatenate([
        np.nextafter(0.5, 1.0) + rng.random(n) / 2,
        1.0 - 10.0 ** -rng.uniform(1, 15, n),  # within 1e-15 of 1 at the far end
        [np.nextafter(1.0, 0.0)],
    ])
    types = set()
    for fi, t in zip(rng.permutation(np.resize(f, 5000)).tolist(), np.resize(target, 5000).tolist()):
        got = min_rounds_to_fidelity(fi, t)
        assert got == hybrid._first_at_least((f for f, _ in hybrid._dejmps(fi)), t), (fi, t)
        types.add(type(got))
    assert types == {int, type(None)}


def test_min_rounds_matches_trace_minimality():
    from entdist.purify import run_rounds

    thr = builtin_threshold("933")
    for f in (0.6, 0.75, 0.9):
        i = min_rounds_to_fidelity(f, thr)
        trace = run_rounds("dejmps", i, f_in=f)
        assert trace.fidelity_after(i) >= thr
        if i > 1:
            assert trace.fidelity_after(i - 1) < thr


def test_hybrid_above_threshold_is_bare_qec():
    thr = builtin_threshold("933")
    res = hybrid_run(0.97, "933")
    assert res.i_pre == 0
    assert res.f_at_threshold == 0.97
    assert res.rate == pytest.approx(1 / 3, abs=1e-15)
    assert res.f_out == pytest.approx(eval_qec_map(builtin_polynomial("933"), 0.97), abs=1e-15)
    assert res.p_total_discard == 0.0
    assert 0.97 >= thr


def test_hybrid_below_threshold_runs_dejmps_first():
    thr = builtin_threshold("933")
    res = hybrid_run(0.8, "933")
    assert res.i_pre >= 1
    assert res.f_at_threshold >= thr
    assert res.f_out > res.f_at_threshold
    assert 0.0 < res.rate < 1 / 3
    assert res.i_match is not None and res.i_match > res.i_pre


def test_hybrid_unreachable_raises():
    with pytest.raises(ValueError, match="not reachable"):
        hybrid_run(0.45, "933")


def test_scalar_and_scan_unreachable_messages_agree(monkeypatch):
    monkeypatch.setattr(hybrid, "MAX_ROUNDS", 0)
    with pytest.raises(ValueError) as scalar:
        hybrid_run(0.6)
    with pytest.raises(ValueError) as scan:
        checkpoint_scan("933", [0.6])
    assert str(scalar.value) == str(scan.value)
    assert str(scan.value) == (
        f"threshold {builtin_threshold('933'):.6f} not reachable from F=0.6 in 0 rounds"
    )


def test_hybrid_rate_is_product_of_factors():
    from entdist.purify import run_rounds

    res = hybrid_run(0.7, "933")
    trace = run_rounds("dejmps", res.i_pre, f_in=0.7)
    survival = 1.0 - trace.rounds[-1].p_total_discard
    assert res.rate == pytest.approx((3 / 9) * (1 / 2**res.i_pre) * survival, abs=1e-15)


def test_baseline_distillable():
    # above the 0.12 bar the input value is used untouched
    d9, rounds = baseline_distillable(0.9)
    assert rounds == 0 and d9 == distillable_entanglement(0.9)
    # below it, the minimum number of purification rounds is applied
    d6, rounds6 = baseline_distillable(0.6)
    assert rounds6 >= 1 and d6 >= 0.12
    from entdist.purify import run_rounds

    trace = run_rounds("dejmps", rounds6, f_in=0.6)
    assert d6 == pytest.approx(distillable_entanglement(trace.fidelity_after(rounds6)))
    assert distillable_entanglement(trace.fidelity_after(rounds6 - 1)) < 0.12


def test_refined_efficiency_clamps_and_normalizes():
    # output below the hashing threshold scores zero
    assert refined_efficiency(0.9, 0.7, 1.0, 0.0) == 0.0
    # identity strategy with no discard scores one
    assert refined_efficiency(0.9, 0.9, 1.0, 0.0) == pytest.approx(1.0)
    # discard scales linearly
    assert refined_efficiency(0.9, 0.9, 1.0, 0.25) == pytest.approx(0.75)
    for ratio, discard in ((1.5, 0.0), (-0.5, 0.0), (1.0, -0.1), (1.0, 1.1)):
        with pytest.raises(ValueError, match="must lie in"):
            refined_efficiency(0.9, 0.9, ratio, discard)


def test_scan_grid_validation():
    with pytest.raises(ValueError, match="inside"):
        checkpoint_scan("933", np.array([0.4, 0.6]))
    with pytest.raises(ValueError, match="inside"):
        checkpoint_scan("933", np.array([0.6, 1.0]))
    with pytest.raises(ValueError, match="inside.*nan"):
        checkpoint_scan("933", np.array([0.6, np.nan]))
    # a scalar or a 2-D grid is refused before the trace is built
    with pytest.raises(ValueError, match="1-D"):
        checkpoint_scan("933", 0.9)
    with pytest.raises(ValueError, match="1-D"):
        checkpoint_scan("933", np.full((2, 3), 0.9))
    grid = default_scan_grid()
    assert len(grid) == 10000
    assert grid[0] == 0.501 and grid[-1] < 1.0
    assert np.array_equal(default_scan_grid(1.0), [0.501])
    for points in (0, 2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="grid points must be >= 1 and whole"):
            default_scan_grid(points)


def test_scalar_strategy_functions_reject_nan():
    for call in (hybrid_run, baseline_distillable, lambda f: min_rounds_to_fidelity(f, 0.9)):
        with pytest.raises(ValueError):
            call(float("nan"))


@pytest.mark.parametrize(
    "grid, max_rounds",
    [(default_scan_grid(500), 40), (np.linspace(0.75, 0.999, 100), 3)],
)
def test_scan_equals_scalar_strategy_functions(grid, max_rounds, monkeypatch):
    # the array scan against hybrid_run and the scalar oracle, bit for bit;
    # the short-trace case leaves some points without a matching round
    monkeypatch.setattr(hybrid, "MAX_ROUNDS", max_rounds)
    code = builtin_code("933")
    scan = checkpoint_scan("933", grid)
    assert [p.f_in for p in scan] == grid.tolist()
    for p in scan:
        res = hybrid_run(p.f_in, "933")
        assert (p.i_pre, p.i_match, p.f_out_hybrid, p.rate_hybrid) == (
            res.i_pre, res.i_match, res.f_out, res.rate
        )
        ratio = code.k / (2.0**res.i_pre * code.n)
        assert p.eff_hybrid == refined_efficiency(p.f_in, res.f_out, ratio, res.p_total_discard)
        trace = run_rounds("dejmps", max_rounds, f_in=p.f_in)
        i = max_rounds if p.i_match is None else p.i_match
        record = trace.rounds[i - 1]
        assert (p.f_out_dejmps, p.rate_dejmps) == (record.dist.fidelity, record.rate)
        if p.i_match is None:
            assert p.eff_dejmps == 0.0
        else:
            assert p.eff_dejmps == refined_efficiency(
                p.f_in, record.dist.fidelity, 1.0 / 2.0**i, record.p_total_discard
            )
        d_base, rounds = baseline_distillable(p.f_in)
        assert d_base == distillable_entanglement(trace.fidelity_after(rounds))
    assert any(p.i_match is None for p in scan) == (max_rounds == 3)


@pytest.mark.parametrize("name", ["913", "923", "933"])
def test_scan_hybrid_columns_match_hybrid_run(name):
    # on the full default grid: the round counts and the rate exactly, the
    # QEC output to 1 ulp, since eval_qec_map's ** rounds a scalar and an
    # array differently (913 differs at 14 points)
    scan = checkpoint_scan(name, default_scan_grid())
    for p in scan:
        res = hybrid_run(p.f_in, name)
        assert (p.i_pre, p.i_match, p.rate_hybrid) == (res.i_pre, res.i_match, res.rate)
        assert abs(p.f_out_hybrid - res.f_out) <= np.spacing(res.f_out)


@pytest.mark.parametrize("max_rounds", [0, 3, 40])
def test_dejmps_array_walk_is_the_float_walk(max_rounds, monkeypatch):
    # 0.97 lies above the 933 threshold: zero rounds reach it
    monkeypatch.setattr(hybrid, "MAX_ROUNDS", max_rounds)
    grid = np.array([0.501, 0.6, 0.8, 0.97, 0.999])
    rows = list(hybrid._dejmps(grid))
    assert len(rows) == max_rounds + 1
    float_walks = [list(hybrid._dejmps(f)) for f in grid.tolist()]
    for i, (fid, discard) in enumerate(rows):
        assert fid.shape == discard.shape == grid.shape
        assert fid.dtype == discard.dtype == np.float64
        assert [x.hex() for x in fid.tolist()] == [walk[i][0].hex() for walk in float_walks]
        assert [x.hex() for x in discard.tolist()] == [walk[i][1].hex() for walk in float_walks]
    if max_rounds == 40:  # the scalar paths keep returning Python numbers
        assert [type(v) for v in astuple(hybrid_run(0.8))] == [
            float, str, int, float, float, float, float, int
        ]
        assert [type(v) for v in baseline_distillable(0.6)] == [float, int]
        assert type(min_rounds_to_fidelity(0.8, 0.95)) is int


@pytest.mark.parametrize("max_rounds", [0, 3, 40])
@pytest.mark.parametrize("case", ["scalar", "per-point", "distillable", "stacked"])
def test_first_reach_is_first_at_least_per_point(case, max_rounds, monkeypatch):
    # the array search against the float walk's search, point by point
    monkeypatch.setattr(hybrid, "MAX_ROUNDS", max_rounds)
    rng = np.random.default_rng(36)
    grid = np.concatenate([0.501 + 0.499 * rng.random(400), [0.501, np.nextafter(1.0, 0.0)]])
    if case == "stacked":
        # fidelity and distillable entanglement as two rows of one walk, as the scan reads them
        out = hybrid._first_reach(grid, np.array([[0.9563], [hybrid.BASELINE_D]]),
                                  key=lambda f: np.stack((f, distillable_entanglement(f))))
        assert all(a.shape == (2, grid.size) for a in out)
        searches = [(None, 0.9563, [a[0] for a in out]),
                    (distillable_entanglement, hybrid.BASELINE_D, [a[1] for a in out])]
    else:
        key = distillable_entanglement if case == "distillable" else None
        if case == "scalar":
            bar = 0.9563
        elif case == "per-point":
            # met at round 0 (at or below f_in), never met (above 1), and in between
            bar = np.where(rng.random(grid.size) < 0.5, grid + (1.0 - grid) * rng.random(grid.size),
                           rng.choice([0.0, 1.5], grid.size))
            bar[:2] = grid[:2]  # exactly f_in
        else:
            bar = hybrid.BASELINE_D
        searches = [(key, bar, hybrid._first_reach(grid, bar, key=key))]
    for key, bar, (rounds, value, discard, found) in searches:
        bars = np.broadcast_to(bar, grid.shape).tolist()
        for j, f in enumerate(grid.tolist()):
            walk = list(hybrid._dejmps(f))
            values = [v if key is None else key(v) for v, _ in walk]
            i = hybrid._first_at_least(values, bars[j])
            want = max_rounds if i is None else i
            assert (int(rounds[j]), bool(found[j])) == (want, i is not None), (f, bars[j])
            assert value[j].item().hex() == float(values[want]).hex(), (f, bars[j])
            assert discard[j].item().hex() == walk[want][1].hex(), (f, bars[j])
        if case == "per-point":
            assert 0 in rounds[found] and not found.all()


def test_scan_allocation_peak():
    # the scan keeps O(N) floats, one DEJMPS round at a time, not
    # O(MAX_ROUNDS N): two (MAX_ROUNDS + 1, N) float64 tables alone would
    # take 6.6 MB at 10,000 points
    grid = default_scan_grid()
    checkpoint_scan("933", grid[:10])  # threshold, polynomial and code caches
    tracemalloc.start()
    try:
        checkpoint_scan("933", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_scan_round_gap(scan):
    diffs = {p.i_match - p.i_pre for p in scan if p.i_match is not None}
    assert diffs <= {1, 2}
    ones = sum(1 for p in scan if p.i_match is not None and p.i_match - p.i_pre == 1)
    assert ones > len(scan) / 2


def test_scan_monotone_i_pre(scan):
    i_pre = [p.i_pre for p in scan]
    assert all(a >= b for a, b in zip(i_pre, i_pre[1:]))


def test_scan_checkpoint_density(scan):
    def jumps(lo, hi):
        pts = [p for p in scan if lo <= p.f_in < hi]
        return sum(1 for a, b in zip(pts, pts[1:]) if b.i_pre != a.i_pre)

    thr = builtin_threshold("933")
    assert jumps(0.51, 0.6) > jumps(0.9, thr)


def test_scan_efficiencies_bounded(scan):
    for p in scan:
        assert 0.0 <= p.eff_dejmps <= 1.0
        assert 0.0 <= p.eff_hybrid <= 1.0


def test_scan_winner_is_argmax(scan):
    for p in scan:
        expected = "hybrid" if p.eff_hybrid > p.eff_dejmps else "dejmps"
        assert p.winner == expected


def test_scan_above_threshold_equals_bare_qec(scan):
    thr = builtin_threshold("933")
    poly = builtin_polynomial("933")
    for p in scan:
        if p.f_in >= thr:
            assert p.i_pre == 0
            assert p.f_out_hybrid == pytest.approx(eval_qec_map(poly, p.f_in), abs=1e-14)


def test_scan_hybrid_wins_somewhere_at_high_fidelity(scan):
    # the code's flat k/n rate gives it the edge at very high input fidelity
    high = [p for p in scan if p.f_in > 0.99]
    assert any(p.winner == "hybrid" for p in high)
