import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from entdist import hybrid
from entdist.codes import builtin_code
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
from strategy_oracle import baseline_distillable, refined_efficiency


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


def test_min_rounds_stops_at_its_round(monkeypatch):
    consumed = []
    recurrence = hybrid._recurrence

    def counting(*args):
        for r in recurrence(*args):
            consumed.append(r)
            yield r

    monkeypatch.setattr(hybrid, "_recurrence", counting)
    assert min_rounds_to_fidelity(0.85, 0.9563) == 2
    assert len(consumed) == 2


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
        assert got == hybrid._first_at_least(hybrid._dejmps_trace(fi)[0], t), (fi, t)
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
def test_dejmps_table_columns_are_the_float_trace(max_rounds, monkeypatch):
    # 0.97 lies above the 933 threshold: zero rounds reach it
    monkeypatch.setattr(hybrid, "MAX_ROUNDS", max_rounds)
    grid = np.array([0.501, 0.6, 0.8, 0.97, 0.999])
    fids, discards = hybrid._dejmps_table(grid)
    assert fids.shape == discards.shape == (max_rounds + 1, grid.size)
    assert fids.dtype == discards.dtype == np.float64
    for j, f in enumerate(grid.tolist()):
        trace_fids, trace_discards = hybrid._dejmps_trace(f)
        assert [x.hex() for x in fids[:, j].tolist()] == [x.hex() for x in trace_fids]
        assert [x.hex() for x in discards[:, j].tolist()] == [x.hex() for x in trace_discards]
    if max_rounds == 40:  # the scalar paths keep returning Python numbers
        assert [type(v) for v in astuple(hybrid_run(0.8))] == [
            float, str, int, float, float, float, float, int
        ]
        assert [type(v) for v in baseline_distillable(0.6)] == [float, int]
        assert type(min_rounds_to_fidelity(0.8, 0.95)) is int


def test_scan_allocation_peak():
    # two (MAX_ROUNDS + 1, N) float64 tables, 6.6 MB at 10,000 points, and
    # D one round-row at a time
    grid = default_scan_grid()
    checkpoint_scan("933", grid[:10])  # threshold, polynomial and code caches
    tracemalloc.start()
    try:
        checkpoint_scan("933", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


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
