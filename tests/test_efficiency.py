import numpy as np
import pytest

from entdist.chain import rate_accounting, run_chain
from entdist.efficiency import (
    EfficiencyCurve,
    efficiency_curve,
    efficiency_value,
    default_grid,
    optimal_envelope,
    protocol_curves,
    protocol_plan,
    switching_points,
)
from entdist.werner import _crossings, _root

REFERENCE_SWITCH_POINTS = {
    1: (0.9343, 0.9356, 0.9655),
    3: (0.9465, 0.9474, 0.9717),
    5: (0.9524, 0.9532, 0.9747),
}


@pytest.fixture(scope="module")
def curves_1r():
    return protocol_curves(1)


def test_identity_protocol_has_unit_efficiency():
    for f in (0.85, 0.9, 0.99):
        assert efficiency_value(1, f, f) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "as_input, result_type",
    [
        (float, float),
        (np.float64, float),
        (np.array, float),
        (lambda f: np.array([0.95, f, 0.99]), np.ndarray),  # one point of an array
    ],
    ids=["float", "float64", "0-d array", "array point"],
)
def test_efficiency_requires_positive_input_entanglement(as_input, result_type):
    with pytest.raises(ValueError, match="hashing threshold"):
        efficiency_value(1, as_input(0.8), 0.9)
    assert type(efficiency_value(1, as_input(0.9), 0.95)) is result_type


@pytest.mark.parametrize("rate", [-1, 1.5, -1e-300])
def test_efficiency_requires_rate_in_unit_interval(rate):
    with pytest.raises(ValueError, match="rate must lie in"):
        efficiency_value(rate, 0.9, 0.95)


def test_protocol_plan_labels():
    assert protocol_plan("p3", 1).rounds == ("913", "923", "933")
    with pytest.raises(ValueError, match="unknown protocol"):
        protocol_plan("P9", 1)


def test_p4_beats_p1_at_high_fidelity(curves_1r):
    by_label = {c.label: c for c in curves_1r}
    idx = int(np.searchsorted(by_label["P1"].grid, 0.99))
    assert by_label["P1"].values[idx] < by_label["P4"].values[idx]


def test_curves_are_continuous(curves_1r):
    for curve in curves_1r:
        assert float(np.max(np.abs(np.diff(curve.values)))) < 0.01


def test_switching_points_one_repeater(curves_1r):
    points = switching_points(curves_1r)
    assert [(p.from_plan, p.to_plan) for p in points] == [
        ("P1", "P2"), ("P2", "P3"), ("P3", "P4"),
    ]
    for point, expected in zip(points, REFERENCE_SWITCH_POINTS[1]):
        assert abs(point.fidelity - expected) < 3e-3


@pytest.mark.parametrize("n_repeaters", [1, 3, 5])
def test_switching_point_interpolation_error(n_repeaters):
    # each interpolated crossing against the exact efficiency difference
    # bisected to 1e-15 in the same grid cell; the worst of the nine is
    # 9.5e-8 (5 repeaters, P3 -> P4)
    def efficiency(label, f):
        plan = protocol_plan(label, n_repeaters)
        return efficiency_value(rate_accounting(plan).rate, f, run_chain(plan, f))

    curves = protocol_curves(n_repeaters)
    points = switching_points(curves)
    assert len(points) == 3
    for cur, nxt, point in zip(curves, curves[1:], points):
        i = _crossings(nxt.values - cur.values)[0]
        exact = _root(
            lambda f: efficiency(nxt.label, f) - efficiency(cur.label, f),
            cur.grid[i : i + 2], 1e-15, "switching point",
        )
        assert (point.from_plan, point.to_plan) == (cur.label, nxt.label)
        assert abs(point.fidelity - exact) <= 2e-7


def test_switching_points_shift_right_with_repeaters():
    found = {n: [p.fidelity for p in switching_points(protocol_curves(n))] for n in (1, 3, 5)}
    for i in range(3):
        assert found[1][i] < found[3][i] < found[5][i]


def test_switching_points_stable_under_grid_refinement(curves_1r):
    coarse = switching_points(curves_1r)
    fine = switching_points(protocol_curves(1, default_grid(4000)))
    for a, b in zip(coarse, fine):
        assert abs(a.fidelity - b.fidelity) < 5e-4


def test_envelope_dominates_curves(curves_1r):
    env, labels = optimal_envelope(curves_1r)
    for curve in curves_1r:
        assert np.all(env >= curve.values - 1e-15)
    assert set(labels) <= {"P1", "P2", "P3", "P4"}


def test_active_plan_by_region(curves_1r):
    env, labels = optimal_envelope(curves_1r)
    grid = curves_1r[0].grid

    def active(f):
        return labels[int(np.argmin(np.abs(grid - f)))]

    assert active(0.92) == "P1"
    assert active(0.95) == "P3"
    assert active(0.98) == "P4"


def test_envelope_tie_breaks_to_later_plan():
    grid = np.linspace(0.9, 0.91, 5)
    flat = np.ones(5)
    a = EfficiencyCurve("A", grid, flat, 1, grid)
    b = EfficiencyCurve("B", grid, flat.copy(), 1, grid)
    _, labels = optimal_envelope([a, b])
    assert labels == ["B"] * 5


def test_no_crossing_reported_as_absent():
    grid = np.linspace(0.9, 0.91, 5)
    hi = EfficiencyCurve("HI", grid, np.full(5, 2.0), 1, grid)
    lo = EfficiencyCurve("LO", grid, np.ones(5), 1, grid)
    assert switching_points([hi, lo]) == []


def test_curves_must_share_grid(curves_1r):
    other = efficiency_curve(protocol_plan("P1", 1), np.linspace(0.9, 1.0, 50))
    with pytest.raises(ValueError, match="share one grid"):
        switching_points([curves_1r[0], other])


@pytest.mark.parametrize("labels", [["P1", "P1"], ["P2", "P1", "p1"]])
def test_repeated_label_refused(labels):
    with pytest.raises(ValueError, match="repeated protocol label P1"):
        protocol_curves(1, np.linspace(0.9, 1.0, 5), labels)


@pytest.mark.parametrize("labels, name", [(["", ""], "''"), (["P9", "P9"], "'P9'")])
def test_unknown_label_reported_before_a_repeat(labels, name):
    with pytest.raises(ValueError, match=f"unknown protocol {name}; expected one of P1, P2, P3, P4"):
        protocol_curves(1, np.linspace(0.9, 1.0, 5), labels)


def test_no_curves_refused():
    assert protocol_curves(1, labels=[]) == []
    for call in (optimal_envelope, switching_points):
        with pytest.raises(ValueError, match="no curves"):
            call([])


def test_curve_grid_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        efficiency_curve(protocol_plan("P1", 1), np.array([0.9, 0.9, 0.95]))
    # each row increases, so only the shape check refuses it
    with pytest.raises(ValueError, match="1-D and strictly increasing"):
        efficiency_curve(protocol_plan("P1", 1), np.linspace(0.85, 0.99, 6).reshape(2, 3))


def test_default_grid_point_count_validation():
    # one point would be a grid efficiency_curve refuses; inf and 2.5 are
    # no counts (np.linspace would raise TypeError on them)
    for points in (1, 0, -3, 2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="grid points must be >= 2 and whole"):
            default_grid(points)
    assert np.array_equal(default_grid(3.0), np.linspace(0.85, 1.0, 3))
    efficiency_curve(protocol_plan("P1", 1), default_grid(2))


def test_curve_metadata(curves_1r):
    p4 = next(c for c in curves_1r if c.label == "P4")
    assert float(p4.rate) == pytest.approx(8 / 1458)
    assert p4.f_out.shape == p4.grid.shape
