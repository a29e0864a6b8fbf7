import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from closed_form_oracle import swap_fidelity
from entdist.chain import ChainPlan, run_chain
from entdist.decoder import builtin_polynomial, eval_qec_map
from entdist.werner import _root, distillable_entanglement, hashing_threshold, swap_fidelity_uniform

fidelities = st.floats(0.0, 1.0, allow_nan=False)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f: swap_fidelity_uniform(f, 2), id="swap_fidelity_uniform"),
        pytest.param(lambda f: eval_qec_map(builtin_polynomial("933"), f), id="eval_qec_map"),
        pytest.param(lambda f: run_chain(ChainPlan(1, ("913", "923", "933")), f), id="run_chain"),
    ],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("in_array", [False, True], ids=["scalar", "array"])
def test_non_finite_input_rejected(call, bad, in_array):
    with pytest.raises(ValueError):
        call(np.array([0.9, bad, 0.95]) if in_array else bad)


def test_distillable_entanglement_values():
    assert distillable_entanglement(1.0) == 1.0
    # sign change sits within 1e-4 of the reference threshold
    assert abs(distillable_entanglement(0.81071)) < 1e-4
    # high-precision reference value for D(0.9)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    f = mpmath.mpf("0.9")
    ref = 1 + f * mpmath.log(f, 2) + (1 - f) * mpmath.log((1 - f) / 3, 2)
    assert abs(distillable_entanglement(0.9) - float(ref)) < 1e-12
    assert abs(distillable_entanglement(0.9) - 0.37251) < 2e-6


def test_distillable_entanglement_domain():
    with pytest.raises(ValueError):
        distillable_entanglement(0.0)
    with pytest.raises(ValueError):
        distillable_entanglement(-0.5)
    with pytest.raises(ValueError):
        distillable_entanglement(float("nan"))
    with pytest.raises(ValueError):
        distillable_entanglement(np.array([0.9, np.nan]))


# the four forms of a scalar fidelity; an in-range float takes the float branch,
# anything else reaches the range check as a float64 0-d array
SCALAR_TYPES = [float, np.float64, np.float32, np.array]
SCALAR_IDS = ["float", "float64", "float32", "0-d array"]


@pytest.mark.parametrize("as_type", SCALAR_TYPES, ids=SCALAR_IDS)
@pytest.mark.parametrize(
    "bad",
    [0.0, -0.0, "above 1", math.nan, math.inf, -math.inf],
    ids=["0", "-0", "above 1", "nan", "inf", "-inf"],
)
def test_distillable_entanglement_refuses_a_scalar_outside_its_domain(as_type, bad):
    if bad == "above 1":  # the type's next value above 1
        kind = np.float32 if as_type is np.float32 else np.float64
        bad = np.nextafter(kind(1.0), kind(2.0))
        assert bad > 1.0
    with pytest.raises(ValueError, match=r"fidelity must lie in \(0, 1\]"):
        distillable_entanglement(as_type(bad))


@pytest.mark.parametrize("as_type", SCALAR_TYPES, ids=SCALAR_IDS)
def test_distillable_entanglement_of_a_scalar_at_its_domain_ends_is_a_float(as_type):
    kind = np.float32 if as_type is np.float32 else np.float64
    tiny = np.finfo(kind).smallest_subnormal  # 5e-324 as a float64
    for f in (tiny, 1.0):
        d = distillable_entanglement(as_type(f))
        assert type(d) is float
        assert d == distillable_entanglement(np.array([f], dtype=float))[0]
    assert distillable_entanglement(as_type(1.0)) == 1.0


def test_distillable_entanglement_of_an_empty_array_is_empty():
    for shape in [(0,), (0, 3)]:
        d = distillable_entanglement(np.empty(shape))
        assert isinstance(d, np.ndarray) and d.shape == shape


def test_distillable_entanglement_negative_below_threshold():
    assert distillable_entanglement(0.7) < 0.0
    assert distillable_entanglement(0.9) > 0.0


def test_distillable_strictly_increasing_above_threshold():
    grid = np.linspace(0.82, 1.0, 1000)
    values = distillable_entanglement(grid)
    assert np.all(np.diff(values) > 0.0)


def test_hashing_threshold_location():
    thr = hashing_threshold()
    assert abs(thr - 0.81071) < 1e-4
    assert distillable_entanglement(thr - 1e-6) < 0.0 < distillable_entanglement(thr + 1e-6)


def test_root_finds_a_zero_on_a_grid_point():
    # g is exactly 0 at the grid point 0.5 and rises after it: the cell
    # [0.5, 1] starts at <= 0, so the crossing is found
    root = _root(lambda f: f - 0.5, [0.0, 0.5, 1.0], 1e-12, "zero")
    assert 0.5 <= root < 0.5 + 1e-12


def test_root_takes_the_last_crossing():
    root = _root(lambda f: np.cos(4.0 * np.pi * f), np.linspace(0.0, 1.0, 11), 1e-12, "zero")
    assert abs(root - 0.875) < 1e-12


def test_root_without_a_crossing_names_what_it_looked_for():
    with pytest.raises(ValueError, match=r"no widget inside \[0.0, 1.0\]"):
        _root(lambda f: f - 2.0, np.linspace(0.0, 1.0, 5), 1e-12, "widget")


def test_swap_examples():
    assert swap_fidelity([1.0, 1.0]) == 1.0
    for f in (0.3, 0.6, 0.99):
        assert abs(swap_fidelity([f, 0.25]) - 0.25) < 1e-15
    assert abs(swap_fidelity([0.95, 0.95]) - 0.9033333333333333) < 1e-15


def test_swap_empty_rejected():
    with pytest.raises(ValueError):
        swap_fidelity([])


@given(st.lists(fidelities, min_size=2, max_size=5), st.randoms())
def test_swap_commutative_associative(fids, rng):
    shuffled = list(fids)
    rng.shuffle(shuffled)
    assert math.isclose(swap_fidelity(fids), swap_fidelity(shuffled), abs_tol=1e-12)
    # associativity: folding pairwise equals the flat product
    acc = fids[0]
    for f in fids[1:]:
        acc = swap_fidelity([acc, f])
    assert math.isclose(acc, swap_fidelity(fids), abs_tol=1e-12)


def test_uniform_form_equals_list_form():
    grid = np.linspace(0.0, 1.0, 101)
    for n_swaps in (0, 1, 2, 5):
        for f in grid:
            expected = swap_fidelity([float(f)] * (n_swaps + 1))
            assert abs(swap_fidelity_uniform(float(f), n_swaps) - expected) < 1e-15


def test_uniform_zero_swaps_is_identity():
    grid = np.linspace(0.0, 1.0, 21)
    assert np.allclose(swap_fidelity_uniform(grid, 0), grid, atol=1e-15)


@pytest.mark.parametrize("n_swaps", [-1, 2.5])
def test_uniform_swap_count_must_be_whole(n_swaps):
    with pytest.raises(ValueError, match="swap count must be >= 0 and whole"):
        swap_fidelity_uniform(0.9, n_swaps)


@given(st.lists(st.floats(0.25, 1.0, allow_nan=False), min_size=1, max_size=5))
def test_swap_never_exceeds_best_input_for_nonnegative_werner(fids):
    assert swap_fidelity(fids) <= max(fids) + 1e-12


def test_uniform_rejects_negative_swaps():
    with pytest.raises(ValueError):
        swap_fidelity_uniform(0.9, -1)
