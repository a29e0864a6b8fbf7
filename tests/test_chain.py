from fractions import Fraction

import numpy as np
import pytest

from closed_form_oracle import swap_fidelity
from entdist.chain import (
    SKIP,
    ChainPlan,
    format_plan,
    parse_rounds,
    rate_accounting,
    run_chain,
)
from entdist.codes import builtin_code
from entdist.decoder import _syndromes, _weights, build_lookup_table
from entdist.werner import swap_fidelity_uniform

P3 = ("913", "923", "933")


def test_plan_validation():
    ChainPlan(0, P3)
    ChainPlan(1, P3)
    ChainPlan(7, P3)
    with pytest.raises(ValueError):
        ChainPlan(2, P3)
    with pytest.raises(ValueError):
        ChainPlan(-1, P3)
    with pytest.raises(ValueError):
        ChainPlan(1, ("913", "923"))


def test_whole_float_repeater_count_is_stored_as_int():
    plan = ChainPlan(3.0, P3)
    assert type(plan.n_repeaters) is int
    assert plan == ChainPlan(3, P3)
    assert rate_accounting(plan).rate == Fraction(1, 486)


def test_swap_schedule():
    assert ChainPlan(0, P3).swap_counts == (0, 0, 0)
    assert ChainPlan(1, P3).swap_counts == (1, 0, 0)
    assert ChainPlan(3, P3).swap_counts == (1, 1, 0)
    assert ChainPlan(5, P3).swap_counts == (1, 2, 0)
    assert ChainPlan(7, P3).swap_counts == (1, 3, 0)
    assert ChainPlan(5, P3).segment_counts == (6, 3, 1)


def test_plan_label():
    for plan, text in (
        (ChainPlan(3, P3), "repeaters=3; rounds=913,923,933"),
        (ChainPlan(1, ("513", SKIP, SKIP)), "repeaters=1; rounds=513,skip,skip"),
        (ChainPlan(0, (SKIP, "713", SKIP)), "repeaters=0; rounds=skip,713,skip"),
    ):
        assert format_plan(plan) == text
        assert plan.label == text


def test_parse_rounds():
    assert parse_rounds("513,skip,SKIP") == ("513", SKIP, SKIP)
    for bad in ("913,923", "913,923,933,933", ""):
        with pytest.raises(ValueError, match="exactly 3"):
            parse_rounds(bad)


def test_perfect_input_stays_perfect():
    for plan in (ChainPlan(1, P3), ChainPlan(5, ("923",) * 3), ChainPlan(3, ("513", SKIP, SKIP))):
        assert run_chain(plan, 1.0) == 1.0


def test_chain_matches_manual_composition():
    # 1 repeater: map, one swap, map, map
    from entdist.decoder import builtin_polynomial, eval_qec_map

    f = 0.93
    plan = ChainPlan(1, P3)
    f1 = eval_qec_map(builtin_polynomial("913"), f)
    f2 = swap_fidelity_uniform(f1, 1)
    f3 = eval_qec_map(builtin_polynomial("923"), f2)
    f4 = eval_qec_map(builtin_polynomial("933"), f3)
    assert run_chain(plan, f) == pytest.approx(f4, abs=1e-15)


def test_skip_rounds_only_swap():
    # no coding at all leaves pure swap composition
    f = 0.9
    plan = ChainPlan(3, (SKIP, SKIP, SKIP))
    expected = swap_fidelity([f] * 4)
    assert run_chain(plan, f) == pytest.approx(expected, abs=1e-15)


def test_first_round_coding_beats_no_coding_near_one():
    # one repeater, one coded round: above the no-coding F_in^2 curve
    plan = ChainPlan(1, ("513", SKIP, SKIP))
    for f in (0.97, 0.98, 0.99):
        assert run_chain(plan, f) > f * f


def test_uniform_swap_is_the_list_form():
    # depolarizing closure witness: the chain only composes F -> F maps
    grid = np.linspace(0.5, 1.0, 50)
    for n_qs in (1, 2, 3):
        expected = np.array([swap_fidelity([float(f)] * (n_qs + 1)) for f in grid])
        assert np.allclose(swap_fidelity_uniform(grid, n_qs), expected, atol=1e-15)


def test_more_repeaters_lower_fidelity():
    for f in (0.9, 0.95, 0.99):
        f1 = run_chain(ChainPlan(1, P3), f)
        f5 = run_chain(ChainPlan(5, P3), f)
        assert f5 < f1


def test_vectorized_matches_scalar():
    plan = ChainPlan(3, P3)
    grid = np.linspace(0.85, 1.0, 7)
    out = run_chain(plan, grid)
    for f, v in zip(grid, out):
        assert run_chain(plan, float(f)) == pytest.approx(float(v), abs=1e-15)


def test_rate_p1_exact():
    acc = rate_accounting(ChainPlan(1, ("913",) * 3))
    assert acc.n_in == (18, 162, 1458)
    assert acc.k_out == (1, 1, 1)
    assert acc.rate == Fraction(1, 1458)


def test_rate_p4_exact():
    acc = rate_accounting(ChainPlan(1, ("923",) * 3))
    assert acc.matching == (18, 36)
    assert acc.n_in[2] == 1458 and acc.k_out[2] == 8
    assert acc.rate == Fraction(8, 1458)


def test_rate_p3_recursion_values():
    acc = rate_accounting(ChainPlan(1, P3))
    assert acc.k_out == (1, 2, 6)
    assert acc.n_in == (18, 162, 1458)
    assert acc.matching == (9, 18)
    assert acc.rate == Fraction(6, 1458)


def test_rate_divisibility_and_growth():
    from entdist.codes import builtin_code

    for n_rep in (1, 3, 5):
        for rounds in (P3, ("923",) * 3, ("913", "923", "923")):
            acc = rate_accounting(ChainPlan(n_rep, rounds))
            l1, l2 = acc.matching
            assert l1 % acc.k_out[0] == 0 and l1 % builtin_code(rounds[1]).n == 0
            assert l2 % acc.k_out[1] == 0 and l2 % builtin_code(rounds[2]).n == 0
            assert acc.n_in[0] <= acc.n_in[1] <= acc.n_in[2]


def test_rate_scales_with_repeater_count():
    r1 = rate_accounting(ChainPlan(1, P3)).rate
    r3 = rate_accounting(ChainPlan(3, P3)).rate
    assert r3 == r1 / 2  # twice the elementary links, same output


def test_rate_rejects_skip():
    with pytest.raises(ValueError, match="every round"):
        rate_accounting(ChainPlan(1, ("913", SKIP, "933")))


def test_chain_at_switch_fidelity():
    # evaluating at a switching fidelity stays well inside (0, 1) and the
    # map is locally monotone there
    plan = ChainPlan(3, P3)
    f_mid = run_chain(plan, 0.9474)
    assert 0.0 < f_mid < 1.0
    assert run_chain(plan, 0.9454) < f_mid < run_chain(plan, 0.9494)


def _residual_class_counts(name):
    """Over all 4^n errors, the logical class left on each logical pair
    after correction, counted by error weight: one {"X", "Y", "Z"} dict of
    per-weight counts per pair."""
    code = builtin_code(name)
    n, k = code.n, code.k
    lut = build_lookup_table(code)

    def residual(ops):  # syndromes are linear: error ^ leader
        s = _syndromes(ops, n)
        return s ^ s[lut.leaders][lut.syndromes]

    flips_z, flips_x = residual(code.logical_z), residual(code.logical_x)
    pairs = []
    for j in range(k):  # operator 0 sits at the most significant bit
        has_x = ((flips_z >> (k - 1 - j)) & 1).astype(bool)  # anticommutes with Z_L
        has_z = ((flips_x >> (k - 1 - j)) & 1).astype(bool)  # anticommutes with X_L
        classes = {"X": has_x & ~has_z, "Y": has_x & has_z, "Z": ~has_x & has_z}
        pairs.append(
            {c: np.bincount(_weights(n)[hit], minlength=n + 1).tolist() for c, hit in classes.items()}
        )
    return pairs


@pytest.mark.parametrize("name", ["913", "513", "713"])
def test_k1_decoders_keep_depolarizing_noise_depolarizing(name):
    # equal X, Y and Z counts at every weight: depolarizing in, depolarizing
    # out, so a k = 1 chain needs no twirl between rounds
    (pair,) = _residual_class_counts(name)
    assert pair["X"] == pair["Y"] == pair["Z"]
    assert sum(pair["X"]) > 0


def test_k_above_1_decoders_bias_the_logical_noise():
    # the chain's two conventions for 923 and 933 (see the chain module):
    # these unequal counts are why each pair is twirled back to Werner
    weight_two = {
        name: [tuple(pair[c][2] for c in "XYZ") for pair in _residual_class_counts(name)]
        for name in ("923", "933")
    }
    assert weight_two == {
        "923": [(51, 51, 55), (54, 58, 48)],
        "933": [(54, 74, 62), (54, 74, 62), (54, 74, 58)],
    }
