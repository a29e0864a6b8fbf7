"""Every public float entry point raises ValueError on nan and +-inf.

One table of calls, each putting the drawn value into one float argument
(or one entry of an array argument), so a range check that NaN slips
through, or an inf that only fails later with another error, shows up
as a failed case.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circuit_oracle import circuit_oracle
from closed_form_oracle import bbpssw_closed_form, swap_fidelity
from strategy_oracle import baseline_distillable, refined_efficiency
from entdist import convergence, efficiency, hybrid, purify, werner
from entdist.chain import ChainPlan, run_chain
from entdist.decoder import builtin_polynomial, eval_qec_map

PLAN = ChainPlan(1, ("913", "923", "933"))


def dist(*components):
    return purify.PauliDistribution(*components)


def refined(f_in=0.95, f_out=0.97, output_ratio=0.5, p_total_discard=0.1):
    return refined_efficiency(f_in, f_out, output_ratio, p_total_discard)


CALLS = {
    "werner.distillable_entanglement": lambda x: werner.distillable_entanglement(x),
    "werner.distillable_entanglement[array]": lambda x: werner.distillable_entanglement(
        np.array([0.9, x])
    ),
    "werner.swap_fidelity": lambda x: swap_fidelity([0.9, x]),
    "werner.swap_fidelity_uniform(f)": lambda x: werner.swap_fidelity_uniform(x, 1),
    "werner.swap_fidelity_uniform(n_swaps)": lambda x: werner.swap_fidelity_uniform(0.9, x),
    "decoder.eval_qec_map": lambda x: eval_qec_map(builtin_polynomial("913"), x),
    "decoder.eval_qec_map[array]": lambda x: eval_qec_map(
        builtin_polynomial("913"), np.array([0.9, x])
    ),
    "chain.ChainPlan(n_repeaters)": lambda x: ChainPlan(x, ("913", "923", "933")),
    "chain.run_chain": lambda x: run_chain(PLAN, x),
    "chain.run_chain[array]": lambda x: run_chain(PLAN, np.array([0.9, x])),
    "efficiency.efficiency_value(rate)": lambda x: efficiency.efficiency_value(x, 0.9, 0.95),
    "efficiency.efficiency_value(f_in)": lambda x: efficiency.efficiency_value(0.5, x, 0.95),
    "efficiency.efficiency_value(f_out)": lambda x: efficiency.efficiency_value(0.5, 0.9, x),
    "efficiency.efficiency_curve(grid)": lambda x: efficiency.efficiency_curve(
        PLAN, np.array([0.9, x])
    ),
    "purify.PauliDistribution.from_fidelity": lambda x: purify.PauliDistribution.from_fidelity(x),
    "purify.run_rounds(f_in)": lambda x: purify.run_rounds("dejmps", 2, f_in=x),
    "purify.run_rounds(rounds)": lambda x: purify.run_rounds("dejmps", x, f_in=0.9),
    "purify.run_rounds(dist)": lambda x: purify.run_rounds(
        "dejmps", 2, dist=dist(x, 0.1, 0.1, 0.1)
    ),
    "purify.run_rounds(dist.p_x)": lambda x: purify.run_rounds(
        "bbpssw", 1, dist=dist(0.7, x, 0.1, 0.1)
    ),
    "purify.bbpssw_closed_form": lambda x: bbpssw_closed_form(x),
    "purify.circuit_oracle": lambda x: circuit_oracle("dejmps", dist(0.7, 0.1, x, 0.1)),
    "hybrid.min_rounds_to_fidelity(f_in)": lambda x: hybrid.min_rounds_to_fidelity(x, 0.95),
    "hybrid.min_rounds_to_fidelity(target)": lambda x: hybrid.min_rounds_to_fidelity(0.9, x),
    "hybrid.hybrid_run(f_in)": lambda x: hybrid.hybrid_run(x),
    "hybrid.baseline_distillable(f_in)": lambda x: baseline_distillable(x),
    "hybrid.refined_efficiency(f_in)": lambda x: refined(f_in=x),
    "hybrid.refined_efficiency(f_out)": lambda x: refined(f_out=x),
    "hybrid.refined_efficiency(output_ratio)": lambda x: refined(output_ratio=x),
    "hybrid.refined_efficiency(p_total_discard)": lambda x: refined(p_total_discard=x),
    "hybrid.checkpoint_scan(grid)": lambda x: hybrid.checkpoint_scan("933", np.array([0.9, x])),
    "convergence.iterate(a_0)": lambda x: convergence.iterate("bbpssw", (x, 0.2, 0.1, 0.1), 5),
    "convergence.iterate(d_0)": lambda x: convergence.iterate("dejmps", (0.6, 0.2, 0.1, x), 5),
    "convergence.iterate(n_max)": lambda x: convergence.iterate("bbpssw", (0.6, 0.2, 0.1, 0.1), x),
}

# the entries of CALLS whose argument is a count: 2.5 must fail as nan does
COUNTS = [name for name in CALLS if name.endswith(("(n_swaps)", "(n_repeaters)", "(rounds)", "(n_max)"))]

NON_FINITE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])


@pytest.mark.parametrize("name", list(CALLS))
@settings(deadline=None)
@given(value=NON_FINITE, as_numpy=st.booleans())
def test_non_finite_argument_raises_value_error(name, value, as_numpy):
    with pytest.raises(ValueError):
        CALLS[name](np.float64(value) if as_numpy else value)


@pytest.mark.parametrize("name", COUNTS)
def test_fractional_count_raises_value_error(name):
    with pytest.raises(ValueError):
        CALLS[name](2.5)
