"""The in-place array kernels give the bits of the whole expressions, and
never write their input.

``eval_qec_map`` and ``swap_fidelity_uniform`` update one term array in
place instead of building a new array per operation.  Every operation
and its order are those of ``kernel_oracle``, so arrays must match it
byte for byte (through the blocked path, across block edges, on 1, 2 and
3 threads) and scalars must match it by ``float.hex``: a 0-d input runs
on numpy scalars, as the expressions do.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import kernel_oracle as oracle
from entdist.chain import ChainPlan, run_chain
from entdist.codes import builtin_names
from entdist.decoder import builtin_polynomial, eval_qec_map
from entdist.efficiency import PROTOCOL_SEQUENCES
from entdist.werner import _BLOCK, distillable_entanglement, hashing_threshold, swap_fidelity_uniform
from test_blocked import PLANS, _same_bytes, each_thread_count

N = 3 * _BLOCK + 7
SPECIAL = (0.0, -0.0, 0.25, 1.0)


@pytest.fixture(scope="module")
def x():
    """``N`` points with the special values at both edges of every block."""
    f = np.random.default_rng(21).random(N)
    for b in range(0, N, _BLOCK):
        f[b : b + len(SPECIAL)] = SPECIAL
        f[min(b + _BLOCK, N) - len(SPECIAL) : min(b + _BLOCK, N)] = SPECIAL
    return f


def scalars(n):
    return list(SPECIAL) + np.random.default_rng(22).random(n).tolist()


def _same_hex(kernel, expression, points):
    for f in points:
        got, want = kernel(f), expression(f)
        assert type(got) is float
        assert got.hex() == want.hex(), f


@pytest.mark.parametrize("name", builtin_names())
def test_eval_qec_map_matches_the_expression(name, x, monkeypatch):
    poly = builtin_polynomial(name)
    want = oracle.eval_qec_map(poly, x)
    for _ in each_thread_count(monkeypatch):
        _same_bytes(eval_qec_map(poly, x), want)
    _same_bytes(eval_qec_map(poly, x[:100]), want[:100])  # straight through
    _same_hex(lambda f: eval_qec_map(poly, f), lambda f: oracle.eval_qec_map(poly, f), scalars(596))


@pytest.mark.parametrize("n_swaps", range(6))
def test_swap_fidelity_uniform_matches_the_expression(n_swaps, x):
    _same_bytes(swap_fidelity_uniform(x, n_swaps), oracle.swap_fidelity_uniform(x, n_swaps))
    _same_hex(
        lambda f: swap_fidelity_uniform(f, n_swaps),
        lambda f: oracle.swap_fidelity_uniform(f, n_swaps),
        scalars(596),
    )


def _below_a_quarter(n):
    """``n`` fidelities in [0, 1/4): every Werner parameter negative."""
    return 0.25 * np.random.default_rng(24).random(n)


@pytest.mark.parametrize("n_swaps", range(2, 6))
def test_negative_werner_powers_within_2_ulp_of_exact(n_swaps):
    # the lanes that powering |w| moves: w < 0 at exponents 3 to 6
    f = _below_a_quarter(2000)
    got = swap_fidelity_uniform(f, n_swaps)
    for fi, gi in zip(f.tolist(), got.tolist()):
        w = (4 * Fraction(fi) - 1) / 3
        exact = Fraction(1, 4) + Fraction(3, 4) * w ** (n_swaps + 1)
        assert abs(Fraction(gi) - exact) <= 2 * Fraction(math.ulp(gi)), fi


@pytest.mark.parametrize("n_swaps", range(6))
def test_negative_werner_scalars_run_the_float_expression(n_swaps):
    # a scalar takes the C library's pow, negative base and all
    for f in [0.0, 0.1, 0.2] + _below_a_quarter(500).tolist():
        w = (4.0 * f - 1.0) / 3.0
        want = 0.25 + 0.75 * w ** (n_swaps + 1)
        assert swap_fidelity_uniform(f, n_swaps).hex() == want.hex(), f


def test_distillable_entanglement_matches_the_guarded_expression():
    # at 1.0 only a guard keeps log2(0) out; 1e-310 and 5e-324 are subnormal
    edges = [1.0, np.nextafter(1.0, 0.0), 5e-324, 1e-310, 1e-300, hashing_threshold(), 0.5]
    f = np.concatenate([edges, 1.0 - np.random.default_rng(23).random(N)])  # in (0, 1]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        _same_bytes(distillable_entanglement(f), oracle.distillable_entanglement(f))
        # a float runs its own branch, yet must give its array lane's bits:
        # math.log2 in place of the 0-d np.log2 differs at about 1 point in 1,000
        rng = np.random.default_rng(24)
        tiny = np.exp2(-rng.uniform(0.0, 1074.0, 2000))  # down to the subnormals
        near_one = 1.0 - np.ldexp(rng.integers(1, 2**30, 2000), -53)  # 1 - F from 2^-53
        points = np.concatenate([f[:20000], tiny, near_one])
        want = oracle.distillable_entanglement(points).tolist()
        for p, w in zip(points.tolist(), want):
            for got in (distillable_entanglement(p), distillable_entanglement(np.float64(p))):
                assert type(got) is float and got.hex() == w.hex(), p


@pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.label)
def test_run_chain_matches_the_expressions(plan, x, monkeypatch):
    want = oracle.run_chain(plan, x, builtin_polynomial)
    for _ in each_thread_count(monkeypatch):
        _same_bytes(run_chain(plan, x), want)
    _same_hex(
        lambda f: run_chain(plan, f),
        lambda f: oracle.run_chain(plan, f, builtin_polynomial),
        scalars(46),
    )


def _calls():
    """The three kernels as one-argument calls; an array of more than
    ``_BLOCK`` points takes the blocked path of the two decorated ones."""
    poly = builtin_polynomial("933")
    plan = ChainPlan(3, PROTOCOL_SEQUENCES["P3"])
    return [
        lambda f: eval_qec_map(poly, f),
        lambda f: swap_fidelity_uniform(f, 0),
        lambda f: swap_fidelity_uniform(f, 3),
        lambda f: run_chain(plan, f),
    ]


@pytest.mark.parametrize("size", [100, N], ids=["straight", "blocked"])
def test_inputs_are_never_written(size, x, monkeypatch):
    base = x[:size].copy()
    for _ in each_thread_count(monkeypatch):
        for call in _calls():
            want = call(base.copy())

            own = base.copy()  # the caller's own float64 array
            _same_bytes(call(own), want)
            assert own.tobytes() == base.tobytes()

            frozen = base.copy()
            frozen.setflags(write=False)
            _same_bytes(call(frozen), want)
            assert frozen.tobytes() == base.tobytes()

            parent = np.repeat(base, 2)  # every other point is a strided view
            _same_bytes(call(parent[::2]), want)
            assert parent.tobytes() == np.repeat(base, 2).tobytes()


@pytest.mark.parametrize("f", SPECIAL + (0.9,))
def test_0d_inputs_are_never_written(f):
    for call in _calls():
        want = call(f)
        point = np.array(f)
        assert call(point).hex() == want.hex()
        assert point.tobytes() == np.array(f).tobytes()
        point.setflags(write=False)
        assert call(point).hex() == want.hex()
