"""Blocked evaluation of the array entry points is bit-identical.

``chain.run_chain`` and ``decoder.eval_qec_map`` evaluate arrays longer
than ``werner._BLOCK`` points block by block, on a pool of
``werner._THREADS`` threads where each block goes to whichever thread is
free.  The checks compare bytes: against the undecorated kernel
(``__wrapped__``) on the whole array, and against a one-point array call
per sampled point.  Each runs with 1, 2 and 3 threads, over the four
blocks of ``N`` points.

A scalar call is not held to the same bytes.  On a 0-d input the kernels'
intermediates are numpy scalars, whose ``**`` is the C library's ``pow``,
while arrays take numpy's SIMD power loop where the CPU has one (AVX-512);
the two differ in the last bits at a few percent of points, before and
after blocking alike.  Scalars are checked to 64 ulp.
"""

import threading
import time

import numpy as np
import pytest

from entdist import chain, werner
from entdist.chain import ChainPlan, run_chain
from entdist.codes import builtin_names
from entdist.decoder import builtin_polynomial, eval_qec_map
from entdist.efficiency import PROTOCOL_SEQUENCES
from entdist.werner import _BLOCK

# P1-P4 and the four round-skipping sequences of the benchmark's array sweep
ROUNDS = list(PROTOCOL_SEQUENCES.values()) + [
    ("913", None, "933"),
    ("513", None, None),
    ("513", "713", None),
    (None, "923", "933"),
]
PLANS = [ChainPlan(reps, rounds) for reps in (0, 1, 3, 5) for rounds in ROUNDS]
N = 3 * _BLOCK + 7  # three full blocks and a ragged tail
THREADS = (1, 2, 3)


@pytest.fixture(scope="module")
def x():
    f = np.random.default_rng(12).random(N)
    f[:3] = (0.0, 1.0, 0.75)
    return f


@pytest.fixture(scope="module")
def sample():
    """Indices checked one point at a time: both ends of every block and a
    seeded spread."""
    edges = [i for b in range(0, N, _BLOCK) for i in (b, b + 1, min(b + _BLOCK, N) - 1)]
    return sorted(set(edges) | set(np.random.default_rng(13).integers(0, N, 24).tolist()))


def whole_chain(plan, f):
    """``run_chain`` evaluated on the whole array, as before blocking: the
    undecorated chain kernel calling the undecorated round map."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "eval_qec_map", eval_qec_map.__wrapped__)
        return run_chain.__wrapped__(plan, f)


def each_thread_count(monkeypatch):
    """Sets ``werner._THREADS`` to 1, 2 and 3 in turn, yielding each."""
    for n in THREADS:
        monkeypatch.setattr(werner, "_THREADS", n)
        yield n


def _same_bytes(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _check_points(kernel, arg, x, out, sample):
    for i in sample:
        assert kernel(arg, x[i : i + 1]).tobytes() == out[i : i + 1].tobytes(), i
        assert kernel(arg, float(x[i])) == pytest.approx(out[i], rel=64 * np.finfo(float).eps), i


@pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.label)
def test_run_chain_blocks_match_whole_array_and_points(plan, x, sample, monkeypatch):
    whole = whole_chain(plan, x)
    for _ in each_thread_count(monkeypatch):
        out = run_chain(plan, x)
        _same_bytes(out, whole)
    _check_points(run_chain, plan, x, out, sample)


@pytest.mark.parametrize("name", builtin_names())
def test_eval_qec_map_blocks_match_whole_array_and_points(name, x, sample, monkeypatch):
    poly = builtin_polynomial(name)
    whole = eval_qec_map.__wrapped__(poly, x)
    for _ in each_thread_count(monkeypatch):
        out = eval_qec_map(poly, x)
        _same_bytes(out, whole)
    _check_points(eval_qec_map, poly, x, out, sample)


@pytest.mark.parametrize(
    "make",
    [
        lambda x: x[:-1].reshape(6, -1),  # 2-D, rows of 16,385 points straddling blocks
        lambda x: np.concatenate([x, x])[::2],  # strided view
        lambda x: (x > 0.5).astype(int),  # int array of 0s and 1s
        lambda x: x.tolist(),  # long list
    ],
    ids=["2d", "strided", "int", "list"],
)
def test_input_layouts(make, x, monkeypatch):
    f = make(x)
    plan = ChainPlan(3, PROTOCOL_SEQUENCES["P3"])
    poly = builtin_polynomial("913")
    whole = whole_chain(plan, f), eval_qec_map.__wrapped__(poly, f)
    for _ in each_thread_count(monkeypatch):
        _same_bytes(run_chain(plan, f), whole[0])
        _same_bytes(eval_qec_map(poly, f), whole[1])


def test_scalars_and_0d_arrays_return_float():
    plan = ChainPlan(1, PROTOCOL_SEQUENCES["P3"])
    poly = builtin_polynomial("923")
    for f in (0.9, np.float64(0.9), np.array(0.9), 1):
        assert type(run_chain(plan, f)) is float
        assert type(eval_qec_map(poly, f)) is float


def _raises_the_whole_array_error(f, rounds, monkeypatch):
    calls = [
        (whole_chain, run_chain, ChainPlan(3, rounds)),
        (eval_qec_map.__wrapped__, eval_qec_map, builtin_polynomial("933")),
    ]
    before = threading.active_count()
    for whole_kernel, blocked_kernel, arg in calls:
        with pytest.raises(ValueError) as whole:
            whole_kernel(arg, f)
        for _ in each_thread_count(monkeypatch):
            with pytest.raises(ValueError) as blocked:
                blocked_kernel(arg, f)
            assert str(blocked.value) == str(whole.value)
            assert threading.active_count() == before


@pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
@pytest.mark.parametrize("rounds", [PROTOCOL_SEQUENCES["P3"], (None, "923", "933")])
def test_bad_value_in_last_block_raises_the_whole_array_error(bad, rounds, x, monkeypatch):
    f = x.copy()
    f[-1] = bad
    _raises_the_whole_array_error(f, rounds, monkeypatch)


@pytest.mark.parametrize("at", [0, _BLOCK + 1], ids=["block0", "block1"])
@pytest.mark.parametrize("rounds", [PROTOCOL_SEQUENCES["P3"], (None, "923", "933")])
def test_bad_value_in_first_blocks_raises_the_whole_array_error(at, rounds, x, monkeypatch):
    f = x.copy()
    f[at] = np.nan
    _raises_the_whole_array_error(f, rounds, monkeypatch)


@pytest.mark.parametrize("slow", [_BLOCK, 3 * _BLOCK], ids=["block1", "block3"])
def test_the_first_failing_blocks_error_is_raised(slow, monkeypatch):
    """Blocks 1 and 3 fail, the ``slow`` one last; block 1's error wins, as
    in the serial loop, and every thread has joined."""

    def kernel(arg, f):
        if f[0] in arg:
            if f[0] == slow:
                time.sleep(0.02)
            raise ValueError(f"block at {f[0]:g}")
        return f

    f = np.arange(N, dtype=float)
    before = threading.active_count()
    for _ in each_thread_count(monkeypatch):
        with pytest.raises(ValueError, match=f"block at {_BLOCK}$"):
            werner._blocked(kernel)((_BLOCK, 3 * _BLOCK), f)
        assert threading.active_count() == before
        _same_bytes(werner._blocked(kernel)((), f), f)
        assert threading.active_count() == before


@pytest.mark.parametrize("at", [_BLOCK + 1, N - 1], ids=["block1", "last"])
def test_callers_errstate_applies_in_every_block(at, x, monkeypatch):
    """``np.errstate(under="raise")`` raises from the blocked call exactly
    when it raises from the whole-array kernel: not on ``x``, and on a
    1e-40 input, whose ``f**9`` underflows, in a late block."""
    tiny = x.copy()
    tiny[at] = 1e-40
    plan = ChainPlan(3, PROTOCOL_SEQUENCES["P3"])
    poly = builtin_polynomial("913")
    calls = [(whole_chain, run_chain, plan), (eval_qec_map.__wrapped__, eval_qec_map, poly)]

    def underflows(kernel, arg, f):
        with np.errstate(under="raise"):
            try:
                kernel(arg, f)
            except FloatingPointError:
                return True
        return False

    for whole_kernel, blocked_kernel, arg in calls:
        assert not underflows(whole_kernel, arg, x)
        assert underflows(whole_kernel, arg, tiny)
        for _ in each_thread_count(monkeypatch):
            assert not underflows(blocked_kernel, arg, x)
            assert underflows(blocked_kernel, arg, tiny)


def test_run_chain_calls_its_round_maps_one_block_at_a_time(x, monkeypatch):
    sizes = {"eval_qec_map": [], "swap_fidelity_uniform": []}
    for name, seen in sizes.items():
        fn = getattr(chain, name)  # eval_qec_map(poly, f), swap_fidelity_uniform(f, n)
        spy = lambda *args, fn=fn, seen=seen: seen.append(max(map(np.size, args))) or fn(*args)
        monkeypatch.setattr(chain, name, spy)
    run_chain(ChainPlan(3, PROTOCOL_SEQUENCES["P3"]), x)
    # three rounds per block; blocks on different threads interleave
    per_round = sorted(n for n in (_BLOCK, _BLOCK, _BLOCK, 7) for _ in range(3))
    assert {name: sorted(seen) for name, seen in sizes.items()} == {
        "eval_qec_map": per_round,
        "swap_fidelity_uniform": per_round,
    }
