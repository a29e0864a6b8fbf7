import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import bitmatrix_oracle as oracle
from decoder_oracle import canonical_key, classify_error, entries, syndrome_of, weight
from entdist.codes import CheckResult, StabilizerCode, builtin_code, builtin_names, load_code, validate_code
from entdist.decoder import (
    build_lookup_table,
    builtin_polynomial,
    code_distance,
    eval_qec_map,
    logical_fidelity_polynomial,
)
from entdist.pauli import PauliString

P = PauliString.from_string

THREE_QUBIT = StabilizerCode(
    "threequbit", 3, 1, 1, (P("ZZI"), P("IZZ")), (P("XXX"),), (P("ZII"),)
)


@pytest.fixture(scope="module")
def luts():
    return {name: build_lookup_table(builtin_code(name)) for name in builtin_names()}


@pytest.fixture(scope="module")
def polys():
    return {name: logical_fidelity_polynomial(builtin_code(name)) for name in builtin_names()}


def test_worked_syndrome_example():
    assert syndrome_of(THREE_QUBIT, P("XII")) == (1, 0)


def test_enumeration_matches_canonical_order():
    from entdist.decoder import _weights

    # the leader key (weight, index m) orders the errors canonically
    order = np.lexsort((np.arange(16), _weights(2)))
    enumerated = []
    for idx in order.tolist():
        # packed masks keep qubit 0 at the high bit: mx = m >> 2, mz = m & 3
        x = ((idx >> 2) >> 1) | (((idx >> 2) & 1) << 1)
        z = ((idx & 3) >> 1) | ((idx & 1) << 1)
        enumerated.append(PauliString(2, x, z))
    expected = sorted(
        (PauliString(2, x, z) for x in range(4) for z in range(4)), key=canonical_key
    )
    assert enumerated == expected


@pytest.mark.parametrize("name", builtin_names())
def test_packed_kernel_matches_bit_matrix_oracle(name):
    from entdist.decoder import _syndromes, _weights

    code = builtin_code(name)
    n = code.n
    w = _weights(n)
    xb, zb, w_ref, _ = oracle.enumeration(n)
    assert np.array_equal(w, w_ref)
    for ops in (code.stabilizers, code.logical_x + code.logical_z):
        ox, oz = oracle.bit_matrix(ops, n)
        sid = _syndromes(ops, n)
        assert sid.dtype == np.int32
        assert np.array_equal(sid, oracle.syndrome_ids(xb, zb, ox, oz))


def test_packed_syndromes_match_scalar_syndrome_of():
    from entdist.decoder import _syndromes

    code = builtin_code("513")
    sid = _syndromes(code.stabilizers, 5)
    xb, zb, _, _ = oracle.enumeration(5)
    for m in range(4**5):
        x = sum(int(b) << j for j, b in enumerate(xb[m]))
        z = sum(int(b) << j for j, b in enumerate(zb[m]))
        bits = syndrome_of(code, PauliString(5, x, z))
        assert int(sid[m]) == sum(b << (3 - i) for i, b in enumerate(bits))


def test_five_qubit_table_is_identity_plus_weight_one(luts):
    table = entries(luts["513"])
    assert len(table) == 16
    leaders = list(table.values())
    assert sum(1 for p in leaders if weight(p) == 0) == 1
    assert sum(1 for p in leaders if weight(p) == 1) == 15
    assert table[(0, 0, 0, 0)] == PauliString(5, 0, 0)


def test_nine_qubit_table_sizes(luts):
    assert len(entries(luts["913"])) == 256
    assert len(entries(luts["923"])) == 128
    assert len(entries(luts["933"])) == 64
    # exhaustive enumeration: the deepest coset leader for 913 has weight 5
    assert max(weight(p) for p in entries(luts["913"]).values()) == 5


def test_zero_syndrome_maps_to_identity(luts):
    for name, lut in luts.items():
        m = builtin_code(name).n - builtin_code(name).k
        assert weight(entries(lut)[(0,) * m]) == 0


def test_entries_reproduce_their_syndrome(luts):
    for name, lut in luts.items():
        code = builtin_code(name)
        for syndrome, leader in entries(lut).items():
            assert syndrome_of(code, leader) == syndrome


def test_lookup_consistency_on_random_errors(luts):
    rng = random.Random(20240601)
    for name, lut in luts.items():
        code = builtin_code(name)
        for _ in range(1000):
            e = PauliString(code.n, rng.getrandbits(code.n), rng.getrandbits(code.n))
            s = syndrome_of(code, e)
            assert syndrome_of(code, entries(lut)[s]) == s


def test_coset_leaders_have_minimum_weight(luts):
    # the stored correction is never heavier than any same-syndrome error
    from entdist.decoder import _syndromes, _weights

    for name, lut in luts.items():
        code = builtin_code(name)
        w = _weights(code.n)
        sid = _syndromes(code.stabilizers, code.n)
        min_w = np.full(2 ** (code.n - code.k), code.n + 1, dtype=np.int64)
        np.minimum.at(min_w, sid, w)
        xb, zb, _, _ = oracle.enumeration(code.n)
        stored_w = (xb[lut.leaders] | zb[lut.leaders]).sum(axis=1)
        assert np.array_equal(stored_w, min_w)


def _oracle_leaders(code):
    """Index m of the first error per syndrome, syndrome 0 first, walking
    the bit-matrix oracle's canonical order."""
    xb, zb, _, order = oracle.enumeration(code.n)
    ox, oz = oracle.bit_matrix(code.stabilizers, code.n)
    sid = oracle.syndrome_ids(xb, zb, ox, oz)
    found, first = np.unique(sid[order], return_index=True)
    assert np.array_equal(found, np.arange(2 ** (code.n - code.k)))
    return order[first]


@pytest.mark.parametrize("name", builtin_names())
def test_leaders_are_first_per_syndrome_in_canonical_order(luts, name):
    # 240 of the 913 table's 256 syndromes have several minimum-weight
    # errors: the tie-break (least index m) decides its A_w counts
    assert np.array_equal(luts[name].leaders, _oracle_leaders(builtin_code(name)))


FOUR_TWO_TWO_FILE = """name=four-two-two
n=4
k=2
d=2
H:
XXXX
ZZZZ
X:
XXII
XIXI
Z:
ZIZI
ZZII
"""


def test_code_file_leaders_are_first_per_syndrome_in_canonical_order(tmp_path):
    # distance 2: every nonzero syndrome has several weight-1 errors
    path = tmp_path / "four_two_two.txt"
    path.write_text(FOUR_TWO_TWO_FILE)
    code = load_code(path)
    assert code.name not in builtin_names()
    lut = build_lookup_table(code)
    assert np.array_equal(lut.leaders, _oracle_leaders(code))
    assert code_distance(code) == 2


def test_ten_qubit_build_keys_use_24_bits():
    # the 10-qubit bit-flip code: keys (w << 20) | m reach bit 23, and an x
    # pattern and its complement share a syndrome, so weight must win over m
    from entdist.decoder import _weights

    n = 10
    stabilizers = tuple(P("I" * i + "ZZ" + "I" * (n - 2 - i)) for i in range(n - 1))
    code = StabilizerCode("rep10", n, 1, 1, stabilizers, (P("X" * n),), (P("Z" + "I" * (n - 1)),))
    lut = build_lookup_table(code)
    assert lut.leaders.dtype == np.intp and lut.syndromes.dtype == np.int32
    # first per syndrome after a stable sort by weight: canonical order
    order = np.argsort(_weights(n), kind="stable")
    _, first = np.unique(lut.syndromes[order], return_index=True)
    assert np.array_equal(lut.leaders, order[first])
    rng = np.random.default_rng(10)
    for m in rng.integers(0, 4**n, size=300).tolist():
        e = PauliString(n, int(f"{m >> n:0{n}b}"[::-1], 2), int(f"{m & (2**n - 1):0{n}b}"[::-1], 2))
        assert int(lut.syndromes[m]) == sum(b << (n - 2 - i) for i, b in enumerate(syndrome_of(code, e)))
        assert int(_weights(n)[m]) == weight(e)
    table = entries(lut)
    assert len(table) == 2 ** (n - 1)
    for syndrome, leader in table.items():
        assert syndrome_of(code, leader) == syndrome
        assert leader.z == 0 and weight(leader) <= n // 2
    assert code_distance(code) == 1


def test_classify_identity_corrected(luts):
    for name, lut in luts.items():
        code = builtin_code(name)
        out = classify_error(code, lut, PauliString(code.n, 0, 0))
        assert out.corrected


def test_five_qubit_corrects_all_weight_one(luts):
    code = builtin_code("513")
    lut = luts["513"]
    for j in range(5):
        for letter in "XYZ":
            e = P("".join(letter if i == j else "I" for i in range(5)))
            assert classify_error(code, lut, e).corrected


def test_913_has_weight_two_logical_failure(luts):
    code = builtin_code("913")
    lut = luts["913"]
    ordered = sorted(
        (PauliString(9, x, z) for x, z in _weight_two_pairs(9)), key=canonical_key
    )
    first_failure = None
    for e in ordered:
        out = classify_error(code, lut, e)
        if not out.corrected:
            first_failure = (e, out)
            break
    assert first_failure is not None
    e, out = first_failure
    assert weight(e) == 2
    leader = entries(lut)[syndrome_of(code, e)]
    assert leader != e and weight(leader) <= 2
    assert any(out.x_anticommutes) or any(out.z_anticommutes)


def _weight_two_pairs(n):
    for i, j in itertools.combinations(range(n), 2):
        for li, lj in itertools.product("XYZ", repeat=2):
            x = z = 0
            for q, letter in ((i, li), (j, lj)):
                if letter in "XY":
                    x |= 1 << q
                if letter in "ZY":
                    z |= 1 << q
            yield x, z


def test_polynomial_basic_invariants(polys):
    for name, poly in polys.items():
        n, k = poly.n, poly.k
        assert poly.counts[0] == 1
        assert len(poly.counts) == n + 1
        for w, a in enumerate(poly.counts):
            assert 0 <= a <= math.comb(n, w) * 3**w
        # corrected errors per syndrome = |stabilizer group|, so the total
        # count is exactly 4^(n-k) (and in particular <= 4^n)
        assert sum(poly.counts) == 4 ** (n - k)


def test_five_qubit_polynomial_vs_scalar_bruteforce(luts, polys):
    code = builtin_code("513")
    lut = luts["513"]
    counts = [0] * 6
    for x in range(32):
        for z in range(32):
            e = PauliString(5, x, z)
            if classify_error(code, lut, e).corrected:
                counts[weight(e)] += 1
    assert tuple(counts) == polys["513"].counts


def test_913_beats_923_at_high_fidelity(polys):
    assert eval_qec_map(polys["913"], 0.99) > eval_qec_map(polys["923"], 0.99)


def test_eval_extremes_and_range(polys):
    for poly in polys.values():
        assert eval_qec_map(poly, 1.0) == 1.0
        out = eval_qec_map(poly, np.linspace(0.0, 1.0, 11))
        assert np.all((out >= 0.0) & (out <= 1.0))
    with pytest.raises(ValueError):
        eval_qec_map(polys["913"], 1.5)
    with pytest.raises(ValueError):
        eval_qec_map(polys["913"], -0.1)


@pytest.mark.parametrize("name", builtin_names())
def test_eval_qec_map_within_6_ulp_of_mpmath(name):
    """Pins the kernel's rounding against the sum at 50 digits: a rewrite
    of the kernel must stay within 6 ulp on [0.5, 1) (4.74, 3.46, 3.32,
    3.12 and 3.10 ulp measured for 913, 923, 933, 513 and 713), and within
    12 ulp on the F < 0.5 points of the ``repro`` grid, the worst rows of
    the ``qec_map_*`` tables (10.34, 10.39, 9.74, 6.34 and 8.48 ulp)."""
    mpmath = pytest.importorskip("mpmath")
    poly = builtin_polynomial(name)
    repro_grid = np.linspace(0.0, 1.0, 1000)
    high = np.concatenate([np.linspace(0.5, 1.0, 2000, endpoint=False), 1.0 - 10.0 ** np.arange(-12, 0)])

    def worst_ulp(f):
        worst = 0.0
        with mpmath.workdps(50):
            for fi, oi in zip(f.tolist(), eval_qec_map(poly, f).tolist()):
                F = mpmath.mpf(fi)
                e = (1 - F) / 3
                ref = mpmath.fsum(a * F ** (poly.n - w) * e**w for w, a in enumerate(poly.counts) if a)
                worst = max(worst, float(abs(oi - ref)) / np.spacing(float(ref)))
        return worst

    assert worst_ulp(high) <= 6.0
    assert worst_ulp(repro_grid[repro_grid < 0.5]) <= 12.0


def test_probability_conservation_direct_sum():
    from entdist.decoder import _weights

    for name in ("913", "923", "933"):
        n = builtin_code(name).n
        w = _weights(n)
        for f in (0.3, 0.7, 0.95):
            total = np.sum(f ** (n - w) * ((1.0 - f) / 3.0) ** w)
            assert abs(total - 1.0) < 1e-12


def test_polynomial_matches_direct_summation(luts, polys):
    # re-derive F_out at F = 0.9 by summing over all 4^9 errors
    code = builtin_code("913")
    lut = luts["913"]
    xb, zb, w, _ = oracle.enumeration(9)
    leader = lut.leaders[lut.syndromes]
    res_x = xb ^ xb[leader]
    res_z = zb ^ zb[leader]
    gx, gz = oracle.bit_matrix(code.logical_x + code.logical_z, 9)
    anti = (res_x.astype(np.int64) @ gz.T + res_z.astype(np.int64) @ gx.T) % 2
    corrected = ~anti.any(axis=1)
    f = 0.9
    direct = np.sum(f ** (9 - w[corrected]) * ((1.0 - f) / 3.0) ** w[corrected])
    assert abs(direct - eval_qec_map(polys["913"], f)) < 1e-12


def test_monte_carlo_oracle_913(polys):
    # sample errors qubit-by-qubit from the depolarizing weights and decode
    code = builtin_code("913")
    lut = build_lookup_table(code)
    f = 0.95
    n_samples = 1_000_000
    rng = np.random.default_rng(987654321)
    letters = rng.choice(4, size=(n_samples, 9), p=[f] + [(1 - f) / 3] * 3)
    xb = ((letters == 1) | (letters == 2)).astype(np.int64)
    zb = ((letters == 2) | (letters == 3)).astype(np.int64)
    sx, sz = oracle.bit_matrix(code.stabilizers, 9)
    syn = (xb @ sz.T + zb @ sx.T) % 2
    sid = syn @ (1 << np.arange(7, -1, -1))
    leader_x, leader_z, _, _ = oracle.enumeration(9)
    res_x = xb ^ leader_x[lut.leaders[sid]]
    res_z = zb ^ leader_z[lut.leaders[sid]]
    gx, gz = oracle.bit_matrix(code.logical_x + code.logical_z, 9)
    anti = (res_x @ gz.T + res_z @ gx.T) % 2
    p_hat = float(np.mean(~anti.any(axis=1)))
    exact = eval_qec_map(polys["913"], f)
    sigma = math.sqrt(exact * (1 - exact) / n_samples)
    assert abs(p_hat - exact) < 3 * sigma


def test_pseudo_threshold_933_near_reference_value(polys):
    from entdist.hybrid import pseudo_threshold

    thr = pseudo_threshold(polys["933"])
    assert 0.9543 <= thr <= 0.9583


def test_enumeration_refuses_more_than_ten_qubits():
    from entdist.decoder import _weights

    # n = 11 only: refused before its 4^11-entry tables are allocated
    with pytest.raises(ValueError, match="n <= 10"):
        _weights(11)


def test_code_distance_matches_stored():
    for name in builtin_names():
        code = builtin_code(name)
        assert code_distance(code) == code.d


def test_packed_syndrome_refuses_more_than_31_operators():
    # int32 syndrome ids would drop the first operators' bits
    crowded = StabilizerCode("crowded", 2, 1, 1, (P("ZZ"),) * 32, (P("XX"),), (P("ZI"),))
    with pytest.raises(ValueError, match="at most 31 operators"):
        code_distance(crowded)


def test_build_rejects_invalid_code():
    bad = StabilizerCode("bad", 2, 0, 1, (P("XI"), P("ZI")), (), ())
    with pytest.raises(ValueError, match="failed validation"):
        build_lookup_table(bad)


def test_classify_rejects_wrong_size(luts):
    with pytest.raises(ValueError, match="mismatch|qubits"):
        classify_error(builtin_code("513"), luts["513"], P("XII"))


def test_export_rows(polys):
    assert polys["513"].counts == (1, 15, 0, 60, 135, 45)
    f_out = eval_qec_map(polys["913"], np.linspace(0.0, 1.0, 1000))
    assert f_out.shape == (1000,)
    assert f_out[-1] == 1.0


def test_builtin_polynomial_cached():
    assert builtin_polynomial("933") is builtin_polynomial("933")


def test_code_distance_of_a_stabilizer_state():
    # k = 0: the commuting operators are the stabilizer group, so d is the
    # least weight of a non-identity stabilizer
    for name, generators in (("bell", ("XX", "ZZ")), ("ghz3", ("XXX", "ZZI", "IZZ"))):
        state = StabilizerCode(name, len(generators), 0, 2, tuple(map(P, generators)), (), ())
        assert code_distance(state) == 2
        checks = validate_code(state, check_distance=True)
        assert [c.name for c in checks] == [
            "shape", "stabilizers_commute", "generator_independence",
            "logicals_commute_with_stabilizers", "logical_pairing", "distance",
        ]
        assert all(c.passed for c in checks)
        checks = validate_code(replace(state, d=3), check_distance=True)
        assert checks[-1] == CheckResult("distance", False, "computed d=2, stored d=3")
