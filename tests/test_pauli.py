import itertools

import pytest
from hypothesis import given, strategies as st

from entdist.pauli import PauliString, canonical_key, commutes_with, multiply

P = PauliString.from_string


def all_paulis(n, phases=("",)):
    for letters in itertools.product("IXYZ", repeat=n):
        for prefix in phases:
            yield P(prefix + "".join(letters))


def test_multiply_single_qubit_table():
    assert multiply(P("X"), P("X")) == P("I")
    assert multiply(P("X"), P("Z")) == P("-iY")
    assert multiply(P("X"), P("Y")) == P("iZ")
    assert multiply(P("Z"), P("X")) == P("iY")
    assert multiply(P("Y"), P("Y")) == P("I")


def test_multiply_two_qubit_example():
    assert multiply(P("XX"), P("ZZ")) == P("-YY")


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(P("X"), P("XX"))


def test_commutes_examples():
    assert not commutes_with(P("X"), P("Z"))
    assert commutes_with(P("XX"), P("ZZ"))
    # worked syndrome example: XII anticommutes with ZZI, commutes with IZZ
    assert not commutes_with(P("XII"), P("ZZI"))
    assert commutes_with(P("XII"), P("IZZ"))


def test_weight_examples():
    assert P("III").weight == 0
    assert P("ZZI").weight == 2
    assert P("YIZ").weight == 2


def test_phase_values():
    assert P("X").phase == 1
    assert P("-iY").phase == -1j
    assert P("iZZ").phase == 1j
    assert multiply(P("XX"), P("ZZ")).phase == -1


def test_self_product_is_unsigned_identity():
    for a in all_paulis(2, phases=("", "i", "-", "-i")):
        prod = multiply(a, a)
        assert prod.x == 0 and prod.z == 0


def test_multiply_associative_exhaustive_two_qubits():
    ops = list(all_paulis(2)) + [P("-iYX"), P("iZY"), P("-XI")]
    for a, b, c in itertools.product(ops[:16], ops[:16], ops[16:]):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_commutation_symmetry_exhaustive():
    ops = list(all_paulis(2))
    for a, b in itertools.product(ops, ops):
        assert commutes_with(a, b) == commutes_with(b, a)


def test_commute_iff_products_share_phase():
    for a, b in itertools.product(all_paulis(2), repeat=2):
        ab, ba = multiply(a, b), multiply(b, a)
        assert commutes_with(a, b) == (ab.phase == ba.phase)


def test_roundtrip_all_three_qubit_strings():
    for letters in itertools.product("IXYZ", repeat=3):
        text = "".join(letters)
        assert str(P(text)) == text
    for prefix in ("i", "-", "-i"):
        assert str(P(prefix + "XYZ")) == prefix + "XYZ"


def test_parse_rejects_garbage():
    for bad in ("", "-i", "XQZ", "x"):
        with pytest.raises(ValueError):
            P(bad)


def test_bit_conventions():
    p = P("YIZ")
    assert p.x_bits == (1, 0, 0)
    assert p.z_bits == (1, 0, 1)
    assert p.letter(0) == "Y" and p.letter(2) == "Z"


def test_canonical_key_orders_weight_then_bits():
    # weight dominates; within a weight the x block is more significant
    # than the z block and qubit 0 is the most significant bit of each
    assert canonical_key(P("II")) < canonical_key(P("ZI"))
    assert canonical_key(P("ZI")) < canonical_key(P("XI"))
    assert canonical_key(P("IZ")) < canonical_key(P("ZI"))
    assert canonical_key(P("XX")) > canonical_key(P("YI"))  # weight 2 vs 1
    keys = [canonical_key(p) for p in all_paulis(2)]
    assert len(set(keys)) == len(keys)


@given(
    st.integers(1, 6),
    st.data(),
)
def test_commutation_symmetric_random(n, data):
    bits = st.integers(0, (1 << n) - 1)
    a = PauliString(n, data.draw(bits), data.draw(bits))
    b = PauliString(n, data.draw(bits), data.draw(bits))
    assert commutes_with(a, b) == commutes_with(b, a)


@given(st.integers(1, 6), st.data())
def test_multiply_weight_bounds_random(n, data):
    bits = st.integers(0, (1 << n) - 1)
    a = PauliString(n, data.draw(bits), data.draw(bits))
    b = PauliString(n, data.draw(bits), data.draw(bits))
    assert 0 <= multiply(a, b).weight <= n
