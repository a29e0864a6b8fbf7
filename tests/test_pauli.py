import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decoder_oracle import canonical_key, multiply, weight
from entdist.pauli import PauliString, commutes_with

P = PauliString.from_string


# the single-qubit Paulis as dense 2x2 matrices
MATRIX = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def all_paulis(n):
    for letters in itertools.product("IXYZ", repeat=n):
        yield P("".join(letters))


def dense(p):
    """The operator as a 2^n x 2^n matrix, qubit 0 the leftmost kron factor."""
    return reduce(np.kron, (MATRIX[letter] for letter in p.letters()))


def test_multiply_single_qubit_table():
    assert multiply(P("X"), P("X")) == P("I")
    assert multiply(P("X"), P("Z")) == P("Y")
    assert multiply(P("X"), P("Y")) == P("Z")
    assert multiply(P("Z"), P("X")) == P("Y")
    assert multiply(P("Y"), P("Y")) == P("I")


def test_multiply_two_qubit_example():
    assert multiply(P("XX"), P("ZZ")) == P("YY")


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
    assert weight(P("III")) == 0
    assert weight(P("ZZI")) == 2
    assert weight(P("YIZ")) == 2


def test_self_product_is_unsigned_identity():
    for a in all_paulis(2):
        prod = multiply(a, a)
        assert prod.x == 0 and prod.z == 0


def test_multiply_associative_exhaustive_two_qubits():
    ops = list(all_paulis(2)) + [P("YX"), P("ZY"), P("XI")]
    for a, b, c in itertools.product(ops[:16], ops[:16], ops[16:]):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_commutation_symmetry_exhaustive():
    ops = list(all_paulis(2))
    for a, b in itertools.product(ops, ops):
        assert commutes_with(a, b) == commutes_with(b, a)


def test_commutes_iff_dense_matrices_commute():
    # all 256 pairs of 2-qubit operators, against the matrices themselves
    for a, b in itertools.product(all_paulis(2), repeat=2):
        ma, mb = dense(a), dense(b)
        assert commutes_with(a, b) == np.array_equal(ma @ mb, mb @ ma)


def test_multiply_is_dense_product_up_to_phase():
    for a, b in itertools.product(all_paulis(2), repeat=2):
        product, expected = dense(a) @ dense(b), dense(multiply(a, b))
        assert any(np.array_equal(product, c * expected) for c in (1, 1j, -1, -1j))


def test_roundtrip_all_three_qubit_strings():
    for letters in itertools.product("IXYZ", repeat=3):
        text = "".join(letters)
        assert str(P(text)) == text
    # a sign prefix is accepted and dropped
    for prefix in ("+", "i", "+i", "-", "-i"):
        assert str(P(prefix + "XYZ")) == "XYZ"


def test_parse_rejects_garbage():
    for bad in ("", "-i", "XQZ", "x"):
        with pytest.raises(ValueError):
            P(bad)


def test_bit_conventions():
    p = P("YIZ")
    assert (p.x, p.z) == (0b001, 0b101)
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
    assert 0 <= weight(multiply(a, b)) <= n


def test_constructor_refuses_bad_sizes():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"qubit count must be positive, got {n}"):
            PauliString(n, 0, 0)
    for x, z in ((0b100, 0), (0, 0b100), (-1, 0)):
        with pytest.raises(ValueError, match="bitmask exceeds qubit count"):
            PauliString(2, x, z)


def test_letter_index_out_of_range():
    p = P("XZ")
    for j in (-1, 2):
        with pytest.raises(IndexError):
            p.letter(j)


def test_repr_shows_the_unsigned_letters():
    assert repr(P("-iYIZ")) == "PauliString('YIZ')"


def test_commutes_with_refuses_a_size_mismatch():
    with pytest.raises(ValueError, match="qubit count mismatch: 1 vs 2"):
        commutes_with(P("X"), P("XX"))
