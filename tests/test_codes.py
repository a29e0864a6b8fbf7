import pytest
from hypothesis import given, strategies as st

from entdist.codes import (
    StabilizerCode,
    _gf2_rank,
    builtin_code,
    builtin_names,
    load_code,
    parse_code_text,
    validate_code,
)
from entdist.pauli import PauliString

P = PauliString.from_string


def code_text(code):
    """The code in the text format ``parse_code_text`` reads."""
    rows = [f"{key}={getattr(code, key)}" for key in ("name", "n", "k", "d")]
    for section, ops in (("H", code.stabilizers), ("X", code.logical_x), ("Z", code.logical_z)):
        rows += [f"{section}:", *(p.letters() for p in ops)]
    return "\n".join(rows) + "\n"


def results(code):
    return [(c.name, c.passed, c.detail) for c in validate_code(code)]


def passing(*names):
    return [(name, True, "") for name in names]


def test_builtin_names():
    assert builtin_names() == ("913", "923", "933", "513", "713")


def test_table_rows_spot_checks():
    c913 = builtin_code("913")
    assert c913.stabilizers[0].letters() == "YIZIIIIXY"
    assert c913.logical_x[0].letters() == "ZIIIIIIXX"
    c933 = builtin_code(933)
    assert c933.k == 3
    assert len(c933.stabilizers) == 6
    assert c933.stabilizers[5].letters() == "ZZZZIZZZZ"


def test_counts_match_parameters():
    for name in builtin_names():
        c = builtin_code(name)
        assert len(c.stabilizers) == c.n - c.k
        assert len(c.logical_x) == len(c.logical_z) == c.k


def test_all_builtins_validate_with_distance():
    for name in builtin_names():
        checks = validate_code(builtin_code(name), check_distance=True)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_five_qubit_code_validates():
    assert all(c.passed for c in validate_code(builtin_code("513")))


def test_unknown_code_rejected():
    with pytest.raises(ValueError, match="unknown code"):
        builtin_code("999")


def test_anticommuting_stabilizers_fail():
    bad = StabilizerCode("bad", 2, 0, 1, (P("XI"), P("ZI")), (), ())
    checks = validate_code(bad)
    assert not all(c.passed for c in checks)
    assert any(c.name == "stabilizers_commute" and not c.passed for c in checks)


def test_duplicate_stabilizers_fail_rank():
    bad = StabilizerCode("dup", 3, 1, 1, (P("ZZI"), P("ZZI")), (P("XXX"),), (P("ZII"),))
    assert results(bad) == [
        *passing("shape", "stabilizers_commute"),
        ("generator_independence", False, "symplectic rank 1, expected 2"),
        *passing("logicals_commute_with_stabilizers", "logical_pairing"),
    ]


def rank_by_elimination(rows, width):
    """GF(2) rank by Gauss-Jordan elimination on bit lists, column by column."""
    matrix = [[(r >> j) & 1 for j in range(width)] for r in rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i, row in enumerate(matrix):
            if i != rank and row[col]:
                matrix[i] = [a ^ b for a, b in zip(row, matrix[rank])]
        rank += 1
    return rank


@given(
    st.integers(1, 18).flatmap(
        lambda width: st.tuples(st.just(width), st.lists(st.integers(0, 2**width - 1), max_size=12))
    )
)
def test_gf2_rank_matches_row_reduction(case):
    width, rows = case
    assert _gf2_rank(rows) == rank_by_elimination(rows, width)


def test_wrong_logical_pairing_fails():
    # logical X commutes with its own logical Z
    bad = StabilizerCode("pair", 3, 1, 1, (P("ZZI"), P("IZZ")), (P("ZII"),), (P("IIZ"),))
    checks = validate_code(bad)
    assert any(c.name == "logical_pairing" and not c.passed for c in checks)


def test_code_file_roundtrip(tmp_path):
    for name in builtin_names():
        code = builtin_code(name)
        assert parse_code_text(code_text(code)) == code
    path = tmp_path / "code.txt"
    path.write_text(code_text(builtin_code("923")))
    assert load_code(path) == builtin_code("923")


def test_parse_code_text_errors():
    with pytest.raises(ValueError, match="missing header"):
        parse_code_text("n=3\nk=1\nd=1\nH:\nZZI\n")
    with pytest.raises(ValueError, match="unexpected content"):
        parse_code_text("name=x\nn=3\nk=1\nd=1\nZZI\n")
    with pytest.raises(ValueError, match="no stabilizer rows"):
        parse_code_text("name=x\nn=3\nk=1\nd=1\nH:\nX:\nZ:\n")


def test_custom_code_from_text_validates():
    text = "\n".join(
        ["name=threequbit", "n=3", "k=1", "d=1", "H:", "ZZI", "IZZ", "X:", "XXX", "Z:", "ZII", ""]
    )
    code = parse_code_text(text)
    assert all(c.passed for c in validate_code(code, check_distance=True))


def test_signed_rows_load_as_unsigned():
    def text(h1, h2, x, z):
        return "\n".join(["name=threequbit", "n=3", "k=1", "d=1", "H:", h1, h2, "X:", x, "Z:", z, ""])

    assert parse_code_text(text("-ZZI", "iIZZ", "-iXXX", "+ZII")) == parse_code_text(
        text("ZZI", "IZZ", "XXX", "ZII")
    )


def test_anticommuting_stabilizer_pairs_are_listed_in_order():
    code = StabilizerCode("sc", 3, 0, 1, (P("XII"), P("ZII"), P("IXI"), P("YZI")), (), ())
    assert results(code) == [
        ("shape", False, "expected 3 stabilizers and 0+0 logicals on 3 qubits"),
        ("stabilizers_commute", False,
         "anticommuting generator pairs: [(0, 1), (0, 3), (1, 3), (2, 3)]"),
        ("generator_independence", False, "symplectic rank 4, expected 3"),
        *passing("logicals_commute_with_stabilizers", "logical_pairing"),
    ]


@pytest.mark.parametrize(
    "lx, lz, pairs, pairing",
    [
        # X logicals come first in the logical index, then the Z logicals
        ("XII", "ZZZ", "[(0, 0)]", ""),
        ("XXX", "XII", "[(1, 0)]", "wrong X/Z pairing at indices: [(0, 0)]"),
    ],
)
def test_logicals_anticommuting_with_stabilizers_are_listed(lx, lz, pairs, pairing):
    code = StabilizerCode("lc", 3, 1, 1, (P("ZZI"), P("IZZ")), (P(lx),), (P(lz),))
    assert results(code) == [
        *passing("shape", "stabilizers_commute", "generator_independence"),
        ("logicals_commute_with_stabilizers", False,
         f"anticommuting (logical, stabilizer) pairs: {pairs}"),
        ("logical_pairing", not pairing, pairing),
    ]


@pytest.mark.parametrize(
    "lx, lz, bad",
    [
        # a commuting diagonal pair and an anticommuting off-diagonal pair
        (("XII", "IXI"), ("IIZ", "ZZI"), "[(0, 0), (0, 1)]"),
        # unequal counts: the diagonal stops at the shorter list
        (("XXX",), ("ZII", "ZZZ"), "[(0, 1)]"),
        (("XXX", "XXX"), ("ZZZ",), "[(1, 0)]"),
    ],
)
def test_wrong_logical_pairing_lists_its_indices(lx, lz, bad):
    k = len(lx)
    code = StabilizerCode("pair", 3, k, 1, (P("ZZZ"),) * (3 - k),
                          tuple(map(P, lx)), tuple(map(P, lz)))
    checks = results(code)
    assert checks[-1] == ("logical_pairing", False, f"wrong X/Z pairing at indices: {bad}")
    assert [c[0] for c in checks] == ["shape", "stabilizers_commute", "generator_independence",
                                     "logicals_commute_with_stabilizers", "logical_pairing"]


def test_wrong_length_operator_returns_only_the_shape_check():
    code = StabilizerCode("short", 3, 1, 1, (P("ZZ"), P("IZZ")), (P("XXX"),), (P("ZII"),))
    assert results(code) == [
        ("shape", False, "expected 2 stabilizers and 1+1 logicals on 3 qubits"),
    ]
    assert validate_code(code, check_distance=True) == validate_code(code)


def test_blank_and_comment_lines_are_skipped():
    plain = code_text(builtin_code("513"))
    lines = plain.splitlines()
    noisy = "\n".join(["# five-qubit code", "", *lines[:4], "   ", "  # stabilizers follow", *lines[4:], ""])
    assert parse_code_text(noisy) == parse_code_text(plain) == builtin_code("513")
