"""Row-lookup operators against independent dense Kronecker references."""

import numpy as np
import pytest

import vnls.operators as ops
from vnls import (
    CapabilityError,
    ParseError,
    PauliSum,
    PauliTerm,
    apply_squared_row,
    apply_sum_row,
    apply_term_row,
    apply_to_state,
    embed_hermitian,
    identity_sum,
    parse_pauli_sum,
    to_dense,
)
from vnls.operators import (
    expand_rows,
    format_pauli_sum,
    load_operator,
    parse_operator_text,
    save_operator,
)
from vnls.states import DenseState

from conftest import kron_sum, kron_term, random_sum


def row_entries(dense, x):
    cols = np.flatnonzero(np.abs(dense[x]) > 1e-15)
    return {int(c): dense[x, c] for c in cols}


def test_single_factor_rows_match_matrices():
    for letter, mat in (("X", [[0, 1], [1, 0]]),
                        ("Y", [[0, -1j], [1j, 0]]),
                        ("Z", [[1, 0], [0, -1]])):
        t = PauliTerm(1.0, {0: letter}, 1)
        for x in range(2):
            col, val = apply_term_row(t, x)
            expect = np.array(mat, dtype=complex)[x]
            assert val == expect[col]
            assert np.count_nonzero(expect) == 1 and expect[col] != 0


def test_frozen_term_rows():
    # X on qubit 0, Z on qubit 2, n=3: row 0 hops to 0b100 with +0.5
    col, val = apply_term_row(PauliTerm(0.5, {0: "X", 2: "Z"}, 3), 0)
    assert (col, val) == (0b100, 0.5 + 0j)
    # ZZ picks up the parity sign of the addressed bits
    col, val = apply_term_row(PauliTerm(0.1, {0: "Z", 1: "Z"}, 2), 0b01)
    assert (col, val) == (0b01, -0.1 + 0j)
    # Y contributes (-i) * (-1)^bit
    assert apply_term_row(PauliTerm(1.0, {1: "Y"}, 2), 0b00) == (0b01, -1j)
    assert apply_term_row(PauliTerm(1.0, {1: "Y"}, 2), 0b01) == (0b00, 1j)


def test_qubit0_is_most_significant():
    # X on qubit 1 of n=2 must be I (x) X in the dense convention
    h = PauliSum([PauliTerm(1.0, {1: "X"}, 2)], 2)
    expect = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(to_dense(h), expect)


def test_term_rows_exhaustive_small_n(rng):
    for n in range(1, 9):
        for _ in range(4):
            t = random_sum(rng, n, 1, hermitian=False).terms[0]
            dense = kron_term(t.coefficient, t.factors, n)
            xs = np.arange(1 << n, dtype=np.int64)
            cols, vals = apply_term_row(t, xs)
            assert np.array_equal(dense[xs, cols], vals)
            # and that entry is the only one in its row
            dense[xs, cols] = 0.0
            assert np.abs(dense).max() == 0.0


def test_sum_rows_match_dense_random(rng):
    for case in range(50):
        n = int(rng.integers(2, 11))
        h = random_sum(rng, n, int(rng.integers(1, 7)), hermitian=False)
        dense = kron_sum(h)
        for x in range(1 << n):
            got = dict(apply_sum_row(h, x))
            assert got.keys() == row_entries(dense, x).keys()
            for c, v in row_entries(dense, x).items():
                assert got[c] == pytest.approx(v, abs=1e-13)


def test_sum_row_merges_and_drops():
    h = parse_pauli_sum("1 X0\n1 Z0", 1)
    assert dict(apply_sum_row(h, 0)) == {0: 1.0 + 0j, 1: 1.0 + 0j}
    h = parse_pauli_sum("2 Z0\n3 Z0", 1)
    assert apply_sum_row(h, 0) == [(0, 5.0 + 0j)]
    # exact cancellation leaves no entry at all
    h = parse_pauli_sum("1 Z0\n-1 Z0", 1)
    assert apply_sum_row(h, 0) == []


def test_sum_row_touches_each_term_once(monkeypatch):
    h = parse_pauli_sum("1 X0\n1 Z0\n0.5 X0\n2 Z1", 2)
    calls = []
    original = ops.apply_term_row

    def counting(t, x):
        calls.append(t)
        return original(t, x)

    monkeypatch.setattr(ops, "apply_term_row", counting)
    apply_sum_row(h, 0b10)
    assert len(calls) == len(h.terms)


def test_apply_to_state_frozen():
    psi = DenseState([2.0, 5.0])
    assert apply_to_state(parse_pauli_sum("1 X0", 1), psi, 0) == 5.0 + 0j
    # works with a bare callable amplitude oracle too
    amp = lambda xs: np.asarray([2.0, 5.0])[xs]
    assert apply_to_state(parse_pauli_sum("1 X0", 1), amp, 1) == 2.0 + 0j


def test_apply_to_state_matches_dense_matvec(rng):
    for n in (2, 4, 6):
        h = random_sum(rng, n, 5, hermitian=False)
        dense = kron_sum(h)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        xs = np.arange(1 << n, dtype=np.int64)
        got = apply_to_state(h, DenseState(v), xs)
        assert np.allclose(got, dense @ v, rtol=1e-12, atol=1e-12)


def test_apply_squared_row_frozen_and_dense(rng):
    a = parse_pauli_sum("1 X0\n1 Z0", 1)
    assert apply_squared_row(a, DenseState([1.0, 0.0]), 0) == pytest.approx(2.0 + 0j)
    for n in range(2, 9, 2):
        a = random_sum(rng, n, 4, hermitian=True)
        dense = kron_sum(a)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        xs = np.arange(1 << n, dtype=np.int64)
        got = apply_squared_row(a, DenseState(v), xs)
        want = dense @ (dense @ v)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def test_apply_squared_row_requires_hermitian():
    a = PauliSum([PauliTerm(1j, {0: "X"}, 1)], 1)
    with pytest.raises(ValueError):
        apply_squared_row(a, DenseState([1.0, 1.0]), 0)


def test_expand_rows_shape():
    h = parse_pauli_sum("1 X0\n1 Z1\n1 Y0 Y1", 2)
    cols, vals = expand_rows(h, np.arange(4))
    assert cols.shape == vals.shape == (4, 3)
    empty = identity_sum(2).scaled(0.0)
    cols, vals = expand_rows(PauliSum([], 2), np.arange(4))
    assert cols.shape == (4, 0)
    assert np.all(apply_to_state(PauliSum([], 2), DenseState(np.ones(4)),
                                 np.arange(4)) == 0)
    del empty


def test_embed_hermitian_blocks(rng):
    # frozen: embedding of i*X0 is exactly -1 * (Y on ancilla) (x) (X)
    emb = embed_hermitian(PauliSum([PauliTerm(1j, {0: "X"}, 1)], 1))
    assert emb.terms == [PauliTerm(-1.0, {0: "Y", 1: "X"}, 2)]
    for n in range(1, 9, 2):
        a = random_sum(rng, n, 4, hermitian=False)
        dense_a = kron_sum(a)
        dense_e = kron_sum(embed_hermitian(a))
        dim = 1 << n
        assert np.allclose(dense_e[:dim, dim:], dense_a, atol=1e-13)
        assert np.allclose(dense_e[dim:, :dim], dense_a.conj().T, atol=1e-13)
        assert np.abs(dense_e[:dim, :dim]).max() == 0.0
        assert np.abs(dense_e[dim:, dim:]).max() == 0.0
        assert np.allclose(dense_e, dense_e.conj().T, atol=1e-13)


def test_embed_skips_zero_parts():
    emb = embed_hermitian(PauliSum([PauliTerm(2.0, {0: "Z"}, 1)], 1))
    assert len(emb) == 1  # purely real coefficient: no Y part


def test_to_dense_limit():
    h = identity_sum(15)
    with pytest.raises(CapabilityError):
        to_dense(h)
    # the default stops at full matrices of n = 10: 2^11 x 2^11 is 64 MiB
    with pytest.raises(CapabilityError):
        to_dense(identity_sum(11))
    with pytest.raises(CapabilityError):
        ops.term_to_dense(identity_sum(11).terms[0])
    assert to_dense(identity_sum(3)).shape == (8, 8)
    assert to_dense(identity_sum(2), limit=2).shape == (4, 4)


def test_hermitian_flag():
    assert PauliSum([PauliTerm(1.0, {0: "X"}, 1)], 1).is_hermitian
    assert not PauliSum([PauliTerm(1j, {0: "X"}, 1)], 1).is_hermitian


def test_scaled_sum(rng):
    h = random_sum(rng, 3, 4, hermitian=False)
    assert np.allclose(kron_sum(h.scaled(2.5 - 1j)), (2.5 - 1j) * kron_sum(h))


def test_parse_basics():
    h = parse_pauli_sum("0.1 Z0 Z1  # comment\n\n-2 X2\n0 1 Y0", 3)
    assert len(h) == 3
    assert h.terms[0] == PauliTerm(0.1, {0: "Z", 1: "Z"}, 3)
    assert h.terms[1] == PauliTerm(-2.0, {2: "X"}, 3)
    assert h.terms[2] == PauliTerm(1j, {0: "Y"}, 3)
    assert not h.is_hermitian


def test_parse_identity_token():
    h = parse_pauli_sum("1.5 I", 2)
    assert h.terms[0].factors == {}
    assert np.allclose(kron_sum(h), 1.5 * np.eye(4))


@pytest.mark.parametrize("text,fragment", [
    ("1.0 Z0 Z0", "duplicate qubit"),
    ("Z0", "coefficient"),
    ("1.0", "Pauli tokens"),
    ("1.0 Q0", "malformed"),
    ("1.0 Z9", "out of range"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_pauli_sum(text, 3)


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_pauli_sum("1 X0\n1 Z0\n1 Q0", 2)


def test_operator_file_round_trip(tmp_path, rng):
    h = random_sum(rng, 4, 5, hermitian=False)
    path = tmp_path / "op.txt"
    save_operator(h, path)
    assert load_operator(path) == h


def test_operator_file_header_required():
    with pytest.raises(ParseError, match="n=<int>"):
        parse_operator_text("1.0 X0\n")
    with pytest.raises(ParseError, match="missing n="):
        parse_operator_text("# only comments\n")
    h = parse_operator_text("# leading comment\nn=2\n1.0 X0\n")
    assert h.n == 2 and len(h) == 1


def test_format_round_trip_exact(rng):
    h = random_sum(rng, 5, 6, hermitian=False)
    again = parse_pauli_sum(format_pauli_sum(h), 5)
    assert again == h
