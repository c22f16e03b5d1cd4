"""Row-lookup operators against independent dense Kronecker references."""

import warnings

import numpy as np
import pytest

import vnls.engine
import vnls.operators
from vnls import (
    CapabilityError,
    ParseError,
    PauliSum,
    PauliTerm,
    apply_sum_row,
    apply_to_state,
    init_gaussian,
    parse_pauli_sum,
    to_dense,
)
from vnls.operators import (
    expand_rows,
    format_pauli_sum,
    load_operator,
    parse_operator_text,
    save_operator,
    to_sparse,
)
from vnls.states import DenseState, Rbm

from conftest import (identity_sum, kron_sum, kron_term, random_sum, random_terms,
                      term_row)


def row_entries(dense, x):
    cols = np.flatnonzero(np.abs(dense[x]) > 1e-15)
    return {int(c): dense[x, c] for c in cols}


def test_single_factor_rows_match_matrices():
    for letter, mat in (("X", [[0, 1], [1, 0]]),
                        ("Y", [[0, -1j], [1j, 0]]),
                        ("Z", [[1, 0], [0, -1]])):
        t = PauliTerm(1.0, {0: letter}, 1)
        for x in range(2):
            col, val = term_row(t, x)
            expect = np.array(mat, dtype=complex)[x]
            assert val == expect[col]
            assert np.count_nonzero(expect) == 1 and expect[col] != 0


def test_frozen_term_rows():
    # X on qubit 0, Z on qubit 2, n=3: row 0 hops to 0b100 with +0.5
    col, val = term_row(PauliTerm(0.5, {0: "X", 2: "Z"}, 3), 0)
    assert (col, val) == (0b100, 0.5 + 0j)
    # ZZ picks up the parity sign of the addressed bits
    col, val = term_row(PauliTerm(0.1, {0: "Z", 1: "Z"}, 2), 0b01)
    assert (col, val) == (0b01, -0.1 + 0j)
    # Y contributes (-i) * (-1)^bit
    assert term_row(PauliTerm(1.0, {1: "Y"}, 2), 0b00) == (0b01, -1j)
    assert term_row(PauliTerm(1.0, {1: "Y"}, 2), 0b01) == (0b00, 1j)


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
            cols, vals = term_row(t, xs)
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


def test_sum_row_is_the_compiled_row_without_exact_zeros(rng):
    dropped = 0
    for n in range(1, 12):
        for _ in range(3):
            terms = random_terms(rng, n, int(rng.integers(1, 8)), hermitian=False,
                                 max_width=n)
            q = int(rng.integers(n))
            w = float(rng.uniform(0.5, 1.0))
            h = PauliSum(terms + terms[:2]  # repeated strings merge
                         + [PauliTerm(-terms[0].coefficient, terms[0].factors, n),
                            # alone in its group, w Z_q + w I is zero where q is set
                            PauliTerm(w, {q: "Z"}, n), PauliTerm(w, {}, n)], n)
            matrix = to_sparse(h)
            for x in rng.integers(1 << n, size=8).tolist():
                cols, vals = h.row_form().rows([x])
                expected = [(c, v) for c, v in zip(cols[0].tolist(), vals[0].tolist())
                            if v != 0.0]
                got = apply_sum_row(h, x)
                assert got == expected
                dropped += cols.shape[1] - len(got)
                row = matrix[x]
                assert dict(got) == {int(c): complex(v) for c, v
                                     in zip(row.indices, row.data) if v != 0.0}
    assert dropped > 0  # some rows did hold a cancelled group


def test_sum_row_merges_and_drops():
    h = parse_pauli_sum("1 X0\n1 Z0", 1)
    assert dict(apply_sum_row(h, 0)) == {0: 1.0 + 0j, 1: 1.0 + 0j}
    h = parse_pauli_sum("2 Z0\n3 Z0", 1)
    assert apply_sum_row(h, 0) == [(0, 5.0 + 0j)]
    # exact cancellation leaves no entry at all
    h = parse_pauli_sum("1 Z0\n-1 Z0", 1)
    assert apply_sum_row(h, 0) == []


def test_expand_rows_keeps_one_slot_per_term_in_term_order():
    # perfbench's traced replay times engine.expand_rows and counts slots
    # with operators.expand_rows, so both names must be one function
    assert vnls.engine.expand_rows is vnls.operators.expand_rows
    # X0 repeats and the Z1 pair cancels: each keeps its own slot
    h = parse_pauli_sum("1 X0\n1 Z0\n0.5 X0\n2 Z1\n-2 Z1\n1 Y0", 2)
    cols, vals = expand_rows(h, [0b10, 0b01])
    assert np.array_equal(cols, [[0b00, 0b10, 0b00, 0b10, 0b10, 0b00],
                                 [0b11, 0b01, 0b11, 0b01, 0b01, 0b11]])
    # Y0 gives +i on row 0b10 and -i on row 0b01
    assert np.array_equal(vals, [[1, -1, 0.5, 2, -2, 1j],
                                 [1, 1, 0.5, -2, 2, -1j]])
    assert vals.dtype == np.complex128


def test_apply_to_state_frozen():
    psi = DenseState([2.0, 5.0])
    assert apply_to_state(parse_pauli_sum("1 X0", 1), psi, 0) == 5.0 + 0j
    assert apply_to_state(parse_pauli_sum("1 X0", 1), psi, 1) == 2.0 + 0j


def test_apply_to_state_refuses_a_state_sized_for_another_operator():
    # an n = 8 model read at n = 4 rows gave values without complaint
    with pytest.raises(ValueError, match="psi is on 8 qubits but the operator on 4"):
        apply_to_state(identity_sum(4), init_gaussian(8), [3, 200])


def test_apply_to_state_matches_dense_matvec(rng):
    for n in (2, 4, 6):
        h = random_sum(rng, n, 5, hermitian=False)
        dense = kron_sum(h)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        xs = np.arange(1 << n, dtype=np.int64)
        got = apply_to_state(h, DenseState(v), xs)
        assert np.allclose(got, dense @ v, rtol=1e-12, atol=1e-12)


def test_apply_to_state_sums_overflowing_model_rows_in_the_log_domain():
    # a = 200 puts log psi(0) near 805, past float64's exponent range
    psi = Rbm(np.full(4, 200.0), np.zeros(8), np.zeros((8, 4)))
    assert psi.log_amp(0).real > 800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the terms cancel on row 0: the true value is 0, not inf - inf
        assert apply_to_state(parse_pauli_sum("1 Z0\n-1 Z1", 4), psi, 0) == 0.0
        got = apply_to_state(parse_pauli_sum("1 X3\n-1 X2", 4), psi, [1, 5])
    # psi(0) - psi(3) exceeds float64; psi(4) - psi(7) is finite
    assert got[0].real == np.inf and got[0].imag == 0.0
    want = np.exp(psi.log_amp(4).real) - np.exp(psi.log_amp(7).real)
    assert got[1] == pytest.approx(want, rel=1e-12) and got[1].imag == 0.0


def test_expand_rows_shape():
    h = parse_pauli_sum("1 X0\n1 Z1\n1 Y0 Y1", 2)
    cols, vals = expand_rows(h, np.arange(4))
    assert cols.shape == vals.shape == (4, 3)
    cols, vals = expand_rows(PauliSum([], 2), np.arange(4))
    assert cols.shape == (4, 0)
    assert np.all(apply_to_state(PauliSum([], 2), DenseState(np.ones(4)),
                                 np.arange(4)) == 0)


def test_to_dense_limit():
    h = identity_sum(15)
    with pytest.raises(CapabilityError):
        to_dense(h)
    # the default stops at full matrices of n = 10: 2^11 x 2^11 is 64 MiB
    with pytest.raises(CapabilityError, match="dense matrices limited to n <= 10"):
        to_dense(identity_sum(11))
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
    # comment and blank lines count toward the number but are not parsed
    with pytest.raises(ParseError, match="line 5: malformed Pauli token 'Q0'"):
        parse_pauli_sum("# terms\n\n1 X0  # first\n   \n1 Q0 # bad", 2)


@pytest.mark.parametrize("coefficient", [float("nan"), float("inf"),
                                         complex(1.0, float("-inf"))])
def test_term_refuses_non_finite_coefficient(coefficient):
    with pytest.raises(ValueError, match="finite"):
        PauliTerm(coefficient, {0: "X"}, 2)


@pytest.mark.parametrize("line", ["nan X0", "inf Z1", "1.0 -inf Y0"])
def test_parse_refuses_non_finite_coefficient_naming_the_line(line):
    with pytest.raises(ParseError, match="line 2: coefficient must be finite"):
        parse_pauli_sum("1 X0\n" + line, 2)


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
