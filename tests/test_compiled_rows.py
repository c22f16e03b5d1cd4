"""Compiled row forms of Pauli sums and of their squares, against dense
Kronecker references and against rows merged term by term in a dictionary
here, from conftest.term_row."""

import numpy as np
import pytest

from vnls import (
    DenseState,
    PauliSum,
    PauliTerm,
    ising_problem,
    parse_pauli_sum,
    sample_beta,
    vnls_local_energies,
)
from conftest import kron_sum, random_sum, random_terms, term_row

# Entries of magnitude below this are left out of a dictionary-merged row.
MERGE_TOL = 1e-15


def merged_row(h, x):
    """Row x of h as {column: value}, each term's one entry from term_row
    summed in term order, entries below MERGE_TOL dropped."""
    merged = {}
    for t in h.terms:
        col, val = term_row(t, x)
        merged[col] = merged.get(col, 0.0j) + val
    return {c: v for c, v in merged.items() if abs(v) >= MERGE_TOL}


def form_to_dense(form, n):
    """Scatter every grouped row of a RowForm into a dense matrix."""
    xs = np.arange(1 << n, dtype=np.int64)
    cols, vals = form.rows(xs)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    np.add.at(out, (np.repeat(xs, cols.shape[1]), cols.reshape(-1)), vals.reshape(-1))
    return out


def test_square_matches_dense_product(rng):
    for n in range(1, 7):
        for _ in range(3):
            a = random_sum(rng, n, int(rng.integers(1, 9)), hermitian=True)
            dense = kron_sum(a)
            assert np.allclose(form_to_dense(a.row_form(), n), dense,
                               rtol=0.0, atol=1e-14)
            assert np.allclose(form_to_dense(a.square_form(), n), dense @ dense,
                               rtol=0.0, atol=1e-13)


def test_anticommuting_pair_cancels_exactly():
    a = parse_pauli_sum("1 X0\n1 Z0", 1)
    sq = a.square_form()
    assert sq.weights.size == 1
    assert sq.flips.tolist() == [0] and sq.signs.tolist() == [0]
    assert sq.weights.tolist() == [2.0 + 0j]


def test_compiled_forms_keep_no_zero_weights(rng):
    for n in (2, 4, 6):
        a = random_sum(rng, n, 8, hermitian=True)
        for form in (a.row_form(), a.square_form()):
            assert np.all(form.weights != 0.0)
            keys = list(zip(form.flips.tolist(), form.signs.tolist()))
            assert len(set(keys)) == len(keys)  # equal strings are merged
            assert np.all(np.diff(form.flips) >= 0)  # sorted by flip mask


def test_grouped_rows_equal_merged_sum_rows(rng):
    for n in (1, 3, 5):
        for hermitian in (True, False):
            terms = random_terms(rng, n, 6, hermitian=hermitian)
            a = PauliSum(terms + terms[:2], n)  # repeated strings must merge
            xs = np.arange(1 << n, dtype=np.int64)
            cols, vals = a.row_form().rows(xs)
            for x in xs:
                assert len(set(cols[x].tolist())) == cols.shape[1]
                grouped = {int(c): v for c, v in zip(cols[x], vals[x])
                           if abs(v) >= MERGE_TOL}
                merged = merged_row(a, int(x))
                assert grouped.keys() == merged.keys()
                for c, v in merged.items():
                    assert grouped[c] == pytest.approx(v, rel=1e-14, abs=1e-15)


def test_non_hermitian_a_still_rejected():
    a = PauliSum([PauliTerm(0.5, {0: "Z"}, 2), PauliTerm(1j, {1: "X"}, 2)], 2)
    b = DenseState(np.ones(4))
    with pytest.raises(ValueError):
        vnls_local_energies(a, b, b, np.arange(4), sample_beta(b, 8, seed=0))


def test_scaled_sum_compiles_its_own_square():
    a = ising_problem(6, 10.0).a
    sq = a.square_form()
    assert a.square_form() is sq  # cached on the sum
    big = a.scaled(4.0)
    big_sq = big.square_form()
    assert big_sq is not sq
    assert np.array_equal(big_sq.flips, sq.flips)
    assert np.array_equal(big_sq.signs, sq.signs)
    assert np.array_equal(big_sq.weights, 16.0 * sq.weights)
