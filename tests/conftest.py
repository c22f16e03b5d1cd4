"""Shared test oracles, kept independent of the package internals.

Dense matrices come from straight Kronecker products built here, never from
the package's own dense converter, so a row-lookup bug cannot vouch for
itself.  Likewise the dense objective references below use explicit matrix
algebra rather than the estimators under test.  identity_sum and term_row
are not oracles but thin builders over the package's PauliSum and
expand_rows; test_compiled_rows sums term_row's one-term entries in a
dictionary as its reference for the merged rows.
"""

import numpy as np
import pytest

from vnls import PauliSum, PauliTerm
from vnls.operators import expand_rows

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def kron_term(coefficient, factors, n):
    """Reference dense matrix of one Pauli product, qubit 0 leftmost."""
    out = np.array([[complex(coefficient)]])
    for q in range(n):
        out = np.kron(out, SINGLE[factors.get(q, "I")])
    return out


def kron_sum(h):
    """Reference dense matrix of a PauliSum."""
    dim = 1 << h.n
    out = np.zeros((dim, dim), dtype=complex)
    for t in h.terms:
        out += kron_term(t.coefficient, t.factors, t.n)
    return out


def identity_sum(n, coefficient=1.0):
    """coefficient * I on n qubits."""
    return PauliSum([PauliTerm(coefficient, {}, n)], n)


def term_row(t, x):
    """The one nonzero entry (column, value) of row x of term t, read
    through expand_rows: Python scalars for a scalar x, arrays for an
    array of rows."""
    cols, vals = expand_rows(PauliSum([t], t.n), x)
    if np.ndim(x) == 0:
        return int(cols[0, 0]), complex(vals[0, 0])
    return cols[:, 0], vals[:, 0]


def random_terms(rng, n, count, hermitian=True, max_width=3):
    terms = []
    for _ in range(count):
        width = int(rng.integers(1, min(n, max_width) + 1))
        qubits = rng.choice(n, size=width, replace=False)
        letters = rng.choice(["X", "Y", "Z"], size=width)
        if hermitian:
            coefficient = complex(rng.uniform(-1.0, 1.0))
        else:
            coefficient = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        terms.append(PauliTerm(coefficient,
                               {int(q): str(s) for q, s in zip(qubits, letters)}, n))
    return terms


def random_sum(rng, n, count, hermitian=True, max_width=3):
    return PauliSum(random_terms(rng, n, count, hermitian, max_width), n)


def random_state(rng, dim, sparse=False):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if sparse:
        keep = rng.choice(dim, size=max(2, dim // 4), replace=False)
        mask = np.zeros(dim, dtype=bool)
        mask[keep] = True
        v = np.where(mask, v, 0.0)
    return v


def dense_rayleigh(mat, v):
    """<v|M|v> / <v|v> by plain dense algebra."""
    return (np.vdot(v, mat @ v) / np.vdot(v, v)).real


def dense_vnls_loss(mat, b, v):
    """Reference objective via the explicit projector I - b b^H / <b|b>."""
    proj = np.eye(len(b)) - np.outer(b, b.conj()) / np.vdot(b, b)
    w = mat @ v
    return (np.vdot(w, proj @ w) / np.vdot(v, v)).real


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
