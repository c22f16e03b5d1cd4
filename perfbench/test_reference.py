"""Tests of the independent reference against hand-built Kronecker matrices.

Run with ``python -m pytest perfbench``.  Nothing here imports vnls.
"""

import itertools

import numpy as np
import pytest

import reference as ref
import workloads as wl

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def kron_matrix(n, terms):
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for coefficient, factors in terms:
        m = np.array([[complex(coefficient)]])
        for q in range(n):
            m = np.kron(m, PAULI[factors.get(q, "I")])
        out += m
    return out


def random_terms(rng, n, count):
    terms = []
    for _ in range(count):
        width = int(rng.integers(0, n + 1))
        qubits = rng.choice(n, size=width, replace=False)
        letters = rng.choice(["X", "Y", "Z"], size=width)
        terms.append((float(rng.uniform(-1, 1)),
                      {int(q): str(s) for q, s in zip(qubits, letters)}))
    return terms


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_matrix_matches_kron(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        terms = random_terms(rng, n, 6)
        got = ref.pauli_matrix(n, terms).toarray()
        np.testing.assert_allclose(got, kron_matrix(n, terms), atol=1e-14)


def test_every_single_letter_on_every_qubit():
    n = 3
    for q, letter in itertools.product(range(n), "XYZ"):
        terms = [(0.7, {q: letter})]
        np.testing.assert_array_equal(ref.pauli_matrix(n, terms).toarray(),
                                      kron_matrix(n, terms))


def test_ising_terms_match_documented_formula():
    n, kappa = 4, 10.0
    terms, b = wl.ising_terms(n, kappa)
    eta = n * (kappa + 1) / (kappa - 1)
    x = sum(kron_matrix(n, [(1.0, {j: "X"})]) for j in range(n))
    zz = sum(kron_matrix(n, [(1.0, {j: "Z", j + 1: "Z"})]) for j in range(n - 1))
    expected = (x + 0.1 * zz + eta * np.eye(1 << n)) / (n + eta)
    np.testing.assert_allclose(ref.pauli_matrix(n, terms).toarray(), expected, atol=1e-15)
    np.testing.assert_array_equal(b, np.ones(1 << n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solve_matches_dense_solve(n):
    terms, _ = wl.ising_terms(n, 20.0)
    b = np.random.default_rng(0).normal(size=1 << n)
    x = ref.solve(ref.pauli_matrix(n, terms), b)
    np.testing.assert_allclose(x, np.linalg.solve(kron_matrix(n, terms), b), rtol=1e-10)


def test_ground_energy_matches_dense_eigvalsh():
    n = 4
    terms = wl.tfim_terms(n)
    expected = np.linalg.eigvalsh(kron_matrix(n, terms))[0]
    assert ref.ground_energy(ref.pauli_matrix(n, terms)) == pytest.approx(expected, abs=1e-10)


def test_rbm_formula_matches_product_form():
    n, m = 3, 5
    rng = np.random.default_rng(1)
    a, c, w = rng.normal(size=n), rng.normal(size=m), rng.normal(size=(m, n))
    params = np.concatenate([a, c, w.ravel()])
    got = ref.rbm_log_amps(params, n)
    for x in range(1 << n):
        s = np.array([1.0 - 2.0 * ((x >> (n - 1 - i)) & 1) for i in range(n)])
        psi = np.exp(a @ s) * np.prod([2 * np.cosh(c[j] + w[j] @ s) for j in range(m)])
        assert got[x] == pytest.approx(np.log(psi), abs=1e-12)
    v = ref.rbm_vector(params, n)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert ref.fidelity(v, np.exp(got)) == pytest.approx(1.0)


def test_rbm_rejects_bad_parameter_count():
    with pytest.raises(ValueError):
        ref.rbm_log_amps(np.zeros(8), 3)


def test_fidelity_and_energy_basics():
    u = np.array([1.0, 1.0j])
    assert ref.fidelity(u, 3 * u) == pytest.approx(1.0)
    assert ref.fidelity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    z = ref.pauli_matrix(1, [(1.0, {0: "Z"})])
    assert ref.energy(z, np.array([1.0, 1.0])) == pytest.approx(0.0)


@pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (4, 2), (wl.WIDE_N, 3)])
def test_stoquastic_generator(n, seed):
    terms, b = wl.stoquastic_problem(seed, n=n)
    assert len(terms) == wl.WIDE_TERMS + 1
    mat = kron_matrix(n, terms)
    assert not np.any(mat.imag)
    mat = mat.real
    off = mat - np.diag(np.diag(mat))
    assert off.max() <= 0.0
    eig = np.linalg.eigvalsh(mat)
    assert eig[0] > 0.0 and eig[-1] <= 1.0 + 1e-12
    x = np.linalg.solve(mat, b)
    assert x.min() > 0.0
    assert b.min() > 0.0 and np.ptp(b) > 0.0
    np.testing.assert_allclose(ref.pauli_matrix(n, terms).toarray(), mat, atol=1e-15)


def test_stoquastic_generator_is_seeded():
    t1, b1 = wl.stoquastic_problem(5)
    t2, b2 = wl.stoquastic_problem(5)
    t3, _ = wl.stoquastic_problem(6)
    assert t1 == t2 and np.array_equal(b1, b2)
    assert t1 != t3
