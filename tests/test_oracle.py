"""Exact oracle: solves, distances, spectra, and the error certificate."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from vnls import (
    CapabilityError,
    DenseState,
    OracleReport,
    PauliSum,
    PauliTerm,
    apply_to_state,
    check_error_bound,
    exact_loss,
    exact_solve,
    extremal_eigs,
    fidelity,
    ground_state,
    identity_sum,
    ising_identities,
    ising_problem,
    operator_norm_and_condition,
    random_pauli_problem,
    rayleigh_quotient,
    to_sparse,
    trace_distance,
)

from conftest import (dense_rayleigh, dense_vnls_loss, kron_sum, random_state,
                      random_sum, random_terms)


def diag_sum(c_id, c_z):
    # c_id * I + c_z * Z0 on one qubit = diag(c_id + c_z, c_id - c_z)
    return PauliSum([PauliTerm(c_id, {}, 1), PauliTerm(c_z, {0: "Z"}, 1)], 1)


def test_exact_solve_frozen_diagonal():
    a = diag_sum(1.5, -0.5)  # diag(1, 2)
    x = exact_solve(a, np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, 0.5], atol=1e-14)


def test_exact_solve_accepts_dense_state_rhs():
    a = diag_sum(1.5, -0.5)
    x = exact_solve(a, DenseState([2.0, 2.0]))
    assert np.allclose(x, [2.0, 1.0], atol=1e-14)


def test_exact_solve_singular_raises():
    a = diag_sum(1.0, 1.0)  # diag(2, 0)
    with pytest.raises(np.linalg.LinAlgError):
        exact_solve(a, np.array([1.0, 1.0]))


def test_exact_solve_random_residual(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        p = random_pauli_problem(n, terms=5, seed=int(rng.integers(1 << 30)))
        x = exact_solve(p.a, p.b)
        mat = kron_sum(p.a)
        res = np.linalg.norm(mat @ x - p.b.amplitudes)
        assert res <= 1e-10 * np.linalg.norm(p.b.amplitudes)


def solver_calls(monkeypatch):
    """Record which scipy solver each exact_solve call reaches."""
    calls = []
    for name in ("cg", "spsolve"):
        def wrapped(*args, _name=name, _real=getattr(spla, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(spla, name, wrapped)
    return calls


def assert_matches_dense_solve(a, b):
    x = exact_solve(a, b)
    want = np.linalg.solve(kron_sum(a), b)
    assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)


def test_exact_solve_complex_hermitian_by_cg(rng, monkeypatch):
    calls = solver_calls(monkeypatch)
    for n in (2, 4, 6):
        # Y0 X_{n-1} has imaginary entries; the shift makes A positive definite
        terms = random_terms(rng, n, 8) + [PauliTerm(0.7, {0: "Y", n - 1: "X"}, n)]
        shift = sum(abs(t.coefficient) for t in terms) + 0.5
        a = PauliSum(terms + [PauliTerm(shift, {}, n)], n)
        assert np.abs(kron_sum(a).imag).max() > 0.0
        assert_matches_dense_solve(a, random_state(rng, 1 << n))
    assert calls == ["cg"] * 3


def test_exact_solve_indefinite_hermitian(rng, monkeypatch):
    # spectrum of sum_j X_j + 0.3 I is {n - 2k + 0.3}: both signs, no zero
    calls = solver_calls(monkeypatch)
    for n in (3, 6):
        a = PauliSum([PauliTerm(1.0, {j: "X"}, n) for j in range(n)]
                     + [PauliTerm(0.3, {}, n)], n)
        assert_matches_dense_solve(a, random_state(rng, 1 << n))
    assert calls.count("cg") == 2


def test_exact_solve_non_hermitian_by_lu(rng, monkeypatch):
    calls = solver_calls(monkeypatch)
    p = random_pauli_problem(5, terms=6, seed=4)
    a = PauliSum(p.a.terms + [PauliTerm(0.2 + 0.3j, {1: "Z", 3: "Y"}, 5)], 5)
    assert not a.is_hermitian
    assert_matches_dense_solve(a, p.b.amplitudes)
    assert calls == ["spsolve"]


def test_exact_solve_residual_at_the_size_limit():
    p = ising_problem(14, 10.0)
    x = exact_solve(p.a, p.b)
    res = np.linalg.norm(to_sparse(p.a) @ x - p.b.amplitudes)
    assert res <= 1e-10 * np.linalg.norm(p.b.amplitudes)


def test_to_sparse_matches_dense(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        h = random_sum(rng, n, 5, hermitian=False)
        assert np.allclose(to_sparse(h).toarray(), kron_sum(h), atol=1e-14)
    empty = to_sparse(PauliSum([], 3))
    assert empty.shape == (8, 8) and empty.nnz == 0
    # X0 and X0 Z1 share a column and cancel on the rows with qubit 1 set
    h = PauliSum([PauliTerm(1.0, {0: "X"}, 2), PauliTerm(1.0, {0: "X", 1: "Z"}, 2)], 2)
    mat = to_sparse(h)
    assert np.array_equal(mat.toarray(), kron_sum(h))
    assert mat.nnz == 4 and np.count_nonzero(mat.data) == 2  # zeros kept


def test_to_sparse_respects_limit():
    with pytest.raises(CapabilityError):
        to_sparse(identity_sum(3), limit=2)


def test_fidelity_scale_and_phase_invariant(rng):
    u = random_state(rng, 32)
    assert fidelity(u, 7.0 * u) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(u, np.exp(0.3j) * u) == pytest.approx(1.0, abs=1e-12)
    v = np.zeros(32, dtype=complex)
    v[0], u2 = 1.0, np.zeros(32, dtype=complex)
    u2[1] = 1.0
    assert fidelity(v, u2) == 0.0
    with pytest.raises(ValueError):
        fidelity(u, np.zeros(32))


def test_trace_distance_against_density_matrices(rng):
    for _ in range(5):
        u = random_state(rng, 32)
        v = random_state(rng, 32)
        rho = np.outer(u, u.conj()) / np.vdot(u, u).real
        sigma = np.outer(v, v.conj()) / np.vdot(v, v).real
        direct = 0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum()
        assert trace_distance(u, v) == pytest.approx(direct, abs=1e-8)
        assert trace_distance(u, v) ** 2 + fidelity(u, v) == pytest.approx(
            1.0, abs=1e-10)


def test_exact_loss_zero_at_solution_and_one_orthogonal(rng):
    p = random_pauli_problem(4, terms=6, seed=2)
    sol = exact_solve(p.a, p.b)
    assert exact_loss(p.a, p.b, sol) < 1e-12
    # A = I: loss is exactly the orthogonal fraction of psi
    a = identity_sum(2)
    b = np.array([1.0, 0.0, 0.0, 0.0])
    psi = np.array([0.0, 1.0, 0.0, 0.0])
    assert exact_loss(a, b, psi) == 1.0


def test_exact_loss_matches_projector_formula(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        p = random_pauli_problem(n, terms=5, seed=int(rng.integers(1 << 30)))
        v = random_state(rng, 1 << n)
        got = exact_loss(p.a, p.b, v)
        want = dense_vnls_loss(kron_sum(p.a), p.b.amplitudes, v)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_rayleigh_quotient_matches_dense(rng):
    h = random_sum(rng, 4, 5, hermitian=True)
    v = random_state(rng, 16)
    assert rayleigh_quotient(h, v) == pytest.approx(
        dense_rayleigh(kron_sum(h), v), abs=1e-10)


def test_extremal_eigs_dense_and_lanczos_agree():
    a = ising_problem(6, 10.0).a
    lo, hi = extremal_eigs(a)
    dense = np.linalg.eigvalsh(kron_sum(a))
    assert lo == pytest.approx(dense[0], abs=1e-10)
    assert hi == pytest.approx(dense[-1], abs=1e-10)
    big = ising_problem(11, 10.0).a  # n > dense matrix limit: Lanczos path
    lo11, hi11 = extremal_eigs(big)
    assert 0.9 / 10.0 <= lo11 <= 1.1 / 10.0
    assert 0.95 <= hi11 <= 1.05


@pytest.mark.parametrize("n", [11, 13])
def test_lanczos_finds_a_ground_state_odd_under_spin_flip(n):
    # the family's ground state is odd under the global flip at odd n; the
    # lowest even eigenvalue is 0.173 at n = 11 and 0.161 at n = 13
    a = ising_problem(n, 10.0).a
    lo, _ = extremal_eigs(a)
    assert lo < 0.1
    psi = ground_state(a)
    assert rayleigh_quotient(a, psi) == pytest.approx(lo, abs=1e-12)
    assert np.vdot(psi[::-1], psi).real == pytest.approx(-1.0, abs=1e-10)


def test_norm_and_condition_frozen_values():
    norm, kappa = operator_norm_and_condition(diag_sum(1.5, -0.5))
    assert norm == pytest.approx(2.0, abs=1e-12)
    assert kappa == pytest.approx(2.0, abs=1e-12)
    norm, kappa = operator_norm_and_condition(
        PauliSum([PauliTerm(1.0, {0: "Z"}, 1)], 1))
    assert norm == pytest.approx(1.0) and kappa == pytest.approx(1.0)
    norm, kappa = operator_norm_and_condition(diag_sum(1.0, 1.0))
    assert kappa == np.inf


def test_norm_and_condition_indefinite_sparse_path():
    # sum of X on 11 qubits: spectrum is the odd integers -11..11, so the
    # smallest magnitude is 1 (shift-invert territory) and kappa = 11
    n = 11
    h = PauliSum([PauliTerm(1.0, {j: "X"}, n) for j in range(n)], n)
    norm, kappa = operator_norm_and_condition(h)
    assert norm == pytest.approx(11.0, abs=1e-6)
    assert kappa == pytest.approx(11.0, abs=1e-5)


def test_ground_state_matches_dense_eigensolver(rng):
    for _ in range(3):
        h = random_sum(rng, 4, 5, hermitian=True)
        vals, vecs = np.linalg.eigh(kron_sum(h))
        g = ground_state(h)
        assert fidelity(g, vecs[:, 0]) == pytest.approx(1.0, abs=1e-10)
        assert rayleigh_quotient(h, g) == pytest.approx(vals[0], abs=1e-10)


def test_ground_state_lanczos_path():
    h = ising_problem(11, 10.0).a
    lo, _ = extremal_eigs(h)
    g = ground_state(h)
    assert rayleigh_quotient(h, g) == pytest.approx(lo, abs=1e-8)


def test_check_error_bound_fields_are_consistent(rng):
    for seed in (0, 3, 9):
        p = random_pauli_problem(4, terms=6, seed=seed)
        psi = random_state(rng, 16)
        rep = check_error_bound(p.a, p.b, psi)
        assert rep.n == 4
        assert rep.trace_distance ** 2 + rep.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.bound == rep.kappa_actual * np.sqrt(rep.loss) / rep.norm_a
        assert rep.bound_satisfied == (rep.trace_distance <= rep.bound + 1e-12)
        assert rep.bound_satisfied  # the certificate itself must hold
        sol = exact_solve(p.a, p.b)
        assert np.allclose(rep.solution, sol)


def test_check_error_bound_scale_invariance():
    p = ising_problem(5, 10.0)
    psi = np.ones(32) + 0.05 * np.arange(32)
    rep1 = check_error_bound(p.a, p.b, psi)
    rep2 = check_error_bound(p.a.scaled(4.0), p.b.scaled(0.25), psi)
    assert rep2.fidelity == rep1.fidelity
    assert rep2.trace_distance == rep1.trace_distance
    assert rep2.bound == rep1.bound
    assert rep2.kappa_actual == rep1.kappa_actual
    assert rep2.loss == 16.0 * rep1.loss
    assert rep2.norm_a == 4.0 * rep1.norm_a


def test_uncorrected_bound_fails_under_downscaling(rng):
    # dist <= kappa sqrt(L) without the 1/||A|| factor is not scale
    # invariant: shrinking A shrinks sqrt(L) linearly while the distance
    # stays put, so some state breaks it; the corrected bound never does
    p = ising_problem(5, 10.0)
    small = p.a.scaled(0.01)
    naive_broken = False
    for _ in range(50):
        psi = random_state(rng, 32)
        rep = check_error_bound(small, p.b, psi)
        assert rep.bound_satisfied
        naive_broken |= rep.trace_distance > rep.kappa_actual * np.sqrt(rep.loss)
    assert naive_broken


def test_check_error_bound_accepts_precomputed_pieces():
    p = ising_problem(4, 10.0)
    psi = np.ones(16)
    sol = exact_solve(p.a, p.b)
    spectrum = operator_norm_and_condition(p.a)
    rep = check_error_bound(p.a, p.b, psi, solution=sol, spectrum=spectrum)
    full = check_error_bound(p.a, p.b, psi)
    assert rep.bound == full.bound and rep.fidelity == full.fidelity


def test_zz_entry_value_by_hand():
    # entry x of sum_j Z_j Z_{j+1} b_hat is 2^{-n/2} (agree(x) - disagree(x));
    # at x = 0b0101 (n=4) all three adjacent pairs disagree: 0.25 * (0-3)
    n = 4
    zz = PauliSum([PauliTerm(1.0, {j: "Z", j + 1: "Z"}, n) for j in range(n - 1)], n)
    b_hat = DenseState(np.ones(16) / 4.0)
    assert apply_to_state(zz, b_hat, 0b0101) == pytest.approx(-0.75, abs=1e-15)
    assert apply_to_state(zz, b_hat, 0) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("kappa", [10.0, 50.0])
def test_ising_identities_hold(kappa):
    # the algebraic identities are exact for every n; the solution-distance
    # budget comes from a first-order argument that needs the perturbation
    # small next to the lowest eigenvalue, which only holds from n = 3 up
    for n in range(2, 11):
        out = ising_identities(n, kappa)
        assert out["gram_deviation"] < 1e-12
        if n % 2 == 0:  # 1/dim is a power of two: the Gram sums are exact
            assert out["gram_deviation"] == 0.0
        assert out["expansion_residual"] < 1e-12
        assert out["entry_formula_deviation"] < 1e-12
        assert out["entry_perturbation"] <= out["entry_budget"] + 1e-15
        if n >= 3:
            assert out["solution_distance_sq"] <= out["distance_budget"]
        assert isinstance(out["entry_budget"], float)
        assert isinstance(out["distance_budget"], float)


def test_ising_identities_fidelity_large_kappa():
    for n in (5, 8, 10):
        out = ising_identities(n, 10.0)
        assert out["fidelity"] > 0.99


def test_oracle_report_formatting():
    rep = OracleReport(n=3, fidelity=0.5, trace_distance=0.25, loss=0.125,
                       bound=0.5, kappa_actual=10.0, norm_a=1.0,
                       bound_satisfied=True, solution=np.ones(8))
    lines = rep.to_lines()
    assert "n=3" in lines
    assert "fidelity=0.5" in lines
    assert "bound_satisfied=true" in lines
    assert not any("solution" in ln for ln in lines)
    row = rep.to_csv_row()
    assert row == ["3", "0.5", "0.25", "0.125", "0.5", "10.0", "1.0", "true"]
