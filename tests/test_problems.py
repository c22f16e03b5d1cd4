"""Benchmark problem construction and the problem file format."""

import numpy as np
import pytest

from vnls import (
    CapabilityError,
    DenseState,
    LinearProblem,
    ParseError,
    PauliSum,
    PauliTerm,
    apply_to_state,
    ising_perturbation_scale,
    ising_problem,
    load_operator,
    load_problem,
    random_pauli_problem,
    save_problem,
)

import vnls.problems
from conftest import kron_sum

GOLDEN_ISING_3 = (
    "n=3\n"
    "kappa=10.0\n"
    "0.15000000000000002 X0\n"
    "0.15000000000000002 X1\n"
    "0.15000000000000002 X2\n"
    "0.015000000000000003 Z0 Z1\n"
    "0.015000000000000003 Z1 Z2\n"
    "0.55 I\n"
    "b dense\n" + "1.0 0.0\n" * 8
)


def test_ising_frozen_coefficients():
    p = ising_problem(4, 10.0)
    coefs = [t.coefficient for t in p.a.terms]
    letters = [sorted(t.factors.values()) for t in p.a.terms]
    assert letters == [["X"]] * 4 + [["Z", "Z"]] * 3 + [[]]
    assert coefs[:4] == pytest.approx([0.1125] * 4, abs=1e-12)
    assert coefs[4:7] == pytest.approx([0.01125] * 3, abs=1e-12)
    assert coefs[7] == pytest.approx(0.55, abs=1e-12)
    assert ising_perturbation_scale(4, 10.0) == pytest.approx(0.01125, abs=1e-15)
    assert p.kappa == 10.0
    assert np.array_equal(p.b.amplitudes, np.ones(16))


def test_ising_zz_terms_are_nearest_neighbor():
    p = ising_problem(5, 3.0)
    zz = [t for t in p.a.terms if sorted(t.factors.values()) == ["Z", "Z"]]
    assert [sorted(t.factors) for t in zz] == [[0, 1], [1, 2], [2, 3], [3, 4]]


def test_ones_vector_is_top_eigenvector_of_x_sum():
    n = 5
    x_sum = PauliSum([PauliTerm(1.0, {j: "X"}, n) for j in range(n)], n)
    b = DenseState(np.ones(1 << n))
    out = apply_to_state(x_sum, b, np.arange(1 << n))
    assert np.array_equal(out, n * np.ones(1 << n))


@pytest.mark.parametrize("n,kappa", [(6, 10.0), (4, 50.0), (8, 10.0)])
def test_ising_spectrum_matches_target_conditioning(n, kappa):
    p = ising_problem(n, kappa)
    eigs = np.linalg.eigvalsh(kron_sum(p.a))
    assert eigs.min() > 0.0
    assert 0.95 <= eigs.max() <= 1.05
    assert 0.9 / kappa <= eigs.min() <= 1.1 / kappa


def test_ising_dense_matrix_matches_formula():
    n, kappa = 4, 7.0
    eta = n * (kappa + 1.0) / (kappa - 1.0)
    zeta = n + eta
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)

    def embed(op, pos):
        mats = [op if j == pos else eye for j in range(n)]
        acc = mats[0]
        for m in mats[1:]:
            acc = np.kron(acc, m)
        return acc

    ref = eta * np.eye(1 << n)
    for j in range(n):
        ref += embed(x, j)
    for j in range(n - 1):
        ref += 0.1 * embed(z, j) @ embed(z, j + 1)
    ref /= zeta
    assert np.allclose(kron_sum(ising_problem(n, kappa).a), ref, atol=1e-14)


def test_ising_argument_validation():
    with pytest.raises(ValueError):
        ising_problem(1, 10.0)
    with pytest.raises(ValueError):
        ising_problem(4, 1.0)
    with pytest.raises(ValueError):
        ising_problem(4, 0.5)


def test_dense_b_past_the_limit_refused_before_it_is_built(tmp_path, monkeypatch):
    monkeypatch.setattr(vnls.problems, "B_LIMIT", 3)
    # the header is checked before the body, which would not parse
    path = tmp_path / "p.txt"
    path.write_text("n=4\nnot a term\n", encoding="utf-8")
    for build in (lambda: ising_problem(4, 10.0), lambda: random_pauli_problem(4),
                  lambda: load_problem(path)):
        with pytest.raises(CapabilityError, match="n > 3"):
            build()
    assert ising_problem(3, 10.0).n == random_pauli_problem(3).n == 3


@pytest.mark.parametrize("kappa", [float("inf"), float("nan")])
def test_ising_refuses_non_finite_kappa(kappa):
    with pytest.raises(ValueError, match="finite and greater than 1"):
        ising_problem(4, kappa)


def test_linear_problem_validation():
    a = PauliSum([PauliTerm(1.0, {0: "Z"}, 2)], 2)
    with pytest.raises(ValueError):
        LinearProblem(a, DenseState(np.ones(8)))  # 3 qubits vs 2
    bad = PauliSum([PauliTerm(1j, {0: "X"}, 2)], 2)
    with pytest.raises(ValueError):
        LinearProblem(bad, DenseState(np.ones(4)))
    p = LinearProblem(a, DenseState(np.ones(4)), kappa=3)
    assert p.n == 2 and p.kappa == 3.0


def test_random_problem_is_positive_definite():
    for seed in (0, 1, 7):
        p = random_pauli_problem(4, terms=8, seed=seed)
        eigs = np.linalg.eigvalsh(kron_sum(p.a))
        assert eigs.min() > 0.0
        assert p.a.is_hermitian


def test_random_problem_zero_terms_is_identity_multiple():
    p = random_pauli_problem(3, terms=0, seed=0, margin=0.25)
    assert len(p.a) == 1
    t = p.a.terms[0]
    assert t.factors == {} and t.coefficient == 0.25
    nnz = np.count_nonzero(p.b.amplitudes)
    assert 1 <= nnz <= 2  # dim // 4


def test_random_problem_b_support_size():
    p = random_pauli_problem(5, terms=4, seed=3)
    nnz = np.count_nonzero(p.b.amplitudes)
    assert 1 <= nnz <= 8


def test_golden_ising_file_bytes(tmp_path):
    path = tmp_path / "ising3.txt"
    save_problem(ising_problem(3, 10.0), path)
    assert path.read_text(encoding="utf-8") == GOLDEN_ISING_3


def test_load_golden_ising_file(tmp_path):
    path = tmp_path / "ising3.txt"
    path.write_text(GOLDEN_ISING_3, encoding="utf-8")
    p = load_problem(path)
    q = ising_problem(3, 10.0)
    assert p.a == q.a
    assert p.kappa == 10.0
    assert np.array_equal(p.b.amplitudes, q.b.amplitudes)


def test_round_trip_dense_complex_b(tmp_path):
    rng = np.random.default_rng(5)
    n = 3
    terms = [PauliTerm(0.5, {0: "X", 2: "Y"}, n), PauliTerm(-1.25, {}, n)]
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    p = LinearProblem(PauliSum(terms, n), DenseState(amps))
    path = tmp_path / "p.txt"
    save_problem(p, path)
    q = load_problem(path)
    assert q.a == p.a and q.kappa is None
    assert np.array_equal(q.b.amplitudes, p.b.amplitudes)


def test_round_trip_sparse_b(tmp_path):
    n = 4
    amps = np.zeros(16, dtype=complex)
    amps[3] = 1.5 - 0.25j
    amps[11] = -2.0
    p = LinearProblem(PauliSum([PauliTerm(2.0, {1: "Z"}, n),
                                PauliTerm(3.0, {}, n)], n),
                      DenseState(amps))
    path = tmp_path / "p.txt"
    save_problem(p, path)
    text = path.read_text(encoding="utf-8")
    assert "b sparse" in text
    assert "3 1.5 -0.25" in text
    q = load_problem(path)
    assert np.array_equal(q.b.amplitudes, amps)
    assert q.a == p.a


def test_round_trip_random_problem(tmp_path):
    p = random_pauli_problem(4, terms=6, seed=11)
    path = tmp_path / "p.txt"
    save_problem(p, path)
    q = load_problem(path)
    assert q.a == p.a
    assert np.array_equal(q.b.amplitudes, p.b.amplitudes)


def test_load_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(
        "# a comment\n\nn=2\nkappa=5.0  # trailing\n1.0 Z0\n\nb sparse\n0 1.0\n",
        encoding="utf-8")
    p = load_problem(path)
    assert p.n == 2 and p.kappa == 5.0 and len(p.a) == 1
    assert p.b.amplitudes[0] == 1.0


@pytest.mark.parametrize("text,fragment", [
    ("1.0 Z0\nb sparse\n0 1.0\n", "line 1"),
    ("n=abc\nb sparse\n0 1.0\n", "line 1"),
    ("n=0\nb sparse\n0 1.0\n", "line 1"),
    ("n=2\n1.0 Z0\nkappa=5.0\nb sparse\n0 1.0\n", "line 3"),
    ("n=2\nb dense\n1.0 0.0\nb sparse\n0 1.0\n", "duplicate b"),
    ("n=2\n1.0 Z0\nb dense\n1.0 0.0\n", "4 entries"),
    ("n=2\nb sparse\n9 1.0\n", "line 3: .* out of range"),
    ("n=2\n1.0 I\nb sparse\n1 1.0\n1 2.0\n", "line 5: duplicate sparse b index 1"),
    ("n=2\nb sparse\nx 1.0\n", "line 3"),
    ("n=2\nb dense\n1.0 oops\n", "line 3"),
    ("n=2\nb dense\n1.0 0.0 0.0\n", "line 3"),
    ("n=2\n1.0 Z0\n", "missing b"),
    ("", "missing n"),
    ("n=1\nkappa=nan\n1.0 Z0\nb dense\n1 0\n1 0\n", "line 2: kappa must be finite"),
    ("n=1\nkappa=inf\n1.0 Z0\nb dense\n1 0\n1 0\n", "line 2: kappa must be finite"),
    ("n=1\n1.0 Z0\nb dense\n1 0\ninf 0\n", "line 5: amplitude must be finite"),
    ("n=1\n1.0 Z0\nb dense\n1 nan\n1 0\n", "line 4: amplitude must be finite"),
    ("n=1\n1.0 Z0\nb sparse\n0 1\n1 -inf\n", "line 5: amplitude must be finite"),
])
def test_load_problem_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=fragment):
        load_problem(path)


@pytest.mark.parametrize("text", ["# only a comment\n", "1.0 Z0\n", "\nn=abc\n", "n=0\n"])
def test_load_problem_header_errors_match_load_operator(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as operator_error:
        load_operator(path)
    with pytest.raises(ParseError) as problem_error:
        load_problem(path)
    assert str(problem_error.value) == str(operator_error.value)
