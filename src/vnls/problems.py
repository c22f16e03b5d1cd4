"""Benchmark linear problems A x proportional to b, plus their file format.

The Ising-inspired family is built so its conditioning is known by
construction: A = (sum_j X_j + 0.1 sum_j Z_j Z_{j+1} + eta I) / zeta with
eta = n (kappa+1)/(kappa-1) and zeta = n + eta places the spectrum inside
[1/kappa, 1] up to the small ZZ perturbation, and the all-ones right-hand
side is an eigenvector of the dominant part.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import CapabilityError, ParseError
from .operators import PauliSum, PauliTerm, format_term, parse_header, parse_term_line
from .states import DenseState


# Largest n for which a right-hand side b is built or loaded: b is stored
# dense, 16 bytes per basis state (256 MiB at n = 24)
B_LIMIT = 24


def _check_b_size(n):
    if n > B_LIMIT:
        raise CapabilityError(f"right-hand-side storage is dense; n > {B_LIMIT} "
                              f"is beyond this build, got n={n}")


class LinearProblem:
    """A Hermitian PauliSum and a DenseState right-hand side."""

    def __init__(self, a, b, kappa=None):
        if a.n != b.n:
            raise ValueError(f"A is on {a.n} qubits but b on {b.n}")
        if not a.is_hermitian:
            raise ValueError("A must be Hermitian (real coefficients)")
        self.a = a
        self.b = b
        self.kappa = None if kappa is None else float(kappa)

    @property
    def n(self):
        return self.a.n

    def __repr__(self):
        return f"LinearProblem(n={self.n}, terms={len(self.a)}, kappa={self.kappa})"


def ising_perturbation_scale(n, kappa):
    """Coefficient 0.1/zeta of each ZZ term, equal to 0.05 (kappa-1)/(n kappa)."""
    return 0.05 * (kappa - 1.0) / (n * kappa)


def ising_problem(n, kappa):
    """The conditioned benchmark problem on n >= 2 qubits, finite kappa > 1.

    Term order is fixed: n X terms, n-1 nearest-neighbor ZZ terms, one
    identity term.  b is the unnormalized all-ones vector; n > B_LIMIT
    raises CapabilityError before it is allocated.
    """
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (kappa > 1 and np.isfinite(kappa)):
        raise ValueError(f"kappa must be finite and greater than 1, got {kappa!r}")
    _check_b_size(n)
    kappa = float(kappa)
    eta = n * (kappa + 1.0) / (kappa - 1.0)
    zeta = n + eta
    terms = [PauliTerm(1.0 / zeta, {j: "X"}, n) for j in range(n)]
    terms += [PauliTerm(0.1 / zeta, {j: "Z", j + 1: "Z"}, n) for j in range(n - 1)]
    terms.append(PauliTerm(eta / zeta, {}, n))
    b = DenseState(np.ones(1 << n))
    return LinearProblem(PauliSum(terms, n), b, kappa=kappa)


def random_pauli_problem(n, terms=6, seed=0, locality=3, margin=0.5):
    """Random positive-definite Hermitian sum with a random sparse b.

    Each term touches 1..locality distinct qubits with random X/Y/Z letters
    and a uniform real coefficient; imaginary parts would break
    Hermiticity, so none are drawn.  A shift of sum|coef| + margin on the
    identity makes the operator positive definite (``terms=0`` therefore
    yields a multiple of the identity).  b gets Gaussian entries on a
    random quarter of the basis; n > B_LIMIT raises CapabilityError before
    b is allocated.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one qubit")
    if terms < 0:
        raise ValueError("terms must be >= 0")
    if not margin > 0:
        raise ValueError("margin must be positive")
    _check_b_size(n)
    rng = np.random.default_rng(seed)
    term_list = []
    total = 0.0
    for _ in range(terms):
        width = int(rng.integers(1, min(n, locality) + 1))
        qubits = rng.choice(n, size=width, replace=False)
        letters = rng.choice(np.array(["X", "Y", "Z"]), size=width)
        coefficient = float(rng.uniform(-1.0, 1.0))
        total += abs(coefficient)
        term_list.append(PauliTerm(
            coefficient, {int(q): str(s) for q, s in zip(qubits, letters)}, n))
    term_list.append(PauliTerm(total + margin, {}, n))

    dim = 1 << n
    amps = np.zeros(dim)
    nnz = max(1, dim // 4)
    where = rng.choice(dim, size=nnz, replace=False)
    amps[where] = rng.normal(size=nnz)
    if not np.any(amps):
        amps[int(where[0])] = 1.0
    return LinearProblem(PauliSum(term_list, n), DenseState(amps), kappa=None)


def save_problem(problem, path):
    """Text format: n= and optional kappa= headers, terms, then b.

    b is stored dense (one "re im" line per amplitude) when over half its
    entries are nonzero, sparse ("index re im" lines) otherwise.  Floats go
    through repr, so a load round-trips exactly.
    """
    lines = [f"n={problem.n}"]
    if problem.kappa is not None:
        lines.append(f"kappa={problem.kappa!r}")
    lines.extend(format_term(t) for t in problem.a.terms)
    amps = problem.b.amplitudes
    nz = np.flatnonzero(amps)
    if nz.size * 2 > amps.size:
        lines.append("b dense")
        lines.extend(f"{float(v.real)!r} {float(v.imag)!r}" for v in amps)
    else:
        lines.append("b sparse")
        lines.extend(
            f"{int(i)} {float(amps[i].real)!r} {float(amps[i].imag)!r}" for i in nz)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_floats(parts, lineno, what):
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ParseError(f"line {lineno}: bad {what}: {' '.join(parts)!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ParseError(f"line {lineno}: {what} must be finite: {' '.join(parts)!r}")
    return values


def load_problem(path):
    """Inverse of save_problem, with line-numbered parse errors.

    A header n > B_LIMIT raises CapabilityError before the body is parsed.
    """
    n, body = parse_header(Path(path).read_text(encoding="utf-8"))
    _check_b_size(n)
    kappa = None
    terms = []
    mode = None
    dense_vals = []
    sparse_vals = {}
    for lineno, line in body:
        if kappa is None and mode is None and not terms and line.startswith("kappa="):
            kappa, = _parse_floats([line[6:]], lineno, "kappa")
            continue
        if line == "b dense":
            if mode is not None:
                raise ParseError(f"line {lineno}: duplicate b section")
            mode = "dense"
            continue
        if line == "b sparse":
            if mode is not None:
                raise ParseError(f"line {lineno}: duplicate b section")
            mode = "sparse"
            continue
        if mode is None:
            terms.append(parse_term_line(line, n, lineno))
            continue
        parts = line.split()
        if mode == "dense":
            if len(parts) not in (1, 2):
                raise ParseError(f"line {lineno}: dense b entry needs 're [im]'")
            vals = _parse_floats(parts, lineno, "amplitude")
            dense_vals.append(complex(vals[0], vals[1] if len(vals) == 2 else 0.0))
        else:
            if len(parts) not in (2, 3):
                raise ParseError(f"line {lineno}: sparse b entry needs 'index re [im]'")
            try:
                idx = int(parts[0])
            except ValueError:
                raise ParseError(f"line {lineno}: bad index {parts[0]!r}") from None
            if not 0 <= idx < 1 << n:
                raise ParseError(f"line {lineno}: sparse b index {idx} out of range for n={n}")
            if idx in sparse_vals:
                raise ParseError(f"line {lineno}: duplicate sparse b index {idx}")
            vals = _parse_floats(parts[1:], lineno, "amplitude")
            sparse_vals[idx] = complex(vals[0], vals[1] if len(vals) == 2 else 0.0)
    if mode is None:
        raise ParseError("missing b section ('b dense' or 'b sparse')")
    dim = 1 << n
    if mode == "dense":
        if len(dense_vals) != dim:
            raise ParseError(
                f"dense b needs {dim} entries, got {len(dense_vals)}")
        amps = np.array(dense_vals, dtype=np.complex128)
    else:
        amps = np.zeros(dim, dtype=np.complex128)
        for idx, val in sparse_vals.items():
            amps[idx] = val
    return LinearProblem(PauliSum(terms, n), DenseState(amps), kappa=kappa)
