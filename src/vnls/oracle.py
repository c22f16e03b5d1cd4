"""Exact reference computations for moderate sizes (n <= DENSE_LIMIT).

Everything here enumerates the full 2^n-dimensional space, so it exists to
check the stochastic machinery, not to compete with it.  Matrices are kept
sparse: to_sparse lays out the compiled RowForm rows of a Pauli sum at
every basis state as CSR, the same matrix training multiplies by.  Full
dense matrices are only formed for n <= DENSE_MATRIX_LIMIT, where LAPACK
is cheaper than Lanczos.  Linear solves use conjugate gradients on that
CSR, because the X terms make its sparsity graph a hypercube on which
sparse LU fills in almost completely.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CapabilityError
from .operators import (DENSE_LIMIT, DENSE_MATRIX_LIMIT, PauliSum, apply_term_row,
                        to_dense)
from .states import DenseState, Wavefunction, dense_vector


def to_sparse(h, limit=DENSE_LIMIT):
    """CSR matrix of h from its compiled rows; refuses n beyond ``limit``.

    Row x holds h.row_form().rows(x): one entry per flip group, in group
    order, so every row has the same number of entries.  An entry whose
    strings cancel on that row is kept as an explicit zero.
    """
    if h.n > limit:
        raise CapabilityError(
            f"exact oracle limited to n <= {limit}, got n={h.n}")
    dim = 1 << h.n
    cols, vals = h.row_form().rows(np.arange(dim, dtype=np.int64))
    return sp.csr_matrix((vals.ravel(), cols.ravel(),
                          np.arange(dim + 1) * cols.shape[1]), shape=(dim, dim))


def _as_vector(state, limit=DENSE_LIMIT):
    if isinstance(state, DenseState):
        return state.amplitudes
    if isinstance(state, Wavefunction):
        return dense_vector(state, limit)
    out = np.asarray(state, dtype=np.complex128)
    if out.ndim != 1:
        raise ValueError("expected a state vector")
    return out


def exact_solve(a, b, limit=DENSE_LIMIT):
    """x = A^{-1} b, with a residual guarantee.

    A Hermitian PauliSum is solved by conjugate gradients from zero, which
    needs only products with its CSR matrix.  Any other A, and a Hermitian
    one on which CG misses the residual bound (breakdown on an indefinite
    spectrum, or a near-singular A), is solved by sparse LU.

    Raises numpy.linalg.LinAlgError when A is singular or so
    ill-conditioned that the relative residual exceeds 1e-10.
    """
    vec = _as_vector(b, limit)
    mat = to_sparse(a, limit) if isinstance(a, PauliSum) else sp.csc_matrix(a)
    tol = 1e-10 * max(np.linalg.norm(vec), 1e-300)

    def trustworthy(x):
        return bool(np.all(np.isfinite(x))
                    and np.linalg.norm(mat @ x - vec) <= tol)

    if isinstance(a, PauliSum) and a.is_hermitian:
        # exact-arithmetic CG ends within dim steps; a breakdown divides by
        # zero inside cg and leaves non-finite x for the residual check
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x, _ = spla.cg(mat, vec, rtol=1e-12, atol=0.0,
                           maxiter=mat.shape[0])
        if trustworthy(x):
            return x
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        x = np.asarray(spla.spsolve(mat.tocsc(), vec), dtype=np.complex128)
    if not trustworthy(x):
        raise np.linalg.LinAlgError("singular or too ill-conditioned for a "
                                    "trustworthy exact solve")
    return x


def fidelity(u, v):
    """|<u|v>|^2 / (<u|u> <v|v>): scale- and phase-invariant overlap."""
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    nu = np.vdot(u, u).real
    nv = np.vdot(v, v).real
    if nu == 0.0 or nv == 0.0:
        raise ValueError("fidelity of a zero vector is undefined")
    return float(abs(np.vdot(u, v)) ** 2 / (nu * nv))


def trace_distance(u, v):
    """Trace distance of the two pure states, sqrt(1 - fidelity)."""
    return float(np.sqrt(max(0.0, 1.0 - fidelity(u, v))))


def exact_loss(a, b, psi, limit=DENSE_LIMIT):
    """Solver objective <psi|A Pb A|psi> / <psi|psi>, matrix-free.

    Pb projects out the b direction, so with w = A psi the value is
    (<w|w> - |<b|w>|^2 / <b|b>) / <psi|psi>, clamped at zero against
    roundoff.  Zero exactly when psi is proportional to A^{-1} b.
    """
    vec_b = _as_vector(b, limit)
    vec_psi = _as_vector(psi, limit)
    mat = to_sparse(a, limit) if isinstance(a, PauliSum) else a
    w = mat @ vec_psi
    num = np.vdot(w, w).real - abs(np.vdot(vec_b, w)) ** 2 / np.vdot(vec_b, vec_b).real
    return float(max(0.0, num / np.vdot(vec_psi, vec_psi).real))


def _start(mat):
    """A fixed generic Lanczos start, with a part in every symmetry sector.

    A uniform start is even under a global spin flip; Lanczos stays in that
    sector when mat commutes with the flip to the last bit, as the Ising
    family's CSR does, and misses its odd ground state at odd n.
    """
    return np.random.default_rng(0).standard_normal(mat.shape[0])


def _lanczos_extreme(mat, which):
    return float(spla.eigsh(mat, k=1, which=which, v0=_start(mat),
                            return_eigenvectors=False)[0])


def extremal_eigs(a, limit=DENSE_LIMIT):
    """(lambda_min, lambda_max) of a Hermitian sum."""
    if not a.is_hermitian:
        raise ValueError("eigenvalue bounds need a Hermitian operator")
    if a.n <= DENSE_MATRIX_LIMIT:
        vals = np.linalg.eigvalsh(to_dense(a))
        return float(vals[0]), float(vals[-1])
    mat = to_sparse(a, limit)
    return _lanczos_extreme(mat, "SA"), _lanczos_extreme(mat, "LA")


def operator_norm_and_condition(a, limit=DENSE_LIMIT):
    """(||A||_2, kappa(A)) for Hermitian A.

    Singular values of a Hermitian matrix are |eigenvalues|; for an
    indefinite spectrum the smallest one is interior, found by
    shift-invert.  A numerically singular A gets kappa = inf.
    """
    if a.n <= DENSE_MATRIX_LIMIT:
        vals = np.abs(np.linalg.eigvalsh(to_dense(a)))
        hi, lo = float(vals.max()), float(vals.min())
    else:
        lmin, lmax = extremal_eigs(a, limit)
        hi = max(abs(lmin), abs(lmax))
        if lmin < 0.0 < lmax:
            mat = to_sparse(a, limit).tocsc()
            lo = abs(float(spla.eigsh(mat, k=1, sigma=0.0, which="LM",
                                      v0=_start(mat),
                                      return_eigenvectors=False)[0]))
        else:
            lo = min(abs(lmin), abs(lmax))
    if lo == 0.0:
        return hi, float("inf")
    return hi, hi / lo


def ground_state(h, limit=DENSE_LIMIT):
    """Unit eigenvector of the smallest eigenvalue of Hermitian h."""
    if not h.is_hermitian:
        raise ValueError("ground state needs a Hermitian operator")
    if h.n <= DENSE_MATRIX_LIMIT:
        vals, vecs = np.linalg.eigh(to_dense(h))
        return vecs[:, 0]
    mat = to_sparse(h, limit)
    vals, vecs = spla.eigsh(mat, k=1, which="SA", v0=_start(mat))
    return vecs[:, 0]


def rayleigh_quotient(h, psi, limit=DENSE_LIMIT):
    """<psi|H|psi> / <psi|psi> evaluated exactly."""
    v = _as_vector(psi, limit)
    w = to_sparse(h, limit) @ v
    return float((np.vdot(v, w) / np.vdot(v, v)).real)


@dataclass
class OracleReport:
    """Exact certificate relating the observable loss to solution error."""

    n: int
    fidelity: float
    trace_distance: float
    loss: float
    bound: float            # kappa * sqrt(loss) / ||A||
    kappa_actual: float
    norm_a: float
    bound_satisfied: bool
    solution: np.ndarray

    CSV_FIELDS = ("n", "fidelity", "trace_distance", "loss", "bound",
                  "kappa_actual", "norm_a", "bound_satisfied")

    def to_lines(self):
        """Flat key=value block (the solution vector stays out of it)."""
        out = []
        for name in self.CSV_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool):
                out.append(f"{name}={str(value).lower()}")
            elif isinstance(value, float):
                out.append(f"{name}={value!r}")
            else:
                out.append(f"{name}={value}")
        return out

    def to_csv_row(self):
        row = []
        for name in self.CSV_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool):
                row.append(str(value).lower())
            elif isinstance(value, float):
                row.append(repr(value))
            else:
                row.append(str(value))
        return row


def check_error_bound(a, b, psi, solution=None, spectrum=None,
                      limit=DENSE_LIMIT):
    """Certify trace_distance(psi, A^{-1}b) <= kappa sqrt(L) / ||A||.

    The quotient kappa/||A|| equals 1/|lambda|_min, which makes the bound
    invariant under rescaling A; rescaling b cancels inside L and the
    fidelity.  ``solution`` and ``spectrum = (norm, kappa)`` may be passed
    to amortize repeated checks against one problem.
    """
    vec_psi = _as_vector(psi, limit)
    sol = exact_solve(a, b, limit) if solution is None else np.asarray(solution)
    fid = fidelity(vec_psi, sol)
    fid = min(fid, 1.0)  # roundoff can land at 1 + 1e-16
    dist = float(np.sqrt(max(0.0, 1.0 - fid)))
    loss = exact_loss(a, b, vec_psi, limit)
    norm_a, kappa = operator_norm_and_condition(a, limit) if spectrum is None else spectrum
    bound = kappa * float(np.sqrt(loss)) / norm_a
    return OracleReport(
        n=a.n, fidelity=fid, trace_distance=dist, loss=loss, bound=bound,
        kappa_actual=kappa, norm_a=norm_a,
        bound_satisfied=bool(dist <= bound + 1e-12), solution=sol)


def ising_identities(n, kappa):
    """Closed-form checks of the conditioned benchmark problem.

    Returns a dict with the worst-case deviations: orthonormality of the
    ZZ-perturbation directions applied to b, the residual of the exact
    expansion of A b, the per-entry perturbation size against its
    2^{-n/2} * 0.05 envelope, the squared distance between the normalized
    b and A^{-1} applied to it against its closed-form budget, and the
    fidelity between b and A^{-1} b.
    """
    from .problems import ising_perturbation_scale, ising_problem

    problem = ising_problem(n, kappa)
    a = problem.a
    dim = 1 << n
    b = problem.b.amplitudes            # all ones
    b_hat = b / np.sqrt(dim)

    # directions ZZ_j b, pairwise orthonormal by the disjoint-sign argument
    zz_terms = a.terms[n:2 * n - 1]
    vecs = np.empty((n - 1, dim))
    for j, t in enumerate(zz_terms):
        cols, vals = apply_term_row(t, np.arange(dim, dtype=np.int64))
        vecs[j] = (vals.real / t.coefficient.real) * b_hat[cols].real
    gram = vecs @ vecs.T
    gram_dev = float(np.abs(gram - np.eye(n - 1)).max())

    # A b = b + scale * sum_j ZZ_j b exactly
    scale = ising_perturbation_scale(n, kappa)
    ab = to_sparse(a) @ b_hat
    expansion_residual = float(np.abs(ab - (b_hat + scale * vecs.sum(axis=0))).max())

    # entry formula: (sum_j ZZ_j b_hat)(x) = 2^{-n/2} (agree(x) - disagree(x))
    bits = (np.arange(dim, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    agree = (bits[:, :-1] == bits[:, 1:]).sum(axis=1)
    formula = (2.0 * agree - (n - 1)) / np.sqrt(dim)
    entry_formula_dev = float(np.abs(vecs.sum(axis=0) - formula).max())

    entry_perturbation = float(np.abs(ab - b_hat).max())
    entry_budget = float(0.05 / np.sqrt(dim))

    sol = exact_solve(a, b_hat)
    distance_sq = float(np.linalg.norm(b_hat - sol) ** 2)
    distance_budget = float(0.0025 * (kappa - 1.0) ** 2 * (n - 1) / n ** 2)

    return {
        "gram_deviation": gram_dev,
        "expansion_residual": expansion_residual,
        "entry_formula_deviation": entry_formula_dev,
        "entry_perturbation": entry_perturbation,
        "entry_budget": entry_budget,
        "solution_distance_sq": distance_sq,
        "distance_budget": distance_budget,
        "fidelity": fidelity(b_hat, sol),
    }
