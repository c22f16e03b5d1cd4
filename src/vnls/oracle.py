"""Exact reference computations for moderate sizes (n <= DENSE_LIMIT).

Everything here enumerates the full 2^n-dimensional space, so it exists to
check the stochastic machinery, not to compete with it.  Matrices are kept
sparse: operators.to_sparse lays out the compiled RowForm rows of a Pauli
sum at every basis state as CSR, the same matrix training multiplies by.
Eigenvalues come from LAPACK on that CSR made dense for n <=
DENSE_MATRIX_LIMIT, and from Lanczos above it.  The dense branch is not
there for speed (at n = 10 it is the slower one).  It covers n = 1,
where ARPACK cannot take one eigenvalue of a 2 x 2 matrix.  A singular A
gets kappa = inf on both branches: above it, from a shift-invert factor
that comes out exactly singular.  Lanczos results are checked against the
Rayleigh quotient of the start vector, which lies between the extremes of
any Hermitian spectrum; a run whose extremes miss it has stalled short of
part of the spectrum and raises numpy.linalg.LinAlgError rather than
certify wrong values.  Every function here refuses n beyond its ``limit``
on either branch.
Linear solves use conjugate gradients on that CSR, because the X terms
make its sparsity graph a hypercube on which sparse LU fills in almost
completely.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla

from .operators import (DENSE_LIMIT, DENSE_MATRIX_LIMIT, PauliSum, expand_rows,
                        to_dense, to_sparse)
from .states import DenseState, Wavefunction, _pow2_normalized, dense_vector


def _as_vector(state, n, limit=DENSE_LIMIT):
    """state over the basis of an operator on n qubits, or ValueError."""
    if isinstance(state, DenseState):
        out = state.amplitudes
    elif isinstance(state, Wavefunction):
        out = dense_vector(state, limit)
    else:
        out = np.asarray(state, dtype=np.complex128)
    if out.shape != (1 << n,):
        raise ValueError(f"a state of shape {out.shape} for an operator on "
                         f"{n} qubits, which needs {1 << n} amplitudes")
    return out


def exact_solve(a, b, limit=DENSE_LIMIT):
    """x = A^{-1} b for a PauliSum a, with a residual guarantee.

    A Hermitian sum is solved by conjugate gradients from zero, which needs
    only products with its CSR matrix.  Sparse LU is reached only for a
    non-Hermitian sum or a CG miss of the residual bound (breakdown on an
    indefinite spectrum, or a near-singular A).

    b is scaled by a power of two first (_pow2_normalized) and the
    solution scaled back by the same power, both exact, so the solve and
    its residual test see the same numbers at any scale of b:
    exact_solve(a, 2^j b) == 2^j exact_solve(a, b) wherever neither
    solution leaves the normal range.

    Raises numpy.linalg.LinAlgError when A is singular or so
    ill-conditioned that the relative residual exceeds 1e-10.
    """
    vec, e = _pow2_normalized(_as_vector(b, a.n, limit))
    mat = to_sparse(a, limit)
    tol = 1e-10 * max(np.linalg.norm(vec), 1e-300)

    def trustworthy(x):
        return bool(np.all(np.isfinite(x))
                    and np.linalg.norm(mat @ x - vec) <= tol)

    x = None
    if a.is_hermitian:
        # exact-arithmetic CG ends within dim steps; a breakdown divides by
        # zero inside cg and leaves non-finite x for the residual check
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x, _ = spla.cg(mat, vec, rtol=1e-12, atol=0.0,
                           maxiter=mat.shape[0])
    if x is None or not trustworthy(x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            x = np.asarray(spla.spsolve(mat.tocsc(), vec), dtype=np.complex128)
        if not trustworthy(x):
            raise np.linalg.LinAlgError("singular or too ill-conditioned for a "
                                        "trustworthy exact solve")
    return np.ldexp(np.ascontiguousarray(x).view(np.float64), e).view(np.complex128)


def fidelity(u, v):
    """|<u|v>|^2 / (<u|u> <v|v>): scale- and phase-invariant overlap.

    u and v are each scaled by a power of two first (_pow2_normalized),
    which is exact, so no scale of either overflows or underflows a norm.
    """
    u, _ = _pow2_normalized(np.reshape(u, -1))
    v, _ = _pow2_normalized(np.reshape(v, -1))
    nu = np.vdot(u, u).real
    nv = np.vdot(v, v).real
    if nu == 0.0 or nv == 0.0:
        raise ValueError("fidelity of a zero vector is undefined")
    return float(abs(np.vdot(u, v)) ** 2 / (nu * nv))


def trace_distance(u, v):
    """Trace distance of the two pure states, sqrt(1 - fidelity)."""
    return float(np.sqrt(max(0.0, 1.0 - fidelity(u, v))))


def exact_loss(a, b, psi, limit=DENSE_LIMIT):
    """Solver objective <psi|A Pb A|psi> / <psi|psi> for a PauliSum a.

    Pb projects out the b direction, so with w = A psi the value is
    (<w|w> - |<b|w>|^2 / <b|b>) / <psi|psi>, clamped at zero against
    roundoff.  Zero exactly when psi is proportional to A^{-1} b.  b and
    psi are each scaled by a power of two first (_pow2_normalized), so the
    value is the same at any scale of either.
    """
    vec_b, _ = _pow2_normalized(_as_vector(b, a.n, limit))
    vec_psi, _ = _pow2_normalized(_as_vector(psi, a.n, limit))
    w = to_sparse(a, limit) @ vec_psi
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


def _check_lanczos(mat, lo, hi=np.inf):
    """Raise LinAlgError unless [lo, hi] holds the start's Rayleigh quotient.

    Every Rayleigh quotient of a Hermitian matrix lies within its extreme
    eigenvalues, so Lanczos extremes that exclude the start's quotient were
    found on part of the spectrum only.
    """
    v = _start(mat)
    q = float(np.vdot(v, mat @ v).real / (v @ v))
    slack = 1e-10 * max(abs(lo), abs(q))  # roundoff in q and the extremes
    if not lo - slack <= q <= hi + slack:
        raise np.linalg.LinAlgError(
            f"Lanczos stalled: the Rayleigh quotient {q!r} of its start "
            f"vector lies outside the eigenvalue range [{lo!r}, {hi!r}] it found")


def extremal_eigs(a, limit=DENSE_LIMIT):
    """(lambda_min, lambda_max) of a Hermitian sum."""
    if not a.is_hermitian:
        raise ValueError("eigenvalue bounds need a Hermitian operator")
    if a.n <= DENSE_MATRIX_LIMIT:
        vals = np.linalg.eigvalsh(to_dense(a, limit))
        return float(vals[0]), float(vals[-1])
    mat = to_sparse(a, limit)
    lmin, lmax = _lanczos_extreme(mat, "SA"), _lanczos_extreme(mat, "LA")
    _check_lanczos(mat, lmin, lmax)
    return lmin, lmax


def operator_norm_and_condition(a, limit=DENSE_LIMIT):
    """(||A||_2, kappa(A)) for Hermitian A; a non-Hermitian A raises
    ValueError at every n.

    Singular values of a Hermitian matrix are |eigenvalues|; for an
    indefinite spectrum the smallest one is interior, found by
    shift-invert.  A numerically singular A gets kappa = inf.
    """
    return _spectrum(a, limit)[:2]


def _spectrum(a, limit):
    """operator_norm_and_condition(a, limit) and lambda_min(A), from the
    same eigenvalues."""
    if not a.is_hermitian:
        raise ValueError("norm and condition number need a Hermitian operator")
    if a.n <= DENSE_MATRIX_LIMIT:
        vals = np.linalg.eigvalsh(to_dense(a, limit))
        lmin, lmax, lo = float(vals[0]), float(vals[-1]), float(np.abs(vals).min())
    else:
        lmin, lmax = extremal_eigs(a, limit)
        if lmin < 0.0 < lmax:
            mat = to_sparse(a, limit).tocsc()
            try:
                lo = abs(float(spla.eigsh(mat, k=1, sigma=0.0, which="LM",
                                          v0=_start(mat),
                                          return_eigenvectors=False)[0]))
            except RuntimeError as err:  # raised by the LU factor of A
                if "exactly singular" not in str(err):
                    raise
                lo = 0.0
        else:
            lo = min(abs(lmin), abs(lmax))
    hi = max(abs(lmin), abs(lmax))
    return hi, (float("inf") if lo == 0.0 else hi / lo), lmin


def ground_state(h, limit=DENSE_LIMIT):
    """Unit eigenvector of the smallest eigenvalue of Hermitian h."""
    if not h.is_hermitian:
        raise ValueError("ground state needs a Hermitian operator")
    if h.n <= DENSE_MATRIX_LIMIT:
        vals, vecs = np.linalg.eigh(to_dense(h, limit))
        return vecs[:, 0]
    mat = to_sparse(h, limit)
    vals, vecs = spla.eigsh(mat, k=1, which="SA", v0=_start(mat))
    _check_lanczos(mat, float(vals[0]))
    return vecs[:, 0]


def rayleigh_quotient(h, psi, limit=DENSE_LIMIT):
    """<psi|H|psi> / <psi|psi> evaluated exactly, with psi first scaled by
    a power of two (_pow2_normalized), so at any scale of psi."""
    v, _ = _pow2_normalized(_as_vector(psi, h.n, limit))
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
    lambda_min: Optional[float] = None  # not in the CSV; see check_error_bound

    CSV_FIELDS = ("n", "fidelity", "trace_distance", "loss", "bound",
                  "kappa_actual", "norm_a", "bound_satisfied")

    def to_lines(self):
        """Flat key=value block (the solution vector stays out of it)."""
        return [f"{name}={text}"
                for name, text in zip(self.CSV_FIELDS, self.to_csv_row())]

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
    fidelity, bit for bit at any scale of b whose solution stays in the
    normal range, as exact_solve, exact_loss and fidelity first scale b by
    a power of two.  ``solution`` and ``spectrum = (norm, kappa)`` may be
    passed to amortize repeated checks against one problem.  The report's
    lambda_min, negative for an indefinite A, comes from the eigenvalues
    that give kappa; it is None where ``spectrum`` is passed.
    """
    vec_psi = _as_vector(psi, a.n, limit)
    sol = exact_solve(a, b, limit) if solution is None else _as_vector(solution, a.n, limit)
    fid = fidelity(vec_psi, sol)
    fid = min(fid, 1.0)  # roundoff can land at 1 + 1e-16
    dist = float(np.sqrt(max(0.0, 1.0 - fid)))
    loss = exact_loss(a, b, vec_psi, limit)
    norm_a, kappa, lambda_min = _spectrum(a, limit) if spectrum is None else (*spectrum, None)
    bound = kappa * float(np.sqrt(loss)) / norm_a
    return OracleReport(
        n=a.n, fidelity=fid, trace_distance=dist, loss=loss, bound=bound,
        kappa_actual=kappa, norm_a=norm_a,
        bound_satisfied=bool(dist <= bound + 1e-12), solution=sol,
        lambda_min=lambda_min)


def ising_identities(n, kappa, limit=DENSE_LIMIT):
    """Closed-form checks of the conditioned benchmark problem.

    Returns a dict with the worst-case deviations: orthonormality of the
    ZZ-perturbation directions applied to b, the residual of the exact
    expansion of A b, the per-entry perturbation size against its
    2^{-n/2} * 0.05 envelope, the squared distance between the normalized
    b and A^{-1} applied to it against its closed-form budget, and the
    fidelity between b and A^{-1} b.  Refuses n beyond ``limit``.
    """
    from .problems import ising_perturbation_scale, ising_problem

    problem = ising_problem(n, kappa)
    a = problem.a
    dim = 1 << n
    b = problem.b.amplitudes            # all ones
    b_hat = b / np.sqrt(dim)

    # directions ZZ_j b, pairwise orthonormal by the disjoint-sign argument
    zz = PauliSum(a.terms[n:2 * n - 1], n)
    cols, vals = expand_rows(zz, np.arange(dim, dtype=np.int64))
    coefficients = np.array([t.coefficient.real for t in zz.terms])
    # row-major, one direction per row, so the Gram product below sums in
    # the same order as for rows built one term at a time
    vecs = np.ascontiguousarray(((vals.real / coefficients) * b_hat[cols].real).T)
    gram = vecs @ vecs.T
    gram_dev = float(np.abs(gram - np.eye(n - 1)).max())

    # A b = b + scale * sum_j ZZ_j b exactly
    scale = ising_perturbation_scale(n, kappa)
    ab = to_sparse(a, limit) @ b_hat
    expansion_residual = float(np.abs(ab - (b_hat + scale * vecs.sum(axis=0))).max())

    # entry formula: (sum_j ZZ_j b_hat)(x) = 2^{-n/2} (agree(x) - disagree(x))
    bits = (np.arange(dim, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    agree = (bits[:, :-1] == bits[:, 1:]).sum(axis=1)
    formula = (2.0 * agree - (n - 1)) / np.sqrt(dim)
    entry_formula_dev = float(np.abs(vecs.sum(axis=0) - formula).max())

    entry_perturbation = float(np.abs(ab - b_hat).max())
    entry_budget = float(0.05 / np.sqrt(dim))

    sol = exact_solve(a, b_hat, limit)
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
