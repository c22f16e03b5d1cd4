"""Independent reference for checking what vnls computes.

Uses numpy and scipy only; it never imports vnls.  Operators are built from
bit operations on the term lists of ``workloads`` (no to_dense, to_sparse or
expand_rows), the RBM is evaluated from its flat parameter vector by its
own formula, solutions come from conjugate gradients and ground energies
from scipy's Lanczos (eigsh).  Qubit 0 is the most significant bit of a
basis index, the Kronecker order factor_0 (x) ... (x) factor_{n-1}.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def pauli_matrix(n, terms):
    """CSR matrix of sum_k c_k P_k, one entry per row per term, summed.

    Row x of a Pauli string has its one nonzero at column x with the X/Y
    bits flipped; Z contributes (-1)^bit and Y contributes -i (-1)^bit,
    read off the row's bit (Y = [[0, -i], [i, 0]]).
    """
    dim = 1 << n
    x = np.arange(dim, dtype=np.int64)
    rows, cols, vals = [], [], []
    for coefficient, factors in terms:
        col = x.copy()
        val = np.full(dim, complex(coefficient))
        for q, letter in factors.items():
            shift = n - 1 - q
            sign = 1.0 - 2.0 * ((x >> shift) & 1)
            if letter in ("X", "Y"):
                col ^= np.int64(1) << shift
            if letter == "Z":
                val *= sign
            elif letter == "Y":
                val *= -1j * sign
            elif letter != "X":
                raise ValueError(f"unknown Pauli letter {letter!r}")
        rows.append(x)
        cols.append(col)
        vals.append(val)
    data = np.concatenate(vals) if vals else np.zeros(0, complex)
    if not np.any(data.imag):
        data = data.real
    mat = sp.coo_matrix(
        (data, (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim))
    return mat.tocsr()


def solve(mat, b):
    """x with A x = b for Hermitian positive-definite A, by CG.

    Raises if the relative residual does not reach 1e-11.
    """
    b = np.asarray(b)
    x, info = spla.cg(mat, b, rtol=1e-13, atol=0.0, maxiter=10 * mat.shape[0])
    residual = np.linalg.norm(mat @ x - b) / np.linalg.norm(b)
    if info < 0 or not residual <= 1e-11:
        raise ArithmeticError(f"reference CG stalled: residual {residual:.3e}")
    return x


def ground_energy(mat):
    """Smallest eigenvalue of a Hermitian matrix by Lanczos (fixed start)."""
    dim = mat.shape[0]
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    return float(spla.eigsh(mat, k=1, which="SA", v0=v0,
                            return_eigenvectors=False)[0])


def _spin_table(bits):
    """Spins of all 2^bits patterns of ``bits`` qubits, first qubit leftmost."""
    x = np.arange(1 << bits, dtype=np.int64)
    return 1.0 - 2.0 * ((x[:, None] >> np.arange(bits - 1, -1, -1)) & 1)


def rbm_log_amps(params, n):
    """log psi over the full basis for a real RBM, params [a, c, W.ravel()].

    log psi(s) = a.s + sum_j log(2 cosh(theta_j)), theta = c + W s, with
    log(2 cosh t) = |t| + log1p(exp(-2|t|)).  The basis index splits into
    its high and low halves, so theta is the sum of two small tables.
    """
    params = np.asarray(params)
    if np.iscomplexobj(params):
        raise ValueError("the reference evaluates real RBMs only")
    m = (params.size - n) // (n + 1)
    if params.size != n + m + m * n:
        raise ValueError(f"{params.size} parameters fit no RBM on {n} visible units")
    a, c, w = params[:n], params[n:n + m], params[n + m:].reshape(m, n)
    hi = _spin_table(n - n // 2)
    lo = _spin_table(n // 2)
    split = n - n // 2
    theta = (c + hi @ w[:, :split].T)[:, None, :] + (lo @ w[:, split:].T)[None, :, :]
    visible = (hi @ a[:split])[:, None] + (lo @ a[split:])[None, :]
    t = np.abs(theta.reshape(-1, m))
    return visible.reshape(-1) + (t + np.log1p(np.exp(-2.0 * t))).sum(axis=1)


def rbm_vector(params, n):
    """Unit-norm RBM state over the full basis."""
    la = rbm_log_amps(params, n)
    v = np.exp(la - la.max())
    return v / np.linalg.norm(v)


def fidelity(u, v):
    """|<u|v>|^2 / (<u|u> <v|v>)."""
    u = np.asarray(u).reshape(-1)
    v = np.asarray(v).reshape(-1)
    return float(abs(np.vdot(u, v)) ** 2 / (np.vdot(u, u).real * np.vdot(v, v).real))


def energy(mat, v):
    """Rayleigh quotient <v|H|v> / <v|v>."""
    return float((np.vdot(v, mat @ v) / np.vdot(v, v)).real)
