"""Wavefunction models: RBM amplitudes (real and complex flavors) and
explicitly stored dense vectors.

Every model exposes the same oracle interface: log_amp / amp / log_prob on
basis-index arrays, log_grad for the per-parameter derivatives of log psi,
and a flat parameter vector ordered [a, c, W.ravel()] for the RBM.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import CapabilityError
from .operators import DENSE_LIMIT

DEFAULT_ALPHA = 2.0
DEFAULT_SIGMA = {"real": 0.01, "complex": 0.05}


def spins(x, n):
    """Basis indices -> rows of n spins in {+1, -1}; bit 0 maps to +1.

    Qubit 0 is the most significant bit, so column i holds qubit i.
    """
    xs = np.asarray(x, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (xs[..., None] >> shifts) & 1
    return 1.0 - 2.0 * bits


def log2cosh(z):
    """log(2 cosh z) without overflow for large |Re z|."""
    z = np.asarray(z)
    if np.iscomplexobj(z):
        zp = np.where(z.real < 0.0, -z, z)  # cosh is even
        return zp + np.log(1.0 + np.exp(-2.0 * zp))
    zp = np.abs(z)
    return zp + np.log1p(np.exp(-2.0 * zp))


class Wavefunction:
    """Amplitude-oracle interface shared by all models."""

    n = 0

    @property
    def param_count(self):
        return 0

    def log_amp(self, x):
        raise NotImplementedError

    def log_grad(self, x):
        raise NotImplementedError

    def amp(self, x):
        return np.exp(self.log_amp(x))

    def log_prob(self, x):
        """log |psi(x)|^2; may be -inf where the amplitude vanishes."""
        la = np.asarray(self.log_amp(x))
        out = 2.0 * la.real
        return float(out) if out.ndim == 0 else out

    def get_params(self):
        return np.zeros(0)

    def set_params(self, theta):
        if np.asarray(theta).size:
            raise ValueError("this model has no parameters")


class Rbm(Wavefunction):
    """Restricted Boltzmann machine amplitude model.

    log psi(x) = sum_i a_i s_i + sum_j log 2 cosh(c_j + sum_i W_ji s_i)
    over spins s in {+1,-1}^n.  Flavor 'real' keeps every parameter real,
    which makes all amplitudes strictly positive; flavor 'complex' treats
    log psi as holomorphic in the parameters, so gradients are plain
    complex derivatives.
    """

    def __init__(self, a, c, w, flavor="real", seed=None):
        if flavor not in ("real", "complex"):
            raise ValueError(f"unknown flavor {flavor!r}")
        dtype = np.float64 if flavor == "real" else np.complex128
        a = np.asarray(a, dtype=dtype)
        c = np.asarray(c, dtype=dtype)
        w = np.asarray(w, dtype=dtype)
        if w.ndim != 2:
            raise ValueError("W must be a (hidden, visible) matrix")
        m, n = w.shape
        if a.shape != (n,) or c.shape != (m,):
            raise ValueError(f"shape mismatch: a{a.shape} c{c.shape} W{w.shape}")
        for arr in (a, c, w):
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")
        self.a = a.copy()
        self.c = c.copy()
        self.w = w.copy()
        self.flavor = flavor
        self.n = n
        self.m = m
        self.seed = seed

    @property
    def param_count(self):
        return self.n + self.m + self.m * self.n

    def _z(self, s):
        return self.c + s @ self.w.T

    def log_amp(self, x):
        xs = np.asarray(x, dtype=np.int64)
        s = spins(np.atleast_1d(xs), self.n)
        out = s @ self.a + log2cosh(self._z(s)).sum(axis=1)
        out = out.astype(np.complex128, copy=False)
        return complex(out[0]) if xs.ndim == 0 else out

    def log_grad(self, x):
        """d log psi / d theta, one row per sample, columns [a, c, W].

        Real flavor returns the real derivative array; complex flavor the
        holomorphic complex one.
        """
        xs = np.asarray(x, dtype=np.int64)
        s = spins(np.atleast_1d(xs), self.n)
        t = np.tanh(self._z(s))
        w_part = (t[:, :, None] * s[:, None, :]).reshape(s.shape[0], self.m * self.n)
        out = np.concatenate([s.astype(t.dtype), t, w_part], axis=1)
        return out[0] if xs.ndim == 0 else out

    def get_params(self):
        return np.concatenate([self.a, self.c, self.w.reshape(-1)])

    def set_params(self, theta):
        theta = np.asarray(theta)
        if theta.shape != (self.param_count,):
            raise ValueError(
                f"expected {self.param_count} parameters, got shape {theta.shape}")
        if self.flavor == "real":
            if np.iscomplexobj(theta):
                if np.any(theta.imag != 0.0):
                    raise ValueError("real flavor takes real parameters")
                theta = theta.real
            theta = theta.astype(np.float64)
        else:
            theta = theta.astype(np.complex128)
        if not np.all(np.isfinite(theta)):
            raise ValueError("parameters must be finite")
        n, m = self.n, self.m
        self.a = theta[:n].copy()
        self.c = theta[n:n + m].copy()
        self.w = theta[n + m:].reshape(m, n).copy()


def init_gaussian(n, alpha=DEFAULT_ALPHA, sigma=None, seed=0, flavor="real"):
    """Fresh RBM with ceil(alpha*n) hidden units and N(0, sigma^2) entries.

    Complex flavor draws real and imaginary parts independently.  sigma
    defaults per flavor (0.01 real, 0.05 complex) and must be positive.
    """
    if flavor not in DEFAULT_SIGMA:
        raise ValueError(f"unknown flavor {flavor!r}")
    if n < 1:
        raise ValueError("need at least one qubit")
    if alpha <= 0:
        raise ValueError("hidden density alpha must be positive")
    if sigma is None:
        sigma = DEFAULT_SIGMA[flavor]
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    m = math.ceil(alpha * n)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        if flavor == "complex":
            return rng.normal(0.0, sigma, shape) + 1j * rng.normal(0.0, sigma, shape)
        return rng.normal(0.0, sigma, shape)

    return Rbm(draw(n), draw(m), draw(m, n), flavor=flavor, seed=seed)


class DenseState(Wavefunction):
    """State stored as an explicit vector over all 2^n basis indices."""

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError("amplitude vector length must be a power of two >= 2")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        if not np.any(amps):
            raise ValueError("state needs at least one nonzero amplitude")
        self.amplitudes = amps.copy()
        self.n = amps.size.bit_length() - 1

    def amp(self, x):
        xs = np.asarray(x, dtype=np.int64)
        out = self.amplitudes[xs]
        return complex(out) if xs.ndim == 0 else out

    def log_amp(self, x):
        vals = np.atleast_1d(np.asarray(self.amp(x)))
        if np.any(vals == 0.0):
            raise ValueError("zero amplitude has no logarithm")
        out = np.log(vals)
        return complex(out[0]) if np.asarray(x).ndim == 0 else out

    def log_prob(self, x):
        mags = np.atleast_1d(np.abs(np.asarray(self.amp(x))))
        out = np.full(mags.shape, -np.inf)
        nz = mags > 0.0
        out[nz] = 2.0 * np.log(mags[nz])
        return float(out[0]) if np.asarray(x).ndim == 0 else out

    def log_grad(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
        out = np.zeros((xs.size, 0))
        return out[0] if np.asarray(x).ndim == 0 else out

    def scaled(self, factor):
        return DenseState(self.amplitudes * factor)


def dense_vector(psi, limit=DENSE_LIMIT):
    """Enumerate psi over the full basis, returned unit-normalized.

    RBM amplitudes are shifted by the largest log magnitude before
    exponentiation so enumeration never overflows.
    """
    if psi.n > limit:
        raise CapabilityError(
            f"enumeration limited to n <= {limit}, got n={psi.n}")
    if isinstance(psi, DenseState):
        v = psi.amplitudes
    else:
        la = np.asarray(psi.log_amp(np.arange(1 << psi.n, dtype=np.int64)))
        v = np.exp(la - la.real.max())
    return v / np.linalg.norm(v)


def save_checkpoint(psi, path):
    """Write an Rbm as its flat parameter vector plus a small header."""
    if not isinstance(psi, Rbm):
        raise TypeError("checkpoints hold Rbm models")
    with open(path, "wb") as fh:
        np.savez(fh, flavor=psi.flavor, n=psi.n, m=psi.m,
                 seed=-1 if psi.seed is None else int(psi.seed),
                 params=psi.get_params())


def load_checkpoint(path):
    """Exact inverse of save_checkpoint (parameters round-trip bitwise)."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        flavor = str(data["flavor"])
        n = int(data["n"])
        m = int(data["m"])
        seed = int(data["seed"])
        params = np.array(data["params"])
    rbm = Rbm(np.zeros(n), np.zeros(m), np.zeros((m, n)), flavor=flavor,
              seed=None if seed < 0 else seed)
    rbm.set_params(params)
    return rbm
