"""Wavefunction models: RBM amplitudes (real and complex flavors) and
explicitly stored dense vectors.

Every model exposes the same oracle interface: log_amp / amp / log_prob on
basis-index arrays, basis_log_amp for log psi over the whole basis, log_grad
for the per-parameter derivatives of log psi, and a flat parameter vector
ordered [a, c, W.ravel()] for the RBM.  The RBM forms its hidden angles
from per-byte tables of its weights, by gathering rows for a list of
indices and by broadcasting the tables against each other for the whole
basis, and evaluates both with one formula for either flavor, so the two
agree bit for bit.
"""

from __future__ import annotations

import math
import numbers
from pathlib import Path

import numpy as np

from .errors import CapabilityError
from .operators import DENSE_LIMIT

DEFAULT_ALPHA = 2.0
DEFAULT_SIGMA = {"real": 0.01, "complex": 0.05}
# Rows per Rbm evaluation block, so that its temporaries stay cache-sized
_BLOCK = 1024
# Most factors, each of modulus <= 2, in one product; 2^512 is far from overflow
_PRODUCT_ROWS = 512
# A block product of modulus e^_LOG_FLOOR or more had no partial product
# below the smallest normal float, as its later factors raise it <= 2^512
_LOG_FLOOR = math.log(np.finfo(np.float64).tiny) + _PRODUCT_ROWS * math.log(2.0)
# Row v holds the spins 1 - 2 * bit j of v, for bits j = 0..7 of a byte
_BYTE_SPINS = 1.0 - 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1)


def spins(x, n):
    """Basis indices -> rows of n spins in {+1, -1}; bit 0 maps to +1.

    Qubit 0 is the most significant bit, so column i holds qubit i.
    """
    xs = np.asarray(x, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (xs[..., None] >> shifts) & 1
    return 1.0 - 2.0 * bits


class Wavefunction:
    """Amplitude-oracle interface shared by all models."""

    n = 0

    @property
    def param_count(self):
        return 0

    def log_amp(self, x):
        raise NotImplementedError

    def log_grad(self, x):
        """d log psi / d theta, one row per state, as a new array that the
        caller may overwrite (training centres it in place)."""
        raise NotImplementedError

    def basis_log_amp(self):
        """log psi over the whole basis in index order, bit for bit
        log_amp(np.arange(2**n)); the one read of a whole basis."""
        return np.asarray(self.log_amp(np.arange(1 << self.n, dtype=np.int64)))

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

    log_amp and log_prob read a . s and the hidden angles c + W s from
    per-byte tables of the visible layer: byte k of a basis index (bits
    8k..8k+7, qubits n-1-8k down to n-8-8k) selects one row of a table that
    holds, for each of its up to 256 values, a . s and W s over those eight
    spins, with c folded into the first table.  A list of indices costs
    one shift and mask and one row gather per byte, plus adds.
    basis_log_amp gathers nothing: it broadcasts the low byte's table
    against the higher bytes', adding in the same order, so it equals
    log_amp(arange(2^n)) bit for bit.  Both lay the angles out hidden-major
    (one column per state) and, for either flavor, take log psi as
    a . s + sum_j theta_j + log prod_j (1 + e^(-2 theta_j)) with each angle
    flipped to Re theta_j >= 0, one log per block of hidden units (see
    _from_angles), summing down the hidden units in order, so a state's
    value does not depend on the other states in the call.  The tables are
    built on the first evaluation after __init__ or set_params.  a, c and w
    are read-only arrays, so the tables cannot go stale; set_params is the
    only way to change them.
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
        self.flavor = flavor
        self.n = n
        self.m = m
        self.seed = seed
        self._set(a.copy(), c.copy(), w.copy())

    a = property(lambda self: self._a, doc="visible biases, read-only")
    c = property(lambda self: self._c, doc="hidden biases, read-only")
    w = property(lambda self: self._w, doc="(hidden, visible) weights, read-only")

    def _set(self, a, c, w):
        """Take a, c, w as the parameters (arrays the caller gives up)."""
        for arr in (a, c, w):
            arr.flags.writeable = False
        self._a, self._c, self._w = a, c, w
        self._tables = None

    def _byte_tables(self):
        """[(shift, mask, table)] per byte of a basis index.

        Row v of a byte's table is [a . s, W s] over that byte's spins when
        its bits read v; the first table adds c to W s.
        """
        n = self.n
        # row j: [a, W] at bit j of the index, which is qubit n-1-j
        bits = np.concatenate([self.a[None, :], self.w])[:, ::-1].T.copy()
        tables = []
        for shift in range(0, n, 8):
            width = min(8, n - shift)
            tables.append((shift, (1 << width) - 1,
                           _BYTE_SPINS[:1 << width, :width] @ bits[shift:shift + width]))
        first = tables[0][2]
        first += np.concatenate([np.zeros(1, first.dtype), self.c])
        return tables

    @property
    def param_count(self):
        return self.n + self.m + self.m * self.n

    def _log_psi(self, xs):
        """log psi over a 1-d index array, in the flavor's dtype.

        A batch longer than _BLOCK rows is evaluated _BLOCK rows at a time,
        so that its temporaries stay cache-sized and are reused from the
        heap rather than mapped afresh per call.
        """
        if xs.size > _BLOCK:
            return np.concatenate([self._log_psi(xs[i:i + _BLOCK])
                                   for i in range(0, xs.size, _BLOCK)])
        if xs.size == 1:  # numpy sums a lone column pairwise; keep two
            return self._log_psi(np.repeat(xs, 2))[:1]
        (_, mask, table), *rest = self._get_tables()
        rows = table.take(xs & mask, axis=0)
        for shift, mask, table in rest:
            rows += table.take((xs >> shift) & mask, axis=0)
        return self._from_angles(np.ascontiguousarray(rows.T))

    def basis_log_amp(self):
        """log psi over the whole basis in index order.

        Each block of _BLOCK states spans every value of the low byte and a
        few consecutive values of the next, with the bytes above fixed, so
        its angles are the low table broadcast against a slice of the next
        table plus a column of each higher one, added in the order
        _log_psi adds its gathers.
        """
        (_, _, low), *rest = self._get_tables()
        if rest:
            (_, _, second), *higher = rest
            size = 1 << self.n
            block = min(_BLOCK, size)
            out = np.empty(size, low.dtype)
            acc = np.empty((low.shape[1], block >> 8, 256), low.dtype)
            for start in range(0, size, block):
                hi = (start >> 8) & 255
                np.add(low.T[:, None, :], second.T[:, hi:hi + (block >> 8), None],
                       out=acc)
                for shift, mask, table in higher:
                    acc += table[(start >> shift) & mask, :, None, None]
                out[start:start + block] = self._from_angles(acc.reshape(-1, block))
        else:
            out = self._from_angles(low.T.copy())
        return out.astype(np.complex128, copy=False)

    def _get_tables(self):
        if self._tables is None:
            self._tables = self._byte_tables()
        return self._tables

    def _from_angles(self, acc):
        """log psi from an (m+1, states) array of rows [a . s, theta_1..m]
        over at least two states; acc may be overwritten.

        With each angle flipped to Re theta >= 0 (cosh is even), log psi is
        a . s + sum theta + log prod (1 + e^(-2 theta)), one log per block
        of _PRODUCT_ROWS factors, summed down the hidden rows in order, one
        state per column, so a state's value does not depend on the other
        columns.  Real factors lie in (1, 2]; a state whose block log falls
        below _LOG_FLOOR, which only complex factors reach, may have lost
        precision to underflow and has its block summed one log per factor.
        """
        hidden = acc[1:]
        if hidden.dtype.kind == "c":
            np.negative(hidden, out=hidden, where=hidden.real < 0.0)
        else:
            np.abs(hidden, out=hidden)
        out = acc.sum(axis=0)
        hidden *= -2.0
        np.exp(hidden, out=hidden)
        hidden += 1.0
        with np.errstate(divide="ignore"):  # a complex block may reach 0
            for i in range(0, self.m, _PRODUCT_ROWS):
                factors = hidden[i:i + _PRODUCT_ROWS]
                logs = np.log(factors.prod(axis=0))
                if logs.real.min(initial=0.0) < _LOG_FLOOR:
                    low = logs.real < _LOG_FLOOR  # one contiguous row per state
                    logs[low] = np.log(factors.T[low]).sum(axis=1)
                out += logs
        return out

    def log_amp(self, x):
        xs = np.asarray(x, dtype=np.int64)
        out = self._log_psi(np.atleast_1d(xs)).astype(np.complex128, copy=False)
        return complex(out[0]) if xs.ndim == 0 else out

    def log_prob(self, x):
        """log |psi(x)|^2, equal to 2 * log_amp(x).real bit for bit.

        The real flavor stays in float64 and builds no complex array.
        """
        xs = np.asarray(x, dtype=np.int64)
        out = 2.0 * self._log_psi(np.atleast_1d(xs)).real
        return float(out[0]) if xs.ndim == 0 else out

    def log_grad(self, x):
        """d log psi / d theta, one row per sample, columns [a, c, W].

        Real flavor returns the real derivative array; complex flavor the
        holomorphic complex one.
        """
        xs = np.asarray(x, dtype=np.int64)
        s = spins(np.atleast_1d(xs), self.n)
        t = np.tanh(self.c + s @ self.w.T)
        n, m = self.n, self.m
        out = np.empty((s.shape[0], self.param_count), dtype=t.dtype)
        out[:, :n] = s
        out[:, n:n + m] = t
        np.einsum("kj,ki->kji", t, s, out=out[:, n + m:].reshape(s.shape[0], m, n))
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
        self._set(theta[:n].copy(), theta[n:n + m].copy(),
                  theta[n + m:].reshape(m, n).copy())


def check_init_options(alpha, sigma, flavor):
    """Raise ValueError unless init_gaussian takes these options: flavor is
    "real" or "complex", alpha is finite and positive, and sigma is None
    (the flavor's default) or finite and positive."""
    if flavor not in DEFAULT_SIGMA:
        raise ValueError(f"unknown flavor {flavor!r}")
    if sigma is None:
        sigma = DEFAULT_SIGMA[flavor]
    for name, v in (("alpha", alpha), ("sigma", sigma)):
        if not (_is_number(v, numbers.Real) and math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


def _is_number(v, kind):
    """v is an instance of the numbers ABC kind, and not a bool."""
    return isinstance(v, kind) and not isinstance(v, bool)


def init_gaussian(n, alpha=DEFAULT_ALPHA, sigma=None, seed=0, flavor="real"):
    """Fresh RBM with ceil(alpha*n) hidden units and N(0, sigma^2) entries.

    Complex flavor draws real and imaginary parts independently.  sigma
    defaults per flavor (0.01 real, 0.05 complex); check_init_options
    states the rules on alpha, sigma and flavor.  An alpha whose hidden
    layer cannot be allocated raises ValueError.
    """
    check_init_options(alpha, sigma, flavor)
    if n < 1:
        raise ValueError("need at least one qubit")
    if sigma is None:
        sigma = DEFAULT_SIGMA[flavor]
    rng = np.random.default_rng(seed)

    def draw(*shape):
        if flavor == "complex":
            return rng.normal(0.0, sigma, shape) + 1j * rng.normal(0.0, sigma, shape)
        return rng.normal(0.0, sigma, shape)

    try:
        m = math.ceil(alpha * n)
        return Rbm(draw(n), draw(m), draw(m, n), flavor=flavor, seed=seed)
    except (OverflowError, MemoryError):
        raise ValueError(
            f"alpha={alpha!r} asks for ceil(alpha*n) hidden units ({alpha * n:.6g} "
            f"at n={n}), more than can be allocated") from None


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


def _pow2_normalized(values):
    """(values * 2^-e, e) as complex128, where e is the np.frexp exponent of
    the largest magnitude among the real and imaginary parts of values, so
    that part lands in [0.5, 1); e is 0 for all-zero or empty values.

    A power-of-two scale is exact wherever the result is a normal number,
    so scaled values keep their bits, their squares and sums neither
    overflow nor underflow to zero together, and a linear map of them is
    scaled back by 2^e exactly.
    """
    parts = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    e = int(np.frexp(np.max(np.abs(parts), initial=0.0))[1])
    return np.ldexp(parts, -e).view(np.complex128), e


def dense_vector(psi, limit=DENSE_LIMIT):
    """Enumerate psi over the full basis, returned unit-normalized.

    RBM amplitudes are shifted by the largest log magnitude before
    exponentiation, and stored amplitudes scaled by a power of two
    (_pow2_normalized), so enumeration never overflows.
    """
    if psi.n > limit:
        raise CapabilityError(
            f"enumeration limited to n <= {limit}, got n={psi.n}")
    if isinstance(psi, DenseState):
        v, _ = _pow2_normalized(psi.amplitudes)
    else:
        la = np.asarray(psi.basis_log_amp())
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
    """Exact inverse of save_checkpoint (parameters round-trip bitwise);
    a file without one of its fields raises ValueError naming it."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        for name in ("flavor", "n", "m", "seed", "params"):
            if name not in data.files:
                raise ValueError(f"checkpoint {path} has no {name!r} field")
        flavor = str(data["flavor"])
        n = int(data["n"])
        m = int(data["m"])
        seed = int(data["seed"])
        params = np.array(data["params"])
    rbm = Rbm(np.zeros(n), np.zeros(m), np.zeros((m, n)), flavor=flavor,
              seed=None if seed < 0 else seed)
    rbm.set_params(params)
    return rbm
