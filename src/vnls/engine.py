"""Local-energy estimators and stochastic-reconfiguration training loops.

Two objectives share one machinery.  Ground-state search minimizes the
Rayleigh quotient <psi|H|psi>/<psi|psi> of a Hermitian H.  The linear
solver minimizes the nonnegative quotient

    L(psi) = <psi| A Pb A |psi> / <psi|psi>,   Pb = I - b b^H / <b|b>,

which vanishes exactly when A psi is proportional to b, i.e. when psi is
proportional to A^{-1} b.  Both are Monte Carlo averages of a local energy
l(x), estimated on samples of pi(x) = |psi(x)|^2 / <psi|psi>.

Local energies read operator rows from each sum's compiled RowForm (see
operators): the solver's l(x) needs one grouped expansion of A^2 at the
pi-samples, plus grouped rows of A at the beta samples and for (A b)(x), so
each distinct column of a row costs one amplitude read.  All per-epoch
amplitude work is funneled through a deduplicated table of psi values.
Stored vectors are read linearly, which keeps their exact zeros; every
other model is read as log psi with one shared magnitude shift, which
cancels in every ratio the estimators form, so nothing here can overflow
on its own.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import CapabilityError
# expand_rows is not called here; it stays a module attribute because
# perfbench's traced replay wraps engine.expand_rows and apply_to_state
from .operators import DENSE_LIMIT, apply_to_state, expand_rows  # noqa: F401
from .sampling import SampleBatch, acceptance_stats, metropolis_sample, sample_beta
from .states import DenseState, dense_vector

_PI_STREAM = 0
_BETA_STREAM = 1


class _AmpTable:
    """Deduplicated psi evaluations at every index an epoch touches.

    Built from a list of index arrays, all deduplicated by one np.unique;
    ``log_amps(k)`` and ``scaled_amps(k)`` return the values at the k-th
    array's indices, in its shape.  ``scaled_amps`` is psi divided by its
    largest touched magnitude, so downstream ratios never overflow.  A
    DenseState is read linearly, which keeps exact zeros (their log is -inf
    and they contribute nothing to any row sum); every other model goes
    through ``log_amp`` with the shift applied in the exponent.
    """

    def __init__(self, psi, index_arrays):
        arrays = [np.asarray(a, dtype=np.int64) for a in index_arrays]
        indices, inverse = np.unique(
            np.concatenate([a.reshape(-1) for a in arrays]), return_inverse=True)
        cuts = np.cumsum([a.size for a in arrays])[:-1]
        self._slots = [s.reshape(a.shape)
                       for s, a in zip(np.split(inverse, cuts), arrays)]
        self._linear = isinstance(psi, DenseState)
        if self._linear:
            self._values = psi.amplitudes[indices]
            top = float(np.abs(self._values).max()) if indices.size else 0.0
            self._unscale = top if top > 0.0 else 1.0
        else:
            self._values = np.asarray(psi.log_amp(indices),
                                      dtype=np.complex128).reshape(-1)
            self._shift = float(self._values.real.max()) if indices.size else 0.0
            with np.errstate(over="ignore"):
                self._unscale = float(np.exp(self._shift))

    @cached_property
    def _log(self):
        if not self._linear:
            return self._values
        with np.errstate(divide="ignore"):
            return np.log(self._values)

    @cached_property
    def _scaled(self):
        if self._linear:
            return self._values / self._unscale
        return np.exp(self._values - self._shift)

    def log_amps(self, k):
        return self._log[self._slots[k]]

    def scaled_amps(self, k):
        return self._scaled[self._slots[k]]

    def unscale(self, value):
        # restore a quantity linear in scaled psi to the true scale; may
        # overflow to inf for states with extreme log magnitudes
        with np.errstate(over="ignore", invalid="ignore"):
            return value * self._unscale


def local_energy_h(h, psi, x, log_amp_x=None):
    """Local energy l(x) = (H psi)(x) / psi(x) in the log domain.

    Each grouped row entry of H contributes value * exp(log_amp(col) -
    log_amp(x)), so any constant rescaling of psi drops out exactly.
    ``log_amp_x`` may pass cached values of log psi at x.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
    cols, vals = h.row_form().rows(xs)
    if log_amp_x is None:
        table = _AmpTable(psi, [cols, xs])
        la_x = table.log_amps(1)
    else:
        table = _AmpTable(psi, [cols])
        la_x = np.atleast_1d(np.asarray(log_amp_x, dtype=np.complex128))
    out = (vals * np.exp(table.log_amps(0) - la_x[:, None])).sum(axis=1)
    return complex(out[0]) if np.asarray(x).ndim == 0 else out


def vnls_local_energies(a, b, psi, x, beta_batch, beta_weights=None):
    """Solver local energies for a whole pi-batch, sharing one beta batch.

    l(x) = [ (A^2 psi)(x) - (A b)(x) * Ehat ] / psi(x), where the scalar
    Ehat = E_beta[(A psi)(x') / b(x')] is estimated once from
    ``beta_batch`` and reused for every x.  ``beta_weights`` substitutes
    exact weights for the beta average (used by enumeration tests).
    Returns (l array, Ehat).  The energies are computed from psi values
    sharing one magnitude shift, so they are invariant under rescaling
    psi; rescaling b cancels between (A b)(x) and 1/b(x') inside Ehat.
    The returned Ehat carries the true scale of psi and may overflow to
    inf for states with extreme magnitudes; the energies never do.
    """
    if not a.is_hermitian:
        raise ValueError("A must be Hermitian (real coefficients)")
    if len(beta_batch) == 0:
        raise ValueError("beta batch is empty")
    xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
    bxs = np.asarray(beta_batch.indices, dtype=np.int64)

    sq_cols, sq_vals = a.square_form().rows(xs)         # rows of A^2 at x
    bcols, bvals = a.row_form().rows(bxs)                # rows of A at beta samples
    table = _AmpTable(psi, [xs, sq_cols, bcols])

    apsi_beta = (bvals * table.scaled_amps(2)).sum(axis=1)
    ratios = apsi_beta / b.amp(bxs)
    if beta_weights is None:
        e_hat = ratios.mean()
    else:
        e_hat = np.average(ratios, weights=np.asarray(beta_weights, dtype=np.float64))

    a2_psi = (sq_vals * table.scaled_amps(1)).sum(axis=1)  # (A^2 psi)(x), shifted scale
    ab = np.asarray(apply_to_state(a, b, xs))            # (A b)(x), exact
    l = (a2_psi - ab * e_hat) / table.scaled_amps(0)
    return l, complex(table.unscale(e_hat))


def local_energy_vnls(a, b, psi, x, beta_batch, beta_weights=None):
    """Solver local energy at x; see vnls_local_energies."""
    l, _ = vnls_local_energies(a, b, psi, x, beta_batch, beta_weights)
    return complex(l[0]) if np.asarray(x).ndim == 0 else l


def _normalized_weights(weights, size):
    if weights is None:
        return None
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (size,):
        raise ValueError("weights must match the batch length")
    return w / w.sum()


def estimate_objective(l, weights=None):
    """Batch objective: real part of the (weighted) mean local energy."""
    return float(np.real(np.average(np.asarray(l), weights=weights)))


def estimate_variance(l, weights=None):
    """Mean squared deviation |l - mean|^2 of the local energies."""
    l = np.asarray(l)
    m = np.average(l, weights=weights)
    return float(np.average(np.abs(l - m) ** 2, weights=weights))


def estimate_gradient(l, o, l_hat=None, weights=None):
    """Objective gradient 2 * mean[(l - Lhat) * conj(O - Obar)].

    ``o`` holds log-derivative rows from log_grad.  For real parameters the
    real part is returned; for complex parameters the complex vector whose
    real/imag parts are the derivatives with respect to the parameter's
    real/imag parts.  ``l_hat`` defaults to the batch mean, making the
    centering term an exact no-op; passing an external value is allowed.
    """
    l = np.asarray(l, dtype=np.complex128)
    o = np.asarray(o)
    if o.shape[1] == 0:  # parameterless model
        return np.zeros(0) if not np.iscomplexobj(o) else np.zeros(0, complex)
    w = _normalized_weights(weights, l.size)
    if l_hat is None:
        l_hat = np.average(l, weights=w)
    lc = l - l_hat
    oc = np.conj(o - np.average(o, axis=0, weights=w))
    if w is None:
        g = 2.0 * (oc.T @ lc) / l.size
    else:
        g = 2.0 * (oc.T @ (w * lc))
    return g if np.iscomplexobj(o) else g.real


def estimate_fisher(o, weights=None):
    """Fisher / overlap matrix estimate from log-derivative rows.

    Real parameters: covariance of the score 2*Re(O), a real PSD matrix.
    Complex parameters: the centered matrix <conj(Oc) Oc^T>, Hermitian PSD;
    sr_step works with its real part.
    """
    o = np.asarray(o)
    if o.shape[1] == 0:  # parameterless model
        return np.zeros((0, 0)) if not np.iscomplexobj(o) else np.zeros((0, 0), complex)
    w = _normalized_weights(weights, o.shape[0])
    oc = o - np.average(o, axis=0, weights=w)
    if np.iscomplexobj(o):
        left = np.conj(oc)
    else:
        oc = 2.0 * oc
        left = oc
    if w is None:
        return left.T @ oc / o.shape[0]
    return (left.T * w) @ oc


@dataclass
class SRState:
    """One natural-gradient step's inputs."""

    grad: np.ndarray
    fisher: np.ndarray
    learning_rate: float = 0.005
    shift: float = 1e-2   # scales diag(F), keeps conditioning scale-free
    ridge: float = 1e-6   # absolute floor for near-zero diagonal entries


def sr_step(theta, sr):
    """theta - lr * solve(F + shift*diag(F) + ridge*I, grad).

    F is symmetrized and its real part is used, so complex-flavor steps
    decouple into real and imaginary coordinates.  A failed or non-finite
    solve falls back to a plain gradient step; the flag in the returned
    (theta', fallback) pair reports that.
    """
    f = np.asarray(sr.fisher)
    if np.iscomplexobj(f):
        f = f.real
    f = 0.5 * (f + f.T)
    p = f.shape[0]
    m = f + sr.shift * np.diag(np.diag(f)) + sr.ridge * np.eye(p)
    fallback = False
    try:
        delta = np.linalg.solve(m, sr.grad)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError("non-finite SR solution")
    except np.linalg.LinAlgError:
        delta = sr.grad
        fallback = True
    return theta - sr.learning_rate * delta, fallback


@dataclass
class TrainConfig:
    """Knobs shared by both training loops."""

    epochs: int = 1000
    batch_size: int = 1024
    chains: int = 8
    burn_in: Optional[int] = None   # None -> sampler default 10*n*n
    thin: Optional[int] = None      # None -> sampler default n
    learning_rate: float = 0.005
    shift: float = 1e-2
    ridge: float = 1e-6
    seed: int = 0
    oracle_every: int = 0           # 0 disables exact fidelity tracking
    dense_limit: int = DENSE_LIMIT

    def validate(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("batch_size", "chains", "dense_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("learning_rate", "shift", "ridge"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("burn_in", "thin"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.thin is not None and self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.oracle_every < 0:
            raise ValueError("oracle_every must be >= 0")


@dataclass
class EpochRecord:
    """One training epoch's diagnostics."""

    epoch: int
    loss: float
    loss_var: float
    grad_norm: float
    acceptance: float
    fidelity: Optional[float]
    wall_ms: float
    loss_imag: float = 0.0
    sr_fallback: bool = False


def enumerate_born(psi, limit=DENSE_LIMIT):
    """Exact pi weights over the support of psi: (indices, probabilities)."""
    v = dense_vector(psi, limit)
    w = np.abs(v) ** 2
    support = np.flatnonzero(w)
    return support.astype(np.int64), w[support] / w[support].sum()


def enumerate_beta(b):
    """Exact beta batch over the support of b: (SampleBatch, weights)."""
    support = np.flatnonzero(b.amplitudes)
    w = np.abs(b.amplitudes[support]) ** 2
    batch = SampleBatch(indices=support.astype(np.int64), source="beta",
                        log_amps=np.log(b.amplitudes[support]))
    return batch, w / w.sum()


def _check_finite(epoch, name, value, last_loss):
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(
            f"training diverged at epoch {epoch}: {name} is not finite "
            f"(last finite loss {last_loss}); the model keeps its last finite "
            "parameters")


def _train(psi, config, energy_fn, target):
    config.validate()
    records = []
    warned = False
    last_loss = None
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        batch, chain_states = metropolis_sample(
            psi, psi.n, config.batch_size, chains=config.chains,
            burn_in=config.burn_in, thin=config.thin,
            seed=(config.seed, _PI_STREAM, epoch))
        l = energy_fn(psi, batch, epoch)
        o = psi.log_grad(batch.indices)
        l_hat = complex(np.mean(l))
        _check_finite(epoch, "mean local energy", l_hat, last_loss)
        last_loss = l_hat.real
        variance = float(np.mean(np.abs(l - l_hat) ** 2))
        g = estimate_gradient(l, o, l_hat=l_hat)
        _check_finite(epoch, "gradient", g, last_loss)
        f = estimate_fisher(o)
        theta, fallback = sr_step(psi.get_params(), SRState(
            g, f, config.learning_rate, config.shift, config.ridge))
        _check_finite(epoch, "updated parameters", theta, last_loss)
        psi.set_params(theta)

        fid = None
        if target is not None and (epoch % config.oracle_every == 0
                                   or epoch == config.epochs - 1):
            from .oracle import fidelity
            fid = fidelity(dense_vector(psi, config.dense_limit), target)
        # Im E[l] vanishes for Hermitian operators; flag it only when it
        # clearly exceeds the statistical error of the batch mean.
        noise = np.sqrt(variance / max(1, len(batch)))
        if not warned and abs(l_hat.imag) > 20.0 * noise + 1e-12:
            warnings.warn("local-energy mean has an imaginary part far above "
                          "sampling noise; check the operator for Hermiticity",
                          stacklevel=2)
            warned = True
        records.append(EpochRecord(
            epoch=epoch, loss=float(l_hat.real), loss_var=variance,
            grad_norm=float(np.linalg.norm(g)),
            acceptance=acceptance_stats(chain_states), fidelity=fid,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            loss_imag=float(l_hat.imag), sr_fallback=fallback))
    return records


def train_vqmc(h, psi, config):
    """Variational ground-state search: minimize <H> by SR updates.

    Returns the list of EpochRecords; psi is updated in place.  With
    ``oracle_every`` set, fidelity against the exact lowest eigenvector is
    recorded every that many epochs (requires n <= dense_limit).
    """
    target = None
    if config.oracle_every:
        if h.n > config.dense_limit:
            raise CapabilityError(
                f"fidelity tracking needs n <= {config.dense_limit}")
        from .oracle import ground_state
        target = ground_state(h)

    def energy(psi_, batch, epoch):
        return local_energy_h(h, psi_, batch.indices, log_amp_x=batch.log_amps)

    return _train(psi, config, energy, target)


def train_vnls(a, b, psi, config):
    """Variational linear solver: drive A psi toward the direction of b.

    Per epoch: fresh pi samples from psi, fresh beta samples from b (their
    RNG streams never overlap), one shared Ehat, one SR update.  With
    ``oracle_every`` set, fidelity against the exact solution A^{-1} b is
    recorded (requires n <= dense_limit).
    """
    if not a.is_hermitian:
        raise ValueError("A must be Hermitian (real coefficients)")
    target = None
    if config.oracle_every:
        if a.n > config.dense_limit:
            raise CapabilityError(
                f"fidelity tracking needs n <= {config.dense_limit}")
        from .oracle import exact_solve
        target = exact_solve(a, b)

    def energy(psi_, batch, epoch):
        beta = sample_beta(b, config.batch_size,
                           seed=(config.seed, _BETA_STREAM, epoch))
        l, _ = vnls_local_energies(a, b, psi_, batch.indices, beta)
        return l

    return _train(psi, config, energy, target)
