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
each distinct column of a row costs one amplitude read.  All of a model's
per-epoch amplitude work is funneled through one table of psi values per
estimate.
Stored vectors are read linearly, which keeps their exact zeros; every
other model is read as log psi with one shared magnitude shift, which
cancels in every ratio the estimators form, so nothing here can overflow
on its own.

When the basis is no larger than the proposals an epoch makes (n <=
dense_limit and 2^n <= batch_size * thin), training evaluates log psi over
the whole basis once per parameter set, in one log_amp call, and hands that
table to the sampler, the energy functions and the fidelity check in place
of the model.  The chains walk the table one by one (see sampling), and
the energies come from whole-basis products with the operator's CSR
matrix (oracle.to_sparse, laid out from the same compiled rows and built
once per training run): psi divided by its largest magnitude over the
basis, then A psi and A^2 psi = A (A psi) for the solver, or H psi,
gathered at the pi samples, with Ehat still the mean over the beta
samples.  A state's value then no longer depends on which other states
share a model call, so such runs are bit for bit the same at any chain
count.  Their samples and acceptances are those of the model path; the
energies sum in another order, so losses differ from a model-path run in
the last bits.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from . import oracle
from .errors import CapabilityError
# expand_rows is not called here; it stays a module attribute only because
# perfbench's traced replay wraps engine.expand_rows, until ROADMAP item 1
# retires that replay
from .operators import DENSE_LIMIT, apply_to_state, expand_rows  # noqa: F401
from .sampling import (_BasisTable, acceptance_stats, default_thin,
                       metropolis_sample, sample_beta)
from .states import DenseState, dense_vector

_PI_STREAM = 0
_BETA_STREAM = 1


def _tabulate(psi, config):
    """The amplitude source for psi's current parameters: its whole-basis
    table when the basis is no larger than an epoch's proposals, else psi."""
    thin = default_thin(psi.n) if config.thin is None else config.thin
    if (isinstance(psi, DenseState) or psi.n > config.dense_limit
            or (1 << psi.n) > config.batch_size * thin):
        return psi
    return _BasisTable(psi)


class _AmpTable:
    """psi evaluations at every index an epoch touches.

    Built from a list of index arrays; ``log_amps(k)`` and
    ``scaled_amps(k)`` return the values at the k-th array's indices, in
    its shape.  ``scaled_amps`` is psi divided by its largest touched
    magnitude, so downstream ratios never overflow.  psi is evaluated once
    per distinct index, all deduplicated by one np.unique.  A DenseState is
    read linearly, which keeps exact zeros (their log is -inf and they
    contribute nothing to any row sum); every other model goes through
    ``log_amp`` with the shift applied in the exponent.  Training reads a
    _BasisTable by whole-basis products instead (see _table_energies).
    """

    def __init__(self, psi, index_arrays):
        arrays = [np.asarray(a, dtype=np.int64) for a in index_arrays]
        self._linear = isinstance(psi, DenseState)
        indices, inverse = np.unique(
            np.concatenate([a.reshape(-1) for a in arrays]), return_inverse=True)
        cuts = np.cumsum([a.size for a in arrays])[:-1]
        self._slots = [s.reshape(a.shape)
                       for s, a in zip(np.split(inverse, cuts), arrays)]
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
        # restore a complex scalar linear in scaled psi to the true scale;
        # may overflow to inf for states with extreme log magnitudes.  The
        # parts are scaled apart so that an exact zero part stays zero
        # rather than becoming 0 * inf = nan.
        value = complex(value)
        re, im = (p * self._unscale if p else p for p in (value.real, value.imag))
        return complex(re, im)


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
    return l, table.unscale(e_hat)


# Divided by the basis maximum, psi turns subnormal about 708 e-folds below
# it; rows further below than this take the row path, whose scale is local.
_FAR = 650.0


def _table_energies(table, x, numerator, row_path):
    """Local energies numerator(psi)[x] / psi[x] from a _BasisTable.

    psi holds the table's amplitudes over the whole basis divided by the
    largest of them, so nothing overflows; ``numerator`` maps it to a
    whole-basis vector.  Rows of x where psi would lose precision (see
    _FAR) take ``row_path`` on their indices instead.
    """
    la = table.log_amps
    top = la.real.max()
    psi = np.exp(la - top)
    near = la.real[x] >= top - _FAR
    l = np.empty(x.size, dtype=np.complex128)
    l[near] = numerator(psi)[x[near]] / psi[x[near]]
    if not near.all():
        l[~near] = row_path(x[~near])
    return l


def _table_energy_h(h, matrix, table, x):
    """local_energy_h at x from one whole-basis product H psi, with
    ``matrix`` = to_sparse(h)."""
    return _table_energies(table, x, lambda psi: matrix @ psi,
                           lambda xs: local_energy_h(h, table, xs))


def _table_vnls_energies(a, matrix, ab, b, table, x, beta_batch):
    """vnls_local_energies' energies at x from whole-basis products: A psi,
    A^2 psi = A (A psi) and ``ab`` = A b, with ``matrix`` = to_sparse(a)."""
    bx = beta_batch.indices

    def numerator(psi):
        apsi = matrix @ psi
        e_hat = (apsi[bx] / b.amp(bx)).mean()
        return matrix @ apsi - ab * e_hat

    return _table_energies(
        table, x, numerator,
        lambda xs: vnls_local_energies(a, b, table, xs, beta_batch)[0])


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


def _gradient(lc, oc, w=None):
    """2 * mean[lc * conj(oc)] from centred local energies and rows.

    Real rows give only the real part, from one real matrix-vector product
    with Re(lc); complex rows give the complex vector.  ``w`` holds
    normalized weights, or None for the plain mean.
    """
    if np.iscomplexobj(oc):
        v = lc if w is None else w * lc
        g = np.conj(np.conj(v) @ oc)  # makes no conjugated copy of oc
    else:
        v = lc.real if w is None else w * lc.real
        g = oc.T @ v
    g *= 2.0 / lc.size if w is None else 2.0
    return g


def _fisher(oc, w=None):
    """Fisher matrix from centred rows (see estimate_fisher).

    The real product oc.T @ oc goes to BLAS SYRK; the real score's factor
    4 = 2^2 and the 1/N of the mean are applied to the p x p result.
    """
    if np.iscomplexobj(oc):
        left, scale = np.conj(oc).T, 1.0
    else:
        left, scale = oc.T, 4.0
    if w is None:
        f = left @ oc
        f *= scale / oc.shape[0]
    else:
        f = (left * w) @ oc
        f *= scale
    return f


def _centred(o, w=None):
    """The rows minus their (weighted) mean, as a new array."""
    o = np.asarray(o)
    return o - (o.mean(axis=0) if w is None else w @ o)  # w sums to one


def estimate_gradient(l, o, l_hat=None, weights=None):
    """Objective gradient 2 * mean[(l - Lhat) * conj(O - Obar)].

    ``o`` holds log-derivative rows from log_grad.  For real parameters the
    real part is returned, computed in real arithmetic as
    (2/N) * Oc^T Re(l - Lhat); for complex parameters the complex vector
    whose real/imag parts are the derivatives with respect to the
    parameter's real/imag parts.  ``l_hat`` defaults to the batch mean,
    making the centering term an exact no-op; passing an external value is
    allowed.
    """
    l = np.asarray(l, dtype=np.complex128)
    w = _normalized_weights(weights, l.size)
    if l_hat is None:
        l_hat = np.average(l, weights=w)
    return _gradient(l - l_hat, _centred(o, w), w)


def estimate_fisher(o, weights=None):
    """Fisher / overlap matrix estimate from log-derivative rows.

    Real parameters: covariance of the score 2*Re(O), a real PSD matrix,
    computed as (4/N) * Oc^T Oc with one symmetric rank-N product.
    Complex parameters: the centered matrix <conj(Oc) Oc^T>, Hermitian PSD;
    sr_step works with its real part.
    """
    o = np.asarray(o)
    w = _normalized_weights(weights, o.shape[0])
    return _fisher(_centred(o, w), w)


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
    decouple into real and imaginary coordinates: the real and imaginary
    parts of the gradient are solved as two real right-hand sides.  The
    system matrix is built in one p x p buffer and solved by Cholesky, as
    it is positive definite for any Fisher estimate.  A failed
    factorization (a matrix that is not positive definite) or a non-finite
    solution falls back to a plain gradient step; the flag in the returned
    (theta', fallback) pair reports that.
    """
    return _sr_solve(theta, _symmetrized(sr.fisher), sr.grad, sr.learning_rate,
                     sr.shift, sr.ridge)


def _symmetrized(f):
    """(Re F + Re F^T) / 2, as a new float64 array."""
    f = np.asarray(f)
    if np.iscomplexobj(f):
        f = f.real
    m = np.add(f, f.T, dtype=np.float64)
    m *= 0.5
    return m


def _sr_solve(theta, m, grad, learning_rate, shift, ridge):
    """sr_step on a real, exactly symmetric Fisher matrix m, which it
    overwrites with the system matrix and its Cholesky factor."""
    m.flat[::m.shape[0] + 1] += shift * m.diagonal() + ridge
    grad = np.asarray(grad)
    complex_grad = np.iscomplexobj(grad)
    rhs = np.stack([grad.real, grad.imag], axis=1) if complex_grad else grad
    fallback = False
    try:
        # m is symmetric, so m.T is m in the column-major order LAPACK
        # factorizes in place, without a copy
        delta = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(m.T, overwrite_a=True, check_finite=False),
            rhs, check_finite=False)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError("non-finite SR solution")
        if complex_grad:
            delta = delta[:, 0] + 1j * delta[:, 1]
    except np.linalg.LinAlgError:
        delta = grad
        fallback = True
    return theta - learning_rate * delta, fallback


@dataclass
class TrainConfig:
    """Knobs shared by both training loops."""

    epochs: int = 1000
    batch_size: int = 1024
    chains: int = 8
    burn_in: Optional[int] = None   # flips before a chain's first sample, applied
                                    # once per run (epoch 0); None -> 10*n*n
    thin: Optional[int] = None      # None -> n rounded up to an odd number
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
    chain_states = None  # the chains persist across epochs: burn-in runs once
    source = None  # amplitude source for the current parameters, when built
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        if source is None:
            source = _tabulate(psi, config)
        batch, chain_states = metropolis_sample(
            source, psi.n, config.batch_size, chains=config.chains,
            burn_in=config.burn_in if chain_states is None else None,
            thin=config.thin, seed=(config.seed, _PI_STREAM, epoch),
            start=chain_states)
        l = energy_fn(source, batch, epoch)
        l_hat = complex(np.mean(l))
        _check_finite(epoch, "mean local energy", l_hat, last_loss)
        last_loss = l_hat.real
        lc = l - l_hat
        variance = float(np.mean(np.abs(lc) ** 2))
        oc = psi.log_grad(batch.indices)
        oc -= oc.mean(axis=0)  # centred once, in place: the rows are ours
        g = _gradient(lc, oc)
        _check_finite(epoch, "gradient", g, last_loss)
        f = _fisher(oc)
        # a real Fisher comes from one SYRK product and is exactly symmetric;
        # the real part of a complex product need not be
        theta, fallback = _sr_solve(
            psi.get_params(), _symmetrized(f) if np.iscomplexobj(f) else f, g,
            config.learning_rate, config.shift, config.ridge)
        _check_finite(epoch, "updated parameters", theta, last_loss)
        psi.set_params(theta)
        source = None

        fid = None
        if target is not None and (epoch % config.oracle_every == 0
                                   or epoch == config.epochs - 1):
            source = _tabulate(psi, config)  # the next epoch reads it too
            fid = oracle.fidelity(dense_vector(source, config.dense_limit), target)
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
        target = oracle.ground_state(h, config.dense_limit)

    matrix = None  # H over the whole basis, built when the first table arrives

    def energy(source, batch, epoch):
        nonlocal matrix
        if not isinstance(source, _BasisTable):
            return local_energy_h(h, source, batch.indices, log_amp_x=batch.log_amps)
        if matrix is None:
            matrix = oracle.to_sparse(h, config.dense_limit)
        return _table_energy_h(h, matrix, source, batch.indices)

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
        target = oracle.exact_solve(a, b, config.dense_limit)

    matrix = ab = None  # A and A b over the whole basis, built with the first table

    def energy(source, batch, epoch):
        nonlocal matrix, ab
        beta = sample_beta(b, config.batch_size,
                           seed=(config.seed, _BETA_STREAM, epoch))
        if not isinstance(source, _BasisTable):
            l, _ = vnls_local_energies(a, b, source, batch.indices, beta)
            return l
        if matrix is None:
            matrix = oracle.to_sparse(a, config.dense_limit)
            ab = matrix @ b.amplitudes
        return _table_vnls_energies(a, matrix, ab, b, source, batch.indices, beta)

    return _train(psi, config, energy, target)
