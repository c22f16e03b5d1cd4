"""Local-energy estimators and stochastic-reconfiguration training loops.

Two objectives share one machinery.  Ground-state search minimizes the
Rayleigh quotient <psi|H|psi>/<psi|psi> of a Hermitian H.  The linear
solver minimizes the nonnegative quotient

    L(psi) = <psi| A Pb A |psi> / <psi|psi>,   Pb = I - b b^H / <b|b>,

which vanishes exactly when A psi is proportional to b, i.e. when psi is
proportional to A^{-1} b.  Both are Monte Carlo averages of a local energy
l(x), estimated on samples of pi(x) = |psi(x)|^2 / <psi|psi>.

A training epoch takes its statistics once per distinct sampled state.
After the draw, one np.unique gives the U distinct states of the N-sample
batch and their counts.  Local energies are computed at the U states and
expanded back to the N samples, so the loss and its variance are the
plain batch mean and variance, as if each sample were computed apart (a
state's energy has the same bits in any batch).  log_grad, the centring,
the gradient and the Fisher matrix run over the U rows with weights
w = count / N; the Fisher is one SYRK product of the rows scaled by
sqrt(w), with its smallest value factored out, so that the rows of states
drawn once are not scaled at all.  The SYRK fills only the upper triangle,
and the SR step's one DPOSV (Cholesky factor and solve) reads only that.
The estimates are those of the full batch, summed in another order.

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

When the basis is small against the proposals an epoch would make
(2^n <= c * batch_size * thin, with c = 6 for either RBM flavor; see
_tabulate), training evaluates log psi over the whole basis once per
parameter set, by basis_log_amp, draws the epoch's pi samples from that
table, and hands it to the energy functions and the fidelity check in
place of the model.  The draw is exact, by inverse CDF over the table (see
sampling), with no chains: a tabulated run has no burn-in, keeps no chain
states, and records an acceptance of 1.0, as an independence sampler
whose proposal is pi accepts every draw; chains and burn_in act only on
the model path.  The rule reads only n, the batch, thin and psi's kind, so
a run reads a table at every epoch or at none.  The row estimators read
the table as they would the model, and give the same bits, as the RBM
gives every state the same value in any batch; the ground-state trainer
takes its energies from local_energy_h on every source.  Only the solver
has a second route: where it reads a table and n <= DENSE_LIMIT, the cap
of to_sparse, its first epoch builds A's CSR matrix and A b, and its
energies come from whole-basis products with them (_table_vnls_energies):
psi divided by its largest magnitude over the basis, then A psi and A^2
psi = A (A psi), gathered at the pi samples, with Ehat still the mean over
the beta samples.  These sum in another order, so they differ from the
row estimators' in the last bits.  A run's dense_limit bounds only the
oracle and fidelity tracking.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from . import oracle
from .errors import CapabilityError
# expand_rows is not called here; it stays a module attribute only because
# perfbench's traced replay wraps engine.expand_rows, until ROADMAP item 14
# retires that replay
from .operators import (DENSE_LIMIT, _check_qubits, _log_row_sums,  # noqa: F401
                        _rescale, apply_to_state, expand_rows, to_sparse)
from .sampling import (SampleBatch, _BasisTable, _beta_cdf, _draw_beta,
                       _draw_pi, acceptance_stats, default_thin,
                       metropolis_sample)
from .states import DenseState, _is_number, dense_vector

_PI_STREAM = 0
_BETA_STREAM = 1


# Whole-basis table entries worth one Metropolis step on the model:
# training tabulates where 2^n <= c * batch_size * thin.  Median warm epochs
# of vqmc on the critical transverse-field chain (batch 1024, 8 chains, one
# BLAS thread, 2 shared cores), exact draws from the table against the
# model, at r = 2^n / (batch_size * thin):
#   real     r = 3.8: 30-31 / 61-65 ms, r = 7.5: 57-59 / 75 ms,
#            r = 13.5: 87-96 / 65-86 ms (two runs);
#   complex  r = 3.8: 94-140 / 141-202 ms, r = 6.0: 83-112 / 94-100 ms,
#            r = 7.5: 190-230 / 181-198 ms (three runs).
# At those 8 chains the crossovers lay near r = 6 (complex) and r = 10
# (real).  At the default chain count (128 at batch 1024) the model is
# faster, table / model: real r = 3.8: 20 / 21 ms, r = 7.5: 35-39 / 24 ms;
# complex r = 3.8: 86 / 56 ms, r = 7.5: 166-172 / 66-71 ms, while its first
# epoch pays the burn-in (136-192 ms real, 460-600 ms complex).  So c is
# likely too large now; it is to be judged on a workload past n = 16.
_TABLE_COST = 6


def _tabulate(psi, config):
    """The amplitude source for psi's current parameters: its whole-basis
    _BasisTable where 2^n <= _TABLE_COST * batch_size * thin (thin as
    given, else the sampler's default), else psi itself, as it is for a
    DenseState.  The table holds 16 * 2^n bytes, at most 96 * batch_size *
    thin."""
    thin = default_thin(psi.n) if config.thin is None else config.thin
    if isinstance(psi, DenseState) or (1 << psi.n) > _TABLE_COST * config.batch_size * thin:
        return psi
    return _BasisTable(psi)


# Divided by the largest magnitude it is read with, psi turns subnormal about
# 708 e-folds below it; rows further below than this are summed on their own
# scale instead.
_FAR = 650.0


class _AmpTable:
    """psi evaluations at every index an epoch touches.

    Built from a list of index arrays; ``log_amps(k)`` and
    ``scaled_amps(k)`` return the values at the k-th array's indices, in
    its shape.  ``scaled_amps`` is psi divided by its largest touched
    magnitude, exp(``shift``), so downstream ratios never overflow.  psi is
    evaluated once per distinct index, all deduplicated by one np.unique,
    except a _BasisTable, where each read is one gather and every index is
    read as given.
    A DenseState is read linearly, which keeps exact zeros (their log is
    -inf and they contribute nothing to any row sum); every other model
    goes through ``log_amp`` with the shift applied in the exponent.
    Training reads a _BasisTable here for the ground-state energies at
    any n, and for the solver's only past DENSE_LIMIT (see train_vnls).
    """

    def __init__(self, psi, index_arrays):
        arrays = [np.asarray(a, dtype=np.int64) for a in index_arrays]
        self._linear = isinstance(psi, DenseState)
        indices = np.concatenate([a.reshape(-1) for a in arrays])
        if isinstance(psi, _BasisTable):
            inverse = np.arange(indices.size)
        else:
            indices, inverse = np.unique(indices, return_inverse=True)
        cuts = np.cumsum([a.size for a in arrays])[:-1]
        self._slots = [s.reshape(a.shape)
                       for s, a in zip(np.split(inverse, cuts), arrays)]
        if self._linear:
            self._values = psi.amplitudes[indices]
            top = float(np.abs(self._values).max()) if indices.size else 0.0
            self._unscale = top if top > 0.0 else 1.0
            self.shift = math.log(self._unscale)
        else:
            self._values = np.asarray(psi.log_amp(indices),
                                      dtype=np.complex128).reshape(-1)
            self.shift = float(self._values.real.max()) if indices.size else 0.0
            with np.errstate(over="ignore"):
                self._unscale = float(np.exp(self.shift))

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
        return np.exp(self._values - self.shift)

    def log_amps(self, k):
        return self._log[self._slots[k]]

    def scaled_amps(self, k):
        return self._scaled[self._slots[k]]

    def unscale(self, value):
        # restore a complex scalar linear in scaled psi to the true scale;
        # may overflow to inf for states with extreme log magnitudes
        return complex(_rescale(value, self._unscale))


def local_energy_h(h, psi, x, log_amp_x=None):
    """Local energy l(x) = (H psi)(x) / psi(x) in the log domain.

    Each grouped row entry of H contributes value * exp(log_amp(col) -
    log_amp(x)), so any constant rescaling of psi drops out exactly.
    ``log_amp_x`` may pass cached values of log psi at x.  A row whose sum
    overflows is summed again by _log_row_sums: where the true value
    exceeds float64 its real part is +-inf, and a real model on a real
    operator keeps an imaginary part of exactly zero.  psi must be on h's
    qubits, else ValueError.
    """
    _check_qubits(h, psi=psi)
    xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
    cols, vals = h.row_form().rows(xs)
    if log_amp_x is None:
        table = _AmpTable(psi, [cols, xs])
        la_x = table.log_amps(1)
    else:
        table = _AmpTable(psi, [cols])
        la_x = np.atleast_1d(np.asarray(log_amp_x, dtype=np.complex128))
    log_ratios = table.log_amps(0) - la_x[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        out = (vals * np.exp(log_ratios)).sum(axis=1)
    bad = ~np.isfinite(out)
    if bad.any():
        out[bad] = _log_row_sums(vals[bad], log_ratios[bad])
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
    inf for states with extreme magnitudes.  A row whose psi(x) lies more
    than _FAR e-folds below the shared shift, or that comes out
    non-finite, is summed again by _log_row_sums on its own scale, so it
    keeps its precision, and only a true value beyond float64 is infinite.
    A must be Hermitian and psi and b on its qubits, else ValueError.
    """
    if not a.is_hermitian:
        raise ValueError("A must be Hermitian (real coefficients)")
    _check_qubits(a, psi=psi, b=b)
    if len(beta_batch) == 0:
        raise ValueError("beta batch is empty")
    xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
    bxs = np.asarray(beta_batch.indices, dtype=np.int64)

    sq_cols, sq_vals = a.square_form().rows(xs)         # rows of A^2 at x
    bcols, bvals = a.row_form().rows(bxs)                # rows of A at beta samples
    table = _AmpTable(psi, [xs, sq_cols, bcols])

    b_x = b.amp(bxs)
    weights = None if beta_weights is None else np.asarray(beta_weights, dtype=np.float64)

    def mean_ratio(amps):  # E_beta[(A psi)(x') / b(x')] from psi at bcols
        return np.average((bvals * amps).sum(axis=1) / b_x, weights=weights)

    e_hat = mean_ratio(table.scaled_amps(2))
    a2_psi = (sq_vals * table.scaled_amps(1)).sum(axis=1)  # (A^2 psi)(x), shifted scale
    ab = np.asarray(apply_to_state(a, b, xs))            # (A b)(x), exact
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        l = (a2_psi - ab * e_hat) / table.scaled_amps(0)
    la_x = table.log_amps(0)
    bad = ~np.isfinite(l) | (la_x.real < table.shift - _FAR)
    if bad.any():
        # the A^2 row and -(A b)(x) Ehat over psi(x), with Ehat = e_beta *
        # e^top taken on the beta rows' own scale, which the shared shift
        # may have underflowed
        la_beta = table.log_amps(2)
        top = la_beta.real.max()
        e_beta = mean_ratio(np.exp(la_beta - top)) if top > -np.inf else 0.0
        la_x = la_x[bad, None]
        log_ratios = np.concatenate(
            [table.log_amps(1)[bad], np.full_like(la_x, top)], axis=1) - la_x
        vals = np.concatenate([sq_vals[bad], -(ab[bad] * e_beta)[:, None]], axis=1)
        l[bad] = _log_row_sums(vals, log_ratios)
    return l, table.unscale(e_hat)


def _table_vnls_energies(matrix, ab, b, table, x, beta_batch):
    """vnls_local_energies' energies at x from a _BasisTable by whole-basis
    products: A psi, A^2 psi = A (A psi) and ``ab`` = A b, with ``matrix``
    = to_sparse(a).

    psi holds the table's amplitudes over the whole basis divided by the
    largest of them, so nothing overflows.  Each x is a state drawn from
    the table, whose weight exp(2 (log|psi(x)| - top)) is positive, so it
    lies less than 372.6 e-folds below the top and psi[x] is a normal
    number.
    """
    la = table.log_amps
    psi = np.exp(la - la.real.max())
    apsi = matrix @ psi
    bx = beta_batch.indices
    e_hat = (apsi[bx] / b.amp(bx)).mean()
    return (matrix @ apsi - ab * e_hat)[x] / psi[x]


def _normalized_weights(weights, size):
    """``weights`` divided by their sum, or uniform weights 1/size for None.

    Raise ValueError for an empty batch, and unless the weights have one
    entry per sample and are finite, nonnegative and not all zero: the
    weighted Fisher scales its rows by sqrt(w), and weights summing to zero
    leave no estimate to normalize.
    """
    if size == 0:
        raise ValueError("the batch is empty")
    if weights is None:
        return np.full(size, 1.0 / size)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (size,):
        raise ValueError("weights must match the batch length")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum()
    if total == 0.0:
        raise ValueError("weights must not all be zero")
    return w / total


def estimate_objective(l, weights=None):
    """Batch objective: real part of the (weighted) mean local energy.

    ``weights`` follow the rules of estimate_gradient."""
    l = np.asarray(l)
    if weights is not None:
        weights = _normalized_weights(weights, l.size)
    return float(np.real(np.average(l, weights=weights)))


def estimate_variance(l, weights=None):
    """Mean squared deviation |l - mean|^2 of the local energies.

    ``weights`` follow the rules of estimate_gradient."""
    l = np.asarray(l)
    if weights is not None:
        weights = _normalized_weights(weights, l.size)
    m = np.average(l, weights=weights)
    return float(np.average(np.abs(l - m) ** 2, weights=weights))


def _gradient(lc, oc, w):
    """2 * sum_k w_k lc_k conj(oc_k) from centred local energies and rows,
    with normalized weights w.

    Real rows give only the real part, from one real matrix-vector product
    with w * Re(lc); complex rows give the complex vector.
    """
    if np.iscomplexobj(oc):
        g = np.conj(np.conj(w * lc) @ oc)  # makes no conjugated copy of oc
    else:
        g = oc.T @ (w * lc.real)
    g *= 2.0
    return g


def _fisher(oc, w):
    """Upper triangle of the real Fisher matrix, in Fortran order, from
    centred rows and normalized weights w (see estimate_fisher); overwrites
    oc with its scaled rows S.

    sum_k w_k conj(oc_k) oc_k^T = u S^H S, with u the smallest positive
    weight and S the rows scaled by sqrt(w / u), so rows of weight u (in
    training, the states a batch drew once) stay as they are.  One BLAS
    DSYRK forms alpha S^T S with alpha = 4 u, the real score's factor 4 =
    2^2, for real rows, and Re(u S^H S) = u R^T R with R = [Re S; Im S]
    stacked for complex rows.  The strict lower triangle holds zeros.
    """
    if not oc.shape[1]:  # no parameters, no BLAS call
        return np.zeros((0, 0))
    unit = w[w > 0.0].min()
    ratio = w / unit
    scaled = ratio != 1.0
    oc[scaled] *= np.sqrt(ratio[scaled])[:, None]
    if np.iscomplexobj(oc):
        return scipy.linalg.blas.dsyrk(unit, np.concatenate([oc.real, oc.imag]).T)
    return scipy.linalg.blas.dsyrk(4.0 * unit, oc.T)


def _centred(o, w):
    """o minus its mean row under normalized weights w, in place."""
    o -= w @ o
    return o


def _own_rows(o):
    """A float or complex copy of log-derivative rows, for _centred."""
    o = np.asarray(o)
    return o.astype(np.result_type(o, np.float64))


def estimate_gradient(l, o, l_hat=None, weights=None):
    """Objective gradient 2 * mean[(l - Lhat) * conj(O - Obar)].

    ``o`` holds log-derivative rows from log_grad.  For real parameters the
    real part is returned, computed in real arithmetic as
    2 Oc^T (w * Re(l - Lhat)); for complex parameters the complex vector
    whose real/imag parts are the derivatives with respect to the
    parameter's real/imag parts.  ``l_hat`` defaults to the batch mean,
    making the centering term an exact no-op; passing an external value is
    allowed.  ``weights`` (one per sample, finite, nonnegative and not all
    zero, else ValueError) make every mean a weighted one; None weighs the
    samples alike.
    """
    l = np.asarray(l, dtype=np.complex128)
    w = _normalized_weights(weights, l.size)
    if l_hat is None:
        l_hat = np.average(l, weights=w)
    return _gradient(l - l_hat, _centred(_own_rows(o), w), w)


def estimate_fisher(o, weights=None):
    """Fisher / overlap matrix estimate from log-derivative rows.

    Real parameters: covariance of the score 2*Re(O), a real PSD matrix,
    computed as 4 u S^T S with one symmetric rank-N product, where S holds
    the centred rows scaled by sqrt(w / u), w the normalized weights and u
    the smallest positive one.
    Complex parameters: the centered matrix <conj(Oc) Oc^T>, Hermitian PSD:
    its real part u R^T R from one real product of R = [Re S; Im S], and
    its imaginary part u (Re S^T Im S - Im S^T Re S).  sr_step works with
    the real part.  The SYRK fills the upper triangle of the real part,
    which is mirrored here into the full matrix.  ``weights`` follow the
    rules of estimate_gradient.
    """
    o = _own_rows(o)
    w = _normalized_weights(weights, o.shape[0])
    f = _fisher(_centred(o, w), w)  # o now holds the scaled rows S
    f = f + np.triu(f, 1).T
    if np.iscomplexobj(o):
        cross = o.real.T @ o.imag
        f = f + 1j * ((cross - cross.T) * w[w > 0.0].min())
    return f


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
    """(Re F + Re F^T) / 2, as a new float64 array in Fortran order."""
    f = np.asarray(f)
    if np.iscomplexobj(f):
        f = f.real
    m = np.add(f, f.T, dtype=np.float64, order="F")
    m *= 0.5
    return m


def _sr_solve(theta, m, grad, learning_rate, shift, ridge):
    """sr_step on the upper triangle of a real Fisher matrix m in Fortran
    order, as _fisher returns it; its strict lower triangle is not read.
    The system matrix is formed on m's diagonal and one LAPACK DPOSV
    overwrites m's upper triangle with its Cholesky factor."""
    diagonal = np.diag_indices_from(m)
    m[diagonal] += shift * m[diagonal] + ridge
    grad = np.asarray(grad)
    delta, fallback = grad, False
    if grad.size:
        complex_grad = np.iscomplexobj(grad)
        rhs = np.stack([grad.real, grad.imag], axis=1) if complex_grad else grad
        _, x, info = scipy.linalg.lapack.dposv(m, rhs, overwrite_a=True)
        fallback = info != 0 or not np.all(np.isfinite(x))
        if not fallback:
            delta = x[:, 0] + 1j * x[:, 1] if complex_grad else x
    return theta - learning_rate * delta, fallback


@dataclass
class TrainConfig:
    """Knobs shared by both training loops.

    validate() holds every rule on these fields: epochs, seed and
    oracle_every are integers >= 0; batch_size and dense_limit are integers
    >= 1; chains and thin are None or integers >= 1; burn_in is None or an
    integer >= 0; learning_rate, shift and ridge are finite and positive.
    bool is not taken for a number.
    """

    epochs: int = 1000
    batch_size: int = 1024
    chains: Optional[int] = None    # None -> sampling.default_chains(batch_size);
                                    # chains and burn_in act only past the table
                                    # rule (see _tabulate)
    burn_in: Optional[int] = None   # flips before a chain's first sample, applied
                                    # once per run (epoch 0); None -> 10*n*n
    thin: Optional[int] = None      # None -> n rounded up to an odd number
    learning_rate: float = 0.005
    shift: float = 1e-2
    ridge: float = 1e-6
    seed: int = 0
    oracle_every: int = 0           # 0 disables exact fidelity tracking
    dense_limit: int = DENSE_LIMIT  # bounds the oracle and fidelity tracking only

    def validate(self):
        """Raise ValueError unless every field meets the class's rules."""
        for name, low in (("epochs", 0), ("batch_size", 1), ("chains", 1),
                          ("burn_in", 0), ("thin", 1), ("seed", 0),
                          ("oracle_every", 0), ("dense_limit", 1)):
            v = getattr(self, name)
            if v is None and name in ("chains", "burn_in", "thin"):
                continue
            if not _is_number(v, numbers.Integral) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        for name in ("learning_rate", "shift", "ridge"):
            v = getattr(self, name)
            if not (_is_number(v, numbers.Real) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")


@dataclass
class SRState:
    """One natural-gradient step's inputs; the defaults are TrainConfig's."""

    grad: np.ndarray
    fisher: np.ndarray
    learning_rate: float = TrainConfig.learning_rate
    shift: float = TrainConfig.shift   # scales diag(F), keeps conditioning scale-free
    ridge: float = TrainConfig.ridge   # absolute floor for near-zero diagonal entries


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
    distinct_states: int = 0   # distinct states in the pi batch; not in the CSV


def _check_finite(epoch, name, value, last_loss):
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(
            f"training diverged at epoch {epoch}: {name} is not finite "
            f"(last finite loss {last_loss}); the model keeps its last finite "
            "parameters")


def _train(op, psi, config, energy_fn, exact_target, **states):
    """The SR loop of both trainers, on the energies energy_fn(source,
    batch, epoch) at the batch's distinct states, where source is the
    epoch's amplitude source (see _tabulate): psi, or its whole-basis
    _BasisTable; psi is updated in place.  With oracle_every set,
    fidelity is tracked against exact_target(limit) for the run's
    dense_limit, which is read here only; a run of zero epochs checks the
    size but computes no target.  The first epoch whose pi batch
    holds one state, where the SR step is exactly zero, warns once."""
    if not op.is_hermitian:
        raise ValueError("the operator must be Hermitian (real coefficients)")
    _check_qubits(op, psi=psi, **states)
    config.validate()
    limit = config.dense_limit
    target = None
    if config.oracle_every:
        if op.n > limit:
            raise CapabilityError(f"fidelity tracking needs n <= {limit}")
        if config.epochs:  # a run with no epoch never reads the target
            target = exact_target(limit)
    records = []
    last_loss = None
    chain_states = None  # model-path chains persist across epochs: burn-in runs once
    source = None  # amplitude source for the current parameters, when built
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        if source is None:
            source = _tabulate(psi, config)
        seed = (config.seed, _PI_STREAM, epoch)
        if isinstance(source, _BasisTable):
            batch, acceptance = _draw_pi(source, config.batch_size, seed), 1.0
        else:
            batch, chain_states = metropolis_sample(
                source, psi.n, config.batch_size, chains=config.chains,
                burn_in=config.burn_in if chain_states is None else None,
                thin=config.thin, seed=seed, start=chain_states)
            acceptance = acceptance_stats(chain_states)
        # statistics are taken once per distinct state, weighted by its count
        indices, first, inverse, counts = np.unique(
            batch.indices, return_index=True, return_inverse=True,
            return_counts=True)
        l = energy_fn(source, SampleBatch(indices, batch.log_amps[first]), epoch)
        l_all = l[inverse]  # the batch's N energies, for its mean and variance
        l_hat = complex(np.mean(l_all))
        _check_finite(epoch, "mean local energy", l_hat, last_loss)
        last_loss = l_hat.real
        if indices.size == 1 and all(r.distinct_states > 1 for r in records):
            warnings.warn(f"epoch {epoch}: every pi sample is state {indices[0]} (loss "
                          f"{l_hat.real:.6g}), so the SR step is zero and psi moves only"
                          " if a later epoch draws another state", RuntimeWarning,
                          stacklevel=3)
        variance = estimate_variance(l_all)
        w = counts / len(batch)
        oc = _centred(psi.log_grad(indices), w)  # the rows are ours
        g = _gradient(l - l_hat, oc, w)
        _check_finite(epoch, "gradient", g, last_loss)
        f = _fisher(oc, w)
        del oc  # the next epoch's rows are not built beside this epoch's
        theta, fallback = _sr_solve(psi.get_params(), f, g,
                                    config.learning_rate, config.shift,
                                    config.ridge)
        del f
        _check_finite(epoch, "updated parameters", theta, last_loss)
        psi.set_params(theta)
        source = None

        fid = None
        if target is not None and (epoch % config.oracle_every == 0
                                   or epoch == config.epochs - 1):
            source = _tabulate(psi, config)  # the next epoch reads it too
            fid = oracle.fidelity(dense_vector(source, limit), target)
        records.append(EpochRecord(
            epoch=epoch, loss=float(l_hat.real), loss_var=variance,
            grad_norm=float(np.linalg.norm(g)),
            acceptance=acceptance, fidelity=fid,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            loss_imag=float(l_hat.imag), sr_fallback=fallback,
            distinct_states=int(indices.size)))
    return records


def train_vqmc(h, psi, config):
    """Variational ground-state search: minimize <H> by SR updates.

    H must be Hermitian (real coefficients) and psi on its qubits, else
    ValueError.  Returns the list of EpochRecords; psi is updated in place.
    The energies are local_energy_h's, by rows, whether the epoch reads psi
    or its whole-basis table.  With ``oracle_every`` set, fidelity against
    the exact lowest eigenvector is recorded every that many epochs
    (requires n <= dense_limit).
    """
    def energy(source, batch, epoch):
        return local_energy_h(h, source, batch.indices, log_amp_x=batch.log_amps)

    return _train(h, psi, config, energy,
                  lambda limit: oracle.ground_state(h, limit))


def train_vnls(a, b, psi, config):
    """Variational linear solver: drive A psi toward the direction of b.

    Per epoch: fresh pi samples from psi, fresh beta samples from b (their
    RNG streams never overlap), one shared Ehat, one SR update.  An epoch
    that reads psi's whole-basis table at n <= DENSE_LIMIT takes its
    energies from whole-basis products with A's CSR matrix, built with A b
    at the first such epoch; every other epoch from vnls_local_energies.
    With ``oracle_every`` set, fidelity against the exact solution A^{-1} b
    is recorded (requires n <= dense_limit).  A must be Hermitian and psi
    and b on its qubits, else ValueError.
    """
    whole = None  # (to_sparse(a), A b), from the first whole-basis epoch
    beta_cdf = _beta_cdf(b)  # b never changes: its CDF is built once per run

    def energy(source, batch, epoch):
        nonlocal whole
        beta = _draw_beta(b, beta_cdf, config.batch_size,
                          seed=(config.seed, _BETA_STREAM, epoch))
        if not isinstance(source, _BasisTable) or a.n > DENSE_LIMIT:
            l, _ = vnls_local_energies(a, b, source, batch.indices, beta)
            return l
        if whole is None:
            matrix = to_sparse(a)
            whole = matrix, matrix @ b.amplitudes
        return _table_vnls_energies(*whole, b, source, batch.indices, beta)

    return _train(a, psi, config, energy,
                  lambda limit: oracle.exact_solve(a, b, limit), b=b)
