"""Born-distribution samplers.

pi(x) = |psi(x)|^2 / <psi|psi> is sampled by single-bit-flip Metropolis
chains run in lockstep on a model, or exactly by inverse CDF over a table
of log psi on the whole basis; beta(x) = |b(x)|^2 / <b|b> is sampled
exactly by inverse CDF over the nonzero support of the stored vector b.
Both inverse-CDF draws share one helper.

A chain either starts fresh, from a uniformly drawn state on the support
followed by burn-in, or is warm-started from the ChainState an earlier
call returned; a warm-started chain draws no start state and, by default,
takes no burn-in, so training pays burn-in once per run, not per epoch.

Each lockstep step proposes one flip per chain and scores all the
proposals in one log_prob call, whose fixed cost the chains share, so by
default the chains are many (default_chains: one per 8 samples, at least
32).  The sampler reads only ``n``, ``log_prob`` and
``log_amp`` of a model.  log_prob gives a state the same value whatever
else is in the call, as DenseState and Rbm do, so the samples do not
depend on how many chains share a call.

Where the basis is small against an epoch's proposals, training holds a
_BasisTable of log psi over the whole basis (see vnls.engine._tabulate),
and pi is then known exactly: _draw_pi takes its samples by inverse CDF
over the table, as beta's are, with no chains.  The draws are independent,
and as every value comes from one whole-basis call, a tabulated training
run is bit for bit the same at any chain count and burn-in.

Randomness is organized so runs are reproducible: every call draws, in a
fixed order, from one generator seeded by (entropy, *prefix), the prefix
being numpy's SeedSequence spawn key.  A Metropolis call draws the start
states unless warm-started (one per chain, then rounds of redraws for those
off the support), then every step's flip positions, then every step's
acceptance uniforms, each as one array of a row per step, in chain order.
The flips and uniforms are drawn ahead, 16 bytes per step and chain.

Exact enumeration of pi and beta (for small n) lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DENSE_LIMIT
from .states import _pow2_normalized, dense_vector


def seed_seq(seed):
    """SeedSequence for a seed: an int entropy value or a tuple (entropy,
    *prefix), whose prefix becomes the spawn key, so distinct streams never
    collide."""
    entropy, *prefix = seed if isinstance(seed, (tuple, list)) else (seed,)
    return np.random.SeedSequence(int(entropy), spawn_key=tuple(int(v) for v in prefix))


@dataclass
class ChainState:
    """End-of-run snapshot of one Metropolis chain."""

    x: int
    accepted: int
    proposed: int

    @property
    def acceptance(self):
        return self.accepted / self.proposed if self.proposed else 0.0


@dataclass
class SampleBatch:
    """Basis indices drawn from one distribution, with their cached log
    amplitudes: log psi for draws from pi, log b for draws from beta."""

    indices: np.ndarray
    log_amps: np.ndarray

    def __len__(self):
        return self.indices.size


def default_thin(n):
    """Flips between samples when none are given: n, rounded up to odd."""
    return n if n % 2 else n + 1


def default_chains(k):
    """Chains for k samples when none are given: one per 8 samples, at
    least 32 and at most one per sample (one for k = 0)."""
    return max(1, min(k, max(32, k // 8)))


class _BasisTable:
    """log psi over the whole basis, from one basis_log_amp call.

    Training builds it where the basis is small against an epoch's
    proposals (see vnls.engine._tabulate) and passes it in place of the
    model: _draw_pi samples pi from ``log_amps``, and the trainers' local
    energies take whole-basis products with them up to
    operators.DENSE_LIMIT (the route vnls.engine._train decides once per
    run).  ``log_amp`` gathers from the table, for the row
    estimators past DENSE_LIMIT, which read it as they would the model, and
    dense_vector reads ``basis_log_amp``.  It holds 16 bytes per basis
    state.
    """

    def __init__(self, psi):
        self.n = psi.n
        self.log_amps = np.asarray(psi.basis_log_amp(), dtype=np.complex128)

    def log_amp(self, x):
        out = self.log_amps[np.asarray(x, dtype=np.int64)]
        return complex(out) if out.ndim == 0 else out

    def basis_log_amp(self):
        return self.log_amps


def metropolis_sample(psi, n, k, chains=None, burn_in=None, thin=None, seed=0,
                      start=None):
    """Draw k samples of pi across ``chains`` single-bit-flip chains.

    psi must be on n qubits, else ValueError.  A proposal flips one
    uniformly chosen bit and is accepted with probability
    min(1, |psi(x')/psi(x)|^2), evaluated in the log domain, so rescaling
    psi by a constant changes nothing.  chains defaults to
    default_chains(k).  Every chain runs the same burn_in + thin *
    ceil(k / chains) lockstep steps; chain c gives its first k // chains
    samples, plus one more for the first k % chains chains, in chain order.
    ``start`` takes the ChainState list of an earlier call: chain c then
    continues from start[c].x under the current psi instead of a drawn
    state.  burn_in defaults to 10*n sweeps (10*n*n flips) for fresh
    chains and to 0 for warm-started ones.  thin defaults to about one
    sweep but is kept odd: a bit-flip walk alternates popcount parity
    whenever it moves, so an even interval would lock a rarely-rejecting
    chain onto a single parity class.  One generator on
    ``seed`` draws fresh start states (with one log_prob call per round of
    redraws off the support), then flip positions, then uniforms; each
    step then takes one log_prob call over all chains.
    Returns (SampleBatch, [ChainState per chain]).
    """
    if chains is None:
        chains = default_chains(k)
    if burn_in is None:
        burn_in = 10 * n * n if start is None else 0
    if thin is None:
        thin = default_thin(n)
    if n < 1 or k < 0 or chains < 1 or burn_in < 0 or thin < 1:
        raise ValueError("bad sampler arguments")
    if psi.n != n:
        raise ValueError(f"psi is on {psi.n} qubits but the sampler on {n}")
    rng = np.random.default_rng(seed_seq(seed))

    size = 1 << n
    if start is None:
        xs = rng.integers(0, size, chains)
    else:
        if len(start) != chains:
            raise ValueError(f"start holds {len(start)} chain states for {chains} chains")
        xs = np.array([cs.x for cs in start], dtype=np.int64)
        if np.any((xs < 0) | (xs >= size)):
            raise ValueError(f"start states must lie in [0, 2^{n})")
    lp = np.asarray(psi.log_prob(xs), dtype=np.float64)
    tries = 0
    while (dead := np.flatnonzero(lp == -np.inf)).size:
        if start is not None:
            raise ValueError("a start state has zero amplitude under psi")
        tries += 1  # a fresh start off the support is redrawn
        if tries > 100_000:
            raise ValueError("could not find a state with nonzero amplitude")
        xs[dead] = rng.integers(0, size, dead.size)
        lp[dead] = psi.log_prob(xs[dead])

    per_chain = -(-k // chains)  # ceil(k / chains): the samples every chain runs for
    steps = burn_in + thin * per_chain
    flips = np.int64(1) << rng.integers(0, n, size=(steps, chains))
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random((steps, chains)))

    recorded = np.empty((per_chain, chains), dtype=np.int64)
    accepted = np.zeros(chains, dtype=np.int64)
    for t in range(steps):
        proposal = xs ^ flips[t]
        proposal_lp = psi.log_prob(proposal)
        accept = log_u[t] < proposal_lp - lp
        np.copyto(xs, proposal, where=accept)
        np.copyto(lp, proposal_lp, where=accept)
        accepted += accept
        sample, offset = divmod(t + 1 - burn_in, thin)
        if offset == 0 and sample > 0:
            recorded[sample - 1] = xs

    # chain c gives k // chains samples, and one more if c < k % chains
    counts = k // chains + (np.arange(chains) < k % chains)
    indices = recorded.T[np.arange(per_chain) < counts[:, None]]
    batch = SampleBatch(indices, np.asarray(psi.log_amp(indices), dtype=np.complex128))
    return batch, [ChainState(x, a, steps) for x, a in zip(xs.tolist(), accepted.tolist())]


def acceptance_stats(chain_states):
    """Mean acceptance ratio over chains."""
    return float(np.mean([c.acceptance for c in chain_states])) if chain_states else 0.0


def sample_beta(b, k, seed=0):
    """k exact draws from beta(x) = |b(x)|^2 / <b|b> for a DenseState b.

    Inverse-CDF over the nonzero support, so zero entries of b can never
    appear.  Raises if b has no nonzero entry.
    """
    return _draw_beta(b, _beta_cdf(b), k, seed)


def _beta_cdf(b):
    """(support, cdf): b's nonzero indices and the running sum of |b|^2
    over them, which every draw from beta reads; built once per b, from b
    scaled by a power of two (_pow2_normalized), so at any scale of b."""
    amps = b.amplitudes
    support = np.flatnonzero(amps)
    if support.size == 0:
        raise ValueError("b has no nonzero entries")
    scaled, _ = _pow2_normalized(amps[support])
    return support, np.cumsum(np.abs(scaled) ** 2)


def _draw_beta(b, support_cdf, k, seed):
    """sample_beta with b's support and CDF from _beta_cdf(b)."""
    support, cdf = support_cdf
    indices = support[_inverse_cdf(cdf, k, seed)].astype(np.int64)
    return SampleBatch(indices=indices, log_amps=np.log(b.amplitudes[indices]))


def _draw_pi(table, k, seed):
    """k exact, independent draws from pi over a _BasisTable.

    Inverse CDF over the running sum of exp(2 (Re log psi - max)), so the
    largest weight is 1 and none overflows; a state whose weight is zero,
    or underflows to zero, is never drawn.  log_amps are gathered from the
    table.
    """
    la = table.log_amps.real
    cdf = np.cumsum(np.exp(2.0 * (la - la.max())))
    indices = _inverse_cdf(cdf, k, seed).astype(np.int64)
    return SampleBatch(indices=indices, log_amps=table.log_amps[indices])


def _inverse_cdf(cdf, k, seed):
    """Positions of k draws from the weights whose running sum is ``cdf``,
    on one generator for ``seed``.  A uniform u in [0, cdf[-1]) lands at
    the first position whose running sum exceeds it, so a position whose
    weight is zero is never drawn."""
    u = np.random.default_rng(seed_seq(seed)).random(k) * cdf[-1]
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def enumerate_born(psi, limit=DENSE_LIMIT):
    """Exact pi weights over the support of psi: (indices, probabilities)."""
    v = dense_vector(psi, limit)
    w = np.abs(v) ** 2
    support = np.flatnonzero(w)
    return support.astype(np.int64), w[support] / w[support].sum()


def enumerate_beta(b):
    """Exact beta batch over the support of b: (SampleBatch, weights)."""
    support = np.flatnonzero(b.amplitudes)
    w = np.abs(_pow2_normalized(b.amplitudes[support])[0]) ** 2
    batch = SampleBatch(indices=support.astype(np.int64),
                        log_amps=np.log(b.amplitudes[support]))
    return batch, w / w.sum()
