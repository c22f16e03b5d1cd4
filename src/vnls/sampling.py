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

The lockstep steps are scored in windows (pre-fetching, Brockwell, J.
Comput. Graph. Stat. 15:246, 2006), of two kinds.  A path window takes
every chain's next K proposals along the path on which all of them are
accepted and scores them in one log_prob call; the chains then advance to
the first step at which any chain rejected, and the rest of the window is
dropped.  K is floor(1 / (1 - p)), clamped to [1, 32], where p is the
running share of steps at which every chain accepted, seeded from the
acceptance of the start chains.  Where that K is 1, a tree window scores
instead every state a chain could reach over its next D steps, under any
pattern of accepts and rejects: 2^D - 1 proposals per chain in one call, one
vectorised comparison for all of them, and a table lookup that walks each
chain to the state its accepts lead to.  Each tree's XOR masks and node
uniforms are laid out ahead, for a block of steps at a time, so a tree
window costs one XOR, one log_prob call, one comparison and the lookup; its
accept flags are decoded once, after the last window.  A tree advances D
steps per call whatever the acceptance.  D is the deepest depth up to 4
with chains * (2^D - 1) <= 128 states (4 at the default 8 chains, 1 from 43
chains on); a complex-flavor RBM keeps D = 1, since its complex exp and
product per hidden angle make the extra states cost more than the calls
they save.  At D = 1, and for the last steps of a call when fewer than D
remain, a K of 1 takes a path window of one proposal per chain.  Windows
change which states share a log_prob call, nothing else: the proposals,
uniforms and comparisons are those of one proposal per step, so the
samples, acceptances and chain states are exactly those of
one-proposal-at-a-time Metropolis, as log_prob gives a state the same
value whatever else is in the call.
DenseState and Rbm both do, at any chain count.

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

Exact enumeration of pi and beta (for small n) lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import DENSE_LIMIT
from .states import dense_vector

_MAX_WINDOW = 32  # most proposals a path window scores per chain
_TREE_STATES = 128  # most states a tree window scores over all chains
_MAX_DEPTH = 4
# Steps per block of tree offsets and node uniforms made ahead of the tree
# windows: at most 16 * _TREE_STATES + 8 * chains bytes a step, and chains
# <= 42 wherever trees are deeper than one step, so a block stays under 1 MB
_TREE_BLOCK = 256

# Node i >= 1 of a proposal tree is the proposal of step depth(i) (the
# index of its top bit) from the state reached by accept pattern
# parent(i) = i - 2^depth(i) over the steps before it; bit j of a pattern
# is the accept flag of step j.
_NODES = np.arange(1, 1 << _MAX_DEPTH)
_DEPTH = np.array([int(i).bit_length() - 1 for i in _NODES])
_PARENT = _NODES - (1 << _DEPTH)
_NODE_BIT = (1 << (_NODES - 1)).astype(np.uint16)  # node i is bit i - 1 of a code


def _walk_table():
    """Accept pattern reached from every node-accept code of a tree.

    The walk accepts step j when the node it stands on at depth j accepted.
    A code of a shallower tree has no bits past its nodes, so the table of
    the deepest tree serves them all.
    """
    codes = np.arange(1 << _NODES.size)
    pattern = np.zeros_like(codes)
    for j in range(_MAX_DEPTH):
        pattern |= ((codes >> (pattern + (1 << j) - 1)) & 1) << j
    return pattern.astype(np.uint8)


_WALK = _walk_table()


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


class _BasisTable:
    """log psi over the whole basis, from one basis_log_amp call.

    Training builds it where the basis is small against an epoch's
    proposals (see vnls.engine._tabulate) and passes it in place of the
    model: _draw_pi samples pi from ``log_amps``, and the trainers' local
    energies take whole-basis products with them up to
    operators.DENSE_LIMIT.  ``log_amp`` gathers from the table, for the row
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


def metropolis_sample(psi, n, k, chains=8, burn_in=None, thin=None, seed=0,
                      start=None):
    """Draw k samples of pi across ``chains`` single-bit-flip chains.

    psi must be on n qubits, else ValueError.  A proposal flips one
    uniformly chosen bit and is accepted with probability
    min(1, |psi(x')/psi(x)|^2), evaluated in the log domain, so rescaling
    psi by a constant changes nothing.  ``start`` takes the ChainState list
    of an earlier call: chain c then continues from start[c].x under the
    current psi instead of a drawn state.  burn_in defaults to 10*n sweeps
    (10*n*n flips) for fresh chains and to 0 for warm-started ones.  thin
    defaults to about one sweep but is kept odd: a bit-flip walk alternates
    popcount parity whenever it moves, so an even interval would lock a
    rarely-rejecting chain onto a single parity class.  One generator on
    ``seed`` draws fresh start states (with one log_prob call per round of
    redraws off the support), then flip positions, then uniforms.  Proposals
    are scored in path windows along the all-accept path, or in proposal
    trees of depth up to 4 where the chains rarely all accept; the samples,
    acceptances and chain states are those of one-proposal-at-a-time
    Metropolis.  Returns (SampleBatch, [ChainState per chain]).
    """
    if burn_in is None:
        burn_in = 10 * n * n if start is None else 0
    if thin is None:
        thin = default_thin(n)
    if n < 1 or k < 0 or chains < 1 or burn_in < 0 or thin < 1:
        raise ValueError("bad sampler arguments")
    if psi.n != n:
        raise ValueError(f"psi is on {psi.n} qubits but the sampler on {n}")
    counts = [k // chains] * chains
    counts[-1] += k % chains
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

    chain_steps = np.array([burn_in + thin * ct for ct in counts], dtype=np.int64)
    steps = int(chain_steps.max())
    flips = np.int64(1) << rng.integers(0, n, size=(steps, chains))
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random((steps, chains)))
    # the all-accept share is seeded from the acceptance of the start chains
    share = math.prod(cs.acceptance for cs in start) if start is not None else 0.0
    indices, xs, accepted = _run_windows(
        psi, xs, lp, flips, log_u, chain_steps, burn_in, thin, counts, share)

    log_amps = np.asarray(psi.log_amp(indices), dtype=np.complex128)
    batch = SampleBatch(indices=indices, log_amps=log_amps)
    states = map(ChainState, xs.tolist(), accepted.tolist(), chain_steps.tolist())
    return batch, list(states)


@np.errstate(invalid="ignore")  # -inf - -inf past a zero of psi
def _run_windows(psi, xs, lp, flips, log_u, chain_steps, burn_in, thin, counts,
                 hits):
    """All chains in lockstep, their steps scored in path or tree windows.

    ``xs`` and ``lp`` hold the start states and their log pi; ``flips`` and
    ``log_u`` the flip masks and log acceptance uniforms, one row per step
    and one column per chain; ``hits`` the prior share of steps at which
    every chain accepted.  Returns the recorded states in chain order, and
    each chain's final state and its accepted steps.
    """
    steps, chains = flips.shape
    # A step past a chain's end flips no bit: its proposal is the chain's
    # own state, which is accepted and moves nothing.
    flips[np.arange(steps)[:, None] >= chain_steps] = 0
    x0 = xs
    accepts = np.empty((steps, chains), dtype=bool)
    path = np.empty((_MAX_WINDOW + 1, chains), dtype=np.int64)
    path_lp = np.empty((_MAX_WINDOW + 1, chains))
    # The deepest tree whose non-root states fit in one call of _TREE_STATES.
    # A complex-flavor RBM pays a complex exp and product on every hidden
    # angle, so its extra tree states cost more than the calls they save.
    depth = 1 if getattr(psi, "flavor", None) == "complex" else min(
        _MAX_DEPTH, max(1, (_TREE_STATES // chains + 1).bit_length() - 1))
    nodes = (1 << depth) - 1
    tree = np.empty((nodes + 1, chains), dtype=np.int64)
    tree_lp = np.empty((nodes + 1, chains))
    tree_flat, tree_lp_flat = tree.reshape(-1), tree_lp.reshape(-1)
    node_states, node_lp, node_lp_flat = tree_flat[chains:], tree_lp[1:], tree_lp_flat[chains:]
    diff = np.empty((nodes, chains))
    node_parent, node_bit = _PARENT[:nodes], _NODE_BIT[:nodes]
    walk = _WALK[:1 << nodes] * np.intp(chains)  # + chain: flat index a walk ends at
    cols = np.arange(chains)
    block_t, block_size = 0, 0
    tree_steps, tree_patterns = [], []
    # Running share of steps at which every chain accepted, as hits / seen.
    seen = 1.0
    t = 0
    while t < steps:
        # width = clamp(floor(1 / (1 - p)), 1, _MAX_WINDOW) for p = hits / seen
        miss = seen - hits
        width = min(steps - t, int(seen / miss) if miss * _MAX_WINDOW > seen
                    else _MAX_WINDOW)
        if width == 1 and depth > 1 and steps - t >= depth:
            # Score every state the next `depth` steps can propose in one
            # call.  Row p of tree is the state after those steps under
            # accept pattern p; for p >= 1 it is also node p's proposal.
            i = t - block_t
            if i >= block_size:
                block_t, i = t, 0
                offsets, node_log_u = _tree_block(flips, log_u, t, depth)
                block_size = offsets.shape[1]
            np.bitwise_xor(offsets[:, i], xs, out=tree)
            tree_lp[0] = lp
            node_lp_flat[:] = psi.log_prob(node_states)
            np.subtract(node_lp, tree_lp[node_parent], out=diff)
            code = node_bit @ (node_log_u[:, i] < diff)
            flat = walk[code] + cols
            xs, lp = tree_flat[flat], tree_lp_flat[flat]
            pattern = _WALK[code]
            tree_steps.append(t)
            tree_patterns.append(pattern)
            hits += int(np.bitwise_and.reduce(pattern)).bit_count()
            seen += depth
            t += depth
            continue
        # Score the next `width` proposals along the all-accept path in one
        # call; row j + 1 of path is the state after steps t..t+j.
        path[0], path_lp[0] = xs, lp
        np.bitwise_xor.accumulate(flips[t:t + width], axis=0, out=path[1:width + 1])
        path[1:width + 1] ^= xs
        path_lp[1:width + 1] = np.reshape(
            psi.log_prob(path[1:width + 1].ravel()), (width, chains))
        acc = log_u[t:t + width] < path_lp[1:width + 1] - path_lp[:width]
        every = acc.all(axis=1)
        # The path holds up to and including the first step at which some
        # chain rejected; the rest of the window is discarded.
        r = int(every.argmin())
        if every[r]:
            r = width - 1
        accepts[t:t + r + 1] = acc[:r + 1]
        xs = np.where(acc[r], path[r + 1], path[r])
        lp = np.where(acc[r], path_lp[r + 1], path_lp[r])
        hits += r + bool(every[r])
        seen += r + 1
        t += r + 1

    if tree_steps:  # bit j of a tree's accept pattern is its step j's accept flags
        rows, patterns = np.array(tree_steps), np.array(tree_patterns)
        for j in range(depth):
            accepts[rows + j] = (patterns >> j) & 1
    moves = np.where(accepts, flips, 0)
    visited = x0 ^ np.bitwise_xor.accumulate(moves, axis=0)  # state after each step
    recorded = visited[burn_in + thin - 1::thin]
    indices = np.concatenate([recorded[:count, c] for c, count in enumerate(counts)])
    return indices, xs, np.count_nonzero(moves, axis=0)


def _tree_block(flips, log_u, t, depth):
    """What the tree windows starting at steps t, t+1, ... read, for up to
    _TREE_BLOCK steps, node-major: (offsets, node_log_u).

    offsets[:, i] is the tree of step t + i as XOR masks of the start state,
    row 0 (no flip) included; node_log_u[p - 1, i] is node p's log uniform,
    that of step t + i + depth(p).
    """
    steps, chains = flips.shape
    size = min(_TREE_BLOCK, steps - depth + 1 - t)
    nodes = (1 << depth) - 1
    offsets = np.zeros((nodes + 1, size, chains), dtype=np.int64)
    for j in range(depth):
        np.bitwise_xor(offsets[:1 << j], flips[t + j:t + j + size],
                       out=offsets[1 << j:2 << j])
    node_log_u = np.empty((nodes, size, chains))
    for row, step in zip(node_log_u, _DEPTH[:nodes] + t):
        row[:] = log_u[step:step + size]
    return offsets, node_log_u


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
    over them, which every draw from beta reads; built once per b."""
    amps = b.amplitudes
    support = np.flatnonzero(amps)
    if support.size == 0:
        raise ValueError("b has no nonzero entries")
    return support, np.cumsum(np.abs(amps[support]) ** 2)


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
    w = np.abs(b.amplitudes[support]) ** 2
    batch = SampleBatch(indices=support.astype(np.int64),
                        log_amps=np.log(b.amplitudes[support]))
    return batch, w / w.sum()
