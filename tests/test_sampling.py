"""Sampler statistics, determinism, and invariances."""

import numpy as np
import pytest
import scipy.stats

from vnls import (
    ChainState,
    DenseState,
    SampleBatch,
    acceptance_stats,
    dense_vector,
    enumerate_born,
    init_gaussian,
    metropolis_sample,
    random_pauli_problem,
    sample_beta,
)
from vnls.sampling import _BasisTable, _draw_pi, default_chains, default_thin, seed_seq


def frequencies(indices, dim):
    return np.bincount(indices, minlength=dim) / indices.size


def test_uniform_state_frequencies_within_4_sigma():
    psi = DenseState(np.ones(16))
    batch, states = metropolis_sample(psi, 4, 4096, chains=8, seed=1)
    assert len(batch) == 4096
    p = 1.0 / 16.0
    sigma = np.sqrt(p * (1 - p) / 4096)
    freq = frequencies(batch.indices, 16)
    assert np.all(np.abs(freq - p) < 4 * sigma)
    assert acceptance_stats(states) == 1.0  # uniform target accepts everything


def test_born_weights_9_to_1():
    psi = DenseState([3.0, 1.0])
    batch, _ = metropolis_sample(psi, 1, 40000, chains=8, seed=2)
    p = 0.9
    sigma = np.sqrt(p * (1 - p) / len(batch))
    assert abs((batch.indices == 0).mean() - p) < 4 * sigma


@pytest.mark.parametrize("case", range(3))
def test_total_variation_small_n(rng, case):
    n = int(rng.integers(2, 5))
    dim = 1 << n
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = DenseState(v)
    target = np.abs(v) ** 2 / (np.abs(v) ** 2).sum()
    batch, _ = metropolis_sample(psi, n, 100_000, chains=8, seed=50 + case)
    tv = 0.5 * np.abs(frequencies(batch.indices, dim) - target).sum()
    assert tv < 0.02


def test_rescaling_psi_changes_no_decision():
    psi = DenseState(np.arange(1.0, 33.0))
    a, _ = metropolis_sample(psi, 5, 4000, chains=8, seed=3)
    b, _ = metropolis_sample(psi.scaled(1000.0), 5, 4000, chains=8, seed=3)
    assert np.array_equal(a.indices, b.indices)


def test_zero_amplitudes_never_sampled_and_starts_redraw():
    amps = np.zeros(16)
    amps[[3, 7, 11]] = [1.0, 2.0, 1.0]
    psi = DenseState(amps)
    batch, _ = metropolis_sample(psi, 4, 2000, chains=4, seed=4)
    assert set(np.unique(batch.indices)) <= {3, 7, 11}


def test_start_redraws_stop_after_100_000_rounds():
    class Nowhere:  # zero amplitude on every state
        n = 3

        def log_prob(self, x):
            return np.full(np.shape(x), -np.inf)

    with pytest.raises(ValueError, match="could not find a state with nonzero"):
        metropolis_sample(Nowhere(), 3, 8, chains=4, seed=0)


def test_same_seed_same_batch():
    psi = init_gaussian(5, seed=7)
    a, sa = metropolis_sample(psi, 5, 512, chains=8, seed=11)
    b, sb = metropolis_sample(psi, 5, 512, chains=8, seed=11)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.log_amps, b.log_amps)
    assert [s.x for s in sa] == [s.x for s in sb]
    c, _ = metropolis_sample(psi, 5, 512, chains=8, seed=12)
    assert not np.array_equal(a.indices, c.indices)


def test_seed_tuples_give_distinct_streams():
    psi = init_gaussian(4, seed=0)
    a, _ = metropolis_sample(psi, 4, 256, chains=4, seed=(5, 0, 0))
    b, _ = metropolis_sample(psi, 4, 256, chains=4, seed=(5, 0, 1))
    c, _ = metropolis_sample(psi, 4, 256, chains=4, seed=(5, 1, 0))
    assert not np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)
    # tuple layouts map onto SeedSequence spawn keys
    assert seed_seq((5, 1, 0, 2)).spawn_key == (1, 0, 2)


def test_remainder_spread_and_chain_order():
    psi = DenseState(np.arange(1.0, 9.0))
    # ceil(10 / 4) = ceil(12 / 4): both calls run the same steps on the same draws
    full, full_states = metropolis_sample(psi, 3, 12, chains=4, seed=0)
    batch, states = metropolis_sample(psi, 3, 10, chains=4, seed=0)
    assert states == full_states
    assert [s.proposed for s in states] == [10 * 9 + 3 * 3] * 4
    # the first k % chains chains give one sample more, merged in chain order
    by_chain = full.indices.reshape(4, 3)
    want = np.concatenate([by_chain[0], by_chain[1], by_chain[2, :2], by_chain[3, :2]])
    assert np.array_equal(batch.indices, want)


def test_chain_state_fields():
    psi = DenseState([1.0, 5.0])
    _, states = metropolis_sample(psi, 1, 64, chains=2, burn_in=10, thin=3, seed=1)
    for s in states:
        assert s.proposed == 10 + 3 * 32
        assert 0 <= s.accepted <= s.proposed
    assert 0.0 <= acceptance_stats(states) <= 1.0


def test_default_thin_is_odd():
    # even thin would freeze the popcount parity of an always-accepting walk
    psi = DenseState(np.ones(16))
    batch, _ = metropolis_sample(psi, 4, 50_000, chains=8, seed=9)
    parity = np.bitwise_count(batch.indices) & 1
    assert abs(parity.mean() - 0.5) < 0.02


def test_bad_arguments_rejected():
    psi = DenseState(np.ones(4))
    with pytest.raises(ValueError):
        metropolis_sample(psi, 2, -1)
    with pytest.raises(ValueError):
        metropolis_sample(psi, 2, 16, chains=0)
    with pytest.raises(ValueError):
        metropolis_sample(psi, 2, 16, thin=0)


def test_model_on_another_qubit_count_rejected():
    # an n = 8 model sampled as n = 10 returned indices past its 256 states
    for n in (10, 3):
        with pytest.raises(ValueError, match="psi is on 8 qubits but the sampler on"):
            metropolis_sample(init_gaussian(8), n, 64, chains=4, seed=1)


def test_sample_beta_exact_ratios():
    b = DenseState([1.0, 2.0])
    batch = sample_beta(b, 50_000, seed=6)
    assert np.array_equal(batch.log_amps, np.log(b.amplitudes[batch.indices]))
    p = 4.0 / 5.0
    sigma = np.sqrt(p * (1 - p) / len(batch))
    assert abs((batch.indices == 1).mean() - p) < 4 * sigma


def test_sample_beta_support_only():
    b = DenseState([0.0, 1.0, 0.0, 2.0])
    batch = sample_beta(b, 20_000, seed=7)
    assert set(np.unique(batch.indices)) <= {1, 3}
    single = sample_beta(DenseState([0.0, 0.0, 4.0, 0.0]), 100, seed=8)
    assert np.all(single.indices == 2)
    assert np.allclose(single.log_amps, np.log(4.0))


def test_sample_beta_rejects_empty_support():
    class Hollow:
        amplitudes = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError):
        sample_beta(Hollow(), 10, seed=0)
    with pytest.raises(ValueError):
        DenseState(np.zeros(4))  # unreachable through the public type


def test_sample_beta_deterministic():
    b = DenseState([1.0, 2.0, 0.0, 0.5])
    x = sample_beta(b, 100, seed=5)
    y = sample_beta(b, 100, seed=5)
    assert np.array_equal(x.indices, y.indices)
    # scaling b by a power of two flips no inverse-CDF comparison
    z = sample_beta(b.scaled(8.0), 100, seed=5)
    assert np.array_equal(x.indices, z.indices)


def test_sample_beta_draws_are_pinned():
    # the inverse-CDF helper that pi's exact draws share gives beta these
    # indices, as the beta sampler gave before the helper existed
    b = DenseState(np.array([0.5, 0, -1.2, 0.3j, 0, 2.0, 0.1, 0, 1.0, -0.7,
                             0, 0, 0.4, 0, 0.9, 0.05]))
    assert sample_beta(b, 16, seed=(7, 1, 3)).indices.tolist() == [
        5, 5, 5, 5, 2, 5, 9, 2, 8, 14, 5, 9, 8, 8, 14, 14]
    b = random_pauli_problem(6, terms=4, seed=2).b
    assert sample_beta(b, 12, seed=5).indices.tolist() == [
        40, 47, 20, 9, 2, 19, 20, 2, 2, 61, 29, 9]


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_table_draws_match_born_weights(flavor):
    psi = init_gaussian(6, sigma=0.15, seed=8, flavor=flavor)
    batch = _draw_pi(_BasisTable(psi), 100_000, seed=(4, 0, 0))
    support, weights = enumerate_born(psi)
    assert support.tolist() == list(range(64))
    expected = weights * len(batch)
    assert expected.min() > 5  # every cell large enough for chi-squared
    observed = np.bincount(batch.indices, minlength=64)
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert scipy.stats.chi2.sf(chi2, df=63) > 1e-3
    assert np.array_equal(batch.log_amps, psi.log_amp(batch.indices))


def test_table_draws_skip_zero_weights():
    # 15, the last basis state, is where _inverse_cdf's clamp would land
    table = _BasisTable(init_gaussian(4, sigma=0.3, seed=1))
    table.log_amps[[1, 5, 6, 12, 15]] = -np.inf
    batch = _draw_pi(table, 20_000, seed=3)
    assert set(np.unique(batch.indices)) == set(range(15)) - {1, 5, 6, 12}
    # only the seed sets the draws: one generator on (entropy, *prefix)
    assert np.array_equal(batch.indices, _draw_pi(table, 20_000, seed=3).indices)
    assert not np.array_equal(batch.indices, _draw_pi(table, 20_000, seed=4).indices)


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_basis_table_reads_the_whole_basis_entry_point(flavor):
    psi = init_gaussian(9, sigma=0.3, seed=2, flavor=flavor)
    whole = psi.basis_log_amp()
    want = dense_vector(psi)

    def refuse(x):
        raise AssertionError("read past the whole-basis entry point")

    psi.log_amp = psi.log_prob = refuse
    table = _BasisTable(psi)
    assert np.array_equal(table.log_amps, whole)
    assert np.array_equal(dense_vector(psi), want)
    assert np.array_equal(dense_vector(table), want)


def test_warm_start_proposes_only_thin_times_count():
    psi = DenseState(np.arange(1.0, 9.0))
    _, fresh = metropolis_sample(psi, 3, 10, chains=4, thin=3, seed=1)
    batch, warm = metropolis_sample(psi, 3, 10, chains=4, thin=3, seed=2,
                                    start=fresh)
    assert len(batch) == 10
    # every chain runs thin * ceil(k / chains) steps
    assert [s.proposed for s in warm] == [3 * 3] * 4
    # an explicit burn-in still applies to warm-started chains
    _, burned = metropolis_sample(psi, 3, 10, chains=4, burn_in=7, thin=3,
                                  seed=2, start=fresh)
    assert [s.proposed for s in burned] == [7 + 3 * 3] * 4


class CountingModel:
    """A model that records the size of every log_prob call."""

    def __init__(self, psi):
        self.psi, self.n, self.calls = psi, psi.n, []

    def log_prob(self, x):
        self.calls.append(np.size(x))
        return self.psi.log_prob(x)

    def log_amp(self, x):
        return self.psi.log_amp(x)


def test_every_step_is_one_log_prob_call_over_all_chains():
    psi = init_gaussian(6, seed=3)
    _, fresh = metropolis_sample(psi, 6, 255, seed=0)
    model = CountingModel(psi)
    batch, warm = metropolis_sample(model, 6, 255, seed=1, start=fresh)
    assert len(batch) == 255 and len(warm) == 32
    # ceil(255 / 32) = 8 samples' steps, each over the 32 chains, after the start call
    assert model.calls == [32] * (1 + default_thin(6) * 8)


def chained_warm_starts_total_variation(rng, chains):
    """TV distance to pi of 20 warm-started calls of 5000 samples each."""
    n = int(rng.integers(2, 5))
    dim = 1 << n
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = DenseState(v)
    target = np.abs(v) ** 2 / (np.abs(v) ** 2).sum()
    _, states = metropolis_sample(psi, n, 0, chains=chains, seed=(70, 0))
    draws = []
    for call in range(20):
        batch, states = metropolis_sample(psi, n, 5_000, chains=chains,
                                          seed=(70, 1, call), start=states)
        draws.append(batch.indices)
    indices = np.concatenate(draws)
    assert indices.size == 100_000
    return 0.5 * np.abs(frequencies(indices, dim) - target).sum()


def test_chained_warm_starts_total_variation(rng):
    assert chained_warm_starts_total_variation(rng, 8) < 0.02


def test_chained_warm_starts_total_variation_128_chains(rng):
    # 39 samples per chain and call
    assert chained_warm_starts_total_variation(rng, 128) < 0.02


def test_bad_start_rejected():
    amps = np.ones(8)
    amps[5] = 0.0
    psi = DenseState(amps)
    _, states = metropolis_sample(psi, 3, 16, chains=4, seed=0)
    with pytest.raises(ValueError, match="chain states"):
        metropolis_sample(psi, 3, 16, chains=4, seed=1, start=states[:3])
    dead = states[:3] + [ChainState(5, 0, 0)]
    with pytest.raises(ValueError, match="zero amplitude"):
        metropolis_sample(psi, 3, 16, chains=4, seed=1, start=dead)
    outside = states[:3] + [ChainState(8, 0, 0)]
    with pytest.raises(ValueError, match="lie in"):
        metropolis_sample(psi, 3, 16, chains=4, seed=1, start=outside)


def reference_metropolis(psi, n, k, chains=None, burn_in=None, thin=None, seed=0,
                         start=None):
    """One proposal per lockstep step over every chain, every chain running
    the steps of ceil(k / chains) samples, and chain c keeping its first
    k // chains samples plus one for c < k % chains: the sampler's loop
    written plainly, with the sampler's draws from one generator, kept as
    the reference."""
    if chains is None:
        chains = max(1, min(k, max(32, k // 8)))
    if burn_in is None:
        burn_in = 10 * n * n if start is None else 0
    if thin is None:
        thin = n if n % 2 else n + 1
    if n < 1 or k < 0 or chains < 1 or burn_in < 0 or thin < 1:
        raise ValueError("bad sampler arguments")
    per_chain = (k + chains - 1) // chains
    counts = [k // chains + (1 if c < k % chains else 0) for c in range(chains)]
    rng = np.random.default_rng(seed_seq(seed))

    size = 1 << n
    if start is None:
        # one round of draws per redraw, for the chains still off the support
        xs = rng.integers(0, size, chains)
        tries = 0
        while np.any(off := np.asarray(psi.log_prob(xs)) == -np.inf):
            xs[off] = rng.integers(0, size, np.count_nonzero(off))
            tries += 1
            if tries > 100_000:
                raise ValueError("could not find a state with nonzero amplitude")
    else:
        if len(start) != chains:
            raise ValueError(f"start holds {len(start)} chain states for {chains} chains")
        xs = np.array([cs.x for cs in start], dtype=np.int64)
        if np.any((xs < 0) | (xs >= size)):
            raise ValueError(f"start states must lie in [0, 2^{n})")
    lp = np.asarray(psi.log_prob(xs), dtype=np.float64)
    if np.any(lp == -np.inf):
        raise ValueError("a start state has zero amplitude under psi")

    steps = burn_in + thin * per_chain
    positions = rng.integers(0, n, size=(steps, chains))
    uniforms = rng.random((steps, chains))
    accepted = np.zeros(chains, dtype=np.int64)
    recorded = np.empty((chains, per_chain), dtype=np.int64)

    with np.errstate(divide="ignore"):
        log_uniforms = np.log(uniforms)
    for step in range(steps):
        proposals = xs ^ (np.int64(1) << positions[step])
        prop_lp = np.asarray(psi.log_prob(proposals), dtype=np.float64)
        accept = log_uniforms[step] < prop_lp - lp
        xs = np.where(accept, proposals, xs)
        lp = np.where(accept, prop_lp, lp)
        accepted += accept
        offset = step - burn_in
        if offset >= 0 and offset % thin == thin - 1:
            recorded[:, offset // thin] = xs

    indices = np.concatenate(
        [recorded[c, :counts[c]] for c in range(chains)]) if k else np.zeros(0, np.int64)
    log_amps = (np.asarray(psi.log_amp(indices), dtype=np.complex128)
                if k else np.zeros(0, np.complex128))
    batch = SampleBatch(indices=indices, log_amps=log_amps)
    states = [ChainState(int(xs[c]), int(accepted[c]), steps) for c in range(chains)]
    return batch, states


def _zeros_state():
    amps = np.ones(16)
    amps[[1, 5, 6, 12]] = 0.0
    return DenseState(amps)


def _rbm(flavor, sigma):
    return init_gaussian(6, sigma=sigma, seed=3, flavor=flavor)


# (psi, n); acceptance near 1, near 0.5 and near 0 for both RBM flavors
MODELS = {
    "ones": lambda: (DenseState(np.ones(16)), 4),
    "zeros": lambda: (_zeros_state(), 4),
    "real-0.01": lambda: (_rbm("real", 0.01), 6),
    "real-0.2": lambda: (_rbm("real", 0.2), 6),
    "real-1": lambda: (_rbm("real", 1.0), 6),
    "complex-0.01": lambda: (_rbm("complex", 0.01), 6),
    "complex-0.12": lambda: (_rbm("complex", 0.12), 6),
    "complex-1": lambda: (_rbm("complex", 1.0), 6),
    # the same RBMs stored as whole-basis vectors
    "table-real-0.01": lambda: (DenseState(dense_vector(_rbm("real", 0.01))), 6),
    "table-real-1": lambda: (DenseState(dense_vector(_rbm("real", 1.0))), 6),
    "table-complex-0.12": lambda: (DenseState(dense_vector(_rbm("complex", 0.12))), 6),
    "table-complex-1": lambda: (DenseState(dense_vector(_rbm("complex", 1.0))), 6),
}

# an RBM gives each state the same value in any batch, so every chain
# count reproduces one-proposal Metropolis on the model itself
ARGS = [
    dict(k=1024, chains=8),
    dict(k=1003, chains=8),
    dict(k=0, chains=8),
    dict(k=200, chains=4, thin=1),
    dict(k=96, chains=8, burn_in=37),
    dict(k=37, chains=1),
    dict(k=50, chains=3, burn_in=5, thin=2),
    dict(k=512, chains=32),
    dict(k=512, chains=64),
    dict(k=1024, chains=128),
    dict(k=5, chains=8),
    dict(k=255),
]


def assert_same_run(got, want):
    (batch, states), (ref_batch, ref_states) = got, want
    assert np.array_equal(batch.indices, ref_batch.indices)
    assert np.array_equal(batch.log_amps, ref_batch.log_amps)
    assert states == ref_states


# the sampler is reference_metropolis bit for bit at every chain count; the
# name is kept so that the test ids stay stable
@pytest.mark.parametrize("args", ARGS, ids=lambda a: "-".join(f"{k}{v}" for k, v in a.items()))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_windows_reproduce_one_proposal_per_step(model, args):
    psi, n = MODELS[model]()
    fresh = metropolis_sample(psi, n, seed=(21, 0), **args)
    assert_same_run(fresh, reference_metropolis(psi, n, seed=(21, 0), **args))
    start = fresh[1]
    for call, burn_in in enumerate((None, 9), start=1):
        warm_args = dict(args, burn_in=burn_in) if burn_in else args
        warm = metropolis_sample(psi, n, seed=(21, call), start=start, **warm_args)
        assert_same_run(warm, reference_metropolis(psi, n, seed=(21, call),
                                                   start=start, **warm_args))
        start = warm[1]


@pytest.mark.parametrize("k, chains", [(0, 1), (16, 16), (64, 32), (256, 32), (1024, 128)])
def test_default_chains_one_per_8_samples_from_32_to_one_per_sample(k, chains):
    assert default_chains(k) == chains
    psi = DenseState(np.ones(16))
    _, states = metropolis_sample(psi, 4, k, burn_in=0, seed=1)
    assert len(states) == chains
