"""Sampler statistics, determinism, and invariances."""

import numpy as np
import pytest

from vnls import (
    ChainState,
    DenseState,
    acceptance_stats,
    init_gaussian,
    metropolis_sample,
    sample_beta,
)
from vnls.sampling import seed_seq


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
    assert seed_seq((5, 1, 0), 2).spawn_key == (1, 0, 2)


def test_remainder_spread_and_chain_order():
    psi = DenseState(np.ones(8))
    batch, states = metropolis_sample(psi, 3, 10, chains=4, seed=0)
    assert len(batch) == 10
    # merge is by chain index: first chains contribute floor(k/chains) each
    assert len(states) == 4
    counts = [s.proposed for s in states]
    assert counts[0] == counts[1] == counts[2]
    assert counts[3] > counts[0]  # remainder lands on the last chain


def test_chain_state_fields():
    psi = DenseState([1.0, 5.0])
    _, states = metropolis_sample(psi, 1, 64, chains=2, burn_in=10, thin=3, seed=1)
    for s in states:
        assert s.proposed == 10 + 3 * 32
        assert 0 <= s.accepted <= s.proposed
        assert s.log_prob == psi.log_prob(s.x)
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


def test_sample_beta_exact_ratios():
    b = DenseState([1.0, 2.0])
    batch = sample_beta(b, 50_000, seed=6)
    assert batch.source == "beta"
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


def test_warm_start_proposes_only_thin_times_count():
    psi = DenseState(np.arange(1.0, 9.0))
    _, fresh = metropolis_sample(psi, 3, 10, chains=4, thin=3, seed=1)
    batch, warm = metropolis_sample(psi, 3, 10, chains=4, thin=3, seed=2,
                                    start=fresh)
    assert len(batch) == 10
    assert [s.proposed for s in warm] == [3 * 2, 3 * 2, 3 * 2, 3 * 4]
    for s in warm:
        assert s.log_prob == psi.log_prob(s.x)
    # an explicit burn-in still applies to warm-started chains
    _, burned = metropolis_sample(psi, 3, 10, chains=4, burn_in=7, thin=3,
                                  seed=2, start=fresh)
    assert [s.proposed for s in burned] == [7 + 3 * 2, 7 + 3 * 2, 7 + 3 * 2, 7 + 3 * 4]


def test_chained_warm_starts_total_variation(rng):
    n = int(rng.integers(2, 5))
    dim = 1 << n
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = DenseState(v)
    target = np.abs(v) ** 2 / (np.abs(v) ** 2).sum()
    _, states = metropolis_sample(psi, n, 0, chains=8, seed=(70, 0))
    draws = []
    for call in range(20):
        batch, states = metropolis_sample(psi, n, 5_000, chains=8,
                                          seed=(70, 1, call), start=states)
        draws.append(batch.indices)
    indices = np.concatenate(draws)
    assert indices.size == 100_000
    tv = 0.5 * np.abs(frequencies(indices, dim) - target).sum()
    assert tv < 0.02


def test_bad_start_rejected():
    amps = np.ones(8)
    amps[5] = 0.0
    psi = DenseState(amps)
    _, states = metropolis_sample(psi, 3, 16, chains=4, seed=0)
    with pytest.raises(ValueError, match="chain states"):
        metropolis_sample(psi, 3, 16, chains=4, seed=1, start=states[:3])
    dead = states[:3] + [ChainState(5, 0.0, 0, 0)]
    with pytest.raises(ValueError, match="zero amplitude"):
        metropolis_sample(psi, 3, 16, chains=4, seed=1, start=dead)
    outside = states[:3] + [ChainState(8, 0.0, 0, 0)]
    with pytest.raises(ValueError, match="lie in"):
        metropolis_sample(psi, 3, 16, chains=4, seed=1, start=outside)
