"""Wavefunction models against brute-force formulas and finite differences."""

import math

import numpy as np
import pytest

from vnls import (
    CapabilityError,
    DenseState,
    Rbm,
    dense_vector,
    init_gaussian,
    load_checkpoint,
    save_checkpoint,
    spins,
)
from vnls import states


def brute_log_amp(rbm, x):
    # independent reimplementation, scalar and unvectorized on purpose
    s = np.array([1.0 if not (x >> (rbm.n - 1 - i)) & 1 else -1.0
                  for i in range(rbm.n)])
    total = np.dot(rbm.a, s)
    for j in range(rbm.m):
        z = rbm.c[j] + np.dot(rbm.w[j], s)
        total += np.log(2.0 * np.cosh(z))
    return total


def assert_log_amps_close(got, want):
    # relative to 1 + |log psi|; the imaginary part modulo 2 pi, as each
    # log 2cosh may sit on another branch of the complex log
    got, want = np.asarray(got), np.asarray(want, dtype=complex)
    tol = 1e-12 * (1.0 + np.abs(want))
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got.real - want.real) <= tol)
    turns = (got.imag - want.imag) / (2 * np.pi)
    assert np.all(np.abs(turns - np.round(turns)) * 2 * np.pi <= tol)


def test_spins_convention():
    # qubit 0 is the most significant bit; bit value 0 maps to spin +1
    assert np.array_equal(spins(0, 3), [1.0, 1.0, 1.0])
    assert np.array_equal(spins(0b100, 3), [-1.0, 1.0, 1.0])
    assert np.array_equal(spins(0b001, 3), [1.0, 1.0, -1.0])
    assert spins(np.arange(8), 3).shape == (8, 3)


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_log_amp_matches_brute_force(rng, flavor):
    for trial in range(20):
        n = int(rng.integers(1, 7))
        psi = init_gaussian(n, alpha=1.5, sigma=0.4,
                            seed=int(rng.integers(1 << 30)), flavor=flavor)
        xs = rng.integers(0, 1 << n, size=8)
        got = psi.log_amp(xs)
        want = np.array([brute_log_amp(psi, int(x)) for x in xs])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_zero_parameters_frozen_value():
    for flavor in ("real", "complex"):
        psi = Rbm(np.zeros(3), np.zeros(5), np.zeros((5, 3)), flavor=flavor)
        la = psi.log_amp(np.arange(8))
        assert np.allclose(la, 5 * math.log(2.0))


def test_real_flavor_amplitudes_strictly_positive(rng):
    for n in range(1, 11):
        psi = init_gaussian(n, sigma=0.5, seed=n, flavor="real")
        la = psi.log_amp(np.arange(1 << n))
        assert np.all(la.imag == 0.0)
        assert np.all(np.isfinite(la.real))  # log of a positive amplitude


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_log_grad_finite_differences(rng, flavor):
    step = 1e-5
    cases = 0
    while cases < 100:
        n = int(rng.integers(1, 6))
        psi = init_gaussian(n, alpha=1.2, sigma=0.3,
                            seed=int(rng.integers(1 << 30)), flavor=flavor)
        x = int(rng.integers(0, 1 << n))
        grad = psi.log_grad(x)
        theta = psi.get_params()
        fd = np.zeros_like(grad)
        complex_params = np.iscomplexobj(grad)
        for p in range(theta.size):
            for sign in (1.0, -1.0):
                shifted = theta.copy()
                shifted[p] += sign * step
                psi.set_params(shifted)
                la = psi.log_amp(x)
                fd[p] += sign * (la if complex_params else la.real) / (2 * step)
            psi.set_params(theta)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)
        cases += 1


def test_log_grad_layout_matches_param_order(rng):
    psi = init_gaussian(3, alpha=2.0, sigma=0.3, seed=5, flavor="complex")
    g = psi.log_grad(0b101)
    s = spins(0b101, 3)
    z = psi.c + psi.w @ s
    assert np.allclose(g[:3], s)
    assert np.allclose(g[3:3 + psi.m], np.tanh(z))
    assert np.allclose(g[3 + psi.m:], np.outer(np.tanh(z), s).reshape(-1))


@pytest.mark.parametrize("n", [4, 10, 16])
@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_log_prob_is_twice_real_log_amp_bitwise(n, flavor):
    for seed, sigma in enumerate((0.01, 0.3, 1.0, 3.0)):
        psi = init_gaussian(n, sigma=sigma, seed=seed, flavor=flavor)
        x = np.random.default_rng(seed).integers(0, 1 << n, size=257)
        assert np.array_equal(psi.log_prob(x), 2 * psi.log_amp(x).real)
        for size in (1, 3, 8):  # short batches take other BLAS paths
            assert np.array_equal(psi.log_prob(x[:size]), 2 * psi.log_amp(x[:size]).real)
        single = psi.log_prob(int(x[0]))
        assert type(single) is float
        assert single == 2 * psi.log_amp(int(x[0])).real


@pytest.mark.parametrize("size", [1, 3, 1023, 1024, 1025, 4099])
@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_long_batches_equal_separate_block_calls_bitwise(size, flavor):
    block = states._BLOCK
    assert block == 1024
    psi = init_gaussian(12, sigma=0.3, seed=size, flavor=flavor)
    x = np.random.default_rng(size).integers(0, 1 << 12, size=size)
    starts = range(0, size, block)
    assert np.array_equal(
        psi.log_amp(x),
        np.concatenate([psi.log_amp(x[i:i + block]) for i in starts]))
    assert np.array_equal(
        psi.log_prob(x),
        np.concatenate([psi.log_prob(x[i:i + block]) for i in starts]))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_byte_tables_match_brute_force(n, flavor):
    # one byte, a partial byte, exactly one, one and a bit, two, two and a bit
    psi = init_gaussian(n, alpha=1.5, sigma=0.3, seed=n, flavor=flavor)
    x = np.concatenate([[0, (1 << n) - 1],
                        np.random.default_rng(n).integers(0, 1 << n, size=40)])
    assert_log_amps_close(psi.log_amp(x), [brute_log_amp(psi, int(v)) for v in x])


@pytest.mark.parametrize("n", [4, 9, 16, 17])
@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_log_prob_independent_of_batch_bitwise(n, flavor):
    for seed, sigma in enumerate((0.01, 0.3, 2.0)):
        psi = init_gaussian(n, sigma=sigma, seed=seed, flavor=flavor)
        x = np.random.default_rng(seed).integers(0, 1 << n, size=1025)
        alone = np.array([psi.log_prob(int(v)) for v in x])
        for size in (1, 2, 3, 5, 7, 120, 1025):
            assert np.array_equal(psi.log_prob(x[:size]), alone[:size])
            assert np.array_equal(psi.log_prob(x[-size:]), alone[-size:])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_basis_log_amp_equals_log_amp_bitwise(n, flavor):
    # one byte, a partial byte, exactly one, one and a bit, two, two and a bit
    models = [init_gaussian(n, sigma=sigma, seed=seed, flavor=flavor)
              for seed, sigma in enumerate((0.01, 1.0, 3.0))]
    if flavor == "complex":
        # the block products of the even states underflow and are summed
        # again; a call on an even and an odd state sums one state again
        models.append(_underflowing_rbm(n, 120, seed=n, w_last=0.5))
    for seed, psi in enumerate(models):
        whole = psi.basis_log_amp()
        assert whole.dtype == np.complex128
        assert np.array_equal(whole, psi.log_amp(np.arange(1 << n)))
        x = np.random.default_rng(seed).integers(0, 1 << n, size=5)
        assert np.array_equal(whole[x], [psi.log_amp(int(v)) for v in x])
        for pair in np.stack([x & ~1, x | 1], axis=1):
            assert np.array_equal(whole[pair], psi.log_amp(pair))


def test_real_rbm_past_one_product_of_factors():
    # 1200 hidden factors near 2 each: one product of them would overflow
    psi = init_gaussian(2, alpha=600, seed=3)
    assert psi.m > 2 * states._PRODUCT_ROWS
    want = np.array([brute_log_amp(psi, v) for v in range(4)])
    assert np.all(np.abs(want - 832.0) < 1.0)
    tol = 1e-12 * (1.0 + np.abs(want))
    for got in (psi.basis_log_amp(), psi.log_amp(np.arange(4)),
                [psi.log_amp(v) for v in range(4)]):
        got = np.asarray(got)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got.real - want) <= tol)
        assert np.all(got.imag == 0.0)


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_set_params_values_equal_fresh_model_bitwise(flavor):
    psi = init_gaussian(11, sigma=0.2, seed=1, flavor=flavor)
    x = np.arange(1 << 11)
    before = psi.log_amp(x)  # builds the tables for the first parameters
    theta = init_gaussian(11, sigma=0.5, seed=2, flavor=flavor).get_params()
    psi.set_params(theta)
    n, m = psi.n, psi.m
    fresh = Rbm(theta[:n], theta[n:n + m], theta[n + m:].reshape(m, n), flavor=flavor)
    assert np.array_equal(psi.log_amp(x), fresh.log_amp(x))
    assert not np.array_equal(psi.log_amp(x), before)


def test_parameters_are_read_only():
    psi = init_gaussian(5, seed=0)
    for name in ("a", "c", "w"):
        arr = getattr(psi, name)
        with pytest.raises(ValueError):
            arr[0] = 1.0  # in place
        with pytest.raises(AttributeError):
            setattr(psi, name, np.zeros_like(arr))
    theta = psi.get_params()
    theta[0] = 1.0  # get_params hands out a copy
    assert psi.a[0] != 1.0


@pytest.mark.parametrize("n", [4, 10, 16])
@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_log_grad_equals_concatenated_formula_bitwise(n, flavor):
    psi = init_gaussian(n, sigma=0.3, seed=n, flavor=flavor)
    x = np.random.default_rng(n).integers(0, 1 << n, size=257)
    for size in (1, 3, 257):
        s = spins(x[:size], n)
        t = np.tanh(psi.c + s @ psi.w.T)
        want = np.concatenate(
            [s.astype(t.dtype), t,
             (t[:, :, None] * s[:, None, :]).reshape(size, psi.m * n)], axis=1)
        assert np.array_equal(psi.log_grad(x[:size]), want)
    assert np.array_equal(psi.log_grad(int(x[0])), psi.log_grad(x[:1])[0])


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_angles_of_1e4_give_the_analytic_log_amp(flavor):
    # 2cosh(theta) = e^theta (1 + e^(-2 theta)) = e^theta in float64 once
    # Re theta >= 1e4, so log psi = a . s + sum_j theta_j with each angle
    # flipped to Re theta_j >= 0; e^(2 * 1e4) would overflow
    shift = 2.0j if flavor == "complex" else 0.0
    a = np.array([0.3, -0.2]) + shift / 10
    c = np.array([1e4, -1e4]) + shift
    w = np.array([[1.0, -1.0], [0.5, 2.0]]) + shift / 4
    psi = Rbm(a, c, w, flavor=flavor)
    s = spins(np.arange(4), 2)
    theta = c + s @ w.T
    want = s @ a + np.where(theta.real < 0.0, -theta, theta).sum(axis=1)
    with np.errstate(over="raise", invalid="raise"):
        for got in (psi.basis_log_amp(), psi.log_amp(np.arange(4)),
                    [psi.log_amp(v) for v in range(4)]):
            assert_log_amps_close(got, want)
    assert np.abs(want.real).min() > 1e4 - 10.0


def _underflowing_rbm(n, m, seed, w_last=0.0):
    # complex angles near i pi/2 + 0.01, where each factor 1 + e^(-2 theta)
    # is about 0.02, so a product of m of them lies near 0.02^m; w_last on
    # the last qubit moves the angles of half the states away from there
    rng = np.random.default_rng(seed)
    c = 1j * np.pi / 2 + 0.01 - w_last + 0.002 * rng.normal(size=m)
    w = 1e-3 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    w[:, -1] += w_last
    a = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return Rbm(a, c, w, flavor="complex")


def test_complex_block_product_underflow_is_summed_per_factor():
    # two blocks; 0.02^512 lies far below the smallest subnormal, so the
    # first block's product is 0
    psi = _underflowing_rbm(3, 600, seed=0)
    assert psi.m > states._PRODUCT_ROWS
    want = np.array([brute_log_amp(psi, v) for v in range(8)])
    assert np.all(want.real < -2000.0)
    for got in (psi.basis_log_amp(), psi.log_amp(np.arange(8)),
                [psi.log_amp(v) for v in range(8)]):
        assert_log_amps_close(got, want)


def test_param_round_trip_identity(rng):
    for flavor in ("real", "complex"):
        psi = init_gaussian(4, seed=3, flavor=flavor)
        theta = psi.get_params()
        psi.set_params(theta)
        assert np.array_equal(psi.get_params(), theta)
        with pytest.raises(ValueError):
            psi.set_params(theta[:-1])


def test_real_flavor_rejects_complex_params():
    psi = init_gaussian(2, seed=0, flavor="real")
    bad = psi.get_params().astype(complex)
    bad[0] += 1j
    with pytest.raises(ValueError):
        psi.set_params(bad)


def test_init_gaussian_validation():
    with pytest.raises(ValueError):
        init_gaussian(3, sigma=0.0)
    with pytest.raises(ValueError):
        init_gaussian(3, sigma=-0.1)
    with pytest.raises(ValueError):
        init_gaussian(3, flavor="other")
    for alpha in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError):
            init_gaussian(3, alpha=alpha)
    psi = init_gaussian(5, alpha=2.0)
    assert psi.m == 10  # ceil(alpha * n)
    assert init_gaussian(3, alpha=0.4).m == 2
    for alpha in (1e12, 1e308):  # a hidden layer no machine can hold
        with pytest.raises(ValueError, match=r"ceil\(alpha\*n\)"):
            init_gaussian(4, alpha=alpha)


def test_small_sigma_init_is_near_uniform():
    psi = init_gaussian(11, sigma=0.01, seed=0, flavor="real")
    v = dense_vector(psi)
    uniform = np.ones(1 << 11) / np.sqrt(1 << 11)
    fid = abs(np.vdot(uniform, v)) ** 2
    assert fid > 0.99


def test_dense_state_basics():
    psi = DenseState([1.0, 0.0, 2.0, 0.0])
    assert psi.n == 2
    assert psi.amp(2) == 2.0 + 0j
    assert psi.log_prob(1) == -np.inf
    with pytest.raises(ValueError):
        psi.log_amp(1)  # exact zero amplitude
    assert psi.log_amp(2) == pytest.approx(np.log(2.0))
    with pytest.raises(ValueError):
        DenseState([0.0, 0.0])
    with pytest.raises(ValueError):
        DenseState([1.0, 2.0, 3.0])  # not a power of two
    assert psi.log_grad(np.arange(4)).shape == (4, 0)


def test_dense_vector_enumeration_and_limit(rng):
    v = rng.normal(size=32)
    ds = DenseState(v)
    out = dense_vector(ds)
    assert np.allclose(out, v / np.linalg.norm(v))
    # |v|^2 underflows or overflows at these scales; the enumeration never squares them
    for scale in (2.0 ** -600, 2.0 ** 600):
        assert np.array_equal(dense_vector(DenseState(scale * v)), out)
    psi = init_gaussian(4, seed=1)
    out = dense_vector(psi)
    assert np.isclose(np.linalg.norm(out), 1.0)
    amps = psi.amp(np.arange(16))
    assert np.allclose(out, amps / np.linalg.norm(amps))

    class Wide:
        n = 15
    with pytest.raises(CapabilityError):
        dense_vector(Wide())


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_checkpoint_round_trip_exact(tmp_path, rng, flavor):
    psi = init_gaussian(4, alpha=1.7, sigma=0.2, seed=42, flavor=flavor)
    path = tmp_path / "model.ckpt"
    save_checkpoint(psi, path)
    again = load_checkpoint(path)
    assert again.flavor == psi.flavor
    assert (again.n, again.m, again.seed) == (psi.n, psi.m, psi.seed)
    assert np.array_equal(again.get_params(), psi.get_params())
    xs = np.arange(16)
    assert np.array_equal(again.log_amp(xs), psi.log_amp(xs))


def test_checkpoint_without_a_field_names_it(tmp_path):
    path = tmp_path / "model.npz"
    np.savez(path, n=4, m=8, seed=0, params=np.zeros(44))
    with pytest.raises(ValueError, match="no 'flavor' field"):
        load_checkpoint(path)
