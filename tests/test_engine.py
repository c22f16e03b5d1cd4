"""Estimators and training loops against enumeration and finite differences."""

import numpy as np
import pytest

from vnls import (
    DenseState,
    EpochRecord,
    SRState,
    TrainConfig,
    enumerate_beta,
    enumerate_born,
    estimate_fisher,
    estimate_gradient,
    estimate_objective,
    estimate_variance,
    ising_problem,
    init_gaussian,
    local_energy_h,
    metropolis_sample,
    parse_pauli_sum,
    random_pauli_problem,
    sample_beta,
    sr_step,
    to_sparse,
    train_vnls,
    train_vqmc,
    vnls_local_energies,
)
from vnls import PauliSum, PauliTerm, identity_sum
import vnls.engine as engine

from conftest import dense_rayleigh, dense_vnls_loss, kron_sum, random_sum


def exact_objective_h(h, psi):
    support, weights = enumerate_born(psi)
    l = local_energy_h(h, psi, support)
    return estimate_objective(l, weights=weights)


def exact_objective_vnls(a, b, psi):
    support, weights = enumerate_born(psi)
    beta_batch, beta_weights = enumerate_beta(b)
    l, _ = vnls_local_energies(a, b, psi, support, beta_batch,
                               beta_weights=beta_weights)
    return estimate_objective(l, weights=weights)


def test_local_energy_frozen_values():
    # H = Z0, psi = (1, 1): l(0) = +1, l(1) = -1
    h = parse_pauli_sum("1 Z0", 1)
    psi = DenseState([1.0, 1.0])
    assert local_energy_h(h, psi, 0) == 1.0 + 0j
    assert local_energy_h(h, psi, 1) == -1.0 + 0j
    # H = X0 + Z0, psi = (2, 1): l(0) = 3/2, l(1) = 1
    h = parse_pauli_sum("1 X0\n1 Z0", 1)
    psi = DenseState([2.0, 1.0])
    assert local_energy_h(h, psi, 0) == pytest.approx(1.5)
    assert local_energy_h(h, psi, 1) == pytest.approx(1.0)


def test_vnls_energy_zero_at_solution():
    # A = I, psi = b: Ehat = 1 and every local energy vanishes identically
    n = 3
    a = identity_sum(n)
    b = DenseState(np.arange(1.0, 9.0))
    beta = sample_beta(b, 64, seed=1)
    l, e_hat = vnls_local_energies(a, b, b, np.arange(8, dtype=np.int64), beta)
    assert e_hat == 1.0 + 0j
    assert np.abs(l).max() == 0.0
    assert vnls_local_energies(a, b, b, 5, beta)[0][0] == 0.0 + 0j


def test_enumerated_mean_is_rayleigh_quotient(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        h = random_sum(rng, n, 5, hermitian=True)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi = DenseState(v)
        got = exact_objective_h(h, psi)
        assert got == pytest.approx(dense_rayleigh(kron_sum(h), v), abs=1e-10)


def test_enumerated_vnls_mean_is_projector_loss(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        dim = 1 << n
        terms = random_sum(rng, n, 4, hermitian=True).terms
        shift = sum(abs(t.coefficient.real) for t in terms) + 0.6
        a = PauliSum(terms + [PauliTerm(shift, {}, n)], n)
        b_vec = np.zeros(dim, dtype=complex)
        pick = rng.choice(dim, size=max(2, dim // 3), replace=False)
        b_vec[pick] = rng.normal(size=pick.size) + 1j * rng.normal(size=pick.size)
        b = DenseState(b_vec)
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        got = exact_objective_vnls(a, b, DenseState(v))
        assert got == pytest.approx(dense_vnls_loss(kron_sum(a), b_vec, v),
                                    rel=1e-10, abs=1e-10)


def test_zero_variance_at_eigenvectors(rng):
    for n in (3, 5):
        h = random_sum(rng, n, 5, hermitian=True)
        vals, vecs = np.linalg.eigh(kron_sum(h))
        for k in range(1 << n):
            amps = vecs[:, k]
            psi = DenseState(amps)
            support = np.flatnonzero(np.abs(amps) > 1e-8 * np.abs(amps).max())
            weights = np.abs(amps[support]) ** 2
            l = local_energy_h(h, psi, support)
            assert np.allclose(l, vals[k], atol=1e-8)
            assert estimate_variance(l, weights=weights) < 1e-10
            assert estimate_objective(l, weights=weights) == pytest.approx(vals[k])


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_gradient_matches_finite_differences(rng, flavor):
    step = 1e-5
    for trial in range(6):
        n = int(rng.integers(2, 5))
        h = random_sum(rng, n, 4, hermitian=True)
        psi = init_gaussian(n, alpha=1.2, sigma=0.3,
                            seed=int(rng.integers(1 << 30)), flavor=flavor)
        support, weights = enumerate_born(psi)
        l = local_energy_h(h, psi, support)
        g = estimate_gradient(l, psi.log_grad(support), weights=weights)
        theta = psi.get_params()
        fd = np.zeros(theta.size, dtype=complex)
        for p in range(theta.size):
            for sign in (1.0, -1.0):
                shifted = theta.copy()
                shifted[p] += sign * step
                psi.set_params(shifted)
                fd[p] += sign * exact_objective_h(h, psi) / (2 * step)
            if flavor == "complex":
                for sign in (1.0, -1.0):
                    shifted = theta.copy()
                    shifted[p] += sign * 1j * step
                    psi.set_params(shifted)
                    fd[p] += 1j * sign * exact_objective_h(h, psi) / (2 * step)
            psi.set_params(theta)
        if flavor == "real":
            fd = fd.real
        assert np.allclose(g, fd, rtol=1e-4, atol=1e-7)


def test_vnls_gradient_matches_finite_differences(rng):
    step = 1e-5
    n = 3
    prob = ising_problem(n, 10.0)
    psi = init_gaussian(n, sigma=0.3, seed=9, flavor="real")
    support, weights = enumerate_born(psi)
    beta_batch, beta_weights = enumerate_beta(prob.b)
    l, _ = vnls_local_energies(prob.a, prob.b, psi, support, beta_batch,
                               beta_weights=beta_weights)
    g = estimate_gradient(l, psi.log_grad(support), weights=weights)
    theta = psi.get_params()
    fd = np.zeros(theta.size)
    for p in range(theta.size):
        for sign in (1.0, -1.0):
            shifted = theta.copy()
            shifted[p] += sign * step
            psi.set_params(shifted)
            fd[p] += sign * exact_objective_vnls(prob.a, prob.b, psi) / (2 * step)
        psi.set_params(theta)
    assert np.allclose(g, fd, rtol=1e-4, atol=1e-8)


def test_gradient_of_single_sample_batch_is_zero():
    psi = init_gaussian(3, seed=0)
    l = np.array([0.7 + 0.1j])
    o = psi.log_grad(np.array([5]))
    g = estimate_gradient(l, o)
    assert np.all(g == 0.0)


def test_estimate_objective_and_variance_basics():
    l = np.array([1.0 + 1j, 3.0 - 1j])
    assert estimate_objective(l) == 2.0
    assert estimate_variance(l) == pytest.approx(2.0)  # |1+1j-2|^2 = 2 both
    w = np.array([1.0, 3.0])
    assert estimate_objective(l, weights=w) == pytest.approx(2.5)


def test_fisher_two_sample_hand_computation():
    o = np.array([[1.0, 0.0], [0.0, 2.0]])
    # centered rows: (+-0.5, -+1); score is 2*O for real parameters
    oc = 2.0 * (o - o.mean(axis=0))
    expect = oc.T @ oc / 2.0
    assert np.allclose(estimate_fisher(o), expect)
    assert np.allclose(estimate_fisher(o), [[1.0, -2.0], [-2.0, 4.0]])


def test_fisher_positive_semidefinite(rng):
    for flavor in ("real", "complex"):
        psi = init_gaussian(4, sigma=0.3, seed=8, flavor=flavor)
        xs = rng.integers(0, 16, size=200)
        f = estimate_fisher(psi.log_grad(xs))
        f = f.real if np.iscomplexobj(f) else f
        eigs = np.linalg.eigvalsh(0.5 * (f + f.T))
        assert eigs.min() > -1e-10


def test_sr_step_solves_the_regularized_system():
    fisher = np.array([[2.0, 0.0], [0.0, 4.0]])
    grad = np.array([1.0, 1.0])
    sr = SRState(grad, fisher, learning_rate=0.1, shift=0.5, ridge=0.0)
    # M = F + 0.5*diag(F) = diag(3, 6)
    theta, fallback = sr_step(np.zeros(2), sr)
    assert not fallback
    assert np.allclose(theta, [-0.1 / 3.0, -0.1 / 6.0])


def test_sr_step_fallback_on_singular_system():
    fisher = np.array([[1.0, 1.0], [1.0, 1.0]])
    grad = np.array([0.5, -0.5])
    sr = SRState(grad, fisher, learning_rate=0.1, shift=0.0, ridge=0.0)
    theta, fallback = sr_step(np.zeros(2), sr)
    assert fallback
    assert np.allclose(theta, -0.1 * grad)


def test_sr_step_complex_gradient_decouples():
    fisher = np.eye(2) * 2.0
    grad = np.array([1.0 + 2.0j, -1.0j])
    sr = SRState(grad, fisher, learning_rate=1.0, shift=0.0, ridge=0.0)
    theta, _ = sr_step(np.zeros(2, dtype=complex), sr)
    assert np.allclose(theta, -grad / 2.0)


def test_sr_step_cholesky_matches_dense_solve(rng):
    a = rng.normal(size=(6, 6))
    fisher = a @ a.T + 0.1 * np.eye(6)  # SPD, not diagonal
    grad = rng.normal(size=6)
    theta0 = rng.normal(size=6)
    sr = SRState(grad, fisher, learning_rate=0.5, shift=0.1, ridge=1e-3)
    m = fisher + 0.1 * np.diag(np.diag(fisher)) + 1e-3 * np.eye(6)
    theta, fallback = sr_step(theta0, sr)
    assert not fallback
    assert np.allclose(theta, theta0 - 0.5 * np.linalg.solve(m, grad),
                       rtol=1e-12, atol=1e-12)
    assert np.array_equal(sr.fisher, a @ a.T + 0.1 * np.eye(6))  # untouched


def test_sr_step_fallback_on_indefinite_system():
    fisher = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    grad = np.array([0.5, -0.25])
    sr = SRState(grad, fisher, learning_rate=0.1, shift=0.0, ridge=0.0)
    theta, fallback = sr_step(np.ones(2), sr)
    assert fallback
    assert np.array_equal(theta, np.ones(2) - 0.1 * grad)


def test_sr_step_complex_gradient_decouples_with_coupled_fisher(rng):
    a = rng.normal(size=(5, 5))
    real_f = a @ a.T + np.eye(5)
    anti = rng.normal(size=(5, 5))
    fisher = real_f + 1j * (anti - anti.T)  # Hermitian; its real part is used
    grad = rng.normal(size=5) + 1j * rng.normal(size=5)
    sr = SRState(grad, fisher, learning_rate=1.0, shift=0.0, ridge=0.0)
    theta, fallback = sr_step(np.zeros(5, dtype=complex), sr)
    assert not fallback
    want = np.linalg.solve(real_f, grad.real) + 1j * np.linalg.solve(real_f, grad.imag)
    assert np.allclose(theta, -want, rtol=1e-12, atol=1e-12)


def test_sr_step_symmetrizes_an_asymmetric_fisher():
    fisher = np.array([[2.0, 1.0], [0.0, 3.0]])
    grad = np.array([1.0, -1.0])
    sr = SRState(grad, fisher, learning_rate=1.0, shift=0.5, ridge=0.25)
    theta, fallback = sr_step(np.zeros(2), sr)
    # M = (F + F^T)/2 + 0.5*diag(F) + 0.25*I = [[3.25, 0.5], [0.5, 4.75]]
    m = np.array([[3.25, 0.5], [0.5, 4.75]])
    assert not fallback
    assert np.allclose(theta, -np.linalg.solve(m, grad), rtol=1e-12, atol=0)


@pytest.mark.parametrize("weighted", [False, True])
def test_real_gradient_matches_real_part_of_complex_formula(rng, weighted):
    psi = init_gaussian(6, sigma=0.3, seed=4)
    xs = rng.integers(0, 1 << 6, size=500)
    o = psi.log_grad(xs)
    l = rng.normal(size=500) + 1j * rng.normal(size=500)
    w = rng.uniform(0.1, 2.0, size=500) if weighted else None
    wn = None if w is None else w / w.sum()
    l_hat = np.average(l, weights=wn)
    oc = np.conj(o - np.average(o, axis=0, weights=wn)).astype(complex)
    lc = l - l_hat
    want = (2.0 * (oc.T @ lc) / l.size if wn is None
            else 2.0 * (oc.T @ (wn * lc))).real
    got = estimate_gradient(l, o, weights=w)
    assert not np.iscomplexobj(got)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("dtype", [float, complex])
def test_estimators_of_a_parameterless_model(dtype):
    o = DenseState(np.ones(8)).log_grad(np.arange(4)).astype(dtype)
    l = np.array([1.0, 2.0, 0.5, 1.0 + 1j])
    for weights in (None, np.ones(4)):
        g = estimate_gradient(l, o, weights=weights)
        f = estimate_fisher(o, weights=weights)
        assert g.shape == (0,) and f.shape == (0, 0)
        assert np.iscomplexobj(g) == np.iscomplexobj(f) == (dtype is complex)
        theta, fallback = sr_step(np.zeros(0, dtype), SRState(g, f))
        assert theta.shape == (0,) and not fallback


def test_training_zero_epochs_returns_empty():
    h = parse_pauli_sum("1 Z0", 1)
    psi = init_gaussian(1, seed=0)
    assert train_vqmc(h, psi, TrainConfig(epochs=0)) == []


def test_train_vqmc_reaches_z_ground_state():
    h = parse_pauli_sum("1 Z0", 1)
    psi = init_gaussian(1, seed=0, flavor="real")
    cfg = TrainConfig(epochs=300, batch_size=512, chains=4,
                      learning_rate=0.05, seed=0)
    records = train_vqmc(h, psi, cfg)
    assert abs(records[-1].loss - (-1.0)) < 0.05
    assert len(records) == 300
    assert isinstance(records[0], EpochRecord)


def test_train_vnls_identity_problem_fast():
    # rough random start, A = I: loss is 1 - |<psi|b>|^2 / norms, driven
    # to the Monte Carlo noise floor within ~100 epochs
    n = 4
    a = identity_sum(n)
    b = DenseState(np.ones(1 << n))
    psi = init_gaussian(n, sigma=0.4, seed=1, flavor="real")
    records = train_vnls(a, b, psi, TrainConfig(
        epochs=120, batch_size=256, chains=4, learning_rate=0.05, seed=1))
    assert records[0].loss > 0.1
    assert abs(records[-1].loss) < 2e-2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_stops_with_diagnosis():
    # an operator that is not normalised: at this step size the parameters
    # reach ~2e5 after two SR steps and the amplitudes overflow in epoch 2
    prob = random_pauli_problem(10, terms=40, seed=0)
    psi = init_gaussian(10, seed=0, flavor="real")
    written = []
    set_params = psi.set_params

    def record(theta):
        written.append(theta.copy())
        set_params(theta)

    psi.set_params = record
    with pytest.raises(FloatingPointError) as err:
        train_vnls(prob.a, prob.b, psi, TrainConfig(
            epochs=10, batch_size=128, chains=4, learning_rate=0.02, seed=0))
    msg = str(err.value)
    assert "epoch 2: mean local energy is not finite" in msg
    last_loss = float(msg.split("last finite loss ")[1].split(")")[0])
    assert np.isfinite(last_loss)
    assert len(written) == 2
    assert np.array_equal(psi.get_params(), written[-1])
    assert np.all(np.isfinite(written[-1]))


def test_train_from_eigenstate_has_zero_variance_column():
    h = parse_pauli_sum("1 X0\n1 Z0", 1)
    vals, vecs = np.linalg.eigh(kron_sum(h))
    psi = DenseState(vecs[:, 0])
    records = train_vqmc(h, psi, TrainConfig(epochs=3, batch_size=64,
                                             chains=2, seed=0))
    for r in records:
        assert r.loss == pytest.approx(vals[0], abs=1e-12)
        assert r.loss_var < 1e-20
        assert r.grad_norm == 0.0


def test_training_is_deterministic_per_seed():
    prob = ising_problem(3, 10.0)
    outs = []
    for _ in range(2):
        psi = init_gaussian(3, seed=4, flavor="real")
        recs = train_vnls(prob.a, prob.b, psi, TrainConfig(
            epochs=4, batch_size=128, chains=4, seed=4))
        outs.append([(r.loss, r.loss_var, r.grad_norm, r.acceptance)
                     for r in recs])
    assert outs[0] == outs[1]


def test_scaling_b_gives_bit_identical_training():
    prob = ising_problem(3, 10.0)
    traces = []
    for c in (1.0, 8.0):
        psi = init_gaussian(3, seed=2, flavor="real")
        recs = train_vnls(prob.a, prob.b.scaled(c), psi, TrainConfig(
            epochs=4, batch_size=128, chains=4, seed=2, oracle_every=1))
        traces.append([(r.loss, r.loss_var, r.grad_norm, r.fidelity)
                       for r in recs])
    assert traces[0] == traces[1]


def test_scaling_a_scales_energies_and_gradients_exactly():
    prob = ising_problem(3, 10.0)
    c = 4.0
    psi = init_gaussian(3, seed=3, flavor="real")
    xs = np.arange(8, dtype=np.int64)
    beta = sample_beta(prob.b, 64, seed=(3, 1, 0))
    l, _ = vnls_local_energies(prob.a, prob.b, psi, xs, beta)
    l2, _ = vnls_local_energies(prob.a.scaled(c), prob.b, psi, xs, beta)
    assert np.array_equal(l2, c * c * l)
    o = psi.log_grad(xs)
    assert np.array_equal(estimate_gradient(l2, o),
                          c * c * estimate_gradient(l, o))
    # and with the learning rate divided by c^2, trajectories coincide
    runs = []
    for op, lr in ((prob.a, 0.02), (prob.a.scaled(c), 0.02 / c ** 2)):
        model = init_gaussian(3, seed=5, flavor="real")
        recs = train_vnls(op, prob.b, model, TrainConfig(
            epochs=3, batch_size=128, chains=4, learning_rate=lr, seed=5))
        runs.append((model.get_params(), [r.loss for r in recs]))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[1][1] == [c * c * v for v in runs[0][1]]


def test_vnls_rejects_non_hermitian():
    a = PauliSum([PauliTerm(1j, {0: "X"}, 2)], 2)
    b = DenseState(np.ones(4))
    with pytest.raises(ValueError):
        train_vnls(a, b, init_gaussian(2, seed=0), TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        vnls_local_energies(a, b, b, np.arange(4), sample_beta(b, 8, seed=0))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1).validate()
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(thin=0).validate()
    TrainConfig().validate()


def test_fidelity_tracking_in_records():
    prob = ising_problem(3, 10.0)
    psi = init_gaussian(3, seed=0)
    recs = train_vnls(prob.a, prob.b, psi, TrainConfig(
        epochs=5, batch_size=64, chains=2, seed=0, oracle_every=2))
    tracked = [r.fidelity is not None for r in recs]
    assert tracked == [True, False, True, False, True]  # every 2nd + final
    assert all(0.0 <= r.fidelity <= 1.0 for r in recs if r.fidelity is not None)
    psi2 = init_gaussian(3, seed=0)
    recs2 = train_vnls(prob.a, prob.b, psi2, TrainConfig(
        epochs=5, batch_size=64, chains=2, seed=0))
    assert all(r.fidelity is None for r in recs2)


def test_empty_beta_batch_rejected():
    a = identity_sum(2)
    b = DenseState(np.ones(4))
    empty = sample_beta(b, 0, seed=0)
    with pytest.raises(ValueError):
        vnls_local_energies(a, b, b, np.arange(4), empty)


def test_extreme_rbm_energies_finite_at_peak():
    # a_i = 400 puts log psi(0) near 3200, far beyond exp's range; both
    # energies must come from log differences, never from exp(log psi)
    prob = ising_problem(8, 10.0)
    psi = init_gaussian(8, seed=0)
    theta = psi.get_params()
    theta[:8] = 400.0
    psi.set_params(theta)
    beta = sample_beta(prob.b, 64, seed=1)
    x = np.array([0], dtype=np.int64)
    l, _ = vnls_local_energies(prob.a, prob.b, psi, x, beta)
    lh = local_energy_h(prob.a, psi, x)
    assert np.all(np.isfinite(l)) and np.all(np.isfinite(lh))

    mat = kron_sum(prob.a)
    la = psi.log_amp(np.arange(256, dtype=np.int64))
    rel = np.exp(la - la[0])                  # psi(c) / psi(0)
    bv = prob.b.amplitudes
    bx = beta.indices
    e_hat_rel = np.mean((mat[bx] @ rel) / bv[bx])  # Ehat / psi(0)
    want = (mat @ mat)[0] @ rel - (mat @ bv)[0] * e_hat_rel
    assert l[0] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert lh[0] == pytest.approx(mat[0] @ rel, rel=1e-12, abs=1e-12)


def _recorded_train(monkeypatch, psi, prob, config):
    """Run train_vnls, recording each epoch's sampler start and result."""
    calls = []
    real = engine.metropolis_sample

    def recording(*args, **kwargs):
        batch, states = real(*args, **kwargs)
        calls.append((kwargs.get("start"), batch, states))
        return batch, states

    monkeypatch.setattr(engine, "metropolis_sample", recording)
    train_vnls(prob.a, prob.b, psi, config)
    return calls


def test_train_carries_chain_states_across_epochs(monkeypatch):
    prob = ising_problem(5, 10.0)
    psi = init_gaussian(5, seed=3)
    config = TrainConfig(epochs=4, batch_size=64, chains=4, learning_rate=0.05,
                         seed=2, thin=3)
    calls = _recorded_train(monkeypatch, psi, prob, config)
    assert len(calls) == 4
    assert calls[0][0] is None
    assert [s.proposed for s in calls[0][2]] == [10 * 25 + 3 * 16] * 4
    for (_, _, previous), (start, _, states) in zip(calls, calls[1:]):
        assert [s.x for s in start] == [s.x for s in previous]
        assert [s.proposed for s in states] == [3 * 16] * 4  # no second burn-in


def test_first_epoch_draws_as_a_fresh_sampler(monkeypatch):
    prob = ising_problem(5, 10.0)
    config = TrainConfig(epochs=2, batch_size=96, chains=4, learning_rate=0.05,
                         seed=7)
    calls = _recorded_train(monkeypatch, init_gaussian(5, seed=4), prob, config)
    fresh, _ = metropolis_sample(init_gaussian(5, seed=4), 5, 96, chains=4,
                                 seed=(7, 0, 0))
    assert np.array_equal(calls[0][1].indices, fresh.indices)


def test_overflowing_ehat_keeps_zero_imaginary_part():
    # far from the a_i = 400 peak, Ehat's true scale overflows float64; for a
    # real RBM and a real b its imaginary part is exactly zero, not 0 * inf
    prob = ising_problem(8, 10.0)
    psi = init_gaussian(8, seed=0, flavor="real")
    theta = psi.get_params()
    theta[:8] = 400.0
    psi.set_params(theta)
    beta = sample_beta(prob.b, 64, seed=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, e_hat = vnls_local_energies(prob.a, prob.b, psi,
                                       np.array([255], dtype=np.int64), beta)
    assert np.isinf(e_hat.real)
    assert e_hat.imag == 0.0


def _counted(psi):
    """Wrap psi's log_amp and log_prob; returns the list of (name, size)."""
    calls = []
    for name in ("log_amp", "log_prob"):
        real = getattr(psi, name)

        def counted(x, real=real, name=name):
            calls.append((name, np.asarray(x).size))
            return real(x)

        setattr(psi, name, counted)
    return calls


@pytest.mark.parametrize("flavor", ["real", "complex"])
@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_basis_table_leaves_training_unchanged(monkeypatch, kind, flavor):
    prob = ising_problem(10, 10.0)
    config = TrainConfig(epochs=4, batch_size=256, chains=8, learning_rate=0.1,
                         seed=3, oracle_every=2 if kind == "vnls" else 0)

    def run():
        psi = init_gaussian(10, seed=5, flavor=flavor)
        if kind == "vnls":
            records = train_vnls(prob.a, prob.b, psi, config)
        else:
            records = train_vqmc(prob.a, psi, config)
        for r in records:
            r.wall_ms = 0.0
        return records, psi.get_params()

    tabulated, theta = run()
    monkeypatch.setattr(engine, "_tabulate", lambda psi, config: psi)
    plain, theta_plain = run()
    # the same draws and decisions; the whole-basis energies sum in another
    # order, so the estimates agree to rounding
    for field in ("epoch", "acceptance", "sr_fallback"):
        assert [getattr(r, field) for r in tabulated] == [getattr(r, field) for r in plain]
    for field in ("loss", "loss_var", "grad_norm", "loss_imag", "fidelity"):
        got = [getattr(r, field) for r in tabulated]
        want = [getattr(r, field) for r in plain]
        assert [v is None for v in got] == [v is None for v in want]
        np.testing.assert_allclose([v for v in got if v is not None],
                                   [v for v in want if v is not None], rtol=1e-10)
    # relative to the largest entry: an entry near zero may differ by an ulp of it
    np.testing.assert_allclose(theta, theta_plain, rtol=1e-10,
                               atol=1e-10 * np.abs(theta_plain).max())
    if kind == "vnls":  # fidelity-built tables are handed on, others built lazily
        assert [r.fidelity is not None for r in plain] == [True, False, True, True]


@pytest.mark.parametrize("flavor, sigma", [("real", 0.1), ("complex", 0.1), ("real", 3.0)])
def test_whole_basis_energies_match_the_row_path(flavor, sigma, rng):
    n = 9
    prob = random_pauli_problem(n, terms=14, seed=6)
    h = random_sum(rng, n, 10)
    psi = init_gaussian(n, sigma=sigma, seed=2, flavor=flavor)
    table = engine._BasisTable(psi)
    batch, _ = metropolis_sample(table, n, 300, chains=8, seed=3)
    beta = sample_beta(prob.b, 300, seed=4)
    matrix = to_sparse(prob.a)
    got = engine._table_vnls_energies(prob.a, matrix, matrix @ prob.b.amplitudes,
                                      prob.b, table, batch.indices, beta)
    want, _ = vnls_local_energies(prob.a, prob.b, psi, batch.indices, beta)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    got_h = engine._table_energy_h(h, to_sparse(h), table, batch.indices)
    want_h = local_energy_h(h, psi, batch.indices)
    np.testing.assert_allclose(got_h, want_h, rtol=1e-12)


def test_whole_basis_energies_finite_wherever_the_row_path_is():
    # a_i = 100 spreads log psi over 1600 e-folds: psi divided by its basis
    # maximum (at x = 0) underflows far from it, where the row path, scaled
    # by the states its rows read, stays finite
    prob = ising_problem(8, 10.0)
    psi = init_gaussian(8, sigma=0.5, seed=0)
    theta = psi.get_params()
    theta[:8] = 100.0
    psi.set_params(theta)
    table = engine._BasisTable(psi)
    basis = np.arange(256)
    weight = np.bitwise_count(basis)
    b = DenseState((weight >= 6).astype(float))  # beta rows far from the peak
    beta = sample_beta(b, 64, seed=1)
    matrix = to_sparse(prob.a)
    sampled = metropolis_sample(table, 8, 64, chains=8, seed=5)[0].indices
    far = basis[(weight == 6) | (weight == 7)]  # their rows read no state near the peak
    assert np.all(table.log_amps.real[far] < table.log_amps.real.max() - engine._FAR)
    for x in (sampled, far):
        got = engine._table_vnls_energies(prob.a, matrix, matrix @ b.amplitudes,
                                          b, table, x, beta)
        want, _ = vnls_local_energies(prob.a, b, psi, x, beta)
        got_h = engine._table_energy_h(prob.a, matrix, table, x)
        want_h = local_energy_h(prob.a, psi, x)
        for g, w in ((got, want), (got_h, want_h)):
            assert np.isfinite(w).all()
            np.testing.assert_allclose(g, w, rtol=1e-12)


@pytest.mark.parametrize("oracle_every", [0, 1])
@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_basis_table_is_the_only_model_read(kind, oracle_every):
    prob = ising_problem(10, 10.0)
    psi = init_gaussian(10, seed=1)
    calls = _counted(psi)
    config = TrainConfig(epochs=3, batch_size=512, chains=8, learning_rate=0.1,
                         seed=2, oracle_every=oracle_every)
    if kind == "vnls":
        train_vnls(prob.a, prob.b, psi, config)
    else:
        train_vqmc(prob.a, psi, config)
    # one whole-basis log_amp per parameter set that something reads
    assert calls == [("log_amp", 1024)] * (config.epochs + (oracle_every > 0))


def test_large_basis_keeps_the_model_path():
    h = ising_problem(16, 10.0).a
    psi = init_gaussian(16, seed=1)
    calls = _counted(psi)
    train_vqmc(h, psi, TrainConfig(epochs=1, batch_size=1024, chains=8,
                                   burn_in=16, seed=0))
    assert ("log_amp", 1 << 16) not in calls
    assert any(name == "log_prob" for name, _ in calls)


def test_raised_dense_limit_reaches_the_oracle():
    # the oracle takes the run's dense_limit, not its n <= 14 default
    prob = ising_problem(15, 10.0)
    psi = init_gaussian(15, seed=0)
    records = train_vnls(prob.a, prob.b, psi, TrainConfig(
        epochs=1, batch_size=64, seed=0, oracle_every=1, dense_limit=15))
    assert 0.0 <= records[0].fidelity <= 1.0


def test_tabulate_rule():
    psi = init_gaussian(10, seed=0)  # thin defaults to 11
    assert isinstance(engine._tabulate(psi, TrainConfig(batch_size=94)),
                      engine._BasisTable)
    assert engine._tabulate(psi, TrainConfig(batch_size=93)) is psi
    assert engine._tabulate(psi, TrainConfig(batch_size=93, thin=12)) is not psi
    assert engine._tabulate(psi, TrainConfig(dense_limit=9)) is psi
    dense = DenseState(np.ones(1 << 10))
    assert engine._tabulate(dense, TrainConfig()) is dense
    table = engine._tabulate(psi, TrainConfig())
    x = np.array([3, 1023, 0, 3, 512, 7, 99, 3], dtype=np.int64)
    assert np.array_equal(table.log_amp(x), psi.log_amp(x))
    assert np.array_equal(table.log_prob(x), psi.log_prob(x))
    assert isinstance(table.log_prob(5), float)
    assert isinstance(table.log_amp(5), complex)
