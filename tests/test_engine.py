"""Estimators and training loops against enumeration and finite differences."""

import weakref

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
from vnls import CapabilityError, PauliSum, PauliTerm
import vnls.engine as engine
import vnls.oracle
from vnls.operators import RowForm

from conftest import dense_rayleigh, dense_vnls_loss, identity_sum, kron_sum, random_sum


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
    # reach ~1e6 after two SR steps, and in epoch 2 a Metropolis chain sits
    # where psi's neighbours overflow against it.  At batch 32, 2^12 states
    # are past the table rule; exact draws from a table put no sample
    # there, and the same run at n = 10 collapses onto one state instead
    prob = random_pauli_problem(12, terms=40, seed=0)
    psi = init_gaussian(12, seed=0, flavor="real")
    config = TrainConfig(epochs=10, batch_size=32, chains=4, learning_rate=0.02,
                         seed=0)
    assert engine._tabulate(psi, config) is psi
    written = []
    set_params = psi.set_params

    def record(theta):
        written.append(theta.copy())
        set_params(theta)

    psi.set_params = record
    with pytest.raises(FloatingPointError) as err:
        train_vnls(prob.a, prob.b, psi, config)
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


@pytest.mark.parametrize("path", ["table", "model"])
def test_scaling_b_by_2_to_the_600_gives_equal_records(monkeypatch, path):
    # |b|^2 underflows at 2^-600 b and overflows at 2^600 b; every square of
    # b is taken after an exact power-of-two rescale, so neither shows
    prob = ising_problem(8, 10.0)
    b = DenseState(np.random.default_rng(4).random(256) + 0.1)
    if path == "model":
        monkeypatch.setattr(engine, "_tabulate", lambda psi, config: psi)
    runs = []
    for scale in (1.0, 2.0 ** -600, 2.0 ** 600):
        psi = init_gaussian(8, seed=2)
        records = train_vnls(prob.a, b.scaled(scale), psi, TrainConfig(
            epochs=8, batch_size=128, learning_rate=0.05, seed=2, oracle_every=1))
        for r in records:
            r.wall_ms = 0.0
        runs.append((records, psi.get_params()))
    records, theta = runs[0]
    assert all(0.0 < r.fidelity <= 1.0 for r in records)
    for other, other_theta in runs[1:]:
        assert other == records
        assert np.array_equal(other_theta, theta)


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
    for bad in ({"seed": -1}, {"shift": np.inf}, {"ridge": np.nan},
                {"epochs": 2.5}):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()
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
    """Run train_vnls on the model path, recording each epoch's sampler
    start and result."""
    calls = []
    real = engine.metropolis_sample

    def recording(*args, **kwargs):
        batch, states = real(*args, **kwargs)
        calls.append((kwargs.get("start"), batch, states))
        return batch, states

    monkeypatch.setattr(engine, "metropolis_sample", recording)
    monkeypatch.setattr(engine, "_tabulate", lambda psi, config: psi)
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


def test_default_config_runs_one_chain_per_8_samples(monkeypatch):
    prob = ising_problem(5, 10.0)
    calls = _recorded_train(monkeypatch, init_gaussian(5, seed=3), prob,
                            TrainConfig(epochs=2))
    assert [len(states) for _, _, states in calls] == [1024 // 8] * 2


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_an_epochs_sr_arrays_are_gone_before_the_next_rows(monkeypatch, flavor):
    # when epoch k+1 asks for its N x p rows, epoch k's rows and p x p SR
    # matrix are freed, or are the very buffers that epoch k+1 uses again
    prob = ising_problem(8, 10.0)
    psi = init_gaussian(8, seed=1, flavor=flavor)
    real_log_grad, real_sr_solve = type(psi).log_grad, engine._sr_solve
    last = {}       # weakrefs to the previous epoch's rows and SR matrix
    carried = {}    # those still alive at the next rows request
    calls = []

    def log_grad(self, x):
        carried.update((k, r()) for k, r in last.items() if r() is not None)
        last.clear()
        rows = real_log_grad(self, x)
        if "rows" in carried:
            assert np.shares_memory(carried.pop("rows"), rows)
        last["rows"] = weakref.ref(rows)
        calls.append("log_grad")
        return rows

    def sr_solve(theta, m, *args):
        if "matrix" in carried:
            assert np.shares_memory(carried.pop("matrix"), m)
        last["matrix"] = weakref.ref(m)
        calls.append("sr_solve")
        return real_sr_solve(theta, m, *args)

    monkeypatch.setattr(type(psi), "log_grad", log_grad)
    monkeypatch.setattr(engine, "_sr_solve", sr_solve)
    train_vnls(prob.a, prob.b, psi, TrainConfig(epochs=3, batch_size=256,
                                                learning_rate=0.05, seed=4))
    assert calls == ["log_grad", "sr_solve"] * 3
    assert not carried


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


def test_overflowing_row_energies_are_signed_infinities():
    # a_i = 400: psi(0) / psi(255) = e^6400.  Every off-diagonal entry of A
    # is positive and reads a state e^800 above psi(255), so l_H(255) = +inf;
    # the solver's (A b)(255) Ehat / psi(255), beyond e^4000, outweighs its
    # A^2 row (e^1600), so l(255) = -inf.  A real model on a real operator
    # keeps an imaginary part of exactly zero, and the finite row at the
    # peak keeps the bits it has in a batch of its own.
    prob = ising_problem(8, 10.0)
    psi = init_gaussian(8, seed=0, flavor="real")
    theta = psi.get_params()
    theta[:8] = 400.0
    psi.set_params(theta)
    beta = sample_beta(prob.b, 64, seed=1)
    x = np.array([0, 255], dtype=np.int64)
    l, _ = vnls_local_energies(prob.a, prob.b, psi, x, beta)
    lh = local_energy_h(prob.a, psi, x)
    assert l[1] == complex(-np.inf, 0.0) and lh[1] == complex(np.inf, 0.0)
    assert l[0] == vnls_local_energies(prob.a, prob.b, psi, x[:1], beta)[0][0]
    assert lh[0] == local_energy_h(prob.a, psi, 0)


@pytest.mark.parametrize("flavor", ["real", "complex"])
def test_row_energies_below_the_shared_shift_match_their_own_batch(flavor):
    # a_i = 100: psi(0) is about e^1400 times psi at weight 7, so in a batch
    # with x = 0 their psi(x) underflows after the batch's shared shift.
    # Those rows are summed again on their own scale, to the values a batch
    # of them alone gives; the row at x = 0 keeps its bits.
    prob = ising_problem(8, 10.0)
    psi = init_gaussian(8, sigma=0.5, seed=0, flavor=flavor)
    theta = psi.get_params()
    theta[:8] = 100.0
    psi.set_params(theta)
    basis = np.arange(256)
    weight = np.bitwise_count(basis)
    b = DenseState((weight >= 6).astype(float))  # Ehat stays finite at true scale
    beta = sample_beta(b, 64, seed=1)
    far = basis[weight == 7]
    x = np.concatenate([[0], far])
    l, _ = vnls_local_energies(prob.a, b, psi, x, beta)
    alone, _ = vnls_local_energies(prob.a, b, psi, far, beta)
    assert np.isfinite(alone).all()
    np.testing.assert_allclose(l[1:], alone, rtol=1e-12)
    assert l[0] == vnls_local_energies(prob.a, b, psi, x[:1], beta)[0][0]


def _counted(psi):
    """Wrap psi's log_amp, log_prob and basis_log_amp; returns the list of
    (name, size), a whole-basis read counting as a log_amp of 2^n states."""
    calls = []
    for name in ("log_amp", "log_prob"):
        real = getattr(psi, name)

        def counted(x, real=real, name=name):
            calls.append((name, np.asarray(x).size))
            return real(x)

        setattr(psi, name, counted)
    basis = psi.basis_log_amp

    def counted_basis():
        calls.append(("log_amp", 1 << psi.n))
        return basis()

    psi.basis_log_amp = counted_basis
    return calls


def _train_n10(kind, flavor, config):
    """(records, theta) of one n = 10 run; wall times zeroed."""
    prob = ising_problem(10, 10.0)
    psi = init_gaussian(10, seed=5, flavor=flavor)
    if kind == "vnls":
        records = train_vnls(prob.a, prob.b, psi, config)
    else:
        records = train_vqmc(prob.a, psi, config)
    for r in records:
        r.wall_ms = 0.0
    return records, psi.get_params()


@pytest.mark.parametrize("flavor", ["real", "complex"])
@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_basis_table_leaves_training_unchanged(monkeypatch, kind, flavor):
    # energies from whole-basis products over the table, against the row
    # estimators reading the same table past a lowered DENSE_LIMIT: the
    # same draws, and estimates that agree to rounding, as the products sum
    # in another order
    config = TrainConfig(epochs=4, batch_size=256, chains=8, learning_rate=0.1,
                         seed=3, oracle_every=2 if kind == "vnls" else 0)
    whole, theta = _train_n10(kind, flavor, config)
    monkeypatch.setattr(engine, "DENSE_LIMIT", 9)
    rows, theta_rows = _train_n10(kind, flavor, config)
    for field in ("epoch", "acceptance", "sr_fallback"):
        assert [getattr(r, field) for r in whole] == [getattr(r, field) for r in rows]
    for field in ("loss", "loss_var", "grad_norm", "loss_imag", "fidelity"):
        got = [getattr(r, field) for r in whole]
        want = [getattr(r, field) for r in rows]
        assert [v is None for v in got] == [v is None for v in want]
        np.testing.assert_allclose([v for v in got if v is not None],
                                   [v for v in want if v is not None], rtol=1e-10)
    # relative to the largest entry: an entry near zero may differ by an ulp of it
    np.testing.assert_allclose(theta, theta_rows, rtol=1e-10,
                               atol=1e-10 * np.abs(theta_rows).max())
    if kind == "vnls":  # fidelity-built tables are handed on, others built lazily
        assert [r.fidelity is not None for r in rows] == [True, False, True, True]


@pytest.mark.parametrize("flavor", ["real", "complex"])
@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_table_past_dense_limit_leaves_training_bit_identical(monkeypatch, kind,
                                                              flavor):
    # past DENSE_LIMIT the row estimators read the table as they would the
    # model, whose states take the same values in any batch: a tabulated run
    # is the same whether its rows read the table or the model
    monkeypatch.setattr(engine, "DENSE_LIMIT", 9)
    config = TrainConfig(epochs=4, batch_size=256, chains=8, learning_rate=0.1,
                         seed=3)
    assert isinstance(engine._tabulate(init_gaussian(10, flavor=flavor), config),
                      engine._BasisTable)
    tabulated = _train_n10(kind, flavor, config)
    tabulate = engine._tabulate
    model_reads = []

    def reading_the_model(psi, config):
        table = tabulate(psi, config)

        def log_amp(x):
            model_reads.append(np.size(x))
            return psi.log_amp(x)

        table.log_amp = log_amp
        return table

    monkeypatch.setattr(engine, "_tabulate", reading_the_model)
    records, theta = _train_n10(kind, flavor, config)
    assert len(model_reads) == config.epochs
    assert records == tabulated[0]
    assert np.array_equal(theta, tabulated[1])


@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_tabulated_run_is_the_same_at_any_chains_and_burn_in(kind):
    runs = [_train_n10(kind, "real", TrainConfig(
        epochs=3, batch_size=256, chains=chains, burn_in=burn_in,
        learning_rate=0.1, seed=3, oracle_every=1 if kind == "vnls" else 0))
        for chains, burn_in in ((8, None), (1, 0), (32, 500))]
    for records, theta in runs[1:]:
        assert records == runs[0][0]
        assert np.array_equal(theta, runs[0][1])


@pytest.mark.parametrize("flavor", ["real", "complex"])
@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_tabulated_run_draws_exactly(monkeypatch, kind, flavor):
    # pi is drawn by inverse CDF over the table, with no chains: an
    # independence sampler whose proposal is pi accepts every draw
    def refused(*args, **kwargs):
        raise AssertionError("a tabulated run called metropolis_sample")

    monkeypatch.setattr(engine, "metropolis_sample", refused)
    config = TrainConfig(epochs=3, batch_size=256, learning_rate=0.1, seed=3)
    records, _ = _train_n10(kind, flavor, config)
    assert [r.acceptance for r in records] == [1.0] * 3


@pytest.mark.parametrize("flavor, sigma", [("real", 0.1), ("complex", 0.1), ("real", 3.0)])
def test_whole_basis_energies_match_the_row_path(flavor, sigma, rng):
    n = 9
    prob = random_pauli_problem(n, terms=14, seed=6)
    h = random_sum(rng, n, 10)
    psi = init_gaussian(n, sigma=sigma, seed=2, flavor=flavor)
    table = engine._BasisTable(psi)
    batch = engine._draw_pi(table, 300, seed=3)
    beta = sample_beta(prob.b, 300, seed=4)
    matrix = to_sparse(prob.a)
    got = engine._table_vnls_energies(matrix, matrix @ prob.b.amplitudes,
                                      prob.b, table, batch.indices, beta)
    want, _ = vnls_local_energies(prob.a, prob.b, psi, batch.indices, beta)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    got_h = engine._table_energies(table, batch.indices, lambda v: to_sparse(h) @ v)
    want_h = local_energy_h(h, psi, batch.indices)
    np.testing.assert_allclose(got_h, want_h, rtol=1e-12)


def test_whole_basis_energies_finite_wherever_the_row_path_is():
    # a_i = 100 spreads log psi over 1600 e-folds: psi divided by its basis
    # maximum (at x = 0) underflows far from it, but no draw reaches there,
    # as a state's weight underflows first: every state a draw can reach
    # lies less than 372.6 e-folds below the top, where the whole-basis
    # energies agree with the row path, scaled by the states its rows read
    prob = ising_problem(8, 10.0)
    psi = init_gaussian(8, sigma=0.5, seed=0)
    theta = psi.get_params()
    theta[:8] = 100.0
    psi.set_params(theta)
    table = engine._BasisTable(psi)
    la = table.log_amps.real
    drawable = np.exp(2.0 * (la - la.max())) > 0.0
    assert np.all(la[drawable] > la.max() - 372.6)
    assert np.any(np.exp(la - la.max()) == 0.0)  # psi underflows off the draws
    reachable = np.flatnonzero(drawable)
    sampled = engine._draw_pi(table, 64, seed=5).indices
    assert np.isin(sampled, reachable).all()
    weight = np.bitwise_count(np.arange(256))
    b = DenseState((weight >= 6).astype(float))  # beta rows far from the peak
    beta = sample_beta(b, 64, seed=1)
    matrix = to_sparse(prob.a)
    for x in (sampled, reachable):
        got = engine._table_vnls_energies(matrix, matrix @ b.amplitudes,
                                          b, table, x, beta)
        want, _ = vnls_local_energies(prob.a, b, psi, x, beta)
        got_h = engine._table_energies(table, x, lambda v: matrix @ v)
        want_h = local_energy_h(prob.a, psi, x)
        for g, w in ((got, want), (got_h, want_h)):
            assert np.isfinite(w).all()
            np.testing.assert_allclose(g, w, rtol=1e-12)


@pytest.mark.parametrize("oracle_every, dense_limit", [(0, 14), (1, 14), (0, 9)],
                         ids=["0", "1", "0-past-dense-limit"])
@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_basis_table_is_the_only_model_read(monkeypatch, kind, oracle_every,
                                            dense_limit):
    monkeypatch.setattr(engine, "DENSE_LIMIT", dense_limit)
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


@pytest.mark.parametrize("n, batch_size, dense_limit, epochs, builds", [
    (10, 512, 14, 2, 1),   # whole-basis products: one CSR per run
    (12, 32, 14, 2, 0),    # 2^12 > 6 * 32 * 13: the model path
    (10, 512, 9, 2, 0),    # rows read from the table, past DENSE_LIMIT
    (10, 512, 14, 0, 0),   # no epoch
], ids=["table", "model", "table-rows", "zero-epochs"])
@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_whole_basis_matrix_only_on_its_route(monkeypatch, kind, n, batch_size,
                                              dense_limit, epochs, builds):
    monkeypatch.setattr(engine, "DENSE_LIMIT", dense_limit)
    built = []
    rows = RowForm.rows

    def counted(form, x):
        if np.array_equal(x, np.arange(1 << n)):
            built.append(form)
        return rows(form, x)

    monkeypatch.setattr(RowForm, "rows", counted)
    prob = ising_problem(n, 10.0)
    psi = init_gaussian(n, seed=1)
    calls = _counted(psi)
    config = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.1,
                         seed=2)
    if kind == "vnls":
        train_vnls(prob.a, prob.b, psi, config)
    else:
        train_vqmc(prob.a, psi, config)
    assert len(built) == builds
    if not epochs:
        assert calls == []  # nor a table


def test_large_basis_keeps_the_model_path():
    h = ising_problem(16, 10.0).a
    psi = init_gaussian(16, seed=1)
    calls = _counted(psi)
    # 2^16 > 6 * 256 * 17: past the real flavor's table rule
    train_vqmc(h, psi, TrainConfig(epochs=1, batch_size=256, chains=8,
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


@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_dense_limit_reaches_no_training_number(kind):
    # dense_limit bounds the oracle only: a tabulated n = 10 run takes its
    # energies by the same route at the oracle limits 9 and 14
    prob = ising_problem(10, 10.0)

    def run(dense_limit):
        psi = init_gaussian(10, seed=5)
        config = TrainConfig(epochs=4, batch_size=256, chains=8, learning_rate=0.1,
                             seed=3, dense_limit=dense_limit)
        assert isinstance(engine._tabulate(psi, config), engine._BasisTable)
        if kind == "vnls":
            records = train_vnls(prob.a, prob.b, psi, config)
        else:
            records = train_vqmc(prob.a, psi, config)
        for r in records:
            r.wall_ms = 0.0
        return records, psi.get_params()

    (records, theta), (records9, theta9) = run(14), run(9)
    assert records == records9
    assert np.array_equal(theta, theta9)


@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_fidelity_tracking_past_dense_limit_is_refused(kind):
    prob = ising_problem(4, 10.0)
    config = TrainConfig(epochs=1, batch_size=16, oracle_every=1, dense_limit=3)
    with pytest.raises(CapabilityError, match="fidelity tracking needs n <= 3"):
        if kind == "vnls":
            train_vnls(prob.a, prob.b, init_gaussian(4, seed=0), config)
        else:
            train_vqmc(prob.a, init_gaussian(4, seed=0), config)


@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_zero_epoch_tracked_run_computes_no_target(monkeypatch, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("exact target computed for a run with no epoch")

    monkeypatch.setattr(vnls.oracle, "ground_state", refuse)
    monkeypatch.setattr(vnls.oracle, "exact_solve", refuse)
    prob = ising_problem(4, 10.0)
    config = TrainConfig(epochs=0, batch_size=16, oracle_every=1)
    if kind == "vnls":
        assert train_vnls(prob.a, prob.b, init_gaussian(4, seed=0), config) == []
    else:
        assert train_vqmc(prob.a, init_gaussian(4, seed=0), config) == []
    # the size refusal still comes before any epoch
    with pytest.raises(CapabilityError, match="fidelity tracking needs n <= 3"):
        train_vqmc(prob.a, init_gaussian(4, seed=0),
                   TrainConfig(epochs=0, batch_size=16, oracle_every=1, dense_limit=3))


def test_vqmc_refuses_non_hermitian_operator():
    # i * I is not Hermitian: every local energy would be exactly i
    with pytest.raises(ValueError, match="Hermitian"):
        train_vqmc(identity_sum(3, 1j), init_gaussian(3, seed=0), TrainConfig(
            epochs=3, batch_size=32, chains=2, seed=0))


def test_trainers_refuse_a_model_sized_for_another_operator():
    # past 16 qubits the RBM's byte tables would read an n = 20 index as an
    # n = 18 one and train without complaint
    config = TrainConfig(epochs=2, batch_size=64)
    with pytest.raises(ValueError, match="psi is on 18 qubits but the operator on 20"):
        train_vqmc(ising_problem(20, 10).a, init_gaussian(18, seed=1), config)
    prob = ising_problem(4, 10.0)
    with pytest.raises(ValueError, match="psi is on 3 qubits but the operator on 4"):
        train_vnls(prob.a, prob.b, init_gaussian(3, seed=1), config)
    with pytest.raises(ValueError, match="b is on 3 qubits but the operator on 4"):
        train_vnls(prob.a, DenseState(np.ones(8)), init_gaussian(4, seed=1), config)


def test_local_energy_h_refuses_a_model_sized_for_another_operator():
    # an n = 8 model read at n = 4 rows gave finite energies without complaint
    with pytest.raises(ValueError, match="psi is on 8 qubits but the operator on 4"):
        local_energy_h(ising_problem(4, 10).a, init_gaussian(8), [3, 200])


def test_vnls_local_energies_refuse_states_sized_for_another_operator():
    prob = ising_problem(4, 10)
    beta = sample_beta(prob.b, 8, seed=0)
    with pytest.raises(ValueError, match="psi is on 8 qubits but the operator on 4"):
        vnls_local_energies(prob.a, prob.b, init_gaussian(8), [3, 12], beta)
    with pytest.raises(ValueError, match="b is on 3 qubits but the operator on 4"):
        vnls_local_energies(prob.a, DenseState(np.ones(8)), init_gaussian(4),
                            [3, 12], beta)


def test_training_warns_once_when_the_batch_holds_one_state():
    # a step too large for this operator's scale puts pi on one basis state
    # after the first epoch; its centred rows, gradient and Fisher are zero
    prob = random_pauli_problem(10, terms=40, seed=0)
    psi = init_gaussian(10, seed=0)
    config = TrainConfig(epochs=10, batch_size=128, chains=4, learning_rate=0.02, seed=0)
    with pytest.warns(RuntimeWarning, match="epoch 1: every pi sample is state") as seen:
        records = train_vnls(prob.a, prob.b, psi, config)
    assert len([w for w in seen if w.category is RuntimeWarning]) == 1
    assert [r.distinct_states for r in records[1:]] == [1] * 9
    assert all(r.grad_norm == 0.0 for r in records[1:])


def test_sr_state_defaults_are_train_config_defaults():
    sr = SRState(grad=np.zeros(1), fisher=np.zeros((1, 1)))
    for name in ("learning_rate", "shift", "ridge"):
        assert getattr(sr, name) == getattr(TrainConfig(), name), name


def test_tabulate_rule():
    # thin defaults to 11; 2^10 <= c * batch * thin, c = 6 for either flavor
    psi = init_gaussian(10, seed=0)
    assert isinstance(engine._tabulate(psi, TrainConfig(batch_size=16)),
                      engine._BasisTable)
    assert engine._tabulate(psi, TrainConfig(batch_size=15)) is psi
    assert engine._tabulate(psi, TrainConfig(batch_size=15, thin=12)) is not psi
    complex_psi = init_gaussian(10, seed=0, flavor="complex")
    assert isinstance(engine._tabulate(complex_psi, TrainConfig(batch_size=16)),
                      engine._BasisTable)
    assert engine._tabulate(complex_psi, TrainConfig(batch_size=15)) is complex_psi
    # the oracle's dense limit does not bound the table
    assert isinstance(engine._tabulate(psi, TrainConfig(dense_limit=9)),
                      engine._BasisTable)
    dense = DenseState(np.ones(1 << 10))
    assert engine._tabulate(dense, TrainConfig()) is dense
    table = engine._tabulate(psi, TrainConfig())
    x = np.array([3, 1023, 0, 3, 512, 7, 99, 3], dtype=np.int64)
    assert np.array_equal(table.log_amp(x), psi.log_amp(x))
    assert isinstance(table.log_amp(5), complex)


@pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 1.0, 1.0],
                                     [np.nan, 1.0, 1.0, 1.0], [np.inf, 1.0, 1.0, 1.0]],
                         ids=["all-zero", "negative", "nan", "inf"])
def test_estimators_refuse_bad_weights(weights):
    psi = init_gaussian(3, seed=0)
    o = psi.log_grad(np.arange(4))
    l = np.array([1.0, 2.0, 0.5, 1.0 + 1j])
    for estimate in (lambda: estimate_objective(l, weights=weights),
                     lambda: estimate_variance(l, weights=weights),
                     lambda: estimate_gradient(l, o, weights=weights),
                     lambda: estimate_fisher(o, weights=weights)):
        with pytest.raises(ValueError, match="weights"):
            estimate()


def test_estimators_refuse_an_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        estimate_gradient(np.zeros(0), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="empty"):
        estimate_fisher(np.zeros((0, 3)))


def test_zero_weights_drop_their_samples():
    psi = init_gaussian(3, seed=0, flavor="complex")
    o = psi.log_grad(np.arange(5))
    l = np.array([1.0, 2.0, 0.5, 1.0 + 1j, 7.0])
    w = np.array([1.0, 2.0, 0.0, 1.0, 0.0])
    keep = w > 0
    np.testing.assert_allclose(estimate_gradient(l, o, weights=w),
                               estimate_gradient(l[keep], o[keep], weights=w[keep]),
                               rtol=1e-14)
    np.testing.assert_allclose(estimate_fisher(o, weights=w),
                               estimate_fisher(o[keep], weights=w[keep]), rtol=1e-14)
    assert estimate_variance(l, weights=w) == pytest.approx(
        estimate_variance(l[keep], weights=w[keep]), rel=1e-14)


def _spied_epochs(monkeypatch, kind, flavor, tabulated):
    """Train n = 8 with spies; per epoch, the drawn pi batch, the batch the
    energy function got, its energies and those of the drawn batch, the
    log_grad indices and the drawn batch's rows, and the (f, g) handed to
    _sr_solve.  Returns (per-epoch dicts, records)."""
    prob = ising_problem(8, 10.0)
    psi = init_gaussian(8, sigma=0.3, seed=2, flavor=flavor)
    config = TrainConfig(epochs=3, batch_size=256, chains=4,
                         learning_rate=0.05, seed=6)
    seen = []
    if not tabulated:
        monkeypatch.setattr(engine, "_tabulate", lambda psi, config: psi)
    draw_pi, sample = engine._draw_pi, engine.metropolis_sample

    def spy_draw_pi(*args, **kwargs):
        batch = draw_pi(*args, **kwargs)
        seen.append({"drawn": batch})
        return batch

    def spy_sample(*args, **kwargs):
        batch, states = sample(*args, **kwargs)
        seen.append({"drawn": batch})
        return batch, states

    monkeypatch.setattr(engine, "_draw_pi", spy_draw_pi)
    monkeypatch.setattr(engine, "metropolis_sample", spy_sample)
    train, log_grad, sr_solve = engine._train, type(psi).log_grad, engine._sr_solve

    def spy_train(op, psi, config, energy_fn, *args, **kwargs):
        def energy(source, batch, epoch, matrix):
            l = energy_fn(source, batch, epoch, matrix)
            seen[-1].update(batch=batch, l=l, l_drawn=energy_fn(
                source, seen[-1]["drawn"], epoch, matrix))
            return l
        return train(op, psi, config, energy, *args, **kwargs)

    def spy_log_grad(self, x):
        seen[-1].update(grad_x=np.array(x),
                        o_drawn=log_grad(self, seen[-1]["drawn"].indices))
        return log_grad(self, x)

    def spy_sr_solve(theta, m, g, *args):
        seen[-1].update(f=m.copy(), g=g.copy())
        return sr_solve(theta, m, g, *args)

    monkeypatch.setattr(engine, "_train", spy_train)
    monkeypatch.setattr(type(psi), "log_grad", spy_log_grad)
    monkeypatch.setattr(engine, "_sr_solve", spy_sr_solve)
    if kind == "vnls":
        records = train_vnls(prob.a, prob.b, psi, config)
    else:
        records = train_vqmc(prob.a, psi, config)
    assert len(seen) == config.epochs
    return seen, records


@pytest.mark.parametrize("tabulated", [True, False], ids=["table", "model"])
@pytest.mark.parametrize("flavor", ["real", "complex"])
@pytest.mark.parametrize("kind", ["vnls", "vqmc"])
def test_epoch_statistics_are_taken_once_per_distinct_state(monkeypatch, kind,
                                                            flavor, tabulated):
    seen, records = _spied_epochs(monkeypatch, kind, flavor, tabulated)
    for epoch, (s, r) in enumerate(zip(seen, records)):
        drawn = s["drawn"]
        distinct, first, inverse = np.unique(drawn.indices, return_index=True,
                                             return_inverse=True)
        assert distinct.size < len(drawn)  # the batch repeats states
        # the energy function and log_grad see each drawn state once, sorted
        assert np.array_equal(s["batch"].indices, distinct)
        assert np.array_equal(s["batch"].log_amps, drawn.log_amps[first])
        assert np.array_equal(s["grad_x"], distinct)
        assert r.distinct_states == distinct.size
        # a state's energy has the same bits alone as in the drawn batch, so
        # loss and loss_var are the drawn batch's mean and variance
        l_drawn = s["l_drawn"]
        assert np.array_equal(s["l"][inverse], l_drawn)
        mean = np.mean(l_drawn)
        assert r.loss == float(mean.real) and r.loss_imag == float(mean.imag)
        assert r.loss_var == float(np.mean(np.abs(l_drawn - mean) ** 2))
        # and the SR inputs are the full-batch estimates, summed in another
        # order: an entry near zero may differ by an ulp of the largest
        f = estimate_fisher(s["o_drawn"])
        if np.iscomplexobj(f):
            f = engine._symmetrized(f)
        g = estimate_gradient(l_drawn, s["o_drawn"])
        for got, want in ((s["f"], f), (s["g"], g)):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())


def test_distinct_states_show_a_collapsed_solve():
    # one SR step moves psi onto one basis state: from epoch 1 every exact
    # draw is that state, and the loss stays far above the solution's 0
    prob = random_pauli_problem(10, terms=40, seed=0)
    records = train_vnls(prob.a, prob.b, init_gaussian(10, seed=0), TrainConfig(
        epochs=6, batch_size=128, chains=4, learning_rate=0.02, seed=0))
    counts = [r.distinct_states for r in records]
    assert counts[0] >= 2 and counts[1:] == [1] * 5
    for r in records[1:]:
        assert r.loss == pytest.approx(390.8, abs=0.05)
