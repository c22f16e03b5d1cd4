"""Workload definitions and the inputs they generate from a seed.

Nothing here imports vnls.  Operators are plain term lists
``[(coefficient, {qubit: letter}), ...]`` over n qubits (qubit 0 is the
most significant bit, as in the package), so the independent reference can
build them from bit operations while the program reads them from the text
files the package documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ISING_N, ISING_KAPPA = 12, 10.0
TFIM_N = 16
WIDE_N = 10
WIDE_TERMS = 40      # half X-strings, half Z-strings, plus the identity
WIDE_LOCALITY = 3
WIDE_MARGIN = 0.1    # identity shift beyond the Weyl bound, as a share of it

SOLVE_TARGET_FACTOR = 10.0   # target: 1-F <= (1-F0) / 10
VQMC_TARGET_REL = 5e-3       # target: (E - E0) / |E0| <= 5e-3


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str           # "ising" (built-in), "stoquastic" (seeded), "tfim"
    n: int
    learning_rate: float
    batch_size: int
    chains: int
    alpha: float
    epochs: int            # per training run; above every seed's target epoch
    children: int          # fresh interpreters per run, one set-up each
    models_per_child: int  # training runs per interpreter, distinct seeds

    @property
    def kind(self):
        """Training call: "solve" for train_vnls, "vqmc" for train_vqmc."""
        return "vqmc" if self.problem == "tfim" else "solve"


# Why each workload exists is stated in BENCHMARK.json and the README.
WORKLOADS = {w.name: w for w in (
    Workload("solve-n12", "ising", ISING_N, 0.2, 1024, 8, 2.0, 18, 1, 6),
    Workload("solve-wide-n10", "stoquastic", WIDE_N, 1.0, 512, 8, 2.0, 30, 4, 1),
    Workload("vqmc-n16", "tfim", TFIM_N, 0.05, 1024, 8, 2.0, 45, 3, 1),
)}


def model_seed(run_seed, index):
    """Seed of the index-th training run (model init and chains) of a run."""
    return 1000 * int(run_seed) + int(index)


def ising_terms(n=ISING_N, kappa=ISING_KAPPA):
    """The built-in family written out from its documented formula.

    A = (sum_j X_j + 0.1 sum_j Z_j Z_{j+1} + eta I) / zeta with
    eta = n (kappa+1)/(kappa-1), zeta = n + eta; b is all ones.
    """
    eta = n * (kappa + 1.0) / (kappa - 1.0)
    zeta = n + eta
    terms = [(1.0 / zeta, {j: "X"}) for j in range(n)]
    terms += [(0.1 / zeta, {j: "Z", j + 1: "Z"}) for j in range(n - 1)]
    terms.append((eta / zeta, {}))
    return terms, np.ones(1 << n)


def tfim_terms(n=TFIM_N):
    """Open critical transverse-field chain -sum Z_j Z_{j+1} - sum X_j."""
    terms = [(-1.0, {j: "Z", j + 1: "Z"}) for j in range(n - 1)]
    terms += [(-1.0, {j: "X"}) for j in range(n)]
    return terms


def _gf2_rank(masks):
    rows = [int(m) for m in masks]
    rank = 0
    for bit in reversed(range(64)):
        pivot = next((r for r in rows if r >> bit & 1), None)
        if pivot is None:
            continue
        rows = [r ^ pivot if r >> bit & 1 else r for r in rows if r != pivot]
        rank += 1
    return rank


def _random_string(rng, n, letter):
    width = int(rng.integers(1, min(n, WIDE_LOCALITY) + 1))
    qubits = sorted(int(q) for q in rng.choice(n, size=width, replace=False))
    return {q: letter for q in qubits}


def stoquastic_problem(seed, index=0, n=WIDE_N, terms=WIDE_TERMS):
    """Seeded stoquastic operator and non-uniform product-state b.

    Half the terms are X-strings with coefficient -1, half are Z-strings
    with coefficient +1 or -1, so every off-diagonal entry is <= 0.  Unit
    magnitudes keep the convergence rate of training alike across seeds
    (with random magnitudes, epochs to target ranged from 15 to 27).  The
    identity coefficient is the Weyl bound S = sum |c| plus a margin, which
    makes the operator positive definite, and the whole sum is divided by
    the upper Weyl bound 2S + margin, so its spectrum lies in (0, 1] as for
    the built-in family.  X masks are redrawn until they span all n bits,
    so the off-diagonal graph is connected: A is an irreducible M-matrix
    and A^{-1} b is entrywise positive for b > 0, which a real RBM can
    express.  ``index`` selects one of several problems under one seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(index),)))
    half = terms // 2
    while True:
        xs = [_random_string(rng, n, "X") for _ in range(half)]
        masks = [sum(1 << (n - 1 - q) for q in f) for f in xs]
        if _gf2_rank(masks) == n:
            break
    out = [(-1.0, f) for f in xs]
    out += [(float(rng.choice([-1.0, 1.0])), _random_string(rng, n, "Z"))
            for _ in range(terms - half)]
    weyl = float(len(out))
    shift = weyl * (1.0 + WIDE_MARGIN)
    scale = weyl + shift
    out = [(c / scale, f) for c, f in out] + [(shift / scale, {})]

    theta = rng.uniform(0.15 * np.pi, 0.35 * np.pi, size=n)
    b = np.ones(1)
    for t in theta:
        b = np.kron(b, [np.cos(t), np.sin(t)])
    return out, b


def _format_term(coefficient, factors):
    tokens = [f"{letter}{q}" for q, letter in sorted(factors.items())] or ["I"]
    return f"{float(coefficient)!r} " + " ".join(tokens)


def operator_text(n, terms):
    """Operator file body in the package's documented format."""
    return "\n".join([f"n={n}"] + [_format_term(c, f) for c, f in terms]) + "\n"


def problem_text(n, terms, b):
    """Problem file body: operator lines, then b as a dense section."""
    lines = [_format_term(c, f) for c, f in terms] + ["b dense"]
    lines += [f"{float(v)!r} 0.0" for v in b]
    return f"n={n}\n" + "\n".join(lines) + "\n"
