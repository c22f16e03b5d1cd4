"""Traced replays of the training loop, with spans around every layer call.

``traced_replays`` calls the same public vnls functions, in the same order
and with the same seed streams, as the package's training loop
(engine._train with the solver or ground-state energy function), wrapping
each call in a span.  It runs two replays of one training run, an epoch of
each in turn.  The ``phases`` replay has only these spans.  The ``inner``
replay also spans the calls the sampler and the engine make into the states
and operators layers, by wrapping its model's methods and the operator
functions the engine module looks up at call time (restored after each
epoch).  Those inner spans are many (one per Metropolis step), so the phase
timings come from the first replay and the operators calls and each
layer's self time from the second.  Taking turns epoch by epoch lets both
replays meet the same host speed, so the difference between their phases
is the cost of the inner spans.  Spans are kept in memory and written out
by the caller.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager

import numpy as np

# stream ids of the package's training loop: pi samples, beta samples
PI_STREAM, BETA_STREAM = 0, 1

LAYERS = ("sampling", "states", "operators", "engine", "oracle")
INNER_LAYERS = ("sampling", "engine")  # layers whose phases hold the inner spans


class Tracer:
    """Spans as [name, start, end, parent index] in perf_counter seconds."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def total(self, name):
        """Summed duration of every span called ``name``."""
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def epoch_phase_times(self, layer):
        """Per epoch: summed duration of the layer's phase spans, the
        direct children of that epoch's span."""
        out = []
        for name, start, end, parent in self.spans:
            if name == "train.epoch":
                out.append(0.0)
            elif (parent >= 0 and self.spans[parent][0] == "train.epoch"
                  and name.split(".", 1)[0] == layer):
                out[-1] += end - start
        return out

    def self_times(self):
        """Per layer (name prefix before the first dot): span time minus the
        time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _patched(module, names, tracer, prefix):
    saved = {name: getattr(module, name) for name in names}
    try:
        for name, fn in saved.items():
            setattr(module, name, tracer.wrap(f"{prefix}.{name}", fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def _computed_counts(vnls, a, x, beta_x):
    """Row slots and amplitude-table size of one epoch's local energies,
    computed from its own indices with expand_rows + np.unique (the slot
    layout of the current engine), outside any span."""
    cols1, _ = vnls.operators.expand_rows(a, x)
    if beta_x is None:  # ground state: one row expansion, table over columns
        slots = cols1.size
        unique = np.unique(cols1).size
        return slots, unique, slots
    cols2, _ = vnls.operators.expand_rows(a, cols1.reshape(-1))
    bcols, _ = vnls.operators.expand_rows(a, beta_x)
    slots = cols1.size + cols2.size + bcols.size
    unique = np.unique(np.concatenate([x, cols2.reshape(-1), bcols.reshape(-1)])).size
    lookups = x.size + cols2.size + bcols.size
    return slots, unique, lookups


def traced_replays(vnls, kind, a, b, new_model, config, target):
    """The two replays of one training run from models ``new_model()``.

    Returns ``{"phases": (tracer, losses), "inner": (tracer, losses)}`` and
    the counts of the phases replay.
    """
    engine = vnls.engine
    stats = {"proposals": 0, "samples": 0, "accepted_share": [], "fallbacks": 0,
             "slots": 0, "unique": 0, "lookups": 0}
    replays = {"phases": (Tracer(), new_model(), []), "inner": (Tracer(), new_model(), [])}
    tracer, psi, _ = replays["inner"]
    for name in ("log_amp", "log_prob"):
        setattr(psi, name, tracer.wrap(f"states.{name}", getattr(psi, name)))
    for epoch in range(config.epochs):
        order = ("phases", "inner") if epoch % 2 == 0 else ("inner", "phases")
        for key in order:
            tracer, psi, losses = replays[key]
            operators = ("expand_rows", "apply_to_state") if key == "inner" else ()
            with _patched(engine, operators, tracer, "operators"), tracer.span("train.epoch"):
                loss, outputs = _traced_epoch(vnls, kind, a, b, psi, config,
                                              target, tracer, epoch)
            losses.append(loss)
            if key == "phases":
                _count(vnls, a, stats, *outputs)  # outside the epoch's span
    return {key: (tracer, losses) for key, (tracer, _, losses) in replays.items()}, stats


def _traced_epoch(vnls, kind, a, b, psi, config, target, tracer, epoch):
    with tracer.span("sampling.metropolis_sample"):
        batch, chain_states = vnls.metropolis_sample(
            psi, psi.n, config.batch_size, chains=config.chains,
            burn_in=config.burn_in, thin=config.thin,
            seed=(config.seed, PI_STREAM, epoch))
    beta = None
    with tracer.span("sampling.sample_beta"):  # empty phase for ground states
        if kind == "solve":
            beta = vnls.sample_beta(b, config.batch_size,
                                    seed=(config.seed, BETA_STREAM, epoch))
    with tracer.span("engine.local_energies"):
        if kind == "solve":
            l, _ = vnls.vnls_local_energies(a, b, psi, batch.indices, beta)
        else:
            l = vnls.local_energy_h(a, psi, batch.indices, log_amp_x=batch.log_amps)
    with tracer.span("states.log_grad"):
        o = psi.log_grad(batch.indices)
    l_hat = complex(np.mean(l))
    with tracer.span("engine.estimate_gradient"):
        g = vnls.estimate_gradient(l, o, l_hat=l_hat)
    with tracer.span("engine.estimate_fisher"):
        f = vnls.estimate_fisher(o)
    with tracer.span("engine.sr_step"):
        theta, fallback = vnls.sr_step(psi.get_params(), vnls.SRState(
            g, f, config.learning_rate, config.shift, config.ridge))
    with tracer.span("states.set_params"):
        psi.set_params(theta)
    with tracer.span("oracle.fidelity_check"):  # empty phase without a target
        if target is not None:
            vnls.fidelity(vnls.dense_vector(psi, config.dense_limit), target)
    return float(l_hat.real), (batch, chain_states, beta, fallback)


def _count(vnls, a, stats, batch, chain_states, beta, fallback):
    stats["proposals"] += sum(cs.proposed for cs in chain_states)
    stats["samples"] += len(batch)
    stats["accepted_share"].append(vnls.acceptance_stats(chain_states))
    stats["fallbacks"] += int(fallback)
    slots, unique, lookups = _computed_counts(
        vnls, a, batch.indices, None if beta is None else beta.indices)
    stats["slots"] += slots
    stats["unique"] += unique
    stats["lookups"] += lookups


def layer_metrics(phases, inner, stats, epochs, setup):
    """Per-layer metrics of one training run, per epoch unless the name says
    otherwise.  ``phases`` and ``inner`` are the tracers of the replays
    without and with inner spans; ``stats`` comes from the first and
    ``setup`` holds the traced set-up's figures."""
    per_epoch_ms = 1e3 / epochs
    metropolis = phases.total("sampling.metropolis_sample")
    out = {
        "sampling.metropolis_ms": (metropolis * per_epoch_ms, "ms"),
        "sampling.proposals_per_s": (stats["proposals"] / metropolis, "1/s"),
        "sampling.proposals_per_epoch": (stats["proposals"] / epochs, "count"),
        "sampling.samples_per_proposal": (stats["samples"] / stats["proposals"], "ratio"),
        "sampling.acceptance": (float(np.mean(stats["accepted_share"])), "ratio"),
        "sampling.beta_ms": (phases.total("sampling.sample_beta") * per_epoch_ms, "ms"),
        "operators.row_slots_per_sample": (stats["slots"] / stats["samples"], "count"),
        "operators.expand_ms": (inner.total("operators.expand_rows") * per_epoch_ms, "ms"),
        "engine.local_energy_ms": (phases.total("engine.local_energies") * per_epoch_ms, "ms"),
        "engine.amp_table_size": (stats["unique"] / epochs, "count"),
        "engine.slots_per_unique_col": (stats["lookups"] / stats["unique"], "ratio"),
        "states.log_grad_ms": (phases.total("states.log_grad") * per_epoch_ms, "ms"),
        "engine.gradient_ms": (phases.total("engine.estimate_gradient") * per_epoch_ms, "ms"),
        "engine.fisher_ms": (phases.total("engine.estimate_fisher") * per_epoch_ms, "ms"),
        "engine.sr_ms": (phases.total("engine.sr_step") * per_epoch_ms, "ms"),
        "engine.sr_fallbacks": (float(stats["fallbacks"]), "count"),
        "oracle.fidelity_check_ms": (phases.total("oracle.fidelity_check") * per_epoch_ms, "ms"),
        "oracle.exact_solve_s": (setup["exact_solve_s"], "s"),
        "oracle.exact_solve_rss_mb": (setup["exact_solve_rss_mb"], "MB"),
        "problems.build_ms": (setup["build_ms"], "ms"),
        "vnls.import_s": (setup["import_s"], "s"),
    }
    selfs = inner.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (selfs.get(layer, 0.0) * per_epoch_ms, "ms")
    # what the inner spans add to the phases that hold them: the median over
    # epochs, since another tenant's burst can stall one replay's epoch
    for layer in INNER_LAYERS:
        ratio = np.median(np.divide(inner.epoch_phase_times(layer),
                                    phases.epoch_phase_times(layer)))
        out[f"trace.{layer}_overhead_pct"] = (100.0 * float(ratio - 1.0), "%")
    return out
