"""One fresh interpreter of a benchmark run: set up, train, report.

Started by run.py with the checkout's ``src`` on PYTHONPATH and every BLAS /
OpenMP pool pinned to one thread.  It times its own set-up end on the
system-wide monotonic clock, so the parent can measure set-up from the
moment it started this interpreter.  It prints one JSON object as its last
line; the parent checks the outputs against the reference.
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class _EpochHook:
    """Wraps one model's set_params: every training loop ends an epoch by
    writing the updated parameters, so this gives each epoch's end time on
    the benchmark's clock and the parameters that epoch produced."""

    def __init__(self, psi):
        self.times = []
        self.params = []
        self._set = psi.set_params
        psi.set_params = self

    def __call__(self, theta):
        self._set(theta)
        self.times.append(time.perf_counter())
        self.params.append(theta.copy())


class _TargetCache:
    """Serves the set-up's oracle solution to the training call.

    train_vnls solves A x = b itself when fidelity tracking is on; one
    `vnls solve` invocation pays that once, before its first epoch.  The
    benchmark pays it in the timed set-up and hands the result to the
    training call, so the training clock holds epochs only.
    """

    def __init__(self, oracle, a, b, solution):
        self.oracle, self.key, self.solution = oracle, (id(a), id(b)), solution
        self.real = oracle.exact_solve
        self.hits = 0

    def __call__(self, a, b, *args, **kwargs):
        if (id(a), id(b)) == self.key:
            self.hits += 1
            return self.solution
        return self.real(a, b, *args, **kwargs)

    def __enter__(self):
        self.oracle.exact_solve = self
        return self

    def __exit__(self, *exc):
        self.oracle.exact_solve = self.real


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--input", default=None)
    p.add_argument("--seeds", required=True, help="comma-separated model seeds")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args()

    # ---- set-up: what a vnls invocation pays before its first epoch ----
    import_start = time.perf_counter()
    import vnls
    import_end = time.perf_counter()
    if not Path(vnls.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"vnls imported from {vnls.__file__}, not from this checkout")
    sys.path.insert(0, str(HERE))
    import numpy as np  # already loaded by vnls
    from spans import Tracer, layer_metrics, peak_rss_mb, traced_replays
    from workloads import ISING_KAPPA, WORKLOADS
    w = WORKLOADS[args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]
    setup_tracer = Tracer()
    setup_tracer.spans.append(["vnls.import", import_start, import_end, -1])
    with setup_tracer.span("problems.build"):
        if w.problem == "ising":
            problem = vnls.ising_problem(w.n, ISING_KAPPA)
            a, b = problem.a, problem.b
        elif w.problem == "stoquastic":
            problem = vnls.load_problem(args.input)
            a, b = problem.a, problem.b
        else:
            a, b = vnls.load_operator(args.input), None
    rss_before = peak_rss_mb()
    target = None
    with setup_tracer.span("oracle.exact_solve"):  # empty phase for ground states
        if w.kind == "solve":
            target = vnls.exact_solve(a, b)
    rss_solve = peak_rss_mb() - rss_before
    with setup_tracer.span("states.init_gaussian"):
        psi = vnls.init_gaussian(w.n, alpha=w.alpha, seed=seeds[0])
    setup_end = time.monotonic()

    result = {"setup_end": setup_end, "models": []}
    if target is not None:
        result["target"] = [target.real.tolist(), target.imag.tolist()]

    def config(seed):
        return vnls.TrainConfig(epochs=w.epochs, batch_size=w.batch_size,
                                chains=w.chains, learning_rate=w.learning_rate,
                                seed=seed, oracle_every=1 if target is not None else 0)

    def train(psi, seed):
        """The timed training call: train_vnls or train_vqmc, as users call it."""
        if target is None:
            return vnls.train_vqmc(a, psi, config(seed))
        with _TargetCache(vnls.oracle, a, b, target) as cache:
            records = vnls.train_vnls(a, b, psi, config(seed))
        if cache.hits != 1:
            raise RuntimeError("train_vnls no longer takes its target from "
                               "vnls.oracle.exact_solve; perfbench/child.py "
                               "must follow the new path")
        return records

    for i, seed in enumerate(seeds):
        if i:
            psi = vnls.init_gaussian(w.n, alpha=w.alpha, seed=seed)
        model = {"seed": seed, "params0": psi.get_params().tolist()}
        if target is not None:
            model["fidelity0"] = vnls.fidelity(vnls.dense_vector(psi), target)
        hook = _EpochHook(psi)
        try:
            start = time.perf_counter()
            records = train(psi, seed)
            model["train_s"] = time.perf_counter() - start
        except Exception as exc:  # a failed training run is a counted failure
            model["error"] = f"{type(exc).__name__}: {exc}"
            result["models"].append(model)
            continue
        if len(hook.times) != w.epochs or len(records) != w.epochs:
            raise RuntimeError("training no longer updates the model through "
                               "set_params once per epoch")
        model["epoch_end_s"] = [t - start for t in hook.times]
        model["params"] = [p.tolist() for p in hook.params]
        model["loss"] = [r.loss for r in records]
        model["loss_var"] = [r.loss_var for r in records]
        model["fidelity"] = [r.fidelity for r in records]
        model["sr_fallbacks"] = sum(r.sr_fallback for r in records)
        result["models"].append(model)
    result["peak_rss_mb"] = peak_rss_mb()

    untraced = result["models"][0]
    if args.trace and "train_s" in untraced:
        # replay the first training run twice and compare the losses of both
        replays, stats = traced_replays(
            vnls, w.kind, a, b, lambda: vnls.init_gaussian(w.n, alpha=w.alpha, seed=seeds[0]),
            config(seeds[0]), target)
        (phases, losses), (inner, inner_losses) = replays["phases"], replays["inner"]
        setup = {
            "import_s": setup_tracer.total("vnls.import"),
            "build_ms": setup_tracer.total("problems.build") * 1e3,
            "exact_solve_s": setup_tracer.total("oracle.exact_solve"),
            "exact_solve_rss_mb": rss_solve,
        }
        metrics = layer_metrics(phases, inner, stats, w.epochs, setup)
        metrics["trace.losses_match"] = (
            float(losses == untraced["loss"] and inner_losses == untraced["loss"]), "count")
        replayed = [end - start for name, start, end, _ in phases.spans
                    if name == "train.epoch"]
        trained = np.diff(untraced["epoch_end_s"], prepend=0.0)
        metrics["trace.overhead_pct"] = (
            100.0 * float(np.median(replayed) / np.median(trained) - 1.0), "%")
        result["layers"] = {k: [float(v), u] for k, (v, u) in metrics.items()}
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps({
                "workload": w.name, "seed": seeds[0],
                "fields": ["name", "start_s", "end_s", "parent"],
                "setup_spans": setup_tracer.spans, "phase_spans": phases.spans,
                "inner_spans": inner.spans,
            }))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
