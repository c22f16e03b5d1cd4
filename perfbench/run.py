"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.WORKLOADS`` from the root of a checkout.
Each set-up happens in a fresh interpreter (child.py) so that set-up time
counts from interpreter start; every child then trains its models with the
package's public training calls.  A run's work is fixed by the workload (its
interpreters and training runs), so every metric covers the same models on
any host; ``--seconds`` is only recorded, and run_seconds in BENCHMARK.json
states about how long the longer runs take.  Outputs are checked here
against the independent reference (reference.py), in this process, which
never imports vnls.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).  Full results go to perfbench/out/.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_TIMEOUT_S = 150.0   # shared by a run's interpreters, so a run ends in time
# counts taken from the inputs (expand_rows + np.unique on an epoch's own
# indices), not from the program's behaviour
COMPUTED = ("operators.row_slots_per_sample", "engine.amp_table_size",
            "engine.slots_per_unique_col")


class Instance:
    """One problem a child trains on, with its reference answers."""

    def __init__(self, w, seed, index):
        self.input = None
        if w.problem == "ising":
            terms, self.b = wl.ising_terms()
        elif w.problem == "stoquastic":
            terms, self.b = wl.stoquastic_problem(seed, index)
            self.input = OUT / f"{w.name}-seed{seed}-{index}.txt"
            self.input.write_text(wl.problem_text(w.n, terms, self.b))
        else:
            terms, self.b = wl.tfim_terms(), None
            self.input = OUT / f"{w.name}.txt"
            self.input.write_text(wl.operator_text(w.n, terms))
        self.matrix = ref.pauli_matrix(w.n, terms)
        if w.kind == "solve":
            self.solution = ref.solve(self.matrix, self.b)
        else:
            self.e0 = ref.ground_energy(self.matrix)


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(w, instance, seeds, trace, trace_out, timeout):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", w.name,
           "--seeds", ",".join(map(str, seeds)), "--trace", str(trace)]
    if instance.input is not None:
        cmd += ["--input", str(instance.input)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:] or ["no output"]}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_end"] - spawned
    return out


def check_solve(w, inst, program_target, model):
    """Reference checks of one solver training run; returns (epoch, failures)."""
    fails = []
    target = np.asarray(program_target[0]) + 1j * np.asarray(program_target[1])
    if ref.fidelity(target, inst.solution) < 1.0 - 1e-10:
        fails.append("exact_solve disagrees with the reference solution")
    f0 = model["fidelity0"]
    f0_ref = ref.fidelity(ref.rbm_vector(model["params0"], w.n), inst.solution)
    if abs(f0 - f0_ref) > 1e-9:
        fails.append(f"initial fidelity {f0!r} vs reference {f0_ref!r}")
    goal = (1.0 - f0) / wl.SOLVE_TARGET_FACTOR
    hit = next((k for k, f in enumerate(model["fidelity"]) if 1.0 - f <= goal), None)
    if hit is None:
        return None, fails + ["target infidelity not reached"]
    goal_ref = (1.0 - f0_ref) / wl.SOLVE_TARGET_FACTOR
    for k in (hit, w.epochs - 1):
        f_ref = ref.fidelity(ref.rbm_vector(model["params"][k], w.n), inst.solution)
        if abs(f_ref - model["fidelity"][k]) > 1e-9:
            fails.append(f"epoch {k}: tracked fidelity {model['fidelity'][k]!r} "
                         f"vs reference {f_ref!r}")
        if not 1.0 - f_ref <= goal_ref:
            fails.append(f"epoch {k}: reference infidelity {1 - f_ref:.3e} above "
                         f"target {goal_ref:.3e}")
    return hit, fails


def check_vqmc(w, inst, model):
    """Reference checks of one ground-state run; returns (epoch, failures).

    The target epoch is the first whose updated model has an exact energy
    (reference) within the target; the program's own per-epoch estimates
    carry Monte Carlo noise that would make a first passage erratic.
    """
    e0 = inst.e0

    def rel_error(k):
        energy = ref.energy(inst.matrix, ref.rbm_vector(model["params"][k], w.n))
        return (energy - e0) / abs(e0)

    hit = next((k for k in range(w.epochs) if rel_error(k) <= wl.VQMC_TARGET_REL), None)
    if hit is None:
        return None, ["target energy not reached"]
    fails = []
    rel = rel_error(w.epochs - 1)
    if not rel <= wl.VQMC_TARGET_REL:
        fails.append(f"final model off E0 by {rel:.2e} of |E0|")
    final = model["loss"][-1]
    sigma = math.sqrt(model["loss_var"][-1] / w.batch_size)
    if final < e0 - 4.0 * sigma:
        fails.append(f"final estimate {final!r} below E0 - 4 sigma")
    return hit, fails


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="recorded only: the workload fixes a run's work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "vnls" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vnls sources under {ROOT / 'src'}")
    w = wl.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run_start = time.monotonic()
    tag = f"{w.name}-seed{args.seed}" + ("-trace" if args.trace else "")

    children, models, log = [], [], []   # child outputs, checked models
    attempted = failed = 0
    n_children = 1 if args.trace else w.children
    inst = None
    for index in range(n_children):
        if inst is None or w.problem == "stoquastic":  # a new problem per interpreter
            inst = Instance(w, args.seed, index)
        seeds = [wl.model_seed(args.seed, index * w.models_per_child + i)
                 for i in range(1 if args.trace else w.models_per_child)]
        trace_out = OUT / f"{tag}-spans.json" if args.trace else None
        try:
            out = run_child(w, inst, seeds, args.trace, trace_out,
                            timeout=RUN_TIMEOUT_S / n_children)
        except subprocess.TimeoutExpired:
            out = {"error": ["child timed out"]}
        children.append(out)
        if "error" in out:
            attempted += len(seeds) * (1 + w.epochs)
            failed += len(seeds) * (1 + w.epochs)
            log.append(f"child {index} failed: {out['error']}")
            continue
        for model in out["models"]:
            attempted += 1 + w.epochs
            if "error" in model:
                failed += 1 + w.epochs
                log.append(f"model {model['seed']} raised {model['error']}")
                continue
            if w.kind == "solve":
                hit, fails = check_solve(w, inst, out["target"], model)
            else:
                hit, fails = check_vqmc(w, inst, model)
            model["hit"] = hit
            if fails:
                failed += 1
                log.extend(f"model {model['seed']}: {f}" for f in fails)
            if hit is not None:
                models.append(model)

    good = [c for c in children if "error" not in c]
    metrics = {}
    if args.trace:
        if good and "layers" in good[0]:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in good[0]["layers"].items()}
    elif models and good:
        metrics = {
            "setup_s": (statistics.median(c["setup_s"] for c in good), "s"),
            "epoch_ms": (1e3 * statistics.median(
                d for m in models for d in np.diff(m["epoch_end_s"], prepend=0.0)), "ms"),
            "time_to_target_s": (statistics.fmean(
                m["epoch_end_s"][m["hit"]] for m in models), "s"),
            "epochs_to_target": (statistics.fmean(m["hit"] + 1 for m in models), "count"),
            "peak_rss_mb": (max(c["peak_rss_mb"] for c in good), "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "cpus": os.cpu_count(),
           "threads": {v: os.environ[v] for v in THREAD_VARS}}
    summary = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace,
               "children": len(children), "models": len(models),
               "wall_s": time.monotonic() - run_start, "env": env, "log": log,
               "setup_s": [c["setup_s"] for c in good],
               "epoch_end_s": [m["epoch_end_s"] for m in models],
               "epochs_to_target": [m["hit"] + 1 for m in models],
               "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(summary, indent=1))
    for line in log:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {w.name} seed={args.seed} children={len(children)} "
          f"models={len(models)} threads=1 ({', '.join(THREAD_VARS)})")
    for name, m in metrics.items():
        source = "computed" if name in COMPUTED else "measured"
        print(f"perfbench:   {name:34s} {m['value']:14.6g} {m['unit']:6s} {source}")
    if not metrics:
        sys.exit("perfbench: no metric could be measured")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))

if __name__ == "__main__":
    main()
