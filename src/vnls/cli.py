"""Command-line harness around the library.

Subcommands: solve (linear-solver training), vqmc (ground-state training),
oracle (exact certificate for a problem and optional checkpoint), sweep
(batch-size or learning-rate series at constant sample budget), and
ising-scan (exact fidelity of b against the solution across sizes).

Options may come from a JSON config file (--config); flags given on the
command line override file values, which override defaults.  Exit codes:
0 success, 2 configuration or input error, 3 request beyond the exact
oracle's size capability.  This module only parses: each rule on an input
belongs to the library function that takes the value.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .engine import TrainConfig, train_vnls, train_vqmc
from .errors import CapabilityError, ParseError
from .oracle import check_error_bound, exact_solve, fidelity, ising_identities
from .operators import load_operator
from .problems import ising_problem, load_problem
from .states import (DEFAULT_ALPHA, check_init_options, init_gaussian,
                     load_checkpoint, save_checkpoint)

CSV_HEADER = ("epoch", "loss", "loss_var", "grad_norm", "acceptance",
              "fidelity", "wall_ms")

# init_gaussian flavor of each --model name
_MODELS = {"rbm-real": "real", "rbm-complex": "complex"}

# option name of each TrainConfig field whose option is named otherwise
_OPTION_NAMES = {"learning_rate": "lr"}

_DEFAULTS = {
    "model": "rbm-real",
    "alpha": DEFAULT_ALPHA,
    "sigma": None,
    **{_OPTION_NAMES.get(f.name, f.name): f.default for f in fields(TrainConfig)},
}


def _options(args, file_keys):
    """Option mapping for one run: defaults, then the --config file (keys
    limited to file_keys), then flags.  TrainConfig.validate and
    check_init_options hold the rules on the options they take; only the
    model name is checked here."""
    cfg = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"config {config_path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParseError(f"config {config_path}: expected a JSON object")
        for key in loaded:
            if key not in file_keys:
                raise ParseError(f"config {config_path}: unknown key {key!r}")
        cfg.update(loaded)
    for key in file_keys:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    # a JSON list or object from the file names no model, nor hashes as a key
    if not isinstance(cfg["model"], str) or cfg["model"] not in _MODELS:
        raise ParseError(f"unknown model {cfg['model']!r}")
    _train_config(cfg).validate()
    check_init_options(cfg["alpha"], cfg["sigma"], _MODELS[cfg["model"]])
    return cfg


def _resolve_problem(args):
    """Problem from --ising N KAPPA or --problem FILE (exactly one)."""
    ising = getattr(args, "ising", None)
    problem_path = getattr(args, "problem", None)
    if (ising is None) == (problem_path is None):
        raise ParseError("give exactly one of --ising N KAPPA or --problem FILE")
    if ising is not None:
        n_text, kappa_text = ising
        try:
            n = int(n_text)
            kappa = float(kappa_text)
        except ValueError:
            raise ParseError(f"bad --ising arguments: {n_text} {kappa_text}") from None
        return ising_problem(n, kappa)
    return load_problem(problem_path)


def _train_config(cfg):
    return TrainConfig(**{f.name: cfg[_OPTION_NAMES.get(f.name, f.name)]
                          for f in fields(TrainConfig)})


def write_csv(path, header, rows):
    """RFC-4180 CSV file of a header row, then rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _record_row(r):
    """An EpochRecord's CSV_HEADER row: floats via repr, empty fidelity when
    tracking is off, wall time rounded to integer milliseconds."""
    return [r.epoch, repr(r.loss), repr(r.loss_var), repr(r.grad_norm),
            repr(r.acceptance), "" if r.fidelity is None else repr(r.fidelity),
            int(round(r.wall_ms))]


def _run(cfg, a, b, out, checkpoint):
    """One training run, of the solver on (a, b) or, with b None, of the
    ground-state search on a: initialise the model, train it, write the CSV
    to out and the model to checkpoint (if given), and print the report."""
    psi = init_gaussian(a.n, alpha=cfg["alpha"], sigma=cfg["sigma"],
                        seed=cfg["seed"], flavor=_MODELS[cfg["model"]])
    config = _train_config(cfg)
    if b is None:
        records = train_vqmc(a, psi, config)
    else:
        records = train_vnls(a, b, psi, config)
    write_csv(out, CSV_HEADER, map(_record_row, records))
    if checkpoint:
        save_checkpoint(psi, checkpoint)
    name, loss_name = ("vqmc", "final_energy") if b is None else ("solve", "final_loss")
    last = records[-1] if records else None
    loss = "" if last is None else f"{loss_name}={last.loss:.6g} "
    print(f"{name}: n={a.n} epochs={len(records)} {loss}csv={out}")
    if last is not None and last.fidelity is not None:
        print(f"{name}: final_fidelity={last.fidelity:.6f}")
    return 0


def cmd_train(args):
    """solve, on the problem given, or vqmc, on exactly one of the operator
    file, the built-in problem's A or the problem file's A."""
    cfg = _options(args, _DEFAULTS.keys())
    if args.command == "solve":
        problem = _resolve_problem(args)
        a, b = problem.a, problem.b
    elif sum(v is not None for v in (args.operator, args.ising, args.problem)) != 1:
        raise ParseError("give exactly one of --operator FILE, --ising N KAPPA "
                         "or --problem FILE")
    elif args.operator is not None:
        a, b = load_operator(args.operator), None
    else:
        a, b = _resolve_problem(args).a, None
    return _run(cfg, a, b, args.output or f"{args.command}.csv",
                args.save_checkpoint)


def cmd_oracle(args):
    cfg = _options(args, ("dense_limit",))
    problem = _resolve_problem(args)
    # without a checkpoint: how close is b itself to the solution
    psi = load_checkpoint(args.checkpoint) if args.checkpoint else problem.b
    report = check_error_bound(problem.a, problem.b, psi,
                               limit=cfg["dense_limit"])
    for line in report.to_lines():
        print(line)
    print(f"lambda_min={report.lambda_min!r}")
    if problem.kappa is not None:
        print(f"kappa_nominal={problem.kappa!r}")
    if args.ising is not None:
        checks = ising_identities(problem.n, problem.kappa, cfg["dense_limit"])
        for key, value in checks.items():
            print(f"ising_{key}={value!r}")
    if args.output:
        write_csv(args.output, report.CSV_FIELDS, [report.to_csv_row()])
    return 0


def _tagged(path, tag):
    path = Path(path)
    return str(path.with_name(f"{path.stem}_{tag}{path.suffix}"))


def cmd_sweep(args):
    cfg = _options(args, _DEFAULTS.keys())
    key, kind, what = (("batch_size", int, "batch size") if args.axis == "batch"
                       else ("lr", float, "learning rate"))
    runs = []
    for i, raw in enumerate(args.values):
        try:
            value = kind(raw)
        except ValueError:
            raise ParseError(f"bad {what} {raw!r}") from None
        run_cfg = dict(cfg, seed=cfg["seed"] + i, **{key: value})
        _train_config(run_cfg).validate()
        # batch sizes keep the sample budget batch * epochs; epochs scale
        # inversely with the learning rate
        run_cfg["epochs"] = max(1, round(cfg["epochs"] * cfg[key] / value))
        runs.append((run_cfg, f"batch{value}" if key == "batch_size" else f"lr{value:g}"))
    problem = _resolve_problem(args)
    for run_cfg, tag in runs:
        _run(run_cfg, problem.a, problem.b, _tagged(args.output or "sweep.csv", tag),
             args.save_checkpoint and _tagged(args.save_checkpoint, tag))
    return 0


def cmd_ising_scan(args):
    cfg = _options(args, ("dense_limit",))
    n_min, n_max = args.n_min, args.n_max
    if n_min < 2 or n_max < n_min:
        raise ParseError("need 2 <= n_min <= n_max")
    for kappa in args.kappas:
        ising_problem(2, kappa)  # refuses a bad kappa before any row prints
    if n_max > cfg["dense_limit"]:
        raise CapabilityError(
            f"exact oracle limited to n <= {cfg['dense_limit']}, got n={n_max}")
    rows = []
    for kappa in args.kappas:
        for n in range(n_min, n_max + 1):
            problem = ising_problem(n, kappa)
            sol = exact_solve(problem.a, problem.b, cfg["dense_limit"])
            fid = fidelity(problem.b.amplitudes, sol)
            rows.append((n, repr(kappa), repr(fid)))
            print(f"ising-scan: n={n} kappa={kappa:g} fidelity={fid:.8f}")
    if args.output:
        write_csv(args.output, ("n", "kappa", "fidelity"), rows)
    return 0


def _add_problem_options(sub):
    sub.add_argument("--ising", nargs=2, metavar=("N", "KAPPA"),
                     help="built-in conditioned problem of size N")
    sub.add_argument("--problem", help="problem file path")


def _add_run_options(sub):
    sub.add_argument("--config", help="JSON file of option defaults")
    sub.add_argument("--model", choices=_MODELS)
    sub.add_argument("--alpha", type=float, help="hidden-unit density")
    sub.add_argument("--sigma", type=float, help="init scale")
    sub.add_argument("--lr", type=float, help="learning rate")
    sub.add_argument("--shift", type=float, help="diagonal Fisher shift")
    sub.add_argument("--ridge", type=float, help="absolute Fisher ridge")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--chains", type=int,
                     help="Metropolis chains, where the basis is too large to "
                          "tabulate (default one per 8 samples, at least 32 and "
                          "at most one per sample)")
    sub.add_argument("--burn-in", dest="burn_in", type=int,
                     help="flips before each chain's first sample; burn-in runs "
                          "once per training run (default 10*n*n)")
    sub.add_argument("--thin", type=int,
                     help="flips between samples (default n rounded up to odd)")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--oracle-every", dest="oracle_every", type=int,
                     help="exact fidelity every K epochs (0 = off)")
    sub.add_argument("--dense-limit", dest="dense_limit", type=int)
    sub.add_argument("--output", "-o", help="CSV output path")
    sub.add_argument("--save-checkpoint", dest="save_checkpoint",
                     help="write the trained model here")


def _add_exact_options(sub, output_help):
    """The options of the oracle commands, which read only dense_limit."""
    sub.add_argument("--dense-limit", dest="dense_limit", type=int)
    sub.add_argument("--config", help="JSON file of option defaults")
    sub.add_argument("--output", "-o", help=output_help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vnls",
        description="Variational neural-network solver for sparse linear "
                    "systems on exponentially large spaces")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="train the linear solver")
    _add_problem_options(solve)
    _add_run_options(solve)
    solve.set_defaults(func=cmd_train)

    vqmc = commands.add_parser("vqmc", help="train a ground-state search")
    _add_problem_options(vqmc)
    vqmc.add_argument("--operator", help="operator file path")
    _add_run_options(vqmc)
    vqmc.set_defaults(func=cmd_train)

    oracle = commands.add_parser("oracle", help="exact certificate for a problem")
    _add_problem_options(oracle)
    oracle.add_argument("--checkpoint", help="evaluate this trained model "
                                             "(default: evaluate b itself)")
    _add_exact_options(oracle, "also write the report as CSV here")
    oracle.set_defaults(func=cmd_oracle)

    sweep = commands.add_parser("sweep", help="series of solve runs on one axis")
    _add_problem_options(sweep)
    sweep.add_argument("--axis", choices=("batch", "lr"), required=True)
    sweep.add_argument("--values", nargs="+", required=True,
                       help="axis values, e.g. 256 1024 4096")
    _add_run_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    scan = commands.add_parser("ising-scan",
                               help="exact fidelity of b vs solution by size")
    scan.add_argument("n_min", type=int)
    scan.add_argument("n_max", type=int)
    scan.add_argument("--kappas", type=float, nargs="+", default=[10.0])
    _add_exact_options(scan, "CSV output path")
    scan.set_defaults(func=cmd_ising_scan)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, FloatingPointError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
