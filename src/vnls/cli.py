"""Command-line harness around the library.

Subcommands: solve (linear-solver training), vqmc (ground-state training),
oracle (exact certificate for a problem and optional checkpoint), sweep
(batch-size or learning-rate series at constant sample budget), and
ising-scan (exact fidelity of b against the solution across sizes).

Options may come from a JSON config file (--config); flags given on the
command line override file values, which override defaults.  Exit codes:
0 success, 2 configuration or input error, 3 request beyond the exact
oracle's size capability.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .engine import TrainConfig, train_vnls, train_vqmc
from .errors import CapabilityError, ParseError
from .oracle import check_error_bound, exact_solve, fidelity, ising_identities
from .operators import DENSE_LIMIT, load_operator
from .problems import ising_problem, load_problem
from .states import dense_vector, init_gaussian, load_checkpoint, save_checkpoint

CSV_HEADER = ("epoch", "loss", "loss_var", "grad_norm", "acceptance",
              "fidelity", "wall_ms")

_MODELS = ("rbm-real", "rbm-complex")

_DEFAULTS = {
    "model": "rbm-real",
    "alpha": 2.0,
    "sigma": None,
    "lr": 0.005,
    "shift": 1e-2,
    "ridge": 1e-6,
    "epochs": 1000,
    "batch_size": 1024,
    "chains": 8,
    "burn_in": None,
    "thin": None,
    "seed": 0,
    "oracle_every": 0,
    "dense_limit": DENSE_LIMIT,
}

_POSITIVE = ("alpha", "lr", "shift", "ridge", "batch_size", "chains",
             "dense_limit")
_NONNEGATIVE = ("epochs", "seed", "oracle_every", "burn_in")


class RunConfig(dict):
    """Validated option mapping for one run (defaults < file < flags)."""

    @classmethod
    def build(cls, args, file_keys):
        merged = dict(_DEFAULTS)
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
            merged.update(loaded)
        for key in file_keys:
            value = getattr(args, key, None)
            if value is not None:
                merged[key] = value
        cfg = cls(merged)
        cfg.validate()
        return cfg

    def validate(self):
        for key in _POSITIVE:
            if key in self and self[key] is not None and not self[key] > 0:
                raise ParseError(f"option {key} must be positive, got {self[key]}")
        for key in _NONNEGATIVE:
            if key in self and self[key] is not None and self[key] < 0:
                raise ParseError(f"option {key} must be >= 0, got {self[key]}")
        if "sigma" in self and self["sigma"] is not None and not self["sigma"] > 0:
            raise ParseError(f"option sigma must be positive, got {self['sigma']}")
        if "thin" in self and self["thin"] is not None and self["thin"] < 1:
            raise ParseError(f"option thin must be >= 1, got {self['thin']}")
        if self.get("model") not in (None,) + _MODELS:
            raise ParseError(f"unknown model {self['model']!r}")
        if self.get("oracle_every"):
            limit = self.get("dense_limit", _DEFAULTS["dense_limit"])
            n = self.get("_n")
            if n is not None and n > limit:
                raise ParseError(
                    f"oracle_every needs n <= {limit}, got n={n}")


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
        if n < 2:
            raise ParseError("--ising needs n >= 2")
        if not kappa > 1:
            raise ParseError("--ising needs kappa > 1")
        if n > 24:
            raise CapabilityError("right-hand-side storage is dense; n > 24 "
                                  "is beyond this build")
        return ising_problem(n, kappa)
    return load_problem(problem_path)


def _train_config(cfg):
    return TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], chains=cfg["chains"],
        burn_in=cfg["burn_in"], thin=cfg["thin"], learning_rate=cfg["lr"],
        shift=cfg["shift"], ridge=cfg["ridge"], seed=cfg["seed"],
        oracle_every=cfg["oracle_every"], dense_limit=cfg["dense_limit"])


def _init_model(cfg, n):
    flavor = "real" if cfg["model"] == "rbm-real" else "complex"
    return init_gaussian(n, alpha=cfg["alpha"], sigma=cfg["sigma"],
                         seed=cfg["seed"], flavor=flavor)


def write_csv(path, records):
    """RFC-4180 CSV of EpochRecords; floats via repr, empty fidelity when
    tracking is off, wall time rounded to integer milliseconds."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([
                r.epoch, repr(r.loss), repr(r.loss_var), repr(r.grad_norm),
                repr(r.acceptance),
                "" if r.fidelity is None else repr(r.fidelity),
                int(round(r.wall_ms))])


def cmd_solve(args):
    cfg = RunConfig.build(args, _DEFAULTS.keys())
    problem = _resolve_problem(args)
    cfg["_n"] = problem.n
    cfg.validate()
    psi = _init_model(cfg, problem.n)
    records = train_vnls(problem.a, problem.b, psi, _train_config(cfg))
    out = args.output or "solve.csv"
    write_csv(out, records)
    if args.save_checkpoint:
        save_checkpoint(psi, args.save_checkpoint)
    if records:
        last = records[-1]
        print(f"solve: n={problem.n} epochs={len(records)} "
              f"final_loss={last.loss:.6g} csv={out}")
        if last.fidelity is not None:
            print(f"solve: final_fidelity={last.fidelity:.6f}")
    else:
        print(f"solve: n={problem.n} epochs=0 csv={out}")
    return 0


def cmd_vqmc(args):
    cfg = RunConfig.build(args, _DEFAULTS.keys())
    operator_path = getattr(args, "operator", None)
    if operator_path is not None:
        h = load_operator(operator_path)
    else:
        problem = _resolve_problem(args)
        h = problem.a
    if not h.is_hermitian:
        raise ParseError("vqmc needs a Hermitian operator (real coefficients)")
    cfg["_n"] = h.n
    cfg.validate()
    psi = _init_model(cfg, h.n)
    records = train_vqmc(h, psi, _train_config(cfg))
    out = args.output or "vqmc.csv"
    write_csv(out, records)
    if args.save_checkpoint:
        save_checkpoint(psi, args.save_checkpoint)
    last_loss = records[-1].loss if records else float("nan")
    print(f"vqmc: n={h.n} epochs={len(records)} final_energy={last_loss:.6g} "
          f"csv={out}")
    return 0


def cmd_oracle(args):
    cfg = RunConfig.build(args, _DEFAULTS.keys())
    problem = _resolve_problem(args)
    if problem.n > cfg["dense_limit"]:
        raise CapabilityError(
            f"exact oracle limited to n <= {cfg['dense_limit']}, got n={problem.n}")
    if args.checkpoint:
        psi_vec = dense_vector(load_checkpoint(args.checkpoint),
                               limit=cfg["dense_limit"])
    else:
        psi_vec = problem.b.amplitudes  # how close is b itself to the solution
    report = check_error_bound(problem.a, problem.b, psi_vec,
                               limit=cfg["dense_limit"])
    for line in report.to_lines():
        print(line)
    if problem.kappa is not None:
        print(f"kappa_nominal={problem.kappa!r}")
    if args.ising is not None:
        checks = ising_identities(problem.n, problem.kappa)
        for key, value in checks.items():
            print(f"ising_{key}={value!r}")
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(report.CSV_FIELDS)
            writer.writerow(report.to_csv_row())
    return 0


def cmd_sweep(args):
    cfg = RunConfig.build(args, _DEFAULTS.keys())
    values = args.values
    if not values:
        raise ParseError("sweep needs at least one axis value")
    base_epochs = cfg["epochs"]
    out_base = Path(args.output or "sweep.csv")
    for i, raw in enumerate(values):
        sub = argparse.Namespace(**vars(args))
        sub.seed = cfg["seed"] + i
        if args.axis == "batch":
            try:
                k = int(raw)
            except ValueError:
                raise ParseError(f"bad batch size {raw!r}") from None
            if k < 1:
                raise ParseError("batch sizes must be positive")
            # constant sample budget: k * epochs stays fixed
            sub.batch_size = k
            sub.epochs = max(1, round(base_epochs * cfg["batch_size"] / k))
            tag = f"batch{k}"
        else:
            try:
                lr = float(raw)
            except ValueError:
                raise ParseError(f"bad learning rate {raw!r}") from None
            if not lr > 0:
                raise ParseError("learning rates must be positive")
            # epochs scale inversely with the step size
            sub.lr = lr
            sub.epochs = max(1, round(base_epochs * cfg["lr"] / lr))
            tag = f"lr{lr:g}"
        sub.output = str(out_base.with_name(f"{out_base.stem}_{tag}{out_base.suffix}"))
        sub.save_checkpoint = None
        code = cmd_solve(sub)
        if code:
            return code
    return 0


def cmd_ising_scan(args):
    cfg = RunConfig.build(args, _DEFAULTS.keys())
    try:
        n_min = int(args.n_min)
        n_max = int(args.n_max)
    except ValueError:
        raise ParseError("ising-scan sizes must be integers") from None
    if n_min < 2 or n_max < n_min:
        raise ParseError("need 2 <= n_min <= n_max")
    kappas = []
    for raw in args.kappas:
        try:
            kappa = float(raw)
        except ValueError:
            raise ParseError(f"bad kappa {raw!r}") from None
        if not kappa > 1:
            raise ParseError("kappa values must exceed 1")
        kappas.append(kappa)
    if not kappas:
        raise ParseError("ising-scan needs at least one kappa")
    if n_max > cfg["dense_limit"]:
        raise CapabilityError(
            f"exact oracle limited to n <= {cfg['dense_limit']}, got n={n_max}")
    rows = []
    for kappa in kappas:
        for n in range(n_min, n_max + 1):
            problem = ising_problem(n, kappa)
            sol = exact_solve(problem.a, problem.b)
            fid = fidelity(problem.b.amplitudes, sol)
            rows.append((n, kappa, fid))
            print(f"ising-scan: n={n} kappa={kappa:g} fidelity={fid:.8f}")
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("n", "kappa", "fidelity"))
            for n, kappa, fid in rows:
                writer.writerow((n, repr(kappa), repr(fid)))
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
    sub.add_argument("--chains", type=int)
    sub.add_argument("--burn-in", dest="burn_in", type=int)
    sub.add_argument("--thin", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--oracle-every", dest="oracle_every", type=int,
                     help="exact fidelity every K epochs (0 = off)")
    sub.add_argument("--dense-limit", dest="dense_limit", type=int)
    sub.add_argument("--output", "-o", help="CSV output path")
    sub.add_argument("--save-checkpoint", dest="save_checkpoint",
                     help="write the trained model here")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vnls",
        description="Variational neural-network solver for sparse linear "
                    "systems on exponentially large spaces")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="train the linear solver")
    _add_problem_options(solve)
    _add_run_options(solve)
    solve.set_defaults(func=cmd_solve)

    vqmc = commands.add_parser("vqmc", help="train a ground-state search")
    _add_problem_options(vqmc)
    vqmc.add_argument("--operator", help="operator file path")
    _add_run_options(vqmc)
    vqmc.set_defaults(func=cmd_vqmc)

    oracle = commands.add_parser("oracle", help="exact certificate for a problem")
    _add_problem_options(oracle)
    oracle.add_argument("--checkpoint", help="evaluate this trained model "
                                             "(default: evaluate b itself)")
    oracle.add_argument("--dense-limit", dest="dense_limit", type=int)
    oracle.add_argument("--config", help="JSON file of option defaults")
    oracle.add_argument("--output", "-o", help="also write the report as CSV here")
    oracle.set_defaults(func=cmd_oracle)

    sweep = commands.add_parser("sweep", help="series of solve runs on one axis")
    _add_problem_options(sweep)
    sweep.add_argument("--axis", choices=("batch", "lr"), required=True)
    sweep.add_argument("--values", nargs="*", default=[],
                       help="axis values, e.g. 256 1024 4096")
    _add_run_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    scan = commands.add_parser("ising-scan",
                               help="exact fidelity of b vs solution by size")
    scan.add_argument("n_min")
    scan.add_argument("n_max")
    scan.add_argument("--kappas", nargs="*", default=["10"])
    scan.add_argument("--dense-limit", dest="dense_limit", type=int)
    scan.add_argument("--config", help="JSON file of option defaults")
    scan.add_argument("--output", "-o", help="CSV output path")
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
    except (ParseError, FileNotFoundError, IsADirectoryError, OSError,
            ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
