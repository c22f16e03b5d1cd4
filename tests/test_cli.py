"""Command-line interface: exit codes, CSV output, config layering."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vnls
from vnls import (PauliSum, PauliTerm, exact_solve, fidelity, ising_problem,
                  load_checkpoint, random_pauli_problem, save_operator,
                  save_problem)
from vnls.cli import CSV_HEADER, main

FAST = ["--epochs", "4", "--batch-size", "64", "--chains", "2"]


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    text = path.read_bytes().decode("utf-8")  # bytes: no newline translation
    assert "\r\n" in text  # csv module writes CRLF
    lines = [ln for ln in text.split("\r\n") if ln]
    return [ln.split(",") for ln in lines]


def mask_wall_ms(path):
    return [row[:-1] for row in read_rows(path)]


def test_solve_writes_csv_with_golden_header(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, stdout, _ = run(["solve", "--ising", 3, 10, "-o", out] + FAST, capsys)
    assert code == 0
    rows = read_rows(out)
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 1 + 4
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    assert "solve: n=3 epochs=4" in stdout


def test_same_seed_gives_identical_csv_modulo_wall_ms(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run(["solve", "--ising", 3, 10, "--seed", 7, "-o", out] + FAST) == 0
        outs.append(mask_wall_ms(out))
    assert outs[0] == outs[1]
    out3 = tmp_path / "c.csv"
    assert run(["solve", "--ising", 3, 10, "--seed", 8, "-o", out3] + FAST) == 0
    assert mask_wall_ms(out3) != outs[0]


def test_zero_epochs_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    code = run(["solve", "--ising", 3, 10, "--epochs", 0, "-o", out,
                "--batch-size", 64, "--chains", 2])
    assert code == 0
    assert read_rows(out) == [list(CSV_HEADER)]


def test_zero_epoch_vqmc_reports_no_energy(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code, stdout, _ = run(["vqmc", "--ising", 3, 10, "--epochs", 0, "-o", out],
                          capsys)
    assert code == 0
    assert read_rows(out) == [list(CSV_HEADER)]
    assert stdout == f"vqmc: n=3 epochs=0 csv={out}\n"


def test_tracked_vqmc_reports_final_fidelity(tmp_path, capsys):
    code, stdout, _ = run(["vqmc", "--ising", 3, 10, "--oracle-every", 2,
                           "-o", tmp_path / "vq.csv"] + FAST, capsys)
    assert code == 0
    assert "vqmc: n=3 epochs=4 final_energy=" in stdout
    assert "vqmc: final_fidelity=" in stdout


def test_fidelity_column_empty_without_oracle(tmp_path):
    out = tmp_path / "run.csv"
    assert run(["solve", "--ising", 3, 10, "-o", out] + FAST) == 0
    for row in read_rows(out)[1:]:
        assert row[5] == ""


def test_fidelity_tracked_at_requested_interval(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, stdout, _ = run(
        ["solve", "--ising", 3, 10, "-o", out, "--oracle-every", 2,
         "--epochs", 5, "--batch-size", 64, "--chains", 2], capsys)
    assert code == 0
    fid = [row[5] for row in read_rows(out)[1:]]
    assert [f != "" for f in fid] == [True, False, True, False, True]
    assert all(0.0 <= float(f) <= 1.0 for f in fid if f)
    assert "final_fidelity=" in stdout


def test_vqmc_runs_on_problem_and_operator_file(tmp_path):
    out = tmp_path / "vq.csv"
    assert run(["vqmc", "--ising", 3, 10, "-o", out] + FAST) == 0
    assert len(read_rows(out)) == 5
    op_path = tmp_path / "op.txt"
    h = PauliSum([PauliTerm(1.0, {0: "Z"}, 2), PauliTerm(0.5, {1: "X"}, 2)], 2)
    save_operator(h, op_path)
    out2 = tmp_path / "vq2.csv"
    assert run(["vqmc", "--operator", op_path, "-o", out2] + FAST) == 0
    assert len(read_rows(out2)) == 5


def test_vqmc_rejects_non_hermitian_operator_file(tmp_path):
    op_path = tmp_path / "op.txt"
    h = PauliSum([PauliTerm(1j, {0: "X"}, 2)], 2)
    save_operator(h, op_path)
    assert run(["vqmc", "--operator", op_path, "-o", tmp_path / "x.csv"]
               + FAST) == 2


@pytest.mark.parametrize("sources", [
    [], ["operator", "ising"], ["operator", "problem"], ["ising", "problem"],
    ["operator", "ising", "problem"]], ids="+".join)
def test_vqmc_takes_exactly_one_source_of_a(tmp_path, capsys, sources):
    op_path, problem_path = tmp_path / "op.txt", tmp_path / "problem.txt"
    save_operator(PauliSum([PauliTerm(1.0, {0: "Z"}, 3)], 3), op_path)
    save_problem(ising_problem(4, 10.0), problem_path)
    flags = {"operator": ["--operator", op_path], "ising": ["--ising", 4, 10],
             "problem": ["--problem", problem_path]}
    out = tmp_path / "never.csv"
    code, stdout, err = run(["vqmc", *(a for s in sources for a in flags[s]),
                             "-o", out] + FAST, capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert all(f"--{name}" in err for name in flags)


def test_checkpoint_round_trip_through_oracle(tmp_path, capsys):
    ck = tmp_path / "model.npz"
    out = tmp_path / "run.csv"
    code = run(["solve", "--ising", 3, 10, "-o", out, "--save-checkpoint", ck,
                "--epochs", "30", "--batch-size", "128", "--chains", "2",
                "--lr", "0.05"])
    assert code == 0
    capsys.readouterr()
    code, stdout, _ = run(["oracle", "--ising", 3, 10, "--checkpoint", ck], capsys)
    assert code == 0
    values = dict(ln.split("=", 1) for ln in stdout.splitlines() if "=" in ln)
    assert 0.0 <= float(values["fidelity"]) <= 1.0
    assert values["bound_satisfied"] == "true"


def test_oracle_defaults_to_b_as_candidate(tmp_path, capsys):
    code, stdout, _ = run(["oracle", "--ising", 6, 10], capsys)
    assert code == 0
    values = dict(ln.split("=", 1) for ln in stdout.splitlines() if "=" in ln)
    assert float(values["fidelity"]) > 0.99  # b is near the solution here
    assert values["n"] == "6"
    assert values["kappa_nominal"] == "10.0"
    assert "ising_gram_deviation" in values
    assert float(values["ising_expansion_residual"]) < 1e-12


@pytest.mark.parametrize("kappa, indefinite", [(1000, True), (10, False)])
def test_oracle_shows_the_sign_of_lambda_min(capsys, kappa, indefinite):
    # kappa_actual = |lambda|max / |lambda|min reads alike for a definite and
    # an indefinite A; lambda_min, from the same eigenvalues, tells them apart
    code, stdout, _ = run(["oracle", "--ising", 10, kappa], capsys)
    assert code == 0
    values = dict(ln.split("=", 1) for ln in stdout.splitlines())
    lambda_min = float(values["lambda_min"])
    assert (lambda_min < 0.0) == indefinite
    # here the smallest |lambda| is lambda_min's
    assert abs(lambda_min) == pytest.approx(
        float(values["norm_a"]) / float(values["kappa_actual"]), rel=1e-9)


def test_oracle_csv_report(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["oracle", "--ising", 4, 10, "-o", out]) == 0
    rows = read_rows(out)
    assert rows[0][0] == "n" and rows[1][0] == "4"
    assert len(rows) == 2


def test_oracle_beyond_dense_limit_exits_3(tmp_path, capsys):
    code, _, err = run(["oracle", "--ising", 15, 10], capsys)
    assert code == 3 and "error" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--ising", 15, 10, "--dense-limit", 15],
    ["ising-scan", 15, 15, "--kappas", 10, "--dense-limit", 15],
])
def test_raised_dense_limit_reaches_every_oracle_call(argv):
    assert run(argv) == 0


def test_solve_oracle_every_needs_small_n(tmp_path):
    # exact tracking on a problem beyond the dense limit is a request past
    # the oracle's capability, refused by the library before any epoch
    out = tmp_path / "never.csv"
    assert run(["solve", "--ising", 4, 10, "--oracle-every", 1,
                "--dense-limit", 3, "-o", out] + FAST) == 3
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_solve_exits_2_with_diagnosis(tmp_path, capsys):
    # not normalised: the RBM's amplitudes overflow in epoch 2 at this step.
    # 2^12 states at batch 32 are past the table rule, so Metropolis chains
    # draw pi; exact draws from a table would not land where it overflows
    path = tmp_path / "p.txt"
    save_problem(random_pauli_problem(12, terms=40, seed=0), path)
    code, _, err = run(["solve", "--problem", path, "--lr", 0.02, "--epochs", 10,
                        "--batch-size", 32, "--chains", 4, "--seed", 0,
                        "-o", tmp_path / "run.csv"], capsys)
    assert code == 2
    assert "training diverged at epoch 2" in err


def test_stalled_solve_warns_on_stderr_and_exits_0(tmp_path):
    # the first SR step puts pi on one basis state; exact draws then find
    # only it, and the step stays exactly zero
    path = tmp_path / "p.txt"
    save_problem(random_pauli_problem(10, terms=40, seed=0), path)
    env = dict(os.environ, PYTHONPATH=str(Path(vnls.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "vnls.cli", "solve", "--problem", str(path),
         "--lr", "0.02", "--epochs", "10", "--batch-size", "128", "--chains", "4",
         "--seed", "0", "-o", str(tmp_path / "run.csv")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr.count("RuntimeWarning") == 1
    assert "epoch 1: every pi sample is state" in proc.stderr
    assert len(read_rows(tmp_path / "run.csv")) == 1 + 10


@pytest.mark.parametrize("argv", [
    ["solve", "--ising", 4, 1.0, "-o", "/tmp/never.csv"],
    ["solve", "--ising", 1, 10, "-o", "/tmp/never.csv"],
    ["solve", "--problem", "/nonexistent/p.txt", "-o", "/tmp/never.csv"],
    ["solve", "-o", "/tmp/never.csv"],  # no problem given
    ["solve", "--ising", 4, 10, "--problem", "also.txt"],  # both given
    ["solve", "--ising", 4, 10, "--epochs", -1],
    ["solve", "--ising", 4, 10, "--lr", 0],
    ["sweep", "--ising", 3, 10, "--axis", "batch", "--values"],
    ["ising-scan", 5, 3],
    ["ising-scan", 4, 6, "--kappas", "0.5"],
    ["solve", "--ising", 4, 10, "--alpha", "inf"],
    ["solve", "--ising", 4, 10, "--shift", "inf"],
    ["solve", "--ising", 4, 10, "--ridge", "inf"],
    ["solve", "--ising", 4, 10, "--seed", -1],
])
def test_config_errors_exit_2(argv):
    assert run(argv) == 2


@pytest.mark.parametrize("argv", [
    ["ising-scan", 2, "x"],
    ["ising-scan", 2, 4, "--kappas", "y"],
    ["ising-scan", 2, 4, "--kappas"],
    ["sweep", "--ising", 3, 10, "--axis", "batch"],
])
def test_malformed_numbers_get_a_usage_error(argv, capsys):
    code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert "usage:" in err and "Traceback" not in err


def test_unallocatable_alpha_exits_2_with_one_line(tmp_path, capsys):
    code, _, err = run(["solve", "--ising", 4, 10, "--alpha", "1e12",
                        "-o", tmp_path / "never.csv"], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "ceil(alpha*n)" in err


def test_solve_beyond_rhs_capability_exits_3():
    assert run(["solve", "--ising", 30, 10, "-o", "/tmp/never.csv"]) == 3


def test_problem_file_beyond_rhs_capability_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(vnls.problems, "B_LIMIT", 3)
    path = tmp_path / "p.txt"
    path.write_text("n=4\n1.0 Z0\nb sparse\n0 1.0\n", encoding="utf-8")
    code, _, err = run(["solve", "--problem", path, "-o", tmp_path / "never.csv"], capsys)
    assert code == 3 and "n > 3" in err


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "batch_size": 64, "chains": 2}),
                   encoding="utf-8")
    out = tmp_path / "a.csv"
    assert run(["solve", "--ising", 3, 10, "--config", cfg, "-o", out]) == 0
    assert len(read_rows(out)) == 1 + 3
    out2 = tmp_path / "b.csv"
    assert run(["solve", "--ising", 3, 10, "--config", cfg, "--epochs", 2,
                "-o", out2]) == 0
    assert len(read_rows(out2)) == 1 + 2  # flag wins over file


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 0.1}), encoding="utf-8")
    assert run(["solve", "--ising", 3, 10, "--config", cfg,
                "-o", tmp_path / "x.csv"]) == 2


def test_config_file_invalid_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert run(["solve", "--ising", 3, 10, "--config", cfg,
                "-o", tmp_path / "x.csv"]) == 2


@pytest.mark.parametrize("options", [{"epochs": 2.5}, {"chains": "8"}])
def test_config_file_wrong_type_exits_2(tmp_path, capsys, options):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(options), encoding="utf-8")
    code, _, err = run(["solve", "--ising", 3, 10, "--config", cfg,
                        "-o", tmp_path / "x.csv"], capsys)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("argv", [["oracle", "--ising", 4, 10],
                                  ["ising-scan", 3, 4]], ids=["oracle", "ising-scan"])
@pytest.mark.parametrize("options, key", [({"lr": -1}, "lr"),
                                          ({"epochs": 5, "model": "rbm-complex"}, "epochs")],
                         ids=["bad-lr", "training-keys"])
def test_oracle_commands_take_only_dense_limit_from_a_config(tmp_path, capsys, argv,
                                                             options, key):
    # training options mean nothing to these commands: a file naming one is
    # refused as unknown, not validated or ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(options), encoding="utf-8")
    code, stdout, err = run(argv + ["--config", cfg], capsys)
    assert code == 2 and f"unknown key {key!r}" in err
    assert stdout == ""
    cfg.write_text(json.dumps({"dense_limit": 3}), encoding="utf-8")
    code, _, err = run(argv + ["--config", cfg], capsys)
    assert code == 3 and "n <= 3" in err


def test_sweep_batch_axis_keeps_sample_budget(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--ising", 3, 10, "--axis", "batch",
                "--values", 64, 128, "--epochs", 8, "--batch-size", 64,
                "--chains", 2, "-o", out])
    assert code == 0
    assert len(read_rows(tmp_path / "sweep_batch64.csv")) == 1 + 8
    assert len(read_rows(tmp_path / "sweep_batch128.csv")) == 1 + 4


def test_sweep_lr_axis_scales_epochs(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--ising", 3, 10, "--axis", "lr",
                "--values", 0.005, 0.01, "--epochs", 6, "--batch-size", 64,
                "--chains", 2, "-o", out])
    assert code == 0
    assert len(read_rows(tmp_path / "sweep_lr0.005.csv")) == 1 + 6
    assert len(read_rows(tmp_path / "sweep_lr0.01.csv")) == 1 + 3


@pytest.mark.parametrize("axis,values", [("batch", [64, 0]),
                                         ("lr", [0.01, "inf"]),
                                         ("lr", [0.01, 5e-324])])
def test_sweep_checks_every_value_before_the_first_run(tmp_path, capsys, axis, values):
    # 5e-324 is a valid learning rate whose epoch count overflows
    code, stdout, err = run(["sweep", "--ising", 3, 10, "--axis", axis,
                             "--values", *values, "--epochs", 4, "--batch-size", 64,
                             "--chains", 2, "-o", tmp_path / "sweep.csv"], capsys)
    assert code == 2 and len(err.splitlines()) == 1
    assert stdout == "" and list(tmp_path.iterdir()) == []


def test_sweep_saves_one_checkpoint_per_value(tmp_path):
    code = run(["sweep", "--ising", 3, 10, "--axis", "batch", "--values", 64, 128,
                "--epochs", 4, "--batch-size", 64, "--chains", 2,
                "-o", tmp_path / "sweep.csv", "--save-checkpoint", tmp_path / "m.npz"])
    assert code == 0
    for tag in ("batch64", "batch128"):
        psi = load_checkpoint(tmp_path / f"m_{tag}.npz")
        assert psi.n == 3 and psi.flavor == "real"


def test_sweep_runs_are_solve_runs(tmp_path, capsys):
    # value i runs as solve would with seed + i and the scaled epoch count
    code, stdout, _ = run(["sweep", "--ising", 4, 10, "--axis", "lr",
                           "--values", 0.005, 0.02, "--epochs", 8, "--batch-size", 64,
                           "--chains", 2, "--seed", 3, "-o", tmp_path / "sweep.csv",
                           "--save-checkpoint", tmp_path / "m.npz"], capsys)
    assert code == 0
    for seed, lr, epochs, tag in ((3, 0.005, 8, "lr0.005"), (4, 0.02, 2, "lr0.02")):
        out = tmp_path / f"sweep_{tag}.csv"
        rows = mask_wall_ms(out)
        code, solo_out, _ = run(["solve", "--ising", 4, 10, "--lr", lr, "--epochs", epochs,
                                 "--batch-size", 64, "--chains", 2, "--seed", seed,
                                 "-o", out, "--save-checkpoint", tmp_path / "solo.npz"],
                                capsys)
        assert code == 0 and solo_out in stdout
        assert mask_wall_ms(out) == rows
        assert np.array_equal(load_checkpoint(tmp_path / f"m_{tag}.npz").get_params(),
                              load_checkpoint(tmp_path / "solo.npz").get_params())


def test_non_finite_coefficient_in_a_file_exits_2_naming_the_line(tmp_path, capsys):
    op_path = tmp_path / "op.txt"
    op_path.write_text("n=2\nnan X0\n0.5 Z1\n", encoding="utf-8")
    code, _, err = run(["vqmc", "--operator", op_path, "-o", tmp_path / "x.csv"]
                       + FAST, capsys)
    assert code == 2 and "line 2: coefficient must be finite" in err
    problem_path = tmp_path / "p.txt"
    for text, message in (("n=1\ninf X0\n2.0 I\nb dense\n1 0\n1 0\n",
                           "line 2: coefficient must be finite"),
                          ("n=1\nkappa=nan\n2.0 I\nb dense\n1 0\n1 0\n",
                           "line 2: kappa must be finite"),
                          ("n=1\n2.0 I\nb dense\n1 0\ninf 0\n",
                           "line 5: amplitude must be finite")):
        problem_path.write_text(text, encoding="utf-8")
        code, stdout, err = run(["oracle", "--problem", problem_path], capsys)
        assert code == 2 and message in err
        assert stdout == ""


def test_non_finite_kappa_exits_2(capsys):
    code, _, err = run(["solve", "--ising", 4, "inf", "-o", "/tmp/never.csv"], capsys)
    assert code == 2 and "kappa must be finite" in err
    code, stdout, err = run(["ising-scan", 3, 4, "--kappas", 10, "inf"], capsys)
    assert code == 2 and "kappa must be finite" in err
    assert stdout == ""


def test_oracle_refuses_a_checkpoint_of_another_size(tmp_path, capsys):
    ck = tmp_path / "model.npz"
    assert run(["solve", "--ising", 4, 10, "-o", tmp_path / "run.csv",
                "--save-checkpoint", ck] + FAST) == 0
    capsys.readouterr()
    code, stdout, err = run(["oracle", "--ising", 5, 10, "--checkpoint", ck], capsys)
    assert code == 2 and len(err.splitlines()) == 1
    assert "shape (16,) for an operator on 5 qubits" in err and stdout == ""


def test_oracle_refuses_a_checkpoint_without_a_field(tmp_path, capsys):
    ck = tmp_path / "model.npz"
    np.savez(ck, n=4, m=8, seed=0, params=np.zeros(44))
    code, _, err = run(["oracle", "--ising", 4, 10, "--checkpoint", ck], capsys)
    assert code == 2 and len(err.splitlines()) == 1 and "'flavor'" in err


def test_ising_scan_fidelity_monotone(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, stdout, _ = run(["ising-scan", 4, 7, "--kappas", 10, 50, "-o", out],
                          capsys)
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["n", "kappa", "fidelity"]
    assert len(rows) == 1 + 2 * 4
    for kappa in ("10.0", "50.0"):
        fids = [float(r[2]) for r in rows[1:] if r[1] == kappa]
        assert len(fids) == 4
        assert all(b >= a for a, b in zip(fids, fids[1:]))
        assert min(fids) > 0.99
    # one row per (kappa, n) in scan order, each float written by repr
    expected = []
    for kappa in (10.0, 50.0):
        for n in range(4, 8):
            problem = ising_problem(n, kappa)
            fid = fidelity(problem.b.amplitudes, exact_solve(problem.a, problem.b))
            expected.append([str(n), repr(kappa), repr(fid)])
    assert rows[1:] == expected
    printed = [line.split()[1:] for line in stdout.splitlines()]
    assert printed == [[f"n={n}", f"kappa={float(kappa):g}",
                        f"fidelity={float(fid):.8f}"] for n, kappa, fid in rows[1:]]
    assert stdout.count("ising-scan:") == 8


def test_ising_scan_beyond_dense_limit_exits_3():
    assert run(["ising-scan", 2, 16]) == 3


def test_console_entry_point_runs():
    exe = shutil.which("vnls")
    argv = [exe] if exe else [sys.executable, "-m", "vnls.cli"]
    proc = subprocess.run(argv + ["oracle", "--ising", "4", "10"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fidelity=" in proc.stdout


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["solve", "--help"]) == 0
    capsys.readouterr()
