"""Command-line interface: exit codes, CSV output, config layering."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from vnls import PauliSum, PauliTerm, random_pauli_problem, save_operator, save_problem
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


def test_oracle_csv_report(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["oracle", "--ising", 4, 10, "-o", out]) == 0
    rows = read_rows(out)
    assert rows[0][0] == "n" and rows[1][0] == "4"
    assert len(rows) == 2


def test_oracle_beyond_dense_limit_exits_3(tmp_path, capsys):
    code, _, err = run(["oracle", "--ising", 15, 10], capsys)
    assert code == 3 and "error" in err


def test_solve_oracle_every_needs_small_n():
    # exact tracking on a problem beyond the dense limit is a config error
    assert run(["solve", "--ising", 4, 10, "--oracle-every", 1,
                "--dense-limit", 3, "-o", "/tmp/never.csv"] + FAST) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_solve_exits_2_with_diagnosis(tmp_path, capsys):
    # not normalised: the RBM's amplitudes overflow in epoch 2 at this step
    path = tmp_path / "p.txt"
    save_problem(random_pauli_problem(10, terms=40, seed=0), path)
    code, _, err = run(["solve", "--problem", path, "--lr", 0.02, "--epochs", 10,
                        "--batch-size", 128, "--chains", 4, "--seed", 0,
                        "-o", tmp_path / "run.csv"], capsys)
    assert code == 2
    assert "training diverged at epoch 2" in err


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
])
def test_config_errors_exit_2(argv):
    assert run(argv) == 2


def test_solve_beyond_rhs_capability_exits_3():
    assert run(["solve", "--ising", 30, 10, "-o", "/tmp/never.csv"]) == 3


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
