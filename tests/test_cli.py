"""End-to-end command-line behavior, exit codes, and determinism."""

import json
import math
import subprocess
import sys
import time

import pytest

CLI = [sys.executable, "-m", "hplb.cli"]


def run(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd, timeout=600
    )


def test_usage_error_exits_2():
    proc = run("estimate", "--input", "nowhere.csv", "--method", "fancy")
    assert proc.returncode == 2


def test_missing_file_exits_2(tmp_path):
    proc = run("estimate", "--input", str(tmp_path / "none.csv"), "--method", "bayes")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_bad_row_reported_with_exit_2(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("score,label\n0.5,0\n0.6,7\n", encoding="utf-8")
    proc = run("estimate", "--input", str(path), "--method", "bayes")
    assert proc.returncode == 2
    assert "row 3" in proc.stderr


def test_estimate_on_perfectly_separated_data(tmp_path):
    path = tmp_path / "sep.csv"
    rows = ["score,label"] + ["0.1,0", "0.2,0", "0.8,1", "0.9,1"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    proc = run("estimate", "--input", str(path), "--method", "bayes", "--alpha", "0.05")
    assert proc.returncode == 0
    header, row = proc.stdout.strip().splitlines()
    assert header.startswith("method,alpha,value")
    assert row.split(",")[2] == "1.000000"


def test_simulate_then_estimate_roundtrip(tmp_path):
    out = tmp_path / "sim.csv"
    proc = run(
        "simulate", "--example", "2", "--n", "2000", "--gamma", "-0.7",
        "--seed", "3", "--output", str(out),
    )
    assert proc.returncode == 0
    meta = json.loads(proc.stdout)
    # closed form recomputed here: p1 + (1 - p1)(2 p2 - 1)
    p1 = meta["c"] * 2000 ** -0.7
    p2 = 0.5 + 2000 ** -1.5
    assert math.isclose(meta["true_lambda"], p1 + (1 - p1) * (2 * p2 - 1), rel_tol=1e-12)
    est = run("estimate", "--input", str(out), "--method", "adapt", "--sims", "400")
    assert est.returncode == 0
    value = float(est.stdout.strip().splitlines()[1].split(",")[2])
    assert 0.0 <= value <= 1.0


def test_powergrid_csv_shape(tmp_path):
    out = tmp_path / "grid.csv"
    # comma-joined negatives need the --flag=value spelling under argparse
    proc = run(
        "powergrid", "--example", "1", "--method", "bayes",
        "--gammas=-0.3,-0.5", "--ns", "200,400", "--reps", "5",
        "--output", str(out),
    )
    assert proc.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gamma,N,freq,mean_lambda"
    assert len(lines) == 1 + 4


def test_level_command(tmp_path):
    proc = run(
        "level", "--example", "1", "--n", "300", "--c", "0.2", "--method", "bayes",
        "--reps", "200", "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["exceedance"] <= 0.05 + 2 * math.sqrt(0.05 * 0.95 / 200)


def test_level_oracle_on_toy_exits_2_naming_its_dimension():
    # oracle_t needs the score law of a one-dimensional model; the toy is
    # 12-dimensional, which used to end in an internal error (exit 3)
    proc = run("level", "--example", "toy", "--n", "200", "--method", "oracle_t",
               "--reps", "100")
    assert proc.returncode == 2, proc.stderr
    assert "'toy' is 12-dimensional" in proc.stderr


def test_scan_skips_one_sided_split(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text("t,score\n0.05,0.1\n0.3,0.2\n0.6,0.3\n0.9,0.4\n", encoding="utf-8")
    proc = run("scan", "--input", str(path), "--splits", "0.07,0.5", "--sims", "200")
    assert proc.returncode == 0
    assert "warning" in proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[1].split(",")[1] == ""  # no estimate for the skipped split


def test_pairwise_runs_on_repo_dataset():
    proc = run("pairwise", "--input", "data/multiclass_three.csv", "--sims", "300", cwd=".")
    assert proc.returncode == 0
    rows = proc.stdout.strip().splitlines()[1:]
    values = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in rows}
    assert values[("0", "2")] >= 0.7
    assert values[("0", "1")] <= 0.05


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("alpha=0.10\nsims=200\n", encoding="utf-8")
    path = tmp_path / "d.csv"
    path.write_text("score,label\n0.1,0\n0.2,0\n0.8,1\n0.9,1\n", encoding="utf-8")
    # config supplies alpha
    a = run("--config", str(cfg), "estimate", "--input", str(path), "--method", "bayes")
    assert a.stdout.splitlines()[1].split(",")[1] == "0.100000"
    # flag overrides config
    b = run(
        "--config", str(cfg), "estimate", "--input", str(path),
        "--method", "bayes", "--alpha", "0.02",
    )
    assert b.stdout.splitlines()[1].split(",")[1] == "0.020000"


@pytest.mark.parametrize(
    "line,key",
    [("alpah=0.2", "alpah"), ("format=xml", "format"), ("alpha=abc", "alpha")],
    ids=["unknown-key", "bad-choice", "bad-cast"],
)
def test_bad_config_entry_exits_2_naming_file_and_key(tmp_path, line, key):
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    path = tmp_path / "d.csv"
    path.write_text("score,label\n0.1,0\n0.2,0\n0.8,1\n0.9,1\n", encoding="utf-8")
    proc = run("--config", str(cfg), "estimate", "--input", str(path), "--method", "bayes")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert str(cfg) in proc.stderr and repr(key) in proc.stderr


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        proc = run(
            "estimate", "--input", "data/two_sample_contamination.csv",
            "--method", "adapt", "--seed", "5", "--sims", "300",
            "--output", str(out), cwd=".",
        )
        assert proc.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_thread_cap_does_not_change_results(tmp_path):
    import os
    import subprocess as sp

    env1 = dict(os.environ, HPLB_THREADS="1")
    env4 = dict(os.environ, HPLB_THREADS="4")
    args = CLI + [
        "level", "--example", "1", "--n", "200", "--c", "0.2",
        "--method", "bayes", "--reps", "100", "--format", "json",
    ]
    r1 = sp.run(args, capture_output=True, text=True, env=env1, timeout=600)
    r4 = sp.run(args, capture_output=True, text=True, env=env4, timeout=600)
    assert r1.stdout == r4.stdout


@pytest.mark.parametrize(
    "name,method",
    [
        ("two_sample_contamination.csv", "adapt"),
        ("two_sample_contamination.csv", "bayes"),
        ("two_sample_mirrored.csv", "adapt"),
        ("two_sample_mirrored.csv", "c"),
    ],
)
def test_repo_datasets_estimate_under_five_seconds(name, method):
    start = time.monotonic()
    proc = run("estimate", "--input", f"data/{name}", "--method", method, cwd=".")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0
    assert elapsed < 5.0


def test_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats takes about a second and 40 MB, scipy.integrate
    # about a quarter second; every CLI call would pay that at start-up, so
    # the package keeps to scipy.special and imports quad only where used
    code = "import sys, hplb; print('scipy.stats' in sys.modules, 'scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
