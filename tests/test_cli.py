"""End-to-end command-line behavior, exit codes, and determinism."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "hplb.cli"]
ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
# the subprocesses import the package from src/, as the tests do
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd, env=ENV, timeout=600
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


def test_simulate_toy_reports_no_scale(capsys, tmp_path):
    # the toy takes no --c, so its metadata names none
    from hplb import cli

    out = tmp_path / "toy.csv"
    assert cli.main(["simulate", "--example", "toy", "--n", "50", "--output", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["c"] is None


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


def test_simulate_to_stdout_is_a_readable_dataset(tmp_path):
    # without --output the dataset alone goes to stdout; the metadata line
    # used to follow it there, which the parser rejected as row 8
    from hplb import io as hio

    proc = run("simulate", "--example", "1", "--c", "0.1", "--n", "6", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / "s.csv"
    path.write_text(proc.stdout, encoding="utf-8")
    data = hio.parse_two_sample(path)
    meta = json.loads(proc.stderr.splitlines()[-1])
    assert "true_lambda" in meta
    assert (data.m, data.n) == (meta["m"], meta["n_class1"])
    est = run("estimate", "--input", str(path), "--method", "bayes")
    assert est.returncode == 0, est.stderr


def test_powergrid_json_without_a_slope_is_valid_json():
    # a single N leaves the 50% contour without a fit: the slope is null,
    # not the NaN token that JSON does not have
    proc = run("powergrid", "--example", "1", "--method", "bayes", "--gammas=-0.3",
               "--ns", "200", "--reps", "5", "--format", "json")
    assert proc.returncode == 0, proc.stderr

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    payload = json.loads(proc.stdout, parse_constant=reject)
    assert payload["slope"] is None


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_powergrid_without_replications_exits_2(reps):
    # a cell without replications used to print "freq": NaN and exit 0
    proc = run("powergrid", "--example", "1", "--method", "bayes", "--gammas=-0.3",
               "--ns", "200", "--reps", reps, "--format", "json")
    assert proc.returncode == 2, proc.stderr
    assert f"reps={reps}" in proc.stderr
    assert proc.stdout == ""


_ESTIMATE = ("estimate", "--input", str(DATA / "two_sample_mirrored.csv"), "--method", "adapt")
_POWERGRID = ("powergrid", "--example", "2", "--method", "adapt", "--reps", "2")


@pytest.mark.parametrize("argv", [
    (*_POWERGRID, "--gammas=-0.5,abc", "--ns", "100"),
    (*_POWERGRID, "--gammas=-0.5", "--ns", "100.5"),
    ("scan", "--input", str(DATA / "ordered_change.csv"), "--splits", "0.5,x"),
    ("scan", "--input", str(DATA / "ordered_change.csv"), "--splits", ","),
    ("scan", "--input", str(DATA / "ordered_change.csv"), "--splits", "0.5,,0.7"),
    ("scan", "--input", str(DATA / "ordered_change.csv"), "--splits", "nan"),
    ("scan", "--input", str(DATA / "ordered_change.csv"), "--splits", "0.5,0.5"),
    (*_POWERGRID, "--gammas=-0.5", "--ns", ","),
    (*_POWERGRID, "--gammas=-0.5,-0.5", "--ns", "100,100"),
    (*_POWERGRID, "--gammas=-0.5,-0.3,-0.5", "--ns", "100"),
    (*_POWERGRID, "--gammas=-0.5", "--ns", "100,200,100"),
    ("simulate", "--example", "toy", "--n", "100", "--c", "0.1"),
    ("simulate", "--example", "toy", "--n", "100", "--gamma", "-0.5"),
    ("level", "--example", "toy", "--n", "100", "--method", "c", "--c", "0.9"),
    (*_ESTIMATE, "--alpha", "1.5"),
    (*_ESTIMATE, "--sims", "50"),
    ("level", "--example", "1", "--n", "100", "--method", "c", "--reps", "0"),
    ("estimate", "--input", str(DATA), "--method", "bayes"),
], ids=["gamma-list", "ns-list", "splits-list", "splits-none", "splits-empty-entry",
        "splits-nan", "splits-repeated", "ns-none", "grid-repeated", "gammas-repeated",
        "ns-repeated", "toy-c", "toy-gamma", "toy-level-c",
        "alpha", "sims", "reps", "unreadable-input"])
def test_usage_errors_exit_2(capsys, argv):
    # a malformed or meaningless input is a usage error, never an internal one
    from hplb import cli

    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    stderr = capsys.readouterr().err
    assert code == 2, stderr
    assert "internal error" not in stderr


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


@pytest.mark.parametrize(
    "key,file_value,flag_value",
    [("alpha", "0.1", "0.02"), ("band", "analytic", "simulated"), ("sims", "300", "1000"),
     ("seed", "3", "4"), ("format", "json", "csv")],
)
def test_config_key_matches_its_flag_and_the_flag_wins(tmp_path, key, file_value, flag_value):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"{key}={file_value}\n", encoding="utf-8")
    args = ["estimate", "--input", str(DATA / "two_sample_mirrored.csv"), "--method", "adapt"]
    from_file = run("--config", str(cfg), *args)
    assert from_file.returncode == 0, from_file.stderr
    assert from_file.stdout == run(*args, f"--{key}", file_value).stdout
    flag = run(*args, f"--{key}", flag_value).stdout
    assert flag != from_file.stdout
    assert run("--config", str(cfg), *args, f"--{key}", flag_value).stdout == flag


def test_config_output_matches_its_flag_and_the_flag_wins(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"output={tmp_path / 'file.csv'}\n", encoding="utf-8")
    args = ["estimate", "--input", str(DATA / "two_sample_mirrored.csv"), "--method", "bayes"]
    proc = run("--config", str(cfg), *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert run(*args, "--output", str(tmp_path / "flag.csv")).returncode == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    (tmp_path / "file.csv").unlink()
    assert run("--config", str(cfg), *args, "--output", str(tmp_path / "both.csv")).returncode == 0
    assert not (tmp_path / "file.csv").exists()
    assert (tmp_path / "both.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_level_reads_pi_and_reps_from_config(tmp_path, monkeypatch, capsys):
    from hplb import cli

    studied = []

    def study(spec, *args, **kwargs):
        studied.append(spec)
        return 0.0

    monkeypatch.setattr(cli, "run_level_study", study)
    cfg = tmp_path / "cfg"
    cfg.write_text("pi=0.3\nreps=120\n", encoding="utf-8")
    code = cli.main(["--config", str(cfg), "level", "--example", "1", "--n", "300",
                     "--c", "0.2", "--method", "bayes", "--format", "json"])
    assert code == 0
    assert [spec.pi for spec in studied] == [0.3]
    assert json.loads(capsys.readouterr().out)["reps"] == 120


def test_estimate_defaults_are_the_bound_spec_defaults(capsys):
    from hplb import BoundSpec, lambda_adapt
    from hplb import io as hio

    path = DATA / "two_sample_mirrored.csv"
    proc = run("estimate", "--input", str(path), "--method", "adapt")
    assert proc.returncode == 0, proc.stderr
    data = hio.parse_two_sample(path, tie_seed=BoundSpec.seed)
    hio.emit_result(lambda_adapt(data, BoundSpec()), "csv")
    assert proc.stdout == capsys.readouterr().out


# stdout of four seeded simulated-band commands: a change to how the null rows
# are drawn, cut or reduced to statistics must leave every digit in place
_SEEDED_OUTPUTS = [
    (["estimate", "--method", "adapt", "--input", "two_sample_contamination.csv"],
     '{"alpha": 0.05, "diagnostics": {"argmax_z": 36, "band_kind": "simulated", '
     '"evaluations": 9}, "method": "adapt", "value": 0.08360815485448575}\n'),
    (["estimate", "--method", "adapt", "--input", "two_sample_mirrored.csv"],
     '{"alpha": 0.05, "diagnostics": {"argmax_z": 159, "band_kind": "simulated", '
     '"evaluations": 8}, "method": "adapt", "value": 0.21643078131708102}\n'),
    (["scan", "--input", "ordered_change.csv", "--splits", "0.25,0.5,0.75"],
     '{"bounds": [0.07845902999444039, 0.3057400520114727, 0.12163082722482817], '
     '"m_n": [[130, 370], [243, 257], [375, 125]], "skipped": [], '
     '"splits": [0.25, 0.5, 0.75]}\n'),
    (["pairwise", "--input", "multiclass_three.csv"],
     '{"matrix": [[0.0, 0.0, 0.9121060339910001], [0.0, 0.0, 0.9121060339910001], '
     '[0.9121060339910001, 0.9121060339910001, 0.0]]}\n'),
]


def test_seeded_simulated_band_outputs_are_pinned(capsys):
    from hplb import cli

    band = ["--band", "simulated", "--sims", "1000", "--seed", "0", "--format", "json"]
    for argv, expected in _SEEDED_OUTPUTS:
        argv = [str(DATA / a) if a.endswith(".csv") else a for a in argv] + band
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected, argv


def test_unwritable_output_exits_2_naming_the_path(tmp_path):
    out = tmp_path / "missing" / "out.csv"
    proc = run("estimate", "--input", str(DATA / "two_sample_mirrored.csv"), "--method", "bayes",
               "--output", str(out))
    assert proc.returncode == 2, proc.stderr
    assert str(out) in proc.stderr
    assert proc.stdout == ""


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


def test_analytic_band_rejects_small_sims_up_front():
    # the analytic band simulates only for candidates with m_eff < 8, which
    # this search never reaches; sims < 100 is still rejected before it runs
    data = Path(__file__).resolve().parent.parent / "data" / "two_sample_mirrored.csv"
    args = ["--input", str(data), "--method", "adapt", "--band", "analytic"]
    assert run("estimate", *args).returncode == 0
    proc = run("estimate", *args, "--sims", "10")
    assert proc.returncode == 2
    assert "sims >= 100" in proc.stderr


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
        [sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
