"""Dataset parsing and deterministic emission."""

import json

import numpy as np
import pytest

from hplb import DatasetError, HPLBResult, PowerGridResult, RngStream
from hplb.estimators import Diagnostics
from hplb.experiments import SplitScanResult
from hplb import io as hio


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestTwoSample:
    def test_parse_counts(self, tmp_path):
        path = write(tmp_path, "d.csv", "score,label\n0.1,0\n0.9,1\n0.4,0\n")
        data = hio.parse_two_sample(path)
        assert (data.m, data.n) == (2, 1)

    def test_bad_label_names_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "score,label\n0.1,0\n0.9,2\n")
        with pytest.raises(DatasetError, match="row 3"):
            hio.parse_two_sample(path)

    def test_bad_score_names_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "score,label\nfoo,0\n")
        with pytest.raises(DatasetError, match="row 2"):
            hio.parse_two_sample(path)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "0.1,0\n0.9,1\n")
        with pytest.raises(DatasetError, match="header"):
            hio.parse_two_sample(path)

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "score,label\n0.1,0\n0.9,0\n")
        with pytest.raises(DatasetError, match="nonempty"):
            hio.parse_two_sample(path)

    def test_nan_score_names_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "score,label\n0.1,0\nnan,1\n0.9,1\n")
        with pytest.raises(DatasetError, match="row 3"):
            hio.parse_two_sample(path)


class TestMulticlass:
    def test_probabilities_must_sum_to_one(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            "label,p_1,p_2\n0,0.5,0.4\n1,0.5,0.5\n",
        )
        with pytest.raises(DatasetError, match="row 2"):
            hio.parse_multiclass(path)

    def test_roundtrip(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            "label,p_1,p_2\n0,0.25,0.75\n1,0.5,0.5\n0,0.9,0.1\n1,0.2,0.8\n",
        )
        labels, probs = hio.parse_multiclass(path)
        assert labels.tolist() == [0, 1, 0, 1]
        assert probs.shape == (4, 2)

    def test_label_domain(self, tmp_path):
        path = write(tmp_path, "m.csv", "label,p_1,p_2\n2,0.5,0.5\n")
        with pytest.raises(DatasetError, match="row 2"):
            hio.parse_multiclass(path)

    def test_nan_probability_names_row(self, tmp_path):
        path = write(tmp_path, "m.csv", "label,p_1,p_2\n0,0.5,0.5\n1,nan,0.5\n")
        with pytest.raises(DatasetError, match="row 3"):
            hio.parse_multiclass(path)

    def test_probability_outside_unit_interval_names_row(self, tmp_path):
        # the row sums to 1, but a probability cannot be negative
        path = write(tmp_path, "m.csv", "label,p_1,p_2\n0,0.5,0.5\n1,-0.5,1.5\n")
        with pytest.raises(DatasetError, match="row 3"):
            hio.parse_multiclass(path)


class TestOrdered:
    def test_parse(self, tmp_path):
        path = write(tmp_path, "o.csv", "t,score\n0.1,0.5\n0.9,0.25\n")
        t, s = hio.parse_ordered(path)
        assert t.tolist() == [0.1, 0.9]
        assert s.tolist() == [0.5, 0.25]

    def test_nan_t_names_row(self, tmp_path):
        # every split would count a NaN t on its left
        path = write(tmp_path, "o.csv", "t,score\n0.1,0.5\n0.2,0.4\nnan,0.3\n0.9,0.25\n")
        with pytest.raises(DatasetError, match="row 4"):
            hio.parse_ordered(path)

    def test_nan_score_names_row(self, tmp_path):
        path = write(tmp_path, "o.csv", "t,score\n0.1,nan\n0.9,0.25\n")
        with pytest.raises(DatasetError, match="row 2"):
            hio.parse_ordered(path)


class TestEmission:
    def test_result_csv_fixed_decimals(self, tmp_path):
        result = HPLBResult(
            value=0.6177573186,
            method="bayes",
            alpha=0.05,
            diagnostics=Diagnostics(argmax_z=12, evaluations=3, band_kind="analytic"),
        )
        out = tmp_path / "r.csv"
        hio.emit_result(result, "csv", out)
        text = out.read_text(encoding="utf-8")
        assert "0.617757" in text
        assert "\r" not in text
        assert text.endswith("\n")

    def test_header_only_scan(self, tmp_path):
        result = SplitScanResult(splits=(), bounds=(), m_n=(), skipped=())
        out = tmp_path / "s.csv"
        hio.emit_scan(result, "csv", out)
        assert out.read_text(encoding="utf-8") == "split,value,m,n,skipped\n"

    def test_powergrid_csv_shape(self, tmp_path):
        grid = PowerGridResult(
            example_id=1,
            method="adapt",
            gammas=(-0.3, -0.5),
            ns=(200, 400),
            reps=5,
            epsilon=1.0,
            alpha=0.05,
            c=1.0,
            freq={(g, N): 0.4 for g in (-0.3, -0.5) for N in (200, 400)},
            mean_lambda={(g, N): 0.1 for g in (-0.3, -0.5) for N in (200, 400)},
            slope=-1.0,
        )
        out = tmp_path / "g.csv"
        hio.emit_powergrid(grid, "csv", out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "gamma,N,freq,mean_lambda"
        assert len(lines) == 5

    def test_powergrid_json_roundtrip_fuzzed(self, tmp_path):
        rng = RngStream(12, 0)
        for rep in range(20):
            gammas = tuple(round(-0.1 - float(g), 6) for g in rng.random(3))
            ns = tuple(int(v) for v in rng.integers(100, 5000, 2))
            freq = {(g, N): float(rng.random()) for g in gammas for N in ns}
            mean_lambda = {(g, N): float(rng.random()) for g in gammas for N in ns}
            grid = PowerGridResult(
                example_id=2,
                method="bayes",
                gammas=gammas,
                ns=ns,
                reps=int(rng.integers(1, 500)),
                epsilon=float(rng.random()),
                alpha=0.05,
                c=float(1 + rng.random()),
                freq=freq,
                mean_lambda=mean_lambda,
                slope=float(rng.normal()),
            )
            out = tmp_path / f"grid{rep}.json"
            hio.emit_powergrid(grid, "json", out)
            back = json.loads(out.read_text(encoding="utf-8"))
            header = {k: v for k, v in back.items() if k != "cells"}
            assert header == {
                "example_id": grid.example_id, "method": grid.method,
                "gammas": list(grid.gammas), "ns": list(grid.ns), "reps": grid.reps,
                "epsilon": grid.epsilon, "alpha": grid.alpha, "c": grid.c, "slope": grid.slope,
            }
            assert [(c["gamma"], c["n"]) for c in back["cells"]] == list(grid.cells())
            assert {(c["gamma"], c["n"]): c["freq"] for c in back["cells"]} == grid.freq
            means = {(c["gamma"], c["n"]): c["mean_lambda"] for c in back["cells"]}
            assert means == grid.mean_lambda

    def test_json_is_deterministic(self, tmp_path):
        result = HPLBResult(value=0.25, method="adapt", alpha=0.05)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        hio.emit_result(result, "json", a)
        hio.emit_result(result, "json", b)
        assert a.read_bytes() == b.read_bytes()


class TestRepoDatasets:
    @pytest.mark.parametrize(
        "name", ["two_sample_contamination.csv", "two_sample_mirrored.csv"]
    )
    def test_two_sample_files_parse(self, name):
        data = hio.parse_two_sample(f"data/{name}")
        assert data.m >= 1 and data.n >= 1

    def test_ordered_file_parses(self):
        t, s = hio.parse_ordered("data/ordered_change.csv")
        assert len(t) == len(s) > 0

    def test_multiclass_file_parses(self):
        labels, probs = hio.parse_multiclass("data/multiclass_three.csv")
        assert probs.shape[1] == 3
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


# Inputs of the golden-bytes checks below.  Their expected texts pin every
# emitter's output exactly, in both formats.
_DIAG = Diagnostics(argmax_z=12, evaluations=3, band_kind="simulated")
_RESULTS = {
    "diagnostics": HPLBResult(0.6177573186, "adapt", 0.05, _DIAG),
    "plain": HPLBResult(0.25, "bayes", 0.1),
    "no_argmax": HPLBResult(0.0, "adapt", 0.05, Diagnostics(None, 1, "analytic")),
}
_GRID = PowerGridResult(
    example_id=1, method="c", gammas=(-0.2, -0.35), ns=(500, 1000), reps=20, epsilon=1.0,
    alpha=0.05, c=2.5,
    freq={(-0.2, 500): 0.1, (-0.2, 1000): 0.35, (-0.35, 500): 0.6, (-0.35, 1000): 1.0},
    mean_lambda={(-0.2, 500): 0.0123456789, (-0.2, 1000): 0.02, (-0.35, 500): 0.125,
                 (-0.35, 1000): 0.3},
    slope=-0.5,
)
_SCANS = {
    "skipped": SplitScanResult(
        splits=(0.05, 0.5, 0.75),
        bounds=(None, HPLBResult(0.1875, "adapt", 0.05, _DIAG), HPLBResult(0.0, "adapt", 0.05)),
        m_n=((0, 8), (4, 4), (6, 2)),
        skipped=("split 0.05: left side is empty",),
    ),
    "empty": SplitScanResult(splits=(), bounds=(), m_n=(), skipped=()),
}
_MATRIX = np.array([[0.0, 0.25, 0.5], [0.25, 0.0, 0.1234567], [0.5, 0.1234567, 0.0]])

_GOLDEN = [
    ("emit_result", _RESULTS["diagnostics"], "csv",
     "method,alpha,value,band,argmax_z,evaluations\nadapt,0.050000,0.617757,simulated,12,3\n"),
    ("emit_result", _RESULTS["diagnostics"], "json",
     '{"alpha": 0.05, "diagnostics": {"argmax_z": 12, "band_kind": "simulated", '
     '"evaluations": 3}, "method": "adapt", "value": 0.6177573186}\n'),
    ("emit_result", _RESULTS["plain"], "csv",
     "method,alpha,value,band,argmax_z,evaluations\nbayes,0.100000,0.250000,,,\n"),
    ("emit_result", _RESULTS["plain"], "json",
     '{"alpha": 0.1, "diagnostics": null, "method": "bayes", "value": 0.25}\n'),
    ("emit_result", _RESULTS["no_argmax"], "csv",
     "method,alpha,value,band,argmax_z,evaluations\nadapt,0.050000,0.000000,analytic,,1\n"),
    ("emit_result", _RESULTS["no_argmax"], "json",
     '{"alpha": 0.05, "diagnostics": {"argmax_z": null, "band_kind": "analytic", '
     '"evaluations": 1}, "method": "adapt", "value": 0.0}\n'),
    ("emit_powergrid", _GRID, "csv",
     "gamma,N,freq,mean_lambda\n-0.2,500,0.100000,0.012346\n-0.2,1000,0.350000,0.020000\n"
     "-0.35,500,0.600000,0.125000\n-0.35,1000,1.000000,0.300000\n"),
    ("emit_powergrid", _GRID, "json",
     '{"alpha": 0.05, "c": 2.5, "cells": [{"freq": 0.1, "gamma": -0.2, "mean_lambda": '
     '0.0123456789, "n": 500}, {"freq": 0.35, "gamma": -0.2, "mean_lambda": 0.02, "n": 1000}, '
     '{"freq": 0.6, "gamma": -0.35, "mean_lambda": 0.125, "n": 500}, {"freq": 1.0, "gamma": '
     '-0.35, "mean_lambda": 0.3, "n": 1000}], "epsilon": 1.0, "example_id": 1, "gammas": '
     '[-0.2, -0.35], "method": "c", "ns": [500, 1000], "reps": 20, "slope": -0.5}\n'),
    ("emit_scan", _SCANS["skipped"], "csv",
     "split,value,m,n,skipped\n0.05,,0,8,1\n0.5,0.187500,4,4,0\n0.75,0.000000,6,2,0\n"),
    ("emit_scan", _SCANS["skipped"], "json",
     '{"bounds": [null, 0.1875, 0.0], "m_n": [[0, 8], [4, 4], [6, 2]], '
     '"skipped": ["split 0.05: left side is empty"], "splits": [0.05, 0.5, 0.75]}\n'),
    ("emit_scan", _SCANS["empty"], "csv", "split,value,m,n,skipped\n"),
    ("emit_scan", _SCANS["empty"], "json",
     '{"bounds": [], "m_n": [], "skipped": [], "splits": []}\n'),
    ("emit_pairwise", _MATRIX, "csv",
     "i,j,value\n0,1,0.250000\n0,2,0.500000\n1,2,0.123457\n"),
    ("emit_pairwise", _MATRIX, "json",
     '{"matrix": [[0.0, 0.25, 0.5], [0.25, 0.0, 0.1234567], [0.5, 0.1234567, 0.0]]}\n'),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("emitter,obj,fmt,expected", _GOLDEN)
    def test_emitter_bytes(self, tmp_path, emitter, obj, fmt, expected):
        out = tmp_path / "out"
        getattr(hio, emitter)(obj, fmt, out)
        assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("emitter,obj,fmt,expected", _GOLDEN[:2])
    def test_stdout_matches_file(self, capsys, emitter, obj, fmt, expected):
        getattr(hio, emitter)(obj, fmt)
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("fmt,expected", [
        ("csv", "method,alpha,reps,exceedance\nc,0.100000,80,0.037500\n"),
        ("json", '{"alpha": 0.1, "exceedance": 0.0375, "method": "c", "reps": 80}\n'),
    ])
    def test_level_bytes(self, tmp_path, monkeypatch, fmt, expected):
        from hplb import cli

        monkeypatch.setattr(cli, "run_level_study", lambda *args, **kwargs: 0.0375)
        out = tmp_path / "level"
        argv = ["level", "--example", "toy", "--n", "40", "--method", "c", "--reps", "80",
                "--alpha", "0.1", "--format", fmt, "--output", str(out)]
        assert cli.main(argv) == 0
        assert out.read_bytes() == expected.encode("utf-8")
