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


class TestOrdered:
    def test_parse(self, tmp_path):
        path = write(tmp_path, "o.csv", "t,score\n0.1,0.5\n0.9,0.25\n")
        t, s = hio.parse_ordered(path)
        assert t.tolist() == [0.1, 0.9]
        assert s.tolist() == [0.5, 0.25]


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
