"""Dataset parsing and deterministic result emission.

Three input schemas, all CSV with a mandatory header row:

* two-sample : columns (score, label) with label in {0, 1};
* ordered    : columns (t, score) for split scanning;
* multiclass : columns (label, p_1, ..., p_K) with label in {0, ..., K-1}
               and each probability row summing to 1 within 1e-6.

Emission writes UTF-8, LF line endings, '.' decimals, and fixed 6-decimal
estimator values, so outputs are byte-identical across runs with the same
seed.  Column orders are documented in the README and frozen here.
"""

from __future__ import annotations

import csv
import io as _io
import json

import numpy as np

from .counting import LabeledScores
from .errors import DatasetError
from .experiments import PowerGridResult, SplitScanResult
from .estimators import HPLBResult

__all__ = [
    "parse_two_sample",
    "parse_ordered",
    "parse_multiclass",
    "emit_result",
    "emit_powergrid",
    "emit_scan",
    "emit_pairwise",
    "write_text",
]


def _read_rows(path) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh)]
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DatasetError(f"{path}: empty file, expected a header row")
    return rows


def _header(rows, expected, path):
    got = [c.strip().lower() for c in rows[0]]
    if got != expected:
        raise DatasetError(f"{path}: expected header {expected}, got {got}")


def parse_two_sample(path, tie_seed: int = 0) -> LabeledScores:
    rows = _read_rows(path)
    _header(rows, ["score", "label"], path)
    scores, labels = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DatasetError(f"{path}: row {i}: expected 2 fields, got {len(row)}")
        try:
            scores.append(float(row[0]))
        except ValueError:
            raise DatasetError(f"{path}: row {i}: score {row[0]!r} is not a number") from None
        if row[1].strip() not in ("0", "1"):
            raise DatasetError(f"{path}: row {i}: label {row[1]!r} is not 0 or 1")
        labels.append(int(row[1]))
    if not scores:
        raise DatasetError(f"{path}: no data rows")
    arr = np.asarray(labels)
    if (arr == 0).sum() == 0 or (arr == 1).sum() == 0:
        raise DatasetError(f"{path}: both classes must be nonempty")
    return LabeledScores(scores=np.asarray(scores), labels=arr, tie_seed=tie_seed)


def parse_ordered(path):
    rows = _read_rows(path)
    _header(rows, ["t", "score"], path)
    t, s = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DatasetError(f"{path}: row {i}: expected 2 fields, got {len(row)}")
        try:
            t.append(float(row[0]))
            s.append(float(row[1]))
        except ValueError:
            raise DatasetError(f"{path}: row {i}: non-numeric field") from None
    if not t:
        raise DatasetError(f"{path}: no data rows")
    return np.asarray(t), np.asarray(s)


def parse_multiclass(path):
    rows = _read_rows(path)
    head = [c.strip().lower() for c in rows[0]]
    if len(head) < 3 or head[0] != "label" or head[1:] != [f"p_{k}" for k in range(1, len(head))]:
        raise DatasetError(f"{path}: expected header ['label', 'p_1', ..., 'p_K'], got {head}")
    K = len(head) - 1
    labels, probs = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != K + 1:
            raise DatasetError(f"{path}: row {i}: expected {K + 1} fields, got {len(row)}")
        try:
            lab = int(row[0])
        except ValueError:
            raise DatasetError(f"{path}: row {i}: label {row[0]!r} is not an integer") from None
        if not (0 <= lab < K):
            raise DatasetError(f"{path}: row {i}: label {lab} outside 0..{K - 1}")
        try:
            p = [float(v) for v in row[1:]]
        except ValueError:
            raise DatasetError(f"{path}: row {i}: non-numeric probability") from None
        if abs(sum(p) - 1.0) > 1e-6:
            raise DatasetError(f"{path}: row {i}: probabilities sum to {sum(p)}, not 1")
        labels.append(lab)
        probs.append(p)
    if not labels:
        raise DatasetError(f"{path}: no data rows")
    labels = np.asarray(labels)
    for k in range(K):
        if (labels == k).sum() == 0:
            raise DatasetError(f"{path}: class {k} is empty")
    return labels, np.asarray(probs)


def _f6(x: float) -> str:
    return f"{x:.6f}"


def write_text(path, text: str) -> None:
    """Write UTF-8 text with LF line endings to `path`, or to stdout when it is None."""
    if path is None:
        print(text, end="")
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_result(result: HPLBResult, fmt: str, path=None) -> None:
    """HPLB CSV columns: method, alpha, value, band, argmax_z, evaluations."""
    d = result.diagnostics
    if fmt == "csv":
        buf = _io.StringIO()
        buf.write("method,alpha,value,band,argmax_z,evaluations\n")
        buf.write(
            ",".join(
                [
                    result.method,
                    _f6(result.alpha),
                    _f6(result.value),
                    (d.band_kind if d and d.band_kind else ""),
                    (str(d.argmax_z) if d and d.argmax_z is not None else ""),
                    (str(d.evaluations) if d else ""),
                ]
            )
            + "\n"
        )
        write_text(path, buf.getvalue())
    else:
        payload = {
            "method": result.method,
            "alpha": result.alpha,
            "value": result.value,
            "diagnostics": None
            if d is None
            else {"argmax_z": d.argmax_z, "evaluations": d.evaluations, "band_kind": d.band_kind},
        }
        write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def emit_powergrid(result: PowerGridResult, fmt: str, path=None) -> None:
    """Power-grid CSV columns: gamma, N, freq, mean_lambda (one row per cell)."""
    if fmt == "csv":
        buf = _io.StringIO()
        buf.write("gamma,N,freq,mean_lambda\n")
        for g, N in result.cells():
            buf.write(f"{g:g},{N},{_f6(result.freq[(g, N)])},{_f6(result.mean_lambda[(g, N)])}\n")
        write_text(path, buf.getvalue())
    else:
        payload = {
            "example_id": result.example_id,
            "method": result.method,
            "gammas": list(result.gammas),
            "ns": list(result.ns),
            "reps": result.reps,
            "epsilon": result.epsilon,
            "alpha": result.alpha,
            "c": result.c,
            "slope": result.slope,
            "cells": [
                {
                    "gamma": g,
                    "n": N,
                    "freq": result.freq[(g, N)],
                    "mean_lambda": result.mean_lambda[(g, N)],
                }
                for g, N in result.cells()
            ],
        }
        write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def emit_scan(result: SplitScanResult, fmt: str, path=None) -> None:
    """Scan CSV columns: split, value, m, n, skipped (empty value when skipped)."""
    if fmt == "csv":
        buf = _io.StringIO()
        buf.write("split,value,m,n,skipped\n")
        for s, b, (m, n) in zip(result.splits, result.bounds, result.m_n):
            val = _f6(b.value) if b is not None else ""
            buf.write(f"{s:g},{val},{m},{n},{0 if b is not None else 1}\n")
        write_text(path, buf.getvalue())
    else:
        payload = {
            "splits": list(result.splits),
            "bounds": [None if b is None else b.value for b in result.bounds],
            "m_n": [list(x) for x in result.m_n],
            "skipped": list(result.skipped),
        }
        write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def emit_pairwise(matrix: np.ndarray, fmt: str, path=None) -> None:
    """Pairwise CSV columns: i, j, value for i < j plus the full matrix in JSON."""
    if fmt == "csv":
        buf = _io.StringIO()
        buf.write("i,j,value\n")
        K = matrix.shape[0]
        for i in range(K):
            for j in range(i + 1, K):
                buf.write(f"{i},{j},{_f6(matrix[i, j])}\n")
        write_text(path, buf.getvalue())
    else:
        write_text(path, json.dumps({"matrix": matrix.tolist()}, sort_keys=True) + "\n")
