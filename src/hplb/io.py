"""Dataset parsing and deterministic result emission.

Three input schemas, all CSV with a mandatory header row:

* two-sample : columns (score, label) with label in {0, 1};
* ordered    : columns (t, score) for split scanning;
* multiclass : columns (label, p_1, ..., p_K) with label in {0, ..., K-1},
               each probability in [0, 1] and each row summing to 1
               within 1e-6.

No numeric field may be NaN; a bad field is reported with its row number.

Every emitter builds its CSV rows and its JSON payload and hands both to
one writer, `_emit`.  It writes UTF-8, LF line endings, '.' decimals, and
fixed 6-decimal estimator values, so outputs are byte-identical across runs
with the same seed.  Column orders are documented in the README and frozen
here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict

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
    "emit_level",
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


def _number(path, i, what, text) -> float:
    """`text` as a float, or a DatasetError naming row `i` when it is not a number or is NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise DatasetError(f"{path}: row {i}: {what} {text!r} is not a number")
    return value


def parse_two_sample(path, tie_seed: int = 0) -> LabeledScores:
    rows = _read_rows(path)
    _header(rows, ["score", "label"], path)
    scores, labels = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DatasetError(f"{path}: row {i}: expected 2 fields, got {len(row)}")
        scores.append(_number(path, i, "score", row[0]))
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
        t.append(_number(path, i, "t", row[0]))
        s.append(_number(path, i, "score", row[1]))
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
        p = [_number(path, i, "probability", v) for v in row[1:]]
        if not all(0.0 <= v <= 1.0 for v in p):
            raise DatasetError(f"{path}: row {i}: probabilities {p} leave [0, 1]")
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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DatasetError(f"cannot write {path}: {exc}") from exc


def _emit(fmt: str, path, header: str, rows, payload) -> None:
    """Write `header` and `rows` as CSV lines, or `payload` as one line of sorted-key JSON.

    A None field in a row is written as an empty CSV field.
    """
    if fmt == "csv":
        lines = [header] + [",".join("" if v is None else str(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    write_text(path, text)


def emit_result(result: HPLBResult, fmt: str, path=None) -> None:
    """HPLB CSV columns: method, alpha, value, band, argmax_z, evaluations."""
    d = result.diagnostics
    row = [result.method, _f6(result.alpha), _f6(result.value)]
    row += [None] * 3 if d is None else [d.band_kind, d.argmax_z, d.evaluations]
    payload = {"method": result.method, "alpha": result.alpha, "value": result.value,
               "diagnostics": None if d is None else asdict(d)}
    _emit(fmt, path, "method,alpha,value,band,argmax_z,evaluations", [row], payload)


def emit_powergrid(result: PowerGridResult, fmt: str, path=None) -> None:
    """Power-grid CSV columns: gamma, N, freq, mean_lambda (one row per cell)."""
    cells = [(g, N, result.freq[(g, N)], result.mean_lambda[(g, N)]) for g, N in result.cells()]
    rows = [(f"{g:g}", N, _f6(freq), _f6(mean)) for g, N, freq, mean in cells]
    fields = ("example_id", "method", "reps", "epsilon", "alpha", "c", "slope")
    payload = {name: getattr(result, name) for name in fields}
    if math.isnan(result.slope):  # the 50% contour left the grid
        payload["slope"] = None
    payload.update(gammas=list(result.gammas), ns=list(result.ns), cells=[
        {"gamma": g, "n": N, "freq": freq, "mean_lambda": mean} for g, N, freq, mean in cells
    ])
    _emit(fmt, path, "gamma,N,freq,mean_lambda", rows, payload)


def emit_scan(result: SplitScanResult, fmt: str, path=None) -> None:
    """Scan CSV columns: split, value, m, n, skipped (empty value when skipped)."""
    values = [None if b is None else b.value for b in result.bounds]
    rows = [(f"{s:g}", None if v is None else _f6(v), m, n, int(v is None))
            for s, v, (m, n) in zip(result.splits, values, result.m_n)]
    payload = {"splits": list(result.splits), "bounds": values,
               "m_n": [list(x) for x in result.m_n], "skipped": list(result.skipped)}
    _emit(fmt, path, "split,value,m,n,skipped", rows, payload)


def emit_pairwise(matrix: np.ndarray, fmt: str, path=None) -> None:
    """Pairwise CSV columns: i, j, value for i < j plus the full matrix in JSON."""
    K = matrix.shape[0]
    rows = [(i, j, _f6(matrix[i, j])) for i in range(K) for j in range(i + 1, K)]
    _emit(fmt, path, "i,j,value", rows, {"matrix": matrix.tolist()})


def emit_level(method: str, alpha: float, reps: int, exceedance: float, fmt: str,
               path=None) -> None:
    """Level CSV columns: method, alpha, reps, exceedance."""
    payload = {"method": method, "alpha": alpha, "reps": reps, "exceedance": exceedance}
    row = [method, _f6(alpha), reps, _f6(exceedance)]
    _emit(fmt, path, "method,alpha,reps,exceedance", [row], payload)
