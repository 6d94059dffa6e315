import numpy as np
import pytest

from hplb import LabeledScores, counting


@pytest.fixture
def two_class():
    """Small toy dataset: label-0 scores {0.2, 0.6}, label-1 scores {0.4, 0.8}."""
    return LabeledScores(
        scores=np.array([0.2, 0.6, 0.4, 0.8]),
        labels=np.array([0, 0, 1, 1]),
        tie_seed=7,
    )


def separated_scores(m, n, tie_seed=0):
    """Every label-0 score strictly below every label-1 score."""
    scores = np.concatenate([np.linspace(0.0, 0.4, m), np.linspace(0.6, 1.0, n)])
    labels = np.concatenate([np.zeros(m, dtype=int), np.ones(n, dtype=int)])
    return LabeledScores(scores=scores, labels=labels, tie_seed=tie_seed)


def count_null_rows(monkeypatch):
    """Record (m_eff, n_eff, rows) for every chunk of null rows the band cuts."""
    rows = []
    block_sups = counting._block_sups

    def counted(cut, m_eff, n_eff, floor):
        for T in block_sups(cut, m_eff, n_eff, floor):
            rows.append((m_eff, n_eff, len(T)))
            yield T

    monkeypatch.setattr(counting, "_block_sups", counted)
    return rows
