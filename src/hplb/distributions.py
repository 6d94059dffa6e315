"""Binomial quantiles and the standard normal quantile.

The binomial quantile uses the convention

    q_alpha(p, m) = inf{ k in {0,...,m} : P(Binomial(p, m) <= k) >= alpha },

so P(X <= q) >= alpha and P(X <= q-1) < alpha.  Both CDF values come from
`scipy.special.bdtr` (a regularized incomplete beta function), which stays
accurate for every trial count.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy.special import bdtr, bdtrik, ndtri

from .errors import ParameterError

__all__ = [
    "MEMO_SIZE",
    "BinomialParams",
    "binom_quantile",
    "normal_quantile",
]

# Entries kept by each of the package's memos: binomial quantiles here evict
# the least recently used entry, band constants in `counting` the oldest.
MEMO_SIZE = 4096


class BinomialParams:
    """Success probability and trial count of a binomial law."""

    __slots__ = ("p", "m")

    def __init__(self, p: float, m: int):
        if not (0.0 <= p <= 1.0) or math.isnan(p):
            raise ParameterError(f"success probability must lie in [0, 1], got {p}")
        if m < 0 or int(m) != m:
            raise ParameterError(f"trial count must be a nonnegative integer, got {m}")
        self.p = float(p)
        self.m = int(m)


def binom_quantile(alpha: float, params: BinomialParams) -> int:
    """Smallest k with CDF(k) >= alpha under the infimum convention."""
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"quantile level must lie in (0, 1), got {alpha}")
    return _binom_quantile(alpha, params.p, params.m)


# The adaptive estimator queries the same (alpha, p, m) triples many times
# across TV candidates and replications.
@lru_cache(maxsize=MEMO_SIZE)
def _binom_quantile(alpha: float, p: float, m: int) -> int:
    if p == 0.0:
        return 0
    if p == 1.0:
        return m
    # bdtrik inverts the CDF continuously; step from its ceiling until the
    # defining bracket CDF(k-1) < alpha <= CDF(k) holds.
    start = bdtrik(alpha, m, p)
    k = min(max(math.ceil(start), 0), m) if math.isfinite(start) else 0
    while k < m and bdtr(k, m, p) < alpha:
        k += 1
    while k > 0 and bdtr(k - 1, m, p) >= alpha:
        k -= 1
    return k


def normal_quantile(alpha: float) -> float:
    """Standard normal quantile at level alpha in (0, 1)."""
    if not (0.0 < alpha < 1.0) or math.isnan(alpha):
        raise ParameterError(f"quantile level must lie in (0, 1), got {alpha}")
    return float(ndtri(alpha))
