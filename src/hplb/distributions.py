"""Binomial quantiles and the standard normal quantile.

The binomial quantile uses the convention

    q_alpha(p, m) = inf{ k in {0,...,m} : P(Binomial(p, m) <= k) >= alpha },

so P(X <= q) >= alpha and P(X <= q-1) < alpha.  Both CDF values come from
`scipy.special.bdtr` (a regularized incomplete beta function), which stays
accurate for every trial count.
"""

from __future__ import annotations

import math
from collections import namedtuple

from scipy.special import bdtr, bdtrik, ndtri

from .errors import ParameterError

__all__ = [
    "MEMO_SIZE",
    "binom_quantile",
    "normal_quantile",
]

# Entries kept by the binomial-quantile memo here and the band-record memo
# in `counting`.  Every memo of the package is a `_BoundedMemo`, and so
# evicts its oldest entry to make room for a new one.
MEMO_SIZE = 4096

_CacheInfo = namedtuple("CacheInfo", "misses maxsize currsize")
_MISSING = object()


class _BoundedMemo:
    """Memo of `fn` whose entries cost at most `maxsize` in all.

    An entry costs `cost(*key)`, 1 unless given, so by default `maxsize`
    counts entries.  A failed computation stores nothing, and neither does
    one whose entry alone costs more than `maxsize`.  The oldest entries
    make room for a new one, evicted when the miss starts so that a large
    entry is freed before its successor is built.
    """

    def __init__(self, fn, maxsize: int, cost=lambda *key: 1):
        self._fn = fn
        self._maxsize = maxsize
        self._cost = cost
        self._entries = {}
        self._used = 0
        self._misses = 0

    def __call__(self, *key):
        value = self._entries.get(key, _MISSING)
        if value is not _MISSING:
            return value
        self._misses += 1
        cost = self._cost(*key)
        if cost > self._maxsize:
            return self._fn(*key)
        while self._used + cost > self._maxsize:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self._used -= self._cost(*oldest)
        value = self._entries[key] = self._fn(*key)
        self._used += cost
        return value

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._misses, self._maxsize, len(self._entries))

    def cache_clear(self) -> None:
        self._entries.clear()
        self._used = 0
        self._misses = 0


def binom_quantile(alpha: float, p: float, m: int) -> int:
    """Smallest k with CDF(k) >= alpha for Binomial(p, m), under the infimum convention."""
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"quantile level must lie in (0, 1), got {alpha}")
    if not (0.0 <= p <= 1.0):  # NaN too
        raise ParameterError(f"success probability must lie in [0, 1], got {p}")
    if m < 0 or int(m) != m:
        raise ParameterError(f"trial count must be a nonnegative integer, got {m}")
    return _binom_quantile(alpha, float(p), int(m))


def _compute_binom_quantile(alpha: float, p: float, m: int) -> int:
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


# The adaptive estimator queries the same (alpha, p, m) triples many times
# across TV candidates and replications.
_binom_quantile = _BoundedMemo(_compute_binom_quantile, MEMO_SIZE)


def normal_quantile(alpha: float) -> float:
    """Standard normal quantile at level alpha in (0, 1)."""
    if not (0.0 < alpha < 1.0) or math.isnan(alpha):
        raise ParameterError(f"quantile level must lie in (0, 1), got {alpha}")
    return float(ndtri(alpha))
