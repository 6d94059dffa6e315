"""The order-statistic counting process and its simultaneous null bands.

Given scores with 0/1 labels, sort the pooled sample and let

    V[z] = number of label-0 observations among the z smallest scores,

for z = 1, ..., N-1.  When both samples share one distribution, V[z] is
Hypergeometric(z, N, m) and z -> V[z] is the hypergeometric process.  The
two confidence bands provided here upper-envelope that process uniformly
in z:

* analytic: mean line + beta * w(z, m, n), with beta the iterated-logarithm
  threshold (valid asymptotically, conservative at small sizes);
* simulated: mean line + c * w(z, m, n), with c the Monte Carlo
  rank-rule (1-alpha) quantile of simulated normalized sup statistics
  (exact at every simulation budget that resolves alpha).

Both share the hypergeometric standard deviation scale

    w(z, m, n) = sqrt((m/N) (n/N) ((N-z)/(N-1)) z).
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from .distributions import MEMO_SIZE, _binom_quantile
from .errors import BandDomainError, ParameterError
from .streams import RngStream

__all__ = [
    "LabeledScores",
    "CountingPath",
    "BandConstant",
    "build_counting_path",
    "w_scale",
    "beta_threshold",
    "simulate_null_sup_quantile",
    "band_value",
    "band_constant",
    "clear_band_cache",
]


@dataclass(frozen=True)
class LabeledScores:
    """Two-sample dataset of projection scores with 0/1 labels.

    `tie_seed` drives the random ordering within tied score blocks; under
    the null this keeps the counting process exactly hypergeometric.
    """

    scores: np.ndarray
    labels: np.ndarray
    tie_seed: int = 0
    m: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        labels = np.asarray(self.labels)
        if scores.ndim != 1 or labels.ndim != 1 or len(scores) != len(labels):
            raise ParameterError("scores and labels must be 1-D arrays of equal length")
        if not np.isin(labels, (0, 1)).all():
            raise ParameterError("labels must be 0 or 1")
        if np.isnan(scores).any():
            raise ParameterError("scores must not contain NaN")
        labels = labels.astype(np.int8)
        m = int(np.sum(labels == 0))
        n = int(np.sum(labels == 1))
        if m < 1 or n < 1:
            raise ParameterError(f"both classes must be nonempty, got m={m}, n={n}")
        scores.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @property
    def total(self) -> int:
        return self.m + self.n


@dataclass(frozen=True)
class CountingPath:
    """V[z] for z = 1, ..., m+n-1, plus the class sizes."""

    v: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.int64)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def validate(self) -> None:
        """Assert the step/range invariants; raises on any violation."""
        v, m, n = self.v, self.m, self.n
        N = m + n
        if len(v) != N - 1:
            raise ParameterError(f"path length must be N-1={N - 1}, got {len(v)}")
        if v[0] not in (0, 1):
            raise ParameterError("V[1] must be 0 or 1")
        steps = np.diff(v)
        if steps.size and (steps.min() < 0 or steps.max() > 1):
            raise ParameterError("increments must be 0 or 1")
        z = np.arange(1, N)
        if (v > np.minimum(z, m)).any() or (v < z - n).any():
            raise ParameterError("path leaves the [z - n, min(z, m)] envelope")


def build_counting_path(data: LabeledScores) -> CountingPath:
    """Sort scores ascending and count label-0 observations among prefixes.

    Ties are broken by a uniform random permutation within each tied block
    (seeded by `data.tie_seed`), which preserves exchangeability under the
    null and hence the hypergeometric law of V.
    """
    rng = RngStream(data.tie_seed, 0, ("tie-break",))
    u = rng.random(len(data.scores))
    order = np.lexsort((u, data.scores))
    v = np.cumsum(data.labels[order] == 0, dtype=np.int64)[:-1]
    return CountingPath(v=v, m=data.m, n=data.n)


def w_scale(z, m: int, n: int):
    """Hypergeometric standard deviation sqrt((m/N)(n/N)((N-z)/(N-1)) z).

    Accepts scalar or vector z; zero at z = 0 and z = N.
    """
    N = m + n
    if N < 2:
        raise ParameterError("need m + n >= 2")
    z = np.asarray(z, dtype=float)
    out = np.sqrt((m / N) * (n / N) * ((N - z) / (N - 1)) * z)
    return float(out) if out.ndim == 0 else out


def beta_threshold(alpha: float, m_eff: int) -> float:
    """Iterated-logarithm threshold for the normalized sup statistic.

    With L = log(log(m_eff)) and x = -log(-log(1 - alpha) / 2):

        beta = sqrt(2 L) + (log L - log(pi) + 2 x) / (2 sqrt(2 L)).

    Requires m_eff >= 8 so that L is safely positive; smaller sizes must
    use the simulated band.
    """
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if m_eff < 8:
        raise BandDomainError(f"analytic threshold needs m_eff >= 8, got {m_eff}")
    L = math.log(math.log(m_eff))
    x = -math.log(-math.log(1.0 - alpha) / 2.0)
    s = math.sqrt(2.0 * L)
    return s + (math.log(L) - math.log(math.pi) + 2.0 * x) / (2.0 * s)


@dataclass(frozen=True)
class BandConstant:
    """Multiplier c of w(z, m, n) on top of the null mean line.

    kind 'analytic' stores beta; kind 'simulated' stores the empirical
    sup-statistic quantile (sims > 0 only in that case).
    """

    kind: str
    c: float
    m_eff: int
    n_eff: int
    alpha: float
    sims: int = 0

    def __post_init__(self):
        if self.kind not in ("analytic", "simulated"):
            raise ParameterError(f"unknown band kind {self.kind!r}")
        if self.c <= 0.0:
            raise ParameterError("band constant must be positive")
        if self.m_eff < 1 or self.n_eff < 1:
            raise ParameterError("effective sizes must be at least 1")


def simulate_null_sup_quantile(
    alpha: float,
    m_eff: int,
    n_eff: int,
    sims: int,
    rng: RngStream,
    removed: tuple = (0, 0),
) -> BandConstant:
    """Monte Carlo (1-alpha) quantile of T = max_z (V[z] - z m_eff/N_eff) / w(z).

    The simulations cut one null draw: `sims` uniform permutations of the
    ids 0..N-1, N = m + n with m = m_eff + q_m, n = n_eff + q_n and
    (q_m, q_n) = `removed`.  Ids below m are ones, the rest zeros.  Each
    row drops the q_m smallest one-ids and the q_n smallest zero-ids;
    deleting a fixed id set from a uniform permutation leaves a uniform
    arrangement of the rest, so every row is an exact null path of m_eff
    ones among n_eff zeros.  The draw restarts `rng` from its identity and
    depends on that and (N, sims) only, so constants with another
    `removed` cut the same draw, which is kept between calls (see
    `_null_draw`).

    The constant is the k-th smallest T with k = ceil((1-alpha)(sims+1)),
    the Monte Carlo rank rule (Besag & Clifford 1989): a fresh null path
    exceeds it with probability (sims + 1 - k) / (sims + 1) <= alpha.
    Budgets with k > sims, that is alpha (sims + 1) < 1, are rejected.
    """
    if m_eff < 1 or n_eff < 1:
        raise ParameterError("effective sizes must be at least 1")
    if sims < 100:
        raise ParameterError("need at least 100 simulations")
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    # ceil((1-alpha)(sims+1)) written so that alpha (sims + 1) = 1 gives sims
    k = sims + 1 - math.floor(alpha * (sims + 1))
    if k > sims:
        raise ParameterError(
            f"{sims} simulations cannot resolve level {alpha}: need alpha * (sims + 1) >= 1"
        )
    q_m, q_n = removed
    if q_m < 0 or q_n < 0:
        raise ParameterError("removed counts must be nonnegative")
    m, n, N_eff = m_eff + q_m, n_eff + q_n, m_eff + n_eff
    z = np.arange(1, N_eff)
    mean = z * (m_eff / N_eff)
    wv = w_scale(z, m_eff, n_eff)
    T = []
    for ids in _null_draw(rng, m + n, sims):
        X = np.cumsum(_cut(ids, m, q_m, q_n), axis=1, dtype=np.int32)[:, :-1] - mean
        X /= wv
        T.append(X.max(axis=1))
    T = np.sort(np.concatenate(T))
    return BandConstant(
        kind="simulated", c=float(T[k - 1]), m_eff=m_eff, n_eff=n_eff, alpha=alpha, sims=sims
    )


# The null draw comes in row chunks of at most _CHUNK_IDS ids, which also
# bounds the temporaries of a cut.  A draw of at most _DRAW_BUDGET bytes is
# kept for the next constant; a larger one (N near 1e5 with 1000 sims) is
# drawn again from the start of its stream for every constant, with the
# same values.
_CHUNK_IDS = 1 << 17
_DRAW_BUDGET = 64 << 20


def _id_dtype(N: int) -> np.dtype:
    return np.dtype(np.uint16 if N <= 1 << 16 else np.uint32)


def _draw_rows(rng: RngStream, N: int, sims: int):
    """Yield the null draw's row chunks: uniform permutations of 0..N-1.

    `permuted` shuffles row after row alike whatever the dtype and the
    chunking, so the ids below m mark the ones of the 0/1 rows that the
    same generator would shuffle: an uncut draw reproduces those rows.
    """
    gen = rng.generator
    rows = max(1, min(sims, _CHUNK_IDS // N))
    for start in range(0, sims, rows):
        shape = (min(rows, sims - start), N)
        ids = np.broadcast_to(np.arange(N, dtype=_id_dtype(N)), shape).copy()
        yield gen.permuted(ids, axis=1, out=ids)


def _null_draw(rng: RngStream, N: int, sims: int):
    """The null draw of `rng`: the stored chunks if they fit the budget, else fresh ones."""
    if sims * N * _id_dtype(N).itemsize > _DRAW_BUDGET:
        return _draw_rows(RngStream(*rng.identity), N, sims)
    return _stored_draw(rng.identity, N, sims)


def _cut(ids: np.ndarray, m: int, q_m: int, q_n: int) -> np.ndarray:
    """One-flags of the rows of `ids` without the ids 0..q_m-1 and m..m+q_n-1.

    Every row of a permutation keeps the same number of ids, so the kept
    flags reshape to (rows, N - q_m - q_n).
    """
    keep = (ids >= q_m) & ((ids < m) | (ids >= m + q_n))
    return (ids < m)[keep].reshape(len(ids), -1)


def band_value(const: BandConstant, z):
    """Upper envelope z * m_eff/(m_eff+n_eff) + c * w(z, m_eff, n_eff).

    z may be a scalar in [1, m_eff+n_eff-1] or a vector thereof.
    """
    N = const.m_eff + const.n_eff
    z_arr = np.asarray(z)
    if (z_arr < 1).any() or (z_arr > N - 1).any():
        raise ParameterError(f"z must lie in [1, {N - 1}]")
    out = z_arr * (const.m_eff / N) + const.c * w_scale(z_arr, const.m_eff, const.n_eff)
    return float(out) if out.ndim == 0 else out


def clear_band_cache() -> None:
    """Empty the band-constant, null-draw and binomial-quantile memos."""
    _band_constant.cache_clear()
    _stored_draw.cache_clear()
    _binom_quantile.cache_clear()


def band_constant(
    alpha: float,
    m_eff: int,
    n_eff: int,
    kind: str,
    sims: int = 1000,
    seed: int = 0,
    removed: tuple = (0, 0),
) -> BandConstant:
    """Memoized band constant; analytic kind falls back to simulated below m_eff = 8.

    A simulated constant is cut from the null draw of the full sizes
    (m_eff + q_m, n_eff + q_n), (q_m, q_n) = `removed`, so every TV
    candidate of one sample shares a single draw (see
    `simulate_null_sup_quantile`).  The analytic fallback draws at its own
    sizes, so the analytic band never pays for a full-size draw.

    The fallback constant is floored at the guard-boundary analytic
    threshold beta(alpha, 8).  Without the floor the envelope family would
    tighten abruptly when the effective size drops under the guard, making
    the violation indicator non-monotone in the TV candidate (admissible
    candidates followed by violated larger ones), which is exactly the
    structure the adaptive bisection must exclude.  Flooring only ever
    widens the band, so validity is untouched.  The fallback raises its
    budget to ceil(1/alpha) simulations where sims could not resolve alpha.
    """
    fallback = kind == "analytic" and m_eff < 8
    simulated = kind == "simulated" or fallback
    if fallback and alpha * (sims + 1) < 1.0:
        sims = math.ceil(1.0 / alpha)
    removed = tuple(removed) if kind == "simulated" else (0, 0)
    return _band_constant(
        alpha, m_eff, n_eff, simulated, sims if simulated else 0, seed, fallback, removed
    )


_CacheInfo = namedtuple("CacheInfo", "misses maxsize currsize")
_MISSING = object()


class _SingleFlight:
    """Bounded memo of `fn` whose concurrent misses on one key compute once.

    A hit reads the entries without the lock (a dict read is atomic).  The
    first caller to miss a key computes it, and callers arriving meanwhile
    wait on its future instead of computing again.  A failed computation
    stores nothing.  The oldest entry makes room for a new one, evicted
    when the miss starts so that a large entry is freed before its
    successor is built.
    """

    def __init__(self, fn, maxsize: int):
        self._fn = fn
        self._maxsize = maxsize
        self._entries = {}
        self._pending = {}
        self._lock = threading.Lock()
        self._misses = 0

    def _make_room(self) -> None:
        while len(self._entries) >= self._maxsize:
            del self._entries[next(iter(self._entries))]

    def __call__(self, *key):
        value = self._entries.get(key, _MISSING)
        if value is not _MISSING:
            return value
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                return value
            future = self._pending.get(key)
            owner = future is None
            if owner:
                self._misses += 1
                future = self._pending[key] = Future()
                self._make_room()
        if not owner:
            return future.result()
        try:
            value = self._fn(*key)
        except BaseException as exc:
            with self._lock:
                del self._pending[key]
            future.set_exception(exc)
            raise
        with self._lock:
            del self._pending[key]
            self._make_room()
            self._entries[key] = value
        future.set_result(value)
        return value

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._misses, self._maxsize, len(self._entries))

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._misses = 0


def _compute_band_constant(alpha, m_eff, n_eff, simulated, sims, seed, fallback, removed):
    if not simulated:
        return BandConstant(
            kind="analytic",
            c=beta_threshold(alpha, m_eff),
            m_eff=m_eff,
            n_eff=n_eff,
            alpha=alpha,
            sims=0,
        )
    q_m, q_n = removed
    rng = RngStream(seed, 0, ("null-band", m_eff + q_m, n_eff + q_n, sims, round(alpha, 12)))
    const = simulate_null_sup_quantile(alpha, m_eff, n_eff, sims, rng, removed=removed)
    if fallback and const.c < (floor_c := beta_threshold(alpha, 8)):
        const = BandConstant(
            kind="simulated",
            c=floor_c,
            m_eff=m_eff,
            n_eff=n_eff,
            alpha=alpha,
            sims=sims,
        )
    return const


# The adaptive search evaluates many TV candidates whose binomial quantiles
# coincide, so band constants repeat heavily.  A simulated constant derives
# its stream from its full sizes, so the memo content is independent of
# evaluation order.  One null draw is kept: every candidate of a sample cuts
# the same one, and samples are bounded one after another.
_band_constant = _SingleFlight(_compute_band_constant, MEMO_SIZE)
_stored_draw = _SingleFlight(
    lambda identity, N, sims: tuple(_draw_rows(RngStream(*identity), N, sims)), 1
)
