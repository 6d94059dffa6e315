"""The order-statistic counting process and its simultaneous null bands.

Given scores with 0/1 labels, sort the pooled sample and let

    V[z] = number of label-0 observations among the z smallest scores,

for z = 1, ..., N-1.  When both samples share one distribution, V[z] is
Hypergeometric(z, N, m) and z -> V[z] is the hypergeometric process.  The
two confidence bands provided here upper-envelope that process uniformly
in z:

* analytic: mean line + beta * w(z, m, n), with beta the iterated-logarithm
  threshold (valid asymptotically only: at 20 + 400 the null exceedance
  of beta(0.0167, m_eff) was 0.0526);
* simulated: mean line + c * w(z, m, n), with c the Monte Carlo
  rank-rule (1-alpha) quantile of simulated normalized sup statistics
  (exact at every simulation budget that resolves alpha).

Both share the hypergeometric standard deviation scale

    w(z, m, n) = sqrt((m/N) (n/N) ((N-z)/(N-1)) z).

A path leaves the band of constant c exactly when its normalized sup
statistic T = max_z (V[z] - z m/N) / w(z, m, n) exceeds c; a tie T = c is
not a violation.  `bounding.is_violated` computes the data's T with
`_normalized_paths`, every double (V[z] - z m/N) / w(z) of the path.  A
null row of at least `_WORD_MIN` and fewer than 2**25 ids takes the word
kernel `_word_sups`, whose T is bit for bit the same.  `is_violated`
needs only the verdict T_obs > c, and `exceeds_band` gives it from the
fewest null rows the Monte Carlo rank rule needs, on one memoized record
of null sup statistics per band key (`_BandRecord`).

The arguments behind these claims live in README.md, Notes: "Coupled null
draws and the rank rule" (each cut row is an exact null path), "One
statistic decides a candidate" (the word kernel's monotone rounding), "A
verdict reads as few null rows as the rank rule needs" (the stop rule)
and "The analytic fallback is floored at beta(alpha, 8)".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import MEMO_SIZE, _binom_quantile, _BoundedMemo
from .errors import ParameterError
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
    "exceeds_band",
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
        is1 = labels == 1
        m, n = int(np.count_nonzero(labels == 0)), int(np.count_nonzero(is1))
        if m + n != len(labels):
            raise ParameterError("labels must be 0 or 1")
        if len(scores) and np.isnan(scores.min()):  # min is NaN exactly when a score is
            raise ParameterError("scores must not contain NaN")
        if m < 1 or n < 1:
            raise ParameterError(f"both classes must be nonempty, got m={m}, n={n}")
        labels = is1.view(np.int8)
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
    null and hence the hypergeometric law of V.  The order is that of
    `np.lexsort((u, scores))` for uniform keys u, computed by one sort of
    int64 keys wherever they give it (README.md, Notes, "The tie-break
    order is lexsort's").
    """
    u = RngStream(data.tie_seed, 0, ("tie-break",)).random(data.total)
    v = np.cumsum(_zeros_in_tie_break_order(data.scores, u, data.labels), dtype=np.int64)
    return CountingPath(v=v[:-1], m=data.m, n=data.n)


def _zeros_in_tie_break_order(scores, u, labels) -> np.ndarray:
    """The flags label == 0 in the order `np.lexsort((u, scores))`, as 0/1 integers.

    For u in [0, 1), one sort of the int64 keys
    rank << (54 - drop) | floor(u 2**(53 - drop)) << 1 | (label == 0)
    gives the order, rank being the score's among the distinct values and
    drop what the rank needs beyond 9 bits.  Where two keys agree above the
    last bit, lexsort decides, as it does for u outside [0, 1).
    """
    if u.min() >= 0.0 and u.max() < 1.0:
        ranks, distinct = _score_ranks(scores)
        u_bits = 53 - max(0, (distinct - 1).bit_length() - 9)
        key = ranks.astype(np.int64)
        key <<= u_bits
        key |= (u * 2.0 ** u_bits).astype(np.int64)
        key <<= 1
        key |= labels == 0
        key.sort()
        # keys of one rank whose truncated u agree differ at most in the last bit
        if len(key) < 2 or np.bitwise_xor(key[1:], key[:-1]).min() > 1:
            key &= 1
            return key
    return labels[np.lexsort((u, scores))] == 0


def _score_ranks(scores: np.ndarray):
    """Each score's rank among the distinct values, equal doubles sharing one,
    and the number of distinct values; the scores are sorted once."""
    N = len(scores)
    by_score = np.argsort(scores)
    sorted_scores = scores[by_score]
    new_value = np.empty(N, dtype=bool)
    new_value[:1] = False
    np.not_equal(sorted_scores[1:], sorted_scores[:-1], out=new_value[1:])
    sorted_ranks = np.cumsum(new_value, dtype=np.int16 if N <= 1 << 15 else np.int32)
    ranks = np.empty_like(sorted_ranks)
    ranks[by_score] = sorted_ranks
    return ranks, int(sorted_ranks[-1]) + 1


def w_scale(z, m: int, n: int):
    """Hypergeometric standard deviation sqrt((m/N)(n/N)((N-z)/(N-1)) z).

    Accepts scalar or vector z; zero at z = 0 and z = N.  It is computed
    in one buffer, one operation of the formula at a time, so the doubles
    are those of the formula's expression.
    """
    N = m + n
    if N < 2:
        raise ParameterError("need m + n >= 2")
    z = np.asarray(z, dtype=float)
    out = np.subtract(N, z, out=np.empty_like(z))
    out /= N - 1
    out *= (m / N) * (n / N)
    out *= z
    np.sqrt(out, out=out)
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
        raise ParameterError(f"analytic threshold needs m_eff >= 8, got {m_eff}")
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


def _scale_grid(m_eff: int, n_eff: int):
    """The read-only null mean line z m_eff/N_eff and w(z, m_eff, n_eff), z = 1..N_eff-1;
    `_scale_grids` memoizes it."""
    z = np.arange(1.0, m_eff + n_eff)
    w = w_scale(z, m_eff, n_eff)
    z *= m_eff / (m_eff + n_eff)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def _normalized_paths(V, m_eff: int, n_eff: int) -> np.ndarray:
    """(V[z] - z m_eff/N_eff) / w(z, m_eff, n_eff), z = 1..N_eff-1.

    V is a counting path at sizes (m_eff, n_eff), or holds one per row.
    """
    mean, wv = _scale_grids(m_eff, n_eff)
    X = np.subtract(V, mean)
    X /= wv
    return X


def _rank(alpha: float, m_eff: int, n_eff: int, sims: int, removed: tuple) -> int:
    """The rank k = ceil((1-alpha)(sims+1)) of the band constant, after checking the budget."""
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
    if removed[0] < 0 or removed[1] < 0:
        raise ParameterError("removed counts must be nonnegative")
    return k


def simulate_null_sup_quantile(
    alpha: float,
    m_eff: int,
    n_eff: int,
    sims: int,
    rng: RngStream,
    removed: tuple = (0, 0),
) -> BandConstant:
    """Monte Carlo (1-alpha) quantile of T = max_z (V[z] - z m_eff/N_eff) / w(z).

    The constant of a simulated band record (`_BandRecord`) whose null draw
    restarts `rng` from its identity, cut at (q_m, q_n) = `removed`: the
    k-th smallest of `sims` null sup statistics, k = ceil((1-alpha)(sims+1)).
    Budgets with alpha (sims + 1) < 1 are rejected.  README.md, Notes,
    "Coupled null draws and the rank rule", has the argument.
    """
    return _BandRecord(alpha, m_eff, n_eff, "simulated", sims, rng.identity,
                       tuple(removed)).constant()


# The null draw comes in row chunks of at most _CHUNK_IDS ids, which also
# bounds the temporaries of a cut.  A draw of at most _DRAW_BUDGET bytes is
# kept for the next query; a larger one (N near 1e5 with 1000 sims) is
# drawn again from the start of its stream for every query that cuts it,
# with the same values.
_CHUNK_IDS = 1 << 17
_DRAW_BUDGET = 64 << 20
# The np.intp shuffle scratch of `_draw_rows` holds at most _SCRATCH_IDS ids
# (128 KiB), an eighth of what a whole chunk would take.
_SCRATCH_IDS = 1 << 14


def _id_dtype(N: int) -> np.dtype:
    return np.dtype(np.uint16 if N <= 1 << 16 else np.uint32)


def _draw_rows(rng: RngStream, N: int, sims: int):
    """Yield the null draw's row chunks: uniform permutations of 0..N-1.

    `permuted` shuffles row after row alike whatever the dtype and the
    chunking, so the ids below m mark the ones of the 0/1 rows that the
    same generator would shuffle: an uncut draw reproduces those rows.
    The rows are shuffled in an `np.intp` scratch buffer of at most
    _SCRATCH_IDS ids (at least one row), which takes numpy's shuffle
    specialised for that itemsize, and stored at `_id_dtype(N)`: the
    shuffle draws one bounded integer per swap whatever the itemsize, so
    the ids are those of a shuffle at the stored dtype.
    """
    gen = rng.generator
    rows = max(1, min(sims, _CHUNK_IDS // N))
    scratch = np.empty((max(1, min(rows, _SCRATCH_IDS // N)), N), dtype=np.intp)
    for start in range(0, sims, rows):
        ids = np.empty((min(rows, sims - start), N), dtype=_id_dtype(N))
        for row in range(0, len(ids), len(scratch)):
            part = scratch[:len(ids) - row]
            part[...] = np.arange(N)
            ids[row:row + len(part)] = gen.permuted(part, axis=1, out=part)
        yield ids


def _null_draw(identity: tuple, N: int, sims: int):
    """The null draw of the stream `identity` (`RngStream.identity`): the
    stored chunks if they fit the budget, else fresh ones."""
    if sims * N * _id_dtype(N).itemsize > _DRAW_BUDGET:
        return _draw_rows(RngStream(*identity), N, sims)
    return _stored_draw(identity, N, sims)


def _cut(ids: np.ndarray, m: int, q_m: int, q_n: int) -> np.ndarray:
    """One-flags of the rows of `ids` without the ids 0..q_m-1 and m..m+q_n-1.

    Every row of a permutation keeps the same number of ids, so the kept
    flags reshape to (rows, N - q_m - q_n).
    """
    flags = ids < m
    if not (q_m or q_n):
        return flags
    keep = (ids >= q_m) & ((ids < m) | (ids >= m + q_n))
    # np.compress on the flat arrays measured twice as fast as flags[keep]
    return np.compress(keep.ravel(), flags.ravel()).reshape(len(ids), -1)


def _sup_statistics(chunks, m_eff: int, n_eff: int, removed: tuple):
    """Yield the sup statistic T of every row of each id chunk, cut at `removed`."""
    q_m, q_n = removed
    flags = (_cut(ids, m_eff + q_m, q_m, q_n) for ids in chunks)
    if _WORD_MIN <= m_eff + n_eff < 1 << 25:
        return _word_sups(flags, m_eff, n_eff)
    dtype = np.int16 if m_eff < 1 << 15 else np.int32
    paths = (np.cumsum(f[:, :-1], axis=1, dtype=dtype) for f in flags)
    return (_normalized_paths(V, m_eff, n_eff).max(axis=1) for V in paths)


# Rows of at least _WORD_MIN ids take the word kernel; on shorter rows a
# prefix sum at every z measured faster (crossover near 230 ids, 2 cores).
_WORD_MIN = 256


def _word_sups(flags, m_eff: int, n_eff: int):
    """Yield T = max_z (V[z] - z m_eff/N) / w(z) per row of each one-flag chunk, N < 2**25.

    The doubles compared are those of `_normalized_paths`, so T is bit for
    bit its maximum; most of them are never computed.  Each row's flags are
    read as little-endian words of 8 flags; times 0x0101010101010101, byte
    j of a word holds the ones among its flags 0..j, the top byte its total
    t, and the cumulative totals V_end = V at each word's last z.  The
    statistics there give a row lower bound.  In the word over
    z0 + 1..z0 + 8, every double is at most U = max(V_end - mu[zt], 0) / min(w)
    with zt = z0 + max(t, 1), and only the words with U above the row's
    lower bound are evaluated.  The bound needs N < 2**25, where the mean line
    mu[z] = fl(z m_eff/N) keeps mu[zt] - mu[z] <= zt - z; README.md, Notes,
    "One statistic decides a candidate", has the proof.  z = N and the
    padding to a whole word have mean +inf and statistic -inf.
    """
    N = m_eff + n_eff
    words = -(-N // 8)
    mean, wv = _scale_grids(m_eff, n_eff)
    # row t of `reach`: mu at z0 + max(t, 1), the mean line continued past N - 1
    line = np.append(mean, np.arange(N, 8 * words + 1) * (m_eff / N))
    reach = line.reshape(words, 8).T[[0, *range(8)]].ravel()
    at = np.arange(words)
    # (8, words): row j holds the word's z = z0 + j + 1
    pad = 8 * words - len(mean)
    mean = np.append(mean, np.full(pad, np.inf)).reshape(words, 8).T.copy()
    w_min = np.append(wv, np.full(pad, np.inf)).reshape(words, 8).min(axis=1)
    wv = np.append(wv, np.ones(pad)).reshape(words, 8).T.copy()
    shifts = np.arange(0, 64, 8)[:, None]
    for f in flags:
        if f.shape[1] < 8 * words:
            f = np.concatenate([f, np.zeros((len(f), 8 * words - N), dtype=bool)], axis=1)
        # at most 8 per byte, so no carry and a top byte below 128
        prefix = (f.view("<u8") * np.uint64(0x0101010101010101)).view(np.int64)
        t = prefix >> 56
        V = np.cumsum(t, axis=1)
        X = V - mean[7]
        X /= wv[7]
        T = X.max(axis=1)
        t *= words
        t += at  # the index of (t, w) in `reach`
        X = np.subtract(V, np.take(reach, t), out=X)
        np.maximum(X, 0.0, out=X)
        X /= w_min
        i = np.flatnonzero(X > T[:, None])
        prefix, V = prefix.ravel()[i], V.ravel()[i]
        w = i % words
        X = V - (prefix >> 56) + (prefix >> shifts & 0xFF) - np.take(mean, w, axis=1)
        X /= np.take(wv, w, axis=1)
        np.maximum.at(T, i // words, X.max(axis=0))
        yield T


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
    """Empty the band-record, null-draw, scale-grid and binomial-quantile memos."""
    _band_records.cache_clear()
    _stored_draw.cache_clear()
    _scale_grids.cache_clear()
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
    candidate of one sample shares a single draw (README.md, Notes,
    "Coupled null draws and the rank rule").  The analytic fallback draws
    at its own sizes, so the analytic band never pays for a full-size
    draw.  The constant completes the key's record of null sup statistics,
    which `exceeds_band` may have begun, and is the same object on every
    call.

    The fallback constant is floored at the analytic threshold
    beta(alpha, 8) at the guard boundary (README.md, Notes, "The analytic
    fallback is floored at beta(alpha, 8)").  The fallback raises its
    budget to ceil(1/alpha) simulations where sims could not resolve alpha.
    """
    return _band_record(alpha, m_eff, n_eff, kind, sims, seed, removed).constant()


def exceeds_band(
    t: float,
    alpha: float,
    m_eff: int,
    n_eff: int,
    kind: str,
    sims: int = 1000,
    seed: int = 0,
    removed: tuple = (0, 0),
) -> bool:
    """Whether t > band_constant(alpha, m_eff, n_eff, kind, sims, seed, removed).c.

    The verdict is exact, but a simulated constant need not be computed
    for it: the key's record cuts null rows in draw order until the rank
    rule settles it (see `_BandRecord`).
    """
    return _band_record(alpha, m_eff, n_eff, kind, sims, seed, removed).exceeds(t)


def _band_record(alpha, m_eff, n_eff, kind, sims, seed, removed):
    if kind not in ("analytic", "simulated"):
        raise ParameterError(f"unknown band kind {kind!r}")
    if kind == "analytic":
        if m_eff >= 8:
            return _band_records(alpha, m_eff, n_eff, kind, 0, None, (0, 0))
        removed = (0, 0)
        if alpha * (sims + 1) < 1.0:
            sims = math.ceil(1.0 / alpha)
    m, n = m_eff + removed[0], n_eff + removed[1]
    identity = (seed, 0, ("null-band", m, n, sims, round(alpha, 12)))
    return _band_records(alpha, m_eff, n_eff, kind, sims, identity, tuple(removed))


class _BandRecord:
    """One band key's constant, or the null sup statistics computed toward it.

    The record is the only code that turns a null draw into a constant.
    It cuts the draw of the stream `identity` (`RngStream.identity`),
    which `_band_record` derives from the key's full sizes and
    `simulate_null_sup_quantile` takes from its caller's stream; an
    analytic key with m_eff >= 8 draws nothing and has none.
    Every query runs one loop (`_settle`): it counts the statistics kept so
    far, then cuts the draw's later chunks in draw order, keeping their
    statistics (one buffer of `sims` floats), until the rank rule settles
    its verdict (`_verdict`; the stop rule is argued in README.md, Notes,
    "A verdict reads as few null rows as the rank rule needs").  A loop
    that cuts to the end of the draw completes the record, and `constant`
    is that loop run to the end: then c is known, the buffer is dropped
    and every query is one comparison.  A draw over `_DRAW_BUDGET` is not
    stored, so a resumed query draws the chunks it skips again, but cuts
    only the ones after them.
    The analytic fallback's floor beta(alpha, 8) settles t <= floor
    without any row.
    """

    def __init__(self, alpha, m_eff, n_eff, kind, sims, identity, removed):
        self.const = None
        if kind == "analytic" and m_eff >= 8:
            self.const = BandConstant("analytic", beta_threshold(alpha, m_eff), m_eff, n_eff,
                                      alpha)
            return
        self._k = _rank(alpha, m_eff, n_eff, sims, removed)
        self._reach = sims + 1 - self._k
        self._key = (alpha, m_eff, n_eff, sims, removed)
        self._floor = beta_threshold(alpha, 8) if kind == "analytic" else -math.inf
        self._identity = identity
        # the statistics of the first _rows rows, cut in draw order from _chunks chunks
        self._stats, self._rows, self._chunks = np.empty(sims), 0, 0

    def constant(self) -> BandConstant:
        if self.const is None:
            self._settle(None)
        return self.const

    def exceeds(self, t: float) -> bool:
        if self.const is not None:
            return bool(t > self.const.c)
        return bool(t > self._floor) and self._settle(t)

    def _settle(self, t):
        """Whether t > c, from the kept statistics and then the chunks after them,
        cut in draw order until the rank rule settles it (t None settles nothing).
        A cut to the end of the draw completes the record."""
        sims = len(self._stats)
        below = 0 if t is None else int(np.count_nonzero(self._stats[:self._rows] < t))
        chunks = self._more()
        while self._rows < sims and (t is None or self._verdict(below) is None):
            T = next(chunks)
            self._stats[self._rows:self._rows + len(T)] = T
            self._rows, self._chunks = self._rows + len(T), self._chunks + 1
            if t is not None:
                below += int(np.count_nonzero(T < t))
        if self._rows < sims:
            return self._verdict(below)
        alpha, m_eff, n_eff = self._key[:3]
        c = max(float(np.partition(self._stats, self._k - 1)[self._k - 1]), self._floor)
        self.const = BandConstant("simulated", c, m_eff, n_eff, alpha, sims)
        self._stats = None
        return t is not None and bool(t > c)

    def _verdict(self, below: int):
        """t > c once `below` of the kept statistics lie below t, t <= c once the
        rest reach sims + 1 - k, None while neither holds."""
        if below >= self._k:
            return True
        if self._rows - below >= self._reach:
            return False
        return None

    def _more(self):
        """The sup statistics of the draw's chunks after those already cut,
        drawn on the first request."""
        alpha, m_eff, n_eff, sims, removed = self._key
        draw = _null_draw(self._identity, m_eff + n_eff + sum(removed), sims)
        rest = itertools.islice(draw, self._chunks, None)
        yield from _sup_statistics(rest, m_eff, n_eff, removed)


# The adaptive search evaluates many TV candidates whose binomial quantiles
# coincide, so band keys repeat heavily.  A simulated record derives its
# stream from its full sizes, so its statistics and constant are independent
# of evaluation order.  One null draw is kept: every candidate of a sample
# cuts the same one, and samples are bounded one after another.
_band_records = _BoundedMemo(_BandRecord, MEMO_SIZE)
_stored_draw = _BoundedMemo(
    lambda identity, N, sims: tuple(_draw_rows(RngStream(*identity), N, sims)), 1
)
# A level study's verdicts reuse about a hundred (m_eff, n_eff) keys, replication
# after replication.  A key's two grids take 16 (N_eff - 1) bytes, and the memo
# keeps at most _GRID_BUDGET of them: 49 keys at N_eff = 4000, one at 1e5.
_GRID_BUDGET = 3 << 20
_scale_grids = _BoundedMemo(_scale_grid, _GRID_BUDGET,
                            cost=lambda m_eff, n_eff: 16 * (m_eff + n_eff - 1))
