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
`_normalized_paths`, every double (V[z] - z m/N) / w(z) of the path.  The
null rows of a band key are cut from one stored draw of permutations,
kept as their inverse permutations and one flags (`_blocks`), so a key's
removed ids are two column slices of the inverse (`_kept_bits`).  Every
cut row takes the block kernel `_block_sups`, which reads the uncut row in
words of 64 positions, then bytes of 8, and gives T bit for bit as
`_normalized_paths` would wherever T reaches the floor it is given; its
rounding argument needs N_eff < 2**25, so a band key that simulates at
larger sizes raises ParameterError before it draws.  `is_violated` needs
only the verdict T_obs > c, and `exceeds_band` gives it from the fewest
null rows the Monte Carlo rank rule needs, on one memoized record per
band key (`_BandRecord`), which cuts them in groups of 1, 2, then 4
chunks, one kernel call a group.  A record keeps only the sims + 1 - k
largest null statistics, the only ones that can settle the constant or a
verdict, and the kernel need be exact only in the rows that can join them.

The arguments behind these claims live in README.md, Notes: "Coupled null
draws and the rank rule" (each cut row is an exact null path), "One
statistic decides a candidate" (the block kernel's monotone rounding and
its floor), "A verdict reads as few null rows as the rank rule needs" (the
stop rule and the statistics kept) and "The analytic fallback is floored
at beta(alpha, 8)".
"""

from __future__ import annotations

import itertools
import math
import numbers
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


def _require_integer(name: str, value) -> None:
    """Raise ParameterError unless `value` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


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
        _require_integer("tie_seed", self.tie_seed)
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
    """The rank k = ceil((1-alpha)(sims+1)) of the band constant, after checking the
    sizes (N_eff < 2**25, `_block_sups`) and the budget."""
    if m_eff < 1 or n_eff < 1:
        raise ParameterError("effective sizes must be at least 1")
    if m_eff + n_eff >= 1 << 25:
        raise ParameterError(f"simulated band needs m_eff + n_eff < 2**25, got {m_eff + n_eff}")
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


# The null draw comes in row chunks of at most _CHUNK_IDS ids, 32 rows at
# N = 4000, and the kernel reads at most _GROUP_CHUNKS of them a call, which
# bounds the temporaries of a key's statistics.  A chunk is kept as its
# inverse permutation and one flags (`_blocks`), one buffer of 2 or 4 bytes
# an id plus N bits a row in whole 8-byte words, at least 128 KiB when the
# chunk is whole (the flags kept as separate 16 KiB arrays pinned the top
# of the heap, leaving 17 MB free there against 1 MB).
# A draw whose ids take at most _DRAW_BUDGET bytes (N <= 33554 with 1000
# sims) is kept for the next query, its flags adding 1/16 at 2 bytes an id;
# a larger one (N near 1e5 with 1000 sims) is drawn again from the start of
# its stream for every query that reads it, with the same values.
_CHUNK_IDS = 1 << 17
_DRAW_BUDGET = 64 << 20
# A query cuts the chunks after the record's in groups, one kernel call a
# group: one chunk, then two, then _GROUP_CHUNKS a group while it stays open
# (`_groups`).  A query that one chunk settles cuts no more rows than it
# would chunk by chunk, and a long one pays the kernel's fixed cost a
# quarter as often.  The kernel's largest temporaries take 64 bytes a word
# that it reads in bytes, 516 KB for a group of four 32-row chunks at
# N = 4000 were every word read; the seed-1 estimate_cli commands read at
# most 738 of a group's 8000 words at N = 8000.
_GROUP_CHUNKS = 4
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


def _blocks(ids: np.ndarray, m: int):
    """The stored form of an id chunk: one buffer holding two views.

    `pos` is the inverse permutation at the ids' dtype, pos[r, i] the
    position of id i in row r.  `ones` holds the one flags of the positions
    in whole 8-byte words a row (`_one_flags`).
    """
    rows, N = ids.shape
    buf = np.empty(ids.nbytes + rows * _row_bytes(N), dtype=np.uint8)
    pos = buf[:ids.nbytes].view(ids.dtype)
    at = ids.astype(np.intp)
    at += np.arange(0, ids.size, N)[:, None]
    pos[at.ravel()] = np.tile(np.arange(N, dtype=ids.dtype), rows)
    return pos.reshape(rows, N), _one_flags(ids, m, buf[ids.nbytes:].reshape(rows, -1))


def _row_bytes(N: int) -> int:
    """The bytes of a row's one flags: N bits in whole 8-byte words."""
    return 8 * -(-N // 64)


def _one_flags(ids: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """Bit j of byte b of `out` flags a one (id < m) at position 8b + j of
    its row of `ids`; the bits past N are 0."""
    packed = -(-ids.shape[1] // 8)
    out[:, :packed] = np.packbits(ids < m, axis=1, bitorder="little")
    out[:, packed:] = 0
    return out


def _null_draw(identity: tuple, N: int, sims: int, m: int, removed: tuple, skip: int = 0):
    """Yield the kept flags and kept-one flags (`_kept_bits`) of each chunk after
    the first `skip` of the null draw of the stream `identity`
    (`RngStream.identity`), ones below m, cut at `removed`.

    A draw whose ids fit the budget is stored (`_blocks`); a larger one is
    drawn afresh for every query, and only the chunks that the query reads
    take the stored form.
    """
    if sims * N * _id_dtype(N).itemsize > _DRAW_BUDGET:
        drawn = itertools.islice(_draw_rows(RngStream(*identity), N, sims), skip, None)
        chunks = (_blocks(ids, m) for ids in drawn)
    else:
        chunks = _stored_draw(identity, N, sims, m)[skip:]
    return _kept_bits(chunks, m, removed)


def _kept_bits(chunks, m: int, removed: tuple):
    """Yield, per stored chunk (`_blocks`), the flags of the positions that the
    cut at `removed` keeps and of the kept ones, packed as the one flags.

    The removed ids 0..q_m-1 and m..m+q_n-1 are two column slices of the
    inverse; one mask of the positions, set again for each chunk, serves
    all of them.
    """
    q_m, q_n = removed
    kept = None
    for pos, ones in chunks:
        rows, N = pos.shape
        if kept is None or rows > len(kept):
            kept = np.zeros((rows, 8 * ones.shape[1]), dtype=bool)
        flags = kept[:rows]
        flags[:, :N] = True  # the padding past N stays False
        flat, offsets = flags.reshape(-1), np.arange(0, flags.size, flags.shape[1])[:, None]
        for ids in (pos[:, :q_m], pos[:, m:m + q_n]):
            flat[ids + offsets] = False
        bits = np.packbits(flags, axis=1, bitorder="little")
        yield bits, bits & ones


def _groups(cut, sizes: list):
    """Yield the cut chunks (`_kept_bits`) joined in groups of 1, 2, then
    _GROUP_CHUNKS chunks, appending each group's number of chunks to `sizes`.

    A group of several chunks is one flags buffer, made at the first such
    group with room for _GROUP_CHUNKS chunks and reused by every later one.
    Each chunk is copied in as soon as it is cut: holding a group's chunks
    until the last was cut left them between the cut's larger temporaries,
    and raised the peak heap of the estimate_cli benchmark by about 1 MB.
    """
    flags, size = None, 1
    for first in cut:
        if size == 1:
            sizes.append(1)
            yield first
        else:
            if flags is None:
                flags = np.empty((2, _GROUP_CHUNKS * len(first[0]), first[0].shape[1]), np.uint8)
            rows = 0
            group = itertools.chain([first], itertools.islice(cut, size - 1))
            for chunks, (kept, ones) in enumerate(group, 1):
                flags[0, rows:rows + len(kept)] = kept
                flags[1, rows:rows + len(kept)] = ones
                rows += len(kept)
            sizes.append(chunks)
            yield flags[0, :rows], flags[1, :rows]
        size = min(2 * size, _GROUP_CHUNKS)


# bit masks of the positions 0..j of a byte, j = 0..7
_LOW = ((2 << np.arange(8)) - 1).astype(np.uint8)[:, None]
# a word of byte counts (each at most 8) times _SPREAD holds in byte j the
# total of bytes 0..j
_SPREAD = np.uint64(0x0101010101010101)


def _block_sups(cut, m_eff: int, n_eff: int, floor):
    """Yield T = max_z (V[z] - z m_eff/N) / w(z) per row of each cut chunk, N < 2**25,
    for every row whose T reaches the chunk's floor, and a value below the
    floor for every other row.  `floor` maps a chunk's row lower bounds
    (each a statistic of its row) to the chunk's floor.

    A cut chunk is the kept flags and kept-one flags of the uncut rows
    (`_kept_bits`).  The doubles compared are those of `_normalized_paths`,
    so T is bit for bit their maximum; most of them are never computed.  A
    block of an uncut row, 64 positions (a word) or 8 (a byte), holds
    k kept positions, t of them ones, whose z run over z0 + 1..z0 + k.
    Every double of the block is at most
    U = max(V - mu[z0 + max(t, 1)], 0) / min w(z0 + 1..z0 + width), V its
    count at the block's end.  Popcounts and a running total give Z = z0 + k
    and V at each word's end, the statistics there a row lower bound L, and
    the word bounds; `floor(L)` gives the chunk's floor.  Only words whose U
    reaches max(floor, L) are read in bytes, and only bytes whose U reaches
    it are evaluated, from the kept and kept-one counts among their
    positions 0..j; a row keeps L and the largest statistic evaluated.  The
    bound needs N < 2**25, which `_rank` checks, where the mean line
    mu[z] = fl(z m_eff/N) keeps mu[zt] - mu[z] <= zt - z; README.md, Notes,
    "One statistic decides a candidate", has the proof.  z = 0 and z = N
    have mean +inf and statistic -inf, and a position that is not kept
    repeats the statistic of the last kept one before it in its byte, or
    that of z0.
    """
    N = m_eff + n_eff
    mean, wv = _scale_grids(m_eff, n_eff)
    # z = 0..N: the statistic's mean line and scale
    mu = np.concatenate([[np.inf], mean, [np.inf]])
    w = np.concatenate([[1.0], wv, [1.0]])
    # z = 0..N+1: the mean line continued past N - 1
    reach = np.concatenate([[0.0], mean, np.arange(N, N + 2) * (m_eff / N)])
    # min w(z0 + 1..z0 + 8) for z0 = 0..N+56, w reading +inf past N - 1 (eight
    # shifted minima measured 17 times as fast as a sliding window's min),
    # then doubled to min w(z0 + 1..z0 + 64) for z0 = 0..N
    padded = np.concatenate([wv, np.full(65, np.inf)])
    w_min8 = padded[:N + 57].copy()
    for j in range(1, 8):
        np.minimum(w_min8, padded[j:j + N + 57], out=w_min8)
    w_min = w_min8
    for width in (8, 16, 32):
        w_min = np.minimum(w_min[:-width], w_min[width:])
    for kept, kept_ones in cut:
        words = kept.shape[1] // 8
        kw, ow = kept.view("<u8"), kept_ones.view("<u8")
        k, t = np.bitwise_count(kw), np.bitwise_count(ow)
        Z = np.cumsum(k, axis=1, dtype=np.intp)
        V = np.cumsum(t, axis=1, dtype=np.intp)
        X = V - mu.take(Z)
        X /= w.take(Z)
        T = X.max(axis=1)
        least = np.maximum(T, floor(T))
        z0 = np.subtract(Z, k, out=Z)
        U = np.subtract(V, reach.take(np.maximum(t, 1) + z0), out=X)
        np.maximum(U, 0.0, out=U)
        U /= w_min.take(z0)
        i = np.flatnonzero(U >= least[:, None])
        row = i // words
        # the bytes of those words: counts, and counts to each byte's end
        kb, ob = kw.ravel()[i].view(np.uint8), ow.ravel()[i].view(np.uint8)
        kc, tc = np.bitwise_count(kb), np.bitwise_count(ob)
        zb = (kc.view("<u8") * _SPREAD).view(np.uint8).reshape(-1, 8) - kc.reshape(-1, 8)
        zb = zb + z0.ravel()[i][:, None]
        Vb = (tc.view("<u8") * _SPREAD).view(np.uint8).reshape(-1, 8)
        Vb = Vb + (V.ravel()[i] - t.ravel()[i])[:, None]
        Ub = Vb - reach.take(np.maximum(tc, 1).reshape(-1, 8) + zb)
        np.maximum(Ub, 0.0, out=Ub)
        Ub /= w_min8.take(zb)
        j = np.flatnonzero(Ub >= least[row][:, None])
        kj, oj = kb[j], ob[j]
        zj = np.bitwise_count(kj & _LOW) + zb.ravel()[j]
        Vj = np.bitwise_count(oj & _LOW) + (Vb.ravel()[j] - tc[j])
        X = Vj - mu.take(zj)
        X /= w.take(zj)
        np.maximum.at(T, row[j // 8], X.max(axis=0))
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
    It keeps the reach = sims + 1 - k largest statistics of the rows cut
    so far, and the number of rows cut: t <= c exactly when reach rows
    reach t, so those statistics count the rows below any t that they do
    not settle outright, and the least of them is c once every row is cut.
    Every query runs one loop (`_settle`): it counts the rows below t from
    the kept statistics, then cuts the draw's later chunks in draw order,
    in groups of 1, 2, then _GROUP_CHUNKS chunks from where the record
    stands, until the rank rule settles its verdict (`_verdict`) at the end
    of a group.  A group is cut as one chunk, exact only in the rows that
    can join the reach largest statistics (`_more`); its other rows change
    neither them nor the verdict the group ends on (README.md, Notes, "A
    verdict reads as few null rows as the rank rule needs").  A loop that
    cuts to the end of the draw completes the record, and `constant` is
    that loop run to the end: then c is known, the kept
    statistics are dropped and every query is one comparison.  A draw over
    `_DRAW_BUDGET` is not stored, so a resumed query draws the chunks it
    skips again, but cuts only the ones after them.
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
        # the largest _reach statistics of the first _rows rows, cut in draw order
        # from _chunks chunks, least first; -inf pads them until _reach rows are cut
        self._stats, self._rows, self._chunks = np.full(self._reach, -np.inf), 0, 0

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
        sims = self._key[3]
        below = 0 if t is None else self._rows - int(np.count_nonzero(self._stats >= t))
        groups = self._more()
        while self._rows < sims and (t is None or self._verdict(below) is None):
            T, chunks = next(groups)
            if t is not None:
                below += int(np.count_nonzero(T < t))
            self._stats[:] = self._largest(T)
            self._rows, self._chunks = self._rows + len(T), self._chunks + chunks
        if self._rows < sims:
            return self._verdict(below)
        alpha, m_eff, n_eff = self._key[:3]
        c = max(float(self._stats[0]), self._floor)
        self.const = BandConstant("simulated", c, m_eff, n_eff, alpha, sims)
        self._stats = None
        return t is not None and bool(t > c)

    def _largest(self, values):
        """The _reach largest of the kept statistics and `values`, least first."""
        both = np.concatenate([self._stats, values])
        return np.partition(both, len(values))[len(values):]

    def _verdict(self, below: int):
        """t > c once `below` of the rows cut lie below t, t <= c once the rest
        reach sims + 1 - k, None while neither holds."""
        if below >= self._k:
            return True
        if self._rows - below >= self._reach:
            return False
        return None

    def _more(self):
        """The sup statistics of the draw's chunks after those already cut,
        drawn on the first request, one group of chunks at a time (`_groups`),
        each with its number of chunks.  A group is cut as one chunk: its
        floor is the _reach-th largest of the kept statistics and its row
        lower bounds."""
        alpha, m_eff, n_eff, sims, removed = self._key
        rest = _null_draw(self._identity, m_eff + n_eff + sum(removed), sims,
                          m_eff + removed[0], removed, self._chunks)
        sizes = []
        for T in _block_sups(_groups(rest, sizes), m_eff, n_eff,
                             lambda bounds: self._largest(bounds)[0]):
            yield T, sizes[-1]


# The adaptive search evaluates many TV candidates whose binomial quantiles
# coincide, so band keys repeat heavily.  A simulated record derives its
# stream from its full sizes, so its statistics and constant are independent
# of evaluation order.  One null draw is kept, in the stored form of
# `_blocks`: every candidate of a sample cuts the same one, reading its
# removed ids as two column slices of the inverse permutations, and
# samples are bounded one after another.
_band_records = _BoundedMemo(_BandRecord, MEMO_SIZE)
_stored_draw = _BoundedMemo(
    lambda identity, N, sims, m: tuple(_blocks(ids, m)
                                       for ids in _draw_rows(RngStream(*identity), N, sims)),
    1,
)
# A level study's verdicts reuse about a hundred (m_eff, n_eff) keys, replication
# after replication.  A key's two grids take 16 (N_eff - 1) bytes, and the memo
# keeps at most _GRID_BUDGET of them: 49 keys at N_eff = 4000, one at 1e5.
_GRID_BUDGET = 3 << 20
_scale_grids = _BoundedMemo(_scale_grid, _GRID_BUDGET,
                            cost=lambda m_eff, n_eff: 16 * (m_eff + n_eff - 1))
