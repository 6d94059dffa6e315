"""The order-statistic counting process and its simultaneous null bands.

Given scores with 0/1 labels, sort the pooled sample and let

    V[z] = number of label-0 observations among the z smallest scores,

for z = 1, ..., N-1.  When both samples share one distribution, V[z] is
Hypergeometric(z, N, m) and z -> V[z] is the hypergeometric process.  The
two confidence bands provided here upper-envelope that process uniformly
in z:

* analytic: mean line + beta * w(z, m, n), with beta the iterated-logarithm
  threshold (valid asymptotically, conservative at small sizes);
* simulated: mean line + c * w(z, m, n), with c the empirical (1-alpha)
  quantile of the simulated normalized sup statistic (valid by
  construction as the simulation budget grows).

Both share the hypergeometric standard deviation scale

    w(z, m, n) = sqrt((m/N) (n/N) ((N-z)/(N-1)) z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
) -> BandConstant:
    """Empirical (1-alpha) quantile of T = max_z (V[z] - z m/N) / w(z).

    Each simulation draws one null path by randomly permuting m_eff ones
    among n_eff zeros and cumulating; the returned constant is the
    ceil((1-alpha) * sims)-th order statistic of T.  When
    alpha * (sims + 1) < 1 that is the sample maximum, which a fresh null
    path exceeds with probability 1 / (sims + 1) > alpha, so such budgets
    are rejected.
    """
    if m_eff < 1 or n_eff < 1:
        raise ParameterError("effective sizes must be at least 1")
    if sims < 100:
        raise ParameterError("need at least 100 simulations")
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if alpha * (sims + 1) < 1.0:
        raise ParameterError(
            f"{sims} simulations cannot resolve level {alpha}: need alpha * (sims + 1) >= 1"
        )
    N = m_eff + n_eff
    z = np.arange(1, N)
    wv = w_scale(z, m_eff, n_eff)
    mean = z * (m_eff / N)
    base = np.concatenate([np.ones(m_eff, dtype=np.int8), np.zeros(n_eff, dtype=np.int8)])
    T = np.empty(sims)
    # chunk the sims x N matrix to bound memory
    block = max(1, min(sims, int(4_000_000 // max(N, 1)) or 1))
    done = 0
    gen = rng.generator
    while done < sims:
        b = min(block, sims - done)
        paths = gen.permuted(np.broadcast_to(base, (b, N)).copy(), axis=1)
        V = np.cumsum(paths, axis=1, dtype=np.int64)[:, :-1]
        T[done:done + b] = ((V - mean) / wv).max(axis=1)
        done += b
    T.sort()
    c = float(T[math.ceil((1.0 - alpha) * sims) - 1])
    return BandConstant(kind="simulated", c=c, m_eff=m_eff, n_eff=n_eff, alpha=alpha, sims=sims)


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
    """Empty the band-constant and binomial-quantile memos."""
    _band_constant.cache_clear()
    _binom_quantile.cache_clear()


def band_constant(
    alpha: float,
    m_eff: int,
    n_eff: int,
    kind: str,
    sims: int = 1000,
    seed: int = 0,
) -> BandConstant:
    """Memoized band constant; analytic kind falls back to simulated below m_eff = 8.

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
    return _band_constant(alpha, m_eff, n_eff, simulated, sims if simulated else 0, seed, fallback)


# The adaptive search evaluates many TV candidates whose binomial quantiles
# coincide, so band constants repeat heavily.  Simulated constants derive
# their stream from the key itself, making the memo content independent of
# evaluation order.
@lru_cache(maxsize=MEMO_SIZE)
def _band_constant(alpha, m_eff, n_eff, simulated, sims, seed, fallback) -> BandConstant:
    if not simulated:
        return BandConstant(
            kind="analytic",
            c=beta_threshold(alpha, m_eff),
            m_eff=m_eff,
            n_eff=n_eff,
            alpha=alpha,
            sims=0,
        )
    rng = RngStream(seed, 0, ("null-band", m_eff, n_eff, sims, round(alpha, 12)))
    const = simulate_null_sup_quantile(alpha, m_eff, n_eff, sims, rng)
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
