"""The piecewise bounding envelope Q(z, lam) and its violation predicate.

For a TV candidate lam in [0, 1], split the error budget three ways at
level alpha/3 each: two binomial quantiles absorb the (unobserved) witness
counts on the left and right of the score ordering,

    q_m = q_{1 - alpha/3}(lam, m),   q_n = q_{1 - alpha/3}(lam, n),

leaving effective sizes m_eff = m - q_m and n_eff = n - q_n, and a
simultaneous band at level alpha/3 covers the reduced counting process in
between:

    Q(z, lam) = z                              for z <= q_m,
                m                              for z >= m + n_eff,
                q_m + band(z - q_m; m_eff, n_eff)   otherwise.

At the true TV the counting process exceeds Q somewhere with probability
at most alpha, which is exactly what the adaptive estimator needs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .counting import (
    CountingPath,
    _normalized_paths,
    _require_integer,
    band_constant,
    band_value,
    exceeds_band,
)
from .distributions import binom_quantile
from .errors import ParameterError

__all__ = ["BoundSpec", "EffectiveSizes", "effective_sizes", "q_bound", "is_violated"]


@dataclass(frozen=True)
class BoundSpec:
    """Configuration of the bounding envelope."""

    alpha: float = 0.05
    band_kind: str = "simulated"
    sims: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.alpha, numbers.Real):
            raise ParameterError(f"alpha must be a real number, got {self.alpha!r}")
        _require_integer("sims", self.sims)
        _require_integer("seed", self.seed)
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.band_kind not in ("analytic", "simulated"):
            raise ParameterError(f"unknown band kind {self.band_kind!r}")
        if self.sims < 100:  # the analytic band simulates below m_eff = 8
            raise ParameterError(f"need sims >= 100 for either band kind, got sims={self.sims}")
        if self.band_kind == "simulated" and self.alpha / 3.0 * (self.sims + 1) < 1.0:
            raise ParameterError(
                f"simulated band at alpha={self.alpha} needs (alpha/3) * (sims + 1) >= 1, "
                f"got sims={self.sims}"
            )


class EffectiveSizes(NamedTuple):
    q_m: int
    q_n: int
    m_eff: int
    n_eff: int


def effective_sizes(lambda_tilde: float, m: int, n: int, spec: BoundSpec) -> EffectiveSizes:
    """Binomial 1 - alpha/3 quantiles of the witness counts and the remainders."""
    if m < 1 or n < 1:
        raise ParameterError("class sizes must be at least 1")
    level = 1.0 - spec.alpha / 3.0
    if lambda_tilde <= 0.0:
        q_m, q_n = 0, 0
    elif lambda_tilde >= 1.0:
        q_m, q_n = m, n
    else:
        q_m = binom_quantile(level, lambda_tilde, m)
        q_n = binom_quantile(level, lambda_tilde, n)
    return EffectiveSizes(q_m, q_n, m - q_m, n - q_n)


def _band_key(sizes: EffectiveSizes, spec: BoundSpec):
    """The band arguments of the alpha/3 middle branch at `sizes`."""
    return dict(alpha=spec.alpha / 3.0, m_eff=sizes.m_eff, n_eff=sizes.n_eff,
                kind=spec.band_kind, sims=spec.sims, seed=spec.seed,
                removed=(sizes.q_m, sizes.q_n))


def q_bound(z, lambda_tilde: float, m: int, n: int, spec: BoundSpec):
    """Evaluate Q(z, lambda_tilde); z may be a scalar or a vector in [1, m+n-1].

    When the middle region is empty (m_eff or n_eff is zero) the two outer
    branches meet and the envelope is z up to q_m and m beyond, which
    dominates every admissible path pointwise.  With the analytic band and
    m_eff < 8, the simulated band at the same level is substituted.
    """
    N = m + n
    z_arr = np.asarray(z)
    if (z_arr < 1).any() or (z_arr > N - 1).any():
        raise ParameterError(f"z must lie in [1, {N - 1}]")
    sizes = effective_sizes(lambda_tilde, m, n, spec)
    q = np.where(z_arr <= sizes.q_m, z_arr, float(m)).astype(float)
    if sizes.m_eff > 0 and sizes.n_eff > 0:
        mid = (z_arr > sizes.q_m) & (z_arr < m + sizes.n_eff)
        if mid.any():
            q[mid] = sizes.q_m + band_value(band_constant(**_band_key(sizes, spec)),
                                             z_arr[mid] - sizes.q_m)
    return float(q) if z_arr.ndim == 0 else q


def is_violated(path: CountingPath, lambda_tilde: float, spec: BoundSpec):
    """Whether the path leaves the envelope Q(z, lambda_tilde), plus the argmax z.

    Only the middle branch z = q_m + 1, ..., m + n_eff - 1 can be exceeded
    (V[z] <= min(z, m) always).  The candidate is violated exactly when the
    reduced path V[q_m + z] - q_m has a normalized sup statistic T_obs, by
    the formula that simulates null paths of m_eff ones among n_eff zeros,
    above the band constant c.  A tie is not a violation: the rank rule
    bounds P(T > c).  The z returned is T_obs's argmax on the full path.
    A simulated c is not computed for the verdict: `exceeds_band` decides
    T_obs > c from as few null rows as the rank rule needs, with the
    verdict that c itself would give.
    """
    m, n = path.m, path.n
    sizes = effective_sizes(lambda_tilde, m, n, spec)
    if sizes.m_eff == 0 or sizes.n_eff == 0:
        return False, None
    reduced = path.v[sizes.q_m:m + sizes.n_eff - 1] - sizes.q_m
    stat = _normalized_paths(reduced, sizes.m_eff, sizes.n_eff)
    k = int(np.argmax(stat))
    if exceeds_band(float(stat[k]), **_band_key(sizes, spec)):
        return True, sizes.q_m + 1 + k
    return False, None
