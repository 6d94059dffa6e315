"""High-probability lower bounds on the total variation distance.

Four estimators over labeled projection scores, all guaranteeing
P(lambda_hat > TV) <= alpha (asymptotically):

* lambda_c       fixed cutoff 1/2 on the pooled accuracy (balanced classes);
* lambda_bayes   fixed cutoff 1/2 on the two in-class accuracies;
* lambda_oracle_t  fixed cutoff t with the true score standard deviation,
                 a benchmark for simulation studies only;
* lambda_adapt   cutoff-free: the smallest TV candidate whose bounding
                 envelope the counting process never exceeds.

Raw bounds are clamped to [0, 1]; since TV >= 0 the clamp cannot break the
level guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounding import BoundSpec, is_violated
from .counting import CountingPath, LabeledScores, build_counting_path
from .distributions import _binom_quantile, normal_quantile
from .errors import ParameterError

__all__ = [
    "AccuracyPair",
    "HPLBResult",
    "in_class_accuracies",
    "lambda_c",
    "lambda_bayes",
    "lambda_oracle_t",
    "lambda_adapt",
]


@dataclass(frozen=True)
class AccuracyPair:
    """Empirical in-class accuracies of the cutoff classifier 1{score > t}."""

    a0_hat: float
    a1_hat: float
    t: float


@dataclass(frozen=True)
class Diagnostics:
    """How lambda_adapt got its value.

    argmax_z refutes the (q_m, q_n) pair of the double just below the value
    (None when it is 0); evaluations counts the distinct pairs checked.
    """

    argmax_z: int | None = None
    evaluations: int = 0
    band_kind: str | None = None


@dataclass(frozen=True)
class HPLBResult:
    value: float
    method: str
    alpha: float
    diagnostics: Diagnostics | None = None

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ParameterError("bound must be clamped to [0, 1]")


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def in_class_accuracies(data: LabeledScores, t: float) -> AccuracyPair:
    """A0 = fraction of label-0 scores <= t; A1 = fraction of label-1 scores > t.

    Matches the classifier convention 1{score > t}: class 0 is predicted on
    scores at or below the cutoff, class 1 strictly above.
    """
    is0 = data.labels == 0
    a0 = float(np.mean(data.scores[is0] <= t))
    a1 = float(np.mean(data.scores[~is0] > t))
    return AccuracyPair(a0_hat=a0, a1_hat=a1, t=t)


def _require_unit_scores(data: LabeledScores, method: str) -> None:
    if data.scores.min() < 0.0 or data.scores.max() > 1.0:
        raise ParameterError(f"{method} expects probability scores in [0, 1]")


def lambda_c(data: LabeledScores, alpha: float = 0.05) -> HPLBResult:
    """Pooled-accuracy bound at cutoff 1/2, for balanced class priors.

    With A the overall accuracy of 1{score > 1/2} on all N observations,

        2 A - 1 - 2 q_{1-alpha} sqrt(A (1 - A) / N),

    clamped to [0, 1].
    """
    _require_unit_scores(data, "lambda_c")
    N = data.total
    acc = in_class_accuracies(data, 0.5)
    correct = acc.a0_hat * data.m + acc.a1_hat * data.n
    a = correct / N
    q = normal_quantile(1.0 - alpha)
    raw = 2.0 * a - 1.0 - 2.0 * q * np.sqrt(a * (1.0 - a) / N)
    return HPLBResult(value=_clamp01(float(raw)), method="c", alpha=alpha)


def lambda_bayes(data: LabeledScores, alpha: float = 0.05) -> HPLBResult:
    """In-class accuracy bound at cutoff 1/2.

        A0 + A1 - 1 - q_{1-alpha} sqrt(A0(1-A0)/m + A1(1-A1)/n),

    clamped to [0, 1].  Unlike lambda_c this conditions on the observed
    class sizes, but the normal quantile keeps the level only as N grows:
    at alpha = 0.05, N = 40 and one class at 10%, the exceedance was 0.18.
    """
    _require_unit_scores(data, "lambda_bayes")
    acc = in_class_accuracies(data, 0.5)
    sigma = np.sqrt(
        acc.a0_hat * (1.0 - acc.a0_hat) / data.m + acc.a1_hat * (1.0 - acc.a1_hat) / data.n
    )
    raw = acc.a0_hat + acc.a1_hat - 1.0 - normal_quantile(1.0 - alpha) * sigma
    return HPLBResult(value=_clamp01(float(raw)), method="bayes", alpha=alpha)


def lambda_oracle_t(
    data: LabeledScores,
    t: float,
    sigma_true: float,
    alpha: float = 0.05,
) -> HPLBResult:
    """Fixed-cutoff bound penalized by the true standard deviation.

    value = F_hat(t) - G_hat(t) - q_{1-alpha} * sigma_true, clamped.  The
    caller supplies sigma_true from a known model; this estimator exists as
    an experimental benchmark, not as a data-only method.
    """
    if sigma_true < 0.0 or np.isnan(sigma_true):
        raise ParameterError("sigma_true must be nonnegative")
    is0 = data.labels == 0
    f_hat = float(np.mean(data.scores[is0] <= t))
    g_hat = float(np.mean(data.scores[~is0] <= t))
    raw = f_hat - g_hat - normal_quantile(1.0 - alpha) * sigma_true
    return HPLBResult(value=_clamp01(raw), method="oracle_t", alpha=alpha)


def lambda_adapt(data: LabeledScores, spec: BoundSpec | None = None) -> HPLBResult:
    """Adaptive bound: the smallest TV candidate the data cannot refute.

    Refutation depends on lam only through the witness quantiles
    (q_m, q_n), which step at the one-sided Clopper-Pearson lower limits.
    Bisecting the double lam, one is_violated call per distinct pair, ends
    at an unrefuted double whose next double below is refuted: a lattice
    point, attained.  It is the infimum of the unrefuted candidates when
    refutation is monotone in lam; that is assumed, not proven, and fails
    on rare samples (README.md, Notes).  Tests compare it with a scan of
    the whole lattice.
    """
    spec = spec or BoundSpec()
    path = build_counting_path(data)
    return adapt_from_path(path, spec)


def adapt_from_path(path: CountingPath, spec: BoundSpec) -> HPLBResult:
    """lambda_adapt on a prebuilt counting path."""
    verdicts = {}  # (q_m, q_n) -> is_violated at a candidate with those quantiles
    level = 1.0 - spec.alpha / 3.0

    def verdict(lam: float):
        # the (q_m, q_n) of `effective_sizes`, read from the quantile memo;
        # every lam here lies in [0, 1), and the memo maps p = 0 to 0
        q_m = _binom_quantile(level, lam, path.m)
        key = (q_m, q_m if path.n == path.m else _binom_quantile(level, lam, path.n))
        hit = verdicts.get(key)
        if hit is None:
            hit = verdicts[key] = is_violated(path, lam, spec)
        return hit

    # `below` is the verdict at lo.  At 1 the middle branch is empty, so 1
    # is never refuted.
    below = verdict(0.0)
    lo, value = 0.0, (1.0 if below[0] else 0.0)
    while lo < (mid := (lo + value) / 2.0) < value:
        hit = verdict(mid)
        if hit[0]:
            lo, below = mid, hit
        else:
            value = mid
    return HPLBResult(
        value=value,
        method="adapt",
        alpha=spec.alpha,
        diagnostics=Diagnostics(below[1], len(verdicts), spec.band_kind),
    )
