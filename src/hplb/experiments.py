"""Simulation designs: local alternatives, level studies, power grids, scans.

Three canonical model families drive the studies (all with oracle Bayes
scores and closed-form TV):

* example 0 - mirrored uniforms: P = p U[-1,0] + (1-p) U[0,1] and Q the
  mirror image; TV = 2p - 1.
* example 1 - contamination: P = (1-delta) Q + delta C with C = U[-2,-1]
  disjoint from Q = U[0,1]; TV = delta.
* example 2 - two-sided contamination with a faint bulk imbalance:
  P = p1 C1 + (1-p1) p2 P0 + (1-p1)(1-p2) Q0 and Q the mirror image;
  TV = p1 + (1-p1)(2 p2 - 1) with p2 = 1/2 + N^{-3/2}.
* toy - 12-dimensional standard normal vs the same with a 1% contamination
  shifted by (3, 3, 0, ..., 0); TV = 0.01 (2 Phi(sqrt(18)/2) - 1).

Signal strength follows lambda ~ c N^gamma; the power grid estimates the
detection boundary by interpolating the 50%-detection contour in gamma per
sample size and regressing the boundary's log-TV on log N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounding import BoundSpec
from .counting import LabeledScores, _require_integer
from .errors import ParameterError
from .estimators import HPLBResult, lambda_adapt, lambda_bayes, lambda_c, lambda_oracle_t
from .mixtures import (
    Gaussian,
    Mixture,
    MixtureModel,
    PiecewiseUniform,
    ProductDensity,
    bayes_projection,
    sigma_true,
    tv_exact,
)
from .streams import RngStream

__all__ = [
    "ExampleSpec",
    "PowerGridResult",
    "SplitScanResult",
    "example_model",
    "gen_example",
    "run_level_study",
    "run_power_grid",
    "split_scan",
    "pairwise_matrix",
]

_METHODS = ("c", "bayes", "adapt", "oracle_t")


def worker_count(n_tasks: int) -> int:
    """Always 1, since studies run serially; read only by `bench/tracer.py`."""
    return 1


def _map_indexed(fn, n_tasks: int):
    """[fn(i) for i in range(n_tasks)]; the tracer wraps it as the replication loop."""
    return [fn(i) for i in range(n_tasks)]


@dataclass(frozen=True)
class ExampleSpec:
    """Parameters of one simulated two-sample draw.

    gamma = None freezes the signal at scale c (rate exponent zero); with a
    gamma in (-1, 0) the signal decays like c * N^gamma.  c = None takes
    `default_scale(example_id)`.  The toy's contamination is fixed, so it
    takes neither c nor gamma.
    """

    example_id: object
    n_total: int
    gamma: float | None = None
    c: float | None = None
    pi: float = 0.5
    _model: tuple = field(init=False, repr=False, compare=False)  # example_model(self)

    def __post_init__(self):
        if self.example_id not in (0, 1, 2, "toy"):
            raise ParameterError("example_id must be 0, 1, 2 or 'toy'")
        if self.example_id == "toy" and (self.c is not None or self.gamma is not None):
            raise ParameterError("the toy model has a fixed contamination: it takes no c or gamma")
        if self.c is None:
            object.__setattr__(self, "c", default_scale(self.example_id))
        _require_integer("n_total", self.n_total)
        if self.n_total < 4:
            raise ParameterError("need at least 4 observations")
        if self.gamma is not None and not (-1.0 < self.gamma < 0.0):
            raise ParameterError("gamma must lie in (-1, 0)")
        if self.c < 0.0:
            raise ParameterError("scale constant must be nonnegative")
        if not (0.0 < self.pi < 1.0):
            raise ParameterError("class balance must lie in (0, 1)")
        object.__setattr__(self, "_model", example_model(self))  # checks the family's parameters

    def class_sizes(self) -> tuple[int, int]:
        """(m, n) = (floor(pi N), N - m): draws from P, then from Q."""
        m = int(self.pi * self.n_total)
        if m < 1 or m >= self.n_total:
            raise ParameterError("class balance leaves an empty class")
        return m, self.n_total - m

    def signal(self) -> float:
        return self.c * (self.n_total ** self.gamma if self.gamma is not None else 1.0)


def default_scale(example_id) -> float:
    """Signal scale c used when none is given: 2 for example 2, 1 otherwise."""
    return 2.0 if example_id == 2 else 1.0


_U_NEG = PiecewiseUniform([-1.0, 0.0], [1.0])
_U_POS = PiecewiseUniform([0.0, 1.0], [1.0])
_U_C = PiecewiseUniform([-2.0, -1.0], [1.0])
_U_C1 = PiecewiseUniform([-3.0, -2.0], [1.0])
_U_C2 = PiecewiseUniform([2.0, 3.0], [1.0])
_TOY_DIM = 12
_TOY_SHIFT = (3.0, 3.0) + (0.0,) * (_TOY_DIM - 2)
_TOY_EPS = 0.01


def example_model(spec: ExampleSpec) -> tuple[MixtureModel, float]:
    """Build the analytic (P, Q) pair and its exact TV, checking the family's parameters."""
    s = spec.signal()
    if spec.example_id == 0:
        p = (1.0 + s) / 2.0
        if not (0.5 <= p <= 1.0):
            raise ParameterError(f"example 0 needs p in (0.5, 1], got {p}")
        P = Mixture([p, 1.0 - p], [_U_NEG, _U_POS])
        Q = Mixture([1.0 - p, p], [_U_NEG, _U_POS])
        return MixtureModel(P, Q, "example0"), 2.0 * p - 1.0
    if spec.example_id == 1:
        if not (0.0 <= s < 1.0):
            raise ParameterError(f"example 1 needs delta in [0, 1), got {s}")
        P = Mixture([1.0 - s, s], [_U_POS, _U_C])
        return MixtureModel(P, _U_POS, "example1"), s
    if spec.example_id == 2:
        p1, p2 = s, 0.5 + spec.n_total ** -1.5
        if not (0.0 <= p1 < 1.0):
            raise ParameterError(f"example 2 needs p1 in [0, 1), got {p1}")
        P = Mixture([p1, (1 - p1) * p2, (1 - p1) * (1 - p2)], [_U_C1, _U_NEG, _U_POS])
        Q = Mixture([p1, (1 - p1) * p2, (1 - p1) * (1 - p2)], [_U_C2, _U_POS, _U_NEG])
        return MixtureModel(P, Q, "example2"), p1 + (1 - p1) * (2 * p2 - 1)
    base = ProductDensity([Gaussian(0.0, 1.0) for _ in range(_TOY_DIM)])
    bump = ProductDensity([Gaussian(mu, 1.0) for mu in _TOY_SHIFT])
    Q = Mixture([1.0 - _TOY_EPS, _TOY_EPS], [base, bump])
    model = MixtureModel(base, Q, "toy")
    return model, tv_exact(model)


def gen_example(spec: ExampleSpec, rng: RngStream) -> tuple[LabeledScores, float]:
    """Draw m = floor(pi N) points from P and the rest from Q, scored by rho*."""
    model, lam = spec._model
    m, n = spec.class_sizes()
    xs = model.p.sample(m, rng.child("sample-p"))
    ys = model.q.sample(n, rng.child("sample-q"))
    scores = np.concatenate([bayes_projection(model, xs), bayes_projection(model, ys)])
    labels = np.concatenate([np.zeros(m, dtype=np.int8), np.ones(n, dtype=np.int8)])
    tie_seed = int(rng.child("ties").integers(0, 2 ** 63 - 1))
    return LabeledScores(scores=scores, labels=labels, tie_seed=tie_seed), lam


def _estimate(method, data, bound, sigma=None):
    if method == "c":
        return lambda_c(data, bound.alpha)
    if method == "bayes":
        return lambda_bayes(data, bound.alpha)
    if method == "adapt":
        return lambda_adapt(data, bound)
    if method == "oracle_t":
        return lambda_oracle_t(data, 0.5, sigma, bound.alpha)
    raise ParameterError(f"unknown method {method!r}; choose from {_METHODS}")


def run_level_study(
    spec: ExampleSpec,
    method: str,
    reps: int,
    rng: RngStream,
    bound: BoundSpec | None = None,
) -> float:
    """Fraction of replications with lambda_hat above the true TV, at level `bound.alpha`."""
    _require_integer("reps", reps)
    if reps < 100:
        raise ParameterError("need at least 100 replications")
    bound = bound or BoundSpec()
    # every replication has the class sizes of `spec`, so oracle_t's true
    # standard deviation is computed once, before any replication runs
    sigma = None
    if method == "oracle_t":
        sigma = sigma_true(spec._model[0], 0.5, *spec.class_sizes())

    def one(i):
        data, lam = gen_example(spec, rng.child("rep", i))
        est = _estimate(method, data, bound, sigma=sigma)
        return est.value > lam

    hits = _map_indexed(one, reps)
    return float(np.mean(hits))


@dataclass(frozen=True)
class PowerGridResult:
    """Detection frequencies, mean bounds, and the fitted boundary slope."""

    example_id: int
    method: str
    gammas: tuple
    ns: tuple
    reps: int
    epsilon: float
    alpha: float
    c: float
    freq: dict = field(default_factory=dict)
    mean_lambda: dict = field(default_factory=dict)
    slope: float = float("nan")

    def cells(self):
        for g in self.gammas:
            for N in self.ns:
                yield g, N


def _fit_boundary_slope(freq, gammas, ns, c):
    """Interpolate the 50% contour per N, regress log boundary-TV on log N.

    For each sample size, walk gammas from easiest (closest to 0) to
    hardest; the boundary gamma* interpolates where the detection
    frequency crosses one half, and contributes log(c) + gamma* log N.
    Sizes whose contour lies outside the grid are skipped.
    """
    gs = sorted(gammas, reverse=True)
    logs_n, logs_lam = [], []
    for N in ns:
        f = [freq[(g, N)] for g in gs]
        gstar = None
        for i in range(len(gs) - 1):
            if f[i] >= 0.5 > f[i + 1]:
                g1, g2, f1, f2 = gs[i], gs[i + 1], f[i], f[i + 1]
                gstar = g1 + (0.5 - f1) * (g2 - g1) / (f2 - f1)
                break
        if gstar is None:
            continue
        logs_n.append(math.log(N))
        logs_lam.append(math.log(c) + gstar * math.log(N))
    if len(logs_n) < 2:
        return float("nan")
    design = np.vstack([logs_n, np.ones(len(logs_n))]).T
    coef, *_ = np.linalg.lstsq(design, np.asarray(logs_lam), rcond=None)
    return float(coef[0])


def run_power_grid(
    example: int,
    method: str,
    gammas,
    ns,
    reps: int,
    epsilon: float,
    rng: RngStream,
    bound: BoundSpec | None = None,
    c: float | None = None,
) -> PowerGridResult:
    """Detection frequency of {lambda_hat > (1 - epsilon) TV} over a (gamma, N) grid.

    Every estimate is at level `bound.alpha`, which the result reports as `alpha`.
    """
    if not gammas or not ns:
        raise ParameterError("grids must be nonempty")
    for name, grid in (("gammas", gammas), ("ns", ns)):
        if len(set(grid)) < len(grid):
            raise ParameterError(f"{name} must not repeat a value, got {list(grid)}")
    _require_integer("reps", reps)
    if reps < 1:
        raise ParameterError(f"need at least 1 replication per cell, got reps={reps}")
    if not (0.0 < epsilon <= 1.0):
        raise ParameterError("epsilon must lie in (0, 1]")
    if example not in (1, 2):
        raise ParameterError("power grids are defined for examples 1 and 2")
    if method not in ("c", "bayes", "adapt"):
        raise ParameterError(f"power grids support methods c, bayes and adapt, got {method!r}")
    if c is None:
        c = default_scale(example)
    bound = bound or BoundSpec()
    freq, mean_lam = {}, {}
    for g in gammas:
        for N in ns:
            spec = ExampleSpec(example_id=example, n_total=N, gamma=g, c=c)

            def one(i, spec=spec, g=g, N=N):
                data, lam = gen_example(spec, rng.child("cell", round(g, 6), N, i))
                est = _estimate(method, data, bound)
                return est.value, est.value > (1.0 - epsilon) * lam

            rows = _map_indexed(one, reps)
            vals = np.array([r[0] for r in rows])
            hits = np.array([r[1] for r in rows])
            freq[(g, N)] = float(hits.mean())
            mean_lam[(g, N)] = float(vals.mean())
    slope = _fit_boundary_slope(freq, list(gammas), list(ns), c)
    return PowerGridResult(
        example_id=example,
        method=method,
        gammas=tuple(gammas),
        ns=tuple(ns),
        reps=reps,
        epsilon=epsilon,
        alpha=bound.alpha,
        c=c,
        freq=freq,
        mean_lambda=mean_lam,
        slope=slope,
    )


@dataclass(frozen=True)
class SplitScanResult:
    """Adaptive bounds over candidate split points of an ordered sample."""

    splits: tuple
    bounds: tuple          # HPLBResult or None per split
    m_n: tuple             # (m, n) per split
    skipped: tuple         # warning strings for skipped splits


def split_scan(
    t_index,
    scores,
    splits,
    spec: BoundSpec,
    tie_seed: int = 0,
) -> SplitScanResult:
    """Scan candidate change points: label by t <= s vs t > s, bound each split.

    Conditions on the realized class sizes at every split; a split with
    fewer than two observations on either side is skipped with a warning
    record instead of an estimate.  Each split's bound holds at level
    `spec.alpha` on its own, so a peak chosen over K splits is covered
    only at K alpha.
    """
    t_index = np.asarray(t_index, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if t_index.shape != scores.shape or t_index.ndim != 1:
        raise ParameterError("t_index and scores must be 1-D arrays of equal length")
    if np.isnan(t_index).any():
        raise ParameterError("t_index must not contain NaN")
    splits = list(splits)
    if not splits or any(math.isnan(s) for s in splits):
        raise ParameterError(f"splits must be a nonempty list of numbers, got {splits}")
    if any(a >= b for a, b in zip(splits, splits[1:])):
        raise ParameterError(f"splits must be strictly increasing, got {splits}")
    bounds, sizes, skipped = [], [], []
    for s in splits:
        labels = (t_index > s).astype(np.int8)
        m = int((labels == 0).sum())
        n = int((labels == 1).sum())
        sizes.append((m, n))
        if m < 2 or n < 2:
            skipped.append(f"split {s}: need two observations on each side, got ({m}, {n})")
            bounds.append(None)
            continue
        data = LabeledScores(scores=scores, labels=labels, tie_seed=tie_seed)
        bounds.append(lambda_adapt(data, spec))
    return SplitScanResult(
        splits=tuple(splits), bounds=tuple(bounds), m_n=tuple(sizes), skipped=tuple(skipped)
    )


def pairwise_matrix(class_probs, labels, spec: BoundSpec) -> np.ndarray:
    """Pairwise adaptive TV bounds from per-class probability scores.

    Each pair i < j is bounded once: the sample is restricted to classes i
    and j and each observation scored by p_i - p_j (class j plays the first
    sample, sitting at low scores).  The bound is written to both (i, j)
    and (j, i), so each entry holds at level `spec.alpha`; the diagonal is
    zero.
    """
    probs = np.asarray(class_probs, dtype=float)
    labels = np.asarray(labels)
    if probs.ndim != 2 or len(labels) != probs.shape[0]:
        raise ParameterError("need an (n, K) probability matrix with one label per row")
    K = probs.shape[1]
    classes = np.arange(K)
    if not np.isin(labels, classes).all():
        raise ParameterError(f"labels must lie in 0..{K - 1}")
    counts = [(labels == k).sum() for k in classes]
    if any(cnt == 0 for cnt in counts):
        raise ParameterError("every class must be nonempty")
    out = np.zeros((K, K))
    for i in range(K):
        for j in range(i + 1, K):
            mask = (labels == i) | (labels == j)
            score = probs[mask, i] - probs[mask, j]
            lab = (labels[mask] == i).astype(np.int8)  # class j -> 0, class i -> 1
            data = LabeledScores(scores=score, labels=lab, tie_seed=spec.seed)
            out[i, j] = out[j, i] = lambda_adapt(data, spec).value
    return out
