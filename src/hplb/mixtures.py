"""Analytic distribution pairs: exact TV, witness decomposition, projections.

A MixtureModel holds two densities (P, Q) built from piecewise-uniform
blocks, Gaussians, finite mixtures, and products of these.  Everything a
simulation study needs is available in closed or quadrature form:

* tv_exact        - the total variation distance lambda = (1/2) int |f - g|;
* decompose       - the three-component mixture representation
                    P = lambda H_P + (1 - lambda) H_PQ (and likewise for Q),
                    where H_P ~ (f-g)+/lambda carries the mass unique to P;
* sample_with_witness - draws from P or Q together with the latent flag
                    marking draws from the unique component;
* bayes_projection / regression_projection / mmd_projection - the score
                    functions used to reduce observations to one dimension;
* bounding_operation - the witness alignment sweep that dominates a
                    counting path by a pinned-ends process with an exactly
                    hypergeometric middle segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .counting import CountingPath
from .errors import ParameterError
from .streams import RngStream

__all__ = [
    "PiecewiseUniform",
    "Gaussian",
    "Mixture",
    "ProductDensity",
    "FunctionDensity",
    "MixtureModel",
    "WitnessDecomposition",
    "tv_exact",
    "decompose",
    "sample_with_witness",
    "bayes_projection",
    "regression_projection",
    "mmd_projection",
    "bounding_operation",
    "score_cdf",
    "accuracy_true",
    "sigma_true",
]

_GAUSS_TAIL_SD = 10.0  # support truncation for quadrature purposes
_NORM_TOL = 1e-9
_CDF_GRID_POINTS = 2 ** 16 + 1  # FunctionDensity's cumulative-trapezoid grid


def _phi(x):
    return 0.5 * (1.0 + erf(np.asarray(x) / math.sqrt(2.0)))


class PiecewiseUniform:
    """Density that is constant on each cell of a breakpoint grid."""

    dim = 1

    def __init__(self, breaks, heights):
        breaks = np.asarray(breaks, dtype=float)
        heights = np.asarray(heights, dtype=float)
        if breaks.ndim != 1 or len(breaks) < 2 or np.any(np.diff(breaks) <= 0):
            raise ParameterError("breaks must be strictly increasing with at least two points")
        if len(heights) != len(breaks) - 1 or (heights < 0).any():
            raise ParameterError("need one nonnegative height per cell")
        total = float(np.sum(heights * np.diff(breaks)))
        if abs(total - 1.0) > _NORM_TOL:
            raise ParameterError(f"density must integrate to 1, got {total}")
        self.breaks = breaks
        self.heights = heights
        self._cum = np.concatenate([[0.0], np.cumsum(heights * np.diff(breaks))])

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        inside = (idx >= 0) & (idx < len(self.heights))
        out = np.zeros_like(x, dtype=float)
        out[inside] = self.heights[idx[inside]]
        # right edge belongs to the last cell
        out[x == self.breaks[-1]] = self.heights[-1]
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, len(self.heights) - 1)
        base = self._cum[idx]
        frac = np.clip(x - self.breaks[idx], 0.0, None) * self.heights[idx]
        out = np.where(x <= self.breaks[0], 0.0, np.minimum(base + frac, 1.0))
        return np.where(x >= self.breaks[-1], 1.0, out)

    def sample(self, count, rng: RngStream):
        u = rng.random(count)
        idx = np.clip(np.searchsorted(self._cum, u, side="right") - 1, 0, len(self.heights) - 1)
        width_mass = self._cum[idx + 1] - self._cum[idx]
        frac = np.where(width_mass > 0, (u - self._cum[idx]) / np.where(width_mass > 0, width_mass, 1.0), 0.0)
        return self.breaks[idx] + frac * (self.breaks[idx + 1] - self.breaks[idx])

    def support(self):
        return float(self.breaks[0]), float(self.breaks[-1])

    def __eq__(self, other):
        return (
            isinstance(other, PiecewiseUniform)
            and np.array_equal(self.breaks, other.breaks)
            and np.array_equal(self.heights, other.heights)
        )


class Gaussian:
    dim = 1

    def __init__(self, mean: float, sd: float):
        if sd <= 0 or math.isnan(sd):
            raise ParameterError("standard deviation must be positive")
        self.mean = float(mean)
        self.sd = float(sd)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        return _phi((np.asarray(x, dtype=float) - self.mean) / self.sd)

    def sample(self, count, rng: RngStream):
        return rng.normal(self.mean, self.sd, count)

    def support(self):
        return self.mean - _GAUSS_TAIL_SD * self.sd, self.mean + _GAUSS_TAIL_SD * self.sd

    def __eq__(self, other):
        return isinstance(other, Gaussian) and self.mean == other.mean and self.sd == other.sd


class Mixture:
    """Finite mixture of densities sharing one dimensionality."""

    def __init__(self, weights, components):
        weights = np.asarray(weights, dtype=float)
        if len(weights) != len(components) or len(components) == 0:
            raise ParameterError("need one weight per component")
        if (weights < 0).any() or abs(weights.sum() - 1.0) > _NORM_TOL:
            raise ParameterError("weights must be nonnegative and sum to 1")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise ParameterError("components must share dimensionality")
        self.dim = dims.pop()
        self.weights = weights
        self.components = list(components)
        self._cumw = np.cumsum(weights)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape[:1] if (self.dim > 1 and x.ndim == 2) else x.shape
        out = np.zeros(shape, dtype=float)
        for w, c in zip(self.weights, self.components):
            if w > 0:
                out = out + w * c.pdf(x)
        return out

    def cdf(self, x):
        if self.dim != 1:
            raise ParameterError("cdf only defined for one-dimensional mixtures")
        out = np.zeros_like(np.asarray(x, dtype=float))
        for w, c in zip(self.weights, self.components):
            if w > 0:
                out = out + w * c.cdf(x)
        return out

    def sample(self, count, rng: RngStream):
        u = rng.random(count)
        comp = np.searchsorted(self._cumw, u, side="right")
        comp = np.clip(comp, 0, len(self.components) - 1)
        if self.dim == 1:
            out = np.empty(count, dtype=float)
        else:
            out = np.empty((count, self.dim), dtype=float)
        for j, c in enumerate(self.components):
            mask = comp == j
            k = int(mask.sum())
            if k:
                out[mask] = c.sample(k, rng)
        return out

    def support(self):
        los, his = zip(*(c.support() for c, w in zip(self.components, self.weights) if w > 0))
        return min(los), max(his)

    def __eq__(self, other):
        return (
            isinstance(other, Mixture)
            and np.array_equal(self.weights, other.weights)
            and all(a == b for a, b in zip(self.components, other.components))
        )


class ProductDensity:
    """Independent product of one-dimensional margins."""

    def __init__(self, margins):
        if not margins:
            raise ParameterError("need at least one margin")
        if any(m.dim != 1 for m in margins):
            raise ParameterError("margins must be one-dimensional")
        self.margins = list(margins)
        self.dim = len(margins)

    def pdf(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise ParameterError(f"points must have dimension {self.dim}")
        out = np.ones(x.shape[0])
        for j, mjj in enumerate(self.margins):
            out = out * mjj.pdf(x[:, j])
        return out

    def sample(self, count, rng: RngStream):
        cols = [mjj.sample(count, rng) for mjj in self.margins]
        return np.column_stack(cols)

    def support(self):
        return [m.support() for m in self.margins]

    def __eq__(self, other):
        return (
            isinstance(other, ProductDensity)
            and self.dim == other.dim
            and all(a == b for a, b in zip(self.margins, other.margins))
        )


class FunctionDensity:
    """Density given by a pointwise formula, with a grid-based CDF.

    Used for decomposition components such as (f - g)+/lambda.  The CDF is
    a cumulative trapezoid on a dense grid, renormalized by its endpoint
    so it is an exact distribution function up to the grid error.
    """

    dim = 1

    def __init__(self, fn, support):
        self._fn = fn
        self._lo, self._hi = float(support[0]), float(support[1])
        if not self._hi > self._lo:
            raise ParameterError("support must be a nondegenerate interval")
        self._grid = None
        self._grid_cdf = None

    def pdf(self, x):
        return np.asarray(self._fn(np.asarray(x, dtype=float)), dtype=float)

    def _ensure_grid(self):
        if self._grid is None:
            xs = np.linspace(self._lo, self._hi, _CDF_GRID_POINTS)
            ys = self.pdf(xs)
            h = xs[1] - xs[0]
            cum = np.concatenate([[0.0], np.cumsum((ys[1:] + ys[:-1]) * 0.5 * h)])
            if cum[-1] <= 0:
                raise ParameterError("function density has zero mass on its support")
            self._grid = xs
            self._grid_cdf = cum / cum[-1]

    def cdf(self, x):
        self._ensure_grid()
        return np.interp(np.asarray(x, dtype=float), self._grid, self._grid_cdf, left=0.0, right=1.0)

    def support(self):
        return self._lo, self._hi


@dataclass(frozen=True)
class MixtureModel:
    """A pair of densities (P with density f, Q with density g)."""

    p: object
    q: object
    label: str = ""

    def __post_init__(self):
        if self.p.dim != self.q.dim:
            raise ParameterError("P and Q must share dimensionality")

    @property
    def dim(self) -> int:
        return self.p.dim


# ---------------------------------------------------------------------------
# total variation distance


def _flatten_piecewise(d):
    """Merge a PiecewiseUniform or a mixture of them into (breaks, heights)."""
    if isinstance(d, PiecewiseUniform):
        return d.breaks, d.heights
    if isinstance(d, Mixture) and d.dim == 1:
        flats = [_flatten_piecewise(c) for c in d.components]
        if any(flat is None for flat in flats):
            return None
        breaks, parts = _merge_cells(flats)
        heights = np.zeros(len(breaks) - 1)
        for w, h in zip(d.weights, parts):
            heights += w * h
        return breaks, heights
    return None


def _merge_cells(flats):
    """Union of the breakpoints of (breaks, heights) pairs, and each pair's heights on its cells.

    A pair's height is zero on cells outside its own breakpoints.
    """
    breaks = np.unique(np.concatenate([b for b, _ in flats]))
    mids = 0.5 * (breaks[1:] + breaks[:-1])
    parts = []
    for b, h in flats:
        idx = np.searchsorted(b, mids, side="right") - 1
        ok = (idx >= 0) & (idx < len(h))
        part = np.zeros_like(mids)
        part[ok] = h[idx[ok]]
        parts.append(part)
    return breaks, parts


def _cells(model: MixtureModel):
    """(widths, f, g) on the merged cells of a piecewise-uniform pair, else None."""
    fp = _flatten_piecewise(model.p)
    fq = _flatten_piecewise(model.q)
    if fp is None or fq is None:
        return None
    breaks, (f, g) = _merge_cells([fp, fq])
    return np.diff(breaks), f, g


def _support(model: MixtureModel):
    """(lo, hi) covering the supports of both P and Q (1-D models)."""
    (p_lo, p_hi), (q_lo, q_hi) = model.p.support(), model.q.support()
    return min(p_lo, q_lo), max(p_hi, q_hi)


def _panel_points(d, pts):
    """Collect natural panel boundaries (breakpoints, means) of a density."""
    if isinstance(d, PiecewiseUniform):
        pts.update(d.breaks.tolist())
    elif isinstance(d, Gaussian):
        for k in (-3, -1, 0, 1, 3):
            pts.add(d.mean + k * d.sd)
    elif isinstance(d, Mixture):
        for c in d.components:
            _panel_points(c, pts)


def _contamination_split(model: MixtureModel):
    """Detect Q = (1 - eps) P + eps C (or the same with roles swapped).

    For such pairs |f - g| = eps |f - c| pointwise, so
    TV(P, Q) = eps * TV(P, C).  Returns (eps, base, contaminant) or None.
    """
    for base, other in ((model.p, model.q), (model.q, model.p)):
        if isinstance(other, Mixture) and len(other.components) == 2:
            for j in (0, 1):
                if other.components[j] == base:
                    eps = float(other.weights[1 - j])
                    return eps, base, other.components[1 - j]
    return None


def _gaussian_pair_tv(a, b):
    """Closed-form TV for equal-spread Gaussians (1-D or isotropic product)."""
    if isinstance(a, Gaussian) and isinstance(b, Gaussian) and a.sd == b.sd:
        delta = abs(a.mean - b.mean) / a.sd
        return float(2.0 * _phi(delta / 2.0) - 1.0)
    if isinstance(a, ProductDensity) and isinstance(b, ProductDensity) and a.dim == b.dim:
        sds = set()
        gap2 = 0.0
        for ma, mb in zip(a.margins, b.margins):
            if not (isinstance(ma, Gaussian) and isinstance(mb, Gaussian)):
                return None
            sds.update((ma.sd, mb.sd))
            gap2 += (ma.mean - mb.mean) ** 2
        if len(sds) != 1:
            return None
        delta = math.sqrt(gap2) / sds.pop()
        return float(2.0 * _phi(delta / 2.0) - 1.0)
    return None


def tv_exact(model: MixtureModel, tol: float = 1e-6) -> float:
    """lambda = (1/2) int |f - g|, by closed form where available.

    Piecewise-uniform pairs are summed exactly; equal-spread Gaussian pairs
    use 2 Phi(delta/2) - 1; contamination mixtures factor through the
    contaminant.  Remaining one-dimensional pairs fall back to
    scipy.integrate.quad on each panel between breakpoints and Gaussian
    landmarks, at absolute tolerance `tol` over the union of supports.
    """
    if model.p == model.q:
        return 0.0
    cells = _cells(model)
    if cells is not None:
        widths, f, g = cells
        return float(0.5 * np.sum(np.abs(f - g) * widths))
    closed = _gaussian_pair_tv(model.p, model.q)
    if closed is not None:
        return closed
    split = _contamination_split(model)
    if split is not None:
        eps, base, contaminant = split
        if eps == 0.0:
            return 0.0
        return eps * tv_exact(MixtureModel(base, contaminant), tol)
    if model.dim != 1:
        raise ParameterError("no closed form for this multivariate pair")
    # imported here: scipy.integrate would add about 0.26 s to `import hplb`
    from scipy.integrate import quad

    lo, hi = _support(model)
    pts = {lo, hi}
    _panel_points(model.p, pts)
    _panel_points(model.q, pts)
    knots = sorted(p for p in pts if lo <= p <= hi)
    panel_tol = tol / (len(knots) - 1)

    def absdiff(x):
        return abs(float(model.p.pdf(x) - model.q.pdf(x)))

    panels = zip(knots[:-1], knots[1:])
    return 0.5 * sum(quad(absdiff, a, b, epsabs=panel_tol)[0] for a, b in panels)


# ---------------------------------------------------------------------------
# witness decomposition and sampling


@dataclass(frozen=True)
class WitnessDecomposition:
    lam: float
    h_p: FunctionDensity | None
    h_q: FunctionDensity | None
    h_pq: FunctionDensity | None


def decompose(model: MixtureModel) -> WitnessDecomposition:
    """Split (P, Q) into unique and shared parts.

    Returns lambda = TV(P, Q) together with the normalized densities
    (f-g)+/lambda, (g-f)+/lambda, and min(f, g)/(1-lambda); the unique
    parts are absent at lambda = 0 and the shared part at lambda = 1.
    """
    if model.dim != 1:
        raise ParameterError("decomposition implemented for one-dimensional models")
    lam = tv_exact(model)
    lo, hi = _support(model)
    f, g = model.p.pdf, model.q.pdf

    h_p = h_q = h_pq = None
    if lam > 0.0:
        h_p = FunctionDensity(lambda x: np.clip(f(x) - g(x), 0.0, None) / lam, (lo, hi))
        h_q = FunctionDensity(lambda x: np.clip(g(x) - f(x), 0.0, None) / lam, (lo, hi))
    if lam < 1.0:
        h_pq = FunctionDensity(lambda x: np.minimum(f(x), g(x)) / (1.0 - lam), (lo, hi))
    return WitnessDecomposition(lam=lam, h_p=h_p, h_q=h_q, h_pq=h_pq)


def sample_with_witness(model: MixtureModel, source: str, count: int, rng: RngStream):
    """Draw from P or Q along with the latent witness flag.

    Returns (x, w): the source's sample array and an int8 array of flags.
    Draw X from the source, then set w = 1 with probability
    (f(X) - g(X))+/f(X) for source "P" (roles swapped for "Q"); the ratio
    is taken as 0 where the denominator vanishes.  Marginally X keeps the
    source law, P(w = 1) equals TV(P, Q), and conditionally on w = 0 the
    draw follows the shared component min(f, g)/(1 - TV).
    """
    if source not in ("P", "Q"):
        raise ParameterError("source must be 'P' or 'Q'")
    own = model.p if source == "P" else model.q
    other = model.q if source == "P" else model.p
    x = own.sample(count, rng)
    fx = own.pdf(x)
    gx = other.pdf(x)
    ratio = np.zeros(count)
    pos = fx > 0
    ratio[pos] = np.clip(fx[pos] - gx[pos], 0.0, None) / fx[pos]
    return x, (rng.random(count) < ratio).astype(np.int8)


# ---------------------------------------------------------------------------
# projections


def bayes_projection(model: MixtureModel, z, s: float | None = None):
    """Posterior probability of the second sample, g/(f + g).

    With a prior weight s on the first sample the s-weighted form
    (1 - s) g / (s f + (1 - s) g) is returned.  Where f + g = 0 the value
    is 1/2 by convention (immaterial under either law).
    """
    f = np.asarray(model.p.pdf(z), dtype=float)
    g = np.asarray(model.q.pdf(z), dtype=float)
    if s is None:
        num, den = g, f + g
    else:
        if not (0.0 <= s <= 1.0):
            raise ParameterError("prior weight must lie in [0, 1]")
        num, den = (1.0 - s) * g, s * f + (1.0 - s) * g
    out = np.full(np.broadcast(num, den).shape, 0.5)
    pos = den > 0
    out[pos] = num[pos] / den[pos]
    return float(out) if out.ndim == 0 else out


def regression_projection(model: MixtureModel, s_star: float, z):
    """Conditional-mean index under a single change point: (s* + rho_{1,s*}(z)) / 2."""
    rho = bayes_projection(model, z, s=s_star)
    return 0.5 * (s_star + rho)


def mmd_projection(x_sample, y_sample, bandwidth: float, z):
    """Kernel mean difference  mean_j k(y_j, z) - mean_i k(x_i, z).

    Gaussian kernel k(u, v) = exp(-||u - v||^2 / (2 bandwidth^2)).
    """
    if bandwidth <= 0:
        raise ParameterError("bandwidth must be positive")
    x = np.atleast_2d(np.asarray(x_sample, dtype=float).T).T
    y = np.atleast_2d(np.asarray(y_sample, dtype=float).T).T
    if x.size == 0 or y.size == 0:
        raise ParameterError("samples must be nonempty")
    zz = np.asarray(z, dtype=float)
    scalar = zz.ndim == 0 or (zz.ndim == 1 and x.shape[1] > 1)
    pts = np.atleast_2d(zz) if x.shape[1] > 1 else np.atleast_1d(zz)[:, None]

    def mean_kernel(sample):
        d2 = ((pts[:, None, :] - sample[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / (2.0 * bandwidth ** 2)).mean(axis=1)

    out = mean_kernel(y) - mean_kernel(x)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# bounding operation


def bounding_operation(labels, witness, bar_p: int, bar_q: int, rng: RngStream) -> CountingPath:
    """Dominate a witness-labeled counting path by pinning witnesses to the ends.

    `labels` (0 for the first sample, 1 for the second) and `witness` (the
    0/1 latent flags) are arrays in projection order.  If the supplied
    witness budgets exceed the observed counts, random non-witnesses are
    promoted first (precleaning).  The sweep then fills the first bar_p
    positions with first-sample witnesses and the last bar_q with
    second-sample witnesses; only label counts matter for the
    path, so the result takes V = z on the left, V = m on the right, and
    counts the surviving (non-witness) observations in order in between.
    The middle increment process is exactly the hypergeometric law on the
    reduced sizes, and the output dominates the original path pointwise.
    """
    labels = np.asarray(labels)
    witness = np.asarray(witness)
    if labels.ndim != 1 or witness.shape != labels.shape:
        raise ParameterError("labels and witness must be 1-D arrays of equal length")
    if not (np.isin(labels, (0, 1)).all() and np.isin(witness, (0, 1)).all()):
        raise ParameterError("labels and witness flags must be 0 or 1")
    labels0 = labels == 0
    wit = witness == 1
    m = int(labels0.sum())
    n = int((~labels0).sum())
    if m < 1 or n < 1:
        raise ParameterError("both samples must appear among the labels")
    obs_p = int((wit & labels0).sum())
    obs_q = int((wit & ~labels0).sum())
    if not (obs_p <= bar_p <= m):
        raise ParameterError(f"need observed P witnesses {obs_p} <= bar_p <= m={m}")
    if not (obs_q <= bar_q <= n):
        raise ParameterError(f"need observed Q witnesses {obs_q} <= bar_q <= n={n}")

    marked = wit.copy()
    for label_mask, target in ((labels0, bar_p), (~labels0, bar_q)):
        short = target - int((marked & label_mask).sum())
        if short > 0:
            pool = np.flatnonzero(label_mask & ~marked)
            promote = rng.choice(pool, size=short, replace=False)
            marked[promote] = True

    N = m + n
    survivors0 = labels0[~marked]
    v_full = np.empty(N, dtype=np.int64)
    v_full[:bar_p] = np.arange(1, bar_p + 1)
    mid_len = N - bar_p - bar_q
    if mid_len > 0:
        v_full[bar_p:N - bar_q] = bar_p + np.cumsum(survivors0, dtype=np.int64)
    if bar_q > 0:
        v_full[N - bar_q:] = m
    return CountingPath(v=v_full[:N - 1], m=m, n=n)


# ---------------------------------------------------------------------------
# population score quantities (for oracle benchmarks and identity checks)


def _score_regions(model: MixtureModel, t: float):
    """Mass of {z : rho*(z) <= t} under P and under Q (1-D models)."""
    if model.dim != 1:
        raise ParameterError(
            f"score-region masses need a one-dimensional model; "
            f"model {model.label!r} is {model.dim}-dimensional"
        )
    cells = _cells(model)
    if cells is not None:
        widths, f, g = cells
        f_mass, g_mass, scale = f * widths, g * widths, 1.0
    else:
        # dense midpoint grid; fine enough for score-region masses
        lo, hi = _support(model)
        xs = np.linspace(lo, hi, 2 ** 17 + 1)
        mids = 0.5 * (xs[1:] + xs[:-1])
        f, g = model.p.pdf(mids), model.q.pdf(mids)
        f_mass, g_mass, scale = f, g, xs[1] - xs[0]
    sel = np.where(f + g > 0, g / np.where(f + g > 0, f + g, 1.0), 0.5) <= t
    return float(np.sum(f_mass[sel]) * scale), float(np.sum(g_mass[sel]) * scale)


def score_cdf(model: MixtureModel, which: str, t: float) -> float:
    """CDF at t of the Bayes score under P ("p") or Q ("q")."""
    if which not in ("p", "q"):
        raise ParameterError("which must be 'p' or 'q'")
    fmass, gmass = _score_regions(model, t)
    return fmass if which == "p" else gmass


def accuracy_true(model: MixtureModel, t: float):
    """Population in-class accuracies (A0, A1) of 1{rho*(z) > t}."""
    F, G = _score_regions(model, t)
    return F, 1.0 - G


def sigma_true(model: MixtureModel, t: float, m: int, n: int) -> float:
    """True standard deviation of F_hat(t) - G_hat(t) at sizes (m, n)."""
    F, G = _score_regions(model, t)
    return math.sqrt(F * (1.0 - F) / m + G * (1.0 - G) / n)
