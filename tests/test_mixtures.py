"""Analytic model pairs: TV, decomposition, witness sampling, projections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from hplb import (
    CountingPath,
    Gaussian,
    LabeledScores,
    Mixture,
    MixtureModel,
    ParameterError,
    PiecewiseUniform,
    RngStream,
    bayes_projection,
    binom_quantile,
    bounding_operation,
    build_counting_path,
    decompose,
    sample_with_witness,
    sigma_true,
    tv_exact,
)
from hplb.mixtures import accuracy_true, score_cdf

U_NEG = PiecewiseUniform([-1.0, 0.0], [1.0])
U_POS = PiecewiseUniform([0.0, 1.0], [1.0])
U_C = PiecewiseUniform([-2.0, -1.0], [1.0])


def example0_model(p):
    return MixtureModel(
        Mixture([p, 1 - p], [U_NEG, U_POS]),
        Mixture([1 - p, p], [U_NEG, U_POS]),
    )


def example2_model(p1, p2):
    C1 = PiecewiseUniform([-3.0, -2.0], [1.0])
    C2 = PiecewiseUniform([2.0, 3.0], [1.0])
    P = Mixture([p1, (1 - p1) * p2, (1 - p1) * (1 - p2)], [C1, U_NEG, U_POS])
    Q = Mixture([p1, (1 - p1) * p2, (1 - p1) * (1 - p2)], [C2, U_POS, U_NEG])
    return MixtureModel(P, Q)


GAUSS_PAIR = MixtureModel(Gaussian(0.0, 0.5), Gaussian(1.0, 0.75))


class TestDensities:
    def test_piecewise_must_normalize(self):
        with pytest.raises(ParameterError):
            PiecewiseUniform([0.0, 1.0], [0.9])
        with pytest.raises(ParameterError):
            PiecewiseUniform([0.0, 1.0], [-1.0])

    def test_gaussian_needs_positive_sd(self):
        with pytest.raises(ParameterError):
            Gaussian(0.0, 0.0)

    def test_mixture_weights_validated(self):
        with pytest.raises(ParameterError):
            Mixture([0.5, 0.6], [U_NEG, U_POS])

    def test_piecewise_cdf_matches_masses(self):
        d = PiecewiseUniform([0.0, 0.5, 1.0], [0.4, 1.6])
        assert abs(d.cdf(0.5) - 0.2) <= 1e-12
        assert d.cdf(-1.0) == 0.0 and d.cdf(2.0) == 1.0

    def test_sampling_matches_cdf(self):
        rng = RngStream(3, 0)
        for d in (PiecewiseUniform([0.0, 0.25, 1.0], [2.0, 2 / 3]), Gaussian(1.0, 0.5)):
            x = d.sample(20_000, rng)
            stat = stats.kstest(x, lambda v: d.cdf(v)).statistic
            assert stat < 1.63 / math.sqrt(20_000)  # 1% critical value

    @pytest.mark.parametrize("d", [
        U_POS,
        PiecewiseUniform([-2.5, 4.25], [1.0 / 6.75]),
        PiecewiseUniform([0.0, 1.0], [1.0 + 2.0**-40]),  # a cell mass just above 1.0
        PiecewiseUniform([3.0, 4.0], [1.0 - 2.0**-40]),  # and just below
        PiecewiseUniform([0.0, 0.25, 1.0], [2.0, 2 / 3]),
    ], ids=["unit", "wide", "mass-above-1", "mass-below-1", "two-cells"])
    def test_sample_is_the_cell_search_bit_for_bit(self, d):
        # a one-cell density skips the search; its doubles must not move
        u = RngStream(8, 0).random(5000)
        u[:3] = 0.0, 1.0 - 2.0**-53, d._cum[-1]  # the ends of the unit interval and of the cells
        idx = np.minimum(np.searchsorted(d._cum, u, side="right") - 1, len(d.heights) - 1)
        mass = d._mass[idx]
        want = np.divide(u - d._cum[idx], mass, out=np.zeros(len(u)), where=mass > 0)
        want = want * d._widths[idx] + d.breaks[idx]

        class Stream:
            def random(self, count):
                return u.copy()

        got = d.sample(len(u), Stream())
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert d.sample(0, RngStream(8, 1)).shape == (0,)

    def test_gaussian_cdf_against_scipy(self):
        xs = np.linspace(-5, 5, 101)
        assert np.allclose(Gaussian(0.3, 1.7).cdf(xs), stats.norm.cdf(xs, 0.3, 1.7), atol=1e-12)


class TestTvExact:
    def test_identical_is_zero(self):
        assert tv_exact(MixtureModel(U_POS, U_POS)) == 0.0

    def test_example0_closed_form(self):
        # lambda = 2p - 1 exactly for the mirrored uniforms
        assert abs(tv_exact(example0_model(0.7)) - 0.4) <= 1e-12

    def test_gaussian_pair_value(self):
        # quadrature oracle: 0.5 * int |f - g| = 0.5901
        got = tv_exact(GAUSS_PAIR)
        assert abs(got - 0.590) <= 1e-3
        f = lambda x: stats.norm.pdf(x, 0, 0.5)
        g = lambda x: stats.norm.pdf(x, 1, 0.75)
        oracle = 0.5 * integrate.quad(lambda x: abs(f(x) - g(x)), -6, 9, limit=400)[0]
        assert abs(got - oracle) <= 1e-5

    def test_equal_sd_gaussians_closed_form(self):
        model = MixtureModel(Gaussian(0.0, 2.0), Gaussian(1.0, 2.0))
        assert abs(tv_exact(model) - (2 * stats.norm.cdf(0.25) - 1)) <= 1e-12

    def test_symmetry(self):
        for model in (example0_model(0.6), GAUSS_PAIR, example2_model(0.1, 0.6)):
            assert abs(tv_exact(model) - tv_exact(MixtureModel(model.q, model.p))) <= 1e-9

    def test_contamination_factorization(self):
        base = U_POS
        mix = Mixture([0.8, 0.2], [base, U_C])
        assert abs(tv_exact(MixtureModel(mix, base)) - 0.2) <= 1e-12


class TestDecompose:
    def test_disjoint_supports(self):
        d = decompose(MixtureModel(U_NEG, U_POS))
        assert d.lam == 1.0
        assert d.h_pq is None
        xs = np.linspace(-0.99, -0.01, 50)
        assert np.allclose(d.h_p.pdf(xs), 1.0)

    def test_identical(self):
        d = decompose(MixtureModel(U_POS, U_POS))
        assert d.lam == 0.0 and d.h_p is None and d.h_q is None
        assert np.allclose(d.h_pq.pdf(np.linspace(0.01, 0.99, 9)), 1.0)

    def test_example2_weight(self):
        # p1 + (1 - p1)(2 p2 - 1) = 0.1 + 0.9 * 0.2 = 0.28
        d = decompose(example2_model(0.1, 0.6))
        assert abs(d.lam - 0.28) <= 1e-12

    @pytest.mark.parametrize(
        "model", [example0_model(0.7), GAUSS_PAIR, example2_model(0.15, 0.55)]
    )
    def test_reconstruction_identity(self, model):
        # lam h_p + (1 - lam) h_pq == f pointwise; same for g
        d = decompose(model)
        lo = min(model.p.support()[0], model.q.support()[0])
        hi = max(model.p.support()[1], model.q.support()[1])
        xs = np.linspace(lo, hi, 1000)
        f_back = d.lam * d.h_p.pdf(xs) + (1 - d.lam) * d.h_pq.pdf(xs)
        g_back = d.lam * d.h_q.pdf(xs) + (1 - d.lam) * d.h_pq.pdf(xs)
        assert np.max(np.abs(f_back - model.p.pdf(xs))) <= 1e-8
        assert np.max(np.abs(g_back - model.q.pdf(xs))) <= 1e-8


class TestWitnessSampling:
    def test_identical_distributions_have_no_witnesses(self):
        _, w = sample_with_witness(MixtureModel(U_POS, U_POS), "P", 500, RngStream(1, 0))
        assert (w == 0).all()

    def test_disjoint_supports_all_witnesses(self):
        _, w = sample_with_witness(MixtureModel(U_NEG, U_POS), "P", 500, RngStream(2, 0))
        assert (w == 1).all()

    def test_witness_frequency_and_marginal_law(self):
        lam = tv_exact(GAUSS_PAIR)
        n = 100_000
        xs, w = sample_with_witness(GAUSS_PAIR, "P", n, RngStream(3, 0))
        assert xs.shape == w.shape == (n,) and w.dtype == np.int8
        freq = np.mean(w)
        assert abs(freq - lam) <= 3 * math.sqrt(lam * (1 - lam) / n)
        # marginal stays the source law (1% critical value)
        assert stats.kstest(xs, lambda v: GAUSS_PAIR.p.cdf(v)).statistic < 1.63 / math.sqrt(n)

    def test_conditional_law_given_no_witness(self):
        d = decompose(GAUSS_PAIR)
        n = 100_000
        x, w = sample_with_witness(GAUSS_PAIR, "Q", n, RngStream(4, 0))
        xs = x[w == 0]
        stat = stats.kstest(xs, lambda v: d.h_pq.cdf(v)).statistic
        assert stat < 1.63 / math.sqrt(len(xs))


class TestProjections:
    def test_equal_densities_give_half(self):
        assert bayes_projection(MixtureModel(U_POS, U_POS), 0.5) == 0.5

    def test_second_sample_support_gives_one(self):
        assert bayes_projection(MixtureModel(U_NEG, U_POS), 0.5) == 1.0

    def test_example0_value(self):
        # on the left piece the posterior equals 1 - p
        assert abs(bayes_projection(example0_model(0.7), -0.5) - 0.3) <= 1e-12

    def test_outside_both_supports_convention(self):
        assert bayes_projection(example0_model(0.7), 5.0) == 0.5


def _random_piecewise(rng):
    """A PiecewiseUniform on 1 to 4 cells of a quarter grid that holds 0.0, some of
    its heights zero."""
    cells = int(rng.integers(1, 5))
    breaks = np.sort(rng.choice(np.linspace(-3.0, 3.0, 25), size=cells + 1, replace=False))
    heights = rng.exponential(size=cells) * (rng.random(cells) < 0.75)
    heights[rng.integers(cells)] += 1.0
    return PiecewiseUniform(breaks, heights / np.sum(heights * np.diff(breaks)))


def _random_piecewise_mixture(rng):
    """A PiecewiseUniform, or a Mixture of up to three of them (one may itself be a
    Mixture), some weights zero."""
    if rng.random() < 0.25:
        return _random_piecewise(rng)
    k = int(rng.integers(1, 4))
    parts = [_random_piecewise(rng) for _ in range(k)]
    if k > 1 and rng.random() < 0.3:
        parts[0] = Mixture([0.5, 0.5], [parts[0], _random_piecewise(rng)])
    weights = rng.random(k) * (rng.random(k) < 0.8)
    weights[0] += 0.1
    return Mixture(weights / weights.sum(), parts)


def _leaf_breaks(d):
    if isinstance(d, PiecewiseUniform):
        return list(d.breaks)
    return [b for c in d.components for b in _leaf_breaks(c)]


class TestBayesScoreDoubles:
    """bayes_projection gives the doubles of g/(f + g), with 1/2 where f + g = 0,
    at every point of a piecewise-uniform model: edges, their neighbours,
    signed zeros, infinities and NaN."""

    @staticmethod
    def _formula(model, z):
        f = np.asarray(model.p.pdf(z), dtype=float)
        g = np.asarray(model.q.pdf(z), dtype=float)
        den = f + g
        return np.where(den > 0, g / np.where(den > 0, den, 1.0), 0.5)

    def test_random_piecewise_uniform_mixtures(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            model = MixtureModel(_random_piecewise_mixture(rng), _random_piecewise_mixture(rng))
            edges = np.array(_leaf_breaks(model.p) + _leaf_breaks(model.q))
            z = np.concatenate([
                edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                [0.0, -0.0, np.inf, -np.inf, np.nan], rng.uniform(-4.0, 4.0, 200),
            ])
            got = bayes_projection(model, z)
            assert got.shape == z.shape and got.dtype == np.float64
            assert got.tobytes() == self._formula(model, z).tobytes()
            grid = z[:6].reshape(2, 3)
            assert bayes_projection(model, grid).tobytes() == self._formula(model, grid).tobytes()
            for x in (edges[0], -0.0, np.inf, np.nan, float(z[-1])):
                value = bayes_projection(model, x)
                assert isinstance(value, float)
                assert value.hex() == float(self._formula(model, x)).hex()

    def test_nan_and_outside_points_score_one_half(self):
        model = example0_model(0.7)
        assert bayes_projection(model, np.nan) == 0.5
        assert bayes_projection(model, [-np.inf, np.inf]).tolist() == [0.5, 0.5]
        assert bayes_projection(model, [-1, 0, 1]).tolist() == bayes_projection(
            model, np.array([-1.0, 0.0, 1.0])).tolist()


class TestProjectionContraction:
    @pytest.mark.parametrize(
        "model",
        [example0_model(0.7), example2_model(0.1, 0.6), GAUSS_PAIR],
        ids=["example0", "example2", "gauss"],
    )
    def test_threshold_projection_contracts(self, model):
        # pushing forward through 1{rho* > t} leaves TV(F(t) - G(t)) <= TV
        lam = tv_exact(model)
        for t in (0.2, 0.4, 0.5, 0.6, 0.8):
            gap = abs(score_cdf(model, "p", t) - score_cdf(model, "q", t))
            assert gap <= lam + 1e-6

    def test_bayes_projection_preserves_tv_discrete(self):
        # piecewise models give discrete score laws; half the l1 gap of the
        # score masses must equal TV exactly
        for model, pieces in (
            (example0_model(0.7), [(-1.0, 0.0), (0.0, 1.0)]),
            (example2_model(0.1, 0.6), [(-3.0, -2.0), (-1.0, 0.0), (0.0, 1.0), (2.0, 3.0)]),
        ):
            masses = {}
            for lo, hi in pieces:
                mid = 0.5 * (lo + hi)
                rho = float(bayes_projection(model, mid))
                fm = float(model.p.pdf(np.array([mid]))[0]) * (hi - lo)
                gm = float(model.q.pdf(np.array([mid]))[0]) * (hi - lo)
                pf, pg = masses.get(rho, (0.0, 0.0))
                masses[rho] = (pf + fm, pg + gm)
            tv_scores = 0.5 * sum(abs(pf - pg) for pf, pg in masses.values())
            assert abs(tv_scores - tv_exact(model)) <= 1e-4

    def test_bayes_projection_preserves_tv_continuous(self):
        # partition lower bound in score space converges to TV for rho*
        model = GAUSS_PAIR
        lam = tv_exact(model)
        xs = np.linspace(-6.0, 9.0, 2 ** 17 + 1)
        mids = 0.5 * (xs[1:] + xs[:-1])
        h = xs[1] - xs[0]
        f = model.p.pdf(mids) * h
        g = model.q.pdf(mids) * h
        rho = bayes_projection(model, mids)
        bins = np.linspace(0.0, 1.0, 2049)
        pf, _ = np.histogram(rho, bins=bins, weights=f)
        pg, _ = np.histogram(rho, bins=bins, weights=g)
        tv_scores = 0.5 * np.sum(np.abs(pf - pg))
        assert tv_scores <= lam + 1e-6
        assert tv_scores >= lam - 1e-4


class TestSigmaIdentity:
    def test_two_routes_agree_to_1e12(self):
        # sigma(t) from (F, G) versus from the in-class accuracies
        rng = RngStream(11, 0)
        models = [
            example0_model(0.7),
            example0_model(0.55),
            example2_model(0.1, 0.6),
            GAUSS_PAIR,
            MixtureModel(Gaussian(0.0, 1.0), Gaussian(0.5, 1.0)),
        ]
        m, n = 137, 211
        count = 0
        while count < 100:
            model = models[count % len(models)]
            t = float(rng.random())
            F = score_cdf(model, "p", t)
            G = score_cdf(model, "q", t)
            a0, a1 = accuracy_true(model, t)
            route1 = math.sqrt(F * (1 - F) / m + G * (1 - G) / n)
            route2 = math.sqrt(a0 * (1 - a0) / m + a1 * (1 - a1) / n)
            assert abs(route1 - route2) <= 1e-12
            count += 1

    def test_example1_accuracies(self):
        # contamination model: A0(1/2) = delta, A1(1/2) = 1 exactly
        delta = 0.2
        P = Mixture([1 - delta, delta], [U_POS, U_C])
        model = MixtureModel(P, U_POS)
        a0, a1 = accuracy_true(model, 0.5)
        assert abs(a0 - delta) <= 1e-12
        assert a1 == 1.0

    def test_sigma_true_value(self):
        delta = 0.2
        P = Mixture([1 - delta, delta], [U_POS, U_C])
        model = MixtureModel(P, U_POS)
        expected = math.sqrt(delta * (1 - delta) / 300)
        assert abs(sigma_true(model, 0.5, 300, 300) - expected) <= 1e-12


class TestQuantileGapRate:
    def test_iterated_gap_stays_proportional(self):
        # (m p - q_{0.95}((1-eps) p, m)) / (m p eps) stays within [0.5, 1.5]
        p, eps = 0.3, 0.5
        for m in (100, 1000, 10_000, 100_000):
            q = binom_quantile(0.95, (1 - eps) * p, m)
            ratio = (m * p - q) / (m * p * eps)
            assert 0.5 <= ratio <= 1.5, f"m={m}: {ratio}"


def _sorted_witness_sample(model, m, n, rng):
    """Labels and witness flags of m + n witness draws, in projection order."""
    xp, wp = sample_with_witness(model, "P", m, rng.child("p"))
    xq, wq = sample_with_witness(model, "Q", n, rng.child("q"))
    rho = bayes_projection(model, np.concatenate([xp, xq]))
    jitter = rng.child("ties").random(m + n)
    order = np.lexsort((jitter, rho))
    labels = np.repeat(np.array([0, 1], dtype=np.int8), [m, n])
    return labels[order], np.concatenate([wp, wq])[order]


class TestBoundingOperation:
    def test_exact_counts_and_extreme_positions_identity(self):
        # witnesses already at the ends + tight budgets leave the path alone
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        witness = np.array([1, 1, 0, 0, 0, 0, 0, 0, 1, 1])
        path = bounding_operation(labels, witness, 2, 2, RngStream(0, 0))
        expected = np.cumsum(labels == 0)[:-1]
        assert path.v.tolist() == expected.tolist()

    def test_full_left_budget_forces_identity_ramp(self):
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        witness = np.array([1, 0, 0, 0, 0, 0, 0, 0])
        path = bounding_operation(labels, witness, 4, 0, RngStream(1, 0))
        z = np.arange(1, 8)
        assert (path.v[: 4] == z[: 4]).all()

    def test_budget_validation(self):
        labels, witness = np.array([0, 1]), np.array([1, 0])
        with pytest.raises(ParameterError):
            bounding_operation(labels, witness, 2, 0, RngStream(0, 0))
        with pytest.raises(ParameterError):
            bounding_operation(labels, witness, 0, 0, RngStream(0, 0))  # below observed count
        with pytest.raises(ParameterError):
            bounding_operation(np.array([0, 2]), witness, 1, 0, RngStream(0, 0))
        with pytest.raises(ParameterError):
            bounding_operation(labels, np.array([2, 0]), 1, 0, RngStream(0, 0))

    def test_dominance_and_path_validity(self):
        delta = 0.2
        model = MixtureModel(Mixture([1 - delta, delta], [U_POS, U_C]), U_POS)
        m = n = 150
        bar_p = binom_quantile(1 - 0.01, delta, m) + 8
        bar_q = binom_quantile(1 - 0.01, delta, n) + 8
        rng = RngStream(42, 0)
        for rep in range(200):
            labels, witness = _sorted_witness_sample(model, m, n, rng.child("rep", rep))
            if witness[labels == 0].sum() > bar_p:
                continue
            if witness[labels == 1].sum() > bar_q:
                continue
            # the plain path must use the same realized ordering as the flags
            plain_v = np.cumsum(labels == 0)[:-1]
            bounded = bounding_operation(labels, witness, bar_p, bar_q, rng.child("op", rep))
            bounded.validate()
            assert (bounded.v >= plain_v).all()


@st.composite
def _witness_problems(draw):
    """Labels and flags in projection order; budgets from the observed count to the class size."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    labels = np.array(draw(st.permutations([0] * m + [1] * n)), dtype=np.int8)
    flags = draw(st.lists(st.integers(0, 1), min_size=m + n, max_size=m + n))
    witness = np.array(flags, dtype=np.int8)
    obs_p = int(witness[labels == 0].sum())
    obs_q = int(witness[labels == 1].sum())
    bar_p = draw(st.integers(obs_p, m))
    bar_q = draw(st.integers(obs_q, n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return labels, witness, bar_p, bar_q, seed


class TestBoundingOperationProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_witness_problems())
    def test_pinned_ends_dominate_plain_path(self, problem):
        labels, witness, bar_p, bar_q, seed = problem
        m, N = int((labels == 0).sum()), len(labels)
        path = bounding_operation(labels, witness, bar_p, bar_q, RngStream(seed, 0))
        path.validate()
        assert (path.v >= np.cumsum(labels == 0)[:-1]).all()
        full = np.append(path.v, m)  # V_N = m closes every path
        assert (full[:bar_p] == np.arange(1, bar_p + 1)).all()
        assert (full[N - bar_q:] == m).all()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_witness_problems())
    def test_out_of_range_budgets_raise(self, problem):
        labels, witness, bar_p, bar_q, seed = problem
        m, n = int((labels == 0).sum()), int((labels == 1).sum())
        obs_p = int(witness[labels == 0].sum())
        obs_q = int(witness[labels == 1].sum())
        bad = [(m + 1, bar_q), (bar_p, n + 1)]
        bad += [(obs_p - 1, bar_q)] if obs_p else []
        bad += [(bar_p, obs_q - 1)] if obs_q else []
        for bp, bq in bad:
            with pytest.raises(ParameterError):
                bounding_operation(labels, witness, bp, bq, RngStream(seed, 0))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_witness_problems(), st.integers(1, 3))
    def test_unequal_lengths_raise(self, problem, extra):
        labels, witness, bar_p, bar_q, seed = problem
        longer = np.append(witness, [0] * extra)
        with pytest.raises(ParameterError):
            bounding_operation(labels, longer, bar_p, bar_q, RngStream(seed, 0))
        with pytest.raises(ParameterError):
            bounding_operation(labels[:-1], witness, bar_p, bar_q, RngStream(seed, 0))
