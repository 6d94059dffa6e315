"""The four TV lower-bound estimators."""

import hashlib
import math

import numpy as np
import pytest

from hplb import (
    BoundSpec,
    ExampleSpec,
    LabeledScores,
    ParameterError,
    RngStream,
    gen_example,
    in_class_accuracies,
    lambda_adapt,
    lambda_bayes,
    lambda_c,
    lambda_oracle_t,
    normal_quantile,
)
from hplb.bounding import effective_sizes, is_violated
from hplb.counting import build_counting_path
from hplb.distributions import binom_quantile
from hplb.estimators import adapt_from_path
from scipy.special import betaincinv
from conftest import separated_scores

ANALYTIC = BoundSpec(alpha=0.05, band_kind="analytic")
SIMULATED = BoundSpec(alpha=0.05, band_kind="simulated", sims=600, seed=0)


def dataset_with_accuracies(m, n, a0, a1, tie_seed=0):
    """Scores engineered so the cutoff-1/2 accuracies are exactly (a0, a1)."""
    k0 = round(a0 * m)
    k1 = round(a1 * n)
    s0 = np.concatenate([np.linspace(0.05, 0.45, k0), np.linspace(0.55, 0.95, m - k0)])
    s1 = np.concatenate([np.linspace(0.55, 0.95, k1), np.linspace(0.05, 0.45, n - k1)])
    return LabeledScores(
        scores=np.concatenate([s0, s1]),
        labels=np.concatenate([np.zeros(m, dtype=int), np.ones(n, dtype=int)]),
        tie_seed=tie_seed,
    )


def _shifted_normals(rng, m, n, shift):
    """Label-0 scores N(-shift, 1) below label-1 scores N(0, 1)."""
    scores = np.concatenate([rng.normal(-shift, 1.0, m), rng.normal(0.0, 1.0, n)])
    return LabeledScores(scores, np.repeat([0, 1], [m, n]))


class TestAccuracies:
    def test_perfect_separation(self, two_class):
        data = separated_scores(5, 5)
        acc = in_class_accuracies(data, 0.5)
        assert (acc.a0_hat, acc.a1_hat) == (1.0, 1.0)

    def test_cutoff_below_everything(self):
        data = separated_scores(5, 5)
        acc = in_class_accuracies(data, -1.0)
        assert (acc.a0_hat, acc.a1_hat) == (0.0, 1.0)

    def test_small_example(self, two_class):
        acc = in_class_accuracies(two_class, 0.5)
        assert (acc.a0_hat, acc.a1_hat) == (0.5, 0.5)

    def test_cutoff_convention_boundary(self):
        # score exactly at the cutoff counts toward class 0
        data = LabeledScores(np.array([0.5, 0.5]), np.array([0, 1]))
        acc = in_class_accuracies(data, 0.5)
        assert (acc.a0_hat, acc.a1_hat) == (1.0, 0.0)


class TestLambdaC:
    def test_coin_flip_accuracy_clamps_to_zero(self):
        data = dataset_with_accuracies(100, 100, 0.5, 0.5)
        assert lambda_c(data, 0.05).value == 0.0

    def test_perfect_accuracy_no_penalty(self):
        data = separated_scores(50, 50)
        assert lambda_c(data, 0.05).value == 1.0

    def test_frozen_value(self):
        # 2*0.75 - 1 - 2 q_{0.95} sqrt(0.1875 / 200) = 0.399274 (scipy-checked)
        data = dataset_with_accuracies(100, 100, 0.75, 0.75)
        assert abs(lambda_c(data, 0.05).value - 0.399274) <= 1e-6

    def test_rejects_non_probability_scores(self):
        data = LabeledScores(np.array([-0.2, 0.5, 1.4]), np.array([0, 1, 1]))
        with pytest.raises(ParameterError):
            lambda_c(data, 0.05)


class TestLambdaBayes:
    def test_perfect_accuracies(self):
        data = separated_scores(50, 50)
        assert lambda_bayes(data, 0.05).value == 1.0

    def test_balanced_coin_clamps(self):
        data = dataset_with_accuracies(100, 100, 0.5, 0.5)
        assert lambda_bayes(data, 0.05).value == 0.0

    def test_frozen_value(self):
        # sigma = sqrt(0.0009 + 0.0016) = 0.05; 0.7 - q_{0.95} * 0.05 = 0.617757
        data = dataset_with_accuracies(100, 100, 0.9, 0.8)
        assert abs(lambda_bayes(data, 0.05).value - 0.617757) <= 1e-6

    def test_rejects_non_probability_scores(self):
        data = LabeledScores(np.array([-0.2, 0.5, 1.4]), np.array([0, 1, 1]))
        with pytest.raises(ParameterError):
            lambda_bayes(data, 0.05)


class TestLambdaOracle:
    def test_zero_signal_zero_sigma(self):
        data = dataset_with_accuracies(100, 100, 0.5, 0.5)
        # F_hat(0.5) - G_hat(0.5) = 0.5 - 0.5 = 0 here
        assert lambda_oracle_t(data, 0.5, 0.0, 0.05).value == 0.0

    def test_frozen_value(self):
        # 0.4 - q_{0.95} * 0.02 = 0.367103
        data = dataset_with_accuracies(100, 100, 0.7, 0.7)
        got = lambda_oracle_t(data, 0.5, 0.02, 0.05)
        assert abs(got.value - 0.367103) <= 1e-6

    def test_negative_sigma_rejected(self):
        data = separated_scores(5, 5)
        with pytest.raises(ParameterError):
            lambda_oracle_t(data, 0.5, -0.1, 0.05)


class TestLambdaAdapt:
    @pytest.mark.parametrize("spec", [ANALYTIC, SIMULATED], ids=["analytic", "simulated"])
    def test_null_data_is_mostly_zero(self, spec):
        # under F = G the bound is zero in at least 95% of replications
        reps = 300
        labels = np.concatenate([np.zeros(300, dtype=int), np.ones(300, dtype=int)])
        rng = RngStream(17, 0)
        zeros = 0
        for r in range(reps):
            data = LabeledScores(rng.random(600), labels, tie_seed=r)
            zeros += lambda_adapt(data, spec).value == 0.0
        assert zeros / reps >= 0.95

    @pytest.mark.parametrize("spec", [ANALYTIC, SIMULATED], ids=["analytic", "simulated"])
    def test_separated_data_certifies_most_mass(self, spec):
        data = separated_scores(500, 500)
        assert lambda_adapt(data, spec).value >= 0.8

    def test_rank_invariance_exact(self):
        data = separated_scores(80, 120, tie_seed=5)
        base = lambda_adapt(data, ANALYTIC).value
        for transform in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s ** 3):
            mapped = LabeledScores(transform(data.scores), data.labels, tie_seed=5)
            assert lambda_adapt(mapped, ANALYTIC).value == base

    def test_stringency_monotone_in_alpha(self):
        data = separated_scores(200, 200, tie_seed=3)
        for kind in ("analytic", "simulated"):
            strict = lambda_adapt(data, BoundSpec(alpha=0.01, band_kind=kind, seed=0)).value
            loose = lambda_adapt(data, BoundSpec(alpha=0.10, band_kind=kind, seed=0)).value
            assert strict <= loose

    def test_strict_alpha_on_small_sample(self):
        # alpha = 0.001 with the default 1000 simulations cannot resolve
        # alpha/3 by itself; the analytic band's small-m_eff fallback raises
        # its own budget instead of failing mid-search
        data = separated_scores(6, 6)
        assert lambda_adapt(data, BoundSpec(alpha=0.001, band_kind="analytic")).value == 0.0

    def test_diagnostics_recorded(self):
        data = separated_scores(100, 100)
        result = lambda_adapt(data, ANALYTIC)
        assert result.diagnostics.evaluations > 1
        assert result.diagnostics.band_kind == "analytic"
        assert result.diagnostics.argmax_z is not None

    @pytest.mark.parametrize("spec", [ANALYTIC, SIMULATED], ids=["analytic", "simulated"])
    def test_witness_is_that_of_the_next_lower_double(self, spec):
        rng = np.random.default_rng(3)
        for m, n, shift in ((80, 80, 1.0), (30, 150, 1.5), (150, 30, 1.5)):
            data = _shifted_normals(rng, m, n, shift)
            result = lambda_adapt(data, spec)
            below = np.nextafter(result.value, 0.0)
            assert result.value > 0.0
            path = build_counting_path(data)
            assert result.diagnostics.argmax_z == is_violated(path, below, spec)[1]

    def test_evaluations_count_distinct_quantile_pairs(self, monkeypatch):
        from hplb import estimators

        pairs = []

        def counted(path, lam, spec):
            sizes = effective_sizes(lam, path.m, path.n, spec)
            pairs.append((sizes.q_m, sizes.q_n))
            return is_violated(path, lam, spec)

        monkeypatch.setattr(estimators, "is_violated", counted)
        result = lambda_adapt(_shifted_normals(np.random.default_rng(5), 120, 90, 1.0), ANALYTIC)
        assert len(set(pairs)) == len(pairs) == result.diagnostics.evaluations

    def test_toy_adaptive_detects_contamination(self):
        # oracle-scored toy data: top-of-ordering witness cluster fires the bound
        spec = ExampleSpec(example_id="toy", n_total=20_000)
        hits = 0
        for seed in range(5):
            data, lam = gen_example(spec, RngStream(900 + seed, 0))
            val = lambda_adapt(data, ANALYTIC).value
            hits += val > 0
            assert val <= lam
        assert hits >= 3


def _exhaustive_scan(path, spec):
    """Refutation of every (q_m, q_n) pair of the lattice, in order of lam.

    The witness quantile q_{1-a}(lam, m) counts the k >= 1 whose one-sided
    Clopper-Pearson lower limit betaincinv(k, m - k + 1, a) lies below lam,
    so (q_m, q_n) is constant on the left-open intervals between the limits
    of both sizes.  Each interval is decided at its midpoint, where the
    identity is also checked against binom_quantile.  Returns the intervals'
    left ends and whether each is refuted.
    """
    level = 1.0 - spec.alpha / 3.0
    limits = {size: betaincinv(np.arange(1, size + 1), size - np.arange(size), spec.alpha / 3.0)
              for size in (path.m, path.n)}
    points = np.unique(np.concatenate([[0.0, 1.0], limits[path.m], limits[path.n]]))
    refuted = []
    for left, right in zip(points[:-1], points[1:]):
        mid = float((left + right) / 2.0)
        for size, lim in limits.items():
            count = int(np.count_nonzero(lim < mid))
            assert binom_quantile(level, mid, size) == count
        refuted.append(is_violated(path, mid, spec)[0])
    return points[:-1], np.array(refuted)


class TestAdaptExhaustive:
    """lambda_adapt against a scan of every (q_m, q_n) pair of the lattice."""

    CASES = [(m, n, shift)
             for m, n in ((4, 4), (6, 6), (15, 15), (40, 40), (120, 120), (10, 60), (60, 10),
                          (3, 45), (45, 3), (80, 25), (25, 80))
             for shift in (0.0, 1.0, 2.0, 3.0)]

    @pytest.mark.parametrize(
        "spec",
        [BoundSpec(alpha=0.05, band_kind="analytic", sims=200, seed=0),
         BoundSpec(alpha=0.1, band_kind="simulated", sims=200, seed=1)],
        ids=["analytic", "simulated"],
    )
    def test_value_is_the_smallest_unrefuted_candidate(self, spec):
        rng = np.random.default_rng(2024)
        positive = 0
        for m, n, shift in self.CASES:
            path = build_counting_path(_shifted_normals(rng, m, n, shift))
            lefts, refuted = _exhaustive_scan(path, spec)
            first = int(np.argmin(refuted))  # the last interval is never refuted
            value = adapt_from_path(path, spec).value
            assert value == pytest.approx(lefts[first], rel=1e-9, abs=0.0)
            assert not is_violated(path, value, spec)[0]
            if value > 0.0:
                positive += 1
                assert is_violated(path, np.nextafter(value, 0.0), spec)[0]
        assert positive >= len(self.CASES) // 2

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "Refutation is not monotone in the candidate.  On this sample "
            "(m = 108, n = 50, default band) the first unrefuted pair starts "
            "at 0.64962, the pair above it is refuted again, and the "
            "bisection returns the later boundary 0.65966.  See README.md, "
            "Notes."
        ),
    )
    def test_value_is_the_infimum_on_a_non_monotone_sample(self):
        spec = BoundSpec()
        rng = np.random.default_rng(8)
        m, n = (int(k) for k in rng.integers(2, 150, size=2))
        shift = rng.uniform(0.0, 3.0)
        path = build_counting_path(_shifted_normals(rng, m, n, shift))
        lefts, refuted = _exhaustive_scan(path, spec)
        first = int(np.argmin(refuted))
        assert refuted[first + 1:].any()
        assert adapt_from_path(path, spec).value == pytest.approx(lefts[first], rel=1e-9)


class TestLevel:
    def test_exceedance_of_fast_estimators(self):
        # P(bound > TV) <= alpha + 2 sqrt(alpha / reps) for each estimator
        reps = 1000
        alpha = 0.05
        tol = alpha + 2 * math.sqrt(alpha / reps)
        spec = ExampleSpec(example_id=1, n_total=600, gamma=None, c=0.1)
        from hplb import example_model, sigma_true

        model, lam = example_model(spec)
        sig = sigma_true(model, 0.5, 300, 300)
        exceed = {"c": 0, "bayes": 0, "oracle_t": 0}
        rng = RngStream(2025, 0)
        for r in range(reps):
            data, lam_r = gen_example(spec, rng.child("rep", r))
            exceed["c"] += lambda_c(data, alpha).value > lam_r
            exceed["bayes"] += lambda_bayes(data, alpha).value > lam_r
            exceed["oracle_t"] += lambda_oracle_t(data, 0.5, sig, alpha).value > lam_r
        for method, count in exceed.items():
            assert count / reps <= tol, f"{method} exceedance {count / reps}"


class TestOrdering:
    @staticmethod
    def _means(gamma_exp, reps=200):
        N = 4000
        spec = ExampleSpec(example_id=2, n_total=N, gamma=gamma_exp, c=1.0)
        rng = RngStream(1234, 0)
        adapt_vals, bayes_vals = [], []
        for r in range(reps):
            data, _ = gen_example(spec, rng.child("rep", r))
            adapt_vals.append(lambda_adapt(data, SIMULATED).value)
            bayes_vals.append(lambda_bayes(data, 0.05).value)
        return float(np.mean(adapt_vals)), float(np.mean(bayes_vals))

    def test_adaptive_dominates_in_detectable_regime(self):
        # p1 = N^{-1/2}: the adaptive bound certifies several times the mass
        adapt_mean, bayes_mean = self._means(-0.5)
        assert adapt_mean >= bayes_mean

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "At p1 = N^{-0.7}, N = 4000 both estimators sit below their "
            "detection boundaries (about 6 expected witnesses per side versus "
            "a sup-band cost near 12); the adaptive bound detects slightly "
            "more often but its detected values are of order 1/N, so its "
            "clamped mean stays below the bayes mean.  The asymptotic rate "
            "separation needs N in the millions at this exponent."
        ),
    )
    def test_adaptive_dominates_at_deep_signal(self):
        adapt_mean, bayes_mean = self._means(-0.7)
        assert adapt_mean >= bayes_mean


def test_alpha_flows_into_results():
    data = separated_scores(20, 20)
    assert lambda_bayes(data, 0.10).alpha == 0.10
    assert lambda_c(data, 0.10).alpha == 0.10


def test_quantile_penalty_matches_normal_quantile():
    # lambda_bayes uses q_{1-alpha}: verify through two alpha values
    data = dataset_with_accuracies(100, 100, 0.9, 0.8)
    v1 = lambda_bayes(data, 0.05).value
    v2 = lambda_bayes(data, 0.01).value
    assert abs((v1 - v2) - (normal_quantile(0.99) - normal_quantile(0.95)) * 0.05) <= 1e-12


def _replication_digest(spec, bound, reps, seed):
    """sha256 of (value, argmax_z, evaluations) of lambda_adapt per seeded replication."""
    rng = RngStream(seed)
    rows = []
    for i in range(reps):
        data, _ = gen_example(spec, rng.child("rep", i))
        result = lambda_adapt(data, bound)
        rows.append((result.value.hex(), result.diagnostics.argmax_z,
                     result.diagnostics.evaluations))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("spec, bound, reps, seed, digest", [
    (ExampleSpec(1, 600, c=0.1), ANALYTIC, 200, 7,
     "5b17e3f88367c357a35f2bf242ba4f6fdf30a2be350c6107bf9592638b2ce291"),
    (ExampleSpec(2, 600, gamma=-0.5, c=2.0), BoundSpec(0.05, "simulated", sims=300, seed=3),
     60, 8, "01040777df1aa99431481a4fb6971f1c8f2639ef40a2ceaa079efb0f9ef00062"),
], ids=["example1-analytic", "example2-simulated"])
def test_replications_are_pinned(spec, bound, reps, seed, digest):
    # A level study reports one frequency, which hides a moved estimate; this
    # pins every replication's value, refuting z and evaluation count.
    assert _replication_digest(spec, bound, reps, seed) == digest
