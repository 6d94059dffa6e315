"""Generators, level studies, power grids, split scans, pairwise matrices."""

import hashlib
import math

import numpy as np
import pytest

from hplb import (
    BoundSpec,
    ExampleSpec,
    ParameterError,
    RngStream,
    bayes_projection,
    example_model,
    gen_example,
    pairwise_matrix,
    run_level_study,
    run_power_grid,
    split_scan,
    tv_exact,
)
from hplb import experiments
from hplb.experiments import _fit_boundary_slope

SIM_FAST = BoundSpec(alpha=0.05, band_kind="simulated", sims=400, seed=0)
ANALYTIC = BoundSpec(alpha=0.05, band_kind="analytic", seed=0)


class TestExampleSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ExampleSpec(example_id=5, n_total=100)
        with pytest.raises(ParameterError):
            ExampleSpec(example_id=1, n_total=100, gamma=0.5)
        with pytest.raises(ParameterError):
            ExampleSpec(example_id=1, n_total=100, gamma=None, c=1.5)  # delta >= 1
        with pytest.raises(ParameterError):
            ExampleSpec(example_id=0, n_total=100, gamma=None, c=1.2)  # p > 1

    @pytest.mark.parametrize("n_total", [400.5, 400.0, "400", True, None])
    def test_rejects_a_non_integer_size(self, n_total):
        # a fractional size used to reach the sampler and fail there with TypeError
        with pytest.raises(ParameterError, match="n_total"):
            ExampleSpec(1, n_total, c=0.1)

    @pytest.mark.parametrize("example_id,scale", [(0, 1.0), (1, 1.0), (2, 2.0), ("toy", 1.0)])
    def test_default_scale(self, example_id, scale):
        # the README's documented defaults: c = 2 for example 2, c = 1 otherwise;
        # the toy takes no gamma
        gamma = None if example_id == "toy" else -0.5
        assert ExampleSpec(example_id, 1000, gamma=gamma).c == scale

    def test_example0_rate_parameterization(self):
        # lambda = N^gamma at c = 1
        spec = ExampleSpec(example_id=0, n_total=1000, gamma=-0.25, c=1.0)
        _, lam = example_model(spec)
        assert abs(lam - 0.177828) <= 1e-6

    def test_example1_fixed_signal(self):
        spec = ExampleSpec(example_id=1, n_total=500, gamma=None, c=0.2)
        model, lam = example_model(spec)
        assert lam == 0.2
        assert abs(tv_exact(model) - 0.2) <= 1e-12

    def test_example2_closed_form(self):
        spec = ExampleSpec(example_id=2, n_total=2000, gamma=-0.7, c=2.0)
        model, lam = example_model(spec)
        p1 = 2.0 * 2000 ** -0.7
        p2 = 0.5 + 2000 ** -1.5
        assert abs(lam - (p1 + (1 - p1) * (2 * p2 - 1))) <= 1e-15
        assert abs(tv_exact(model) - lam) <= 1e-12

    def test_toy_lambda(self):
        _, lam = example_model(ExampleSpec(example_id="toy", n_total=1000))
        assert abs(lam - 0.009661) <= 1e-6


class TestGenExample:
    def test_class_sizes_and_score_range(self):
        spec = ExampleSpec(example_id=1, n_total=701, gamma=None, c=0.3, pi=0.4)
        data, lam = gen_example(spec, RngStream(5, 0))
        assert data.m == int(0.4 * 701)
        assert data.n == 701 - data.m
        assert 0.0 <= data.scores.min() and data.scores.max() <= 1.0
        assert lam == 0.3

    def test_deterministic_given_stream(self):
        spec = ExampleSpec(example_id=2, n_total=400, gamma=-0.5, c=1.0)
        d1, _ = gen_example(spec, RngStream(9, 3))
        d2, _ = gen_example(spec, RngStream(9, 3))
        assert np.array_equal(d1.scores, d2.scores)
        assert d1.tie_seed == d2.tie_seed

    def test_toy_scores_come_from_12d_model(self):
        spec = ExampleSpec(example_id="toy", n_total=200)
        data, _ = gen_example(spec, RngStream(1, 0))
        assert data.total == 200
        assert 0.0 <= data.scores.min() and data.scores.max() <= 1.0

    def test_oracle_scores_match_posterior(self):
        # label-0 draws from example 1 carry scores 0 (contaminant) or 1/(2 - delta)
        spec = ExampleSpec(example_id=1, n_total=600, gamma=None, c=0.25)
        data, _ = gen_example(spec, RngStream(2, 0))
        uniq = np.unique(np.round(data.scores, 12))
        assert set(uniq).issubset({0.0, round(1 / (2 - 0.25), 12)})


class TestLevelStudy:
    def test_bayes_level_example1(self):
        # spec tolerance: alpha + 2 sqrt(alpha (1-alpha)/reps) ~ 0.0638
        freq = run_level_study(
            ExampleSpec(example_id=1, n_total=600, gamma=None, c=0.2),
            "bayes",
            1000,
            RngStream(21, 0),
        )
        assert freq <= 0.05 + 2 * math.sqrt(0.05 * 0.95 / 1000)

    def test_null_level_both_methods(self):
        spec = ExampleSpec(example_id=1, n_total=400, gamma=None, c=0.0)
        for method in ("bayes", "adapt"):
            freq = run_level_study(spec, method, 300, RngStream(22, 0), SIM_FAST)
            assert freq <= 0.05 + 2 * math.sqrt(0.05 * 0.95 / 300)

    def test_minimum_reps(self):
        with pytest.raises(ParameterError):
            run_level_study(
                ExampleSpec(example_id=1, n_total=100, gamma=None, c=0.1),
                "bayes",
                50,
                RngStream(0, 0),
            )

    @pytest.mark.parametrize("reps", [100.5, 300.0, "300"])
    def test_rejects_a_non_integer_replication_count(self, monkeypatch, reps):
        drawn = []
        monkeypatch.setattr(experiments, "gen_example", lambda *a: drawn.append(a))
        spec = ExampleSpec(example_id=1, n_total=100, gamma=None, c=0.1)
        with pytest.raises(ParameterError, match="reps"):
            run_level_study(spec, "bayes", reps, RngStream(0, 0))
        assert drawn == []


class TestPowerGrid:
    def test_shape_and_columns(self):
        grid = run_power_grid(
            example=1,
            method="bayes",
            gammas=[-0.3, -0.5],
            ns=[200, 400],
            reps=5,
            epsilon=1.0,
            rng=RngStream(7, 0),
        )
        assert len(grid.freq) == 4
        assert len(grid.mean_lambda) == 4
        assert all(0.0 <= v <= 1.0 for v in grid.freq.values())

    @pytest.mark.parametrize("method", ["oracle_t", "fancy"])
    def test_unsupported_method_rejected_before_any_cell(self, method, monkeypatch):
        # oracle_t needs the true score standard deviation, which a power
        # grid does not compute; no replication may be drawn before the error
        import hplb.experiments as experiments

        drawn = []
        monkeypatch.setattr(experiments, "gen_example", lambda *a: drawn.append(a))
        with pytest.raises(ParameterError, match="c, bayes and adapt"):
            run_power_grid(
                example=1,
                method=method,
                gammas=[-0.3],
                ns=[200],
                reps=5,
                epsilon=1.0,
                rng=RngStream(7, 0),
            )
        assert drawn == []

    @pytest.mark.parametrize("field, value", [("reps", 2.5), ("reps", 2.0), ("ns", [200.5])])
    def test_rejects_a_non_integer_count_or_size(self, monkeypatch, field, value):
        drawn = []
        monkeypatch.setattr(experiments, "gen_example", lambda *a: drawn.append(a))
        grid = dict(example=1, method="bayes", gammas=[-0.3], ns=[200], reps=2, epsilon=1.0,
                    rng=RngStream(7, 0))
        grid[field] = value
        with pytest.raises(ParameterError, match="n_total" if field == "ns" else "reps"):
            run_power_grid(**grid)
        assert drawn == []

    def test_bit_exact_determinism(self):
        kwargs = dict(
            example=2,
            method="adapt",
            gammas=[-0.4],
            ns=[300],
            reps=10,
            epsilon=1.0,
            bound=SIM_FAST,
        )
        a = run_power_grid(rng=RngStream(3, 0), **kwargs)
        b = run_power_grid(rng=RngStream(3, 0), **kwargs)
        assert a.freq == b.freq
        assert a.mean_lambda == b.mean_lambda

    def test_detection_uses_epsilon_fraction(self):
        # epsilon < 1 asks for lambda_hat above a fraction of the truth
        grid = run_power_grid(
            example=1,
            method="bayes",
            gammas=[-0.2],
            ns=[2000],
            reps=40,
            epsilon=0.25,
            rng=RngStream(8, 0),
        )
        strong = run_power_grid(
            example=1,
            method="bayes",
            gammas=[-0.2],
            ns=[2000],
            reps=40,
            epsilon=1.0,
            rng=RngStream(8, 0),
        )
        assert grid.freq[(-0.2, 2000)] <= strong.freq[(-0.2, 2000)]

    def test_slope_fit_recovers_known_boundary(self):
        # synthetic frequencies crossing 0.5 exactly at gamma*(N) = (log(10) - log N)/log N
        gammas = [round(-0.2 - 0.1 * i, 1) for i in range(8)]
        ns = [500, 1000, 2000, 4000]
        freq = {}
        for N in ns:
            gstar = (math.log(10.0) - math.log(N)) / math.log(N)
            for g in gammas:
                freq[(g, N)] = float(np.clip(0.5 + 1.5 * (g - gstar), 0.0, 1.0))
        slope = _fit_boundary_slope(freq, gammas, ns, c=1.0)
        assert abs(slope - (-1.0)) <= 1e-6


@pytest.mark.parametrize("spec, digest", [
    (ExampleSpec(0, 500, c=0.3), "f5e7b9ca8a3f1e4f2c4f49290d08d8bc402853d970345c244359de3e010c6c81"),
    (ExampleSpec("toy", 300), "dbee9d5687154f6d3ef9a196ab269bef764ec7912749079d245825e9bc6bde4b"),
], ids=["example0", "toy"])
def test_gen_example_is_pinned(spec, digest):
    # every score double, label, tie seed and TV of three seeded draws;
    # examples 1 and 2 are pinned through their estimates in test_estimators
    rng = RngStream(21)
    rows = []
    for i in range(3):
        data, lam = gen_example(spec, rng.child("rep", i))
        rows.append((data.scores.tobytes(), data.labels.tobytes(), data.tie_seed, lam.hex()))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def _stationary_stream(n, rng):
    t = rng.random(n)
    scores = rng.random(n)
    return t, scores


class TestSplitScan:
    def test_stationary_stream_level(self):
        reps = 200
        splits = [0.25, 0.5, 0.75]
        zeros = total = 0
        rng = RngStream(33, 0)
        for rep in range(reps):
            t, s = _stationary_stream(400, rng.child("rep", rep))
            result = split_scan(t, s, splits, SIM_FAST, tie_seed=rep)
            for b in result.bounds:
                total += 1
                zeros += b.value == 0.0
        assert zeros / total >= 1 - 0.05 - 0.03

    def test_change_point_peaks_at_true_split(self):
        spec = ExampleSpec(example_id=0, n_total=600, gamma=None, c=0.4)
        model, lam = example_model(spec)
        reps = 100
        sums = {0.1: 0.0, 0.5: 0.0, 0.9: 0.0}
        rng = RngStream(44, 0)
        for rep in range(reps):
            r = rng.child("rep", rep)
            n = 600
            t = r.random(n)
            x = np.where(
                t <= 0.5, model.p.sample(n, r.child("p")), model.q.sample(n, r.child("q"))
            )
            scores = bayes_projection(model, x)
            result = split_scan(t, scores, [0.1, 0.5, 0.9], SIM_FAST, tie_seed=rep)
            for s, b in zip(result.splits, result.bounds):
                sums[s] += b.value
        assert sums[0.5] > sums[0.1]
        assert sums[0.5] > sums[0.9]

    def test_one_sided_split_is_skipped_with_warning(self):
        t = np.array([0.05, 0.3, 0.6, 0.9])
        s = np.array([0.2, 0.4, 0.6, 0.8])
        result = split_scan(t, s, [0.07, 0.5], SIM_FAST)
        assert result.bounds[0] is None
        assert len(result.skipped) == 1
        assert result.bounds[1] is not None


    @pytest.mark.parametrize("splits", [[], [float("nan")], [0.25, float("nan")]])
    def test_empty_or_nan_split_list_is_rejected(self, splits):
        t = np.linspace(0.0, 1.0, 40)
        with pytest.raises(ParameterError):
            split_scan(t, np.sin(7.0 * t), splits, SIM_FAST)

    def test_nan_time_index_is_rejected(self):
        # a NaN t is neither <= s nor > s, so it used to count on the left of every split
        t = np.linspace(0.0, 1.0, 40)
        scores = np.sin(7.0 * t)
        t[3] = np.nan
        with pytest.raises(ParameterError, match="t_index"):
            split_scan(t, scores, [0.5], SIM_FAST)


class TestPairwiseMatrix:
    @staticmethod
    def _three_class_probs(n_per, rng):
        # classes 0 and 1 share one law; class 2 is far away
        mus = [0.0, 0.0, 10.0]
        xs = np.concatenate([rng.normal(mu, 1.0, n_per) for mu in mus])
        labels = np.repeat([0, 1, 2], n_per)
        dens = np.column_stack(
            [np.exp(-0.5 * (xs - mu) ** 2) / math.sqrt(2 * math.pi) for mu in mus]
        )
        dens = np.maximum(dens, 1e-300)
        probs = dens / dens.sum(axis=1, keepdims=True)
        return probs, labels

    def test_diagonal_zero_and_symmetry(self):
        probs, labels = self._three_class_probs(60, RngStream(1, 0))
        matrix = pairwise_matrix(probs, labels, SIM_FAST)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_identical_pair_low_disjoint_pair_high(self):
        reps = 40
        low_ok = 0
        rng = RngStream(2, 0)
        for rep in range(reps):
            probs, labels = self._three_class_probs(500, rng.child("rep", rep))
            matrix = pairwise_matrix(probs, labels, SIM_FAST)
            assert matrix[0, 2] >= 0.7
            assert matrix[1, 2] >= 0.7
            low_ok += matrix[0, 1] <= 0.05
        assert low_ok / reps >= 0.95

    def test_each_pair_is_bounded_once(self, monkeypatch):
        # K = 3 classes make three unordered pairs: each is bounded once, with
        # class i at label 1 and scores p_i - p_j for i < j, and mirrored
        adapt = experiments.lambda_adapt
        calls = []
        monkeypatch.setattr(experiments, "lambda_adapt",
                            lambda data, spec: calls.append(data) or adapt(data, spec))
        probs, labels = self._three_class_probs(40, RngStream(4, 0))
        matrix = pairwise_matrix(probs, labels, SIM_FAST)
        assert len(calls) == 3
        for data, (i, j) in zip(calls, [(0, 1), (0, 2), (1, 2)]):
            mask = (labels == i) | (labels == j)
            assert np.array_equal(data.scores, probs[mask, i] - probs[mask, j])
            assert np.array_equal(data.labels, labels[mask] == i)
            assert matrix[i, j] == matrix[j, i] == adapt(data, SIM_FAST).value

    def test_empty_class_rejected(self):
        probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1]])
        labels = np.array([0, 1])
        with pytest.raises(ParameterError):
            pairwise_matrix(probs, labels, SIM_FAST)

    @pytest.mark.parametrize("stray", [7, -1, 0.5])
    def test_label_outside_the_classes_rejected(self, stray):
        # the rows of a stray label used to be dropped without a word
        probs, labels = self._three_class_probs(20, RngStream(3, 0))
        labels = labels.astype(float)
        labels[5] = stray
        with pytest.raises(ParameterError, match="0..2"):
            pairwise_matrix(probs, labels, SIM_FAST)


class TestExample2GridProperties:
    """Shared simulated-band grids for the dominance and monotone-power checks."""

    gammas = [round(-0.2 - 0.1 * i, 1) for i in range(8)]
    ns = [500, 1000, 2000, 4000, 8000, 16000]

    @pytest.fixture(scope="class")
    def grids(self):
        common = dict(
            example=2,
            gammas=self.gammas,
            ns=self.ns,
            reps=100,
            epsilon=1.0,
            c=2.0,
        )
        sim_band = BoundSpec(alpha=0.05, band_kind="simulated", sims=600, seed=0)
        adapt_sim = run_power_grid(
            method="adapt", rng=RngStream(1000, 0), bound=sim_band, **common
        )
        bayes = run_power_grid(method="bayes", rng=RngStream(2000, 0), bound=sim_band, **common)
        adapt_ana = run_power_grid(
            method="adapt",
            rng=RngStream(1000, 0),
            bound=BoundSpec(alpha=0.05, band_kind="analytic", seed=0),
            **common,
        )
        return adapt_sim, bayes, adapt_ana

    def test_adaptive_dominates_bayes_per_cell(self, grids):
        # the simulated band is the sharper finite-sample choice and is the
        # one that dominates the fixed-cutoff bound in the deep-tail cells
        adapt_sim, bayes, _ = grids
        for cell in adapt_sim.freq:
            assert adapt_sim.freq[cell] >= bayes.freq[cell] - 0.05, cell

    def test_power_monotone_in_sample_size(self, grids):
        # checked on the analytic-band grid: the simulated band's extra
        # finite-N power at small sizes makes its deep-tail rows wiggle by
        # more than the Monte-Carlo slack (see README.md, Notes)
        _, _, adapt_ana = grids
        for g in self.gammas:
            row = [adapt_ana.freq[(g, N)] for N in self.ns]
            for a, b in zip(row[:-1], row[1:]):
                assert b >= a - 0.05, f"gamma={g}: {row}"

    def test_adaptive_slope_near_minus_one(self, grids):
        adapt_sim, bayes, adapt_ana = grids
        assert abs(adapt_ana.slope - (-1.0)) <= 0.15
        assert abs(bayes.slope - (-0.5)) <= 0.15
