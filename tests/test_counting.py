"""Counting process construction and the two simultaneous null bands."""

import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest
from scipy import stats

from conftest import separated_scores
from hplb import (
    BandConstant,
    BandDomainError,
    BoundSpec,
    CountingPath,
    LabeledScores,
    ParameterError,
    RngStream,
    band_constant,
    band_value,
    beta_threshold,
    build_counting_path,
    counting,
    distributions,
    lambda_adapt,
    simulate_null_sup_quantile,
    w_scale,
)


class TestBuildCountingPath:
    def test_direct_count(self):
        data = LabeledScores(scores=np.array([0.1, 0.2, 0.3]), labels=np.array([0, 1, 0]))
        assert build_counting_path(data).v.tolist() == [1, 1]

    def test_perfect_separation(self):
        data = LabeledScores(
            scores=np.array([1.0, 2.0, 3.0]), labels=np.array([0, 0, 1])
        )
        assert build_counting_path(data).v.tolist() == [1, 2]

    def test_empty_class_rejected(self):
        with pytest.raises(ParameterError):
            LabeledScores(scores=np.array([0.1, 0.2]), labels=np.array([0, 0]))

    def test_all_tied_scores_are_hypergeometric(self):
        # With every score equal, V[50] over fresh tie seeds must follow
        # Hypergeometric(50, 100, 50); chi-square GOF at level 0.01.
        m = n = 50
        z = 50
        reps = 10_000
        scores = np.zeros(m + n)
        labels = np.concatenate([np.zeros(m, dtype=int), np.ones(n, dtype=int)])
        counts = np.zeros(m + 1)
        for seed in range(reps):
            path = build_counting_path(LabeledScores(scores, labels, tie_seed=seed))
            counts[path.v[z - 1]] += 1
        pmf = np.array(
            [
                math.comb(m, k) * math.comb(n, z - k) / math.comb(m + n, z)
                if 0 <= z - k <= n
                else 0.0
                for k in range(m + 1)
            ]
        )
        # merge sparse bins so every expected count is >= 5
        order = np.argsort(pmf)[::-1]
        keep = [k for k in order if pmf[k] * reps >= 5]
        rest_obs = reps - counts[keep].sum()
        rest_exp = reps * (1.0 - pmf[keep].sum())
        obs = np.append(counts[keep], rest_obs)
        exp = np.append(reps * pmf[keep], rest_exp)
        chi2 = np.sum((obs - exp) ** 2 / exp)
        crit = stats.chi2.ppf(0.99, df=len(obs) - 1)
        assert chi2 < crit

    def test_fuzzed_paths_satisfy_invariants(self):
        rng = RngStream(31, 0)
        for case in range(10_000):
            N = int(rng.integers(2, 30))
            labels = np.zeros(N, dtype=int)
            labels[int(rng.integers(0, N - 1)) + 1 :] = 1
            rng.generator.shuffle(labels)
            if labels.min() == labels.max():
                continue
            scores = np.round(rng.random(N), 1)  # coarse grid forces ties
            path = build_counting_path(LabeledScores(scores, labels, tie_seed=case))
            path.validate()

    def test_null_mean_and_variance(self):
        # E V[z] = z m / N and Var V[z] = w(z, m, n)^2 under exchangeability
        m = n = 100
        N = m + n
        reps = 10_000
        labels = np.concatenate([np.zeros(m, dtype=int), np.ones(n, dtype=int)])
        zs = [N // 4, N // 2, 3 * N // 4]
        vals = np.empty((reps, len(zs)))
        base_rng = RngStream(404, 0)
        for r in range(reps):
            scores = base_rng.random(N)
            path = build_counting_path(LabeledScores(scores, labels, tie_seed=r))
            vals[r] = [path.v[z - 1] for z in zs]
        for j, z in enumerate(zs):
            mean_target = z * m / N
            var_target = w_scale(z, m, n) ** 2
            se = math.sqrt(var_target / reps)
            assert abs(vals[:, j].mean() - mean_target) <= 4 * se
            assert abs(vals[:, j].var(ddof=1) - var_target) <= 0.10 * var_target


class TestWScale:
    def test_boundaries(self):
        assert w_scale(0, 10, 10) == 0.0
        assert w_scale(20, 10, 10) == 0.0

    def test_frozen_value_and_enumeration(self):
        got = w_scale(5, 10, 10)
        assert abs(got - 0.993399) <= 1e-6
        # oracle: exact hypergeometric variance by enumeration
        m = n = 10
        z = 5
        pmf = [
            math.comb(m, k) * math.comb(n, z - k) / math.comb(m + n, z)
            for k in range(z + 1)
        ]
        mean = sum(k * p for k, p in enumerate(pmf))
        var = sum((k - mean) ** 2 * p for k, p in enumerate(pmf))
        assert abs(got - math.sqrt(var)) <= 1e-12

    def test_vectorized(self):
        z = np.array([1, 5, 19])
        out = w_scale(z, 10, 10)
        assert out.shape == (3,)


class TestBetaThreshold:
    def test_frozen_value(self):
        # independent oracle: 50-digit evaluation of the closed form gives
        # 3.70579138497135472... at alpha = 0.05, m_eff = 1000
        assert abs(beta_threshold(0.05, 1000) - 3.7057913849713547) <= 1e-4

    def test_grows_with_m(self):
        assert beta_threshold(0.05, 10 ** 6) > beta_threshold(0.05, 10 ** 3)

    def test_stricter_alpha_is_larger(self):
        assert beta_threshold(0.01, 1000) > beta_threshold(0.10, 1000)

    def test_small_m_guard(self):
        with pytest.raises(BandDomainError):
            beta_threshold(0.05, 7)
        beta_threshold(0.05, 8)  # boundary is allowed

    def test_alpha_domain(self):
        with pytest.raises(ParameterError):
            beta_threshold(0.0, 100)


class TestSimulatedBand:
    def test_single_step_process_is_finite(self):
        rng = RngStream(1, 0)
        const = simulate_null_sup_quantile(0.05, 1, 1, sims=200, rng=rng)
        assert np.isfinite(const.c)
        assert const.kind == "simulated"

    def test_self_consistency_on_fresh_nulls(self):
        # fraction of fresh null paths escaping the band stays near alpha
        m = n = 100
        alpha = 0.05
        const = simulate_null_sup_quantile(alpha, m, n, sims=4000, rng=RngStream(5, 0))
        z = np.arange(1, m + n)
        labels = np.concatenate([np.zeros(m, dtype=int), np.ones(n, dtype=int)])
        gen = RngStream(6, 0)
        viols = 0
        reps = 2000
        for r in range(reps):
            path = build_counting_path(LabeledScores(gen.random(m + n), labels, tie_seed=r))
            viols += bool((path.v > band_value(const, z)).any())
        assert viols / reps <= alpha + 0.02

    def test_less_conservative_than_analytic(self):
        const = simulate_null_sup_quantile(0.05, 500, 500, sims=2000, rng=RngStream(8, 0))
        assert const.c < beta_threshold(0.05, 500)

    def test_null_level_of_simulated_band(self):
        # spec tolerance: alpha + 2 sqrt(alpha (1-alpha) / reps)
        alpha = 0.05
        reps = 2000
        tol = alpha + 2 * math.sqrt(alpha * (1 - alpha) / reps)
        for m in (50, 200):
            const = band_constant(alpha, m, m, "simulated", sims=1000, seed=3)
            z = np.arange(1, 2 * m)
            labels = np.concatenate([np.zeros(m, dtype=int), np.ones(m, dtype=int)])
            gen = RngStream(60 + m, 0)
            viols = 0
            for r in range(reps):
                path = build_counting_path(LabeledScores(gen.random(2 * m), labels, tie_seed=r))
                viols += bool((path.v > band_value(const, z)).any())
            assert viols / reps <= tol

    def test_minimum_simulation_budget(self):
        with pytest.raises(ParameterError):
            simulate_null_sup_quantile(0.05, 10, 10, sims=99, rng=RngStream(0, 0))
        # alpha * (sims + 1) < 1 would return the sample maximum, whose
        # exceedance 1 / (sims + 1) is above alpha
        with pytest.raises(ParameterError):
            simulate_null_sup_quantile(0.01 / 3, 10, 10, sims=100, rng=RngStream(0, 0))
        with pytest.raises(ParameterError):
            simulate_null_sup_quantile(0.001 / 3, 10, 10, sims=1000, rng=RngStream(0, 0))
        const = simulate_null_sup_quantile(0.01, 10, 10, sims=100, rng=RngStream(0, 0))
        assert const.c > 0.0

    def test_constant_is_the_rank_rule_order_statistic(self):
        # k = ceil((1 - a)(sims + 1)) = 985 of 1000 at a = 0.05/3, where
        # ceil((1 - a) sims) would take the 984th; the sup statistics are
        # recomputed from the same seeded draw of 0/1 rows
        alpha, m, n, sims = 0.05 / 3, 60, 40, 1000
        const = simulate_null_sup_quantile(alpha, m, n, sims, RngStream(4, 0, ("rank",)))
        rows = np.tile(np.repeat([1, 0], [m, n]), (sims, 1))
        rows = RngStream(4, 0, ("rank",)).generator.permuted(rows, axis=1)
        z = np.arange(1, m + n)
        V = np.cumsum(rows, axis=1)[:, :-1]
        T = np.sort(((V - z * (m / (m + n))) / w_scale(z, m, n)).max(axis=1))
        assert T[983] < T[984]
        assert const.c == T[984]


class TestCoupledDraw:
    @pytest.mark.parametrize("removed", [(2, 1), (0, 0), (3, 2)])
    def test_cut_rows_are_uniform_arrangements(self, removed):
        # deleting the ids 0..q_m-1 (ones) and m..m+q_n-1 (zeros) from a
        # uniform permutation of m = 4 ones and n = 3 zeros leaves every
        # arrangement of the remaining ones and zeros equally likely
        m, n, sims = 4, 3, 12000
        q_m, q_n = removed
        ids = np.concatenate(list(counting._draw_rows(RngStream(21, 0), m + n, sims)))
        kept = counting._cut(ids, m, q_m, q_n)
        m_eff, N_eff = m - q_m, m + n - q_m - q_n
        assert kept.shape == (sims, N_eff) and (kept.sum(axis=1) == m_eff).all()
        patterns = [
            tuple(int(i in ones) for i in range(N_eff))
            for ones in itertools.combinations(range(N_eff), m_eff)
        ]
        index = {p: k for k, p in enumerate(patterns)}
        counts = np.bincount([index[tuple(row)] for row in kept.astype(int).tolist()],
                             minlength=len(patterns))
        assert (counts > 0).all()
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_constant_independent_of_memo_state_order_and_storage(self, monkeypatch):
        # two candidates of one (m, n) = (50, 35) sample cut the same draw,
        # which small chunks split into five
        monkeypatch.setattr(counting, "_CHUNK_IDS", 85 * 70)
        keys = [(40, 30, (10, 5)), (45, 33, (5, 2))]

        def constants(order):
            return {key: band_constant(0.05 / 3, key[0], key[1], "simulated", sims=300,
                                       seed=9, removed=key[2]).c for key in order}

        counting.clear_band_cache()
        cold = constants(keys)
        assert counting._stored_draw.cache_info().misses == 1
        warm = constants(keys)
        counting.clear_band_cache()
        assert counting._stored_draw.cache_info().currsize == 0
        reverse = constants(keys[::-1])
        stored = counting._null_draw(RngStream(5, 0, ("direct",)), 85, 300)
        monkeypatch.setattr(counting, "_DRAW_BUDGET", 85 * 300 * 2 - 1)
        counting.clear_band_cache()
        redrawn = constants(keys)
        assert counting._stored_draw.cache_info().currsize == 0
        assert cold == warm == reverse == redrawn
        # the draw restarts a stream from its identity, on either path
        used = RngStream(5, 0, ("direct",))
        used.random(3)
        redraw = list(counting._null_draw(used, 85, 300))
        assert len(redraw) == len(stored) == 5
        assert all(np.array_equal(a, b) for a, b in zip(redraw, stored))
        counting.clear_band_cache()

    def test_concurrent_misses_compute_once(self, monkeypatch):
        # eight threads on two cores miss two keys of one sample at once:
        # each key is simulated once and the shared draw is made once
        calls, draws = [], []
        simulate, draw_rows = counting.simulate_null_sup_quantile, counting._draw_rows

        def counted_simulate(*args, **kwargs):
            calls.append(args[1:3])
            time.sleep(0.05)
            return simulate(*args, **kwargs)

        def counted_draw_rows(*args):
            draws.append(args[1:])
            time.sleep(0.05)
            return draw_rows(*args)

        monkeypatch.setattr(counting, "simulate_null_sup_quantile", counted_simulate)
        monkeypatch.setattr(counting, "_draw_rows", counted_draw_rows)
        counting.clear_band_cache()
        keys = [(40, 30, (3, 1)), (41, 30, (2, 1))]
        barrier = threading.Barrier(8)
        results = [None] * 8

        def worker(i):
            barrier.wait(timeout=10)
            m_eff, n_eff, removed = keys[i % 2]
            results[i] = band_constant(0.05 / 3, m_eff, n_eff, "simulated", sims=200,
                                       seed=2, removed=removed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(calls) == [(40, 30), (41, 30)]
        assert draws == [(43 + 31, 200)]
        assert all(results[i] is results[i % 2] for i in range(8))
        counting.clear_band_cache()

    def test_failed_miss_leaves_no_entry(self):
        counting.clear_band_cache()
        for _ in range(2):
            with pytest.raises(ParameterError):
                band_constant(0.001 / 3, 10, 10, "simulated", sims=1000)
        info = counting._band_constant.cache_info()
        assert (info.misses, info.currsize) == (2, 0)


class TestBandValue:
    def test_mean_line_plus_scaled_width(self):
        const = BandConstant(kind="simulated", c=2.0, m_eff=10, n_eff=10, alpha=0.05, sims=100)
        assert abs(band_value(const, 5) - 4.486798) <= 1e-6
        # subtracting the width term leaves the null mean line
        assert abs((band_value(const, 1) - 2.0 * w_scale(1, 10, 10)) - 10 / 20) <= 1e-12

    def test_analytic_composition(self):
        m_eff = n_eff = 1000
        const = band_constant(0.05, m_eff, n_eff, "analytic")
        expected = 500.0 + beta_threshold(0.05, 1000) * w_scale(1000, 1000, 1000)
        assert abs(band_value(const, 1000) - expected) <= 1e-9

    def test_z_range_checked(self):
        const = BandConstant(kind="analytic", c=3.0, m_eff=10, n_eff=10, alpha=0.05)
        with pytest.raises(ParameterError):
            band_value(const, 0)
        with pytest.raises(ParameterError):
            band_value(const, 20)


class TestBandCache:
    def test_deterministic_and_memoized(self):
        a = band_constant(0.05, 40, 60, "simulated", sims=300, seed=11)
        b = band_constant(0.05, 40, 60, "simulated", sims=300, seed=11)
        assert a.c == b.c
        c = band_constant(0.05, 40, 60, "simulated", sims=300, seed=12)
        assert c.c != a.c

    def test_analytic_fallback_below_guard(self):
        const = band_constant(0.05, 5, 50, "analytic", sims=200, seed=0)
        assert const.kind == "simulated"
        # a budget too small for alpha is raised to ceil(1/alpha)
        const = band_constant(0.001 / 3, 5, 50, "analytic", sims=1000, seed=0)
        assert const.kind == "simulated" and const.sims == 3000
        # the fallback draws at its own sizes, whatever was removed
        moved = band_constant(0.001 / 3, 5, 50, "analytic", sims=1000, seed=0, removed=(9, 4))
        assert moved is const

    def test_clear_empties_both_memos_and_warm_rerun_hits(self):
        # clear_band_cache() empties the band and quantile memos, so every CLI
        # command (and every benchmark command) starts cold; a warm rerun of
        # lambda_adapt then answers from the memos alone
        memos = (counting._band_constant, distributions._binom_quantile)
        data = separated_scores(40, 60, tie_seed=3)
        spec = BoundSpec(alpha=0.05, band_kind="simulated", sims=200, seed=5)
        lambda_adapt(data, spec)
        assert all(memo.cache_info().currsize > 0 for memo in memos)
        counting.clear_band_cache()
        assert all(memo.cache_info().currsize == 0 for memo in memos)
        cold = lambda_adapt(data, spec)
        misses = [memo.cache_info().misses for memo in memos]
        warm = lambda_adapt(data, spec)
        assert warm == cold
        assert [memo.cache_info().misses for memo in memos] == misses
        assert all(memo.cache_info().maxsize == distributions.MEMO_SIZE for memo in memos)


def test_counting_path_validation_catches_bad_paths():
    with pytest.raises(ParameterError):
        CountingPath(v=np.array([0, 2]), m=2, n=1).validate()
    with pytest.raises(ParameterError):
        CountingPath(v=np.array([1, 0]), m=2, n=1).validate()
