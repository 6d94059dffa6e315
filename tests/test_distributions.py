"""Distribution primitives against exact-arithmetic and scipy oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.special import bdtr

from hplb import ParameterError, binom_quantile, normal_quantile


def exact_binom_cdf(p_frac: Fraction, m: int):
    """Exact CDF array via integer binomials; the independent oracle."""
    pmf = [math.comb(m, k) * p_frac ** k * (1 - p_frac) ** (m - k) for k in range(m + 1)]
    out, c = [], Fraction(0)
    for v in pmf:
        c += v
        out.append(c)
    return out


def exact_quantile(alpha: Fraction, p_frac: Fraction, m: int) -> int:
    for k, c in enumerate(exact_binom_cdf(p_frac, m)):
        if c >= alpha:
            return k
    return m


class TestBinomQuantile:
    def test_half_mass_at_zero(self):
        # CDF(0) = 0.5 already reaches level 0.5
        assert binom_quantile(0.5, 0.5, 1) == 0

    def test_degenerate_zero_probability(self):
        assert binom_quantile(0.99, 0.0, 50) == 0

    def test_frozen_example_against_exact_oracle(self):
        # oracle: exact_quantile(0.975, 1/2, 100) == 60
        assert exact_quantile(Fraction(975, 1000), Fraction(1, 2), 100) == 60
        assert binom_quantile(0.975, 0.5, 100) == 60

    def test_effective_size_workhorse_value(self):
        # the 1 - 0.05/3 quantile of Binomial(0.2, 500); exact oracle gives 119
        level = Fraction(1) - Fraction(5, 300)
        assert exact_quantile(level, Fraction(1, 5), 500) == 119
        assert binom_quantile(1 - 0.05 / 3, 0.2, 500) == 119

    def test_invalid_alpha(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ParameterError):
                binom_quantile(bad, 0.5, 10)

    def test_invalid_params(self):
        for p, m in ((math.nan, 10), (1.2, 10), (0.5, -1), (0.5, 10.5)):
            with pytest.raises(ParameterError):
                binom_quantile(0.5, p, m)

    @pytest.mark.parametrize("m", [1, 10, 100])
    def test_monotone_in_alpha_and_p_with_bracket(self, m):
        alphas = np.arange(0.01, 1.0, 0.01)
        ps = np.arange(0.0, 1.01, 0.1)
        for p in ps:
            prev_q = 0
            for a in alphas:
                q = binom_quantile(float(a), float(p), m)
                assert q >= prev_q
                prev_q = q
                # quantile bracket: CDF(q-1) < alpha <= CDF(q)
                assert bdtr(q, m, p) >= a
                if q > 0:
                    assert bdtr(q - 1, m, p) < a
        for a in (0.05, 0.5, 0.95):
            prev_q = -1
            for p in ps:
                q = binom_quantile(a, float(p), m)
                assert q >= prev_q
                prev_q = q

    def test_bracket_against_exact_oracle_subgrid(self):
        # odd m with p = a = 1/2 is an exact tie: CDF((m-1)/2) = 1/2 exactly
        for m in (27, 100):
            for p_frac in (Fraction(1, 10), Fraction(1, 2)):
                cdf = exact_binom_cdf(p_frac, m)
                for a in (Fraction(5, 100), Fraction(1, 2), Fraction(95, 100)):
                    expected = next(k for k, c in enumerate(cdf) if c >= a)
                    got = binom_quantile(float(a), float(p_frac), m)
                    assert got == expected

    def test_large_m_log_space_path(self):
        # m = 10^5 exercises the search far out in the trial count
        q = binom_quantile(0.95, 0.15, 100_000)
        approx = 0.15 * 100_000 + 1.6448536 * math.sqrt(100_000 * 0.15 * 0.85)
        assert abs(q - approx) < 3.0


class TestNormalQuantile:
    def test_symmetry_at_half(self):
        assert abs(normal_quantile(0.5)) <= 1e-9

    def test_frozen_examples(self):
        # oracle: scipy.stats.norm.ppf
        assert abs(normal_quantile(0.975) - 1.959964) <= 5e-7
        assert abs(normal_quantile(0.95) - 1.644854) <= 5e-7

    def test_against_scipy_oracle_grid(self):
        grid = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 501), [1e-9, 1 - 1e-9]])
        for a in grid:
            assert abs(normal_quantile(float(a)) - stats.norm.ppf(a)) <= 1e-9

    def test_antisymmetry(self):
        for a in (0.01, 0.2, 0.35, 0.77, 0.99):
            assert abs(normal_quantile(a) + normal_quantile(1 - a)) <= 1e-9

    def test_domain(self):
        for bad in (0.0, 1.0, -1.0, 2.0, float("nan")):
            with pytest.raises(ParameterError):
                normal_quantile(bad)


def test_bounded_memo_evicts_before_a_miss_computes():
    # the one-draw memo must never hold two draws: a miss frees the oldest
    # entry before its own value is built, and a hit computes nothing
    from hplb.distributions import _BoundedMemo

    calls, sizes = [], []

    def square(x):
        calls.append(x)
        sizes.append(memo.cache_info().currsize)
        return x * x

    memo = _BoundedMemo(square, 1)
    assert [memo(3), memo(3), memo(4), memo(4), memo(3)] == [9, 9, 16, 16, 9]
    assert calls == [3, 4, 3]
    assert sizes == [0, 0, 0]
    assert memo.cache_info() == (3, 1, 1)
    memo.cache_clear()
    assert memo.cache_info() == (0, 1, 0)


def test_bounded_memo_weighs_entries_by_their_cost():
    # a costed memo evicts oldest-first until the new entry fits, and keeps
    # no entry that alone costs more than the budget
    from hplb.distributions import _BoundedMemo

    memo = _BoundedMemo(lambda x: x * x, 10, cost=lambda x: x)
    assert [memo(4), memo(5), memo(4)] == [16, 25, 16]
    assert memo.cache_info() == (2, 10, 2)
    assert memo(3) == 9  # 4 + 5 + 3 > 10: the oldest, 4, goes
    assert memo.cache_info() == (3, 10, 2)
    assert memo(4) == 16  # 5 + 3 + 4 > 10: 5 goes
    assert memo.cache_info() == (4, 10, 2)
    assert memo(11) == 121  # costs more than the budget: computed, not kept
    assert memo.cache_info() == (5, 10, 2)
    assert memo(3) == 9 and memo.cache_info().misses == 5
    memo.cache_clear()
    assert memo(10) == 100 and memo.cache_info() == (1, 10, 1)
