"""Counting process construction and the two simultaneous null bands."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy import stats

from conftest import count_null_rows, separated_scores
from hplb import (
    BandConstant,
    BoundSpec,
    CountingPath,
    ExampleSpec,
    LabeledScores,
    ParameterError,
    RngStream,
    band_constant,
    band_value,
    beta_threshold,
    build_counting_path,
    counting,
    distributions,
    gen_example,
    lambda_adapt,
    simulate_null_sup_quantile,
    w_scale,
)


# Scores that compare equal as doubles, and the infinities, in one pool.
_SCORE_POOL = np.array([-np.inf, -1.5, -0.0, 0.0, 0.25, np.inf])


@st.composite
def _tie_break_inputs(draw):
    """Scores and tie-break keys u: tied, continuous and mixed scores drawing
    on `_SCORE_POOL`, and 500 to 5000 distinct levels, with u uniform as
    `build_counting_path` draws it, sometimes with an exact tie in u or a
    near one (2**-53 apart, within one score), at sizes on both sides of
    2**15 ids."""
    N = draw(st.one_of(st.integers(2, 40), st.integers(200, 5000),
                       st.sampled_from([(1 << 15) - 1, 1 << 15, (1 << 15) + 1, 40000])))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tied", "continuous", "mixed", "levels"]))
    if kind == "tied":
        scores = gen.choice(_SCORE_POOL[:draw(st.integers(1, len(_SCORE_POOL)))], N)
    elif kind == "levels":  # around and past the 512 ranks that need all 53 bits of u
        levels = draw(st.sampled_from([500, 511, 512, 513, 600, 1100, 5000]))
        scores = gen.integers(0, levels, N) / 7.0
    else:
        scores = gen.normal(size=N)
        if kind == "mixed":
            pooled = gen.random(N) < 0.5
            scores[pooled] = gen.choice(_SCORE_POOL, int(pooled.sum()))
    u = gen.random(N)
    tie = draw(st.sampled_from(["none", "exact", "near"]))
    if tie != "none":
        i, j = gen.choice(N, 2, replace=False)
        if tie == "exact":
            u[j] = u[i]
        else:  # k one apart, which the keys tell apart only while they keep every bit of u
            u[j] = u[i] + 2.0**-53 if u[i] < 0.5 else u[i] - 2.0**-53
        if tie == "near" or draw(st.booleans()):
            scores[j] = scores[i]  # with an exact tie in u, a full tie: lexsort breaks it by index
    return scores, u


class _FixedStream:
    """Stands in for the tie-break stream: its one draw is `u`."""

    def __init__(self, u):
        self.u = u

    def __call__(self, *identity):
        return self

    def random(self, size):
        assert size == len(self.u)
        return self.u


class TestBuildCountingPath:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_tie_break_inputs(), st.integers(0, 2**32 - 1))
    def test_tie_break_order_is_lexsort(self, case, label_seed):
        scores, u = case
        labels = np.random.default_rng(label_seed).integers(0, 2, len(scores))
        got = counting._zeros_in_tie_break_order(scores, u, labels)
        assert np.array_equal(got, labels[np.lexsort((u, scores))] == 0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_tie_break_inputs(), st.integers(0, 2**32 - 1),
           st.sampled_from(["on-grid", "off-grid", "outside"]))
    def test_path_counts_zeros_in_lexsort_order(self, case, label_seed, grid):
        # one keyed sort decides, lexsort only where two keys agree above the last bit
        scores, u = case
        N = len(scores)
        if grid == "off-grid":
            u = u / 3.0  # mostly not multiples of 2**-53
        elif grid == "outside":
            u = u.copy()
            u[label_seed % N] = 1.0 if label_seed % 2 else -0.25
        labels = np.random.default_rng(label_seed).integers(0, 2, N)
        labels[:2] = 0, 1
        order = np.lexsort((u, scores))
        want = np.cumsum(labels[order] == 0)[:-1]
        # the keys keep the top 53 - drop bits of u, the ranks taking the rest
        drop = max(0, (len(np.unique(scores)) - 1).bit_length() - 9)
        s, kept = scores[order], np.floor(u[order] * 2.0 ** (53 - drop))
        collide = ((s[1:] == s[:-1]) & (kept[1:] == kept[:-1])).any()
        in_range = (u >= 0).all() and (u < 1).all()
        keyed = in_range and not collide
        event(f"keyed={keyed} collide={collide} in_range={in_range} drop>0={drop > 0} "
              f"N>2**15={N > 1 << 15}")
        fallbacks, lexsort = [], np.lexsort

        def spy(keys):
            fallbacks.append(len(keys[0]))
            return lexsort(keys)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "RngStream", _FixedStream(u))
            mp.setattr(counting.np, "lexsort", spy)
            path = build_counting_path(LabeledScores(scores, labels))
        assert np.array_equal(path.v, want)
        assert fallbacks == ([] if keyed else [N])

    @pytest.mark.parametrize("example", [0, 1, 2])
    def test_path_of_a_drawn_example_uses_its_tie_break_stream(self, example):
        data, _ = gen_example(ExampleSpec(example, 3000, gamma=-0.5), RngStream(5, example))
        u = RngStream(data.tie_seed, 0, ("tie-break",)).random(data.total)
        want = np.cumsum(data.labels[np.lexsort((u, data.scores))] == 0)[:-1]
        assert np.array_equal(build_counting_path(data).v, want)

    def test_direct_count(self):
        data = LabeledScores(scores=np.array([0.1, 0.2, 0.3]), labels=np.array([0, 1, 0]))
        assert build_counting_path(data).v.tolist() == [1, 1]

    def test_perfect_separation(self):
        data = LabeledScores(
            scores=np.array([1.0, 2.0, 3.0]), labels=np.array([0, 0, 1])
        )
        assert build_counting_path(data).v.tolist() == [1, 2]

    @pytest.mark.parametrize("scores,labels", [
        ([0.1, 0.2], [0, 2]),
        ([0.1, 0.2], [0, -1]),
        ([0.1, 0.2], [0.0, 0.5]),
        ([0.1, 0.2], [0, np.nan]),
        ([0.1, 0.2], ["0", "1"]),
        ([0.1, np.nan], [0, 1]),
        ([np.nan, np.nan], [0, 0]),
        ([0.1, 0.2], [1, 1]),
        ([], []),
        ([0.1, 0.2], [0, 1, 1]),
        ([[0.1, 0.2]], [[0, 1]]),
    ], ids=["label-2", "label-neg", "label-half", "label-nan", "label-str", "score-nan",
            "nan-one-class", "one-class", "empty", "length", "2-d"])
    def test_bad_inputs_raise_without_warnings(self, scores, labels):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                LabeledScores(np.array(scores), np.array(labels))

    @pytest.mark.parametrize("tie_seed", [1.5, 2.0, "3", None, True, False, np.float64(4.0)])
    def test_non_integer_tie_seed_rejected(self, tie_seed):
        # the tie-break stream used to truncate a float and parse a string
        # with int(), take a bool as 0 or 1 and fail on None with TypeError
        with pytest.raises(ParameterError, match="tie_seed"):
            LabeledScores(np.array([0.1, 0.2]), np.array([0, 1]), tie_seed=tie_seed)

    def test_integer_tie_seeds_accepted(self):
        for tie_seed in (0, 2**63 - 1, np.int64(5), np.uint64(2**64 - 1)):
            assert LabeledScores(np.array([0.1, 0.2]), np.array([0, 1]), tie_seed).tie_seed == tie_seed

    def test_accepted_labels_become_read_only_int8(self):
        scores = np.array([np.inf, -np.inf, 0.0, -0.0])
        for labels in ([0, 1, 1, 0], [0.0, 1.0, 1.0, 0.0], [False, True, True, False]):
            data = LabeledScores(scores, np.array(labels))
            assert data.labels.dtype == np.int8 and data.labels.tolist() == [0, 1, 1, 0]
            assert (data.m, data.n) == (2, 2)
            assert not data.labels.flags.writeable and not data.scores.flags.writeable

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

    def test_bit_for_bit_the_formula(self):
        # the band grids and the null statistics rely on these exact doubles
        for m, n in [(10, 10), (3, 997), (2000, 2000), (12345, 678)]:
            N = m + n
            z = np.arange(1.0, N)
            want = np.sqrt((m / N) * (n / N) * ((N - z) / (N - 1)) * z)
            assert np.array_equal(w_scale(z, m, n).view(np.int64), want.view(np.int64))
            assert w_scale(7, m, n) == want[6]


class TestScaleGrid:
    """The mean line and scale grid that verdicts and null statistics share."""

    def test_grid_is_the_formula_at_every_z(self):
        for m, n in [(10, 10), (3, 997), (2000, 2000), (12345, 678)]:
            N = m + n
            z = np.arange(1.0, N)
            mean, w = counting._scale_grids(m, n)
            assert np.array_equal(w.view(np.int64), w_scale(z, m, n).view(np.int64))
            assert np.array_equal(mean.view(np.int64), (z * (m / N)).view(np.int64))

    def test_grid_is_memoized_read_only_and_cleared_with_the_band_memo(self):
        counting.clear_band_cache()
        _, w = counting._scale_grids(40, 60)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0
        assert counting._scale_grids(40, 60)[1] is w
        counting.clear_band_cache()
        again = counting._scale_grids(40, 60)[1]
        assert again is not w and np.array_equal(again, w)

    def test_mean_line_is_memoized_read_only_and_cleared_with_the_band_memo(self):
        counting.clear_band_cache()
        mean, _ = counting._scale_grids(40, 60)
        assert not mean.flags.writeable
        with pytest.raises(ValueError):
            mean[0] = 1.0
        assert counting._scale_grids(40, 60)[0] is mean
        counting.clear_band_cache()
        again = counting._scale_grids(40, 60)[0]
        assert again is not mean and np.array_equal(again, mean)

    def test_grid_memo_stays_within_its_byte_budget(self):
        counting.clear_band_cache()
        memo = counting._scale_grids
        kept = []
        for m_eff in range(49_990, 50_000):
            grids = counting._scale_grids(m_eff, 100_000 - m_eff)
            assert sum(g.nbytes for g in grids) == 16 * (100_000 - 1)
            kept.append(grids)
            assert sum(g.nbytes for v in memo._entries.values() for g in v) <= counting._GRID_BUDGET
        assert memo.cache_info().currsize >= 1
        # a pair of grids over the budget is computed and not kept
        half = counting._GRID_BUDGET // 16
        mean, w = counting._scale_grids(half, half)
        assert mean.nbytes + w.nbytes > counting._GRID_BUDGET
        assert (half, half) not in memo._entries
        counting.clear_band_cache()
        assert memo.cache_info().currsize == 0


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
        with pytest.raises(ParameterError):
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

    @pytest.mark.parametrize("draw", ["stored", "over_budget"])
    @pytest.mark.parametrize("removed", [(0, 0), (6, 4)])
    @pytest.mark.parametrize("drawn_before", [False, True])
    def test_stream_constant_is_the_band_records(self, monkeypatch, draw, removed,
                                                 drawn_before):
        # on the stream that band_constant derives for its key, the function
        # gives the key's constant and shares its draw, whatever the stream
        # has drawn already; small chunks split the draw into three
        alpha, m_eff, n_eff, sims, seed = 0.05 / 3, 30, 25, 300, 7
        m, n = m_eff + removed[0], n_eff + removed[1]
        monkeypatch.setattr(counting, "_CHUNK_IDS", (m + n) * 100)
        if draw == "over_budget":
            monkeypatch.setattr(counting, "_DRAW_BUDGET", 0)
        rng = RngStream(seed, 0, ("null-band", m, n, sims, round(alpha, 12)))
        if drawn_before:
            rng.random(5)
        counting.clear_band_cache()
        got = simulate_null_sup_quantile(alpha, m_eff, n_eff, sims, rng, removed)
        want = band_constant(alpha, m_eff, n_eff, "simulated", sims, seed, removed)
        assert counting._stored_draw.cache_info().misses == (draw == "stored")
        counting.clear_band_cache()
        assert (got.c, got.kind, got.m_eff, got.n_eff, got.sims) == (
            want.c, want.kind, want.m_eff, want.n_eff, want.sims)


class TestCoupledDraw:
    @pytest.mark.parametrize("removed", [(2, 1), (0, 0), (3, 2)])
    def test_cut_rows_are_uniform_arrangements(self, removed):
        # deleting the ids 0..q_m-1 (ones) and m..m+q_n-1 (zeros) from a
        # uniform permutation of m = 4 ones and n = 3 zeros leaves every
        # arrangement of the remaining ones and zeros equally likely
        m, n, sims = 4, 3, 12000
        q_m, q_n = removed
        ids = np.concatenate(list(counting._draw_rows(RngStream(21, 0), m + n, sims)))
        (cut,) = counting._kept_bits([counting._blocks(ids, m)], m, removed)
        keep, ones = (np.unpackbits(flags, axis=1, bitorder="little").view(bool)
                      for flags in cut)
        kept = ones[keep].reshape(sims, -1)  # the one flags of the kept positions, in order
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

    @pytest.mark.parametrize("draw", ["stored", "over_budget"])
    @pytest.mark.parametrize("N, sims, chunk_ids, scratch_ids", [
        (7, 150, 50, 1 << 14),      # chunks of 7 rows, one scratch pass each
        (300, 120, 3000, 1000),     # chunks of 10 rows, shuffled 3 at a time
        (5000, 7, 4000, 1 << 14),   # one row per chunk
        ((1 << 16) + 1, 3, 1 << 17, 1 << 14),  # uint32 ids, one row per chunk
    ])
    def test_draw_is_the_stored_dtype_shuffle(self, monkeypatch, draw, N, sims, chunk_ids,
                                              scratch_ids):
        # the np.intp scratch shuffle draws byte for byte the ids that
        # permuting the uint16 (N <= 2**16) or uint32 draw in place gives; a
        # stored chunk holds their inverse permutation and one flags (ids
        # below m), and either path cuts from them the kept flags and
        # kept-one flags of their positions
        monkeypatch.setattr(counting, "_CHUNK_IDS", chunk_ids)
        monkeypatch.setattr(counting, "_SCRATCH_IDS", scratch_ids)
        if draw == "over_budget":
            monkeypatch.setattr(counting, "_DRAW_BUDGET", 0)
        dtype = np.uint16 if N <= 1 << 16 else np.uint32
        ids = np.broadcast_to(np.arange(N, dtype=dtype), (sims, N)).copy()
        RngStream(13, 0, ("draw",)).generator.permuted(ids, axis=1, out=ids)
        m, (q_m, q_n) = N // 3, (1, 2)
        identity = RngStream(13, 0, ("draw",)).identity
        counting.clear_band_cache()
        drawn = list(counting._draw_rows(RngStream(*identity), N, sims))
        cut = list(counting._null_draw(identity, N, sims, m, (q_m, q_n)))
        assert counting._stored_draw.cache_info().currsize == (draw == "stored")
        assert all(chunk.dtype == dtype for chunk in drawn)
        assert np.concatenate(drawn).tobytes() == ids.tobytes()
        assert [len(kept) for kept, _ in cut] == [len(chunk) for chunk in drawn]
        kept, kept_ones = (np.unpackbits(np.concatenate(flags), axis=1, bitorder="little")
                           for flags in zip(*cut))
        assert kept.shape[1] % 64 == 0 and not kept[:, N:].any()
        gone = (ids < q_m) | ((ids >= m) & (ids < m + q_n))
        assert np.array_equal(kept[:, :N], ~gone)
        assert np.array_equal(kept_ones[:, :N], (ids < m) & ~gone) and not kept_ones[:, N:].any()
        if draw == "stored":
            chunks = counting._stored_draw(identity, N, sims, m)
            pos, ones = (np.concatenate(views) for views in zip(*chunks))
            assert pos.dtype == dtype
            assert (np.take_along_axis(pos, ids, axis=1) == np.arange(N)).all()
            ones = np.unpackbits(ones, axis=1, bitorder="little")
            assert np.array_equal(ones[:, :N], ids < m) and not ones[:, N:].any()
        counting.clear_band_cache()

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
        stored = list(counting._null_draw(RngStream(5, 0, ("direct",)).identity, 85, 300, 50,
                                          (10, 5)))
        monkeypatch.setattr(counting, "_DRAW_BUDGET", 85 * 300 * 2 - 1)
        counting.clear_band_cache()
        redrawn = constants(keys)
        assert counting._stored_draw.cache_info().currsize == 0
        assert cold == warm == reverse == redrawn
        # the draw restarts a stream from its identity, and is cut alike, on
        # either path
        used = RngStream(5, 0, ("direct",))
        used.random(3)
        redraw = list(counting._null_draw(used.identity, 85, 300, 50, (10, 5)))
        assert len(redraw) == len(stored) == 5
        assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                   for a, b in zip(redraw, stored))
        counting.clear_band_cache()

    @pytest.mark.parametrize("draw", ["stored", "over_budget"])
    def test_queries_on_live_records_cut_each_row_once(self, monkeypatch, draw):
        # two keys of one sample, each queried at four statistics around its
        # constant on the record the earlier queries left, then for the
        # constant: every null row of a key is cut once, each verdict is the
        # constant's and each key has one constant.  The shared draw is made
        # once when stored; over the budget a resumed query draws it again
        keys = [(40, 30, (3, 1)), (41, 30, (2, 1))]

        def constant(key):
            return band_constant(0.05 / 3, key[0], key[1], "simulated", sims=200, seed=2,
                                 removed=key[2])

        counting.clear_band_cache()
        serial = [constant(key).c for key in keys]
        rows = count_null_rows(monkeypatch)
        draws = []
        draw_rows = counting._draw_rows
        monkeypatch.setattr(counting, "_draw_rows",
                            lambda *args: draws.append(args[1:]) or draw_rows(*args))
        monkeypatch.setattr(counting, "_CHUNK_IDS", 74 * 20)  # ten chunks of 20 rows
        if draw == "over_budget":
            monkeypatch.setattr(counting, "_DRAW_BUDGET", 0)
        counting.clear_band_cache()
        # per key: far below, just below, at and just above its constant
        offsets = (-2.0, -1e-9, 0.0, 1e-9)
        verdicts = []
        for i in range(8):
            m_eff, n_eff, removed = keys[i % 2]
            verdicts.append(counting.exceeds_band(serial[i % 2] + offsets[i // 2], 0.05 / 3,
                                                  m_eff, n_eff, "simulated", sims=200,
                                                  seed=2, removed=removed))
        results = [constant(keys[i % 2]) for i in range(8)]
        for m_eff, n_eff, _ in keys:
            assert sum(r for m, n, r in rows if (m, n) == (m_eff, n_eff)) == 200
        assert set(draws) == {(43 + 31, 200)}
        assert len(draws) == 1 if draw == "stored" else len(draws) > len(keys)
        assert verdicts == [serial[i % 2] + offsets[i // 2] > serial[i % 2] for i in range(8)]
        assert verdicts == [False] * 6 + [True] * 2
        assert all(results[i] is results[i % 2] for i in range(8))
        assert [results[0].c, results[1].c] == serial
        counting.clear_band_cache()

    def test_failed_miss_leaves_no_entry(self):
        counting.clear_band_cache()
        for _ in range(2):
            with pytest.raises(ParameterError):
                band_constant(0.001 / 3, 10, 10, "simulated", sims=1000)
            with pytest.raises(ParameterError):
                counting.exceeds_band(1.0, 0.001 / 3, 10, 10, "simulated", sims=1000)
        info = counting._band_records.cache_info()
        assert (info.misses, info.currsize) == (4, 0)


class _AllStatistics:
    """Reference band record: every one of the `sims` statistics of the key's
    null draw (`_naive_sups`), cut in draw order until the rank rule settles
    a query, as a record that keeps them all would.  A query reads 1, 2, 4,
    4, ... chunks at a time from where the record stands, and settles only
    at the end of such a group."""

    def __init__(self, alpha, m_eff, n_eff, kind, sims, seed, removed):
        m, n = m_eff + removed[0], n_eff + removed[1]
        stream = RngStream(seed, 0, ("null-band", m, n, sims, round(alpha, 12)))
        chunks = list(counting._draw_rows(stream, m + n, sims))
        self.stats = _naive_sups(np.concatenate(chunks), m_eff, n_eff, removed)
        self.ends = np.cumsum([len(ids) for ids in chunks])
        self.k = sims + 1 - math.floor(alpha * (sims + 1))
        self.rows = 0

    def exceeds(self, t):
        chunks = int(np.searchsorted(self.ends, self.rows, side="right"))
        stops, size = [self.rows], 1
        while chunks < len(self.ends):
            chunks = min(chunks + size, len(self.ends))
            stops.append(self.ends[chunks - 1])
            size = min(2 * size, 4)
        for rows in stops:
            self.rows = int(rows)
            below = int(np.count_nonzero(self.stats[:rows] < t))
            if below >= self.k:
                return True
            if rows - below >= len(self.stats) + 1 - self.k:
                return False
        raise AssertionError("every row cut and the verdict still open")

    def constant(self):
        self.rows = len(self.stats)
        return np.sort(self.stats)[self.k - 1]


def _loosest(block_sups, near):
    """A kernel that keeps the floor contract at its loosest: it offers each
    row's own T as the row's lower bound, and returns every row below the
    chunk's floor just below the floor (`near`) or at -inf."""

    def kernel(cut, m_eff, n_eff, floor):
        for T in block_sups(cut, m_eff, n_eff, lambda bounds: -np.inf):
            least = floor(T)
            yield np.where(T >= least, T, np.nextafter(least, -np.inf) if near else -np.inf)

    return kernel


class TestRankAwareRecord:
    @pytest.mark.parametrize("kernel", ["block", "near", "far"])
    @pytest.mark.parametrize("draw", ["stored", "over_budget"])
    @pytest.mark.parametrize("alpha, m_eff, n_eff, removed", [
        (0.05 / 3, 150, 180, (20, 30)),  # N_eff = 330, five statistics kept
        (0.05, 200, 130, (0, 0)),        # N_eff = 330, fifteen kept
        (0.2, 50, 40, (5, 5)),           # N_eff = 90, sixty kept
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_record_matches_one_that_keeps_every_statistic(self, monkeypatch, kernel, draw,
                                                          alpha, m_eff, n_eff, removed, seed):
        # a seeded sequence of queries around c, each on the record the earlier
        # ones left, and the constant in the middle or at the end: every
        # verdict, the rows cut after each query and the constant are those of
        # a record that keeps all sims statistics, and the record never keeps
        # more than sims + 1 - k of them; so too with the loosest kernels the
        # floor allows
        sims = 300
        if kernel != "block":
            monkeypatch.setattr(counting, "_block_sups",
                                _loosest(counting._block_sups, kernel == "near"))
        key = dict(alpha=alpha, m_eff=m_eff, n_eff=n_eff, kind="simulated", sims=sims,
                   seed=seed, removed=removed)
        chunk_rows = (13, sims, 40)[seed]  # seed 1 draws a single chunk
        monkeypatch.setattr(counting, "_CHUNK_IDS", chunk_rows * (m_eff + n_eff + sum(removed)))
        if draw == "over_budget":
            monkeypatch.setattr(counting, "_DRAW_BUDGET", 0)
        counting.clear_band_cache()
        want = _AllStatistics(**key)
        reach = sims + 1 - want.k
        order = np.sort(want.stats)
        c = order[want.k - 1]
        gen = np.random.default_rng([seed, draw == "stored"])
        near = order[want.k - 4:want.k + 2]
        ts = [*near, *np.nextafter(near, -np.inf), *np.nextafter(near, np.inf),
              *(c + gen.normal(0.0, order[-1] - order[want.k - 6], 6)), c - 3.0, c + 1.0]
        ts = list(gen.permutation(ts))[:14]
        ts.insert(int(gen.integers(len(ts) // 2, len(ts) + 1)), None)
        for t in ts:
            if t is None:
                assert counting.band_constant(**key).c == want.constant() == c
            else:
                assert counting.exceeds_band(t, **key) == want.exceeds(t) == (t > c), t
            record = counting._band_record(**key)
            assert record._rows == want.rows
            assert record._stats is None or record._stats.size <= reach
        assert record._rows == sims and record.const.c == c
        counting.clear_band_cache()

    @pytest.mark.parametrize("draw", ["stored", "over_budget"])
    def test_a_query_cuts_its_chunks_in_groups_of_one_two_four(self, monkeypatch, draw):
        # one record queried from far below its constant to just above it, in
        # chunks of 10 rows: each query calls the kernel on 1, 2, 4, 4, ...
        # chunks from where the record stands, the last call ending at the
        # draw's end, and each verdict is the constant's
        key = dict(alpha=0.05, m_eff=60, n_eff=50, kind="simulated", sims=400, seed=3,
                   removed=(4, 6))
        counting.clear_band_cache()
        c = band_constant(**key).c
        monkeypatch.setattr(counting, "_CHUNK_IDS", 10 * 120)  # forty chunks
        if draw == "over_budget":
            monkeypatch.setattr(counting, "_DRAW_BUDGET", 0)
        rows = count_null_rows(monkeypatch)
        counting.clear_band_cache()
        calls = []
        for t in [c - 2.0, c - 0.6, c - 0.3, c - 0.1, c, np.nextafter(c, np.inf)]:
            rows.clear()
            assert counting.exceeds_band(t, **key) == (t > c), t
            assert all(r % 10 == 0 for _, _, r in rows)
            calls.append([r // 10 for _, _, r in rows])
            assert counting._band_record(**key)._rows == 10 * sum(map(sum, calls))
        assert calls == [[1, 2], [1, 2, 4], [1, 2, 4, 4], [1, 2, 4, 4, 4], [], [1, 2, 1]]
        rows.clear()
        assert band_constant(**key).c == c and rows == []
        counting.clear_band_cache()


def _naive_sups(ids, m_eff, n_eff, removed):
    """T per row of `ids` from the cut 0/1 row: np.cumsum and (V - z m/N) / w."""
    q_m, q_n = removed
    m, N = m_eff + q_m, m_eff + n_eff
    z = np.arange(1, N)
    T = []
    for row in ids.astype(np.int64):
        kept = row[(row >= q_m) & ~((row >= m) & (row < m + q_n))]
        V = np.cumsum(kept < m)[:-1]
        T.append(((V - z * (m_eff / N)) / w_scale(z, m_eff, n_eff)).max())
    return np.array(T)


@st.composite
def _row_chunks(draw):
    """Id chunks of null rows: short rows, sizes around a row of one to two
    words and around multiples of 8, m_eff or n_eff equal to 1, nonzero
    removed counts, one-row chunks, and the rows with all ones or all zeros
    first."""
    N = draw(st.one_of(st.integers(2, 40), st.integers(70, 120),
                       st.sampled_from([8 * k + d for k in (40, 63, 125, 150) for d in (-1, 0, 1)]),
                       st.integers(96, 1300)))
    m_eff = draw(st.one_of(st.just(1), st.just(N - 1), st.integers(1, N - 1)))
    q_m, q_n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    m, total = m_eff + q_m, N + q_m + q_n
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [gen.permutation(total) for _ in range(draw(st.integers(0, 6)))]
    extreme = [np.arange(total), np.r_[m:total, :m]]  # all ones first, all zeros first
    ids += draw(st.lists(st.sampled_from(extreme), min_size=1 if not ids else 0, max_size=2))
    ids = np.array(draw(st.permutations(ids)), dtype=counting._id_dtype(total))
    cuts = sorted(draw(st.lists(st.integers(1, len(ids) - 1), max_size=3, unique=True))
                  if len(ids) > 1 else [])
    if draw(st.booleans()):
        cuts = list(range(1, len(ids)))  # one row per chunk
    return np.split(ids, cuts), m_eff, N - m_eff, (q_m, q_n)


def _stored_sups(chunks, m_eff, n_eff, removed, floor=-np.inf):
    """The statistics per row of the id chunks, cut from their stored form
    (`_blocks`), at one floor for every chunk."""
    m = m_eff + removed[0]
    cut = counting._kept_bits((counting._blocks(ids, m) for ids in chunks), m, removed)
    return list(counting._block_sups(cut, m_eff, n_eff, lambda bounds: floor))


def _assert_exact_above_floor(got, want, floor):
    """Rows with T >= floor bit for bit, every other row strictly below the floor."""
    high = want >= floor
    assert np.array_equal(got[high].view(np.int64), want[high].view(np.int64)), floor
    assert (got[~high] < floor).all(), floor


_BLOCK_EDGES = [
    # every residue of the uncut N mod 8, on the block kernel
    *[(130, 170 + r, (3, 2)) for r in range(8)],
    # every residue of the cut N_eff = 256 + r mod 8
    *[(64 * 3 + r, 64, (5 + r, 11)) for r in range(8)],
    # more ids removed than kept, at N_eff = 256, 260 and 10
    (128, 128, (200, 100)), (200, 60, (0, 300)), (6, 4, (9, 3)),
    # N_eff = 2, uncut, cut a little and cut to the last two ids
    (1, 1, (0, 0)), (1, 1, (3, 4)), (1, 1, (300, 299)),
    # N_eff = 256 + r, a word straddling the end of the row, uncut and cut
    *[(100 + r, 156, removed) for r in (0, 1, 7, 8, 63) for removed in [(0, 0), (4, 9)]],
    # short rows, uncut and cut: a row of N_eff <= 64 has no row lower bound
    # (L = -inf), and an uncut row of 65 or 72 ids ends in a word of one or
    # eight positions
    *[(N // 3 + 1, N - N // 3 - 1, removed) for N in (3, 8, 9, 63, 64, 65, 72, 95)
      for removed in [(0, 0), (4, 9)]],
]


def _edge_rows(m_eff, n_eff, removed):
    """Twelve random id rows of the uncut sample, then all ones first and all
    zeros first."""
    m, total = m_eff + removed[0], m_eff + n_eff + sum(removed)
    gen = np.random.default_rng(total)
    ids = [gen.permutation(total) for _ in range(12)] + [np.arange(total), np.r_[m:total, :m]]
    return np.array(ids, dtype=counting._id_dtype(total))


class TestRowKernel:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_row_chunks())
    def test_block_sups_bit_identical_to_naive_formula(self, case):
        chunks, m_eff, n_eff, removed = case
        got = _stored_sups(chunks, m_eff, n_eff, removed)
        assert [len(T) for T in got] == [len(ids) for ids in chunks]
        want = _naive_sups(np.concatenate(chunks), m_eff, n_eff, removed)
        assert np.array_equal(np.concatenate(got).view(np.int64), want.view(np.int64))

    def test_extreme_rows_short_and_long(self):
        # rows of 8 to 1300 ids: all ones first gives T > 0; all zeros first
        # gives T < 0, which leaves every block of the row to evaluate
        for m_eff, n_eff in [(3, 5), (120, 200), (700, 600), (1, 999), (999, 1)]:
            N = m_eff + n_eff
            ids = np.array([np.arange(N), np.r_[m_eff:N, :m_eff]], dtype=np.uint16)
            T = np.concatenate(_stored_sups([ids], m_eff, n_eff, (0, 0)))
            want = _naive_sups(ids, m_eff, n_eff, (0, 0))
            assert np.array_equal(T.view(np.int64), want.view(np.int64))
            assert T[1] < 0 < T[0]

    @pytest.mark.parametrize("m_eff, n_eff, removed", _BLOCK_EDGES)
    def test_block_edges_bit_identical_to_naive_formula(self, m_eff, n_eff, removed):
        ids = _edge_rows(m_eff, n_eff, removed)
        got = np.concatenate(_stored_sups(np.split(ids, [5, 6]), m_eff, n_eff, removed))
        want = _naive_sups(ids, m_eff, n_eff, removed)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_row_chunks(), st.lists(st.floats(0.0, 1.0), max_size=3))
    def test_rows_below_the_floor_come_back_below_it(self, case, quantiles):
        # at no floor, at each row's own T (a tie is exact) and at random
        # quantiles of the rows' statistics
        chunks, m_eff, n_eff, removed = case
        want = _naive_sups(np.concatenate(chunks), m_eff, n_eff, removed)
        for floor in [-np.inf, *want, *np.quantile(want, quantiles)]:
            got = np.concatenate(_stored_sups(chunks, m_eff, n_eff, removed, floor))
            _assert_exact_above_floor(got, want, floor)

    @pytest.mark.parametrize("m_eff, n_eff, removed", _BLOCK_EDGES)
    def test_block_edges_at_every_floor(self, m_eff, n_eff, removed):
        ids = _edge_rows(m_eff, n_eff, removed)
        want = _naive_sups(ids, m_eff, n_eff, removed)
        floors = np.quantile(want, np.random.default_rng(len(ids[0])).random(4))
        for floor in [-np.inf, *want, *floors, want.max() + 1.0]:
            got = np.concatenate(_stored_sups(np.split(ids, [5, 6]), m_eff, n_eff, removed,
                                              floor))
            _assert_exact_above_floor(got, want, floor)


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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            band_constant(0.05, 50, 50, "magic", sims=200)

    def test_analytic_fallback_below_guard(self):
        const = band_constant(0.05, 5, 50, "analytic", sims=200, seed=0)
        assert const.kind == "simulated"
        # a budget too small for alpha is raised to ceil(1/alpha)
        const = band_constant(0.001 / 3, 5, 50, "analytic", sims=1000, seed=0)
        assert const.kind == "simulated" and const.sims == 3000
        # the fallback draws at its own sizes, whatever was removed
        moved = band_constant(0.001 / 3, 5, 50, "analytic", sims=1000, seed=0, removed=(9, 4))
        assert moved is const

    @pytest.mark.parametrize("kind, m_eff", [("simulated", 1 << 24), ("analytic", 3)])
    def test_sizes_past_the_kernel_bound_are_rejected_before_drawing(self, monkeypatch, kind,
                                                                   m_eff):
        # the block kernel's rounding argument needs N_eff < 2**25: a key that
        # would simulate at m_eff + n_eff = 2**25 raises before its null draw
        # starts and leaves no record; one id fewer passes the check
        def no_draw(*args):
            raise AssertionError("null rows drawn")

        monkeypatch.setattr(counting, "_draw_rows", no_draw)
        a, sims = 0.05 / 3, 1000
        key = dict(alpha=a, m_eff=m_eff, n_eff=(1 << 25) - m_eff, kind=kind, sims=sims)
        counting.clear_band_cache()
        with pytest.raises(ParameterError, match=r"2\*\*25"):
            band_constant(**key)
        with pytest.raises(ParameterError, match=r"2\*\*25"):
            counting.exceeds_band(10.0, **key)
        assert counting._band_records.cache_info().currsize == 0
        k = counting._rank(a, m_eff, (1 << 25) - m_eff - 1, sims, (0, 0))
        assert k == sims + 1 - math.floor(a * (sims + 1))

    def test_clear_empties_both_memos_and_warm_rerun_hits(self, monkeypatch):
        # clear_band_cache() empties the band-record and quantile memos, so
        # every CLI command (and every benchmark command) starts cold; a warm
        # rerun of lambda_adapt then answers from the memos alone, the
        # verdicts from the null rows the cold run kept
        rows = count_null_rows(monkeypatch)
        memos = (counting._band_records, distributions._binom_quantile)
        data = separated_scores(40, 60, tie_seed=3)
        spec = BoundSpec(alpha=0.05, band_kind="simulated", sims=200, seed=5)
        lambda_adapt(data, spec)
        assert all(memo.cache_info().currsize > 0 for memo in memos)
        counting.clear_band_cache()
        assert all(memo.cache_info().currsize == 0 for memo in memos)
        rows.clear()
        cold = lambda_adapt(data, spec)
        misses = [memo.cache_info().misses for memo in memos]
        assert rows
        rows.clear()
        warm = lambda_adapt(data, spec)
        assert warm == cold
        assert [memo.cache_info().misses for memo in memos] == misses
        assert rows == []
        assert all(memo.cache_info().maxsize == distributions.MEMO_SIZE for memo in memos)


def test_counting_path_validation_catches_bad_paths():
    with pytest.raises(ParameterError):
        CountingPath(v=np.array([0, 2]), m=2, n=1).validate()
    with pytest.raises(ParameterError):
        CountingPath(v=np.array([1, 0]), m=2, n=1).validate()
